import inspect
import math
import sys

import numpy as np
import pytest
import scipy.linalg

from uqc import (
    Algebra,
    Generator,
    GeneratorSet,
    IndependenceStatus,
    VerdictStatus,
    check_general_direction,
    check_universality,
    epsilon_bound,
    lie_closure,
    linalg,
    make_general_direction,
    phases_of,
    repair,
    validate_set,
)
from uqc.errors import InvalidInput, ValidationError

from uqc.generators import (
    RELATION_BOUND,
    TAU_RELATION,
    _first_primes,
    _pslq_relation,
    _relation_vector,
    spectrum_is_degenerate,
    step_bound,
)

from conftest import pslq_reference, three_level_set, random_skew


# ---------------------------------------------------------------------------
# validation


def test_validate_golden_three_level():
    s = validate_set(three_level_set())
    assert s.dim == 3


def test_validate_rejects_hermitian():
    bad = Generator(np.array([[0, 1], [1, 0]], dtype=complex), "herm")
    with pytest.raises(ValidationError, match=r"^generator 1 \(herm\) is not skew-Hermitian$"):
        GeneratorSet(Algebra("u", 2), (Generator(np.diag([1j, 2j])), bad))


def test_validate_accepts_degenerate_spectrum():
    # coinciding phases fail the criterion's hypothesis, which the verdict
    # reports; the input itself is well formed
    s = GeneratorSet(Algebra("u", 3), (Generator(np.diag([1j, 1j, 2j])),))
    assert validate_set(s) is s


def test_validate_rejects_nondiagonal_designated():
    A = np.array([[1j, 1], [-1, 2j]])
    with pytest.raises(ValidationError, match=r"^generator 0 \(g1\) is designated but not diagonal$"):
        GeneratorSet(Algebra("u", 2), (Generator(A),))
    drift = Generator(np.diag([1j, 2j]), "drift")
    with pytest.raises(ValidationError, match=r"^generator 1 \(c\) is designated but not diagonal$"):
        GeneratorSet(Algebra("u", 2), (drift, Generator(A, "c")), general_index=1)


def test_validate_rejects_traceful_in_su_mode():
    # at subnormal scale the trace check allows d subnormal ulps of
    # rounding, far less than this trace
    for scale in (1.0, 1e-315, 1e-320):
        with pytest.raises(ValidationError, match=r"^generator 0 \(g1\) has nonzero trace in su mode$"):
            GeneratorSet(Algebra("su", 2), (Generator(scale * np.diag([1j, 2j])),))


def test_validate_rejects_empty_and_bad_index():
    with pytest.raises(InvalidInput, match=r"^generators: expected a non-empty list$"):
        GeneratorSet(Algebra("u", 2), ())
    with pytest.raises(InvalidInput, match=r"^general_index: expected an integer in \[0, 1\), got 3$"):
        GeneratorSet(Algebra("u", 2), (Generator(np.diag([1j, 2j])),), general_index=3)


def test_validate_rejects_dimension_mismatch():
    with pytest.raises(InvalidInput):
        GeneratorSet(
            Algebra("u", 3),
            (Generator(np.diag([1j, 2j, 3j])), Generator(np.diag([1j, 2j]))),
        )


@pytest.mark.parametrize(
    "matrix",
    [
        [[0, 1], [-1]],
        "not a matrix",
        np.array([[np.nan, 1], [-1, 0]]),
        [[None, 1], [-1, 0]],
        np.zeros((2, 3)),
        np.zeros((1, 2, 2)),
        np.zeros((0, 0)),
        np.zeros((3, 3)),
    ],
    ids=["ragged", "string", "nan", "none", "2x3", "1x2x2", "0x0", "3x3"],
)
def test_every_bad_matrix_is_refused_naming_its_generator(matrix):
    # the set is the one gate of a generator matrix: conversion, shape and
    # finiteness errors name the generator as the invariants' errors do
    drift = Generator(np.diag([1j, 2j]), "drift")
    with pytest.raises(ValidationError, match=r"^generator 1 \(c\) "):
        GeneratorSet(Algebra("u", 2), (drift, Generator(matrix, "c")))


@pytest.mark.parametrize(
    "dim", [2.0, 2.5, True, np.bool_(True), "2", None],
    ids=["2.0", "2.5", "True", "np.True_", "str", "None"],
)
def test_algebra_dimension_must_be_an_integer(dim):
    with pytest.raises(InvalidInput) as err:
        Algebra("u", dim)
    assert str(err.value) == f"dimension: expected a positive integer, got {dim!r}"


@pytest.mark.parametrize("kind", ["U", "sl", "", None])
def test_algebra_kind_must_be_u_or_su(kind):
    with pytest.raises(InvalidInput, match=f"^algebra: expected 'u' or 'su', got {kind!r}$"):
        Algebra(kind, 2)


@pytest.mark.parametrize("dim", [0, -1])
def test_algebra_dimension_must_be_positive(dim):
    with pytest.raises(InvalidInput, match=f"^dimension: expected a positive integer, got {dim}$"):
        Algebra("u", dim)


@pytest.mark.parametrize("theta", [[1.0, 2.0], [1.0, 2.0, 3.0, 5.0]], ids=["2", "4"])
def test_check_general_direction_wants_one_phase_per_level(theta):
    with pytest.raises(InvalidInput, match=rf"^expected 3 phases, got \({len(theta)},\)$"):
        check_general_direction(theta, Algebra("u", 3))


@pytest.mark.parametrize(
    "index", [1.0, True, np.bool_(True), "1", None],
    ids=["1.0", "True", "np.True_", "str", "None"],
)
def test_general_index_must_be_an_integer(index):
    gens = (Generator(np.diag([1j, 2j])), Generator(np.diag([3j, 5j])))
    with pytest.raises(InvalidInput) as err:
        GeneratorSet(Algebra("u", 2), gens, general_index=index)
    assert str(err.value) == f"general_index: expected an integer in [0, 2), got {index!r}"


def test_numpy_integers_are_stored_as_ints():
    algebra = Algebra("u", np.int64(2))
    s = GeneratorSet(algebra, (Generator(np.diag([1j, 2j])), Generator(np.diag([3j, 5j]))),
                     general_index=np.int32(1))
    assert type(algebra.dim) is int and algebra == Algebra("u", 2)
    assert type(s.general_index) is int and s.designated is s.generators[1]


def test_with_extra_validates_the_new_set():
    s = three_level_set()
    with pytest.raises(
        ValidationError, match=rf"^generator {len(s.generators)} \(identity\) is not skew-Hermitian$"
    ):
        s.with_extra([Generator(np.eye(3, dtype=complex), "identity")])


def test_list_real_and_complex_matrices_give_the_same_answers():
    # a set stores each matrix as the complex array it validated, so nested
    # lists and real arrays reach every entry point as complex input does
    drift = make_general_direction(Algebra("u", 3)).matrix
    coupling = [[0, 1, 0], [-1, 0, 0], [0, 0, 0]]
    forms = [
        (drift.tolist(), coupling),
        (drift, np.array(coupling, dtype=float)),
        (drift, np.array(coupling, dtype=complex)),
    ]
    answers = []
    for matrices in forms:
        s = GeneratorSet(Algebra("u", 3), tuple(Generator(M) for M in matrices))
        assert all(g.matrix.dtype == complex for g in s.generators)
        verdict = check_universality(s)
        plan = repair(s)
        answers.append((
            verdict.status,
            verdict.components,
            lie_closure(s).dimension,
            plan.bridges,
            check_universality(plan.resulting_set).status,
        ))
    assert answers[0][:2] == (VerdictStatus.REDUCIBLE, ((0, 1), (2,)))
    assert answers[0][4] is VerdictStatus.UNIVERSAL
    assert answers[1] == answers[0] and answers[2] == answers[0]
    # a complex128 array is stored as it is, not copied
    assert GeneratorSet(Algebra("u", 3), (Generator(drift),)).generators[0].matrix is drift
    # and a list that is not skew-Hermitian is refused as an array is
    with pytest.raises(ValidationError, match=r"^generator 1 \(g2\) is not skew-Hermitian$"):
        hermitian = np.abs(coupling).tolist()
        GeneratorSet(Algebra("u", 3), (Generator(drift.tolist()), Generator(hermitian)))


# ---------------------------------------------------------------------------
# spectrum independence


def test_sqrt_primes_heuristically_independent():
    verdict = check_general_direction(np.sqrt([2.0, 3.0, 5.0]), Algebra("u", 3), bound=10)
    assert verdict.status is IndependenceStatus.HEURISTICALLY_INDEPENDENT
    assert verdict.relation is None
    assert verdict.independent


def test_rational_phases_dependent():
    theta = np.array([2 * np.pi / 3, 4 * np.pi / 3, 0.0])
    verdict = check_general_direction(theta, Algebra("u", 3))
    assert verdict.status is IndependenceStatus.DEPENDENT
    rel = np.asarray(verdict.relation, dtype=float)
    assert np.any(rel != 0)
    x = np.concatenate([[1.0], theta / (2 * np.pi)])
    assert abs(rel @ x) <= 1e-9
    assert verdict.residual <= 1e-9


def _exhaustive_best(theta, algebra, bound):
    """Independent brute-force relation search used to pin expected values:
    the least |c . x| over nonzero integer c with |c_i| <= bound, the first
    in lexicographic order among ties."""
    k = algebra.dim if algebra.kind == "u" else algebra.dim - 1
    x = np.concatenate([[1.0], np.asarray(theta)[:k] / (2 * np.pi)])
    axes = np.meshgrid(*[np.arange(-bound, bound + 1)] * len(x), indexing="ij")
    grid = np.stack(axes, axis=-1).reshape(-1, len(x))
    grid = grid[np.any(grid, axis=1)]
    residuals = np.abs(grid @ x)
    best = int(np.argmin(residuals))
    return tuple(int(c) for c in grid[best]), float(residuals[best])


def test_shifted_sqrt2_combination_dependent():
    # 3*theta1 - theta2 + theta3 = 3*sqrt2 - (sqrt2+1) + (1-2*sqrt2) = 0,
    # confirmed by the independent exhaustive search below
    theta = np.array([np.sqrt(2.0), np.sqrt(2.0) + 1.0, 1.0 - 2.0 * np.sqrt(2.0)])
    coeffs, residual = _exhaustive_best(theta, Algebra("u", 3), bound=5)
    assert residual <= 1e-12
    assert coeffs in ((0, 3, -1, 1), (0, -3, 1, -1))

    verdict = check_general_direction(theta, Algebra("u", 3), bound=5)
    assert verdict.status is IndependenceStatus.DEPENDENT
    assert verdict.residual <= 1e-9


def test_degenerate_phases_dependent():
    verdict = check_general_direction(np.array([1.0, 1.0, 2.0]), Algebra("u", 3))
    assert verdict.status is IndependenceStatus.DEPENDENT


def test_spectrum_gaps_that_overflow_are_not_degenerate():
    # the gap between -1e308 and 1e308 overflows to inf, with no warning
    # (RuntimeWarnings fail this suite)
    assert not spectrum_is_degenerate(np.array([1e308, -1e308]))
    assert not spectrum_is_degenerate(np.array([-1.7e308, 0.0, 1.7e308]))
    assert spectrum_is_degenerate(np.array([1e308, 1e308, -1e308]))


def test_spectrum_degeneracy_does_not_see_the_scale():
    # the rule is relative to max|theta| at every magnitude: a power of two
    # changes no flag, from subnormal phases up
    for theta, degenerate in (
        ([1.0, 2.0], False),
        ([1.0, 1.0 + 1e-12, 3.0], True),
        ([-1.0, 0.5, 3.0, 2.75], False),
        ([4.0, 4.0, 4.0], True),
        ([0.0, 0.0], True),
    ):
        for k in range(-1070, 998, 7):
            scaled = np.ldexp(theta, k)
            if np.array_equal(np.ldexp(scaled, -k), theta):  # not rounded
                assert spectrum_is_degenerate(scaled) == degenerate, (theta, k)
    assert not spectrum_is_degenerate(np.array([1e-310, 2e-310]))


def test_spectrum_degeneracy_is_a_python_bool():
    # is True / is False, not a numpy.bool_ that compares equal
    for theta, degenerate in (
        ([1.0, 2.0, 3.5], False),
        ([1.0, 2.0, 1.0], True),
        ([1.0], False),
        ([0.0, 0.0, 0.0], True),
    ):
        assert spectrum_is_degenerate(np.array(theta)) is degenerate, theta
    for phases, degenerate in (([1.0, 2.0, 3.5], False), ([1.0, 2.0, 1.0], True)):
        s = GeneratorSet(Algebra("u", 3), (Generator(np.diag(1j * np.array(phases))),))
        assert check_universality(s).degenerate_spectrum is degenerate, phases


def test_zero_phase_gives_unit_relation():
    verdict = check_general_direction(np.array([np.sqrt(2.0), 0.0]), Algebra("u", 2))
    assert verdict.status is IndependenceStatus.DEPENDENT
    assert verdict.relation == (0, 0, 1)


def test_su_mode_ignores_last_phase():
    # last phase is 0 but su mode only relates the first d-1
    theta = np.array([np.sqrt(2.0), np.sqrt(3.0), 0.0])
    verdict = check_general_direction(theta, Algebra("su", 3))
    assert verdict.status is IndependenceStatus.HEURISTICALLY_INDEPENDENT


def test_su1_trivially_independent():
    # the relation vector is (1,): no entry is near zero and PSLQ needs two
    for bound in (1, RELATION_BOUND, 1000):
        verdict = check_general_direction(np.array([0.0]), Algebra("su", 1), bound)
        assert verdict.independent
        assert verdict.status is IndependenceStatus.HEURISTICALLY_INDEPENDENT
        assert verdict.relation is None
        assert verdict.search_bound == bound
        assert verdict.residual == math.inf


def test_bound_edge_is_the_same_at_every_d():
    # theta/2pi = (a, 10a - 3, sqrt3/5, sqrt5/11) with a = sqrt2/7: the one
    # relation has max|c_i| = 10, which counts below bound 11 only
    a = np.sqrt(2.0) / 7
    scaled = np.array([a, 10 * a - 3, np.sqrt(3.0) / 5, np.sqrt(5.0) / 11])
    for d in (2, 3, 4):
        algebra, theta = Algebra("u", d), 2 * np.pi * scaled[:d]
        verdict = check_general_direction(theta, algebra, bound=10)
        assert verdict.status is IndependenceStatus.HEURISTICALLY_INDEPENDENT, d
        assert verdict.relation is None and verdict.residual == math.inf
        verdict = check_general_direction(theta, algebra, bound=11)
        assert verdict.status is IndependenceStatus.DEPENDENT, d
        assert verdict.relation == (-3, 10, -1) + (0,) * (d - 2)
        assert verdict.residual <= TAU_RELATION


def _planted_drift(rng, algebra: Algebra, top: int) -> np.ndarray:
    """Sqrt-prime phases in random order with one relation c . (1, theta/2pi)
    = 0 planted, its coefficients drawn from [-top, top]; su mode relates the
    first d-1 phases."""
    k = algebra.dim if algebra.kind == "u" else algebra.dim - 1
    theta = _drift(rng, "sqrtprime", algebra)
    x = _relation_vector(theta, algebra)
    c = rng.integers(-top, top + 1, size=k + 1)
    l = int(rng.integers(1, k + 1))
    c[l] = rng.choice([-1, 1]) * rng.integers(1, top + 1)
    theta[l - 1] = -2 * np.pi * (c @ x - c[l] * x[l]) / c[l]
    return theta


@pytest.mark.parametrize("bound", [2, 3, 5, 10])
def test_planted_relations_below_the_bound_are_found_at_small_d(bound):
    # the small d where a sweep of the coefficient grid would be cheap: PSLQ
    # alone finds every planted relation with max|c_i| <= bound - 1 and none
    # in sqrt-prime phases, as the brute force over that grid confirms
    rng = np.random.default_rng([97, bound])
    algebras = [Algebra("u", d) for d in (1, 2, 3)] + [Algebra("su", d) for d in (2, 3, 4)]
    for algebra in algebras:
        theta = _drift(rng, "sqrtprime", algebra)
        verdict = check_general_direction(theta, algebra, bound=bound)
        assert verdict.status is IndependenceStatus.HEURISTICALLY_INDEPENDENT, algebra
        assert verdict.relation is None and verdict.residual == math.inf
        assert _exhaustive_best(theta, algebra, bound - 1)[1] > TAU_RELATION
        for _ in range(4):
            theta = _planted_drift(rng, algebra, bound - 1)
            assert _exhaustive_best(theta, algebra, bound - 1)[1] <= TAU_RELATION
            verdict = check_general_direction(theta, algebra, bound=bound)
            assert verdict.status is IndependenceStatus.DEPENDENT, (algebra, theta)
            assert max(map(abs, verdict.relation)) < bound
            x = _relation_vector(theta, algebra)
            assert verdict.residual == abs(float(np.dot(verdict.relation, x))) <= TAU_RELATION


# ---------------------------------------------------------------------------
# the float64 PSLQ against mpmath's

_PRIMES = [p for p in range(2, 140) if all(p % q for q in range(2, p))][:32]


def _drift(rng, family: str, algebra: Algebra) -> np.ndarray:
    """Seeded phases of a drift family; su mode relates the first d-1.

    ``sqrtprime``: square roots of distinct primes in random order;
    ``relation``: the same with theta_l = theta_i + theta_j planted (theta_1
    = theta_0 + pi, or theta_0 = 6pi/7, when fewer phases are related);
    ``random``: uniform in [-3, 3).
    """
    d = algebra.dim
    if family == "random":
        return rng.uniform(-3.0, 3.0, d)
    theta = np.sqrt(np.array(_PRIMES[:d], dtype=float))[rng.permutation(d)]
    if family == "relation":
        k = d if algebra.kind == "u" else d - 1
        if k >= 3:
            i, j, l = rng.choice(k, size=3, replace=False)
            theta[l] = theta[i] + theta[j]
        elif k == 2:
            theta[1] = theta[0] + np.pi
        else:
            theta[0] = 6 * np.pi / 7
    return theta


@pytest.mark.parametrize("tau_rel", [1e-6, 1e-9, 1e-12])
@pytest.mark.parametrize("bound", [5, 10, 20])
def test_pslq_gives_the_relations_of_mpmath(bound, tau_rel):
    case = [5, 10, 20].index(bound) * 3 + [1e-6, 1e-9, 1e-12].index(tau_rel)
    rng = np.random.default_rng([71, case])
    for f, family in enumerate(("sqrtprime", "relation", "random")):
        for a, kind in enumerate(("u", "su")):
            # d runs over 2..32 as the 54 drifts of the nine cases go by
            d = 2 + (7 * (6 * case + 2 * f + a)) % 31
            algebra = Algebra(kind, d)
            x = _relation_vector(_drift(rng, family, algebra), algebra)
            got = _pslq_relation(x, bound, tau_rel)
            ref = pslq_reference(x, bound, tau_rel)
            if got != ref:
                # float64 runs out of digits in a long search at a tolerance
                # near its resolution (here random u(21) at bound 5 and
                # 1e-12, whose quotients part after 234 iterations): both
                # engines must then still find a relation, and each must
                # pass PSLQ's acceptance on x
                assert got is not None and ref is not None, (family, kind, d)
                assert tau_rel == 1e-12, (family, kind, d)
                for coeffs, residual in (got, ref):
                    assert max(map(abs, coeffs)) < bound
                    assert residual < tau_rel * np.linalg.norm(x)


def _runs_line(fn, marker: str, *args):
    """``fn(*args)`` and whether the line after the one holding ``marker``
    ran."""
    lines, start = inspect.getsourcelines(fn)
    target = start + next(k for k, line in enumerate(lines) if marker in line) + 1
    hit = []

    def local(frame, event, arg):
        if event == "line" and frame.f_lineno == target:
            hit.append(True)
        return local

    sys.settrace(lambda frame, event, arg: local if frame.f_code is fn.__code__ else None)
    try:
        result = fn(*args)
    finally:
        sys.settrace(None)
    return result, bool(hit)


def test_pslq_two_entries():
    # n = 2: one pivot, no rotation
    x = np.array([1.0, 3.0 / 7.0])
    assert _pslq_relation(x, 10, 1e-9)[0] == (-3, 7) == pslq_reference(x, 10, 1e-9)[0]
    # 7 is not below the bound 5
    assert _pslq_relation(x, 5, 1e-9) is None is pslq_reference(x, 5, 1e-9)
    x = np.array([1.0, np.sqrt(2.0) / (2 * np.pi)])
    assert _pslq_relation(x, 10, 1e-9) is None is pslq_reference(x, 10, 1e-9)


def test_pslq_exact_rational_relation():
    # x = (1, 1/3, 2/3) in float64 misses the relation by one rounding
    theta = 2 * np.pi * np.array([1.0, 2.0]) / 3
    x = _relation_vector(theta, Algebra("u", 2))
    got = _pslq_relation(x, 10, 1e-9)
    assert got == ((1, -1, -1), 2.0**-53) == pslq_reference(x, 10, 1e-9)
    # with more multiples of 2pi/3 the relation is exact as well; its sign
    # then follows roundoff below float64 resolution and may differ
    for k in range(3, 9):
        theta = 2 * np.pi * np.arange(1, k + 1) / 3
        x = _relation_vector(theta, Algebra("u", k))
        coeffs, residual = _pslq_relation(x, 10, 1e-9)
        ref_coeffs, ref_residual = pslq_reference(x, 10, 1e-9)
        assert coeffs in (ref_coeffs, tuple(-c for c in ref_coeffs)), k
        assert residual == ref_residual <= 1e-15


def test_pslq_half_integer_quotients_round_as_in_mpmath():
    # theta_2 = 2 theta_1 exactly: a reduction quotient is exactly -1/2,
    # which mpmath's downward-truncated fixed point rounds down
    a = np.sqrt(3.0) / (2 * np.pi)
    x = np.array([1.0, a, 2 * a])
    assert _pslq_relation(x, 10, 1e-9) == ((0, 2, -1), 0.0) == pslq_reference(x, 10, 1e-9)
    # planted theta_5 = theta_3 + theta_4: a quotient one ulp above -1/2
    # must give 0, which ceil(q - 1/2) in float64 would not (q - 1/2
    # rounds to -1)
    r = np.sqrt([11.0, 7.0, 13.0, 5.0])
    theta = np.array([r[0], r[1], r[2], r[3], r[2] + r[3], np.sqrt(3.0)])
    x = _relation_vector(theta, Algebra("u", 6))
    got = _pslq_relation(x, 10, 1e-9)
    assert got == pslq_reference(x, 10, 1e-9)
    assert got[0] == (0, 0, 0, -1, -1, 1, 0)


@pytest.mark.parametrize("tau_rel", [1e-12, 1e-13, 1e-14, 1e-15, 1e-16])
def test_pslq_tolerance_below_float64_resolution(tau_rel):
    for d in (2, 4, 8):
        x = _relation_vector(np.sqrt(np.array(_PRIMES[:d], dtype=float)), Algebra("u", d))
        assert _pslq_relation(x, 10, tau_rel) is None, d
        assert pslq_reference(x, 10, tau_rel) is None, d


def test_pslq_zero_rotation_norm_ends_the_search():
    # the only relations of (1, 1/2, 1/4) have a coefficient 2, not below
    # the bound 2; the search then runs into a zero t0
    x = np.array([1.0, 0.5, 0.25])
    got, stopped = _runs_line(_pslq_relation, "if t0 == 0.0", x, 2, 1e-9)
    assert stopped
    assert got is None is pslq_reference(x, 2, 1e-9)


def test_pslq_finds_exact_relations_at_every_magnitude():
    # the suffix norms squared x and overflowed from |theta| near 5e154 on,
    # so theta_1 + theta_2 = 0 went unseen there
    for t in (1.0, 1e100, 5e154, 8e154, 1e200, 1e300, 1e308):
        x = _relation_vector(np.array([t, -t]), Algebra("u", 2))
        assert _pslq_relation(x, 10, 1e-9) == ((0, 1, 1), 0.0) == pslq_reference(x, 10, 1e-9), t
        verdict = check_general_direction(np.array([t, -t]), Algebra("u", 2))
        assert verdict.status is IndependenceStatus.DEPENDENT, t


def test_pslq_refuses_zero_and_tiny_entries():
    assert _pslq_relation(np.array([1.0, 0.0, 0.3]), 10, 1e-9) is None
    assert _pslq_relation(np.array([1.0, 1e-12, 0.3]), 10, 1e-9) is None
    assert pslq_reference(np.array([1.0, 1e-12, 0.3]), 10, 1e-9) is None


# ---------------------------------------------------------------------------
# constructed directions


def test_constructed_u3():
    g = make_general_direction(Algebra("u", 3))
    assert np.allclose(g.matrix, np.diag(1j * np.sqrt([2.0, 3.0, 5.0])))


def test_constructed_su2():
    g = make_general_direction(Algebra("su", 2))
    assert np.allclose(g.matrix, np.diag(1j * np.array([np.sqrt(2.0), -np.sqrt(2.0)])))


def test_constructed_su3():
    g = make_general_direction(Algebra("su", 3))
    expected = np.array([np.sqrt(2.0), np.sqrt(3.0), -np.sqrt(2.0) - np.sqrt(3.0)])
    assert np.allclose(phases_of(g), expected)
    verdict = check_general_direction(phases_of(g), Algebra("su", 3), bound=20)
    assert verdict.independent


def test_constructed_pass_heuristic_check_small_dims():
    # Spurious integer pseudo-relations with residual below 1e-9 exist for
    # longer phase vectors (that is intrinsic to fixed-tolerance relation
    # detection, and why constructed directions carry exact status instead);
    # the heuristic confirmation is asserted where the search is clean.
    for d in range(1, 5):
        for kind in ("u", "su"):
            algebra = Algebra(kind, d)
            g = make_general_direction(algebra)
            verdict = check_general_direction(phases_of(g), algebra, bound=20)
            assert verdict.independent, (kind, d)
    # at the default bound the clean range extends further
    for d in range(5, 7):
        for kind in ("u", "su"):
            algebra = Algebra(kind, d)
            g = make_general_direction(algebra)
            verdict = check_general_direction(phases_of(g), algebra, bound=10)
            assert verdict.independent, (kind, d)


def test_constructed_u_mode_has_nonzero_trace():
    for d in range(1, 7):
        g = make_general_direction(Algebra("u", d))
        assert abs(np.trace(g.matrix)) > 1.0


def test_constructed_su_mode_traceless_and_valid():
    for d in range(1, 7):
        algebra = Algebra("su", d)
        s = GeneratorSet(algebra, (make_general_direction(algebra),))
        if d == 1:
            validate_set(s)  # zero matrix, single phase
        else:
            validate_set(s)
            assert abs(np.trace(s.designated.matrix)) < 1e-12


def test_first_primes_sieve_matches_trial_division():
    primes: list[int] = []
    c = 2
    while len(primes) < 2000:
        if all(c % p for p in primes):
            primes.append(c)
        c += 1
    for n in range(2001):
        assert _first_primes(n) == primes[:n], n


# ---------------------------------------------------------------------------
# step-size bound


def test_epsilon_bound_drift():
    s = GeneratorSet(Algebra("u", 3), (make_general_direction(Algebra("u", 3)),))
    assert epsilon_bound(s) == pytest.approx(np.pi / (2 * np.sqrt(5.0)), rel=1e-12)


def test_epsilon_bound_rotation_boundary():
    # norm-1 generator: bound pi/2, and the distance at the bound is exactly
    # sqrt(2) = 2*sin(pi/4), so strictly below holds only for eps < bound
    A = np.array([[0, 1], [-1, 0]], dtype=complex)
    s = GeneratorSet(Algebra("u", 2), (Generator(np.diag([1j, 2j])), Generator(A)))
    assert step_bound(linalg.operator_norm(A)) == pytest.approx(np.pi / 2, rel=1e-12)
    dist = linalg.operator_norm(scipy.linalg.expm(np.pi / 2 * A) - np.eye(2))
    assert dist == pytest.approx(np.sqrt(2.0), abs=1e-9)


def test_epsilon_bound_excludes_zero_generators():
    A = np.array([[0, 1], [-1, 0]], dtype=complex)
    Z = np.zeros((2, 2), dtype=complex)
    s = GeneratorSet(
        Algebra("u", 2),
        (Generator(np.diag([0.5j, 0.25j])), Generator(A), Generator(Z)),
    )
    # the zero generator contributes +inf and drops out of the minimum
    assert epsilon_bound(s) == pytest.approx(np.pi / 2, rel=1e-12)
    assert math.isinf(step_bound(linalg.operator_norm(Z)))


def test_step_bound_at_both_ends_of_float64():
    # pi / (2 * norm) would double 1e308 to inf and give 0; below about
    # 8.8e-309 the bound itself is beyond float64
    assert step_bound(1e308) == 1.5707963267948964e-308
    assert step_bound(sys.float_info.max) > 0.0
    assert step_bound(1.0) == math.pi / 2.0
    assert step_bound(1e-309) == math.inf
    assert step_bound(0.0) == math.inf


def test_epsilon_bound_all_zero_is_unconstrained():
    # a zero generator constrains no step, so neither does a set of them
    s = GeneratorSet(Algebra("u", 1), (Generator(np.zeros((1, 1), dtype=complex)),))
    assert epsilon_bound(s) == math.inf


def test_epsilon_bound_scaling():
    rng = np.random.default_rng(29)
    for _ in range(10):
        d = int(rng.integers(2, 7))
        X = random_skew(rng, d)
        c = float(rng.uniform(0.1, 10.0))
        s1 = GeneratorSet(Algebra("u", d), (Generator(np.diag(1j * np.arange(1, d + 1, dtype=float))), Generator(X)))
        s2 = GeneratorSet(Algebra("u", d), (Generator(np.diag(1j * np.arange(1, d + 1, dtype=float))), Generator(c * X)))
        b1 = step_bound(linalg.operator_norm(s1.generators[1].matrix))
        b2 = step_bound(linalg.operator_norm(s2.generators[1].matrix))
        assert b2 == pytest.approx(b1 / c, rel=1e-10)


def _skew_cases(rng):
    """Nonzero skew-Hermitian matrices: dense, diagonal, rank-2, degenerate."""
    for d in range(1, 13):
        yield random_skew(rng, d)
        yield np.diag(1j * rng.standard_normal(d))
        if d >= 2:
            u, v = (rng.standard_normal(d) + 1j * rng.standard_normal(d) for _ in range(2))
            yield np.outer(u, v.conj()) - np.outer(v, u.conj())
            # eigenphases +-1, each repeated: a random unitary conjugate
            Q, _ = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
            phases = np.where(np.arange(d) < d // 2, 1.0, -1.0)
            yield (Q * (1j * phases)) @ Q.conj().T


def test_distance_below_sqrt2_at_099():
    # ||exp(t X) - I|| = 2 max|sin(t lambda / 2)| and max|lambda| = ||X||, so
    # at t = 0.99 pi / (2 ||X||) the distance is 2 sin(0.99 pi / 4) for every
    # nonzero X, at any scale; uqc epsilon reports that constant
    closed_form = 2.0 * np.sin(0.99 * np.pi / 4)
    assert closed_form == 1.4030628515417114 < np.sqrt(2.0)
    rng = np.random.default_rng(31)
    worst = 0.0
    for X in _skew_cases(rng):
        for scale in (1e-150, 1.0, 1e150):
            Y = scale * X
            eps = 0.99 * np.pi / (2 * linalg.operator_norm(Y))
            dist = linalg.operator_norm(scipy.linalg.expm(eps * Y) - np.eye(len(Y)))
            worst = max(worst, abs(dist - closed_form))
    assert worst <= 1e-15
