import time
import tracemalloc
import warnings

import numpy as np
import pytest

from uqc import (
    Algebra,
    Generator,
    GeneratorSet,
    VerdictStatus,
    check_universality,
    closure_block_partition,
    connected_components,
    build_coupling_graph,
    lie_closure,
    make_general_direction,
    minimal_pair,
)
from uqc.errors import InvalidInput, NumericalFailure
from uqc.linalg import commutator, skew_coords
from uqc.oracle import CLOSURE_DIM_LIMIT

from conftest import (
    embed_real,
    invariant_subspaces_reference,
    lie_closure_reference,
    random_instance,
    three_level_set,
    two_qubit_set,
)

#: relative closure defect a certified report must stay within
TAU_CLOSE = 1e-9


def _repaired_three_level():
    Y = np.zeros((3, 3), dtype=complex)
    Y[1, 2], Y[2, 1] = 1.0, -1.0
    return three_level_set().with_extra([Generator(Y, "bridge")])


# ---------------------------------------------------------------------------
# closure dimensions


def test_three_level_closure_dimension_pre_repair():
    # hand enumeration: su(2) acting on span{e1,e2} (3 dims) plus the drift
    # direction independent of i(E11-E22) gives 4
    report = lie_closure(three_level_set())
    assert report.dimension == 4
    assert report.target_dimension == 9


def test_three_level_closure_dimension_post_repair():
    report = lie_closure(_repaired_three_level())
    assert report.dimension == 9


def test_two_qubit_closure_full_control():
    report = lie_closure(two_qubit_set(full=True))
    assert report.dimension == 15
    assert report.target_dimension == 15


def test_closure_basis_orthonormal():
    report = lie_closure(_repaired_three_level())
    B = skew_coords(np.array(report.basis_matrices))
    G = B @ B.T
    assert np.allclose(G, np.eye(report.dimension), atol=1e-12)


def test_closure_certificate_small():
    for s in (three_level_set(), _repaired_three_level(), two_qubit_set(True)):
        report = lie_closure(s)
        assert report.residual_max <= 1e-9


def test_closure_noise_inflation_is_bounded():
    # an acceptance threshold below machine noise lets the trace direction
    # (pure roundoff: commutators are traceless only in exact arithmetic)
    # into an su-mode basis, but never anything beyond the d^2 cap, because
    # floating-point commutators of skew-Hermitian matrices are exactly
    # skew-Hermitian; the inflation shows up as dimension != target
    report = lie_closure(two_qubit_set(full=True), tau_rank=1e-17)
    assert report.dimension == 16
    assert report.dimension != report.target_dimension
    # a u-mode full closure spans every skew-Hermitian direction, so there
    # is nothing left for noise to claim
    report = lie_closure(_repaired_three_level(), tau_rank=1e-17)
    assert report.dimension == 9


def test_closure_guard_raises_when_exceeded():
    # below the double-projection noise floor (~1e-32 relative) every
    # roundoff direction counts as new rank and the d^2 cap must fire
    with pytest.raises(NumericalFailure, match="d\\^2 = 9"):
        lie_closure(_repaired_three_level(), tau_rank=1e-300)


def _span_projector(report):
    """Orthogonal projector onto the closure, in the 2d^2 real embedding."""
    B = np.array([embed_real(M) for M in report.basis_matrices])
    return B.T @ B


def _pair_defect(report):
    """Largest leftover off the closure of [b_i, b_j] over every basis pair.

    Each leftover is relative to max(1, |[b_i, b_j]|).  ``lie_closure``
    certifies only the brackets of the basis with its seeds; this measures
    closure under the bracket directly.
    """
    M = np.array(report.basis_matrices)
    B = skew_coords(M)
    worst = 0.0
    for i in range(1, report.dimension):
        C = skew_coords(commutator(M[i], M[:i]))
        left = C
        for _ in range(2):
            left = left - (left @ B.T) @ B
        ratio = np.linalg.norm(left, axis=1) / np.maximum(1.0, np.linalg.norm(C, axis=1))
        worst = max(worst, float(ratio.max()))
    return worst


def test_closure_matches_the_per_pair_reference():
    # seeded sets for d = 2..8 in u and su: sparse couplings (mostly
    # reducible), denser ones (mostly connected), and the minimal pair
    rng = np.random.default_rng(73)
    connected = set()
    for d in range(2, 9):
        for kind in ("u", "su"):
            sets = [random_instance(rng, d, 2, kind, p) for p in (0.15, 0.5)]
            sets.append(minimal_pair(Algebra(kind, d)))
            for s in sets:
                connected.add(len(check_universality(s).components) == 1)
                report, ref = lie_closure(s), lie_closure_reference(s)
                assert report.dimension == ref.dimension, (kind, d)
                assert closure_block_partition(report) == closure_block_partition(ref)
                diff = _span_projector(report) - _span_projector(ref)
                assert np.max(np.abs(diff)) <= 1e-8, (kind, d)
                assert report.residual_max <= TAU_CLOSE
                assert _pair_defect(report) <= TAU_CLOSE, (kind, d)
    assert connected == {True, False}


def _block_diagonal_set(rng, kind, sizes):
    """Random drift plus one coupling generator, a random spanning tree per block.

    Its closure is the sum of su(n) over the blocks plus the drift's central
    part: sum(n^2 - 1) + 1 dimensions, in u and su mode alike.
    """
    d = sum(sizes)
    blocks = np.split(rng.permutation(d), np.cumsum(sizes)[:-1])
    theta = rng.uniform(-3, 3, d)
    if kind == "su":
        theta -= theta.mean()
    C = np.zeros((d, d), dtype=complex)
    for b in blocks:
        for t in range(1, len(b)):
            r, c = b[t], b[rng.integers(t)]
            z = rng.normal() + 1j * rng.normal()
            C[r, c], C[c, r] = z, -np.conj(z)
    gens = (Generator(np.diag(1j * theta), "drift"), Generator(C, "c1"))
    return GeneratorSet(Algebra(kind, d), gens), sum(n * n - 1 for n in sizes) + 1


def test_closure_of_block_diagonal_sets_has_the_known_dimension():
    # blocks of 3 and 4 leave directions that are found only from leftovers
    # near the growth floor; normalizing such a leftover carries roundoff
    # that certification can adopt as one fake direction (33 for 32, 47 for
    # 46).  The per-pair reference closure does so on ten of these 400
    # sets; bracketing with the seeds alone, largest leftovers first, does
    # not, and keeps every pair of the basis closed to about 2e-12
    for seed in range(100):
        rng = np.random.default_rng(seed)
        for kind in ("su", "u"):
            for sizes in ((4, 3, 3), (4, 4, 4)):
                s, expected = _block_diagonal_set(rng, kind, sizes)
                report = lie_closure(s)
                assert report.dimension == expected, (seed, kind, sizes)
                assert report.residual_max <= TAU_CLOSE
                assert _pair_defect(report) <= TAU_CLOSE, (seed, kind, sizes)


def test_closure_of_large_block_diagonal_sets_has_the_known_dimension():
    rng = np.random.default_rng(83)
    for kind in ("su", "u"):
        for sizes in ((8, 6, 6), (10, 10), (7, 7, 6)):
            s, expected = _block_diagonal_set(rng, kind, sizes)
            report = lie_closure(s)
            assert report.dimension == expected, (kind, sizes)
            assert report.residual_max <= TAU_CLOSE


def test_closure_of_minimal_pairs_is_closed_under_every_pair():
    for kind in ("u", "su"):
        report = lie_closure(minimal_pair(Algebra(kind, 12)))
        assert report.dimension == report.target_dimension
        assert _pair_defect(report) <= TAU_CLOSE, kind


def test_closure_of_large_minimal_pairs_is_fast():
    # each element is bracketed with the two seeds only; bracketing every
    # pair of basis elements takes more than 10 s here
    t0 = time.perf_counter()
    for algebra in (Algebra("u", 16), Algebra("su", CLOSURE_DIM_LIMIT)):
        report = lie_closure(minimal_pair(algebra))
        assert report.dimension == report.target_dimension, algebra
        assert report.residual_max <= TAU_CLOSE
    assert time.perf_counter() - t0 < 10.0


def test_closure_does_not_depend_on_the_scale_of_the_generators():
    # norms of the raw generators overflow at 1e160 and underflow at
    # 1e-200; at 1e-310, 1e-315 and 1e-320 the largest entries are
    # subnormal, and their reciprocals beyond float64.  Rounded to
    # subnormals, a random su drift's phases sum to a few subnormal ulps,
    # which the trace check lets pass
    rng = np.random.default_rng(89)
    sets = [minimal_pair(Algebra(kind, 4)) for kind in ("u", "su")]
    sets.append(_block_diagonal_set(rng, "su", (3, 2))[0])
    for s in sets:
        expected = lie_closure(s).dimension
        for scale in (1e-320, 1e-315, 1e-310, 1e-200, 1e-160, 1.0, 1e160, 1e200):
            gens = tuple(Generator(g.matrix * scale, g.label) for g in s.generators)
            scaled = GeneratorSet(s.algebra, gens, s.general_index)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                report = lie_closure(scaled)
            assert report.dimension == expected, (s.algebra, scale)
            assert report.residual_max <= TAU_CLOSE


def test_su_closure_ignores_an_admissible_trace():
    # a drift trace within the validation tolerance must not bring the
    # identity direction in, even at a rank cutoff below that trace
    full = two_qubit_set(full=True)
    drift = Generator(full.generators[0].matrix + 1e-12j * np.eye(4), "drift")
    s = GeneratorSet(full.algebra, (drift, *full.generators[1:]))
    assert lie_closure(s, tau_rank=1e-13).dimension == 15


def test_closure_memory_is_bounded_by_the_block_size():
    # the per-pair closure peaks at about 1 MB here; commuting whole
    # frontier generations at once would take tens of MB
    s = minimal_pair(Algebra("u", 12))
    tracemalloc.start()
    try:
        report = lie_closure(s)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.dimension == 144
    assert peak < 2_000_000


def test_closure_dimension_limit():
    too_big = Algebra("u", CLOSURE_DIM_LIMIT + 1)
    s = GeneratorSet(too_big, (make_general_direction(too_big),))
    tracemalloc.start()
    try:
        with pytest.raises(InvalidInput, match=f"capped at d = {CLOSURE_DIM_LIMIT}"):
            lie_closure(s)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # refused before the d^2 x d^2 basis (here 3.1 MB) is allocated
    assert peak < 500_000
    at_limit = Algebra("u", CLOSURE_DIM_LIMIT)
    report = lie_closure(GeneratorSet(at_limit, (make_general_direction(at_limit),)))
    assert report.dimension == 1


def test_closure_rounds_count_frontier_generations():
    # a lone diagonal drift: one generation, whose commutators are all zero
    drift = make_general_direction(Algebra("u", 4))
    assert lie_closure(GeneratorSet(Algebra("u", 4), (drift,))).rounds == 1
    # u(2) from i*diag(a, b) and E12 - E21: the seeds, then [X, Y] ~ the
    # other off-diagonal direction, then nothing new
    report = lie_closure(minimal_pair(Algebra("u", 2)))
    assert (report.dimension, report.rounds) == (4, 3)


def test_closure_monotone_under_extra_generators():
    rng = np.random.default_rng(59)
    for _ in range(10):
        d = int(rng.integers(2, 6))
        s = random_instance(rng, d, 2, "u")
        bigger = random_instance(rng, d, 3, "u")
        merged = s.with_extra(list(bigger.generators[1:]))
        assert lie_closure(merged).dimension >= lie_closure(s).dimension


# ---------------------------------------------------------------------------
# closure block structure


def test_closure_partition_matches_generator_partition_golden():
    report = lie_closure(three_level_set())
    assert closure_block_partition(report) == ((0, 1), (2,))


def test_closure_partition_full():
    report = lie_closure(_repaired_three_level())
    assert closure_block_partition(report) == ((0, 1, 2),)


def test_closure_partition_diagonal_only():
    s = GeneratorSet(Algebra("u", 3), (make_general_direction(Algebra("u", 3)),))
    report = lie_closure(s)
    assert closure_block_partition(report) == ((0,), (1,), (2,))


def test_inheritance_on_random_instances():
    rng = np.random.default_rng(61)
    for _ in range(25):
        d = int(rng.integers(2, 6))
        s = random_instance(rng, d, int(rng.integers(2, 4)), "u")
        components = check_universality(s).components
        assert closure_block_partition(lie_closure(s)) == components


# ---------------------------------------------------------------------------
# invariant coordinate subspaces, enumerated by the test-only reference


def test_scan_three_level():
    assert invariant_subspaces_reference(three_level_set()) == [(2,), (0, 1)]


def test_scan_universal_empty():
    assert invariant_subspaces_reference(_repaired_three_level()) == []


def test_scan_two_qubit_reduced():
    assert invariant_subspaces_reference(two_qubit_set(full=False)) == [(0, 2), (1, 3)]


def test_scan_equals_component_unions():
    rng = np.random.default_rng(67)
    for _ in range(25):
        d = int(rng.integers(2, 8))
        s = random_instance(rng, d, int(rng.integers(2, 4)), "u")
        comps = connected_components(build_coupling_graph(s))
        expected = set()
        for mask in range(1, 1 << len(comps)):
            if mask == (1 << len(comps)) - 1:
                continue
            union = tuple(
                sorted(v for b, c in enumerate(comps) if (mask >> b) & 1 for v in c)
            )
            expected.add(union)
        assert set(invariant_subspaces_reference(s)) == expected


# ---------------------------------------------------------------------------
# graph/oracle equivalence spot checks (full sweep in the acceptance suite)


def test_equivalence_spot_checks():
    rng = np.random.default_rng(71)
    for kind in ("u", "su"):
        for _ in range(10):
            d = int(rng.integers(2, 5))
            s = random_instance(rng, d, int(rng.integers(2, 4)), kind)
            verdict = check_universality(s)
            report = lie_closure(s)
            if verdict.status is VerdictStatus.UNIVERSAL:
                assert report.dimension == report.target_dimension
            else:
                assert report.dimension < report.target_dimension


def test_graph_oracle_agreement_at_d_7_to_10():
    # connectivity, not the status: from d = 7 on the drift scan reports
    # false relations for the constructed drift (ROADMAP item 1), which
    # turns a connected verdict into conditionally_universal
    budget = 60.0
    t0 = time.perf_counter()
    rng = np.random.default_rng(79)
    count = 0
    connected = set()
    for d in range(7, 11):
        for kind in ("u", "su"):
            for p in (0.1, 0.3):
                s = random_instance(rng, d, int(rng.integers(2, 4)), kind, p)
                verdict = check_universality(s)
                report = lie_closure(s)
                full = report.dimension == report.target_dimension
                assert full == (len(verdict.components) == 1), (kind, d)
                connected.add(full)
                assert closure_block_partition(report) == verdict.components
                count += 1
    assert count == 16 and connected == {True, False}
    assert time.perf_counter() - t0 < budget


def test_oracles_reject_bad_tolerances():
    s = three_level_set()
    for tau_rank in (0.0, -1e-10, 1.0, 2.0, float("nan"), True):
        with pytest.raises(InvalidInput, match="tau_rank"):
            lie_closure(s, tau_rank=tau_rank)
    report = lie_closure(s)
    for tau_edge in (0.0, 1.0, float("nan")):
        with pytest.raises(InvalidInput, match="tau_edge"):
            closure_block_partition(report, tau_edge=tau_edge)
