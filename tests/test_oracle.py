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
from uqc import oracle
from uqc.errors import InvalidInput
from uqc.linalg import commutator
from uqc.oracle import CLOSURE_DIM_LIMIT

from conftest import (
    invariant_subspaces_reference,
    ladder_dimension,
    ladder_set,
    lie_closure_exact,
    random_instance,
    three_level_set,
    two_qubit_set,
)


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


def test_closure_basis_is_in_reduced_row_echelon_form():
    # each basis row is 1 at its own pivot column and every other row is 0
    # there, with residues in about (-p/2, p/2]
    s = _repaired_three_level()
    p = oracle._PRIMES[0]
    closure = oracle._Closure(np.array([g.matrix for g in s.generators]), p, False)
    closure.grow()
    n = closure.n
    assert n == lie_closure(s).dimension == 9
    assert np.array_equal(closure.rows[:n, closure.pivots[:n]], np.eye(n))
    assert len(set(closure.pivots[:n].tolist())) == n
    assert np.array_equal(closure.rows[:n], np.rint(closure.rows[:n]))
    assert np.max(np.abs(closure.rows[:n])) <= (p + 1) / 2 + 2


def test_closure_noise_inflation_is_bounded():
    # coupling noise above the edge rule is data to the exact closure: it
    # connects index 3 of the reducible u(3) set and fills u(3), but an
    # admissible trace in su mode never brings the identity direction in,
    # so the closure never passes its target
    rng = np.random.default_rng(11)
    for s, before in ((three_level_set(), 4), (two_qubit_set(), 7)):
        d = s.dim
        assert lie_closure(s).dimension == before
        gens = [s.generators[0]]
        for g in s.generators[1:]:
            N = 1e-9 * (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
            np.fill_diagonal(N, 0)
            noise = N - N.conj().T + 1e-13j * np.eye(d)
            gens.append(Generator(g.matrix + noise, g.label))
        noisy = GeneratorSet(s.algebra, tuple(gens))
        report = lie_closure(noisy)
        assert report.dimension == report.target_dimension, s.algebra
        assert report.dimension == lie_closure_exact(noisy).dimension


def test_closure_matches_the_exact_reference():
    # seeded sets in u and su: sparse couplings (mostly reducible) and
    # denser ones (mostly connected) for d = 2..5, where the rational
    # arithmetic of the reference stays quick on full float64 mantissas,
    # and the minimal pair for d = 2..8
    rng = np.random.default_rng(73)
    connected = set()
    for d in range(2, 9):
        for kind in ("u", "su"):
            sets = [minimal_pair(Algebra(kind, d))]
            if d <= 5:
                sets += [random_instance(rng, d, 2, kind, p) for p in (0.15, 0.5)]
            for s in sets:
                connected.add(len(check_universality(s).components) == 1)
                report, ref = lie_closure(s), lie_closure_exact(s)
                assert report.dimension == ref.dimension, (kind, d)
                assert closure_block_partition(report) == closure_block_partition(ref)
    assert connected == {True, False}


def _integer_set(rng, kind, d, bits):
    """Drift i*diag of integers in -3..3 (less their mean in su mode) and
    one coupling of Gaussian entries rounded to multiples of 2**-bits,
    each pair coupled with probability 1/2."""
    theta = rng.integers(-3, 4, d).astype(float)
    if kind == "su":
        theta -= theta.mean()
    C = np.zeros((d, d), dtype=complex)
    for r in range(d):
        for l in range(r + 1, d):
            if rng.random() < 0.5:
                z = complex(*np.round(rng.standard_normal(2) * 2.0**bits) / 2.0**bits)
                C[r, l], C[l, r] = z, -z.conjugate()
    gens = (Generator(np.diag(1j * theta), "drift"), Generator(C, "c1"))
    return GeneratorSet(Algebra(kind, d), gens)


def test_closure_equals_the_exact_closure_on_small_sets():
    # u and su, d = 2..5: float couplings of full mantissas beside the
    # constructed drift (two or three generators, denser up to d = 4, where
    # the reference stays quick on them), integer couplings and couplings
    # of 8 fractional bits beside an integer drift, which has equal gaps
    # and so often a closure short of full; and the ladders
    rng = np.random.default_rng(97)
    sets = [ladder_set(kind, d) for kind in ("u", "su") for d in range(3, 6)]
    for _ in range(9):
        for d in range(2, 6):
            for kind in ("u", "su"):
                dense = d <= 4
                m = int(rng.integers(2, 4)) if dense else 2
                sets.append(random_instance(rng, d, m, kind, 0.4 if dense else 0.15))
                sets.append(_integer_set(rng, kind, d, 0))
                sets.append(_integer_set(rng, kind, d, 8))
    assert len(sets) >= 200
    full = set()
    for s in sets:
        report, ref = lie_closure(s), lie_closure_exact(s)
        assert report.dimension == ref.dimension, (s.algebra, [g.matrix for g in s.generators])
        assert closure_block_partition(report) == closure_block_partition(ref)
        full.add(report.dimension == report.target_dimension)
    assert full == {True, False}


def test_ladder_closure_has_the_true_dimension():
    # the ladder keeps an antidiagonal form, so its closure is short of
    # full; roundoff that leaves the form once reaches all of u(d)
    for kind in ("u", "su"):
        for d in range(3, CLOSURE_DIM_LIMIT + 1):
            report = lie_closure(ladder_set(kind, d))
            assert report.dimension == ladder_dimension(kind, d), (kind, d)
    assert [lie_closure(ladder_set("u", d)).dimension for d in (10, 12, 20)] == [56, 79, 211]
    assert [lie_closure(ladder_set("su", d)).dimension for d in (11, 20)] == [55, 210]


def test_a_coupling_divisible_by_the_first_prime_keeps_the_full_closure(monkeypatch):
    # the bridge is 0 mod the first prime, so that prime sees the
    # unrepaired set; the second sees all of u(3)
    s = _repaired_three_level()
    bridge = s.generators[2].matrix * oracle._PRIMES[0]
    s = GeneratorSet(s.algebra, (*s.generators[:2], Generator(bridge, "bridge")))
    assert bridge[1, 2] == 2097143.0
    assert lie_closure(s).dimension == 9
    monkeypatch.setattr(oracle, "_PRIMES", oracle._PRIMES[:1])
    assert lie_closure(s).dimension == 4


def test_an_entry_below_the_edge_rule_stays_out_of_the_closure():
    # the graph drops the 1e-14 entry as roundoff, and so does the closure;
    # read as it stands, the entry connects index 3 and gives all of u(3)
    s = three_level_set()
    rot = s.generators[1].matrix.copy()
    rot[1, 2], rot[2, 1] = 1e-14, -1e-14
    s = GeneratorSet(s.algebra, (s.generators[0], Generator(rot, "rot12")))
    report = lie_closure(s)
    assert report.dimension == 4
    assert closure_block_partition(report) == check_universality(s).components == ((0, 1), (2,))
    assert lie_closure_exact(s).dimension == 4
    assert lie_closure(s, tau_edge=1e-15).dimension == lie_closure_exact(s, 1e-15).dimension == 9


def test_closure_reads_the_noise_validation_lets_pass_as_the_graph_does():
    # validation lets pass a drift off-diagonal within TAU_ROUNDOFF, which read
    # as it stands would couple index 3, and a Hermitian part within
    # TAU_ROUNDOFF, which the skew-Hermitian part drops
    s = three_level_set()
    drift, rot = s.generators[0].matrix.copy(), s.generators[1].matrix.copy()
    drift[0, 2], drift[2, 0] = 2.0**-44, -(2.0**-44)
    rot[1, 0] += 2.0**-44
    for gens in ((drift, rot), (s.generators[0].matrix, rot), (drift, s.generators[1].matrix)):
        noisy = GeneratorSet(s.algebra, tuple(Generator(A, "") for A in gens))
        report = lie_closure(noisy)
        assert report.dimension == lie_closure_exact(noisy).dimension == 4
        assert closure_block_partition(report) == ((0, 1), (2,))
    # around a cycle no diagonal similarity makes the noisy coupling skew:
    # read as it stands, its closure leaves u(3)
    cycle = np.zeros((3, 3))
    cycle[0, 1] = cycle[1, 2] = cycle[0, 2] = 1.0
    cycle -= cycle.T
    cycle[1, 0] += 2.0**-44
    noisy = GeneratorSet(s.algebra, (s.generators[0], Generator(cycle, "cycle")))
    assert lie_closure(noisy).dimension == lie_closure_exact(noisy).dimension == 9
    # a Hermitian pair within TAU_ROUNDOFF has a zero skew-Hermitian part: no
    # edge at any tau_edge, however far below the pair it is
    rot = s.generators[1].matrix.copy()
    rot[0, 2] = rot[2, 0] = 4e-13
    noisy = GeneratorSet(s.algebra, (s.generators[0], Generator(rot, "rot12")))
    for tau_edge in (1e-13, 1e-12, 1e-11, 1e-10, 1e-9):
        report = lie_closure(noisy, tau_edge)
        components = tuple(map(tuple, connected_components(build_coupling_graph(noisy, tau_edge))))
        assert components == closure_block_partition(report) == ((0, 1), (2,)), tau_edge
        assert report.dimension == lie_closure_exact(noisy, tau_edge).dimension == 4


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
    # a float closure took one fake direction on ten of these 400 sets
    # (33 for 32, 47 for 46)
    for seed in range(100):
        rng = np.random.default_rng(seed)
        for kind in ("su", "u"):
            for sizes in ((4, 3, 3), (4, 4, 4)):
                s, expected = _block_diagonal_set(rng, kind, sizes)
                assert lie_closure(s).dimension == expected, (seed, kind, sizes)


def test_closure_of_large_block_diagonal_sets_has_the_known_dimension():
    rng = np.random.default_rng(83)
    for kind in ("su", "u"):
        for sizes in ((8, 6, 6), (10, 10), (7, 7, 6)):
            s, expected = _block_diagonal_set(rng, kind, sizes)
            assert lie_closure(s).dimension == expected, (kind, sizes)


def test_closure_of_minimal_pairs_is_closed_under_every_pair():
    # the closure brackets each element with the seeds alone (Jacobi
    # identity); every pair of the basis it grows must bracket back into
    # it, checked on the full minimal pairs and on the ladders, whose
    # closures are short of full
    for kind in ("u", "su"):
        report = lie_closure(minimal_pair(Algebra(kind, 12)))
        assert report.dimension == report.target_dimension
    for s in (ladder_set("u", 12), ladder_set("su", 11)):
        p = oracle._PRIMES[0]
        G = np.array([g.matrix for g in s.generators])
        closure = oracle._Closure(G, p, s.algebra.kind == "su")
        closure.grow()
        n = closure.n
        assert n == ladder_dimension(s.algebra.kind, s.dim)
        M = closure.matrices(np.arange(n))
        I, J = np.triu_indices(n, 1)
        for b in range(0, len(I), 256):
            C = commutator(M[I[b : b + 256]], M[J[b : b + 256]])
            closure.admit(oracle._mod(C.reshape(len(C), -1).view(float), p))
            assert closure.n == n, s.algebra


def test_closure_of_large_minimal_pairs_is_fast():
    # each element is bracketed with the two seeds only; bracketing every
    # pair of basis elements takes more than 10 s here
    t0 = time.perf_counter()
    for algebra in (Algebra("u", 16), Algebra("su", CLOSURE_DIM_LIMIT)):
        report = lie_closure(minimal_pair(algebra))
        assert report.dimension == report.target_dimension, algebra
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


def test_su_closure_ignores_an_admissible_trace():
    # a drift trace within the validation tolerance must not bring the
    # identity direction in: su mode takes the traceless part exactly
    full = two_qubit_set(full=True)
    drift = Generator(full.generators[0].matrix + 1e-12j * np.eye(4), "drift")
    s = GeneratorSet(full.algebra, (drift, *full.generators[1:]))
    assert lie_closure(s).dimension == 15


def test_closure_memory_is_bounded_by_the_block_size():
    # commuting whole frontier generations at once would take tens of MB
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


def test_closure_refuses_a_large_set_before_reading_it():
    # the cap is checked before the graph's masks of the set are built:
    # building them first took a 9.5 MB peak at d = 1000
    s = minimal_pair(Algebra("u", 1000))
    tracemalloc.start()
    try:
        with pytest.raises(InvalidInput, match=f"capped at d = {CLOSURE_DIM_LIMIT}"):
            lie_closure(s)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


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
    for tau_edge in (0.0, -1e-10, 1.0, 2.0, float("nan"), True):
        with pytest.raises(InvalidInput, match="tau_edge"):
            lie_closure(s, tau_edge=tau_edge)
