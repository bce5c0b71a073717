import numpy as np
import pytest

from uqc import (
    Algebra,
    Generator,
    GeneratorSet,
    IndependenceStatus,
    VerdictStatus,
    build_coupling_graph,
    check_universality,
    connected_components,
    make_general_direction,
    minimal_pair,
    phases_of,
)
from uqc.errors import InvalidInput, ValidationError
from uqc.generators import is_constructed_direction

from conftest import random_instance, reachable_from, three_level_set, two_qubit_set


# ---------------------------------------------------------------------------
# graph construction


def test_three_level_edges():
    graph = build_coupling_graph(three_level_set())
    assert graph.edges == frozenset({(0, 1)})


def test_two_qubit_reduced_edges():
    graph = build_coupling_graph(two_qubit_set(full=False))
    assert graph.edges == frozenset({(0, 2), (1, 3)})


def test_diagonal_only_empty_graph():
    s = GeneratorSet(Algebra("u", 3), (make_general_direction(Algebra("u", 3)),))
    graph = build_coupling_graph(s)
    assert graph.edges == frozenset()
    assert connected_components(graph) == [[0], [1], [2]]


def test_extra_diagonal_generator_contributes_nothing():
    s = three_level_set().with_extra([Generator(np.diag([3j, 1j, -2j]), "extra-diag")])
    graph = build_coupling_graph(s)
    assert graph.edges == frozenset({(0, 1)})


def test_designated_excluded_even_if_offdiagonal_noise():
    # the cutoff is relative: 1e-18 is the max entry of 'weak', so it is an
    # edge; scaling the matrix changes nothing
    A = np.zeros((3, 3), dtype=complex)
    A[0, 2], A[2, 0] = 1e-18, -1e-18
    s = three_level_set().with_extra([Generator(A, "weak")])
    assert build_coupling_graph(s).edges == frozenset({(0, 1), (0, 2)})
    # off-diagonal roundoff on the designated drift (below its own diagonal
    # check) is no edge, even at a cutoff that would keep it elsewhere
    drift = s.generators[0].matrix.copy()
    drift[1, 2], drift[2, 1] = 1e-13, -1e-13
    noisy = GeneratorSet(s.algebra, (Generator(drift, "drift"), *s.generators[1:]))
    assert build_coupling_graph(noisy, 1e-15).edges == frozenset({(0, 1), (0, 2)})


def test_hermitian_roundoff_is_no_edge_at_any_cutoff():
    # validation lets pass A_13 = A_31 = 4e-13 as Hermitian roundoff (within
    # TAU_SYM of max|A| = 1); its skew-Hermitian part is zero, so index 3
    # stays uncoupled below the entry's own magnitude too
    s = three_level_set()
    rot = s.generators[1].matrix.copy()
    rot[0, 2] = rot[2, 0] = 4e-13
    s = GeneratorSet(s.algebra, (s.generators[0], Generator(rot, "rot12")))
    for tau_edge in (1e-15, 1e-13, 1e-12):
        assert build_coupling_graph(s, tau_edge).edges == frozenset({(0, 1)})
        verdict = check_universality(s, tau_edge=tau_edge)
        assert verdict.status is VerdictStatus.REDUCIBLE
        assert verdict.components == ((0, 1), (2,))


_BAD_TAU_EDGE = [-1.0, 0.0, 1.0, 2.0, float("nan"), float("inf"), True, "1e-12"]


@pytest.mark.parametrize("tau_edge", _BAD_TAU_EDGE)
def test_bad_tau_edge_rejected(tau_edge):
    # at the parent, tau_edge=-1 made every entry an edge: a REDUCIBLE set
    # came back UNIVERSAL
    with pytest.raises(InvalidInput, match="tau_edge"):
        check_universality(three_level_set(), tau_edge=tau_edge)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"relation_bound": 0},
        {"relation_bound": True},
        {"relation_bound": 2.5},
        {"tau_rel": 0.0},
        {"tau_rel": float("nan")},
        {"tau_rel": -1e-9},
        {"tau_rel": 1.0},
    ],
)
def test_bad_scan_tolerances_rejected(kwargs):
    # rejected even when the scan would not run (constructed drift)
    s = GeneratorSet(Algebra("u", 3), (make_general_direction(Algebra("u", 3)),))
    with pytest.raises(InvalidInput, match=next(iter(kwargs))):
        check_universality(s, **kwargs)


# ---------------------------------------------------------------------------
# verdicts


def test_three_level_reducible():
    verdict = check_universality(three_level_set())
    assert verdict.status is VerdictStatus.REDUCIBLE
    assert verdict.components == ((0, 1), (2,))
    assert verdict.components[0] == (0, 1)
    assert verdict.block_sizes == (2, 1)
    assert verdict.general_direction.independent


def test_three_level_repaired_universal():
    Y = np.zeros((3, 3), dtype=complex)
    Y[1, 2], Y[2, 1] = 1.0, -1.0
    s = three_level_set().with_extra([Generator(Y, "bridge")])
    verdict = check_universality(s)
    assert verdict.status is VerdictStatus.UNIVERSAL
    assert verdict.components == ((0, 1, 2),)


def test_two_qubit_reduced_components():
    verdict = check_universality(two_qubit_set(full=False))
    assert verdict.status is VerdictStatus.REDUCIBLE
    assert verdict.components == ((0, 2), (1, 3))


def test_two_qubit_full_universal():
    verdict = check_universality(two_qubit_set(full=True))
    assert verdict.status is VerdictStatus.UNIVERSAL


def test_dimension_one_universal():
    s = GeneratorSet(Algebra("u", 1), (Generator(np.diag([1j * np.sqrt(2.0)])),))
    verdict = check_universality(s)
    assert verdict.status is VerdictStatus.UNIVERSAL
    assert verdict.components == ((0,),)


def test_connected_but_dependent_spectrum_is_conditional():
    theta = np.array([2 * np.pi / 3, 4 * np.pi / 3, 4 * np.pi])
    chain = np.zeros((3, 3), dtype=complex)
    chain[0, 1], chain[1, 0], chain[1, 2], chain[2, 1] = 1, -1, 1, -1
    s = GeneratorSet(Algebra("u", 3), (Generator(np.diag(1j * theta)), Generator(chain)))
    verdict = check_universality(s)
    assert verdict.status is VerdictStatus.CONDITIONALLY_UNIVERSAL
    assert verdict.general_direction.status is IndependenceStatus.DEPENDENT


def test_degenerate_spectrum_is_conditional_not_fatal():
    chain = np.zeros((3, 3), dtype=complex)
    chain[0, 1], chain[1, 0], chain[1, 2], chain[2, 1] = 1, -1, 1, -1
    s = GeneratorSet(Algebra("u", 3), (Generator(np.diag([1j, 1j, 2j])), Generator(chain)))
    verdict = check_universality(s)
    assert verdict.status is VerdictStatus.CONDITIONALLY_UNIVERSAL
    assert verdict.degenerate_spectrum


def test_structural_validation_errors_propagate():
    # the set refuses itself as it is built, before any check can run
    bad = Generator(np.array([[0, 1], [1, 0]], dtype=complex))
    with pytest.raises(ValidationError, match=r"^generator 1 \(g2\) is not skew-Hermitian$"):
        check_universality(GeneratorSet(Algebra("u", 2), (Generator(np.diag([1j, 2j])), bad)))


def test_constructed_direction_bypasses_scan(monkeypatch):
    from uqc import universality

    def no_scan(*args):
        raise AssertionError("the scan ran on a constructed drift")

    monkeypatch.setattr(universality, "check_general_direction", no_scan)
    s = GeneratorSet(Algebra("u", 3), (make_general_direction(Algebra("u", 3)),))
    verdict = check_universality(s)
    assert verdict.general_direction.status is IndependenceStatus.CONSTRUCTED_EXACT
    assert verdict.general_direction.residual == 0.0


def _with_theta(s: GeneratorSet, theta) -> GeneratorSet:
    drift = Generator(np.diag(1j * np.asarray(theta, dtype=float)), "drift")
    return GeneratorSet(s.algebra, (drift,) + s.generators[1:])


@pytest.mark.parametrize("kind", ["u", "su"])
@pytest.mark.parametrize("d", [1, 2, 3, 8, 33, 64])
def test_a_shuffled_constructed_drift_is_recognised(kind, d):
    # the drift of minimal_pair, its phases in any order, at every d; in su
    # mode the negative phase may come first
    s = minimal_pair(Algebra(kind, d))
    rng = np.random.default_rng(d)
    orders = [np.arange(d)[::-1], rng.permutation(d)]
    if kind == "su":
        orders.append(np.roll(np.arange(d), 1))  # -sum(sqrt p) first
    for order in orders:
        shuffled = _with_theta(s, phases_of(s.designated)[order])
        verdict = check_universality(shuffled)
        assert verdict.general_direction.status is IndependenceStatus.CONSTRUCTED_EXACT
        assert verdict.status is VerdictStatus.UNIVERSAL


@pytest.mark.parametrize("kind", ["u", "su"])
@pytest.mark.parametrize(
    "change",
    ["one ulp up", "one ulp down", "scaled by 3/2", "prime skipped", "prime repeated"],
)
def test_a_near_constructed_drift_is_not_recognised(kind, change):
    d = 8
    k = d if kind == "u" else d - 1
    head = np.sqrt([2.0, 3.0, 5.0, 7.0, 11.0, 13.0, 17.0, 19.0, 23.0])
    theta = {
        "one ulp up": np.concatenate([head[: k - 1], [np.nextafter(head[k - 1], np.inf)]]),
        "one ulp down": np.concatenate([[np.nextafter(head[0], 0.0)], head[1:k]]),
        "scaled by 3/2": 1.5 * head[:k],
        "prime skipped": np.concatenate([head[: k - 1], head[k : k + 1]]),
        "prime repeated": np.concatenate([head[: k - 1], head[k - 2 : k - 1]]),
    }[change]
    if kind == "su":
        theta = np.append(theta, -theta.sum())
    algebra = Algebra(kind, d)
    assert not is_constructed_direction(theta, algebra)
    verdict = check_universality(_with_theta(minimal_pair(algebra), theta))
    # d = 8: the scan runs instead, or the repeated phase makes the drift degenerate
    assert verdict.general_direction.status in (
        IndependenceStatus.HEURISTICALLY_INDEPENDENT, IndependenceStatus.DEPENDENT
    )
    assert verdict.degenerate_spectrum == (change == "prime repeated")


def test_scan_skipped_gives_conditional():
    # a connected set whose drift (3/2 sqrt p) is not recognised as
    # constructed: the scan runs up to SPECTRUM_SCAN_LIMIT = 32 and is
    # skipped above it
    for d, skipped in ((32, False), (33, True)):
        algebra = Algebra("u", d)
        s = GeneratorSet(
            algebra,
            (
                Generator(1.5 * make_general_direction(algebra).matrix, "drift"),
                minimal_pair(algebra).generators[1],
            ),
        )
        verdict = check_universality(s)
        assert verdict.components == (tuple(range(d)),)
        scan = verdict.general_direction.status
        assert (scan is IndependenceStatus.SKIPPED) == skipped
    assert verdict.status is VerdictStatus.CONDITIONALLY_UNIVERSAL


# ---------------------------------------------------------------------------
# partitions and permutations


def test_two_qubit_block_partition():
    verdict = check_universality(two_qubit_set(full=False))
    assert verdict.components == ((0, 2), (1, 3))
    assert verdict.permutation == (0, 2, 1, 3)
    assert verdict.block_sizes == (2, 2)


def test_block_partition_certificate():
    s = two_qubit_set(full=False)
    verdict = check_universality(s)
    order = np.asarray(verdict.permutation)
    sizes = verdict.block_sizes
    for gen in s.generators:
        P = gen.matrix[np.ix_(order, order)]
        # off-block entries vanish
        start = 0
        for size in sizes:
            block = slice(start, start + size)
            P[block, block] = 0.0
            start += size
        assert np.max(np.abs(P)) <= 1e-12


def test_universal_set_single_block():
    verdict = check_universality(two_qubit_set(full=True))
    assert verdict.components == ((0, 1, 2, 3),)
    assert verdict.permutation == (0, 1, 2, 3)


def test_diagonal_only_singletons():
    s = GeneratorSet(Algebra("u", 4), (make_general_direction(Algebra("u", 4)),))
    assert check_universality(s).components == ((0,), (1,), (2,), (3,))


# ---------------------------------------------------------------------------
# invariance properties


def _permute_set(s: GeneratorSet, order: np.ndarray) -> GeneratorSet:
    # conjugate every generator by the permutation matrix sending e_k to
    # e_{order(k)}; the designated stays diagonal
    gens = []
    for g in s.generators:
        gens.append(Generator(g.matrix[np.ix_(order, order)], g.label))
    return GeneratorSet(s.algebra, tuple(gens), s.general_index)


def test_permutation_equivariance():
    rng = np.random.default_rng(41)
    for trial in range(30):
        d = int(rng.integers(2, 7))
        s = random_instance(rng, d, int(rng.integers(2, 5)), "u")
        order = rng.permutation(d)
        v1 = check_universality(s)
        v2 = check_universality(_permute_set(s, order))
        assert v1.status == v2.status
        mapped = sorted(
            tuple(sorted(int(np.nonzero(order == v)[0][0]) for v in comp))
            for comp in v1.components
        )
        assert tuple(mapped) == tuple(sorted(v2.components))


def test_scaling_invariance():
    rng = np.random.default_rng(43)
    for _ in range(30):
        d = int(rng.integers(2, 7))
        s = random_instance(rng, d, 3, "u")
        c = float(rng.uniform(0.01, 100.0))
        scaled = GeneratorSet(
            s.algebra,
            (s.generators[0], Generator(c * s.generators[1].matrix), *s.generators[2:]),
            s.general_index,
        )
        assert build_coupling_graph(s).edges == build_coupling_graph(scaled).edges
        assert check_universality(s).status == check_universality(scaled).status


def test_start_vertex_independence():
    rng = np.random.default_rng(47)
    for _ in range(30):
        d = int(rng.integers(2, 8))
        s = random_instance(rng, d, 3, "u")
        graph = build_coupling_graph(s)
        comps = {frozenset(c) for c in connected_components(graph)}
        for k in range(d):
            reach = frozenset(reachable_from(graph, k))
            assert reach in comps
            assert k in reach
