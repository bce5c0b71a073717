import numpy as np
import pytest

from uqc import (
    Algebra,
    Generator,
    GeneratorSet,
    VerdictStatus,
    block_partition,
    check_universality,
    closure_block_partition,
    connected_components,
    build_coupling_graph,
    coordinate_subspace_scan,
    lie_closure,
    make_general_direction,
    minimal_pair,
)
from uqc.errors import InvalidInput, NumericalFailure

from conftest import random_instance, three_level_set, two_qubit_set


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
    G = report.basis @ report.basis.T
    assert np.allclose(G, np.eye(report.dimension), atol=1e-12)


def test_closure_certificate_small():
    for s in (three_level_set(), _repaired_three_level(), two_qubit_set(True)):
        report = lie_closure(s)
        assert report.residual_max <= 1e-9


def test_closure_guard_validation():
    with pytest.raises(InvalidInput):
        lie_closure(three_level_set(), max_dim_guard=4)


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
    with pytest.raises(NumericalFailure):
        lie_closure(_repaired_three_level(), tau_rank=1e-300)


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
        components, _ = block_partition(s)
        assert closure_block_partition(lie_closure(s)) == components


# ---------------------------------------------------------------------------
# coordinate subspace scan


def test_scan_three_level():
    assert coordinate_subspace_scan(three_level_set()) == [(2,), (0, 1)]


def test_scan_universal_empty():
    assert coordinate_subspace_scan(_repaired_three_level()) == []


def test_scan_two_qubit_reduced():
    assert coordinate_subspace_scan(two_qubit_set(full=False)) == [(0, 2), (1, 3)]


def test_scan_dimension_guard():
    s = minimal_pair(Algebra("u", 21))
    with pytest.raises(InvalidInput):
        coordinate_subspace_scan(s)


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
        assert set(coordinate_subspace_scan(s)) == expected


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


def test_oracles_reject_bad_tolerances():
    s = three_level_set()
    for tau_rank in (0.0, -1e-10, float("nan"), True):
        with pytest.raises(InvalidInput, match="tau_rank"):
            lie_closure(s, tau_rank=tau_rank)
    report = lie_closure(s)
    for tau_edge in (0.0, 1.0, float("nan")):
        with pytest.raises(InvalidInput, match="tau_edge"):
            closure_block_partition(report, tau_edge=tau_edge)
        with pytest.raises(InvalidInput, match="tau_edge"):
            coordinate_subspace_scan(s, tau_edge=tau_edge)
