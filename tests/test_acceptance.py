"""End-to-end acceptance suite.

Each test exercises one acceptance criterion at its stated tolerance and
runtime budget and prints a PASS line (run with ``pytest -s`` to see them
as they happen).
"""

import time

import numpy as np
import scipy.linalg

from uqc import (
    Algebra,
    Generator,
    GeneratorSet,
    VerdictStatus,
    build_coupling_graph,
    check_general_direction,
    check_universality,
    closure_block_partition,
    connected_components,
    lie_closure,
    linalg,
    make_general_direction,
    minimal_pair,
    phases_of,
    repair,
)

from conftest import (
    invariant_subspaces_reference,
    random_instance,
    random_skew,
    reachable_from,
    three_level_set,
    two_qubit_set,
)

SQRT2 = np.sqrt(2.0)


def _report(n, description, elapsed, budget):
    print(f"PASS criterion {n}: {description} ({elapsed:.3f}s < {budget}s)")


def test_criterion_1_three_level_golden():
    budget = 0.1
    t0 = time.perf_counter()

    s = three_level_set()
    verdict = check_universality(s)
    assert verdict.status is VerdictStatus.REDUCIBLE
    assert verdict.components == ((0, 1), (2,))  # {1,2} and {3}, 1-based

    plan = repair(s, selection="paper-example")
    expected = np.zeros((3, 3), dtype=complex)
    expected[1, 2], expected[2, 1] = 1.0, -1.0
    assert np.array_equal(plan.resulting_set.generators[-1].matrix, expected)
    assert check_universality(plan.resulting_set).status is VerdictStatus.UNIVERSAL

    assert lie_closure(plan.resulting_set).dimension == 9

    elapsed = time.perf_counter() - t0
    assert elapsed < budget
    _report(1, "three-level check, repair, closure dimension 9", elapsed, budget)


def test_criterion_2_two_qubit_golden():
    budget = 1.0
    t0 = time.perf_counter()

    reduced = two_qubit_set(full=False)
    direction = check_general_direction(phases_of(reduced.designated), reduced.algebra)
    assert direction.independent

    verdict = check_universality(reduced)
    assert verdict.status is VerdictStatus.REDUCIBLE
    assert verdict.components == ((0, 2), (1, 3))  # {1,3} and {2,4}, 1-based

    full = two_qubit_set(full=True)
    assert check_universality(full).status is VerdictStatus.UNIVERSAL
    report = lie_closure(full)
    assert report.dimension == 15 == report.target_dimension

    elapsed = time.perf_counter() - t0
    assert elapsed < budget
    _report(2, "two-qubit drift-plus-drive, closure dimension 15", elapsed, budget)


def test_criterion_3_graph_oracle_equivalence():
    budget = 60.0
    t0 = time.perf_counter()

    rng = np.random.default_rng(2024)
    count = disagreements = 0
    for rep in range(7):
        for d in range(2, 7):
            for m in (2, 3, 4):
                for kind in ("u", "su"):
                    s = random_instance(rng, d, m, kind, p=0.3)
                    verdict = check_universality(s)
                    report = lie_closure(s)
                    partition = closure_block_partition(report)
                    full_dim = report.dimension == report.target_dimension
                    if verdict.status is VerdictStatus.UNIVERSAL:
                        ok = full_dim and partition == verdict.components
                    elif verdict.status is VerdictStatus.REDUCIBLE:
                        ok = (not full_dim) and partition == verdict.components
                    else:  # constructed directions must never be inconclusive
                        ok = False
                    disagreements += 0 if ok else 1
                    count += 1
    assert count >= 200
    assert disagreements == 0

    elapsed = time.perf_counter() - t0
    assert elapsed < budget
    _report(3, f"graph/oracle equivalence on {count} random instances", elapsed, budget)


def test_criterion_4_minimal_pair_suite():
    budget = 30.0
    t0 = time.perf_counter()

    for d in range(2, 9):
        for kind in ("u", "su"):
            s = minimal_pair(Algebra(kind, d))
            assert check_universality(s).status is VerdictStatus.UNIVERSAL, (kind, d)
    for d in range(2, 7):
        for kind in ("u", "su"):
            report = lie_closure(minimal_pair(Algebra(kind, d)))
            assert report.dimension == report.target_dimension, (kind, d)

    elapsed = time.perf_counter() - t0
    assert elapsed < budget
    _report(4, "minimal pairs universal for d=2..8, full closure for d=2..6", elapsed, budget)


def test_criterion_5_epsilon_bound_property():
    budget = 30.0
    tol = 1e-9
    t0 = time.perf_counter()

    rng = np.random.default_rng(55)
    for trial in range(50):
        d = int(rng.integers(2, 9))
        X = random_skew(rng, d)
        nrm = linalg.operator_norm(X)
        eps_max = np.pi / (2.0 * nrm)

        below = linalg.operator_norm(scipy.linalg.expm(0.99 * eps_max * X) - np.eye(d))
        assert below < SQRT2 - tol

        above = linalg.operator_norm(scipy.linalg.expm(1.2 * eps_max * X) - np.eye(d))
        # the norm-attaining eigenphase guarantees at least 2*sin(0.3*pi)
        lam = np.linalg.eigvalsh(-1j * X)
        formula = 2.0 * np.max(np.abs(np.sin(1.2 * eps_max * lam / 2.0)))
        assert formula >= SQRT2 + tol
        assert above >= SQRT2 - tol

    elapsed = time.perf_counter() - t0
    assert elapsed < budget
    _report(5, "step-size bound sharp on 50 random generators", elapsed, budget)


def test_criterion_6_invariance_suite():
    budget = 60.0
    t0 = time.perf_counter()

    rng = np.random.default_rng(66)

    # permutation equivariance
    for _ in range(100):
        d = int(rng.integers(2, 7))
        s = random_instance(rng, d, int(rng.integers(2, 5)), "u")
        order = rng.permutation(d)
        gens = tuple(
            Generator(g.matrix[np.ix_(order, order)], g.label) for g in s.generators
        )
        permuted = GeneratorSet(s.algebra, gens, s.general_index)
        v1, v2 = check_universality(s), check_universality(permuted)
        assert v1.status == v2.status
        mapped = sorted(
            tuple(sorted(int(np.nonzero(order == v)[0][0]) for v in comp))
            for comp in v1.components
        )
        assert tuple(mapped) == tuple(sorted(v2.components))

    # scaling invariance
    for _ in range(100):
        d = int(rng.integers(2, 7))
        s = random_instance(rng, d, 3, "u")
        c = float(rng.uniform(1e-3, 1e3))
        scaled = GeneratorSet(
            s.algebra,
            (s.generators[0], Generator(c * s.generators[1].matrix), s.generators[2]),
            s.general_index,
        )
        assert build_coupling_graph(s).edges == build_coupling_graph(scaled).edges
        assert check_universality(s).status == check_universality(scaled).status

    # start-vertex independence
    for _ in range(100):
        d = int(rng.integers(2, 8))
        graph = build_coupling_graph(random_instance(rng, d, 3, "u"))
        comps = {frozenset(c) for c in connected_components(graph)}
        for k in range(d):
            assert frozenset(reachable_from(graph, k)) in comps

    # invariant subspaces are exactly unions of components
    for _ in range(100):
        d = int(rng.integers(2, 8))
        s = random_instance(rng, d, int(rng.integers(2, 4)), "u")
        comps = connected_components(build_coupling_graph(s))
        expected = set()
        for mask in range(1, (1 << len(comps)) - 1):
            expected.add(
                tuple(
                    sorted(
                        v
                        for b, comp in enumerate(comps)
                        if (mask >> b) & 1
                        for v in comp
                    )
                )
            )
        assert set(invariant_subspaces_reference(s)) == expected

    elapsed = time.perf_counter() - t0
    assert elapsed < budget
    _report(6, "equivariance/scaling/start-vertex/subspace-scan, 100 trials each", elapsed, budget)


def test_criterion_7_complexity_smoke():
    budget = 1.0
    d, m = 100, 10
    rng = np.random.default_rng(77)
    gens = [make_general_direction(Algebra("u", d))]
    for j in range(m - 1):
        M = random_skew(rng, d)
        np.fill_diagonal(M, 0.0)
        gens.append(Generator(M, f"dense{j + 1}"))
    s = GeneratorSet(Algebra("u", d), tuple(gens))

    t0 = time.perf_counter()
    verdict = check_universality(s)
    elapsed = time.perf_counter() - t0

    assert len(verdict.components) == 1
    assert verdict.status in (
        VerdictStatus.UNIVERSAL,
        VerdictStatus.CONDITIONALLY_UNIVERSAL,
    )
    assert elapsed < budget
    _report(7, "d=100, m=10 dense check", elapsed, budget)
