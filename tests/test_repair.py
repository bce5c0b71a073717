import importlib

import numpy as np
import pytest

from uqc import (
    Algebra,
    BridgeStyle,
    GeneratorSet,
    VerdictStatus,
    bridge_generator,
    build_coupling_graph,
    check_universality,
    connected_components,
    lie_closure,
    make_general_direction,
    minimal_pair,
    repair,
    validate_set,
)
from uqc.errors import InvalidInput
from uqc.repair import SELECTION_RULES

from conftest import random_instance, three_level_set, time_limit, two_qubit_set


def test_three_level_smallest_rule():
    plan = repair(three_level_set())
    assert plan.bridges == ((0, 2, BridgeStyle.ANTISYMMETRIC),)
    assert check_universality(plan.resulting_set).status is VerdictStatus.UNIVERSAL


def test_three_level_largest_inside_rule_exact_bridge():
    s = three_level_set()
    plan = repair(s, selection="paper-example")
    assert plan.bridges == ((1, 2, BridgeStyle.ANTISYMMETRIC),)
    expected = np.zeros((3, 3), dtype=complex)
    expected[1, 2], expected[2, 1] = 1.0, -1.0
    (added,) = plan.resulting_set.generators[len(s.generators):]
    assert np.array_equal(added.matrix, expected)


def test_paper_example_alias():
    # the CLI's name for the paper's rule is the library's only name for it
    assert SELECTION_RULES == ("smallest", "paper-example")
    assert repair(three_level_set(), selection="paper-example").bridges == (
        (1, 2, BridgeStyle.ANTISYMMETRIC),
    )


def test_unknown_selection_rejected():
    with pytest.raises(InvalidInput):
        repair(three_level_set(), selection="random")


def test_two_qubit_single_bridge():
    plan = repair(two_qubit_set(full=False))
    assert plan.bridges == ((0, 1, BridgeStyle.ANTISYMMETRIC),)
    assert check_universality(plan.resulting_set).status is VerdictStatus.UNIVERSAL


def test_diagonal_only_spanning_tree():
    s = GeneratorSet(Algebra("u", 4), (make_general_direction(Algebra("u", 4)),))
    plan = repair(s)
    assert len(plan.bridges) == 3
    comps = connected_components(build_coupling_graph(plan.resulting_set))
    assert len(comps) == 1


def test_component_count_drops_by_one_each_round():
    s = GeneratorSet(Algebra("u", 5), (make_general_direction(Algebra("u", 5)),))
    counts = [len(connected_components(build_coupling_graph(s)))]
    current = s
    plan = repair(s)
    for gen in plan.resulting_set.generators[len(s.generators):]:
        current = current.with_extra([gen])
        counts.append(len(connected_components(build_coupling_graph(current))))
    assert counts == [5, 4, 3, 2, 1]


def test_repair_universal_input_is_noop():
    s = two_qubit_set(full=True)
    plan = repair(s)
    assert plan.bridges == ()
    assert plan.resulting_set is s


def test_symmetric_bridge_style():
    s = three_level_set()
    plan = repair(s, style="sym")
    (added,) = plan.resulting_set.generators[len(s.generators):]
    M = added.matrix
    assert M[0, 2] == 1.0j and M[2, 0] == 1.0j
    assert check_universality(plan.resulting_set).status is VerdictStatus.UNIVERSAL


def test_bridges_pass_generator_invariants():
    # bridges are skew-Hermitian and traceless, so they stay legal in su mode
    s = two_qubit_set(full=False)
    for style in ("antisym", "sym"):
        plan = repair(s, style=style)
        validate_set(plan.resulting_set)


def test_repair_bad_tau_edge_fails_fast():
    # at the parent, tau_edge >= 1 kept every bridge out of the graph and
    # the round-by-round loop appended bridges forever
    for tau_edge in (1.0, 2.0, 0.0, float("nan")):
        with time_limit(10), pytest.raises(InvalidInput, match="tau_edge"):
            repair(three_level_set(), tau_edge=tau_edge)


def _repair_by_rounds(gen_set, style, selection):
    """Reference: join the component of vertex 0 to the smallest index
    outside it, rebuilding the coupling graph after every bridge."""
    pick_inside = min if selection == "smallest" else max
    current, bridges, added = gen_set, [], []
    while True:
        comps = connected_components(build_coupling_graph(current))
        if len(comps) == 1:
            return bridges, added
        inside = next(c for c in comps if 0 in c)
        a = pick_inside(inside)
        b = min(v for v in range(current.dim) if v not in inside)
        gen = bridge_generator(a, b, current.dim, BridgeStyle(style))
        bridges.append((a, b, BridgeStyle(style)))
        added.append(gen)
        current = current.with_extra([gen])


def _repair_cases():
    rng = np.random.default_rng(59)
    cases = []
    while len(cases) < 40:
        d = int(rng.integers(2, 13))
        s = random_instance(rng, d, int(rng.integers(2, 5)), "u", p=float(rng.uniform(0.02, 0.2)))
        if len(connected_components(build_coupling_graph(s))) > 1:
            cases.append(s)
    for d in (1, 2, 3, 5, 8, 13, 21, 34, 40):
        algebra = Algebra("u", d)
        cases.append(GeneratorSet(algebra, (make_general_direction(algebra),)))
    return cases


@pytest.mark.parametrize("selection", SELECTION_RULES)
@pytest.mark.parametrize("style", ["antisym", "sym"])
def test_one_pass_repair_matches_round_by_round(style, selection):
    for s in _repair_cases():
        plan = repair(s, style=style, selection=selection)
        bridges, added = _repair_by_rounds(s, style, selection)
        assert list(plan.bridges) == bridges
        got_added = plan.resulting_set.generators[len(s.generators):]
        assert len(got_added) == len(added)
        for got, want in zip(got_added, added):
            assert got.label == want.label
            assert np.array_equal(got.matrix, want.matrix)
        assert plan.resulting_set.generators[: len(s.generators)] == s.generators


def test_repair_builds_the_graph_once(monkeypatch):
    repair_module = importlib.import_module("uqc.repair")
    calls = []
    build = repair_module.build_coupling_graph

    def counting(*args, **kwargs):
        calls.append(1)
        return build(*args, **kwargs)

    monkeypatch.setattr(repair_module, "build_coupling_graph", counting)
    algebra = Algebra("u", 12)
    for s in (
        three_level_set(),
        two_qubit_set(full=True),
        GeneratorSet(algebra, (make_general_direction(algebra),)),
    ):
        calls.clear()
        repair(s, selection="paper-example")
        assert len(calls) == 1


# ---------------------------------------------------------------------------
# minimal pair


def test_minimal_pair_u3_golden():
    s = minimal_pair(Algebra("u", 3))
    assert np.allclose(s.generators[0].matrix, np.diag(1j * np.sqrt([2.0, 3.0, 5.0])))
    expected = np.zeros((3, 3), dtype=complex)
    expected[0, 1], expected[1, 0] = 1.0, -1.0
    expected[1, 2], expected[2, 1] = 1.0, -1.0
    assert np.array_equal(s.generators[1].matrix, expected)
    assert check_universality(s).status is VerdictStatus.UNIVERSAL


def test_minimal_pair_d1():
    s = minimal_pair(Algebra("u", 1))
    assert len(s.generators) == 1
    assert check_universality(s).status is VerdictStatus.UNIVERSAL


def test_minimal_pair_su4_custom_coefficients():
    s = minimal_pair(Algebra("su", 4), coefficients=[2.0, -1.0, 0.5])
    assert check_universality(s).status is VerdictStatus.UNIVERSAL
    assert lie_closure(s).dimension == 15


def test_minimal_pair_dimension_limit():
    from uqc.repair import CONSTRUCT_DIM_LIMIT

    with time_limit(10):
        assert minimal_pair(Algebra("su", CONSTRUCT_DIM_LIMIT)).dim == CONSTRUCT_DIM_LIMIT
        with pytest.raises(InvalidInput, match=f"capped at d = {CONSTRUCT_DIM_LIMIT}"):
            minimal_pair(Algebra("u", CONSTRUCT_DIM_LIMIT + 1))


def test_minimal_pair_zero_coefficient_rejected():
    with pytest.raises(InvalidInput):
        minimal_pair(Algebra("u", 4), coefficients=[1.0, 0.0, 1.0])


def test_minimal_pair_is_path_graph():
    for d in range(2, 9):
        s = minimal_pair(Algebra("u", d))
        expected = frozenset((j, j + 1) for j in range(d - 1))
        assert build_coupling_graph(s).edges == expected


def test_symmetric_chain_d3():
    g = minimal_pair(Algebra("u", 3), style="sym").generators[1]
    expected = np.zeros((3, 3), dtype=complex)
    expected[0, 1] = expected[1, 0] = 1.0j
    expected[1, 2] = expected[2, 1] = 1.0j
    assert np.array_equal(g.matrix, expected)


def test_symmetric_chain_d2_is_imaginary_pauli_x():
    g = minimal_pair(Algebra("u", 2), [1.0], "sym").generators[1]
    assert np.array_equal(g.matrix, 1j * np.array([[0.0, 1.0], [1.0, 0.0]]))


def test_chain_styles_share_edge_set():
    rng = np.random.default_rng(53)
    for d in range(2, 10):
        c = rng.uniform(0.5, 2.0, size=d - 1) * rng.choice([-1.0, 1.0], size=d - 1)
        algebra = Algebra("u", d)
        s_a = minimal_pair(algebra, c, "antisym")
        s_s = minimal_pair(algebra, c, "sym")
        assert build_coupling_graph(s_a).edges == build_coupling_graph(s_s).edges


def test_minimal_pair_symmetric_style():
    s = minimal_pair(Algebra("su", 3), style="sym")
    assert check_universality(s).status is VerdictStatus.UNIVERSAL
    assert lie_closure(s).dimension == 8
