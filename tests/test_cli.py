import json
import os
import subprocess
import sys
import tracemalloc
from argparse import Namespace
from pathlib import Path

import numpy as np
import pytest

import uqc
from uqc import (
    Algebra,
    BridgeStyle,
    Generator,
    GeneratorSet,
    bridge_generator,
    build_coupling_graph,
    connected_components,
    epsilon_bound,
    repair,
)
from uqc import io as uio
from uqc.cli import _resolve_tolerances, main
from uqc.errors import InvalidInput
from uqc.repair import SELECTION_RULES

from conftest import (
    json_document,
    random_instance,
    random_sparse_offdiag,
    three_level_set,
    time_limit,
    two_qubit_set,
)


@pytest.fixture()
def u3_path(tmp_path):
    path = tmp_path / "u3.json"
    uio.write_document(uio.generator_set_to_document(three_level_set()), str(path))
    return str(path)


@pytest.fixture()
def su4_full_path(tmp_path):
    path = tmp_path / "su4.json"
    uio.write_document(uio.generator_set_to_document(two_qubit_set(full=True)), str(path))
    return str(path)


def _run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_check_reducible(capsys, u3_path):
    code, out, _ = _run(capsys, ["check", u3_path])
    assert code == 0
    doc = json.loads(out)
    assert doc["status"] == "reducible"
    assert doc["components"] == [[1, 2], [3]]
    assert doc["block_sizes"] == [2, 1]
    assert "oracle" not in doc


def test_check_with_oracle(capsys, u3_path):
    code, out, _ = _run(capsys, ["check", u3_path, "--oracle"])
    doc = json.loads(out)
    assert doc["oracle"] == {"dimension": 4, "target_dimension": 9, "agrees": True}


def test_check_text_mode(capsys, u3_path):
    code, out, _ = _run(capsys, ["check", u3_path, "--text"])
    assert code == 0
    assert "status: reducible" in out
    assert "coupling graph" in out
    assert "1 -- 2" in out


def test_check_json_deterministic(capsys, u3_path):
    _, out1, _ = _run(capsys, ["check", u3_path, "--oracle"])
    _, out2, _ = _run(capsys, ["check", u3_path, "--oracle"])
    assert out1 == out2


def test_check_missing_file(capsys, tmp_path):
    code, _, err = _run(capsys, ["check", str(tmp_path / "nope.json")])
    assert code == 2
    assert "cannot read" in err


def test_check_malformed_row_exit2(capsys, tmp_path):
    doc = json_document(uio.generator_set_to_document(three_level_set()))
    doc["generators"][1]["matrix"][1] = [[0.0, 0.0], [0.0, 0.0]]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, _, err = _run(capsys, ["check", str(path)])
    assert code == 2
    assert "rot12" in err and "row 2" in err


def test_check_not_json_exit2(capsys, tmp_path):
    path = tmp_path / "junk.json"
    path.write_text("{not json")
    code, _, err = _run(capsys, ["check", str(path)])
    assert code == 2


def test_numerical_failure_exit3(capsys, tmp_path):
    doc = json_document(uio.generator_set_to_document(three_level_set()))
    doc["tolerances"] = {"tau_rank": 1e-300}
    path = tmp_path / "absurd.json"
    path.write_text(json.dumps(doc))
    code, _, err = _run(capsys, ["check", str(path), "--oracle"])
    assert code == 3
    assert "numerical failure" in err


def test_oracle_beyond_the_closure_limit_exit2(capsys, tmp_path):
    from uqc.oracle import CLOSURE_DIM_LIMIT

    algebra = Algebra("u", CLOSURE_DIM_LIMIT + 1)
    s = GeneratorSet(algebra, (uqc.make_general_direction(algebra),))
    path = str(tmp_path / "big.json")
    uio.write_document(uio.generator_set_to_document(s), path)
    for argv in (["check", path, "--oracle"], ["oracle", path]):
        code, out, err = _run(capsys, argv)
        assert code == 2 and out == ""
        assert f"capped at d = {CLOSURE_DIM_LIMIT}" in err
    code, out, _ = _run(capsys, ["check", path])
    assert code == 0 and json.loads(out)["status"] == "reducible"


def test_repair_paper_example_selection(capsys, u3_path, tmp_path):
    out_path = str(tmp_path / "fixed.json")
    code, out, _ = _run(
        capsys, ["repair", u3_path, "--selection", "paper-example", "--out", out_path]
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["status"] == "universal"
    assert doc["repair"]["bridges"] == [{"a": 2, "b": 3, "style": "antisym"}]
    assert doc["repair"]["noop"] is False
    added = uio.load_input_document(out_path)[0].generators[-1].matrix
    expected = np.zeros((3, 3), dtype=complex)
    expected[1, 2], expected[2, 1] = 1.0, -1.0
    assert np.array_equal(added, expected)

    # round trip: the written document is universal on re-check
    code, out, _ = _run(capsys, ["check", out_path, "--oracle"])
    redoc = json.loads(out)
    assert redoc["status"] == "universal"
    assert redoc["oracle"]["dimension"] == 9


def test_repair_universal_input_noop(capsys, su4_full_path, tmp_path):
    out_path = str(tmp_path / "same.json")
    code, out, _ = _run(capsys, ["repair", su4_full_path, "--out", out_path])
    doc = json.loads(out)
    assert doc["repair"]["noop"] is True
    assert doc["repair"]["bridges"] == []
    with open(su4_full_path) as fh:
        original = json.load(fh)
    with open(out_path) as fh:
        written = json.load(fh)
    assert written == original


def test_repair_diagonal_only_spanning_tree(capsys, tmp_path):
    algebra = Algebra("u", 4)
    s = GeneratorSet(algebra, (Generator(np.diag(1j * np.sqrt([2.0, 3.0, 5.0, 7.0])), "d"),))
    path = tmp_path / "diag.json"
    uio.write_document(uio.generator_set_to_document(s), str(path))
    code, out, _ = _run(capsys, ["repair", str(path), "--out", str(tmp_path / "out.json")])
    doc = json.loads(out)
    assert len(doc["repair"]["bridges"]) == 3


def test_construct_and_check(capsys, tmp_path):
    out_path = str(tmp_path / "pair.json")
    code, out, _ = _run(capsys, ["construct", "--dim", "3", "--algebra", "u", "--out", out_path])
    assert code == 0
    with open(out_path) as fh:
        doc = json.load(fh)
    theta = [row[i][1] for i, row in enumerate(doc["generators"][0]["matrix"])]
    assert theta == pytest.approx([np.sqrt(2.0), np.sqrt(3.0), np.sqrt(5.0)])

    code, out, _ = _run(capsys, ["check", out_path, "--oracle"])
    redoc = json.loads(out)
    assert redoc["status"] == "universal"
    assert redoc["oracle"] == {"dimension": 9, "target_dimension": 9, "agrees": True}


def _keys(value):
    if isinstance(value, dict):
        for key, item in value.items():
            yield key
            yield from _keys(item)
    elif isinstance(value, list):
        for item in value:
            yield from _keys(item)


@pytest.mark.parametrize("style", ["antisym", "sym"])
def test_repair_and_construct_leave_the_set_to_out(capsys, tmp_path, style):
    # stdout names each bridge by (a, b, style); its matrix is in --out alone
    diag = GeneratorSet(
        Algebra("u", 5), (Generator(np.diag(1j * np.sqrt([2.0, 3.0, 5.0, 7.0, 11.0])), "d"),)
    )
    path, out_path = tmp_path / "diag.json", str(tmp_path / "fixed.json")
    uio.write_document(uio.generator_set_to_document(diag), str(path))
    code, out, _ = _run(capsys, ["repair", str(path), "--style", style, "--out", out_path])
    assert code == 0
    doc = json.loads(out)
    assert "matrix" not in set(_keys(doc))
    bridges = doc["repair"]["bridges"]
    assert len(bridges) == 4
    written = uio.load_input_document(out_path)[0].generators
    assert len(written) == 1 + len(bridges)
    for bridge, gen in zip(bridges, written[1:]):
        want = bridge_generator(bridge["a"] - 1, bridge["b"] - 1, 5, BridgeStyle(bridge["style"]))
        assert bridge["style"] == style
        assert np.array_equal(gen.matrix, want.matrix) and gen.label == want.label

    pair_path = str(tmp_path / "pair.json")
    argv = ["construct", "--dim", "6", "--algebra", "su", "--style", style, "--out", pair_path]
    code, out, _ = _run(capsys, argv)
    assert code == 0
    assert json.loads(out) == {"out": pair_path, "algebra": "su", "dimension": 6, "generators": 2}
    assert len(uio.load_input_document(pair_path)[0].generators) == 2


@pytest.mark.parametrize("d, eps", [(3, np.pi / 2), (1, None)])
def test_repair_of_an_all_zero_set(capsys, tmp_path, d, eps):
    # bounded as check bounds the repaired set: pi/2 once bridges are added,
    # null when every generator of the result is zero
    path, out_path = tmp_path / "zero.json", str(tmp_path / "fixed.json")
    uio.write_document(uio.generator_set_to_document(
        GeneratorSet(Algebra("u", d), (Generator(np.zeros((d, d), dtype=complex), "z"),))
    ), str(path))
    code, out, err = _run(capsys, ["repair", str(path), "--out", out_path])
    assert code == 0, err
    doc = json.loads(out)
    assert doc["epsilon_max"] == eps
    assert len(doc["repair"]["bridges"]) == d - 1
    code, out, _ = _run(capsys, ["check", out_path])
    assert code == 0 and json.loads(out)["epsilon_max"] == eps


def test_construct_su4_oracle_dim15(capsys, tmp_path):
    out_path = str(tmp_path / "su4pair.json")
    _run(capsys, ["construct", "--dim", "4", "--algebra", "su", "--out", out_path])
    code, out, _ = _run(capsys, ["check", out_path, "--oracle"])
    doc = json.loads(out)
    assert doc["oracle"]["dimension"] == 15
    assert doc["oracle"]["agrees"] is True


def test_construct_dim1(capsys, tmp_path):
    out_path = str(tmp_path / "one.json")
    _run(capsys, ["construct", "--dim", "1", "--out", out_path])
    code, out, _ = _run(capsys, ["check", out_path])
    assert json.loads(out)["status"] == "universal"


@pytest.mark.parametrize("kind", ["u", "su"])
@pytest.mark.parametrize("d", [1, 2, 3, 8, 33, 64])
def test_construct_then_check_is_universal(capsys, tmp_path, kind, d):
    # the drift is recognised from the document's phases: at d = 8 the scan
    # would report a false relation, and above d = 32 it would be skipped
    out_path = str(tmp_path / "pair.json")
    argv = ["construct", "--dim", str(d), "--algebra", kind, "--out", out_path, "--text"]
    assert _run(capsys, argv)[0] == 0
    code, out, _ = _run(capsys, ["check", out_path])
    doc = json.loads(out)
    assert code == 0 and doc["status"] == "universal"
    assert doc["general_direction"] == {
        "status": "constructed_exact", "relation": None, "search_bound": 0, "residual": 0.0
    }


@pytest.mark.parametrize("kind", ["u", "su"])
def test_repair_of_a_constructed_document_is_universal(capsys, tmp_path, kind):
    pair, fixed = str(tmp_path / "pair.json"), str(tmp_path / "fixed.json")
    _run(capsys, ["construct", "--dim", "8", "--algebra", kind, "--out", pair, "--text"])
    code, out, _ = _run(capsys, ["repair", pair, "--out", fixed])
    doc = json.loads(out)
    assert code == 0 and doc["repair"]["noop"] is True
    assert doc["status"] == "universal"
    assert doc["general_direction"]["status"] == "constructed_exact"


def test_construct_bad_dim_exit2(capsys, tmp_path):
    code, _, err = _run(
        capsys, ["construct", "--dim", "0", "--out", str(tmp_path / "x.json")]
    )
    assert code == 2
    assert "--dim" in err


def test_construct_beyond_the_dimension_limit_exit2(capsys, tmp_path):
    from uqc.repair import CONSTRUCT_DIM_LIMIT

    out_path = tmp_path / "big.json"
    argv = ["construct", "--dim", str(CONSTRUCT_DIM_LIMIT + 1), "--out", str(out_path)]
    with time_limit(10):
        code, out, err = _run(capsys, argv)
    assert code == 2 and out == ""
    assert f"capped at d = {CONSTRUCT_DIM_LIMIT}" in err
    assert not out_path.exists()


@pytest.mark.parametrize("target", ["missing/dir/x.json", "."])
@pytest.mark.parametrize("command", ["repair", "construct"])
def test_unwritable_out_exit2(capsys, u3_path, tmp_path, command, target):
    out_path = str(tmp_path / target)
    if command == "repair":
        argv = ["repair", u3_path, "--out", out_path]
    else:
        argv = ["construct", "--dim", "3", "--out", out_path]
    code, out, err = _run(capsys, argv)
    assert code == 2 and out == ""
    assert err.startswith(f"error: cannot write {out_path}: ")
    assert "Traceback" not in err


def test_epsilon_report(capsys, u3_path):
    code, out, _ = _run(capsys, ["epsilon", u3_path])
    assert code == 0
    doc = json.loads(out)
    assert doc["epsilon_max"] == pytest.approx(np.pi / (2 * np.sqrt(5.0)))
    drift = doc["generators"][0]
    assert drift["epsilon_max"] == pytest.approx(np.pi / (2 * np.sqrt(5.0)))
    assert drift["distance_at_0.99"] < np.sqrt(2.0)


def test_epsilon_distance_is_the_closed_form(capsys, tmp_path):
    # 2 sin(0.99 pi / 4) for every nonzero generator, whatever its scale;
    # a zero generator has no bound and no distance
    rng = np.random.default_rng(37)
    s = three_level_set()
    gens = [*s.generators, Generator(np.zeros((3, 3)), "zero")]
    for scale in (1e-150, 1e150):
        M = random_sparse_offdiag(rng, 3, p=1.0) * scale
        gens.append(Generator(M, f"x{scale:g}"))
    path = tmp_path / "in.json"
    uio.write_document(uio.generator_set_to_document(GeneratorSet(s.algebra, tuple(gens))), str(path))
    code, out, _ = _run(capsys, ["epsilon", str(path)])
    assert code == 0
    entries = json.loads(out)["generators"]
    assert [e["label"] for e in entries] == ["drift", "rot12", "zero", "x1e-150", "x1e+150"]
    for e in entries:
        if e["label"] == "zero":
            assert e["epsilon_max"] is None and "distance_at_0.99" not in e
        else:
            assert e["distance_at_0.99"] == 1.4030628515417114


@pytest.mark.parametrize(
    "scale, label, message",
    [
        (1e-309, "epsilon_max beyond float64", "every nonzero generator has a bound beyond float64"),
        (0.0, "zero generator", "every generator is zero"),
    ],
)
def test_epsilon_of_a_subnormal_generator_is_not_called_zero(capsys, tmp_path, scale, label, message):
    # at a norm below about 8.8e-309, pi / (2 ||X||) is beyond float64:
    # every step is allowed, yet the generator is not zero, and check
    # counts its edges
    drift, chain = uqc.minimal_pair(Algebra("u", 3)).generators
    path = tmp_path / "small.json"
    small = GeneratorSet(Algebra("u", 3), (drift, Generator(chain.matrix * scale, "chain")))
    uio.write_document(uio.generator_set_to_document(small), str(path))
    code, out, _ = _run(capsys, ["epsilon", str(path), "--text"])
    assert code == 0
    assert out.splitlines()[2] == f"  chain: {label}, unconstrained"
    code, out, _ = _run(capsys, ["epsilon", str(path)])
    entry = json.loads(out)["generators"][1]
    assert entry["epsilon_max"] is None and "distance_at_0.99" not in entry
    assert (entry["operator_norm"] > 0) == (scale > 0)
    code, out, _ = _run(capsys, ["check", str(path)])
    assert json.loads(out)["status"] == ("universal" if scale else "reducible")

    both = GeneratorSet(Algebra("u", 3), (Generator(drift.matrix * scale, "drift"), small.generators[1]))
    uio.write_document(uio.generator_set_to_document(both), str(path))
    code, out, err = _run(capsys, ["epsilon", str(path)])
    assert (code, out, err) == (2, "", f"error: epsilon bound undefined: {message}\n")


def _u2_path(tmp_path, phases, coupling):
    """A u(2) document: drift i diag(phases) and coupling c (E_12 - E_21)."""
    c = np.array([[0.0, coupling], [-coupling, 0.0]])
    gens = (Generator(np.diag(1j * np.asarray(phases)), "drift"), Generator(c, "c"))
    path = tmp_path / "u2.json"
    uio.write_document(uio.generator_set_to_document(GeneratorSet(Algebra("u", 2), gens)), str(path))
    return str(path)


def test_epsilon_of_a_generator_at_the_top_of_float64(capsys, tmp_path):
    # pi / (2 ||X||) overflowed the doubled norm and printed 0 here
    path = _u2_path(tmp_path, [1.0, 2.0], 1e308)
    code, out, _ = _run(capsys, ["epsilon", path])
    assert code == 0
    doc = json.loads(out)
    assert doc["epsilon_max"] == doc["generators"][1]["epsilon_max"] == 1.5707963267948964e-308
    code, out, _ = _run(capsys, ["check", path])
    assert json.loads(out)["epsilon_max"] == 1.5707963267948964e-308


def test_check_keeps_its_stderr_clean_at_the_ends_of_float64(capsys, tmp_path):
    # phases near -1e308 and 1e308 overflowed the spectrum's gap with a
    # warning; a subnormal coupling overflowed the oracle's reciprocal and
    # the closure lost it
    code, _, err = _run(capsys, ["check", _u2_path(tmp_path, [1e308, -1e308], 1.0)])
    assert (code, err) == (0, "")
    code, out, err = _run(capsys, ["check", "--oracle", _u2_path(tmp_path, [1.0, 2.0], 1e-320)])
    assert (code, err) == (0, "")
    assert json.loads(out)["oracle"] == {"dimension": 4, "target_dimension": 4, "agrees": True}


def test_epsilon_empty_generator_list_exit2(capsys, tmp_path):
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({"algebra": "u", "dimension": 2, "generators": []}))
    code, _, err = _run(capsys, ["epsilon", str(path)])
    assert code == 2


def test_epsilon_takes_one_norm_per_generator(capsys, u3_path, tmp_path, monkeypatch):
    # one SVD per generator gives its norm and bound; its distance is a
    # closed form
    from uqc import cli, linalg

    expected = _run(capsys, ["epsilon", u3_path])
    norm, calls = linalg.operator_norm, []

    def counted(A):
        calls.append(1)
        return norm(A)

    monkeypatch.setattr(linalg, "operator_norm", counted)
    monkeypatch.setattr(cli, "operator_norm", counted)
    assert _run(capsys, ["epsilon", u3_path]) == expected
    assert len(calls) == len(three_level_set().generators) == 2

    zero = GeneratorSet(Algebra("u", 2), (Generator(np.zeros((2, 2)), "drift"),))
    path = tmp_path / "zero.json"
    uio.write_document(uio.generator_set_to_document(zero), str(path))
    code, out, err = _run(capsys, ["epsilon", str(path)])
    assert code == 2 and out == ""
    assert err == "error: epsilon bound undefined: every generator is zero\n"


def test_oracle_subcommand(capsys, u3_path):
    code, out, _ = _run(capsys, ["oracle", u3_path])
    doc = json.loads(out)
    assert doc["dimension"] == 4
    assert doc["target_dimension"] == 9
    assert doc["closure_partition"] == [[1, 2], [3]]
    assert doc["residual_max"] <= 1e-9


@pytest.fixture()
def degenerate_path(tmp_path):
    # i*diag(1, 1, 2) and a 1-2-3 chain: connected, two phases coincide
    chain = np.zeros((3, 3), dtype=complex)
    chain[0, 1], chain[1, 0], chain[1, 2], chain[2, 1] = 1, -1, 1, -1
    s = GeneratorSet(
        Algebra("u", 3),
        (Generator(np.diag([1j, 1j, 2j]), "drift"), Generator(chain, "chain")),
    )
    path = tmp_path / "degenerate.json"
    uio.write_document(uio.generator_set_to_document(s), str(path))
    return str(path)


def test_check_reports_a_degenerate_drift(capsys, degenerate_path):
    # the criterion's hypothesis fails, so the verdict is connected but not
    # certified, as check_universality gives it; the input is not refused
    code, out, err = _run(capsys, ["check", degenerate_path])
    assert (code, err) == (0, "")
    doc = json.loads(out)
    assert doc["status"] == "conditionally_universal"
    assert doc["degenerate_spectrum"] is True
    code, out, _ = _run(capsys, ["check", "--oracle", degenerate_path])
    assert code == 0
    assert json.loads(out)["oracle"] == {"dimension": 9, "target_dimension": 9, "agrees": True}
    code, out, _ = _run(capsys, ["check", "--text", degenerate_path])
    assert code == 0
    assert "warning: designated spectrum is degenerate" in out.splitlines()


def test_other_commands_run_on_a_degenerate_drift(capsys, degenerate_path, tmp_path):
    code, out, err = _run(capsys, ["oracle", degenerate_path])
    assert (code, err) == (0, "")
    assert json.loads(out)["dimension"] == 9
    code, out, err = _run(capsys, ["epsilon", degenerate_path])
    assert (code, err) == (0, "")
    assert json.loads(out)["epsilon_max"] == pytest.approx(np.pi / 4)
    out_path = tmp_path / "repaired.json"
    code, out, err = _run(capsys, ["repair", degenerate_path, "--out", str(out_path)])
    assert (code, err) == (0, "")
    doc = json.loads(out)
    assert doc["repair"]["noop"] is True
    assert doc["status"] == "conditionally_universal"
    assert doc["degenerate_spectrum"] is True
    assert json.loads(out_path.read_text())["generators"][0]["label"] == "drift"


def test_choice_lists_are_the_library_names(capsys):
    styles = "{" + ",".join(style.value for style in BridgeStyle) + "}"
    for command, listed in (
        ("repair", [styles, "{" + ",".join(SELECTION_RULES) + "}"]),
        ("construct", [styles]),
    ):
        with pytest.raises(SystemExit):
            main([command, "--help"])
        out = capsys.readouterr().out
        assert all(names in out for names in listed)


def _weak_coupling_path(tmp_path, tolerances=None) -> str:
    """A u(3) set whose coupling entry at relative 1e-10 is an edge at the
    default threshold (1e-12), invisible under the loose profile (1e-9)."""
    drift = Generator(np.diag(1j * np.sqrt([2.0, 3.0, 5.0])), "d")
    A = np.zeros((3, 3), dtype=complex)
    A[0, 1], A[1, 0] = 1.0, -1.0
    A[1, 2], A[2, 1] = 1e-10, -1e-10
    s = GeneratorSet(Algebra("u", 3), (drift, Generator(A, "x")))
    path = tmp_path / "weak.json"
    uio.write_document(uio.generator_set_to_document(s, tolerances), str(path))
    return str(path)


def test_tolerance_profile_env(capsys, tmp_path, monkeypatch):
    path = _weak_coupling_path(tmp_path)

    code, out, _ = _run(capsys, ["check", str(path)])
    assert json.loads(out)["status"] == "universal"

    monkeypatch.setenv("UQC_TOLERANCE_PROFILE", "loose")
    code, out, _ = _run(capsys, ["check", str(path)])
    assert json.loads(out)["status"] == "reducible"

    monkeypatch.setenv("UQC_TOLERANCE_PROFILE", "bogus")
    code, _, err = _run(capsys, ["check", str(path)])
    assert code == 2

    # explicit flag beats the profile
    monkeypatch.setenv("UQC_TOLERANCE_PROFILE", "loose")
    code, out, _ = _run(capsys, ["check", str(path), "--tau-edge", "1e-12"])
    assert json.loads(out)["status"] == "universal"


def test_tolerance_profile_mapping(monkeypatch):
    for profile, tau_edge in [("strict", 1e-13), ("default", 1e-12), ("loose", 1e-9)]:
        monkeypatch.setenv("UQC_TOLERANCE_PROFILE", profile)
        assert _resolve_tolerances({}, Namespace())["tau_edge"] == tau_edge
    monkeypatch.setenv("UQC_TOLERANCE_PROFILE", "sloppy")
    with pytest.raises(InvalidInput) as exc:
        _resolve_tolerances({}, Namespace())
    assert str(exc.value) == (
        "unknown tolerance profile 'sloppy'; expected one of ['default', 'loose', 'strict']"
    )


def test_tolerance_overrides(monkeypatch):
    monkeypatch.delenv("UQC_TOLERANCE_PROFILE", raising=False)
    file_values = {"tau_edge": 1e-10, "tau_rank": 1e-8, "tau_rel": 1e-7, "relation_bound": 4}
    assert _resolve_tolerances(file_values, Namespace()) == file_values
    assert _resolve_tolerances({}, Namespace(tau_edge=None)) == {
        "tau_edge": 1e-12, "tau_rank": 1e-10, "tau_rel": 1e-9, "relation_bound": 10
    }
    with pytest.raises(InvalidInput) as exc:
        _resolve_tolerances({"tau_typo": 1.0}, Namespace())
    assert str(exc.value) == "tolerances: unknown key 'tau_typo'"


@pytest.mark.parametrize(
    "key, value",
    [
        ("tau_edge", -1.0),
        ("tau_edge", 2.0),
        ("tau_edge", float("nan")),
        ("tau_edge", True),
        ("tau_edge", "1e-12"),
        ("tau_rank", 0.0),
        ("tau_rank", 1.0),
        ("tau_rank", float("inf")),
        ("tau_rel", -1e-9),
        ("tau_rel", 1.0),
        ("relation_bound", 0),
        ("relation_bound", True),
        ("relation_bound", 10.0),
    ],
)
def test_bad_tolerance_override_names_key_and_source(capsys, tmp_path, key, value):
    doc = json_document(uio.generator_set_to_document(three_level_set()))
    doc["tolerances"] = {key: value}
    path = tmp_path / "bad_tol.json"
    path.write_text(json.dumps(doc))  # json writes NaN and Infinity as bare literals
    want = "an integer >= 1" if key == "relation_bound" else "a finite number in (0, 1)"
    code, out, err = _run(capsys, ["check", str(path)])
    assert (code, out) == (2, "")
    assert err == f"error: {key} (input file tolerances): expected {want}, got {value!r}\n"


def test_file_tolerances_beat_the_profile_and_the_flag_beats_both(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("UQC_TOLERANCE_PROFILE", "loose")
    path = _weak_coupling_path(tmp_path, {"tau_edge": 1e-12})
    code, out, _ = _run(capsys, ["check", path])
    assert json.loads(out)["status"] == "universal"
    code, out, _ = _run(capsys, ["check", path, "--tau-edge", "1e-9"])
    assert json.loads(out)["status"] == "reducible"

    monkeypatch.delenv("UQC_TOLERANCE_PROFILE")
    path = _weak_coupling_path(tmp_path, {"tau_edge": 1e-9})
    code, out, _ = _run(capsys, ["check", path])
    assert json.loads(out)["status"] == "reducible"
    code, out, _ = _run(capsys, ["check", path, "--tau-edge", "1e-12"])
    assert json.loads(out)["status"] == "universal"


def test_epsilon_rejects_bad_tolerances_it_does_not_use(capsys, tmp_path, monkeypatch):
    # no tolerance enters the bound, but a bad one exits 2 as in every command
    doc = json_document(uio.generator_set_to_document(three_level_set()))
    doc["tolerances"] = {"tau_rank": -1.0}
    path = tmp_path / "bad_tol.json"
    path.write_text(json.dumps(doc))
    code, out, err = _run(capsys, ["epsilon", str(path)])
    assert (code, out) == (2, "")
    assert err == (
        "error: tau_rank (input file tolerances): expected a finite number in (0, 1), got -1.0\n"
    )

    doc["tolerances"] = {"tau_typo": 1.0}
    path.write_text(json.dumps(doc))
    code, out, err = _run(capsys, ["epsilon", str(path)])
    assert (code, out, err) == (2, "", "error: tolerances: unknown key 'tau_typo'\n")

    del doc["tolerances"]
    path.write_text(json.dumps(doc))
    monkeypatch.setenv("UQC_TOLERANCE_PROFILE", "bogus")
    code, out, err = _run(capsys, ["epsilon", str(path)])
    assert (code, out) == (2, "")
    assert err.startswith("error: unknown tolerance profile 'bogus'")


@pytest.mark.parametrize("command", ["check", "repair", "oracle"])
@pytest.mark.parametrize("value", ["-1", "0", "2", "nan", "inf"])
def test_bad_tau_edge_flag_exit2(capsys, u3_path, tmp_path, command, value):
    # at the parent, `repair --tau-edge 2` never returned: bridges never
    # became edges, so the repair loop grew without end
    argv = [command, u3_path, "--tau-edge", value]
    if command == "repair":
        argv += ["--out", str(tmp_path / "out.json")]
    with time_limit(10):
        code, out, err = _run(capsys, argv)
    assert code == 2
    assert out == ""
    assert "tau_edge (flag --tau-edge)" in err


@pytest.mark.parametrize(
    "tolerances",
    [{"tau_edge": float("nan")}, {"tau_rank": -1.0}, {"relation_bound": True}],
)
def test_bad_file_tolerance_exit2(capsys, tmp_path, tolerances):
    doc = json_document(uio.generator_set_to_document(three_level_set()))
    doc["tolerances"] = tolerances
    path = tmp_path / "bad_tol.json"
    path.write_text(json.dumps(doc))  # json writes NaN as a bare literal
    code, _, err = _run(capsys, ["check", str(path), "--oracle"])
    assert code == 2
    assert f"{next(iter(tolerances))} (input file tolerances)" in err


def _scanned_pair(algebra: Algebra) -> GeneratorSet:
    """minimal_pair with its drift scaled by 3/2: a drift that is not
    recognised as constructed, so that check runs the scan on it."""
    drift, *rest = uqc.minimal_pair(algebra).generators
    return GeneratorSet(algebra, (Generator(1.5 * drift.matrix, "drift"), *rest))


@pytest.mark.parametrize("bound", [2**1024, 10**400], ids=["2**1024", "10**400"])
def test_huge_relation_bound_is_searched_and_echoed(capsys, tmp_path, bound):
    # the bound is compared with Python floats; a float64 against an int
    # above 2**1024 would raise OverflowError
    doc = json_document(uio.generator_set_to_document(_scanned_pair(Algebra("u", 8))))
    doc["tolerances"] = {"relation_bound": bound}
    path = tmp_path / "pair.json"
    path.write_text(json.dumps(doc))
    for argv in (["check", str(path)], ["repair", str(path), "--out", str(tmp_path / "r.json")]):
        with time_limit(10):
            code, out, err = _run(capsys, argv)
        assert code == 0, err
        assert json.loads(out)["general_direction"]["search_bound"] == bound


def test_version(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "uqc" in capsys.readouterr().out


def _uqc_env() -> dict:
    paths = [str(Path(uqc.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))


def _matrix_case(mutate):
    def build():
        doc = json_document(uio.generator_set_to_document(three_level_set()))
        mutate(doc["generators"][1]["matrix"])
        return json.dumps(doc)  # writes NaN as a bare literal, as json.load reads it

    return build


def _set(i, k, value):
    def mutate(rows):
        rows[i][k] = value

    return mutate


def _ragged(rows):
    rows[1] = rows[1][:2]


@pytest.mark.parametrize(
    "case, located",
    [
        ("ragged", "matrix row 2: expected 3 entries, got 2"),
        ("triple", "matrix row 2 column 3: expected an [re, im] pair"),
        ("string", "matrix row 2 column 3: expected an [re, im] pair, got '1+2j'"),
        ("dict", "matrix row 2 column 3: expected an [re, im] pair, got {'re': 1.0}"),
        ("over-nested", "matrix row 2 column 3: entries must be numbers"),
        ("too few rows", "matrix: expected 3 rows, got 2"),
        ("nan", "matrix row 2 column 3: entries must be finite, got [nan, 0.0]"),
        ("huge integer", "matrix row 2 column 3: entry is outside the float64 range"),
        # np.array would read them as 1 and 0 among the numbers of the matrix
        ("bools", "matrix row 2 column 3: entries must be numbers, got [True, False]"),
    ],
)
def test_malformed_matrix_exit2_located_without_traceback(tmp_path, case, located):
    mutate = {
        "ragged": _ragged,
        "triple": _set(1, 2, [0.0, 1.0, 2.0]),
        "string": _set(1, 2, "1+2j"),
        "dict": _set(1, 2, {"re": 1.0}),
        "over-nested": _set(1, 2, [[0.0, 1.0], 2.0]),
        "too few rows": lambda rows: rows.pop(),
        "nan": _set(1, 2, [float("nan"), 0.0]),
        "huge integer": _set(1, 2, [10**400, 0]),
        "bools": _set(1, 2, [True, False]),
    }[case]
    path = tmp_path / "bad.json"
    path.write_text(_matrix_case(mutate)())
    result = subprocess.run(
        [sys.executable, "-m", "uqc", "check", str(path)],
        env=_uqc_env(), capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == 2
    assert "Traceback" not in result.stderr
    assert result.stdout == ""
    assert result.stderr.startswith(f"error: generators[1] (rot12) {located}"), result.stderr


def test_closed_stdout_exits_without_traceback(u3_path, tmp_path):
    # every output is far smaller than stdout's buffer, so with buffered
    # stdout the write fails only when the buffer is flushed
    env = _uqc_env()
    env.pop("PYTHONUNBUFFERED", None)
    for argv in (
        ["check", u3_path],
        ["check", u3_path, "--text"],
        ["repair", u3_path, "--out", str(tmp_path / "fixed.json")],
        ["construct", "--dim", "3", "--out", str(tmp_path / "pair.json")],
        ["epsilon", u3_path],
        ["oracle", u3_path],
    ):
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.Popen(
                [sys.executable, "-m", "uqc", *argv],
                env=env, stdout=write_end, stderr=subprocess.PIPE,
            )
        finally:
            os.close(write_end)
        with proc.stderr:
            stderr = proc.stderr.read().decode()
        assert (proc.wait(timeout=60), stderr) == (141, ""), argv


def test_importing_the_cli_leaves_mpmath_out(tmp_path):
    result = subprocess.run(
        [sys.executable, "-c",
         "import sys, uqc.cli; print('mpmath' in sys.modules)"],
        env=_uqc_env(), capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "False"
    # neither does a check at d <= 32, which runs the PSLQ scan
    for gen_set in (_scanned_pair(Algebra("u", 3)), _scanned_pair(Algebra("u", 32))):
        path = tmp_path / f"u{gen_set.dim}.json"
        uio.write_document(uio.generator_set_to_document(gen_set), str(path))
        script = (
            "import sys\n"
            "from uqc.cli import main\n"
            f"code = main(['check', {str(path)!r}])\n"
            "print('mpmath' in sys.modules, code)\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", script],
            env=_uqc_env(), capture_output=True, text=True, timeout=60,
        )
        assert result.returncode == 0, result.stderr
        *report, last = result.stdout.strip().splitlines()
        scan = json.loads("\n".join(report))["general_direction"]["status"]
        assert scan in ("heuristically_independent", "dependent")
        assert last == "False 0"


def _reducible_sets():
    """Seeded reducible sets; every other one scaled by 1/16, so that its
    generators' bounds exceed a bridge's pi/2."""
    rng = np.random.default_rng(83)
    sets = []
    while len(sets) < 12:
        d = int(rng.integers(2, 41))
        s = random_instance(rng, d, int(rng.integers(2, 5)), "u", p=float(rng.uniform(0.0, 0.1)))
        if len(connected_components(build_coupling_graph(s))) > 1:
            scale = 0.0625 if len(sets) % 2 else 1.0
            gens = tuple(Generator(g.matrix * scale, g.label) for g in s.generators)
            sets.append(GeneratorSet(s.algebra, gens))
    return sets


@pytest.mark.parametrize("selection", ["smallest", "paper-example"])
@pytest.mark.parametrize("style", ["antisym", "sym"])
def test_repair_epsilon_equals_the_bound_of_the_repaired_set(capsys, tmp_path, style, selection):
    # uqc repair takes pi/2 for the bridges instead of an SVD of each one
    bridge_bound_taken = 0
    for k, gen_set in enumerate(_reducible_sets()):
        path, out = tmp_path / f"in{k}.json", tmp_path / f"out{k}.json"
        uio.write_document(uio.generator_set_to_document(gen_set), str(path))
        code, stdout, _ = _run(
            capsys,
            ["repair", str(path), "--style", style, "--selection", selection, "--out", str(out)],
        )
        assert code == 0
        loaded = uio.load_input_document(str(path))[0]
        plan = repair(loaded, style=style, selection=selection)
        assert plan.resulting_set.generators[len(loaded.generators):]
        eps = json.loads(stdout)["epsilon_max"]
        assert eps == epsilon_bound(plan.resulting_set)
        bridge_bound_taken += eps == np.pi / 2
    assert bridge_bound_taken == 6


@pytest.mark.parametrize("layout", [{"separators": (",", ":")}, {"indent": 2}])
def test_huge_declared_dimension_is_refused_before_any_work(capsys, tmp_path, layout):
    # 2 x 2 matrices under "dimension": 100000; a d x d layout of them
    # would take 40 GB, so the reader must compare sizes first
    doc = json_document(uio.generator_set_to_document(GeneratorSet(
        Algebra("u", 2),
        (Generator(np.diag([1j, 2j]), "drift"), Generator(np.array([[0, 1], [-1, 0]]), "x")),
    )))
    doc["dimension"] = 100_000
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc, **layout))
    tracemalloc.start()
    try:
        with time_limit(10):
            code, out, err = _run(capsys, ["check", str(path)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2 and out == ""
    assert err == "error: generators[0] (drift) matrix: expected 100000 rows, got 2\n"
    assert peak < 5 * 2**20, peak


_DELETE = object()
_FIELD_VALUES = {
    "algebra": ["so", "", "U", None, 3, True, ["u"], {"kind": "u"}, _DELETE],
    "dimension": [0, -3, True, 3.0, "3", None, [3], 2, 4, 100_000, _DELETE],
    "general_index": [-1, 2, 99, True, 1.0, "0", None, [0]],
    "label": [3, None, True, 1.5, ["x"], {"a": 1}],
    "tolerances": [
        [], "x", 3, None, {"tau_typo": 1.0}, {"tau_edge": -1.0}, {"tau_edge": "1e-9"},
        {"tau_edge": True}, {"tau_rank": 0.0}, {"tau_rel": -1e-9}, {"relation_bound": 0.5},
    ],
}


def _names_field(field: str, value, message: str) -> bool:
    if field == "label":
        return ".label: expected a string" in message
    if field == "tolerances" and isinstance(value, dict):
        return next(iter(value)) in message and "tolerances" in message
    if field == "dimension" and type(value) is int and value >= 1:
        return f"matrix: expected {value} rows, got 3" in message
    return message.startswith(field) or f"missing required field {field!r}" == message


def _json_only(data):
    raise uio._NotPlain


def test_fuzzed_fields_in_files_exit2_naming_the_field(capsys, tmp_path, monkeypatch):
    rng = np.random.default_rng(1207)
    base = json_document(uio.generator_set_to_document(three_level_set()))
    cases = [(field, value) for field, values in _FIELD_VALUES.items() for value in values]
    for n, (field, value) in enumerate(cases * 2):
        doc = json.loads(json.dumps(base))
        where, key = (doc["generators"][int(rng.integers(2))], field) if field == "label" else (doc, field)
        if value is _DELETE:
            del where[key]
        else:
            where[key] = value
        path = tmp_path / f"doc{n}.json"
        path.write_text(json.dumps(doc, **({"separators": (",", ":")} if n % 2 else {"indent": 2})))
        command = ["check", "epsilon", "oracle"][int(rng.integers(3))]
        code, out, err = _run(capsys, [command, str(path)])
        assert code == 2 and out == "", (field, value, command, err)
        assert err.startswith("error: ") and err.count("\n") == 1, err
        message = err[len("error: "):-1]
        assert _names_field(field, value, message), (field, value, message)
        # the message json's nested lists give: the slots change nothing
        with monkeypatch.context() as m:
            m.setattr(uio, "_read_matrix_text", _json_only)
            assert _run(capsys, [command, str(path)]) == (code, out, err)


def _write_raw(path, gens) -> str:
    """A u(d) document of ``(label, matrix)`` pairs written without building
    a GeneratorSet, so that it may hold a set the library refuses."""
    doc = {
        "algebra": "u",
        "dimension": gens[0][1].shape[0],
        "generators": [{"label": label, "matrix": M} for label, M in gens],
    }
    uio.write_document(doc, str(path))
    return str(path)


@pytest.mark.parametrize("scale", [1.0, 1e-6, 1e-13, 1e-20])
def test_a_hermitian_coupling_is_refused_at_every_scale(capsys, tmp_path, scale):
    # the symmetry defect is measured against max|A| alone: with a floor of
    # 1 under it, the Hermitian chain at 1e-13 passed and came back universal
    algebra = Algebra("u", 3)
    drift = uqc.make_general_direction(algebra).matrix
    hermitian = np.zeros((3, 3), dtype=complex)
    hermitian[[0, 1, 1, 2], [1, 0, 2, 1]] = scale
    with pytest.raises(uqc.NotSkewHermitian) as err:
        GeneratorSet(algebra, (Generator(drift, "drift"), Generator(hermitian, "coupling")))
    assert err.value.generator_index == 1
    path = _write_raw(tmp_path / "herm.json", [("drift", drift), ("coupling", hermitian)])
    for command in ("check", "epsilon"):
        assert _run(capsys, [command, path]) == (
            2, "", "error: generator 1 (coupling) is not skew-Hermitian\n"
        )

    skew = uqc.minimal_pair(algebra).generators[1].matrix * scale
    path = _write_raw(tmp_path / "skew.json", [("drift", drift), ("coupling", skew)])
    code, out, _ = _run(capsys, ["check", path])
    assert code == 0 and json.loads(out)["status"] == "universal"


def test_an_empty_label_is_named_by_its_position_everywhere(capsys, tmp_path):
    s = three_level_set()
    gens = [(g.label, g.matrix) for g in s.generators]
    unlabeled = GeneratorSet(s.algebra, (Generator(gens[0][1]), s.generators[1]))
    assert [g.label for g in unlabeled.generators] == ["g1", "rot12"]
    path = _write_raw(tmp_path / "in.json", [gens[0], ("", gens[1][1])])

    code, out, _ = _run(capsys, ["epsilon", path])
    assert code == 0 and json.loads(out)["generators"][1]["label"] == "g2"
    code, out, _ = _run(capsys, ["check", path, "--text"])
    assert code == 0 and "1 -- 2   via g2(|1|)" in out
    repaired = tmp_path / "out.json"
    assert _run(capsys, ["repair", path, "--out", str(repaired)])[0] == 0
    labels = [g["label"] for g in json.loads(repaired.read_text())["generators"]]
    assert labels == ["drift", "g2", "bridge(1,3)"]

    bad = _write_raw(tmp_path / "bad.json", [gens[0], ("", 1j * gens[1][1])])
    assert _run(capsys, ["check", bad]) == (
        2, "", "error: generator 1 (g2) is not skew-Hermitian\n"
    )


def _graph_lines(capsys, path, *flags) -> list[str]:
    code, out, err = _run(capsys, ["check", path, "--text", *flags])
    assert (code, err) == (0, "")
    lines = out.splitlines()
    return lines[next(i for i, line in enumerate(lines) if line.startswith("coupling graph:")):]


def test_check_text_lists_the_generators_that_carry_each_edge(capsys, tmp_path):
    # 1 -- 2 is carried by "a" and by the unlabeled third generator, listed
    # in generator order; a's 1e-14 on 2 -- 3 is below its own
    # tau_edge * max|A| = 2e-13, so g3 alone carries that edge; the drift,
    # designated though second, has off-diagonal roundoff on 1 -- 3 that
    # would pass the same cutoff in any other generator
    algebra = Algebra("u", 4)
    a = np.zeros((4, 4), dtype=complex)
    a[0, 1], a[1, 0] = 0.7, -0.7
    a[1, 2], a[2, 1] = 1e-14, -1e-14
    a[2, 3], a[3, 2] = 2.0, -2.0
    drift = uqc.make_general_direction(algebra).matrix.copy()
    drift[0, 2], drift[2, 0] = 1e-12, -1e-12
    b = np.zeros((4, 4), dtype=complex)
    b[0, 1] = b[1, 0] = 0.3j
    b[1, 2], b[2, 1] = 1.5, -1.5
    s = GeneratorSet(algebra, (Generator(a, "a"), Generator(drift, "drift"), Generator(b)), 1)
    path = str(tmp_path / "carriers.json")
    uio.write_document(uio.generator_set_to_document(s), path)
    assert _graph_lines(capsys, path, "--tau-edge", "1e-13") == [
        "coupling graph: 4 vertices, 3 edges",
        "  1 -- 2   via a(|0.7|), g3(|0.3|)",
        "  2 -- 3   via g3(|1.5|)",
        "  3 -- 4   via a(|2|)",
    ]


@pytest.mark.parametrize("d", [41, 45])
def test_check_text_counts_the_edges_past_the_first_forty(capsys, tmp_path, d):
    path = str(tmp_path / "chain.json")
    uio.write_document(uio.generator_set_to_document(uqc.minimal_pair(Algebra("u", d))), path)
    lines = _graph_lines(capsys, path)
    listed = [f"  {j} -- {j + 1}   via chain(|1|)" for j in range(1, 41)]
    more = [f"  ... ({d - 41} more edges)"] if d > 41 else []
    assert lines == [f"coupling graph: {d} vertices, {d - 1} edges", *listed, *more]


def test_an_empty_label_is_named_by_its_position_in_matrix_errors(capsys, tmp_path):
    doc = json_document(uio.generator_set_to_document(three_level_set()))
    doc["generators"][1]["label"] = ""
    doc["generators"][1]["matrix"][1][1] = [0, "x"]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert _run(capsys, ["check", str(path)]) == (
        2, "", "error: generators[1] (g2) matrix row 2 column 2: "
        "entries must be numbers, got [0, 'x']\n"
    )
    # a label that is not a string is still refused
    doc["generators"][1]["label"] = 0
    path.write_text(json.dumps(doc))
    assert _run(capsys, ["check", str(path)]) == (
        2, "", "error: generators[1].label: expected a string\n"
    )


def test_each_command_validates_the_set_once(capsys, u3_path, tmp_path, monkeypatch):
    # the set validates itself as it is built; no entry point checks it again
    from uqc import generators

    validate, calls = generators.validate_set, []

    def counted(gen_set):
        calls.append(1)
        return validate(gen_set)

    monkeypatch.setattr(generators, "validate_set", counted)
    out = str(tmp_path / "out.json")
    for argv, expected in (
        (["check", u3_path], 1),
        (["check", u3_path, "--oracle"], 1),
        (["oracle", u3_path], 1),
        (["epsilon", u3_path], 1),
        # load, then the set with its bridge appended
        (["repair", u3_path, "--out", out], 2),
    ):
        calls.clear()
        assert _run(capsys, argv)[0] == 0
        assert len(calls) == expected, (argv, len(calls))
