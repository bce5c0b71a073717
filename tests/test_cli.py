import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import uqc
from uqc import (
    Algebra,
    BridgeStyle,
    Generator,
    GeneratorSet,
    build_coupling_graph,
    connected_components,
    epsilon_bound,
    repair,
)
from uqc import io as uio
from uqc.cli import main
from uqc.repair import SELECTION_RULES

from conftest import (
    json_document,
    random_instance,
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
    added = np.array(
        [[complex(re, im) for re, im in row] for row in doc["repair"]["added_generators"][0]["matrix"]]
    )
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
    doc = json.loads(out)
    theta = [row[i][1] for i, row in enumerate(doc["generators"][0]["matrix"])]
    assert theta == pytest.approx([np.sqrt(2.0), np.sqrt(3.0), np.sqrt(5.0)])

    code, out, _ = _run(capsys, ["check", out_path, "--oracle"])
    redoc = json.loads(out)
    assert redoc["status"] == "universal"
    assert redoc["oracle"] == {"dimension": 9, "target_dimension": 9, "agrees": True}


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


def test_epsilon_empty_generator_list_exit2(capsys, tmp_path):
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({"algebra": "u", "dimension": 2, "generators": []}))
    code, _, err = _run(capsys, ["epsilon", str(path)])
    assert code == 2


def test_epsilon_takes_one_norm_per_generator(capsys, u3_path, tmp_path, monkeypatch):
    # one SVD per generator for its norm and bound, one for its distance
    from uqc import cli, linalg

    expected = _run(capsys, ["epsilon", u3_path])
    norm, calls = linalg.operator_norm, []

    def counted(A):
        calls.append(1)
        return norm(A)

    monkeypatch.setattr(linalg, "operator_norm", counted)
    monkeypatch.setattr(cli, "operator_norm", counted)
    assert _run(capsys, ["epsilon", u3_path]) == expected
    assert len(calls) == 2 * len(three_level_set().generators) == 4

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


def test_tolerance_profile_env(capsys, tmp_path, monkeypatch):
    # coupling entry at relative 1e-10: an edge at the default threshold
    # (1e-12), invisible under the loose profile (1e-9)
    drift = Generator(np.diag(1j * np.sqrt([2.0, 3.0, 5.0])), "d")
    A = np.zeros((3, 3), dtype=complex)
    A[0, 1], A[1, 0] = 1.0, -1.0
    A[1, 2], A[2, 1] = 1e-10, -1e-10
    s = GeneratorSet(Algebra("u", 3), (drift, Generator(A, "x")))
    path = tmp_path / "weak.json"
    uio.write_document(uio.generator_set_to_document(s), str(path))

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


@pytest.mark.parametrize("bound", [2**1024, 10**400], ids=["2**1024", "10**400"])
def test_huge_relation_bound_is_searched_and_echoed(capsys, tmp_path, bound):
    # the bound is compared with Python floats; a float64 against an int
    # above 2**1024 would raise OverflowError
    path = tmp_path / "pair.json"
    _run(capsys, ["construct", "--dim", "8", "--out", str(path)])
    doc = json.loads(path.read_text())
    doc["tolerances"] = {"relation_bound": bound}
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


def test_closed_stdout_exits_without_traceback(tmp_path):
    # the JSON of a d=200 pair is megabytes, far past a pipe's buffer
    proc = subprocess.Popen(
        [sys.executable, "-m", "uqc", "construct", "--dim", "200",
         "--out", str(tmp_path / "pair.json")],
        env=_uqc_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    assert proc.stdout.readline() == b"{\n"
    proc.stdout.close()
    with proc.stderr:
        stderr = proc.stderr.read().decode()
    assert proc.wait(timeout=60) == 141
    assert stderr == ""


def test_importing_the_cli_leaves_mpmath_out(tmp_path):
    result = subprocess.run(
        [sys.executable, "-c",
         "import sys, uqc.cli; print('mpmath' in sys.modules)"],
        env=_uqc_env(), capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "False"
    # neither does a check at d <= 32, which runs the PSLQ scan
    for gen_set in (three_level_set(), uqc.minimal_pair(Algebra("u", 32))):
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
        assert json.loads("\n".join(report))["general_direction"]["status"] != "skipped"
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
        plan = repair(uio.load_input_document(str(path))[0], style=style, selection=selection)
        assert plan.added_generators
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
