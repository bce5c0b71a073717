"""Every output of the committed corpus, byte for byte (see tests/corpus/regenerate.py).

Each case's exit code, stderr and ``--out`` sha256 must equal the recorded
ones exactly, and so must its stdout, with two exceptions on a line of its
own in a JSON report:

- ``epsilon_max``, ``operator_norm`` and the general direction's
  ``residual`` may move by up to :data:`ULPS` units in the last place: a
  LAPACK SVD moves by as much when the BLAS thread count changes (17 ulps
  were seen on one ``check_large`` generator);
- the closure oracle's ``residual_max``, also the ``closure residual`` line
  of ``oracle --text``, is roundoff: it must only stay at or below
  ``tau_rank``, as the recorded value does.
"""

from __future__ import annotations

import importlib.util
import json
import math
import re
import struct
from pathlib import Path

import pytest

from uqc.generators import TAU_CLOSURE_RANK

_spec = importlib.util.spec_from_file_location(
    "corpus_regenerate", Path(__file__).parent / "corpus" / "regenerate.py"
)
corpus = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(corpus)

#: how far, in units in the last place, a LAPACK-derived float may move
ULPS = 64

_ULP_LINE = re.compile(r'^(\s*"(?:epsilon_max|operator_norm|residual)": )(\S+?)(,?)$')
_ROUNDOFF_LINE = re.compile(r'^(\s*"residual_max": |closure residual: )(\S+?)(,?)$')


def _expected(group: str) -> dict:
    return json.loads((corpus.EXPECTED / f"{group}.json").read_text())


_EXPECTED = {group: _expected(group) for group in corpus.GROUPS}


def _ordered(x: float) -> int:
    """``x``'s place among the float64 values, in units in the last place."""
    (bits,) = struct.unpack("<q", struct.pack("<d", x))
    return bits if bits >= 0 else -(bits & 0x7FFFFFFFFFFFFFFF)


def _line_differs(want: str, got: str) -> bool:
    for pattern in (_ULP_LINE, _ROUNDOFF_LINE):
        w, g = pattern.match(want), pattern.match(got)
        if not (w and g and (w[1], w[3]) == (g[1], g[3])):
            continue
        if w[2] == "null" or g[2] == "null":
            return True
        a, b = float(w[2]), float(g[2])
        if pattern is _ULP_LINE:
            return not (math.isfinite(b) and abs(_ordered(a) - _ordered(b)) <= ULPS)
        return not (a <= TAU_CLOSURE_RANK and b <= TAU_CLOSURE_RANK)
    return True


def mismatch(want: dict, got: dict) -> str | None:
    """How ``got`` differs from the record ``want``, or None."""
    for field in ("exit", "stderr", "out_sha256"):
        if got[field] != want[field]:
            return f"{field}: {got[field]!r}, recorded {want[field]!r}"
    if len(got["stdout"]) != len(want["stdout"]):
        return f"stdout has {len(got['stdout'])} lines, recorded {len(want['stdout'])}"
    for n, (w, g) in enumerate(zip(want["stdout"], got["stdout"]), 1):
        if w != g and _line_differs(w, g):
            return f"stdout line {n}: {g!r}, recorded {w!r}"
    return None


_written = {}


@pytest.fixture()
def workdir(tmp_path_factory, monkeypatch):
    """A directory holding a group's documents, made once, as the current
    directory; the documents must be those the corpus was made from."""

    def enter(group: str) -> dict:
        if group not in _written:
            docs = corpus.documents(group)
            where = tmp_path_factory.mktemp(group)
            for name, data in docs.items():
                (where / name).write_bytes(data)
            _written[group] = where, {name: corpus.sha256(data) for name, data in docs.items()}
        where, hashes = _written[group]
        monkeypatch.chdir(where)
        return hashes

    return enter


@pytest.mark.parametrize("group", corpus.GROUPS)
def test_corpus_documents_are_the_recorded_ones(workdir, group):
    # a change in bench/workloads.make_doc, or in a committed document,
    # shows here rather than as changed outputs
    assert workdir(group) == _EXPECTED[group]["documents"]


def _commands():
    for group in corpus.GROUPS:
        names = dict.fromkeys(corpus.command_of(case["argv"]) for case in _EXPECTED[group]["cases"])
        for command in names:
            yield pytest.param(group, command, id=f"{group}:{command}")


@pytest.mark.parametrize("group, command", _commands())
def test_corpus_outputs_are_the_recorded_ones(workdir, group, command):
    hashes = workdir(group)
    assert hashes == _EXPECTED[group]["documents"], "the corpus documents changed"
    failures = []
    for want in _EXPECTED[group]["cases"]:
        if corpus.command_of(want["argv"]) != command:
            continue
        why = mismatch(want, corpus.run(want["argv"], want["env"]))
        if why:
            failures.append(f"{' '.join(want['argv'])}: {why}")
    assert not failures, f"{len(failures)} case(s) differ:\n" + "\n".join(failures[:10])


def test_the_comparison_allows_only_the_named_differences():
    base = {"exit": 0, "stderr": [""], "out_sha256": None}

    def compare(want, got):
        return mismatch({**base, "stdout": [want]}, {**base, "stdout": [got]})

    x = 0.7853981633974483
    near = x + ULPS * 1.1102230246251565e-16
    assert compare(f'  "epsilon_max": {x},', f'  "epsilon_max": {near},') is None
    assert compare(f'  "operator_norm": {x}', f'  "operator_norm": {near}') is None
    assert compare(f'    "residual": {x},', f'    "residual": {near},') is None
    assert compare(f'  "epsilon_max": {x},', f'  "epsilon_max": {near * (1 + 2e-16)},')
    assert compare(f'  "epsilon_max": {x},', '  "epsilon_max": null,')
    assert compare(f'  "epsilon_max": {x},', f'  "epsilon_max": {x}')
    assert compare(f'  "search_bound": {x},', f'  "search_bound": {near},')
    assert compare('  "residual_max": 2e-16,', '  "residual_max": 3e-17,') is None
    assert compare('closure residual: 2e-16', 'closure residual: 0') is None
    assert compare('  "residual_max": 2e-16,', f'  "residual_max": {2 * TAU_CLOSURE_RANK},')
    assert compare("epsilon_max: 0.785398", "epsilon_max: 0.785399")
    assert mismatch({**base, "stdout": ["", ""]}, {**base, "stdout": [""]})
    assert mismatch({**base, "stdout": [""]}, {**base, "exit": 2, "stdout": [""]})
