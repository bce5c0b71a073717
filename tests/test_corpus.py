"""Every output of the committed corpus, byte for byte but for the
differences that :func:`mismatch` allows (see tests/corpus/regenerate.py).
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "corpus_regenerate", Path(__file__).parent / "corpus" / "regenerate.py"
)
corpus = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(corpus)

ULPS = corpus.ULPS
mismatch = corpus.mismatch


def _expected(group: str) -> dict:
    return json.loads((corpus.EXPECTED / f"{group}.json").read_text())


_EXPECTED = {group: _expected(group) for group in corpus.GROUPS}


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


@pytest.mark.parametrize("group", corpus.GROUPS)
def test_corpus_records_every_case_in_order(group):
    # a case added to cases() but never recorded would go untested
    recorded = [case["argv"] for case in _EXPECTED[group]["cases"]]
    assert recorded == corpus.cases(group, _EXPECTED[group]["documents"])


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
        why = mismatch(want, corpus.run(want["argv"]))
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
    # a line outside the ulp rule, an old closure residual among them, is
    # compared byte for byte
    assert compare(f'  "residual_max": {x},', f'  "residual_max": {near},')
    assert compare('  "residual_max": 2e-16,', '  "residual_max": 3e-17,')
    assert compare('closure residual: 2e-16', 'closure residual: 0')
    assert compare("epsilon_max: 0.785398", "epsilon_max: 0.785399")
    assert mismatch({**base, "stdout": ["", ""]}, {**base, "stdout": [""]})
    assert mismatch({**base, "stdout": [""]}, {**base, "exit": 2, "stdout": [""]})
