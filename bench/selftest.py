"""Self-tests of the benchmark: python3 bench/selftest.py (or pytest on this file).

They check the benchmark, not uqc: deterministic documents whose planted
truth matches their couplings, failure and wrong-verdict accounting on
deliberately corrupted answers, the self-time arithmetic of the spans, and
that every count repeats exactly across two runs of one seed.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
from tracing import Span, Tracer, covered, layer_metrics, self_times  # noqa: E402
from workloads import WORKLOADS, components_of, make_doc  # noqa: E402


def test_documents_are_deterministic_and_match_their_truth():
    for workload in WORKLOADS.values():
        for index in range(4):
            doc = make_doc(workload, 7, index)
            assert doc.text == make_doc(workload, 7, index).text
            parsed = json.loads(doc.text)
            assert parsed["planted"] == doc.truth
            assert components_of(parsed) == doc.truth["blocks"], (workload.name, index)
        # another seed changes the contents but not the block's sizes
        first = [make_doc(workload, 7, i) for i in range(len(workload.block))]
        other = [make_doc(workload, 8, i) for i in range(len(workload.block))]
        assert [d.text for d in first] != [d.text for d in other]
        assert sorted(d.truth["dimension"] for d in first) == sorted(
            d.truth["dimension"] for d in other)


def _expected_output(truth: dict, status: str) -> dict:
    blocks = truth["blocks"]
    return {
        "status": status,
        "components": blocks,
        "block_sizes": [len(b) for b in blocks],
        "permutation": [v for b in blocks for v in b],
        "oracle": {"agrees": True},
    }


def test_moved_component_counts_as_failed():
    workload = WORKLOADS["oracle"]
    doc = next(
        d for d in (make_doc(workload, 3, i) for i in range(len(workload.block)))
        if len(d.truth["blocks"]) > 1
    )
    good = _expected_output(doc.truth, "reducible")
    bad = json.loads(json.dumps(good))
    moved = bad["components"][1].pop()
    bad["components"][0] = sorted(bad["components"][0] + [moved])
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for i, out in enumerate((good, bad)):
            (work / f"doc{i}.stdout").write_text(json.dumps(out))
        docs = [doc, doc]
        failures, _ = run.verify_all(workload, docs, [0, 0], work)
    assert [f["doc"] for f in failures] == [1]


def test_false_dependent_counts_as_wrong_verdict():
    workload = WORKLOADS["check_scan"]
    docs = [make_doc(workload, 5, i) for i in range(3 * len(workload.block))]
    prime = next(d for d in docs if d.truth["family"] == "sqrtprime")
    random = next(d for d in docs if d.truth["family"] == "random")
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        (work / "doc0.stdout").write_text(json.dumps(_expected_output(prime.truth, "universal")))
        (work / "doc1.stdout").write_text(
            json.dumps(_expected_output(prime.truth, "conditionally_universal")))
        (work / "doc2.stdout").write_text(
            json.dumps(_expected_output(random.truth, "conditionally_universal")))
        failures, wrong = run.verify_all(workload, [prime, prime, random], [0, 0, 0], work)
    assert failures == []
    assert wrong == [False, True, None]
    assert run.verdict_rate(wrong) == (0.5, 2)


def test_self_time_arithmetic():
    assert covered([(1, 3), (2, 5), (8, 12)], 0, 10) == 6
    assert covered([], 0, 10) == 0
    spans = [
        Span("cli.main", 0.0, 10.0, None, 0),
        Span("io.parse_input_document", 1.0, 6.0, 0, 0),
        Span("generators.validate_set", 2.0, 3.0, 1, 0),
        Span("generators.validate_set", 2.5, 4.0, 1, 0),  # overlaps its sibling
        Span("io.dump", 7.0, 9.0, 0, 0),
        Span("io.dump", 7.5, 8.0, 4, 0),  # nested dump counts once
    ]
    assert self_times(spans) == [3.0, 3.0, 1.0, 1.5, 1.5, 0.5]
    tracer = Tracer(spans=spans)
    metrics = layer_metrics(tracer)
    assert metrics["io.parse_ms"] == 3000.0
    assert metrics["generators.validate_ms"] == 2500.0
    assert metrics["io.dump_ms"] == 2000.0
    assert metrics["trace.unattributed_frac"] == 0.3


def _counts(metrics: dict) -> dict:
    return {k: m["value"] for k, m in metrics.items()
            if m["unit"] in ("count", "B") or k == "oracle.accept_ratio"}


def test_counts_repeat_exactly_for_a_seed():
    for workload in WORKLOADS.values():
        n = {"check_large": 2, "check_scan": 4, "oracle": 4, "repair": 2}[workload.name]
        first = run.run_workload(workload.name, 9, 0, True, n_docs=n)
        second = run.run_workload(workload.name, 9, 0, True, n_docs=n)
        assert first["failed"] == 0, first["failures"]
        assert _counts(first["metrics"]) == _counts(second["metrics"]), workload.name
    workload = "check_scan"
    first = run.run_workload(workload, 9, 0, False, n_docs=6)
    second = run.run_workload(workload, 9, 0, False, n_docs=6)
    for key in ("wrong_verdict_frac", "wrong_verdict_base"):
        assert first["report"][key] == second["report"][key]
    assert first["report"]["wrong_verdict_base"][0] > 0


if __name__ == "__main__":
    tests = [(name, fn) for name, fn in sorted(globals().items()) if name.startswith("test_")]
    failed = 0
    for name, fn in tests:
        try:
            fn()
            print(f"PASS {name}")
        except Exception as exc:  # report every test, then exit nonzero
            failed += 1
            print(f"FAIL {name}: {type(exc).__name__}: {exc}")
    sys.exit(1 if failed else 0)
