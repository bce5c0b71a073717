"""Spans around the calls into each uqc layer, and the per-layer metrics.

The traced run executes ``uqc.cli.main`` in-process.  ``Tracer.installed``
wraps the public functions of the ``src/uqc`` modules on the names their
callers resolve at call time: module attributes for calls written as
``io.load_input_document`` or ``linalg.commutator``, and the importing
module's own binding for names pulled in with ``from ... import``.  Each
span records its name, start, end, parent span and document id; spans stay
in memory until the run ends.  Functions called thousands of times per
document (``linalg.commutator``, ``linalg.operator_norm``) only accumulate
a call count and a total time, so that tracing does not swamp them.
"""

from __future__ import annotations

import contextlib
import json
import statistics
import time
from collections import defaultdict
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    doc: int
    info: dict | None = None


@dataclass
class Tracer:
    spans: list = field(default_factory=list)
    counters: dict = field(default_factory=lambda: defaultdict(lambda: [0, 0.0]))
    doc: int = -1
    _stack: list = field(default_factory=list)

    @contextlib.contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self.doc))
        self._stack.append(idx)
        try:
            yield self.spans[idx]
        finally:
            self._stack.pop()
            self.spans[idx].end = time.perf_counter()

    def wrap(self, fn, name: str, note=None):
        """``fn`` inside a span; ``note(args, result)`` fills span.info."""

        def traced(*args, **kwargs):
            with self.span(name) as s:
                result = fn(*args, **kwargs)
                if note is not None:
                    s.info = note(args, result)
                return result

        return traced

    def count(self, fn, name: str):
        counter = self.counters[name]

        def counted(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                counter[0] += 1
                counter[1] += time.perf_counter() - t0

        return counted

    @contextlib.contextmanager
    def installed(self):
        """Patch the uqc modules for the duration of the block."""
        import importlib
        import os
        import types

        # by module path: the package re-exports a function named ``repair``
        cli, io, linalg, oracle, repair, universality = (
            importlib.import_module(f"uqc.{name}")
            for name in ("cli", "io", "linalg", "oracle", "repair", "universality")
        )

        json_proxy = types.SimpleNamespace(**vars(json))
        json_proxy.load = self.wrap(json.load, "io.json_load")
        patches = [
            (io, "json", json_proxy),
            (io, "load_input_document", self.wrap(
                io.load_input_document, "io.load_input_document",
                lambda a, r: {"bytes": os.path.getsize(a[0])})),
            (io, "parse_input_document", self.wrap(
                io.parse_input_document, "io.parse_input_document",
                lambda a, r: {"entries": a[0]["dimension"] ** 2 * len(a[0]["generators"])})),
            (io, "verdict_to_document", self.wrap(io.verdict_to_document, "io.to_document")),
            (io, "generator_set_to_document", self.wrap(
                io.generator_set_to_document, "io.to_document")),
            (io, "repair_plan_to_document", self.wrap(
                io.repair_plan_to_document, "io.to_document")),
            (io, "dump_json", self.wrap(io.dump_json, "io.dump")),
            (io, "write_document", self.wrap(io.write_document, "io.dump")),
            (cli, "check_universality", self.wrap(
                cli.check_universality, "universality.check_universality",
                lambda a, r: {"components": len(r.components)})),
            (cli, "epsilon_bound", self.wrap(cli.epsilon_bound, "generators.epsilon_bound")),
            (cli, "repair", self.wrap(
                cli.repair, "repair.repair", lambda a, r: {"bridges": len(r.bridges)})),
            (cli, "lie_closure", self.wrap(
                cli.lie_closure, "oracle.lie_closure",
                lambda a, r: {"dimension": r.dimension, "rounds": r.rounds})),
            (cli, "closure_block_partition", self.wrap(
                cli.closure_block_partition, "oracle.closure_block_partition")),
            (universality, "check_general_direction", self.wrap(
                universality.check_general_direction, "generators.check_general_direction",
                lambda a, r: {"dependent": int(r.status.value == "dependent")})),
            (linalg, "commutator", self.count(linalg.commutator, "linalg.commutator")),
            (linalg, "operator_norm", self.count(linalg.operator_norm, "linalg.operator_norm")),
        ]
        for module in (io, universality, oracle):
            patches.append((module, "validate_set", self.wrap(
                module.validate_set, "generators.validate_set")))
        for module in (universality, repair):
            patches.append((module, "build_coupling_graph", self.wrap(
                module.build_coupling_graph, "universality.build_coupling_graph",
                lambda a, r: {"edges": len(r.edges),
                              "dense_entries": len(a[0].generators) * a[0].dim ** 2})))
            patches.append((module, "connected_components", self.wrap(
                module.connected_components, "universality.connected_components")))
        saved = [(module, attr, getattr(module, attr)) for module, attr, _ in patches]
        try:
            for module, attr, wrapper in patches:
                setattr(module, attr, wrapper)
            yield self
        finally:
            for module, attr, original in saved:
                setattr(module, attr, original)


def covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


def self_times(spans: list) -> list:
    """Each span's duration minus the part of it its child spans cover."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return [s.end - s.start - covered(children[i], s.start, s.end) for i, s in enumerate(spans)]


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer totals over every document the tracer saw."""
    spans = tracer.spans
    own = self_times(spans)
    ms = 1000.0

    def under(i: int, name: str) -> bool:
        p = spans[i].parent
        return p is not None and spans[p].name == name

    def outermost(i: int) -> bool:
        p = spans[i].parent
        return p is None or spans[p].name != spans[i].name

    def total(name, pick=None, what="dur"):
        out = 0.0
        for i, s in enumerate(spans):
            if s.name == name and (pick is None or pick(i)):
                out += (s.end - s.start) if what == "dur" else own[i]
        return out

    def info_sum(name, key, pick=None):
        return sum(
            s.info[key] for i, s in enumerate(spans)
            if s.name == name and s.info and (pick is None or pick(i))
        )

    def calls(name, pick=None):
        return sum(1 for i, s in enumerate(spans) if s.name == name and (pick is None or pick(i)))

    in_check = lambda i: under(i, "universality.check_universality")  # noqa: E731
    in_repair = lambda i: under(i, "repair.repair")  # noqa: E731
    commutator_calls, commutator_s = tracer.counters["linalg.commutator"]
    closure_dim = info_sum("oracle.lie_closure", "dimension")
    docs = total("cli.main")
    return {
        "io.load_ms": total("io.load_input_document") * ms,
        "io.json_load_ms": total("io.json_load") * ms,
        "io.parse_ms": total("io.parse_input_document", what="self") * ms,
        "io.entries_parsed": info_sum("io.parse_input_document", "entries"),
        "io.bytes_in": info_sum("io.load_input_document", "bytes"),
        "io.to_document_ms": total("io.to_document") * ms,
        "io.dump_ms": total("io.dump", outermost) * ms,
        "generators.validate_ms": total("generators.validate_set") * ms,
        "generators.epsilon_ms": total("generators.epsilon_bound") * ms,
        "linalg.operator_norm_calls": tracer.counters["linalg.operator_norm"][0],
        "generators.scan_ms": total("generators.check_general_direction") * ms,
        "generators.scan_calls": calls("generators.check_general_direction"),
        "generators.scan_dependent": info_sum("generators.check_general_direction", "dependent"),
        "universality.check_ms": total("universality.check_universality", what="self") * ms,
        "universality.graph_ms": total("universality.build_coupling_graph", in_check) * ms,
        "universality.components_ms": total("universality.connected_components", in_check) * ms,
        "universality.edges": info_sum("universality.build_coupling_graph", "edges", in_check),
        "universality.components": info_sum("universality.check_universality", "components"),
        "repair.repair_ms": total("repair.repair") * ms,
        "repair.bridges": info_sum("repair.repair", "bridges"),
        "repair.graph_builds": calls("universality.build_coupling_graph", in_repair),
        "repair.dense_entries_scanned": info_sum(
            "universality.build_coupling_graph", "dense_entries", in_repair),
        "oracle.closure_ms": total("oracle.lie_closure") * ms,
        "oracle.closure_dim": closure_dim,
        "oracle.closure_rounds": info_sum("oracle.lie_closure", "rounds"),
        "oracle.partition_ms": total("oracle.closure_block_partition") * ms,
        "linalg.commutator_calls": commutator_calls,
        "linalg.commutator_ms": commutator_s * ms,
        "oracle.accept_ratio": closure_dim / commutator_calls if commutator_calls else 0.0,
        "trace.unattributed_frac": total("cli.main", what="self") / docs if docs else 0.0,
    }


def parse_importtime(stderr: str) -> dict:
    """Cumulative import times (ms) from ``python -X importtime -c "import uqc.cli"``.

    ``cli.import_uqc_ms`` is the cumulative time of ``uqc.cli``, which nests
    the ``uqc`` package, less the numpy and mpmath imports inside it.
    """
    cumulative = {}
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cum, name = line[len("import time:"):].split("|")
        name = name.strip()
        if cum.strip().isdigit() and name not in cumulative:
            cumulative[name] = int(cum) / 1000.0
    numpy_ms = cumulative.get("numpy", 0.0)
    mpmath_ms = cumulative.get("mpmath", 0.0)
    uqc_ms = cumulative.get("uqc.cli", 0.0)
    return {
        "cli.import_numpy_ms": numpy_ms,
        "cli.import_mpmath_ms": mpmath_ms,
        "cli.import_uqc_ms": uqc_ms - numpy_ms - mpmath_ms,
    }


def median_of(dicts: list) -> dict:
    return {k: statistics.median(d[k] for d in dicts) for k in dicts[0]}
