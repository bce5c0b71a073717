"""JSON document formats and text rendering for the command-line front end.

Input documents describe a generator set; complex entries are [re, im] pairs
so no string parsing of "a+bi" is ever needed.  Basis indices are 1-based in
every document (components, permutations, bridge endpoints) and 0-based in
the library; this module is the only place that converts.  ``general_index``
is a position in the generator list and stays 0-based, default 0.

Documents built here (``*_to_document``) hold each matrix as its complex
ndarray.  JSON text comes only from :func:`dump_json` and
:func:`write_document`, which render every 2-D array straight from its
values as rows of [re, im] pairs, byte for byte what ``json.dumps(indent=2)``
gives the same document with its arrays turned into lists.
"""

from __future__ import annotations

import cmath
import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInput
from .generators import (
    Algebra,
    Generator,
    GeneratorSet,
    RELATION_BOUND,
    TAU_RELATION,
    validate_set,
    validate_tolerance,
)
from .oracle import TAU_CLOSURE_RANK
from .universality import TAU_EDGE, CouplingGraph, UniversalityVerdict

#: UQC_TOLERANCE_PROFILE values and the edge threshold each selects
TOLERANCE_PROFILES = {
    "strict": 1e-13,
    "default": 1e-12,
    "loose": 1e-9,
}


@dataclass
class RunTolerances:
    """Effective tolerances for one CLI invocation.

    Resolution order: built-in defaults, then the UQC_TOLERANCE_PROFILE
    environment profile (edge threshold only), then the input document's
    ``tolerances`` section, then explicit flags.  Every value is checked by
    :func:`uqc.generators.validate_tolerance` as it is set, naming where it
    came from.
    """

    tau_edge: float = TAU_EDGE
    tau_rank: float = TAU_CLOSURE_RANK
    tau_rel: float = TAU_RELATION
    relation_bound: int = RELATION_BOUND

    def set(self, name: str, value, source: str) -> "RunTolerances":
        setattr(self, name, validate_tolerance(name, value, source))
        return self

    def apply_profile(self, profile: str) -> "RunTolerances":
        if profile not in TOLERANCE_PROFILES:
            raise InvalidInput(
                f"unknown tolerance profile {profile!r}; "
                f"expected one of {sorted(TOLERANCE_PROFILES)}"
            )
        return self.set(
            "tau_edge", TOLERANCE_PROFILES[profile], f"UQC_TOLERANCE_PROFILE={profile}"
        )

    def apply_overrides(self, overrides: dict) -> "RunTolerances":
        for key, value in overrides.items():
            if key not in ("tau_edge", "tau_rank", "tau_rel", "relation_bound"):
                raise InvalidInput(f"tolerances: unknown key {key!r}")
            self.set(key, value, "input file tolerances")
        return self


def _require(cond: bool, message: str):
    if not cond:
        raise InvalidInput(message)


def _parse_entry(value, where: str) -> complex:
    _require(
        isinstance(value, (list, tuple)) and len(value) == 2,
        f"{where}: expected an [re, im] pair, got {value!r}",
    )
    re, im = value
    _require(
        isinstance(re, (int, float)) and isinstance(im, (int, float)),
        f"{where}: entries must be numbers, got {value!r}",
    )
    try:
        z = complex(re, im)
    except OverflowError:
        raise InvalidInput(f"{where}: entry is outside the float64 range") from None
    _require(cmath.isfinite(z), f"{where}: entries must be finite, got {value!r}")
    return z


def _walk_matrix(rows, d: int, where: str) -> np.ndarray:
    """Entry-by-entry parse that names the first malformed row or entry."""
    _require(isinstance(rows, list), f"{where}: matrix must be a list of rows")
    _require(
        len(rows) == d, f"{where}: expected {d} rows, got {len(rows)}"
    )
    M = np.zeros((d, d), dtype=complex)
    for i, row in enumerate(rows):
        _require(isinstance(row, list), f"{where} row {i + 1}: expected a list")
        _require(
            len(row) == d,
            f"{where} row {i + 1}: expected {d} entries, got {len(row)}",
        )
        for k, value in enumerate(row):
            M[i, k] = _parse_entry(value, f"{where} row {i + 1} column {k + 1}")
    return M


def _parse_matrix(rows, d: int, where: str) -> np.ndarray:
    """A d x d complex matrix from ``rows`` of [re, im] pairs.

    A well-formed matrix is converted by one ``np.array`` call into a
    (d, d, 2) real array, which is then viewed as complex without a copy.
    Anything else (wrong shape, strings, bools only, integers beyond
    float64) goes to :func:`_walk_matrix`, which applies the same checks
    one entry at a time and names the first failing row and column.
    """
    pairs = None
    if isinstance(rows, list) and all(isinstance(row, list) for row in rows):
        try:
            pairs = np.array(rows)
        except (ValueError, TypeError):  # ragged or over-nested
            pass
    if pairs is None or pairs.shape != (d, d, 2) or pairs.dtype.kind not in "iuf":
        return _walk_matrix(rows, d, where)
    finite = np.isfinite(pairs)
    if not finite.all():
        i, k, _ = np.argwhere(~finite)[0]
        _parse_entry(rows[i][k], f"{where} row {i + 1} column {k + 1}")
    return pairs.astype(np.float64, copy=False).view(np.complex128).reshape(d, d)


def parse_input_document(obj: dict) -> tuple[GeneratorSet, dict]:
    """Parse and validate one input document.

    Returns the validated generator set and the raw ``tolerances`` override
    dict (empty when absent).  Errors always locate the offending field,
    down to the row and column of a matrix entry.
    """
    _require(isinstance(obj, dict), "input document must be a JSON object")
    for key in ("algebra", "dimension", "generators"):
        _require(key in obj, f"missing required field {key!r}")
    kind = obj["algebra"]
    _require(kind in ("u", "su"), f"algebra: expected 'u' or 'su', got {kind!r}")
    d = obj["dimension"]
    _require(
        isinstance(d, int) and not isinstance(d, bool) and d >= 1,
        f"dimension: expected a positive integer, got {d!r}",
    )
    algebra = Algebra(kind=kind, dim=d)

    raw_gens = obj["generators"]
    _require(
        isinstance(raw_gens, list) and len(raw_gens) >= 1,
        "generators: expected a non-empty list",
    )
    generators = []
    for j, item in enumerate(raw_gens):
        _require(isinstance(item, dict), f"generators[{j}]: expected an object")
        label = item.get("label", f"g{j + 1}")
        _require(
            isinstance(label, str), f"generators[{j}].label: expected a string"
        )
        _require("matrix" in item, f"generators[{j}] ({label}): missing matrix")
        M = _parse_matrix(item["matrix"], d, f"generators[{j}] ({label}) matrix")
        generators.append(Generator(matrix=M, label=label))

    general_index = obj.get("general_index", 0)
    _require(
        isinstance(general_index, int)
        and not isinstance(general_index, bool)
        and 0 <= general_index < len(generators),
        f"general_index: expected an integer in [0, {len(generators)}), "
        f"got {general_index!r}",
    )

    tolerances = obj.get("tolerances", {})
    _require(isinstance(tolerances, dict), "tolerances: expected an object")

    gen_set = GeneratorSet(
        algebra=algebra,
        generators=tuple(generators),
        general_index=general_index,
    )
    return validate_set(gen_set), tolerances


def load_input_document(path: str) -> tuple[GeneratorSet, dict]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise InvalidInput(f"cannot read {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:
        # JSONDecodeError, integers past the digit limit, nesting too deep
        raise InvalidInput(f"{path} is not valid JSON: {exc}") from exc
    return parse_input_document(obj)


def matrix_to_pairs(M) -> list:
    """json's ``default`` for documents: an ndarray as rows of [re, im] pairs
    of plain floats; anything else is not serializable, as in json."""
    if not isinstance(M, np.ndarray):
        raise TypeError(f"Object of type {type(M).__name__} is not JSON serializable")
    M = np.asarray(M, dtype=complex)
    return np.stack([M.real, M.imag], -1).tolist()


def generator_set_to_document(gen_set: GeneratorSet, tolerances: dict | None = None) -> dict:
    """The input-document form of ``gen_set``.

    Each ``"matrix"`` is the generator's complex ndarray itself, not a list:
    the document is meant for :func:`dump_json` / :func:`write_document`,
    which render it as rows of [re, im] pairs.
    """
    doc = {
        "algebra": gen_set.algebra.kind,
        "dimension": gen_set.algebra.dim,
        "general_index": gen_set.general_index,
        "generators": [
            {"label": g.label or f"g{j + 1}", "matrix": g.matrix}
            for j, g in enumerate(gen_set.generators)
        ],
    }
    if tolerances:
        doc["tolerances"] = dict(tolerances)
    return doc


def _finite_or_none(x: float | None):
    if x is None or not math.isfinite(x):
        return None
    return float(x)


def _one_based(indices) -> list:
    return [i + 1 for i in indices]


def direction_to_document(direction) -> dict:
    return {
        "status": direction.status.value,
        "relation": list(direction.relation) if direction.relation is not None else None,
        "search_bound": direction.search_bound,
        "residual": _finite_or_none(direction.residual),
    }


def verdict_to_document(
    verdict: UniversalityVerdict,
    epsilon_max: float | None = None,
    oracle: dict | None = None,
    repair: dict | None = None,
) -> dict:
    doc = {
        "status": verdict.status.value,
        "components": [_one_based(c) for c in verdict.components],
        "block_sizes": list(verdict.block_sizes),
        "permutation": _one_based(verdict.permutation),
        "general_direction": direction_to_document(verdict.general_direction),
        "epsilon_max": _finite_or_none(epsilon_max),
    }
    if verdict.degenerate_spectrum:
        doc["degenerate_spectrum"] = True
    if oracle is not None:
        doc["oracle"] = oracle
    if repair is not None:
        doc["repair"] = repair
    return doc


def repair_plan_to_document(plan) -> dict:
    return {
        "bridges": [
            {"a": a + 1, "b": b + 1, "style": style.value}
            for a, b, style in plan.bridges
        ],
        "added_generators": [
            {"label": g.label, "matrix": g.matrix}
            for g in plan.added_generators
        ],
        "noop": len(plan.bridges) == 0,
    }


def closure_report_to_document(report, partition=None) -> dict:
    doc = {
        "dimension": report.dimension,
        "target_dimension": report.target_dimension,
        "rounds": report.rounds,
        "residual_max": _finite_or_none(report.residual_max),
    }
    if partition is not None:
        doc["closure_partition"] = [_one_based(c) for c in partition]
    return doc


#: stands in for each matrix in the document skeleton that json renders
_MATRIX_SLOT = "\x00uqc matrix\x00"


def _skeleton(value, matrices: list):
    """``value`` with every non-empty 2-D ndarray swapped for the slot.

    The swapped-out arrays are appended to ``matrices`` in the order json
    meets their slots; any other ndarray is left to json's ``default``.
    """
    if isinstance(value, np.ndarray) and value.ndim == 2 and value.size:
        matrices.append(value)
        return _MATRIX_SLOT
    if isinstance(value, dict):
        return {key: _skeleton(item, matrices) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_skeleton(item, matrices) for item in value]
    return value


def _matrix_chunks(M: np.ndarray, pad: int):
    """The text ``json.dumps(indent=2, default=matrix_to_pairs)`` gives the
    2-D array ``M`` at indent ``pad``, one piece per row.

    Each distinct float, told apart by its bits so that -0.0 is not 0.0, is
    formatted once with ``float.__repr__``, as json does; the all-zero row
    is formatted once; every other row goes through one ``%s`` template.
    """
    F = np.ascontiguousarray(M, dtype=np.complex128).view(np.float64)
    finite = np.isfinite(F)
    if not finite.all():
        # json's own error for the first bad value in json's order
        json.dumps(F[~finite][0].item(), indent=2, allow_nan=False)
    bits = F.view(np.uint64)
    zero_rows = ~bits.any(axis=1)
    live = bits[~zero_rows]  # the rows that are not all +0.0
    values = np.unique(live)
    reprs = np.array([repr(x) for x in values.view(np.float64).tolist()], dtype=object)
    texts = iter(reprs[np.searchsorted(values, live)].tolist())

    i1, i2, i3 = (" " * (pad + k) for k in (2, 4, 6))
    pair = f"\n{i2}[\n{i3}%s,\n{i3}%s\n{i2}]"
    template = "[" + ",".join([pair] * (bits.shape[1] // 2)) + f"\n{i1}]"
    zero = template % (("0.0",) * bits.shape[1])
    yield "[\n" + i1
    for r, is_zero in enumerate(zero_rows.tolist()):
        if r:
            yield ",\n" + i1
        yield zero if is_zero else template % tuple(next(texts))
    yield "\n" + " " * pad + "]"


def _json_chunks(doc):
    matrices = []
    text = json.dumps(
        _skeleton(doc, matrices), indent=2, allow_nan=False, default=matrix_to_pairs
    )
    pieces = text.split(json.dumps(_MATRIX_SLOT))
    if len(pieces) != len(matrices) + 1:  # a string of the document holds the slot
        yield json.dumps(doc, indent=2, allow_nan=False, default=matrix_to_pairs)
        return
    yield pieces[0]
    for M, before, after in zip(matrices, pieces, pieces[1:]):
        line = before.rpartition("\n")[2]
        yield from _matrix_chunks(M, len(line) - len(line.lstrip(" ")))
        yield after


def dump_json(doc: dict, out):
    """Write ``json.dumps(doc, indent=2, allow_nan=False,
    default=matrix_to_pairs)`` to the text handle ``out``, byte for byte,
    piece by piece, never holding all of it.

    Document matrices are ndarrays, and this function (with
    :func:`write_document`) is the one place that turns them into text:
    json lays out the rest of the document, and each 2-D array is rendered
    here straight from its values and streamed row by row.
    """
    out.writelines(_json_chunks(doc))


def write_document(doc: dict, path: str):
    """:func:`dump_json` into the file ``path``, with a final newline."""
    try:
        fh = open(path, "w", encoding="utf-8")
    except OSError as exc:
        raise InvalidInput(f"cannot write {path}: {exc}") from exc
    with fh:
        dump_json(doc, fh)
        fh.write("\n")


# ---------------------------------------------------------------------------
# text rendering

_MAX_EDGE_LINES = 40


def render_graph_text(graph: CouplingGraph, labels: list[str]) -> str:
    lines = [f"coupling graph: {graph.dim} vertices, {len(graph.edges)} edges"]
    for n, (r, l) in enumerate(sorted(graph.edges)):
        if n == _MAX_EDGE_LINES:
            lines.append(f"  ... ({len(graph.edges) - _MAX_EDGE_LINES} more edges)")
            break
        sources = ", ".join(
            f"{labels[j]}(|{mag:.3g}|)" for j, mag in graph.edge_source[(r, l)]
        )
        lines.append(f"  {r + 1} -- {l + 1}   via {sources}")
    return "\n".join(lines)


def render_verdict_text(doc: dict, graph_text: str | None = None) -> str:
    lines = [f"status: {doc['status']}"]
    comps = " ".join("{" + ",".join(map(str, c)) + "}" for c in doc["components"])
    lines.append(f"components: {comps}")
    lines.append(f"block sizes: {', '.join(map(str, doc['block_sizes']))}")
    lines.append(f"permutation: ({', '.join(map(str, doc['permutation']))})")
    gd = doc["general_direction"]
    extra = ""
    if gd["relation"] is not None:
        extra = f", relation {gd['relation']}"
    if gd["residual"] is not None:
        extra += f", residual {gd['residual']:.3g}"
    lines.append(
        f"general direction: {gd['status']} (coefficient bound {gd['search_bound']}{extra})"
    )
    if doc.get("degenerate_spectrum"):
        lines.append("warning: designated spectrum is degenerate")
    if doc["epsilon_max"] is not None:
        lines.append(f"epsilon_max: {doc['epsilon_max']:.6g}")
    if "oracle" in doc:
        o = doc["oracle"]
        lines.append(
            f"oracle: closure dimension {o['dimension']} of {o['target_dimension']}, "
            f"agrees: {str(o['agrees']).lower()}"
        )
    if "repair" in doc:
        r = doc["repair"]
        if r["noop"]:
            lines.append("repair: already connected, no bridges added")
        else:
            bridge_list = ", ".join(f"({b['a']},{b['b']})" for b in r["bridges"])
            lines.append(f"repair: added {len(r['bridges'])} bridge(s): {bridge_list}")
    if graph_text:
        lines.append(graph_text)
    return "\n".join(lines)
