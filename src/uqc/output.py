"""What ``uqc`` writes besides verdicts: ``--out`` sets, reports and ``--text``.

This module makes every ``--text`` form, each from its report document.
:mod:`uqc.cli` loads it on first use, and :mod:`uqc.io` on the first use of
one of the three names it re-exports (``io.write_document``,
``io.generator_set_to_document``, ``io.repair_plan_to_document``), so a
command that writes no ``--out`` set, no ``--text`` and no closure report,
JSON ``check``, ``check --oracle`` and ``epsilon``, does not build it.

A generator-set document (:func:`generator_set_to_document`) holds each
matrix as its complex ndarray, all of them d x d with the set's one d.
:func:`write_document` writes it in json's compact layout, each matrix as
rows of [re, im] pairs: byte for byte what
``json.dumps(separators=(",", ":"))`` gives the same document with its
arrays turned into lists.  One ``json.dumps`` formats the floats of every
pair that is not (+0.0, +0.0); the rest of each row is the text of a zero
row, built once per document.  The reports of a repair and of the closure
oracle (:func:`repair_plan_to_document`, :func:`closure_report_to_document`)
number basis indices from 1, as :mod:`uqc.io` does.
"""

from __future__ import annotations

import json

import numpy as np

from .errors import InvalidInput
from .generators import GeneratorSet
from .io import _one_based
from .universality import coupling_masks, graph_of


def generator_set_to_document(gen_set: GeneratorSet) -> dict:
    """The input-document form of ``gen_set``.

    Each ``"matrix"`` is the generator's complex ndarray itself, not a list:
    the document is meant for :func:`write_document`, which renders it as
    rows of [re, im] pairs.
    """
    return {
        "algebra": gen_set.algebra.kind,
        "dimension": gen_set.algebra.dim,
        "general_index": gen_set.general_index,
        "generators": [
            {"label": g.label, "matrix": g.matrix} for g in gen_set.generators
        ],
    }


def repair_plan_to_document(plan) -> dict:
    return {
        "bridges": [
            {"a": a + 1, "b": b + 1, "style": style.value}
            for a, b, style in plan.bridges
        ],
        "noop": len(plan.bridges) == 0,
    }


def closure_report_to_document(report, partition) -> dict:
    return {
        "dimension": report.dimension,
        "target_dimension": report.target_dimension,
        "rounds": report.rounds,
        "closure_partition": [_one_based(c) for c in partition],
    }


def write_document(doc: dict, path: str):
    """Write the generator-set document ``doc`` to the file ``path`` in
    json's compact layout, with a final newline.

    ``doc`` is laid out as :func:`generator_set_to_document` makes it, each
    ``doc["generators"][j]["matrix"]`` a d x d array with one d for the
    whole document; matrices of other shapes raise ``ValueError``.  The
    text is byte for byte ``json.dumps(doc, separators=(",", ":"),
    allow_nan=False)`` of the document with every matrix turned into rows
    of [re, im] pairs.  json renders the rest of the document in one call,
    with ``null`` in place of each matrix: a '"' inside a string is
    escaped, so with the keys :func:`generator_set_to_document` writes and
    those of a ``tolerances`` section, ``"matrix":null`` stands in that
    text only where a matrix goes.  The matrices are rendered from their
    values (:func:`_matrix_texts`) and streamed a block of rows at a time.
    Their shapes are checked and their floats formatted before the file is
    opened, so a document that json or the shape check refuses leaves the
    file as it was.  A file that cannot be opened or written to the end
    (a full disk) raises InvalidInput naming ``path``.
    """
    gens = doc["generators"]
    rest = {**doc, "generators": [{**g, "matrix": None} for g in gens]}
    pieces = json.dumps(rest, separators=(",", ":"), allow_nan=False).split('"matrix":null')
    texts = _matrix_texts([g["matrix"] for g in gens])
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(pieces[0])
            for text, after in zip(texts, pieces[1:]):
                fh.write('"matrix":')
                fh.writelines(text)
                fh.write(after)
            fh.write("\n")
    except OSError as exc:
        raise InvalidInput(f"cannot write {path}: {exc}") from exc


#: matrix entries rendered into one piece of text
_BLOCK_ENTRIES = 1 << 16


def _matrix_texts(matrices: list) -> list:
    """The compact JSON text of each d x d array of ``matrices``, all of one
    d, as rows of [re, im] pairs of floats: for each, an iterator over
    pieces of whole rows.

    The text is made before any of it is written.  The pairs that are not
    (+0.0, +0.0) are gathered from all the matrices at once, and one
    ``json.dumps`` formats their floats in document order: json raises its
    own ``ValueError`` for the first NaN or infinity.  A block of rows is
    the text of as many all-zero rows, built once per document, with the
    two floats of each such pair put in place of its zeros: a row costs
    Python work per nonzero pair only, and copies of the zero text between
    them.  The rows are rendered a block of about :data:`_BLOCK_ENTRIES`
    entries at a time, so that a large matrix costs no text of its size.
    """
    if not matrices:
        return []
    shape, *others = {np.shape(M) for M in matrices}
    if others or len(shape) != 2 or not shape[0] == shape[1] >= 1:
        raise ValueError(f"matrices of shapes {[np.shape(M) for M in matrices]} "
                         "are not all d x d with one d")
    d = shape[0]
    # the document's float words one after another: the nonzero ones, and
    # where they stand
    bits = [np.ascontiguousarray(M, dtype=np.complex128).view(np.uint64) for M in matrices]
    nonzero = [np.flatnonzero(b != 0) for b in bits]  # faster than on the words
    words = np.concatenate(list(map(np.take, bits, nonzero)))
    where = np.concatenate([n + k * 2 * d * d for k, n in enumerate(nonzero)])
    # the live pairs, and their two words, one of which may be +0.0
    pair = where >> 1
    new = np.diff(pair, prepend=-1) != 0
    live = pair[new]
    floats = np.zeros((len(live), 2), dtype=np.uint64)
    floats[np.cumsum(new) - 1, where & 1] = words
    texts = json.dumps(floats.view(np.float64).ravel().tolist(), separators=(",", ":"), allow_nan=False)
    texts = texts[1:-1].split(",")  # [""] when no pair is live
    re_text, im_text = texts[0::2], texts[1::2]
    # each live pair's matrix, row and column, and its block of rows
    step = max(1, _BLOCK_ENTRIES // (2 * d))
    n_blocks = -(-d // step)
    m, rc = np.divmod(live, d * d)
    r, c = np.divmod(rc, d)
    row = 10 * d + 2  # "[", d times "[0.0,0.0],", less a ",", "]", ","
    # the two 0.0 of each live pair's "[0.0,0.0]" in the block of zero rows
    # are replaced; the zero text kept runs from the "]" of one such pair to
    # the "[" of the next, both included
    opens = (r % step) * row + c * 10 + 1
    cuts = np.searchsorted(m * n_blocks + r // step, np.arange(len(matrices) * n_blocks + 1)).tolist()
    kept_from = (opens + len("[0.0,0.0")).tolist()
    kept_to = (opens + 1).tolist()
    zero_row = "[" + ",".join(["[0.0,0.0]"] * d) + "]"
    text = ",".join([zero_row] * min(step, d))

    def chunks(k: int):
        yield "["
        for b, lo in enumerate(range(0, d, step), k * n_blocks):
            i, j = cuts[b], cuts[b + 1]
            pieces = [","] * (4 * (j - i) + 1)  # kept, re, ",", im, kept, ...
            pieces[0::4] = map(text.__getitem__, map(
                slice, [0, *kept_from[i:j]], [*kept_to[i:j], min(step, d - lo) * row - 1]))
            pieces[1::4] = re_text[i:j]
            pieces[3::4] = im_text[i:j]
            yield ("," if lo else "") + "".join(pieces)
        yield "]"

    return [chunks(k) for k in range(len(matrices))]


_MAX_EDGE_LINES = 40


def _count(n: int, one: str, many: str) -> str:
    """``n`` with its noun, singular for 1: ``1 edge``, ``2 edges``."""
    return f"{n} {one if n == 1 else many}"


def render_graph_text(gen_set: GeneratorSet, tau_edge: float) -> str:
    """The coupling graph's edges, each with the generators that carry it.

    A generator carries an edge when its mask (:func:`coupling_masks`) keeps
    either entry of it, so the designated drift carries none.  Carriers are
    listed in generator order with max(|A_rl|, |A_lr|); edges past the first
    ``_MAX_EDGE_LINES`` are only counted.
    """
    masks = coupling_masks(gen_set, tau_edge)
    edges = sorted(graph_of(masks).edges)
    lines = [
        f"coupling graph: {_count(gen_set.dim, 'vertex', 'vertices')}, "
        f"{_count(len(edges), 'edge', 'edges')}"
    ]
    for r, l in edges[:_MAX_EDGE_LINES]:
        sources = ", ".join(
            f"{gen.label}(|{max(abs(gen.matrix[r, l]), abs(gen.matrix[l, r])):.3g}|)"
            for gen, kept in zip(gen_set.generators, masks)
            if kept[r, l] or kept[l, r]
        )
        lines.append(f"  {r + 1} -- {l + 1}   via {sources}")
    more = len(edges) - _MAX_EDGE_LINES
    if more > 0:
        lines.append(f"  ... ({_count(more, 'more edge', 'more edges')})")
    return "\n".join(lines)


def _braces(partition) -> str:
    """A partition of 1-based indices as ``{1,2} {3}``."""
    return " ".join("{" + ",".join(map(str, c)) + "}" for c in partition)


def render_verdict_text(doc: dict, graph_text: str | None = None) -> str:
    lines = [f"status: {doc['status']}", f"components: {_braces(doc['components'])}"]
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


def render_epsilon_text(doc: dict) -> str:
    lines = [f"epsilon_max (set): {doc['epsilon_max']:.6g}"]
    for entry in doc["generators"]:
        if entry["operator_norm"] == 0.0:
            lines.append(f"  {entry['label']}: zero generator, unconstrained")
        elif entry["epsilon_max"] is None:
            lines.append(f"  {entry['label']}: epsilon_max beyond float64, unconstrained")
        else:
            lines.append(
                f"  {entry['label']}: epsilon_max {entry['epsilon_max']:.6g}, "
                f"|exp(0.99 eps X) - I| = {entry['distance_at_0.99']:.6f} < sqrt(2)"
            )
    return "\n".join(lines)


def render_closure_text(doc: dict) -> str:
    return (
        f"closure dimension: {doc['dimension']} of {doc['target_dimension']}\n"
        f"rounds: {doc['rounds']}\n"
        f"closure partition: {_braces(doc['closure_partition'])}"
    )


def render_construct_text(doc: dict) -> str:
    return (
        f"wrote {doc['out']}: {doc['algebra']}({doc['dimension']}), "
        f"{doc['generators']} generator(s)"
    )
