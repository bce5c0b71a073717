"""JSON document formats and text rendering for the command-line front end.

Input documents describe a generator set; complex entries are [re, im] pairs
so no string parsing of "a+bi" is ever needed.  Basis indices are 1-based in
every document (components, permutations, bridge endpoints) and 0-based in
the library; this module is the only place that converts.  ``general_index``
is a position in the generator list and stays 0-based, default 0.

:func:`load_input_document` reads each generator's matrix straight from the
bytes of the file into its complex ndarray, with no nested lists: a
vectorised pass checks the "[],"-skeleton, an exact ``[0.0,0.0]`` pair
costs one word compare, the number tokens of the other pairs are checked
and each distinct token is converted once.  json parses only the rest of the
document, in which each matrix is that ndarray.  A document that reader
does not take goes as a whole through ``json.loads`` and
:func:`parse_input_document`; either way gives the same matrices, bit for
bit, and the same error messages.  :class:`GeneratorSet` then checks the
set's invariants.

A generator-set document (:func:`generator_set_to_document`) holds each
matrix as its complex ndarray.  :func:`write_document` writes it in json's
compact layout and renders each matrix straight from its values as rows of
[re, im] pairs: byte for byte what ``json.dumps(separators=(",", ":"))``
gives the same document with its arrays turned into lists.  The other
documents (verdicts and reports) hold no matrix; :func:`dump_json` writes
them in json's ``indent=2`` layout.
"""

from __future__ import annotations

import cmath
import json
import math
import os
import re
from itertools import chain

import numpy as np

from .errors import InvalidInput
from .generators import (
    Algebra,
    Generator,
    GeneratorSet,
    validate_set,  # not called here; bench/tracing.py wraps this name
)
from .universality import UniversalityVerdict, extract_coupling_graph


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
        all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in (re, im)),
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

    A matrix the text reader of :func:`load_input_document` has already
    read comes as its ndarray (json never yields one) and is returned as
    it is.  Rows from json are converted by one ``np.array`` call into a
    (d, d, 2) real array, which is then viewed as complex without a copy.
    Anything else (wrong shape, strings, bools, integers beyond float64) goes to
    :func:`_walk_matrix`, which applies the same checks one entry at a
    time and names the first failing row and column.  ``np.array`` reads a
    bool among numbers as a number, so the types of the entries are looked
    at too.
    """
    if isinstance(rows, np.ndarray):
        return rows
    pairs = None
    if isinstance(rows, list) and all(isinstance(row, list) for row in rows):
        try:
            pairs = np.array(rows)
        except (ValueError, TypeError):  # ragged or over-nested
            pass
    if (
        pairs is None
        or pairs.shape != (d, d, 2)
        or pairs.dtype.kind not in "iuf"
        or bool in set(map(type, chain.from_iterable(chain.from_iterable(rows))))
    ):
        return _walk_matrix(rows, d, where)
    finite = np.isfinite(pairs)
    if not finite.all():
        i, k, _ = np.argwhere(~finite)[0]
        _parse_entry(rows[i][k], f"{where} row {i + 1} column {k + 1}")
    return pairs.astype(np.float64, copy=False).view(np.complex128).reshape(d, d)


def parse_input_document(obj: dict) -> tuple[GeneratorSet, dict]:
    """Parse one input document; its generator set validates itself as built.

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
        label = label or f"g{j + 1}"
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

    return GeneratorSet(algebra, tuple(generators), general_index), tolerances


def load_input_document(path: str) -> tuple[GeneratorSet, dict]:
    """Read the input document in the file ``path`` into a validated set.

    Each generator's ``"matrix"`` is read straight from the file text into
    its complex array (see :func:`_read_matrix_text`); json parses only
    what is left.  A document the text reader does not take (a repeated
    key, a number token json would not read as a finite float, a matrix of
    the wrong shape, text that is not JSON) is read as a whole by
    ``json.loads`` and :func:`parse_input_document`.  Both ways give the
    same matrices, bit for bit, and the same errors.
    """
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise InvalidInput(f"cannot read {path}: {exc}") from exc
    try:
        obj = _read_matrix_text(data)
    except _NotPlain:
        try:
            # newlines as a file read in text mode has them, which is what
            # the line and column of json's errors count
            obj = json.loads(data.decode("utf-8").replace("\r\n", "\n").replace("\r", "\n"))
        except (ValueError, RecursionError) as exc:
            # not UTF-8, JSONDecodeError, integers past the digit limit,
            # nesting too deep
            raise InvalidInput(f"{path} is not valid JSON: {exc}") from exc
    return parse_input_document(obj)


# ---------------------------------------------------------------------------
# the text reader: generator matrices straight from the bytes of the document


class _NotPlain(Exception):
    """The document holds something the text reader leaves to json."""


#: a "matrix" key and the start of its array value
_MATRIX_KEY = re.compile(rb'"matrix"[ \t\n\r]*:[ \t\n\r]*\[')
_WHITESPACE = b" \t\n\r"
#: the bytes of JSON numbers; every other byte of a matrix is whitespace or one of "[],"
_NUMBER_BYTES = b"0123456789+-.eE"
#: the longest number token read here; a float's repr has at most 24 bytes
_TOKEN_MAX = 32
#: NULs after the text, so that a window of _TOKEN_MAX bytes fits at every token
_PAD = bytes(_TOKEN_MAX)
_ZERO_KEY = int.from_bytes(b"0.0", "little")
#: the 8 bytes after the '[' of an exact zero pair
_ZERO_PAIR = int.from_bytes(b"0.0,0.0]", "little")
#: the low n bytes of a uint64, for n = 0..8
_KEY_MASKS = np.array([(1 << 8 * n) - 1 for n in range(9)], dtype=np.uint64)
#: the bytes of pairs lexed at a time; their int64 offsets take 8 times that
_CHUNK = 1 << 17


def _read_matrix_text(data: bytes) -> dict:
    """The document in ``data`` (UTF-8) with each generator's matrix read
    from its text.

    Every ``"matrix": [...]`` span is cut out and a slot string, carrying a
    nonce from ``os.urandom``, put in its place; ``json.loads`` parses the
    small remainder.  The slots must come back exactly at
    ``generators[j]["matrix"]``, one per generator and in order, and every
    span must lex as a d x d matrix of [re, im] pairs (:func:`_lex_matrix`);
    then each slot is replaced by the read matrix.  Anything else raises
    :class:`_NotPlain`.
    """
    nonce = os.urandom(16).hex()
    if nonce.encode() in data:
        raise _NotPlain
    slot = f"uqc-matrix-{nonce}-"
    pieces, spans, pos = [], [], 0
    for found in _MATRIX_KEY.finditer(data):
        # a matrix holds no string and no object: it ends before the next
        # '"' or '}', less the whitespace and comma that follow it; the '}'
        # is looked for only up to that '"', so the scan stays linear, and
        # the next key starts after the span
        start = found.end() - 1
        stop = data.find(b'"', start)
        stop = len(data) if stop < 0 else stop
        brace = data.find(b"}", start, stop)
        stop = stop if brace < 0 else brace
        while data[stop - 1] in b" \t\n\r,":
            stop -= 1
        pieces += [data[pos:start], f'"{slot}{len(spans)}"'.encode()]
        spans.append((start, stop))
        pos = stop
    pieces.append(data[pos:])
    try:
        obj = json.loads(b"".join(pieces).decode("utf-8"))
    except (ValueError, RecursionError):
        raise _NotPlain from None
    gens = obj.get("generators") if isinstance(obj, dict) else None
    d = obj.get("dimension") if isinstance(obj, dict) else None
    if not (
        isinstance(gens, list)
        and len(gens) == len(spans)
        and all(isinstance(g, dict) and g.get("matrix") == f"{slot}{j}" for j, g in enumerate(gens))
        and type(d) is int
        and d >= 1
    ):
        raise _NotPlain
    # every span is read before any field is checked, so that a document
    # that is not JSON fails as such, whatever else is wrong with it
    arrays = [_lex_matrix(b"".join((memoryview(data)[start:stop], _PAD)), d) for start, stop in spans]
    for g, M in zip(gens, arrays):
        g["matrix"] = M
    return obj


def _pairs_skeleton(d: int) -> bytes:
    """A d x d matrix of [re, im] pairs with every number taken out."""
    row = b"[" + b"[,]," * (d - 1) + b"[,]]"
    return b"[" + (row + b",") * (d - 1) + row + b"]"


def _lex_matrix(text: bytes, d: int) -> np.ndarray:
    """The d x d complex matrix whose JSON text, followed by :data:`_PAD`,
    is ``text``.

    The text must be exactly d rows of d [re, im] pairs of JSON numbers,
    with whitespace anywhere between them.  The "[],"-skeleton is checked
    by deleting the number bytes and the whitespace, after a check that
    the text is long enough for it, so that a document that declares a
    huge dimension costs nothing of that size.  By the skeleton, each pair
    holds number bytes, whitespace and one ',' from its '[' up to the first
    ']' after it.  A pair whose 8 bytes after its '[' are ``0.0,0.0]``
    reads as +0.0 at the cost of that one word compare, which is most pairs
    of a sparse matrix.  The other pairs are put one after another, in
    pieces of about :data:`_CHUNK` bytes.  Whitespace between the bytes
    of one number would join them into one token once removed, so the runs
    of number bytes in a piece as written must number two per pair; then
    its whitespace goes and :func:`_lex_pairs` reads it.  The text is
    refused unless the number bytes inside the pairs are all it holds, so
    that no number stands outside a pair.  Anything else raises
    :class:`_NotPlain`.
    """
    n = d * d
    size = len(text) - len(_PAD)
    if size < 6 * n + 2 * d + 1:
        raise _NotPlain
    skeleton = _pairs_skeleton(d)
    if text.translate(None, _NUMBER_BYTES + _WHITESPACE) != skeleton + _PAD:
        raise _NotPlain
    u = np.frombuffer(text, dtype=np.uint8)
    # the '['s are the matrix's, then each row's followed by its d pairs';
    # the ']'s each row's d pairs' followed by the row's, then the matrix's
    opens = np.flatnonzero(u == 91)[1:].reshape(d, d + 1)[:, 1:].ravel()
    closes = np.flatnonzero(u == 93)[:-1].reshape(d, d + 1)[:, :-1].ravel()
    # the number bytes of the text (by the skeleton, its other bytes are
    # "[]," and whitespace, the bytes up to b" "), and the number bytes and
    # whitespace inside the pairs
    numbers = size - len(skeleton) - int(np.count_nonzero(u[:size] <= 32))
    inside = int((closes - opens).sum()) - 2 * n
    live = np.flatnonzero(_words(text)[opens + 1] != _ZERO_PAIR)
    opens, lengths = opens[live], closes[live] - opens[live] + 1
    # the pairs put one after another: pair k is bytes ends[k] - lengths[k]
    # up to ends[k], and byte b of it is byte b + shift[k] of the text
    ends = np.cumsum(lengths)
    shift = opens - (ends - lengths)
    values = np.zeros((n, 2))
    i = 0
    while i < len(live):
        a = ends[i] - lengths[i]
        j = max(i + 1, int(np.searchsorted(ends, a + _CHUNK, side="right")))
        piece = u[np.arange(a, ends[j - 1]) + np.repeat(shift[i:j], lengths[i:j])]
        # number bytes, told apart from whitespace and "[],"
        number = (piece >= 43) & (piece != 44) & (piece != 91) & (piece != 93)
        if np.count_nonzero(number[1:] > number[:-1]) != 2 * (j - i):
            raise _NotPlain
        piece = piece.tobytes().translate(None, _WHITESPACE)
        inside -= ends[j - 1] - a - len(piece)
        values[live[i:j]] = _lex_pairs(piece + _PAD, 2 * (j - i)).reshape(-1, 2)
        i = j
    if inside != numbers:
        raise _NotPlain
    return values.view(np.complex128).reshape(d, d)


def _lex_pairs(text: bytes, n: int) -> np.ndarray:
    """The ``n`` numbers of ``text``: whole [re, im] pairs of number bytes,
    one after another, followed by :data:`_PAD`.

    Every pair slot must hold one token.  Tokens are checked for what
    ``float`` accepts and JSON does not (a leading '+', a leading zero, a
    '.' without a digit on each side); ``float`` rejects the rest.

    Tokens of up to 8 bytes are told apart by their bytes packed into a
    uint64, and each distinct one is converted once; ``0.0``, the usual
    zero, takes no conversion at all.  Integers among them go through
    ``int``, as in json, so that ``-0`` reads as +0.0.  Longer tokens (the
    17-digit reprs of nonzero floats) seldom repeat: they are gathered as
    fixed-width strings and each is read by ``float``; none of them is an
    integer zero, so ``float`` reads them as json does.  Anything else, or
    a value that is not finite, raises :class:`_NotPlain`.
    """
    u, words = np.frombuffer(text, dtype=np.uint8), _words(text)
    v = u[: len(text) - len(_PAD)]
    # the text starts with a '[' and ends with a ']', so its edges
    # alternate between the start and the end of a token
    struct = (v == 44) | (v == 91) | (v == 93)
    edges = np.flatnonzero(struct[:-1] != struct[1:]) + 1
    starts, ends = edges[0::2], edges[1::2]
    if len(starts) != n:
        raise _NotPlain
    signed = u[starts] == 45
    lead = u[starts + signed]  # the first digit of the integer part
    after = u[starts + signed + 1]
    digit = (v - 48) < 10
    if (
        ((lead == 48) & ((after - 48) < 10)).any()
        or ((v[1:-1] == 46) & ~(digit[:-2] & digit[2:])).any()
        or (b"+" in text and ((v[1:] == 43) & ((v[:-1] | 32) != 101)).any())
    ):
        raise _NotPlain
    values = np.zeros(n)
    lengths = ends - starts
    short = np.flatnonzero(lengths <= 8)
    keys = words[starts[short]] & _KEY_MASKS[lengths[short]]
    live = keys != _ZERO_KEY
    if live.any():
        distinct, inverse = np.unique(keys[live], return_inverse=True)
        tokens = [k.to_bytes(8, "little").rstrip(b"\0") for k in distinct.tolist()]
        values[short[live]] = _numbers(tokens, as_int=True)[inverse]
    far = np.flatnonzero(lengths > 8)
    if len(far):
        if lengths[far].max() > _TOKEN_MAX:
            raise _NotPlain
        tokens = _words(text, _TOKEN_MAX)[starts[far]]
        tokens.view(np.uint8).reshape(-1, _TOKEN_MAX)[np.arange(_TOKEN_MAX) >= lengths[far, None]] = 0
        values[far] = _numbers(tokens.tolist(), as_int=False)
    return values


def _words(text: bytes, width: int = 8) -> np.ndarray:
    """The ``width`` bytes at every offset of ``text``: little-endian
    uint64 words for 8, byte strings otherwise; views, not copies."""
    dtype = np.dtype("<u8") if width == 8 else np.dtype(f"S{width}")
    return np.ndarray((len(text) - width + 1,), dtype=dtype, buffer=text, strides=(1,))


def _numbers(tokens: list, as_int: bool) -> np.ndarray:
    """Each number token as a float; integer tokens through ``int`` if
    ``as_int``, as json reads them."""
    try:
        if as_int:
            floats = [float(int(t)) if t.lstrip(b"-").isdigit() else float(t) for t in tokens]
        else:
            floats = map(float, tokens)
        out = np.fromiter(floats, dtype=np.float64, count=len(tokens))
    except (ValueError, OverflowError):  # not a number, or past the digit limit or float64
        raise _NotPlain from None
    if not np.isfinite(out).all():
        raise _NotPlain
    return out


def generator_set_to_document(gen_set: GeneratorSet, tolerances: dict | None = None) -> dict:
    """The input-document form of ``gen_set``.

    Each ``"matrix"`` is the generator's complex ndarray itself, not a list:
    the document is meant for :func:`write_document`, which renders it as
    rows of [re, im] pairs.
    """
    doc = {
        "algebra": gen_set.algebra.kind,
        "dimension": gen_set.algebra.dim,
        "general_index": gen_set.general_index,
        "generators": [
            {"label": g.label, "matrix": g.matrix} for g in gen_set.generators
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


def dump_json(doc: dict, out):
    """Write ``doc``, a document without matrices (a verdict or report), to
    the text handle ``out`` in json's ``indent=2`` layout."""
    json.dump(doc, out, indent=2, allow_nan=False)


def write_document(doc: dict, path: str):
    """Write the generator-set document ``doc`` to the file ``path`` in
    json's compact layout, with a final newline.

    ``doc`` is laid out as :func:`generator_set_to_document` makes it, each
    ``doc["generators"][j]["matrix"]`` an ndarray.  The text is byte for
    byte ``json.dumps(doc, separators=(",", ":"), allow_nan=False)`` of the
    document with every matrix turned into rows of [re, im] pairs.  json
    renders the rest of the document in one call, with ``null`` in place of
    each matrix: a '"' inside a string is escaped, so with the keys
    :func:`generator_set_to_document` writes, ``"matrix":null`` stands in
    that text only where a matrix goes.  Each matrix is rendered from its
    values and streamed a block of rows at a time (:func:`_matrix_chunks`).
    """
    gens = doc["generators"]
    rest = {**doc, "generators": [{**g, "matrix": None} for g in gens]}
    pieces = json.dumps(rest, separators=(",", ":"), allow_nan=False).split('"matrix":null')
    try:
        fh = open(path, "w", encoding="utf-8")
    except OSError as exc:
        raise InvalidInput(f"cannot write {path}: {exc}") from exc
    with fh:
        fh.write(pieces[0])
        for g, after in zip(gens, pieces[1:]):
            fh.write('"matrix":')
            fh.writelines(_matrix_chunks(g["matrix"]))
            fh.write(after)
        fh.write("\n")


#: matrix entries rendered into one piece of text
_BLOCK_ENTRIES = 1 << 16


def _matrix_chunks(M: np.ndarray):
    """The compact JSON text of the 2-D array ``M`` as rows of [re, im]
    pairs of floats, in pieces of whole rows.

    Each distinct float, told apart by its bits so that -0.0 is not 0.0, is
    formatted once with ``float.__repr__``, as json does.  A block of rows
    is the text of as many all-zero rows, built once per matrix, with the
    two floats of each pair that is not (+0.0, +0.0) put in place of its
    zeros: a row costs Python work per nonzero pair only, and copies of the
    zero text between them.  The rows are rendered a block of about
    :data:`_BLOCK_ENTRIES` entries at a time, so that a large matrix costs
    no temporaries of its size.
    """
    F = np.ascontiguousarray(M, dtype=np.complex128).view(np.float64)
    finite = np.isfinite(F)
    if not finite.all():
        # json's own error for the first bad value in json's order
        json.dumps(F[~finite][0].item(), allow_nan=False)
    bits = F.view(np.uint64)
    n_rows, n_cols = bits.shape[0], bits.shape[1] // 2
    # most entries are +0.0: the distinct values are sought among the others
    values = np.unique(np.append(bits[bits != 0], np.uint64(0)))
    reprs = np.array([repr(x) for x in values.view(np.float64).tolist()], dtype=object)
    zero_row = "[" + ",".join(["[0.0,0.0]"] * n_cols) + "]"
    row = len(zero_row) + 1  # with the comma after it
    step = max(1, _BLOCK_ENTRIES // (2 * n_cols))
    zeros = ",".join([zero_row] * min(step, n_rows))
    yield "["
    for lo in range(0, n_rows, step):
        block = bits[lo:lo + step]
        r, c = np.nonzero(block[:, 0::2] | block[:, 1::2])
        at = np.searchsorted(values, block.reshape(-1, n_cols, 2)[r, c])
        # the two 0.0 of each nonzero pair's "[0.0,0.0]" in the block of zero
        # rows are replaced; the zero text kept runs from the "]" of one such
        # pair to the "[" of the next, both included
        opens = r * row + c * len("[0.0,0.0],") + 1
        kept_from = np.append(0, opens + len("[0.0,0.0")).tolist()
        kept_to = np.append(opens + 1, len(block) * row - 1).tolist()
        pieces = [","] * (4 * len(opens) + 1)  # kept, re, ",", im, kept, ...
        pieces[0::4] = map(zeros.__getitem__, map(slice, kept_from, kept_to))
        pieces[1::4] = reprs[at[:, 0]].tolist()
        pieces[3::4] = reprs[at[:, 1]].tolist()
        yield ("," if lo else "") + "".join(pieces)
    yield "]"


# ---------------------------------------------------------------------------
# text rendering

_MAX_EDGE_LINES = 40


def render_graph_text(gen_set: GeneratorSet, tau_edge: float) -> str:
    """The coupling graph's edges, each with the generators that carry it.

    A generator carries an edge when the edge rule applied to it alone keeps
    the edge; the designated drift carries none.  Carriers are listed in
    generator order with max(|A_rl|, |A_lr|); edges past the first
    ``_MAX_EDGE_LINES`` are only counted.
    """
    carriers = [
        (gen, extract_coupling_graph(gen_set.dim, [gen.matrix], tau_edge).edges)
        for j, gen in enumerate(gen_set.generators)
        if j != gen_set.general_index
    ]
    edges = sorted(frozenset().union(*(own for _, own in carriers)))
    lines = [f"coupling graph: {gen_set.dim} vertices, {len(edges)} edges"]
    for r, l in edges[:_MAX_EDGE_LINES]:
        sources = ", ".join(
            f"{gen.label}(|{max(abs(gen.matrix[r, l]), abs(gen.matrix[l, r])):.3g}|)"
            for gen, own in carriers
            if (r, l) in own
        )
        lines.append(f"  {r + 1} -- {l + 1}   via {sources}")
    if len(edges) > _MAX_EDGE_LINES:
        lines.append(f"  ... ({len(edges) - _MAX_EDGE_LINES} more edges)")
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
