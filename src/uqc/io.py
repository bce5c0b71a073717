"""JSON document formats for the command-line front end: input and verdicts.

Input documents describe a generator set; complex entries are [re, im] pairs
so no string parsing of "a+bi" is ever needed.  Basis indices are 1-based in
every document (components, permutations, bridge endpoints) and 0-based in
the library; this module and :mod:`uqc.output` are the only places that
convert.  ``general_index`` is a position in the generator list and stays
0-based, default 0.

:func:`load_input_document` reads each generator's matrix straight from the
bytes of the file into its complex ndarray, with no nested lists of the
whole matrix: a vectorised pass checks the "[],"-skeleton, an exact
``[0.0,0.0]`` pair costs one word compare, and the other pairs, as written,
are read by ``json.loads`` a bounded group at a time, so that json's grammar
decides every number.  json parses the rest of the document apart, and
each matrix of it is then that ndarray.  A document that reader does not
take (every document the benchmark makes is taken) goes as a whole
through ``json.loads`` and :func:`parse_input_document`, which reads each
matrix one entry at a time; either way gives the same matrices, bit for
bit, and the same error messages.  :class:`GeneratorSet` then checks the
set's invariants.

A verdict document (:func:`verdict_to_document`) holds no matrix;
:func:`dump_json` writes it in json's ``indent=2`` layout.  The writer of
generator-set documents (``--out``), the other report documents and every
``--text`` renderer live in :mod:`uqc.output`.  Three of its names,
:data:`_OUTPUT_NAMES`, resolve here too and load it on first use: the
benchmark's tracer wraps them on this module.
"""

from __future__ import annotations

import json
import math
import os
import re

import numpy as np

from .errors import InvalidInput
from .generators import (
    Algebra,
    Generator,
    GeneratorSet,
    validate_set,  # not called here; bench/tracing.py wraps this name
)
from .universality import UniversalityVerdict

#: the names of :mod:`uqc.output` that resolve here on first use (PEP 562),
#: those that bench/tracing.py wraps on this module
_OUTPUT_NAMES = ("write_document", "generator_set_to_document", "repair_plan_to_document")


def __getattr__(name):
    if name in _OUTPUT_NAMES:
        from . import output

        return getattr(output, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


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
    _require(
        math.isfinite(z.real) and math.isfinite(z.imag),
        f"{where}: entries must be finite, got {value!r}",
    )
    return z


def _parse_matrix(rows, d: int, where: str) -> np.ndarray:
    """A d x d complex matrix from ``rows`` of [re, im] pairs.

    A matrix the text reader of :func:`load_input_document` has already
    read comes as its ndarray (json never yields one) and is returned as
    it is.  Rows from json are parsed one entry at a time, and the first
    malformed row or entry is named by its row and column.
    """
    if isinstance(rows, np.ndarray):
        return rows
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


def parse_input_document(obj: dict) -> tuple[GeneratorSet, dict]:
    """Parse one input document; its generator set validates itself as built.

    Returns the validated generator set and the raw ``tolerances`` override
    dict (empty when absent).  Errors always locate the offending field,
    down to the row and column of a matrix entry.  This reads the
    document's structure (an object, its required fields, each generator's
    object, label and matrix entries, the ``tolerances`` object); the rules
    of the values, from ``algebra`` and ``dimension`` to ``general_index``
    and each matrix's invariants, are :class:`Algebra`'s and
    :class:`GeneratorSet`'s, whose errors name the field as this does.
    """
    _require(isinstance(obj, dict), "input document must be a JSON object")
    for key in ("algebra", "dimension", "generators"):
        _require(key in obj, f"missing required field {key!r}")
    algebra = Algebra(obj["algebra"], obj["dimension"])

    raw_gens = obj["generators"]
    _require(isinstance(raw_gens, list), "generators: expected a non-empty list")
    generators = []
    for j, item in enumerate(raw_gens):
        _require(isinstance(item, dict), f"generators[{j}]: expected an object")
        label = item.get("label", "")
        # checked here too, so that the label is named before the matrix is read
        _require(
            isinstance(label, str), f"generators[{j}].label: expected a string"
        )
        label = label or f"g{j + 1}"
        _require("matrix" in item, f"generators[{j}] ({label}): missing matrix")
        M = _parse_matrix(item["matrix"], algebra.dim, f"generators[{j}] ({label}) matrix")
        generators.append(Generator(M, label))

    tolerances = obj.get("tolerances", {})
    _require(isinstance(tolerances, dict), "tolerances: expected an object")

    return GeneratorSet(algebra, tuple(generators), obj.get("general_index", 0)), tolerances


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
#: NULs after the text, so that a word of 8 bytes fits after every '['
_PAD = bytes(8)
#: the 8 bytes after the '[' of an exact zero pair
_ZERO_PAIR = int.from_bytes(b"0.0,0.0]", "little")
#: the pairs handed to ``json.loads`` at a time, which bounds its lists
_PAIRS = 1 << 14


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
    if not isinstance(obj, dict):
        raise _NotPlain
    gens, d = obj.get("generators"), obj.get("dimension")
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
    of a sparse matrix.  The other pairs, as written, are joined into JSON
    arrays of up to :data:`_PAIRS` pairs that ``json.loads`` reads, so that
    json's own grammar decides every number.  The text is refused unless
    the number bytes inside the pairs are all it holds, so that no number
    stands outside a pair.  Anything else, or a value that is not a finite
    float64, raises :class:`_NotPlain`.
    """
    n = d * d
    if len(text) - len(_PAD) < 6 * n + 2 * d + 1:
        raise _NotPlain
    structure = text.translate(None, _NUMBER_BYTES)
    if structure.translate(None, _WHITESPACE) != _pairs_skeleton(d) + _PAD:
        raise _NotPlain
    u = np.frombuffer(text, dtype=np.uint8)
    # the '['s are the matrix's, then each row's followed by its d pairs';
    # the ']'s each row's d pairs' followed by the row's, then the matrix's
    opens = np.flatnonzero(u == 91)[1:].reshape(d, d + 1)[:, 1:].ravel()
    closes = np.flatnonzero(u == 93)[:-1].reshape(d, d + 1)[:, :-1].ravel()
    live = np.flatnonzero(_words(text)[opens + 1] != _ZERO_PAIR)
    # the number bytes not yet found inside a pair: all of them, less the 6
    # of each zero pair; each group takes away its own
    outside = len(text) - len(structure) - 6 * (n - len(live))
    values = np.zeros((n, 2))
    for g in range(0, len(live), _PAIRS):
        group = live[g : g + _PAIRS]
        pairs = b",".join([text[a:b] for a, b in zip(opens[group].tolist(), (closes[group] + 1).tolist())])
        outside -= len(pairs) - len(pairs.translate(None, _NUMBER_BYTES))
        try:
            values[group] = json.loads(b"[%b]" % pairs)
        except (ValueError, OverflowError):  # not JSON, or past the digit limit or float64
            raise _NotPlain from None
    if outside or not np.isfinite(values).all():
        raise _NotPlain
    return values.view(np.complex128).reshape(d, d)


def _words(text: bytes) -> np.ndarray:
    """The little-endian uint64 word at every offset of ``text``; a view,
    not a copy."""
    return np.ndarray((len(text) - 7,), dtype=np.dtype("<u8"), buffer=text, strides=(1,))


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


def dump_json(doc: dict, out):
    """Write ``doc``, a document without matrices (a verdict or report), to
    the text handle ``out`` in json's ``indent=2`` layout."""
    json.dump(doc, out, indent=2, allow_nan=False)


