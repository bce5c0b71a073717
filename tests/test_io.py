import json
from io import StringIO

import numpy as np
import pytest

from uqc import (
    Algebra,
    BridgeStyle,
    Generator,
    GeneratorSet,
    check_universality,
    epsilon_bound,
    make_general_direction,
    minimal_pair,
    repair,
)
from uqc import io as uio
from uqc import output as uout
from uqc.cli import main
from uqc.errors import InvalidInput

from conftest import (
    json_document,
    pairs_reference,
    parse_matrix_reference,
    random_instance,
    three_level_set,
    time_limit,
    two_qubit_set,
)


def _doc(three=None):
    return json_document(uio.generator_set_to_document(three or three_level_set()))


def test_roundtrip():
    doc = _doc()
    gen_set, tolerances = uio.parse_input_document(doc)
    assert tolerances == {}
    assert gen_set.algebra.kind == "u"
    assert gen_set.dim == 3
    for g_in, g_out in zip(three_level_set().generators, gen_set.generators):
        assert np.array_equal(g_in.matrix, g_out.matrix)
    assert json_document(uio.generator_set_to_document(gen_set)) == doc


def test_complex_entries_round_trip_exactly():
    A = np.array([[0.25j, 1.5 - 2.75j], [-1.5 - 2.75j, -0.125j]])
    s = GeneratorSet(Algebra("u", 2), (Generator(np.diag([1j, 2j]), "d"), Generator(A, "x")))
    gen_set, _ = uio.parse_input_document(json_document(uio.generator_set_to_document(s)))
    assert np.array_equal(gen_set.generators[1].matrix, A)


def test_missing_field():
    doc = _doc()
    del doc["algebra"]
    with pytest.raises(InvalidInput, match="algebra"):
        uio.parse_input_document(doc)


def test_bad_algebra():
    doc = _doc()
    doc["algebra"] = "so"
    with pytest.raises(InvalidInput, match="'u' or 'su'"):
        uio.parse_input_document(doc)


def test_short_row_locates_generator_and_row():
    doc = _doc()
    doc["generators"][1]["matrix"][1] = [[0.0, 0.0], [0.0, 0.0]]
    with pytest.raises(InvalidInput, match=r"generators\[1\] \(rot12\) matrix row 2"):
        uio.parse_input_document(doc)


def test_bad_entry_locates_position():
    doc = _doc()
    doc["generators"][0]["matrix"][0][2] = "1+2j"
    with pytest.raises(InvalidInput, match="row 1 column 3"):
        uio.parse_input_document(doc)


def test_entry_must_be_pair():
    doc = _doc()
    doc["generators"][0]["matrix"][0][0] = [1.0, 2.0, 3.0]
    with pytest.raises(InvalidInput, match=r"\[re, im\]"):
        uio.parse_input_document(doc)


def test_bad_general_index():
    doc = _doc()
    doc["general_index"] = 5
    with pytest.raises(InvalidInput, match="general_index"):
        uio.parse_input_document(doc)


def test_validation_failures_surface():
    doc = _doc()
    doc["generators"][1]["matrix"][0][1] = [0.0, 1.0]  # break skew symmetry
    with pytest.raises(InvalidInput):
        uio.parse_input_document(doc)


def _scanned_three_level_set() -> GeneratorSet:
    # three_level_set with its sqrt-prime drift scaled by 3/2: a drift that
    # is not recognised as constructed, so the scan runs
    s = three_level_set()
    drift = Generator(1.5 * s.generators[0].matrix, "drift")
    return GeneratorSet(s.algebra, (drift,) + s.generators[1:])


def test_verdict_document_is_one_based():
    s = _scanned_three_level_set()
    doc = uio.verdict_to_document(check_universality(s), epsilon_max=epsilon_bound(s))
    assert doc["components"] == [[1, 2], [3]]
    assert doc["permutation"] == [1, 2, 3]
    assert doc["status"] == "reducible"
    assert doc["general_direction"]["status"] == "heuristically_independent"


def test_nonfinite_residual_serializes_as_null():
    # a heuristically independent verdict has no relation, and residual +inf
    verdict = check_universality(_scanned_three_level_set())
    assert verdict.general_direction.status.value == "heuristically_independent"
    doc = uio.verdict_to_document(verdict)
    assert doc["general_direction"]["residual"] is None
    uio.dump_json(doc, StringIO())  # must not emit bare Infinity


@pytest.mark.parametrize("field", ["dimension", "general_index"])
def test_bool_integer_fields_rejected(field):
    doc = _doc()
    doc[field] = True
    with pytest.raises(InvalidInput, match=field):
        uio.parse_input_document(doc)


# ---------------------------------------------------------------------------
# the vectorised matrix codec against its per-entry reference

_EXTREMES = [-0.0, 0.0, 5e-324, -5e-324, 1e308, -1e308, 0.1, 1e16, 1e-7, 2**53 + 1, -(2**63) + 1, 7]


def _random_rows(rng, d: int, kind: str) -> list:
    """d x d rows of [re, im] pairs made of plain Python ints and floats."""
    if kind == "int":
        return rng.integers(-9, 10, (d, d, 2)).tolist()
    if kind == "float":
        return rng.standard_normal((d, d, 2)).tolist()
    if kind == "mixed":
        ints = rng.integers(-9, 10, (d, d, 2)).tolist()
        floats = rng.standard_normal((d, d, 2)).tolist()
        pick = rng.random((d, d, 2)) < 0.5
        return [
            [[ints[i][k][p] if pick[i, k, p] else floats[i][k][p] for p in range(2)]
             for k in range(d)]
            for i in range(d)
        ]
    picks = rng.integers(0, len(_EXTREMES), (d, d, 2))
    return [[[_EXTREMES[p] for p in pair] for pair in row] for row in picks]


def _bits(M):
    return np.ascontiguousarray(M).view(np.uint64)


@pytest.mark.parametrize("kind", ["int", "float", "mixed", "extreme"])
@pytest.mark.parametrize("seed", range(5))
def test_vectorised_parse_matches_reference(kind, seed):
    rng = np.random.default_rng([seed, 17])
    for d in (1, 2, 3, int(rng.integers(4, 40))):
        rows = _random_rows(rng, d, kind)
        M = uio._parse_matrix(rows, d, "m")
        R = parse_matrix_reference(rows, d, "m")
        assert M.shape == (d, d) and M.dtype == np.complex128
        assert np.array_equal(M, R)
        assert np.array_equal(_bits(M), _bits(R))  # -0.0 keeps its sign


_ROW = [[0.0, 1.0], [2.0, 3.0], [4.0, 5.0]]


@pytest.mark.parametrize(
    "rows",
    [
        {"rows": 3},
        "[[0, 1]]",
        [_ROW, _ROW],
        [_ROW, _ROW, _ROW, _ROW],
        [_ROW, _ROW[:2], _ROW],
        [_ROW, _ROW, _ROW + [[6.0, 7.0]]],
        [_ROW, tuple(_ROW), _ROW],
        [_ROW, _ROW, [[0.0, 1.0], [2.0, 3.0, 4.0], [4.0, 5.0]]],
        [_ROW, [[0.0, 1.0], "1+2j", [4.0, 5.0]], _ROW],
        [_ROW, [[0.0, 1.0], {"re": 1, "im": 2}, [4.0, 5.0]], _ROW],
        [_ROW, [[0.0, 1.0], [[1.0, 2.0], 3.0], [4.0, 5.0]], _ROW],
        [_ROW, [[0.0, 1.0], [None, 2.0], [4.0, 5.0]], _ROW],
        [_ROW, [[0.0, 1.0], [1.0, "2"], [4.0, 5.0]], _ROW],
        [_ROW, [[0.0, 1.0], [1j, 0.0], [4.0, 5.0]], _ROW],
        [_ROW, [[0.0, 1.0], 2.0, [4.0, 5.0]], _ROW],
        [_ROW, _ROW, [[0.0, 1.0], [2.0, 3.0], [4.0]]],
        # json's true and false are not numbers, alone or among numbers
        [[[True, False]] * 3] * 3,
        [[[0, 0], [True, False], [1, 0.5]], _ROW, _ROW],
    ],
)
def test_malformed_matrix_message_matches_reference(rows):
    with pytest.raises(InvalidInput) as want:
        parse_matrix_reference(rows, 3, "m")
    with pytest.raises(InvalidInput) as got:
        uio._parse_matrix(rows, 3, "m")
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize(
    "rows",
    [
        [[[2**64, 0.5], [0, 0]], [[0, 0], [1.5, -(2**64)]]],
        [[[10**300, -(10**300)], [1, 0]], [[0, 1], [0.25, -0.25]]],
        [[(0.0, 1.0), (2.0, 3.0)], [(4.0, 5.0), (6.0, 7.0)]],
        [[[2**70, 0], [0.5, 0]], [[0, 0], [0, -(2**70)]]],
    ],
)
def test_entries_outside_the_fast_path_still_parse(rows):
    # tuple pairs, and integers beyond uint64 that np.array keeps as objects
    assert np.array_equal(
        uio._parse_matrix(rows, 2, "m"), parse_matrix_reference(rows, 2, "m")
    )


@pytest.mark.parametrize(
    "bad, message",
    [
        ([float("nan"), 0.0], "entries must be finite, got [nan, 0.0]"),
        ([0.0, float("-inf")], "entries must be finite, got [0.0, -inf]"),
        ([10**400, 0], "entry is outside the float64 range"),
        ([0.5, -(10**400)], "entry is outside the float64 range"),
    ],
)
def test_nonfinite_and_huge_entries_are_located(bad, message):
    rows = [[[0.0, 0.0] for _ in range(3)] for _ in range(3)]
    rows[1][2] = bad
    with pytest.raises(InvalidInput) as exc:
        uio._parse_matrix(rows, 3, "m")
    assert str(exc.value) == f"m row 2 column 3: {message}"


_FUZZ_VALUES = [
    "x", None, {}, {"re": 1.0, "im": 0.0}, 1.5, [], [1.0], [1.0, 2.0, 3.0],
    [[1.0, 2.0], 3.0], [1.0, "2"], [None, 0.0], [True, [0]], [1j, 0.0],
    [float("nan"), 0.0], [0.0, float("inf")], [10**400, 0],
]


def test_fuzzed_matrices_give_located_errors():
    rng = np.random.default_rng(2024)
    base = _doc()
    for _ in range(400):
        doc = json.loads(json.dumps(base))
        j = int(rng.integers(0, 2))
        label = doc["generators"][j]["label"]
        rows = doc["generators"][j]["matrix"]
        i, k = (int(v) for v in rng.integers(0, 3, 2))
        bad = _FUZZ_VALUES[int(rng.integers(0, len(_FUZZ_VALUES)))]
        mutation = int(rng.integers(0, 5))
        if mutation == 0:
            rows[i][k] = bad
            where = f"row {i + 1} column {k + 1}: "
        elif mutation == 1:
            rows[i] = rows[i][: int(rng.integers(0, 3))] if rng.random() < 0.5 else rows[i] + [[0.0, 0.0]]
            where = f"row {i + 1}: expected 3 entries"
        elif mutation == 2:
            del rows[i]
            where = ": expected 3 rows, got 2"
        elif mutation == 3:
            rows[i] = [bad] if isinstance(bad, list) else bad
            where = f"row {i + 1}: expected "
        else:
            doc["generators"][j]["matrix"] = [bad] if isinstance(bad, list) else bad
            where = ": matrix must be a list of rows" if not isinstance(bad, list) else ": expected 3 rows"
        with pytest.raises(InvalidInput) as exc:
            uio.parse_input_document(doc)
        assert str(exc.value).startswith(f"generators[{j}] ({label}) matrix"), exc.value
        assert where in str(exc.value), (where, exc.value)


def _reference_json(doc) -> str:
    """The text ``write_document`` must write for ``doc``: json's compact
    layout of the document with every matrix listified, and a newline."""
    return json.dumps(doc, separators=(",", ":"), allow_nan=False, default=pairs_reference) + "\n"


def _written(doc, tmp_path) -> str:
    path = tmp_path / "written.json"
    uio.write_document(doc, str(path))
    return path.read_bytes().decode("utf-8")


#: labels whose JSON text holds quotes, backslashes, escapes and the text
#: that stands in for a matrix or opens one
_ODD_LABELS = [
    'x "matrix":null y', '"matrix":[[[0,0]]]', 'k"matrix', "back\\slash\\", "tab\tnew\nline",
    "phase θ → \U0001d70b", "ключ", '"matrix":null',
]


def _diagonal_only() -> GeneratorSet:
    return GeneratorSet(Algebra("u", 6), (make_general_direction(Algebra("u", 6)),))


def _generator_set_documents():
    rng = np.random.default_rng(5)
    yield uio.generator_set_to_document(three_level_set())
    yield {**uio.generator_set_to_document(two_qubit_set(full=True)), "tolerances": {"tau_edge": 1e-10}}
    for d, m, kind in ((2, 2, "u"), (5, 3, "su"), (9, 4, "u")):
        yield uio.generator_set_to_document(random_instance(rng, d, m, kind))
    for gen_set in (three_level_set(), _diagonal_only()):
        for style in BridgeStyle:
            yield uio.generator_set_to_document(repair(gen_set, style=style).resulting_set)
    odd = {**uio.generator_set_to_document(three_level_set()), "tolerances": {"relation_bound": 10**400}}
    for g, kind, label in zip(odd["generators"], ("extreme", "mixed"), _ODD_LABELS):
        g["matrix"] = np.array(_random_rows(rng, 3, kind), dtype=float).view(complex)[..., 0]
        g["label"] = label
    yield odd
    # no live pair anywhere: json formats no float, and every block is zero text
    yield uio.generator_set_to_document(
        GeneratorSet(Algebra("u", 2), (Generator(np.zeros((2, 2)), "drift"),)))
    # the only nonzero words are -0.0, in either half of a pair or in both
    signed = uio.generator_set_to_document(three_level_set())
    for g in signed["generators"]:
        g["matrix"] = np.zeros((3, 3), dtype=complex)
    signed["generators"][0]["matrix"][0, 1] = complex(-0.0, 0.0)
    signed["generators"][1]["matrix"][[0, 2], [2, 1]] = [complex(0.0, -0.0), complex(-0.0, -0.0)]
    yield signed


def _verdict_documents():
    for gen_set in (three_level_set(), _diagonal_only()):
        for style in BridgeStyle:
            plan = repair(gen_set, style=style)
            yield uio.verdict_to_document(
                check_universality(plan.resulting_set),
                epsilon_max=epsilon_bound(plan.resulting_set),
                repair=uio.repair_plan_to_document(plan),
            )
    s = _scanned_three_level_set()
    yield uio.verdict_to_document(check_universality(s), epsilon_max=epsilon_bound(s))


def test_dump_json_is_byte_identical_to_json(tmp_path):
    # verdicts keep json's indent=2 layout; generator sets are written in
    # json's compact layout
    for doc in _verdict_documents():
        buf = StringIO()
        uio.dump_json(doc, buf)
        assert buf.getvalue() == json.dumps(doc, indent=2, allow_nan=False)
    for doc in _generator_set_documents():
        assert _written(doc, tmp_path) == _reference_json(doc)


_SPECIAL_FLOATS = np.array(
    [0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308, 1e16, 1e-5, 2.0**53 + 2, 0.1, -2.5]
)
_DTYPES = (np.int64, np.float32, np.float64, np.complex64, np.complex128)


def _random_array(rng, d: int) -> np.ndarray:
    """A d x d array of a random dtype and memory layout, made of special
    floats, normal noise, repeated values and rows of +0.0 and of -0.0."""
    dtype = _DTYPES[int(rng.integers(len(_DTYPES)))]
    if dtype is np.int64:
        M = rng.integers(-9, 10, (d, d))
    else:
        parts = _SPECIAL_FLOATS[rng.integers(0, len(_SPECIAL_FLOATS), (2, d, d))]
        parts = np.where(rng.random((2, d, d)) < 0.3, rng.standard_normal((2, d, d)), parts)
        parts = parts.clip(-np.finfo(dtype).max, np.finfo(dtype).max)  # float32: 3.4e38
        M = np.empty((d, d), dtype=dtype)
        if M.dtype.kind == "c":
            M.real, M.imag = parts
        else:
            M[...] = parts[0]
    M[rng.random(d) < 0.4] = 0
    M[rng.random(d) < 0.15] = -0.0
    if M.dtype.kind == "c":
        M.imag[rng.random(d) < 0.15] = -0.0
    if rng.random() < 0.07:
        bad = rng.integers(0, d, (int(rng.integers(1, 4)), 2))
        if M.dtype.kind == "i":
            M = M.astype(float)
        M[bad[:, 0], bad[:, 1]] = rng.choice([np.nan, np.inf, -np.inf], len(bad))
        if M.dtype.kind == "c" and rng.random() < 0.5:
            M.imag[bad[0, 0], bad[0, 1]] = np.nan
    layout = int(rng.integers(4))
    if layout == 1:
        return M.T
    if layout == 2:
        return np.asfortranarray(M)
    if layout == 3:
        return M[::-1, ::-1]
    return M


@pytest.mark.parametrize("seed", range(10))
def test_dump_json_renders_arrays_like_json(seed, tmp_path, monkeypatch):
    # write_document against json.dumps of the document with every array
    # listified, with the rows of a matrix looked up in blocks of any size
    rng = np.random.default_rng([seed, 29])
    for d in (1, 2, 3, int(rng.integers(4, 25))):
        # the writer module's constant: io only hands write_document on
        monkeypatch.setattr(uout, "_BLOCK_ENTRIES", int(rng.choice([1, 2, 7, 64, 1 << 16])))
        doc = {
            "dimension": d,
            "generators": [
                {"label": f"g{j}", "matrix": _random_array(rng, d)} for j in range(4)
            ],
        }
        try:
            want = _reference_json(doc)
        except ValueError as exc:
            with pytest.raises(ValueError) as got:
                _written(doc, tmp_path)
            assert str(got.value) == str(exc)
            continue
        assert _written(doc, tmp_path) == want


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_dump_json_rejects_nonfinite_matrix_entries_like_json(bad, tmp_path):
    doc = uio.generator_set_to_document(three_level_set())
    doc["generators"][1]["matrix"][2, 1] = complex(0.0, bad)
    with pytest.raises(ValueError) as want:
        _reference_json(doc)
    with pytest.raises(ValueError) as got:
        _written(doc, tmp_path)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("j", [0, 1])
def test_a_refused_document_leaves_the_file_as_it_was(j, tmp_path):
    # every matrix is checked before the file is opened, and so truncated
    path = tmp_path / "set.json"
    before = b'{"kept": true}\n'
    path.write_bytes(before)
    doc = uio.generator_set_to_document(minimal_pair(Algebra("u", 4)))
    doc["generators"][j]["matrix"] = doc["generators"][j]["matrix"].copy()
    doc["generators"][j]["matrix"][3, 2] = complex(np.nan, 0.0)
    with pytest.raises(ValueError) as want:
        _reference_json(doc)
    with pytest.raises(ValueError) as got:
        uio.write_document(doc, str(path))
    assert str(got.value) == str(want.value)
    assert path.read_bytes() == before
    # matrices of two shapes, which json would write: every matrix of a
    # document is d x d with one d
    doc["generators"][j]["matrix"] = np.eye(5, dtype=complex)
    with pytest.raises(ValueError, match="not all d x d with one d"):
        uio.write_document(doc, str(path))
    assert path.read_bytes() == before


def _extreme_set() -> GeneratorSet:
    """u(3) with entries -0.0, 5e-324 and +-1e308, and a drift that is not
    the first generator."""
    drift = np.diag([1e308j, -5e-324j, complex(-0.0, 2.5)])
    coupling = np.full((3, 3), complex(-0.0, -0.0))
    coupling[0, 1], coupling[1, 0] = complex(1e308, 5e-324), complex(-1e308, 5e-324)
    coupling[1, 2], coupling[2, 1] = complex(-5e-324, -1e308), complex(5e-324, -1e308)
    return GeneratorSet(
        Algebra("u", 3), (Generator(coupling, "c"), Generator(drift, "d")), general_index=1
    )


def _round_trip_sets():
    rng = np.random.default_rng(41)
    for d in range(1, 13):
        for kind in ("u", "su"):
            gen_set = random_instance(rng, d, int(rng.integers(1, 4)), kind)
            gens = gen_set.generators
            labels = [_ODD_LABELS[int(k)] for k in rng.integers(0, len(_ODD_LABELS), len(gens))]
            gens = tuple(Generator(g.matrix, label) for g, label in zip(gens[1:] + gens[:1], labels))
            yield GeneratorSet(gen_set.algebra, gens, general_index=len(gens) - 1)
    for gen_set in (three_level_set(), _diagonal_only(), random_instance(rng, 9, 3, "su", p=0.1)):
        for style in BridgeStyle:
            yield repair(gen_set, style=style).resulting_set
    yield _extreme_set()


def test_written_documents_read_back_bit_for_bit(tmp_path, monkeypatch):
    # what write_document writes is read by the text reader, never through
    # json's nested lists, and gives back the same set to the last bit
    parse_matrix = uio._parse_matrix

    def read_from_text(rows, d, where):
        assert isinstance(rows, np.ndarray), f"{where} took the list path"
        return parse_matrix(rows, d, where)

    monkeypatch.setattr(uio, "_parse_matrix", read_from_text)
    tolerances = {"tau_edge": 1e-10, "relation_bound": 10**400}
    path = str(tmp_path / "set.json")
    for n, gen_set in enumerate(_round_trip_sets()):
        doc = uio.generator_set_to_document(gen_set)
        if n % 2:
            doc["tolerances"] = tolerances
        uio.write_document(doc, path)
        got, got_tolerances = uio.load_input_document(path)
        assert got_tolerances == (tolerances if n % 2 else {})
        assert got.algebra == gen_set.algebra
        assert got.general_index == gen_set.general_index
        assert [g.label for g in got.generators] == [g.label for g in gen_set.generators]
        for g_in, g_out in zip(gen_set.generators, got.generators):
            assert _bits(g_out.matrix).tobytes() == _bits(g_in.matrix.astype(complex)).tobytes()


# ---------------------------------------------------------------------------
# the text reader of load_input_document against json.load of the whole file


def _json_path(path: str):
    """``load_input_document`` by ``json.load`` of the whole file and
    :func:`uqc.io.parse_input_document`: the reference for the text reader."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except (ValueError, RecursionError) as exc:
        raise InvalidInput(f"{path} is not valid JSON: {exc}") from exc
    return uio.parse_input_document(obj)


def _outcome(load, path: str):
    """What ``load(path)`` gives, down to the bits of every matrix."""
    try:
        gen_set, tolerances = load(path)
    except InvalidInput as exc:
        return "error", str(exc)
    matrices = [(g.label, g.matrix.dtype, g.matrix.shape, g.matrix.tobytes()) for g in gen_set.generators]
    return "ok", gen_set.algebra, gen_set.general_index, tolerances, matrices


_ZERO_TOKENS = ["0", "-0", "0.0", "-0.0", "0e5", "-0E-3", "0.0e+00", "-0.000"]
_NUMBER_TOKENS = [
    "12", "-7", "1E+05", "2.5e-3", "-1.2345678901234567e-300", "0.30000000000000004",
    "1.7976931348623157e308", "5e-324", "9007199254740993", "-9223372036854775809",
    "18446744073709551616", "123456789012345678901234567890", "1e22", "0.1e1",
    "0.000000000000000000000000000000000001",  # 38 bytes
]
_BAD_TOKENS = [
    "1e400", "-1e400", "NaN", "Infinity", "-Infinity", "true", "false", "null", '"1"',
    "+1", "01", "-01", "00", ".5", "5.", "-.5", "1.e5", "1e", "-", "--1", "1.2.3", "1e5e5",
    "1e+", "0x10", "1_0", "- 1", "1 2", "1. 5", "1 .5", "1e 5", "1\t2", "1\n2", "[1]", "{}",
    "1" + "0" * 4299,  # 4300 digits: json reads it, float64 does not hold it
    "1" + "0" * 4300,  # past the integer digit limit
]


def _placeholder(k: int) -> str:
    return f"@token{k}@"


def _render(value, rng=None) -> str:
    """Compact JSON text of ``value``, with random whitespace between tokens
    if ``rng`` is given; a tuple of (key, value) pairs is an object that may
    repeat a key."""

    def ws():
        if rng is None:
            return ""
        return "".join(rng.choice(list(" \t\n\r"), size=int(rng.integers(0, 3))))

    if isinstance(value, dict):
        value = tuple(value.items())
    if isinstance(value, tuple):
        items = (f"{ws()}{json.dumps(k)}{ws()}:{ws()}{_render(v, rng)}{ws()}" for k, v in value)
        return "{" + ",".join(items) + "}"
    if isinstance(value, list):
        return "[" + ",".join(ws() + _render(v, rng) + ws() for v in value) + "]"
    return json.dumps(value)


def _layouts(doc, tokens: list, rng):
    """The texts of ``doc`` in json's compact and indent=2 layouts and with
    random whitespace, each placeholder string replaced by its raw token."""
    texts = [
        json.dumps(doc, separators=(",", ":")),
        json.dumps(doc, indent=2),
        _render(doc, rng),
    ]
    for k, token in enumerate(tokens):
        texts = [text.replace(json.dumps(_placeholder(k)), token) for text in texts]
    return texts


def _token_documents(rng):
    """Seeded documents whose matrices hold odd number tokens: signed zeros
    where the matrix is zero, integers and exponents in pairs that keep it
    skew-Hermitian, and each bad token alone."""
    shapes = ((1, 1, "u"), (2, 2, "u"), (3, 2, "su"), (5, 3, "u"), (12, 2, "u"), (24, 3, "su"))
    plans = [("zero", shape) for shape in shapes * 2] + [("number", shape) for shape in shapes * 2]
    plans += [(bad, shapes[int(rng.integers(1, len(shapes)))]) for bad in _BAD_TOKENS]
    for plan, (d, m, kind) in plans:
        gen_set = random_instance(rng, d, m, kind, p=0.4)
        doc = json_document(uio.generator_set_to_document(gen_set))
        doc["tolerances"] = {"tau_edge": 1e-10}
        tokens = []

        def put(j, i, k, part, token):
            doc["generators"][j]["matrix"][i][k][part] = _placeholder(len(tokens))
            tokens.append(token)

        for _ in range(1 if plan not in ("zero", "number") else int(rng.integers(1, 6))):
            j, i, k = int(rng.integers(m)), *(int(v) for v in rng.integers(0, d, 2))
            part = int(rng.integers(2))
            if isinstance(doc["generators"][j]["matrix"][i][k][part], str):
                continue
            if plan == "zero" and doc["generators"][j]["matrix"][i][k][part] == 0:
                put(j, i, k, part, _ZERO_TOKENS[int(rng.integers(len(_ZERO_TOKENS)))])
            elif plan == "number" and j > 0 and i != k:
                # re(M[i, k]) = -re(M[k, i]) keeps the matrix skew-Hermitian
                token = _NUMBER_TOKENS[int(rng.integers(len(_NUMBER_TOKENS)))]
                if not isinstance(doc["generators"][j]["matrix"][k][i][0], str):
                    put(j, i, k, 0, token)
                    put(j, k, i, 0, token[1:] if token.startswith("-") else "-" + token)
            elif plan not in ("zero", "number"):
                put(j, i, k, part, plan)
        yield doc, tokens


def _shape_texts(rng):
    """Documents whose matrices, fields or keys are out of the plain shape,
    in the three layouts of :func:`_layouts`."""
    base = json_document(uio.generator_set_to_document(three_level_set()))
    rows = base["generators"][1]["matrix"]
    yield from (text for doc in _shape_documents(base, rows) for text in _layouts(doc, [], rng))
    # duplicate keys: json keeps the last one
    for first, last in ((rows, base["generators"][0]["matrix"]), ([[["x", 0]]], rows), (rows, "x")):
        doc = json.loads(json.dumps(base))
        doc["generators"][1] = (("label", "twice"), ("matrix", first), ("matrix", last))
        yield from (_render(doc), _render(doc, rng))


def _shape_documents(base, rows):
    def variant(**changes):
        """``base`` with the value at each path of keys joined by "__" set."""
        doc = json.loads(json.dumps(base))
        for path, value in changes.items():
            where = doc
            *keys, last = [int(k) if k.isdigit() else k for k in path.split("__")]
            for key in keys:
                where = where[key]
            where[last] = value
        return doc

    yield variant(generators__1__matrix=rows[:2])
    yield variant(generators__1__matrix=rows + [rows[0]])
    yield variant(generators__1__matrix__1=rows[1][:2])
    yield variant(generators__1__matrix__1=rows[1] + [[0.0, 0.0]])
    yield variant(generators__1__matrix__1__2=[0.0, 0.0, 0.0])
    yield variant(generators__1__matrix__1__2=[0.0])
    yield variant(generators__1__matrix__1__2=[])
    yield variant(generators__1__matrix__1__2=[[0.0, 0.0]])
    yield variant(generators__1__matrix__1__2=0.0)
    yield variant(generators__1__matrix=[[]])
    yield variant(generators__1__matrix=[])
    yield variant(generators__1__matrix=[rows])
    yield variant(generators__1__matrix="[[[0, 0]]]")
    yield variant(dimension=2)
    yield variant(dimension=4)
    yield variant(dimension=100000)
    yield variant(dimension=0)
    yield variant(dimension=True)
    yield variant(dimension=3.0)
    yield variant(generators__0__label='x "matrix":[[[0,0]]] y')
    yield variant(generators__0__label="phase θ → \U0001d70b", generators__1__label="ключ")
    # strings shaped like the reader's slots, without the nonce
    yield variant(generators__0__label="uqc-matrix--0")
    yield variant(generators__1__matrix="uqc-matrix--1")
    yield variant(generators__1__matrix="uqc-matrix-0-1")
    # a key that ends in "matrix", and "matrix" keys outside the generators
    yield variant(**{'generators__0__k"matrix': rows})
    yield variant(**{'k"matrix': rows})
    yield variant(planted={"matrix": rows})
    # as many "matrix" arrays as generators, but one outside them
    for outside in ({'k"matrix': rows}, {"rows": {"matrix": rows}}):
        doc = variant()
        del doc["generators"][1]["matrix"]
        doc["generators"][1].update(outside)
        yield doc
    yield variant(generators__1__rows={"matrix": rows})
    doc = json.loads(json.dumps(base))
    del doc["generators"][1]["matrix"]
    yield doc
    yield variant(generators=[])
    yield variant(generators={"matrix": rows})
    yield variant(generators__1=[rows])


def test_text_reader_matches_the_json_path(tmp_path, monkeypatch):
    rng = np.random.default_rng(2029)
    texts = []
    for doc, tokens in _token_documents(rng):
        texts += _layouts(doc, tokens, rng)
    texts += _shape_texts(rng)
    compact = json.dumps(json_document(uio.generator_set_to_document(three_level_set())), separators=(",", ":"))
    texts += [
        "\ufeff" + compact,  # a UTF-8 BOM
        compact.replace('"matrix":', '"matrix" :\n', 1),
        compact[: len(compact) // 2],
        compact + "]",
        compact.replace("]]]", "]]]]", 1),
        compact.replace(",", ", ", 5),
        # the "[],"-skeleton of a matrix kept, its numbers moved
        compact.replace("[0.0,0.0]", "[0.0,]", 1),
        compact.replace("[0.0,0.0]", "[,0.0]", 1),
        compact.replace("[0.0,0.0],[", "[0.0,]0.0,[", 1),
        compact.replace(",[0.0,0.0]", ",0.0[,0.0]", 1),
        compact.replace("[0.0,0.0]", "[0.0,0.00.0]", 1),
        compact.replace("]]]", "]]]5", 1),
        compact.replace("]]]", "]]]5 ", 1),
        compact.replace('"matrix":[', '"matrix":5[', 1),
        "[" + compact + "]",
        "",
        # not UTF-8, in a matrix and beside them
        compact.encode().replace(b"[0.0,0.0]", b"[0.0,\xff0.0]", 1),
        compact.encode().replace(b'"rot12"', b'"rot\xe912"', 1),
    ]
    read = uio._read_matrix_text
    taken = []

    def text_reader(data):
        taken.append(False)
        obj = read(data)
        taken[-1] = True
        return obj

    monkeypatch.setattr(uio, "_read_matrix_text", text_reader)
    outcomes = {"ok": 0, "error": 0}
    groups = [1, 2, 16, uio._PAIRS]
    for n, text in enumerate(texts):
        path = tmp_path / f"doc{n}.json"
        path.write_bytes(text if isinstance(text, bytes) else text.encode("utf-8"))
        path = str(path)
        # small groups cut the pairs json reads into many arrays; at 1 each pair is one
        monkeypatch.setattr(uio, "_PAIRS", int(rng.choice(groups)))
        want = _outcome(_json_path, path)
        with time_limit(10):
            assert _outcome(uio.load_input_document, path) == want, text[:300]
        outcomes[want[0]] += 1
    assert min(outcomes.values()) >= 60, outcomes
    # both ways of reading were compared, not only the json one
    assert 60 <= sum(taken) <= len(texts) - 60, (sum(taken), len(texts))


def test_plain_documents_take_the_text_reader(tmp_path, monkeypatch):
    # fails if a well-formed document goes through json's nested lists
    parse_matrix = uio._parse_matrix

    def read_from_text(rows, d, where):
        assert isinstance(rows, np.ndarray), f"{where} took the list path"
        return parse_matrix(rows, d, where)

    monkeypatch.setattr(uio, "_parse_matrix", read_from_text)
    rng = np.random.default_rng(31)
    sets = [three_level_set(), two_qubit_set(full=True), random_instance(rng, 40, 3, "u"),
            random_instance(rng, 9, 2, "su"), minimal_pair(Algebra("u", 64))]
    for k, gen_set in enumerate(sets):
        doc = {**uio.generator_set_to_document(gen_set), "tolerances": {"tau_edge": 1e-10}}
        written = tmp_path / f"written{k}.json"
        uio.write_document(doc, str(written))
        compact = tmp_path / f"compact{k}.json"
        compact.write_text(json.dumps(json_document(doc), separators=(",", ":")))
        # each matrix followed by more keys of its generator
        first = json_document(doc)
        first["generators"] = [{"matrix": g["matrix"], "label": g["label"]} for g in first["generators"]]
        matrix_first = tmp_path / f"first{k}.json"
        matrix_first.write_text(json.dumps(first, indent=k % 3 or None))
        for path in (written, compact, matrix_first):
            got, tolerances = uio.load_input_document(str(path))
            assert tolerances == {"tau_edge": 1e-10}
            for g_in, g_out in zip(gen_set.generators, got.generators):
                assert _bits(g_out.matrix).tobytes() == _bits(g_in.matrix.astype(complex)).tobytes()


#: number tokens longer than 32 bytes, and integers of 2^63 and above
_LONG_TOKENS = [
    "0.1234567890123456789012345678901",  # 33 bytes
    "-3.141592653589793238462643383279502884197169399375105820974",  # 60 bytes
    "2.71828182845904523536028747135266249775724709369995e-7",
    "9223372036854775808",  # 2^63
    "-18446744073709551617",  # -(2^64 + 1)
    "123456789012345678901234567890123456789012345678901",
    str(2**1023),
]


def test_long_number_tokens_take_the_text_reader(tmp_path, monkeypatch, capsys):
    # json's grammar reads every token of the text reader, whatever its
    # length: the matrices are json's to the last bit, and an integer past
    # float64 is an error located as json's route locates it
    rng = np.random.default_rng(63)
    doc = json_document(uio.generator_set_to_document(random_instance(rng, 8, 2, "u")))
    matrix = doc["generators"][1]["matrix"]
    for k, token in enumerate(_LONG_TOKENS):
        # re(M[i, l]) = -re(M[l, i]) keeps the matrix skew-Hermitian
        matrix[0][k + 1][0] = _placeholder(2 * k)
        matrix[k + 1][0][0] = _placeholder(2 * k + 1)
    tokens = [t for token in _LONG_TOKENS for t in (token, token[1:] if token[0] == "-" else "-" + token)]
    path = str(tmp_path / "long.json")
    parse_matrix = uio._parse_matrix

    def read_from_text(rows, d, where):
        assert isinstance(rows, np.ndarray), f"{where} took the list path"
        return parse_matrix(rows, d, where)

    for text in _layouts(doc, tokens, rng):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        want = _outcome(_json_path, path)
        assert want[0] == "ok"
        with monkeypatch.context() as m:
            m.setattr(uio, "_parse_matrix", read_from_text)
            assert _outcome(uio.load_input_document, path) == want
    tokens[-2:] = ["1" + "0" * 400, "-1" + "0" * 400]
    for text in _layouts(doc, tokens, rng):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        want = _outcome(_json_path, path)
        assert want == ("error", "generators[1] (rand1) matrix row 1 column 8: entry is outside the float64 range")
        assert _outcome(uio.load_input_document, path) == want
        assert main(["check", path]) == 2
        assert capsys.readouterr() == ("", f"error: {want[1]}\n")


def test_text_reader_leaves_a_document_holding_its_slot_to_json(tmp_path, monkeypatch):
    # a document that spells out the slot, nonce and all, of a matrix it
    # replaces by a duplicate key: json keeps the string, and so must the reader
    monkeypatch.setattr(uio.os, "urandom", lambda n: bytes(n))
    base = json.dumps(json_document(uio.generator_set_to_document(three_level_set())))
    slot = f"uqc-matrix-{bytes(16).hex()}-1"
    assert base.endswith("]]]}]}")  # rot12 is the last generator
    text = base[:-3] + f', "matrix": "{slot}"' + base[-3:]
    path = tmp_path / "slot.json"
    path.write_text(text)
    assert json.loads(text)["generators"][1]["matrix"] == slot
    with pytest.raises(InvalidInput, match=r"generators\[1\] \(rot12\) matrix: matrix must be a list"):
        uio.load_input_document(str(path))


def test_text_reader_matches_the_json_path_on_mutated_text(tmp_path, monkeypatch):
    # a few bytes inserted, deleted or overwritten anywhere in a document:
    # the same outcome as json's, never another exception and never a hang
    rng = np.random.default_rng(4242)
    bases = []
    docs = [
        json_document(uio.generator_set_to_document(random_instance(rng, d, m, kind, p=0.5)))
        for d, m, kind in ((1, 1, "u"), (2, 2, "u"), (3, 2, "su"), (4, 3, "u"))
    ]
    # every pair of every matrix the exact zero pair, which the reader
    # takes by its text alone
    docs.append({"algebra": "u", "dimension": 3, "generators": [
        {"label": label, "matrix": [[[0.0, 0.0]] * 3] * 3} for label in ("drift", "zero")]})
    for doc in docs:
        bases += [json.dumps(doc, separators=(",", ":")), json.dumps(doc, indent=2), json.dumps(doc)]
    path = str(tmp_path / "doc.json")
    # a signed zero keeps its sign bit, in a pair that is not the zero pair
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(bases[-3].replace("[0.0,0.0]", "[-0.0,0.0]", 1).replace("[0.0,0.0]]", "[0.0,-0.0]]", 1))
    M = uio.load_input_document(path)[0].generators[0].matrix
    assert np.signbit(M[0, 0].real) and np.signbit(M[0, 2].imag)
    assert np.count_nonzero(np.signbit(M.view(np.float64))) == 2
    groups = [1, 16, uio._PAIRS]
    alphabet = [*"0123456789-+.eE[],  \n\t\r\"}{:aNI", "0.0", "-0", "1e5", "[0.0,0.0]", "],[", '"matrix":',
                "0.0,0.0]", "[0.0,0.0]3", "3[0.0,0.0]", "[-0.0,0.0]", "[0.0,0.00]", "[0.0 ,0.0]"]
    for _ in range(2000):
        text = bases[int(rng.integers(len(bases)))]
        for _ in range(int(rng.integers(1, 4))):
            i, token = int(rng.integers(len(text))), alphabet[int(rng.integers(len(alphabet)))]
            cut = (0, int(rng.integers(1, 4)), len(token))[int(rng.integers(3))]
            text = text[:i] + (token if cut != 1 else "") + text[i + cut:]
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        monkeypatch.setattr(uio, "_PAIRS", int(rng.choice(groups)))
        with time_limit(10):
            assert _outcome(uio.load_input_document, path) == _outcome(_json_path, path), text


@pytest.mark.parametrize("pairs", [1, 2, 3, 7, 16, 1 << 20])
def test_text_reader_refuses_a_number_moved_next_to_a_chunk_edge(tmp_path, monkeypatch, pairs):
    # a number just after a ']' or just before a '[' keeps the skeleton
    # whole but stands outside the pair slots, and at every group size the
    # document must fail as json fails it
    monkeypatch.setattr(uio, "_PAIRS", pairs)
    rng = np.random.default_rng(pairs)
    doc = json_document(uio.generator_set_to_document(random_instance(rng, 6, 2, "u", p=0.5)))
    compact = json.dumps(doc, separators=(",", ":"))
    for count in (1, 2, 9):
        for old, new in (("],[", "]0.0,["), ("],[", "],0.0["), ("]]", "]]0"), (",[", "0,[")):
            path = str(tmp_path / "doc.json")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(compact.replace(old, new, count))
            want = _outcome(_json_path, path)
            assert want[0] == "error"
            with time_limit(10):
                assert _outcome(uio.load_input_document, path) == want


@pytest.mark.parametrize("unit", ['"matrix":[', '{"matrix":[0],'])
def test_matrix_key_scan_takes_linear_time(tmp_path, unit):
    # 4 MB of "matrix" keys and no '}': looking for the end of each span
    # up to the end of the file would take tens of seconds
    path = str(tmp_path / "keys.json")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write('{"generators":[' + unit * (4_000_000 // len(unit)))
    want = _outcome(_json_path, path)
    assert want[0] == "error"
    with time_limit(10):
        assert _outcome(uio.load_input_document, path) == want
