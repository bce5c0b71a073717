import numpy as np
import pytest

from uqc import Algebra, Generator, GeneratorSet, check_universality, epsilon_bound
from uqc import io as uio
from uqc.errors import InvalidInput

from conftest import three_level_set


def _doc(three=None):
    return uio.generator_set_to_document(three or three_level_set())


def test_roundtrip():
    doc = _doc()
    gen_set, tolerances = uio.parse_input_document(doc)
    assert tolerances == {}
    assert gen_set.algebra.kind == "u"
    assert gen_set.dim == 3
    for g_in, g_out in zip(three_level_set().generators, gen_set.generators):
        assert np.array_equal(g_in.matrix, g_out.matrix)
    assert uio.generator_set_to_document(gen_set) == doc


def test_complex_entries_round_trip_exactly():
    A = np.array([[0.25j, 1.5 - 2.75j], [-1.5 - 2.75j, -0.125j]])
    s = GeneratorSet(Algebra("u", 2), (Generator(np.diag([1j, 2j]), "d"), Generator(A, "x")))
    gen_set, _ = uio.parse_input_document(uio.generator_set_to_document(s))
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


def test_verdict_document_is_one_based():
    verdict = check_universality(three_level_set())
    doc = uio.verdict_to_document(verdict, epsilon_max=epsilon_bound(three_level_set()))
    assert doc["components"] == [[1, 2], [3]]
    assert doc["permutation"] == [1, 2, 3]
    assert doc["status"] == "reducible"
    assert doc["general_direction"]["status"] == "heuristically_independent"


def test_nonfinite_residual_serializes_as_null():
    verdict = check_universality(three_level_set(), relation_bound=25)
    # bound 25 pushes the grid past the exhaustive limit, leaving +inf
    doc = uio.verdict_to_document(verdict)
    assert doc["general_direction"]["residual"] is None
    uio.dump_json(doc)  # must not emit bare Infinity


def test_tolerance_profile_mapping():
    assert uio.RunTolerances().apply_profile("strict").tau_edge == 1e-13
    assert uio.RunTolerances().apply_profile("default").tau_edge == 1e-12
    assert uio.RunTolerances().apply_profile("loose").tau_edge == 1e-9
    with pytest.raises(InvalidInput):
        uio.RunTolerances().apply_profile("sloppy")


def test_tolerance_overrides():
    tols = uio.RunTolerances().apply_overrides(
        {"tau_edge": 1e-10, "tau_rank": 1e-8, "tau_rel": 1e-7, "relation_bound": 4}
    )
    assert (tols.tau_edge, tols.tau_rank, tols.tau_rel, tols.relation_bound) == (
        1e-10,
        1e-8,
        1e-7,
        4,
    )
    with pytest.raises(InvalidInput, match="unknown key"):
        uio.RunTolerances().apply_overrides({"tau_typo": 1.0})


@pytest.mark.parametrize(
    "key, value",
    [
        ("tau_edge", -1.0),
        ("tau_edge", 2.0),
        ("tau_edge", float("nan")),
        ("tau_edge", True),
        ("tau_edge", "1e-12"),
        ("tau_rank", 0.0),
        ("tau_rank", float("inf")),
        ("tau_rel", -1e-9),
        ("relation_bound", 0),
        ("relation_bound", True),
        ("relation_bound", 10.0),
    ],
)
def test_bad_tolerance_override_names_key_and_source(key, value):
    with pytest.raises(InvalidInput, match=f"{key} \\(input file tolerances\\)"):
        uio.RunTolerances().apply_overrides({key: value})


@pytest.mark.parametrize("field", ["dimension", "general_index"])
def test_bool_integer_fields_rejected(field):
    doc = _doc()
    doc[field] = True
    with pytest.raises(InvalidInput, match=field):
        uio.parse_input_document(doc)
