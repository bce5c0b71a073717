"""The package's public names and the semantics of its records."""

import copy
import pickle
import subprocess
import sys

import numpy as np
import pytest

import uqc
from uqc import (
    Algebra,
    BridgeStyle,
    CouplingGraph,
    Generator,
    GeneratorSet,
    IndependenceStatus,
    RepairPlan,
    SpectrumIndependenceVerdict,
    UniversalityVerdict,
    build_coupling_graph,
    check_universality,
    lie_closure,
    repair,
)
from uqc import io as uio
from uqc.errors import ValidationError

from conftest import three_level_set, uqc_env


def _fresh(script: str) -> str:
    result = subprocess.run(
        [sys.executable, "-c", script], env=uqc_env(), capture_output=True, text=True, timeout=60
    )
    assert result.returncode == 0, result.stderr
    return result.stdout.strip()


def test_every_public_name_resolves_in_a_fresh_interpreter():
    # the oracle's names load uqc.oracle on first use; importing the package
    # does not load it, and every name in __all__ resolves both ways
    script = (
        "import sys, uqc\n"
        "print('uqc.oracle' in sys.modules)\n"
        "missing = [n for n in uqc.__all__ if getattr(uqc, n, None) is None]\n"
        "names = {}\n"
        "exec('from uqc import *', names)\n"
        "print(missing, sorted(set(uqc.__all__) - set(names)), 'uqc.oracle' in sys.modules)\n"
    )
    assert _fresh(script).splitlines() == ["False", "[] [] True"]


@pytest.mark.parametrize("imports", ["uqc.repair, uqc.oracle", "uqc.oracle, uqc.repair"])
def test_uqc_repair_stays_the_function_after_importing_the_submodules(imports):
    script = f"import types, uqc, {imports}\nprint(isinstance(uqc.repair, types.FunctionType))\n"
    assert _fresh(script) == "True"


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'nope'"):
        uqc.nope
    with pytest.raises(AttributeError, match="no attribute 'nope'"):
        uio.nope


def test_algebra_is_equal_and_hashable_by_value():
    a = Algebra("u", 3)
    assert a == Algebra("u", np.int64(3)) and hash(a) == hash(Algebra("u", 3))
    assert len({a, Algebra("u", 3), Algebra("su", 3), Algebra("u", 4)}) == 3
    assert a != Algebra("su", 3) and a != ("u", 3)
    assert type(a.dim) is int and a.target_dimension == 9
    assert repr(a) == "Algebra(kind='u', dim=3)"


def test_value_records_compare_by_value():
    s = three_level_set()
    first, again = check_universality(s), check_universality(s)
    assert first == again and first is not again
    assert first.general_direction == again.general_direction
    assert build_coupling_graph(s) == CouplingGraph(3, frozenset({(0, 1)}))
    direction = SpectrumIndependenceVerdict(IndependenceStatus.DEPENDENT, (1, -1), 10, 0.0)
    assert direction == SpectrumIndependenceVerdict(IndependenceStatus.DEPENDENT, (1, -1), 10, 0.0)
    assert not direction.independent
    bridges = ((0, 2, BridgeStyle.ANTISYMMETRIC),)
    assert RepairPlan(bridges, s) == RepairPlan(bridges, s)
    assert RepairPlan(bridges, s) != RepairPlan(bridges, three_level_set())


def test_sets_generators_and_closure_reports_compare_by_identity():
    s = three_level_set()
    gen = s.generators[1]
    assert gen == gen and gen != Generator(gen.matrix, gen.label)
    assert s == s and s != GeneratorSet(s.algebra, s.generators)
    report = lie_closure(s)
    assert report == report and report != lie_closure(s)
    assert len({gen, s, report}) == 3


def test_fields_cannot_be_assigned():
    s = three_level_set()
    records = [
        (Algebra("u", 3), "dim"),
        (s.generators[0], "label"),
        (s, "general_index"),
        (lie_closure(s), "dimension"),
        (check_universality(s), "status"),
        (check_universality(s).general_direction, "residual"),
        (build_coupling_graph(s), "edges"),
        (repair(s), "bridges"),
    ]
    for record, field in records:
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(record, field))
        with pytest.raises(AttributeError):
            record.extra = 1
    with pytest.raises(AttributeError):
        del s.algebra


def test_with_extra_validates_again():
    s = three_level_set()
    A = np.zeros((3, 3), dtype=complex)
    A[1, 2] = A[2, 1] = 1.0  # Hermitian, not skew-Hermitian
    with pytest.raises(ValidationError, match=r"^generator 2 \(g3\) is not skew-Hermitian$"):
        s.with_extra([Generator(A)])
    with pytest.raises(ValidationError, match="shape"):
        s.with_extra([Generator(np.zeros((2, 2)))])
    A[2, 1] = -1.0
    grown = s.with_extra([Generator(A.real)])
    assert [g.label for g in grown.generators] == ["drift", "rot12", "g3"]
    assert grown.generators[2].matrix.dtype == complex
    assert grown.generators[:2] == s.generators


def test_records_survive_copy_and_pickle():
    s = three_level_set()
    for record in (s.algebra, s, lie_closure(s), check_universality(s), repair(s)):
        assert type(copy.copy(record)) is type(record)
        again = pickle.loads(pickle.dumps(record))
        assert repr(again) == repr(record)
    again = pickle.loads(pickle.dumps(s))
    assert again.algebra == s.algebra and again.general_index == s.general_index
    assert all(np.array_equal(g.matrix, h.matrix) for g, h in zip(again.generators, s.generators))
    assert isinstance(check_universality(again), UniversalityVerdict)
