"""Universality of exponentiated qudit gate sets.

Decide whether a finite set of skew-Hermitian generators, one of which is a
diagonal drift with rationally independent phases, exponentiates to a
universal gate family for U(d) or SU(d).  The decision reduces to
connectivity of a coupling graph on basis indices; disconnected sets can be
repaired with elementary bridges, a two-generator universal pair can be
constructed for any d, and every verdict can be cross-checked against a
brute-force Lie-closure oracle.

The oracle's names load :mod:`uqc.oracle` on first use, so that a process
that never runs the oracle does not build it.  ``repair`` stays an eager
import: the first import of the submodule ``uqc.repair`` binds the module
to the package's name ``repair``, and only an import of the function right
after it, as below, makes ``uqc.repair`` the function for good.
"""

__version__ = "0.1.0"

from .errors import InvalidInput, UqcError, ValidationError
from .generators import (
    Algebra,
    Generator,
    GeneratorSet,
    IndependenceStatus,
    SpectrumIndependenceVerdict,
    check_general_direction,
    epsilon_bound,
    make_general_direction,
    phases_of,
    validate_set,
)
from .linalg import commutator, operator_norm
from .universality import (
    CouplingGraph,
    UniversalityVerdict,
    VerdictStatus,
    build_coupling_graph,
    check_universality,
    connected_components,
)
from .repair import (
    BridgeStyle,
    RepairPlan,
    bridge_generator,
    minimal_pair,
    repair,
)

__all__ = [
    "__version__",
    # errors
    "UqcError",
    "InvalidInput",
    "ValidationError",
    # linalg
    "commutator",
    "operator_norm",
    # generators
    "Algebra",
    "Generator",
    "GeneratorSet",
    "IndependenceStatus",
    "SpectrumIndependenceVerdict",
    "validate_set",
    "check_general_direction",
    "make_general_direction",
    "phases_of",
    "epsilon_bound",
    # universality
    "CouplingGraph",
    "UniversalityVerdict",
    "VerdictStatus",
    "build_coupling_graph",
    "connected_components",
    "check_universality",
    # repair
    "BridgeStyle",
    "RepairPlan",
    "repair",
    "bridge_generator",
    "minimal_pair",
    # oracle
    "LieClosureReport",
    "lie_closure",
    "closure_block_partition",
]

#: names of :mod:`uqc.oracle` that resolve on first use (PEP 562)
_ORACLE_NAMES = ("LieClosureReport", "lie_closure", "closure_block_partition")


def __getattr__(name):
    if name in _ORACLE_NAMES:
        from . import oracle

        return getattr(oracle, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
