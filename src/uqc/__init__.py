"""Universality of exponentiated qudit gate sets.

Decide whether a finite set of skew-Hermitian generators, one of which is a
diagonal drift with rationally independent phases, exponentiates to a
universal gate family for U(d) or SU(d).  The decision reduces to
connectivity of a coupling graph on basis indices; disconnected sets can be
repaired with elementary bridges, a two-generator universal pair can be
constructed for any d, and every verdict can be cross-checked against a
brute-force Lie-closure oracle.
"""

__version__ = "0.1.0"

from .errors import (
    DesignatedNotDiagonal,
    InvalidInput,
    NotSkewHermitian,
    NotTraceless,
    NumericalFailure,
    UqcError,
    ValidationError,
)
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
from .linalg import (
    commutator,
    from_skew_coords,
    operator_norm,
    skew_coords,
)
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
from .oracle import (
    LieClosureReport,
    closure_block_partition,
    lie_closure,
)

__all__ = [
    "__version__",
    # errors
    "UqcError",
    "InvalidInput",
    "NumericalFailure",
    "ValidationError",
    "NotSkewHermitian",
    "NotTraceless",
    "DesignatedNotDiagonal",
    # linalg
    "commutator",
    "operator_norm",
    "skew_coords",
    "from_skew_coords",
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
