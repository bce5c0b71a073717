"""Repairing disconnected sets and building minimal universal pairs.

A reducible set is fixed by appending elementary bridges Y_ab = E_ab - E_ba
(or the imaginary-symmetric i(E_ab + E_ba)) between connected components
until the coupling graph is a single component; a spanning tree of bridges,
r - 1 of them for r components, read off the component list in one pass.
The same idea gives the minimal construction: one diagonal drift plus one
nearest-neighbor chain already couples every basis index.
"""

from __future__ import annotations

from enum import Enum
from typing import NamedTuple

import numpy as np

from .errors import InvalidInput
from .generators import Algebra, Generator, GeneratorSet, make_general_direction
from .universality import (
    TAU_EDGE,
    build_coupling_graph,
    connected_components,
)


class BridgeStyle(Enum):
    ANTISYMMETRIC = "antisym"
    SYMMETRIC_IMAGINARY = "sym"


#: largest d that :func:`minimal_pair` builds (ten qubits).  ``uqc construct``
#: writes the pair's dense document to ``--out``: 21 MB at d = 1024,
#: growing as d^2; past the cap the request is refused before any work
#: starts
CONSTRUCT_DIM_LIMIT = 1024

#: most matrix entries, (generators + bridges) * d^2, of a set that
#: :func:`repair` builds.  ``uqc repair`` writes it densely to ``--out``:
#: on a diagonal-only document, whose r = d components need d - 1 bridges,
#: the entries grow as d^3.  At d = 161, just under the cap, ``uqc repair``
#: writes 42 MB in 0.44 s of child CPU with a 60 MB peak RSS (2-core Xeon
#: VM, one BLAS thread); past the cap the repair is refused before any
#: bridge is built
REPAIR_ENTRY_LIMIT = 1 << 22

#: endpoint selection rules for repair bridges, also the CLI's ``--selection``
#: choices: the smallest or (as in the paper's example) the largest index
#: inside
SELECTION_RULES = ("smallest", "paper-example")


class RepairPlan(NamedTuple):
    """The bridges ``(a, b, style)`` in the order they were appended.

    The bridge generators are the last ``len(bridges)`` generators of
    ``resulting_set``, the input set itself when no bridge is needed.
    """

    bridges: tuple[tuple[int, int, BridgeStyle], ...]
    resulting_set: GeneratorSet


def _coupling(dim: int, a, b, style: BridgeStyle) -> np.ndarray:
    """sum_k (E_{a_k b_k} - E_{b_k a_k}), or i * sum_k (E_{a_k b_k} +
    E_{b_k a_k}) in the symmetric style, over distinct off-diagonal pairs;
    ``a`` and ``b`` are scalars or arrays of one length."""
    M = np.zeros((dim, dim), dtype=complex)
    if style is BridgeStyle.ANTISYMMETRIC:
        M[a, b] = 1.0
        M[b, a] = -1.0
    else:
        M[a, b] = M[b, a] = 1j
    return M


def bridge_generator(a: int, b: int, dim: int, style: BridgeStyle) -> Generator:
    """Elementary skew-Hermitian coupling of basis indices a and b (0-based)."""
    return Generator(matrix=_coupling(dim, a, b, style), label=f"bridge({a + 1},{b + 1})")


def repair(
    gen_set: GeneratorSet,
    style: BridgeStyle | str = BridgeStyle.ANTISYMMETRIC,
    tau_edge: float = TAU_EDGE,
    selection: str = "smallest",
) -> RepairPlan:
    """Append the bridges that make the coupling graph connected.

    With components C_0, C_1, ... ordered by smallest member, bridge k joins
    ``a`` inside C_0 u ... u C_{k-1} to ``b = min C_k``: ``a = 0`` under the
    "smallest" rule, ``a = max(C_0 u ... u C_{k-1})`` under "paper-example".
    These are the bridges of the round-by-round procedure that joins the
    component of vertex 0 to the smallest index outside it, because a
    bridge's unit entries are always edges for a tau_edge in (0, 1).  On an
    already-connected set the plan is empty and the set is returned as-is.
    Raises InvalidInput, before any bridge is built, when the repaired set
    would hold more than REPAIR_ENTRY_LIMIT matrix entries.
    """
    style = BridgeStyle(style)
    if selection not in SELECTION_RULES:
        raise InvalidInput(f"unknown selection rule {selection!r}")

    comps = connected_components(build_coupling_graph(gen_set, tau_edge))
    n_gens = len(gen_set.generators) + len(comps) - 1
    if n_gens * gen_set.dim**2 > REPAIR_ENTRY_LIMIT:
        raise InvalidInput(
            f"the repaired set is capped at {REPAIR_ENTRY_LIMIT} matrix entries "
            f"(got {n_gens} generators at d = {gen_set.dim}); its document grows "
            "as generators x d^2"
        )
    bridges: list[tuple[int, int, BridgeStyle]] = []
    inside_max = comps[0][-1]
    for comp in comps[1:]:
        a = 0 if selection == "smallest" else inside_max
        bridges.append((a, comp[0], style))
        inside_max = max(inside_max, comp[-1])
    added = tuple(bridge_generator(a, b, gen_set.dim, style) for a, b, _ in bridges)
    return RepairPlan(
        bridges=tuple(bridges),
        resulting_set=gen_set.with_extra(added) if added else gen_set,
    )


def minimal_pair(
    algebra: Algebra,
    style: BridgeStyle | str = BridgeStyle.ANTISYMMETRIC,
) -> GeneratorSet:
    """Two-generator universal set: constructed drift + coupling chain.

    The chain sum_j (E_{j,j+1} - E_{j+1,j}), or i * sum_j (E_{j,j+1} +
    E_{j+1,j}) in the symmetric style, couples 1-2-...-d into a single
    path, so the coupling graph is connected (as it is for any nonzero
    weights on the same links) and both styles give the same graph;
    together with the constructed drift the set is universal.  For d = 1
    the drift alone suffices.  Raises InvalidInput for d >
    CONSTRUCT_DIM_LIMIT before any work is done.
    """
    if algebra.dim > CONSTRUCT_DIM_LIMIT:
        raise InvalidInput(
            f"the minimal construction is capped at d = {CONSTRUCT_DIM_LIMIT} "
            f"(got d = {algebra.dim}); its document grows as d^2"
        )
    style = BridgeStyle(style)
    d = algebra.dim
    gens = [make_general_direction(algebra)]
    if d > 1:
        j = np.arange(d - 1)
        gens.append(Generator(_coupling(d, j, j + 1, style), "chain"))
    return GeneratorSet(algebra, tuple(gens))
