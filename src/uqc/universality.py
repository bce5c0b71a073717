"""Coupling-graph universality criterion.

Index the standard basis of C^d by graph vertices and put an edge {r, l}
wherever some non-designated generator has a nonzero (r, l) entry.  With a
valid diagonal drift, a nontrivial invariant coordinate subspace exists if
and only if this graph is disconnected, so the whole universality decision
reduces to connected components plus the drift-spectrum scan.  The graph is
its edge set and nothing more.

This module alone reads a set as its graph.  :func:`coupling_masks` gives,
in generator order, the entries the graph reads of each generator: the
designated drift's diagonal, and of every other generator the entries the
package's single edge rule, :func:`kept_entries`, keeps (an entry is an
edge when ``|A_rl| > tau_edge * max|A|``).  :func:`graph_of` turns masks
into edges.  The closure oracle seeds with the entries the masks keep,
``uqc check --text`` names the generators whose masks carry each edge, and
the oracle's block partition is :func:`graph_of` of the closure's support.
The components routine, :func:`connected_components`, is the union-find of
``linalg.components``, which ``linalg.operator_norm`` also runs on a
matrix's own support.
"""

from __future__ import annotations

from enum import Enum
from typing import NamedTuple

import numpy as np

from . import linalg
from .generators import (
    GeneratorSet,
    IndependenceStatus,
    RELATION_BOUND,
    SpectrumIndependenceVerdict,
    TAU_RELATION,
    check_general_direction,
    is_constructed_direction,
    phases_of,
    spectrum_is_degenerate,
    validate_set,  # not called here; bench/tracing.py wraps this name
    validate_tolerance,
)

#: relative entry-magnitude cutoff for graph edges
TAU_EDGE = 1e-12
#: spectrum scans are skipped (verdict downgraded) above this dimension; at
#: fixed tolerances, relation detection loses meaning for long phase vectors
SPECTRUM_SCAN_LIMIT = 32


class CouplingGraph(NamedTuple):
    """Undirected graph on 0-based basis indices: ``edges`` are (r, l) pairs, r < l."""

    dim: int
    edges: frozenset[tuple[int, int]]


class VerdictStatus(Enum):
    UNIVERSAL = "universal"
    REDUCIBLE = "reducible"
    CONDITIONALLY_UNIVERSAL = "conditionally_universal"


class UniversalityVerdict(NamedTuple):
    """Decision plus the block structure certifying it.

    ``components`` partition the 0-based indices (ordered by smallest
    member, members ascending); ``permutation`` lists old indices in the
    order that groups components contiguously, so conjugating a generator by
    the associated permutation matrix makes it block-diagonal with
    ``block_sizes``.  When reducible, every component (``components[0]``,
    the component of vertex 0, among them) spans an invariant coordinate
    subspace.  ``degenerate_spectrum`` surfaces a designated diagonal whose
    phases collide; the criterion then certifies nothing and the status is at
    most CONDITIONALLY_UNIVERSAL.
    """

    status: VerdictStatus
    components: tuple[tuple[int, ...], ...]
    permutation: tuple[int, ...]
    block_sizes: tuple[int, ...]
    general_direction: SpectrumIndependenceVerdict
    degenerate_spectrum: bool = False


def kept_entries(A: np.ndarray, tau_edge: float) -> np.ndarray:
    """The edge rule on one matrix: where ``|A_rl| > tau_edge * max|A|``."""
    mags = np.abs(A)
    return mags > tau_edge * mags.max(initial=0.0)


def coupling_masks(gen_set: GeneratorSet, tau_edge: float = TAU_EDGE) -> list[np.ndarray]:
    """The d x d boolean mask of the entries the graph reads of each
    generator, in generator order.

    The designated drift's mask is its diagonal, so that it contributes
    nothing, even through off-diagonal roundoff; every other generator's is
    :func:`kept_entries`, and an additional diagonal generator contributes
    nothing vacuously.
    """
    validate_tolerance("tau_edge", tau_edge)
    return [
        np.eye(gen_set.dim, dtype=bool) if j == gen_set.general_index
        else kept_entries(gen.matrix, tau_edge)
        for j, gen in enumerate(gen_set.generators)
    ]


def graph_of(masks) -> CouplingGraph:
    """The graph of d x d boolean ``masks``: the off-diagonal entries some
    mask keeps, symmetrised, are the undirected edges (r < l)."""
    kept = np.logical_or.reduce(masks)
    rr, ll = np.nonzero(np.triu(kept | kept.T, 1))
    return CouplingGraph(dim=len(kept), edges=frozenset(zip(rr.tolist(), ll.tolist())))


def build_coupling_graph(gen_set: GeneratorSet, tau_edge: float = TAU_EDGE) -> CouplingGraph:
    """Coupling graph of the set: :func:`graph_of` its :func:`coupling_masks`."""
    return graph_of(coupling_masks(gen_set, tau_edge))


def connected_components(graph: CouplingGraph) -> list[list[int]]:
    """Components ordered by smallest member, members ascending (union-find)."""
    return linalg.components(graph.dim, graph.edges)


def check_universality(
    gen_set: GeneratorSet,
    tau_edge: float = TAU_EDGE,
    relation_bound: int = RELATION_BOUND,
    tau_rel: float = TAU_RELATION,
) -> UniversalityVerdict:
    """Decide universality of a validated generator set (as every built set is).

    UNIVERSAL requires one connected component *and* an independent
    designated spectrum.  A drift recognised as
    :func:`~uqc.make_general_direction`'s, its phases in any order, is
    CONSTRUCTED_EXACT at every d, without a scan; any other drift is scanned
    for d <= SPECTRUM_SCAN_LIMIT and SKIPPED above.  A connected graph with a
    failed, degenerate, or skipped scan is CONDITIONALLY_UNIVERSAL; a
    disconnected graph is REDUCIBLE with the full partition and permutation.
    """
    validate_tolerance("relation_bound", relation_bound)
    validate_tolerance("tau_rel", tau_rel)
    theta = phases_of(gen_set.designated)
    degenerate = spectrum_is_degenerate(theta)

    if is_constructed_direction(theta, gen_set.algebra):
        direction = SpectrumIndependenceVerdict(
            IndependenceStatus.CONSTRUCTED_EXACT, None, 0, 0.0
        )
    elif gen_set.dim <= SPECTRUM_SCAN_LIMIT:
        direction = check_general_direction(
            theta, gen_set.algebra, relation_bound, tau_rel
        )
    else:
        direction = SpectrumIndependenceVerdict(
            IndependenceStatus.SKIPPED, None, 0, float("inf")
        )

    graph = build_coupling_graph(gen_set, tau_edge)
    components = tuple(tuple(c) for c in connected_components(graph))
    if len(components) > 1:
        status = VerdictStatus.REDUCIBLE
    elif direction.independent and not degenerate:
        status = VerdictStatus.UNIVERSAL
    else:
        status = VerdictStatus.CONDITIONALLY_UNIVERSAL

    return UniversalityVerdict(
        status=status,
        components=components,
        permutation=tuple(v for comp in components for v in comp),
        block_sizes=tuple(len(c) for c in components),
        general_direction=direction,
        degenerate_spectrum=degenerate,
    )
