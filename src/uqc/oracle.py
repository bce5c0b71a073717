"""Brute-force cross-checks for the graph criterion.

``lie_closure`` grows an orthonormal basis of the real Lie algebra generated
by the set via iterated commutators, which gives an independent dimension
count to compare against the graph verdict.  Elements are held as d*d real
coordinates in an orthonormal Hermitian (generalised Gell-Mann) basis of
u(d) (``linalg.skew_coords``), so skew-Hermiticity holds by construction and
Frobenius norms, hence every tolerance, keep their meaning.  Commutators are
formed, projected off the basis and admitted a block of at most ``_BLOCK``
at a time, which bounds the working memory whatever d is.
``coordinate_subspace_scan`` enumerates invariant coordinate subspaces
directly, a second independent oracle for the connectivity reduction.  Both
read the coupling structure through the one edge rule of
:mod:`uqc.universality` (``|A_rl| > tau_edge * max|A|``, via
``extract_coupling_graph``): the closure partition feeds it the closure
basis, the scan every generator.  Both are desk-scale tools with hard caps:
the closure at d = CLOSURE_DIM_LIMIT (u(12) takes about 0.25 s, u(20) about
11 s), the scan at d = SCAN_DIM_LIMIT.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import InvalidInput, NumericalFailure
# validate_set is not called here; bench/tracing.py wraps the name in this module
from .generators import GeneratorSet, validate_set, validate_tolerance
from .universality import TAU_EDGE, connected_components, extract_coupling_graph

#: relative acceptance threshold for rank-increasing commutators
TAU_CLOSURE_RANK = 1e-10
#: relative closure-defect tolerance certified in reports
TAU_CLOSE = 1e-9
#: growth-phase acceptance floor: a direction accepted from a leftover of
#: size L carries out-of-span roundoff of order eps/L, so chasing leftovers
#: below ~sqrt(eps) during growth turns roundoff into runaway fake rank;
#: marginal content between tau_rank and this floor is picked up by the
#: certification loop against the converged basis instead
TAU_GROWTH_FLOOR = 1e-6
#: maximum certification/regrowth cycles before giving up
_MAX_CERTIFY_CYCLES = 8
#: commutators per block, in growth and in certification alike; it bounds
#: the closure's working memory at a few blocks of d x d matrices
_BLOCK = 64
#: hard cap for lie_closure: the work grows about as d^8 (every pair of up
#: to d^2 basis elements, each projected off that basis); u(20) takes about
#: 11 s on a 2-core Xeon VM with one BLAS thread, u(24) would take ~45 s
CLOSURE_DIM_LIMIT = 20
#: hard cap for coordinate_subspace_scan (2^d subsets)
SCAN_DIM_LIMIT = 20


@dataclass(frozen=True, eq=False)
class LieClosureReport:
    """Orthonormal basis of the generated real Lie algebra.

    ``basis`` holds orthonormal rows of d*d real coordinates in the
    Hermitian basis of :func:`uqc.linalg.skew_coords`; ``basis_matrices``
    are the same elements in matrix form.  ``rounds`` counts frontier
    generations: the elements added in one generation are commuted against
    the basis in the next, over growth and every certification regrowth.
    ``residual_max`` is the largest relative component outside the final
    basis over all commutators of basis pairs; small values certify that the
    basis is actually closed under the bracket.
    """

    dim: int
    algebra_kind: str
    basis: np.ndarray
    basis_matrices: tuple[np.ndarray, ...]
    dimension: int
    target_dimension: int
    rounds: int
    residual_max: float


class _Basis:
    """Orthonormal closure basis, in coordinates and as matrices.

    Every element is a unit coordinate vector (see ``linalg.skew_coords``),
    so skew-Hermiticity holds by construction; in su mode the identity
    direction is projected off each candidate and each new element.
    """

    def __init__(self, d: int, traceless: bool):
        self.d = d
        self.traceless = traceless
        self.n = 0
        self.coords = np.zeros((d * d, d * d))
        self.mats = np.zeros((d * d, d, d), dtype=complex)

    def _pin(self, C: np.ndarray) -> np.ndarray:
        if self.traceless:
            C[..., : self.d] -= C[..., : self.d].mean(axis=-1, keepdims=True)
        return C

    def project(self, C: np.ndarray) -> np.ndarray:
        """Rows of C minus their components along the basis, in two passes."""
        B = self.coords[: self.n]
        for _ in range(2):
            C = C - (C @ B.T) @ B
        return C

    def commutators(self, lo: int, hi: int):
        """Coordinates of [M_i, M_j] for lo <= i < hi and j < i, a block at a time.

        Pair (i, j) is number i(i-1)/2 + j - lo(lo-1)/2 in the order yielded.
        Each M_i is commuted against up to ``_BLOCK`` of the M_j at once, and
        the pieces are gathered into blocks of up to ``_BLOCK`` rows.
        """
        pieces, rows = [], 0
        for i in range(lo, hi):
            for j in range(0, i, _BLOCK):
                piece = linalg.commutator(self.mats[i], self.mats[j : min(i, j + _BLOCK)])
                if rows + len(piece) > _BLOCK:
                    yield linalg.skew_coords(np.concatenate(pieces))
                    pieces, rows = [], 0
                pieces.append(piece)
                rows += len(piece)
        if pieces:
            yield linalg.skew_coords(np.concatenate(pieces))

    def screen(self, lo: int, hi: int) -> np.ndarray:
        """Leftover off the basis of every pair of :meth:`commutators`.

        Each leftover is relative to ``max(1, |C|)``, the scale at which a
        commutator of unit elements is produced.
        """
        ratios = [np.zeros(0)]
        for C in self.commutators(lo, hi):
            C = self._pin(C)
            scale = np.maximum(1.0, np.linalg.norm(C, axis=1))
            ratios.append(np.linalg.norm(self.project(C), axis=1) / scale)
        return np.concatenate(ratios)

    def admit_pairs(self, lo: int, ratio: np.ndarray, tau: float) -> None:
        """Admit the screened pairs whose leftover exceeds ``tau``, largest first.

        The commutators of those pairs are computed again, a block at a
        time, and judged off the basis as it grows (see :meth:`admit`).  A
        direction normalized from a large leftover carries the least
        roundoff; pairs with smaller leftovers that held the same direction
        then fall below ``tau`` and are dropped instead of being normalized.
        """
        live = np.flatnonzero(ratio > tau)
        p = live[np.argsort(-ratio[live], kind="stable")] + lo * (lo - 1) // 2
        i = ((1 + np.sqrt(8 * p + 1)) // 2).astype(int)
        j = p - i * (i - 1) // 2
        for b in range(0, len(p), _BLOCK):
            I, J = i[b : b + _BLOCK], j[b : b + _BLOCK]
            self.admit(linalg.skew_coords(linalg.commutator(self.mats[I], self.mats[J])), tau, 1.0)

    def admit(self, C: np.ndarray, tau: float, scale: float | None) -> None:
        """Add the rows of C that reach outside the span, largest leftover first.

        A row joins when its leftover off the basis exceeds ``tau`` times
        ``max(norm, scale)``.  ``scale`` is the magnitude at which the
        candidate was produced: a commutator of two unit-Frobenius basis
        elements has scale 1, so a near-zero result there is roundoff, not a
        tiny new direction.  Seeds pass scale=None and are judged relative to
        themselves.  Each accepted direction is projected off the remaining
        rows, and rows that fall below their bound are dropped at once.
        """
        C = self._pin(C)
        nrm = np.linalg.norm(C, axis=1)
        ref = nrm if scale is None else np.maximum(nrm, scale)
        bound = tau * ref
        W = self.project(C)
        left = np.linalg.norm(W, axis=1)
        live = np.flatnonzero(left > bound)
        while live.size:
            pick = np.argmax(left[live] / ref[live])
            a, live = live[pick], np.delete(live, pick)
            u = self._append(W[a] / left[a])
            if live.size:
                W[live] -= np.outer(W[live] @ u, u)
                left[live] = np.linalg.norm(W[live], axis=1)
                live = live[left[live] > bound[live]]

    def _append(self, u: np.ndarray) -> np.ndarray:
        if self.n == len(self.coords):
            raise NumericalFailure(
                f"closure dimension exceeded d^2 = {self.n}; "
                "tau_rank is likely too small for this data"
            )
        # normalizing a small leftover amplifies its roundoff content, so
        # re-pin the unit vector and re-orthogonalize it before it joins
        # the basis; this keeps impurities from compounding
        u = self.project(self._pin(u))
        u /= np.linalg.norm(u)
        self.coords[self.n] = u
        self.mats[self.n] = linalg.from_skew_coords(u, self.d)
        self.n += 1
        return u

    def grow(self, lo: int, tau: float) -> int:
        """Commute each frontier generation against the basis; return the count.

        The frontier starts as the elements from ``lo`` on; the elements a
        generation adds are the next one.
        """
        generations = 0
        while lo < self.n:
            generations += 1
            hi = self.n
            self.admit_pairs(lo, self.screen(lo, hi), tau)
            lo = hi
        return generations


def lie_closure(gen_set: GeneratorSet, tau_rank: float = TAU_CLOSURE_RANK) -> LieClosureReport:
    """Lie_R<generators> of a validated set, by iterated commutators with rank tracking.

    Seeds the basis with the generators, then grows it a frontier
    generation at a time: the elements added in one generation are commuted
    against the whole basis, a block of commutators at a time, and
    rank-increasing results join the basis.  Growth accepts off-span
    components above ``max(tau_rank, TAU_GROWTH_FLOOR)`` (see the floor's
    note on roundoff amplification); once growth stops, a certification
    pass measures every basis-pair commutator against the converged basis;
    if any is still above ``tau_rank``, the pass is repeated adopting those
    at ``tau_rank`` and the basis regrows, so the reported rank decisions
    are made at ``tau_rank`` while the growth path stays numerically stable.

    Raises InvalidInput for d > CLOSURE_DIM_LIMIT, and NumericalFailure if
    the dimension would exceed d^2, the mathematical maximum; that signals a
    misconfigured tolerance, not a property of the input.
    """
    validate_tolerance("tau_rank", tau_rank)
    d = gen_set.dim
    if d > CLOSURE_DIM_LIMIT:
        raise InvalidInput(
            f"the Lie-closure oracle is capped at d = {CLOSURE_DIM_LIMIT} "
            f"(got d = {d}); use the coupling-graph check instead"
        )
    tau_growth = max(tau_rank, TAU_GROWTH_FLOOR)

    basis = _Basis(d, gen_set.algebra.kind == "su")
    basis.admit(
        linalg.skew_coords(np.array([g.matrix for g in gen_set.generators])),
        tau_rank,
        scale=None,
    )
    rounds = basis.grow(0, tau_growth)

    # certification loop: measure every basis-pair commutator against the
    # converged basis; anything still above tau_rank is genuine marginal
    # rank the growth floor deferred, so adopt it and regrow
    for _ in range(_MAX_CERTIFY_CYCLES):
        n = basis.n
        ratio = basis.screen(0, n)
        residual_max = float(ratio.max(initial=0.0))
        if residual_max <= tau_rank:
            break
        basis.admit_pairs(0, ratio, tau_rank)
        rounds += basis.grow(n, tau_growth)
    else:
        raise NumericalFailure(
            "closure certification did not stabilize; rank decisions are "
            "ambiguous at this tau_rank"
        )

    n = basis.n
    return LieClosureReport(
        dim=d,
        algebra_kind=gen_set.algebra.kind,
        basis=basis.coords[:n],
        basis_matrices=tuple(basis.mats[:n]),
        dimension=n,
        target_dimension=gen_set.algebra.target_dimension,
        rounds=rounds,
        residual_max=residual_max,
    )


def closure_block_partition(
    report: LieClosureReport, tau_edge: float = TAU_EDGE
) -> tuple[tuple[int, ...], ...]:
    """Block partition induced by the closure basis itself.

    Treats every basis matrix as an edge source (diagonal ones contribute
    nothing) and returns the connected components, ordered like the
    generator-level partition for direct comparison.
    """
    graph = extract_coupling_graph(report.dim, enumerate(report.basis_matrices), tau_edge)
    return tuple(tuple(c) for c in connected_components(graph))


def coordinate_subspace_scan(
    gen_set: GeneratorSet, tau_edge: float = TAU_EDGE
) -> list[tuple[int, ...]]:
    """Enumerate all nontrivial proper invariant coordinate subspaces.

    A 0-based index set S is invariant when no generator carries weight
    between S and its complement.  Every edge {r, l} of the coupling graph
    of all generators (designated included) gives the two directed
    constraints "l in S implies r in S" and its reverse.  Checks all
    2^d - 2 candidate subsets with a vectorized cut test, independently of
    any connectivity reasoning; the result must coincide with the unions of
    connected components.
    """
    d = gen_set.dim
    if d > SCAN_DIM_LIMIT:
        raise InvalidInput(
            f"subspace scan enumerates 2^d subsets and is capped at "
            f"d = {SCAN_DIM_LIMIT}; use the coupling-graph check instead"
        )

    graph = extract_coupling_graph(
        d, ((j, g.matrix) for j, g in enumerate(gen_set.generators)), tau_edge
    )
    crossing = [*graph.edges, *((l, r) for r, l in graph.edges)]

    n_masks = 1 << d
    masks = np.arange(n_masks, dtype=np.uint32)
    ok = np.ones(n_masks, dtype=bool)
    for r, l in crossing:
        # S invariant demands: not (l in S and r outside S)
        in_l = ((masks >> l) & 1).astype(bool)
        in_r = ((masks >> r) & 1).astype(bool)
        ok &= ~(in_l & ~in_r)
    ok[0] = ok[n_masks - 1] = False  # exclude empty and full

    found = []
    for m in np.nonzero(ok)[0].tolist():
        found.append(tuple(v for v in range(d) if (m >> v) & 1))
    return sorted(found, key=lambda s: (len(s), s))
