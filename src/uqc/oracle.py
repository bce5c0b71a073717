"""Brute-force Lie-closure cross-check for the graph criterion.

``lie_closure`` grows an orthonormal basis of the real Lie algebra generated
by the set via iterated commutators, which gives an independent dimension
count to compare against the graph verdict.  The algebra generated by S is
spanned by S and the right-nested brackets [s1, [s2, [..., sm]]] of its
elements (Jacobi identity), so each element is bracketed only with the
seeds, an orthonormal basis of span S.  Elements are held as d*d real
coordinates in an orthonormal Hermitian (generalised Gell-Mann) basis of
u(d) (``linalg.skew_coords``), so skew-Hermiticity holds by construction and
Frobenius norms, hence every tolerance, keep their meaning.  Commutators are
formed, projected off the basis and admitted a block of at most ``_BLOCK``
at a time, which bounds the working memory whatever d is.  The report gives
the basis back as matrices, with its dimension and the certified residual.
``closure_block_partition`` reads the block structure of the closure basis
through the one edge rule of :mod:`uqc.universality` (``|A_rl| > tau_edge *
max|A|``, via ``extract_coupling_graph``, one boolean mask per basis
matrix), for comparison with the generator-level components; it keeps no
record of which basis matrix gave which edge.  The closure is a desk-scale
tool with a hard cap at d = CLOSURE_DIM_LIMIT (the minimal pair of u(12)
takes about 0.05 s, of u(20) about 0.3 s).
"""

from __future__ import annotations

import math

import numpy as np

from . import linalg
from .errors import InvalidInput, NumericalFailure
# validate_set is not called here; bench/tracing.py wraps the name in this module
from .generators import TAU_CLOSURE_RANK, GeneratorSet, _Record, validate_set, validate_tolerance
from .universality import TAU_EDGE, connected_components, extract_coupling_graph

#: growth-phase acceptance floor: a direction accepted from a leftover of
#: size L carries out-of-span roundoff of order eps/L, so chasing leftovers
#: below ~sqrt(eps) during growth turns roundoff into runaway fake rank;
#: marginal content between tau_rank and this floor is picked up by the
#: certification loop against the converged basis instead
TAU_GROWTH_FLOOR = 1e-6
#: maximum certification/regrowth cycles before giving up
_MAX_CERTIFY_CYCLES = 8
#: commutators per block, in growth and in certification alike, whatever
#: the number of seeds; it bounds the closure's working memory at a few
#: blocks of d x d matrices
_BLOCK = 64
#: hard cap for lie_closure: the work grows about as k d^6 for k seeds (each
#: of up to d^2 basis elements bracketed with every seed, each bracket
#: projected off the basis); the minimal pair of u(20) takes about 0.3 s on
#: a 2-core Xeon VM with one BLAS thread.  The cap keeps exit codes stable
CLOSURE_DIM_LIMIT = 20


class LieClosureReport(_Record):
    """Orthonormal basis of the generated real Lie algebra; equal only to itself.

    ``basis_matrices`` are the basis elements as d x d skew-Hermitian
    matrices, orthonormal in the Frobenius inner product; their
    coordinates are ``linalg.skew_coords(np.array(basis_matrices))``.
    ``rounds`` counts frontier generations: the elements added in one
    generation are bracketed with the seeds in the next, over growth and
    every certification regrowth.
    ``residual_max`` is the largest relative component outside the final
    basis over the brackets of every basis element with every seed; small
    values certify that the span is invariant under ad_s for each seed s,
    which for a span holding the generators is the same as being closed
    under the bracket.
    """

    __slots__ = ("dim", "basis_matrices", "dimension", "target_dimension", "rounds", "residual_max")

    def __init__(
        self,
        dim: int,
        basis_matrices: tuple[np.ndarray, ...],
        dimension: int,
        target_dimension: int,
        rounds: int,
        residual_max: float,
    ):
        self._fill(dim, basis_matrices, dimension, target_dimension, rounds, residual_max)


def _over(A: np.ndarray, m: float) -> np.ndarray:
    """``A / m`` for a real m > 0, also where 1/m is beyond float64.

    numpy divides a complex array by a real number as a product with its
    reciprocal, which is inf for a subnormal m.  Such an A and m are scaled
    by 2**64 first, exactly; every other A keeps the bits of ``A / m``.
    """
    if 1.0 / m < math.inf:
        return A / m
    return (A * 2.0**64) * (1.0 / (m * 2.0**64))


class _Basis:
    """Orthonormal closure basis, in coordinates and as matrices.

    Every element is a unit coordinate vector (see ``linalg.skew_coords``),
    so skew-Hermiticity holds by construction; in su mode the identity
    direction is projected off each candidate and each new element.  The
    first ``k`` elements, the seeds, are admitted from the generators and
    span them; every other element is bracketed with the seeds only.
    """

    def __init__(self, gen_set: GeneratorSet, tau: float):
        d = self.d = gen_set.dim
        self.traceless = gen_set.algebra.kind == "su"
        self.n = 0
        self.coords = np.zeros((d * d, d * d))
        self.mats = np.zeros((d * d, d, d), dtype=complex)
        # each generator over its largest entry, so no norm overflows or
        # underflows at any scale; a zero generator adds nothing
        G = [_over(g.matrix, m) for g in gen_set.generators if (m := linalg.max_abs(g.matrix)) > 0]
        self.admit(linalg.skew_coords(np.reshape(G, (-1, d, d))), tau, None)
        self.k = self.n

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

    def pairs(self, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
        """Indices (I, J) of the brackets [b_i, s_j] for lo <= i < hi, j < min(i, k).

        [b_i, s_j] for a seed b_i with j >= i is zero or the negative of a
        listed bracket, so it is left out.
        """
        I, J = np.divmod(np.arange(lo * self.k, hi * self.k), self.k)
        keep = J < I
        return I[keep], J[keep]

    def commutators(self, I: np.ndarray, J: np.ndarray):
        """Coordinates of [M_i, M_j] over the pairs (I, J), ``_BLOCK`` at a time."""
        for b in range(0, len(I), _BLOCK):
            block = slice(b, b + _BLOCK)
            yield linalg.skew_coords(linalg.commutator(self.mats[I[block]], self.mats[J[block]]))

    def screen(self, I: np.ndarray, J: np.ndarray) -> np.ndarray:
        """Leftover off the basis of every pair of :meth:`commutators`.

        Each leftover is relative to ``max(1, |C|)``, the scale at which a
        commutator of unit elements is produced.
        """
        ratios = [np.zeros(0)]
        for C in self.commutators(I, J):
            C = self._pin(C)
            scale = np.maximum(1.0, np.linalg.norm(C, axis=1))
            ratios.append(np.linalg.norm(self.project(C), axis=1) / scale)
        return np.concatenate(ratios)

    def admit_pairs(self, I: np.ndarray, J: np.ndarray, ratio: np.ndarray, tau: float) -> None:
        """Admit the screened pairs whose leftover exceeds ``tau``, largest first.

        The commutators of those pairs are computed again, a block at a
        time, and judged off the basis as it grows (see :meth:`admit`).  A
        direction normalized from a large leftover carries the least
        roundoff; pairs with smaller leftovers that held the same direction
        then fall below ``tau`` and are dropped instead of being normalized.
        """
        live = np.flatnonzero(ratio > tau)
        live = live[np.argsort(-ratio[live], kind="stable")]
        for C in self.commutators(I[live], J[live]):
            self.admit(C, tau, 1.0)

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
        n = self.n
        while live.size:
            pick = np.argmax(left[live] / ref[live])
            a, live = live[pick], np.delete(live, pick)
            u = self._append(W[a] / left[a])
            if live.size:
                W[live] -= np.outer(W[live] @ u, u)
                left[live] = np.linalg.norm(W[live], axis=1)
                live = live[left[live] > bound[live]]
        self.mats[n : self.n] = linalg.from_skew_coords(self.coords[n : self.n], self.d)

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
        self.n += 1
        return u

    def grow(self, lo: int, tau: float) -> int:
        """Bracket each frontier generation with the seeds; return the count.

        The frontier starts as the elements from ``lo`` on; the elements a
        generation adds are the next one.
        """
        generations = 0
        while lo < self.n:
            generations += 1
            I, J = self.pairs(lo, self.n)
            lo = self.n
            self.admit_pairs(I, J, self.screen(I, J), tau)
        return generations


def lie_closure(gen_set: GeneratorSet, tau_rank: float = TAU_CLOSURE_RANK) -> LieClosureReport:
    """Lie_R<generators> of a validated set, by iterated commutators with rank tracking.

    Seeds the basis with the generators, each over its largest entry so that
    the result does not depend on their scale, then grows it a frontier
    generation at a time: the elements added in one generation are
    bracketed with the k seeds (k <= the number of generators), a block of
    commutators at a time, and rank-increasing results join the basis;
    n basis elements cost n*k commutators, not n(n-1)/2.  Growth accepts
    off-span components above ``max(tau_rank, TAU_GROWTH_FLOOR)`` (see the
    floor's note on roundoff amplification); once growth stops, a
    certification pass measures the bracket of every basis element with
    every seed against the converged basis; if any is still above
    ``tau_rank``, the pass is repeated adopting those at ``tau_rank`` and
    the basis regrows, so the reported rank decisions are made at
    ``tau_rank`` while the growth path stays numerically stable.

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

    basis = _Basis(gen_set, tau_rank)
    rounds = basis.grow(0, tau_growth)

    # certification loop: bracket every basis element with every seed and
    # measure it against the converged basis; anything still above tau_rank
    # is genuine marginal rank the growth floor deferred, so adopt it and
    # regrow
    for _ in range(_MAX_CERTIFY_CYCLES):
        n = basis.n
        I, J = basis.pairs(0, n)
        ratio = basis.screen(I, J)
        residual_max = float(ratio.max(initial=0.0))
        if residual_max <= tau_rank:
            break
        basis.admit_pairs(I, J, ratio, tau_rank)
        rounds += basis.grow(n, tau_growth)
    else:
        raise NumericalFailure(
            "closure certification did not stabilize; rank decisions are "
            "ambiguous at this tau_rank"
        )

    n = basis.n
    return LieClosureReport(
        dim=d,
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

    Applies the edge rule to every basis matrix (diagonal ones contribute
    nothing) and returns the connected components, ordered like the
    generator-level partition for direct comparison.
    """
    graph = extract_coupling_graph(report.dim, report.basis_matrices, tau_edge)
    return tuple(tuple(c) for c in connected_components(graph))
