"""Brute-force cross-checks for the graph criterion.

``lie_closure`` grows an orthonormal basis of the real Lie algebra generated
by the set via iterated commutators, which gives an independent dimension
count to compare against the graph verdict.  ``coordinate_subspace_scan``
enumerates invariant coordinate subspaces directly, a second independent
oracle for the connectivity reduction.  Both read the coupling structure
through the one edge rule of :mod:`uqc.universality`
(``|A_rl| > tau_edge * max|A|``, via ``extract_coupling_graph``): the
closure partition feeds it the closure basis, the scan every generator.
Both are desk-scale tools (closure is practical to d ~ 12, the scan to
d = 20).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import InvalidInput, NumericalFailure
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
#: hard cap for coordinate_subspace_scan (2^d subsets)
SCAN_DIM_LIMIT = 20


@dataclass(frozen=True, eq=False)
class LieClosureReport:
    """Orthonormal basis of the generated real Lie algebra.

    ``basis`` holds orthonormal rows in the fixed real embedding (length
    2*d*d); ``basis_matrices`` are the same elements in matrix form.
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


def _orthogonalize(v: np.ndarray, basis: np.ndarray, passes: int = 2) -> np.ndarray:
    """Project v off the rows of ``basis`` with repeated re-projection."""
    for _ in range(passes):
        v = v - basis.T @ (basis @ v)
    return v


def _structure_project(M: np.ndarray, traceless: bool) -> np.ndarray:
    """Pin a matrix to the structure space the closure lives in.

    Every closure element is skew-Hermitian, and traceless in su mode; the
    raw real embedding has room for neither constraint, so roundoff picked
    up along the way is projected out before it can masquerade as rank.
    """
    M = (M - M.conj().T) / 2.0
    if traceless:
        d = M.shape[0]
        M = M - (np.trace(M) / d) * np.eye(d)
    return M


def lie_closure(
    gen_set: GeneratorSet,
    tau_rank: float = TAU_CLOSURE_RANK,
    max_dim_guard: int | None = None,
) -> LieClosureReport:
    """Compute Lie_R<generators> by iterated commutators with rank tracking.

    Seeds the basis with the generators, then sweeps: every element added in
    the previous round is commuted against the full current basis, and
    rank-increasing results join the basis.  Growth accepts off-span
    components above ``max(tau_rank, TAU_GROWTH_FLOOR)`` (see the floor's
    note on roundoff amplification); once sweeps stabilize, a certification
    pass measures every basis-pair commutator against the converged basis
    and adopts anything still above ``tau_rank`` before certifying, so the
    reported rank decisions are made at ``tau_rank`` while the growth path
    stays numerically stable.

    Raises NumericalFailure if the dimension exceeds ``max_dim_guard``
    (default d^2, the mathematical maximum); that signals a misconfigured
    tolerance, not a property of the input.
    """
    validate_tolerance("tau_rank", tau_rank)
    gen_set = validate_set(gen_set, require_nondegenerate=False)
    d = gen_set.dim
    if max_dim_guard is None:
        max_dim_guard = d * d
    if max_dim_guard < d * d:
        raise InvalidInput(f"max_dim_guard must be >= d^2 = {d * d}")
    tau_growth = max(tau_rank, TAU_GROWTH_FLOOR)
    traceless = gen_set.algebra.kind == "su"

    basis = np.zeros((0, 2 * d * d))
    mats: list[np.ndarray] = []

    def try_add(M: np.ndarray, tau: float, scale: float | None = None) -> bool:
        # ``scale`` is the magnitude at which the candidate was produced:
        # a commutator of two unit-Frobenius basis elements has scale 1, so
        # a near-zero result there is roundoff, not a tiny new direction.
        # Seeds pass scale=None and are judged relative to themselves.
        nonlocal basis
        v = linalg.embed_real(_structure_project(M, traceless))
        nrm = float(np.linalg.norm(v))
        if nrm == 0.0:
            return False
        w = _orthogonalize(v, basis)
        left = float(np.linalg.norm(w))
        if left <= tau * (nrm if scale is None else max(nrm, scale)):
            return False
        if len(mats) + 1 > max_dim_guard:
            raise NumericalFailure(
                f"closure dimension exceeded the guard {max_dim_guard}; "
                "tau_rank is likely too small for this data"
            )
        # normalizing a small leftover amplifies its roundoff content, so
        # re-pin the unit vector to the structure space and re-orthogonalize
        # before it joins the basis; this keeps impurities from compounding
        u = w / left
        u = linalg.embed_real(_structure_project(linalg.unembed_real(u, d), traceless))
        u = _orthogonalize(u, basis)
        u /= np.linalg.norm(u)
        basis = np.vstack([basis, u])
        mats.append(linalg.unembed_real(u, d))
        return True

    def sweep(frontier: list[int]) -> int:
        count = 0
        while frontier:
            count += 1
            new_frontier: list[int] = []
            for i in frontier:
                for j in range(len(mats)):
                    if i == j:
                        continue
                    C = linalg.commutator(mats[i], mats[j])
                    if try_add(C, tau_growth, scale=1.0):
                        new_frontier.append(len(mats) - 1)
            frontier = new_frontier
        return count

    seeds: list[int] = []
    for gen in gen_set.generators:
        if try_add(gen.matrix, tau_rank):
            seeds.append(len(mats) - 1)
    rounds = sweep(seeds)

    # certification loop: measure every basis-pair commutator against the
    # converged basis; anything still above tau_rank is genuine marginal
    # rank the growth floor deferred, so adopt it and regrow
    residual_max = 0.0
    for cycle in range(_MAX_CERTIFY_CYCLES):
        residual_max = 0.0
        offenders: list[np.ndarray] = []
        for i in range(len(mats)):
            for j in range(i + 1, len(mats)):
                C = linalg.commutator(mats[i], mats[j])
                v = linalg.embed_real(C)
                nrm = float(np.linalg.norm(v))
                left = float(np.linalg.norm(_orthogonalize(v, basis)))
                residual_max = max(residual_max, left / max(1.0, nrm))
                if left > tau_rank * max(1.0, nrm):
                    offenders.append(C)
        if not offenders:
            break
        frontier = []
        for C in offenders:
            if try_add(C, tau_rank, scale=1.0):
                frontier.append(len(mats) - 1)
        rounds += sweep(frontier)
    else:
        raise NumericalFailure(
            "closure certification did not stabilize; rank decisions are "
            "ambiguous at this tau_rank"
        )

    return LieClosureReport(
        dim=d,
        algebra_kind=gen_set.algebra.kind,
        basis=basis,
        basis_matrices=tuple(mats),
        dimension=len(mats),
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
    gen_set = validate_set(gen_set, require_nondegenerate=False)
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
