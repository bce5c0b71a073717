"""Dense complex linear algebra for skew-Hermitian operators.

Everything here works on plain ``numpy`` arrays of shape (d, d) with complex
dtype; ``commutator`` also takes stacks of them.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidInput


def max_abs(A: np.ndarray) -> float:
    """Largest entry magnitude (0.0 for an empty array)."""
    return float(np.max(np.abs(A))) if A.size else 0.0


def commutator(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Matrix commutator ``AB - BA``.

    Either side may also be a stack of matrices, shape (k, d, d), commuted
    pairwise with the other stack or each with the single matrix.  For
    skew-Hermitian inputs the result is again skew-Hermitian.
    """
    if A.shape[-2:] != B.shape[-2:] or A.ndim not in (2, 3) or B.ndim not in (2, 3):
        raise InvalidInput(f"dimension mismatch: {A.shape} vs {B.shape}")
    return A @ B - B @ A


def components(d: int, edges) -> list[list[int]]:
    """Connected components of the graph on 0..d-1 with the (r, l) pairs
    of ``edges``, ordered by smallest member, members ascending
    (union-find; the edges after the one that joins the last two
    components are not looked at)."""
    parent = list(range(d))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]  # path halving
            a = parent[a]
        return a

    joins = d - 1
    for r, l in edges:
        ra, rb = find(r), find(l)
        if ra != rb:
            # the smaller root wins, so every root is its component's minimum
            parent[max(ra, rb)] = min(ra, rb)
            joins -= 1
            if not joins:
                break
    groups: dict[int, list[int]] = {}
    for v in range(d):
        groups.setdefault(find(v), []).append(v)
    return [groups[k] for k in sorted(groups)]


def operator_norm(A: np.ndarray) -> float:
    """Largest singular value of ``A`` (the spectral norm).

    ``A`` is block-diagonal over the connected components of its own
    nonzero support (an edge r -- l wherever A_rl or A_lr is nonzero), so
    its norm is the largest over those blocks.  A block of one index is
    |A_ii|, all of them taken in one ``np.abs``, so a diagonal matrix, such
    as a drift, takes no SVD; every larger block takes one SVD of its own.
    A connected ``A`` is one block, whose SVD is that of ``A``; otherwise
    the result may differ from one dense SVD in the last few ulps.
    """
    d = len(A)
    r, l = np.divmod(np.flatnonzero(A != 0), d)
    off = r != l
    comps = components(d, zip(r[off].tolist(), l[off].tolist()))
    single = [c[0] for c in comps if len(c) == 1]
    norms = [float(np.linalg.norm(A[np.ix_(c, c)], 2)) for c in comps if len(c) > 1]
    return max(norms + [float(np.abs(A[single, single]).max(initial=0.0))])
