"""Dense complex linear algebra for skew-Hermitian operators.

Everything here works on plain ``numpy`` arrays of shape (d, d) with complex
dtype; ``commutator``, ``skew_coords`` and ``from_skew_coords`` also take
stacks of them.  ``skew_coords`` maps u(d) isometrically onto R^(d*d), the
coordinates the closure oracle computes in.  ``is_skew_hermitian`` holds
when ``A + A.conj().T`` vanishes up to ``TAU_SYM`` relative to the largest
entry; all predicates and thresholds below are relative so the routines are
scale-invariant.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import InvalidInput

#: relative tolerance for the skew-Hermitian symmetry defect
TAU_SYM = 1e-12

_SQRT2 = np.sqrt(2.0)


@lru_cache(maxsize=None)
def _upper(d: int) -> tuple[np.ndarray, np.ndarray]:
    """Row and column indices of the strict upper triangle, r < l, row-major."""
    r, l = np.triu_indices(d, 1)
    r.flags.writeable = l.flags.writeable = False
    return r, l


def max_abs(A: np.ndarray) -> float:
    """Largest entry magnitude (0.0 for an empty array)."""
    return float(np.max(np.abs(A))) if A.size else 0.0


def is_skew_hermitian(A: np.ndarray) -> bool:
    """``A + A†`` within ``TAU_SYM`` of the largest entry of ``A``, at any scale."""
    return max_abs(A + A.conj().T) <= TAU_SYM * max_abs(A)


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
    |A_ii|, so a diagonal matrix, such as a drift, takes no SVD; the blocks
    of each size larger than one take one stacked SVD.  A connected ``A``
    is one dense SVD; otherwise the result may differ from that one in the
    last few ulps.
    """
    d = len(A)
    r, l = np.divmod(np.flatnonzero(A != 0), d)
    off = r != l
    comps = components(d, zip(r[off].tolist(), l[off].tolist()))
    if len(comps) == 1 and d > 1:
        return float(np.linalg.norm(A, 2))
    by_size: dict[int, list[list[int]]] = {}
    for comp in comps:
        by_size.setdefault(len(comp), []).append(comp)
    norm = 0.0
    for size, group in by_size.items():
        idx = np.array(group)
        if size == 1:
            block_norms = np.abs(A[idx[:, 0], idx[:, 0]])
        else:
            block_norms = np.linalg.norm(A[idx[:, :, None], idx[:, None, :]], 2, axis=(1, 2))
        norm = max(norm, float(block_norms.max()))
    return norm


def skew_coords(A: np.ndarray) -> np.ndarray:
    """Coordinates of the skew-Hermitian part of A in an orthonormal basis of u(d).

    The basis is the generalised Gell-Mann one, times i: ``i E_rr`` for the
    diagonal, ``(E_rl - E_lr)/sqrt2`` and ``i (E_rl + E_lr)/sqrt2`` for
    r < l.  The d*d real coordinates are laid out as ``Im M_rr`` (r = 0..d-1),
    then ``sqrt2 Re M_rl`` and ``sqrt2 Im M_rl`` over r < l in row-major
    order, where M = (A - A†)/2.  The map is the orthogonal projection onto
    u(d) followed by an isometry, so Frobenius norms and inner products of
    skew-Hermitian matrices are kept.  Takes a stack (..., d, d) and returns
    (..., d*d).
    """
    A = np.asarray(A)
    r, l = _upper(A.shape[-1])
    upper = (A[..., r, l] - A[..., l, r].conj()) / _SQRT2
    diag = np.diagonal(A, axis1=-2, axis2=-1).imag
    return np.concatenate([diag, upper.real, upper.imag], axis=-1)


def from_skew_coords(v: np.ndarray, d: int) -> np.ndarray:
    """Inverse of :func:`skew_coords`: the skew-Hermitian matrix of ``v``.

    Takes a stack (..., d*d) and returns (..., d, d); the result is exactly
    skew-Hermitian.
    """
    v = np.asarray(v, dtype=float)
    if v.shape[-1:] != (d * d,):
        raise InvalidInput(f"expected coordinates of length {d * d}, got {v.shape}")
    r, l = _upper(d)
    k = len(r)
    upper = (v[..., d : d + k] + 1j * v[..., d + k :]) / _SQRT2
    M = np.zeros(v.shape[:-1] + (d, d), dtype=complex)
    M[..., range(d), range(d)] = 1j * v[..., :d]
    M[..., r, l] = upper
    M[..., l, r] = -upper.conj()
    return M
