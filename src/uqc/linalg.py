"""Dense complex linear algebra for skew-Hermitian operators.

Everything here works on plain ``numpy`` arrays of shape (d, d) with complex
dtype.  Matrices are "skew-Hermitian" when ``A + A.conj().T`` vanishes up to
``TAU_SYM`` relative to the largest entry; all predicates and thresholds below
are relative so the routines are scale-invariant.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidInput, NumericalFailure

#: relative tolerance for the skew-Hermitian symmetry defect
TAU_SYM = 1e-12


def as_complex_matrix(entries) -> np.ndarray:
    """Coerce ``entries`` to a square complex matrix and validate it.

    Raises
    ------
    InvalidInput
        If the array is not square, is empty, or contains NaN/Inf.
    """
    A = np.asarray(entries, dtype=complex)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise InvalidInput(f"expected a square matrix, got shape {A.shape}")
    if A.shape[0] < 1:
        raise InvalidInput("matrix dimension must be >= 1")
    if not np.all(np.isfinite(A.real)) or not np.all(np.isfinite(A.imag)):
        raise InvalidInput("matrix contains non-finite entries")
    return A


def max_abs(A: np.ndarray) -> float:
    """Largest entry magnitude (0.0 for an empty array)."""
    return float(np.max(np.abs(A))) if A.size else 0.0


def skew_defect(A: np.ndarray) -> float:
    """Max-entry magnitude of ``A + A†``, the deviation from skew-Hermitianity."""
    return max_abs(A + A.conj().T)


def is_skew_hermitian(A: np.ndarray, tau: float = TAU_SYM) -> bool:
    return skew_defect(A) <= tau * max(1.0, max_abs(A))


def commutator(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Matrix commutator ``AB - BA``.

    For skew-Hermitian inputs the result is again skew-Hermitian.
    """
    if A.shape != B.shape:
        raise InvalidInput(f"dimension mismatch: {A.shape} vs {B.shape}")
    return A @ B - B @ A


def operator_norm(A: np.ndarray) -> float:
    """Largest singular value of ``A`` (the spectral norm)."""
    return float(np.linalg.norm(A, 2))


def matrix_exp(A: np.ndarray, t: float = 1.0) -> np.ndarray:
    """Unitary exponential ``exp(t A)`` of a skew-Hermitian matrix.

    Computed by unitary diagonalization of the Hermitian matrix ``-iA``:
    with ``-iA = V diag(w) V†`` (real ``w``), ``exp(tA) = V diag(e^{itw}) V†``.
    This keeps the result unitary to eigensolver accuracy for any ``t``,
    unlike a truncated series.

    Raises
    ------
    InvalidInput
        If ``A`` is not skew-Hermitian.
    NumericalFailure
        If the eigendecomposition does not converge.
    """
    A = as_complex_matrix(A)
    if not is_skew_hermitian(A):
        raise InvalidInput("matrix_exp requires a skew-Hermitian matrix")
    try:
        w, V = np.linalg.eigh(-1j * A)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure(f"eigendecomposition failed: {exc}") from exc
    return (V * np.exp(1j * t * w)) @ V.conj().T


def embed_real(A: np.ndarray) -> np.ndarray:
    """Flatten a d x d complex matrix to a real vector of length 2*d*d.

    Layout is fixed (real parts row-major, then imaginary parts row-major) so
    that rank computations are reproducible across modules.
    """
    return np.concatenate([A.real.ravel(), A.imag.ravel()])


def unembed_real(v: np.ndarray, d: int) -> np.ndarray:
    """Inverse of :func:`embed_real`."""
    v = np.asarray(v, dtype=float)
    if v.shape != (2 * d * d,):
        raise InvalidInput(f"expected a vector of length {2 * d * d}, got {v.shape}")
    return v[: d * d].reshape(d, d) + 1j * v[d * d :].reshape(d, d)

