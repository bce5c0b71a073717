"""Generator-set model: validation, diagonal drift spectra, step-size bound.

A generator set is an ordered list of skew-Hermitian matrices acting on C^d,
one of which (``general_index``, default the first) must be diagonal with a
non-degenerate spectrum.  That designated diagonal plays the role of a drift
whose exponential walks a dense orbit on the diagonal torus whenever its
phases, divided by 2*pi, are rationally independent together with 1.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from . import linalg
from .errors import (
    DegenerateSpectrum,
    DesignatedNotDiagonal,
    InvalidInput,
    NotSkewHermitian,
    NotTraceless,
)

#: relative tolerance for |trace| in su mode
TAU_TRACE = 1e-12
#: relative tolerance for off-diagonal entries of the designated generator
TAU_DIAG = 1e-12
#: relative minimum separation of the designated generator's phases
TAU_SPECTRUM = 1e-9
#: residual tolerance for accepted integer relations
TAU_RELATION = 1e-9
#: default bound on integer-relation coefficients
RELATION_BOUND = 10
#: exhaustive relation search is attempted when (2H+1)^n is at most this
EXHAUSTIVE_LIMIT = 1_000_000
#: working precision (decimal digits) for the lattice relation search
_PSLQ_DPS = 40


@dataclass(frozen=True)
class Algebra:
    """Target algebra: all skew-Hermitian ('u') or traceless ones ('su')."""

    kind: str  # "u" | "su"
    dim: int

    def __post_init__(self):
        if self.kind not in ("u", "su"):
            raise InvalidInput(f"algebra kind must be 'u' or 'su', got {self.kind!r}")
        if self.dim < 1:
            raise InvalidInput(f"algebra dimension must be >= 1, got {self.dim}")

    @property
    def target_dimension(self) -> int:
        """Real dimension: d^2 for u(d), d^2 - 1 for su(d)."""
        d = self.dim
        return d * d if self.kind == "u" else d * d - 1


@dataclass(frozen=True, eq=False)
class Generator:
    matrix: np.ndarray
    label: str = ""

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True, eq=False)
class GeneratorSet:
    """Ordered generators plus the target algebra.

    ``constructed_general`` marks sets whose designated diagonal was built by
    :func:`make_general_direction`; its rational independence is then exact
    by construction (square roots of distinct primes) rather than heuristic.
    """

    algebra: Algebra
    generators: tuple[Generator, ...]
    general_index: int = 0
    constructed_general: bool = False

    def __post_init__(self):
        object.__setattr__(self, "generators", tuple(self.generators))

    @property
    def dim(self) -> int:
        return self.algebra.dim

    @property
    def designated(self) -> Generator:
        return self.generators[self.general_index]

    def with_extra(self, extra: list[Generator]) -> "GeneratorSet":
        return replace(self, generators=self.generators + tuple(extra))


def validate_tolerance(name: str, value, source: str = "argument"):
    """Return ``value`` if it is admissible for tolerance ``name``.

    ``tau_edge`` must be a finite number in (0, 1): at 0 or below every
    stored entry becomes an edge, and at 1 or above no entry does, not even
    a repair bridge.  ``tau_rank`` and ``tau_rel`` must be finite and
    positive; ``relation_bound`` an integer >= 1.  Bools are rejected
    everywhere.  ``source`` (flag, input file, profile, argument) is named
    in the InvalidInput raised otherwise.
    """
    if name == "relation_bound":
        want = "an integer >= 1"
        ok = isinstance(value, numbers.Integral) and value >= 1
    else:
        want = "a finite number in (0, 1)" if name == "tau_edge" else "a finite number > 0"
        ok = (
            isinstance(value, numbers.Real)
            and math.isfinite(value)
            and value > 0
            and (name != "tau_edge" or value < 1)
        )
    if not ok or isinstance(value, (bool, np.bool_)):
        raise InvalidInput(f"{name} ({source}): expected {want}, got {value!r}")
    return value


class IndependenceStatus(Enum):
    HEURISTICALLY_INDEPENDENT = "heuristically_independent"
    DEPENDENT = "dependent"
    CONSTRUCTED_EXACT = "constructed_exact"
    SKIPPED = "skipped"


@dataclass(frozen=True)
class SpectrumIndependenceVerdict:
    """Outcome of the rational-independence scan of a diagonal spectrum.

    ``relation`` holds integer coefficients c with |c . (1, theta/2pi)| <=
    the reported ``residual`` when status is DEPENDENT (su mode drops the
    last phase from the vector).  ``residual`` is +inf when no candidate was
    found within the search bound.
    """

    status: IndependenceStatus
    relation: tuple[int, ...] | None
    search_bound: int
    residual: float

    @property
    def independent(self) -> bool:
        return self.status in (
            IndependenceStatus.HEURISTICALLY_INDEPENDENT,
            IndependenceStatus.CONSTRUCTED_EXACT,
        )


def phases_of(gen: Generator) -> np.ndarray:
    """Extract theta from a diagonal skew-Hermitian i*diag(theta)."""
    return np.diag(gen.matrix).imag.copy()


def validate_set(raw: GeneratorSet, *, require_nondegenerate: bool = True) -> GeneratorSet:
    """Check every generator-set invariant, returning the set unchanged.

    Raises (always naming the offending generator index):

    - NotSkewHermitian    if some matrix fails the symmetry test,
    - NotTraceless        in su mode, if some matrix has |trace| too large,
    - DesignatedNotDiagonal  if the designated generator has off-diagonal
      support,
    - DegenerateSpectrum  if the designated phases are not mutually distinct
      (skipped when ``require_nondegenerate`` is False; callers that can
      still give a meaningful, weaker answer use that mode).
    """
    if len(raw.generators) < 1:
        raise InvalidInput("generator set must contain at least one generator")
    if not 0 <= raw.general_index < len(raw.generators):
        raise InvalidInput(
            f"general_index {raw.general_index} out of range for "
            f"{len(raw.generators)} generators"
        )
    d = raw.algebra.dim
    for j, gen in enumerate(raw.generators):
        A = linalg.as_complex_matrix(gen.matrix)
        if A.shape[0] != d:
            raise InvalidInput(
                f"generator {j} has dimension {A.shape[0]}, expected {d}"
            )
        scale = max(1.0, linalg.max_abs(A))
        if linalg.skew_defect(A) > linalg.TAU_SYM * scale:
            raise NotSkewHermitian(
                f"generator {j} ({gen.label or 'unlabeled'}) is not skew-Hermitian",
                generator_index=j,
            )
        if raw.algebra.kind == "su":
            if abs(np.trace(A)) > TAU_TRACE * d * linalg.max_abs(A):
                raise NotTraceless(
                    f"generator {j} ({gen.label or 'unlabeled'}) has nonzero trace "
                    f"in su mode",
                    generator_index=j,
                )

    des = raw.designated
    A = des.matrix
    off = A - np.diag(np.diag(A))
    if linalg.max_abs(off) > TAU_DIAG * linalg.max_abs(A):
        raise DesignatedNotDiagonal(
            f"designated generator {raw.general_index} is not diagonal",
            generator_index=raw.general_index,
        )
    if require_nondegenerate and spectrum_is_degenerate(phases_of(des)):
        raise DegenerateSpectrum(
            f"designated generator {raw.general_index} has a degenerate spectrum",
            generator_index=raw.general_index,
        )
    return raw


def spectrum_is_degenerate(theta: np.ndarray, tau_spectrum: float = TAU_SPECTRUM) -> bool:
    """True if two phases coincide within ``tau_spectrum * max|theta|``."""
    theta = np.asarray(theta, dtype=float)
    if theta.size <= 1:
        return False
    sep = np.min(np.diff(np.sort(theta)))
    return sep <= tau_spectrum * max(1e-300, float(np.max(np.abs(theta))))


def _relation_vector(theta: np.ndarray, algebra: Algebra) -> np.ndarray:
    """(1, theta_1/2pi, ..., theta_k/2pi); su mode drops the last phase."""
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (algebra.dim,):
        raise InvalidInput(
            f"expected {algebra.dim} phases, got {theta.shape}"
        )
    k = algebra.dim if algebra.kind == "u" else algebra.dim - 1
    return np.concatenate([[1.0], theta[:k] / (2.0 * np.pi)])


def _exhaustive_relation(x: np.ndarray, bound: int):
    """Minimum |c . x| over all nonzero integer c with |c_i| <= bound.

    Returns ``(coeffs, residual)`` for the best candidate.  Only called when
    (2*bound+1)**len(x) is small; evaluated on a broadcast grid.
    """
    n = len(x)
    axes = []
    rng = np.arange(-bound, bound + 1, dtype=float)
    for i in range(n):
        shape = [1] * n
        shape[i] = 2 * bound + 1
        axes.append(rng.reshape(shape))
    total = np.zeros((2 * bound + 1,) * n)
    for i in range(n):
        total = total + x[i] * axes[i]
    res = np.abs(total)
    # mask out the all-zero coefficient vector (its residual is trivially 0)
    res[(bound,) * n] = np.inf
    flat = int(np.argmin(res))
    idx = np.unravel_index(flat, res.shape)
    coeffs = tuple(int(i) - bound for i in idx)
    return coeffs, float(res[idx])


def _pslq_relation(x: np.ndarray, bound: int, tau_rel: float):
    """Lattice (PSLQ) search for an integer relation; None if not found."""
    # imported here, so that runs that never scan (d > 32, construct,
    # --version) do not pay for importing mpmath
    from mpmath import mp, mpf, pslq

    with mp.workdps(_PSLQ_DPS):
        vec = [mpf(float(v)) for v in x]
        try:
            rel = pslq(vec, tol=mpf(tau_rel), maxcoeff=bound, maxsteps=10_000)
        except ValueError:
            # pslq refuses (near-)zero entries; those are handled upstream
            return None
    if rel is None:
        return None
    coeffs = tuple(int(c) for c in rel)
    residual = abs(float(np.dot(coeffs, x)))
    return coeffs, residual


def check_general_direction(
    theta,
    algebra: Algebra,
    bound: int = RELATION_BOUND,
    tau_rel: float = TAU_RELATION,
) -> SpectrumIndependenceVerdict:
    """Scan a diagonal spectrum for integer relations among (1, theta/2pi).

    The verdict is *heuristic*: rational independence of floating-point data
    is undecidable, so absence of a relation within the coefficient bound
    and residual tolerance is reported as HEURISTICALLY_INDEPENDENT, never as
    a certificate.  A PSLQ lattice search runs first; when the coefficient
    grid is small enough it is followed by an exhaustive sweep, whose best
    rejected residual is then reported.
    """
    validate_tolerance("relation_bound", bound)
    validate_tolerance("tau_rel", tau_rel)
    x = _relation_vector(np.asarray(theta, dtype=float), algebra)
    n = len(x)
    if n == 1:
        # su(1): no phases enter the condition, nothing to relate
        return SpectrumIndependenceVerdict(
            IndependenceStatus.HEURISTICALLY_INDEPENDENT, None, bound, math.inf
        )

    # a (near-)zero entry is already a unit relation
    small = np.flatnonzero(np.abs(x) <= tau_rel)
    if small.size:
        coeffs = tuple(1 if i == small[0] else 0 for i in range(n))
        return SpectrumIndependenceVerdict(
            IndependenceStatus.DEPENDENT, coeffs, bound, float(abs(x[small[0]]))
        )

    found = _pslq_relation(x, bound, tau_rel)
    if found is not None:
        coeffs, residual = found
        if residual <= tau_rel and max(abs(c) for c in coeffs) <= bound:
            return SpectrumIndependenceVerdict(
                IndependenceStatus.DEPENDENT, coeffs, bound, residual
            )

    best_residual = math.inf
    if (2 * bound + 1) ** n <= EXHAUSTIVE_LIMIT:
        coeffs, residual = _exhaustive_relation(x, bound)
        if residual <= tau_rel:
            return SpectrumIndependenceVerdict(
                IndependenceStatus.DEPENDENT, coeffs, bound, residual
            )
        best_residual = residual

    return SpectrumIndependenceVerdict(
        IndependenceStatus.HEURISTICALLY_INDEPENDENT, None, bound, best_residual
    )


def _first_primes(n: int) -> list[int]:
    primes: list[int] = []
    c = 2
    while len(primes) < n:
        if all(c % p for p in primes):
            primes.append(c)
        c += 1
    return primes


def make_general_direction(algebra: Algebra, label: str = "drift") -> Generator:
    """Construct a diagonal generator with a provably independent spectrum.

    u(d): i*diag(sqrt(p_1), ..., sqrt(p_d)) over the first d primes; square
    roots of distinct primes are linearly independent over Q together with 1.
    su(d): same for the first d-1 primes, last phase set to minus their sum
    so the matrix is traceless.
    """
    d = algebra.dim
    if algebra.kind == "u":
        theta = np.sqrt(_first_primes(d), dtype=float)
    else:
        head = np.sqrt(_first_primes(d - 1), dtype=float)
        theta = np.concatenate([head, [-head.sum()]])
    return Generator(matrix=np.diag(1j * theta), label=label)


def epsilon_bound_per_generator(gen_set: GeneratorSet) -> list[float]:
    """pi / (2 * ||X||) per generator; +inf for zero generators."""
    out = []
    for gen in gen_set.generators:
        nrm = linalg.operator_norm(gen.matrix)
        out.append(math.inf if nrm == 0.0 else math.pi / (2.0 * nrm))
    return out


def epsilon_bound(gen_set: GeneratorSet) -> float:
    """Largest step size keeping every exp(eps*X_j) within sqrt(2) of I.

    For a skew-Hermitian X with eigenphases lambda_k, the operator-norm
    distance ||exp(eps X) - I|| equals 2*max_k|sin(eps*lambda_k/2)|, which
    stays strictly below sqrt(2) for 0 < eps < pi/(2*||X||) and reaches it
    exactly at the bound.  Zero generators impose no constraint.
    """
    bounds = epsilon_bound_per_generator(gen_set)
    finite = [b for b in bounds if math.isfinite(b)]
    if not finite:
        raise InvalidInput("epsilon bound undefined: every generator is zero")
    return min(finite)
