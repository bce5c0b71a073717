"""Generator-set model: validation, diagonal drift spectra, step-size bound.

A generator set is an ordered list of skew-Hermitian matrices acting on C^d,
one of which (``general_index``, default the first) must be diagonal.  That
designated diagonal plays the role of a drift whose exponential walks a
dense orbit on the diagonal torus whenever its phases, divided by 2*pi, are
rationally independent together with 1; coinciding phases are a valid input
that fails this hypothesis, not a malformed one.

That hypothesis is tested by a heuristic scan for integer relations among
(1, theta/2pi): a float64 PSLQ (a numpy port of mpmath's, with its rules
and its relations; the phases hold 53 bits, so more precision finds
nothing more) and a float64 re-check of the candidate's residual.
"""

from __future__ import annotations

import math
import numbers
from enum import Enum
from typing import NamedTuple

import numpy as np

from . import linalg
from .errors import InvalidInput, ValidationError

#: the roundoff that :func:`validate_set` allows, relative to a generator's
#: largest entry max|A|: in |A + A†|, in the designated generator's
#: off-diagonal entries and, in su mode, in |trace| / d (a trace within d
#: subnormal ulps, d * 2**-1074, also passes, since each entry of a matrix
#: scaled into the subnormal range carries that much rounding whatever its
#: scale)
TAU_ROUNDOFF = 1e-12
#: relative minimum separation of the designated generator's phases
TAU_SPECTRUM = 1e-9
#: residual tolerance for accepted integer relations
TAU_RELATION = 1e-9
#: default bound on integer-relation coefficients
RELATION_BOUND = 10
#: PSLQ's pivot weight gamma (mpmath's and Bailey's choice, sqrt(4/3))
_PSLQ_GAMMA = math.sqrt(4.0 / 3.0)
#: iteration cap of the PSLQ relation search
_PSLQ_MAXSTEPS = 10_000


def _integer(value, name: str, stop: float = math.inf) -> int:
    """``value`` as an int if it is an integer (numpy's too, bools not) in
    [0, ``stop``), or a positive one without ``stop``; otherwise
    InvalidInput in the words of the document's field ``name``."""
    low = 1 if stop == math.inf else 0
    if isinstance(value, numbers.Integral) and not isinstance(value, bool) and low <= value < stop:
        return int(value)
    want = "a positive integer" if low else f"an integer in [0, {stop})"
    raise InvalidInput(f"{name}: expected {want}, got {value!r}")


class _Record:
    """Base of the package's slotted records.

    A subclass lists its fields in ``__slots__`` and sets them once, in
    ``__init__``, with :meth:`_fill`; after that assigning or deleting a
    field raises AttributeError.  Records are plain classes, not
    dataclasses: a frozen dataclass costs about a millisecond to create, at
    every import of the package.  Equality is by identity unless the
    subclass defines it.
    """

    __slots__ = ()

    def _fill(self, *values):
        """Set the fields, in the order of ``__slots__``."""
        for name, value in zip(self.__slots__, values, strict=True):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of {type(self).__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of {type(self).__name__}")

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):
        # copy and pickle build the record again from its fields, in order
        return type(self), tuple(getattr(self, name) for name in self.__slots__)


#: the target algebras, by the name a document gives them
ALGEBRA_KINDS = ("u", "su")


class Algebra(_Record):
    """Target algebra: all skew-Hermitian ('u') or traceless ones ('su').

    Equal and hashable by value.
    """

    __slots__ = ("kind", "dim")

    def __init__(self, kind: str, dim: int):
        if kind not in ALGEBRA_KINDS:
            kinds = " or ".join(map(repr, ALGEBRA_KINDS))
            raise InvalidInput(f"algebra: expected {kinds}, got {kind!r}")
        self._fill(kind, _integer(dim, "dimension"))

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return (self.kind, self.dim) == (other.kind, other.dim)

    def __hash__(self):
        return hash((self.kind, self.dim))

    @property
    def target_dimension(self) -> int:
        """Real dimension: d^2 for u(d), d^2 - 1 for su(d)."""
        d = self.dim
        return d * d if self.kind == "u" else d * d - 1


class Generator(_Record):
    """A generator's matrix and its label; equal only to itself."""

    __slots__ = ("matrix", "label")

    def __init__(self, matrix: np.ndarray, label: str = ""):
        self._fill(matrix, label)


class GeneratorSet(_Record):
    """Ordered generators plus the target algebra, validated once as it is built.

    This is the one gate a generator set passes, and each of its errors
    reads as the document field at fault does (:mod:`uqc.io`).  Building a
    set (also by :meth:`with_extra`) refuses an empty list of generators
    and a label that is not a string, gives an empty label ``g{j+1}``, as
    in documents, stores each matrix (nested lists or a real array, say) as
    a complex array, refuses a ``general_index`` that is not an integer
    position in the list and runs :func:`validate_set`.  A matrix numpy
    cannot read as complex (ragged rows, strings) raises ValidationError
    naming the generator's index and label, as every other per-generator
    error does.  Whether the designated drift is
    :func:`make_general_direction`'s is read off its phases
    (:func:`is_constructed_direction`), not stored.  A set is equal only to
    itself.
    """

    __slots__ = ("algebra", "generators", "general_index")

    def __init__(
        self, algebra: Algebra, generators: tuple[Generator, ...], general_index: int = 0
    ):
        if not generators:
            raise InvalidInput("generators: expected a non-empty list")
        # each matrix as the complex array validate_set checks; a labelled
        # generator with a complex128 array is kept as it is, not copied
        gens = []
        for j, gen in enumerate(generators):
            if not isinstance(gen.label, str):
                # a label a document could not hold
                raise ValidationError(f"generators[{j}].label: expected a string")
            label = gen.label or f"g{j + 1}"
            try:
                matrix = np.asarray(gen.matrix, dtype=complex)
            except (TypeError, ValueError) as exc:
                raise ValidationError(
                    f"generator {j} ({label}) is not a complex matrix: {exc}") from None
            if matrix is not gen.matrix or not gen.label:
                gen = Generator(matrix, label)
            gens.append(gen)
        self._fill(algebra, tuple(gens), _integer(general_index, "general_index", len(gens)))
        validate_set(self)

    @property
    def dim(self) -> int:
        return self.algebra.dim

    @property
    def designated(self) -> Generator:
        return self.generators[self.general_index]

    def with_extra(self, extra: list[Generator]) -> "GeneratorSet":
        """This set with ``extra`` appended, built and validated again."""
        return type(self)(self.algebra, self.generators + tuple(extra), self.general_index)


def validate_tolerance(name: str, value, source: str = "argument"):
    """Return ``value`` if it is admissible for tolerance ``name``.

    ``tau_edge`` and ``tau_rel`` are relative cutoffs, each a finite number
    in (0, 1).  At 1 or above neither separates anything: no entry is an
    edge (not even a repair bridge), and the relation 1 = 0 passes with
    residual 1.  At 0 or below every stored entry is an edge.
    ``relation_bound`` must be an integer >= 1.  Bools are rejected
    everywhere.  ``source`` (flag, input file, argument) is named
    in the InvalidInput raised otherwise.
    """
    if name == "relation_bound":
        want = "an integer >= 1"
        ok = isinstance(value, numbers.Integral) and value >= 1
    else:
        want = "a finite number in (0, 1)"
        ok = isinstance(value, numbers.Real) and 0 < value < 1
    if not ok or isinstance(value, (bool, np.bool_)):
        raise InvalidInput(f"{name} ({source}): expected {want}, got {value!r}")
    return value


class IndependenceStatus(Enum):
    HEURISTICALLY_INDEPENDENT = "heuristically_independent"
    DEPENDENT = "dependent"
    CONSTRUCTED_EXACT = "constructed_exact"
    SKIPPED = "skipped"


class SpectrumIndependenceVerdict(NamedTuple):
    """Outcome of the rational-independence scan of a diagonal spectrum.

    ``relation`` holds integer coefficients c with |c . (1, theta/2pi)| <=
    the reported ``residual`` when status is DEPENDENT (su mode drops the
    last phase from the vector).  ``residual`` is 0.0 for CONSTRUCTED_EXACT
    (no relation exists) and +inf for HEURISTICALLY_INDEPENDENT and SKIPPED.
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


def validate_set(raw: GeneratorSet) -> GeneratorSet:
    """Check each generator of a set, returning the set unchanged.

    Every :class:`GeneratorSet` runs this when built, after its own checks
    of the list, the labels and ``general_index``; call it again only to
    check a set whose arrays were changed in place.  Raises
    ValidationError, whose message names the offending generator by index
    (and label), if a matrix is not d x d or has a NaN or inf entry, or if,
    beyond the roundoff ``TAU_ROUNDOFF`` relative to its largest entry
    max|A|, some |A + A†| is nonzero, in su mode some trace is, or the
    designated generator has off-diagonal support.

    A degenerate designated spectrum is accepted: the criterion's hypothesis
    then fails, which :func:`uqc.check_universality` reports in its verdict.
    """
    d = raw.algebra.dim
    for j, gen in enumerate(raw.generators):
        A = gen.matrix
        if A.shape != (d, d):
            raise ValidationError(
                f"generator {j} ({gen.label}) has shape {A.shape}, expected {(d, d)}"
            )
        scale = linalg.max_abs(A)
        # a NaN or an infinity in A makes max|A| so, and so may finite
        # entries whose magnitude overflows
        if not math.isfinite(scale) and not np.isfinite(A).all():
            raise ValidationError(f"generator {j} ({gen.label}) has non-finite entries")
        # written so that a NaN defect fails
        if not linalg.max_abs(A + A.conj().T) <= TAU_ROUNDOFF * scale:
            raise ValidationError(f"generator {j} ({gen.label}) is not skew-Hermitian")
        if raw.algebra.kind == "su" and abs(np.trace(A)) > d * max(
            TAU_ROUNDOFF * scale, math.ulp(0.0)
        ):
            raise ValidationError(f"generator {j} ({gen.label}) has nonzero trace in su mode")

    # the entries of the designated generator off its diagonal, a view of
    # its matrix; their magnitudes are taken only if one of them is nonzero
    off = raw.designated.matrix.reshape(-1)[1:].reshape(d - 1, d + 1)[:, :d]
    if off.any() and linalg.max_abs(off) > TAU_ROUNDOFF * linalg.max_abs(raw.designated.matrix):
        raise ValidationError(
            f"generator {raw.general_index} ({raw.designated.label}) is designated but not diagonal"
        )
    return raw


def spectrum_is_degenerate(theta: np.ndarray) -> bool:
    """True if two phases coincide within ``TAU_SPECTRUM * max|theta|``."""
    theta = np.asarray(theta, dtype=float)
    if theta.size <= 1:
        return False
    # a gap between phases near -1e308 and 1e308 overflows to inf, which
    # is larger than any threshold: the answer stands without the warning
    with np.errstate(over="ignore"):
        sep = np.min(np.diff(np.sort(theta)))
    return bool(sep <= TAU_SPECTRUM * np.max(np.abs(theta)))


def _relation_vector(theta: np.ndarray, algebra: Algebra) -> np.ndarray:
    """(1, theta_1/2pi, ..., theta_k/2pi); su mode drops the last phase."""
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (algebra.dim,):
        raise InvalidInput(
            f"expected {algebra.dim} phases, got {theta.shape}"
        )
    k = algebra.dim if algebra.kind == "u" else algebra.dim - 1
    return np.concatenate([[1.0], theta[:k] / (2.0 * np.pi)])


def _reduce_row(H, yb, pivots: list, i: int, top: int, *, zero_pivot_ends: bool):
    """PSLQ's Hermite reduction of row i of H against rows top, ..., 0.

    ``yb`` row j holds y_j followed by column j of B.  For each column j
    from ``top`` down: t = floor(q + 1/2) for q = H_ij / H_jj, then
    H_i,:j+1 -= t * H_j,:j+1 and yb_j += t * yb_i.  ``pivots`` lists the
    H_jj, which the reduction leaves unchanged.  A zero pivot skips its
    column in the initial reduction and ends the row's reduction
    (``zero_pivot_ends``) in the iteration.

    t is evaluated exactly on the float64 q, by comparing q with floor(q) +
    1/2 (q + 1/2 would round), and a q exactly on a half-integer rounds
    down: mpmath truncates its fixed-point quotient downward, so it lands
    just below such a q.  Without either rule, seeded drifts with planted
    relations came back with relations other than mpmath's.
    """
    h = H[i]
    for j in range(top, -1, -1):
        p = pivots[j]
        if p == 0.0:
            if zero_pivot_ends:
                return
            continue
        q = h.item(j) / p
        t = q // 1.0  # floor, and nan rather than an error on inf
        if q > t + 0.5:
            t += 1.0
        if t:
            h[: j + 1] -= t * H[j, : j + 1]
            yb[j] += t * yb[i]


def _pslq_relation(x: np.ndarray, bound: int, tau_rel: float):
    """PSLQ integer-relation search in float64; None if none is found.

    A port of mpmath 1.3's PSLQ (Bailey's pseudocode for Ferguson-Bailey-
    Arno, Math. Comp. 68, 1999) to numpy rows in float64: the double-
    precision level of Bailey-Broadhurst's multi-level PSLQ.  The input
    holds 53 bits, so more working precision finds nothing more.  The rules
    are mpmath's: the pivot m maximises gamma^m |H_mm| with gamma =
    sqrt(4/3); a zero rotation norm t0 ends the search; the search stops
    once 1/max|H|/100 reaches ``bound`` (no relation with smaller
    coefficients is left) or after ``_PSLQ_MAXSTEPS`` iterations; the answer
    is the first column of B whose |y_i| < ``tau_rel`` (y scaled to unit
    length) and whose coefficients stay below ``bound``.  A zero entry, or
    one below ``tau_rel``/100, gives None.  Returns ``(coeffs, |coeffs.x|)``.
    """
    x = np.asarray(x, dtype=float)
    n = len(x)
    if n < 2 or not np.all(x) or np.min(np.abs(x)) < tau_rel / 100:
        return None
    with np.errstate(all="ignore"):
        # suffix norms s_k = |(x_k, ..., x_n)|, summed on x over a power of
        # two that brings max|x| below 2**500, so that no square overflows;
        # below that the power is 1.  y and s are scaled by |x|
        scale = 2.0 ** max(0, np.frexp(np.max(np.abs(x)))[1] - 500)
        s = np.sqrt(np.cumsum(((x / scale) ** 2)[::-1])[::-1]) * scale
        y = x / s[0]
        s = s / s[0]
        # H (n x n-1): s_k+1/s_k on the diagonal, -y_i y_j/(s_j s_j+1) below,
        # 0 where the divisor is (mpmath's guards)
        ss = s[:-1] * s[1:]
        below = np.tri(n, n - 1, -1, dtype=bool) & (ss != 0.0)
        H = np.divide(-np.outer(y, y[:-1]), ss, out=np.zeros((n, n - 1)), where=below)
        diag = np.divide(s[1:], s[:-1], out=np.zeros(n - 1), where=s[:-1] != 0.0)
        np.fill_diagonal(H, diag)
        yb = np.hstack([y[:, None], np.eye(n)])
        pivots = H.diagonal().tolist()
        for i in range(1, n):
            _reduce_row(H, yb, pivots, i, i - 1, zero_pivot_ends=False)

        gamma_pow = _PSLQ_GAMMA ** np.arange(1, n)
        for _ in range(_PSLQ_MAXSTEPS):
            m = int(np.argmax(gamma_pow * np.abs(H.diagonal())))
            H[[m, m + 1]] = H[[m + 1, m]]
            yb[[m, m + 1]] = yb[[m + 1, m]]
            if m <= n - 3:
                a, b = H[m, m], H[m, m + 1]
                t0 = math.sqrt(a * a + b * b)
                if t0 == 0.0:
                    break
                t1, t2 = a / t0, b / t0
                hm, hm1 = H[m:, m].copy(), H[m:, m + 1].copy()
                H[m:, m] = t1 * hm + t2 * hm1
                H[m:, m + 1] = t1 * hm1 - t2 * hm
            pivots = H.diagonal().tolist()
            for i in range(m + 1, n):
                _reduce_row(H, yb, pivots, i, min(i - 1, m + 1), zero_pivot_ends=True)

            for i in (np.abs(yb[:, 0]) < tau_rel).nonzero()[0]:
                coeffs = np.floor(yb[i, 1:] + 0.5)
                # as Python floats: a float64 against an int above 2**1024
                # raises OverflowError
                if float(np.max(np.abs(coeffs))) < bound:
                    coeffs = tuple(int(c) for c in coeffs)
                    return coeffs, abs(float(np.dot(coeffs, x)))
            recnorm = float(np.max(np.abs(H)))
            if recnorm == 0.0 or 1.0 / recnorm / 100.0 >= bound:
                break
    return None


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
    a certificate.  The search is PSLQ's, with mpmath's rule for ``bound``
    at every d: a relation counts only when max|c_i| < ``bound``, and its
    float64 residual must stay within ``tau_rel``.  A (near-)zero entry of
    the vector is the one relation found without PSLQ, so at ``bound`` 1
    nothing else can be found.  In su(1) the vector is (1,): nothing is.
    """
    validate_tolerance("relation_bound", bound)
    validate_tolerance("tau_rel", tau_rel)
    x = _relation_vector(np.asarray(theta, dtype=float), algebra)
    n = len(x)
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
        if residual <= tau_rel:
            return SpectrumIndependenceVerdict(
                IndependenceStatus.DEPENDENT, coeffs, bound, residual
            )
    return SpectrumIndependenceVerdict(
        IndependenceStatus.HEURISTICALLY_INDEPENDENT, None, bound, math.inf
    )


def _first_primes(n: int) -> list[int]:
    """The first n primes, sieved up to Rosser's bound n(ln n + ln ln n), n >= 6."""
    limit = 13 if n < 6 else int(n * (math.log(n) + math.log(math.log(n))))
    sieve = np.ones(limit + 1, dtype=bool)
    sieve[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if sieve[p]:
            sieve[p * p :: p] = False
    return np.flatnonzero(sieve)[:n].tolist()


def _constructed_phases(algebra: Algebra) -> np.ndarray:
    d = algebra.dim
    if algebra.kind == "u":
        return np.sqrt(_first_primes(d), dtype=float)
    head = np.sqrt(_first_primes(d - 1), dtype=float)
    return np.concatenate([head, [-head.sum()]])


def make_general_direction(algebra: Algebra) -> Generator:
    """Construct a diagonal generator with a provably independent spectrum.

    u(d): i*diag(sqrt(p_1), ..., sqrt(p_d)) over the first d primes; square
    roots of distinct primes are linearly independent over Q together with 1
    (Besicovitch, J. London Math. Soc. 15, 1940).
    su(d): same for the first d-1 primes, last phase set to minus their sum
    so the matrix is traceless.  Its label is ``drift``.
    """
    return Generator(matrix=np.diag(1j * _constructed_phases(algebra)), label="drift")


def is_constructed_direction(theta, algebra: Algebra) -> bool:
    """True if ``theta`` is :func:`make_general_direction`'s drift in any order.

    The sorted phases must equal sqrt of the first d primes bit for bit; in
    su mode only the d-1 largest are compared (sqrt of the first d-1 primes),
    since the trace, checked by :func:`validate_set`, fixes the last one.
    """
    skip = 0 if algebra.kind == "u" else 1
    want = np.sort(_constructed_phases(algebra))[skip:]
    return np.array_equal(np.sort(np.asarray(theta, dtype=float))[skip:], want)


def step_bound(norm: float) -> float:
    """pi / (2 * norm) for a generator of operator norm ``norm``; +inf for 0.

    The bound of a nonzero norm below pi / (2 * float64 max), about
    8.8e-309, is beyond float64 and is +inf too: every step is allowed.
    pi is halved rather than the norm doubled, so that a norm near the top
    of float64 keeps its bound (both are exact, so no other bound changes).
    """
    return math.inf if norm == 0.0 else (math.pi / 2.0) / norm


def least_step_bound(norms: list[float]) -> float:
    """The least :func:`step_bound` over the operator norms ``norms``: +inf
    when every generator is zero or has a bound beyond float64."""
    return min(map(step_bound, norms), default=math.inf)


def epsilon_bound(gen_set: GeneratorSet) -> float:
    """Largest step size keeping every exp(eps*X_j) within sqrt(2) of I.

    For a skew-Hermitian X with eigenphases lambda_k, the operator-norm
    distance ||exp(eps X) - I|| equals 2*max_k|sin(eps*lambda_k/2)|, which
    stays strictly below sqrt(2) for 0 < eps < pi/(2*||X||) and reaches it
    exactly at the bound.  Zero generators impose no constraint, so the
    bound of a set of zero generators is +inf.
    """
    return least_step_bound([linalg.operator_norm(gen.matrix) for gen in gen_set.generators])
