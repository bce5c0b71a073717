"""Exact Lie-closure cross-check for the graph criterion.

``lie_closure`` gives the dimension of the real Lie algebra generated by the
set, with no tolerance, as an independent count to compare against the
graph verdict.  Every float64 is a dyadic rational m * 2**e, so each entry
has an exact residue modulo an odd prime p, and the closure is grown over
GF(p) instead of R.  The dimension over GF(p) never exceeds the rational
one (an integral basis of the rational closure, reduced mod p, spans the
closure mod p) and equals it for all but finitely many p; the larger of two
primes' dimensions is reported, the second prime tried only when the first
falls short of the target.

The set is read as the graph reads it, through the masks of
:func:`uqc.universality.coupling_masks`: the designated generator by its
diagonal, every other one without its entries at or below ``tau_edge *
max|A|``, the one edge rule.  Of each matrix the closure takes the
skew-Hermitian part, and in su mode the traceless part, both exactly.  The
algebra generated by S is spanned by S and the right-nested brackets
[s1, [s2, [..., sm]]] of its elements (Jacobi identity), so each element
is bracketed only with the seeds, a basis of span S, through
``linalg.commutator`` and a block of at most ``_BLOCK`` brackets at a
time.  The basis is kept in reduced row-echelon form over GF(p), each
element as the 2 d^2 real and imaginary parts of its matrix.
``closure_block_partition`` reads the block structure of the closure off
the entries where some element of it is nonzero, through the graph's
:func:`~uqc.universality.graph_of`.  The closure is a desk-scale tool
with a hard cap at d = CLOSURE_DIM_LIMIT.
"""

from __future__ import annotations

import numpy as np

from . import linalg
from .errors import InvalidInput
# validate_set is not called here; bench/tracing.py wraps the name in this module
from .generators import GeneratorSet, _Record, validate_set
from .universality import TAU_EDGE, connected_components, coupling_masks, graph_of

#: the primes of the closure, below 2**21: a product of two residues is
#: below 2**42, so a sum of up to 2**10 such products is an exact float64
#: integer below 2**52.  At d <= CLOSURE_DIM_LIMIT no sum the closure forms
#: has more: 4d per entry of a commutator, d^2 per entry of a row reduced
#: against the basis or by the pivot rows of its block
_PRIMES = (2097143, 2097133)
#: commutators per block; it bounds the closure's working memory at a few
#: blocks of d x d matrices
_BLOCK = 64
#: hard cap for lie_closure: the work grows about as k d^6 for k seeds (each
#: of up to d^2 basis elements bracketed with every seed, each bracket
#: reduced against the basis).  The cap keeps exit codes stable
CLOSURE_DIM_LIMIT = 20


class LieClosureReport(_Record):
    """The generated real Lie algebra, exactly; equal only to itself.

    ``support`` is the d x d boolean array of the entries where some element
    of the closure is nonzero.  ``rounds`` counts frontier generations: the
    elements added in one generation are bracketed with the seeds in the
    next.
    """

    __slots__ = ("support", "dimension", "target_dimension", "rounds")

    def __init__(self, support: np.ndarray, dimension: int, target_dimension: int, rounds: int):
        self._fill(support, dimension, target_dimension, rounds)


def _mod(X: np.ndarray, p: int) -> np.ndarray:
    """X, of exact float64 integers below 2**52 in magnitude, reduced mod p
    into [-(p + 1)/2 - 2, (p + 1)/2 + 2]; a multiple of p gives exactly 0.

    The quotient is rounded from ``X * (1 / p)``, which is off by less than
    2**-20, so only an X about halfway between two multiples of p can take
    the other one.
    """
    return X - np.rint(X * (1.0 / p)) * p


def _residues(X: np.ndarray, p: int) -> np.ndarray:
    """The float64 entries of X exactly mod p, as :func:`_mod` gives them.

    An entry is m * 2**(e - 53) for the integer m = mantissa * 2**53 that
    ``frexp`` gives; 2**(e - 53) mod p is worked out once per exponent
    present.
    """
    mantissa, e = np.frexp(X)
    exps, at = np.unique(e, return_inverse=True)
    twos = np.array([pow(2, int(k) - 53, p) for k in exps], dtype=float)
    return _mod(np.fmod(mantissa * 2.0**53, p) * twos[at].reshape(e.shape), p)


class _Closure:
    """Reduced row-echelon basis of the closure over GF(p).

    Row i of ``rows`` is an element's matrix as 2 d^2 real numbers (real
    and imaginary part of each entry, the layout of a complex array viewed
    as float), each a residue as :func:`_mod` gives it; it is 1 at column
    ``pivots[i]``, where every other row is 0.  The first ``k`` rows, the
    seeds, are admitted from the generators and span them.
    """

    def __init__(self, G: np.ndarray, p: int, traceless: bool):
        k, d, _ = G.shape
        self.p, self.d, self.n = p, d, 0
        self.rows = np.zeros((d * d, 2 * d * d))
        self.pivots = np.zeros(d * d, dtype=np.intp)
        half = (p + 1) // 2
        re, im = _residues(G.real, p), _residues(G.imag, p)
        # the skew-Hermitian part (A - A^H) / 2: its real part is
        # antisymmetric and its imaginary part symmetric
        S = np.empty((k, d, d), dtype=complex)
        S.real = _mod((re - re.transpose(0, 2, 1)) * half, p)
        S.imag = _mod((im + im.transpose(0, 2, 1)) * half, p)
        if traceless:
            # less tr/d on the diagonal; the trace is imaginary
            trace = _mod(np.trace(S.imag, axis1=1, axis2=2) * pow(d, -1, p), p)
            S.imag[:, range(d), range(d)] = _mod(S.imag[:, range(d), range(d)] - trace[:, None], p)
        self.admit(S.reshape(k, -1).view(float))
        self.k = self.n
        self.seeds = self.matrices(np.arange(self.k))

    def matrices(self, idx: np.ndarray) -> np.ndarray:
        """The rows ``idx`` as a stack of d x d complex matrices."""
        return self.rows[idx].view(complex).reshape(-1, self.d, self.d)

    def admit(self, W: np.ndarray) -> None:
        """Add the rows of W that reach outside the span, keeping the form.

        W is reduced against the basis, then brought to reduced row-echelon
        form itself, a row at a time; its nonzero rows join the basis, and
        their pivot columns are cleared from the rows already there.  Each
        step reduces only the pivot row and the multipliers: the other
        entries of W gain one product of residues a step, and there are at
        most d^2 steps.
        """
        p, n = self.p, self.n
        if n:
            W = _mod(W - W[:, self.pivots[:n]] @ self.rows[:n], p)
        W = W[W.any(axis=1)]
        new = []
        for i in range(len(W)):
            row = _mod(W[i], p)
            nonzero = row.nonzero()[0]
            if not nonzero.size:
                continue
            c = nonzero[0]
            row = _mod(row * pow(int(row[c]), -1, p), p)
            W -= np.outer(_mod(W[:, c], p), row)
            W[i] = row
            new.append((i, c))
        if not new:
            return
        at, cols = np.array(new).T
        N = _mod(W[at], p)
        if n:
            self.rows[:n] = _mod(self.rows[:n] - self.rows[:n, cols] @ N, p)
        self.rows[n : n + len(at)] = N
        self.pivots[n : n + len(at)] = cols
        self.n += len(at)

    def grow(self) -> int:
        """Bracket each frontier generation with the seeds; return the count.

        The first frontier is the seeds themselves, of which [s_i, s_j] for
        j < i alone is bracketed: the others are zero or the negative of one
        of those.  A row's bracket with a seed is a commutator of residues,
        exact as an integer, taken mod p.
        """
        generations, lo = 0, 0
        while lo < self.n:
            generations += 1
            I, J = np.divmod(np.arange(lo * self.k, self.n * self.k), self.k)
            keep = J < I
            I, J = I[keep], J[keep]
            lo = self.n
            for b in range(0, len(I), _BLOCK):
                block = slice(b, b + _BLOCK)
                C = linalg.commutator(self.matrices(I[block]), self.seeds[J[block]])
                self.admit(_mod(C.reshape(len(C), -1).view(float), self.p))
        return generations


def lie_closure(gen_set: GeneratorSet, tau_edge: float = TAU_EDGE) -> LieClosureReport:
    """Lie_R<generators> of a validated set, exactly, by iterated commutators.

    Seeds the basis with the entries of each generator that its mask at
    ``tau_edge`` keeps, as the graph reads them, then grows it a frontier
    generation at a time: the elements added in one generation are
    bracketed with the k seeds (k <= the number of generators), a block of
    commutators at a time, and those outside the span join the basis; n
    basis elements cost n*k commutators, not n(n-1)/2.  The dimension is
    the larger over the primes tried, a lower bound of the rational one that
    equals it for all but finitely many primes.

    Raises InvalidInput for d > CLOSURE_DIM_LIMIT.
    """
    masks = coupling_masks(gen_set, tau_edge)
    d = gen_set.dim
    if d > CLOSURE_DIM_LIMIT:
        raise InvalidInput(
            f"the Lie-closure oracle is capped at d = {CLOSURE_DIM_LIMIT} "
            f"(got d = {d}); use the coupling-graph check instead"
        )
    G = np.array([np.where(kept, gen.matrix, 0) for gen, kept in zip(gen_set.generators, masks)])
    target = gen_set.algebra.target_dimension
    best = None
    for p in _PRIMES:
        closure = _Closure(G, p, gen_set.algebra.kind == "su")
        rounds = closure.grow()
        if best is None or closure.n > best[0].n:
            best = closure, rounds
        if closure.n == target:
            break
    closure, rounds = best
    n = closure.n
    support = closure.rows[:n].any(axis=0).reshape(d, d, 2).any(axis=2)
    return LieClosureReport(support, n, target, rounds)


def closure_block_partition(report: LieClosureReport) -> tuple[tuple[int, ...], ...]:
    """Block partition induced by the closure itself.

    ``report.support`` is the one mask of :func:`graph_of`: every
    off-diagonal entry of it is an edge.  The connected components are
    ordered like the generator-level partition for direct comparison.
    """
    return tuple(tuple(c) for c in connected_components(graph_of([report.support])))
