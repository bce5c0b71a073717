"""Shared builders for golden systems and random instances."""

from __future__ import annotations

import contextlib
import json
import math
import os
import signal
from fractions import Fraction
from pathlib import Path

import numpy as np

import uqc
from uqc import (
    Algebra,
    Generator,
    GeneratorSet,
    LieClosureReport,
    make_general_direction,
)
from uqc.errors import InvalidInput
from uqc.universality import TAU_EDGE, graph_of, kept_entries


def uqc_env() -> dict:
    """The environment of a fresh interpreter that imports this uqc."""
    paths = [str(Path(uqc.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))


def three_level_set() -> GeneratorSet:
    """u(3): drift i*diag(sqrt2, sqrt3, sqrt5) plus a rotation in span{e1,e2}.

    Reducible: the rotation never couples index 3.
    """
    drift = Generator(np.diag(1j * np.sqrt([2.0, 3.0, 5.0])), "drift")
    X2 = np.zeros((3, 3), dtype=complex)
    X2[0, 1] = 1.0
    X2[1, 0] = -1.0
    return GeneratorSet(Algebra("u", 3), (drift, Generator(X2, "rot12")))


_PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]])
_PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]])


def two_qubit_set(full: bool = False) -> GeneratorSet:
    """su(4) drift-plus-drive system in the lexicographic product basis.

    Drift: -i(w1 Z(x)I + w2 I(x)Z + J Z(x)Z) with (w1, w2, J) = (sqrt2,
    sqrt3, sqrt5), whose spectrum is non-degenerate and heuristically
    independent.  One local drive -i(X(x)I) couples {1,3} and {2,4} only;
    ``full`` adds the second drive -i(I(x)X) and connects everything.
    """
    w1, w2, J = np.sqrt(2.0), np.sqrt(3.0), np.sqrt(5.0)
    H = (
        w1 * np.kron(_PAULI_Z, np.eye(2))
        + w2 * np.kron(np.eye(2), _PAULI_Z)
        + J * np.kron(_PAULI_Z, _PAULI_Z)
    )
    gens = [
        Generator(-1j * H.astype(complex), "drift"),
        Generator(-1j * np.kron(_PAULI_X, np.eye(2)).astype(complex), "drive1"),
    ]
    if full:
        gens.append(
            Generator(-1j * np.kron(np.eye(2), _PAULI_X).astype(complex), "drive2")
        )
    return GeneratorSet(Algebra("su", 4), tuple(gens))


def ladder_set(kind: str, d: int) -> GeneratorSet:
    """The equally spaced ladder: drift i*diag(0, 1, ..., d-1), made
    traceless in su mode, and the uniform real chain sum_r E_r,r+1 - E_r+1,r.

    Both preserve the antidiagonal form Omega_r,d-1-r = (-1)^r, which is
    antisymmetric for even d and symmetric for odd d, so the closure is
    sp(d/2) or so(d), plus the identity direction in u mode: see
    :func:`ladder_dimension`.
    """
    theta = np.arange(d, dtype=float)
    if kind == "su":
        theta -= theta.mean()
    chain = np.zeros((d, d))
    r = np.arange(d - 1)
    chain[r, r + 1], chain[r + 1, r] = 1.0, -1.0
    gens = (Generator(np.diag(1j * theta), "drift"), Generator(chain, "chain"))
    return GeneratorSet(Algebra(kind, d), gens)


def ladder_dimension(kind: str, d: int) -> int:
    """The closure dimension of :func:`ladder_set`: d(d+1)/2 for even d and
    d(d-1)/2 for odd d, plus 1 in u mode."""
    return (d * (d + 1) // 2 if d % 2 == 0 else d * (d - 1) // 2) + (kind == "u")


def random_skew(rng: np.random.Generator, d: int) -> np.ndarray:
    """Dense random skew-Hermitian matrix."""
    M = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return (M - M.conj().T) / 2.0


def random_sparse_offdiag(rng: np.random.Generator, d: int, p: float = 0.3) -> np.ndarray:
    """Random skew-Hermitian with only off-diagonal support.

    Each unordered index pair is coupled independently with probability p.
    """
    M = np.zeros((d, d), dtype=complex)
    for r in range(d):
        for l in range(r + 1, d):
            if rng.random() < p:
                z = rng.standard_normal() + 1j * rng.standard_normal()
                M[r, l] = z
                M[l, r] = -np.conj(z)
    return M


def random_instance(
    rng: np.random.Generator, d: int, m: int, kind: str, p: float = 0.3
) -> GeneratorSet:
    """Constructed drift plus m-1 random sparse off-diagonal generators."""
    algebra = Algebra(kind, d)
    gens = [make_general_direction(algebra)]
    for j in range(m - 1):
        gens.append(Generator(random_sparse_offdiag(rng, d, p), f"rand{j + 1}"))
    return GeneratorSet(algebra, tuple(gens))


def reachable_from(graph, start: int) -> set[int]:
    """Fixed-point expansion of {start} along edges (plain BFS).

    Test-only reference for the union-find in ``connected_components``: it
    equals the connected component of ``start`` for any start vertex.
    """
    adj: dict[int, list[int]] = {v: [] for v in range(graph.dim)}
    for r, l in graph.edges:
        adj[r].append(l)
        adj[l].append(r)
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for v in frontier:
            for w in adj[v]:
                if w not in seen:
                    seen.add(w)
                    nxt.append(w)
        frontier = nxt
    return seen


def invariant_subspaces_reference(gen_set: GeneratorSet) -> list[tuple[int, ...]]:
    """Every nontrivial proper invariant coordinate subspace, by enumeration.

    Test-only reference for ``connected_components``: a 0-based index set S
    is invariant when no generator (designated included) carries weight
    between S and its complement.  Every edge {r, l} of the coupling graph
    gives the two constraints "l in S implies r in S" and its reverse; all
    2^d - 2 candidate subsets are tested at once, with no connectivity
    reasoning, so the result must be the unions of connected components.
    """
    d = gen_set.dim
    graph = graph_of([kept_entries(g.matrix, TAU_EDGE) for g in gen_set.generators])
    masks = np.arange(1 << d, dtype=np.uint64)
    ok = np.ones(1 << d, dtype=bool)
    for r, l in graph.edges:
        in_r = (masks >> np.uint64(r)) & np.uint64(1)
        in_l = (masks >> np.uint64(l)) & np.uint64(1)
        ok &= in_r == in_l
    ok[0] = ok[-1] = False  # exclude empty and full
    found = [tuple(v for v in range(d) if (m >> v) & 1) for m in np.flatnonzero(ok).tolist()]
    return sorted(found, key=lambda s: (len(s), s))


def parse_matrix_reference(rows, d: int, where: str) -> np.ndarray:
    """Entry-by-entry parse of a ``matrix`` field, one ``complex()`` a time.

    Test-only reference for ``uqc.io._parse_matrix``, written apart from
    it: for well-formed finite input both return the same matrix, and for
    malformed input both raise InvalidInput with the same message.
    """

    def require(cond, message):
        if not cond:
            raise InvalidInput(message)

    require(isinstance(rows, list), f"{where}: matrix must be a list of rows")
    require(len(rows) == d, f"{where}: expected {d} rows, got {len(rows)}")
    M = np.zeros((d, d), dtype=complex)
    for i, row in enumerate(rows):
        require(isinstance(row, list), f"{where} row {i + 1}: expected a list")
        require(len(row) == d, f"{where} row {i + 1}: expected {d} entries, got {len(row)}")
        for k, value in enumerate(row):
            at = f"{where} row {i + 1} column {k + 1}"
            require(
                isinstance(value, (list, tuple)) and len(value) == 2,
                f"{at}: expected an [re, im] pair, got {value!r}",
            )
            re, im = value
            require(
                all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in (re, im)),
                f"{at}: entries must be numbers, got {value!r}",
            )
            M[i, k] = complex(re, im)
    return M


def pairs_reference(M: np.ndarray) -> list:
    """A 2-D array as rows of [re, im] pairs of plain floats, entry by entry.

    As json's ``default``, the test-only reference for ``uqc.io.write_document``:
    ``json.dumps(doc, separators=(",", ":"), allow_nan=False,
    default=pairs_reference)`` and a newline is the text it must write.
    """
    return [
        [[float(z.real), float(z.imag)] for z in row]
        for row in np.asarray(M, dtype=complex)
    ]


def json_document(doc: dict):
    """``doc`` as a reader of its JSON text gets it back, every matrix a
    list of rows of pairs."""
    return json.loads(json.dumps(doc, default=pairs_reference))


def pslq_reference(x: np.ndarray, bound: int, tau_rel: float):
    """mpmath's PSLQ at 40 digits: the relation search before the float64 port.

    Test-only reference for ``uqc.generators._pslq_relation``, with the same
    arguments and the same result: ``(coeffs, |coeffs . x|)`` or None.
    """
    from mpmath import mp, mpf, pslq

    with mp.workdps(40):
        vec = [mpf(float(v)) for v in x]
        try:
            rel = pslq(vec, tol=mpf(tau_rel), maxcoeff=bound, maxsteps=10_000)
        except ValueError:
            # pslq refuses (near-)zero entries
            return None
    if rel is None:
        return None
    coeffs = tuple(int(c) for c in rel)
    return coeffs, abs(float(np.dot(coeffs, x)))


def lie_closure_exact(gen_set: GeneratorSet, tau_edge: float = TAU_EDGE) -> LieClosureReport:
    """The closure over Q, in exact rational arithmetic, one vector a time.

    Test-only reference for ``uqc.lie_closure``, written apart from it.  It
    reads the set as the graph does: the designated generator by its
    diagonal, every other one without its entries at or below ``tau_edge *
    max|A|``.  Each float64 entry is the ``Fraction`` it equals; of each
    matrix it takes the skew-Hermitian part, and in su mode subtracts
    tr/d, exactly.  Every element is then a vector of the real and then
    imaginary parts of its entries, scaled to integers (the span does not
    see the scale), and the closure is grown by bracketing each new element
    with every generator and reducing the bracket, fraction-free, against
    an echelon basis in insertion order.  ``support`` is where some element
    is nonzero; ``rounds`` counts the generations.
    """
    d = gen_set.dim
    traceless = gen_set.algebra.kind == "su"

    def read(j, A):
        if j == gen_set.general_index:
            return np.diag(np.diagonal(A))
        return np.where(kept_entries(A, tau_edge), A, 0)

    def exact(A):
        re = [[Fraction(float(z.real)) for z in row] for row in A]
        im = [[Fraction(float(z.imag)) for z in row] for row in A]
        # the skew-Hermitian part: (re - re^T) / 2 + i (im + im^T) / 2
        M_re = [[(re[r][c] - re[c][r]) / 2 for c in range(d)] for r in range(d)]
        M_im = [[(im[r][c] + im[c][r]) / 2 for c in range(d)] for r in range(d)]
        if traceless:
            shift = sum(M_im[r][r] for r in range(d)) / d
            for r in range(d):
                M_im[r][r] -= shift
        return integral(np.array([x for row in M_re + M_im for x in row], dtype=object))

    def integral(v):
        scale = math.lcm(*(Fraction(x).denominator for x in v))
        v = np.array([int(Fraction(x) * scale) for x in v], dtype=object)
        g = math.gcd(*v.tolist())
        return v // g if g else v

    def matrices(v):
        return v[: d * d].reshape(d, d), v[d * d :].reshape(d, d)

    def bracket(u, w):
        (a, b), (c, e) = matrices(u), matrices(w)
        re = a.dot(c) - b.dot(e) - c.dot(a) + e.dot(b)
        im = a.dot(e) + b.dot(c) - c.dot(b) - e.dot(a)
        return np.concatenate([re.ravel(), im.ravel()])

    basis = []  # (pivot, primitive integer vector), zero at earlier pivots

    def add(v):
        for c, b in basis:
            if v[c]:
                v = v * b[c] - b * v[c]
        nonzero = np.flatnonzero(v != 0)
        if not nonzero.size:
            return False
        basis.append((int(nonzero[0]), v // math.gcd(*v.tolist())))
        return True

    gens = [exact(read(j, g.matrix)) for j, g in enumerate(gen_set.generators)]
    frontier = [v for v in gens if add(v)]
    rounds = 0
    while frontier:
        rounds += 1
        new = []
        for u in frontier:
            for g in gens:
                C = bracket(u, g)
                if add(C):
                    new.append(C)
        frontier = new
    support = np.zeros((d, d), dtype=bool)
    for _, b in basis:
        re, im = matrices(b != 0)
        support |= re | im
    return LieClosureReport(
        support=support,
        dimension=len(basis),
        target_dimension=gen_set.algebra.target_dimension,
        rounds=rounds,
    )


@contextlib.contextmanager
def time_limit(seconds: float):
    """Raise TimeoutError in the block after ``seconds`` instead of hanging.

    Uses SIGALRM, so it works only in the main thread (where pytest runs
    tests).
    """

    def on_alarm(signum, frame):
        raise TimeoutError(f"did not finish within {seconds} s")

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
