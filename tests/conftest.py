"""Shared builders for golden systems and random instances."""

from __future__ import annotations

import contextlib
import json
import signal

import numpy as np

from uqc import (
    Algebra,
    Generator,
    GeneratorSet,
    LieClosureReport,
    commutator,
    make_general_direction,
    validate_set,
)
from uqc.errors import InvalidInput, NumericalFailure
from uqc.universality import TAU_EDGE, extract_coupling_graph


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
    graph = extract_coupling_graph(d, [g.matrix for g in gen_set.generators], TAU_EDGE)
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

    Test-only reference for the vectorised ``uqc.io._parse_matrix``: for
    well-formed finite input both return the same matrix, and for malformed
    input both raise InvalidInput with the same message.
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


def embed_real(A: np.ndarray) -> np.ndarray:
    """Real parts row-major, then imaginary parts: an isometry C^(dxd) -> R^(2d^2)."""
    return np.concatenate([A.real.ravel(), A.imag.ravel()])


def lie_closure_reference(gen_set: GeneratorSet, tau_rank: float = 1e-10) -> LieClosureReport:
    """Per-pair Lie closure in the raw 2d^2 real embedding, one vector a time.

    Test-only reference for the blocked ``uqc.lie_closure``: the same
    growth, acceptance and certification rules (``TAU_GROWTH_FLOOR`` 1e-6,
    eight certification cycles), one commutator and one two-pass
    projection per pair.  Its ``basis`` rows live in the embedding of
    :func:`embed_real`.
    """
    gen_set = validate_set(gen_set)
    d = gen_set.dim
    tau_growth = max(tau_rank, 1e-6)
    traceless = gen_set.algebra.kind == "su"

    def unembed(v):
        return v[: d * d].reshape(d, d) + 1j * v[d * d :].reshape(d, d)

    def structure_project(M):
        M = (M - M.conj().T) / 2.0
        if traceless:
            M = M - (np.trace(M) / d) * np.eye(d)
        return M

    def orthogonalize(v, basis):
        for _ in range(2):
            v = v - basis.T @ (basis @ v)
        return v

    basis = np.zeros((0, 2 * d * d))
    mats: list[np.ndarray] = []

    def try_add(M, tau, scale=None):
        nonlocal basis
        v = embed_real(structure_project(M))
        nrm = float(np.linalg.norm(v))
        if nrm == 0.0:
            return False
        w = orthogonalize(v, basis)
        left = float(np.linalg.norm(w))
        if left <= tau * (nrm if scale is None else max(nrm, scale)):
            return False
        if len(mats) == d * d:
            raise NumericalFailure("closure dimension exceeded the guard")
        u = w / left
        u = embed_real(structure_project(unembed(u)))
        u = orthogonalize(u, basis)
        u /= np.linalg.norm(u)
        basis = np.vstack([basis, u])
        mats.append(unembed(u))
        return True

    def sweep(frontier):
        count = 0
        while frontier:
            count += 1
            new_frontier = []
            for i in frontier:
                for j in range(len(mats)):
                    if i != j and try_add(commutator(mats[i], mats[j]), tau_growth, 1.0):
                        new_frontier.append(len(mats) - 1)
            frontier = new_frontier
        return count

    seeds = [len(mats) - 1 for g in gen_set.generators if try_add(g.matrix, tau_rank)]
    rounds = sweep(seeds)
    for _ in range(8):
        residual_max = 0.0
        offenders = []
        for i in range(len(mats)):
            for j in range(i + 1, len(mats)):
                C = commutator(mats[i], mats[j])
                v = embed_real(C)
                nrm = float(np.linalg.norm(v))
                left = float(np.linalg.norm(orthogonalize(v, basis)))
                residual_max = max(residual_max, left / max(1.0, nrm))
                if left > tau_rank * max(1.0, nrm):
                    offenders.append(C)
        if not offenders:
            break
        frontier = [len(mats) - 1 for C in offenders if try_add(C, tau_rank, 1.0)]
        rounds += sweep(frontier)
    else:
        raise NumericalFailure("closure certification did not stabilize")
    return LieClosureReport(
        dim=d,
        basis_matrices=tuple(mats),
        dimension=len(mats),
        target_dimension=gen_set.algebra.target_dimension,
        rounds=rounds,
        residual_max=residual_max,
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
