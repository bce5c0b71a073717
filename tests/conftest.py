"""Shared builders for golden systems and random instances."""

from __future__ import annotations

import contextlib
import signal

import numpy as np

from uqc import Algebra, Generator, GeneratorSet, make_general_direction
from uqc.errors import InvalidInput


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
                isinstance(re, (int, float)) and isinstance(im, (int, float)),
                f"{at}: entries must be numbers, got {value!r}",
            )
            M[i, k] = complex(re, im)
    return M


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
