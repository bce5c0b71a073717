"""Seeded input documents with a planted truth, and the checks of uqc's answers.

Document ``i`` of a workload is a pure function of ``(seed, workload, i)``,
so one seed always gives byte-identical documents however many a run uses.
Sizes come in fixed blocks: every block of a workload holds the same
(dimension, variant) pairs, spread evenly over the workload's range of d,
in an order the seed shuffles.  A timed run is whole blocks, so it does the
same amount of work at every seed, and the even spread of sizes keeps its
median and tail away from jumps between size classes; the drift, the
couplings, the planted blocks and the prime order all come from the seed.

Each document carries its truth under the key ``planted``, which uqc
ignores: the planted basis partition (1-based, ordered by smallest member)
and, for drift-scan workloads, the drift family.  Drift families:

- ``sqrtprime``: square roots of distinct primes in random order, which are
  rationally independent together with 1 (expected status ``universal``);
- ``relation``: the same with one planted relation theta_l = theta_i +
  theta_j (expected ``conditionally_universal``);
- ``random``: uniform random phases, whose truth is unknown (timing only).

Drifts and sizes are not chosen to avoid the scan's known false verdicts.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

FAMILIES = ("sqrtprime", "relation", "random")
EXPECTED_STATUS = {"sqrtprime": "universal", "relation": "conditionally_universal"}
CONNECTED_STATUSES = ("universal", "conditionally_universal")


@dataclass(frozen=True)
class Workload:
    name: str
    uid: int
    #: (dimension, variant) pairs making up one block
    block: tuple
    #: nominal wall seconds of one block of timed invocations on a 2-core
    #: Xeon VM; a timed run of S seconds is round(S / block_seconds) blocks
    block_seconds: float
    #: documents of the traced run
    trace_docs: int
    why: str

    def timed_docs(self, seconds: float) -> int:
        """Documents in a timed run of ``seconds``: whole blocks, at least one."""
        return len(self.block) * max(1, round(seconds / self.block_seconds))


def _ramp(lo: int, hi: int, n: int) -> list[int]:
    return [lo + round(k * (hi - lo) / (n - 1)) for k in range(n)]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "check_large",
            1,
            # variant: number of generators, drift included
            tuple((d, 3 + k % 3) for k, d in enumerate(_ramp(128, 256, 16))),
            16.0,
            12,
            "uqc check at d 128-256 with sparse couplings: the read path "
            "(json.load, per-entry parse, validation, epsilon); no scan",
        ),
        Workload(
            "check_scan",
            2,
            # variant k: drift family k % 3, algebra u or su by (k // 3) % 2
            tuple((d, k) for k, d in enumerate(_ramp(8, 32, 30))),
            16.0,
            18,
            "uqc check at d 8-32 on connected sets with sqrt-prime, planted-"
            "relation and random drifts: the PSLQ drift-spectrum scan",
        ),
        Workload(
            "oracle",
            3,
            # variant k: connected when even, else 2 or 3 blocks by (k // 2) % 2;
            # drift family k % 3; algebra u or su by (k // 4) % 2
            tuple((d, k) for k, d in enumerate(_ramp(6, 12, 24))),
            16.0,
            16,
            "uqc check --oracle at d 6-12, half connected, half blocked: "
            "the Lie-closure oracle",
        ),
        Workload(
            "repair",
            4,
            # variant: planted component count, from d/4 to d (diagonal-only)
            # with the share scrambled against d
            tuple(
                (d, max(2, round(d * (1 + 3 * (5 * k % 8) / 7) / 4)))
                for k, d in enumerate(_ramp(40, 72, 8))
            ),
            16.0,
            8,
            "uqc repair --out at d 40-72 with d/4 to d components: the dense "
            "JSON write path and the repair layer",
        ),
    )
}


@dataclass(frozen=True)
class Doc:
    index: int
    text: str
    truth: dict


def _rng(seed: int, workload: Workload, *key: int) -> np.random.Generator:
    return np.random.default_rng([seed, workload.uid, *key])


def doc_shape(workload: Workload, seed: int, index: int) -> tuple[int, int]:
    """(dimension, variant) of document ``index``."""
    size = len(workload.block)
    blk, pos = divmod(index, size)
    return workload.block[int(_rng(seed, workload, blk, 0).permutation(size)[pos])]


def _first_primes(n: int) -> list[int]:
    primes: list[int] = []
    c = 2
    while len(primes) < n:
        if all(c % p for p in primes):
            primes.append(c)
        c += 1
    return primes


def _partition(rng, d: int, k: int, balanced: bool = False) -> list[list[int]]:
    """Random partition of range(d) into k non-empty parts, canonical order.

    ``balanced`` makes the part sizes as equal as possible; only the members
    are then random.
    """
    perm = rng.permutation(d)
    if balanced:
        cuts = [round(i * d / k) for i in range(1, k)]
    else:
        cuts = np.sort(rng.choice(np.arange(1, d), size=k - 1, replace=False)) if k > 1 else []
    parts = [sorted(int(v) for v in p) for p in np.split(perm, cuts)]
    return sorted(parts, key=lambda p: p[0])


def _coupling(rng) -> tuple[float, float]:
    mag = rng.uniform(0.5, 1.5)
    phase = rng.uniform(0.0, 2.0 * math.pi)
    return mag * math.cos(phase), mag * math.sin(phase)


def _couplings(rng, parts, n_gens: int) -> list[dict]:
    """Sparse skew-Hermitian couplings inside each part, about two entries a row.

    The first generator holds a random spanning tree of every part, so the
    parts are exactly the connected components; each further generator adds
    one random partner per vertex inside its part.
    """
    gens = [dict() for _ in range(n_gens)]

    def put(entries, r, c):
        if r == c:
            return
        re, im = _coupling(rng)
        entries[(r, c)] = (re, im)
        entries[(c, r)] = (-re, im)

    for part in parts:
        order = [part[i] for i in rng.permutation(len(part))]
        for t in range(1, len(order)):
            put(gens[0], order[t], order[int(rng.integers(t))])
        for entries in gens[1:]:
            for v in part:
                put(entries, v, part[int(rng.integers(len(part)))])
    return gens


def _drift(rng, algebra: str, d: int, family: str) -> list[float]:
    """Drift phases theta; i*diag(theta) is traceless in su mode."""
    k = d if algebra == "u" else d - 1
    if family == "random":
        while True:
            theta = rng.uniform(-3.0, 3.0, size=k)
            full = theta if algebra == "u" else np.append(theta, -theta.sum())
            if np.min(np.diff(np.sort(full))) > 1e-6:
                break
    else:
        theta = np.sqrt(np.array(_first_primes(k), dtype=float))[rng.permutation(k)]
        if family == "relation":
            i, j, l = (int(x) for x in rng.choice(k, size=3, replace=False))
            theta[l] = theta[i] + theta[j]
    if algebra == "su":
        theta = np.append(theta, -theta.sum())
    return [float(t) for t in theta]


_ZERO = "[0.0,0.0]"


def _matrix_json(d: int, entries: dict) -> str:
    by_row: dict[int, list] = {}
    for (r, c), value in entries.items():
        by_row.setdefault(r, []).append((c, value))
    zero_row = "[" + ",".join([_ZERO] * d) + "]"
    rows = []
    for r in range(d):
        if r not in by_row:
            rows.append(zero_row)
            continue
        toks = [_ZERO] * d
        for c, (re, im) in by_row[r]:
            toks[c] = f"[{float(re)!r},{float(im)!r}]"
        rows.append("[" + ",".join(toks) + "]")
    return "[" + ",".join(rows) + "]"


def make_doc(workload: Workload, seed: int, index: int) -> Doc:
    d, variant = doc_shape(workload, seed, index)
    rng = _rng(seed, workload, index, 1)
    family = None
    algebra = "u"
    if workload.name == "check_large":
        n_gens = variant
        parts = _partition(rng, d, int(rng.integers(1, 5)))
        drift_family = "random"
    elif workload.name == "check_scan":
        n_gens = 2 + int(rng.integers(2))
        parts = [list(range(d))]
        family = drift_family = FAMILIES[variant % 3]
        algebra = ("u", "su")[variant // 3 % 2]
    elif workload.name == "oracle":
        n_gens = 2
        # the closure's cost grows steeply with block sizes: fix them per shape
        parts = _partition(rng, d, 1 if variant % 2 == 0 else 2 + variant // 2 % 2, balanced=True)
        family = drift_family = FAMILIES[variant % 3]
        algebra = ("u", "su")[variant // 4 % 2]
    else:  # repair
        n_gens = 2
        parts = _partition(rng, d, variant)
        drift_family = "random"
    theta = _drift(rng, algebra, d, drift_family)
    if all(len(p) == 1 for p in parts):
        couplings = []  # diagonal-only document
    else:
        couplings = _couplings(rng, parts, n_gens - 1)
    truth = {
        "algebra": algebra,
        "dimension": d,
        "generators": 1 + len(couplings),
        "blocks": [[v + 1 for v in p] for p in parts],
        "family": family,
    }
    gens = ['{"label":"drift","matrix":%s}' % _matrix_json(
        d, {(r, r): (0.0, t) for r, t in enumerate(theta)})]
    for j, entries in enumerate(couplings):
        gens.append('{"label":"c%d","matrix":%s}' % (j + 1, _matrix_json(d, entries)))
    text = '{"algebra":"%s","dimension":%d,"general_index":0,"planted":%s,"generators":[%s]}\n' % (
        algebra, d, json.dumps(truth, separators=(",", ":")), ",".join(gens))
    return Doc(index=index, text=text, truth=truth)


# ---------------------------------------------------------------------------
# checking uqc's answers


def components_of(doc: dict) -> list[list[int]]:
    """1-based components of a generator-set document's coupling graph.

    Computed here from the off-diagonal support of every generator except
    the designated one, independently of uqc's own graph code.
    """
    d = doc["dimension"]
    parent = list(range(d))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for j, gen in enumerate(doc["generators"]):
        if j == doc.get("general_index", 0):
            continue
        support = np.any(np.asarray(gen["matrix"], dtype=float) != 0.0, axis=-1)
        np.fill_diagonal(support, False)
        for r, c in zip(*np.nonzero(support)):
            ra, rc = find(int(r)), find(int(c))
            if ra != rc:
                parent[max(ra, rc)] = min(ra, rc)
    groups: dict[int, list[int]] = {}
    for v in range(d):
        groups.setdefault(find(v), []).append(v + 1)
    return sorted(groups.values(), key=lambda g: g[0])


def check_answer(workload: Workload, truth: dict, out: dict, repaired: dict | None):
    """Problem with one graph-level answer, or None when it matches the truth."""
    blocks = truth["blocks"]
    if workload.name == "repair":
        n_bridges = len(out["repair"]["bridges"])
        if n_bridges != len(blocks) - 1:
            return f"{n_bridges} bridges for {len(blocks)} planted components"
        if out["status"] not in CONNECTED_STATUSES or len(out["components"]) != 1:
            return f"repaired verdict is {out['status']} with {len(out['components'])} components"
        if repaired is None:
            return "no repaired document"
        if repaired["dimension"] != truth["dimension"]:
            return "repaired document has the wrong dimension"
        if len(repaired["generators"]) != truth["generators"] + n_bridges:
            return "repaired document has the wrong generator count"
        if len(components_of(repaired)) != 1:
            return "repaired document is not connected"
        return None
    if out["status"] not in (CONNECTED_STATUSES if len(blocks) == 1 else ("reducible",)):
        return f"status {out['status']} for {len(blocks)} planted blocks"
    if out["components"] != blocks:
        return "components differ from the planted blocks"
    if out["block_sizes"] != [len(b) for b in blocks]:
        return "block_sizes differ from the planted blocks"
    if out["permutation"] != [v for b in blocks for v in b]:
        return "permutation differs from the planted blocks"
    if workload.name == "oracle" and not out.get("oracle", {}).get("agrees"):
        return "oracle does not agree with the graph verdict"
    return None


def wrong_verdict(truth: dict, out: dict) -> bool | None:
    """Whether a connected document with a known drift got the wrong status.

    None when the document does not count: reducible, or a drift whose truth
    is unknown.
    """
    expected = EXPECTED_STATUS.get(truth.get("family"))
    if expected is None or len(truth["blocks"]) != 1:
        return None
    return out["status"] != expected
