# The graph verdict is cheap; the Lie-closure computation is the expensive
# ground truth.  This script cross-validates them on random instances: the
# graph says universal exactly when the closure reaches full dimension, and
# when reducible, the closure inherits the exact same block partition.  The
# invariant coordinate subspaces are the nontrivial proper unions of the r
# graph components, 2^r - 2 of them, listed next to the closure's blocks.

import numpy as np

from uqc import (
    Algebra,
    Generator,
    GeneratorSet,
    VerdictStatus,
    check_universality,
    closure_block_partition,
    lie_closure,
    make_general_direction,
)

rng = np.random.default_rng(12345)


def random_offdiag(d, p=0.3):
    M = np.zeros((d, d), dtype=complex)
    for r in range(d):
        for l in range(r + 1, d):
            if rng.random() < p:
                z = rng.standard_normal() + 1j * rng.standard_normal()
                M[r, l], M[l, r] = z, -np.conj(z)
    return M


agree = 0
trials = 40
for trial in range(trials):
    d = int(rng.integers(2, 7))
    kind = ("u", "su")[trial % 2]
    algebra = Algebra(kind, d)
    gens = [make_general_direction(algebra)] + [
        Generator(random_offdiag(d), f"r{j}") for j in range(int(rng.integers(1, 4)))
    ]
    system = GeneratorSet(algebra, tuple(gens))

    verdict = check_universality(system)
    report = lie_closure(system)
    partition = closure_block_partition(report)

    if verdict.status is VerdictStatus.UNIVERSAL:
        ok = report.dimension == report.target_dimension
    else:
        ok = partition == verdict.components
    invariant = 2 ** len(verdict.components) - 2

    agree += ok
    print(
        f"{kind}({d}): {verdict.status.value:22s} closure {report.dimension:2d}"
        f"/{report.target_dimension:2d}  blocks {len(partition)}  "
        f"invariant subspaces {invariant:2d}  {'ok' if ok else 'MISMATCH'}"
    )

print(f"\n{agree}/{trials} instances agree")
