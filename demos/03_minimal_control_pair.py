# Two generators suffice for universal control in any dimension: a diagonal
# drift with sqrt-prime phases plus one nearest-neighbor coupling chain.
# The chain makes the coupling graph a path through every level, and the
# drift's spectrum is independent by construction.

import numpy as np

from uqc import (
    Algebra,
    Generator,
    GeneratorSet,
    check_universality,
    lie_closure,
    make_general_direction,
    minimal_pair,
)

for d in range(2, 7):
    pair = minimal_pair(Algebra("su", d))
    verdict = check_universality(pair)
    report = lie_closure(pair)
    print(
        f"su({d}): {verdict.status.value:9s}  closure {report.dimension:3d}"
        f" / {report.target_dimension:3d}"
    )

# the chain weights are free as long as every one is nonzero: the same
# drift with a weighted chain sum_j c_j (E_{j,j+1} - E_{j+1,j}) is universal
algebra = Algebra("su", 4)
chain = np.zeros((4, 4), dtype=complex)
for j, c in enumerate([2.0, -1.0, 0.5]):
    chain[j, j + 1], chain[j + 1, j] = c, -c
pair = GeneratorSet(algebra, (make_general_direction(algebra), Generator(chain, "chain")))
print("\ncustom chain su(4):", check_universality(pair).status.value)
print(np.round(pair.generators[1].matrix.real, 2))

# an imaginary-symmetric chain couples the same levels, for hardware whose
# couplings are Hermitian-symmetric
pair = minimal_pair(Algebra("su", 4), style="sym")
print("\nsymmetric-style chain su(4):", check_universality(pair).status.value)
print(np.round(pair.generators[1].matrix.imag, 2))
