# How small do exponentiation steps have to be?  Group elements reachable
# by small steps stay inside the connected identity component; anything in
# a disconnected permutation component sits at operator distance >= sqrt(2)
# from the identity.  For a skew-Hermitian X with eigenphases lambda_k,
# ||exp(eps X) - I|| = 2 max_k |sin(eps lambda_k / 2)|, which stays below
# sqrt(2) exactly for eps < pi / (2 ||X||).  The drift below is diagonal,
# so its exponential is the diagonal of the exponentiated phases.

import numpy as np

from uqc import (
    Algebra,
    Generator,
    GeneratorSet,
    epsilon_bound,
    operator_norm,
)

drift = Generator(np.diag(1j * np.sqrt([2.0, 3.0, 5.0])), "drift")
rot = np.zeros((3, 3), dtype=complex)
rot[0, 1], rot[1, 0] = 1.0, -1.0
system = GeneratorSet(Algebra("u", 3), (drift, Generator(rot, "rot12")))

eps_max = epsilon_bound(system)
print(f"set-level bound: eps_max = {eps_max:.6f}  (= pi / (2*sqrt(5)))")
for gen in system.generators:
    norm = operator_norm(gen.matrix)
    print(f"  {gen.label}: ||X|| = {norm:.4f}, eps_max = {np.pi / (2 * norm):.4f}")

print("\ndistance to identity vs step size (drift):")
for frac in (0.25, 0.5, 0.9, 0.99, 1.0, 1.2):
    U = np.diag(np.exp(frac * eps_max * np.diag(drift.matrix)))
    dist = operator_norm(U - np.eye(3))
    if dist < np.sqrt(2.0) - 1e-9:
        marker = "< sqrt(2)"
    elif dist < np.sqrt(2.0) + 1e-9:
        marker = "= sqrt(2), the boundary"
    else:
        marker = "> sqrt(2)"
    print(f"  eps = {frac:4.2f} * eps_max -> {dist:.6f}  {marker}")
# the bound is sharp: the distance hits sqrt(2) exactly at eps_max and
# keeps growing beyond it
