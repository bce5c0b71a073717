# A three-level system with a phase drift and one rotation: the rotation
# only mixes the first two levels, so level 3 is dynamically isolated and
# the gate set cannot be universal.  The coupling graph sees it instantly,
# and one elementary bridge repairs it.

import numpy as np

from uqc import (
    Algebra,
    Generator,
    GeneratorSet,
    check_universality,
    lie_closure,
    repair,
)

# drift: i*diag(sqrt2, sqrt3, sqrt5) -- phases rationally independent of
# each other and of 2*pi, so its exponential sweeps the whole diagonal torus
drift = Generator(np.diag(1j * np.sqrt([2.0, 3.0, 5.0])), "drift")

# control: a rotation acting only on span{e1, e2}
rot = np.zeros((3, 3), dtype=complex)
rot[0, 1], rot[1, 0] = 1.0, -1.0
system = GeneratorSet(Algebra("u", 3), (drift, Generator(rot, "rot12")))

verdict = check_universality(system)
print("verdict:", verdict.status.value)
print("components (0-based):", verdict.components)
print("invariant witness:", verdict.components[0])
# -> reducible; {0,1} never talks to {2}, so the component of vertex 0
# spans an invariant subspace

# repair: bridge the component of vertex 0 to the outside.  The
# "paper-example" rule takes the largest index inside, a=1, and b=2, i.e.
# the elementary generator coupling levels 2 and 3, appended as the last
# generator of the repaired set.
plan = repair(system, selection="paper-example")
print("\nbridges added:", [(a, b, style.value) for a, b, style in plan.bridges])
print("bridge matrix:\n", plan.resulting_set.generators[-1].matrix.real)

verdict = check_universality(plan.resulting_set)
print("\nafter repair:", verdict.status.value)

# independent confirmation: the generated real Lie algebra
report = lie_closure(plan.resulting_set)
print(
    f"closure dimension {report.dimension} of {report.target_dimension} "
    f"(closure residual {report.residual_max:.2e})"
)
