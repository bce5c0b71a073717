"""Fixed reference work whose CPU time tells how fast the host runs right now.

    python3 bench/probe.py

It uses none of ``uqc``: it imports what ``uqc`` imports (numpy, mpmath,
json) and then does a fixed mix of the kinds of work the workloads spend
their time on: multiprecision arithmetic, JSON text of nested ``[re, im]``
pairs, small complex matrix products and an SVD.  ``run.py`` runs it
between documents and scales each run's CPU time by how fast the probe ran.
"""

import json

import mpmath
import numpy as np

mpmath.mp.dps = 60
acc = mpmath.mpf(0)
for k in range(1, 2500):
    acc += mpmath.sqrt(k) / (k + acc)

rows = [[[0.125 * i, -0.5 * j] for j in range(96)] for i in range(96)]
rows = json.loads(json.dumps(rows, indent=1))

rng = np.random.default_rng(0)
a = rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12))
b = a.conj().T
for _ in range(1500):
    b = (a @ b - b @ a) / np.linalg.norm(b)
np.linalg.svd(rng.standard_normal((192, 192)), compute_uv=False)
