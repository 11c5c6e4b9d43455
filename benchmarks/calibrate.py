"""Fixed reference work whose wall time measures the machine's current speed.

``run.py`` runs this as a fresh process before every timed CLI command and
scales each command's wall time by the calibration times around it.  On a
shared host the speed of every process drifts by tens of percent over tens
of seconds, and all commands drift together; the ratio to a process that
drifts with them does not.

The work mirrors a galaxyid command's mix: interpreter start and the
numpy/scipy.special import, touching a few MB, numpy calls on small arrays
and a pure-Python loop.  It uses no galaxyid code, so no change to the
program can move it.
"""

import numpy as np
import scipy.special  # noqa: F401  (imported, like galaxyid.gaussian does)

rng = np.random.default_rng(0)
total = float(np.abs(rng.standard_normal((1024, 1024))).sum())
small = rng.standard_normal((64, 64))
for _ in range(8000):
    total += float(small[3] @ small[5])
acc = 0
for i in range(200_000):
    acc += i & 7
