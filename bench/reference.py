"""Fixed reference work that gauges how fast the host runs at the moment.

The host's speed drifts by tens of percent over minutes, and the drift moves
every timing taken in that window together.  bench/run.py times this work
between the CLI children and scales the end-to-end times by its speed,
which takes the drift out.  The work is the kind a thermoch step does
(128x128 complex FFTs and elementwise array arithmetic) with no thermoch
code, so no change to the program moves it.  Editing this file changes
every normalized figure: compare results only across runs of the same
benchmark code.
"""

import time

import numpy as np
import scipy.fft

TRANSFORM_ROUNDS = 400


def reference_seconds() -> float:
    """Duration of one pass of the fixed reference work."""
    start = time.perf_counter()
    field = np.random.default_rng(0).standard_normal((128, 128))
    total = 0.0
    for _ in range(TRANSFORM_ROUNDS):
        coeffs = scipy.fft.fftn(field)
        smooth = scipy.fft.ifftn(coeffs * 0.5).real
        field = 0.5 * field + 0.25 * smooth - 0.01 * smooth**3
        total += float(np.sum(field))
    elapsed = time.perf_counter() - start
    if not np.isfinite(total):
        raise FloatingPointError("reference work produced a non-finite sum")
    return elapsed
