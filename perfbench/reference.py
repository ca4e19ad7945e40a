"""Reference work that measures how fast the machine runs right now.

On a shared virtual machine the same calls take up to half as long
again in CPU time when other guests load the host, and that load drifts
over minutes.  The benchmark runs ``reference_work`` between calls,
spread over the run, and scales every time it reports by
``REFERENCE_S`` over the mean CPU time of those samples: the times then
read as on the reference machine at its usual speed.

The work is the benchmark's own and uses numpy and scipy only, so no
change to qvix changes its cost.  Its mix follows the library's: many
small banded solves, each with the interpreter overhead of a few numpy
calls, and a few dense inverses.  Its arrays stay below 2 MB, so that
it does not raise the peak resident set the benchmark reports.
"""

from __future__ import annotations

import time

import numpy as np
from scipy.linalg import solve_banded

# Median CPU time of reference_work() on a 2-core KVM guest (Intel Xeon,
# 2.0 GHz), one BLAS thread, at a quiet time
REFERENCE_S = 0.135


def reference_work() -> float:
    rng = np.random.default_rng(0)
    n = 401
    ab = np.vstack([np.full(n, -1.0), np.full(n, 2.5), np.full(n, -1.0)])
    x = rng.standard_normal(n)
    for _ in range(1200):
        x = solve_banded((1, 1), ab, x)
        x = np.minimum(x / np.max(np.abs(x)), 0.5)
    m = rng.standard_normal((300, 300)) + 300.0 * np.eye(300)
    for _ in range(6):
        m = np.linalg.inv(m) + 300.0 * np.eye(300)
    return float(x[0] + m[0, 0])


def timed_reference() -> float:
    """CPU seconds of one ``reference_work``."""
    cpu0 = time.process_time()
    reference_work()
    return time.process_time() - cpu0
