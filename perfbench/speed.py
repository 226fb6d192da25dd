"""Machine-speed reference for the timings the benchmark reports.

On the 2-vCPU host this benchmark was written on, the speed of plain Python
code drifts by up to ~1.5x over seconds to minutes, from other load on the
host: run-to-run spread of raw timings reached 0.3 of the median.  A
fixed pure-Python probe, timed next to the measured calls, drifts with it.
Reported timings are therefore scaled by REFERENCE_S / probe time: they
read as on a machine where the probe takes REFERENCE_S.  The probe uses no
sosq code, so a change to sosq moves the scaled timings exactly as it moves
the raw ones.
"""

from __future__ import annotations

import math
from time import perf_counter

# about the probe's time on the host the benchmark was written on, when quiet
REFERENCE_S = 1.0e-3


def _body(n: int) -> float:
    acc, x = 0, 1.0
    for i in range(n):
        acc = (acc * 31 + i) % 1000003
        x = math.sqrt(x * 1.000001 + i)
    return acc + x


def probe_s(repeats: int = 3) -> float:
    """Fastest of a few timings of the fixed probe, in seconds."""
    best = math.inf
    for _ in range(repeats):
        start = perf_counter()
        _body(6000)
        best = min(best, perf_counter() - start)
    return best
