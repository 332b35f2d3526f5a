"""A fixed slice of work that measures how fast the machine runs right now.

The benchmark machine is shared: the same pass of the same calls can take
0.31 s or 0.65 s within one run, and thread CPU time moves with wall time,
so each instruction is slower rather than the process being descheduled.
The runner therefore runs slices of this kernel between the calls, one per
``SLICE_EVERY`` seconds of call time, outside the timed region.  Each call's
latency is then reported at the reference speed: multiplied by
``REFERENCE_S`` over the mean slice time around it (``scale``).

The kernel shares no code with srq1, so a change to srq1 cannot move it,
and does the kind of work the CLI does: Python float arithmetic, numpy
calls on small arrays, and float formatting.
"""

from __future__ import annotations

import math
import time

import numpy as np

# time of one slice at the reference speed (seconds); only sets the scale
REFERENCE_S = 2.5e-4
# one slice per this much call time
SLICE_EVERY = 5e-3

_GRID = np.linspace(0.0, 3.0, 181)


def slice_time() -> float:
    """Run one slice and return its wall time."""
    t0 = time.perf_counter()
    s = 0.0
    out = []
    for i in range(120):
        x = i * 1e-3
        s += math.exp(-x) * (1.0 + x) ** 2
        v = float(np.sin(_GRID[i % 181]) ** 2)
        out.append(f"{v:.9g},{s:.9g}")
    ",".join(out)
    return time.perf_counter() - t0


def slices_for(seconds: float):
    """(number of slices, their total time) to cover ``seconds`` of calls."""
    n = max(1, round(seconds / SLICE_EVERY))
    return n, sum(slice_time() for _ in range(n))


def scale(latencies, slices, min_slices=40):
    """Latencies of one pass at the reference speed.

    ``slices`` holds (number, total time) of the slices run after each call.
    Each latency is scaled by the slices of the nearest calls that together
    hold at least ``min_slices``: local enough to follow the machine's
    speed, long enough that one slice's noise does not set the factor.
    """
    out = []
    last = len(latencies) - 1
    for i, t in enumerate(latencies):
        lo = hi = i
        n = slices[i][0]
        while n < min_slices and (lo > 0 or hi < last):
            if hi < last:
                hi += 1
                n += slices[hi][0]
            if lo > 0 and n < min_slices:
                lo -= 1
                n += slices[lo][0]
        total = sum(slices[j][1] for j in range(lo, hi + 1))
        out.append(t * REFERENCE_S * n / total)
    return out

