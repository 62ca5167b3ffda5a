"""Host speed, measured with a fixed piece of work that shares nothing with fsing.

The benchmark runs on shared hosts whose speed drifts by up to 2x over
minutes, as other tenants come and go; a run's raw job times follow the
drift.  To take it out, the loop runs one calibration slice before every
job and scales the job times of a pass by ``NOMINAL_S`` over the mean slice
time of that pass.  The slice is plain dict arithmetic over F_p, the same
kind of work the library does, frozen here so that a change to fsing
cannot change it.
"""

from __future__ import annotations

import gc
import time

# The slice's time on the quiet host used to build the benchmark (a 2-core
# Intel Xeon VM, Python 3.11), rounded.  It only sets the scale of the
# adjusted times: at this slice time they equal the raw ones.
NOMINAL_S = 0.002

_P = 32003
_G = {(1, 0, 0, 0): 3, (0, 1, 0, 0): 5, (0, 0, 1, 0): 7, (0, 0, 0, 1): 11,
      (1, 1, 0, 0): 1, (0, 0, 1, 1): 2, (2, 0, 0, 1): 1}
_POWER = 5  # g**5 has 381 terms


def _mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            m = tuple([x + y for x, y in zip(m1, m2)])
            out[m] = (out.get(m, 0) + c1 * c2) % _P
    return {m: c for m, c in out.items() if c}


def slice_seconds() -> float:
    """Wall time of one calibration slice, with the collector held off so
    that the library's heap does not weigh on it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        g = {(0, 0, 0, 0): 1}
        for _ in range(_POWER):
            g = _mul(g, _G)
        elapsed = time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()
    if len(g) != 381:
        raise AssertionError("calibration slice computed a wrong power")
    return elapsed


def speed(slices: list[float]) -> float:
    """Host slowness over some slices: 1.0 at nominal speed, 2.0 at half."""
    return sum(slices) / (len(slices) * NOMINAL_S)
