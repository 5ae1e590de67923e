"""Machine-speed calibration for the benchmark's timings.

Times are scaled to a reference machine speed.  A fixed chunk of pure
Python work (calibrate(), which runs no blp code) is timed every CAL_EVERY_S
between requests, and each request's wall time is multiplied by CAL_REF_S
over the median of the chunk times within CAL_WINDOW chunks of it.  Set-up
steps are scaled by chunk_time() taken just before and just after them.
On a shared 2-vCPU x86-64 machine, co-tenant load moved wall times of the
same pass by up to ~45% within minutes; the scaling takes most of that out
(blpbench/NOTES.md gives the raw and scaled spreads).
A change to blp cannot change how long calibrate() takes, so its effect
shows in full in the scaled times.  CAL_REF_S is the chunk's typical time on
that machine under Python 3.11, so there scaled and raw times roughly agree.

This module imports nothing but `gc` and `time`, so that a fresh interpreter
can use it without loading anything blp itself imports.
"""

import gc
from time import perf_counter

CAL_REF_S = 1.0e-3
CAL_EVERY_S = 0.025
CAL_WINDOW = 8
CHUNKS_PER_READING = 5


class _Probe:
    __slots__ = ("key",)

    def __init__(self, key) -> None:
        self.key = key


_PROBES = [_Probe(k) for k in range(97)]


def calibrate() -> float:
    """Seconds taken by one fixed chunk of dict, str, attribute and call work.

    The chunk allocates no objects the garbage collector tracks, and the
    collector is paused while it runs, so its time does not depend on how
    many objects the program under test keeps alive."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        table = dict.fromkeys(range(97), 0)
        for i in range(3000):
            probe = _PROBES[i % 97]
            table[probe.key] += len(str(i))
        return perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def chunk_time() -> float:
    """The median of CHUNKS_PER_READING chunk times, taken back to back;
    one disturbed chunk does not move it."""
    return sorted(calibrate() for _ in range(CHUNKS_PER_READING))[CHUNKS_PER_READING // 2]
