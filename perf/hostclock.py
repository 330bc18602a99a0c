"""Host time on a noisy box: a calibration loop interleaved with the work.

This sandbox shares its two cores.  Measured on it (README.md, *Host time*):
the same 6 s echo window ran anywhere between 262 and 416 host-us per request
within six minutes, an hour later everything ran up to 2.6x slow, and the
interference comes in episodes of seconds to minutes, so no estimator inside
one 15 s invocation can average it away -- medians of ten back-to-back
invocations differed by up to 66 %.

A fixed pure-Python loop run *between the slices of the window* sees the same
slow-down as the simulator does (correlation 0.93 at window level), so host
time is reported at the speed of a quiet reference box::

    reference seconds = raw seconds * REFERENCE_S / mean(spin() samples)

which cut the spread of ten invocations of a workload from 40-61 % to 3-9 %
in the worst hour seen, and the drift between sets of ten from 66 % to 4 %.
ISSUE 11 advised against a calibration loop after trying a single 20 ms loop
beside a 6 s window; a sample taken once cannot see interference that arrives
mid-window, which is why this one is interleaved.  The raw times and the
samples stay in the result document.
"""

from __future__ import annotations

import heapq
import statistics
import time

__all__ = ["REFERENCE_S", "spin", "at_reference_speed"]

#: what ``spin()`` takes on this box when nothing else runs (its fastest
#: decile over 2,400 samples)
REFERENCE_S = 0.0292


def spin(turns: int = 60_000) -> float:
    """A fixed mix of what the simulator does: heap, dict, small buffers."""
    heap: list = []
    table: dict = {}
    start = time.perf_counter()
    for i in range(turns):
        heapq.heappush(heap, (i * 7919) % 10007)
        table[i & 1023] = bytearray(64)
        if len(heap) > 256:
            heapq.heappop(heap)
    return time.perf_counter() - start


def at_reference_speed(raw_s: float, spins) -> float:
    """``raw_s`` of host time, as the quiet reference box would have taken."""
    return raw_s * REFERENCE_S / statistics.fmean(spins)
