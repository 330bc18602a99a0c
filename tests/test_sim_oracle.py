"""Oracle test: the one-heap kernel replays the tiered kernel exactly.

``tests/reference_sim.py`` is the tiered kernel the one heap replaced (a
now-queue, near/far heaps and an Event free list).  Hypothesis draws one mix
of posts -- ``schedule``/``at``/``call_after``/``every``, ``Timer.set``/
``set_at``/``clear``, cancels made at once or from a later event, callbacks
that post a child, timers that re-arm from their own callback -- and drives
it through both kernels in ``run(until=...)`` segments.  After every segment
the two must agree on the fired ``(time, tag)`` sequence, ``now``,
``pending``, ``tombstones`` and ``processed_events``: dispatch order is
``(time, seq)`` in both, so the replacement is invisible to every caller.

``CHAOS_MAX_EXAMPLES`` scales the search effort (raised in the nightly
chaos CI job).
"""

import os

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.sim import core

from . import reference_sim

MAX_EXAMPLES = int(os.environ.get("CHAOS_MAX_EXAMPLES", "50"))

# Delays on and around the old tier boundaries (zero, sub-4 us, 4 us and
# up), with collision mass so same-time groups are common.
DELAYS = st.sampled_from([0.0, 0.0, 1e-9, 1e-9, 5e-7, 1e-6, 3.9e-6, 4e-6,
                          1e-5, 1e-3])
# Periods of ``every``: positive, and coarse enough to keep a 1 ms segment
# to a few thousand firings.
INTERVALS = st.sampled_from([1e-6, 3.9e-6, 4e-6, 1e-5, 1e-3])
# When to cancel a handle: never, at once, or from an event this far on.
CANCELS = st.sampled_from([None, None, "now", 0.0, 1e-9, 1e-6, 1e-5])
# Delay of the child a callback posts when it fires, if any.
CHILDREN = st.one_of(st.none(), DELAYS)
N_TIMERS = 3
OPS = st.tuples(
    st.sampled_from(["schedule", "at", "call_after", "every", "set",
                     "set_at", "clear"]),
    DELAYS, INTERVALS, st.integers(0, N_TIMERS - 1), CANCELS, CHILDREN)
SEGMENTS = st.lists(
    st.tuples(st.lists(OPS, max_size=12),
              st.sampled_from([0.0, 1e-9, 1e-6, 4e-6, 2e-5, 1e-3])),
    min_size=1, max_size=5)
# Re-arm delay of each timer from inside its own callback, if any.
REARMS = st.lists(st.one_of(st.none(), DELAYS), min_size=N_TIMERS,
                  max_size=N_TIMERS)


def _replay(kernel, segments, rearms):
    """Drive one kernel through the segments; one snapshot per segment."""
    sim = kernel.Simulator()
    fired = []
    snapshots = []

    def fire(tag, child):
        fired.append((sim.now, tag))
        if child is not None:
            sim.call_after(child, fire, tag + ("child",), None)

    def expire(k):
        fired.append((sim.now, ("timer", k)))
        if rearms[k] is not None and sum(
                tag == ("timer", k) for _, tag in fired) < 3:
            timers[k].set(rearms[k])

    timers = [kernel.Timer(sim, expire, k) for k in range(N_TIMERS)]
    for s, (ops, length) in enumerate(segments):
        for i, (api, delay, interval, k, cancel, child) in enumerate(ops):
            tag = (s, i)
            if api == "set":
                timers[k].set(delay)
            elif api == "set_at":
                timers[k].set_at(sim.now + delay)
            elif api == "clear":
                timers[k].clear()
            elif api == "call_after":
                sim.call_after(delay, fire, tag, child)
            else:
                if api == "schedule":
                    handle = sim.schedule(delay, fire, tag, child)
                elif api == "at":
                    handle = sim.at(sim.now + delay, fire, tag, child)
                else:
                    handle = sim.every(interval, fire, tag, child,
                                       start_after=delay)
                if cancel == "now":
                    handle.cancel()
                elif cancel is not None:
                    sim.schedule(cancel, handle.cancel)
        sim.run(until=sim.now + length)
        snapshots.append((list(fired), sim.now, sim.pending, sim.tombstones,
                          sim.processed_events))
    return snapshots


class TestOneHeapMatchesTieredKernel:
    @given(SEGMENTS, REARMS)
    @settings(max_examples=MAX_EXAMPLES, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_every_segment_agrees(self, segments, rearms):
        expected = _replay(reference_sim, segments, rearms)
        actual = _replay(core, segments, rearms)
        for segment, (want, got) in enumerate(zip(expected, actual)):
            assert got == want, f"segment {segment}"
