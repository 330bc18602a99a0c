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


# -- quiet and wake (schedule version 4, DESIGN §3e) ---------------------------

#: How many ticks of the always-on timeline a quiet/wake case spans.
N_TICKS = 12
QUIET_INTERVALS = st.sampled_from([1e-6, 3.9e-6, 1e-5, 1e-3, 0.025, 0.1])
#: Construction instants: a round clock and clocks where ``now + (base -
#: now)`` need not be ``base``.
BIRTHS = st.sampled_from([0.0, 0.0123, 1 / 3, 0.7])
#: ``start_after`` as a fraction of the interval: none, zero, inside
#: ``(0, interval)`` or past one interval.
STARTS = st.one_of(st.none(), st.just(0.0), st.floats(0.01, 0.99),
                   st.floats(1.0, 2.5))
#: A wake event: the tick it aims at, and whether it lands on that tick's
#: float or halfway from the previous tick (the construction instant for
#: tick 0).
WAKES = st.lists(st.tuples(st.integers(0, N_TICKS - 1),
                           st.sampled_from(["on", "before"])), max_size=8)
#: Pauses of the run on a tick's float (``run(until=tick)``), each followed
#: by a wake from outside the loop: called at once, or posted to fire on
#: that float in the next run (after the tick, which already fired).
PAUSES = st.lists(st.tuples(st.integers(0, N_TICKS - 2),
                            st.sampled_from(["direct", "posted"])),
                  max_size=4)


def _quiet_case(kernel, interval, birth, start, ticks, wakes, pauses,
                quiets, start_quiet, cancel_at):
    """The fired log of one task built at ``birth``.  A marker sits on each
    of ``ticks``' floats, and the wake events and the cancel are posted at
    time 0 (earlier than any tick entry); the run pauses at ``pauses``.  The
    kernel task (``quiets`` given) goes quiet at its n-th firing when
    ``quiets[n % len(quiets)]``; the oracle's wakes and cancel only log."""
    sim = kernel.Simulator()
    log = []
    task = []
    fired = [0]

    def tick():
        log.append((sim.now, "tick"))
        if quiets is not None and quiets[fired[0] % len(quiets)]:
            task[0].quiet()
        fired[0] += 1

    def build():
        kwargs = {"start_after": start}
        if start_quiet:
            kwargs["quiet"] = True
        task.append(sim.every(interval, tick, **kwargs))

    def wake():
        log.append((sim.now, "wake"))
        if quiets is not None:
            task[0].wake()

    def cancel():
        log.append((sim.now, "cancel"))
        if quiets is not None:
            task[0].cancel()

    sim.schedule(birth, build)
    for t in ticks:
        sim.schedule(t, log.append, (t, "mark"))
    for k, where in wakes:
        prev = birth if k == 0 else ticks[k - 1]
        sim.schedule(ticks[k] if where == "on" else prev + (ticks[k] - prev) / 2,
                     wake)
    if cancel_at is not None:
        sim.schedule(ticks[cancel_at], cancel)
    for k, how in sorted(set(pauses)):
        sim.run(until=ticks[k])
        if how == "direct":
            wake()
        else:
            sim.schedule(0.0, wake)
    sim.run(until=ticks[-1] if ticks else birth + (N_TICKS + 4) * interval)
    return log


def _awake_ticks(log, quiets, start_quiet, birth):
    """The always-on log less the ticks a quiet task skips: a tick fires iff
    no firing has gone quiet since the last wake before it, in the oracle's
    order (a task built quiet fires a first tick due at birth), and nothing
    fires after the cancel."""
    first = next(t for t, what in log if what == "tick")
    awake = not start_quiet or first == birth
    fired, cancelled, kept = 0, False, []
    for time, what in log:
        if what == "wake":
            awake = awake or not cancelled
        elif what == "cancel":
            cancelled, awake = True, False
        elif what == "tick":
            if not awake:
                continue
            awake = not quiets[fired % len(quiets)]
            fired += 1
        kept.append((time, what))
    return kept


class TestQuietAndWake:
    @given(QUIET_INTERVALS, BIRTHS, STARTS, WAKES, PAUSES,
           st.lists(st.booleans(), min_size=1, max_size=8), st.booleans(),
           st.one_of(st.none(), st.integers(0, N_TICKS - 1)))
    @settings(max_examples=MAX_EXAMPLES * 4, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_woken_task_fires_the_always_on_floats(self, interval, birth,
                                                   start, wakes, pauses,
                                                   quiets, start_quiet,
                                                   cancel_at):
        """Every tick the kernel's task fires is a tick of the oracle's
        always-on task at which it was awake, on the same float, in the same
        order against the same-time marker and wakes."""
        start = None if start is None else start * interval
        ticks = [t for t, what in _quiet_case(
            reference_sim, interval, birth, start, [], [], [], None, False,
            None)][:N_TICKS]
        assert len(ticks) == N_TICKS
        expected = _quiet_case(reference_sim, interval, birth, start, ticks,
                               wakes, pauses, None, False, cancel_at)
        assert [t for t, what in expected if what == "tick"] == ticks
        actual = _quiet_case(core, interval, birth, start, ticks, wakes,
                             pauses, quiets, start_quiet, cancel_at)
        assert actual == _awake_ticks(expected, quiets, start_quiet, birth)
