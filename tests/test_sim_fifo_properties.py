"""Property tests: the event queue is one totally-ordered queue.

Four ways to post (``schedule``, ``at``, ``call_after``, a one-shot
``Timer``) feed the kernel's one ``(time, seq)`` heap.  Hypothesis drives
random mixes of API, delay and nesting and asserts the one ordering contract
every driver and channel in the reproduction depends on:

* events fire in global ``(time, issue-order)`` order -- in particular,
  **same-timestamp events fire in exactly the order they were issued**,
  regardless of which API posted each one (with or without a handle);
* events issued *while firing* at time T slot in after everything already
  queued for T (they drew a later sequence number), still before anything
  later.

The kernel has one dispatch loop (``run``); ``step`` and ``run_all`` are
wrappers over it, and the last property holds them to that: the same drawn
schedule, cancellations included, replays identically through all three.

``CHAOS_MAX_EXAMPLES`` scales the search effort (raised in the nightly
chaos CI job).
"""

import os

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.sim.core import Simulator, Timer

MAX_EXAMPLES = int(os.environ.get("CHAOS_MAX_EXAMPLES", "50"))

FIFO_SETTINGS = settings(max_examples=MAX_EXAMPLES, deadline=None,
                         suppress_health_check=[HealthCheck.too_slow])

# Zero, nanosecond, microsecond and millisecond delays -- the old
# now-queue / near-heap / far-heap boundaries at 0 and 4 us among them --
# with heavy collision mass so most runs contain many same-timestamp groups.
DELAYS = st.sampled_from([0.0, 0.0, 0.0, 1e-9, 1e-9, 5e-7, 1e-6, 1e-6,
                          3.9e-6, 4e-6, 1e-5, 1e-3])

APIS = st.sampled_from(["schedule", "at", "call_after", "timer"])


def _issue(sim: Simulator, api: str, delay: float, fn):
    """Post ``fn``; returns the Event handle of the APIs that give one."""
    if api == "schedule":
        return sim.schedule(delay, fn)
    if api == "at":
        return sim.at(sim.now + delay, fn)
    if api == "call_after":
        return sim.call_after(delay, fn)
    return Timer(sim, fn).set(delay)


class TestSameTimestampFifo:
    @given(st.lists(st.tuples(APIS, DELAYS), min_size=2, max_size=80))
    @FIFO_SETTINGS
    def test_equal_times_fire_in_issue_order(self, ops):
        sim = Simulator()
        fired = []
        issued = []
        for index, (api, delay) in enumerate(ops):
            _issue(sim, api, delay, lambda i=index: fired.append(i))
            issued.append((delay, index))
        sim.run_all()
        # Global contract: sort by time, stable in issue order.
        expected = [i for _, i in sorted(issued, key=lambda pair: pair[0])]
        assert fired == expected

    @given(st.lists(st.tuples(APIS, DELAYS), min_size=1, max_size=40),
           APIS, APIS)
    @FIFO_SETTINGS
    def test_nested_zero_delay_fires_after_queued_peers(self, ops, api_outer,
                                                       api_nested):
        """A zero-delay event issued at T fires after peers already queued
        for T (it drew a later seq), before anything strictly later."""
        sim = Simulator()
        fired = []
        # The probe fires at T = 1 us and issues a nested zero-delay event.
        probe_t = 1e-6

        def nested():
            fired.append("nested")

        def probe():
            fired.append("probe")
            _issue(sim, api_nested, 0.0, nested)

        _issue(sim, api_outer, probe_t, probe)
        for index, (api, delay) in enumerate(ops):
            _issue(sim, api, delay, lambda i=index: fired.append(i))
        sim.run_all()
        probe_at = fired.index("probe")
        nested_at = fired.index("nested")
        assert nested_at > probe_at
        # Everything strictly later than T fires after the nested event;
        # peers at exactly T that were issued before run_all keep their
        # earlier sequence numbers and fire before it.
        for index, (_, delay) in enumerate(ops):
            if delay > probe_t:
                assert fired.index(index) > nested_at
            elif delay == probe_t:
                assert fired.index(index) < nested_at

    @given(st.lists(st.tuples(APIS, DELAYS), min_size=2, max_size=60),
           st.integers(0, 1 << 30))
    @FIFO_SETTINGS
    def test_order_is_seed_stable(self, ops, salt):
        """Two identical schedules replay identically (no hidden state may
        leak into ordering)."""
        del salt  # ordering must not depend on anything but the ops
        runs = []
        for _ in range(2):
            sim = Simulator()
            fired = []
            for index, (api, delay) in enumerate(ops):
                _issue(sim, api, delay, lambda i=index: fired.append(i))
            # Interleave a partial run: stopping and resuming the loop must
            # not perturb later ordering.
            sim.run(max_events=len(ops) // 2)
            sim.run_all()
            runs.append(fired)
        assert runs[0] == runs[1]

    @given(st.lists(st.tuples(APIS, DELAYS), min_size=1, max_size=60))
    @FIFO_SETTINGS
    def test_live_count_drains_to_zero(self, ops):
        sim = Simulator()
        for api, delay in ops:
            _issue(sim, api, delay, lambda: None)
        assert sim.pending == len(ops)
        sim.run_all()
        assert sim.pending == 0
        assert sim.processed_events == len(ops)


# When to cancel an event that has a handle: never, before the run starts, or
# from a callback at this delay (which may find it already fired: a no-op).
CANCELS = st.sampled_from([None, None, "now", 0.0, 1e-9, 1e-6, 1e-5])
# Delay of a child the callback posts while firing, if any.
CHILDREN = st.one_of(st.none(), DELAYS)


def _step_until_false(sim: Simulator) -> None:
    while sim.step():
        pass


class TestOneDispatchLoop:
    @given(st.lists(st.tuples(APIS, DELAYS, CANCELS, CHILDREN),
                    min_size=1, max_size=60))
    @FIFO_SETTINGS
    def test_step_run_all_and_run_replay_identically(self, ops):
        outcomes = []
        for drive in (_step_until_false, Simulator.run_all, Simulator.run):
            sim = Simulator()
            fired = []
            cancellers = 0

            def fire(index, child):
                fired.append((sim.now, index))
                if child is not None:
                    sim.call_after(child, fire, ~index, None)

            for index, (api, delay, cancel, child) in enumerate(ops):
                event = _issue(sim, api, delay,
                               lambda i=index, c=child: fire(i, c))
                if event is None or cancel is None:
                    continue
                if cancel == "now":
                    event.cancel()
                else:
                    sim.schedule(cancel, event.cancel)
                    cancellers += 1
            drive(sim)
            assert sim.processed_events == len(fired) + cancellers
            outcomes.append((fired, sim.processed_events, sim.pending, sim.now))
        assert outcomes[0][2] == 0
        assert outcomes[0] == outcomes[1] == outcomes[2]
