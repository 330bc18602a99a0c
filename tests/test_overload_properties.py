"""Property tests for the overload-control primitives (PR 9).

Hypothesis drives random operation sequences against the token-bucket
retry budget, the circuit-breaker state machine and the CoDel admission
queue, checking the invariants the frontends rely on:

* the budget never over-spends: granted retries are bounded by the initial
  float plus ``ratio`` tokens per fresh deposit, and the bucket level never
  leaves ``[0, cap]``;
* the breaker always re-closes after a healthy half-open probe, never
  admits traffic while open before the dwell elapses, and is deterministic
  under a fixed seed (trip/probe instants byte-identical);
* the admission queue conserves items (admitted == popped + shed + queued)
  and never holds more than ``depth`` entries;
* a :class:`WeightedFairScheduler` with no tenant registered *is* an
  ``AdmissionQueue``: same results, same counters, for any interleaving --
  the licence for every admission stage running the scheduler
  unconditionally, with ``AdmissionQueue`` kept as the reference
  (``CHAOS_MAX_EXAMPLES`` raises the search effort in the nightly job).
"""

import math
import os

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.overload import (AdmissionQueue, CircuitBreaker, RetryBudget,
                            WeightedFairScheduler)
from repro.overload.breaker import CLOSED, HALF_OPEN, OPEN
from repro.sim.rng import Stream

MAX_EXAMPLES = int(os.environ.get("CHAOS_MAX_EXAMPLES", "100"))

# -- retry budget -----------------------------------------------------------

BudgetOp = st.one_of(
    st.tuples(st.just("deposit"), st.integers(1, 5)),
    st.tuples(st.just("spend"), st.just(1)),
)


class TestRetryBudgetProperties:
    @given(st.lists(BudgetOp, max_size=200),
           st.floats(0.0, 1.0), st.floats(0.0, 8.0), st.floats(1.0, 64.0))
    @settings(max_examples=200, deadline=None)
    def test_budget_never_overspends(self, ops, ratio, initial, cap):
        budget = RetryBudget(ratio=ratio, initial=initial, cap=cap)
        attempts = 0
        for op, arg in ops:
            if op == "deposit":
                budget.deposit(arg)
            else:
                attempts += 1
                budget.try_spend()
            assert -1e-9 <= budget.tokens <= cap + 1e-9
        # Every granted retry consumed one whole token, and tokens only
        # enter via the initial float and ratio-scaled deposits.
        ceiling = min(initial, cap) + budget.deposits * ratio
        assert budget.spent <= math.floor(ceiling + 1e-9)
        assert budget.spent + budget.denied == attempts

    @given(st.lists(BudgetOp, max_size=100))
    @settings(max_examples=100, deadline=None)
    def test_zero_ratio_grants_only_the_initial_float(self, ops):
        budget = RetryBudget(ratio=0.0, initial=2.0, cap=64.0)
        for op, arg in ops:
            budget.deposit(arg) if op == "deposit" else budget.try_spend()
        assert budget.spent <= 2


# -- circuit breaker --------------------------------------------------------

BreakerOp = st.one_of(
    st.tuples(st.just("allow"), st.just(0)),
    st.tuples(st.just("success"), st.just(0)),
    st.tuples(st.just("failure"), st.just(0)),
    st.tuples(st.just("advance"), st.integers(1, 100)),   # x1 ms
)


def drive(breaker, ops):
    """Apply an op sequence, returning the (t, event) trace."""
    now = 0.0
    trace = []
    for op, arg in ops:
        if op == "advance":
            now += arg * 1e-3
        elif op == "allow":
            trace.append((now, "allow", breaker.allow(now)))
        elif op == "success":
            breaker.record_success(now)
        elif op == "failure":
            breaker.record_failure(now)
        trace.append((now, "state", breaker.state, breaker.open_until))
    return trace


class TestCircuitBreakerProperties:
    @given(st.lists(BreakerOp, max_size=200), st.integers(1, 8))
    @settings(max_examples=200, deadline=None)
    def test_state_machine_stays_consistent(self, ops, threshold):
        breaker = CircuitBreaker(failure_threshold=threshold, open_s=0.02)
        now = 0.0
        for op, arg in ops:
            if op == "advance":
                now += arg * 1e-3
            elif op == "allow":
                allowed = breaker.allow(now)
                if breaker.state == OPEN:
                    # Open and before the dwell: must reject.
                    assert not allowed and now < breaker.open_until
                elif breaker.state == CLOSED:
                    assert allowed
            elif op == "success":
                breaker.record_success(now)
                assert breaker.state == CLOSED
                assert breaker.failures == 0
            elif op == "failure":
                breaker.record_failure(now)
            assert breaker.state in (CLOSED, OPEN, HALF_OPEN)
            assert breaker.failures < max(threshold, 1) or breaker.state != CLOSED

    @given(st.integers(1, 8), st.floats(0.001, 0.1))
    @settings(max_examples=100, deadline=None)
    def test_healthy_probe_always_recloses(self, threshold, open_s):
        breaker = CircuitBreaker(failure_threshold=threshold, open_s=open_s)
        for _ in range(threshold):
            breaker.record_failure(0.0)
        assert breaker.state == OPEN and breaker.trips == 1
        assert not breaker.allow(open_s * 0.5)      # dwell not elapsed
        probe_at = breaker.open_until
        assert breaker.allow(probe_at)              # the half-open probe
        assert breaker.state == HALF_OPEN
        assert not breaker.allow(probe_at)          # one probe at a time
        breaker.record_success(probe_at + 1e-3)
        assert breaker.state == CLOSED
        assert breaker.reclosures == 1
        assert breaker.allow(probe_at + 2e-3)       # traffic flows again

    @given(st.integers(1, 4))
    @settings(max_examples=50, deadline=None)
    def test_failed_probe_reopens(self, threshold):
        breaker = CircuitBreaker(failure_threshold=threshold, open_s=0.01)
        for _ in range(threshold):
            breaker.record_failure(0.0)
        probe_at = breaker.open_until
        assert breaker.allow(probe_at)
        breaker.record_failure(probe_at + 1e-3)
        assert breaker.state == OPEN and breaker.trips == 2
        assert breaker.open_until > probe_at

    @given(st.lists(BreakerOp, max_size=150), st.integers(0, 2**31 - 1))
    @settings(max_examples=100, deadline=None)
    def test_deterministic_under_fixed_seed(self, ops, seed):
        def run():
            breaker = CircuitBreaker(
                failure_threshold=2, open_s=0.02, probe_jitter_s=0.005,
                rng=Stream(seed))
            return drive(breaker, ops)

        assert run() == run()


# -- admission queue --------------------------------------------------------

QueueOp = st.one_of(
    st.tuples(st.just("push"), st.just(0)),
    st.tuples(st.just("pop"), st.just(0)),
    st.tuples(st.just("advance"), st.integers(1, 40)),    # x1 ms
)


class TestAdmissionQueueProperties:
    @given(st.lists(QueueOp, max_size=300), st.integers(1, 32))
    @settings(max_examples=200, deadline=None)
    def test_conservation_and_depth_cap(self, ops, depth):
        queue = AdmissionQueue(depth=depth, target_s=0.005, interval_s=0.02)
        now, next_item, popped, shed = 0.0, 0, 0, 0
        for op, _arg in ops:
            if op == "advance":
                now += _arg * 1e-3
            elif op == "push":
                queue.push(now, next_item)
                next_item += 1
            else:
                item, dropped = queue.pop(now)
                shed += len(dropped)
                if item is not None:
                    popped += 1
            assert len(queue) <= depth
        assert queue.admitted == popped + shed + len(queue)
        assert queue.shed_sojourn == shed
        assert queue.admitted + queue.shed_full == next_item

    def test_front_drop_requires_a_standing_queue(self):
        """A transient spike shorter than ``interval_s`` is never shed."""
        queue = AdmissionQueue(depth=64, target_s=0.005, interval_s=0.025)
        for i in range(10):
            queue.push(0.0, i)
        # Head is over target at 10 ms, but the standing-queue interval has
        # not elapsed: pops still succeed oldest-first with no drops.
        item, dropped = queue.pop(0.010)
        assert item == 0 and dropped == []
        # 40 ms in, the queue has been standing past target for > interval:
        # the stale heads are dropped from the front and the fresh arrival
        # (whose client is still waiting) gets served.
        queue.push(0.039, 99)
        item, dropped = queue.pop(0.040)
        assert dropped == list(range(1, 10))
        assert item == 99
        assert queue.shed_sojourn == len(dropped)

    def test_drop_state_resets_when_the_queue_drains_empty(self):
        """Regression: stale ``_first_above`` must not survive an idle gap.

        A burst whose head momentarily exceeds ``target_s`` arriving after
        the queue drained empty must get a *fresh* ``interval_s``
        standing-queue observation, not an instant front-drop against drop
        state left over from the previous burst.
        """
        queue = AdmissionQueue(depth=64, target_s=0.005, interval_s=0.025)
        # First burst: head breaches target (starting the CoDel clock) and
        # is then served, draining the queue empty.
        queue.push(0.0, "old")
        item, dropped = queue.pop(0.006)      # sojourn 6 ms > target
        assert item == "old" and dropped == []
        assert len(queue) == 0
        # Long idle gap, then a fresh burst whose head also waits 6 ms.
        queue.push(1.000, "fresh")
        item, dropped = queue.pop(1.006)
        # Pre-fix: _first_above was still 0.006, so 1.006 - 0.006 >> 25 ms
        # front-dropped "fresh" instantly.  Canonical CoDel serves it.
        assert item == "fresh"
        assert dropped == []
        assert queue.shed_sojourn == 0

    def test_drop_state_resets_after_codel_drains_the_queue(self):
        """Front-dropping the whole backlog also exits the drop state."""
        queue = AdmissionQueue(depth=64, target_s=0.005, interval_s=0.025)
        for i in range(4):
            queue.push(0.0, i)
        item, dropped = queue.pop(0.010)      # starts the CoDel clock
        assert item == 0 and dropped == []
        item, dropped = queue.pop(0.040)      # standing queue: drains it
        assert item is None and dropped == [1, 2, 3]
        assert len(queue) == 0
        queue.push(0.500, "next")
        item, dropped = queue.pop(0.506)
        assert item == "next" and dropped == []


# -- tenant-less WFQ == the admission queue ---------------------------------

LaneOp = st.one_of(
    # Tags of tenants nobody registered must not open lanes of their own.
    st.tuples(st.just("push"), st.sampled_from([None, "a", "b"])),
    st.tuples(st.just("pop"), st.none()),
    st.tuples(st.just("drain"), st.none()),
    st.tuples(st.just("advance"), st.integers(1, 40)),    # x1 ms
)


class TestTenantlessWfqIsTheAdmissionQueue:
    @given(st.lists(LaneOp, max_size=300), st.integers(1, 32),
           st.integers(1, 20), st.integers(1, 50))
    @settings(max_examples=MAX_EXAMPLES, deadline=None)
    def test_same_results_and_counters(self, ops, depth, target_ms,
                                       interval_ms):
        args = (depth, target_ms * 1e-3, interval_ms * 1e-3)
        queue, wfq = AdmissionQueue(*args), WeightedFairScheduler(*args)
        now, next_item = 0.0, 0
        for op, arg in ops:
            if op == "advance":
                now += arg * 1e-3
            elif op == "push":
                assert (wfq.push(now, next_item, arg)
                        == queue.push(now, next_item))
                next_item += 1
            elif op == "pop":
                assert wfq.pop(now) == queue.pop(now)
            else:                           # serve both until empty
                while len(queue):
                    assert wfq.pop(now) == queue.pop(now)
            assert len(wfq) == len(queue)
            assert wfq.saturation == len(queue) / depth
            assert ((wfq.admitted, wfq.shed_full, wfq.shed_sojourn)
                    == (queue.admitted, queue.shed_full, queue.shed_sojourn))
