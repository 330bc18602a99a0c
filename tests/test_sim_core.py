"""Tests for the discrete-event simulator core."""

import pytest

from repro.sim.core import MSEC, SimulationError, Timer


class TestScheduling:
    def test_events_fire_in_time_order(self, sim):
        fired = []
        sim.schedule(3e-6, fired.append, "c")
        sim.schedule(1e-6, fired.append, "a")
        sim.schedule(2e-6, fired.append, "b")
        sim.run_all()
        assert fired == ["a", "b", "c"]

    def test_ties_fire_in_schedule_order(self, sim):
        fired = []
        for name in "abc":
            sim.schedule(1e-6, fired.append, name)
        sim.run_all()
        assert fired == ["a", "b", "c"]

    def test_now_advances_to_event_time(self, sim):
        seen = []
        sim.schedule(5e-6, lambda: seen.append(sim.now))
        sim.run_all()
        assert seen == [pytest.approx(5e-6)]

    def test_negative_delay_rejected(self, sim):
        with pytest.raises(SimulationError):
            sim.schedule(-1.0, lambda: None)

    @pytest.mark.parametrize("post", ["schedule", "at", "call_after"])
    def test_nan_delay_rejected(self, sim, post):
        """NaN compares false with everything: unrefused, it sat in the heap
        ahead of a post due at 1 ms."""
        sim.schedule(1 * MSEC, lambda: None)
        with pytest.raises(SimulationError):
            getattr(sim, post)(float("nan"), lambda: None)
        assert sim.pending == 1

    def test_cancelled_event_does_not_fire(self, sim):
        fired = []
        event = sim.schedule(1e-6, fired.append, "x")
        event.cancel()
        sim.run_all()
        assert fired == []

    def test_cancel_is_idempotent(self, sim):
        event = sim.schedule(1e-6, lambda: None)
        event.cancel()
        event.cancel()
        sim.run_all()

    def test_at_schedules_absolute_time(self, sim):
        sim.schedule(2e-6, lambda: None)
        sim.run_all()
        seen = []
        sim.at(10e-6, lambda: seen.append(sim.now))
        sim.run_all()
        assert seen == [pytest.approx(10e-6)]

    def test_run_until_stops_and_advances_clock(self, sim):
        fired = []
        sim.schedule(1e-3, fired.append, "early")
        sim.schedule(5e-3, fired.append, "late")
        sim.run(until=2e-3)
        assert fired == ["early"]
        assert sim.now == pytest.approx(2e-3)
        sim.run(until=10e-3)
        assert fired == ["early", "late"]

    def test_run_until_advances_clock_even_when_idle(self, sim):
        sim.run(until=1.0)
        assert sim.now == pytest.approx(1.0)

    def test_max_events_limit(self, sim):
        fired = []
        for i in range(10):
            sim.schedule(i * 1e-6, fired.append, i)
        sim.run(max_events=3)
        assert fired == [0, 1, 2]

    def test_step_returns_false_when_empty(self, sim):
        assert sim.step() is False

    def test_events_scheduled_during_run_fire(self, sim):
        fired = []

        def first():
            sim.schedule(1e-6, fired.append, "second")

        sim.schedule(1e-6, first)
        sim.run_all()
        assert fired == ["second"]

    def test_processed_events_counter(self, sim):
        for _ in range(5):
            sim.schedule(1e-6, lambda: None)
        sim.run_all()
        assert sim.processed_events == 5

    def test_run_all_backstop(self, sim):
        def rearm():
            sim.schedule(1e-9, rearm)

        sim.schedule(0.0, rearm)
        with pytest.raises(SimulationError):
            sim.run_all(limit=1000)


class TestTimer:
    """The lazy one-shot: at most one queued entry, later deadlines are free,
    an expiry lands on the float ``schedule`` would have fired at."""

    @staticmethod
    def _timer(sim):
        fired = []
        return Timer(sim, lambda: fired.append(sim.now)), fired

    def test_expires_at_the_float_schedule_fires_at(self, sim):
        timer, fired = self._timer(sim)
        reference = []
        sim.run(until=0.1 + 0.2)            # a `now` that is not exact
        sim.schedule(25 * MSEC, lambda: reference.append(sim.now))
        timer.set(25 * MSEC)
        assert timer.deadline == sim.now + 25 * MSEC and sim.pending == 2
        sim.run_all()
        assert fired == reference == [(0.1 + 0.2) + 25 * MSEC]
        assert timer.deadline is None and sim.pending == 0
        assert sim.processed_events == 2

    def test_set_later_touches_no_queue_and_reposts_once(self, sim):
        timer, fired = self._timer(sim)
        timer.set(10 * MSEC)
        targets = []
        for k in range(1, 6):               # five moves, each further out
            sim.run(until=k * MSEC)
            timer.set(10 * MSEC)
            targets.append(sim.now + 10 * MSEC)
            assert sim.pending == 1 and sim._tombstones == 0
        assert sim.processed_events == 0
        sim.run(until=10 * MSEC)            # the queued entry comes due early
        assert fired == [] and sim.processed_events == 1 and sim.pending == 1
        sim.run_all()                       # ... and its re-post expires
        assert fired == [targets[-1]]
        assert sim.processed_events == 2 and sim.pending == 0

    def test_set_earlier_replaces_the_entry(self, sim):
        timer, fired = self._timer(sim)
        timer.set(10 * MSEC)
        timer.set(2 * MSEC)
        assert sim.pending == 1 and sim._tombstones == 1
        sim.run_all()
        assert fired == [2 * MSEC]
        assert sim.processed_events == 1 and sim._tombstones == 0

    def test_clear_leaves_pending_at_once_and_nothing_fires(self, sim):
        timer, fired = self._timer(sim)
        timer.clear()                       # idle: a no-op
        timer.set(5 * MSEC)
        timer.clear()
        assert timer.deadline is None and sim.pending == 0
        timer.clear()
        assert sim._tombstones == 1
        sim.run_all()
        assert fired == [] and sim.processed_events == 0

    def test_set_after_clear_and_after_firing(self, sim):
        timer, fired = self._timer(sim)
        timer.set(5 * MSEC)
        timer.clear()
        timer.set(7 * MSEC)
        assert sim.pending == 1
        sim.run_all()
        timer.set(1 * MSEC)                 # re-arm an expired timer
        assert sim.pending == 1
        sim.run_all()
        assert fired == [7 * MSEC, 7 * MSEC + 1 * MSEC]
        assert sim.processed_events == 2

    def test_set_from_inside_its_own_callback(self, sim):
        fired = []

        def tick():
            fired.append(sim.now)
            if len(fired) < 3:
                timer.set(1 * MSEC)
                assert sim.pending == 1

        timer = Timer(sim, tick)
        timer.set(1 * MSEC)
        sim.run_all()
        assert len(fired) == 3 and fired[0] == 1 * MSEC
        assert sim.processed_events == 3 and sim.pending == 0

    def test_zero_delay_and_same_instant_order(self, sim):
        order = []
        first = Timer(sim, order.append, "first")
        second = Timer(sim, order.append, "second")
        first.set(0.0)
        sim.schedule(0.0, order.append, "event")
        second.set(0.0)
        sim.run_all()
        assert order == ["first", "event", "second"]

    def test_past_deadline_rejected(self, sim):
        timer, _ = self._timer(sim)
        sim.run(until=1.0)
        with pytest.raises(SimulationError):
            timer.set(-1e-9)
        with pytest.raises(SimulationError):
            timer.set_at(0.5)
        assert sim.pending == 0

    def test_nan_deadline_rejected(self, sim):
        timer, _ = self._timer(sim)
        with pytest.raises(SimulationError):
            timer.set(float("nan"))
        with pytest.raises(SimulationError):
            timer.set_at(float("nan"))
        assert sim.pending == 0 and timer.deadline is None


class TestPeriodicTask:
    @pytest.mark.parametrize("interval", [0.0, -1 * MSEC, float("nan")])
    def test_non_positive_interval_rejected(self, sim, interval):
        """A zero period fired forever at one instant: ``now`` never moved
        and only ``max_events`` stopped the loop."""
        with pytest.raises(SimulationError):
            sim.every(interval, lambda: None)
        assert sim.pending == 0

    def test_fires_at_interval(self, sim):
        times = []
        task = sim.every(1 * MSEC, lambda: times.append(sim.now))
        sim.run(until=5.5 * MSEC)
        task.cancel()
        assert len(times) == 5
        assert times[0] == pytest.approx(1 * MSEC)

    def test_cancel_stops_firing(self, sim):
        times = []
        task = sim.every(1 * MSEC, lambda: times.append(sim.now))
        sim.run(until=2.5 * MSEC)
        task.cancel()
        sim.run(until=10 * MSEC)
        assert len(times) == 2
        assert sim.pending == 0

    def test_start_after_override(self, sim):
        times = []
        sim.every(1 * MSEC, lambda: times.append(sim.now), start_after=0.0)
        sim.run(until=2.5 * MSEC)
        assert times[0] == pytest.approx(0.0)

    def test_mean_period_converges_to_interval(self, sim):
        times = []
        sim.every(1 * MSEC, lambda: times.append(sim.now))
        sim.run(until=1000 * MSEC)
        gaps = [b - a for a, b in zip(times, times[1:])]
        assert abs(sum(gaps) / len(gaps) - 1 * MSEC) < 1e-12

    def test_fires_never_before_base_tick_and_drift_is_bounded(self, sim):
        """Each firing lands on the repeated-addition timeline, to the bit."""
        times = []
        sim.every(1 * MSEC, lambda: times.append(sim.now))
        sim.run(until=500 * MSEC)
        base = 0.0
        for t in times:
            base += 1 * MSEC
            assert t == base
        assert 499 <= len(times) <= 500

    def test_quiet_posts_nothing_until_woken(self, sim):
        """A quiet task holds no queue entry and leaves no tombstone; a wake
        resumes it on its own timeline (tests/test_sim_oracle.py replays
        drawn quiet/wake mixes against the always-on task)."""
        times = []
        task = sim.every(1 * MSEC, lambda: (times.append(sim.now),
                                            task.quiet()))
        sim.run(until=5.5 * MSEC)
        assert times == [1 * MSEC] and sim.pending == 0
        assert sim.tombstones == 0
        task.wake()
        task.wake()                     # a no-op on an awake task
        assert sim.pending == 1
        sim.run(until=10 * MSEC)
        assert times == [1 * MSEC, 6 * MSEC]

    def test_born_quiet_and_quiet_outside_a_tick(self, sim):
        times = []
        task = sim.every(1 * MSEC, lambda: times.append(sim.now), quiet=True)
        assert sim.pending == 0
        sim.run(until=2.5 * MSEC)
        task.wake()
        with pytest.raises(SimulationError):
            task.quiet()                # it has a queued tick
        sim.run(until=4.5 * MSEC)
        assert times == [3 * MSEC, 4 * MSEC]

    def test_wake_inside_the_tick_that_went_quiet_posts_once(self, sim):
        times = []

        def tick():
            times.append(sim.now)
            task.quiet()
            task.wake()

        task = sim.every(1 * MSEC, tick)
        sim.run(until=3.5 * MSEC)
        assert times == [1 * MSEC, 2 * MSEC, 3 * MSEC] and sim.pending == 1

    def test_cancelled_task_stays_down(self, sim):
        times = []
        task = sim.every(1 * MSEC, lambda: (times.append(sim.now),
                                            task.quiet()))
        sim.run(until=1.5 * MSEC)
        task.cancel()
        task.wake()
        sim.run(until=5 * MSEC)
        assert times == [1 * MSEC] and sim.pending == 0


