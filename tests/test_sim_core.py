"""Tests for the discrete-event simulator core."""

import pytest

from repro.sim.core import MSEC, SimulationError


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


class TestPeriodicTask:
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

    def test_start_after_override(self, sim):
        times = []
        sim.every(1 * MSEC, lambda: times.append(sim.now), start_after=0.0)
        sim.run(until=2.5 * MSEC)
        assert times[0] == pytest.approx(0.0)


class TestPeriodicJitter:
    """Jitter offsets each fire from an unjittered base timeline.

    The seed implementation added ``uniform(0, jitter)`` to every period, so
    the mean period was ``interval + jitter/2`` and the drift against the
    nominal timeline was unbounded.  These tests fail on that behaviour.
    """

    def test_jitter_spreads_fire_times(self):
        import numpy as np
        from repro.sim.core import MSEC, Simulator

        sim = Simulator()
        times = []
        sim.every(1 * MSEC, lambda: times.append(sim.now), jitter=0.5 * MSEC,
                  rng=np.random.default_rng(0))
        sim.run(until=200 * MSEC)
        gaps = np.diff(times)
        # Fixed-base jitter: consecutive gaps vary within +-jitter...
        assert gaps.min() >= 0.5 * MSEC - 1e-9
        assert gaps.max() <= 1.5 * MSEC + 1e-9
        assert gaps.max() - gaps.min() > 0.1 * MSEC   # and it does vary

    def test_mean_period_converges_to_interval(self):
        import numpy as np
        from repro.sim.core import MSEC, Simulator

        sim = Simulator()
        times = []
        sim.every(1 * MSEC, lambda: times.append(sim.now), jitter=0.5 * MSEC,
                  rng=np.random.default_rng(1))
        sim.run(until=1000 * MSEC)
        gaps = np.diff(times)
        # The seed bug inflated the mean period to interval + jitter/2
        # (~1.25 ms here); the fixed-base schedule keeps it at ~1 ms.
        assert abs(gaps.mean() - 1 * MSEC) < 0.02 * MSEC

    def test_fires_never_before_base_tick_and_drift_is_bounded(self):
        import numpy as np
        from repro.sim.core import MSEC, Simulator

        sim = Simulator()
        times = []
        jitter = 0.5 * MSEC
        sim.every(1 * MSEC, lambda: times.append(sim.now), jitter=jitter,
                  rng=np.random.default_rng(2))
        sim.run(until=500 * MSEC)
        for n, t in enumerate(times, start=1):
            base = n * 1 * MSEC
            assert base - 1e-12 <= t <= base + jitter + 1e-12
