"""Regression tests for the event-kernel scheduler bugfixes.

* ``Simulator.pending`` counts live events only, never cancellation
  tombstones (the ``report`` CLI's queue-depth line over-counted).
* ``run()`` used to flush ``processed_events`` / ``pending`` only on exit, so
  a scraper tick *inside* a run exported a flat processed count and an
  over-counted queue depth; both are exact at every read now.

The doorbell audits at the bottom pin what the doorbell user
(``core.engine.Driver.kick``) relies on: one wakeup per park however many
rings arrive; the full contract is ``tests/test_engine.py::TestDoorbell``.
"""

from repro.sim.core import MSEC, USEC, Simulator


class TestInterruptHeapLeak:
    """``pending`` must not count what will never fire."""

    def test_pending_matches_live_queue_entries(self, sim):
        """``pending`` counts live events only, not cancellation tombstones."""
        events = [sim.schedule(i * MSEC, lambda: None) for i in range(1, 6)]
        assert sim.pending == 5
        events[1].cancel()
        events[3].cancel()
        assert sim.pending == 3
        live = sum(1 for *_, handle in sim._queue
                   if handle is None or not handle.cancelled)
        assert live == 3


class TestSimGauges:
    def test_bind_sim_exports_live_event_count(self, sim):
        from repro.obs.bindings import bind_sim
        from repro.obs.metrics import MetricsRegistry

        registry = MetricsRegistry()
        bind_sim(registry, sim)
        event = sim.schedule(1 * MSEC, lambda: None)
        sim.schedule(2 * MSEC, lambda: None)
        assert registry.value("sim_pending_events") == 2
        event.cancel()
        # Tombstones are excluded: the gauge reflects live events only.
        assert registry.value("sim_pending_events") == 1
        sim.run_all()
        assert registry.value("sim_pending_events") == 0
        assert registry.value("sim_processed_events") == 1

    def test_gauges_exact_inside_run(self, sim):
        """A callback reads the truth mid-``run()``: events fired before it
        and events still queued after it (the parent read 0 and 11 here --
        the counters were flushed only when ``run`` returned)."""
        seen = []
        for k in range(1, 12):
            sim.schedule(k * USEC, lambda: seen.append(
                (sim.processed_events, sim.pending)))
        sim.schedule(3.5 * USEC, lambda: None).cancel()   # tombstone mid-queue
        sim.run()
        assert seen == [(k - 1, 11 - k) for k in range(1, 12)]
        assert (sim.processed_events, sim.pending) == (11, 0)

    def test_scraped_gauges_move_inside_one_run(self, sim):
        """What ``report --sim-gauges`` retains: every scrape of one
        ``run()`` sees more events processed than the last, and the queue
        depth it exports is the real one (a lone self-re-arming timer plus
        the scraper's own: never a climb)."""
        from repro.obs.bindings import bind_sim
        from repro.obs.metrics import MetricsRegistry
        from repro.obs.scraper import TelemetryScraper

        registry = MetricsRegistry()
        bind_sim(registry, sim)
        scraper = TelemetryScraper(sim, registry, period_s=1 * MSEC)
        scraper.start()
        sim.every(100 * USEC, lambda: None)
        sim.run(until=10.5 * MSEC)
        _, processed = scraper.series("sim_processed_events")
        _, pending = scraper.series("sim_pending_events")
        assert len(processed) == 10
        assert all(b > a for a, b in zip(processed, processed[1:]))
        assert set(pending) == {1}


class TestDoorbellUsers:
    """Audit of the doorbell users against the pinned semantics."""

    def test_driver_doorbell_one_wakeup_per_park(self, sim):
        # engine.Driver: rings while parked wake once; rings while busy
        # latch exactly one further wakeup (drained work is not re-woken).
        from repro.core.engine import Driver

        class OneShot(Driver):
            def __init__(self, sim):
                super().__init__(sim, "oneshot")
                self.items = 0
                self.processed = 0

            def _process(self):
                n, self.items = self.items, 0
                self.processed += n
                return n, 100.0 * n

        driver = OneShot(sim)
        driver.start()
        sim.run(until=1 * USEC)
        driver.items = 3
        driver.kick()
        driver.kick()                    # second ring while wakeup pending
        sim.run(until=1 * MSEC)
        assert driver.processed == 3
        # One productive wakeup plus at most one latched-kick idle pass --
        # the double ring must not schedule unbounded wakeups.
        assert driver.wakeups <= 2

    def test_raft_pump_drains_channel_per_ring(self, sim):
        # A pod-level Raft round trip: three replicas elect one leader.
        from repro.config import OasisConfig
        from repro.core.pod import CXLPod

        pod = CXLPod(config=OasisConfig().with_(seed=3), mode="oasis")
        for _ in range(3):
            pod.add_host()
        pod.enable_raft(replicas=3)
        pod.run(0.5)
        leaders = [n for n in pod.raft_nodes if n.state == "leader"]
        assert len(leaders) == 1
        pod.stop()
