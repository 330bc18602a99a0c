"""Tests for the Figure 6 microbenchmark.

These assert the *shape* of the paper's result: the strict throughput
ordering of the designs, sub-microsecond idle latency for the Oasis design,
and the latency gap between invalidate-consumed and invalidate-prefetched at
the 14 MOp/s target load.
"""

import pytest

from repro.channel.microbench import ChannelMicrobench, sweep_designs
from repro.experiments.bands import BANDS

SLOTS = 2048          # smaller ring, faster tests; >= 3 laps at N below
N = 8000


@pytest.fixture(scope="module")
def saturation():
    results = {}
    for design in ("bypass-cache", "naive-prefetch", "invalidate-consumed",
                   "invalidate-prefetched"):
        results[design] = ChannelMicrobench(design, slots=SLOTS).run(N)
    return results


class TestSaturationThroughput:
    def test_bypass_lands_near_3_mops(self, saturation):
        assert 2.0 <= saturation["bypass-cache"].achieved_mops <= 4.5

    def test_naive_prefetch_below_target(self, saturation):
        """② is 2-4x the baseline but well below the 14 MOp/s target."""
        mops = saturation["naive-prefetch"].achieved_mops
        assert saturation["bypass-cache"].achieved_mops * 1.5 < mops < 14.0

    def test_invalidate_consumed_unlocks_order_of_magnitude(self, saturation):
        ratio = (saturation["invalidate-consumed"].achieved_mops
                 / saturation["naive-prefetch"].achieved_mops)
        assert ratio > 3.0

    def test_oasis_design_exceeds_target(self, saturation):
        """④ must clear the 14 MOp/s end-to-end requirement comfortably."""
        assert saturation["invalidate-prefetched"].achieved_mops > 28.0

    def test_strict_ordering(self, saturation):
        b = saturation["bypass-cache"].achieved_mops
        n = saturation["naive-prefetch"].achieved_mops
        c = saturation["invalidate-consumed"].achieved_mops
        p = saturation["invalidate-prefetched"].achieved_mops
        assert b < n < c
        assert p == pytest.approx(c, rel=0.25)


class TestLatency:
    def test_oasis_idle_latency_sub_microsecond(self):
        r = ChannelMicrobench("invalidate-prefetched", slots=SLOTS).run(
            2000, interval_ns=1000.0)
        band = BANDS["fig6.oasis_idle_p50_us"]
        assert band.lo <= r.latency_p50_us <= band.hi, band.paper

    def test_bypass_idle_latency_similar(self):
        r = ChannelMicrobench("bypass-cache", slots=SLOTS).run(
            2000, interval_ns=1000.0)
        assert 0.3 <= r.latency_p50_us <= 1.5

    def test_invalidate_consumed_latency_penalty_at_target_load(self):
        """③ pays an extra invalidate+miss round trip per message at
        moderate load; ④ does not (the Figure 6 latency story)."""
        inv_c = ChannelMicrobench("invalidate-consumed", slots=SLOTS).run(
            3000, interval_ns=1e3 / 14)
        inv_p = ChannelMicrobench("invalidate-prefetched", slots=SLOTS).run(
            3000, interval_ns=1e3 / 14)
        assert inv_c.latency_p50_us > 1.5 * inv_p.latency_p50_us
        assert inv_p.latency_p50_us < 1.2

    def test_open_loop_tracks_offered_load(self):
        r = ChannelMicrobench("invalidate-prefetched", slots=SLOTS).run(
            3000, interval_ns=1e3 / 4)   # 4 MOp/s
        assert r.achieved_mops == pytest.approx(4.0, rel=0.15)


class TestHarness:
    def test_result_fields(self):
        r = ChannelMicrobench("bypass-cache", slots=SLOTS).run(1000)
        assert r.messages > 0
        assert r.design == "bypass-cache"

    def test_sweep_returns_all_designs(self):
        curves = sweep_designs(
            designs=("bypass-cache",), offered_mops=(1.0,), n_messages=1000,
            slots=SLOTS,
        )
        assert set(curves) == {"bypass-cache"}
        assert len(curves["bypass-cache"]) == 2  # 1 load point + saturation

    def test_deterministic(self):
        a = ChannelMicrobench("invalidate-prefetched", slots=SLOTS).run(2000)
        b = ChannelMicrobench("invalidate-prefetched", slots=SLOTS).run(2000)
        assert a.achieved_mops == pytest.approx(b.achieved_mops)
        assert a.latency_p50_us == pytest.approx(b.latency_p50_us)

    def test_prefetch_depth_zero_still_functional(self):
        r = ChannelMicrobench("invalidate-prefetched", slots=SLOTS,
                              prefetch_depth=0).run(2000)
        assert r.messages > 0
