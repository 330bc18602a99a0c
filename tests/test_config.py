"""Tests for configuration validation and Table 1 constants."""

from dataclasses import replace

import pytest

from repro.config import (
    CACHE_LINE,
    CacheTimings,
    CXLConfig,
    DatapathConfig,
    FailoverConfig,
    HostConfig,
    NICConfig,
    OasisConfig,
    SSDConfig,
    TransportConfig,
)
from repro.errors import ConfigError


class TestDefaults:
    def test_default_config_validates(self):
        OasisConfig().validate()

    def test_cache_line_is_64(self):
        assert CACHE_LINE == 64

    def test_cxl_latency_ratio_matches_paper(self):
        """§2.3: CXL load-to-use is ~2.2x DDR on 5th-gen EPYC."""
        t = CacheTimings()
        assert 2.0 <= t.cxl_load_ns / t.ddr_load_ns <= 2.5

    def test_cxl_x8_link_bandwidth(self):
        """§2.3: x8 CXL 2.0 lanes give 32 GB/s/direction (before efficiency)."""
        cxl = CXLConfig()
        raw = cxl.lanes_per_host * cxl.lane_gbps
        assert raw == pytest.approx(32.0)
        assert cxl.link_bytes_per_sec == pytest.approx(32e9 * 0.92)

    def test_nic_matches_table1(self):
        nic = NICConfig()
        assert nic.bandwidth_gbps == 100.0
        assert nic.bytes_per_sec == pytest.approx(12.5e9)

    def test_ssd_matches_table1(self):
        ssd = SSDConfig()
        assert ssd.bytes_per_sec == pytest.approx(5e9)
        assert 50 <= ssd.read_latency_us <= 150

    def test_with_replaces_fields(self):
        config = OasisConfig().with_(seed=99)
        assert config.seed == 99
        assert config.nic.bandwidth_gbps == 100.0

    def test_channel_defaults_match_paper(self):
        """§3.2.2: 8192 slots, 16 B / 64 B messages, depth-16 prefetch."""
        dp = DatapathConfig()
        assert dp.channel_slots == 8192
        assert dp.net_message_bytes == 16
        assert dp.storage_message_bytes == 64
        assert dp.prefetch_depth == 16


class TestValidation:
    def test_negative_timing_rejected(self):
        with pytest.raises(ConfigError):
            replace(CacheTimings(), clwb_ns=-1.0).validate()

    def test_cxl_slower_than_ddr_required(self):
        with pytest.raises(ConfigError):
            replace(CacheTimings(), cxl_load_ns=10.0, ddr_load_ns=90.0).validate()

    def test_zero_lanes_rejected(self):
        with pytest.raises(ConfigError):
            replace(CXLConfig(), lanes_per_host=0).validate()

    def test_bad_link_efficiency_rejected(self):
        with pytest.raises(ConfigError):
            replace(CXLConfig(), link_efficiency=1.5).validate()

    def test_zero_nic_bandwidth_rejected(self):
        with pytest.raises(ConfigError):
            replace(NICConfig(), bandwidth_gbps=0).validate()

    def test_bad_queue_depth_rejected(self):
        with pytest.raises(ConfigError):
            replace(NICConfig(), tx_queue_depth=0).validate()

    def test_negative_flow_tags_rejected(self):
        """``max_flow_tags == 0`` is a NIC without flow tagging; below 0 is
        a mistake."""
        replace(NICConfig(), max_flow_tags=0).validate()
        with pytest.raises(ConfigError):
            replace(NICConfig(), max_flow_tags=-1).validate()

    def test_bad_block_size_rejected(self):
        with pytest.raises(ConfigError):
            replace(SSDConfig(), block_size=1000).validate()

    def test_non_power_of_two_slots_rejected(self):
        with pytest.raises(ConfigError):
            replace(DatapathConfig(), channel_slots=1000).validate()

    def test_bad_message_size_rejected(self):
        with pytest.raises(ConfigError):
            replace(DatapathConfig(), net_message_bytes=32).validate()

    def test_storage_message_must_be_64(self):
        with pytest.raises(ConfigError):
            replace(DatapathConfig(), storage_message_bytes=16).validate()

    def test_lease_ttl_must_exceed_telemetry(self):
        with pytest.raises(ConfigError):
            replace(FailoverConfig(), lease_ttl_ms=50.0,
                    telemetry_interval_ms=100.0).validate()

    @pytest.mark.parametrize("interval", [0.0, -1.0, float("nan")])
    def test_telemetry_interval_must_be_positive(self, interval):
        with pytest.raises(ConfigError):
            replace(FailoverConfig(),
                    telemetry_interval_ms=interval).validate()

    def test_zero_telemetry_interval_fails_when_the_pod_is_built(self):
        """Every frontend reports on ``sim.every(telemetry interval)``: a
        zero interval would spin at one instant, so the pod refuses it."""
        from repro.core.pod import CXLPod
        config = replace(OasisConfig(), failover=replace(
            FailoverConfig(), telemetry_interval_ms=0.0))
        with pytest.raises(ConfigError, match="telemetry_interval_ms"):
            CXLPod(config)

    def test_rto_bounds(self):
        with pytest.raises(ConfigError):
            replace(TransportConfig(), initial_rto_ms=100.0, max_rto_ms=50.0).validate()

    def test_rto_backoff_at_least_one(self):
        with pytest.raises(ConfigError):
            replace(TransportConfig(), rto_backoff=0.5).validate()

    def test_host_capacities_positive(self):
        with pytest.raises(ConfigError):
            replace(HostConfig(), cores=0).validate()

    def test_validate_returns_self(self):
        config = OasisConfig()
        assert config.validate() is config
