"""Model constants for the Oasis reproduction.

Every timing, bandwidth and sizing knob lives here, as frozen dataclasses with
defaults calibrated against the paper:

* :class:`CacheTimings` / :class:`CXLConfig` -- §2.3 and the Figure 6
  microbenchmarks (message-channel throughput/latency).
* :class:`NICConfig` / :class:`SSDConfig` -- Table 1 device requirements.
* :class:`DatapathConfig` -- §3.2 buffer-area and channel sizing.
* :class:`FailoverConfig` -- §3.3.3/§3.5 detection and lease parameters,
  calibrated to a ~38 ms UDP interruption (Figure 13).
* :class:`TransportConfig` -- the mini reliable transport whose retransmission
  behaviour yields the ~133 ms memcached P99 recovery (Figure 14).

Calibration note (Figure 6): the distinction between *synchronous* cache-line
flushes (CLFLUSHOPT immediately fenced with MFENCE, which serialises the
pipeline) and *asynchronous* flushes (issued and retired in the background)
is what separates the baseline design (3 MOp/s) from the Oasis design
(~90 MOp/s).  The constants below encode that: a fenced flush costs
``clflush_ns + mfence_ns`` on the critical path, an unfenced one only
``clflush_issue_ns``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from .errors import ConfigError

__all__ = [
    "CacheTimings",
    "CXLConfig",
    "NICConfig",
    "SSDConfig",
    "DatapathConfig",
    "FailoverConfig",
    "TransportConfig",
    "RetryConfig",
    "OverloadConfig",
    "HostConfig",
    "OasisConfig",
    "CACHE_LINE",
]

CACHE_LINE = 64  # bytes


@dataclass(frozen=True)
class CacheTimings:
    """CPU-side memory operation costs, in nanoseconds.

    ``cxl_load_ns / ddr_load_ns`` defaults to ~2.2x, matching the paper's AMD
    5th-gen EPYC measurement (§2.3).
    """

    ddr_load_ns: float = 110.0
    cxl_load_ns: float = 250.0          # load-to-use miss latency over CXL
    cxl_stream_ns: float = 4.0         # per-line cost of subsequent misses in
                                        # one sequential access (MLP overlaps
                                        # the load-to-use latency)
    cxl_write_ns: float = 110.0         # posted write to the CXL device
    cache_hit_ns: float = 1.5           # L1/L2 hit on an already-present line
    clflush_ns: float = 40.0            # CLFLUSHOPT when serialised by a fence
    clflush_issue_ns: float = 6.0       # CLFLUSHOPT issued without a fence
    clwb_ns: float = 20.0               # CLWB (writeback, line retained clean)
    mfence_ns: float = 30.0
    prefetch_issue_ns: float = 1.0      # PREFETCHT0 issue cost
    store_ns: float = 2.5               # cached store (write-allocate hit)
    message_cpu_ns: float = 6.0         # decode + handoff of one 16 B message
    empty_poll_ns: float = 4.0          # branch + epoch check on an empty slot

    def validate(self) -> None:
        for name, value in self.__dict__.items():
            if value < 0:
                raise ConfigError(f"CacheTimings.{name} must be >= 0, got {value}")
        if self.cxl_load_ns < self.ddr_load_ns:
            raise ConfigError("CXL load latency must be >= DDR load latency")


@dataclass(frozen=True)
class CXLConfig:
    """CXL pod geometry and link model (§2.3).

    A CXL 2.0 / PCIe-5.0 lane carries 4 GB/s per direction; the evaluation
    platform attaches each host with x8 lanes (32 GB/s per direction).
    """

    lanes_per_host: int = 8
    lane_gbps: float = 4.0              # GB/s per lane per direction
    pool_bytes: int = 256 << 30         # 256 GB device, as in §5
    link_efficiency: float = 0.92       # random 64 B access efficiency (§2.3)
    timings: CacheTimings = field(default_factory=CacheTimings)

    @property
    def link_bytes_per_sec(self) -> float:
        return self.lanes_per_host * self.lane_gbps * 1e9 * self.link_efficiency

    def validate(self) -> None:
        if self.lanes_per_host <= 0:
            raise ConfigError("lanes_per_host must be positive")
        if self.pool_bytes <= 0:
            raise ConfigError("pool_bytes must be positive")
        if not 0 < self.link_efficiency <= 1:
            raise ConfigError("link_efficiency must be in (0, 1]")
        self.timings.validate()


@dataclass(frozen=True)
class NICConfig:
    """100 Gbit ConnectX-5-like NIC (Table 1, §5)."""

    bandwidth_gbps: float = 100.0       # line rate, bits/s
    tx_queue_depth: int = 1024
    rx_queue_depth: int = 1024
    max_flow_tags: int = 4096           # 0: no flow tagging (footnote 6)
    dma_setup_ns: float = 250.0         # WQE fetch + doorbell processing

    @property
    def bytes_per_sec(self) -> float:
        return self.bandwidth_gbps * 1e9 / 8.0

    def validate(self) -> None:
        if self.bandwidth_gbps <= 0:
            raise ConfigError("bandwidth_gbps must be positive")
        if self.tx_queue_depth <= 0 or self.rx_queue_depth <= 0:
            raise ConfigError("queue depths must be positive")
        if self.max_flow_tags < 0:
            raise ConfigError("max_flow_tags must be >= 0")


@dataclass(frozen=True)
class SSDConfig:
    """Datacenter NVMe SSD (Table 1: 5 GB/s, 0.5 MOp/s, ~100 us)."""

    capacity_bytes: int = 4 << 40       # 4 TB namespace
    bandwidth_gbps: float = 5.0         # GB/s
    read_latency_us: float = 90.0
    write_latency_us: float = 25.0
    queue_depth: int = 1024
    block_size: int = 4096

    @property
    def bytes_per_sec(self) -> float:
        return self.bandwidth_gbps * 1e9

    def validate(self) -> None:
        if self.capacity_bytes <= 0 or self.bandwidth_gbps <= 0:
            raise ConfigError("SSD capacity/bandwidth must be positive")
        if self.block_size <= 0 or self.block_size % 512:
            raise ConfigError("block_size must be a positive multiple of 512")


@dataclass(frozen=True)
class DatapathConfig:
    """Oasis datapath sizing (§3.2, §3.3)."""

    channel_slots: int = 8192           # per-direction message ring slots
    net_message_bytes: int = 16         # network engine message size
    storage_message_bytes: int = 64     # storage engine message size
    prefetch_depth: int = 16            # PREFETCHT0 look-ahead (best in Fig 6)
    tx_region_bytes: int = 4 << 30      # per-host frontend TX region (paper: 4 GB)
    instance_tx_area_bytes: int = 64 << 20  # per-instance TX buffer area (64 MB)
    # Per-NIC RX buffer area.  The paper uses 4 GB; 16 MB (8192 x 2 KB
    # buffers, 8x the RX ring depth) behaves the same as long as buffers are
    # recycled faster than they are consumed.
    rx_region_bytes: int = 16 << 20
    rx_buffer_bytes: int = 2048         # one RX buffer (fits a 1500 B frame)
    ipc_hop_us: float = 0.45            # instance <-> frontend IPC hop (local DDR)

    def validate(self) -> None:
        if self.channel_slots < 2 or self.channel_slots & (self.channel_slots - 1):
            raise ConfigError("channel_slots must be a power of two >= 2")
        if self.net_message_bytes not in (16, 64):
            raise ConfigError("net_message_bytes must be 16 or 64")
        if self.storage_message_bytes != 64:
            raise ConfigError("storage_message_bytes must be 64 (NVMe command)")
        if self.prefetch_depth < 0:
            raise ConfigError("prefetch_depth must be >= 0")


@dataclass(frozen=True)
class FailoverConfig:
    """Failure detection and mitigation (§3.3.3, §3.5).

    The UDP interruption in Figure 13 is roughly: link-monitor detection
    (uniform over ``link_monitor_interval_ms``) + allocator processing +
    frontend notification + MAC-borrow relearning at the switch.  With the
    defaults below the end-to-end gap lands near the paper's 38 ms.
    """

    link_monitor_interval_ms: float = 25.0
    telemetry_interval_ms: float = 100.0
    lease_ttl_ms: float = 1000.0
    allocator_processing_ms: float = 10.0    # revoke leases, pick backup, log commit
    notify_frontend_ms: float = 2.0         # allocator -> each frontend driver
    mac_borrow_ms: float = 2.0              # GARP-style borrow frame + relearn
    host_failure_missed_telemetry: int = 3  # missed records before host declared dead
    migration_grace_period_s: float = 5.0   # dual-NIC RX window during migration
    lease_sweep_interval_ms: float = 250.0  # expiry sweep period (lease lifecycle)
    commit_retry_ms: float = 20.0           # re-propose queued commands to a new leader
    #: Group-commit flush window for replication: commands buffered up to
    #: this long ride one Raft log entry.  0 disables batching (every
    #: command is its own entry -- the 2-host replay-identical default).
    commit_batch_window_ms: float = 0.0
    commit_batch_max: int = 64              # flush early past this many buffered commands

    def validate(self) -> None:
        if self.link_monitor_interval_ms <= 0:
            raise ConfigError("link_monitor_interval_ms must be positive")
        if not self.telemetry_interval_ms > 0:
            raise ConfigError("telemetry_interval_ms must be positive")
        if self.lease_ttl_ms <= self.telemetry_interval_ms:
            raise ConfigError("lease TTL must exceed the telemetry interval")
        if self.lease_sweep_interval_ms <= 0:
            raise ConfigError("lease_sweep_interval_ms must be positive")
        if self.commit_retry_ms <= 0:
            raise ConfigError("commit_retry_ms must be positive")
        if self.commit_batch_window_ms < 0:
            raise ConfigError("commit_batch_window_ms must be >= 0")
        if self.commit_batch_max < 1:
            raise ConfigError("commit_batch_max must be >= 1")


@dataclass(frozen=True)
class TransportConfig:
    """Mini reliable transport used by the memcached workload (Fig 14)."""

    initial_rto_ms: float = 60.0
    max_rto_ms: float = 1000.0
    rto_backoff: float = 2.0
    max_retries: int = 8
    window: int = 64

    def validate(self) -> None:
        if self.initial_rto_ms <= 0 or self.max_rto_ms < self.initial_rto_ms:
            raise ConfigError("invalid RTO bounds")
        if self.rto_backoff < 1.0:
            raise ConfigError("rto_backoff must be >= 1")


@dataclass(frozen=True)
class RetryConfig:
    """Datapath retry/timeout/backoff under device faults (fault injection).

    The storage frontend re-submits requests that time out or complete with a
    transient device error (media error, queue-full, drive momentarily dead),
    backing off exponentially; after ``storage_max_retries`` the error is
    surfaced to the guest instead of hanging.  The network backend re-posts
    TX descriptors whose DMA was aborted mid-transfer.
    """

    storage_max_retries: int = 3
    storage_timeout_ms: float = 25.0    # per-attempt request deadline
    storage_backoff_ms: float = 1.0     # first retry delay
    storage_backoff_mult: float = 2.0   # exponential backoff factor
    tx_max_retries: int = 3
    tx_retry_backoff_us: float = 50.0   # first TX repost delay

    def validate(self) -> None:
        if self.storage_max_retries < 0 or self.tx_max_retries < 0:
            raise ConfigError("retry counts must be >= 0")
        if self.storage_timeout_ms <= 0:
            raise ConfigError("storage_timeout_ms must be positive")
        if self.storage_backoff_ms < 0 or self.tx_retry_backoff_us < 0:
            raise ConfigError("backoff delays must be >= 0")
        if self.storage_backoff_mult < 1.0:
            raise ConfigError("storage_backoff_mult must be >= 1")


@dataclass(frozen=True)
class OverloadConfig:
    """Overload control: admission, retry budgets, breakers, brownout.

    Disabled by default -- with ``enabled=False`` (and no
    ``CXLPod.enable_overload_control()`` call) no driver takes the armed
    path, so every seeded replay from earlier PRs stays byte-identical.
    A pod built with ``enabled=True`` arms every driver as it is added:

    * frontends bound their submission queues (``admission_depth``) and run
      CoDel-style drop-from-front on queue sojourn, so offered load beyond
      capacity is shed early instead of growing an unbounded backlog;
    * retries draw from a shared token-bucket *retry budget* replenished by
      fresh traffic (``retry_budget_ratio`` tokens per fresh request), so a
      retry storm can never exceed a configured fraction of offered load;
    * each frontend runs a per-device *circuit breaker*
      (closed -> open -> half-open) whose half-open probe time is jittered
      from a dedicated seeded substream;
    * a brownout controller watches the fleet pipeline's queue-saturation
      gauges and tells frontends to shed background/low-priority work first.
    """

    enabled: bool = False
    # -- bounded admission (CoDel-style drop-from-front) -------------------
    admission_depth: int = 256          # max queued-but-unsubmitted requests
    codel_target_ms: float = 5.0        # acceptable standing queue sojourn
    codel_interval_ms: float = 25.0     # breach must persist this long
    launch_window: int = 32             # in-flight cap per storage frontend
    # -- retry budget (token bucket, shared per frontend) ------------------
    retry_budget_ratio: float = 0.2     # tokens deposited per fresh request
    retry_budget_min: float = 8.0       # initial tokens (cold-start retries)
    retry_budget_cap: float = 64.0      # bucket capacity
    # -- circuit breaker (per device behind each frontend) -----------------
    breaker_failure_threshold: int = 8  # consecutive failures to trip open
    breaker_open_ms: float = 50.0       # open dwell before a half-open probe
    breaker_probe_jitter_ms: float = 5.0  # seeded jitter on the probe timer
    # -- brownout (driven by fleet queue saturation) -----------------------
    brownout_high: float = 0.85         # enter brownout at/above this
    brownout_low: float = 0.60          # leave brownout below this
    brownout_period_s: float = 0.005    # controller evaluation period

    def validate(self) -> None:
        if self.admission_depth < 1:
            raise ConfigError("admission_depth must be >= 1")
        if self.launch_window < 1:
            raise ConfigError("launch_window must be >= 1")
        if self.codel_target_ms <= 0 or self.codel_interval_ms <= 0:
            raise ConfigError("CoDel target/interval must be positive")
        if not 0 <= self.retry_budget_ratio <= 1:
            raise ConfigError("retry_budget_ratio must be in [0, 1]")
        if self.retry_budget_min < 0 or self.retry_budget_cap <= 0:
            raise ConfigError("retry budget sizes must be non-negative")
        if self.retry_budget_min > self.retry_budget_cap:
            raise ConfigError("retry_budget_min must be <= retry_budget_cap")
        if self.breaker_failure_threshold < 1:
            raise ConfigError("breaker_failure_threshold must be >= 1")
        if self.breaker_open_ms <= 0 or self.breaker_probe_jitter_ms < 0:
            raise ConfigError("breaker timings must be positive")
        if not 0 < self.brownout_low <= self.brownout_high:
            raise ConfigError("brownout thresholds must satisfy 0 < low <= high")
        if self.brownout_period_s <= 0:
            raise ConfigError("brownout_period_s must be positive")


@dataclass(frozen=True)
class HostConfig:
    """Per-host resource capacities used by the allocation/stranding study."""

    cores: int = 96
    memory_gb: float = 768.0
    nic_gbps: float = 100.0
    ssd_tb: float = 24.0                # six 4 TB local drives (§2.1)

    def validate(self) -> None:
        if min(self.cores, self.memory_gb, self.nic_gbps, self.ssd_tb) <= 0:
            raise ConfigError("host capacities must be positive")


@dataclass(frozen=True)
class OasisConfig:
    """Top-level bundle of every model constant."""

    cxl: CXLConfig = field(default_factory=CXLConfig)
    nic: NICConfig = field(default_factory=NICConfig)
    ssd: SSDConfig = field(default_factory=SSDConfig)
    datapath: DatapathConfig = field(default_factory=DatapathConfig)
    failover: FailoverConfig = field(default_factory=FailoverConfig)
    transport: TransportConfig = field(default_factory=TransportConfig)
    retry: RetryConfig = field(default_factory=RetryConfig)
    overload: OverloadConfig = field(default_factory=OverloadConfig)
    host: HostConfig = field(default_factory=HostConfig)
    seed: int = 42

    def validate(self) -> "OasisConfig":
        self.cxl.validate()
        self.nic.validate()
        self.ssd.validate()
        self.datapath.validate()
        self.failover.validate()
        self.transport.validate()
        self.retry.validate()
        self.overload.validate()
        self.host.validate()
        return self

    def with_(self, **kwargs) -> "OasisConfig":
        """Return a copy with top-level fields replaced."""
        return replace(self, **kwargs)


DEFAULT_CONFIG = OasisConfig()
