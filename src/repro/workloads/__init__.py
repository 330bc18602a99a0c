"""Workload generators and application models."""

from .allocation import (
    DEFAULT_FAMILIES,
    AllocationTrace,
    InstanceFamily,
    InstanceRequest,
    generate_allocation_trace,
)
from .apps import APP_PROFILES, AppClient, AppProfile, AppServer
from .blockio import BlockWorkload, BlockWorkloadStats
from .echo import EchoClient, EchoServer, EchoStats
from .openloop import OpenLoopBlockClient, OpenLoopStats
from .replay import ReplayResult, TraceReplayClient, run_trace_replay
from .tenants import SERVE_PROFILES, TenantClient, TenantProfile
from .stranding import (
    PoolingResult,
    pooled_stranding,
    schedule_trace,
    stranded_fractions,
)
from .traces import (
    RACK_A_PARAMS,
    RACK_B_PARAMS,
    PacketTrace,
    TraceParams,
    generate_trace,
)

__all__ = [
    "EchoClient",
    "EchoServer",
    "EchoStats",
    "AppServer",
    "AppClient",
    "AppProfile",
    "APP_PROFILES",
    "BlockWorkload",
    "BlockWorkloadStats",
    "OpenLoopBlockClient",
    "OpenLoopStats",
    "TenantProfile",
    "TenantClient",
    "SERVE_PROFILES",
    "TraceParams",
    "PacketTrace",
    "generate_trace",
    "RACK_A_PARAMS",
    "RACK_B_PARAMS",
    "AllocationTrace",
    "InstanceRequest",
    "InstanceFamily",
    "DEFAULT_FAMILIES",
    "generate_allocation_trace",
    "schedule_trace",
    "stranded_fractions",
    "pooled_stranding",
    "PoolingResult",
    "TraceReplayClient",
    "ReplayResult",
    "run_trace_replay",
]
