"""Sharded multi-channel message passing (§6, "Single-threaded datapath").

The paper's prototype uses one I/O core and one channel per direction, and
notes that "message channel throughput scales linearly with additional
channels", making a sharded multi-channel design the natural extension for
devices faster than one core can feed: N independent rings, each with its
own sender/receiver core pair, a flow pinned to one of them.

:func:`sharded_saturation` measures aggregate saturation throughput vs shard
count with the Figure 6 virtual-time harness, one simulated core pair per
shard -- the linear-scaling claim made quantitative.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from ..config import OasisConfig
from .microbench import ChannelMicrobench

__all__ = ["sharded_saturation"]


def sharded_saturation(
    shard_counts: Sequence[int] = (1, 2, 4, 8),
    n_messages: int = 10_000,
    slots: int = 2048,
    config: Optional[OasisConfig] = None,
) -> Dict[int, float]:
    """Aggregate saturation MOp/s vs shard count.

    Each shard is an independent sender/receiver core pair, so aggregate
    throughput is the sum of per-shard saturation runs -- exactly the
    linear-scaling argument of §6 (the shards share only the CXL link, which
    at ~30 GB/s is far from limiting 16 B message traffic).
    """
    results: Dict[int, float] = {}
    for shards in shard_counts:
        total = 0.0
        for shard in range(shards):
            bench = ChannelMicrobench("invalidate-prefetched", config=config,
                                      slots=slots)
            total += bench.run(n_messages).achieved_mops
        results[shards] = total
    return results
