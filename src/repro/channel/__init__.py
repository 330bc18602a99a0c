"""Message channels over non-coherent shared CXL memory (§3.2.2)."""

from .designs import (
    RECEIVER_DESIGNS,
    BypassCacheReceiver,
    InvalidateConsumedReceiver,
    InvalidatePrefetchedReceiver,
    NaivePrefetchReceiver,
    make_receiver,
)
from .microbench import ChannelMicrobench, MicrobenchResult, sweep_designs
from .protocol import ChannelCounters, ChannelReceiver, ChannelSender, TimingHooks
from .ring import RingLayout
from .sharded import sharded_saturation

__all__ = [
    "RingLayout",
    "ChannelSender",
    "ChannelReceiver",
    "ChannelCounters",
    "TimingHooks",
    "BypassCacheReceiver",
    "NaivePrefetchReceiver",
    "InvalidateConsumedReceiver",
    "InvalidatePrefetchedReceiver",
    "RECEIVER_DESIGNS",
    "make_receiver",
    "ChannelMicrobench",
    "MicrobenchResult",
    "sweep_designs",
    "sharded_saturation",
]
