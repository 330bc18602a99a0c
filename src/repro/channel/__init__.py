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
from .protocol import ChannelCounters, ChannelReceiver, ChannelSender
from .ring import RingLayout

__all__ = [
    "RingLayout",
    "ChannelSender",
    "ChannelReceiver",
    "ChannelCounters",
    "BypassCacheReceiver",
    "NaivePrefetchReceiver",
    "InvalidateConsumedReceiver",
    "InvalidatePrefetchedReceiver",
    "RECEIVER_DESIGNS",
    "make_receiver",
    "ChannelMicrobench",
    "MicrobenchResult",
    "sweep_designs",
]
