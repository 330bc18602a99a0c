"""CXL memory substrate: shared pool, non-coherent host caches, regions."""

from .cache import CacheStats, HostCache
from .cxl import CXLMemoryPool, LinkStats, line_index, lines_spanned
from .layout import FixedPool, Region, RegionAllocator, align_up

__all__ = [
    "CXLMemoryPool",
    "LinkStats",
    "HostCache",
    "CacheStats",
    "Region",
    "RegionAllocator",
    "FixedPool",
    "align_up",
    "line_index",
    "lines_spanned",
]
