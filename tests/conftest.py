"""Shared fixtures for the Oasis reproduction test suite."""

from __future__ import annotations

import pytest

from repro.config import CXLConfig, OasisConfig
from repro.mem.cache import HostCache
from repro.mem.cxl import CXLMemoryPool
from repro.sim.core import Simulator
from repro.sim.rng import Stream


@pytest.fixture
def sim():
    return Simulator()


@pytest.fixture
def config():
    return OasisConfig()


@pytest.fixture
def small_pool():
    """A 1 MB CXL pool, plenty for unit tests."""
    return CXLMemoryPool(CXLConfig(), size=1 << 20)


@pytest.fixture
def cache_pair(small_pool):
    """Two hosts' non-coherent caches over the same pool."""
    return (
        HostCache(small_pool, "hostA"),
        HostCache(small_pool, "hostB"),
    )


@pytest.fixture
def rng():
    return Stream(1234)
