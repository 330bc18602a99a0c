"""Tests for the simulated NVMe SSD.

``TestMediaOracle`` checks the drive's sparse media against a dense
reference kept in the test; ``CHAOS_MAX_EXAMPLES`` scales its search effort
(raised in the nightly chaos CI job).
"""

import os
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.config import SSDConfig
from repro.errors import DeviceError, DeviceFailedError
from repro.host.host import Host
from repro.mem.cxl import CXLMemoryPool
from repro.pcie.queues import NVMeCommand
from repro.pcie.ssd import (
    NVME_OP_READ,
    NVME_OP_WRITE,
    NVME_STATUS_FAILED,
    NVME_STATUS_LBA_RANGE,
    NVME_STATUS_OK,
    SimSSD,
)
from repro.sim.core import Simulator, USEC


@pytest.fixture
def rig(sim):
    pool = CXLMemoryPool(size=1 << 20)
    host = Host(sim, "h0", pool)
    ssd = SimSSD(sim, host, SSDConfig(capacity_bytes=1 << 30), name="ssd0")
    comps = []
    ssd.on_completion = comps.append
    return pool, host, ssd, comps


BS = 4096
MAX_EXAMPLES = int(os.environ.get("CHAOS_MAX_EXAMPLES", "25"))


class TestIO:
    def test_write_then_read_roundtrip(self, sim, rig):
        pool, host, ssd, comps = rig
        data = bytes(range(256)) * 16
        pool.dma_write(0, data)
        ssd.submit(NVMeCommand(NVME_OP_WRITE, slba=5, nlb=1, addr=0, cid=1))
        sim.run_all()
        ssd.submit(NVMeCommand(NVME_OP_READ, slba=5, nlb=1, addr=8192, cid=2))
        sim.run_all()
        assert [c.status for c in comps] == [NVME_STATUS_OK, NVME_STATUS_OK]
        assert pool.dma_read(8192, BS) == data

    def test_unwritten_blocks_read_zero(self, sim, rig):
        pool, host, ssd, comps = rig
        pool.dma_write(0, b"\xFF" * BS)   # pre-dirty the target buffer
        ssd.submit(NVMeCommand(NVME_OP_READ, slba=100, nlb=1, addr=0, cid=1))
        sim.run_all()
        assert pool.dma_read(0, BS) == bytes(BS)

    def test_multi_block_io(self, sim, rig):
        pool, host, ssd, comps = rig
        data = bytes([7]) * (3 * BS)
        pool.dma_write(0, data)
        ssd.submit(NVMeCommand(NVME_OP_WRITE, slba=0, nlb=3, addr=0, cid=1))
        sim.run_all()
        ssd.submit(NVMeCommand(NVME_OP_READ, slba=1, nlb=1, addr=BS * 4, cid=2))
        sim.run_all()
        assert pool.dma_read(BS * 4, BS) == bytes([7]) * BS

    def test_lba_out_of_range_errors(self, sim, rig):
        pool, host, ssd, comps = rig
        ssd.submit(NVMeCommand(NVME_OP_READ, slba=ssd.num_blocks, nlb=1,
                               addr=0, cid=1))
        sim.run_all()
        assert comps[0].status == NVME_STATUS_LBA_RANGE

    def test_zero_nlb_errors(self, sim, rig):
        pool, host, ssd, comps = rig
        ssd.submit(NVMeCommand(NVME_OP_READ, slba=0, nlb=0, addr=0, cid=1))
        sim.run_all()
        assert comps[0].status == NVME_STATUS_LBA_RANGE

    def test_unknown_opcode_rejected(self, sim, rig):
        _, _, ssd, _ = rig
        with pytest.raises(DeviceError):
            ssd.submit(NVMeCommand(0x55, slba=0, nlb=1, addr=0))

    def test_counters(self, sim, rig):
        pool, host, ssd, comps = rig
        pool.dma_write(0, b"x" * BS)
        ssd.submit(NVMeCommand(NVME_OP_WRITE, slba=0, nlb=1, addr=0))
        ssd.submit(NVMeCommand(NVME_OP_READ, slba=0, nlb=1, addr=BS))
        sim.run_all()
        assert ssd.writes == 1 and ssd.reads == 1
        assert ssd.write_bytes == BS and ssd.read_bytes == BS


class TestTiming:
    def test_read_latency_floor(self, sim, rig):
        pool, host, ssd, comps = rig
        ssd.submit(NVMeCommand(NVME_OP_READ, slba=0, nlb=1, addr=0, cid=1))
        sim.run_all()
        assert comps[0].timestamp >= ssd.config.read_latency_us * USEC

    def test_write_faster_than_read(self, sim, rig):
        pool, host, ssd, comps = rig
        ssd.submit(NVMeCommand(NVME_OP_WRITE, slba=0, nlb=1, addr=0, cid=1))
        sim.run_all()
        write_done = comps[0].timestamp
        assert write_done < ssd.config.read_latency_us * USEC

    def test_queued_commands_overlap_media_latency(self, sim, rig):
        """With queue depth, total time for N reads << N * latency."""
        pool, host, ssd, comps = rig
        for i in range(8):
            ssd.submit(NVMeCommand(NVME_OP_READ, slba=i, nlb=1, addr=0, cid=i))
        sim.run_all()
        total = max(c.timestamp for c in comps)
        assert total < 8 * ssd.config.read_latency_us * USEC * 0.5

    def test_bandwidth_serializes_large_transfers(self, sim, rig):
        pool, host, ssd, comps = rig
        nlb = 64   # 256 KB each
        for i in range(4):
            ssd.submit(NVMeCommand(NVME_OP_READ, slba=0, nlb=nlb, addr=0, cid=i))
        sim.run_all()
        total = max(c.timestamp for c in comps)
        transfer = 4 * nlb * BS / ssd.config.bytes_per_sec
        assert total >= transfer


class TestFailure:
    def test_failed_drive_errors_new_submissions(self, sim, rig):
        _, _, ssd, _ = rig
        ssd.fail()
        with pytest.raises(DeviceFailedError):
            ssd.submit(NVMeCommand(NVME_OP_READ, slba=0, nlb=1, addr=0))

    def test_fail_drains_queued_commands_with_errors(self, sim, rig):
        pool, host, ssd, comps = rig
        for i in range(4):
            ssd.submit(NVMeCommand(NVME_OP_READ, slba=0, nlb=1, addr=0, cid=i))
        ssd.fail()
        sim.run_all()
        assert len(comps) == 4
        assert all(c.status == NVME_STATUS_FAILED for c in comps)

    def test_inflight_command_fails_cleanly(self, sim, rig):
        pool, host, ssd, comps = rig
        ssd.submit(NVMeCommand(NVME_OP_READ, slba=0, nlb=1, addr=0, cid=1))
        sim.run(until=10 * USEC)   # mid-flight
        ssd.fail()
        sim.run_all()
        assert comps and comps[-1].status == NVME_STATUS_FAILED


# -- media: only non-zero blocks are stored ------------------------------------

def _block(kind, seed):
    """One block's bytes: all zero, random, or zero but for the first or
    the last byte (the blocks a zero test most easily gets wrong)."""
    if kind == "zero":
        return bytes(BS)
    if kind == "data":
        return random.Random(seed).randbytes(BS)
    block = bytearray(BS)
    block[0 if kind == "head" else -1] = seed % 255 + 1
    return bytes(block)


LBAS = 16          # a small range, so writes overwrite and reads overlap
WBUF, RBUF = 0, 8 * BS

Blocks = st.lists(st.tuples(st.sampled_from(["zero", "data", "head", "tail"]),
                            st.integers(0, 1 << 16)), min_size=1, max_size=4)
MediaOp = st.one_of(
    st.tuples(st.just("write"), st.integers(0, LBAS - 1), Blocks),
    st.tuples(st.just("read"), st.integers(0, 2 * LBAS), st.integers(1, 4)),
)


class TestMediaOracle:
    def test_zero_write_over_data_deallocates(self, sim, rig):
        pool, host, ssd, comps = rig
        pool.dma_write(WBUF, b"\x5A" * BS)
        ssd.submit(NVMeCommand(NVME_OP_WRITE, slba=3, nlb=1, addr=WBUF))
        sim.run_all()
        assert ssd.footprint() == (1, BS)
        pool.dma_write(WBUF, bytes(BS))
        ssd.submit(NVMeCommand(NVME_OP_WRITE, slba=3, nlb=1, addr=WBUF))
        pool.dma_write(RBUF, b"\xFF" * BS)
        ssd.submit(NVMeCommand(NVME_OP_READ, slba=3, nlb=1, addr=RBUF))
        sim.run_all()
        assert [c.status for c in comps] == [NVME_STATUS_OK] * 3
        assert pool.dma_read(RBUF, BS) == bytes(BS)
        assert ssd.footprint() == (0, 0)

    @given(st.lists(MediaOp, min_size=1, max_size=30))
    @settings(max_examples=MAX_EXAMPLES, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_media_matches_dense_reference(self, ops):
        sim = Simulator()
        pool = CXLMemoryPool(size=1 << 20)
        ssd = SimSSD(sim, Host(sim, "h0", pool),
                     SSDConfig(capacity_bytes=1 << 30), name="ssd0")
        comps = []
        ssd.on_completion = comps.append
        dense = {}   # lba -> the last block written there, zeros included
        for op, lba, arg in ops:
            if op == "write":
                blocks = [_block(kind, seed) for kind, seed in arg]
                pool.dma_write(WBUF, b"".join(blocks))
                ssd.submit(NVMeCommand(NVME_OP_WRITE, slba=lba,
                                       nlb=len(blocks), addr=WBUF))
                sim.run_all()
                for i, block in enumerate(blocks):
                    dense[lba + i] = block
            else:
                pool.dma_write(RBUF, b"\xFF" * (arg * BS))
                ssd.submit(NVMeCommand(NVME_OP_READ, slba=lba, nlb=arg,
                                       addr=RBUF))
                sim.run_all()
                want = b"".join(dense.get(lba + i, bytes(BS))
                                for i in range(arg))
                assert pool.dma_read(RBUF, arg * BS) == want
            assert comps[-1].status == NVME_STATUS_OK
            k = sum(block != bytes(BS) for block in dense.values())
            assert ssd.footprint() == (k, k * BS)
