"""Tests for the storage engine (§3.4): block I/O over pooled SSDs."""

import pytest

from repro.core.pod import CXLPod
from repro.core.storage.messages import (
    SOP_COMPLETION,
    SOP_READ,
    SOP_WRITE,
    STORAGE_MESSAGE_SIZE,
    StorageMessage,
)
from repro.errors import AllocationError, ChannelError
from repro.net.packet import make_ip
from repro.pcie.ssd import NVME_STATUS_LBA_RANGE

IP = make_ip(10, 0, 0, 1)
BS = 4096


class TestStorageMessage:
    def test_roundtrip(self):
        message = StorageMessage(SOP_READ, cid=7, slba=100, nlb=8,
                                 buffer_addr=0xABCDE, instance_ip=IP)
        out = StorageMessage.unpack(message.pack())
        assert [getattr(out, f) for f in StorageMessage.__slots__] == \
            [getattr(message, f) for f in StorageMessage.__slots__]

    def test_exactly_64_bytes(self):
        assert STORAGE_MESSAGE_SIZE == 64
        assert len(StorageMessage(SOP_WRITE, 1, 2, 3, 4, 5).pack()) == 64

    def test_opcodes_leave_epoch_bit_clear(self):
        for op in (SOP_READ, SOP_WRITE, SOP_COMPLETION):
            assert op < 0x80

    def test_invalid_opcode_rejected(self):
        with pytest.raises(ChannelError):
            StorageMessage(0x7E, 1, 2, 3, 4, 5).pack()

    def test_status_roundtrip(self):
        message = StorageMessage(SOP_COMPLETION, 1, 0, 0, 0, 0, status=6)
        assert StorageMessage.unpack(message.pack()).status == 6


def build_storage_pod(remote=True, mode="oasis"):
    pod = CXLPod(mode=mode)
    h0 = pod.add_host()
    h1 = pod.add_host() if remote else h0
    pod.add_nic(h0)
    ssd = pod.add_ssd(h0)
    inst = pod.add_instance(h1 if remote else h0, ip=IP)
    device = pod.add_block_device(inst, ssd)
    return pod, ssd, device


class TestBlockIO:
    def test_write_read_roundtrip_remote(self):
        pod, ssd, device = build_storage_pod(remote=True)
        data = bytes(range(256)) * 16
        results = {}
        device.write(10, data, lambda s: results.setdefault("w", s))
        pod.run(0.01)
        device.read(10, 1, lambda s, d: results.setdefault("r", (s, d)))
        pod.run(0.01)
        assert results["w"] == 0
        assert results["r"] == (0, data)

    def test_unwritten_reads_zero(self):
        pod, ssd, device = build_storage_pod()
        results = {}
        device.read(500, 1, lambda s, d: results.setdefault("r", (s, d)))
        pod.run(0.01)
        assert results["r"] == (0, bytes(BS))

    def test_multi_block_write(self):
        pod, ssd, device = build_storage_pod()
        data = bytes([9]) * (4 * BS)
        results = {}
        device.write(0, data, lambda s: results.setdefault("w", s))
        pod.run(0.01)
        device.read(2, 2, lambda s, d: results.setdefault("r", (s, d)))
        pod.run(0.01)
        assert results["r"] == (0, bytes([9]) * (2 * BS))

    def test_unaligned_write_rejected(self):
        pod, ssd, device = build_storage_pod()
        from repro.errors import AllocationError

        with pytest.raises(AllocationError):
            device.write(0, b"x" * 100, lambda s: None)

    def test_concurrent_requests_all_complete(self):
        pod, ssd, device = build_storage_pod()
        statuses = []
        for i in range(32):
            device.write(i, bytes([i]) * BS, statuses.append)
        pod.run(0.05)
        assert statuses == [0] * 32

    def test_buffers_released_after_completion(self):
        pod, ssd, device = build_storage_pod()
        frontend = pod.storage_frontends[device.instance.host.name]
        for i in range(8):
            device.write(i, b"z" * BS, lambda s: None)
        pod.run(0.05)
        assert frontend.inflight == 0
        assert frontend._space.allocated_bytes == 0

    def test_local_mode_storage(self):
        pod, ssd, device = build_storage_pod(remote=False, mode="local")
        results = {}
        device.write(1, b"q" * BS, lambda s: results.setdefault("w", s))
        pod.run(0.01)
        device.read(1, 1, lambda s, d: results.setdefault("r", (s, d[:4])))
        pod.run(0.01)
        assert results["w"] == 0
        assert results["r"] == (0, b"qqqq")

    def test_read_latency_dominated_by_media(self):
        pod, ssd, device = build_storage_pod()
        done = {}
        start = pod.sim.now
        device.read(0, 1, lambda s, d: done.setdefault("t", pod.sim.now))
        pod.run(0.01)
        latency_us = (done["t"] - start) / 1e-6
        # Media is 90 us; the Oasis datapath adds single-digit us.
        assert 90 <= latency_us <= 120


class TestStorageFailure:
    def test_failed_drive_surfaces_io_error(self):
        pod, ssd, device = build_storage_pod()
        ssd.fail()
        results = {}
        device.write(0, b"x" * BS, lambda s: results.setdefault("w", s))
        pod.run(0.01)
        assert results["w"] != 0

    def test_inflight_requests_error_on_failure(self):
        pod, ssd, device = build_storage_pod()
        statuses = []
        for i in range(4):
            device.read(i, 1, lambda s, d: statuses.append(s))
        pod.run(0.00002)   # requests in flight
        ssd.fail()
        pod.run(0.05)
        assert len(statuses) == 4
        assert any(s != 0 for s in statuses)

    def test_errors_still_release_buffers(self):
        pod, ssd, device = build_storage_pod()
        ssd.fail()
        frontend = pod.storage_frontends[device.instance.host.name]
        for i in range(4):
            device.write(i, b"x" * BS, lambda s: None)
        pod.run(0.05)
        assert frontend.inflight == 0
        assert frontend._space.allocated_bytes == 0


class TestExtentChecks:
    """An extent the 64 B message cannot carry (negative or >= 2**64 LBA,
    zero or >= 2**32 blocks) is refused at submission, before a cid or a
    buffer is booked, so the pod keeps running; an LBA past the namespace
    still goes to the drive, which answers ``NVME_STATUS_LBA_RANGE``."""

    REFUSED = [
        ("write", -1, 1), ("write", 1 << 64, 1), ("write", 0, 0),
        ("read", -1, 1), ("read", 1 << 64, 1), ("read", 0, 0),
        ("read", 0, 1 << 32),
    ]

    @pytest.mark.parametrize("op,lba,nblocks", REFUSED)
    def test_refused_before_booking(self, op, lba, nblocks):
        pod, ssd, device = build_storage_pod()
        frontend = pod.storage_frontends[device.instance.host.name]
        with pytest.raises(AllocationError):
            if op == "write":
                device.write(lba, bytes(nblocks * BS), lambda s: None)
            else:
                device.read(lba, nblocks, lambda s, d: None)
        assert frontend._pending == {}
        assert frontend._space.allocated_bytes == 0
        assert frontend.submitted == 0
        pod.run(0.01)
        results = {}
        data = bytes(range(256)) * 16
        device.write(7, data, lambda s: results.setdefault("w", s))
        pod.run(0.01)
        device.read(7, 1, lambda s, d: results.setdefault("r", (s, d)))
        pod.run(0.01)
        assert results == {"w": 0, "r": (0, data)}

    def test_past_namespace_is_the_drives_answer(self):
        pod, ssd, device = build_storage_pod()
        frontend = pod.storage_frontends[device.instance.host.name]
        results = {}
        device.write(ssd.num_blocks, b"x" * BS,
                     lambda s: results.setdefault("w", s))
        device.read(ssd.num_blocks - 1, 2,
                    lambda s, d: results.setdefault("r", s))
        pod.run(0.01)
        assert results == {"w": NVME_STATUS_LBA_RANGE,
                           "r": NVME_STATUS_LBA_RANGE}
        assert frontend._space.allocated_bytes == 0


class TestStaleBufferRegression:
    def test_read_after_write_buffer_reuse_is_fresh(self):
        """Regression: a recycled *write* buffer left clean stale lines in
        the frontend's cache; a later read reusing that region must not
        return the old write's bytes (the §3.2 failure class)."""
        pod, ssd, device = build_storage_pod(remote=True)
        first = b"A" * BS
        second = b"B" * BS
        done = {}
        device.write(0, first, lambda s: done.setdefault("w0", s))
        pod.run(0.001)
        device.write(1, second, lambda s: done.setdefault("w1", s))
        pod.run(0.001)
        # Reads reuse the freed write-buffer regions (first-fit allocator).
        results = []
        device.read(1, 1, lambda s, d: results.append(d))
        pod.run(0.001)
        device.read(0, 1, lambda s, d: results.append(d))
        pod.run(0.001)
        assert results[0] == second
        assert results[1] == first


class TestStoragePlacement:
    def test_allocator_prefers_local_ssd(self):
        pod = CXLPod(mode="oasis")
        h0, h1 = pod.add_host(), pod.add_host()
        pod.add_nic(h0)
        ssd0 = pod.add_ssd(h0)
        ssd1 = pod.add_ssd(h1)
        inst = pod.add_instance(h1, ip=IP)
        device = pod.add_block_device(inst)     # allocator places
        assert device.backend_name == ssd1.name
        assert pod.allocator.tables["ssd"].assignments[IP] == ssd1.name

    def test_allocator_falls_back_to_remote(self):
        pod = CXLPod(mode="oasis")
        h0, h1 = pod.add_host(), pod.add_host()
        pod.add_nic(h0)
        ssd0 = pod.add_ssd(h0)                  # only h0 has a drive
        inst = pod.add_instance(h1, ip=IP)
        device = pod.add_block_device(inst)
        assert device.backend_name == ssd0.name
        # A storage lease was granted.
        assert pod.allocator.leases.get(IP, ssd0.name) is not None

    def test_storage_telemetry_flows_to_allocator(self):
        pod = CXLPod(mode="oasis")
        h0 = pod.add_host()
        pod.add_nic(h0)
        ssd = pod.add_ssd(h0)
        inst = pod.add_instance(h0, ip=IP)
        device = pod.add_block_device(inst)
        for i in range(16):
            device.write(i, b"x" * BS, lambda s: None)
        pod.run(0.35)   # a few 100 ms telemetry ticks
        assert ssd.name in pod.allocator.telemetry_store._latest
        assert pod.allocator.tables["ssd"].devices[ssd.name].measured_load >= 0

    def test_release_storage_returns_capacity(self):
        pod = CXLPod(mode="oasis")
        h0 = pod.add_host()
        pod.add_nic(h0)
        ssd = pod.add_ssd(h0)
        inst = pod.add_instance(h0, ip=IP)
        pod.add_block_device(inst)
        before = pod.allocator.tables["ssd"].devices[ssd.name].allocated
        pod.allocator.release_instance(IP, inst.spec.ssd_tb, kind="ssd")
        after = pod.allocator.tables["ssd"].devices[ssd.name].allocated
        assert after < before


class TestBlockWorkload:
    def test_workload_measures_latency(self):
        from repro.workloads.blockio import BlockWorkload
        from repro.sim.rng import Stream

        pod, ssd, device = build_storage_pod(remote=True)
        workload = BlockWorkload(pod.sim, device, rate_iops=2000,
                                 rng=Stream(1))
        workload.start(0.05)
        pod.run(0.1)
        stats = workload.stats.summary()
        assert stats["completed"] > 50
        assert stats["errors"] == 0
        assert stats["read"]["p50"] > 90          # media floor
        assert stats["write"]["p50"] < stats["read"]["p50"]
        assert workload.inflight == 0

    def test_queue_depth_cap(self):
        from repro.workloads.blockio import BlockWorkload
        from repro.sim.rng import Stream

        pod, ssd, device = build_storage_pod(remote=True)
        workload = BlockWorkload(pod.sim, device, rate_iops=500_000,
                                 queue_depth=8, rng=Stream(1))
        workload.start(0.01)
        pod.run(0.05)
        # Open-loop overload: many issue ticks find the queue full.
        assert workload.stats.submitted < 500_000 * 0.01
        assert workload.stats.completed == workload.stats.submitted


class TestPageGranularBuffers:
    """PR 15: buffers move through the memory model a page at a time; the
    seams of that layout must not show in what a device or instance sees."""

    def test_512_byte_blocks_straddling_a_page_boundary(self):
        from dataclasses import replace

        from repro.config import OasisConfig

        base = OasisConfig()
        pod = CXLPod(config=base.with_(ssd=replace(base.ssd, block_size=512)))
        h0, h1 = pod.add_host(), pod.add_host()
        pod.add_nic(h0)
        ssd = pod.add_ssd(h0)
        device = pod.add_block_device(pod.add_instance(h1, ip=IP), ssd)
        frontend = pod.storage_frontends[h1.name]
        regions = []
        alloc = frontend._space.alloc
        frontend._space.alloc = lambda size, label="": (
            regions.append(alloc(size, label)) or regions[-1])

        # 3-block (1536 B) buffers packed back to back: 1536 does not divide
        # 4096, so some of them cross a 4 KiB page boundary.
        blobs = [bytes((7 * i + j) & 0xFF for j in range(3 * 512)) for i in range(8)]
        statuses = []
        for i, blob in enumerate(blobs):
            device.write(3 * i, blob, statuses.append)
        pod.run(0.01)
        assert statuses == [0] * 8
        got = {}
        for i in range(8):
            device.read(3 * i, 3, lambda s, d, i=i: got.setdefault(i, (s, d)))
        pod.run(0.01)
        assert got == {i: (0, blob) for i, blob in enumerate(blobs)}
        assert any(r.base // 4096 != (r.base + r.size - 1) // 4096 for r in regions)
        # A single block read back from the middle of a straddling write.
        device.read(7, 1, lambda s, d: got.setdefault("mid", (s, d)))
        pod.run(0.01)
        assert got["mid"] == (0, blobs[2][512:1024])
