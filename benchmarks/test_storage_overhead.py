"""Benchmark: storage engine overhead (beyond the paper's evaluation).

The paper designs the storage engine (§3.4) but does not evaluate it.  This
benchmark does: random 4 KB block I/O against a local SSD (baseline) vs the
same drive pooled over CXL (Oasis), reporting the added latency.  Expected
shape: single-digit-microsecond overhead on a ~100 us media floor -- the
same story as the network engine, an order of magnitude below the device's
own latency.
"""

from repro.analysis.report import render_table
from repro.core.pod import CXLPod
from repro.net.packet import make_ip
from repro.sim.rng import Stream
from repro.workloads.blockio import BlockWorkload

IP = make_ip(10, 0, 0, 1)


def _run(mode: str, remote: bool, duration: float = 0.2) -> dict:
    pod = CXLPod(mode=mode)
    h0 = pod.add_host()
    h1 = pod.add_host() if remote else h0
    pod.add_nic(h0)
    ssd = pod.add_ssd(h0)
    inst = pod.add_instance(h1 if remote else h0, ip=IP)
    device = pod.add_block_device(inst, ssd)
    workload = BlockWorkload(pod.sim, device, rate_iops=20_000,
                             rng=Stream(3))
    workload.start(duration)
    pod.run(duration + 0.05)
    pod.stop()
    return workload.stats.summary()


def test_storage_overhead():
    base = _run("local", remote=False)
    oasis = _run("oasis", remote=True)
    rows = [(op, base[op]["p50"], oasis[op]["p50"],
             oasis[op]["p50"] - base[op]["p50"], base[op]["p99"],
             oasis[op]["p99"]) for op in ("read", "write")]
    print(render_table(
        ["op", "base p50 us", "oasis p50 us", "d(p50)", "base p99",
         "oasis p99"],
        rows,
        title="Storage engine overhead: local vs pooled SSD "
              "(4 KB random I/O at 20 kIOPS)"))
    for op in ("read", "write"):
        # single-digit us over the media
        assert 1.0 <= oasis[op]["p50"] - base[op]["p50"] <= 12.0
        assert base[op]["count"] > 500
        assert oasis[op]["count"] > 500
