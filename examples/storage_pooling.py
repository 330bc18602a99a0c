#!/usr/bin/env python
"""Storage engine demo (§3.4): a remote pooled SSD as a block device.

An instance on host B gets a block device backed by an NVMe SSD physically
attached to host A.  I/O requests travel as 64 B NVMe-style messages over
the non-coherent CXL channels; data buffers live in shared CXL memory and
the SSD DMAs them directly -- the backend CPU never touches the data.

The demo writes a small key-value log, reads it back (verifying
bit-exactness through the non-coherent path), measures latency, then fails
the drive to show the paper's error-propagation semantics.

Run:  python examples/storage_pooling.py
"""

from repro import CXLPod, make_ip
from repro.analysis.report import render_table

SERVER_IP = make_ip(10, 0, 0, 1)
BLOCK = 4096


def main():
    pod = CXLPod(mode="oasis")
    storage_host = pod.add_host()
    compute_host = pod.add_host()
    pod.add_nic(storage_host)
    ssd = pod.add_ssd(storage_host)
    instance = pod.add_instance(compute_host, ip=SERVER_IP)
    # No drive named: the allocator places the instance through the same
    # entry point as its NIC -- place_instance(ip, host, demand, kind="ssd").
    device = pod.add_block_device(instance)
    assert pod.allocator.tables["ssd"].assignments[SERVER_IP] == ssd.name
    print(f"instance on {compute_host.name} -> {device.backend_name} on "
          f"{storage_host.name} (remote block device)\n")

    # Write a log of 16 records.
    records = {
        lba: f"record-{lba:04d}".encode().ljust(BLOCK, b".")
        for lba in range(16)
    }
    latencies = {}
    for lba, data in records.items():
        start = pod.sim.now
        device.write(lba, data,
                     lambda status, lba=lba, s=start:
                     latencies.setdefault(("w", lba),
                                          (status, pod.sim.now - s)))
        pod.run(0.001)

    # Read everything back and verify.
    mismatches = 0
    for lba, expected in records.items():
        start = pod.sim.now
        result = {}
        device.read(lba, 1, lambda status, data, r=result, s=start:
                    r.update(status=status, data=data,
                             latency=pod.sim.now - s))
        pod.run(0.001)
        latencies[("r", lba)] = (result["status"], result["latency"])
        if result["data"] != expected:
            mismatches += 1

    writes = [v[1] * 1e6 for k, v in latencies.items() if k[0] == "w"]
    reads = [v[1] * 1e6 for k, v in latencies.items() if k[0] == "r"]
    print(render_table(
        ["op", "count", "mean latency us", "status"],
        [
            ("write", len(writes), sum(writes) / len(writes), "all OK"),
            ("read", len(reads), sum(reads) / len(reads),
             "all OK" if mismatches == 0 else f"{mismatches} MISMATCHES"),
        ],
        title="Remote block I/O through the Oasis storage engine",
    ))
    assert mismatches == 0, "data corruption through the datapath!"

    # Failure semantics (§3.4): errors propagate, no transparent failover.
    ssd.fail()
    outcome = {}
    device.write(99, b"x" * BLOCK,
                 lambda status: outcome.update(status=status, at=pod.sim.now))
    failed_at = pod.sim.now
    # The error surfaces only after the frontend's I/O timeout and retries.
    while not outcome and pod.sim.now - failed_at < 1.0:
        pod.run(0.001)
    assert outcome, "write to the failed drive never completed"
    print(f"\nAfter drive failure: write completed with NVMe status "
          f"{outcome['status']:#x} after "
          f"{(outcome['at'] - failed_at) * 1e3:.1f} ms "
          f"(I/O error surfaced to the guest, §3.4)")
    # The reservation outlives the dead drive (the data is on it) until the
    # instance gives it up, again through the NICs' entry point.
    pod.allocator.release_instance(SERVER_IP, instance.spec.ssd_tb, kind="ssd")
    assert SERVER_IP not in pod.allocator.tables["ssd"].assignments
    pod.stop()


if __name__ == "__main__":
    main()
