"""Stranding and pooling study (§2.2, Figure 2).

Pipeline:

1. :func:`schedule_trace` -- a first-fit scheduler places the allocation
   trace onto hosts, respecting every per-host resource dimension.  A host
   fills up along one dimension (usually cores), stranding the others.
2. :func:`stranded_fractions` -- time-averaged unallocated share per
   resource while the cluster is loaded: the paper's "27 % NIC / 33 % SSD
   stranded".
3. :func:`pooled_stranding` -- Figure 2 proper: for each pod size, NIC
   bandwidth and SSD capacity are provisioned per *pod* in whole-device
   units sized to the pod's peak pooled demand (the minimum provisioning
   that still places every instance on its trace host); the stranded share
   is the time-averaged provisioned-but-unallocated fraction.  Larger pods
   average out non-coincident per-host peaks, so fewer devices suffice and
   stranding drops -- the paper's 27 %->~11 % (NIC) and 33 %->7 % (SSD) at
   pod size 8.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .allocation import RESOURCES, AllocationTrace, InstanceRequest

__all__ = [
    "schedule_trace",
    "stranded_fractions",
    "pooled_stranding",
    "PoolingResult",
    "UsageTimeline",
]


def schedule_trace(trace: AllocationTrace, n_hosts: int) -> int:
    """First-fit placement onto ``n_hosts`` hosts (all four dimensions).

    Mutates ``instance.host``; unplaceable instances keep ``host=None``.
    Returns the number of placed instances.
    """
    events: List[Tuple[float, int, InstanceRequest]] = []
    for instance in trace.instances:
        events.append((instance.arrive_s, 1, instance))
        events.append((instance.depart_s, 0, instance))
    events.sort(key=lambda e: (e[0], e[1]))

    used = np.zeros((n_hosts, len(RESOURCES)))
    placed = 0
    for _, kind, instance in events:
        if kind == 0:
            if instance.host is not None:
                used[instance.host] -= instance.demand()
            continue
        demand = instance.demand()
        for host in range(n_hosts):
            if np.all(used[host] + demand <= trace.host_capacity + 1e-9):
                used[host] += demand
                instance.host = host
                placed += 1
                break
    return placed


@dataclass
class UsageTimeline:
    """Piecewise-constant per-host, per-resource usage over time."""

    times: np.ndarray            # event timestamps, shape (E,)
    durations: np.ndarray        # interval lengths after each event, (E,)
    usage: np.ndarray            # usage during each interval, (E, H, R)

    @classmethod
    def build(cls, trace: AllocationTrace, n_hosts: int) -> "UsageTimeline":
        events: List[Tuple[float, int, float, float, float, float]] = []
        for instance in trace.placed:
            d = instance.demand()
            events.append((instance.arrive_s, instance.host, *d))
            events.append((instance.depart_s, instance.host, *(-d)))
        events.sort(key=lambda e: e[0])
        n = len(events)
        times = np.array([e[0] for e in events])
        usage = np.zeros((n, n_hosts, len(RESOURCES)))
        current = np.zeros((n_hosts, len(RESOURCES)))
        for i, event in enumerate(events):
            host = event[1]
            current[host] += np.array(event[2:])
            usage[i] = current
        durations = np.empty(n)
        durations[:-1] = np.diff(times)
        durations[-1] = 0.0
        return cls(times, durations, usage)

    def loaded_mask(self, capacity: np.ndarray,
                    load_threshold: float = 0.6) -> np.ndarray:
        """Intervals where mean core usage exceeds the threshold."""
        core = RESOURCES.index("cores")
        mean_core = self.usage[:, :, core].mean(axis=1)
        return mean_core >= load_threshold * capacity[core]

    def time_average(self, values: np.ndarray, mask: np.ndarray) -> float:
        """Duration-weighted mean of ``values`` over masked intervals."""
        w = self.durations * mask
        total = w.sum()
        if total <= 0:
            return float(values.mean()) if len(values) else 0.0
        return float((values * w).sum() / total)


def stranded_fractions(trace: AllocationTrace, n_hosts: int,
                       load_threshold: float = 0.6) -> Dict[str, float]:
    """Time-averaged stranded share per resource while the cluster is loaded."""
    timeline = UsageTimeline.build(trace, n_hosts)
    mask = timeline.loaded_mask(trace.host_capacity, load_threshold)
    result = {}
    for r, resource in enumerate(RESOURCES):
        capacity = trace.host_capacity[r]
        utilization = timeline.usage[:, :, r].sum(axis=1) / (n_hosts * capacity)
        result[resource] = 1.0 - timeline.time_average(utilization, mask)
    return result


@dataclass
class PoolingResult:
    """Figure 2 outcome for one pod size and one resource."""

    pod_size: int
    resource: str
    devices_needed: int
    devices_baseline: int
    stranded_fraction: float
    saved_fraction: float


def pooled_stranding(
    trace: AllocationTrace,
    n_hosts: int,
    pod_sizes: Sequence[int],
    resource: str,
    device_unit: float,
    rng: Optional[np.random.Generator] = None,
    repeats: int = 3,
    load_threshold: float = 0.6,
    port_limit: Optional[int] = None,
) -> List[PoolingResult]:
    """Figure 2: stranded share vs pod size for one pooled resource.

    Hosts are assigned to pods at random (as in the paper) and results
    averaged over ``repeats`` shuffles.  Provisioning per pod is the minimum
    whole-device count covering the pod's peak pooled demand, but never less
    than one device per pod.

    ``port_limit`` models the multi-headed device's finite head count at
    rack scale: a device attaches to at most ``port_limit`` hosts, so a pod
    of ``m`` members needs at least ``ceil(m / port_limit)`` devices no
    matter how low its pooled peak is.
    """
    rng = rng if rng is not None else np.random.default_rng(0)
    timeline = UsageTimeline.build(trace, n_hosts)
    mask = timeline.loaded_mask(trace.host_capacity, load_threshold)
    r = RESOURCES.index(resource)
    results = []
    for pod_size in pod_sizes:
        needed_acc = 0.0
        stranded_acc = 0.0
        for _ in range(repeats):
            order = rng.permutation(n_hosts)
            n_pods = int(np.ceil(n_hosts / pod_size))
            devices_needed = 0
            used_avg_total = 0.0
            provisioned_total = 0.0
            per_host_devices = max(1, int(round(
                trace.host_capacity[r] / device_unit)))
            for p in range(n_pods):
                members = order[p * pod_size:(p + 1) * pod_size]
                pod_usage = timeline.usage[:, members, r].sum(axis=1)
                peak = float(pod_usage[mask].max()) if mask.any() else float(
                    pod_usage.max() if len(pod_usage) else 0.0)
                if pod_size == 1:
                    # No pooling: the host keeps its full device complement
                    # (you cannot remove a host's only NIC) -- the Figure 2
                    # baseline point.
                    devices = per_host_devices * len(members)
                else:
                    devices = max(1, int(np.ceil(peak / device_unit - 1e-9)))
                    if port_limit is not None:
                        devices = max(devices, int(
                            np.ceil(len(members) / port_limit)))
                devices_needed += devices
                provisioned_total += devices * device_unit
                used_avg_total += timeline.time_average(pod_usage, mask)
            stranded_acc += 1.0 - used_avg_total / provisioned_total
            needed_acc += devices_needed
        # Baseline: every host keeps its full device complement (1 NIC, 6
        # SSDs on the paper's host configuration).
        baseline = n_hosts * max(1, int(round(
            trace.host_capacity[r] / device_unit)))
        results.append(PoolingResult(
            pod_size=pod_size,
            resource=resource,
            devices_needed=int(round(needed_acc / repeats)),
            devices_baseline=baseline,
            stranded_fraction=stranded_acc / repeats,
            saved_fraction=1.0 - (needed_acc / repeats) / baseline,
        ))
    return results
