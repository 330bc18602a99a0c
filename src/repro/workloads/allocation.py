"""Synthetic cloud allocation trace (the Azure trace of §2.2, Figure 2).

The production trace records, per instance: arrival and departure time, the
scheduled host, and the allocated resources (cores, memory, NIC bandwidth,
SSD capacity).  We generate a statistically similar trace:

* heterogeneous instance families with different resource *ratios*
  (general-purpose, compute-, memory-, storage- and network-optimised), in
  power-of-two sizes, so bin-packing fills hosts along one dimension first;
* Poisson arrivals with lognormal lifetimes;
* the family mix is calibrated so that first-fit packing strands roughly the
  paper's numbers: ~5 % cores, ~9 % memory, ~27 % NIC bandwidth and ~33 %
  SSD capacity.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List, Optional, Tuple

from ..config import HostConfig

if TYPE_CHECKING:
    import numpy as np   # annotations only; the functions import it

__all__ = ["InstanceRequest", "InstanceFamily", "AllocationTrace",
           "DEFAULT_FAMILIES", "generate_allocation_trace"]

RESOURCES = ("cores", "memory_gb", "nic_gbps", "ssd_tb")


@dataclass(frozen=True)
class InstanceFamily:
    """One instance family: per-core resource ratios + popularity weight."""

    name: str
    weight: float
    mem_per_core: float
    nic_per_core: float
    ssd_per_core: float


# Calibrated so cores bind first on a 96-core / 768 GB / 100 Gbps / 24 TB
# host while NIC and SSD lag behind by the paper's stranding margins.
DEFAULT_FAMILIES: List[InstanceFamily] = [
    InstanceFamily("general", 0.40, mem_per_core=8.0, nic_per_core=0.8,
                   ssd_per_core=0.18),
    InstanceFamily("compute", 0.22, mem_per_core=4.0, nic_per_core=0.5,
                   ssd_per_core=0.08),
    InstanceFamily("memory", 0.16, mem_per_core=16.0, nic_per_core=0.7,
                   ssd_per_core=0.12),
    InstanceFamily("storage", 0.12, mem_per_core=8.0, nic_per_core=0.9,
                   ssd_per_core=0.60),
    InstanceFamily("network", 0.10, mem_per_core=6.0, nic_per_core=2.2,
                   ssd_per_core=0.10),
]

_SIZES = (2, 4, 8, 16, 32)
_SIZE_WEIGHTS = (0.35, 0.30, 0.20, 0.10, 0.05)


@dataclass
class InstanceRequest:
    """One instance in the allocation trace."""

    index: int
    family: str
    arrive_s: float
    depart_s: float
    cores: float
    memory_gb: float
    nic_gbps: float
    ssd_tb: float
    host: Optional[int] = None   # assigned by the scheduler

    def demand(self) -> np.ndarray:
        import numpy as np
        return np.array([self.cores, self.memory_gb, self.nic_gbps, self.ssd_tb])


@dataclass
class AllocationTrace:
    """A full arrival/departure trace plus the host capacity vector."""

    instances: List[InstanceRequest]
    host_capacity: np.ndarray
    duration_s: float

    @property
    def placed(self) -> List[InstanceRequest]:
        return [i for i in self.instances if i.host is not None]


def generate_allocation_trace(
    n_instances: int = 2000,
    duration_s: float = 10_000.0,
    mean_lifetime_s: float = 4000.0,
    host: Optional[HostConfig] = None,
    families: Optional[List[InstanceFamily]] = None,
    rng: Optional[np.random.Generator] = None,
) -> AllocationTrace:
    """Generate an unplaced trace (run a scheduler from
    :mod:`repro.workloads.stranding` to assign hosts)."""
    import numpy as np
    rng = rng if rng is not None else np.random.default_rng(0)
    host = host or HostConfig()
    families = families or DEFAULT_FAMILIES
    weights = np.array([f.weight for f in families])
    weights = weights / weights.sum()

    arrivals = np.sort(rng.uniform(0.0, duration_s, n_instances))
    lifetimes = rng.lognormal(np.log(mean_lifetime_s), 0.8, n_instances)
    family_idx = rng.choice(len(families), n_instances, p=weights)
    sizes = rng.choice(_SIZES, n_instances, p=_SIZE_WEIGHTS)

    instances = []
    for i in range(n_instances):
        family = families[family_idx[i]]
        cores = float(sizes[i])
        jitter = rng.uniform(0.85, 1.15, 3)
        instances.append(InstanceRequest(
            index=i,
            family=family.name,
            arrive_s=float(arrivals[i]),
            depart_s=float(arrivals[i] + lifetimes[i]),
            cores=cores,
            memory_gb=cores * family.mem_per_core * jitter[0],
            nic_gbps=cores * family.nic_per_core * jitter[1],
            ssd_tb=cores * family.ssd_per_core * jitter[2],
        ))
    capacity = np.array([host.cores, host.memory_gb, host.nic_gbps, host.ssd_tb])
    return AllocationTrace(instances, capacity, duration_s)
