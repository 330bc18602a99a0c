"""Overload control for the pooled datapaths.

Oasis shares pooled NICs and SSDs across hosts, so one overloaded tenant
can collapse goodput for every host on the pool.  A pod armed through
``OasisConfig.overload.enabled`` or ``CXLPod.enable_overload_control()``
gives each driver one :class:`~repro.overload.stage.AdmissionStage`, which
composes the parts in this package:

* :class:`~repro.overload.budget.RetryBudget` -- a token bucket replenished
  by fresh traffic, so retries can never exceed a configured fraction of
  offered load (the anti-retry-storm budget).
* :class:`~repro.overload.breaker.CircuitBreaker` -- a per-device
  closed -> open -> half-open state machine with seeded probe jitter.
* :class:`~repro.overload.admission.AdmissionQueue` -- a bounded admission
  queue with CoDel-style sojourn-based drop-from-front: the lane type of
  the scheduler below, and the reference its tenant-less form is tested
  against.
* :class:`~repro.overload.wfq.WeightedFairScheduler` -- every stage's
  scheduler: virtual-time weighted-fair queueing over admission-queue
  lanes (one shared lane until tenants are registered), plus
  :class:`~repro.overload.wfq.TokenBucket` rate guarantees for the
  multi-tenant serving layer (``python -m repro serve``).
* :class:`~repro.overload.brownout.BrownoutController` -- watches the fleet
  pipeline's queue-saturation gauges and sets the registered stages'
  brownout level, so their drivers shed background/low-priority work first.

Everything here is deterministic: the only randomness (breaker probe
jitter) comes from dedicated
:class:`~repro.sim.rng.RngFactory` substreams, so overload control never
perturbs workload RNG draws and whole runs replay byte-identically.
"""

from .admission import AdmissionQueue
from .breaker import CircuitBreaker
from .brownout import BrownoutController
from .budget import RetryBudget
from .wfq import TenantSpec, TokenBucket, WeightedFairScheduler

__all__ = ["AdmissionQueue", "CircuitBreaker", "BrownoutController",
           "RetryBudget", "TenantSpec", "TokenBucket",
           "WeightedFairScheduler"]
