"""Per-layer tracing owned by the benchmark: nothing inside ``src/`` changes.

Three views of one workload window, each mapped onto the repo's layers:

* **host time** -- a ``cProfile`` run whose code objects are assigned to a
  layer by their source directory under ``src/repro/`` (never by function
  name, so a refactor inside a layer cannot break the frozen benchmark).
  C functions are not profiled separately, so their time counts as self time
  of the Python function that called them.  Cross-layer calls are kept as
  spans aggregated per edge: caller layer -> callee layer:function, count and
  inclusive time, so each span carries the layer that caused it.
* **modelled-component counters** -- exact, from ``pod.metrics.snapshot()``
  deltas over the window.
* **simulated time per stage** -- from ``pod.flows.records`` of a flow-traced
  run, stages grouped by prefix.
"""

from __future__ import annotations

import cProfile
import os

import numpy as np

__all__ = ["LAYERS", "LayerProfile", "registry_counters", "cache_counters",
           "flow_stage_metrics"]

#: this repo's module directories; ``other`` is host, faults, core.pod,
#: analysis, experiments, the standard library, numpy and the harness itself
LAYERS = ("sim", "mem", "channel", "core.engine", "core.datapath",
          "core.netengine", "core.storage", "core.allocator", "core.control",
          "core.raft", "pcie", "net", "obs", "overload", "workloads", "other")


def layer_of(filename: str, repro_root: str) -> str:
    """The layer a source file belongs to, by its directory."""
    if not filename.startswith(repro_root):
        return "other"
    parts = filename[len(repro_root):].lstrip(os.sep).split(os.sep)
    head = parts[0].removesuffix(".py")
    if head == "core" and len(parts) > 1:
        head = "core." + parts[1].removesuffix(".py")
    return head if head in LAYERS else "other"


class LayerProfile:
    """Profile a ``with`` block and fold the result onto the layers."""

    def __init__(self, repro_root: str):
        self.repro_root = os.path.realpath(repro_root) + os.sep
        self.profiler = cProfile.Profile(builtins=False)

    def __enter__(self):
        self.profiler.enable()
        return self

    def __exit__(self, *exc):
        self.profiler.disable()
        return False

    def summary(self) -> dict:
        """Self time and calls per layer, plus the cross-layer edges."""
        self.profiler.create_stats()
        layer_cache: dict = {}

        def layer(func) -> str:
            filename = func[0]
            found = layer_cache.get(filename)
            if found is None:
                found = layer_cache[filename] = layer_of(
                    os.path.realpath(filename) if os.path.isabs(filename)
                    else filename, self.repro_root)
            return found

        layers = {name: {"self_s": 0.0, "calls": 0} for name in LAYERS}
        edges: dict = {}
        for func, (_cc, ncalls, self_s, _ct, callers) in \
                self.profiler.stats.items():
            callee_layer = layer(func)
            layers[callee_layer]["self_s"] += self_s
            layers[callee_layer]["calls"] += ncalls
            for caller, (_ecc, edge_calls, _ett, edge_incl) in callers.items():
                caller_layer = layer(caller)
                if caller_layer == callee_layer:
                    continue
                key = (caller_layer, callee_layer, func[2])
                calls, incl = edges.get(key, (0, 0.0))
                edges[key] = (calls + edge_calls, incl + edge_incl)
        total = sum(entry["self_s"] for entry in layers.values())
        return {
            "total_self_s": total,
            "layers": layers,
            "edges": [
                {"from": src, "to": dst, "function": fn, "calls": calls,
                 "inclusive_s": incl}
                for (src, dst, fn), (calls, incl) in sorted(
                    edges.items(), key=lambda item: -item[1][1])],
        }


# -- modelled-component counters -------------------------------------------------


def _family(delta, name: str, **match):
    """Sum of a metric family over the window, or None when not exported."""
    total, found = 0.0, False
    for (sample_name, labels), value in delta.items():
        if sample_name != name:
            continue
        if match:
            table = dict(labels)
            if any(table.get(k) not in v for k, v in match.items()):
                continue
        total += value
        found = True
    return total if found else None


def _ratio(numerator, denominator):
    if numerator is None or denominator is None:
        return None
    return numerator / denominator if denominator else 0.0


def _plus(*terms):
    return None if any(t is None for t in terms) else sum(terms)


def registry_counters(delta, requests: int, window_sim_s: float,
                      samples_per_snapshot: int) -> dict:
    """Group 2 of the per-layer ledger from a registry delta.

    ``None`` means the registry exports no such counter in this pod (no
    such component, or the counter was renamed); never reported as 0.
    """
    op = lambda name, *ops: _family(delta, name, op=ops)    # noqa: E731
    hits, misses = op("cache_ops", "hits"), op("cache_ops", "misses")
    link = _family(delta, "cxl_link_bytes")
    polls_empty = _family(delta, "channel_ops", role=("receiver",),
                          op=("empty_polls",))
    polls_hit = _family(delta, "channel_ops", role=("receiver",),
                        op=("received",))
    busy = [value for (name, _labels), value in delta.items()
            if name == "driver_busy_ns"]
    scrapes = _family(delta, "scraper_samples_taken")
    shed = op("driver_ops", "shed", "tx_shed")
    submitted = op("driver_ops", "submitted")
    return {
        "core.engine.wakeups_per_request":
            _ratio(_family(delta, "driver_wakeups"), requests),
        "core.engine.busy_frac_max":
            max(busy) / (window_sim_s * 1e9) if busy else None,
        "mem.hit_ratio": _ratio(hits, _plus(hits, misses)),
        "mem.invalidations_per_request":
            _ratio(op("cache_ops", "invalidations"), requests),
        "mem.writebacks_per_request":
            _ratio(op("cache_ops", "writebacks"), requests),
        "mem.link_bytes_per_request": _ratio(link, requests),
        "mem.link_payload_frac":
            _ratio(_family(delta, "cxl_link_bytes", category=("payload",)),
                   link),
        "channel.msgs_per_request":
            _ratio(_family(delta, "channel_ops", role=("sender",),
                           op=("sent",)), requests),
        "channel.empty_poll_ratio":
            _ratio(polls_empty, _plus(polls_empty, polls_hit)),
        "channel.full_stalls": op("channel_ops", "full_stalls"),
        "pcie.frames_per_request":
            _ratio(_family(delta, "nic_frames"), requests),
        "pcie.dma_aborts": _family(delta, "nic_dma_aborts"),
        "net.switch_frames_per_request":
            _ratio(_family(delta, "switch_frames",
                           event=("forwarded", "flooded")), requests),
        "net.dropped_frames":
            _plus(_family(delta, "switch_port_dropped_frames"),
                  _family(delta, "nic_dropped_frames"),
                  _family(delta, "switch_frames", event=("fault_dropped",))),
        "core.storage.retries_per_request":
            _ratio(op("driver_ops", "retries"), requests),
        "core.storage.timeouts": op("driver_ops", "timeouts"),
        "overload.shed_frac": _ratio(shed, submitted),
        "overload.retry_denied": op("driver_ops", "retry_budget_denied"),
        "overload.breaker_trips": op("driver_ops", "breaker_trips"),
        "obs.scrapes": scrapes,
        # left out (n/a, not missing) when the scraper never ran
        **({"obs.samples_per_scrape": float(samples_per_snapshot)}
           if scrapes else {}),
    }


def cache_counters(benches, requests: int) -> dict:
    """The same ledger rows for the pod-less channel microbenchmark,
    from its public cache, link and channel counter objects."""
    hits = misses = invalidations = writebacks = link = payload = 0
    sent = empty = received = stalls = 0
    for bench in benches:
        for cache in (bench.sender_cache, bench.receiver_cache):
            hits += cache.stats.hits
            misses += cache.stats.misses
            invalidations += cache.stats.invalidations
            writebacks += cache.stats.writebacks
        for stats in bench.pool.link_stats.values():
            link += stats.total()
            payload += stats.by_category().get("payload", 0)
        sent += bench.sender.counters.sent
        stalls += bench.sender.counters.full_stalls
        received += bench.receiver.counters.received
        empty += bench.receiver.counters.empty_polls
    return {
        "mem.hit_ratio": _ratio(hits, hits + misses),
        "mem.invalidations_per_request": invalidations / requests,
        "mem.writebacks_per_request": writebacks / requests,
        "mem.link_bytes_per_request": link / requests,
        "mem.link_payload_frac": _ratio(payload, link),
        "channel.msgs_per_request": sent / requests,
        "channel.empty_poll_ratio": _ratio(empty, empty + received),
        "channel.full_stalls": float(stalls),
    }


# -- simulated time per stage ----------------------------------------------------

#: flow stage prefix -> ledger group; anything else is unattributed
#: (the client's own stack and the wire before the first hop)
STAGE_GROUPS = {
    "chan": "chan", "fe": "fe", "sfe": "fe", "be": "be", "sbe": "be",
    "nic": "nic", "switch": "switch", "ssd": "ssd", "inst": "inst",
    "app": "inst",
}


def flow_stage_metrics(records, t0: float, t1: float):
    """Group 3 of the ledger from the flow records started in [t0, t1)."""
    records = [r for r in records if t0 <= r.start < t1]
    if not records:
        return None
    groups = sorted(set(STAGE_GROUPS.values()))
    per_group = {g: np.zeros(len(records)) for g in groups}
    total = attributed = 0.0
    violations = 0
    for i, record in enumerate(records):
        for stage, seconds in record.by_stage().items():
            group = STAGE_GROUPS.get(stage.split(".")[0])
            if group is not None:
                per_group[group][i] += seconds
                attributed += seconds
        total += record.total_s
        if record.conservation_error_s() > 1e-9:
            violations += 1
    p50 = {g: float(np.percentile(per_group[g], 50)) * 1e6 for g in groups}
    out = {f"flow.{g}_us_p50": p50[g] for g in groups}
    out["flow.chan_us_p99"] = float(
        np.percentile(per_group["chan"], 99)) * 1e6
    out["flow.unattributed_frac"] = max(0.0, 1.0 - attributed / total)
    out["flow.conservation_violations"] = float(violations)
    return out
