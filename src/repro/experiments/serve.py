"""Multi-tenant QoS serving: WFQ isolation against a noisy neighbour (PR 10).

``python -m repro serve`` runs the 3-class tenant mix from
:func:`repro.workloads.tenants.SERVE_PROFILES` against one pooled SSD sized
so the mix saturates only while the noisy neighbour surges:

* **mc**  -- latency-sensitive reads (weight 4, guaranteed rate, 1.5 ms SLO);
* **web** -- diurnal web tier (weight 2, rate swinging sinusoidally);
* **bg**  -- bursty background block I/O (weight 1, brownout-sheddable).

Mid-run the ``bg`` tenant surges to **8x** its configured rate -- far past
the device -- and the per-tenant WFQ at the storage frontend has to make
that tenant eat its *own* excess (per-lane depth caps + CoDel) while the
victims keep their latency and their weighted share.

Two runs from one seed quantify isolation:

* **solo** -- ``mc`` alone on the pod (its no-contention latency baseline);
* **mix**  -- all three tenants plus the surge.

Verdict (``ok``; ``--check`` exits 1 without it):

* ``p99_ratio`` -- the victim's mix-run P99 must stay within
  ``P99_RATIO_CEILING`` of its solo baseline (isolation of latency);
* ``min_share_frac`` -- during the surge every tenant's goodput must reach
  at least ``SHARE_FRAC_FLOOR`` of its weighted max-min fair share of the
  measured capacity (isolation of throughput; the share is water-filled
  over measured demand, so demand-capped tenants are gated against their
  own offered load);
* per-tenant conservation must hold (the
  :class:`~repro.faults.invariants.InvariantChecker` verdict rides along).

Same seed => byte-identical JSON: arrivals, WFQ ordering, CoDel drops and
the diurnal modulation are all pure functions of (seed, config).
"""

from __future__ import annotations

import json
from dataclasses import replace
from typing import Dict

from ..config import OasisConfig
from ..core.pod import CXLPod
from ..workloads.tenants import SERVE_PROFILES, TenantClient
from .common import SERVER_IP, scale
# The same derated drive as the overload sweep: ~9.8k IOPS capacity.
from .overload import SSD_BANDWIDTH_GBPS, _capacity_iops

__all__ = ["run_serve", "main_serve", "weighted_fair_share"]

#: Noisy-neighbour surge factor on the ``bg`` tenant.
SURGE_FACTOR = 8.0

#: Launch window for serving: small enough that the device queue cannot
#: build head-of-line blocking the WFQ cannot see (measured: window=2 holds
#: the victim P99 ratio at ~1.3x across seeds vs ~12x at the default 32,
#: while costing ~1% of saturated throughput).
SERVE_LAUNCH_WINDOW = 2

P99_RATIO_CEILING = 1.5
SHARE_FRAC_FLOOR = 0.9


def weighted_fair_share(demands: Dict[str, float],
                        weights: Dict[str, float],
                        capacity: float) -> Dict[str, float]:
    """Weighted max-min (water-filling) allocation of ``capacity``.

    Tenants demanding less than their weighted share are capped at their
    demand and the slack is re-divided among the rest by weight -- the
    fluid-model allocation an ideal WFQ server converges to.
    """
    share = {name: 0.0 for name in demands}
    active = {name for name, demand in demands.items() if demand > 0}
    remaining = capacity
    while active and remaining > 1e-9:
        total_weight = sum(weights[name] for name in active)
        quantum = remaining / total_weight
        capped = [name for name in sorted(active)
                  if demands[name] <= weights[name] * quantum + 1e-12]
        if not capped:
            for name in active:
                share[name] += weights[name] * quantum
            break
        for name in capped:
            share[name] = demands[name]
            remaining -= demands[name]
            active.remove(name)
    return share


def _one_run(seed: int, tenants, pre_s: float, surge_s: float,
             post_s: float) -> dict:
    """One pod run serving ``tenants`` (subset of the 3-class mix).

    Every profile's client is constructed (so RNG substream creation is
    identical across solo and mix runs) but only ``tenants`` are started.
    """
    base_cfg = OasisConfig()
    config = base_cfg.with_(
        seed=seed,
        ssd=replace(base_cfg.ssd, bandwidth_gbps=SSD_BANDWIDTH_GBPS),
        overload=replace(base_cfg.overload, enabled=True,
                         launch_window=SERVE_LAUNCH_WINDOW,
                         brownout_high=0.15, brownout_low=0.05))
    pod = CXLPod(config=config, mode="oasis")
    h0 = pod.add_host()
    h1 = pod.add_host()
    pod.add_nic(h0)
    ssd = pod.add_ssd(h0)
    inst = pod.add_instance(h1, ip=SERVER_IP)
    device = pod.add_block_device(inst, ssd)
    pod.enable_fleet_telemetry(period_s=0.002)

    profiles = SERVE_PROFILES(_capacity_iops(config))
    pod.enable_multi_tenant(
        {name: profile.spec() for name, profile in profiles.items()})

    clients: Dict[str, TenantClient] = {}
    for name, profile in profiles.items():
        client = TenantClient(pod.sim, device, profile,
                              rng=pod.rng.get(f"serve/{name}"))
        if name in tenants:
            pod.register_tenant_client(client)
            clients[name] = client
    checker = pod.check_invariants(interval_s=0.05)

    duration = pre_s + surge_s + post_s
    for client in clients.values():
        client.start(duration)
    noisy = clients.get("bg")
    if noisy is not None:
        pod.sim.at(pre_s, noisy.set_rate_multiplier, SURGE_FACTOR)
        pod.sim.at(pre_s + surge_s, noisy.set_rate_multiplier, 1.0)
    pod.run(duration + 0.05)
    pod.stop()
    verdict = checker.finish()

    frontend = pod.storage_frontends[h1.name]
    surge_window = (pre_s, pre_s + surge_s)
    per_tenant = {}
    for name, client in clients.items():
        stats = client.stats
        span = surge_s
        offered = sum(
            stats.offered[i] for i in range(len(stats.offered))
            if surge_window[0] <= i * stats.bin_s < surge_window[1])
        per_tenant[name] = {
            "summary": client.summary(),
            "surge_offered_iops": round(offered / span, 3),
            "surge_goodput_iops": round(
                stats.window_goodput_iops(*surge_window), 3),
        }
    return {
        "tenants": sorted(clients),
        "per_tenant": per_tenant,
        "frontend_tenants": frontend.tenant_stats(),
        "wfq": frontend._stage.queue.per_tenant(),
        "invariants_ok": verdict.ok,
        "invariant_violations": [
            {"t": round(v.time, 9), "invariant": v.invariant,
             "detail": v.detail} for v in verdict.violations],
        "tenant_slo_burn": {
            name: round(value, 6) for name, value in sorted(
                pod.fleet.tenant_slo_burn().items())},
        "alerts": {
            "fired": pod.fleet.alert_engine.fired,
            "cleared": pod.fleet.alert_engine.cleared,
            "log": pod.fleet.alert_engine.log_json(),
        },
    }


def run_serve(seed: int = 11, pre_s: float = None, surge_s: float = None,
              post_s: float = None) -> dict:
    """Solo baseline + 3-tenant mix from one seed; isolation headline."""
    s = scale()
    if pre_s is None:
        pre_s = max(0.15, 0.3 * s)
    if surge_s is None:
        surge_s = max(0.15, 0.3 * s)
    if post_s is None:
        post_s = max(0.1, 0.2 * s)
    capacity = _capacity_iops(OasisConfig().with_(
        ssd=replace(OasisConfig().ssd, bandwidth_gbps=SSD_BANDWIDTH_GBPS)))
    profiles = SERVE_PROFILES(capacity)

    solo = _one_run(seed, ("mc",), pre_s, surge_s, post_s)
    mix = _one_run(seed, tuple(profiles), pre_s, surge_s, post_s)

    solo_p99 = solo["per_tenant"]["mc"]["summary"]["p99_us"]
    mix_p99 = mix["per_tenant"]["mc"]["summary"]["p99_us"]
    p99_ratio = mix_p99 / solo_p99 if solo_p99 > 0 else float("inf")

    # Throughput isolation at saturation: during the surge, gate each
    # tenant's goodput against its weighted max-min share of the *measured*
    # serving capacity, water-filled over measured offered demand.
    demands = {name: data["surge_offered_iops"]
               for name, data in mix["per_tenant"].items()}
    goodputs = {name: data["surge_goodput_iops"]
                for name, data in mix["per_tenant"].items()}
    weights = {name: profiles[name].weight for name in demands}
    measured_capacity = sum(goodputs.values())
    shares = weighted_fair_share(demands, weights, measured_capacity)
    share_fracs = {
        name: (goodputs[name] / shares[name] if shares[name] > 0 else 1.0)
        for name in sorted(demands)}
    min_share_frac = min(share_fracs.values())

    ok = (p99_ratio <= P99_RATIO_CEILING
          and min_share_frac >= SHARE_FRAC_FLOOR
          and solo["invariants_ok"] and mix["invariants_ok"])
    return {
        "seed": seed,
        "capacity_iops": round(capacity, 3),
        "surge_factor": SURGE_FACTOR,
        "launch_window": SERVE_LAUNCH_WINDOW,
        "pre_s": pre_s,
        "surge_s": surge_s,
        "post_s": post_s,
        "profiles": {
            name: {"weight": profile.weight,
                   "rate_iops": round(profile.rate_iops, 3),
                   "guarantee_iops": round(profile.guarantee_iops, 3),
                   "slo_us": profile.slo_us}
            for name, profile in sorted(profiles.items())},
        "solo": solo,
        "mix": mix,
        "solo_p99_us": round(solo_p99, 3),
        "mix_p99_us": round(mix_p99, 3),
        "p99_ratio": round(p99_ratio, 6),
        "surge_demand_iops": {n: round(v, 3)
                              for n, v in sorted(demands.items())},
        "surge_share_iops": {n: round(v, 3)
                             for n, v in sorted(shares.items())},
        "share_fracs": {n: round(v, 6)
                        for n, v in sorted(share_fracs.items())},
        "min_share_frac": round(min_share_frac, 6),
        "ok": ok,
    }


def _render(result: dict) -> None:
    print(f"multi-tenant serve: capacity {result['capacity_iops']:,.0f} "
          f"IOPS, noisy neighbour x{result['surge_factor']:.0f} for "
          f"{result['surge_s'] * 1e3:.0f} ms "
          f"(launch window {result['launch_window']})")
    for name in sorted(result["mix"]["per_tenant"]):
        data = result["mix"]["per_tenant"][name]
        summary = data["summary"]
        fe = result["mix"]["frontend_tenants"].get(name, {})
        print(f"  {name:<4} w={result['profiles'][name]['weight']:.0f} "
              f"offered {data['surge_offered_iops']:8,.0f} -> goodput "
              f"{data['surge_goodput_iops']:8,.0f} IOPS in surge "
              f"(share {result['share_fracs'][name]:.2f}x fair), "
              f"p99 {summary['p99_us']:8,.0f} us, shed {fe.get('shed', 0)}")
    print(f"  victim   mc p99 solo {result['solo_p99_us']:,.0f} us -> mix "
          f"{result['mix_p99_us']:,.0f} us "
          f"(ratio {result['p99_ratio']:.2f}, ceiling "
          f"{P99_RATIO_CEILING:.1f})")
    burn = result["mix"]["tenant_slo_burn"]
    if burn:
        levels = ", ".join(f"{name}={value:.2f}"
                           for name, value in burn.items())
        print(f"  slo burn {levels}")
    verdict = "PASS" if result["ok"] else "FAIL"
    print(f"  verdict  {verdict}: p99_ratio={result['p99_ratio']:.2f} "
          f"(<= {P99_RATIO_CEILING}), min_share_frac="
          f"{result['min_share_frac']:.2f} (>= {SHARE_FRAC_FLOOR}), "
          f"invariants={'ok' if result['mix']['invariants_ok'] else 'VIOLATED'}")


def main_serve(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro serve",
        description="multi-tenant QoS serving: per-tenant WFQ isolation "
                    "against an 8x noisy neighbour")
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--json", action="store_true",
                        help="print the machine-readable result")
    parser.add_argument("--check", action="store_true",
                        help="exit 1 unless the victim's P99 stays within "
                             f"{P99_RATIO_CEILING}x its solo baseline and "
                             "every tenant reaches "
                             f"{SHARE_FRAC_FLOOR}x its fair share")
    args = parser.parse_args(argv)

    result = run_serve(seed=args.seed)
    if args.json:
        print(json.dumps(result, indent=1, sort_keys=True))
    else:
        _render(result)
    if args.check and not result["ok"]:
        print("serve: FAIL -- see verdict above", flush=True)
        return 1
    return 0


if __name__ == "__main__":   # pragma: no cover
    raise SystemExit(main_serve())
