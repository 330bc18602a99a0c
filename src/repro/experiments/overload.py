"""Overload sweep: goodput through a surge, retry budgets on vs off (PR 9).

``python -m repro overload`` drives an open-loop block-I/O client through a
pooled SSD sized so the surge exceeds device capacity:

* **pre**   -- offered load ~0.6x capacity (healthy);
* **surge** -- offered load 1.5x capacity for a window;
* **post**  -- back to the pre-surge rate.

Two runs from the same seed differ in exactly one bit: whether the pod armed
``enable_overload_control()``.

* **budgets off** (the PR 3 unbounded-retry baseline) exhibits *metastable
  collapse*: the surge builds a device backlog, per-attempt latency blows
  through the retry timeout, and the retry amplification (~4x offered load)
  keeps the device saturated after the surge ends -- goodput stays pinned
  near zero even though offered load is back below capacity;
* **budgets on** sheds the excess at the admission queue (CoDel
  front-drop + depth cap), denies storm retries from the token-bucket
  retry budget, trips per-device breakers, and browns out background I/O
  -- goodput tracks capacity through the surge and *recovers* to the
  pre-surge level once it passes.

Verdict (``ok``; ``--check`` exits 1 without it): ``recovery_on``
(post-surge / pre-surge goodput, budgets on) >= ``RECOVERY_ON_FLOOR``,
``recovery_off`` < ``RECOVERY_OFF_CEILING`` and ``surge_goodput_frac_on``
(surge goodput / capacity) >= ``SURGE_GOODPUT_FRAC_FLOOR``; simulated-time
ratios, so exact on any machine.  Same seed => byte identical JSON
(shed/trip/probe sequences included), pinned by the replay tests.
"""

from __future__ import annotations

import json
from dataclasses import replace

from ..config import OasisConfig
from ..core.pod import CXLPod
from ..workloads.openloop import OpenLoopBlockClient
from .common import SERVER_IP, scale

__all__ = ["run_overload", "main_overload"]

#: Derated drive for the sweep: 40 MB/s => one 4 KB op serialises ~102.4 us,
#: so device capacity is ~9.8k IOPS -- small enough that a CI-sized run can
#: push 1.5x past it.
SSD_BANDWIDTH_GBPS = 0.04

RECOVERY_ON_FLOOR = 0.90
RECOVERY_OFF_CEILING = 0.50
SURGE_GOODPUT_FRAC_FLOOR = 0.85


def _capacity_iops(config) -> float:
    return config.ssd.bytes_per_sec / config.ssd.block_size


def _one_run(
    seed: int,
    overload_on: bool,
    base_rate: float,
    surge_rate: float,
    pre_s: float,
    surge_s: float,
    post_s: float,
    background_fraction: float = 0.2,
) -> dict:
    base_cfg = OasisConfig()
    config = base_cfg.with_(
        seed=seed,
        ssd=replace(base_cfg.ssd, bandwidth_gbps=SSD_BANDWIDTH_GBPS))
    pod = CXLPod(config=config, mode="oasis")
    h0 = pod.add_host()
    h1 = pod.add_host()
    pod.add_nic(h0)
    ssd = pod.add_ssd(h0)
    inst = pod.add_instance(h1, ip=SERVER_IP)
    device = pod.add_block_device(inst, ssd)
    pod.enable_fleet_telemetry(period_s=0.002)
    if overload_on:
        # Brownout thresholds sized to the CoDel-held admission queue: under
        # control the queue hovers near target_s * capacity (~50 of 256
        # slots), so the enter threshold sits below that and exit near zero.
        pod.enable_overload_control(replace(
            base_cfg.overload, enabled=True,
            brownout_high=0.15, brownout_low=0.05))

    client = OpenLoopBlockClient(
        pod.sim, device, rate_iops=base_rate, read_fraction=1.0,
        rng=pod.rng.get("overload/client"), bin_s=0.01,
        background_fraction=background_fraction, name="overload-client")
    pod.register_load_source(client)

    duration = pre_s + surge_s + post_s
    pod.sim.at(pre_s, client.set_rate, surge_rate)
    pod.sim.at(pre_s + surge_s, client.set_rate, base_rate)
    client.start(duration)
    pod.run(duration + 0.05)
    pod.stop()

    stats = client.stats
    goodput_pre = stats.window_goodput_iops(pre_s * 0.3, pre_s)
    goodput_surge = stats.window_goodput_iops(pre_s, pre_s + surge_s)
    goodput_post = stats.window_goodput_iops(duration - post_s * 0.5, duration)
    recovery = goodput_post / goodput_pre if goodput_pre > 0 else 0.0

    frontend = pod.storage_frontends[h1.name]
    out = {
        "workload": stats.summary(),
        "goodput_pre_iops": round(goodput_pre, 3),
        "goodput_surge_iops": round(goodput_surge, 3),
        "goodput_post_iops": round(goodput_post, 3),
        "recovery_ratio": round(recovery, 6),
        "frontend": {
            "submitted": frontend.submitted,
            "completed_ok": frontend.completed_ok,
            "completed_error": frontend.completed_error,
            "timeouts": frontend.timeouts,
            "retries": frontend.retries,
            "giveups": frontend.giveups,
            "shed": frontend.shed,
            "shed_queue_full": frontend.shed_queue_full,
            "shed_sojourn": frontend.shed_sojourn,
            "shed_breaker": frontend.shed_breaker,
            "shed_brownout": frontend.shed_brownout,
            "retry_budget_denied": frontend.retry_budget_denied,
            "breaker_trips": frontend.breaker_trips,
        },
        "alerts": {
            "fired": pod.fleet.alert_engine.fired,
            "cleared": pod.fleet.alert_engine.cleared,
            "log": pod.fleet.alert_engine.log_json(),
        },
    }
    if overload_on:
        budget = frontend._stage.budget
        out["budget"] = {"deposits": budget.deposits, "spent": budget.spent,
                         "denied": budget.denied,
                         "tokens": round(budget.tokens, 6)}
        out["brownout"] = pod.brownout.as_dict()
    return out


def run_overload(
    seed: int = 11,
    base_util: float = 0.6,
    surge_util: float = 1.5,
    pre_s: float = None,
    surge_s: float = None,
    post_s: float = None,
) -> dict:
    """Budgets-on and budgets-off runs from one seed; recovery headline."""
    s = scale()
    if pre_s is None:
        pre_s = max(0.2, 0.4 * s)
    if surge_s is None:
        surge_s = max(0.15, 0.3 * s)
    if post_s is None:
        post_s = max(0.3, 0.5 * s)
    capacity = _capacity_iops(OasisConfig().with_(
        ssd=replace(OasisConfig().ssd, bandwidth_gbps=SSD_BANDWIDTH_GBPS)))
    base_rate = base_util * capacity
    surge_rate = surge_util * capacity
    on = _one_run(seed, True, base_rate, surge_rate, pre_s, surge_s, post_s)
    off = _one_run(seed, False, base_rate, surge_rate, pre_s, surge_s, post_s)
    surge_frac = round(on["goodput_surge_iops"] / capacity, 6)
    return {
        "seed": seed,
        "capacity_iops": round(capacity, 3),
        "base_rate_iops": round(base_rate, 3),
        "surge_rate_iops": round(surge_rate, 3),
        "pre_s": pre_s,
        "surge_s": surge_s,
        "post_s": post_s,
        "on": on,
        "off": off,
        "recovery_on": on["recovery_ratio"],
        "recovery_off": off["recovery_ratio"],
        "surge_goodput_frac_on": surge_frac,
        "ok": (on["recovery_ratio"] >= RECOVERY_ON_FLOOR
               and off["recovery_ratio"] < RECOVERY_OFF_CEILING
               and surge_frac >= SURGE_GOODPUT_FRAC_FLOOR),
    }


def _render(result: dict) -> None:
    print(f"overload sweep: capacity {result['capacity_iops']:,.0f} IOPS, "
          f"base {result['base_rate_iops']:,.0f}, "
          f"surge {result['surge_rate_iops']:,.0f} "
          f"({result['surge_s']*1e3:.0f} ms surge)")
    for label in ("on", "off"):
        run = result[label]
        fe = run["frontend"]
        print(f"  budgets {label:<3} goodput pre {run['goodput_pre_iops']:8,.0f} "
              f"surge {run['goodput_surge_iops']:8,.0f} "
              f"post {run['goodput_post_iops']:8,.0f} IOPS "
              f"-> recovery {run['recovery_ratio']:.2f}")
        print(f"              shed={fe['shed']} "
              f"(full={fe['shed_queue_full']} sojourn={fe['shed_sojourn']} "
              f"breaker={fe['shed_breaker']} brownout={fe['shed_brownout']}) "
              f"retries={fe['retries']} denied={fe['retry_budget_denied']} "
              f"trips={fe['breaker_trips']} giveups={fe['giveups']}")
    verdict = "PASS" if result["ok"] else "FAIL"
    print(f"  verdict  {verdict}: recovery_on={result['recovery_on']:.2f} "
          f"(need >= {RECOVERY_ON_FLOOR:.2f}), "
          f"recovery_off={result['recovery_off']:.2f} "
          f"(need < {RECOVERY_OFF_CEILING:.2f}), "
          f"surge_goodput_frac_on={result['surge_goodput_frac_on']:.2f} "
          f"(need >= {SURGE_GOODPUT_FRAC_FLOOR:.2f})")


def main_overload(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro overload",
        description="open-loop overload sweep: goodput collapse vs recovery "
                    "with retry budgets/admission control on and off")
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--base-util", type=float, default=0.6,
                        help="pre/post offered load as a fraction of device "
                             "capacity (default 0.6)")
    parser.add_argument("--surge-util", type=float, default=1.5,
                        help="surge offered load as a fraction of device "
                             "capacity (default 1.5)")
    parser.add_argument("--json", action="store_true",
                        help="print the machine-readable result")
    parser.add_argument("--check", action="store_true",
                        help="exit 1 unless budgets-on recovers >= "
                             f"{RECOVERY_ON_FLOOR:.2f}x pre-surge goodput "
                             "with surge goodput >= "
                             f"{SURGE_GOODPUT_FRAC_FLOOR:.2f}x capacity, and "
                             "budgets-off stays collapsed (< "
                             f"{RECOVERY_OFF_CEILING:.2f}x)")
    args = parser.parse_args(argv)

    result = run_overload(seed=args.seed, base_util=args.base_util,
                          surge_util=args.surge_util)
    if args.json:
        print(json.dumps(result, indent=1, sort_keys=True))
    else:
        _render(result)
    if args.check and not result["ok"]:
        print("overload: FAIL -- see verdict above", flush=True)
        return 1
    return 0


if __name__ == "__main__":   # pragma: no cover
    raise SystemExit(main_overload())
