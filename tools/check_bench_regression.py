#!/usr/bin/env python3
"""CI gate: fail the PR when wall-s per sim-s regresses >20% vs the baseline.

Usage::

    python tools/check_bench_regression.py BENCH_pr10.json \
        [--baseline benchmarks/baseline_sim_speed.json] [--tolerance 0.2]

Reads the ``sim_speed`` entry that ``benchmarks/test_sim_speed.py`` records
into the benchmark dump and compares it against the committed baseline:

* ``events`` must match **exactly** -- the event count on the canonical
  seeded run is part of the replay contract and machine-independent; any
  drift means the kernel's event schedule changed and the replay suite's
  byte-identity claim needs re-verification before the baseline moves;
* ``wall_per_sim_sec`` must stay below ``1 / (1 - tolerance)`` of the
  baseline ceiling (default tolerance 20%).  The ceiling is calibrated for
  the slowest healthy CI runner (see the note inside the baseline file), so
  a trip means a real slowdown, not machine jitter.  The gate is phrased in
  wall time per simulated second, not events per second: a change that
  removes events at equal wall time would read as a slowdown in the latter.

When the dump also carries a ``fleet_overhead`` entry (recorded by
``benchmarks/test_fleet_overhead.py``), its ``disabled_regression`` -- the
wall-clock cost a pod pays for the fleet-health pipeline *without ever
enabling it* -- must stay under ``--fleet-tolerance`` (default 2%): the
observability stack is opt-in and must be free when not opted into.

When the dump carries a ``rack_scale`` entry (recorded by
``benchmarks/test_rack_scale.py`` or ``python -m repro rack --out``), it is
gated against ``benchmarks/baseline_rack_scale.json``: the 32-host rack's
``wall_per_sim_sec`` must stay below ``1 / (1 - tolerance)`` of the committed
ceiling, the group-commit ``commit_p99_ms`` (simulated time, so exact on any
machine) must stay under the ceiling, and the control plane must have
converged with an empty proposal queue.

When the dump carries an ``overload`` entry (recorded by
``benchmarks/test_overload.py`` or ``python -m repro overload --out``), it
is gated against ``benchmarks/baseline_overload.json``: the budgets-on run
must recover at least ``recovery_on_floor`` of its pre-surge goodput, the
budgets-off ablation must stay collapsed below ``recovery_off_ceiling``
(otherwise the scenario no longer demonstrates metastable failure), and
surge-window goodput must stay above ``surge_goodput_frac_floor`` of
device capacity.  All three are simulated-time ratios, so the gates are
exact -- no tolerance band.

When the dump carries a ``serve`` entry (recorded by
``benchmarks/test_serve.py`` or ``python -m repro serve --out``), it is
gated against ``benchmarks/baseline_serve.json``: the victim tenant's
noisy-neighbour ``p99_ratio`` must stay under ``p99_ratio_ceiling`` of its
solo baseline, the worst tenant's ``min_share_frac`` must stay above
``share_frac_floor`` of its weighted fair share, and both runs' per-tenant
conservation invariants must have held.  Like the overload gates these are
simulated-time ratios, enforced exactly.

A missing key in either the dump or a baseline is reported by name and
exits 2 (malformed inputs), never as a raw traceback.

Exit status: 0 on pass, 1 on regression, 2 on missing/malformed inputs.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

DEFAULT_BASELINE = (Path(__file__).resolve().parent.parent
                    / "benchmarks" / "baseline_sim_speed.json")
DEFAULT_RACK_BASELINE = (Path(__file__).resolve().parent.parent
                         / "benchmarks" / "baseline_rack_scale.json")
DEFAULT_OVERLOAD_BASELINE = (Path(__file__).resolve().parent.parent
                             / "benchmarks" / "baseline_overload.json")
DEFAULT_SERVE_BASELINE = (Path(__file__).resolve().parent.parent
                          / "benchmarks" / "baseline_serve.json")


class _MissingKey(Exception):
    """A dump or baseline lacks a key the gate needs."""


def _require(mapping, key, source):
    """Fetch ``mapping[key]``, failing with a named diagnosis (exit 2)
    instead of a bare KeyError traceback."""
    try:
        return mapping[key]
    except (KeyError, TypeError):
        raise _MissingKey(
            f"missing key {key!r} in {source} -- regenerate the dump or "
            "fix the baseline") from None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("results", type=Path,
                        help="benchmark dump (BENCH_pr10.json)")
    parser.add_argument("--baseline", type=Path, default=DEFAULT_BASELINE)
    parser.add_argument("--rack-baseline", type=Path,
                        default=DEFAULT_RACK_BASELINE)
    parser.add_argument("--overload-baseline", type=Path,
                        default=DEFAULT_OVERLOAD_BASELINE)
    parser.add_argument("--serve-baseline", type=Path,
                        default=DEFAULT_SERVE_BASELINE)
    parser.add_argument("--tolerance", type=float, default=0.2,
                        help="allowed fractional slowdown in wall-s per "
                             "sim-s (default 0.2 == 20%%)")
    parser.add_argument("--fleet-tolerance", type=float, default=0.02,
                        help="allowed wall-clock cost of the never-enabled "
                             "fleet-health pipeline (default 0.02 == 2%%)")
    args = parser.parse_args(argv)

    try:
        results = json.loads(args.results.read_text())
        baseline = json.loads(args.baseline.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        print(f"check_bench_regression: cannot read inputs: {exc}",
              file=sys.stderr)
        return 2

    speed = results.get("results", {}).get("sim_speed")
    if speed is None:
        print("check_bench_regression: no 'sim_speed' entry in "
              f"{args.results} -- did benchmarks/test_sim_speed.py run?",
              file=sys.stderr)
        return 2

    try:
        return _gate(args, results, baseline, speed)
    except _MissingKey as exc:
        print(f"check_bench_regression: {exc}", file=sys.stderr)
        return 2


def _gate(args, results, baseline, speed) -> int:
    failures = []

    events = int(_require(speed, "events", "the sim_speed results"))
    expected_events = int(_require(baseline, "events",
                                   str(args.baseline)))
    if events != expected_events:
        failures.append(
            f"event count changed: {events} != baseline {expected_events} "
            "(the seeded event schedule moved; re-verify replay identity "
            "before updating the baseline)")

    wall = float(_require(speed, "wall_per_sim_sec", "the sim_speed results"))
    baseline_wall = float(_require(baseline, "wall_per_sim_sec",
                                   str(args.baseline)))
    ceiling = baseline_wall / (1.0 - args.tolerance)
    if wall > ceiling:
        failures.append(
            f"wall-s per sim-s regressed: {wall:.2f} > {ceiling:.2f} "
            f"(1/{1.0 - args.tolerance:.2f} of the {baseline_wall:.2f} "
            "baseline ceiling)")

    print(f"sim speed: {wall:.2f} wall-s per sim-s over {events:,} events")
    print(f"baseline:  {baseline_wall:.2f} wall-s per sim-s ceiling, "
          f"tolerance {args.tolerance * 100:.0f}% -> gate at {ceiling:.2f}")

    fleet = results.get("results", {}).get("fleet_overhead")
    if fleet is not None:
        disabled = float(_require(fleet, "disabled_regression",
                                  "the fleet_overhead results"))
        print(f"fleet overhead (disabled): {disabled * 100:+.2f}% "
              f"(gate at {args.fleet_tolerance * 100:.0f}%)")
        if disabled > args.fleet_tolerance:
            failures.append(
                f"never-enabled fleet-health pipeline costs "
                f"{disabled * 100:.2f}% of echo sim throughput "
                f"(> {args.fleet_tolerance * 100:.0f}%); the pipeline must "
                "be free unless enable_fleet_telemetry() is called")

    rack = results.get("results", {}).get("rack_scale")
    if rack is not None:
        try:
            rack_baseline = json.loads(args.rack_baseline.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            print(f"check_bench_regression: cannot read rack baseline: "
                  f"{exc}", file=sys.stderr)
            return 2
        rack_src = "the rack_scale results"
        rack_wall = float(_require(rack, "wall_per_sim_sec", rack_src))
        rack_baseline_wall = float(_require(rack_baseline, "wall_per_sim_sec",
                                            str(args.rack_baseline)))
        rack_ceiling = rack_baseline_wall / (1.0 - args.tolerance)
        p99 = float(_require(rack, "commit_p99_ms", rack_src))
        ceiling = float(_require(rack_baseline, "commit_p99_ms_ceiling",
                                 str(args.rack_baseline)))
        converged = _require(rack, "converged", rack_src)
        pending = int(_require(rack, "pending_after", rack_src))
        print(f"rack scale: {_require(rack, 'hosts', rack_src)} hosts, "
              f"{rack_wall:.1f} wall-s per sim-s "
              f"(gate at {rack_ceiling:.1f}), commit p99 {p99:.3f} ms "
              f"(ceiling {ceiling:.3f}), converged={converged}")
        if rack_wall > rack_ceiling:
            failures.append(
                f"rack wall-s per sim-s regressed: {rack_wall:.1f} > "
                f"{rack_ceiling:.1f} (1/{1.0 - args.tolerance:.2f} of the "
                f"{rack_baseline_wall:.1f} baseline ceiling)")
        if p99 > ceiling:
            failures.append(
                f"rack commit p99 regressed: {p99:.3f} ms > "
                f"{ceiling:.3f} ms ceiling (sim time -- this is a real "
                "control-plane slowdown, not machine jitter)")
        if not converged or pending != 0:
            failures.append(
                "rack control plane unhealthy: converged="
                f"{converged}, pending={pending}")

    overload = results.get("results", {}).get("overload")
    if overload is not None:
        try:
            overload_baseline = json.loads(
                args.overload_baseline.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            print(f"check_bench_regression: cannot read overload baseline: "
                  f"{exc}", file=sys.stderr)
            return 2
        src = "the overload results"
        bsrc = str(args.overload_baseline)
        recovery_on = float(_require(overload, "recovery_on", src))
        recovery_off = float(_require(overload, "recovery_off", src))
        surge_frac = float(_require(overload, "surge_goodput_frac_on", src))
        on_floor = float(_require(overload_baseline, "recovery_on_floor",
                                  bsrc))
        off_ceiling = float(_require(overload_baseline,
                                     "recovery_off_ceiling", bsrc))
        surge_floor = float(_require(overload_baseline,
                                     "surge_goodput_frac_floor", bsrc))
        print(f"overload: recovery on={recovery_on:.3f} "
              f"(floor {on_floor:.2f}), off={recovery_off:.3f} "
              f"(ceiling {off_ceiling:.2f}), surge goodput "
              f"{surge_frac:.3f}x capacity (floor {surge_floor:.2f})")
        if recovery_on < on_floor:
            failures.append(
                f"goodput under overload regressed: budgets-on recovery "
                f"{recovery_on:.3f} < {on_floor:.2f} floor (the protected "
                "pod no longer recovers from the surge)")
        if recovery_off > off_ceiling:
            failures.append(
                f"overload ablation lost its teeth: budgets-off recovery "
                f"{recovery_off:.3f} > {off_ceiling:.2f} ceiling (the "
                "scenario no longer demonstrates metastable collapse)")
        if surge_frac < surge_floor:
            failures.append(
                f"surge-window goodput regressed: {surge_frac:.3f}x "
                f"capacity < {surge_floor:.2f} floor (shedding is eating "
                "useful throughput)")

    serve = results.get("results", {}).get("serve")
    if serve is not None:
        try:
            serve_baseline = json.loads(args.serve_baseline.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            print(f"check_bench_regression: cannot read serve baseline: "
                  f"{exc}", file=sys.stderr)
            return 2
        src = "the serve results"
        bsrc = str(args.serve_baseline)
        p99_ratio = float(_require(serve, "p99_ratio", src))
        share_frac = float(_require(serve, "min_share_frac", src))
        p99_ceiling = float(_require(serve_baseline, "p99_ratio_ceiling",
                                     bsrc))
        share_floor = float(_require(serve_baseline, "share_frac_floor",
                                     bsrc))
        solo_ok = _require(_require(serve, "solo", src), "invariants_ok",
                           src)
        mix_ok = _require(_require(serve, "mix", src), "invariants_ok", src)
        print(f"serve: victim p99 ratio {p99_ratio:.3f} "
              f"(ceiling {p99_ceiling:.2f}), min share frac "
              f"{share_frac:.3f} (floor {share_floor:.2f}), "
              f"invariants solo={solo_ok} mix={mix_ok}")
        if p99_ratio > p99_ceiling:
            failures.append(
                f"tenant isolation regressed: victim p99 ratio "
                f"{p99_ratio:.3f} > {p99_ceiling:.2f} ceiling (the noisy "
                "neighbour is leaking latency into the victim tenant)")
        if share_frac < share_floor:
            failures.append(
                f"weighted shares regressed: min share frac "
                f"{share_frac:.3f} < {share_floor:.2f} floor (a tenant no "
                "longer receives its weighted fair share at saturation)")
        if not solo_ok or not mix_ok:
            failures.append(
                "per-tenant conservation violated during the serve runs "
                f"(solo ok={solo_ok}, mix ok={mix_ok})")

    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    print("PASS")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
