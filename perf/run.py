#!/usr/bin/env python3
"""The repo benchmark: one command, every metric by name, outputs checked.

    python perf/run.py [--workload W]... [--seed N] [--seconds S] [--reps K]
                       [--trace [0|1]] [--quick] [--out FILE]

Runs each workload in fresh child processes (one at a time), prints every
metric of ``BENCHMARK.json`` by name with its unit, checks the program's
outputs and exits non-zero when a check fails.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.

``--trace 0`` (default) reports the end-to-end metrics: ``--reps`` untraced
children share ``--seconds`` of measured host time, host-clock metrics are
the median of reps at the reference box's speed (hostclock.py),
simulated-time metrics and counts must be bit-equal across reps.
``--trace 1`` reports the per-layer ledger instead: one plain, one profiled
and one flow-traced child over the same seed and window, plus the layer
microbenchmarks.  README.md has the rest.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from hostclock import REFERENCE_S

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SCHEMA_VERSION = 1

#: seed used while sizing the windows; 23 is held out (README.md)
DEFAULT_SEED = 17
DEFAULT_REPS = 2
CHILD_TIMEOUT_S = 170

# -- output checks (module constants so the smoke test can break one) ----------

ECHO_OVERHEAD_BAND_US = (4.0, 7.0)      # paper fig10: Oasis adds 4-7 us
COMMIT_P99_CEILING_MS = 0.5
SATURATION_FLOOR_MOPS = 60.0            # design 4, closed loop
MIN_LATENCY_SAMPLES = 1000              # so p99 has >= 10 samples beyond it
NAMED_SHARE_FLOOR = 0.8

#: what the paper (or the repo's own fig11 cross-check) says
PAPER_SATURATION_MOPS = 87.0
PAPER_TARGET_P50_US = 0.6
FIG11_CHANNEL_SHARE = 5.10 / 5.12


def output_checks(workload: str, exact: dict, quick: bool) -> list:
    """(check name, passed, detail) for one workload's deterministic output.

    ``quick`` windows (and the traced run's) are too short for the sample
    count to mean anything.
    """
    facts = exact["facts"]
    checks = [
        ("issued_equals_scheduled", exact["issued"] == exact["scheduled"],
         f"issued {exact['issued']} scheduled {exact['scheduled']}"),
        ("no_unexpected_failures",
         exact["issued"] == exact["ok"] + exact["shed"],
         f"issued {exact['issued']} ok {exact['ok']} shed {exact['shed']}"),
    ]
    if not quick:
        checks.append(("latency_samples", exact["sim_lat_n"]
                       >= MIN_LATENCY_SAMPLES, f"n {exact['sim_lat_n']}"))

    def zero(*names):
        for name in names:
            checks.append((name, not facts[name], f"{name} {facts[name]}"))

    if workload in ("echo_cell", "rack_echo"):
        zero("echo_unanswered", "echo_duplicate_seqs")
    if workload == "echo_cell":
        low, high = ECHO_OVERHEAD_BAND_US
        overhead = facts["echo_overhead_us"]
        checks.append(("echo_overhead_band", low <= overhead <= high,
                       f"+{overhead:.3f} us, band {low}-{high} us"))
    if workload in ("rack_echo", "control_churn"):
        zero("pending_commands")
        checks += [
            ("replicas_converged", facts["converged"], ""),
            ("commits_equal_issued",
             facts["commands_committed"] == facts["commands_issued"],
             f"committed {facts['commands_committed']} "
             f"issued {facts['commands_issued']}"),
            ("commit_p99", facts["commit_p99_ms"] <= COMMIT_P99_CEILING_MS,
             f"{facts['commit_p99_ms']:.4f} ms, ceiling "
             f"{COMMIT_P99_CEILING_MS} ms"),
        ]
    if workload in ("storage_read", "storage_write"):
        zero("io_errors", "io_incomplete", "readback_mismatches")
    if workload == "serve_mix":
        zero("invariant_violations", "tenants_not_conserved")
        checks += [
            ("invariants_ok", facts["invariants_ok"], ""),
            ("victim_p99_within_slo",
             exact["sim_lat_p99_us"] <= facts["victim_slo_us"],
             f"p99 {exact['sim_lat_p99_us']:.1f} us, "
             f"SLO {facts['victim_slo_us']:.0f} us"),
        ]
    if workload == "channel_sweep":
        zero("points_incomplete")
        d1, d2, d3, d4 = facts["saturation_mops"].values()
        checks += [
            # The paper has designs 3 and 4 level at 87 MOp/s; the model
            # puts them within a fraction of a percent of each other.
            ("saturation_order", d1 < d2 < d3 and d4 >= 0.99 * d3,
             f"{d1:.2f} < {d2:.2f} < {d3:.2f} <= {d4:.2f} MOp/s"),
            ("saturation_floor", d4 >= SATURATION_FLOOR_MOPS,
             f"{d4:.2f} MOp/s, floor {SATURATION_FLOOR_MOPS}"),
        ]
    return checks


def relative_error(measured: float, reference: float) -> float:
    return abs(measured - reference) / reference


def reference_block(workload: str, exact: dict, flow_facts=None) -> list:
    """The paper's number beside ours, or the word ``unvalidated``."""
    facts = exact["facts"]
    if workload == "echo_cell":
        low, high = ECHO_OVERHEAD_BAND_US
        overhead = facts["echo_overhead_us"]
        edge = low if overhead < low else high
        error = 0.0 if low <= overhead <= high else relative_error(overhead,
                                                                   edge)
        lines = [f"echo overhead: paper +{low:g}-{high:g} us, measured "
                 f"+{overhead:.3f} us, relative error {error:.3f}"]
        if flow_facts:
            share = flow_facts["channel_delta_us"] / overhead
            lines.append(
                f"fig11 messaging: repo 5.10 of 5.12 us in the channels; "
                f"here {flow_facts['channel_delta_us']:.3f} of "
                f"{overhead:.3f} us, relative error "
                f"{relative_error(share, FIG11_CHANNEL_SHARE):.3f}")
        return lines
    if workload == "channel_sweep":
        saturation = exact["sim_goodput_per_s"] / 1e6
        p50 = exact["sim_lat_p50_us"]
        return [
            f"Fig 6 design 4 saturation: paper {PAPER_SATURATION_MOPS:g} "
            f"MOp/s, measured {saturation:.2f} MOp/s, relative error "
            f"{relative_error(saturation, PAPER_SATURATION_MOPS):.3f}",
            f"Fig 6 design 4 median at 14 MOp/s: paper "
            f"{PAPER_TARGET_P50_US:g} us, measured {p50:.4f} us, relative "
            f"error {relative_error(p50, PAPER_TARGET_P50_US):.3f}",
        ]
    return ["unvalidated: the paper has no number for this workload"]


# -- children --------------------------------------------------------------------


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("OASIS_SCALE", None)    # every duration is passed explicitly
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep)
                      if p])
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(mode: str, workload=None, seed=0, host_seconds=0.0) -> dict:
    """One child at a time; its single line of JSON."""
    cmd = [sys.executable, str(HERE / "child.py"), "--mode", mode,
           "--spawned-at",
           repr(time.clock_gettime(time.CLOCK_MONOTONIC))]
    if workload is not None:
        cmd += ["--workload", workload, "--seed", str(seed),
                "--host-seconds", repr(host_seconds)]
    done = subprocess.run(cmd, env=child_env(), cwd=ROOT, text=True,
                          capture_output=True, timeout=CHILD_TIMEOUT_S)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise RuntimeError(f"child {mode} {workload or ''} exited "
                           f"{done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


class Nondeterministic(RuntimeError):
    pass


def same_exact(children: list, ignore_facts: bool = False) -> dict:
    """Simulated-time metrics and counts must be bit-equal across children."""
    def canonical(child):
        exact = dict(child["exact"])
        if ignore_facts:
            exact.pop("facts")
        return json.dumps(exact, sort_keys=True)

    first = canonical(children[0])
    for child in children[1:]:
        if canonical(child) != first:
            raise Nondeterministic(
                f"{children[0]['workload']}: nondeterministic -- "
                f"{child['mode']} differs from {children[0]['mode']} "
                f"on the same seed and window")
    return children[0]["exact"]


# -- one workload ------------------------------------------------------------------


def host_metric(values: list) -> dict:
    return {"value": statistics.median(values), "reps": values,
            "min": min(values), "max": max(values)}


def end_to_end(workload: str, seed: int, window_host_s: float,
               reps: int) -> dict:
    children = [run_child("plain", workload, seed, window_host_s)
                for _ in range(reps)]
    exact = same_exact(children)
    issued = exact["issued"]
    hosts = [child["host"] for child in children]
    metrics = {
        "setup_s": host_metric([h["setup_s"] for h in hosts]),
        "wall_us_per_request": host_metric(
            [h["window_s"] * 1e6 / issued for h in hosts]),
        "peak_rss_mb": host_metric([h["peak_rss_mb"] for h in hosts]),
        "events_per_request": {"value": exact["events"] / issued},
        "sim_lat_p50_us": {"value": exact["sim_lat_p50_us"]},
        "sim_lat_p99_us": {"value": exact["sim_lat_p99_us"]},
        "sim_goodput_per_s": {"value": exact["sim_goodput_per_s"]},
        "ok_frac": {"value": exact["ok"] / issued},
    }
    diagnostics = {
        # as the clocks read, before hostclock.py's scaling
        "raw": [{key: h[key] for key in (
            "raw_setup_s", "raw_window_s", "raw_window_cpu_s", "raw_slice_s",
            "spin_s", "first_spin_s")} for h in hosts],
        "window_sim_s": children[0]["window_sim_s"],
        "sim_lat_n": exact["sim_lat_n"],
        "seeded": children[0]["seeded"],
    }
    return {"metrics": metrics, "exact": exact, "diagnostics": diagnostics,
            "reference": reference_block(workload, exact)}


def per_layer(workload: str, seed: int, window_host_s: float) -> dict:
    """The traced run: plain, profiled and flow-traced children, then micro."""
    plain = run_child("plain", workload, seed, window_host_s)
    profiled = run_child("profile", workload, seed, window_host_s)
    has_pod = plain["has_pod"]
    flowed = run_child("flow", workload, seed, window_host_s) \
        if has_pod else None
    exact = same_exact([c for c in (plain, profiled, flowed) if c],
                       ignore_facts=True)
    micro = run_child("micro")["micro"]

    issued, events = exact["issued"], exact["events"]
    wall_s = plain["host"]["window_s"]
    profile = profiled["profile"]
    total = profile["total_self_s"]
    values: dict = {}
    for layer, entry in profile["layers"].items():
        share = entry["self_s"] / total
        values[f"{layer}.self_share"] = share
        # the untraced window's time, split by the traced run's shares
        values[f"{layer}.self_us_per_request"] = share * wall_s * 1e6 / issued
        values[f"{layer}.calls_per_request"] = entry["calls"] / issued
    values["trace.overhead_x"] = profiled["host"]["window_s"] / wall_s
    values["trace.named_share"] = 1.0 - values["other.self_share"]
    if flowed is not None:
        values["trace.flow_events_delta"] = float(
            flowed["exact"]["events"] - events)
        values.update(flowed["flow"] or {})
    values["sim.events_per_host_s"] = events / wall_s
    if has_pod:
        values["sim.wall_s_per_sim_s"] = wall_s / plain["window_sim_s"]
    values.update(plain["counters"])
    values.update(micro)

    flow_facts = None
    if flowed is not None and "twin_channel_p50_us" in \
            flowed["exact"]["facts"]:
        flow_facts = {"channel_delta_us": (
            values["flow.chan_us_p50"]
            - flowed["exact"]["facts"]["twin_channel_p50_us"])}
    return {
        "values": values, "exact": plain["exact"],
        "edges": profile["edges"],
        "diagnostics": {
            "window_sim_s": plain["window_sim_s"],
            "plain_window_s": wall_s,
            "profiled_window_s": profiled["host"]["window_s"],
            "profiled_self_s": total,
            "raw_plain_window_s": plain["host"]["raw_window_s"],
            "raw_profiled_window_s": profiled["host"]["raw_window_s"],
        },
        "reference": reference_block(workload, plain["exact"], flow_facts),
    }


def trace_checks(values: dict) -> list:
    checks = [("trace_named_share",
               values["trace.named_share"] >= NAMED_SHARE_FLOOR,
               f"{values['trace.named_share']:.3f}, floor "
               f"{NAMED_SHARE_FLOOR}")]
    delta = values.get("trace.flow_events_delta")
    if delta is not None:
        checks.append(("flow_tracing_does_not_perturb", delta == 0,
                       f"events delta {delta:g}"))
    violations = values.get("flow.conservation_violations")
    if violations is not None:
        checks.append(("flow_conservation", violations == 0,
                       f"{violations:g} records"))
    return checks


# -- reporting ---------------------------------------------------------------------


def git_head() -> str:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              text=True, capture_output=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def show(value) -> str:
    if value is None:
        return "missing"    # the pod's registry exports no such counter
    return f"{value:,.6g}"


def print_workload(name: str, spec: dict, result: dict, trace: bool) -> None:
    diag = result["diagnostics"]
    window = (f"{diag['window_sim_s']:g} sim-s" if diag["window_sim_s"]
              else "pod-less sweep")
    print(f"\n== {name}: {window}"
          + ("" if diag.get("seeded", True) else ", seedless") + " ==")
    if trace:
        for metric in spec["per_layer"]:
            key = metric["name"]
            shown = (show(result["values"][key])
                     if key in result["values"] else "n/a")
            print(f"  {key:<40} {shown:>16} {metric['unit']}")
    else:
        for metric in spec["end_to_end"]:
            entry = result["metrics"][metric["name"]]
            line = (f"  {metric['name']:<22} {show(entry['value']):>14} "
                    f"{metric['unit']:<9}")
            if "reps" in entry:
                line += (f" median of {len(entry['reps'])} "
                         f"[{entry['min']:.6g} .. {entry['max']:.6g}]")
            print(line)
        print(f"  {'sim_lat_n':<22} {diag['sim_lat_n']:>14,}")
        print("  raw window s " + ", ".join(
            f"{raw['raw_window_s']:.3f} (cpu {raw['raw_window_cpu_s']:.3f}, "
            f"calibration x{statistics.fmean(raw['spin_s']) / REFERENCE_S:.3f})"
            for raw in diag["raw"]))
    for check, passed, detail in result["checks"]:
        print(f"  check {check}: {'ok' if passed else 'FAILED'}"
              + (f" ({detail})" if detail else ""))
    for line in result["reference"]:
        print(f"  reference: {line}")


def contract_line(spec: dict, result: dict, trace: bool) -> str:
    """The driver's last line: exactly correct/attempted/failed/metrics."""
    exact = result["exact"]
    if trace:
        # -1 stands for "missing" and "n/a": every ledger value is >= 0.
        def value(name):
            found = result["values"].get(name)
            return -1.0 if found is None else found
        declared = spec["per_layer"]
    else:
        def value(name):
            return result["metrics"][name]["value"]
        declared = spec["end_to_end"]
    metrics = {m["name"]: {"value": value(m["name"]), "unit": m["unit"]}
               for m in declared}
    return json.dumps({
        "correct": all(passed for _n, passed, _d in result["checks"]),
        "attempted": exact["issued"],
        # Shed requests are the admission controller's designed answer past
        # capacity; they lower ok_frac.  ``failed`` counts the rest: errored,
        # lost, never answered.
        "failed": exact["issued"] - exact["ok"] - exact["shed"],
        "metrics": metrics,
    })


def check_names(spec: dict, result: dict, trace: bool) -> None:
    """Every name printed is in BENCHMARK.json, and the other way round."""
    if trace:
        declared = {m["name"] for m in spec["per_layer"]}
        unknown = set(result["values"]) - declared
    else:
        declared = {m["name"] for m in spec["end_to_end"]}
        unknown = set(result["metrics"]) ^ declared
    if unknown:
        raise RuntimeError(f"metric names out of step with BENCHMARK.json: "
                           f"{sorted(unknown)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", action="append",
                        help="repeatable; default: all seven")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured host seconds per workload, shared by "
                             "the reps (default: run_seconds)")
    parser.add_argument("--reps", type=int, default=DEFAULT_REPS)
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1))
    parser.add_argument("--quick", action="store_true",
                        help="1 rep, windows / 4: smoke test only, never "
                             "compared")
    parser.add_argument("--out", help="result document (default: under "
                                      "perf/out/)")
    args = parser.parse_args(argv)

    if not (SRC / "repro").is_dir():
        print(f"perf/run.py: no program to measure: {SRC / 'repro'} is "
              f"missing", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    known = [w["name"] for w in spec["workloads"]]
    names = args.workload or known
    for name in names:
        if name not in known:
            parser.error(f"unknown workload {name!r}; choose from {known}")
    seconds = args.seconds if args.seconds is not None \
        else float(spec["run_seconds"])
    trace = bool(args.trace)
    # The traced run measures three windows (the profiled one 2-3x slower)
    # and the microbenchmarks, so each window gets a sixth of the budget.
    reps = max(1, args.reps)
    window_host_s = seconds / 6 if trace else seconds / reps
    if args.quick:
        reps, window_host_s = 1, window_host_s / 4

    print(f"perf/run.py: seed {args.seed}, "
          + (f"traced, {window_host_s:g} host-s windows" if trace else
             f"{reps} rep(s) x {window_host_s:g} host-s windows"))
    document = {
        "schema_version": SCHEMA_VERSION, "git_head": git_head(),
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "seed": args.seed, "reps": reps, "seconds": seconds,
        "quick": args.quick, "trace": trace, "workloads": {},
    }
    OUT.mkdir(parents=True, exist_ok=True)
    failed, last_line = [], ""
    for name in names:
        try:
            if trace:
                result = per_layer(name, args.seed, window_host_s)
                result["checks"] = (
                    output_checks(name, result["exact"], quick=True)
                    + trace_checks(result["values"]))
                (OUT / f"{name}.layers.json").write_text(json.dumps(
                    {"workload": name, "seed": args.seed,
                     "edges": result.pop("edges")}, indent=1) + "\n")
            else:
                result = end_to_end(name, args.seed, window_host_s, reps)
                result["checks"] = output_checks(name, result["exact"],
                                                 args.quick)
        except Nondeterministic as error:
            print(f"{name}: check nondeterministic: FAILED ({error})")
            failed.append(f"{name}: nondeterministic")
            continue
        check_names(spec, result, trace)
        print_workload(name, spec, result, trace)
        failed += [f"{name}: {check}" for check, passed, _d
                   in result["checks"] if not passed]
        document["workloads"][name] = result
        last_line = contract_line(spec, result, trace)

    suffix = ".trace" if trace else ""
    out = Path(args.out) if args.out else OUT / (
        f"{names[0] if len(names) == 1 else 'all'}.seed{args.seed}"
        f"{suffix}.json")
    out.write_text(json.dumps(document, indent=1) + "\n")
    print(f"\nresult document: {out}")
    for line in failed:
        print(f"FAILED {line}")
    if failed:
        return 1
    print(last_line)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
