#!/usr/bin/env python3
"""Compare two sets of result documents written by ``perf/run.py``.

    python perf/compare.py A.json... -- B.json...

One row per (workload, end-to-end metric): both medians, both quartile
ranges, the ratio B/A *with its base*, and a verdict from the bounds in
``BENCHMARK.json``:

* ``improved`` / ``regressed`` -- B's median is better / worse than A's by
  more than the bound;
* ``unchanged`` -- within the bound;
* ``unresolved`` -- the run-to-run spread of either side (distance between
  its quartiles over its median) is wider than the bound, so the bound cannot
  be judged.

Simulated-time metrics and counts are exact: for the seeds both sides ran
they are compared value for value, any difference is real, and the row says
whether it is beyond the bound.  Given the documents as alternating pairs
(A1 B1 A2 B2 ... order within each side), ten or more pairs also print the
fraction of pairs B wins, ties counting for neither side.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MIN_PAIRS_FOR_WINS = 10


def load(paths) -> list:
    documents = [json.loads(Path(p).read_text()) for p in paths]
    for path, document in zip(paths, documents):
        if document.get("quick"):
            raise SystemExit(f"{path}: a --quick run is never compared")
        if document.get("trace"):
            raise SystemExit(f"{path}: a traced run has no end-to-end "
                             f"metrics")
    return documents


def entries(documents, workload: str, metric: str) -> list:
    """(seed, metric entry) for every document that ran the workload."""
    return [(d["seed"], d["workloads"][workload]["metrics"][metric])
            for d in documents if workload in d["workloads"]]


def spread(side: list) -> tuple:
    """(median, q1, q3, (q3 - q1) / median) over one side's documents.

    Quartiles as the driver takes them, from four documents up.  Fewer have
    no quartiles worth the name: the extremes stand in (of the reps, when
    there is a single document), which errs towards ``unresolved``.
    """
    values = [e["value"] for _s, e in side]
    median = statistics.median(values)
    if len(values) >= 4:
        q1, _q2, q3 = statistics.quantiles(values, n=4)
    else:
        few = values if len(values) > 1 else side[0][1].get("reps", values)
        q1, q3 = min(few), max(few)
    return median, q1, q3, (q3 - q1) / abs(median) if median else 0.0


def worse_by(a: float, b: float, better: str) -> float:
    """How much worse B is than A, as a share of A (negative: better)."""
    if a == 0:
        return 0.0 if b == 0 else float("inf")
    change = (b - a) / abs(a)
    return change if better == "lower" else -change


def judge(metric: dict, a_entries: list, b_entries: list) -> dict:
    bound, better = metric["bound"], metric["better"]
    a_values = [e["value"] for _s, e in a_entries]
    b_values = [e["value"] for _s, e in b_entries]
    a_med, a_q1, a_q3, a_spread = spread(a_entries)
    b_med, b_q1, b_q3, b_spread = spread(b_entries)
    worse = worse_by(a_med, b_med, better)
    exact = "reps" not in a_entries[0][1]
    row = {"a": (a_med, a_q1, a_q3), "b": (b_med, b_q1, b_q3),
           "ratio": b_med / a_med if a_med else float("nan"),
           "note": ""}
    a_by_seed, b_by_seed = dict(a_entries), dict(b_entries)
    common = sorted(set(a_by_seed) & set(b_by_seed))
    if exact and common:
        # One value per seed on each side (reps and reruns are bit-equal).
        worst = max(worse_by(a_by_seed[s]["value"], b_by_seed[s]["value"],
                             better) for s in common)
        best = min(worse_by(a_by_seed[s]["value"], b_by_seed[s]["value"],
                            better) for s in common)
        if worst == 0 and best == 0:
            row["verdict"], row["note"] = "unchanged", "exact, identical"
        else:
            row["verdict"] = "regressed" if worst > 0 else "improved"
            beyond = max(worst, -best) > bound
            row["note"] = ("exact, " + ("beyond" if beyond else "within")
                           + f" the bound {bound:g}")
    elif max(a_spread, b_spread) > bound:
        row["verdict"] = "unresolved"
        row["note"] = (f"spread {max(a_spread, b_spread):.3f} wider than "
                       f"the bound {bound:g}")
    elif worse > bound:
        row["verdict"] = "regressed"
    elif worse < -bound:
        row["verdict"] = "improved"
    else:
        row["verdict"] = "unchanged"
    pairs = list(zip(a_values, b_values))
    if len(pairs) >= MIN_PAIRS_FOR_WINS and len(a_values) == len(b_values):
        wins = sum(1 for a, b in pairs if worse_by(a, b, better) < 0)
        row["note"] += (", " if row["note"] else "") + (
            f"B wins {wins}/{len(pairs)} pairs ({wins / len(pairs):.2f})")
    return row


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if "--" not in argv or argv[0] == "--" or argv[-1] == "--":
        print(__doc__, file=sys.stderr)
        return 2
    split = argv.index("--")
    a_docs, b_docs = load(argv[:split]), load(argv[split + 1:])
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    print(f"A: {len(a_docs)} document(s), B: {len(b_docs)} document(s); "
          f"ratio is B/A, base is A's median")
    verdicts = []
    for workload in (w["name"] for w in spec["workloads"]):
        for metric in spec["end_to_end"]:
            a_entries = entries(a_docs, workload, metric["name"])
            b_entries = entries(b_docs, workload, metric["name"])
            if not a_entries or not b_entries:
                continue
            row = judge(metric, a_entries, b_entries)
            verdicts.append(row["verdict"])
            (a, a1, a3), (b, b1, b3) = row["a"], row["b"]
            print(f"{workload:<14} {metric['name']:<20} "
                  f"A {a:>12.6g} [{a1:.6g} .. {a3:.6g}]  "
                  f"B {b:>12.6g} [{b1:.6g} .. {b3:.6g}]  "
                  f"B/A {row['ratio']:.4f} of {a:.6g} {metric['unit']}  "
                  f"{row['verdict']}"
                  + (f" ({row['note']})" if row["note"] else ""))
    if not verdicts:
        print("nothing to compare: no workload is in both sets")
        return 2
    print(", ".join(f"{verdicts.count(v)} {v}" for v in
                    ("improved", "unchanged", "regressed", "unresolved")))
    return 1 if "regressed" in verdicts else 0


if __name__ == "__main__":
    raise SystemExit(main())
