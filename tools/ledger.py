"""Print one JSON line of deterministic costs for a source tree.

    python tools/ledger.py [--tree DIR] [--workload W ...] [--sim-s S]

The line holds, for the tree at ``DIR`` (default: this checkout):

* ``opcount``: per pod workload of ``perf/workloads.py``, the bytecodes and
  Python calls per request inside ``src/repro`` (``tools/opcount.py``'s
  counter, the same settings: seed 17, ``--sim-s`` 0.02, 0.0015 for
  ``rack_echo``; ``opcount.window``) and ``events_per_request``, kernel
  events dispatched in that window;
* ``import_repro``: peak RSS (MiB) and milliseconds of ``import repro`` in a
  fresh interpreter with a warm bytecode cache, median of five, and the heavy
  modules it loaded beyond the interpreter's start-up set (any package
  outside the standard library, and ``numpy.random``, OpenSSL's ``_hashlib``
  and ``_ssl``);
* ``src_lines``: ``wc -l`` over ``src/repro``'s ``.py`` files;
* ``schedule_v3_events``: ``SCHEDULE_V3_EVENTS`` in
  ``tests/test_schedule_v3.py``.

Every number but the import row is exact, so two trees compare by one run
each.  Each workload is counted in its own child process, with ``DIR``'s
``src`` and ``perf`` first on its path and this file's counter, so one
checkout of the tool can measure another tree (a clone of an older commit).
``python tools/ledger.py >> BENCH_history.jsonl`` adds the line to the
history.  Standard library only.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

TOOLS = Path(__file__).resolve().parent
WORKLOADS = {"echo_cell": 0.02, "rack_echo": 0.0015, "storage_read": 0.02,
             "storage_write": 0.02, "serve_mix": 0.02, "control_churn": 0.02}
WATCH = ("numpy.random", "_hashlib", "_ssl")
SEED = 17

IMPORT_PROBE = """
import json, resource, sys, time
t0 = time.perf_counter()
import repro
ms = (time.perf_counter() - t0) * 1e3
rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
print(json.dumps({"ms": ms, "rss_mib": rss, "modules": sorted(sys.modules)}))
"""


def count_child(tree: Path, workload: str, sim_s: float) -> dict:
    """In a child process: the counts for one workload window of ``tree``."""
    sys.path.insert(0, str(TOOLS))
    import opcount

    sys.path[:0] = [str(tree / "src"), str(tree / "perf")]
    opcount.REPRO = str(tree / "src" / "repro") + os.sep
    import workloads

    workloads.track_simulators()
    counts, requests, events = opcount.window(workload, SEED, sim_s)
    return {"requests": requests,
            "bytecodes": round(sum(c[0] for c in counts.values()) / requests, 1),
            "calls": round(sum(c[1] for c in counts.values()) / requests, 2),
            "events_per_request": round(events / requests, 3)}


def import_row(tree: Path, runs: int = 5) -> dict:
    """``import repro`` in fresh interpreters with a warm bytecode cache (a
    private ``PYTHONPYCACHEPREFIX``, filled by one untimed run first)."""
    with tempfile.TemporaryDirectory() as cache:
        env = dict(os.environ, PYTHONPATH=str(tree / "src"),
                   PYTHONPYCACHEPREFIX=cache)
        env.pop("PYTHONDONTWRITEBYTECODE", None)

        def probe(code):
            return json.loads(subprocess.run(
                [sys.executable, "-c", code], env=env, cwd=tree, check=True,
                capture_output=True, text=True).stdout)

        startup = set(probe("import json, sys; print(json.dumps(list(sys.modules)))"))
        samples = [probe(IMPORT_PROBE) for _ in range(runs + 1)][1:]
    loaded = set(samples[0]["modules"]) - startup
    heavy = {name.split(".")[0] for name in loaded} - set(
        sys.stdlib_module_names) - {"repro"}
    heavy |= set(WATCH) & loaded
    return {"rss_mib": round(statistics.median(s["rss_mib"] for s in samples), 2),
            "ms": round(statistics.median(s["ms"] for s in samples), 1),
            "heavy": sorted(heavy)}


def schedule_version(tree: Path) -> int | None:
    path = tree / "tests" / "test_schedule_v3.py"
    if not path.is_file():
        return None
    for node in ast.parse(path.read_text()).body:
        if (isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "SCHEDULE_V3_EVENTS"
                        for t in node.targets)):
            return ast.literal_eval(node.value)
    return None


def row(tree: Path, names, sim_s: float | None) -> dict:
    rev = subprocess.run(["git", "describe", "--always", "--dirty"], cwd=tree,
                         capture_output=True, text=True).stdout.strip()
    counts = {}
    for name in names:
        out = subprocess.run(
            [sys.executable, __file__, "--tree", str(tree), "--child", name,
             "--sim-s", str(sim_s or WORKLOADS[name])],
            capture_output=True, text=True, check=True).stdout
        counts[name] = json.loads(out.splitlines()[-1])
    return {"rev": rev or None,
            "opcount": counts,
            "import_repro": import_row(tree),
            "src_lines": sum(len(p.read_bytes().splitlines())
                             for p in (tree / "src" / "repro").rglob("*.py")),
            "schedule_v3_events": schedule_version(tree)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="one JSON line of deterministic costs for a source tree")
    parser.add_argument("--tree", type=Path, default=TOOLS.parent)
    parser.add_argument("--workload", action="append", choices=list(WORKLOADS),
                        help="count only these workloads (repeatable)")
    parser.add_argument("--sim-s", type=float, default=None,
                        help="simulated seconds per window (default: per "
                             "workload, as in tools/README.md)")
    parser.add_argument("--child", choices=list(WORKLOADS), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    tree = args.tree.resolve()

    if args.child:
        print(json.dumps(count_child(tree, args.child, args.sim_s)))
        return 0
    print(json.dumps(row(tree, args.workload or list(WORKLOADS), args.sim_s),
                     sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
