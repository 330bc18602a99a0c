"""Print one JSON line of deterministic costs for a source tree.

    python tools/ledger.py [--tree DIR] [--workload W ...] [--sim-s S]

The line holds, for the tree at ``DIR`` (default: this checkout):

* ``opcount``: per workload of ``perf/workloads.py``, the bytecodes and
  Python calls per request inside ``src/repro`` (``tools/opcount.py``'s
  counter, the same settings: seed 17, ``--sim-s`` 0.02, 0.0015 for
  ``rack_echo``, every point of ``channel_sweep`` at its smallest size;
  ``opcount.window``), the same two per layer (``layers``: ``{layer:
  [bytecodes, calls]}``, ``opcount.py``'s rows, so a row shows which layer
  moved) and ``events_per_request``, the events dispatched in that window
  (``channel_sweep``: sender attempts and receiver polls);
* ``retained_bytes_per_request`` (pod workloads, inside each ``opcount``
  row): the bytes allocated by code under ``src/repro`` (``tracemalloc``,
  innermost frame) in the counted window and still live after it, cycles
  collected, over the window's requests.  The window is run a second time
  for it, on a fresh build without the bytecode tracer (which would keep
  frame objects alive).  A record that grows with the horizon shows here,
  and so does churn in bounded state (a recycled buffer address replacing
  an older one); a container reallocated inside the window counts whole, so
  a window that crosses a list's or an array's growth step reads high;
* ``import_repro``: peak RSS (MiB, the child's own ``VmHWM``: ``ru_maxrss``
  would carry the caller's peak through fork and exec) and milliseconds of
  ``import repro`` in a fresh interpreter with a warm bytecode cache, median
  of five, and the heavy modules it loaded beyond the interpreter's start-up
  set (any package outside the standard library, and ``numpy.random``,
  OpenSSL's ``_hashlib`` and ``_ssl``);
* ``import_pod``: the same probe on the pod path, ``import repro.workloads,
  repro.experiments, repro.obs.cli, repro.faults.chaos``;
* ``idle_rack_events_per_sim_s``: the events an idle
  ``RackBuilder(hosts=32, pools=4)`` with ``enable_raft(3)`` dispatches per
  simulated second over [0.5, 1.5] s (ROADMAP item 4(a)'s count);
* ``src_lines``: ``wc -l`` over ``src/repro``'s ``.py`` files;
* ``schedule_version`` and ``schedule_events``: ``<n>`` and the value of
  the ``SCHEDULE_V<n>_EVENTS`` pin in ``tests/test_schedule_v3.py`` (rows
  before version 4 hold the count alone, as ``schedule_v3_events``).

Every number but the import row is exact, so two trees compare by one run
each.  Each workload is counted in its own child process, with ``DIR``'s
``src`` and ``perf`` first on its path and this file's counter, so one
checkout of the tool can measure another tree (a clone of an older commit);
the idle rack runs in a fresh interpreter on ``DIR``'s ``src`` as well.
``python tools/ledger.py >> BENCH_history.jsonl`` adds the line to the
history.  Standard library only.
"""

from __future__ import annotations

import argparse
import ast
import gc
import json
import os
import re
import statistics
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

TOOLS = Path(__file__).resolve().parent
#: ``--sim-s`` per workload; ``None``: no pod, every point is counted.
WORKLOADS = {"echo_cell": 0.02, "rack_echo": 0.0015, "storage_read": 0.02,
             "storage_write": 0.02, "serve_mix": 0.02, "control_churn": 0.02,
             "channel_sweep": None}
WATCH = ("numpy.random", "_hashlib", "_ssl")
SEED = 17
#: ledger key -> the modules its import probe imports
IMPORTS = {"import_repro": "repro",
           "import_pod": "repro.workloads, repro.experiments, repro.obs.cli, "
                         "repro.faults.chaos"}

IMPORT_PROBE = """
import json, sys, time
t0 = time.perf_counter()
import %s
ms = (time.perf_counter() - t0) * 1e3
with open("/proc/self/status") as status:
    hwm = next(line for line in status if line.startswith("VmHWM:"))
rss = int(hwm.split()[1]) / 1024
print(json.dumps({"ms": ms, "rss_mib": rss, "modules": sorted(sys.modules)}))
"""

IDLE_RACK_S = (0.5, 1.5)
IDLE_RACK_PROBE = f"""
from repro.core.pod import RackBuilder
pod = RackBuilder(hosts=32, pools=4).build()
pod.enable_raft(3)
pod.run({IDLE_RACK_S[0]})
before = pod.sim.processed_events
pod.run({IDLE_RACK_S[1] - IDLE_RACK_S[0]})
print(pod.sim.processed_events - before)
"""


def count_child(tree: Path, workload: str, sim_s: float | None) -> dict:
    """In a child process: the counts for one workload window of ``tree``."""
    sys.path.insert(0, str(TOOLS))
    import opcount

    sys.path[:0] = [str(tree / "src"), str(tree / "perf")]
    opcount.REPRO = str(tree / "src" / "repro") + os.sep
    import workloads

    workloads.track_simulators()
    counts, requests, events = opcount.window(workload, SEED, sim_s)
    row = {"requests": requests,
           "bytecodes": round(sum(c[0] for c in counts.values()) / requests, 1),
           "calls": round(sum(c[1] for c in counts.values()) / requests, 2),
           "layers": {layer: [round(ops / requests, 1),
                              round(calls / requests, 2)]
                      for layer, (ops, calls) in counts.items()},
           "events_per_request": round(events / requests, 3)}
    if opcount.is_pod_workload(workload):
        retained = []

        def traced(run):
            """The window again, untraced but for ``tracemalloc``: what it
            allocated under ``src/repro`` and left live."""
            tracemalloc.start(1)
            try:
                run()
                gc.collect()
                snapshot = tracemalloc.take_snapshot()
            finally:
                tracemalloc.stop()
            retained.append(sum(
                stat.size for stat in snapshot.statistics("filename")
                if stat.traceback[0].filename.startswith(opcount.REPRO)))
            return {}

        _, again, _ = opcount.window(workload, SEED, sim_s, traced)
        if again != requests:
            raise RuntimeError(f"{workload}: the second window issued "
                               f"{again} requests, the first {requests}")
        row["retained_bytes_per_request"] = round(retained[0] / requests, 1)
    return row


def import_row(tree: Path, modules: str, runs: int = 5) -> dict:
    """``import <modules>`` in fresh interpreters with a warm bytecode cache
    (a private ``PYTHONPYCACHEPREFIX``, filled by one untimed run first)."""
    with tempfile.TemporaryDirectory() as cache:
        env = dict(os.environ, PYTHONPATH=str(tree / "src"),
                   PYTHONPYCACHEPREFIX=cache)
        env.pop("PYTHONDONTWRITEBYTECODE", None)

        def probe(code):
            return json.loads(subprocess.run(
                [sys.executable, "-c", code], env=env, cwd=tree, check=True,
                capture_output=True, text=True).stdout)

        startup = set(probe("import json, sys; print(json.dumps(list(sys.modules)))"))
        samples = [probe(IMPORT_PROBE % modules) for _ in range(runs + 1)][1:]
    loaded = set(samples[0]["modules"]) - startup
    heavy = {name.split(".")[0] for name in loaded} - set(
        sys.stdlib_module_names) - {"repro"}
    heavy |= set(WATCH) & loaded
    return {"rss_mib": round(statistics.median(s["rss_mib"] for s in samples), 2),
            "ms": round(statistics.median(s["ms"] for s in samples), 1),
            "heavy": sorted(heavy)}


def idle_rack_events(tree: Path) -> float:
    """Events an idle 32-host, 4-pool rack with Raft dispatches per simulated
    second over ``IDLE_RACK_S``, in a fresh interpreter on ``tree``'s
    ``src``."""
    events = int(subprocess.run(
        [sys.executable, "-c", IDLE_RACK_PROBE], cwd=tree, check=True,
        env=dict(os.environ, PYTHONPATH=str(tree / "src")),
        capture_output=True, text=True).stdout)
    return round(events / (IDLE_RACK_S[1] - IDLE_RACK_S[0]), 1)


def schedule_pin(tree: Path) -> tuple:
    """``(n, events)`` of the ``SCHEDULE_V<n>_EVENTS`` pin, ``(None, None)``
    for a tree older than the pin's file; a file without a pin is an error,
    so a renamed pin cannot blank the field."""
    path = tree / "tests" / "test_schedule_v3.py"
    if not path.is_file():
        return None, None
    for node in ast.parse(path.read_text()).body:
        for target in node.targets if isinstance(node, ast.Assign) else ():
            match = re.fullmatch(r"SCHEDULE_V(\d+)_EVENTS",
                                 getattr(target, "id", ""))
            if match:
                return int(match[1]), ast.literal_eval(node.value)
    raise RuntimeError(f"{path}: no SCHEDULE_V<n>_EVENTS pin")


def row(tree: Path, names, sim_s: float | None) -> dict:
    rev = subprocess.run(["git", "describe", "--always", "--dirty"], cwd=tree,
                         capture_output=True, text=True).stdout.strip()
    counts = {}
    for name in names:
        window = [] if WORKLOADS[name] is None else [
            "--sim-s", str(sim_s or WORKLOADS[name])]
        out = subprocess.run(
            [sys.executable, __file__, "--tree", str(tree), "--child", name,
             *window], capture_output=True, text=True, check=True).stdout
        counts[name] = json.loads(out.splitlines()[-1])
    version, events = schedule_pin(tree)
    return {"rev": rev or None,
            "opcount": counts,
            **{key: import_row(tree, modules)
               for key, modules in IMPORTS.items()},
            "idle_rack_events_per_sim_s": idle_rack_events(tree),
            "src_lines": sum(len(p.read_bytes().splitlines())
                             for p in (tree / "src" / "repro").rglob("*.py")),
            "schedule_version": version, "schedule_events": events}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="one JSON line of deterministic costs for a source tree")
    parser.add_argument("--tree", type=Path, default=TOOLS.parent)
    parser.add_argument("--workload", action="append", choices=list(WORKLOADS),
                        help="count only these workloads (repeatable)")
    parser.add_argument("--sim-s", type=float, default=None,
                        help="simulated seconds per pod workload window "
                             "(default: per workload, as in tools/README.md)")
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
