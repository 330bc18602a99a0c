"""Count the bytecodes and Python calls a benchmark workload spends per request.

    python tools/opcount.py WORKLOAD --sim-s S [--seed 17]
    python tools/opcount.py channel_sweep

Builds ``perf/workloads.py``'s ``WORKLOADS[WORKLOAD](seed, 6.0)``, runs its
``setup()`` (topology, warm-up), then runs ``pod.run(S)`` under
``sys.settrace`` with ``f_trace_opcodes`` set on every frame of a file under
``src/repro``.  Prints, in total and per layer, the bytecodes executed and the
Python calls made (generator resumptions included), each as a count and per
request, a request being one unit of the workload's ``generator_count()``.
``channel_sweep`` builds no pod: it is built at the smallest message count it
allows (``host_seconds`` 0) and its ``SLICES`` points are run under the
tracer, a request being one delivered message.

Unlike ``perf/run.py``'s host-time rows, the counts are deterministic: the
same tree, workload, seed and ``S`` print the same table on any box, so "which
version does less work" is read off one run each.  A layer is the module's
directory under ``src/repro`` (``mem``, ``sim``, ...); ``core`` is split by
subpackage or module (``core.engine``, ``core.netengine``), as in
``perf/trace.py``.  Standard library only; ``perf/`` is read, not changed.
"""

from __future__ import annotations

import argparse
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
REPRO = os.path.join(ROOT, "src", "repro") + os.sep
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perf")]


def layer_of(filename: str) -> str:
    """``core/engine.py`` -> ``core.engine``, ``mem/cache.py`` -> ``mem``."""
    parts = filename[len(REPRO):].split(os.sep)
    head = parts[0].removesuffix(".py")
    if head == "core" and len(parts) > 1:
        head = "core." + parts[1].removesuffix(".py")
    return head


def count(run) -> dict:
    """``{layer: [bytecodes, calls]}`` executed under ``src/repro`` by
    ``run()``."""
    counts: dict = {}
    tracers: dict = {}

    def tracer_for(filename: str):
        """One local tracer per file; ``None`` outside ``src/repro``."""
        if not filename.startswith(REPRO):
            tracers[filename] = None
            return None
        cell = counts.setdefault(layer_of(filename), [0, 0])

        def local(frame, event, _arg):
            if event == "opcode":
                cell[0] += 1
            return local

        local.cell = cell
        tracers[filename] = local
        return local

    def on_call(frame, _event, _arg):
        filename = frame.f_code.co_filename
        local = tracers[filename] if filename in tracers else tracer_for(filename)
        if local is None:
            return None
        local.cell[1] += 1
        frame.f_trace_opcodes = True
        return local

    sys.settrace(on_call)
    try:
        run()
    finally:
        sys.settrace(None)
    return counts


def is_pod_workload(name: str) -> bool:
    from workloads import WORKLOADS

    return hasattr(WORKLOADS[name], "generator_count")


def window(name: str, seed: int, sim_s: float | None, counter=count) -> tuple:
    """Build ``WORKLOADS[name](seed, 6.0)``, run its ``setup()``, then count
    ``pod.run(sim_s)``: ``(counts, requests, events)``, with the requests
    issued and the events dispatched in the counted window.  A workload
    without a pod is built at ``host_seconds`` 0 and all its slices are
    counted (``sim_s`` unused); its requests are the messages delivered and
    its events the workload's own ``events()``.  ``counter(run)`` counts
    the window (:func:`count`; a caller may wrap it)."""
    from workloads import SLICES, WORKLOADS

    if not is_pod_workload(name):
        workload = WORKLOADS[name](seed, 0.0)
        workload.setup()
        events = workload.events()
        counts = counter(lambda: [workload.run_slice(i) for i in range(SLICES)])
        delivered = sum(bench.receiver.counters.received
                        for bench in workload.benches())
        return counts, delivered, workload.events() - events
    workload = WORKLOADS[name](seed, 6.0)
    workload.setup()
    before, events = workload.generator_count(), workload.events()
    counts = counter(lambda: workload.pod.run(sim_s))
    return (counts, workload.generator_count() - before,
            workload.events() - events)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="bytecodes and Python calls per request of a perf workload")
    parser.add_argument("workload")
    parser.add_argument("--sim-s", type=float,
                        help="simulated seconds traced after setup() (pod "
                             "workloads only)")
    parser.add_argument("--seed", type=int, default=17)
    args = parser.parse_args(argv)

    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"one of {', '.join(WORKLOADS)}")
    pod = is_pod_workload(args.workload)
    if pod and args.sim_s is None:
        parser.error(f"{args.workload} needs --sim-s")
    if not pod and args.sim_s is not None:
        parser.error(f"{args.workload} builds no pod: it runs every point, "
                     "not a --sim-s window")
    counts, requests, _ = window(args.workload, args.seed, args.sim_s)
    if requests <= 0:
        parser.error("no request was issued in the traced window")

    span = f"sim-s {args.sim_s:g}" if pod else "all slices"
    print(f"workload {args.workload}  seed {args.seed}  {span}"
          f"  requests {requests}")
    print(f"{'layer':<16}{'bytecodes':>12}{'per req':>11}"
          f"{'calls':>10}{'per req':>9}")
    rows = sorted(counts.items(), key=lambda item: (-item[1][0], item[0]))
    rows.append(("total", [sum(c[0] for c in counts.values()),
                           sum(c[1] for c in counts.values())]))
    for layer, (ops, calls) in rows:
        print(f"{layer:<16}{ops:>12}{ops / requests:>11.1f}"
              f"{calls:>10}{calls / requests:>9.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
