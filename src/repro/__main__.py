"""Command-line entry point: ``python -m repro [experiment ...]``.

With no arguments, lists the available experiments; with names (e.g.
``fig6 table3`` or ``all``), runs them and prints the paper-style tables.
Two observability subcommands ride along:

* ``report [--json]`` -- run a short echo workload and print registry-backed
  metric summaries (traffic by category/host, channel/cache ops, scraped
  bandwidth); ``--json`` emits the machine-readable snapshot instead;
* ``trace [out.json]`` -- run the Fig 13 failover with the sim-time tracer
  and export Chrome-trace JSON;
* ``flows [out.json]`` -- run the UDP echo workload with end-to-end flow
  tracing and print the per-stage attribution table, critical path and
  slowest-request waterfall (optionally exporting a Perfetto flow-arrow
  trace);
* ``top [--once] [--json] [--hosts N]`` -- run a seeded echo workload with
  the fleet-health pipeline enabled and render the live rack dashboard
  (per-host/per-device utilization bars, pool stranding, firing alerts);
* ``overload [--check] [--json]`` -- open-loop surge sweep through 1.5x
  device capacity with retry budgets/admission control on vs off
  (budgets-off shows metastable collapse, budgets-on recovers);
* ``serve [--check] [--json]`` -- multi-tenant QoS serving: a 3-class
  tenant mix under per-tenant weighted-fair queueing, with a noisy
  neighbour surging to 8x its share (victim latency and weighted shares
  are gated against the solo baseline).
"""

from __future__ import annotations

import sys

from . import __version__
from .experiments import runner


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    by_name = {
        module.__name__.rsplit(".", 1)[-1]: (title, module)
        for title, module in runner.ALL_EXPERIMENTS
    }
    if not argv or argv[0] in ("-h", "--help"):
        print(f"repro {__version__} -- Oasis (SOSP '25) reproduction")
        print("usage: python -m repro <experiment ...|all>")
        print("       python -m repro report [--json] [--sim-gauges]")
        print("       python -m repro trace [out.json]")
        print("       python -m repro flows [out.json]")
        print("       python -m repro top [--once] [--json] [--hosts N]")
        print("       python -m repro rack [--hosts N] [--pools M] [--json]")
        print("       python -m repro chaos [--seed N] [--plan plan.json]")
        print("       python -m repro overload [--check] [--json]")
        print("       python -m repro serve [--check] [--json]\n")
        print("experiments:")
        for name, (title, _) in by_name.items():
            print(f"  {name:<8} {title}")
        print("\nobservability:")
        print("  report   registry-backed metrics summary of an echo run")
        print("  trace    failover run exported as Chrome-trace JSON")
        print("  flows    per-request latency attribution (bottleneck profile)")
        print("  top      live fleet-health dashboard (utilization/stranding/alerts)")
        print("  rack     32-host rack: echo on every host + sharded control plane")
        print("  chaos    deterministic fault injection with invariant checks")
        print("  overload surge sweep: goodput collapse vs recovery with retry budgets")
        print("  serve    multi-tenant QoS serving: WFQ isolation vs a noisy neighbour")
        return 0
    if argv[0] == "report":
        from .obs.cli import main_report

        main_report(as_json="--json" in argv[1:],
                    sim_gauges="--sim-gauges" in argv[1:])
        return 0
    if argv[0] == "top":
        from .obs.cli import main_top

        return main_top(argv[1:])
    if argv[0] == "trace":
        from .obs.cli import main_trace

        main_trace(argv[1] if len(argv) > 1 else "oasis-failover-trace.json")
        return 0
    if argv[0] == "flows":
        from .obs.cli import main_flows

        main_flows(argv[1] if len(argv) > 1 else None)
        return 0
    if argv[0] == "rack":
        from .experiments.rack import main_rack

        return main_rack(argv[1:])
    if argv[0] == "chaos":
        from .faults.chaos import main_chaos

        return main_chaos(argv[1:])
    if argv[0] == "overload":
        from .experiments.overload import main_overload

        return main_overload(argv[1:])
    if argv[0] == "serve":
        from .experiments.serve import main_serve

        return main_serve(argv[1:])
    if argv == ["all"]:
        runner.main()
        return 0
    unknown = [name for name in argv if name not in by_name]
    if unknown:
        print(f"unknown experiment(s): {', '.join(unknown)}", file=sys.stderr)
        print(f"available: {', '.join(by_name)}", file=sys.stderr)
        return 2
    for name in argv:
        title, module = by_name[name]
        print(f"== {title} ==")
        module.main()
        print()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
