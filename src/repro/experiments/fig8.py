"""Figure 8: Oasis overhead on four web applications.

Paper result: across a Python HTTP server, Rust Rocket, nginx and Apache
Tomcat, Oasis (remote NIC) adds a consistent 4-7 us at P50/P90/P99 under low
and moderate load; near saturation both setups spike alike.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from ..analysis.report import render_table
from ..core.pod import CXLPod
from ..net.packet import make_ip
from ..sim.rng import Stream
from ..workloads.apps import APP_PROFILES, AppClient, AppProfile, AppServer
from .common import CLIENT_IP, SERVER_IP, scale

__all__ = ["run", "run_app", "main", "WEB_APPS", "LOAD_LEVELS"]

WEB_APPS = ("python-http", "rocket", "nginx", "tomcat")
#: fraction of the app's single-worker capacity
LOAD_LEVELS = {"low": 0.10, "moderate": 0.45, "high": 0.85}


def run_app(
    profile: AppProfile,
    mode: str,
    load_fraction: float,
    duration_s: float = 0.25,
    seed: int = 11,
) -> dict:
    """One (app, mode, load) cell: returns latency percentiles in us."""
    pod = CXLPod(mode=mode)
    h0 = pod.add_host()
    remote = mode == "oasis"
    h1 = pod.add_host() if remote else h0
    nic = pod.add_nic(h0)
    inst = pod.add_instance(h1 if remote else h0, ip=SERVER_IP, nic=nic)
    rng = Stream(seed)
    AppServer(pod.sim, inst, profile, rng)
    client_ep = pod.add_external_client(ip=CLIENT_IP)
    rate = load_fraction * 1e6 / profile.service_mean_us
    client = AppClient(pod.sim, client_ep, SERVER_IP, profile, rate,
                       Stream(seed + 1))
    client.start(duration_s)
    pod.run(duration_s + 0.05)
    pod.stop()
    return client.latency_percentiles()


def run(
    apps: Sequence[str] = WEB_APPS,
    loads: Optional[Dict[str, float]] = None,
    duration_s: Optional[float] = None,
) -> dict:
    loads = loads or LOAD_LEVELS
    duration = duration_s if duration_s is not None else 0.25 * scale()
    results: Dict[str, dict] = {}
    for app in apps:
        profile = APP_PROFILES[app]
        results[app] = {}
        for load_name, fraction in loads.items():
            baseline = run_app(profile, "local", fraction, duration)
            oasis = run_app(profile, "oasis", fraction, duration)
            results[app][load_name] = {"baseline": baseline, "oasis": oasis}
    return results


def main() -> dict:
    results = run()
    rows = []
    for app, loads in results.items():
        for load_name, cell in loads.items():
            b, o = cell["baseline"], cell["oasis"]
            rows.append((
                app, load_name,
                b["p50"], o["p50"], o["p50"] - b["p50"],
                b["p99"], o["p99"], o["p99"] - b["p99"],
            ))
    print(render_table(
        ["app", "load", "base p50", "oasis p50", "d(p50)",
         "base p99", "oasis p99", "d(p99)"],
        rows,
        title="Figure 8: web-app latency, us "
              "(paper: Oasis adds a consistent 4-7 us)",
        digits=1,
    ))
    return results


if __name__ == "__main__":
    main()
