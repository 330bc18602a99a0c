"""Smoke test of the benchmark harness: ``pytest perf/``.

Not collected by tier-1 (``testpaths = tests``).  Runs the real command at
``--quick`` size (1 rep, windows / 4), so it checks the plumbing, never a
number worth comparing.
"""

import json
import re
import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402  (perf/run.py)

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
QUICK = ["--quick", "--workload", "echo_cell", "--workload", "channel_sweep"]


def invoke(capsys, args, out):
    code = run.main(args + ["--out", str(out)])
    lines = capsys.readouterr().out.strip().splitlines()
    return code, lines, json.loads(out.read_text())


@pytest.fixture(scope="module")
def quick_twice(tmp_path_factory):
    """The same quick invocation twice, and how long the first one took."""
    tmp = tmp_path_factory.mktemp("perf")
    documents = []
    started = time.perf_counter()
    for i in range(2):
        out = tmp / f"quick{i}.json"
        assert run.main(QUICK + ["--out", str(out)]) == 0
        if i == 0:
            elapsed = time.perf_counter() - started
        documents.append(json.loads(out.read_text()))
    return documents, elapsed


def test_quick_finishes_in_30_s(quick_twice):
    _documents, elapsed = quick_twice
    assert elapsed < 30.0


def test_names_are_wellformed_and_unique():
    names = [m["name"] for kind in ("workloads", "end_to_end", "per_layer")
             for m in SPEC[kind]]
    assert all(NAME.fullmatch(name) for name in names)
    assert len(names) == len(set(names))
    assert len(SPEC["workloads"]) == 7
    assert len(SPEC["end_to_end"]) == 8
    assert len(SPEC["per_layer"]) == 102
    assert SPEC["paths"] == ["perf"]


def test_end_to_end_names_match_benchmark_json(quick_twice):
    documents, _elapsed = quick_twice
    declared = {m["name"] for m in SPEC["end_to_end"]}
    for workload in ("echo_cell", "channel_sweep"):
        assert set(documents[0]["workloads"][workload]["metrics"]) == declared


def test_simulated_metrics_bit_equal_across_invocations(quick_twice):
    first, second = quick_twice[0]
    for workload in ("echo_cell", "channel_sweep"):
        a, b = first["workloads"][workload], second["workloads"][workload]
        assert a["exact"] == b["exact"]
        for name, entry in a["metrics"].items():
            if "reps" not in entry:     # not a host-clock metric
                assert entry["value"] == b["metrics"][name]["value"], name


def test_result_document_header(quick_twice):
    document = quick_twice[0][0]
    for key in ("schema_version", "git_head", "python", "nproc", "seed",
                "reps"):
        assert key in document
    reps = document["workloads"]["echo_cell"]["metrics"]["setup_s"]["reps"]
    assert len(reps) == document["reps"] == 1


def test_contract_line_and_per_layer_names(capsys, tmp_path):
    code, lines, document = invoke(
        capsys, ["--quick", "--trace", "1", "--workload", "echo_cell"],
        tmp_path / "trace.json")
    assert code == 0
    last = json.loads(lines[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0
    assert last["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert set(last["metrics"]) == set(declared)
    for name, entry in last["metrics"].items():
        assert entry["unit"] == declared[name]
        assert isinstance(entry["value"], float)
    values = document["workloads"]["echo_cell"]["values"]
    assert values["trace.flow_events_delta"] == 0
    assert values["trace.named_share"] >= 0.8
    assert (run.OUT / "echo_cell.layers.json").is_file()


def test_broken_check_fails_the_command(capsys, tmp_path, monkeypatch):
    monkeypatch.setattr(run, "ECHO_OVERHEAD_BAND_US", (0.0, 1.0))
    code, lines, _document = invoke(
        capsys, ["--quick", "--workload", "echo_cell"], tmp_path / "b.json")
    assert code != 0
    assert any("echo_cell" in line and "echo_overhead_band" in line
               and "FAILED" in line for line in lines)
    assert not lines[-1].startswith("{")     # no result line on failure


def test_missing_program_exits_nonzero(monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", run.ROOT / "no-such-src")
    assert run.main(QUICK) != 0
    assert not capsys.readouterr().out.strip()
