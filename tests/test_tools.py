"""The audit in ``tools/unreached.py`` and the keep-list it is read against;
the deterministic cost counter ``tools/opcount.py`` and the cost ledger
``tools/ledger.py`` built on it.

``tools/unreached.py`` lists the functions no non-test entry point reaches;
each one that stays has a row in the README's keep-list table (path,
qualified name, reason).  A row whose ``def`` was deleted or renamed would
justify nothing, so every row is checked against the source with ``ast``.
The audit's second list, the unturned parameters, is checked end to end on a
two-function fixture package: the hook in a child process, then the report.
"""

import ast
import json
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
ROW = re.compile(r"^\| `([^`]+)` \| `([^`]+)` \| (.+) \|$")


def keep_list():
    """``[(path, qualname, reason)]`` from the table under "Keep-list"."""
    text = (ROOT / "tools" / "README.md").read_text()
    section = text.split("### Keep-list", 1)[1].split("\n#", 1)[0]
    return [ROW.match(line).groups() for line in section.splitlines()
            if line.startswith("| `")]


def qualnames(path: Path) -> set:
    """Every function's dotted name in ``path``, as ``tools/unreached.py``
    prints it (classes and enclosing functions as prefixes)."""
    names = set()

    def walk(node, prefix):
        for child in ast.iter_child_nodes(node):
            name = prefix
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                name = f"{prefix}.{child.name}" if prefix else child.name
                if not isinstance(child, ast.ClassDef):
                    names.add(name)
            walk(child, name)

    walk(ast.parse(path.read_text()), "")
    return names


def test_keep_list_is_not_empty_and_well_formed():
    rows = keep_list()
    assert rows
    for path, name, reason in rows:
        assert path.startswith("src/repro/") and path.endswith(".py"), path
        assert reason.strip(), name


def test_every_keep_list_row_names_an_existing_def():
    missing = [f"{path}: {name}" for path, name, _ in keep_list()
               if not (ROOT / path).is_file()
               or name not in qualnames(ROOT / path)]
    assert missing == []


def test_keep_list_rows_are_unique():
    rows = [(path, name) for path, name, _ in keep_list()]
    assert len(rows) == len(set(rows))


FIXTURE = '''\
def turned(n=1, label="a"):
    return n


def unturned(flag=False, *, size=4):
    return flag
'''


def test_unturned_parameters_are_reported(tmp_path):
    """The hook records a parameter as turned the first time it is bound to
    a value other than its literal default; the report lists the rest."""
    sys.path.insert(0, str(ROOT / "tools"))
    try:
        import unreached
    finally:
        sys.path.pop(0)
    package = tmp_path / "fixpkg"
    package.mkdir()
    (package / "__init__.py").write_text(FIXTURE)
    out = tmp_path / "out"
    out.mkdir()
    # ``turned(2, 'a')`` turns ``n``; ``label`` and ``size`` are passed
    # their defaults, which does not turn them.
    unreached.run([[sys.executable, "-c",
                    "import fixpkg; fixpkg.turned(); fixpkg.turned(2, 'a'); "
                    "fixpkg.unturned(size=4)"]], out, package)
    called, turned = unreached.collect(out)
    functions = unreached.defined_functions(package)
    params = unreached.defaulted_parameters(package)
    path = str(package / "__init__.py")
    assert params == {(path, 1): {"n": 1, "label": "a"},
                      (path, 5): {"flag": False, "size": 4}}
    assert called == {(path, 1), (path, 5)}
    assert turned == {(path, 1, "n")}
    assert unreached.unturned(functions, params, called, turned) == [
        (path, 1, "turned", "label", "a"),
        (path, 5, "unturned", "flag", False),
        (path, 5, "unturned", "size", 4)]
    text = unreached.report(functions, params, called, turned, root=tmp_path)
    assert text.splitlines() == [
        "unreached: 0 of 2 functions, 0 of 4 function lines",
        "",
        "unturned parameters (literal default never bound to another value):",
        "fixpkg/__init__.py: 3 parameters",
        "        1  turned(label='a')",
        "        5  unturned(flag=False)",
        "        5  unturned(size=4)",
        "unturned: 3 of 4 literal-default parameters of reached functions"]


def test_opcount_is_deterministic_and_its_layers_sum_to_the_total():
    """Two runs of ``tools/opcount.py`` on a 2 ms slice of ``echo_cell``
    print the same table; each column's layer rows sum to its total row."""
    command = [sys.executable, str(ROOT / "tools" / "opcount.py"),
               "echo_cell", "--sim-s", "0.002"]
    runs = [subprocess.run(command, capture_output=True, text=True,
                           check=True, cwd=ROOT).stdout for _ in range(2)]
    assert runs[0] == runs[1]
    head, columns, *rows = runs[0].splitlines()
    assert head.startswith("workload echo_cell  seed 17  sim-s 0.002  requests ")
    assert columns.split() == ["layer", "bytecodes", "per", "req", "calls",
                               "per", "req"]
    table = {row.split()[0]: [int(row.split()[1]), int(row.split()[3])]
             for row in rows}
    total = table.pop("total")
    assert {"core.engine", "mem", "sim"} <= set(table)
    assert [sum(column) for column in zip(*table.values())] == total
    assert total[0] > 0 and total[1] > 0


def test_opcount_counts_channel_sweep_per_delivered_message():
    """``channel_sweep`` has no pod: its points run under the tracer at the
    smallest size, one request per delivered message.  One point (the
    first slice: bypass-cache at 4 MOp/s, 1,000 messages) keeps this fast."""
    code = ("import sys; sys.path.insert(0, 'tools'); import opcount, workloads; "
            "workloads.SLICES = 1; "
            "counts, requests, events = opcount.window('channel_sweep', 17, None); "
            "print(sorted(counts), requests, events)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, cwd=ROOT).stdout.split()
    *layers, requests, events = out
    assert " ".join(layers) == "['channel', 'mem', 'sim']"
    assert int(requests) == 1_000
    assert int(events) >= 2 * 1_000      # a send and a delivering poll each


def test_opcount_windows_are_per_workload_kind():
    """A pod workload needs ``--sim-s``; ``channel_sweep`` refuses one."""
    for args in (["echo_cell"], ["channel_sweep", "--sim-s", "0.02"]):
        done = subprocess.run(
            [sys.executable, str(ROOT / "tools" / "opcount.py"), *args],
            capture_output=True, text=True, cwd=ROOT)
        assert done.returncode == 2, args
        assert "--sim-s" in done.stderr


def test_serve_mix_fleet_health_counts_each_quantity_once():
    """On the ``serve_mix`` window (seed 17, 0.02 sim-s) ``obs`` stays at or
    under 600 bytecodes per request (588.8; 594.7 while the alert engine
    sorted each family every tick and kept one ``(rule, entity)`` state
    table, 846.3 while alert counts were also registry series and levels
    were one flat table), and the fleet's plan is not re-made: nothing it
    writes grows the series table."""
    code = ("import sys; sys.path.insert(0, 'tools'); import opcount\n"
            "from repro.obs.fleet import FleetHealth\n"
            "plan, count, plans = FleetHealth._plan, opcount.count, []\n"
            "def counted(run):\n"
            "    FleetHealth._plan = lambda self, *a: (plans.append(self.time),"
            " plan(self, *a))[1]\n"
            "    try:\n"
            "        return count(run)\n"
            "    finally:\n"
            "        FleetHealth._plan = plan\n"
            "counts, requests, _ = opcount.window('serve_mix', 17, 0.02, "
            "counted)\n"
            "print(counts['obs'][0] / requests, len(plans))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, cwd=ROOT).stdout.split()
    obs_per_request, plans = float(out[0]), int(out[1])
    assert plans == 0
    assert 0 < obs_per_request <= 600


def test_ledger_prints_one_row_of_this_tree():
    """``tools/ledger.py`` on one 2 ms ``echo_cell`` slice: one JSON line
    of counts and retained bytes, and an ``import repro`` and a pod-path
    import that load no heavy module."""
    out = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "ledger.py"), "--workload",
         "echo_cell", "--sim-s", "0.002"],
        capture_output=True, text=True, check=True, cwd=ROOT).stdout
    lines = out.splitlines()
    assert len(lines) == 1
    row = json.loads(lines[0])
    assert set(row) == {"rev", "opcount", "import_repro", "import_pod",
                        "src_lines",
                        "schedule_version", "schedule_events",
                        "idle_rack_events_per_sim_s"}
    cell = row["opcount"]["echo_cell"]
    assert cell["requests"] > 0 and cell["events_per_request"] > 0
    assert cell["bytecodes"] > cell["calls"] > 0
    assert cell["retained_bytes_per_request"] > 0
    # per layer, so a row shows which layer moved; the rounded layers add
    # up to the rounded total
    layers = cell["layers"]
    assert {"core.engine", "mem", "sim"} <= set(layers)
    slack = len(layers) + 1
    assert abs(sum(ops for ops, _ in layers.values())
               - cell["bytecodes"]) <= 0.05 * slack
    assert abs(sum(calls for _, calls in layers.values())
               - cell["calls"]) <= 0.005 * slack
    assert row["import_repro"]["heavy"] == []
    assert row["import_repro"]["rss_mib"] > 0 and row["import_repro"]["ms"] > 0
    assert row["import_pod"]["heavy"] == []
    assert (row["schedule_version"], row["schedule_events"]) == (4, 13_779)
    # exact: it moves only with the schedule of an idle rack (ROADMAP 4(a))
    assert row["idle_rack_events_per_sim_s"] == 2_947
    assert row["src_lines"] > 10_000


def test_the_committed_history_parses():
    rows = [json.loads(line) for line in
            (ROOT / "BENCH_history.jsonl").read_text().splitlines()]
    assert len(rows) >= 2
    assert all({"rev", "opcount", "import_repro"} <= set(row) for row in rows)
    # the schedule pin: (version, count) since version 4, the v3 count before
    assert all({"schedule_version", "schedule_events"} <= set(row)
               or "schedule_v3_events" in set(row) for row in rows)


def test_import_probe_reads_the_childs_own_peak():
    """``ru_maxrss`` is inherited through fork and exec: a child of a caller
    that touched 64 MiB would report more than that for ``import json``."""
    sys.path.insert(0, str(ROOT / "tools"))
    import ledger

    ballast = b"\x01" * (64 << 20)
    assert ledger.import_row(ROOT, "json", runs=1)["rss_mib"] < 40
    del ballast
