#!/usr/bin/env python3
"""Which functions under ``src/repro`` does no non-test entry point reach?

Runs a list of commands (the CLI, the experiments, the repo benchmark, the
examples, the figure benchmarks -- everything *but* ``tests/``), with a
``sys.setprofile`` hook installed at interpreter start in every child
process (a ``sitecustomize`` module on ``PYTHONPATH``, so grandchildren such
as ``perf/run.py``'s workers are covered too).  Each process records the code
objects it calls under ``src/repro``; the union is diffed against the
function definitions ``ast`` finds there, and the functions never called are
printed by file with their line counts.

An unreached function is a *question*, not a verdict: fault, recovery and
checker paths are reached only by other chaos seeds or by the tier-1 suite,
and stay.  Not a CI gate.  See ``tools/README.md`` for the run set and the
numbers it produced.

    python tools/unreached.py              # whole run set (~15 min: the hook
                                           # costs 2-3x)
    python tools/unreached.py --only chaos # commands whose text contains it
    python tools/unreached.py --list       # print the run set and exit
"""

from __future__ import annotations

import argparse
import ast
import os
import subprocess
import sys
import tempfile
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
PACKAGE = SRC / "repro"

REPRO = [sys.executable, "-m", "repro"]
RUN_SET = [
    REPRO,
    REPRO + ["all"],
    REPRO + ["fig6", "table3"],
    REPRO + ["report"],
    REPRO + ["report", "--json", "--sim-gauges"],
    REPRO + ["trace"],
    REPRO + ["flows", "flow-trace.json"],
    REPRO + ["top", "--once"],
    REPRO + ["rack", "--hosts", "8", "--pools", "2", "--churn", "64", "--check"],
    REPRO + ["chaos", "--seed", "7", "--duration", "0.3"],
    REPRO + ["chaos", "--seed", "11", "--plan", "control-failover",
             "--duration", "0.9"],
    REPRO + ["chaos", "--seed", "11", "--plan", "every-kind"],
    REPRO + ["overload", "--check"],
    REPRO + ["serve", "--check"],
    [sys.executable, str(ROOT / "perf" / "run.py"), "--trace", "1", "--seed", "17"],
    *([sys.executable, str(example)]
      for example in sorted((ROOT / "examples").glob("*.py"))),
    [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
     str(ROOT / "benchmarks"), "--benchmark-disable"],
]

# Installed in every child before anything else runs.  Code objects are keyed
# by id (hashing one hashes its bytecode) and kept alive by the dict.
HOOK = '''
import atexit, os, sys, threading
_seen = {}
def _hook(frame, event, arg):
    if event == "call":
        code = frame.f_code
        if id(code) not in _seen:
            _seen[id(code)] = code
def _dump():
    sys.setprofile(None)
    prefix = os.environ["UNREACHED_PREFIX"]
    with open(os.path.join(os.environ["UNREACHED_OUT"], f"{os.getpid()}.txt"), "w") as out:
        for code in list(_seen.values()):
            if code.co_filename.startswith(prefix):
                out.write(f"{code.co_filename}\\t{code.co_firstlineno}\\n")
atexit.register(_dump)
threading.setprofile(_hook)
sys.setprofile(_hook)
'''


def defined_functions() -> dict:
    """``{(path, first line): (qualified name, lines)}`` for every ``def``
    under the package; the first line is the first decorator's, which is
    what ``co_firstlineno`` reports."""
    functions = {}

    def walk(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            name = prefix
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = f"{prefix}.{child.name}" if prefix else child.name
                if not isinstance(child, ast.ClassDef):
                    first = min([child.lineno]
                                + [d.lineno for d in child.decorator_list])
                    functions[(str(path), first)] = (
                        name, child.end_lineno - child.lineno + 1)
            walk(child, path, name)

    for path in sorted(PACKAGE.rglob("*.py")):
        walk(ast.parse(path.read_text()), path, "")
    return functions


def run(commands, out_dir: Path) -> None:
    hook_dir = out_dir / "hook"
    hook_dir.mkdir()
    (hook_dir / "sitecustomize.py").write_text(HOOK)
    calls_dir = out_dir / "calls"
    calls_dir.mkdir()
    cwd = out_dir / "cwd"          # commands drop traces and artifacts here
    cwd.mkdir()
    env = dict(os.environ, OASIS_SCALE="0.1",
               PYTHONPATH=os.pathsep.join([str(hook_dir), str(SRC)]),
               UNREACHED_OUT=str(calls_dir), UNREACHED_PREFIX=str(PACKAGE))
    for command in commands:
        print("+", " ".join(command), file=sys.stderr, flush=True)
        done = subprocess.run(command, cwd=cwd, env=env,
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
        if done.returncode:
            print(f"  exit {done.returncode}: "
                  f"{done.stderr.decode(errors='replace')[-300:]}",
                  file=sys.stderr)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--only", metavar="TEXT",
                        help="run only the commands whose text contains TEXT")
    parser.add_argument("--list", action="store_true",
                        help="print the run set and exit")
    args = parser.parse_args()
    commands = [c for c in RUN_SET
                if args.only is None or args.only in " ".join(c)]
    if args.list:
        print("\n".join(" ".join(c) for c in commands))
        return 0

    functions = defined_functions()
    called = set()
    with tempfile.TemporaryDirectory(prefix="unreached-") as tmp:
        run(commands, Path(tmp))
        for record in (Path(tmp) / "calls").glob("*.txt"):
            for line in record.read_text().splitlines():
                path, first = line.split("\t")
                called.add((path, int(first)))

    by_file = defaultdict(list)
    for (path, first), (name, lines) in sorted(functions.items()):
        if (path, first) not in called:
            by_file[Path(path).relative_to(ROOT).as_posix()].append(
                (first, name, lines))
    for path, missing in by_file.items():
        print(f"{path}: {len(missing)} functions, "
              f"{sum(lines for _, _, lines in missing)} lines")
        for first, name, lines in missing:
            print(f"    {first:>5}  {name}  ({lines})")
    unreached = sum(len(m) for m in by_file.values())
    print(f"unreached: {unreached:,} of {len(functions):,} functions, "
          f"{sum(l for m in by_file.values() for _, _, l in m):,} of "
          f"{sum(l for _, l in functions.values()):,} function lines")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
