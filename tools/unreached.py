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

The same hook also watches every ``def`` parameter whose default is a
literal: a parameter that no run-set command ever binds to another value is
an *unturned parameter*, a knob no entry point turns, and is printed in a
second section (only for reached functions; an unreached one has no caller
to turn anything).

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
     str(ROOT / "benchmarks")],
]

# Installed in every child before anything else runs.  Code objects are keyed
# by id (hashing one hashes its bytecode) and kept alive by the dict.  A code
# object with watched parameters (``UNREACHED_WATCH``: path, first line, name,
# repr of the literal default) compares their bound values with the defaults
# on each call until every one has been turned.
HOOK = '''
import ast, atexit, os, sys, threading
_watched = {}
with open(os.environ["UNREACHED_WATCH"]) as _f:
    for _line in _f:
        _path, _first, _name, _default = _line.rstrip("\\n").split("\\t", 3)
        _watched.setdefault((_path, int(_first)), {})[_name] = ast.literal_eval(_default)
_seen = {}
_pending = {}
_turned = []
def _same(value, default):
    if value is default:
        return True
    numbers = (int, float)
    if type(value) is not type(default) and not (
            type(value) in numbers and type(default) in numbers):
        return False
    try:
        return bool(value == default)
    except (TypeError, ValueError):       # e.g. an array's ambiguous truth
        return False
def _hook(frame, event, arg):
    if event == "call":
        code = frame.f_code
        key = id(code)
        if key not in _seen:
            _seen[key] = code
            params = _watched.get((code.co_filename, code.co_firstlineno))
            if params:
                _pending[key] = dict(params)
        pending = _pending.get(key)
        if pending:
            bound = frame.f_locals
            for name, default in list(pending.items()):
                if not _same(bound.get(name, default), default):
                    del pending[name]
                    _turned.append((code.co_filename, code.co_firstlineno, name))
def _dump():
    sys.setprofile(None)
    prefix = os.environ["UNREACHED_PREFIX"]
    with open(os.path.join(os.environ["UNREACHED_OUT"], f"{os.getpid()}.txt"), "w") as out:
        for code in list(_seen.values()):
            if code.co_filename.startswith(prefix):
                out.write(f"{code.co_filename}\\t{code.co_firstlineno}\\n")
        for path, first, name in _turned:
            out.write(f"{path}\\t{first}\\t{name}\\n")
atexit.register(_dump)
threading.setprofile(_hook)
sys.setprofile(_hook)
'''


def _functions(package: Path):
    """Yield ``(path, first line, qualified name, node)`` for every ``def``
    under ``package``; the first line is the first decorator's, which is
    what ``co_firstlineno`` reports."""
    def walk(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            name = prefix
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = f"{prefix}.{child.name}" if prefix else child.name
                if not isinstance(child, ast.ClassDef):
                    first = min([child.lineno]
                                + [d.lineno for d in child.decorator_list])
                    yield str(path), first, name, child
            yield from walk(child, path, name)

    for path in sorted(package.rglob("*.py")):
        yield from walk(ast.parse(path.read_text()), path, "")


def defined_functions(package: Path = PACKAGE) -> dict:
    """``{(path, first line): (qualified name, lines)}`` for every ``def``."""
    return {(path, first): (name, node.end_lineno - node.lineno + 1)
            for path, first, name, node in _functions(package)}


def defaulted_parameters(package: Path = PACKAGE) -> dict:
    """``{(path, first line): {parameter: default}}`` for every ``def``
    parameter whose default is a literal (``ast.literal_eval`` accepts it)."""
    params = {}
    for path, first, _, node in _functions(package):
        args = node.args
        positional = args.posonlyargs + args.args
        pairs = list(zip(positional[len(positional) - len(args.defaults):],
                         args.defaults))
        pairs += [(a, d) for a, d in zip(args.kwonlyargs, args.kw_defaults)
                  if d is not None]
        for arg, default in pairs:
            try:
                value = ast.literal_eval(default)
            except ValueError:
                continue
            params.setdefault((path, first), {})[arg.arg] = value
    return params


def run(commands, out_dir: Path, package: Path = PACKAGE) -> None:
    """Run ``commands`` under the hook; their records land in ``out_dir``."""
    hook_dir = out_dir / "hook"
    hook_dir.mkdir()
    (hook_dir / "sitecustomize.py").write_text(HOOK)
    watch = hook_dir / "watch.txt"
    watch.write_text("".join(
        f"{path}\t{first}\t{name}\t{default!r}\n"
        for (path, first), params in defaulted_parameters(package).items()
        for name, default in params.items()))
    calls_dir = out_dir / "calls"
    calls_dir.mkdir()
    cwd = out_dir / "cwd"          # commands drop traces and artifacts here
    cwd.mkdir()
    env = dict(os.environ, OASIS_SCALE="0.1",
               PYTHONPATH=os.pathsep.join([str(hook_dir), str(package.parent)]),
               UNREACHED_OUT=str(calls_dir), UNREACHED_PREFIX=str(package),
               UNREACHED_WATCH=str(watch))
    for command in commands:
        print("+", " ".join(command), file=sys.stderr, flush=True)
        done = subprocess.run(command, cwd=cwd, env=env,
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
        if done.returncode:
            print(f"  exit {done.returncode}: "
                  f"{done.stderr.decode(errors='replace')[-300:]}",
                  file=sys.stderr)


def collect(out_dir: Path):
    """``(called, turned)`` unioned over every process's record:
    ``{(path, first line)}`` and ``{(path, first line, parameter)}``."""
    called, turned = set(), set()
    for record in (out_dir / "calls").glob("*.txt"):
        for line in record.read_text().splitlines():
            fields = line.split("\t")
            if len(fields) == 2:
                called.add((fields[0], int(fields[1])))
            else:
                turned.add((fields[0], int(fields[1]), fields[2]))
    return called, turned


def unturned(functions: dict, params: dict, called: set, turned: set) -> list:
    """``[(path, first line, qualified name, parameter, default)]``: the
    literal-default parameters of reached functions that nothing turned."""
    return [(path, first, functions[(path, first)][0], name, default)
            for (path, first), defaults in sorted(params.items())
            if (path, first) in called
            for name, default in defaults.items()
            if (path, first, name) not in turned]


def report(functions: dict, params: dict, called: set, turned: set,
           root: Path = ROOT) -> str:
    """The printed audit: unreached functions, then unturned parameters,
    each by file, each closed by its total line."""
    out = []
    by_file = defaultdict(list)
    for (path, first), (name, lines) in sorted(functions.items()):
        if (path, first) not in called:
            by_file[Path(path).relative_to(root).as_posix()].append(
                (first, name, lines))
    for path, missing in by_file.items():
        out.append(f"{path}: {len(missing)} functions, "
                   f"{sum(lines for _, _, lines in missing)} lines")
        out += [f"    {first:>5}  {name}  ({lines})"
                for first, name, lines in missing]
    unreached = sum(len(m) for m in by_file.values())
    out.append(f"unreached: {unreached:,} of {len(functions):,} functions, "
               f"{sum(l for m in by_file.values() for _, _, l in m):,} of "
               f"{sum(l for _, l in functions.values()):,} function lines")

    still = unturned(functions, params, called, turned)
    watched = sum(len(defaults) for key, defaults in params.items()
                  if key in called)
    out.append("")
    out.append("unturned parameters (literal default never bound to another "
               "value):")
    by_file = defaultdict(list)
    for path, first, name, param, default in still:
        by_file[Path(path).relative_to(root).as_posix()].append(
            (first, name, param, default))
    for path, rows in by_file.items():
        out.append(f"{path}: {len(rows)} parameters")
        out += [f"    {first:>5}  {name}({param}={default!r})"
                for first, name, param, default in rows]
    out.append(f"unturned: {len(still):,} of {watched:,} literal-default "
               f"parameters of reached functions")
    return "\n".join(out)


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

    with tempfile.TemporaryDirectory(prefix="unreached-") as tmp:
        run(commands, Path(tmp))
        called, turned = collect(Path(tmp))
    print(report(defined_functions(), defaulted_parameters(), called, turned))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
