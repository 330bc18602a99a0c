"""The keep-list in ``tools/README.md`` names only code that exists.

``tools/unreached.py`` lists the functions no non-test entry point reaches;
each one that stays has a row in the README's keep-list table (path,
qualified name, reason).  A row whose ``def`` was deleted or renamed would
justify nothing, so every row is checked against the source with ``ast``.
"""

import ast
import re
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
