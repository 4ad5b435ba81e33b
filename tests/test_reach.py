"""src/butson holds what the CLI and the demos run, and the top level exports
what the demos and the README import.

Every module-level function and class of src/butson must be referred to, as a
name or an attribute, somewhere in src/butson or demos/ outside its own
definition; import statements do not count, so a name that only tests reach
fails here.  Module hooks that Python calls itself (__getattr__, __dir__) are
exempt.
"""

from __future__ import annotations

import ast
import re
from collections import Counter
from pathlib import Path

import butson

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "butson").glob("*.py"))
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _references(node: ast.AST) -> Counter:
    """How often each identifier is used as a name or an attribute under node."""
    return Counter(
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute))
    )


def _butson_imports(tree: ast.AST) -> set[str]:
    return {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "butson" and node.level == 0
        for alias in node.names
    }


def test_every_module_level_name_is_reached_from_src_or_a_demo():
    trees = {path: _parse(path) for path in SOURCES + DEMOS}
    total = sum((_references(tree) for tree in trees.values()), Counter())
    unreached = []
    for path in SOURCES:
        for node in trees[path].body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if node.name.startswith("__") and node.name.endswith("__"):
                continue
            if total[node.name] - _references(node)[node.name] == 0:
                unreached.append(f"{path.stem}.{node.name}")
    assert not unreached, f"reached only from tests or not at all: {unreached}"


def test_the_top_level_exports_what_the_demos_and_readme_import():
    imported = set()
    for path in DEMOS:
        imported |= _butson_imports(_parse(path))
    readme = (ROOT / "README.md").read_text()
    for block in re.findall(r"```python\n(.*?)```", readme, flags=re.S):
        imported |= _butson_imports(ast.parse(block))
    assert imported, "no `from butson import` line found"
    assert set(butson.__all__) == imported
