"""src/butson holds what the CLI and the demos run, and every name has one
import path: the module that defines it.

Every module-level function and class of src/butson must be referred to, as a
name or an attribute, somewhere in src/butson or demos/ outside its own
definition; import statements do not count, so a name that only tests reach
fails here.  Module hooks that Python calls itself (__getattr__, __dir__) are
exempt.  The README's python blocks run as written, and neither they nor the
demos import anything from the bare `butson` package but its submodules.
"""

from __future__ import annotations

import ast
import re
from collections import Counter
from pathlib import Path

import pytest

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


def _readme_blocks() -> list[str]:
    return re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), flags=re.S)


def test_the_readme_python_blocks_run():
    blocks = _readme_blocks()
    assert blocks, "no python block in README.md"
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {"__name__": "readme"})


def test_demos_and_readme_import_names_from_their_modules():
    trees = [_parse(path) for path in DEMOS] + [ast.parse(b) for b in _readme_blocks()]
    imported = set().union(*map(_butson_imports, trees))
    submodules = {path.stem for path in SOURCES}
    assert not imported - submodules, f"imported from the bare package: {imported - submodules}"
    with pytest.raises(ImportError):
        from butson import check_bent  # noqa: F401
