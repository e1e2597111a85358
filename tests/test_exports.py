"""The package exports only what the program runs.

A name that `rootsep/__init__.py` imports must be used by the package
itself, outside its own definition, or by the benchmark in perfbench/.
Code that only the tests call belongs in the test suite (tests/oracles.py).
The check reads the source text; it imports nothing.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).parents[1]
PACKAGE = ROOT / "src" / "rootsep"


def _exported() -> list:
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    return [alias.name for node in tree.body if isinstance(node, ast.ImportFrom)
            for alias in node.names]


def _used(name: str) -> bool:
    word = re.compile(rf"\b{name}\b")
    definition = re.compile(rf"^\s*(?:def|class)\s+{name}\b|^{name}\s*=")
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for line in path.read_text(encoding="utf-8").splitlines():
            if word.search(line) and not definition.search(line):
                return True
    return any(word.search(path.read_text(encoding="utf-8"))
               for path in sorted((ROOT / "perfbench").glob("*.py")))


def test_every_export_is_used_by_the_program():
    names = _exported()
    assert names, "no exports found"
    assert [name for name in names if not _used(name)] == []
