"""The package exports only what the program runs, and keeps only what it
reads.

A name that `rootsep/__init__.py` imports must be used by the package
itself, outside its own definition, or by the benchmark in perfbench/.
Code that only the tests call belongs in the test suite (tests/oracles.py).
Every field of a package dataclass must be read as `.name` by the package
or the benchmark: a result keeps no field that nothing reads.
The checks read the source text; they import nothing.
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


def _dataclass_fields() -> list:
    """(class, field) for every annotated field of a @dataclass in the package."""
    fields = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ClassDef) and any(
                    ast.unparse(d).startswith("dataclass") for d in node.decorator_list):
                fields.extend((node.name, stmt.target.id) for stmt in node.body
                              if isinstance(stmt, ast.AnnAssign)
                              and isinstance(stmt.target, ast.Name))
    return fields


def test_every_dataclass_field_is_read_by_the_program():
    fields = _dataclass_fields()
    assert fields, "no dataclass fields found"
    text = "\n".join(path.read_text(encoding="utf-8")
                     for path in [*sorted(PACKAGE.glob("*.py")),
                                  *sorted((ROOT / "perfbench").glob("*.py"))])
    assert [f"{cls}.{name}" for cls, name in fields
            if not re.search(rf"\.{name}\b", text)] == []
