"""Every name a finorch module, a test module or a benchmark module
imports is used in that module, and every error class is used outside
``errors.py``.

An AST scan stands in for a linter, which the project does not depend on.
A name listed in the module's ``__all__`` counts as used (a re-export),
``from __future__`` imports are directives, not names, and an import kept
for its side effect says so with ``# noqa: F401``, as a linter would read it.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "finorch"
TESTS = ROOT / "tests"
BENCH = ROOT / "bench"


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    lines = source.splitlines()
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [
                alias.asname or alias.name.partition(".")[0]
                for alias in node.names
            ]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names = [alias.asname or alias.name for alias in node.names]
        else:
            continue
        if "# noqa: F401" not in lines[node.lineno - 1]:
            imported.update(dict.fromkeys(names, node.lineno))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__"
            for target in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return [
        f"line {line}: {name}"
        for name, line in sorted(imported.items(), key=lambda item: item[1])
        if name not in used
    ]


def test_no_module_imports_a_name_it_does_not_use() -> None:
    modules = sorted([*SRC.rglob("*.py"), *TESTS.glob("*.py"), *BENCH.rglob("*.py")])
    assert modules
    unused = {
        str(path.relative_to(ROOT)): names
        for path in modules
        if (names := unused_imports(path.read_text(encoding="utf-8")))
    }
    assert unused == {}


def test_the_scan_sees_an_unused_import() -> None:
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import json  # noqa: F401\n"
        "from typing import Any, Mapping as M\n"
        "__all__ = ['Any']\n"
        "def f(x: M) -> None: ...\n"
    )
    assert unused_imports(source) == ["line 2: os"]


def test_every_error_class_is_used_in_another_module() -> None:
    errors = SRC / "errors.py"
    classes = [
        node.name
        for node in ast.parse(errors.read_text(encoding="utf-8")).body
        if isinstance(node, ast.ClassDef)
    ]
    assert classes
    used: set[str] = set()
    for path in SRC.rglob("*.py"):
        if path != errors:
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Name):
                    used.add(node.id)
                elif isinstance(node, ast.Attribute):
                    used.add(node.attr)
    assert [name for name in classes if name not in used] == []
