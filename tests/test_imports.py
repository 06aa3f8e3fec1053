"""Every name a finorch module, a test module or a benchmark module
imports is used in that module, every error class is used outside
``errors.py``, and only ``finorch.files`` writes files.

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


#: Error classes kept though no other module tells them apart, and why.
UNTOLD_ERRORS = {
    "ConfigError": "what every config or setup mistake raises",
    "TransportExhausted": "what a chat that failed for good raises",
    "ProviderFailure": "carries the HTTP status, which its message lacks",
    "RateLimited": "carries the Retry-After delay, which its message lacks",
    "UnparseablePrediction": "carries the reply text, which its message lacks",
    "HorizonTooLong": "an analytics.py failure, kept by maintainer decision",
    "NonPositivePrice": "an analytics.py failure, kept by maintainer decision",
    "OutOfRangeProbability": "an analytics.py failure, kept by maintainer decision",
    "TooFewPeers": "an analytics.py failure, kept by maintainer decision",
    "RaggedTable": "an analytics.py failure, kept by maintainer decision",
}


def _names(node: ast.expr | None) -> set[str]:
    """The class names an ``except`` or ``isinstance`` type names."""
    if isinstance(node, ast.Tuple):
        return {n.id for n in node.elts if isinstance(n, ast.Name)}
    return {node.id} if isinstance(node, ast.Name) else set()


def told_apart(errors_source: str, sources: list[str]) -> set[str]:
    """The classes of ``errors_source`` that one of ``sources`` names in an
    ``except``, an ``isinstance`` or a class base, or whose own field it
    reads from an error caught as that class or a base of it."""
    classes = [
        node for node in ast.parse(errors_source).body
        if isinstance(node, ast.ClassDef)
    ]
    bases = {c.name: _names(ast.Tuple(elts=c.bases)) for c in classes}
    fields = {
        c.name: {
            node.target.id if isinstance(node, ast.AnnAssign) else node.attr
            for node in ast.walk(c)
            if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name)
            or isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
        }
        for c in classes
    }

    def lineage(name: str) -> set[str]:
        return {name}.union(*(lineage(b) for b in bases.get(name, ())))

    told: set[str] = set()
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.ExceptHandler):
                caught = _names(node.type)
                told |= caught
                read = {
                    n.attr for n in ast.walk(ast.Module(body=node.body))
                    if isinstance(n, ast.Attribute)
                    and isinstance(n.value, ast.Name) and n.value.id == node.name
                }
                told |= {
                    name for name in fields
                    if fields[name] & read and lineage(name) & caught
                }
            elif isinstance(node, ast.ClassDef):
                told |= _names(ast.Tuple(elts=node.bases))
            elif (
                isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "isinstance" and len(node.args) == 2
            ):
                told |= _names(node.args[1])
    return told & set(fields)


def test_every_error_class_is_told_apart_or_listed() -> None:
    """A user sees an error's role and message, never its class, so a class
    earns its place only where the program tells it apart. The list of
    exceptions holds no class that is told apart, or that is gone."""
    errors = SRC / "errors.py"
    source = errors.read_text(encoding="utf-8")
    classes = {
        node.name for node in ast.parse(source).body
        if isinstance(node, ast.ClassDef)
    }
    others = [
        path.read_text(encoding="utf-8")
        for path in sorted(SRC.rglob("*.py")) if path != errors
    ]
    assert classes - told_apart(source, others) == set(UNTOLD_ERRORS)


def test_the_scan_sees_an_error_told_apart() -> None:
    errors = (
        "class Base(Exception):\n"
        "    role: str | None = None\n"
        "class Caught(Base): pass\n"
        "class Checked(Base): pass\n"
        "class Parent(Base): pass\n"
        "class Child(Parent): pass\n"
        "class Fielded(Base):\n"
        "    def __init__(self, code):\n"
        "        self.code = code\n"
        "class Elsewhere(Base):\n"
        "    def __init__(self, code):\n"
        "        self.code = code\n"
        "class Raised(Base): pass\n"
    )
    other = (
        "try: f()\n"
        "except (Caught, KeyError): pass\n"
        "except Base as exc: print(exc.code, exc.role)\n"
        "if isinstance(e, Checked): raise Raised('x')\n"
        "class Local(Parent): pass\n"
        "class Child: code = 1\n"
    )
    assert told_apart(errors, [other]) == {
        "Base", "Caught", "Checked", "Parent", "Fielded", "Elsewhere",
    }


#: ``os`` calls that write, rename or open a file below ``open``.
OS_WRITES = {"replace", "rename", "fdopen", "open"}


def file_writes(source: str) -> list[str]:
    """Each place in ``source`` that writes a file itself: an ``os`` call
    of ``OS_WRITES``, an import of ``tempfile``, a ``write_text`` or
    ``write_bytes`` call, or an ``open`` or ``.open`` whose mode is not a
    constant without ``w``, ``a``, ``x`` or ``+``. Reads and ``mkdir``
    pass."""
    found: list[tuple[int, str]] = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            if "tempfile" in [alias.name for alias in node.names]:
                found.append((node.lineno, "import tempfile"))
        elif isinstance(node, ast.ImportFrom):
            if node.module == "tempfile":
                found.append((node.lineno, "import tempfile"))
            elif node.module == "os":
                found.extend(
                    (node.lineno, f"os.{alias.name}")
                    for alias in node.names if alias.name in OS_WRITES
                )
        elif isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Attribute):
                name = func.attr
                if (
                    isinstance(func.value, ast.Name) and func.value.id == "os"
                    and name in OS_WRITES
                ):
                    found.append((node.lineno, f"os.{name}"))
                    continue
            elif isinstance(func, ast.Name):
                name = func.id
            else:
                continue
            if name in ("write_text", "write_bytes"):
                found.append((node.lineno, name))
            elif name == "open":
                # open(file, mode) or path.open(mode)
                at = 1 if isinstance(func, ast.Name) else 0
                modes = node.args[at:at + 1] + [
                    kw.value for kw in node.keywords if kw.arg == "mode"
                ]
                if not all(
                    isinstance(mode, ast.Constant)
                    and isinstance(mode.value, str)
                    and not set(mode.value) & set("wax+")
                    for mode in modes
                ):
                    found.append((node.lineno, "open for writing"))
    return [f"line {line}: {what}" for line, what in sorted(found)]


def test_only_finorch_files_writes_files() -> None:
    """Every file finorch writes goes through one atomic replace or one
    line append, so each write fails the same way."""
    writers = {
        str(path.relative_to(ROOT)): found
        for path in sorted(SRC.rglob("*.py"))
        if path != SRC / "files.py"
        and (found := file_writes(path.read_text(encoding="utf-8")))
    }
    assert writers == {}


def test_the_scan_sees_a_write() -> None:
    source = (
        "import os, tempfile\n"
        "from os import rename, path\n"
        "p = open('f'); q = open('f', 'rb'); p.open(); p.open(mode='r')\n"
        "p.read_text(); p.parent.mkdir(); 'a'.replace('a', 'b')\n"
        "os.replace(p, q); os.open(p, 0)\n"
        "p.write_text(''); p.write_bytes(b'')\n"
        "open(p, 'x'); p.open(mode='a+b'); p.open('r+'); open(p, MODE)\n"
    )
    assert file_writes(source) == [
        "line 1: import tempfile",
        "line 2: os.rename",
        "line 5: os.open",
        "line 5: os.replace",
        "line 6: write_bytes",
        "line 6: write_text",
        "line 7: open for writing",
        "line 7: open for writing",
        "line 7: open for writing",
        "line 7: open for writing",
    ]
