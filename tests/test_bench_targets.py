"""The benchmark's span wrappers find every function they name.

``bench/spans.py`` wraps program functions by module and attribute path and
reports a target it cannot find as an unmeasured layer instead of failing.
This test fails instead, so a rename under ``src/`` cannot silently drop a
layer from the per-layer numbers. It reads ``TARGETS`` from the file
without importing the benchmark.
"""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def wrap_targets() -> list[tuple[str, str, str]]:
    tree = ast.parse(SPANS.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets
        ):
            return list(ast.literal_eval(node.value))
    raise AssertionError(f"no TARGETS assignment in {SPANS}")


@pytest.mark.parametrize(("module", "path", "span"), wrap_targets())
def test_bench_wrap_target_exists(module: str, path: str, span: str) -> None:
    owner = importlib.import_module(module)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    # Methods are wrapped on the class that defines them, as spans.py does.
    found = attr in vars(owner) if isinstance(owner, type) else hasattr(owner, attr)
    assert found and callable(getattr(owner, attr)), f"{module}:{path} ({span})"
