"""Golden offline artifacts: the behaviour oracle for refactors.

Each case runs one offline CLI command against a fresh state and runs
directory and compares, byte for byte, its stdout and every file it leaves
under ``runs/`` and ``state/`` with the copies under ``tests/golden/<case>/``.
The temporary directory is written as ``<tmp>`` in the stored stdout.

An intended change of offline output regenerates the files with
``PYTHONPATH=src python tests/test_golden.py`` and shows up in the diff.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from clirun import run_cli
from test_config import REPO, write_config

GOLDEN = Path(__file__).parent / "golden"

CASES = {
    "forecast_aapl_en": ["forecast", "AAPL", "--offline"],
    "forecast_aapl_zh": ["forecast", "AAPL", "--offline", "--lang", "zh"],
    "report_acme": [
        "report",
        str(REPO / "tests" / "fixtures" / "acme_filing.txt"),
        "--offline",
    ],
    "evaluate_json": ["evaluate", "--offline", "--json"],
}

TREES = ("runs", "state")


def run_case(args: list[str], tmp_path: Path) -> dict[str, bytes]:
    """Every output of one command, keyed by its path relative to tmp_path."""
    config_path = write_config(tmp_path)
    result = run_cli([*args, "--config", str(config_path)])
    assert result.exit_code == 0, result.output
    outputs = {"stdout.txt": result.output.replace(str(tmp_path), "<tmp>").encode()}
    for tree in TREES:
        for path in sorted((tmp_path / tree).rglob("*")):
            if path.is_file():
                outputs[path.relative_to(tmp_path).as_posix()] = path.read_bytes()
    return outputs


def stored(case: str) -> dict[str, bytes]:
    root = GOLDEN / case
    return {
        path.relative_to(root).as_posix(): path.read_bytes()
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


@pytest.mark.parametrize("case", sorted(CASES))
def test_offline_outputs_match_golden(case: str, tmp_path: Path) -> None:
    expected = stored(case)
    actual = run_case(CASES[case], tmp_path)
    assert sorted(actual) == sorted(expected)
    for name, data in expected.items():
        assert actual[name] == data, f"{case}/{name} differs from the golden copy"


if __name__ == "__main__":
    import shutil
    import tempfile

    for case, args in CASES.items():
        shutil.rmtree(GOLDEN / case, ignore_errors=True)
        with tempfile.TemporaryDirectory() as tmp:
            for name, data in run_case(args, Path(tmp)).items():
                (GOLDEN / case / name).parent.mkdir(parents=True, exist_ok=True)
                (GOLDEN / case / name).write_bytes(data)
