"""Run one finorch command in this process and capture what it prints."""

from __future__ import annotations

import contextlib
import io
from dataclasses import dataclass

import finorch.cli


@dataclass(frozen=True)
class Result:
    exit_code: int
    output: str  # stdout and stderr interleaved, as a terminal shows them
    stdout: str
    stderr: str


class _Tee(io.StringIO):
    """A captured stream that also copies each write into ``mixed``."""

    def __init__(self, mixed: io.StringIO):
        super().__init__()
        self.mixed = mixed

    def write(self, text: str) -> int:
        self.mixed.write(text)
        return super().write(text)


def run_cli(argv: list[str]) -> Result:
    """``finorch.cli.main(argv)``; any exception but ``SystemExit`` propagates."""
    mixed = io.StringIO()
    out, err = _Tee(mixed), _Tee(mixed)
    code = 0
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            finorch.cli.main(argv)
        except SystemExit as exc:
            code = exc.code or 0
    return Result(code, mixed.getvalue(), out.getvalue(), err.getvalue())
