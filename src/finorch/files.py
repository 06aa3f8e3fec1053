"""The one place finorch writes files: run artifacts and cache entries
are replaced whole, the state logs and the run trace grow a line at a
time, the trace through one handle held for the run. The umask sets each
new file's mode, and an ``OSError`` is the ``ConfigError`` that reads
``cannot <action> <path>: <reason>``."""

from __future__ import annotations

import os
from pathlib import Path

from finorch.errors import unusable_path


def replace(path: Path, data: bytes, action: str) -> None:
    """Write ``data`` to a unique temporary file beside ``path``, then
    rename it over ``path``: a reader finds the old file or the new one,
    never a torn one, and a failed write leaves no temporary file."""
    tmp = path.with_name(f"{path.name}.{os.urandom(6).hex()}.tmp")
    with unusable_path(action, path):
        handle = open(tmp, "xb")
        try:
            with handle:
                handle.write(data)
            os.replace(tmp, path)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise


def append(path: Path, data: bytes, action: str) -> None:
    """Append ``data`` in one write. A last line that a crash left without
    its newline is closed first, so ``data`` starts on a line of its own."""
    with unusable_path(action, path), open(path, "a+b") as handle:
        end = handle.seek(0, os.SEEK_END)
        if end:
            handle.seek(end - 1)
            if handle.read(1) != b"\n":
                data = b"\n" + data
        handle.write(data)


class Log:
    """A run log, opened truncated for the run that writes it. Each
    ``write`` is one line, flushed before it returns, so the file holds
    every line written once ``close`` has run."""

    def __init__(self, path: Path, action: str) -> None:
        self._path = path
        self._action = action
        with unusable_path(action, path):
            self._handle = open(path, "wb")

    def write(self, line: bytes) -> None:
        with unusable_path(self._action, self._path):
            self._handle.write(line)
            self._handle.flush()

    def close(self) -> None:
        with unusable_path(self._action, self._path):
            self._handle.close()
