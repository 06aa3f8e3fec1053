"""The one place finorch writes files: run artifacts and cache entries
are replaced whole, the run trace and the state logs grow a line at a
time. The umask sets each new file's mode, and an ``OSError`` is the
``ConfigError`` that reads ``cannot <action> <path>: <reason>``."""

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
