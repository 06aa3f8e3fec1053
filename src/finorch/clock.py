"""Time sources.

Offline runs must produce byte-identical artifacts, so anything that stamps a
timestamp draws it from a Clock instance instead of the wall clock. FixedClock
hands out a deterministic, strictly increasing sequence, and is read once per
stamp that is written, so a stamp depends only on the stamps written before
it. Durations are not read from a Clock: the gateway times each chat with its
injectable monotonic timer.
"""

from __future__ import annotations

import datetime as dt
import threading
from typing import Protocol

UTC = dt.timezone.utc

_DEFAULT_EPOCH = dt.datetime(2024, 1, 1, tzinfo=UTC)


class Clock(Protocol):
    def now(self) -> dt.datetime: ...


class SystemClock:
    """Wall clock, UTC."""

    def now(self) -> dt.datetime:
        return dt.datetime.now(tz=UTC)


class FixedClock:
    """Deterministic clock: starts at ``start`` and advances ``step`` seconds per call.

    Thread-safe: concurrent callers each get a distinct stamp.
    """

    def __init__(self, start: dt.datetime = _DEFAULT_EPOCH, step: float = 1.0):
        if start.tzinfo is None:
            start = start.replace(tzinfo=UTC)
        self._next = start
        self._step = dt.timedelta(seconds=step)
        self._lock = threading.Lock()

    def now(self) -> dt.datetime:
        with self._lock:
            current = self._next
            self._next = current + self._step
        return current


def isoformat(ts: dt.datetime) -> str:
    """Canonical timestamp rendering used in all persisted records."""
    return ts.astimezone(UTC).strftime("%Y-%m-%dT%H:%M:%SZ")
