"""FixedClock: a deterministic stamp sequence, also under concurrent callers."""

from __future__ import annotations

import datetime as dt
import sys
import threading

from finorch.clock import FixedClock


def test_fixed_clock_steps_from_its_start():
    clock = FixedClock(dt.datetime(2024, 5, 1), step=2.5)
    first, second = clock.now(), clock.now()
    assert first == dt.datetime(2024, 5, 1, tzinfo=dt.timezone.utc)
    assert second - first == dt.timedelta(seconds=2.5)


class Stamp(dt.datetime):
    """A datetime whose ``+`` runs Python code, so a thread switch can land
    between the clock reading its next stamp and advancing it."""

    def __add__(self, other):
        return super().__add__(other)


def test_fixed_clock_hands_concurrent_callers_distinct_gap_free_stamps():
    clock = FixedClock(Stamp(2024, 1, 1))
    threads_n, calls_n = 8, 500
    start = threading.Barrier(threads_n, timeout=5)
    stamps: list[list[dt.datetime]] = [[] for _ in range(threads_n)]

    def worker(out: list[dt.datetime]) -> None:
        start.wait()
        for _ in range(calls_n):
            out.append(clock.now())

    threads = [threading.Thread(target=worker, args=(out,)) for out in stamps]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads as often as possible
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)

    for per_thread in stamps:
        assert all(a < b for a, b in zip(per_thread, per_thread[1:]))
    merged = sorted(s for per_thread in stamps for s in per_thread)
    epoch = dt.datetime(2024, 1, 1, tzinfo=dt.timezone.utc)
    assert merged == [
        epoch + dt.timedelta(seconds=i) for i in range(threads_n * calls_n)
    ]
