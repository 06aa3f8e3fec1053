"""In-memory spans around calls into finorch's layers.

The recorder wraps public functions from the outside (``setattr`` on the
module or class that callers look them up on), so no file of the program
changes. Each span keeps a name, start, end, parent span, op id and an
optional note (attempt count, or the exception class that ended it). Spans
stay in memory until the run writes them out once at the end.

A wrap target that no longer exists is skipped and its layer is reported
as unmeasured instead of failing the run.
"""

from __future__ import annotations

import functools
import importlib
import threading
import time

from stats import merge

# (module, attribute path, span name). Functions imported by name into a
# caller's module are wrapped where that caller looks them up.
TARGETS = (
    ("finorch.cli", "load_config", "config.load"),
    ("finorch.cli", "build_engine", "config.build_engine"),
    ("finorch.scheduler", "Scheduler._load_state", "scheduler.load"),
    ("finorch.scheduler", "Scheduler.route", "scheduler.route"),
    ("finorch.scheduler", "Scheduler.evaluate_agent", "scheduler.evaluate"),
    ("finorch.scheduler", "Scheduler.finalize_workflow", "scheduler.finalize"),
    ("finorch.prompts", "PromptStore.render", "prompts.render"),
    ("finorch.gateway", "Gateway.chat", "gateway.chat"),
    ("finorch.dataops.providers", "MarketData.company_bundle", "dataops.company_bundle"),
    ("finorch.dataops.providers", "FixtureProvider.fetch", "dataops.fetch"),
    ("finorch.dataops.providers", "LiveProvider.fetch", "dataops.fetch"),
    ("finorch.dataops.cache", "ResponseCache.get", "dataops.cache_get"),
    ("finorch.apps.reports", "index_documents", "dataops.index"),
    ("finorch.apps.reports", "retrieve", "dataops.retrieve"),
    ("finorch.apps.reports", "text2params", "tools.text2params"),
    ("finorch.apps.forecaster", "perceive", "workflow.perceive"),
    ("finorch.apps.forecaster", "parse_forecast", "apps.parse_forecast"),
    ("finorch.config", "run_forecaster", "apps.run_forecaster"),
    ("finorch.config", "analyze_document", "apps.analyze_document"),
    ("finorch.config", "generate_report", "apps.generate_report"),
)

# Span fields, by index.
NAME, START, END, PARENT, OP, NOTE = range(6)


class Recorder:
    """Collects spans; ``install``/``uninstall`` switch the wrappers."""

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.spans: list[list] = []
        self.op = -1
        self.missing: list[str] = []
        self._stack = threading.local()
        self._lock = threading.Lock()
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name: str):
        spans = self.spans
        local = self._stack
        lock = self._lock
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            span = [name, clock(), 0.0, stack[-1] if stack else -1, self.op, None]
            with lock:  # calls may come from worker threads
                index = len(spans)
                spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[NOTE] = type(exc).__name__
                raise
            finally:
                span[END] = clock()
                stack.pop()
            attempts = getattr(result, "attempt_count", None)
            if attempts is not None:
                span[NOTE] = attempts
            return result

        return wrapper

    def install(self) -> None:
        self.missing = []
        for module_name, path, name in self.targets:
            try:
                owner = importlib.import_module(module_name)
                *parents, attr = path.split(".")
                for part in parents:
                    owner = getattr(owner, part)
                original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            except (ImportError, AttributeError, KeyError):
                self.missing.append(f"{module_name}:{path}")
                continue
            self._patched.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name))

    def measured(self) -> set[str]:
        """Span names with at least one wrap target that exists."""
        return {
            name for module, path, name in self.targets
            if f"{module}:{path}" not in self.missing
        }

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched = []


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part of it its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span[PARENT] >= 0:
            children.setdefault(span[PARENT], []).append((span[START], span[END]))
    out = []
    for index, span in enumerate(spans):
        start, end = span[START], span[END]
        inner = [
            (max(s, start), min(e, end))
            for s, e in children.get(index, ())
            if e > start and s < end
        ]
        out.append(end - start - sum(e - s for s, e in merge(inner)))
    return out
