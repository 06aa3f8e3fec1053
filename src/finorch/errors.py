"""Exception hierarchy for the engine.

Every domain error raised by the engine derives from EngineError so the CLI
can map them to exit code 1. Errors that surface through the multi-agent
workflow carry the role that owned the failing stage in ``role``.

A user sees the role and the message, never the class. So a class exists
only where the program tells it apart: an ``except`` or an ``isinstance``
names it, a class derives from it, or a caller reads a field of it that
its message does not hold. Any other failure raises EngineError, or
ConfigError for a mistake in the config or setup, with a message that says
what went wrong.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator


class EngineError(Exception):
    """Base class for all domain errors."""

    role: str | None = None

    def with_role(self, role: str) -> "EngineError":
        if self.role is None:
            self.role = role
        return self


# ── gateway ──────────────────────────────────────────────────────────────

class TransportError(EngineError):
    """One failed request attempt: a connection error, a timeout, or an
    HTTP status other than 200. ``status`` is that status and
    ``retry_after`` the server's Retry-After delay in seconds, each None
    when absent. ``gateway.with_retries`` retries it and, when it gives
    up, sets ``attempts``; callers surface it as their own error."""

    def __init__(
        self,
        message: str,
        status: int | None = None,
        retry_after: float | None = None,
    ):
        super().__init__(message)
        self.status = status
        self.retry_after = retry_after
        self.attempts = 1


class TransportExhausted(EngineError):
    """A chat failed and is not retried again, whether or not its last
    attempt timed out."""


class MalformedResponse(EngineError):
    """Response body is missing the completion field."""


# ── scheduler ────────────────────────────────────────────────────────────

class WeightSumInvalid(EngineError):
    pass


class GradeParseFailure(EngineError):
    pass


# ── expression DSL ───────────────────────────────────────────────────────

class ParseError(EngineError):
    def __init__(self, message: str, position: int):
        self.position = position
        super().__init__(f"{message} (at position {position})")


class UnboundVariable(EngineError):
    def __init__(self, name: str):
        self.name = name
        super().__init__(f"unbound variable '{name}'")


class DomainError(EngineError):
    def __init__(self, operation: str, detail: str = ""):
        self.operation = operation
        msg = f"domain error in {operation}"
        if detail:
            msg += f": {detail}"
        super().__init__(msg)


# ── dataops ──────────────────────────────────────────────────────────────

class ProviderFailure(EngineError):
    def __init__(self, message: str, status: int | None = None):
        super().__init__(message)
        self.status = status


class RateLimited(ProviderFailure):
    def __init__(self, message: str, retry_after: float = 0.0):
        super().__init__(message, status=429)
        self.retry_after = retry_after


class CacheMiss(EngineError):
    pass


class EmptyCorpus(EngineError):
    pass


# ── analytics ────────────────────────────────────────────────────────────

class HorizonTooLong(EngineError):
    pass


class NonPositivePrice(EngineError):
    pass


class OutOfRangeProbability(EngineError):
    pass


class TooFewPeers(EngineError):
    pass


class RaggedTable(EngineError):
    pass


# ── apps ─────────────────────────────────────────────────────────────────

class UnparseablePrediction(EngineError):
    def __init__(self, text: str):
        self.text = text
        super().__init__("prediction line could not be parsed")


class ExtractionFailure(EngineError):
    def __init__(self, topic: str, cause: str):
        self.topic = topic
        self.cause = cause
        super().__init__(f"extraction failed for topic '{topic}': {cause}")


# ── config / cli ─────────────────────────────────────────────────────────

class ConfigError(EngineError):
    """A mistake in the config or setup: a bad value, an unknown or
    duplicate backend, agent or template, a missing template binding, or a
    path that cannot be used."""


@contextmanager
def unusable_path(action: str, path: object) -> Iterator[None]:
    """An ``OSError`` in the block, such as a file where a directory
    belongs, is a ``ConfigError`` that reads ``cannot <action> <path>``."""
    try:
        yield
    except OSError as exc:
        raise ConfigError(f"cannot {action} {path}: {exc}") from None
