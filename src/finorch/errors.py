"""Exception hierarchy for the engine.

Every domain error raised by the engine derives from EngineError so the CLI
can map them to exit code 1. Errors that surface through the multi-agent
workflow carry the role that owned the failing stage in ``role``.
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

class DuplicateBackend(EngineError):
    pass


class UnknownBackend(EngineError):
    pass


class TransportError(EngineError):
    """One failed request attempt: a connection error, a timeout, or an
    HTTP status other than 200. ``status`` is that status and
    ``retry_after`` the server's Retry-After delay in seconds, each None
    when absent. ``httpclient.with_retries`` retries it and, when it gives
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


class TransportTimeout(TransportError):
    """A failed attempt that was specifically a timeout."""


class TransportExhausted(EngineError):
    """A chat failed and is not retried again."""


class Timeout(TransportExhausted):
    """A chat whose last attempt timed out."""


class MalformedResponse(EngineError):
    """Response body is missing the completion field."""


# ── scheduler ────────────────────────────────────────────────────────────

class DuplicateAgent(EngineError):
    pass


class EmptyInput(EngineError):
    pass


class MissingDimension(EngineError):
    pass


class WeightSumInvalid(EngineError):
    pass


class DimensionMismatch(EngineError):
    pass


class GatewayFailure(EngineError):
    """Gateway error during evaluation, annotated with the record id."""

    def __init__(self, message: str, record_id: str | None = None):
        super().__init__(message)
        self.record_id = record_id


class GradeParseFailure(EngineError):
    pass


class NoScoredAgents(EngineError):
    pass


class UnknownAgent(EngineError):
    pass


# ── workflow ─────────────────────────────────────────────────────────────

class UnknownTemplate(EngineError):
    pass


class MissingBinding(EngineError):
    def __init__(self, placeholder: str, template_id: str | None = None):
        self.placeholder = placeholder
        self.template_id = template_id
        where = f" in template '{template_id}'" if template_id else ""
        super().__init__(f"missing binding '{placeholder}'{where}")


class EmptyBundle(EngineError):
    pass


# ── tools ────────────────────────────────────────────────────────────────

class NoCallBlock(EngineError):
    pass


class UnknownTool(EngineError):
    pass


class MissingRequiredParam(EngineError):
    def __init__(self, name: str):
        self.name = name
        super().__init__(f"missing required parameter '{name}'")


class TypeMismatch(EngineError):
    def __init__(self, name: str, expected: str):
        self.name = name
        self.expected = expected
        super().__init__(f"parameter '{name}' does not coerce to {expected}")


class UnknownParam(EngineError):
    def __init__(self, name: str):
        self.name = name
        super().__init__(f"unknown parameter '{name}'")


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

class UnknownSymbol(EngineError):
    pass


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


class ImmutableEntry(EngineError):
    pass


class EmptyCorpus(EngineError):
    pass


class EmptyQuery(EngineError):
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

class IncompleteBundle(EngineError):
    def __init__(self, missing_block: str):
        self.missing_block = missing_block
        super().__init__(f"bundle missing block '{missing_block}'")


class MissingSection(EngineError):
    def __init__(self, section: str):
        self.section = section
        super().__init__(f"missing section '{section}'")


class UnparseablePrediction(EngineError):
    def __init__(self, text: str):
        self.text = text
        super().__init__("prediction line could not be parsed")


class InvalidHorizon(EngineError, ValueError):
    """A forecast horizon under one day, or whose window holds no
    weekday or leaves the calendar."""


class UnreadableDocument(EngineError):
    pass


class ExtractionFailure(EngineError):
    def __init__(self, topic: str, cause: str):
        self.topic = topic
        self.cause = cause
        super().__init__(f"extraction failed for topic '{topic}': {cause}")


# ── config / cli ─────────────────────────────────────────────────────────

class ConfigError(EngineError):
    pass


@contextmanager
def unusable_path(action: str, path: object) -> Iterator[None]:
    """An ``OSError`` in the block, such as a file where a directory
    belongs, is a ``ConfigError`` that reads ``cannot <action> <path>``."""
    try:
        yield
    except OSError as exc:
        raise ConfigError(f"cannot {action} {path}: {exc}") from None
