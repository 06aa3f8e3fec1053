"""Multi-source chat gateway.

Registers heterogeneous chat backends behind one interface and executes
requests under the retry policy of ``httpclient.with_retries``. The wire
protocol is the OpenAI-compatible chat-completions shape (POST
{base_url}/chat/completions, response read from
choices[0].message.content), which the supported backends all speak;
``HttpTransport`` sends it through the keep-alive ``httpclient.HttpClient``.

A deterministic scripted mock transport ships alongside the HTTP one so
every higher layer is testable offline.

Independent requests go through ``Gateway.chat_many``, which keeps up to
``MAX_IN_FLIGHT`` of them in flight per backend id, on workers that live as
long as the process, and returns their outcomes in submission order.
"""

from __future__ import annotations

import datetime as dt
import os
import random
import threading
import time
from typing import Any, Callable, Mapping, Protocol, Sequence

from finorch.clock import Clock, SystemClock
from finorch.errors import (
    ConfigError,
    DuplicateBackend,
    EngineError,
    MalformedResponse,
    Timeout,
    TransportError,
    TransportExhausted,
    TransportTimeout,
    UnknownBackend,
)
from finorch.httpclient import HttpClient, shared_client, with_retries
from finorch.record import Record

__all__ = [
    "MAX_IN_FLIGHT",
    "MOCK_SENTINEL",
    "BackendSpec",
    "ChatExchange",
    "ChatMessage",
    "Gateway",
    "HttpTransport",
    "MockRule",
    "MockTransport",
    "Transport",
]

ROLES = ("system", "user", "assistant")

#: Most requests in flight to one backend id in this process. Backends do
#: not share it: each gets its own workers.
MAX_IN_FLIGHT = 8

#: Reply for mock requests no scripted rule matches.
MOCK_SENTINEL = "MOCK-NO-MATCH"


class BackendSpec(Record):
    """Connection settings for one chat backend."""

    backend_id: str
    base_url: str
    model_name: str
    api_key_env: str  # name of the env var holding the credential
    max_tokens: int
    temperature: float
    timeout: float
    max_retries: int
    __slots__ = (
        "backend_id", "base_url", "model_name", "api_key_env", "max_tokens",
        "temperature", "timeout", "max_retries",
    )

    def __init__(
        self, backend_id: str, base_url: str, model_name: str,
        api_key_env: str = "", max_tokens: int = 1024,
        temperature: float = 0.0, timeout: float = 30.0, max_retries: int = 2
    ) -> None:
        if not backend_id:
            raise ValueError("backend_id must be non-empty")
        if timeout <= 0:
            raise ValueError(f"timeout must be positive, got {timeout!r}")
        if not (0.0 <= temperature <= 2.0):
            raise ValueError(
                f"temperature must lie in [0, 2], got {temperature!r}"
            )
        if max_tokens <= 0:
            raise ValueError(f"max_tokens must be positive, got {max_tokens!r}")
        if max_retries < 0:
            raise ValueError(
                f"max_retries must be non-negative, got {max_retries!r}"
            )
        object.__setattr__(self, "backend_id", backend_id)
        object.__setattr__(self, "base_url", base_url)
        object.__setattr__(self, "model_name", model_name)
        object.__setattr__(self, "api_key_env", api_key_env)
        object.__setattr__(self, "max_tokens", max_tokens)
        object.__setattr__(self, "temperature", temperature)
        object.__setattr__(self, "timeout", timeout)
        object.__setattr__(self, "max_retries", max_retries)


class ChatMessage(Record):
    role: str
    content: str
    __slots__ = ("role", "content")

    def __init__(self, role: str, content: str) -> None:
        if role not in ROLES:
            raise ValueError(f"unknown role {role!r}")
        if role in ("system", "user") and not content:
            raise ValueError(f"{role} message content must be non-empty")
        object.__setattr__(self, "role", role)
        object.__setattr__(self, "content", content)


class ChatExchange(Record):
    """Audit record of one completed chat call."""

    backend_id: str
    request_messages: tuple[ChatMessage, ...]
    response_text: str
    latency: float
    attempt_count: int
    finished_at: dt.datetime
    __slots__ = (
        "backend_id", "request_messages", "response_text", "latency",
        "attempt_count", "finished_at",
    )

    def __init__(
        self, backend_id: str, request_messages: tuple[ChatMessage, ...],
        response_text: str, latency: float, attempt_count: int,
        finished_at: dt.datetime
    ) -> None:
        object.__setattr__(self, "backend_id", backend_id)
        object.__setattr__(self, "request_messages", request_messages)
        object.__setattr__(self, "response_text", response_text)
        object.__setattr__(self, "latency", latency)
        object.__setattr__(self, "attempt_count", attempt_count)
        object.__setattr__(self, "finished_at", finished_at)


class Transport(Protocol):
    """Sends one request payload and returns the decoded response body."""

    def send(self, spec: BackendSpec, payload: dict[str, Any]) -> dict[str, Any]: ...


class HttpTransport:
    """Posts chat payloads through a keep-alive ``HttpClient``, by default
    the process-wide one, one attempt per ``send``; credentials come from
    the env var that ``BackendSpec.api_key_env`` names."""

    def __init__(self, client: HttpClient | None = None):
        self._client = client or shared_client()

    def send(self, spec: BackendSpec, payload: dict[str, Any]) -> dict[str, Any]:
        headers = {}
        if spec.api_key_env:
            key = os.environ.get(spec.api_key_env)
            if not key:
                raise ConfigError(
                    f"backend {spec.backend_id!r} expects a credential in "
                    f"environment variable {spec.api_key_env!r}, which is unset"
                )
            headers["Authorization"] = f"Bearer {key}"
        return self._client.request(
            "POST",
            spec.base_url.rstrip("/") + "/chat/completions",
            payload=payload,
            headers=headers,
            timeout=spec.timeout,
        )


class MockRule:
    """One scripted behaviour, selected by substring match.

    ``reply`` rules answer with fixed text. ``fail`` rules raise a transient
    transport error; with ``times`` set they do so only for that many
    matching requests and are skipped afterwards (letting a later rule
    answer), which scripts "fail twice, then succeed" flows.
    """

    __slots__ = ("match", "reply", "fail", "times")

    def __init__(
        self, match: str, reply: str | None = None, fail: bool = False,
        times: int | None = None
    ) -> None:
        if fail == (reply is not None):
            raise ValueError("rule must set exactly one of reply or fail")
        if times is not None and not fail:
            raise ValueError("times only applies to fail rules")
        if times is not None and times < 1:
            raise ValueError("times must be at least 1")
        self.match = match
        self.reply = reply
        self.fail = fail
        self.times = times


def _as_rule(raw: MockRule | Mapping[str, Any]) -> MockRule:
    if isinstance(raw, MockRule):
        return raw
    return MockRule(
        match=raw.get("match", ""),
        reply=raw.get("reply"),
        fail=bool(raw.get("fail", False)),
        times=raw.get("times"),
    )


class MockTransport:
    """In-process deterministic backend: first-substring-match scripting.

    Responses are a pure function of the script and the request history
    (fail rules with ``times`` consume one budget unit per matching
    request). No network, no randomness.
    """

    def __init__(self, script: Sequence[MockRule | Mapping[str, Any]]):
        if not script:
            raise ValueError("mock script must contain at least one rule")
        self._rules = [_as_rule(r) for r in script]
        self._remaining = [r.times for r in self._rules]
        self._lock = threading.Lock()

    def send(self, spec: BackendSpec, payload: dict[str, Any]) -> dict[str, Any]:
        last_user = ""
        for message in payload.get("messages", []):
            if message.get("role") == "user":
                last_user = message.get("content", "")
        with self._lock:
            for i, rule in enumerate(self._rules):
                if rule.match not in last_user:
                    continue
                if rule.fail:
                    if self._remaining[i] is None:
                        raise TransportError(
                            f"scripted failure for match {rule.match!r}"
                        )
                    if self._remaining[i] > 0:
                        self._remaining[i] -= 1
                        raise TransportError(
                            f"scripted failure for match {rule.match!r}"
                        )
                    continue  # budget spent: fall through to later rules
                return _completion_body(rule.reply or "")
        return _completion_body(MOCK_SENTINEL)


def _completion_body(text: str) -> dict[str, Any]:
    return {"choices": [{"message": {"role": "assistant", "content": text}}]}


def _extract_content(body: dict[str, Any]) -> str:
    try:
        content = body["choices"][0]["message"]["content"]
    except (KeyError, IndexError, TypeError):
        raise MalformedResponse(
            f"response body missing choices[0].message.content: {body!r}"
        ) from None
    if not isinstance(content, str):
        raise MalformedResponse(f"completion content is not text: {content!r}")
    return content


class Gateway:
    """Backend registry plus retrying chat executor.

    ``sleeper``, ``rng`` and ``monotonic`` (which times a call's retry
    deadline) are injectable so backoff is testable with a fake clock;
    ``clock`` stamps exchanges (inject a FixedClock for byte-stable
    offline runs). Every transport, the scripted mock
    included, is retried by ``httpclient.with_retries`` up to the
    backend's ``max_retries``.
    """

    def __init__(
        self,
        transport: Transport | None = None,
        clock: Clock | None = None,
        sleeper: Callable[[float], None] | None = None,
        rng: random.Random | None = None,
        monotonic: Callable[[], float] | None = None,
    ):
        self._default_transport: Transport = transport or HttpTransport()
        self._transports: dict[str, Transport] = {}
        self._backends: dict[str, BackendSpec] = {}
        self._clock: Clock = clock or SystemClock()
        self._sleep = sleeper or time.sleep
        self._rng = rng or random.Random()
        self._monotonic = monotonic or time.monotonic

    # -- registry ----------------------------------------------------------

    def register_backend(
        self, spec: BackendSpec, transport: Transport | None = None
    ) -> str:
        if spec.backend_id in self._backends:
            raise DuplicateBackend(f"backend {spec.backend_id!r} already registered")
        self._backends[spec.backend_id] = spec
        if transport is not None:
            self._transports[spec.backend_id] = transport
        return spec.backend_id

    def script_mock(
        self,
        backend_id: str,
        script: Sequence[MockRule | Mapping[str, Any]],
        **overrides: Any,
    ) -> BackendSpec:
        """Register an in-process scripted backend and return its spec."""
        spec = BackendSpec(
            backend_id=backend_id,
            base_url="mock://" + backend_id,
            model_name=overrides.pop("model_name", "mock-model"),
            **overrides,
        )
        self.register_backend(spec, transport=MockTransport(script))
        return spec

    def get_backend(self, backend_id: str) -> BackendSpec:
        try:
            return self._backends[backend_id]
        except KeyError:
            raise UnknownBackend(f"no backend registered as {backend_id!r}") from None

    # -- chat --------------------------------------------------------------

    def chat(
        self, backend_id: str, messages: Sequence[ChatMessage]
    ) -> ChatExchange:
        spec = self.get_backend(backend_id)
        if not messages:
            raise ValueError("messages must be non-empty")
        payload = {
            "model": spec.model_name,
            "messages": [
                {"role": m.role, "content": m.content} for m in messages
            ],
            "temperature": spec.temperature,
            "max_tokens": spec.max_tokens,
        }
        transport = self._transport_for(backend_id)
        started = self._clock.now()
        try:
            body, attempts = with_retries(
                lambda: transport.send(spec, payload),
                spec.max_retries,
                self._sleep,
                self._rng,
                spec.timeout,
                self._monotonic,
            )
        except TransportError as exc:
            timed_out = isinstance(exc, TransportTimeout)
            raise (Timeout if timed_out else TransportExhausted)(
                f"backend {backend_id!r}: {exc.attempts} attempt(s) failed: {exc}"
            ) from exc
        text = _extract_content(body)
        finished = self._clock.now()
        return ChatExchange(
            backend_id=backend_id,
            request_messages=tuple(messages),
            response_text=text,
            latency=max((finished - started).total_seconds(), 0.0),
            attempt_count=attempts,
            finished_at=finished,
        )

    def chat_many(
        self, batch: Sequence[tuple[str, Sequence[ChatMessage]]]
    ) -> list[ChatExchange | EngineError]:
        """Run independent chats; one outcome per request, in submission order.

        An outcome is the request's ``ChatExchange`` or the ``EngineError``
        it raised; any other exception propagates once every request of the
        batch has ended. Each request goes to its backend's worker pool,
        whose queue starts requests in submission order and whose
        ``MAX_IN_FLIGHT`` workers are the cap, so requests to different
        backends never wait on each other. A single request, or a batch
        whose backends are all in-process mocks, runs inline in submission
        order: threads cannot speed up a scripted reply, and inline keeps
        offline clock stamps and mock fail budgets in a fixed order.
        """
        batch = list(batch)
        if len(batch) < 2 or all(
            isinstance(self._transport_for(backend_id), MockTransport)
            for backend_id, _ in batch
        ):
            return [self._outcome(request) for request in batch]
        from concurrent.futures import wait

        futures = [
            _pool(backend_id).submit(self._outcome, (backend_id, messages))
            for backend_id, messages in batch
        ]
        wait(futures)
        return [future.result() for future in futures]

    def _outcome(
        self, request: tuple[str, Sequence[ChatMessage]]
    ) -> ChatExchange | EngineError:
        try:
            return self.chat(*request)
        except EngineError as exc:
            return exc

    def _transport_for(self, backend_id: str) -> Transport:
        return self._transports.get(backend_id, self._default_transport)


_pools: dict[str, Any] = {}
_pools_lock = threading.Lock()
# A forked child inherits the pools but none of their workers.
os.register_at_fork(after_in_child=_pools.clear)


def _pool(backend_id: str) -> Any:
    """The backend's worker pool, built on its first threaded batch."""
    from concurrent.futures import ThreadPoolExecutor

    with _pools_lock:
        if backend_id not in _pools:
            _pools[backend_id] = ThreadPoolExecutor(MAX_IN_FLIGHT, backend_id)
        return _pools[backend_id]
