"""Multi-source chat gateway and the one retry policy.

Registers heterogeneous chat backends behind one interface and executes
requests under the retry policy of ``with_retries``, the only retry loop in
finorch: the market-data provider's requests go through it too, and so do
in-process transports, so scripted failures are retried by the same rules.
The wire protocol is the OpenAI-compatible chat-completions shape (POST
{base_url}/chat/completions, response read from
choices[0].message.content), which the supported backends all speak;
``HttpTransport`` sends it through the keep-alive ``httpclient.HttpClient``.
A gateway given no transport builds that default at its first chat, in the
calling thread, and with it the client and its modules, so a live ``route``
on persisted scores, which sends nothing, never loads them.

``MockTransport`` is the scripted, deterministic stand-in: offline, each
configured backend is registered with one.

Independent requests go through ``Gateway.chat_many``, which keeps up to
``MAX_IN_FLIGHT`` of them in flight per backend id, on workers that live as
long as the process, and returns their outcomes in submission order.
"""

from __future__ import annotations

import os
import random
import threading
import time
from typing import (
    TYPE_CHECKING, Any, Callable, Mapping, Protocol, Sequence, TypeVar,
)

from finorch.errors import (
    ConfigError,
    EngineError,
    MalformedResponse,
    TransportError,
    TransportExhausted,
)
from finorch.record import Record

if TYPE_CHECKING:
    from finorch.httpclient import HttpClient

__all__ = [
    "BACKOFF_INITIAL",
    "MAX_IN_FLIGHT",
    "MAX_RETRY_AFTER",
    "MOCK_SENTINEL",
    "BackendSpec",
    "ChatExchange",
    "ChatMessage",
    "Gateway",
    "HttpTransport",
    "MockTransport",
    "RETRY_STATUSES",
    "Transport",
    "with_retries",
]

ROLES = ("system", "user", "assistant")

#: Most requests in flight to one backend id in this process. Backends do
#: not share it: each gets its own workers.
MAX_IN_FLIGHT = 8

#: Reply for mock requests no scripted rule matches.
MOCK_SENTINEL = "MOCK-NO-MATCH"

#: HTTP statuses worth another attempt (RFC 9110 §15): request timeout,
#: too many requests, and the transient server errors. Every other status
#: fails at once.
RETRY_STATUSES = frozenset({408, 429, 500, 502, 503, 504})

#: First backoff window in seconds; each retry doubles it (full jitter).
BACKOFF_INITIAL = 0.5

#: Longest Retry-After delay, in seconds, that a request waits out; a
#: longer one fails the request at once. It is also what a call's retries
#: may wait beyond its attempts' own timeouts (see ``with_retries``).
MAX_RETRY_AFTER = 120.0

T = TypeVar("T")


def with_retries(
    send: Callable[[], T],
    retries: int,
    sleep: Callable[[float], None],
    rng: random.Random,
    timeout: float,
    monotonic: Callable[[], float] = time.monotonic,
) -> tuple[T, int]:
    """Call ``send`` until it returns; give its value and the attempts made.

    A ``TransportError`` with no status, or with one in ``RETRY_STATUSES``,
    is retried up to ``retries`` times. The wait before a retry is the
    error's Retry-After delay when it has one, else a full-jitter backoff
    drawn from ``rng``. A Retry-After above ``MAX_RETRY_AFTER`` is not
    waited out. A failure that is not retried propagates, with
    ``attempts`` set on a ``TransportError``.

    The call has one deadline, read from ``monotonic`` and counted from
    its first attempt: the attempts' timeouts combined, ``timeout *
    (retries + 1)``, plus ``MAX_RETRY_AFTER`` of waiting. A retry whose
    wait would end past it is not taken.
    """
    deadline = monotonic() + timeout * (retries + 1) + MAX_RETRY_AFTER
    for attempt in range(retries + 1):
        try:
            return send(), attempt + 1
        except TransportError as exc:
            exc.attempts = attempt + 1
            retryable = exc.status is None or exc.status in RETRY_STATUSES
            if (
                not retryable
                or attempt == retries
                or (exc.retry_after or 0.0) > MAX_RETRY_AFTER
            ):
                raise
            if exc.retry_after is not None:
                delay = exc.retry_after
            else:
                delay = rng.uniform(0.0, BACKOFF_INITIAL * 2**attempt)
            if monotonic() + delay > deadline:
                raise
            import logging  # only a retry logs, so only a retry loads it

            logging.getLogger(__name__).debug(
                "attempt %d failed (%s); retrying in %.3fs", attempt + 1, exc, delay
            )
            sleep(delay)
    raise AssertionError("unreachable")


class BackendSpec(Record):
    """Connection settings for one chat backend. ``api_key_env`` names the
    env var that holds the credential."""

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
        super().__init__(
            backend_id, base_url, model_name, api_key_env, max_tokens,
            temperature, timeout, max_retries,
        )


class ChatMessage(Record):
    __slots__ = ("role", "content")

    def __init__(self, role: str, content: str) -> None:
        if role not in ROLES:
            raise ValueError(f"unknown role {role!r}")
        if role in ("system", "user") and not content:
            raise ValueError(f"{role} message content must be non-empty")
        super().__init__(role, content)


class ChatExchange(Record):
    """Audit record of one completed chat call. ``latency`` is the call's
    seconds on the gateway's monotonic timer, retry waits included."""

    __slots__ = (
        "backend_id", "request_messages", "response_text", "latency",
        "attempt_count",
    )

    def __init__(
        self, backend_id: str, request_messages: tuple[ChatMessage, ...],
        response_text: str, latency: float, attempt_count: int
    ) -> None:
        super().__init__(
            backend_id, request_messages, response_text, latency,
            attempt_count,
        )


class Transport(Protocol):
    """Sends one request payload and returns the decoded response body."""

    def send(self, spec: BackendSpec, payload: dict[str, Any]) -> dict[str, Any]: ...


class HttpTransport:
    """Posts chat payloads through a keep-alive ``HttpClient``, by default
    the process-wide one, one attempt per ``send``; credentials come from
    the env var that ``BackendSpec.api_key_env`` names."""

    def __init__(self, client: HttpClient | None = None):
        if client is None:
            from finorch.httpclient import shared_client

            client = shared_client()
        self._client = client

    def send(self, spec: BackendSpec, payload: dict[str, Any]) -> dict[str, Any]:
        headers = {}
        if spec.api_key_env:
            key = os.environ.get(spec.api_key_env)
            if not key:
                raise ConfigError(
                    f"backend {spec.backend_id!r} expects a credential in "
                    f"environment variable {spec.api_key_env!r}, which is unset"
                )
            if "\r" in key or "\n" in key or "\0" in key:
                raise ConfigError(
                    f"environment variable {spec.api_key_env!r} holds CR, LF "
                    "or NUL, which an HTTP header cannot carry"
                )
            headers["Authorization"] = f"Bearer {key}"
        return self._client.request(
            "POST",
            spec.base_url.rstrip("/") + "/chat/completions",
            payload=payload,
            headers=headers,
            timeout=spec.timeout,
        )


class MockTransport:
    """In-process deterministic backend: first-substring-match scripting.

    A script is a non-empty sequence of rule dicts, each selected when its
    ``match`` (default "") is in the request's last user message. A rule
    sets exactly one of ``reply``, to answer with that text, or ``fail``,
    to raise a transient transport error; with ``times`` (at least 1) a
    fail rule does so only for that many matching requests and is skipped
    afterwards (letting a later rule answer), which scripts "fail twice,
    then succeed" flows. Responses are a pure function of the script and
    the request history. No network, no randomness.
    """

    def __init__(self, script: Sequence[Mapping[str, Any]]):
        if not script:
            raise ValueError("mock script must contain at least one rule")
        self._rules = []  # (match, reply or None for a fail rule)
        self._remaining = []  # each fail rule's budget left, None if unlimited
        for rule in script:
            reply, times = rule.get("reply"), rule.get("times")
            if bool(rule.get("fail", False)) == (reply is not None):
                raise ValueError("rule must set exactly one of reply or fail")
            if times is not None and reply is not None:
                raise ValueError("times only applies to fail rules")
            if times is not None and times < 1:
                raise ValueError("times must be at least 1")
            self._rules.append((rule.get("match", ""), reply))
            self._remaining.append(times)
        self._lock = threading.Lock()

    def send(self, spec: BackendSpec, payload: dict[str, Any]) -> dict[str, Any]:
        last_user = ""
        for message in payload.get("messages", []):
            if message.get("role") == "user":
                last_user = message.get("content", "")
        with self._lock:
            for i, (match, reply) in enumerate(self._rules):
                if match not in last_user:
                    continue
                if reply is None:
                    left = self._remaining[i]
                    if left == 0:
                        continue  # budget spent: fall through to later rules
                    if left is not None:
                        self._remaining[i] = left - 1
                    raise TransportError(f"scripted failure for match {match!r}")
                return _completion_body(reply)
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

    ``sleeper``, ``rng`` and ``monotonic`` are injectable so backoff is
    testable with a fake clock. ``monotonic`` times each chat (its
    ``latency``) and its retry deadline; the gateway stamps nothing, so
    offline artifacts do not depend on how many chats ran. Every
    transport, the scripted mock included, is retried by
    ``with_retries`` up to the backend's ``max_retries``.
    Without ``transport``, the default ``HttpTransport`` is built at the
    first chat that needs it, in the calling thread: ``chat_many`` resolves
    every request's transport before any worker starts.
    """

    def __init__(
        self,
        transport: Transport | None = None,
        sleeper: Callable[[float], None] | None = None,
        rng: random.Random | None = None,
        monotonic: Callable[[], float] | None = None,
    ):
        self._default_transport: Transport | None = transport
        self._transports: dict[str, Transport] = {}
        self._backends: dict[str, BackendSpec] = {}
        self._sleep = sleeper or time.sleep
        self._rng = rng or random.Random()
        self._monotonic = monotonic or time.monotonic

    # -- registry ----------------------------------------------------------

    def register_backend(
        self, spec: BackendSpec, transport: Transport | None = None
    ) -> str:
        if spec.backend_id in self._backends:
            raise ConfigError(f"backend {spec.backend_id!r} already registered")
        self._backends[spec.backend_id] = spec
        if transport is not None:
            self._transports[spec.backend_id] = transport
        return spec.backend_id

    def get_backend(self, backend_id: str) -> BackendSpec:
        try:
            return self._backends[backend_id]
        except KeyError:
            raise ConfigError(f"no backend registered as {backend_id!r}") from None

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
        started = self._monotonic()
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
            raise TransportExhausted(
                f"backend {backend_id!r}: {exc.attempts} attempt(s) failed: {exc}"
            ) from exc
        text = _extract_content(body)
        return ChatExchange(
            backend_id=backend_id,
            request_messages=tuple(messages),
            response_text=text,
            latency=self._monotonic() - started,
            attempt_count=attempts,
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
        mock fail budgets in a fixed order.
        """
        batch = list(batch)
        # An unknown backend fails with a ConfigError and needs no transport.
        transports = [self._transport_for(b) for b, _ in batch if b in self._backends]
        if len(batch) < 2 or all(isinstance(t, MockTransport) for t in transports):
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
        if backend_id in self._transports:
            return self._transports[backend_id]
        if self._default_transport is None:
            self._default_transport = HttpTransport()
        return self._default_transport


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
