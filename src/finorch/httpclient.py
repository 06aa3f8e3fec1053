"""Keep-alive JSON-over-HTTP client and the one retry policy.

Both live wires use this module: the chat gateway (``gateway.HttpTransport``)
and the market-data provider (``dataops.providers.LiveProvider``).
``with_retries`` is the only retry loop in finorch. The gateway also runs
its in-process transports through it, so scripted failures are retried by
the same rules.

``HttpClient`` keeps connections alive in one pool per (scheme, host, port).
A request checks a connection out under a lock, so concurrent requests never
share one, and checks it back in once the reply has been read in full. Every
live wire built without a client of its own shares ``shared_client()``, so
connections outlive the engine that opened them and serve the next one.
``http.client``, ``ssl`` and ``urllib.request`` are imported only when a
client is built, ``email.utils`` only to read a ``Retry-After`` date and
``logging`` only to log a retry, so a run that opens no socket never loads
them.

Proxies follow ``HTTP_PROXY``, ``HTTPS_PROXY``, ``ALL_PROXY`` and
``NO_PROXY`` (read by ``urllib.request.getproxies`` and ``proxy_bypass``).
An ``http://`` target goes through the proxy in absolute form. An
``https://`` target goes through a ``CONNECT`` tunnel. A proxy URL that
carries credentials, or whose scheme is not ``http``, is refused with a
``ConfigError``. TLS trusts the system CA store
(``ssl.create_default_context``).
"""

from __future__ import annotations

import datetime as dt
import json
import math
import os
import random
import threading
import time
from typing import Any, Callable, Mapping, NamedTuple, TypeVar
from urllib.parse import urlsplit

from finorch.errors import (
    ConfigError,
    MalformedResponse,
    TransportError,
    TransportTimeout,
)

__all__ = [
    "BACKOFF_INITIAL",
    "MAX_RETRY_AFTER",
    "RETRY_STATUSES",
    "HttpClient",
    "Response",
    "shared_client",
    "with_retries",
]

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

#: Seconds after which a TCP connect still in progress is started over
#: once on a new socket (the connection-attempt delay of RFC 8305).
CONNECT_RETRY_AFTER = 0.25

DEFAULT_PORTS = {"http": 80, "https": 443}

T = TypeVar("T")


class Response(NamedTuple):
    """One HTTP reply, read in full."""

    status: int
    headers: Mapping[str, str]
    body: bytes


def _retry_delay(header: str, now: dt.datetime) -> float:
    """Seconds to wait for a Retry-After value (RFC 9110 §10.2.3):
    delay-seconds, or an HTTP date (the delay until then, never negative).
    An unreadable value waits one second."""
    try:
        seconds = float(header)
    except ValueError:
        from email.utils import parsedate_to_datetime

        try:
            when = parsedate_to_datetime(header)
        except ValueError:
            return 1.0
        if when.tzinfo is None:  # "-0000": UTC with no stated zone
            when = when.replace(tzinfo=dt.timezone.utc)
        return max(0.0, (when - now).total_seconds())
    return seconds if 0.0 <= seconds < math.inf else 1.0


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


class HttpClient:
    """JSON over HTTP/1.1 with a keep-alive connection pool per origin."""

    def __init__(self) -> None:
        # Loaded with the client, which a live engine builds with itself,
        # rather than on first use: worker threads that all wait on one
        # import then connect in a single burst, which can overflow a small
        # server's listen backlog and stall a connect for a second. Keep
        # building the client with the engine until the benchmark stand-in
        # listens with a larger backlog: building the gateway's client on
        # its first send instead made 10 of 30 alternating cold live
        # `evaluate` runs against `bench/standin.py` stall by more than
        # 0.45 s, where building it with the engine stalled 2 to 4 of 30.
        import http.client  # noqa: F401
        import urllib.request  # noqa: F401

        self._idle: dict[tuple[str, str, int], list[Any]] = {}
        self._proxies: dict[tuple[str, str, int], tuple[str, int] | None] = {}
        self._lock = threading.Lock()
        self._tls: Any = None

    def request(
        self,
        method: str,
        url: str,
        *,
        payload: Any = None,
        headers: Mapping[str, str] | None = None,
        timeout: float,
    ) -> Any:
        """One attempt: send ``payload`` as JSON, give the decoded reply.

        A connection error raises ``TransportError``, a timeout
        ``TransportTimeout``, a status other than 200 a ``TransportError``
        with ``status`` and ``retry_after`` set, and a body that is not
        JSON ``MalformedResponse``. No message names the URL's query, which
        can carry a token, and a connection error or timeout does not chain
        the low-level exception. ``timeout`` bounds connecting and each
        read.
        """
        from http.client import HTTPException

        parts = urlsplit(url)
        label = f"{method} {parts.scheme}://{parts.netloc}{parts.path}"
        sent = {"User-Agent": "finorch", "Accept": "application/json"}
        body = None
        if payload is not None:
            body = json.dumps(payload).encode("utf-8")
            sent["Content-Type"] = "application/json"
        sent.update(headers or {})
        failure: TransportError | None = None
        try:
            response = self.send(method, url, body, sent, timeout)
        except TimeoutError:
            failure = TransportTimeout(f"{label} timed out")
        except (OSError, HTTPException) as exc:
            # The class and the system's error text, never str(exc): an
            # exception may quote the URL it failed on.
            reason = getattr(exc, "strerror", None)
            failure = TransportError(
                f"{label} failed: {type(exc).__name__}"
                + (f" ({reason})" if reason else "")
            )
        if failure is not None:
            raise failure  # outside the handler, so nothing is chained
        if response.status != 200:
            header = response.headers.get("Retry-After")
            raise TransportError(
                f"{label} answered HTTP {response.status}",
                status=response.status,
                retry_after=None
                if header is None
                else _retry_delay(header, dt.datetime.now(dt.timezone.utc)),
            )
        try:
            return json.loads(response.body)
        except ValueError as exc:
            raise MalformedResponse(
                f"{label} answered a body that is not JSON: {exc}"
            ) from exc

    def send(
        self,
        method: str,
        url: str,
        body: bytes | None,
        headers: Mapping[str, str],
        timeout: float,
    ) -> Response:
        """One round trip on a pooled connection. A reused connection that
        the server closed while it sat idle is replaced by a fresh one
        once; that replay is not another attempt."""
        parts = urlsplit(url)
        try:
            port = parts.port or DEFAULT_PORTS[parts.scheme]
        except (KeyError, ValueError):
            port = None
        if port is None or not parts.hostname:
            raise ConfigError(f"cannot send to {parts.scheme}://{parts.netloc}")
        key = (parts.scheme, parts.hostname, port)
        if self._proxy(key) is not None and parts.scheme == "http":
            target = f"http://{parts.netloc}{parts.path or '/'}"
        else:
            target = parts.path or "/"
        if parts.query:
            target += "?" + parts.query
        with self._lock:
            idle = self._idle.get(key)
            conn = idle.pop() if idle else None
        reused = conn is not None
        if conn is None:
            conn = self._connect(key, timeout)
        else:
            conn.timeout = timeout
            conn.sock.settimeout(timeout)
        try:
            try:
                response, keep = _round_trip(conn, method, target, body, headers)
            except ConnectionError:
                if not reused:
                    raise
                conn.close()
                conn = self._connect(key, timeout)
                response, keep = _round_trip(conn, method, target, body, headers)
        except BaseException:
            conn.close()
            raise
        if keep:
            with self._lock:
                self._idle.setdefault(key, []).append(conn)
        else:
            conn.close()
        return response

    def close(self) -> None:
        """Close every idle connection."""
        with self._lock:
            idle, self._idle = self._idle, {}
        for conns in idle.values():
            for conn in conns:
                conn.close()

    def _connect(self, key: tuple[str, str, int], timeout: float) -> Any:
        import http.client

        scheme, host, port = key
        proxy = self._proxy(key)
        address = proxy or (host, port)
        if scheme == "http":
            conn = http.client.HTTPConnection(*address, timeout=timeout)
        else:
            if self._tls is None:
                import ssl

                self._tls = ssl.create_default_context()
            conn = http.client.HTTPSConnection(
                *address, timeout=timeout, context=self._tls
            )
            if proxy is not None:
                conn.set_tunnel(host, port)
        conn._create_connection = _open_socket  # http.client's connect hook
        return conn

    def _proxy(self, key: tuple[str, str, int]) -> tuple[str, int] | None:
        """The proxy (host, port) the environment names for an origin, or
        None to connect directly."""
        if key not in self._proxies:
            self._proxies[key] = _proxy_for(*key[:2])
        return self._proxies[key]


_shared: HttpClient | None = None
_shared_lock = threading.Lock()


def shared_client() -> HttpClient:
    """The process-wide client, built on first use."""
    global _shared
    with _shared_lock:
        if _shared is None:
            _shared = HttpClient()
        return _shared


def _drop_inherited_connections() -> None:
    """In a forked child: drop the shared client's idle sockets, which the
    parent still reads and writes."""
    if _shared is not None:
        _shared._idle.clear()


os.register_at_fork(after_in_child=_drop_inherited_connections)


def _round_trip(
    conn: Any,
    method: str,
    target: str,
    body: bytes | None,
    headers: Mapping[str, str],
) -> tuple[Response, bool]:
    """Send one request, read its whole reply; also say whether the
    connection stays open for the next one."""
    conn.request(method, target, body=body, headers=headers)
    reply = conn.getresponse()
    data = reply.read()
    return Response(reply.status, reply.headers, data), not reply.will_close


def _open_socket(
    address: tuple[str, int],
    timeout: float,
    source_address: tuple[str, int] | None = None,
) -> Any:
    """``socket.create_connection``, started over once after
    ``CONNECT_RETRY_AFTER``. A server whose accept queue is full drops the
    SYN, and TCP would resend it only after its one-second initial
    retransmission timeout; a burst of concurrent connects to a server
    with a small listen backlog hits exactly that. Connecting stays
    bounded by ``timeout``."""
    import socket

    first = min(timeout, CONNECT_RETRY_AFTER)
    try:
        sock = socket.create_connection(address, first, source_address)
    except TimeoutError:
        if timeout <= first:
            raise
        sock = socket.create_connection(address, timeout - first, source_address)
    sock.settimeout(timeout)
    return sock


def _proxy_for(scheme: str, host: str) -> tuple[str, int] | None:
    from urllib.request import getproxies, proxy_bypass

    proxies = getproxies()
    name = next((n for n in (scheme, "all") if proxies.get(n)), None)
    if name is None or proxy_bypass(host):
        return None
    variable = f"{name.upper()}_PROXY"
    proxy = urlsplit(proxies[name])
    try:
        port = proxy.port or DEFAULT_PORTS["http"]
    except ValueError:
        port = None
    if proxy.scheme != "http" or not proxy.hostname or port is None:
        raise ConfigError(
            f"{variable} is not an http://host[:port] proxy URL; finorch "
            "reaches proxies over plain http only"
        )
    if proxy.username is not None or proxy.password is not None:
        raise ConfigError(
            f"{variable} carries credentials; finorch sends none to a proxy"
        )
    return proxy.hostname, port
