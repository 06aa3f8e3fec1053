"""Keep-alive JSON-over-HTTP/1.1 client.

Both live wires use this module: the chat gateway (``gateway.HttpTransport``)
and the market-data provider (``dataops.providers.LiveProvider``), each
under the retry policy of ``gateway.with_retries``. Neither loads it until
it is built without a client of its own, so no offline command loads it.

``HttpClient`` keeps connections alive in one pool per (scheme, host, port).
A request checks a connection out under a lock, so concurrent requests never
share one, and checks it back in once the reply has been read in full. Every
live wire built without a client of its own shares ``shared_client()``, so
connections outlive the engine that opened them and serve the next one.
The client speaks HTTP/1.1 on the socket through ``finorch.http11``: each
request goes out in one write, and each reply is read with the message
framing of RFC 9112 (1xx replies skipped; a chunked, sized or
close-delimited body), within ``http.client``'s limits of 65 536 bytes a
line and 100 header fields. ``finorch.http11``, ``socket`` and the
``idna`` codec are loaded when a client is built (a gateway's at its first
chat), ``ssl`` on its first TLS connect and ``email.utils`` only to read
a ``Retry-After`` date, so a run that opens no socket never loads them.
No client loads ``urllib.request``, ``http.client`` or ``email.parser``.

Proxies follow ``HTTP_PROXY``, ``HTTPS_PROXY``, ``ALL_PROXY`` and
``NO_PROXY``, read by the rules of ``urllib.request``'s
``getproxies_environment`` and ``proxy_bypass_environment`` (CPython 3.11)
on every platform. An ``http://`` target goes through the proxy in
absolute form. An ``https://`` target goes through a ``CONNECT`` tunnel. A
proxy URL that carries credentials, or whose scheme is not ``http``, is
refused with a ``ConfigError``. TLS trusts the system CA store
(``ssl.create_default_context``), through one context per client.
"""

from __future__ import annotations

import datetime as dt
import json
import os
import threading
from typing import TYPE_CHECKING, Any, Mapping, NamedTuple
from urllib.parse import urlsplit

from finorch.errors import ConfigError, MalformedResponse, TransportError

__all__ = [
    "HttpClient",
    "Response",
    "shared_client",
]

#: Seconds after which a TCP connect still in progress is started over
#: once on a new socket (the connection-attempt delay of RFC 8305).
CONNECT_RETRY_AFTER = 0.25

DEFAULT_PORTS = {"http": 80, "https": 443}

if TYPE_CHECKING:
    from finorch.http11 import Connection


class Response(NamedTuple):
    """One HTTP reply, read in full; header names are title-cased."""

    status: int
    headers: Mapping[str, str]
    body: bytes


def _retry_delay(header: str, now: dt.datetime) -> float:
    """Seconds to wait for a Retry-After value (RFC 9110 §10.2.3):
    delay-seconds, or an HTTP date (the delay until then, never negative).
    A delay too big for a float is infinite, and fails the cap like any
    other; a negative, NaN or unreadable value waits one second."""
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
    return seconds if seconds >= 0.0 else 1.0


class HttpClient:
    """JSON over HTTP/1.1 with a keep-alive connection pool per origin."""

    def __init__(self) -> None:
        # What a connect loads, loaded with the client, which a gateway
        # builds at its first chat in the calling thread: the wire code,
        # ``socket``, and the ``idna`` codec ``getaddrinfo`` encodes host
        # names with. Workers that first import a module queue on one
        # import lock, then connect in a burst that overflows a small
        # listen backlog: left to them, these two loads took a cold live
        # `evaluate` against `bench/standin.py` from 0.20 to 0.45 s.
        import codecs
        import socket  # noqa: F401

        import finorch.http11  # noqa: F401

        codecs.lookup("idna")

        self._idle: dict[tuple[str, str, int], list[Connection]] = {}
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

        A connection error, a timeout or a reply that breaks HTTP/1.1
        framing raises ``TransportError``, a status other than 200 one with
        ``status`` and ``retry_after`` set, and a body that is not JSON
        ``MalformedResponse``. No message names the URL's credentials or
        query, which can carry a token, and a connection error or timeout
        does not chain the low-level exception. ``timeout`` bounds
        connecting and each read.
        """
        parts = urlsplit(url)
        host_port = parts.netloc.rpartition("@")[2]  # never the credentials
        label = f"{method} {parts.scheme}://{host_port}{parts.path}"
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
            failure = TransportError(f"{label} timed out")
        except OSError as exc:
            # The class and the system's error text, never str(exc): an
            # exception may quote the URL it failed on.
            failure = TransportError(
                f"{label} failed: {type(exc).__name__}"
                + (f" ({exc.strerror})" if exc.strerror else "")
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
        authority = parts.netloc.rpartition("@")[2]  # never the credentials
        origin = f"{parts.scheme}://{authority}"
        if not authority.isascii():
            try:
                authority = authority.encode("idna").decode("ascii")
            except UnicodeError:
                raise ConfigError(f"cannot send to {origin}") from None
        target = (parts.path or "/") + (f"?{parts.query}" if parts.query else "")
        if port is None or not parts.hostname or not _sendable(target):
            raise ConfigError(f"cannot send to {origin}")
        key = (parts.scheme, parts.hostname, port)
        if parts.scheme == "http" and self._proxy(key) is not None:
            target = f"http://{authority}{target}"  # the absolute form
        from finorch.http11 import encode_request

        request = encode_request(method, target, authority, headers, body)
        with self._lock:
            idle = self._idle.get(key)
            conn = idle.pop() if idle else None
        reused = conn is not None
        if conn is None:
            conn = self._connect(key, timeout)
        else:
            conn.sock.settimeout(timeout)
        try:
            try:
                response, keep = conn.exchange(request)
            except ConnectionError:
                if not reused:
                    raise
                conn.close()
                conn = self._connect(key, timeout)
                response, keep = conn.exchange(request)
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

    def _connect(self, key: tuple[str, str, int], timeout: float) -> Connection:
        from finorch.http11 import Connection

        scheme, host, port = key
        proxy = self._proxy(key)
        conn = Connection(_open_socket(proxy or (host, port), timeout))
        if scheme == "http":
            return conn
        try:
            if proxy is not None:
                conn.tunnel(host, port)
            with self._lock:  # one context, however many connect at once
                if self._tls is None:
                    import ssl

                    self._tls = ssl.create_default_context()
            sock = self._tls.wrap_socket(conn.sock, server_hostname=host)
        finally:
            conn.close()  # the TLS socket holds the connection on by itself
        return Connection(sock)

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


def _sendable(target: str) -> bool:
    """Whether a request target has no space, control or non-ASCII
    character, any of which would break the request line."""
    return " " not in target and target.isascii() and target.isprintable()


def _open_socket(address: tuple[str, int], timeout: float) -> Any:
    """``socket.create_connection``, started over once after
    ``CONNECT_RETRY_AFTER``. A server whose accept queue is full drops the
    SYN, and TCP would resend it only after its one-second initial
    retransmission timeout; a burst of concurrent connects to a server
    with a small listen backlog hits exactly that. Connecting stays
    bounded by ``timeout``."""
    import socket

    first = min(timeout, CONNECT_RETRY_AFTER)
    try:
        sock = socket.create_connection(address, first)
    except TimeoutError:
        if timeout <= first:
            raise
        sock = socket.create_connection(address, timeout - first)
    sock.settimeout(timeout)
    return sock


def _proxy_for(scheme: str, host: str) -> tuple[str, int] | None:
    proxies = _environment_proxies()
    name = next((n for n in (scheme, "all") if proxies.get(n)), None)
    if name is None or _bypassed(host, proxies.get("no")):
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


def _environment_proxies() -> dict[str, str]:
    """``urllib.request.getproxies_environment`` of CPython 3.11: a
    ``<scheme>_proxy`` variable by its scheme, in any case, one with a
    lower-case ``_proxy`` winning and, if empty, unsetting it; under CGI
    (``REQUEST_METHOD``) an upper-case ``HTTP_PROXY`` is dropped."""
    proxies = {}
    for name, value in os.environ.items():
        if value and name.lower()[-6:] == "_proxy":
            proxies[name.lower()[:-6]] = value
    if "REQUEST_METHOD" in os.environ:
        proxies.pop("http", None)
    for name, value in os.environ.items():
        if name[-6:] == "_proxy":
            proxies[name.lower()[:-6]] = value
    return {scheme: url for scheme, url in proxies.items() if url}


def _bypassed(host: str, no_proxy: str | None) -> bool:
    """``urllib.request.proxy_bypass_environment`` of CPython 3.11: whether
    ``NO_PROXY`` is ``*`` or names the host, with or without a trailing
    ``:port``, or a domain it lies in."""
    if no_proxy == "*":
        return True
    host = host.lower()
    head, colon, port = host.rpartition(":")
    hostonly = head if colon and port.isascii() and port.isdigit() else host
    names = [name.strip() for name in (no_proxy or "").split(",")]
    suffixes = [name.lstrip(".").lower() for name in names if name]
    return any(
        h == suffix or h.endswith("." + suffix)
        for suffix in suffixes
        for h in (hostonly, host)
    )
