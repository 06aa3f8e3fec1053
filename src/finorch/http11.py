"""HTTP/1.1 on a connected socket: one write per request, RFC 9112 framing.

``encode_request`` builds a request's line, header fields and body into one
buffer, so a request leaves in one ``sendall``; it refuses a header value
that holds CR, LF, NUL or another control character. A ``Connection`` reads
every reply on its socket through one buffered reader: the status line,
the header fields (names title-cased, so ``Retry-After`` is found whatever
case the server used), then a body framed by chunked coding (extensions and
trailer fields dropped), by Content-Length or by the server closing the
connection. Interim 1xx replies are skipped. As in ``http.client``, a line
longer than ``MAX_LINE`` bytes or more than ``MAX_HEADERS`` header fields
fail the reply, and any reply that breaks the framing raises
``ReplyError``, an ``OSError``.

``httpclient.HttpClient`` imports this module when it is built, so a run
that opens no socket never loads it.
"""

from __future__ import annotations

from typing import Any, Mapping

from finorch.errors import ConfigError
from finorch.httpclient import Response

__all__ = ["MAX_HEADERS", "MAX_LINE", "Connection", "ReplyError", "encode_request"]

#: ``http.client``'s limits on a reply: bytes in one line, header fields.
MAX_LINE = 65536
MAX_HEADERS = 100


class ReplyError(OSError):
    """A reply that breaks HTTP/1.1 framing, or a refused tunnel."""

    def __init__(self, reason: str) -> None:
        super().__init__(None, reason)  # the reason is its ``strerror``


def encode_request(
    method: str,
    target: str,
    authority: str,
    headers: Mapping[str, str],
    body: bytes | None,
) -> bytes:
    """One request, ready for one write. ``Host`` and ``Accept-Encoding:
    identity`` come first, as ``http.client`` sent them."""
    head = f"{method} {target} HTTP/1.1\r\nHost: {authority}\r\n"
    head += "Accept-Encoding: identity\r\n"
    if body is not None:
        head += f"Content-Length: {len(body)}\r\n"
    for name, value in headers.items():
        if not (value.isascii() and value.isprintable()):  # no CR, LF or NUL
            raise ConfigError(f"header {name} holds a control or non-ASCII character")
        head += f"{name}: {value}\r\n"
    return (head + "\r\n").encode("ascii") + (body or b"")


class Connection:
    """A socket and the one buffered reader its replies are read through."""

    def __init__(self, sock: Any) -> None:
        self.sock = sock
        self.reader = sock.makefile("rb")

    def exchange(self, request: bytes) -> tuple[Response, bool]:
        """Send a request in one write and read its whole reply; also say
        whether the connection stays open for the next one."""
        self.sock.sendall(request)
        status = 100
        while status < 200:  # a 1xx reply is interim; the final one follows
            version, status, headers = _read_head(self.reader)
        options = headers.get("Connection", "").lower()
        keep = "close" not in options
        if version == b"HTTP/1.0":
            keep = "keep-alive" in options
        coding = headers.get("Transfer-Encoding", "").lower()
        length = headers.get("Content-Length", "")
        if status in (204, 304):
            body = b""
        elif coding.endswith("chunked"):
            body = _read_chunked(self.reader)
        elif not coding and length:
            if not length.isdecimal():
                raise ReplyError("Content-Length is not a number")
            body = _read_exact(self.reader, int(length))
        else:  # delimited by the server closing the connection
            body, keep = self.reader.read(), False
        return Response(status, headers, body), keep

    def tunnel(self, host: str, port: int) -> None:
        """Ask the proxy at the other end for a tunnel to ``host:port``
        (RFC 9110 §9.3.6)."""
        authority = f"[{host}]:{port}" if ":" in host else f"{host}:{port}"
        self.sock.sendall(
            f"CONNECT {authority} HTTP/1.1\r\nHost: {authority}\r\n\r\n".encode()
        )
        status = _read_head(self.reader)[1]
        if not 200 <= status < 300:
            raise ReplyError(f"the proxy answered CONNECT with HTTP {status}")

    def close(self) -> None:
        self.reader.close()
        self.sock.close()


def _line(reader: Any) -> bytes:
    line = reader.readline(MAX_LINE + 1)
    if len(line) > MAX_LINE:
        raise ReplyError(f"a line is longer than {MAX_LINE} bytes")
    return line


def _read_head(reader: Any) -> tuple[bytes, int, dict[str, str]]:
    """A reply's status line and header fields: version, status, fields."""
    line = _line(reader)
    if not line:
        raise ConnectionResetError("closed before any reply")
    version, status = (line.split(None, 2) + [b""])[:2]
    if not (version.startswith(b"HTTP/1.") and len(status) == 3 and status.isdigit()):
        raise ReplyError("the status line is not HTTP/1.x")
    return version, int(status), _read_fields(reader)


def _read_fields(reader: Any) -> dict[str, str]:
    """A header or trailer section. A repeated field's values are joined
    with commas; a folded line continues its field (RFC 9112 §5.2)."""
    fields: dict[str, str] = {}
    name = ""
    for _ in range(MAX_HEADERS + 1):
        line = _line(reader).decode("latin-1")
        if line in ("\r\n", "\n", ""):
            return fields
        if line[0] in " \t" and name:
            fields[name] += " " + line.strip()
            continue
        name, colon, value = line.partition(":")
        if not colon:
            raise ReplyError("a header line has no colon")
        name, value = name.title(), value.strip()
        fields[name] = f"{fields[name]}, {value}" if name in fields else value
    raise ReplyError(f"more than {MAX_HEADERS} header fields")


def _read_exact(reader: Any, size: int) -> bytes:
    """``size`` bytes, read 1 MiB at a time at most: a buffered read
    allocates all it is asked for, so a false length could claim any amount
    of memory up front."""
    parts = []
    while size > 0:
        part = reader.read(min(size, 1 << 20))
        if not part:
            raise ReplyError("the body is shorter than its stated length")
        parts.append(part)
        size -= len(part)
    return b"".join(parts)


def _read_chunked(reader: Any) -> bytes:
    """A chunked body (RFC 9112 §7.1) without its chunk extensions and
    trailer fields."""
    chunks = []
    while True:
        size = _line(reader).partition(b";")[0].strip()
        if not size or size.strip(b"0123456789abcdefABCDEF"):
            raise ReplyError("a chunk size is not hexadecimal")
        if not int(size, 16):
            _read_fields(reader)
            return b"".join(chunks)
        chunks.append(_read_exact(reader, int(size, 16)))
        if _line(reader) not in (b"\r\n", b"\n"):
            raise ReplyError("a chunk runs past its size")
