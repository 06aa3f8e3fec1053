"""Loopback stand-in for the LLM backends and the market-data provider.

Serves the OpenAI-compatible ``POST .../chat/completions`` and the
Finnhub-compatible ``GET .../stock/profile2``, ``/stock/candle``,
``/company-news`` and ``/stock/metric``. Chat replies come from the reply
rules in ``finorch.offline``, chosen by model name and matched here by first
substring against the last user message. Market replies come from
``fixtures/<SYMBOL>.json``. Each request waits a fixed delay before it is
answered.

Run: ``python bench/standin.py --fixtures fixtures --chat-delay-ms 20
--market-delay-ms 5 --log standin.jsonl`` (with ``src`` importable). It
binds 127.0.0.1 on a free port, prints ``PORT <n>`` and serves until its
standard input closes, then writes one JSON line per request (arrival,
finish, path, model) to the log and exits.
"""

from __future__ import annotations

import argparse
import datetime as dt
import json
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from urllib.parse import parse_qs, urlsplit

from gen import STANDIN_MODELS

MARKET_PATHS = ("/stock/profile2", "/stock/candle", "/company-news", "/stock/metric")


def model_scripts() -> dict[str, list[dict]]:
    """Reply rules per model name: each configured backend's offline script."""
    from finorch import offline

    return {
        model: offline.script_for(backend_id)
        for backend_id, model in STANDIN_MODELS.items()
    }


def chat_reply(rules: list[dict], messages: list[dict]) -> str:
    """First rule whose ``match`` occurs in the last user message."""
    last_user = ""
    for message in messages:
        if message.get("role") == "user":
            last_user = message.get("content", "")
    for rule in rules:
        if rule.get("reply") is not None and rule["match"] in last_user:
            return rule["reply"]
    return "MOCK-NO-MATCH"


def _epoch(day: str) -> int:
    date = dt.date.fromisoformat(day)
    return int(dt.datetime.combine(date, dt.time(12), tzinfo=dt.timezone.utc).timestamp())


def market_reply(data: dict | None, path: str, query: dict[str, str]):
    """Finnhub-shaped body for one market request from one symbol's
    fixture (None if there is none), or None for an unknown request."""
    if data is None:
        return {} if path == "/stock/profile2" else None
    if path == "/stock/profile2":
        p = data["profile"]
        return {
            "name": p["name"],
            "exchange": p["exchange"],
            "finnhubIndustry": p["industry"],
            "marketCapitalization": p["market_cap"],
            "description": p["description"],
        }
    if path == "/stock/candle":
        lo, hi = int(query["from"]), int(query["to"])
        rows = [(_epoch(d), float(c)) for d, c in data["prices"] if lo <= _epoch(d) <= hi]
        if not rows:
            return {"s": "no_data"}
        return {"s": "ok", "t": [t for t, _ in rows], "c": [c for _, c in rows]}
    if path == "/company-news":
        return [
            {
                "headline": n["headline"],
                "summary": n["summary"],
                "datetime": _epoch(n["dated"]),
                "source": n["source_id"],
            }
            for n in data["news"]
            if query["from"] <= n["dated"] <= query["to"]
        ]
    if path == "/stock/metric":
        # The live endpoint takes no as-of date; the oldest snapshot lies
        # before every cutoff the benchmark asks for.
        oldest = min(data["financials"], key=lambda snap: snap["as_of"])
        return {"metric": dict(oldest["metrics"])}
    return None


class StandIn(ThreadingHTTPServer):
    daemon_threads = True

    def __init__(self, fixtures: Path, chat_delay: float, market_delay: float):
        super().__init__(("127.0.0.1", 0), Handler)
        self.fixtures = fixtures
        self.chat_delay = chat_delay
        self.market_delay = market_delay
        self.scripts = model_scripts()
        self._fixture_cache: dict[str, dict | None] = {}
        self.log: list[tuple[float, float, str, str]] = []
        self.log_lock = threading.Lock()

    def fixture(self, symbol: str) -> dict | None:
        if symbol not in self._fixture_cache:
            file = self.fixtures / f"{symbol}.json"
            self._fixture_cache[symbol] = (
                json.loads(file.read_text(encoding="utf-8"))
                if symbol.isalnum() and file.is_file()
                else None
            )
        return self._fixture_cache[symbol]


class Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    # TCP_NODELAY: without it a delayed ACK stalls each keep-alive reply.
    disable_nagle_algorithm = True
    server: StandIn

    def log_message(self, format, *args):  # noqa: A002 - base-class name
        pass

    def _reply(self, arrival: float, status: int, body, model: str = "") -> None:
        payload = json.dumps(body).encode("utf-8")
        head = (
            f"HTTP/1.1 {status} {'OK' if status == 200 else 'Error'}\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(payload)}\r\n\r\n"
        ).encode("ascii")
        self.wfile.write(head + payload)  # one send per response
        finish = time.monotonic()
        with self.server.log_lock:
            self.server.log.append((arrival, finish, urlsplit(self.path).path, model))

    def do_POST(self) -> None:
        arrival = time.monotonic()
        length = int(self.headers.get("Content-Length", "0"))
        request = json.loads(self.rfile.read(length) or b"{}")
        model = str(request.get("model", ""))
        rules = self.server.scripts.get(model)
        if not urlsplit(self.path).path.endswith("/chat/completions") or rules is None:
            self._reply(arrival, 404, {"error": f"unknown model or path {model!r}"}, model)
            return
        if not self.headers.get("Authorization", "").startswith("Bearer "):
            self._reply(arrival, 401, {"error": "missing credential"}, model)
            return
        text = chat_reply(rules, request.get("messages", []))
        time.sleep(self.server.chat_delay)
        self._reply(
            arrival,
            200,
            {
                "object": "chat.completion",
                "model": model,
                "choices": [
                    {
                        "index": 0,
                        "message": {"role": "assistant", "content": text},
                        "finish_reason": "stop",
                    }
                ],
            },
            model,
        )

    def do_GET(self) -> None:
        arrival = time.monotonic()
        url = urlsplit(self.path)
        query = {k: v[-1] for k, v in parse_qs(url.query).items()}
        path = next((p for p in MARKET_PATHS if url.path.endswith(p)), "")
        if not query.get("token"):
            self._reply(arrival, 401, {"error": "missing token"})
            return
        data = self.server.fixture(query.get("symbol", ""))
        body = market_reply(data, path, query) if path else None
        time.sleep(self.server.market_delay)
        if body is None:
            self._reply(arrival, 404, {"error": f"unknown request {url.path}"})
        else:
            self._reply(arrival, 200, body)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--fixtures", type=Path, required=True)
    parser.add_argument("--chat-delay-ms", type=float, default=0.0)
    parser.add_argument("--market-delay-ms", type=float, default=0.0)
    parser.add_argument("--log", type=Path, required=True)
    args = parser.parse_args(argv)
    server = StandIn(
        args.fixtures, args.chat_delay_ms / 1000.0, args.market_delay_ms / 1000.0
    )
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    print(f"PORT {server.server_address[1]}", flush=True)
    sys.stdin.read()  # serve until the parent closes our stdin
    server.shutdown()
    thread.join()
    server.server_close()
    with server.log_lock, args.log.open("w", encoding="utf-8") as handle:
        for arrival, finish, path, model in server.log:
            handle.write(json.dumps([arrival, finish, path, model]) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
