"""Market-data providers and the cache-fronted data service.

Providers expose one ``fetch(endpoint, params)`` returning a provider-neutral
raw schema per endpoint, so the service normalizes all of them identically
and cached bodies are interchangeable:

- ``profile``:  {name, exchange, industry, market_cap, description}
- ``candles``:  {observations: [[YYYY-MM-DD, close-as-decimal-string], ...]}
- ``news``:     [{headline, summary, dated, source_id}, ...]
- ``metrics``:  {period, metrics: {ratio_name: real}}

The fixture provider reads one JSON file per symbol; the live provider
speaks a Finnhub-compatible REST dialect for the US market, through the
process-wide keep-alive ``httpclient.shared_client()`` unless given a
client of its own, and its retry policy.
"""

from __future__ import annotations

import datetime as dt
import json
import os
import random
import time
from collections import Counter
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Mapping, Protocol
from urllib.parse import urlencode

from finorch.dataops.types import (
    CompanyBundle,
    CompanyProfile,
    FinancialSnapshot,
    NewsItem,
    PriceSeries,
    parse_date,
)
from finorch.errors import (
    CacheMiss,
    ConfigError,
    MalformedResponse,
    ProviderFailure,
    RateLimited,
    TransportError,
    UnknownSymbol,
)
from finorch.httpclient import (
    MAX_RETRY_AFTER,
    HttpClient,
    shared_client,
    with_retries,
)

if TYPE_CHECKING:
    from finorch.dataops.cache import ResponseCache

__all__ = [
    "ENDPOINTS",
    "FixtureProvider",
    "LiveProvider",
    "MarketData",
    "Provider",
]

ENDPOINTS = ("profile", "candles", "news", "metrics")

#: Seconds a live request may wait to connect or for each read.
REQUEST_TIMEOUT = 15.0

#: Times a failed live request is retried (``httpclient.with_retries``).
RETRIES = 2


class Provider(Protocol):
    provider_id: str

    def fetch(self, endpoint: str, params: Mapping[str, str]) -> Any: ...


class FixtureProvider:
    """Offline provider backed by one JSON file per symbol.

    ``calls`` counts actual fixture reads per endpoint, which is how tests
    prove that repeated requests are served from the response cache.
    """

    def __init__(self, root: Path | str, provider_id: str = "fixture"):
        self._root = Path(root)
        self.provider_id = provider_id
        self.calls: Counter[str] = Counter()
        self._files: dict[str, dict[str, Any]] = {}

    def _load(self, symbol: str) -> dict[str, Any]:
        if symbol not in self._files:
            path = self._root / f"{symbol}.json"
            if not path.exists():
                raise UnknownSymbol(
                    f"no fixture for symbol {symbol!r} under {self._root}"
                )
            try:
                self._files[symbol] = json.loads(path.read_text(encoding="utf-8"))
            except (OSError, ValueError) as exc:
                raise ProviderFailure(f"cannot read fixture {path}: {exc}") from None
        return self._files[symbol]

    def fetch(self, endpoint: str, params: Mapping[str, str]) -> Any:
        self.calls[endpoint] += 1
        symbol = str(params["symbol"])
        data = self._load(symbol)
        if endpoint == "profile":
            return dict(data["profile"])
        if endpoint == "candles":
            start, end = str(params["from"]), str(params["to"])
            return {
                "observations": [
                    [date, close]
                    for date, close in data.get("prices", [])
                    if start <= date <= end
                ]
            }
        if endpoint == "news":
            start, end = str(params["from"]), str(params["to"])
            return [
                dict(item)
                for item in data.get("news", [])
                if start <= item["dated"] <= end
            ]
        if endpoint == "metrics":
            as_of = str(params["as_of"])
            eligible = [
                snap
                for snap in data.get("financials", [])
                if snap["as_of"] <= as_of
            ]
            if not eligible:
                return {"period": "", "metrics": {}}
            latest = max(eligible, key=lambda snap: snap["as_of"])
            return {"period": latest["period"], "metrics": dict(latest["metrics"])}
        raise ValueError(f"unknown endpoint {endpoint!r}")


class LiveProvider:
    """Finnhub-compatible REST provider (US market).

    The API token is read from the environment variable named by
    ``token_env`` at request time; it never appears in config files, and
    no error message or chained exception carries it. Failed requests are
    retried under ``httpclient.with_retries``: a Retry-After delay is
    waited out unless it exceeds ``MAX_RETRY_AFTER`` or would end past the
    request's deadline. ``sleeper`` and ``monotonic`` replace
    ``time.sleep`` and ``time.monotonic`` there.
    """

    def __init__(
        self,
        base_url: str,
        token_env: str,
        client: HttpClient | None = None,
        provider_id: str = "finnhub",
        sleeper: Callable[[float], None] | None = None,
        env: Mapping[str, str] | None = None,
        monotonic: Callable[[], float] | None = None,
    ):
        self._base_url = base_url.rstrip("/")
        self._token_env = token_env
        self._client = client or shared_client()
        self.provider_id = provider_id
        self._sleep = sleeper or time.sleep
        self._monotonic = monotonic or time.monotonic
        self._rng = random.Random()
        self._env = env if env is not None else os.environ

    def _token(self) -> str:
        token = self._env.get(self._token_env)
        if not token:
            raise ConfigError(
                f"provider {self.provider_id!r} expects a token in environment "
                f"variable {self._token_env!r}, which is unset"
            )
        return token

    def _get(self, path: str, params: dict[str, str]) -> Any:
        query = urlencode({**params, "token": self._token()})
        url = f"{self._base_url}{path}?{query}"
        try:
            body, _ = with_retries(
                lambda: self._client.request("GET", url, timeout=REQUEST_TIMEOUT),
                RETRIES,
                self._sleep,
                self._rng,
                REQUEST_TIMEOUT,
                self._monotonic,
            )
        except TransportError as exc:
            if exc.status == 429:
                retry_after = exc.retry_after or 0.0
                if retry_after > MAX_RETRY_AFTER:
                    reason = (
                        f"the server asks for {retry_after:g}s, "
                        f"more than {MAX_RETRY_AFTER:g}s"
                    )
                else:
                    reason = f"{exc.attempts} attempt(s)"
                raise RateLimited(
                    f"rate limited on {path}: {reason}", retry_after=retry_after
                ) from exc
            raise ProviderFailure(
                f"{path}: {exc.attempts} attempt(s) failed: {exc}",
                status=exc.status,
            ) from exc
        except MalformedResponse as exc:
            raise ProviderFailure(str(exc)) from exc
        return body

    def fetch(self, endpoint: str, params: Mapping[str, str]) -> Any:
        symbol = str(params["symbol"])
        if endpoint == "profile":
            body = self._get("/stock/profile2", {"symbol": symbol})
            if not body:
                raise UnknownSymbol(f"profile lookup found nothing for {symbol!r}")
            return {
                "name": body.get("name", symbol),
                "exchange": body.get("exchange", ""),
                "industry": body.get("finnhubIndustry", ""),
                "market_cap": float(body.get("marketCapitalization", 0.0)),
                "description": body.get("description", ""),
            }
        if endpoint == "candles":
            start = parse_date(str(params["from"]))
            end = parse_date(str(params["to"]))
            epoch = dt.timezone.utc
            body = self._get(
                "/stock/candle",
                {
                    "symbol": symbol,
                    "resolution": "D",
                    "from": str(
                        int(
                            dt.datetime.combine(
                                start, dt.time.min, tzinfo=epoch
                            ).timestamp()
                        )
                    ),
                    "to": str(
                        int(
                            dt.datetime.combine(
                                end, dt.time.max, tzinfo=epoch
                            ).timestamp()
                        )
                    ),
                },
            )
            if body.get("s") == "no_data":
                return {"observations": []}
            if body.get("s") != "ok":
                raise ProviderFailure(f"candle status {body.get('s')!r}")
            observations = []
            for ts, close in zip(body.get("t", []), body.get("c", [])):
                date = dt.datetime.fromtimestamp(ts, tz=epoch).date()
                observations.append([date.isoformat(), str(close)])
            return {"observations": observations}
        if endpoint == "news":
            body = self._get(
                "/company-news",
                {
                    "symbol": symbol,
                    "from": str(params["from"]),
                    "to": str(params["to"]),
                },
            )
            items = []
            for raw in body:
                stamp = dt.datetime.fromtimestamp(
                    int(raw.get("datetime", 0)), tz=dt.timezone.utc
                )
                items.append(
                    {
                        "headline": raw.get("headline", ""),
                        "summary": raw.get("summary", ""),
                        "dated": stamp.date().isoformat(),
                        "source_id": str(raw.get("source") or raw.get("id") or ""),
                    }
                )
            return items
        if endpoint == "metrics":
            body = self._get("/stock/metric", {"symbol": symbol, "metric": "all"})
            metric = body.get("metric") or {}
            numeric = {
                name: float(value)
                for name, value in metric.items()
                if isinstance(value, (int, float)) and not isinstance(value, bool)
            }
            return {"period": str(params.get("as_of", "")), "metrics": numeric}
        raise ValueError(f"unknown endpoint {endpoint!r}")


class MarketData:
    """Cache-fronted, provider-agnostic access to normalized market data."""

    def __init__(self, provider: Provider, cache: ResponseCache | None = None):
        self._provider = provider
        self._cache = cache

    def _fetch(self, endpoint: str, params: Mapping[str, str]) -> Any:
        if self._cache is None:
            return self._provider.fetch(endpoint, params)
        # Only a cache-fronted (live) service loads the cache and hashlib.
        from finorch.dataops.cache import cache_key, canonical_bytes

        key = cache_key(self._provider.provider_id, endpoint, params)
        try:
            return json.loads(self._cache.get(key).decode("utf-8"))
        except CacheMiss:
            pass
        raw = self._provider.fetch(endpoint, params)
        self._cache.put(key, canonical_bytes(raw))
        return raw

    def get_company_profile(self, symbol: str) -> CompanyProfile:
        raw = self._fetch("profile", {"symbol": symbol})
        return CompanyProfile(
            name=str(raw.get("name", symbol)),
            exchange=str(raw.get("exchange", "")),
            industry=str(raw.get("industry", "")),
            market_cap=float(raw.get("market_cap", 0.0)),
            description=str(raw.get("description", "")),
        )

    def get_price_window(
        self, symbol: str, start: dt.date | str, end: dt.date | str
    ) -> PriceSeries:
        start_d, end_d = parse_date(start), parse_date(end)
        raw = self._fetch(
            "candles",
            {"symbol": symbol, "from": start_d.isoformat(), "to": end_d.isoformat()},
        )
        series = PriceSeries.from_pairs(
            symbol, [(date, close) for date, close in raw.get("observations", [])]
        )
        # providers filter server-side; re-verify client-side anyway
        return series.window(start_d, end_d)

    def get_news(
        self, symbol: str, start: dt.date | str, end: dt.date | str
    ) -> list[NewsItem]:
        start_d, end_d = parse_date(start), parse_date(end)
        raw = self._fetch(
            "news",
            {"symbol": symbol, "from": start_d.isoformat(), "to": end_d.isoformat()},
        )
        items = []
        for entry in raw:
            dated = parse_date(str(entry["dated"]))
            if not (start_d <= dated <= end_d):
                continue
            items.append(
                NewsItem(
                    headline=str(entry.get("headline", "")),
                    summary=str(entry.get("summary", "")),
                    dated=dated,
                    source_id=str(entry.get("source_id", "")),
                )
            )
        items.sort(key=lambda item: (item.dated, item.source_id, item.headline))
        return items

    def get_basic_financials(
        self, symbol: str, as_of: dt.date | str
    ) -> FinancialSnapshot:
        as_of_d = parse_date(as_of)
        raw = self._fetch(
            "metrics", {"symbol": symbol, "as_of": as_of_d.isoformat()}
        )
        metrics = {
            str(name): float(value)
            for name, value in (raw.get("metrics") or {}).items()
        }
        return FinancialSnapshot(period=str(raw.get("period", "")), metrics=metrics)

    def company_bundle(
        self, symbol: str, cutoff: dt.date | str, window_days: int = 30
    ) -> CompanyBundle:
        """Assemble all four information blocks using only data strictly
        before ``cutoff``."""
        cutoff_d = parse_date(cutoff)
        last_allowed = cutoff_d - dt.timedelta(days=1)
        start = cutoff_d - dt.timedelta(days=window_days)
        profile = self.get_company_profile(symbol)
        prices = self.get_price_window(symbol, start, last_allowed).before(cutoff_d)
        news = [
            item
            for item in self.get_news(symbol, start, last_allowed)
            if item.dated < cutoff_d
        ]
        financials = self.get_basic_financials(symbol, last_allowed)
        return CompanyBundle(
            symbol=symbol,
            cutoff=cutoff_d,
            profile=profile,
            prices=prices,
            news=tuple(news),
            financials=financials,
        )
