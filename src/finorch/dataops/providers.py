"""Market-data providers and the cache-fronted data service.

Providers expose one ``fetch(endpoint, params)`` returning a provider-neutral
raw schema per endpoint, so the service normalizes all of them identically
and cached bodies are interchangeable:

- ``profile``:  {name, exchange, industry, market_cap, description}
- ``candles``:  {observations: [[YYYY-MM-DD, close-as-decimal-string], ...]}
- ``news``:     [{headline, summary, dated, source_id}, ...]
- ``metrics``:  {period, metrics: {ratio_name: real}}

The fixture provider reads one JSON file per symbol; the live provider
speaks a Finnhub-compatible REST dialect for the US market.
"""

from __future__ import annotations

import datetime as dt
import json
import logging
import math
import time
from collections import Counter
from email.utils import parsedate_to_datetime
from pathlib import Path
from typing import Any, Callable, Mapping, Protocol

from finorch.dataops.cache import ResponseCache, cache_key, canonical_bytes
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
    ProviderFailure,
    RateLimited,
    UnknownSymbol,
)

logger = logging.getLogger(__name__)

__all__ = [
    "ENDPOINTS",
    "FixtureProvider",
    "LiveProvider",
    "MarketData",
    "Provider",
]

ENDPOINTS = ("profile", "candles", "news", "metrics")


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
            self._files[symbol] = json.loads(path.read_text(encoding="utf-8"))
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


def _retry_delay(header: str | None, now: dt.datetime) -> float:
    """Seconds to wait for a Retry-After value (RFC 9110 §10.2.3):
    delay-seconds, or an HTTP date (the delay until then, never negative).
    An absent or unreadable value waits one second."""
    if header is None:
        return 1.0
    try:
        seconds = float(header)
    except ValueError:
        try:
            when = parsedate_to_datetime(header)
        except ValueError:
            return 1.0
        if when.tzinfo is None:  # "-0000": UTC with no stated zone
            when = when.replace(tzinfo=dt.timezone.utc)
        return max(0.0, (when - now).total_seconds())
    return seconds if 0.0 <= seconds < math.inf else 1.0


class LiveProvider:
    """Finnhub-compatible REST provider (US market).

    The API token is read from the environment variable named by
    ``token_env`` at request time; it never appears in config files.
    Rate-limit responses are retried after the server's Retry-After delay.
    """

    def __init__(
        self,
        base_url: str,
        token_env: str,
        session: Any = None,
        provider_id: str = "finnhub",
        timeout: float = 15.0,
        sleeper: Callable[[float], None] | None = None,
        rate_limit_retries: int = 2,
        env: Mapping[str, str] | None = None,
    ):
        import os

        import requests

        self._base_url = base_url.rstrip("/")
        self._token_env = token_env
        self._session = session or requests.Session()
        self.provider_id = provider_id
        self._timeout = timeout
        self._sleep = sleeper or time.sleep
        self._rate_limit_retries = rate_limit_retries
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
        import requests

        url = f"{self._base_url}{path}"
        query = dict(params)
        query["token"] = self._token()
        for attempt in range(self._rate_limit_retries + 1):
            try:
                response = self._session.get(
                    url, params=query, timeout=self._timeout
                )
            except requests.RequestException as exc:
                # The exception text can carry the full URL, token included.
                raise ProviderFailure(
                    f"{path} request failed: {type(exc).__name__}"
                ) from exc
            if response.status_code == 429:
                retry_after = _retry_delay(
                    response.headers.get("Retry-After"),
                    dt.datetime.now(dt.timezone.utc),
                )
                if attempt < self._rate_limit_retries:
                    logger.debug(
                        "rate limited on %s; sleeping %.1fs", path, retry_after
                    )
                    self._sleep(retry_after)
                    continue
                raise RateLimited(
                    f"rate limited on {path} after "
                    f"{self._rate_limit_retries + 1} attempt(s)",
                    retry_after=retry_after,
                )
            if response.status_code != 200:
                raise ProviderFailure(
                    f"{path} answered HTTP {response.status_code}",
                    status=response.status_code,
                )
            try:
                return response.json()
            except ValueError as exc:
                raise ProviderFailure(
                    f"{path} answered a body that is not JSON: {exc}"
                ) from exc
        raise AssertionError("unreachable")

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
