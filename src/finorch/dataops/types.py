"""Domain types for market data.

Prices travel as decimal strings and become floats only at computation
boundaries (see :meth:`PriceSeries.closes`); this keeps fixture round-trips
byte-stable.
"""

from __future__ import annotations

import datetime as dt
from typing import Any, Iterator, Mapping, Sequence

from finorch.record import Record


def parse_date(value: str | dt.date) -> dt.date:
    if isinstance(value, dt.date):
        return value
    return dt.date.fromisoformat(value)


def parse_price(value: str) -> float:
    """Decimal string -> float. The single conversion boundary for prices."""
    price = float(value)
    return price


class PriceObservation(Record):
    date: dt.date
    close: str  # decimal string
    __slots__ = ("date", "close")

    def __init__(self, date: dt.date, close: str) -> None:
        object.__setattr__(self, "date", date)
        object.__setattr__(self, "close", close)

    def close_value(self) -> float:
        return parse_price(self.close)


class PriceSeries(Record):
    """Ordered close prices for one symbol; dates strictly increasing."""

    symbol: str
    observations: tuple[PriceObservation, ...]
    __slots__ = ("symbol", "observations")

    def __init__(
        self, symbol: str, observations: tuple[PriceObservation, ...]
    ) -> None:
        dates = [obs.date for obs in observations]
        for earlier, later in zip(dates, dates[1:]):
            if later <= earlier:
                raise ValueError(
                    f"price series {symbol!r}: dates must be strictly "
                    f"increasing, got {earlier} then {later}"
                )
        object.__setattr__(self, "symbol", symbol)
        object.__setattr__(self, "observations", observations)

    def __len__(self) -> int:
        return len(self.observations)

    def __iter__(self) -> Iterator[PriceObservation]:
        return iter(self.observations)

    def dates(self) -> list[dt.date]:
        return [obs.date for obs in self.observations]

    def closes(self) -> list[float]:
        return [obs.close_value() for obs in self.observations]

    def window(self, start: dt.date, end: dt.date) -> "PriceSeries":
        """Observations with start <= date <= end."""
        kept = tuple(o for o in self.observations if start <= o.date <= end)
        return PriceSeries(symbol=self.symbol, observations=kept)

    def before(self, cutoff: dt.date) -> "PriceSeries":
        """Observations strictly before ``cutoff``."""
        kept = tuple(o for o in self.observations if o.date < cutoff)
        return PriceSeries(symbol=self.symbol, observations=kept)

    @classmethod
    def from_pairs(
        cls, symbol: str, pairs: Sequence[tuple[str | dt.date, str]]
    ) -> "PriceSeries":
        obs = tuple(
            PriceObservation(date=parse_date(d), close=str(c)) for d, c in pairs
        )
        return cls(symbol=symbol, observations=obs)


class CompanyProfile(Record):
    name: str
    exchange: str
    industry: str
    market_cap: float
    description: str
    __slots__ = ("name", "exchange", "industry", "market_cap", "description")

    def __init__(
        self, name: str, exchange: str, industry: str, market_cap: float,
        description: str = ""
    ) -> None:
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "exchange", exchange)
        object.__setattr__(self, "industry", industry)
        object.__setattr__(self, "market_cap", market_cap)
        object.__setattr__(self, "description", description)


class NewsItem(Record):
    headline: str
    summary: str
    dated: dt.date
    source_id: str
    __slots__ = ("headline", "summary", "dated", "source_id")

    def __init__(
        self, headline: str, summary: str, dated: dt.date, source_id: str
    ) -> None:
        object.__setattr__(self, "headline", headline)
        object.__setattr__(self, "summary", summary)
        object.__setattr__(self, "dated", dated)
        object.__setattr__(self, "source_id", source_id)


class FinancialSnapshot(Record):
    """Basic-financials ratios for one statement period."""

    period: str
    metrics: Mapping[str, float]
    __slots__ = ("period", "metrics")

    def __init__(
        self, period: str, metrics: Mapping[str, float] | None = None
    ) -> None:
        object.__setattr__(self, "period", period)
        object.__setattr__(self, "metrics", {} if metrics is None else metrics)

    def items(self) -> list[tuple[str, float]]:
        return sorted(self.metrics.items())


class CompanyBundle(Record):
    """Everything the perception stage knows about one company.

    Invariant: every dated item is at or before ``cutoff``.
    """

    symbol: str
    cutoff: dt.date
    profile: CompanyProfile
    prices: PriceSeries
    news: tuple[NewsItem, ...]
    financials: FinancialSnapshot
    __slots__ = (
        "symbol", "cutoff", "profile", "prices", "news", "financials",
    )

    def __init__(
        self, symbol: str, cutoff: dt.date, profile: CompanyProfile,
        prices: PriceSeries, news: tuple[NewsItem, ...],
        financials: FinancialSnapshot
    ) -> None:
        for item in news:
            if item.dated > cutoff:
                raise ValueError(
                    f"bundle {symbol!r}: news item dated {item.dated} is "
                    f"after cutoff {cutoff}"
                )
        for obs in prices.observations:
            if obs.date > cutoff:
                raise ValueError(
                    f"bundle {symbol!r}: price dated {obs.date} is after "
                    f"cutoff {cutoff}"
                )
        object.__setattr__(self, "symbol", symbol)
        object.__setattr__(self, "cutoff", cutoff)
        object.__setattr__(self, "profile", profile)
        object.__setattr__(self, "prices", prices)
        object.__setattr__(self, "news", news)
        object.__setattr__(self, "financials", financials)

    def to_dict(self) -> dict[str, Any]:
        return {
            "symbol": self.symbol,
            "cutoff": self.cutoff.isoformat(),
            "profile": {
                "name": self.profile.name,
                "exchange": self.profile.exchange,
                "industry": self.profile.industry,
                "market_cap": self.profile.market_cap,
                "description": self.profile.description,
            },
            "prices": [
                {"date": o.date.isoformat(), "close": o.close}
                for o in self.prices.observations
            ],
            "news": [
                {
                    "headline": n.headline,
                    "summary": n.summary,
                    "dated": n.dated.isoformat(),
                    "source_id": n.source_id,
                }
                for n in self.news
            ],
            "financials": {
                "period": self.financials.period,
                "metrics": dict(self.financials.metrics),
            },
        }
