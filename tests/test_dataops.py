"""Tests for the DataOps layer: typed market data, response cache,
BM25 retrieval, and the providers behind the MarketData service.

Retrieval scores are checked against the naive BM25 re-implementation in
oracles.py; provider filtering is checked against direct reads of the
fixture JSON files.
"""

from __future__ import annotations

import datetime as dt
import json
import os
import random
import threading
from email.utils import format_datetime
from pathlib import Path

import pytest

from finorch.dataops import (
    CompanyBundle,
    CompanyProfile,
    FinancialSnapshot,
    FixtureProvider,
    LiveProvider,
    MarketData,
    NewsItem,
    PriceSeries,
    ResponseCache,
    bm25_scores,
    cache_key,
    canonical_bytes,
    index_documents,
    retrieve,
    tokenize,
)
from finorch.errors import (
    CacheMiss,
    ConfigError,
    EmptyCorpus,
    EmptyQuery,
    ImmutableEntry,
    ProviderFailure,
    RateLimited,
    UnknownSymbol,
)
from oracles import oracle_bm25

FIXTURES = Path(__file__).parent / "fixtures"
MARKET_FIXTURES = Path(__file__).parent.parent / "fixtures"

WATERMARK = "ZZWATERMARKQ7"


# -------------------------------------------------------------------- types


def test_price_series_rejects_unsorted_dates() -> None:
    with pytest.raises(ValueError):
        PriceSeries.from_pairs(
            "T", [(dt.date(2024, 1, 2), "1.0"), (dt.date(2024, 1, 1), "2.0")]
        )


def test_price_series_rejects_duplicate_dates() -> None:
    with pytest.raises(ValueError):
        PriceSeries.from_pairs(
            "T", [(dt.date(2024, 1, 1), "1.0"), (dt.date(2024, 1, 1), "2.0")]
        )


def test_price_series_window_is_inclusive_and_before_is_strict() -> None:
    series = PriceSeries.from_pairs(
        "T",
        [
            (dt.date(2024, 1, 1), "1.0"),
            (dt.date(2024, 1, 2), "2.0"),
            (dt.date(2024, 1, 3), "3.0"),
        ],
    )
    window = series.window(dt.date(2024, 1, 1), dt.date(2024, 1, 2))
    assert window.dates() == [dt.date(2024, 1, 1), dt.date(2024, 1, 2)]
    strict = series.before(dt.date(2024, 1, 3))
    assert strict.dates() == [dt.date(2024, 1, 1), dt.date(2024, 1, 2)]


def test_price_series_keeps_decimal_strings_until_computation() -> None:
    series = PriceSeries.from_pairs("T", [(dt.date(2024, 1, 1), "172.40")])
    assert series.observations[0].close == "172.40"
    assert series.closes() == [172.40]


def test_company_bundle_rejects_post_cutoff_data() -> None:
    profile = CompanyProfile(name="T", exchange="X", industry="I", market_cap=1.0)
    prices = PriceSeries.from_pairs("T", [(dt.date(2024, 1, 10), "1.0")])
    fin = FinancialSnapshot(period="Q", metrics={"pe_ratio": 1.0})
    late_news = NewsItem(
        headline="h", summary="s", dated=dt.date(2024, 1, 11), source_id="n1"
    )
    with pytest.raises(ValueError):
        CompanyBundle(
            symbol="T",
            cutoff=dt.date(2024, 1, 10),
            profile=profile,
            prices=prices,
            news=(late_news,),
            financials=fin,
        )
    with pytest.raises(ValueError):
        CompanyBundle(
            symbol="T",
            cutoff=dt.date(2024, 1, 9),
            profile=profile,
            prices=prices,
            news=(),
            financials=fin,
        )


def test_financial_snapshot_items_are_sorted_by_name() -> None:
    snap = FinancialSnapshot(period="Q", metrics={"b": 2.0, "a": 1.0, "c": 3.0})
    assert [name for name, _ in snap.items()] == ["a", "b", "c"]


# -------------------------------------------------------------------- cache


def test_cache_key_ignores_param_order_but_not_values() -> None:
    a = cache_key("p", "candles", {"symbol": "AAPL", "from": "2024-01-01"})
    b = cache_key("p", "candles", {"from": "2024-01-01", "symbol": "AAPL"})
    c = cache_key("p", "candles", {"symbol": "MSFT", "from": "2024-01-01"})
    d = cache_key("q", "candles", {"symbol": "AAPL", "from": "2024-01-01"})
    e = cache_key("p", "news", {"symbol": "AAPL", "from": "2024-01-01"})
    assert a == b
    assert len({a, c, d, e}) == 4
    assert len(a) == 64 and all(ch in "0123456789abcdef" for ch in a)


def test_canonical_bytes_is_key_order_independent() -> None:
    assert canonical_bytes({"b": 1, "a": [1, 2]}) == canonical_bytes(
        {"a": [1, 2], "b": 1}
    )


def test_cache_round_trip_and_counters(tmp_path: Path) -> None:
    cache = ResponseCache(tmp_path)
    key = cache_key("p", "profile", {"symbol": "AAPL"})
    with pytest.raises(CacheMiss):
        cache.get(key)
    assert cache.misses == 1
    assert key not in cache
    cache.put(key, b'{"name":"Apple"}')
    assert key in cache
    assert cache.get(key) == b'{"name":"Apple"}'
    assert cache.hits == 1


def test_cache_reput_same_bytes_is_noop_different_bytes_raises(
    tmp_path: Path,
) -> None:
    cache = ResponseCache(tmp_path)
    key = cache_key("p", "profile", {"symbol": "AAPL"})
    cache.put(key, b"same")
    cache.put(key, b"same")  # no-op
    assert cache.get(key) == b"same"
    with pytest.raises(ImmutableEntry):
        cache.put(key, b"different")
    assert cache.get(key) == b"same"


def test_cache_rejects_non_digest_keys(tmp_path: Path) -> None:
    cache = ResponseCache(tmp_path)
    for bad in ("", "../escape", "UPPERCASE", "zz"):
        with pytest.raises(ValueError):
            cache.put(bad, b"x")


def test_cache_leaves_no_temp_files(tmp_path: Path) -> None:
    cache = ResponseCache(tmp_path)
    key = cache_key("p", "profile", {"symbol": "AAPL"})
    cache.put(key, b"payload")
    assert [p.name for p in tmp_path.iterdir()] == [key]


def test_cache_concurrent_puts_from_two_instances_leave_one_entry(
    tmp_path: Path,
) -> None:
    key = cache_key("p", "profile", {"symbol": "AAPL"})
    payload = b'{"name":"Apple"}' * 4096
    for round_n in range(20):  # each round races two fresh instances once
        root = tmp_path / f"round-{round_n}"
        caches = [ResponseCache(root), ResponseCache(root)]
        start = threading.Barrier(2, timeout=5)
        errors: list[BaseException] = []

        def put(cache: ResponseCache) -> None:
            start.wait()
            try:
                cache.put(key, payload)
            except BaseException as exc:  # surfaced by the assert below
                errors.append(exc)

        threads = [threading.Thread(target=put, args=(c,)) for c in caches]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert [p.name for p in root.iterdir()] == [key]
        assert (root / key).read_bytes() == payload


def test_cache_failed_put_removes_its_temp_file(
    tmp_path: Path, monkeypatch: pytest.MonkeyPatch
) -> None:
    cache = ResponseCache(tmp_path)
    key = cache_key("p", "profile", {"symbol": "AAPL"})

    def refuse(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(os, "replace", refuse)
    with pytest.raises(OSError, match="disk full"):
        cache.put(key, b"payload")
    assert list(tmp_path.iterdir()) == []


# ---------------------------------------------------------------- tokenizer


@pytest.mark.parametrize(
    ("text", "expected"),
    [
        ("Revenue beat guidance.", ["revenue", "beat", "guidance"]),
        ("P/E ratio: 26.4x", ["ratio", "26", "4x"]),
        ("snake_case splits", ["snake", "case", "splits"]),
        ("a I x", []),
        ("  UPPER lower  MiXeD ", ["upper", "lower", "mixed"]),
        ("", []),
        ("--- ***", []),
    ],
)
def test_tokenize_cases(text: str, expected: list[str]) -> None:
    assert tokenize(text) == expected


# -------------------------------------------------------------------- index


def _corpus() -> list[tuple[str, str]]:
    raw = json.loads((FIXTURES / "bm25_corpus.json").read_text(encoding="utf-8"))
    return [(doc_id, text) for doc_id, text in raw["documents"]]


def _queries() -> list[str]:
    raw = json.loads((FIXTURES / "bm25_corpus.json").read_text(encoding="utf-8"))
    return list(raw["queries"])


def test_index_rejects_empty_corpus_and_tokenless_documents() -> None:
    with pytest.raises(EmptyCorpus):
        index_documents([])
    with pytest.raises(EmptyCorpus) as err:
        index_documents([("d1", "ok words here"), ("d2", "!!!")])
    assert "d2" in str(err.value)


def test_index_rejects_duplicate_ids() -> None:
    with pytest.raises(ValueError):
        index_documents([("d1", "one two"), ("d1", "three four")])


def test_index_rebuild_is_deterministic() -> None:
    docs = _corpus()
    first = index_documents(docs)
    second = index_documents(docs)
    assert first.postings == second.postings
    assert first.doc_lengths == second.doc_lengths
    assert first.average_doc_length == second.average_doc_length
    assert len(first) == 10


def test_index_postings_are_consistent_with_tokenizer() -> None:
    docs = _corpus()
    index = index_documents(docs)
    for doc_id, text in docs:
        tokens = tokenize(text)
        assert index.doc_lengths[doc_id] == len(tokens)
        for term in set(tokens):
            assert index.postings[term][doc_id] == tokens.count(term)


def test_index_document_lookup() -> None:
    index = index_documents([("d1", "alpha beta")])
    assert index.document("d1").text == "alpha beta"
    with pytest.raises(KeyError):
        index.document("ghost")


# --------------------------------------------------------------------- bm25


def test_bm25_matches_oracle_on_fixture_corpus() -> None:
    docs = _corpus()
    index = index_documents(docs)
    for query in _queries():
        expected = oracle_bm25(docs, query)
        actual = bm25_scores(index, query)
        assert set(actual) == set(expected), query
        for doc_id, score in expected.items():
            assert actual[doc_id] == pytest.approx(score, abs=1e-9), (
                query,
                doc_id,
            )


def test_bm25_matches_oracle_on_random_corpora() -> None:
    vocab = (
        "revenue margin guidance quarter demand supply chip handset cloud "
        "data center growth cash flow dividend buyback inquiry tablet event "
        "memory price gaming auto design win services china europe"
    ).split()
    rng = random.Random(404)
    for _ in range(200):
        n_docs = rng.randint(3, 12)
        docs = [
            (
                f"d{i:02d}",
                " ".join(rng.choice(vocab) for _ in range(rng.randint(5, 40))),
            )
            for i in range(n_docs)
        ]
        query = " ".join(rng.choice(vocab) for _ in range(rng.randint(1, 4)))
        index = index_documents(docs)
        expected = oracle_bm25(docs, query)
        actual = bm25_scores(index, query)
        assert set(actual) == set(expected)
        for doc_id, score in expected.items():
            assert actual[doc_id] == pytest.approx(score, abs=1e-9)


def test_bm25_repeated_query_term_counts_twice() -> None:
    index = index_documents(_corpus())
    once = bm25_scores(index, "revenue")
    twice = bm25_scores(index, "revenue revenue")
    for doc_id, score in once.items():
        assert twice[doc_id] == pytest.approx(2 * score, abs=1e-12)


def test_bm25_scores_only_matching_documents() -> None:
    index = index_documents([("d1", "alpha beta"), ("d2", "gamma delta")])
    scores = bm25_scores(index, "alpha")
    assert set(scores) == {"d1"}


def test_bm25_rejects_tokenless_query() -> None:
    index = index_documents(_corpus())
    with pytest.raises(EmptyQuery):
        bm25_scores(index, "a !")


def test_retrieve_breaks_ties_by_ascending_doc_id() -> None:
    # d07 and d08 carry identical text, so their scores are bit-identical
    index = index_documents(_corpus())
    hits = retrieve(index, "margin pressure memory", 10)
    ids = [h.doc_id for h in hits]
    pos7, pos8 = ids.index("d07"), ids.index("d08")
    assert pos8 == pos7 + 1
    assert hits[pos7].score == hits[pos8].score


def test_retrieve_k_prefix_property() -> None:
    index = index_documents(_corpus())
    full = retrieve(index, "quarter revenue margin", 10)
    for k in range(1, len(full) + 1):
        assert retrieve(index, "quarter revenue margin", k) == full[:k]


def test_retrieve_rejects_bad_k_and_handles_no_matches() -> None:
    index = index_documents(_corpus())
    with pytest.raises(ValueError):
        retrieve(index, "revenue", 0)
    assert retrieve(index, "zebra unicorns", 3) == []


# ---------------------------------------------------------- fixture provider


def _raw_fixture(symbol: str) -> dict:
    return json.loads(
        (MARKET_FIXTURES / f"{symbol}.json").read_text(encoding="utf-8")
    )


def test_fixture_provider_unknown_symbol() -> None:
    provider = FixtureProvider(MARKET_FIXTURES)
    with pytest.raises(UnknownSymbol):
        provider.fetch("profile", {"symbol": "ZZZZ"})


def test_fixture_provider_unknown_endpoint() -> None:
    provider = FixtureProvider(MARKET_FIXTURES)
    with pytest.raises(ValueError):
        provider.fetch("quotes", {"symbol": "AAPL"})


def test_fixture_provider_candles_filter_matches_manual_filter() -> None:
    provider = FixtureProvider(MARKET_FIXTURES)
    start, end = "2024-04-01", "2024-04-18"
    got = provider.fetch(
        "candles", {"symbol": "AAPL", "from": start, "to": end}
    )
    expected = [
        pair for pair in _raw_fixture("AAPL")["prices"] if start <= pair[0] <= end
    ]
    assert got["observations"] == expected
    assert got["observations"][0][0] == "2024-04-01"
    assert got["observations"][-1][0] == "2024-04-18"


def test_fixture_provider_news_filter_is_inclusive() -> None:
    provider = FixtureProvider(MARKET_FIXTURES)
    got = provider.fetch(
        "news", {"symbol": "AAPL", "from": "2024-04-08", "to": "2024-04-15"}
    )
    assert [item["dated"] for item in got] == ["2024-04-08", "2024-04-11", "2024-04-15"]


def test_fixture_provider_metrics_picks_latest_snapshot_not_after_as_of() -> None:
    provider = FixtureProvider(MARKET_FIXTURES)
    got = provider.fetch("metrics", {"symbol": "AAPL", "as_of": "2024-04-18"})
    assert got["period"] == "2024-Q1"
    late = provider.fetch("metrics", {"symbol": "AAPL", "as_of": "2024-06-01"})
    assert WATERMARK in late["period"]  # post-cutoff snapshot exists in the file
    early = provider.fetch("metrics", {"symbol": "AAPL", "as_of": "2024-01-01"})
    assert early == {"period": "", "metrics": {}}


def test_fixture_provider_counts_calls() -> None:
    provider = FixtureProvider(MARKET_FIXTURES)
    provider.fetch("profile", {"symbol": "AAPL"})
    provider.fetch("profile", {"symbol": "AAPL"})
    assert provider.calls["profile"] == 2


# ----------------------------------------------------------- market service


def test_market_data_repeated_requests_hit_cache_not_provider(
    tmp_path: Path,
) -> None:
    provider = FixtureProvider(MARKET_FIXTURES)
    service = MarketData(provider, ResponseCache(tmp_path))
    first = service.company_bundle("AAPL", "2024-04-19", window_days=30)
    calls_after_first = dict(provider.calls)
    second = service.company_bundle("AAPL", "2024-04-19", window_days=30)
    assert second == first
    assert dict(provider.calls) == calls_after_first
    assert all(count == 1 for count in calls_after_first.values())


def test_market_data_cache_is_transparent(tmp_path: Path) -> None:
    cached = MarketData(FixtureProvider(MARKET_FIXTURES), ResponseCache(tmp_path))
    plain = MarketData(FixtureProvider(MARKET_FIXTURES), cache=None)
    args = ("AAPL", "2024-04-19")
    assert cached.company_bundle(*args) == plain.company_bundle(*args)
    # warm-cache read equals the plain read too
    assert cached.company_bundle(*args) == plain.company_bundle(*args)


def test_company_bundle_contains_only_pre_cutoff_data(tmp_path: Path) -> None:
    service = MarketData(FixtureProvider(MARKET_FIXTURES), ResponseCache(tmp_path))
    cutoff = dt.date(2024, 4, 19)
    bundle = service.company_bundle("AAPL", cutoff, window_days=30)
    assert all(date < cutoff for date in bundle.prices.dates())
    assert all(item.dated < cutoff for item in bundle.news)
    assert bundle.financials.period == "2024-Q1"
    assert WATERMARK not in json.dumps(bundle.to_dict(), ensure_ascii=False)


def test_company_bundle_respects_window_days(tmp_path: Path) -> None:
    service = MarketData(FixtureProvider(MARKET_FIXTURES), ResponseCache(tmp_path))
    bundle = service.company_bundle("AAPL", "2024-04-19", window_days=10)
    assert bundle.prices.dates()[0] >= dt.date(2024, 4, 9)
    assert all(item.dated >= dt.date(2024, 4, 9) for item in bundle.news)


def test_market_data_normalizes_types(tmp_path: Path) -> None:
    service = MarketData(FixtureProvider(MARKET_FIXTURES), ResponseCache(tmp_path))
    profile = service.get_company_profile("NVDA")
    assert profile.name == "NVIDIA Corp"
    assert profile.market_cap == pytest.approx(1520000.0)
    series = service.get_price_window("NVDA", "2024-01-02", "2024-01-05")
    assert series.symbol == "NVDA"
    assert [obs.close for obs in series.observations] == [
        "481.60",
        "476.05",
        "479.90",
        "487.45",
    ]
    news = service.get_news("NVDA", "2024-01-01", "2024-01-20")
    assert [n.dated.isoformat() for n in news] == ["2024-01-09", "2024-01-16"]
    fin = service.get_basic_financials("NVDA", "2024-01-28")
    assert fin.period == "2024-Q3"
    assert fin.metrics["gross_margin"] == pytest.approx(0.741)


# ------------------------------------------------------------ live provider


class FakeResponse:
    def __init__(self, status_code: int, body: object, headers: dict | None = None):
        self.status_code = status_code
        self._body = body
        self.headers = headers or {}

    def json(self) -> object:
        return self._body


class FinnhubFakeSession:
    """Serves Finnhub-shaped bodies derived from the AAPL fixture file."""

    def __init__(self) -> None:
        self.raw = _raw_fixture("AAPL")
        self.requests: list[tuple[str, dict]] = []

    @staticmethod
    def _noon_utc(date_str: str) -> int:
        day = dt.date.fromisoformat(date_str)
        stamp = dt.datetime.combine(day, dt.time(12, 0), tzinfo=dt.timezone.utc)
        return int(stamp.timestamp())

    def get(self, url: str, params: dict, timeout: float) -> FakeResponse:
        self.requests.append((url, dict(params)))
        assert params.get("token") == "unit-test-token"
        if url.endswith("/stock/profile2"):
            profile = self.raw["profile"]
            return FakeResponse(
                200,
                {
                    "name": profile["name"],
                    "exchange": profile["exchange"],
                    "finnhubIndustry": profile["industry"],
                    "marketCapitalization": profile["market_cap"],
                },
            )
        if url.endswith("/stock/candle"):
            lo, hi = int(params["from"]), int(params["to"])
            stamps = [
                (self._noon_utc(date), float(close))
                for date, close in self.raw["prices"]
            ]
            inside = [(ts, c) for ts, c in stamps if lo <= ts <= hi]
            if not inside:
                return FakeResponse(200, {"s": "no_data"})
            return FakeResponse(
                200,
                {
                    "s": "ok",
                    "t": [ts for ts, _ in inside],
                    "c": [c for _, c in inside],
                },
            )
        if url.endswith("/company-news"):
            lo, hi = params["from"], params["to"]
            return FakeResponse(
                200,
                [
                    {
                        "headline": item["headline"],
                        "summary": item["summary"],
                        "datetime": self._noon_utc(item["dated"]),
                        "source": item["source_id"],
                    }
                    for item in self.raw["news"]
                    if lo <= item["dated"] <= hi
                ],
            )
        if url.endswith("/stock/metric"):
            return FakeResponse(
                200,
                {"metric": dict(self.raw["financials"][0]["metrics"]), "series": {}},
            )
        raise AssertionError(f"unexpected url {url}")


def _live_provider(session: object) -> LiveProvider:
    return LiveProvider(
        base_url="https://example.invalid/api/v1",
        token_env="MARKET_TOKEN",
        session=session,
        env={"MARKET_TOKEN": "unit-test-token"},
    )


def test_live_provider_requires_token() -> None:
    provider = LiveProvider(
        base_url="https://example.invalid/api/v1",
        token_env="MARKET_TOKEN",
        session=FinnhubFakeSession(),
        env={},
    )
    with pytest.raises(ConfigError):
        provider.fetch("profile", {"symbol": "AAPL"})


def test_live_provider_maps_profile_fields() -> None:
    provider = _live_provider(FinnhubFakeSession())
    got = provider.fetch("profile", {"symbol": "AAPL"})
    assert got["name"] == "Apple Inc"
    assert got["industry"] == "Technology"
    assert got["market_cap"] == pytest.approx(2610000.0)


def test_live_provider_empty_profile_is_unknown_symbol() -> None:
    class EmptySession:
        def get(self, url: str, params: dict, timeout: float) -> FakeResponse:
            return FakeResponse(200, {})

    provider = _live_provider(EmptySession())
    with pytest.raises(UnknownSymbol):
        provider.fetch("profile", {"symbol": "ZZZZ"})


def test_live_provider_no_data_candles_are_empty() -> None:
    provider = _live_provider(FinnhubFakeSession())
    got = provider.fetch(
        "candles", {"symbol": "AAPL", "from": "1999-01-01", "to": "1999-01-31"}
    )
    assert got == {"observations": []}


def test_live_provider_http_error_carries_status() -> None:
    class FailingSession:
        def get(self, url: str, params: dict, timeout: float) -> FakeResponse:
            return FakeResponse(500, {"error": "boom"})

    provider = _live_provider(FailingSession())
    with pytest.raises(ProviderFailure) as err:
        provider.fetch("profile", {"symbol": "AAPL"})
    assert err.value.status == 500


def test_live_provider_request_error_is_a_provider_failure() -> None:
    import requests

    class DownSession:
        def get(self, url: str, params: dict, timeout: float) -> FakeResponse:
            raise requests.ConnectionError(
                f"cannot reach {url}?token={params['token']}"
            )

    provider = _live_provider(DownSession())
    with pytest.raises(ProviderFailure, match="/stock/profile2") as err:
        provider.fetch("profile", {"symbol": "AAPL"})
    assert "unit-test-token" not in str(err.value)


def test_live_provider_non_json_body_is_a_provider_failure() -> None:
    class HtmlResponse(FakeResponse):
        def json(self) -> object:
            return json.loads("<html>maintenance</html>")

    class HtmlSession:
        def get(self, url: str, params: dict, timeout: float) -> FakeResponse:
            return HtmlResponse(200, None)

    provider = _live_provider(HtmlSession())
    with pytest.raises(ProviderFailure, match="/stock/profile2"):
        provider.fetch("profile", {"symbol": "AAPL"})


def test_live_provider_honors_retry_after_then_succeeds() -> None:
    class RateLimitOnce:
        def __init__(self) -> None:
            self.calls = 0
            self.inner = FinnhubFakeSession()

        def get(self, url: str, params: dict, timeout: float) -> FakeResponse:
            self.calls += 1
            if self.calls == 1:
                return FakeResponse(429, {}, headers={"Retry-After": "2.5"})
            return self.inner.get(url, params, timeout)

    sleeps: list[float] = []
    session = RateLimitOnce()
    provider = LiveProvider(
        base_url="https://example.invalid/api/v1",
        token_env="MARKET_TOKEN",
        session=session,
        sleeper=sleeps.append,
        env={"MARKET_TOKEN": "unit-test-token"},
    )
    got = provider.fetch("profile", {"symbol": "AAPL"})
    assert got["name"] == "Apple Inc"
    assert sleeps == [2.5]
    assert session.calls == 2


def test_live_provider_persistent_rate_limit_raises() -> None:
    class AlwaysLimited:
        def get(self, url: str, params: dict, timeout: float) -> FakeResponse:
            return FakeResponse(429, {}, headers={"Retry-After": "7"})

    sleeps: list[float] = []
    provider = LiveProvider(
        base_url="https://example.invalid/api/v1",
        token_env="MARKET_TOKEN",
        session=AlwaysLimited(),
        sleeper=sleeps.append,
        rate_limit_retries=2,
        env={"MARKET_TOKEN": "unit-test-token"},
    )
    with pytest.raises(RateLimited) as err:
        provider.fetch("profile", {"symbol": "AAPL"})
    assert err.value.retry_after == 7.0
    assert sleeps == [7.0, 7.0]


@pytest.mark.parametrize(
    ("header", "expected"),
    [
        ("in a while", 1.0),  # unreadable: as if absent
        ("-5", 1.0),
        ("Wed, 21 Oct 2015 07:28:00 GMT", 0.0),  # a date in the past
        (None, 1.0),
    ],
)
def test_live_provider_reads_every_retry_after_form(
    header: str | None, expected: float
) -> None:
    class LimitedOnce:
        def __init__(self) -> None:
            self.inner = FinnhubFakeSession()
            self.limited = False

        def get(self, url: str, params: dict, timeout: float) -> FakeResponse:
            if self.limited:
                return self.inner.get(url, params, timeout)
            self.limited = True
            headers = {} if header is None else {"Retry-After": header}
            return FakeResponse(429, {}, headers=headers)

    sleeps: list[float] = []
    provider = LiveProvider(
        base_url="https://example.invalid/api/v1",
        token_env="MARKET_TOKEN",
        session=LimitedOnce(),
        sleeper=sleeps.append,
        env={"MARKET_TOKEN": "unit-test-token"},
    )
    assert provider.fetch("profile", {"symbol": "AAPL"})["name"] == "Apple Inc"
    assert sleeps == [expected]


def test_live_provider_retry_after_date_waits_until_then() -> None:
    in_a_minute = dt.datetime.now(dt.timezone.utc) + dt.timedelta(seconds=60)
    header = format_datetime(in_a_minute, usegmt=True)

    class AlwaysLimited:
        def get(self, url: str, params: dict, timeout: float) -> FakeResponse:
            return FakeResponse(429, {}, headers={"Retry-After": header})

    sleeps: list[float] = []
    provider = LiveProvider(
        base_url="https://example.invalid/api/v1",
        token_env="MARKET_TOKEN",
        session=AlwaysLimited(),
        sleeper=sleeps.append,
        rate_limit_retries=1,
        env={"MARKET_TOKEN": "unit-test-token"},
    )
    with pytest.raises(RateLimited) as err:
        provider.fetch("profile", {"symbol": "AAPL"})
    assert len(sleeps) == 1
    # HTTP dates carry whole seconds, so up to one second is lost.
    assert 55.0 < sleeps[0] <= 60.0
    assert 55.0 < err.value.retry_after <= 60.0


def test_live_and_fixture_providers_are_interchangeable(tmp_path: Path) -> None:
    """Bundles assembled from both providers agree field for field.

    The only tolerated differences are presentation details the upstream
    API does not carry: the profile description, the statement period
    label, and decimal-string formatting of closes.
    """
    cutoff = "2024-04-19"
    live = MarketData(
        _live_provider(FinnhubFakeSession()), ResponseCache(tmp_path / "live")
    )
    fixture = MarketData(
        FixtureProvider(MARKET_FIXTURES), ResponseCache(tmp_path / "fixture")
    )
    from_live = live.company_bundle("AAPL", cutoff, window_days=30)
    from_fixture = fixture.company_bundle("AAPL", cutoff, window_days=30)

    assert from_live.symbol == from_fixture.symbol
    assert from_live.cutoff == from_fixture.cutoff
    assert from_live.profile.name == from_fixture.profile.name
    assert from_live.profile.exchange == from_fixture.profile.exchange
    assert from_live.profile.industry == from_fixture.profile.industry
    assert from_live.profile.market_cap == from_fixture.profile.market_cap
    assert from_live.prices.dates() == from_fixture.prices.dates()
    assert from_live.prices.closes() == from_fixture.prices.closes()
    assert from_live.news == from_fixture.news
    assert from_live.financials.metrics == from_fixture.financials.metrics
    assert WATERMARK not in json.dumps(from_live.to_dict(), ensure_ascii=False)
