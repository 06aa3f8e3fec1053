"""Tests for the DataOps layer: typed market data, response cache,
BM25 retrieval, and the providers behind the MarketData service.

Retrieval scores are checked against the naive BM25 re-implementation in
oracles.py; provider filtering is checked against direct reads of the
fixture JSON files.
"""

from __future__ import annotations

import datetime as dt
import importlib.util
import json
import os
import random
import threading
from collections import Counter
from email.utils import format_datetime
from pathlib import Path
from urllib.parse import parse_qsl, urlsplit

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finorch.apps.reports import DEFAULT_TOPICS, REPORT_SECTIONS, chunk_text
from finorch.dataops.cache import ResponseCache, cache_key, canonical_bytes
from finorch.dataops.providers import (
    MAX_RETRY_AFTER,
    FixtureProvider,
    LiveProvider,
    MarketData,
)
from finorch.dataops.retrieval import (
    bm25_scores,
    index_documents,
    retrieve,
    tokenize,
)
from finorch.dataops.types import (
    CompanyBundle,
    CompanyProfile,
    FinancialSnapshot,
    NewsItem,
    PriceSeries,
)
from finorch.errors import (
    CacheMiss,
    ConfigError,
    EmptyCorpus,
    EngineError,
    ProviderFailure,
    RateLimited,
)
from finorch.gateway import BACKOFF_INITIAL
from finorch.httpclient import HttpClient, Response
from oracles import _bm25_tokenize, oracle_bm25, oracle_bm25_queries

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


def test_price_series_window_is_inclusive() -> None:
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
    # Data dated on the cutoff day is refused too: the cutoff is strict.
    same_day_news = NewsItem(
        headline="h", summary="s", dated=dt.date(2024, 1, 10), source_id="n2"
    )
    with pytest.raises(ValueError, match="news item dated 2024-01-10"):
        CompanyBundle(
            symbol="T",
            cutoff=dt.date(2024, 1, 10),
            profile=profile,
            prices=PriceSeries("T", ()),
            news=(same_day_news,),
            financials=fin,
        )
    with pytest.raises(ValueError, match="price dated 2024-01-10"):
        CompanyBundle(
            symbol="T",
            cutoff=dt.date(2024, 1, 10),
            profile=profile,
            prices=prices,
            news=(),
            financials=fin,
        )
    # The day before the cutoff is the last one allowed.
    CompanyBundle(
        symbol="T",
        cutoff=dt.date(2024, 1, 11),
        profile=profile,
        prices=prices,
        news=(same_day_news,),
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
    with pytest.raises(
        EngineError, match=f"^cache entry {key} already exists with different bytes$"
    ):
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


@pytest.mark.parametrize("method", ["get", "put"])
def test_cache_entry_that_is_a_directory_is_a_config_error(
    tmp_path: Path, method: str
) -> None:
    cache = ResponseCache(tmp_path)
    key = cache_key("p", "profile", {"symbol": "AAPL"})
    (tmp_path / key).mkdir()
    args = (key,) if method == "get" else (key, b"x")
    with pytest.raises(ConfigError, match="^cannot read cache entry "):
        getattr(cache, method)(*args)
    assert (cache.hits, cache.misses) == (0, 0)


def test_market_data_over_a_directory_cache_entry_is_a_config_error(
    tmp_path: Path,
) -> None:
    provider = FixtureProvider(MARKET_FIXTURES)
    key = cache_key(provider.provider_id, "profile", {"symbol": "AAPL"})
    (tmp_path / key).mkdir()
    service = MarketData(provider, ResponseCache(tmp_path))
    with pytest.raises(ConfigError, match=f"cannot read cache entry .*{key}"):
        service.company_bundle("AAPL", "2024-04-19")
    assert provider.calls["profile"] == 0


def test_cache_failed_put_removes_its_temp_file(
    tmp_path: Path, monkeypatch: pytest.MonkeyPatch
) -> None:
    cache = ResponseCache(tmp_path)
    key = cache_key("p", "profile", {"symbol": "AAPL"})

    def refuse(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(os, "replace", refuse)
    with pytest.raises(ConfigError, match="cannot write cache entry .*disk full"):
        cache.put(key, b"payload")
    assert list(tmp_path.iterdir()) == []


def test_cache_put_under_a_removed_root_is_a_config_error(tmp_path: Path) -> None:
    cache = ResponseCache(tmp_path / "cache")
    (tmp_path / "cache").rmdir()
    key = cache_key("p", "profile", {"symbol": "AAPL"})
    with pytest.raises(ConfigError, match=f"cannot write cache entry .*{key}"):
        cache.put(key, b"payload")


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
        ("Café “naïve” growth—fast’s", ["café", "naïve", "growth", "fast"]),
        ("营业收入，同比增长 2024年", ["营业收入", "同比增长", "2024年"]),
        ("٢٠٢٤ revenue", ["٢٠٢٤", "revenue"]),
        ("x² Ⅻ ⅫⅫ", ["x²", "ⅻⅻ"]),
        ("İstanbul ﬁnance", ["stanbul", "ﬁnance"]),  # İ lowers to i + U+0307
        ("e\u0301cole", ["cole"]),  # a combining accent is not alnum
        ("a\xa0bc\u3000de\u2028fg", ["bc", "de", "fg"]),
        ("ab\x00cd 😀ok", ["ab", "cd", "ok"]),
        ("ab\ud800cd", ["ab", "cd"]),  # a lone surrogate splits
    ],
)
def test_tokenize_cases(text: str, expected: list[str]) -> None:
    assert tokenize(text) == expected


# Characters where a byte-level tokenizer could part from str.isalnum():
# "_", digits, accented and typographic characters, NBSP, characters whose
# lowercase has another length (İ, and ﬁ whose uppercase does), a combining
# accent, superscript and Roman-numeral numerics, Arabic-Indic digits, CJK,
# an emoji and NUL.
EDGE_CHARS = st.sampled_from(
    list("aZ09 _.-'\n") + list("é—“”’\xa0İﬁ\u0301²Ⅻ٣中😀\x00")
)


@settings(max_examples=600, deadline=None, derandomize=True)
@given(
    text=st.one_of(
        st.text(), st.text(alphabet=st.one_of(EDGE_CHARS, st.characters()))
    )
)
def test_tokenize_matches_isalnum_oracle(text: str) -> None:
    expected = _bm25_tokenize(text)
    assert tokenize(text) == expected
    # the index counts words in its own pass; it must count the same tokens
    if expected:
        index = index_documents([("d1", text)])
        assert index.term_counts == (Counter(expected),)
        assert index.doc_lengths == (len(expected),)
    else:
        with pytest.raises(EmptyCorpus):
            index_documents([("d1", text)])


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
    with pytest.raises(EmptyCorpus):
        index_documents([("d1", "!!!"), ("d2", "a b c")])
    # a document with no token can match no query: it is left out
    index = index_documents([("d1", "!!!"), ("d2", "ok words"), ("d3", "- -")])
    assert list(index.documents) == ["d2"]
    assert index.term_counts == (Counter(["ok", "words"]),)
    assert index.doc_lengths == (2,)
    assert index.average_doc_length == 2.0


def test_index_rejects_duplicate_ids() -> None:
    with pytest.raises(ValueError):
        index_documents([("d1", "one two"), ("d1", "three four")])
    with pytest.raises(ValueError):
        index_documents([("d1", "---"), ("d1", "three four")])


def test_index_rebuild_is_deterministic() -> None:
    docs = _corpus()
    first = index_documents(docs)
    second = index_documents(docs)
    assert first.term_counts == second.term_counts
    assert [list(c) for c in first.term_counts] == [
        list(c) for c in second.term_counts
    ]
    assert first.doc_lengths == second.doc_lengths
    assert first.average_doc_length == second.average_doc_length
    assert len(first) == 10


def test_index_term_counts_are_consistent_with_tokenizer() -> None:
    docs = _corpus()
    index = index_documents(docs)
    for (_, text), counts, length in zip(
        docs, index.term_counts, index.doc_lengths, strict=True
    ):
        tokens = tokenize(text)
        assert length == len(tokens)
        assert counts == {term: tokens.count(term) for term in tokens}


def test_index_term_counts_keep_corpus_order() -> None:
    docs = _corpus()
    index = index_documents(docs[::-1])
    assert list(index.documents) == [d for d, _ in docs[::-1]]
    assert index.term_counts == tuple(
        Counter(tokenize(text)) for _, text in docs[::-1]
    )
    assert index.doc_lengths == tuple(len(tokenize(t)) for _, t in docs[::-1])
    assert index.average_doc_length == sum(index.doc_lengths) / len(docs)


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


# bm25_scores on the fixture corpus as computed by the regex tokenizer and
# per-token postings that came before; ties and ranks hang on these bits.
BM25_FIXTURE_SCORES = {
    "revenue guidance": {
        "d01": 2.80315946916039,
        "d05": 1.2220441754875329,
        "d10": 1.1887761852292513,
        "d02": 1.5297433166221144,
    },
    "margin pressure": {
        "d01": 0.9538504199340285,
        "d07": 2.5349657136068857,
        "d08": 2.5349657136068857,
        "d10": 0.6072016924995716,
    },
    "data center accelerator demand": {
        "d02": 6.1189732664884575,
        "d10": 4.026022790539912,
    },
    "app store inquiry": {
        "d04": 6.171498488462805,
    },
    "quarter revenue margin": {
        "d06": 1.18233876906375,
        "d07": 2.1758945954215614,
        "d08": 2.1758945954215614,
        "d01": 2.1758945954215614,
        "d05": 1.2220441754875329,
        "d10": 1.795977877728823,
    },
    "revenue revenue": {
        "d01": 2.4440883509750657,
        "d05": 2.4440883509750657,
        "d10": 2.3775523704585027,
    },
}


def test_bm25_scores_are_bit_identical_on_fixture_corpus() -> None:
    index = index_documents(_corpus())
    assert list(BM25_FIXTURE_SCORES) == _queries()
    for query, expected in BM25_FIXTURE_SCORES.items():
        assert list(bm25_scores(index, query).items()) == list(expected.items())


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


def _load_bench_gen():
    path = Path(__file__).resolve().parents[1] / "bench" / "gen.py"
    spec = importlib.util.spec_from_file_location("bench_gen", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _english_filing() -> str:
    """The benchmark's synthetic English filing, at 200k characters."""
    gen = _load_bench_gen()
    rng = random.Random(7)
    return gen.filing_text(rng, 200_000, gen.vocabulary(rng))


def _chinese_filing() -> str:
    """A Chinese filing without ASCII spaces: figures, full-width
    punctuation, and now and then an English term in brackets."""
    rng = random.Random(11)
    terms = (
        "营业收入 净利润 毛利率 经营活动现金流 总负债 公司业务 主要产品 "
        "同业竞争 市场份额 风险因素 监管政策 诉讼 未来展望 业绩指引"
    ).split()
    english = "revenue net income gross margin debt guidance outlook risk"
    pieces: list[str] = []
    size = 0
    while size < 200_000:
        piece = rng.choice(terms) + rng.choice(("为", "同比增长", "约", "："))
        piece += f"{rng.uniform(1, 99):.1f}" + rng.choice(("亿元", "%", "倍"))
        if rng.random() < 0.2:
            piece += f"（{rng.choice(english.split())}）"
        piece += rng.choice("，。；、：")
        pieces.append(piece)
        size += len(piece)
    return "".join(pieces)


@pytest.mark.parametrize(
    "filing", [_english_filing, _chinese_filing], ids=["english", "chinese"]
)
def test_bm25_matches_oracle_on_a_chunked_filing(filing) -> None:
    chunks = chunk_text(filing())
    docs = [(chunk.doc_id, chunk.text) for chunk in chunks]
    index = index_documents(chunks)
    queries = [*DEFAULT_TOPICS, *(query for _, query in REPORT_SECTIONS)]
    queries += ["营业收入 净利润", "风险因素"]
    assert len(chunks) > 200
    for query, expected in zip(queries, oracle_bm25_queries(docs, queries)):
        actual = bm25_scores(index, query)
        assert set(actual) == set(expected), query
        for doc_id, score in expected.items():
            assert actual[doc_id] == pytest.approx(score, abs=1e-9), (
                query,
                doc_id,
            )


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
    with pytest.raises(EngineError, match="^query 'a !' has no indexable tokens$"):
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
    with pytest.raises(ProviderFailure, match="^no fixture for symbol 'ZZZZ' under "):
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


def reply(status: int, body: object, headers: dict | None = None) -> Response:
    return Response(status, headers or {}, json.dumps(body).encode("utf-8"))


class FakeClient(HttpClient):
    """The live provider's HTTP seam: each round trip comes from
    ``answer(url)``, a ``Response`` or an exception it raises. Status,
    Retry-After and JSON handling are the real client's."""

    def __init__(self, answer) -> None:
        super().__init__()
        self.answer = answer
        self.urls: list[str] = []

    def send(self, method, url, body, headers, timeout) -> Response:
        assert method == "GET" and body is None
        self.urls.append(url)
        return self.answer(url)


class FinnhubFake:
    """Serves Finnhub-shaped bodies derived from the AAPL fixture file."""

    def __init__(self) -> None:
        self.raw = _raw_fixture("AAPL")

    @staticmethod
    def _noon_utc(date_str: str) -> int:
        day = dt.date.fromisoformat(date_str)
        stamp = dt.datetime.combine(day, dt.time(12, 0), tzinfo=dt.timezone.utc)
        return int(stamp.timestamp())

    def __call__(self, url: str) -> Response:
        parts = urlsplit(url)
        params = dict(parse_qsl(parts.query))
        assert params.get("token") == "unit-test-token"
        if parts.path.endswith("/stock/profile2"):
            profile = self.raw["profile"]
            return reply(
                200,
                {
                    "name": profile["name"],
                    "exchange": profile["exchange"],
                    "finnhubIndustry": profile["industry"],
                    "marketCapitalization": profile["market_cap"],
                },
            )
        if parts.path.endswith("/stock/candle"):
            lo, hi = int(params["from"]), int(params["to"])
            stamps = [
                (self._noon_utc(date), float(close))
                for date, close in self.raw["prices"]
            ]
            inside = [(ts, c) for ts, c in stamps if lo <= ts <= hi]
            if not inside:
                return reply(200, {"s": "no_data"})
            return reply(
                200,
                {
                    "s": "ok",
                    "t": [ts for ts, _ in inside],
                    "c": [c for _, c in inside],
                },
            )
        if parts.path.endswith("/company-news"):
            lo, hi = params["from"], params["to"]
            return reply(
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
        if parts.path.endswith("/stock/metric"):
            return reply(
                200,
                {"metric": dict(self.raw["financials"][0]["metrics"]), "series": {}},
            )
        raise AssertionError(f"unexpected url {url}")


def scripted(*first: Response):
    """Answers with ``first`` in order, then from the AAPL fixture."""
    pending = list(first)
    finnhub = FinnhubFake()
    return lambda url: pending.pop(0) if pending else finnhub(url)


@pytest.fixture(autouse=True)
def market_token(monkeypatch) -> None:
    """The live providers here read their token from ``MARKET_TOKEN``."""
    monkeypatch.setenv("MARKET_TOKEN", "unit-test-token")


def _live_provider(answer, sleeps: list[float] | None = None) -> LiveProvider:
    """A live provider on ``answer``: a ``FakeClient``, or its answer."""
    return LiveProvider(
        base_url="https://example.invalid/api/v1",
        token_env="MARKET_TOKEN",
        client=answer if isinstance(answer, FakeClient) else FakeClient(answer),
        sleeper=(sleeps if sleeps is not None else []).append,
    )


def test_live_provider_requires_token(monkeypatch) -> None:
    monkeypatch.delenv("MARKET_TOKEN")
    provider = _live_provider(FinnhubFake())
    with pytest.raises(ConfigError, match="'MARKET_TOKEN', which is unset"):
        provider.fetch("profile", {"symbol": "AAPL"})


def test_live_provider_reads_the_token_at_request_time(monkeypatch) -> None:
    provider = _live_provider(FinnhubFake())
    monkeypatch.delenv("MARKET_TOKEN")
    with pytest.raises(ConfigError):
        provider.fetch("profile", {"symbol": "AAPL"})
    monkeypatch.setenv("MARKET_TOKEN", "unit-test-token")
    assert provider.fetch("profile", {"symbol": "AAPL"})["name"] == "Apple Inc"


def test_live_provider_maps_profile_fields() -> None:
    provider = _live_provider(FinnhubFake())
    got = provider.fetch("profile", {"symbol": "AAPL"})
    assert got["name"] == "Apple Inc"
    assert got["industry"] == "Technology"
    assert got["market_cap"] == pytest.approx(2610000.0)


def test_live_provider_empty_profile_is_unknown_symbol() -> None:
    provider = _live_provider(lambda url: reply(200, {}))
    with pytest.raises(
        ProviderFailure, match="^profile lookup found nothing for 'ZZZZ'$"
    ):
        provider.fetch("profile", {"symbol": "ZZZZ"})


def test_live_provider_no_data_candles_are_empty() -> None:
    provider = _live_provider(FinnhubFake())
    got = provider.fetch(
        "candles", {"symbol": "AAPL", "from": "1999-01-01", "to": "1999-01-31"}
    )
    assert got == {"observations": []}


def test_live_provider_http_error_carries_status() -> None:
    """A 500 is retried like every transient server error; the last one
    surfaces with its status."""
    sleeps: list[float] = []
    client = FakeClient(lambda url: reply(500, {"error": "boom"}))
    provider = _live_provider(client, sleeps)
    with pytest.raises(ProviderFailure) as err:
        provider.fetch("profile", {"symbol": "AAPL"})
    assert err.value.status == 500
    assert len(client.urls) == 3 and len(sleeps) == 2


@pytest.mark.parametrize("status", [400, 401, 403, 404])
def test_live_provider_fails_at_once_on_a_client_error(status: int) -> None:
    sleeps: list[float] = []
    client = FakeClient(lambda url: reply(status, {"error": "no"}))
    provider = _live_provider(client, sleeps)
    with pytest.raises(ProviderFailure) as err:
        provider.fetch("profile", {"symbol": "AAPL"})
    assert err.value.status == status
    assert len(client.urls) == 1 and sleeps == []


def test_live_provider_request_error_is_a_provider_failure() -> None:
    def down(url: str) -> Response:
        raise ConnectionRefusedError(f"cannot reach {url}")

    provider = _live_provider(down)
    with pytest.raises(ProviderFailure, match="/stock/profile2") as err:
        provider.fetch("profile", {"symbol": "AAPL"})
    assert "unit-test-token" not in str(err.value)


def test_live_provider_non_json_body_is_a_provider_failure() -> None:
    provider = _live_provider(
        lambda url: Response(200, {}, b"<html>maintenance</html>")
    )
    with pytest.raises(ProviderFailure, match="/stock/profile2"):
        provider.fetch("profile", {"symbol": "AAPL"})


def test_live_provider_honors_retry_after_then_succeeds() -> None:
    sleeps: list[float] = []
    client = FakeClient(scripted(reply(429, {}, {"Retry-After": "2.5"})))
    provider = _live_provider(client, sleeps)
    got = provider.fetch("profile", {"symbol": "AAPL"})
    assert got["name"] == "Apple Inc"
    assert sleeps == [2.5]
    assert len(client.urls) == 2


def test_live_provider_persistent_rate_limit_raises() -> None:
    sleeps: list[float] = []
    provider = _live_provider(
        lambda url: reply(429, {}, {"Retry-After": "7"}), sleeps
    )
    with pytest.raises(RateLimited) as err:
        provider.fetch("profile", {"symbol": "AAPL"})
    assert err.value.retry_after == 7.0
    assert sleeps == [7.0, 7.0]


@pytest.mark.parametrize(
    "header",
    [
        "1e300",
        "Fri, 31 Dec 9999 23:59:59 GMT",
        str(MAX_RETRY_AFTER + 1),
        pytest.param("9" * 400, id="400-digits"),  # inf as a float
    ],
)
def test_live_provider_refuses_a_retry_after_beyond_the_cap(header: str) -> None:
    sleeps: list[float] = []
    client = FakeClient(lambda url: reply(429, {}, {"Retry-After": header}))
    provider = _live_provider(client, sleeps)
    with pytest.raises(RateLimited) as err:
        provider.fetch("profile", {"symbol": "AAPL"})
    assert sleeps == []
    assert len(client.urls) == 1
    assert err.value.retry_after > MAX_RETRY_AFTER
    assert str(err.value).endswith(f"asks for more than {MAX_RETRY_AFTER:g}s")


@pytest.mark.parametrize(
    ("header", "expected"),
    [
        ("in a while", 1.0),  # unreadable: one second
        ("-5", 1.0),
        ("Wed, 21 Oct 2015 07:28:00 GMT", 0.0),  # a date in the past
    ],
)
def test_live_provider_reads_every_retry_after_form(
    header: str, expected: float
) -> None:
    sleeps: list[float] = []
    provider = _live_provider(
        scripted(reply(429, {}, {"Retry-After": header})), sleeps
    )
    assert provider.fetch("profile", {"symbol": "AAPL"})["name"] == "Apple Inc"
    assert sleeps == [expected]


def test_live_provider_without_retry_after_backs_off_with_full_jitter() -> None:
    """No Retry-After: the first retry waits a full-jitter draw from the
    first backoff window."""
    sleeps: list[float] = []
    provider = _live_provider(scripted(reply(429, {})), sleeps)
    assert provider.fetch("profile", {"symbol": "AAPL"})["name"] == "Apple Inc"
    (delay,) = sleeps
    assert 0.0 <= delay <= BACKOFF_INITIAL


def test_live_provider_retry_after_date_waits_until_then() -> None:
    in_a_minute = dt.datetime.now(dt.timezone.utc) + dt.timedelta(seconds=60)
    header = format_datetime(in_a_minute, usegmt=True)
    sleeps: list[float] = []
    provider = _live_provider(
        lambda url: reply(429, {}, {"Retry-After": header}), sleeps
    )
    with pytest.raises(RateLimited) as err:
        provider.fetch("profile", {"symbol": "AAPL"})
    assert len(sleeps) == 2
    # HTTP dates carry whole seconds, so up to one second is lost.
    assert all(55.0 < delay <= 60.0 for delay in sleeps)
    assert 55.0 < err.value.retry_after <= 60.0


def test_live_and_fixture_providers_are_interchangeable(tmp_path: Path) -> None:
    """Bundles assembled from both providers agree field for field.

    The only tolerated differences are presentation details the upstream
    API does not carry: the profile description, the statement period
    label, and decimal-string formatting of closes.
    """
    cutoff = "2024-04-19"
    live = MarketData(
        _live_provider(FinnhubFake()), ResponseCache(tmp_path / "live")
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


def with_body(path: str, edit):
    """FinnhubFake, but the JSON body it serves for ``path`` goes through
    ``edit`` first."""
    finnhub = FinnhubFake()

    def answer(url: str) -> Response:
        response = finnhub(url)
        if not urlsplit(url).path.endswith(path):
            return response
        return reply(200, edit(json.loads(response.body)))

    return answer


def _null_cap(body: dict) -> dict:
    return {**body, "marketCapitalization": None}


def _null_news_stamp(body: list) -> list:
    return [{**body[0], "datetime": None}, *body[1:]]


def _two_closes_one_day(body: dict) -> dict:
    # Noon and 13:00 UTC of the same day: two closes for one date.
    return {**body, "t": [body["t"][0], body["t"][0] + 3600], "c": [1.0, 2.0]}


MALFORMED_BODIES = [
    ("/stock/profile2", _null_cap, "TypeError"),
    ("/company-news", _null_news_stamp, "TypeError"),
    ("/stock/candle", _two_closes_one_day, "ValueError"),
]


@pytest.mark.parametrize(
    ("path", "edit", "cause"), MALFORMED_BODIES, ids=["cap", "news", "candle"]
)
def test_malformed_live_body_is_a_provider_failure(
    tmp_path: Path, path, edit, cause
) -> None:
    market = MarketData(
        _live_provider(with_body(path, edit)), ResponseCache(tmp_path)
    )
    with pytest.raises(ProviderFailure) as err:
        market.company_bundle("AAPL", "2024-04-19", window_days=30)
    message = str(err.value)
    assert message.startswith("finnhub sent malformed market data for 'AAPL': ")
    assert cause in message
    assert "unit-test-token" not in message
    assert err.value.__cause__ is None and err.value.__suppress_context__
