"""Acceptance gate: one test per shipped guarantee, ten in total, plus a
second test for criterion 7 so offline byte-determinism covers reports too.

Each test is independent, rebuilds what it needs from committed fixtures,
checks the guarantee against an oracle implemented locally (never against
the code under test), and finishes by printing one ``ACCEPTANCE <n>: PASS``
line. The pytest -v status line per test is the machine-readable record.
"""

from __future__ import annotations

import datetime as dt
import json
import math
import random
import time

import pytest

from finorch.analytics import (
    EpisodeTrace,
    RatioPanel,
    TokenLikelihoods,
    Transition,
    causal_nll,
    discounted_return,
    log_return,
    normalize_ratio_panel,
)
from finorch.apps.forecaster import build_forecast_prompt, parse_forecast
from finorch.dataops.providers import FixtureProvider, MarketData
from finorch.dataops.retrieval import bm25_scores, index_documents, retrieve
from finorch.dataops.types import PriceObservation, PriceSeries
from finorch.errors import DomainError, EngineError, ParseError
from finorch.prompts import PromptStore
from finorch.scheduler import composite_score, normalize_scores
from finorch.tools.dsl import eval_dsl

from clirun import run_cli
from test_config import REPO, write_config

FIXTURES = REPO / "tests" / "fixtures"
WATERMARK = "ZZWATERMARKQ7"


def _ok(number: int, message: str) -> None:
    print(f"ACCEPTANCE {number}: PASS — {message}")


# ---------------------------------------------------------------- 1 and 2


def test_criterion_01_english_forecast_text_parses_exactly():
    text = (FIXTURES / "forecast_nvda_en.txt").read_text(encoding="utf-8")
    started = time.perf_counter()
    result = parse_forecast(text, language="en")
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0, f"parse took {elapsed:.3f}s"
    assert len(result.positives) == 4
    assert len(result.concerns) == 3
    assert result.direction == "up"
    assert (result.low, result.high) == (0.0, 1.0)
    assert [item.evidence_tag for item in result.positives] == [
        "Stock Price",
        "News",
        "News",
        "Basic Financials",
    ]
    _ok(1, "English forecast text parses to the exact structure in "
           f"{elapsed * 1000:.1f}ms")


def test_criterion_02_chinese_forecast_text_parses_exactly():
    text = (FIXTURES / "forecast_moutai_zh.txt").read_text(encoding="utf-8")
    started = time.perf_counter()
    result = parse_forecast(text, language="zh")
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0, f"parse took {elapsed:.3f}s"
    assert len(result.positives) == 4
    assert len(result.concerns) == 3
    assert result.direction == "up"
    assert (result.low, result.high) == (0.0, 1.0)
    _ok(2, "Chinese forecast text parses to the exact structure in "
           f"{elapsed * 1000:.1f}ms")


# --------------------------------------------------------------------- 3


def test_criterion_03_forecast_prompt_has_ordered_blocks_and_window():
    market = MarketData(FixtureProvider(REPO / "fixtures"))
    bundle = market.company_bundle("AAPL", dt.date(2024, 4, 19))
    messages = build_forecast_prompt(
        bundle, dt.date(2024, 4, 19), 7, "en", PromptStore()
    )
    user = messages[-1].content
    blocks = [
        "a. Company Introduction",
        "b. Stock Price Changes",
        "c. Recent News Information",
        "d. Recent Basic Financials",
    ]
    positions = [user.index(block) for block in blocks]  # raises if absent
    assert positions == sorted(positions), "blocks out of order"
    assert "Based on all the information before 2024-04-19" in user
    assert "(2024-04-22 to 2024-04-26)" in user
    _ok(3, "forecast prompt renders blocks a-d in order with the "
           "2024-04-22 to 2024-04-26 horizon window")


# --------------------------------------------------------------------- 4


def _oracle_normalize(raw: dict[str, dict[str, float]]) -> dict[str, dict[str, float]]:
    agents = sorted(raw)
    dims = sorted(next(iter(raw.values())))
    out: dict[str, dict[str, float]] = {a: {} for a in agents}
    for dim in dims:
        column = [raw[a][dim] for a in agents]
        lo, hi = min(column), max(column)
        for agent in agents:
            if hi == lo:
                out[agent][dim] = 1.0
            else:
                out[agent][dim] = (raw[agent][dim] - lo) / (hi - lo)
    return out


def _oracle_rank(composites: dict[str, float]) -> list[str]:
    return [
        agent
        for agent, _ in sorted(
            composites.items(), key=lambda kv: (-kv[1], kv[0])
        )
    ]


def test_criterion_04_scheduler_math_against_oracle():
    rng = random.Random(40419)
    started = time.perf_counter()
    for trial in range(1000):
        n_agents = rng.randint(2, 8)
        n_dims = rng.randint(1, 5)
        agents = [f"agent-{chr(97 + i)}" for i in range(n_agents)]
        dims = [f"dim{j}" for j in range(n_dims)]
        raw: dict[str, dict[str, float]] = {
            a: {d: rng.uniform(0.0, 10.0) for d in dims} for a in agents
        }
        if trial % 5 == 0:  # force ties and degenerate columns
            clone_of = agents[0]
            for other in agents[1:][: rng.randint(1, n_agents - 1)]:
                raw[other] = dict(raw[clone_of])
            flat_dim = rng.choice(dims)
            for a in agents:
                raw[a][flat_dim] = 4.2

        weight_mass = [rng.uniform(0.05, 1.0) for _ in dims]
        total = math.fsum(weight_mass)
        weights = {d: w / total for d, w in zip(dims, weight_mass)}

        normalized = normalize_scores(raw)
        oracle_norm = _oracle_normalize(raw)
        for a in agents:
            for d in dims:
                assert abs(normalized[a][d] - oracle_norm[a][d]) <= 1e-9

        composites = {
            a: composite_score(normalized[a], weights) for a in agents
        }
        oracle_composites = {
            a: math.fsum(weights[d] * oracle_norm[a][d] for d in sorted(dims))
            for a in agents
        }
        for a in agents:
            assert abs(composites[a] - oracle_composites[a]) <= 1e-9

        ranking = _oracle_rank(composites)
        assert ranking == _oracle_rank(oracle_composites)

        # Affine rescaling of any dimension's raw column must not change
        # the ranking: min-max normalization absorbs scale and offset.
        rescaled = {
            a: {
                d: raw[a][d] * 3.5 + 11.0 if d == dims[0] else raw[a][d]
                for d in dims
            }
            for a in agents
        }
        rescaled_norm = normalize_scores(rescaled)
        rescaled_rank = _oracle_rank(
            {a: composite_score(rescaled_norm[a], weights) for a in agents}
        )
        assert rescaled_rank == ranking, f"trial {trial}: affine variance"
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0, f"1000 matrices took {elapsed:.1f}s"
    _ok(4, "normalize/composite/ranking match the oracle on 1000 random "
           f"matrices with affine invariance in {elapsed:.2f}s")


# --------------------------------------------------------------------- 5


def test_criterion_05_analytics_against_oracles():
    rng = random.Random(50419)

    for _ in range(1000):
        n = rng.randint(2, 40)
        f = rng.randint(1, n - 1)
        base = dt.date(2024, 1, 1)
        closes = [f"{rng.uniform(1.0, 900.0):.4f}" for _ in range(n)]
        series = PriceSeries(
            symbol="RND",
            observations=tuple(
                PriceObservation(date=base + dt.timedelta(days=i), close=c)
                for i, c in enumerate(closes)
            ),
        )
        returns = log_return(series, f)
        assert len(returns) == n - f
        for i, (dated, value) in enumerate(returns):
            oracle = math.log(float(closes[i + f]) / float(closes[i]))
            assert abs(value - oracle) <= 1e-12
            assert dated == base + dt.timedelta(days=i + f)

    for _ in range(1000):
        probs = tuple(
            rng.uniform(1e-6, 1.0) for _ in range(rng.randint(1, 60))
        )
        oracle = 0.0
        for p in probs:
            oracle -= math.log(p)
        assert abs(causal_nll(TokenLikelihoods(probs=probs)) - oracle) <= 1e-12

    for _ in range(1000):
        gamma = rng.uniform(0.0, 0.999)
        transitions = tuple(
            Transition(state=f"s{t}", action="hold",
                       reward=rng.uniform(-5.0, 5.0))
            for t in range(rng.randint(1, 50))
        )
        trace = EpisodeTrace(transitions=transitions, gamma=gamma)
        oracle, power = 0.0, 1.0
        for tr in transitions:
            oracle += power * tr.reward
            power *= gamma
        assert abs(discounted_return(trace) - oracle) <= 1e-12

    for _ in range(1000):
        n = rng.randint(2, 12)
        values = [rng.uniform(-40.0, 40.0) for _ in range(n)]
        if rng.random() < 0.1:
            values = [values[0]] * n  # degenerate panel
        peers = {f"peer-{i}": v for i, v in enumerate(values)}
        subject = f"peer-{rng.randrange(n)}"
        verdict = normalize_ratio_panel(
            RatioPanel(ratio_name="pe", peers=peers, subject=subject)
        )
        mean = math.fsum(values) / n
        variance = math.fsum((v - mean) ** 2 for v in values) / n
        if variance == 0.0:
            assert verdict.zscore is None
            assert verdict.degenerate
        else:
            oracle = (peers[subject] - mean) / math.sqrt(variance)
            assert verdict.zscore is not None
            assert abs(verdict.zscore - oracle) <= 1e-9

    # Hand-derived anchors.
    pair = PriceSeries(
        symbol="ANCHOR",
        observations=(
            PriceObservation(date=dt.date(2024, 1, 1), close="100.0"),
            PriceObservation(date=dt.date(2024, 1, 2), close="110.0"),
        ),
    )
    anchor_return = log_return(pair, 1)[0][1]
    assert round(anchor_return, 7) == 0.0953102

    anchor_nll = causal_nll(TokenLikelihoods(probs=(0.5, 0.5)))
    assert round(anchor_nll, 7) == 1.3862944

    anchor_geometric = discounted_return(
        EpisodeTrace(
            transitions=tuple(
                Transition(state=f"s{t}", action="hold", reward=1.0)
                for t in range(3)
            ),
            gamma=0.5,
        )
    )
    assert anchor_geometric == 1.75
    _ok(5, "analytics match brute-force oracles on 4x1000 instances and "
           "reproduce all three hand anchors")


# --------------------------------------------------------------------- 6


def test_criterion_06_bm25_against_oracle():
    corpus = json.loads(
        (FIXTURES / "bm25_corpus.json").read_text(encoding="utf-8")
    )
    docs = corpus["documents"]
    assert len(docs) == 10
    index = index_documents(docs)

    def oracle_tokenize(text: str) -> list[str]:
        import re

        return [
            t
            for t in re.findall(r"[^\W_]+", text.lower(), flags=re.UNICODE)
            if len(t) > 1
        ]

    tokenized = {doc_id: oracle_tokenize(text) for doc_id, text in docs}
    n_docs = len(docs)
    avg_len = sum(len(t) for t in tokenized.values()) / n_docs

    def oracle_scores(query: str) -> dict[str, float]:
        out: dict[str, float] = {}
        for term in oracle_tokenize(query):
            df = sum(1 for toks in tokenized.values() if term in toks)
            if df == 0:
                continue
            idf = math.log(1.0 + (n_docs - df + 0.5) / (df + 0.5))
            for doc_id, toks in tokenized.items():
                tf = toks.count(term)
                if tf == 0:
                    continue
                norm = 1.0 - 0.75 + 0.75 * (len(toks) / avg_len)
                out[doc_id] = out.get(doc_id, 0.0) + (
                    idf * tf * (1.2 + 1.0) / (tf + 1.2 * norm)
                )
        return out

    for query in corpus["queries"]:
        actual = bm25_scores(index, query)
        expected = oracle_scores(query)
        assert set(actual) == set(expected), query
        for doc_id in expected:
            assert abs(actual[doc_id] - expected[doc_id]) <= 1e-9, (
                query,
                doc_id,
            )

    # Deterministic tie-break: two copies of one text differing only in id
    # must come back in ascending doc_id order, stable across rebuilds.
    tie_docs = [["t-b", "alpha beta gamma"], ["t-a", "alpha beta gamma"],
                ["t-c", "unrelated filler text"]]
    for _ in range(5):
        hits = retrieve(index_documents(tie_docs), "alpha beta", 2)
        assert [h.doc_id for h in hits] == ["t-a", "t-b"]
    _ok(6, "BM25 scores match the oracle on the 10-document corpus with "
           "deterministic tie-breaks")


# --------------------------------------------------------------------- 7


def test_criterion_07_offline_forecast_is_byte_deterministic(tmp_path):
    config_path = write_config(tmp_path)
    started = time.perf_counter()

    first = run_cli(
        ["forecast", "AAPL", "--offline", "--config", str(config_path)]
    )
    assert first.exit_code == 0, first.output
    run_dir = tmp_path / "runs" / "forecast-AAPL-20240419-h7-en"
    forecast_bytes = (run_dir / "forecast.json").read_bytes()
    trace_bytes = (run_dir / "trace.jsonl").read_bytes()
    assert forecast_bytes and trace_bytes

    second = run_cli(
        ["forecast", "AAPL", "--offline", "--config", str(config_path)]
    )
    assert second.exit_code == 0, second.output
    elapsed = time.perf_counter() - started
    assert (run_dir / "forecast.json").read_bytes() == forecast_bytes
    assert (run_dir / "trace.jsonl").read_bytes() == trace_bytes
    assert second.output == first.output
    assert elapsed < 30.0, f"two runs took {elapsed:.1f}s"
    _ok(7, "offline forecast produced byte-identical forecast.json and "
           f"trace.jsonl twice in {elapsed:.2f}s")


def test_criterion_07_offline_report_is_byte_deterministic(tmp_path):
    config_path = write_config(tmp_path)
    doc = FIXTURES / "acme_filing.txt"
    args = ["report", str(doc), "--offline", "--config", str(config_path)]
    names = ("report.md", "report.txt", "analysis.json", "trace.jsonl")
    started = time.perf_counter()

    first = run_cli(args)
    assert first.exit_code == 0, first.output
    run_dir = tmp_path / "runs" / "report-acme-filing-acme_filing-en"
    before = {name: (run_dir / name).read_bytes() for name in names}
    assert all(before.values())

    second = run_cli(args)
    assert second.exit_code == 0, second.output
    elapsed = time.perf_counter() - started
    for name in names:
        assert (run_dir / name).read_bytes() == before[name], name
    assert second.output == first.output
    assert elapsed < 30.0, f"two runs took {elapsed:.1f}s"
    _ok(7, "offline report produced byte-identical report.md, report.txt, "
           f"analysis.json and trace.jsonl twice in {elapsed:.2f}s")


# --------------------------------------------------------------------- 8


def test_criterion_08_watermark_never_reaches_prompts(tmp_path, monkeypatch):
    # The sentinel is genuinely planted in the post-cutoff fixture items.
    for symbol in ("AAPL", "NVDA"):
        fixture = (REPO / "fixtures" / f"{symbol}.json").read_text(
            encoding="utf-8"
        )
        assert WATERMARK in fixture, "sentinel missing from fixture"

    from finorch.gateway import MockTransport

    sent: list[str] = []
    original_send = MockTransport.send

    def recording_send(self, spec, payload):
        for message in payload.get("messages", []):
            sent.append(str(message.get("content", "")))
        return original_send(self, spec, payload)

    monkeypatch.setattr(MockTransport, "send", recording_send)

    config_path = write_config(tmp_path)
    matrix = [
        ["forecast", "AAPL", "--offline"],
        ["forecast", "AAPL", "--offline", "--lang", "zh"],
        ["forecast", "NVDA", "--offline", "--cutoff", "2024-01-29"],
        ["evaluate", "--offline"],
        [
            "report",
            str(FIXTURES / "acme_filing.txt"),
            "--offline",
        ],
    ]
    for args in matrix:
        result = run_cli([*args, "--config", str(config_path)])
        assert result.exit_code == 0, (args, result.output)
        assert WATERMARK not in result.output

    assert sent, "no prompts were captured"
    occurrences = sum(WATERMARK in content for content in sent)
    assert occurrences == 0, f"{occurrences} prompt(s) leak the sentinel"

    for artifact in sorted((tmp_path / "runs").rglob("*")):
        if artifact.is_file():
            text = artifact.read_text(encoding="utf-8")
            assert WATERMARK not in text, artifact
    for state_file in sorted((tmp_path / "state").rglob("*.jsonl")):
        assert WATERMARK not in state_file.read_text(encoding="utf-8")
    _ok(8, f"watermark sentinel absent from all {len(sent)} prompts and "
           "every artifact across the offline matrix")


# --------------------------------------------------------------------- 9


def test_criterion_09_evaluate_then_route_picks_correct_agent(tmp_path):
    golden = json.loads(
        "[" + ",".join(
            line
            for line in (REPO / "fixtures" / "golden" / "forecast.jsonl")
            .read_text(encoding="utf-8")
            .splitlines()
            if line.strip()
        ) + "]"
    )
    assert len(golden) == 4, "forecast golden set must have 4 records"

    for run in range(20):
        workspace = tmp_path / f"run-{run:02d}"
        workspace.mkdir()
        config_path = write_config(workspace)
        evaluated = run_cli(
            ["evaluate", "--offline", "--kind", "forecast",
             "--config", str(config_path)],
        )
        assert evaluated.exit_code == 0, evaluated.output
        routed = run_cli(
            ["route", "forecast", "--offline", "--config", str(config_path)],
        )
        assert routed.exit_code == 0, routed.output
        assert routed.output.strip() == "forecaster-primary", (
            f"run {run}: routed to {routed.output.strip()!r}"
        )
    _ok(9, "evaluate + route chose the always-correct agent in 20/20 "
           "fresh workspaces")


# -------------------------------------------------------------------- 10


def _random_program(rng: random.Random, depth: int) -> str:
    if depth <= 0 or rng.random() < 0.25:
        if rng.random() < 0.4:
            return rng.choice(["x", "y", "z"])
        return f"{rng.uniform(0.1, 99.0):.4f}"
    form = rng.randrange(6)
    if form == 0:
        op = rng.choice(["+", "-", "*", "/"])
        return (
            f"({_random_program(rng, depth - 1)} {op} "
            f"{_random_program(rng, depth - 1)})"
        )
    if form == 1:
        fn = rng.choice(["abs", "ln", "exp"])
        return f"{fn}({_random_program(rng, depth - 1)})"
    if form == 2:
        fn = rng.choice(["min", "max"])
        args = ", ".join(
            _random_program(rng, depth - 1)
            for _ in range(rng.randint(2, 3))
        )
        return f"{fn}({args})"
    if form == 3:
        fn = rng.choice(["mean", "std"])
        items = ", ".join(
            _random_program(rng, depth - 1)
            for _ in range(rng.randint(1, 4))
        )
        return f"{fn}([{items}])"
    if form == 4:
        cmp_op = rng.choice(["<", "<=", ">", ">=", "==", "!="])
        return (
            f"if {_random_program(rng, depth - 1)} {cmp_op} "
            f"{_random_program(rng, depth - 1)} "
            f"then {_random_program(rng, depth - 1)} "
            f"else {_random_program(rng, depth - 1)}"
        )
    return f"({_random_program(rng, depth - 1)})"


def test_criterion_10_dsl_terminates_fast_and_fails_closed():
    rng = random.Random(100419)
    inputs = {"x": 2.5, "y": -1.25, "z": 10.0}
    slowest = 0.0
    for i in range(10_000):
        source = _random_program(rng, rng.randint(0, 6))

        def attempt() -> None:
            try:
                eval_dsl(source, inputs)
            except EngineError:
                pass  # domain failures still count as clean termination

        timings = []
        for _ in range(2):
            started = time.perf_counter()
            attempt()
            timings.append(time.perf_counter() - started)
        best = min(timings)
        slowest = max(slowest, best)
        assert best <= 0.010, f"program {i} took {best * 1000:.2f}ms: {source}"

    adversarial = json.loads(
        (FIXTURES / "dsl_adversarial.json").read_text(encoding="utf-8")
    )
    assert adversarial, "adversarial fixture is empty"
    for case in adversarial:
        with pytest.raises((ParseError, DomainError)) as excinfo:
            eval_dsl(case["source"], case.get("inputs", {}))
        assert type(excinfo.value).__name__ == case["error"], case["source"]
    _ok(10, "10000 random DSL programs terminated (slowest "
            f"{slowest * 1000:.2f}ms) and all {len(adversarial)} adversarial "
            "programs failed closed")
