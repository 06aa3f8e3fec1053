"""Tests of the benchmark's own parts.

Run from the repository root: ``python -m pytest -q bench/tests``.
"""

from __future__ import annotations

import http.client
import json
import math
import random
import sys
import threading
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
REPO = BENCH.parent
sys.path[:0] = [str(BENCH), str(REPO / "src")]

import gen  # noqa: E402
import run  # noqa: E402
import standin  # noqa: E402
import stats  # noqa: E402
from spans import Recorder, self_times  # noqa: E402


# ── waves and intervals ──────────────────────────────────────────────────


def sequential(n, start=0.0, length=1.0, gap=0.1):
    out = []
    for _ in range(n):
        out.append((start, start + length))
        start += length + gap
    return out


def test_sequential_calls_are_one_wave_each():
    assert stats.waves(sequential(12)) == 12


def test_parallel_calls_share_a_wave():
    # extraction fan-out (5), section fan-out (5), then two sequential calls
    intervals = [(0.0, 1.0 + k * 0.1) for k in range(5)]
    intervals += [(2.0, 3.0 + k * 0.1) for k in range(5)]
    intervals += [(4.0, 5.0), (5.1, 6.0)]
    assert stats.waves(intervals) == 4


def test_a_bounded_pool_counts_its_critical_path():
    # four workers over five calls: the fifth waits for the first to end
    intervals = [(0.0, 1.0), (0.0, 1.2), (0.0, 1.3), (0.0, 1.4), (1.0, 2.0)]
    assert stats.waves(intervals) == 2


def test_no_calls_no_waves():
    assert stats.waves([]) == 0
    assert stats.covered([]) == 0.0


def test_covered_is_the_union_length():
    assert stats.covered([(0, 2), (1, 3), (5, 6)]) == pytest.approx(4.0)


def test_self_time_subtracts_the_union_of_children():
    spans = [
        ["op", 0.0, 10.0, -1, 0, None],
        ["a", 1.0, 4.0, 0, 0, None],
        ["b", 3.0, 5.0, 0, 0, None],  # overlaps a
        ["c", 2.0, 3.0, 1, 0, None],  # grandchild: inside a
    ]
    assert self_times(spans) == pytest.approx([6.0, 2.0, 2.0, 1.0])


# ── the tail percentile ──────────────────────────────────────────────────


@pytest.mark.parametrize(
    "n, expected",
    [(10, 50.0), (33, 50.0), (34, 70.0), (40, 75.0), (100, 90.0), (200, 95.0),
     (999, 98.0), (1999, 99.0), (2000, 99.5), (10_000, 99.9)],
)
def test_tail_percentile_leaves_ten_samples_beyond(n, expected):
    pct = stats.tail_percentile(n)
    assert pct == expected
    assert pct == 50.0 or round(n * (100 - pct) / 100, 6) >= 10


def test_each_workload_tail_has_ten_samples_beyond_at_its_op_count():
    for workload, pct in run.TAIL_PCT.items():
        n = run.EXPECTED_OPS[workload]
        assert n * (100 - pct) / 100 >= 10, workload


def test_percentile_interpolates():
    assert stats.percentile([1, 2, 3, 4], 50) == 2.5
    assert stats.percentile([5.0], 99) == 5.0


# ── rescaling to a reference host speed ──────────────────────────────────


def test_a_steady_host_scales_by_the_reference_over_the_loop():
    assert stats.speed_scales([2.0] * 5, 3.0) == [1.5] * 4


def test_an_op_is_scaled_by_the_loops_just_around_it():
    # the host halves its speed during op 2: the loop takes 2 ms, then 4 ms
    scales = stats.speed_scales([2.0, 2.0, 2.0, 4.0, 4.0], 2.0)
    assert scales == [1.0, 1.0, 2.0 / 3.0, 0.5]


def test_waits_on_the_stand_in_are_kept_as_measured():
    # a 100 ms op, 60 ms of it in two requests, on a host twice as fast
    # as the reference
    requests = [(10.0, 10.02), (10.05, 10.09), (11.0, 11.5)]
    wait = run.waited_s(requests, 10.0, 10.1)
    assert wait == pytest.approx(0.06)
    assert run.at_reference_ms(0.1, wait, 2.0) == pytest.approx(140.0)


def test_a_request_is_clipped_to_the_time_it_overlaps():
    requests = [(1.0, 1.5), (1.2, 1.3), (1.9, 3.0)]
    assert run.waited_s(requests, 1.0, 2.0) == pytest.approx(0.6)
    assert run.waited_s(requests, 4.0, 5.0) == 0.0


# ── the generator ────────────────────────────────────────────────────────


def first_ops(workload, seed, n=60):
    stream = gen.op_stream(workload, seed, [Path(f"f{k}.txt") for k in range(4)])
    return [next(stream) for _ in range(n)]


def test_same_seed_same_inputs():
    for workload in gen.MIXES:
        assert first_ops(workload, 7) == first_ops(workload, 7)
    assert first_ops("offline-hot", 7) != first_ops("offline-hot", 8)
    vocab = gen.vocabulary(random.Random(3))
    assert vocab == gen.vocabulary(random.Random(3))
    one = gen.filing_text(random.Random(3), 5_000, vocab)
    assert one == gen.filing_text(random.Random(3), 5_000, vocab)
    assert gen.history(5, rows=200) == gen.history(5, rows=200)


def test_every_workload_mix_runs_every_command():
    for workload in gen.MIXES:
        kinds = {op["kind"] for op in first_ops(workload, 1, n=200)}
        assert kinds == set(run.KINDS), workload


def test_filing_sizes_are_log_uniform_over_the_range():
    sizes = gen.filing_sizes(random.Random(1), gen.FILING_POOL)
    assert min(sizes) >= gen.FILING_MIN_CHARS
    assert max(sizes) <= gen.FILING_MAX_CHARS
    assert sizes == sorted(sizes)
    assert min(sizes) < 3_000 and max(sizes) > 150_000


def test_filing_carries_topics_and_no_script_triggers():
    text = gen.filing_text(random.Random(2), gen.FILING_MIN_CHARS, gen.vocabulary(random.Random(2)))
    assert len(text) >= gen.FILING_MIN_CHARS
    for term in ("Revenue", "Net income", "Gross margin", "Operating cash flow",
                 "Total debt", "business", "competitors", "Risk", "outlook"):
        assert term in text
    for trigger in ('"', "forecast-", "report-", "probe", "AAPL", "NVDA"):
        assert trigger not in text


def test_forecast_cutoffs_lie_in_the_fixture_windows():
    for op in first_ops("llm-latency", 3, n=200):
        if op["kind"] == "forecast":
            start, end = gen.SYMBOL_CUTOFFS[op["symbol"]]
            assert start.isoformat() <= op["argv"][3] <= end.isoformat()


def test_history_rows_are_valid_task_scores_with_a_known_winner():
    from finorch.scheduler import Reflection, TaskScore

    rows, reflections = gen.history(11, rows=400)
    latest = {}
    for row in rows:
        score = TaskScore(**row)  # raises on a broken invariant
        assert math.fsum(score.weights.values()) == pytest.approx(1.0)
        latest[(score.task_kind, score.agent_id)] = score.composite
    for row in reflections:
        Reflection(**row)
    for kind, winner in gen.EXPECTED_AGENT.items():
        ranked = sorted(
            ((-c, a) for (k, a), c in latest.items() if k == kind)
        )
        assert ranked[0][1] == winner


# ── the stand-in ─────────────────────────────────────────────────────────


def test_chat_reply_uses_the_scripted_rules():
    from finorch import offline

    scripts = standin.model_scripts()
    ask = [{"role": "system", "content": "x"}, {"role": "user", "content": "AAPL news"}]
    assert standin.chat_reply(scripts["standin-primary"], ask) == offline.FORECAST_REPLY_AAPL_EN
    assert standin.chat_reply(scripts["standin-judge"], ask) == offline.JUDGE_REPLY
    assert standin.chat_reply(scripts["standin-secondary"], ask) == offline.SECONDARY_REPLY
    nothing = [{"role": "user", "content": "no rule matches this"}]
    assert standin.chat_reply(scripts["standin-primary"], nothing) == "MOCK-NO-MATCH"


def test_market_replies_filter_by_date_and_never_look_ahead():
    data = json.loads((REPO / "fixtures" / "AAPL.json").read_text(encoding="utf-8"))
    lo, hi = standin._epoch("2024-03-18"), standin._epoch("2024-03-20")
    candle = standin.market_reply(data, "/stock/candle", {"from": str(lo), "to": str(hi)})
    assert candle["s"] == "ok" and len(candle["c"]) == 3
    news = standin.market_reply(
        data, "/company-news", {"from": "2024-04-01", "to": "2024-04-05"}
    )
    assert [n["source"] for n in news] == ["wire-aapl-0402"]
    metric = standin.market_reply(data, "/stock/metric", {})
    assert metric["metric"]["pe_ratio"] == 26.4  # the 2024-02-02 snapshot
    assert standin.market_reply(None, "/stock/profile2", {}) == {}


def test_server_answers_in_one_round_trip_and_logs_it():
    server = standin.StandIn(REPO / "fixtures", 0.0, 0.0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        conn = http.client.HTTPConnection("127.0.0.1", server.server_address[1], timeout=5)
        body = json.dumps({
            "model": "standin-judge",
            "messages": [{"role": "user", "content": "grade this"}],
        })
        for _ in range(2):  # keep-alive: the second call reuses the socket
            conn.request("POST", "/v1/chat/completions", body,
                         {"Authorization": "Bearer k", "Content-Type": "application/json"})
            reply = json.loads(conn.getresponse().read())
            assert reply["choices"][0]["message"]["content"].startswith("score: 1.0")
        conn.request("GET", "/api/v1/stock/profile2?symbol=NVDA&token=t")
        assert json.loads(conn.getresponse().read())["finnhubIndustry"]
        conn.close()
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
    paths = [row[2] for row in server.log]
    assert paths == ["/v1/chat/completions"] * 2 + ["/api/v1/stock/profile2"]
    assert all(finish >= arrival for arrival, finish, *_ in server.log)


# ── tracing ──────────────────────────────────────────────────────────────


def test_a_missing_wrap_target_is_reported_not_fatal():
    recorder = Recorder(targets=[
        ("finorch.cli", "no_such_function", "gone.layer"),
        ("finorch.prompts", "PromptStore.render", "prompts.render"),
    ])
    recorder.install()
    try:
        from finorch.prompts import PromptStore

        PromptStore().render("judge", {"acceptance_text": "a", "final_output": "b"})
    finally:
        recorder.uninstall()
    assert recorder.missing == ["finorch.cli:no_such_function"]
    assert recorder.measured() == {"prompts.render"}
    assert [span[0] for span in recorder.spans] == ["prompts.render"]
