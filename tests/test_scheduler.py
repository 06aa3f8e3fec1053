"""Scheduler tests: scoring math against independent oracles, and the
evaluate → rank → route → reflect → finalize loop over scripted mock
backends with no network access.
"""

from __future__ import annotations

import json
import math
import random
import tempfile
import threading
from pathlib import Path
from typing import Sequence

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finorch.clock import FixedClock
from finorch.errors import (
    ConfigError,
    EngineError,
    GradeParseFailure,
    TransportError,
    WeightSumInvalid,
)
from finorch.gateway import BackendSpec, Gateway
from finorch.prompts import PromptStore
from finorch.scheduler import (
    _BLOCK,
    TASK_KINDS,
    AgentProfile,
    GoldenRecord,
    Scheduler,
    TaskScore,
    composite_score,
    grade_exact_match,
    grade_token_f1,
    load_golden_dataset,
    normalize_scores,
    parse_self_score,
)
from oracles import (
    oracle_composite,
    oracle_minmax,
    oracle_ranking,
    oracle_token_f1,
)
from scripted import script_backend


# ------------------------------------------------------------ score mathema


def test_normalize_hand_cases() -> None:
    raw = {"a": {"d": 2.0}, "b": {"d": 4.0}, "c": {"d": 6.0}}
    out = normalize_scores(raw)
    assert [out[x]["d"] for x in "abc"] == [0.0, 0.5, 1.0]
    flat = normalize_scores({"a": {"d": 5.0}, "b": {"d": 5.0}, "c": {"d": 5.0}})
    assert [flat[x]["d"] for x in "abc"] == [1.0, 1.0, 1.0]
    ends = normalize_scores({"a": {"d": 0.0}, "b": {"d": 10.0}})
    assert [ends[x]["d"] for x in "ab"] == [0.0, 1.0]


def test_normalize_validation() -> None:
    with pytest.raises(EngineError, match="^no agents to normalize$"):
        normalize_scores({})
    with pytest.raises(
        EngineError, match="^agent 'a' is missing dimension 'e'$"
    ):
        normalize_scores({"a": {"d": 1.0}, "b": {"e": 1.0}})
    with pytest.raises(ValueError):
        normalize_scores({"a": {"d": -0.1}, "b": {"d": 1.0}})


def test_normalize_is_idempotent() -> None:
    rng = random.Random(11)
    raw = {
        f"a{i}": {f"d{j}": rng.uniform(0, 50) for j in range(3)}
        for i in range(5)
    }
    once = normalize_scores(raw)
    twice = normalize_scores(once)
    for agent in raw:
        for dim in raw[agent]:
            assert twice[agent][dim] == pytest.approx(once[agent][dim], abs=1e-12)


def test_normalize_every_dimension_has_a_top_scorer() -> None:
    rng = random.Random(12)
    raw = {
        f"a{i}": {f"d{j}": rng.uniform(0, 9) for j in range(4)}
        for i in range(6)
    }
    out = normalize_scores(raw)
    for j in range(4):
        assert max(out[a][f"d{j}"] for a in raw) == 1.0


def test_composite_hand_cases() -> None:
    n = {"x": 1.0, "y": 0.5, "z": 0.0}
    w = {"x": 0.5, "y": 0.3, "z": 0.2}
    assert composite_score(n, w) == pytest.approx(0.65, abs=1e-12)
    one_hot = {"x": 0.0, "y": 1.0, "z": 0.0}
    assert composite_score(n, one_hot) == pytest.approx(0.5, abs=1e-12)
    assert composite_score({"x": 0.0, "y": 0.0}, {"x": 0.4, "y": 0.6}) == 0.0


def test_composite_validation() -> None:
    with pytest.raises(WeightSumInvalid):
        composite_score({"x": 1.0}, {"x": 0.9})
    with pytest.raises(WeightSumInvalid):
        composite_score({"x": 1.0, "y": 0.0}, {"x": 1.5, "y": -0.5})
    with pytest.raises(
        EngineError,
        match=r"^dimensions \['x'\] do not match weights \['y'\]$",
    ):
        composite_score({"x": 1.0}, {"y": 1.0})


def test_normalize_and_composite_match_oracle_battle() -> None:
    rng = random.Random(21)
    for _ in range(300):
        n_agents = rng.randint(2, 8)
        n_dims = rng.randint(1, 5)
        agents = [f"agent{i:02d}" for i in range(n_agents)]
        dims = [f"dim{j}" for j in range(n_dims)]
        raw = {
            a: {d: rng.uniform(0, 100) for d in dims} for a in agents
        }
        cuts = sorted(rng.uniform(0, 1) for _ in range(n_dims - 1))
        bounds = [0.0, *cuts, 1.0]
        weights = {
            d: bounds[j + 1] - bounds[j] for j, d in enumerate(dims)
        }
        normalized = normalize_scores(raw)
        for d in dims:
            expected_col = oracle_minmax([raw[a][d] for a in agents])
            for a, exp in zip(agents, expected_col):
                assert normalized[a][d] == pytest.approx(exp, abs=1e-9)
        composites = {
            a: composite_score(normalized[a], weights) for a in agents
        }
        expected = oracle_composite(raw, weights)
        for a in agents:
            assert composites[a] == pytest.approx(expected[a], abs=1e-9)
        ranked = sorted(composites.items(), key=lambda kv: (-kv[1], kv[0]))
        assert [a for a, _ in ranked] == oracle_ranking(composites)


def test_ranking_is_invariant_under_affine_rescaling() -> None:
    rng = random.Random(22)
    for _ in range(100):
        agents = [f"a{i}" for i in range(rng.randint(2, 6))]
        dims = [f"d{j}" for j in range(rng.randint(1, 4))]
        raw = {a: {d: rng.uniform(0, 10) for d in dims} for a in agents}
        weights = {d: 1.0 / len(dims) for d in dims}
        target = rng.choice(dims)
        scale = rng.uniform(0.1, 9.0)
        shift = rng.uniform(-20.0, 40.0)
        rescaled = {
            a: {
                d: (scale * v + shift if d == target else v)
                for d, v in row.items()
            }
            for a, row in raw.items()
        }
        if any(v < 0 for row in rescaled.values() for v in row.values()):
            offset = -min(v for row in rescaled.values() for v in row.values())
            rescaled = {
                a: {d: v + (offset if d == target else 0) for d, v in row.items()}
                for a, row in rescaled.items()
            }
        before = oracle_ranking(
            {a: composite_score(normalize_scores(raw)[a], weights) for a in agents}
        )
        after = oracle_ranking(
            {
                a: composite_score(normalize_scores(rescaled)[a], weights)
                for a in agents
            }
        )
        assert before == after


# ------------------------------------------------------------- parse/grade


@pytest.mark.parametrize(
    ("text", "expected"),
    [
        ("score: 0.8 — sources well cited", 0.8),
        ("SCORE: 0.35", 0.35),
        ("prefix text then Score: 1.0 done", 1.0),
        ("score: 7 out of scale", 1.0),
        ("score: 0.2 and later score: 0.9", 0.2),
        ("no numeric judgement here", None),
        ("scored 0.5 without the colon pattern", None),
    ],
)
def test_parse_self_score(text: str, expected: float | None) -> None:
    assert parse_self_score(text) == expected


def test_grade_exact_match_normalizes_whitespace_and_case() -> None:
    assert grade_exact_match("  UP by\t0-1% ", "up by 0-1%") == 1.0
    assert grade_exact_match("up by 0-2%", "up by 0-1%") == 0.0


def test_grade_token_f1_matches_oracle() -> None:
    rng = random.Random(31)
    vocab = ["up", "down", "flat", "by", "0-1%", "1-2%", "strong", "weak"]
    for _ in range(500):
        pred = " ".join(rng.choice(vocab) for _ in range(rng.randint(0, 8)))
        ref = " ".join(rng.choice(vocab) for _ in range(rng.randint(0, 8)))
        assert grade_token_f1(pred, ref) == pytest.approx(
            oracle_token_f1(pred, ref), abs=1e-12
        )


# --------------------------------------------------------------- fixtures


REFERENCE = {
    "g1": "up by 0-1% on strong demand",
    "g2": "down by 1-2% on margin pressure",
    "g3": "up by 2-3% after the product event",
    "g4": "down by 0-1% on regulatory risk",
}


def golden_dataset(prefix: str = "question-one") -> list[GoldenRecord]:
    return [
        GoldenRecord(
            record_id=rid,
            task_kind="forecast",
            input_text=f"{prefix} {rid}: what is the weekly call?",
            reference_answer=answer,
            dimension_labels=("exact_match", "token_f1"),
        )
        for rid, answer in sorted(REFERENCE.items())
    ]


def correct_script(prefix: str = "question-one") -> list[dict]:
    return [
        {"match": f"{prefix} {rid}", "reply": answer}
        for rid, answer in sorted(REFERENCE.items())
    ]


def wrong_script() -> list[dict]:
    return [{"match": "", "reply": "no comment"}]


def make_scheduler(
    tmp_path: Path,
    scripts: dict[str, list[dict]],
    judge_backend_id: str | None = None,
    weights: dict[str, float] | None = None,
) -> tuple[Scheduler, Gateway]:
    gateway = Gateway(
        sleeper=lambda _s: None, rng=random.Random(0)
    )
    for backend_id, script in scripts.items():
        script_backend(gateway, backend_id, script)
    scheduler = Scheduler(
        gateway=gateway,
        prompt_store=PromptStore(),
        state_dir=tmp_path / "state",
        weights={"forecast": weights or {"exact_match": 0.5, "token_f1": 0.5}},
        judge_backend_id=judge_backend_id,
        clock=FixedClock(),
    )
    return scheduler, gateway


def register(scheduler: Scheduler, agent_id: str, backend_id: str) -> None:
    scheduler.register_agent(
        AgentProfile(
            agent_id=agent_id,
            backend_id=backend_id,
            task_kinds=frozenset({"forecast"}),
        )
    )


# ------------------------------------------------------------ registration


def test_register_rejects_duplicates_and_unknown_backends(tmp_path: Path) -> None:
    scheduler, _ = make_scheduler(tmp_path, {"good": correct_script()})
    register(scheduler, "alpha", "good")
    with pytest.raises(ConfigError, match="^agent 'alpha' already registered$"):
        register(scheduler, "alpha", "good")
    with pytest.raises(
        ConfigError, match="^no backend registered as 'missing-backend'$"
    ):
        register(scheduler, "beta", "missing-backend")


def test_roster_filtering_by_task_kind(tmp_path: Path) -> None:
    scheduler, _ = make_scheduler(
        tmp_path, {"good": correct_script(), "bad": wrong_script()}
    )
    register(scheduler, "alpha", "good")
    register(scheduler, "beta", "bad")
    scheduler.register_agent(
        AgentProfile(
            agent_id="gamma", backend_id="good", task_kinds=frozenset({"report"})
        )
    )
    assert [p.agent_id for p in scheduler.agents_for("forecast")] == [
        "alpha",
        "beta",
    ]


# -------------------------------------------------------------- evaluation


def test_evaluate_always_correct_agent_scores_one(tmp_path: Path) -> None:
    scheduler, _ = make_scheduler(tmp_path, {"good": correct_script()})
    register(scheduler, "alpha", "good")
    score = scheduler.evaluate_agent("alpha", golden_dataset())
    assert score.raw_scores == {"exact_match": 1.0, "token_f1": 1.0}
    # degenerate normalization over one agent
    assert scheduler.rank_agents("forecast") == [("alpha", 1.0)]


def test_evaluate_empty_reply_scores_zero_exact_match(tmp_path: Path) -> None:
    scheduler, _ = make_scheduler(tmp_path, {"bad": wrong_script()})
    register(scheduler, "beta", "bad")
    score = scheduler.evaluate_agent("beta", golden_dataset())
    assert score.raw_scores["exact_match"] == 0.0


def test_evaluate_validates_inputs(tmp_path: Path) -> None:
    scheduler, _ = make_scheduler(tmp_path, {"good": correct_script()})
    register(scheduler, "alpha", "good")
    with pytest.raises(ConfigError, match="^no agent registered as 'ghost'$"):
        scheduler.evaluate_agent("ghost", golden_dataset())
    assert not scheduler.scores_path.exists()


def test_gateway_failure_carries_record_id(tmp_path: Path) -> None:
    scheduler, _ = make_scheduler(
        tmp_path, {"flaky": [{"match": "", "fail": True}]}
    )
    register(scheduler, "alpha", "flaky")
    with pytest.raises(
        EngineError, match="^agent 'alpha' failed on record 'g1': "
    ):
        scheduler.evaluate_agent("alpha", golden_dataset())


def test_gateway_failure_names_first_failing_record_in_dataset_order(
    tmp_path: Path,
) -> None:
    scheduler, _ = make_scheduler(
        tmp_path,
        {"flaky": [{"match": "g3:", "fail": True}, *correct_script()]},
    )
    register(scheduler, "alpha", "flaky")
    with pytest.raises(
        EngineError, match="^agent 'alpha' failed on record 'g3': "
    ):
        scheduler.evaluate_agent("alpha", golden_dataset())


def test_concurrent_probe_failures_report_the_earliest_record(
    tmp_path: Path,
) -> None:
    """g4 fails before g2 does; the error still names g2."""
    g4_failed = threading.Event()

    class RacingTransport:
        def send(self, spec, payload):
            text = payload["messages"][-1]["content"]
            if "g4:" in text:
                g4_failed.set()
                raise TransportError("g4 down")
            if "g2:" in text:
                assert g4_failed.wait(timeout=5)
                raise TransportError("g2 down")
            return {"choices": [{"message": {"content": "no comment"}}]}

    scheduler, gateway = make_scheduler(tmp_path, {})
    gateway.register_backend(
        BackendSpec(
            backend_id="remote",
            base_url="http://remote.test",
            model_name="m",
            max_retries=0,
        ),
        transport=RacingTransport(),
    )
    register(scheduler, "alpha", "remote")
    with pytest.raises(
        EngineError, match="^agent 'alpha' failed on record 'g2': "
    ):
        scheduler.evaluate_agent("alpha", golden_dataset())
    assert not scheduler.scores_path.exists()


class RemoteTransport:
    """A stand-in for a remote backend: not a mock, so ``chat_many`` sends
    its requests on worker threads. With a barrier, every request waits
    until all of the barrier's parties are in flight at once."""

    def __init__(self, answer, barrier: threading.Barrier | None = None):
        self._answer = answer
        self._barrier = barrier

    def send(self, spec, payload):
        if self._barrier is not None:
            self._barrier.wait()  # BrokenBarrierError unless all are in flight
        text = payload["messages"][-1]["content"]
        return {"choices": [{"message": {"content": self._answer(text)}}]}


def register_remote(
    scheduler: Scheduler, gateway: Gateway, agent_id: str, transport
) -> None:
    gateway.register_backend(
        BackendSpec(
            backend_id=agent_id,
            base_url=f"http://{agent_id}.test",
            model_name="m",
            max_retries=0,
        ),
        transport=transport,
    )
    register(scheduler, agent_id, agent_id)


def correct_answer(text: str) -> str:
    return next(a for rid, a in REFERENCE.items() if f" {rid}:" in text)


def test_evaluate_agents_sends_every_probe_of_every_agent_together(
    tmp_path: Path,
) -> None:
    barrier = threading.Barrier(2 * len(REFERENCE), timeout=5)
    scheduler, gateway = make_scheduler(tmp_path, {})
    register_remote(
        scheduler, gateway, "alpha", RemoteTransport(correct_answer, barrier)
    )
    register_remote(
        scheduler, gateway, "beta", RemoteTransport(lambda _t: "no", barrier)
    )
    alpha, beta = scheduler.evaluate_agents(
        [("alpha", golden_dataset()), ("beta", golden_dataset())]
    )
    assert (alpha.agent_id, alpha.raw_scores["exact_match"]) == ("alpha", 1.0)
    assert (beta.agent_id, beta.raw_scores["exact_match"]) == ("beta", 0.0)
    assert scheduler.rank_agents("forecast") == [("alpha", 1.0), ("beta", 0.0)]
    # Graded job by job, then appended in one write: one row each.
    rows = scheduler.scores_path.read_text(encoding="utf-8").splitlines()
    assert [json.loads(row)["agent_id"] for row in rows] == ["alpha", "beta"]


def test_failed_probe_of_a_later_agent_appends_no_rows(
    tmp_path: Path,
) -> None:
    def flaky(text: str) -> str:
        if " g2:" in text or " g4:" in text:
            raise TransportError("down")
        return correct_answer(text)

    scheduler, gateway = make_scheduler(tmp_path, {})
    register_remote(scheduler, gateway, "alpha", RemoteTransport(correct_answer))
    register_remote(scheduler, gateway, "beta", RemoteTransport(flaky))
    with pytest.raises(
        EngineError, match="^agent 'beta' failed on record 'g2': "
    ):
        scheduler.evaluate_agents(
            [("alpha", golden_dataset()), ("beta", golden_dataset())]
        )
    # alpha was graded, but a failed evaluation leaves no half roster.
    assert not scheduler.scores_path.exists()
    with pytest.raises(
        EngineError, match="^no scored agents for task kind 'forecast'$"
    ):
        scheduler.rank_agents("forecast")


def test_correct_vs_wrong_agents_score_one_and_zero(tmp_path: Path) -> None:
    scheduler, _ = make_scheduler(
        tmp_path, {"good": correct_script(), "bad": wrong_script()}
    )
    register(scheduler, "alpha", "good")
    register(scheduler, "beta", "bad")
    scheduler.evaluate_agent("alpha", golden_dataset())
    beta_score = scheduler.evaluate_agent("beta", golden_dataset())
    assert beta_score.raw_scores == {"exact_match": 0.0, "token_f1": 0.0}
    assert scheduler.latest_scores("forecast")["beta"] == beta_score
    assert scheduler.rank_agents("forecast") == [("alpha", 1.0), ("beta", 0.0)]


def test_judged_dimension_uses_judge_backend(tmp_path: Path) -> None:
    scripts = {
        "good": correct_script(),
        "judge": [{"match": "", "reply": "score: 0.75 solid reasoning"}],
    }
    scheduler, _ = make_scheduler(
        tmp_path,
        scripts,
        judge_backend_id="judge",
        weights={"exact_match": 0.5, "clarity": 0.5},
    )
    register(scheduler, "alpha", "good")
    dataset = [
        GoldenRecord(
            record_id=r.record_id,
            task_kind="forecast",
            input_text=r.input_text,
            reference_answer=r.reference_answer,
            dimension_labels=("exact_match", "clarity"),
        )
        for r in golden_dataset()
    ]
    score = scheduler.evaluate_agent("alpha", dataset)
    assert score.raw_scores["clarity"] == pytest.approx(0.75)


def test_judged_dimension_without_judge_backend_is_config_error(
    tmp_path: Path,
) -> None:
    scheduler, _ = make_scheduler(
        tmp_path, {"good": correct_script()}, weights={"clarity": 1.0}
    )
    register(scheduler, "alpha", "good")
    dataset = [
        GoldenRecord(
            record_id="g1",
            task_kind="forecast",
            input_text="question-one g1: what is the weekly call?",
            reference_answer=REFERENCE["g1"],
            dimension_labels=("clarity",),
        )
    ]
    with pytest.raises(ConfigError):
        scheduler.evaluate_agent("alpha", dataset)


def test_unparseable_judge_excludes_record_within_budget(tmp_path: Path) -> None:
    # 1 of 5 records excluded = 20%, inside the tolerated budget
    dataset = golden_dataset() + [
        GoldenRecord(
            record_id="g5",
            task_kind="forecast",
            input_text="question-one g5: what is the weekly call?",
            reference_answer="flat on low volume",
            dimension_labels=("exact_match", "token_f1"),
        )
    ]
    dataset = [
        GoldenRecord(
            record_id=r.record_id,
            task_kind="forecast",
            input_text=r.input_text,
            reference_answer=r.reference_answer,
            dimension_labels=("clarity",),
        )
        for r in dataset
    ]
    scripts = {
        "good": correct_script() + [{"match": "g5", "reply": "flat on low volume"}],
        "judge": [
            {"match": "flat on low volume", "reply": "no numeric judgement"},
            {"match": "", "reply": "score: 0.5"},
        ],
    }
    scheduler, _ = make_scheduler(
        tmp_path, scripts, judge_backend_id="judge", weights={"clarity": 1.0}
    )
    register(scheduler, "alpha", "good")
    score = scheduler.evaluate_agent("alpha", dataset)
    assert score.raw_scores["clarity"] == pytest.approx(0.5)


def test_too_many_grade_failures_fail_the_run(tmp_path: Path) -> None:
    dataset = [
        GoldenRecord(
            record_id=r.record_id,
            task_kind="forecast",
            input_text=r.input_text,
            reference_answer=r.reference_answer,
            dimension_labels=("clarity",),
        )
        for r in golden_dataset()
    ]
    scripts = {
        "good": correct_script(),
        "judge": [{"match": "", "reply": "no numeric judgement at all"}],
    }
    scheduler, _ = make_scheduler(
        tmp_path, scripts, judge_backend_id="judge", weights={"clarity": 1.0}
    )
    register(scheduler, "alpha", "good")
    with pytest.raises(GradeParseFailure):
        scheduler.evaluate_agent("alpha", dataset)


def judged_dataset() -> list[GoldenRecord]:
    return [r.replace(dimension_labels=("clarity",)) for r in golden_dataset()]


def register_judge(gateway: Gateway, transport) -> None:
    gateway.register_backend(
        BackendSpec(
            backend_id="judge",
            base_url="http://judge.test",
            model_name="m",
            max_retries=0,
        ),
        transport=transport,
    )


def test_judged_dimension_without_judge_backend_sends_no_probe(
    tmp_path: Path,
) -> None:
    def unreachable(_text: str) -> str:
        raise AssertionError("a probe was sent")

    scheduler, gateway = make_scheduler(tmp_path, {}, weights={"clarity": 1.0})
    register_remote(scheduler, gateway, "alpha", RemoteTransport(unreachable))
    with pytest.raises(ConfigError, match="no judge backend"):
        scheduler.evaluate_agent("alpha", judged_dataset())


def test_judge_chats_of_an_evaluation_go_out_together(tmp_path: Path) -> None:
    # The judge answers only once the chats of all records are in flight,
    # and scores the response it grades: a verdict read for another probe
    # than its own moves alpha's or beta's mean.
    def judge(text: str) -> str:
        return "score: 0.1" if "no comment" in text else "score: 0.9"

    barrier = threading.Barrier(2 * len(REFERENCE), timeout=5)
    scheduler, gateway = make_scheduler(
        tmp_path,
        {"good": correct_script(), "bad": wrong_script()},
        judge_backend_id="judge",
        weights={"clarity": 1.0},
    )
    register_judge(gateway, RemoteTransport(judge, barrier))
    register(scheduler, "alpha", "good")
    register(scheduler, "beta", "bad")
    alpha, beta = scheduler.evaluate_agents(
        [("alpha", judged_dataset()), ("beta", judged_dataset())]
    )
    assert alpha.raw_scores == {"clarity": 0.9}
    assert beta.raw_scores == {"clarity": 0.1}


def test_first_failed_judge_chat_in_grading_order_is_raised(
    tmp_path: Path,
) -> None:
    """beta's g1 judge chat fails before alpha's g3 does; the error raised
    is still alpha's, the first in (job, record, dimension) order."""
    beta_failed = threading.Event()

    class RacingJudge:
        def send(self, spec, payload):
            text = payload["messages"][-1]["content"]
            if "no comment" in text and REFERENCE["g1"] in text:
                beta_failed.set()
                raise TransportError("beta g1 down")
            if "no comment" not in text and REFERENCE["g3"] in text:
                assert beta_failed.wait(timeout=5)
                raise TransportError("alpha g3 down")
            return {"choices": [{"message": {"content": "score: 0.5"}}]}

    scheduler, gateway = make_scheduler(
        tmp_path,
        {"good": correct_script(), "bad": wrong_script()},
        judge_backend_id="judge",
        weights={"clarity": 1.0},
    )
    register_judge(gateway, RacingJudge())
    register(scheduler, "alpha", "good")
    register(scheduler, "beta", "bad")
    with pytest.raises(EngineError, match="alpha g3 down"):
        scheduler.evaluate_agents(
            [("alpha", judged_dataset()), ("beta", judged_dataset())]
        )
    assert not scheduler.scores_path.exists()


def test_weights_come_from_config_else_uniform(tmp_path: Path) -> None:
    # alpha leads on exact match, beta on token F1
    (tmp_path / "state").mkdir()
    (tmp_path / "state" / "task_scores.jsonl").write_text(
        hand_row("alpha", "forecast", [0.5, 0.2])
        + hand_row("beta", "forecast", [0.0, 0.9]),
        encoding="utf-8",
    )
    configured, gateway = make_scheduler(
        tmp_path,
        {"good": correct_script()},
        weights={"exact_match": 0.25, "token_f1": 0.75},
    )
    register(configured, "alpha", "good")
    register(configured, "beta", "good")
    assert configured.rank_agents("forecast") == [
        ("beta", 0.75), ("alpha", 0.25),
    ]
    unweighted = Scheduler(
        gateway=gateway,
        prompt_store=PromptStore(),
        state_dir=tmp_path / "state",
        clock=FixedClock(),
    )
    register(unweighted, "alpha", "good")
    register(unweighted, "beta", "good")
    assert unweighted.rank_agents("forecast") == [
        ("alpha", 0.5), ("beta", 0.5),
    ]


def test_weights_that_miss_a_golden_dimension_send_no_probe(
    tmp_path: Path,
) -> None:
    scheduler, gateway = make_scheduler(
        tmp_path, {"good": correct_script()}, weights={"token_f1": 1.0}
    )
    register(scheduler, "alpha", "good")
    sent = []
    chat = gateway.chat
    gateway.chat = lambda *args: sent.append(args) or chat(*args)
    with pytest.raises(ConfigError, match=r"weights\['forecast'\] has dimensions"):
        scheduler.evaluate_agent("alpha", golden_dataset())
    assert sent == []
    assert not scheduler.scores_path.exists()


# ----------------------------------------------------------- rank and route


def test_rank_and_route_pick_the_correct_agent(tmp_path: Path) -> None:
    scheduler, _ = make_scheduler(
        tmp_path, {"good": correct_script(), "bad": wrong_script()}
    )
    register(scheduler, "alpha", "good")
    register(scheduler, "beta", "bad")
    scheduler.evaluate_agent("alpha", golden_dataset())
    scheduler.evaluate_agent("beta", golden_dataset())
    ranking = scheduler.rank_agents("forecast")
    assert [a for a, _ in ranking] == ["alpha", "beta"]
    events: list[dict] = []
    assert scheduler.route("forecast", recorder=events.append) == "alpha"
    assert events[0]["chosen"] == "alpha"
    assert events[0]["ranking"] == [["alpha", 1.0], ["beta", 0.0]]


def test_rank_ties_break_lexicographically(tmp_path: Path) -> None:
    scheduler, _ = make_scheduler(
        tmp_path, {"good": correct_script(), "good2": correct_script()}
    )
    register(scheduler, "zeta", "good")
    register(scheduler, "alpha", "good2")
    scheduler.evaluate_agent("zeta", golden_dataset())
    scheduler.evaluate_agent("alpha", golden_dataset())
    assert [a for a, _ in scheduler.rank_agents("forecast")] == ["alpha", "zeta"]


def test_route_without_scores_raises(tmp_path: Path) -> None:
    scheduler, _ = make_scheduler(tmp_path, {"good": correct_script()})
    register(scheduler, "alpha", "good")
    with pytest.raises(
        EngineError, match="^no scored agents for task kind 'forecast'$"
    ):
        scheduler.route("forecast")


def test_reevaluation_flips_the_route(tmp_path: Path) -> None:
    scripts = {
        "backend-a": correct_script("question-one")
        + [{"match": "question-two", "reply": "no comment"}],
        "backend-b": [
            {"match": "question-one", "reply": "no comment"},
            *correct_script("question-two"),
        ],
    }
    scheduler, _ = make_scheduler(tmp_path, scripts)
    register(scheduler, "agent-a", "backend-a")
    register(scheduler, "agent-b", "backend-b")
    scheduler.evaluate_agent("agent-a", golden_dataset("question-one"))
    scheduler.evaluate_agent("agent-b", golden_dataset("question-one"))
    assert scheduler.route("forecast") == "agent-a"
    scheduler.evaluate_agent("agent-a", golden_dataset("question-two"))
    scheduler.evaluate_agent("agent-b", golden_dataset("question-two"))
    assert scheduler.route("forecast") == "agent-b"


def test_route_is_pure_function_of_persisted_scores(tmp_path: Path) -> None:
    scheduler, _ = make_scheduler(
        tmp_path, {"good": correct_script(), "bad": wrong_script()}
    )
    register(scheduler, "alpha", "good")
    register(scheduler, "beta", "bad")
    scheduler.evaluate_agent("alpha", golden_dataset())
    scheduler.evaluate_agent("beta", golden_dataset())
    # a fresh scheduler over the same state dir ranks identically
    fresh, _gateway = make_scheduler(
        tmp_path, {"good": correct_script(), "bad": wrong_script()}
    )
    register(fresh, "alpha", "good")
    register(fresh, "beta", "bad")
    assert fresh.rank_agents("forecast") == scheduler.rank_agents("forecast")
    assert fresh.route("forecast") == "alpha"


# -------------------------------------------------------------- reflections


def test_record_reflection_parses_and_appends(tmp_path: Path) -> None:
    scheduler, _ = make_scheduler(tmp_path, {"good": correct_script()})
    register(scheduler, "alpha", "good")
    first = scheduler.record_reflection(
        "alpha", "task-1", "score: 0.8 — sources well cited"
    )
    assert first.self_score == 0.8
    second = scheduler.record_reflection(
        "alpha", "task-1", "no numeric score, prose only"
    )
    assert second.self_score is None
    assert second.notes == "no numeric score, prose only"
    lines = scheduler.reflections_path.read_text(encoding="utf-8").splitlines()
    assert [json.loads(line) for line in lines] == [
        first.to_dict(),
        second.to_dict(),
    ]


def test_record_reflection_validates_agent(tmp_path: Path) -> None:
    scheduler, _ = make_scheduler(tmp_path, {"good": correct_script()})
    register(scheduler, "alpha", "good")
    with pytest.raises(ConfigError, match="^no agent registered as 'ghost'$"):
        scheduler.record_reflection("ghost", "task-1", "score: 0.5")
    assert not scheduler.reflections_path.exists()


# -------------------------------------------------------------- evaluations


def test_no_judge_backend_is_no_judge_request(tmp_path: Path) -> None:
    scheduler, _ = make_scheduler(tmp_path, {"good": correct_script()})
    assert scheduler.judge_request("final text", "must mention text") is None


def test_finalize_grades_and_aggregates_self_scores(tmp_path: Path) -> None:
    scripts = {
        "good": correct_script(),
        "judge": [
            {
                "match": "must mention text",
                "reply": "score: 1.0 meets the acceptance text",
            }
        ],
    }
    scheduler, gateway = make_scheduler(
        tmp_path, scripts, judge_backend_id="judge"
    )
    register(scheduler, "alpha", "good")

    def judged(final_output: str, acceptance_text: str) -> str:
        backend_id, messages = scheduler.judge_request(
            final_output, acceptance_text
        )
        assert backend_id == "judge"
        return gateway.chat(backend_id, messages).response_text

    # An earlier run of the same task id is not part of this run's grade.
    scheduler.record_reflection("alpha", "wf-1", "score: 0.2 earlier run")
    scored = scheduler.record_reflection("alpha", "wf-1", "score: 0.8 good")
    evaluation = scheduler.finalize_workflow(
        "wf-1", judged("final text", "must mention text"), scored
    )
    assert evaluation.grade == 1.0
    assert evaluation.self_scores == (0.8,)
    assert evaluation.mean_self_score == 0.8
    assert evaluation.reflection_count == 1

    unscored = scheduler.record_reflection("alpha", "wf-2", "prose only")
    second = scheduler.finalize_workflow(
        "wf-2", judged("text", "other text"), unscored
    )
    assert second.grade is None  # the judge saw this run's acceptance text
    assert second.self_scores == () and second.mean_self_score is None
    assert second.reflection_count == 1
    lines = scheduler.evaluations_path.read_text(encoding="utf-8").splitlines()
    assert [json.loads(line)["self_scores"] for line in lines] == [[0.8], []]


# -------------------------------------------------------------- persistence


def test_task_score_invariants_enforced() -> None:
    """Raw scores are a non-empty mapping of finite, non-negative numbers."""
    for raw_scores in (
        [1.0],
        [["d", 1.0]],
        {},
        {"d": -0.1},
        {"d": math.nan},
        {"d": math.inf},
        {"d": 10**400},
        {"d": True},
        {"d": "1.0"},
        {"d": None},
    ):
        with pytest.raises(ValueError):
            TaskScore(
                agent_id="a",
                task_kind="forecast",
                raw_scores=raw_scores,
                evaluated_at="2024-01-01T00:00:00Z",
            )


def test_load_golden_dataset_round_trip(tmp_path: Path) -> None:
    path = tmp_path / "golden.jsonl"
    rows = [
        {
            "record_id": r.record_id,
            "task_kind": r.task_kind,
            "input_text": r.input_text,
            "reference_answer": r.reference_answer,
            "dimension_labels": list(r.dimension_labels),
        }
        for r in golden_dataset()
    ]
    path.write_text(
        "\n".join(json.dumps(row) for row in rows) + "\n", encoding="utf-8"
    )
    assert load_golden_dataset(path, "forecast") == golden_dataset()


def test_scores_jsonl_is_append_only(tmp_path: Path) -> None:
    scheduler, _ = make_scheduler(tmp_path, {"good": correct_script()})
    register(scheduler, "alpha", "good")
    scheduler.evaluate_agent("alpha", golden_dataset())
    first_len = len(
        scheduler.scores_path.read_text(encoding="utf-8").splitlines()
    )
    scheduler.evaluate_agent("alpha", golden_dataset())
    second_len = len(
        scheduler.scores_path.read_text(encoding="utf-8").splitlines()
    )
    assert second_len > first_len


def test_torn_state_line_is_a_config_error(tmp_path: Path) -> None:
    scheduler, _ = make_scheduler(tmp_path, {"good": correct_script()})
    register(scheduler, "alpha", "good")
    scheduler.evaluate_agent("alpha", golden_dataset())
    path = scheduler.scores_path
    data = path.read_bytes()
    path.write_bytes(data[:-40])  # a crash in the middle of the last append
    torn_line = len(data.splitlines())
    fresh, _ = make_scheduler(tmp_path, {"good": correct_script()})
    register(fresh, "alpha", "good")
    with pytest.raises(ConfigError, match=rf"task_scores.jsonl line {torn_line}\b"):
        fresh.route("forecast")


def test_torn_reflections_line_still_loads_and_routes(tmp_path: Path) -> None:
    scheduler, _ = make_scheduler(tmp_path, {"good": correct_script()})
    register(scheduler, "alpha", "good")
    scheduler.evaluate_agent("alpha", golden_dataset())
    scheduler.record_reflection("alpha", "task-1", "score: 0.8 well cited")
    scheduler.record_reflection("alpha", "task-1", "score: 0.6 one gap")
    path = scheduler.reflections_path
    path.write_bytes(path.read_bytes()[:-40])  # a crash mid-append
    fresh, _ = make_scheduler(tmp_path, {"good": correct_script()})
    register(fresh, "alpha", "good")
    assert fresh.route("forecast") == "alpha"
    reflection = fresh.record_reflection("alpha", "task-2", "score: 0.7")
    assert reflection.self_score == 0.7
    # The reflection recorded after the tear starts a line of its own.
    last = path.read_text(encoding="utf-8").splitlines()[-1]
    assert json.loads(last) == reflection.to_dict()


def test_malformed_state_row_is_a_config_error(tmp_path: Path) -> None:
    (tmp_path / "state").mkdir()
    (tmp_path / "state" / "task_scores.jsonl").write_text(
        '{"agent_id": "alpha"}\n', encoding="utf-8"
    )
    scheduler, _ = make_scheduler(tmp_path, {"good": correct_script()})
    register(scheduler, "alpha", "good")
    with pytest.raises(ConfigError, match=r"task_scores.jsonl line 1\b"):
        scheduler.route("forecast")


@pytest.mark.parametrize(
    ("raw_scores", "problem"),
    [
        ('[0.5, 0.5]', "must be a non-empty mapping"),
        ('{"exact_match": -1, "token_f1": 0.5}', "exact_match=-1 is not"),
        ('{"exact_match": NaN, "token_f1": 0.5}', "exact_match=nan is not"),
        ('{"exact_match": "high", "token_f1": 0.5}', "exact_match='high'"),
    ],
    ids=["list", "negative", "nan", "string"],
)
def test_state_row_with_bad_raw_scores_is_a_config_error(
    tmp_path: Path, raw_scores: str, problem: str
) -> None:
    """Raw scores feed the ranking, so a row whose raw scores are no
    mapping of finite, non-negative numbers stops the load by its line."""
    (tmp_path / "state").mkdir()
    (tmp_path / "state" / "task_scores.jsonl").write_text(
        hand_row("alpha", "forecast", [1.0, 1.0])
        + '{"agent_id": "alpha", "task_kind": "forecast", "raw_scores": '
        + raw_scores
        + ', "evaluated_at": "2024-02-02T00:00:00Z"}\n',
        encoding="utf-8",
    )
    scheduler, _ = make_scheduler(tmp_path, {"good": correct_script()})
    register(scheduler, "alpha", "good")
    with pytest.raises(ConfigError) as err:
        scheduler.rank_agents("forecast")
    assert "task_scores.jsonl line 2 is malformed" in str(err.value)
    assert problem in str(err.value)


def test_malformed_golden_dataset_line_is_a_config_error(
    tmp_path: Path,
) -> None:
    path = tmp_path / "golden.jsonl"
    good = {
        "record_id": "g1",
        "task_kind": "forecast",
        "input_text": "what is the weekly call?",
        "reference_answer": "up",
        "dimension_labels": ["exact_match"],
    }
    missing = {k: v for k, v in good.items() if k != "reference_answer"}
    bad_lines = [
        '{"record_id": "g2", "task_k',
        json.dumps(missing),
        json.dumps({**good, "reference_answer": None}),
        json.dumps({**good, "dimension_labels": "exact_match"}),
        json.dumps({**good, "dimension_labels": []}),
        json.dumps({**good, "dimension_labels": ["exact_match", 1]}),
        json.dumps({**good, "dimension_labels": ["exact_match", ""]}),
        json.dumps({**good, "dimension_labels": ["exact_match"] * 2}),
        json.dumps([good]),
    ]
    for bad_line in bad_lines:
        path.write_text(
            json.dumps(good) + "\n\n" + bad_line + "\n", encoding="utf-8"
        )
        with pytest.raises(ConfigError, match=r"golden.jsonl line 3 is malformed"):
            load_golden_dataset(path, "forecast")


@pytest.mark.parametrize(
    ("change", "problem"),
    [
        ({"task_kind": "report"}, "has task kind 'report', not 'forecast'"),
        (
            {"dimension_labels": ["token_f1"]},
            "has dimension labels ['token_f1'], not the first row's "
            "['exact_match', 'token_f1']",
        ),
    ],
    ids=["other-kind", "other-labels"],
)
def test_golden_row_that_does_not_fit_the_set_is_a_config_error(
    tmp_path: Path, change: dict, problem: str
) -> None:
    path = tmp_path / "golden.jsonl"
    rows = [
        {**record.to_dict(), "dimension_labels": list(record.dimension_labels)}
        for record in golden_dataset()
    ]
    rows[2].update(change)
    path.write_text(
        "".join(json.dumps(row) + "\n" for row in rows), encoding="utf-8"
    )
    with pytest.raises(ConfigError) as err:
        load_golden_dataset(path, "forecast")
    assert str(err.value) == f"golden dataset {path} line 3 {problem}"


def test_latest_scores_keep_only_agents_registered_for_the_kind(
    tmp_path: Path,
) -> None:
    # A report roster that lists a forecast-only agent, as a golden set of
    # the wrong kind once wrote one: it must not route a report.
    state = tmp_path / "state"
    state.mkdir()
    (state / "task_scores.jsonl").write_text(
        hand_row("alpha", "report", [1.0]) + hand_row("gamma", "report", [0.2]),
        encoding="utf-8",
    )
    scheduler, _ = make_scheduler(tmp_path, {"good": correct_script()})
    register(scheduler, "alpha", "good")
    scheduler.register_agent(
        AgentProfile(
            agent_id="gamma", backend_id="good", task_kinds=frozenset({"report"})
        )
    )
    assert list(scheduler.latest_scores("report")) == ["gamma"]
    # alpha's raw 1.0 does not take part in gamma's normalization
    assert scheduler.rank_agents("report") == [("gamma", 1.0)]
    assert scheduler.route("report") == "gamma"


# ---------------------------------------------------------------- score log

SWAP_SCRIPTS = {
    "backend-a": correct_script("question-one")
    + [{"match": "question-two", "reply": "no comment"}],
    "backend-b": [
        {"match": "question-one", "reply": "no comment"},
        *correct_script("question-two"),
    ],
}


def swap_scheduler(state_root: Path) -> Scheduler:
    """A scheduler over ``state_root/state`` with ``alpha`` on backend-a
    and ``omega`` on backend-b: question-one favours alpha, question-two
    omega."""
    scheduler, _ = make_scheduler(state_root, SWAP_SCRIPTS)
    register(scheduler, "alpha", "backend-a")
    register(scheduler, "omega", "backend-b")
    return scheduler


def loaded(scheduler: Scheduler) -> dict[tuple[str, str], TaskScore]:
    """Every score a scheduler routes on, by (task kind, agent id)."""
    return {
        (kind, agent): score
        for kind in TASK_KINDS
        for agent, score in scheduler.latest_scores(kind).items()
    }


def fold_every_line(
    log: Path, registered: dict[str, Sequence[str]]
) -> dict[tuple[str, str], TaskScore]:
    """Oracle for a load: every row of the log folded in order into the
    latest TaskScore per (task kind, agent id), kept for the pairs of
    ``registered`` (agent id to its task kinds) only."""
    pairs = {(k, a) for a, kinds in registered.items() for k in kinds}
    latest = {}
    if log.exists():
        for line in log.read_bytes().splitlines():
            if line.strip():
                row = json.loads(line)
                key = (row["task_kind"], row["agent_id"])
                if key in pairs:
                    latest[key] = TaskScore(
                        row["agent_id"], row["task_kind"], row["raw_scores"],
                        row["evaluated_at"],
                    )
    return latest


SWAP_AGENTS = {"alpha": ("forecast",), "omega": ("forecast",)}


def hand_row(agent_id: str, task_kind: str, values: Sequence[float]) -> str:
    dims = ("exact_match", "token_f1") if task_kind == "forecast" else ("token_f1",)
    score = TaskScore(
        agent_id=agent_id,
        task_kind=task_kind,
        raw_scores=dict(zip(dims, values)),
        evaluated_at="2024-02-01T00:00:00Z",
    )
    return json.dumps(score.to_dict(), ensure_ascii=False) + "\n"


def evaluate_both(scheduler: Scheduler, prefix: str) -> None:
    scheduler.evaluate_agent("alpha", golden_dataset(prefix))
    scheduler.evaluate_agent("omega", golden_dataset(prefix))


unit = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
STEPS = st.lists(
    st.one_of(
        st.tuples(
            st.just("evaluate"),
            st.sampled_from(["alpha", "omega"]),
            st.sampled_from(["question-one", "question-two"]),
        ),
        st.tuples(
            st.just("append"),
            st.sampled_from(["forecast", "report"]),
            st.sampled_from(
                [("alpha",), ("omega",), ("alpha", "omega"), ("zeta",)]
            ),
            st.fixed_dictionaries(
                {
                    agent: st.tuples(unit, unit)
                    for agent in ("alpha", "omega", "zeta")
                }
            ),
        ),
        st.tuples(st.just("reload")),
    ),
    max_size=12,
)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(steps=STEPS)
def test_snapshot_load_equals_full_replay(steps) -> None:
    """A load holds what folding the whole log gives for the registered
    pairs, over logs of evaluations and of rows appended by hand: one
    agent's alone, rows of a kind the agents are not registered for, and
    rows of an agent not registered at all."""
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        scheduler = swap_scheduler(root)
        log = root / "state" / "task_scores.jsonl"
        for step in steps:
            if step[0] == "evaluate":
                scheduler.evaluate_agent(step[1], golden_dataset(step[2]))
                continue
            if step[0] == "append":
                _, kind, agents, values = step
                with log.open("a", encoding="utf-8") as handle:
                    for agent in agents:
                        handle.write(hand_row(agent, kind, values[agent]))
            scheduler = swap_scheduler(root)
        assert loaded(swap_scheduler(root)) == fold_every_line(log, SWAP_AGENTS)


def damage_truncate(root: Path) -> None:
    # back to the first question-one round: alpha leads again
    log = root / "state" / "task_scores.jsonl"
    lines = log.read_bytes().splitlines(keepends=True)
    log.write_bytes(b"".join(lines[:2]))


def damage_rewrite_same_length(root: Path) -> None:
    log = root / "state" / "task_scores.jsonl"
    data = log.read_bytes()
    swapped = (
        data.replace(b'"alpha"', b'"-tmp-"')
        .replace(b'"omega"', b'"alpha"')
        .replace(b'"-tmp-"', b'"omega"')
    )
    assert len(swapped) == len(data) and swapped != data
    log.write_bytes(swapped)


@pytest.mark.parametrize(
    ("damage", "winner"),
    [(damage_truncate, "alpha"), (damage_rewrite_same_length, "alpha")],
)
def test_untrusted_snapshot_falls_back_to_full_replay(
    tmp_path: Path, damage, winner: str
) -> None:
    """A log cut short or rewritten in place loads from its bytes: no
    earlier load leaves anything behind that outlives the damage."""
    root = tmp_path / "live"
    first = swap_scheduler(root)
    evaluate_both(first, "question-one")
    evaluate_both(first, "question-two")
    assert swap_scheduler(root).route("forecast") == "omega"
    damage(root)

    reloaded = swap_scheduler(root)
    log = root / "state" / "task_scores.jsonl"
    assert loaded(reloaded) == fold_every_line(log, SWAP_AGENTS)
    assert reloaded.route("forecast") == winner


def test_evaluate_and_route_leave_only_the_score_log(tmp_path: Path) -> None:
    scheduler = swap_scheduler(tmp_path)
    evaluate_both(scheduler, "question-one")
    assert swap_scheduler(tmp_path).route("forecast") == "alpha"
    evaluate_both(scheduler, "question-two")
    assert swap_scheduler(tmp_path).route("forecast") == "omega"
    assert [p.name for p in (tmp_path / "state").iterdir()] == [
        "task_scores.jsonl"
    ]


def test_torn_tail_names_the_absolute_line(tmp_path: Path) -> None:
    scheduler = swap_scheduler(tmp_path)
    evaluate_both(scheduler, "question-one")
    evaluate_both(scheduler, "question-two")
    log = tmp_path / "state" / "task_scores.jsonl"
    data = log.read_bytes()
    log.write_bytes(data[:-40])
    torn_line = len(data.splitlines())
    assert torn_line == 4
    with pytest.raises(ConfigError, match=rf"task_scores.jsonl line {torn_line}\b"):
        swap_scheduler(tmp_path).route("forecast")


def test_a_scheduler_reads_the_log_on_first_need(tmp_path: Path) -> None:
    """Building a scheduler reads nothing; the read waits for the agents,
    and an agent registered after it is looked for too."""
    (tmp_path / "state").mkdir()
    (tmp_path / "state" / "task_scores.jsonl").write_text(
        "{torn\n" + rosters(("forecast", ("alpha", "omega")))
    )
    fresh = swap_scheduler(tmp_path)  # the torn first row is never reached
    assert sorted(fresh.latest_scores("forecast")) == ["alpha", "omega"]
    register(fresh, "beta", "backend-a")  # beta has no row: read it all
    with pytest.raises(ConfigError, match=r"task_scores.jsonl line 1\b"):
        fresh.route("forecast")


def rosters(*written: tuple[str, Sequence[str]]) -> str:
    """Hand rows for each (task kind, agent ids) roster, in order."""
    rng = random.Random(3)
    return "".join(
        hand_row(agent, kind, (rng.random(), rng.random()))
        for kind, agents in written
        for agent in agents
    )


LONG_ID = "agent-" + "x" * (2 * _BLOCK)


def rows_longer_than_a_block() -> tuple[str, dict[str, Sequence[str]]]:
    text = rosters(
        ("forecast", (LONG_ID, "alpha")),
        ("report", (LONG_ID,)),
        ("forecast", (LONG_ID, "alpha")),
        ("report", (LONG_ID,)),
    )
    return text, {LONG_ID: ("forecast", "report"), "alpha": ("forecast",)}


def blank_last_line() -> tuple[str, dict[str, Sequence[str]]]:
    text = rosters(
        ("forecast", ("alpha", "omega")), ("forecast", ("alpha", "omega"))
    ) + "\n"
    return text, SWAP_AGENTS


def crash_mid_roster() -> tuple[str, dict[str, Sequence[str]]]:
    """A writer that appends one row at a time can crash part way: here
    delta joins, and the crash comes before gamma's row."""
    text = rosters(
        ("forecast", ("alpha",)),
        ("report", ("alpha",)),
        ("forecast", ("alpha", "beta")),
        ("forecast", ("alpha", "beta", "gamma")),
        ("report", ("alpha", "omega")),
        ("forecast", ("alpha", "beta", "delta")),
    )
    agents = ("alpha", "beta", "gamma", "delta")
    return text, {**dict.fromkeys(agents, ("forecast",)), "omega": ("report",)}


def partial_rosters_and_foreign_agents() -> (
    tuple[str, dict[str, Sequence[str]]]
):
    """Rows appended one agent at a time, so a registered agent's latest
    row lies far behind the others', among rows of an agent no longer
    registered and of a kind an agent is not registered for."""
    text = rosters(
        ("forecast", ("gamma",)),
        ("report", ("gamma", "alpha")),
        *[("forecast", ("alpha", "retired"))] * 200,
        ("report", ("retired",)),
        ("forecast", ("retired", "alpha")),
    )
    return text, {"alpha": ("forecast",), "gamma": ("forecast", "report")}


def registered_scheduler(
    root: Path, registered: dict[str, Sequence[str]]
) -> Scheduler:
    """A scheduler over ``root/state`` with each agent of ``registered``
    registered for its task kinds."""
    scheduler, _ = make_scheduler(root, {"good": correct_script()})
    for agent_id, kinds in registered.items():
        scheduler.register_agent(
            AgentProfile(agent_id=agent_id, backend_id="good", task_kinds=kinds)
        )
    return scheduler


@pytest.mark.parametrize(
    "log_text",
    [
        rows_longer_than_a_block,
        blank_last_line,
        crash_mid_roster,
        partial_rosters_and_foreign_agents,
    ],
)
def test_backward_read_loads_as_the_full_fold(tmp_path: Path, log_text) -> None:
    text, registered = log_text()
    (tmp_path / "state").mkdir()
    log = tmp_path / "state" / "task_scores.jsonl"
    log.write_text(text, encoding="utf-8")
    scheduler = registered_scheduler(tmp_path, registered)
    assert loaded(scheduler) == fold_every_line(log, registered)


def test_a_kind_with_no_row_is_read_to_the_start_of_the_log(
    tmp_path: Path,
) -> None:
    agents = ("alpha", "beta", "gamma", "omega")
    registered = {agent: ("forecast", "report") for agent in agents}
    rows = rosters(*[("forecast", agents)] * 2_500).splitlines(keepends=True)
    assert len(rows) == 10_000
    (tmp_path / "state").mkdir()
    log = tmp_path / "state" / "task_scores.jsonl"
    log.write_text("".join(rows), encoding="utf-8")
    scheduler = registered_scheduler(tmp_path, registered)
    assert loaded(scheduler) == fold_every_line(log, registered)
    assert {kind for kind, _ in loaded(scheduler)} == {"forecast"}
    # so a malformed row far back is read, and named by its line
    log.write_text(
        "".join(rows[:5_000]) + '{"agent_id": "alpha"}\n' + "".join(rows[5_000:]),
        encoding="utf-8",
    )
    with pytest.raises(ConfigError, match=r"task_scores.jsonl line 5001\b"):
        registered_scheduler(tmp_path, registered).route("forecast")


def test_load_with_current_snapshot_builds_one_score_per_agent(
    tmp_path: Path, monkeypatch: pytest.MonkeyPatch
) -> None:
    agents = ("alpha", "beta", "gamma", "omega")
    registered = {agent: ("forecast", "report") for agent in agents}
    rng = random.Random(5)
    (tmp_path / "state").mkdir()
    log = tmp_path / "state" / "task_scores.jsonl"
    with log.open("w", encoding="utf-8") as handle:
        for n in range(10_000):
            kind = ("forecast", "report")[n % 2]
            handle.write(
                hand_row(agents[n // 2 % 4], kind, (rng.random(), rng.random()))
            )
    folded = fold_every_line(log, registered)
    built: list[TaskScore] = []
    init = TaskScore.__init__

    def counting(self: TaskScore, *args, **kwargs) -> None:
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(TaskScore, "__init__", counting)
    scheduler = registered_scheduler(tmp_path, registered)
    assert loaded(scheduler) == folded
    assert len(built) == len(agents) * 2


def test_rows_with_the_derived_fields_of_older_versions_load(
    tmp_path: Path,
) -> None:
    """Rows that still carry normalized scores, weights and a composite
    load as their measurement; the stored composite is not what ranks."""
    old = {
        "agent_id": "alpha",
        "task_kind": "forecast",
        "raw_scores": {"exact_match": 0.2, "token_f1": 0.4},
        "normalized_scores": {"exact_match": 1.0, "token_f1": 1.0},
        "weights": {"exact_match": 0.5, "token_f1": 0.5},
        "composite": 1.0,
        "evaluated_at": "2024-02-01T00:00:00Z",
    }
    (tmp_path / "state").mkdir()
    (tmp_path / "state" / "task_scores.jsonl").write_text(
        json.dumps(old) + "\n" + hand_row("beta", "forecast", (0.6, 0.8)),
        encoding="utf-8",
    )
    scheduler = registered_scheduler(
        tmp_path, {"alpha": ("forecast",), "beta": ("forecast",)}
    )
    assert scheduler.latest_scores("forecast")["alpha"] == TaskScore(
        "alpha", "forecast", old["raw_scores"], old["evaluated_at"]
    )
    assert scheduler.rank_agents("forecast") == [("beta", 1.0), ("alpha", 0.0)]
