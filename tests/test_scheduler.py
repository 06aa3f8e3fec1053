"""Scheduler tests: scoring math against independent oracles, and the
evaluate → rank → route → reflect → finalize loop over scripted mock
backends with no network access.
"""

from __future__ import annotations

import json
import math
import random
import shutil
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
    DimensionMismatch,
    DuplicateAgent,
    EmptyDataset,
    EmptyInput,
    GatewayFailure,
    GradeParseFailure,
    MissingDimension,
    NoScoredAgents,
    TransportError,
    UnknownAgent,
    UnknownBackend,
    WeightSumInvalid,
)
from finorch.gateway import BackendSpec, Gateway
from finorch.prompts import PromptStore
from finorch.scheduler import (
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
    with pytest.raises(EmptyInput):
        normalize_scores({})
    with pytest.raises(MissingDimension):
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
    with pytest.raises(DimensionMismatch):
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
        clock=FixedClock(), sleeper=lambda _s: None, rng=random.Random(0)
    )
    for backend_id, script in scripts.items():
        gateway.script_mock(backend_id, script)
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
    with pytest.raises(DuplicateAgent):
        register(scheduler, "alpha", "good")
    with pytest.raises(UnknownBackend):
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
    assert score.composite == 1.0  # degenerate normalization on a 1-roster


def test_evaluate_empty_reply_scores_zero_exact_match(tmp_path: Path) -> None:
    scheduler, _ = make_scheduler(tmp_path, {"bad": wrong_script()})
    register(scheduler, "beta", "bad")
    score = scheduler.evaluate_agent("beta", golden_dataset())
    assert score.raw_scores["exact_match"] == 0.0


def test_evaluate_validates_inputs(tmp_path: Path) -> None:
    scheduler, _ = make_scheduler(tmp_path, {"good": correct_script()})
    register(scheduler, "alpha", "good")
    with pytest.raises(EmptyDataset):
        scheduler.evaluate_agent("alpha", [])
    with pytest.raises(UnknownAgent):
        scheduler.evaluate_agent("ghost", golden_dataset())
    mixed = golden_dataset()
    mixed[0] = GoldenRecord(
        record_id="g1",
        task_kind="report",
        input_text="x",
        reference_answer="y",
        dimension_labels=("exact_match", "token_f1"),
    )
    with pytest.raises(ValueError):
        scheduler.evaluate_agent("alpha", mixed)


def test_gateway_failure_carries_record_id(tmp_path: Path) -> None:
    scheduler, _ = make_scheduler(
        tmp_path, {"flaky": [{"match": "", "fail": True}]}
    )
    register(scheduler, "alpha", "flaky")
    with pytest.raises(GatewayFailure) as err:
        scheduler.evaluate_agent("alpha", golden_dataset())
    assert err.value.record_id == "g1"


def test_gateway_failure_names_first_failing_record_in_dataset_order(
    tmp_path: Path,
) -> None:
    scheduler, _ = make_scheduler(
        tmp_path,
        {"flaky": [{"match": "g3:", "fail": True}, *correct_script()]},
    )
    register(scheduler, "alpha", "flaky")
    with pytest.raises(GatewayFailure) as err:
        scheduler.evaluate_agent("alpha", golden_dataset())
    assert err.value.record_id == "g3"


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
    with pytest.raises(GatewayFailure) as err:
        scheduler.evaluate_agent("alpha", golden_dataset())
    assert err.value.record_id == "g2"
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
    assert (alpha.agent_id, alpha.composite) == ("alpha", 1.0)
    assert (beta.agent_id, beta.composite) == ("beta", 0.0)
    # Graded job by job, then the roster is appended once: one row each.
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
    with pytest.raises(GatewayFailure) as err:
        scheduler.evaluate_agents(
            [("alpha", golden_dataset()), ("beta", golden_dataset())]
        )
    assert err.value.record_id == "g2"
    assert "'beta'" in str(err.value)
    # alpha was graded, but a failed evaluation leaves no half roster.
    assert not scheduler.scores_path.exists()
    with pytest.raises(NoScoredAgents):
        scheduler.rank_agents("forecast")


def test_correct_vs_wrong_agents_score_one_and_zero(tmp_path: Path) -> None:
    scheduler, _ = make_scheduler(
        tmp_path, {"good": correct_script(), "bad": wrong_script()}
    )
    register(scheduler, "alpha", "good")
    register(scheduler, "beta", "bad")
    scheduler.evaluate_agent("alpha", golden_dataset())
    beta_score = scheduler.evaluate_agent("beta", golden_dataset())
    latest = scheduler.latest_scores("forecast")
    assert latest["alpha"].composite == 1.0
    assert latest["beta"].composite == 0.0
    assert beta_score.composite == 0.0


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


def test_weights_come_from_config_else_uniform(tmp_path: Path) -> None:
    configured, gateway = make_scheduler(
        tmp_path,
        {"good": correct_script()},
        weights={"exact_match": 0.25, "token_f1": 0.75},
    )
    register(configured, "alpha", "good")
    score = configured.evaluate_agent("alpha", golden_dataset())
    assert score.weights == {"exact_match": 0.25, "token_f1": 0.75}
    unweighted = Scheduler(
        gateway=gateway,
        prompt_store=PromptStore(),
        state_dir=tmp_path / "unweighted",
        clock=FixedClock(),
    )
    register(unweighted, "alpha", "good")
    score = unweighted.evaluate_agent("alpha", golden_dataset())
    assert score.weights == {"exact_match": 0.5, "token_f1": 0.5}


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
    with pytest.raises(NoScoredAgents):
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
    with pytest.raises(UnknownAgent):
        scheduler.record_reflection("ghost", "task-1", "score: 0.5")
    assert not scheduler.reflections_path.exists()


# -------------------------------------------------------------- evaluations


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
    with pytest.raises(ValueError):
        TaskScore(
            agent_id="a",
            task_kind="forecast",
            raw_scores={"d": 1.0},
            normalized_scores={"d": 1.5},
            weights={"d": 1.0},
            composite=1.5,
            evaluated_at="2024-01-01T00:00:00Z",
        )
    with pytest.raises(WeightSumInvalid):
        TaskScore(
            agent_id="a",
            task_kind="forecast",
            raw_scores={"d": 1.0},
            normalized_scores={"d": 1.0},
            weights={"d": 0.5},
            composite=0.5,
            evaluated_at="2024-01-01T00:00:00Z",
        )
    with pytest.raises(ValueError):
        TaskScore(
            agent_id="a",
            task_kind="forecast",
            raw_scores={"d": 1.0},
            normalized_scores={"d": 1.0},
            weights={"d": 1.0},
            composite=0.25,  # disagrees with the weighted sum
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
    assert load_golden_dataset(path) == golden_dataset()


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
    with pytest.raises(ConfigError, match=rf"task_scores.jsonl line {torn_line}\b"):
        make_scheduler(tmp_path, {"good": correct_script()})


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
    with pytest.raises(ConfigError, match=r"task_scores.jsonl line 1\b"):
        make_scheduler(tmp_path, {"good": correct_script()})


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
    for bad_line in ('{"record_id": "g2", "task_k', json.dumps(missing)):
        path.write_text(
            json.dumps(good) + "\n\n" + bad_line + "\n", encoding="utf-8"
        )
        with pytest.raises(ConfigError, match=r"golden.jsonl line 3\b"):
            load_golden_dataset(path)


# ----------------------------------------------------------------- snapshot

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


def full_replay(state_root: Path, tmp: Path) -> Scheduler:
    """A scheduler over a copy of the score log alone, with no snapshot."""
    (tmp / "state").mkdir(parents=True)
    log = state_root / "state" / "task_scores.jsonl"
    if log.exists():
        shutil.copyfile(log, tmp / "state" / "task_scores.jsonl")
    return swap_scheduler(tmp)


def ranking_or_none(scheduler: Scheduler, task_kind: str):
    try:
        return scheduler.rank_agents(task_kind)
    except NoScoredAgents:
        return None


def assert_same_state(loaded: Scheduler, replayed: Scheduler) -> None:
    for kind in ("forecast", "report"):
        assert list(loaded.latest_scores(kind).items()) == list(
            replayed.latest_scores(kind).items()
        )
        assert ranking_or_none(loaded, kind) == ranking_or_none(replayed, kind)


def hand_row(agent_id: str, task_kind: str, values: Sequence[float]) -> str:
    dims = ("exact_match", "token_f1") if task_kind == "forecast" else ("token_f1",)
    scores = dict(zip(dims, values))
    weights = {d: 1.0 / len(dims) for d in dims}
    score = TaskScore(
        agent_id=agent_id,
        task_kind=task_kind,
        raw_scores=scores,
        normalized_scores=scores,
        weights=weights,
        composite=math.fsum(weights[d] * scores[d] for d in weights),
        evaluated_at="2024-02-01T00:00:00Z",
    )
    return json.dumps(score.to_dict(), ensure_ascii=False) + "\n"


def snapshot_of(state_root: Path) -> dict:
    return json.loads(
        (state_root / "state" / "task_scores.snapshot.json").read_text(
            encoding="utf-8"
        )
    )


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
            st.sampled_from(["alpha", "omega", "ghost"]),
            st.sampled_from(["forecast", "report"]),
            st.tuples(unit, unit),
        ),
        st.tuples(st.just("reload")),
    ),
    max_size=12,
)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(steps=STEPS)
def test_snapshot_load_equals_full_replay(steps) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp) / "live"
        scheduler = swap_scheduler(root)
        log = root / "state" / "task_scores.jsonl"
        for step in steps:
            if step[0] == "evaluate":
                scheduler.evaluate_agent(step[1], golden_dataset(step[2]))
            elif step[0] == "append":
                with log.open("a", encoding="utf-8") as handle:
                    handle.write(hand_row(step[1], step[2], step[3]))
            else:
                scheduler = swap_scheduler(root)
        loaded = swap_scheduler(root)
        assert_same_state(loaded, full_replay(root, Path(tmp) / "replay"))
        # the state a load left behind loads the same again
        assert_same_state(swap_scheduler(root), loaded)


def damage_delete(root: Path) -> None:
    (root / "state" / "task_scores.snapshot.json").unlink()


def damage_invalid_json(root: Path) -> None:
    (root / "state" / "task_scores.snapshot.json").write_text(
        '{"log_bytes": 12', encoding="utf-8"
    )


def damage_truncate(root: Path) -> None:
    # back to the first question-one round: alpha leads again
    log = root / "state" / "task_scores.jsonl"
    lines = log.read_bytes().splitlines(keepends=True)
    log.write_bytes(b"".join(lines[:3]))


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
    [
        (damage_delete, "omega"),
        (damage_invalid_json, "omega"),
        (damage_truncate, "alpha"),
        (damage_rewrite_same_length, "alpha"),
    ],
)
def test_untrusted_snapshot_falls_back_to_full_replay(
    tmp_path: Path, damage, winner: str
) -> None:
    root = tmp_path / "live"
    first = swap_scheduler(root)
    evaluate_both(first, "question-one")
    evaluate_both(first, "question-two")
    swap_scheduler(root)  # folds six rows into a snapshot of two
    log = root / "state" / "task_scores.jsonl"
    assert snapshot_of(root)["log_bytes"] == len(log.read_bytes())
    assert first.route("forecast") == "omega"
    damage(root)

    loaded = swap_scheduler(root)
    assert_same_state(loaded, full_replay(root, tmp_path / "replay"))
    assert loaded.route("forecast") == winner
    assert snapshot_of(root)["log_bytes"] == len(log.read_bytes())
    rebuilt = snapshot_of(root)
    assert rebuilt["log_bytes"] == len(log.read_bytes())
    assert rebuilt["log_lines"] == len(log.read_bytes().splitlines())


def test_snapshot_is_only_written_when_it_saves_rows(tmp_path: Path) -> None:
    root = tmp_path / "live"
    first = swap_scheduler(root)
    first.evaluate_agent("alpha", golden_dataset())
    swap_scheduler(root)  # one row, one agent: nothing to compact
    assert not (root / "state" / "task_scores.snapshot.json").exists()
    first.evaluate_agent("omega", golden_dataset())
    swap_scheduler(root)
    assert snapshot_of(root)["log_lines"] == 3
    assert [row["agent_id"] for row in snapshot_of(root)["latest"]] == [
        "alpha",
        "omega",
    ]


def test_torn_tail_after_snapshot_names_the_absolute_line(
    tmp_path: Path,
) -> None:
    root = tmp_path / "live"
    scheduler = swap_scheduler(root)
    evaluate_both(scheduler, "question-one")
    swap_scheduler(root)
    assert snapshot_of(root)["log_lines"] == 3
    evaluate_both(scheduler, "question-two")
    log = root / "state" / "task_scores.jsonl"
    data = log.read_bytes()
    log.write_bytes(data[:-40])
    torn_line = len(data.splitlines())
    assert torn_line == 7
    with pytest.raises(ConfigError, match=rf"task_scores.jsonl line {torn_line}\b"):
        swap_scheduler(root)


def test_load_with_current_snapshot_builds_one_score_per_agent(
    tmp_path: Path, monkeypatch: pytest.MonkeyPatch
) -> None:
    agents = ("alpha", "beta", "gamma", "omega")
    rng = random.Random(5)
    (tmp_path / "state").mkdir()
    with (tmp_path / "state" / "task_scores.jsonl").open(
        "w", encoding="utf-8"
    ) as handle:
        for n in range(10_000):
            kind = ("forecast", "report")[n % 2]
            handle.write(
                hand_row(agents[n // 2 % 4], kind, (rng.random(), rng.random()))
            )
    before, _ = make_scheduler(tmp_path, {})  # full replay, then a snapshot
    built: list[TaskScore] = []
    init = TaskScore.__init__

    def counting(self: TaskScore, *args, **kwargs) -> None:
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(TaskScore, "__init__", counting)
    after, _ = make_scheduler(tmp_path, {})
    assert len(built) == len(agents) * 2
    assert after._latest == before._latest
