"""Scheduler tests: scoring math against independent oracles, and the
evaluate → rank → route → reflect → finalize loop over scripted mock
backends with no network access.
"""

from __future__ import annotations

import json
import random
import threading
from pathlib import Path

import pytest

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
    UnknownTask,
    WeightSumInvalid,
    WorkflowNotComplete,
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
        weights={"forecast": {"exact_match": 0.5, "token_f1": 0.5}},
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
    scheduler, _ = make_scheduler(tmp_path, scripts, judge_backend_id="judge")
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
    score = scheduler.evaluate_agent(
        "alpha", dataset, weights={"exact_match": 0.5, "clarity": 0.5}
    )
    assert score.raw_scores["clarity"] == pytest.approx(0.75)


def test_judged_dimension_without_judge_backend_is_config_error(
    tmp_path: Path,
) -> None:
    scheduler, _ = make_scheduler(tmp_path, {"good": correct_script()})
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
        scheduler.evaluate_agent("alpha", dataset, weights={"clarity": 1.0})


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
    scheduler, _ = make_scheduler(tmp_path, scripts, judge_backend_id="judge")
    register(scheduler, "alpha", "good")
    score = scheduler.evaluate_agent("alpha", dataset, weights={"clarity": 1.0})
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
    scheduler, _ = make_scheduler(tmp_path, scripts, judge_backend_id="judge")
    register(scheduler, "alpha", "good")
    with pytest.raises(GradeParseFailure):
        scheduler.evaluate_agent("alpha", dataset, weights={"clarity": 1.0})


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
    scheduler.register_task("task-1")
    first = scheduler.record_reflection(
        "alpha", "task-1", "score: 0.8 — sources well cited"
    )
    assert first.self_score == 0.8
    second = scheduler.record_reflection(
        "alpha", "task-1", "no numeric score, prose only"
    )
    assert second.self_score is None
    assert second.notes == "no numeric score, prose only"
    stored = scheduler.reflections_for("task-1")
    assert stored == [first, second]
    lines = scheduler.reflections_path.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 2


def test_record_reflection_validates_agent_and_task(tmp_path: Path) -> None:
    scheduler, _ = make_scheduler(tmp_path, {"good": correct_script()})
    register(scheduler, "alpha", "good")
    scheduler.register_task("task-1")
    with pytest.raises(UnknownAgent):
        scheduler.record_reflection("ghost", "task-1", "score: 0.5")
    with pytest.raises(UnknownTask):
        scheduler.record_reflection("alpha", "task-ghost", "score: 0.5")


# -------------------------------------------------------------- evaluations


def test_finalize_requires_completed_workflow(tmp_path: Path) -> None:
    scheduler, _ = make_scheduler(tmp_path, {"good": correct_script()})
    with pytest.raises(WorkflowNotComplete):
        scheduler.finalize_workflow("wf-1")


def test_finalize_grades_and_aggregates_self_scores(tmp_path: Path) -> None:
    scripts = {
        "good": correct_script(),
        "judge": [{"match": "", "reply": "score: 1.0 meets the acceptance text"}],
    }
    scheduler, _ = make_scheduler(tmp_path, scripts, judge_backend_id="judge")
    register(scheduler, "alpha", "good")
    scheduler.mark_workflow_complete(
        "wf-1", final_output="final text", acceptance_text="must mention text"
    )
    scheduler.record_reflection("alpha", "wf-1", "score: 0.8 good work")
    scheduler.record_reflection("alpha", "wf-1", "score: 0.6 missed one item")
    scheduler.record_reflection("alpha", "wf-1", "prose only, no score")
    evaluation = scheduler.finalize_workflow("wf-1")
    assert evaluation.grade == 1.0
    assert evaluation.self_scores == (0.8, 0.6)
    assert evaluation.mean_self_score == pytest.approx(0.7)
    assert evaluation.reflection_count == 3
    lines = scheduler.evaluations_path.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["workflow_id"] == "wf-1"


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
