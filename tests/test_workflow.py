"""Workflow tests: task validation, perception hygiene, the forecast
prompt blocks against fixture data, and the task runner's routing, role
tagging, trace, finalization and artifacts over scripted mock backends.
"""

from __future__ import annotations

import datetime as dt
import json
import random
from pathlib import Path

import pytest

from finorch.apps.forecaster import (
    basic_financials_text,
    company_introduction_text,
    perceive,
    recent_news_text,
    stock_price_changes_text,
)
from finorch.clock import FixedClock
from finorch.dataops.providers import FixtureProvider, MarketData
from finorch.errors import EmptyBundle, EngineError, UnknownTemplate
from finorch.gateway import ChatMessage, Gateway
from finorch.prompts import PromptStore
from finorch.scheduler import AgentProfile, GoldenRecord, Scheduler
from finorch.workflow import (
    ROLE_ASSISTANT,
    ROLE_FINANCIAL_ANALYST,
    Outcome,
    Task,
    run_task,
)

FIXTURES = Path(__file__).parent.parent / "fixtures"
WATERMARK = "ZZWATERMARKQ7"


def market_data() -> MarketData:
    return MarketData(FixtureProvider(FIXTURES))


def forecast_task(**overrides) -> Task:
    kwargs = dict(
        task_id="forecast-AAPL-20240419-h7-en",
        task_kind="forecast",
        subject="AAPL",
        cutoff_date=dt.date(2024, 4, 19),
        horizon=7,
        instruction_text="Forecast next week's move for AAPL.",
        language="en",
    )
    kwargs.update(overrides)
    return Task(**kwargs)


def report_task(**overrides) -> Task:
    kwargs = dict(
        task_id="report-acme-q1",
        task_kind="report",
        subject="Acme",
        cutoff_date=dt.date(2024, 4, 19),
        horizon=0,
        instruction_text="revenue margin guidance",
        language="en",
    )
    kwargs.update(overrides)
    return Task(**kwargs)


# ------------------------------------------------------------------- task


def test_task_validation() -> None:
    with pytest.raises(ValueError):
        forecast_task(task_kind="prediction")
    with pytest.raises(ValueError):
        forecast_task(horizon=0)
    with pytest.raises(ValueError):
        forecast_task(language="fr")
    with pytest.raises(ValueError):
        forecast_task(subject="")
    with pytest.raises(ValueError):
        forecast_task(task_id="")
    # report tasks may carry horizon 0
    assert report_task().horizon == 0


def test_task_accepts_iso_date_string() -> None:
    task = forecast_task(cutoff_date="2024-04-19")
    assert task.cutoff_date == dt.date(2024, 4, 19)


# -------------------------------------------------------------- perception


def test_perceive_forecast_is_strictly_pre_cutoff() -> None:
    perception = perceive(forecast_task(), market_data(), clock=FixedClock())
    company = perception.company
    assert company is not None
    assert all(o.date < dt.date(2024, 4, 19) for o in company.prices.observations)
    assert all(n.dated < dt.date(2024, 4, 19) for n in company.news)
    assert WATERMARK not in json.dumps(company.to_dict())
    assert perception.assembled_at == "2024-01-01T00:00:00Z"


def test_perceive_forecast_empty_bundle_before_any_data() -> None:
    with pytest.raises(EmptyBundle):
        perceive(forecast_task(cutoff_date=dt.date(2020, 1, 1)), market_data())


def full_perception():
    return perceive(forecast_task(), market_data(), clock=FixedClock())


# ----------------------------------------------------------- prompt blocks


def test_company_introduction_text() -> None:
    company = full_perception().company
    text = company_introduction_text(company, "en")
    assert "Apple Inc" in text
    assert "Technology" in text
    assert "NASDAQ NMS - GLOBAL MARKET" in text
    assert "2,610,000" in text
    zh = company_introduction_text(company, "zh")
    assert "Apple Inc" in zh and "行业" in zh


def test_stock_price_changes_text_uses_original_close_strings() -> None:
    company = full_perception().company
    text = stock_price_changes_text(company, "en")
    first = company.prices.observations[0]
    last = company.prices.observations[-1]
    assert first.close in text and last.close in text
    assert first.date.isoformat() in text and last.date.isoformat() in text
    pct = (last.close_value() / first.close_value() - 1.0) * 100.0
    assert f"{pct:+.2f}%" in text


def test_recent_news_text_lists_dated_headlines() -> None:
    company = full_perception().company
    text = recent_news_text(company, "en")
    assert text.count("[Headline]:") == len(company.news)
    assert text.count("[Summary]:") == len(company.news)
    for item in company.news:
        assert item.dated.isoformat() in text
    assert WATERMARK not in text
    zh = recent_news_text(company, "zh")
    assert zh.count("[新闻标题]:") == len(company.news)


def test_basic_financials_text_sorted_metrics() -> None:
    company = full_perception().company
    text = basic_financials_text(company, "en")
    assert text.splitlines()[0] == "Reporting period: 2024-Q1"
    names = [line.split(":")[0] for line in text.splitlines()[1:]]
    assert names == sorted(names)
    assert "pe_ratio: 26.4" in text


# ------------------------------------------------------------------ runner

NOTE = "the quarter was steady"
ACCEPT = [{"match": "", "reply": "score: 1.0 accepted"}]


def build_scheduler(tmp_path: Path, judge: list[dict] | None = ACCEPT):
    """Scheduler over scripted backends for report tasks; alpha outscores
    beta. ``judge`` is the judge backend's script, None for no judge."""
    task = report_task()
    scripts = {
        "main": [
            {"match": task.task_id, "reply": "score: 0.9 coherent note"},
            {"match": "write the note", "reply": NOTE},
            {"match": "fail the note", "fail": True},
            {"match": "golden probe", "reply": "right answer"},
        ],
        "noise": [{"match": "", "reply": "no call"}],
    }
    if judge is not None:
        scripts["judge"] = judge
    gateway = Gateway(
        clock=FixedClock(), sleeper=lambda _s: None, rng=random.Random(0)
    )
    for backend_id, script in scripts.items():
        gateway.script_mock(backend_id, script)
    scheduler = Scheduler(
        gateway=gateway,
        prompt_store=PromptStore(),
        state_dir=tmp_path / "state",
        judge_backend_id="judge" if judge is not None else None,
        clock=FixedClock(),
    )
    for agent_id, backend_id in (("alpha", "main"), ("beta", "noise")):
        scheduler.register_agent(
            AgentProfile(
                agent_id=agent_id,
                backend_id=backend_id,
                task_kinds=frozenset({"report"}),
            )
        )
    dataset = [
        GoldenRecord(
            record_id="g1",
            task_kind="report",
            input_text="golden probe",
            reference_answer="right answer",
            dimension_labels=("exact_match",),
        )
    ]
    scheduler.evaluate_agent("alpha", dataset)
    scheduler.evaluate_agent("beta", dataset)
    return task, scheduler, gateway


def note_act(gateway: Gateway, prompt: str):
    """A minimal act step: one Assistant record and one analyst chat."""

    def act(backend_id, trace):
        trace.emit(ROLE_ASSISTANT, {"event": "perception"})
        with trace.stage(ROLE_FINANCIAL_ANALYST):
            exchange = gateway.chat(
                backend_id, [ChatMessage(role="user", content=prompt)]
            )
        return Outcome(
            value=exchange,
            final_output=exchange.response_text,
            artifact="note.json",
            payload={"note": exchange.response_text},
            texts={"note.txt": exchange.response_text},
        )

    return act


def run_note(
    tmp_path: Path,
    *,
    task: Task | None = None,
    prompt: str = "write the note",
    prompt_store: PromptStore | None = None,
    runs: bool = True,
    judge: list[dict] | None = ACCEPT,
):
    default_task, scheduler, gateway = build_scheduler(tmp_path, judge)
    run = run_task(
        task or default_task,
        note_act(gateway, prompt),
        scheduler=scheduler,
        gateway=gateway,
        prompt_store=prompt_store or PromptStore(),
        runs_dir=tmp_path / "runs" if runs else None,
        clock=FixedClock(),
    )
    return run, scheduler


def trace_records(tmp_path: Path, task: Task | None = None) -> list[dict]:
    path = tmp_path / "runs" / (task or report_task()).task_id / "trace.jsonl"
    return [json.loads(line) for line in path.read_text().splitlines()]


def test_run_task_end_to_end(tmp_path: Path) -> None:
    run, scheduler = run_note(tmp_path)
    task = report_task()
    assert run.value.backend_id == "main"
    assert run.evaluation is not None and run.evaluation.grade == 1.0
    assert run.evaluation.self_scores == (0.9,)
    assert run.run_dir == tmp_path / "runs" / task.task_id
    assert (run.run_dir / "note.txt").read_text() == NOTE
    artifact = json.loads((run.run_dir / "note.json").read_text())
    assert artifact == {
        "agent": "alpha",
        "generated_at": artifact["generated_at"],
        "grade": 1.0,
        "note": NOTE,
        "self_score": 0.9,
        "task_id": "report-acme-q1",
    }
    records = trace_records(tmp_path)
    assert [(r["role"], r["event"]) for r in records] == [
        ("Director", "route"),
        ("Assistant", "perception"),
        ("Financial Analyst", "self_assessment"),
        ("Director", "finalized"),
    ]
    assert records[0]["chosen"] == "alpha"
    stamps = [r["at"] for r in records] + [artifact["generated_at"]]
    assert stamps == sorted(stamps) and len(set(stamps)) == len(stamps)
    assert run.evaluation.reflection_count == 1
    reflections = scheduler.reflections_path.read_text().splitlines()
    assert [json.loads(line)["task_id"] for line in reflections] == [
        task.task_id
    ]


def test_run_task_trace_is_deterministic(tmp_path: Path) -> None:
    outputs = []
    for name in ("one", "two"):
        run, _ = run_note(tmp_path / name)
        outputs.append(
            [(run.run_dir / f).read_bytes() for f in ("trace.jsonl", "note.json")]
        )
    assert outputs[0] == outputs[1]


def test_run_task_without_judge_skips_grading(tmp_path: Path) -> None:
    run, _ = run_note(tmp_path, judge=None)
    assert run.evaluation is None
    last = trace_records(tmp_path)[-1]
    assert (last["role"], last["event"]) == ("Director", "finalize_skipped")
    assert "judge" in last["reason"]
    artifact = json.loads((run.run_dir / "note.json").read_text())
    assert artifact["grade"] is None and artifact["self_score"] == 0.9


def test_run_task_without_runs_dir_writes_nothing(tmp_path: Path) -> None:
    run, _ = run_note(tmp_path, runs=False)
    assert run.run_dir is None and run.value.response_text == NOTE
    assert not (tmp_path / "runs").exists()


def failed_note(tmp_path: Path, **kwargs) -> tuple[EngineError, list[dict]]:
    """Run a note expected to fail; return the error and the trace."""
    with pytest.raises(EngineError) as err:
        run_note(tmp_path, **kwargs)
    return err.value, trace_records(tmp_path, kwargs.get("task"))


def test_run_task_route_failure_carries_director_role(tmp_path: Path) -> None:
    # only report scores exist, so a forecast task cannot be routed
    error, records = failed_note(tmp_path, task=forecast_task())
    assert error.role == "Director"
    assert [(r["role"], r["event"]) for r in records] == [("Director", "error")]


def test_run_task_act_failure_carries_analyst_role(tmp_path: Path) -> None:
    error, records = failed_note(tmp_path, prompt="fail the note")
    assert error.role == "Financial Analyst"
    assert [(r["role"], r["event"]) for r in records] == [
        ("Director", "route"),
        ("Assistant", "perception"),
        ("Financial Analyst", "error"),
    ]


def test_run_task_self_assessment_failure_carries_analyst_role(
    tmp_path: Path,
) -> None:
    bare = tmp_path / "bare_prompts"
    bare.mkdir()
    error, records = failed_note(tmp_path, prompt_store=PromptStore(bare))
    assert isinstance(error, UnknownTemplate)
    assert error.role == "Financial Analyst"
    assert [r["event"] for r in records] == ["route", "perception", "error"]
    assert records[-1]["error"] == str(error)


def test_run_task_finalize_failure_carries_director_role(tmp_path: Path) -> None:
    error, records = failed_note(tmp_path, judge=[{"match": "", "fail": True}])
    assert error.role == "Director"
    assert [(r["role"], r["event"]) for r in records][-2:] == [
        ("Financial Analyst", "self_assessment"),
        ("Director", "error"),
    ]
