"""Market Forecaster tests: horizon arithmetic, the four-block prompt
builder, the bilingual forecast parser over the two reference transcripts,
render/parse round-trips, and the full offline pipeline.
"""

from __future__ import annotations

import dataclasses
import datetime as dt
import json
import random
from pathlib import Path

import pytest

from finorch.apps.forecaster import (
    FactorItem,
    ForecastResult,
    build_forecast_prompt,
    forecast_task_id,
    horizon_window,
    parse_forecast,
    render_forecast,
    run_forecaster,
)
from finorch.clock import FixedClock
from finorch.dataops.providers import FixtureProvider, MarketData
from finorch.errors import (
    EngineError,
    IncompleteBundle,
    MissingSection,
    UnparseablePrediction,
)
from finorch.gateway import Gateway
from finorch.prompts import PromptStore
from finorch.scheduler import AgentProfile, GoldenRecord, Scheduler

FIXTURES = Path(__file__).parent.parent / "fixtures"
TEST_FIXTURES = Path(__file__).parent / "fixtures"
WATERMARK = "ZZWATERMARKQ7"

NVDA_TEXT = (TEST_FIXTURES / "forecast_nvda_en.txt").read_text(encoding="utf-8")
MOUTAI_TEXT = (TEST_FIXTURES / "forecast_moutai_zh.txt").read_text(
    encoding="utf-8"
)


def aapl_bundle():
    return MarketData(FixtureProvider(FIXTURES)).company_bundle(
        "AAPL", dt.date(2024, 4, 19)
    )


# ---------------------------------------------------------------- horizon


@pytest.mark.parametrize(
    ("cutoff", "days", "expected"),
    [
        # Friday cutoff: window opens Monday, closes the following Friday
        (dt.date(2024, 4, 19), 7, (dt.date(2024, 4, 22), dt.date(2024, 4, 26))),
        # Monday cutoff: window opens Tuesday
        (dt.date(2024, 1, 29), 7, (dt.date(2024, 1, 30), dt.date(2024, 2, 5))),
        # end landing on a Saturday rolls back to Friday
        (dt.date(2024, 4, 15), 5, (dt.date(2024, 4, 16), dt.date(2024, 4, 19))),
        # Saturday cutoff: window opens Monday
        (dt.date(2024, 4, 13), 7, (dt.date(2024, 4, 15), dt.date(2024, 4, 19))),
        (dt.date(2024, 4, 17), 1, (dt.date(2024, 4, 18), dt.date(2024, 4, 18))),
    ],
)
def test_horizon_window(cutoff, days, expected) -> None:
    assert horizon_window(cutoff, days) == expected


def test_horizon_window_rejects_degenerate_spans() -> None:
    with pytest.raises(ValueError):
        horizon_window(dt.date(2024, 4, 19), 0)
    with pytest.raises(ValueError):
        # Friday + 1 day is Saturday: no weekday inside the window
        horizon_window(dt.date(2024, 4, 19), 1)


# ----------------------------------------------------------------- prompt


def test_build_forecast_prompt_has_all_blocks() -> None:
    messages = build_forecast_prompt(
        aapl_bundle(), dt.date(2024, 4, 19), 7, "en", PromptStore()
    )
    assert [m.role for m in messages] == ["system", "user"]
    user = messages[1].content
    for block in (
        "a. Company Introduction",
        "b. Stock Price Changes",
        "c. Recent News Information",
        "d. Recent Basic Financials",
    ):
        assert block in user
    assert "Based on all the information before 2024-04-19" in user
    assert "(2024-04-22 to 2024-04-26)" in user
    assert "Apple Inc" in user
    assert "pe_ratio: 26.4" in user
    assert WATERMARK not in user
    assert WATERMARK not in messages[0].content


def test_build_forecast_prompt_is_byte_stable() -> None:
    args = (aapl_bundle(), dt.date(2024, 4, 19), 7, "en", PromptStore())
    first = build_forecast_prompt(*args)
    second = build_forecast_prompt(*args)
    assert [m.content for m in first] == [m.content for m in second]


def test_build_forecast_prompt_zh_variant() -> None:
    messages = build_forecast_prompt(
        aapl_bundle(), dt.date(2024, 4, 19), 7, "zh", PromptStore()
    )
    user = messages[1].content
    assert "a. 公司简介" in user
    assert "2024-04-19" in user
    assert "2024-04-22" in user and "2024-04-26" in user


@pytest.mark.parametrize(
    ("mutate", "missing"),
    [
        (
            lambda b: dataclasses.replace(
                b, profile=dataclasses.replace(b.profile, name="")
            ),
            "company_introduction",
        ),
        (
            lambda b: dataclasses.replace(
                b,
                prices=dataclasses.replace(
                    b.prices, observations=b.prices.observations[:1]
                ),
            ),
            "stock_price_changes",
        ),
        (lambda b: dataclasses.replace(b, news=()), "recent_news"),
        (
            lambda b: dataclasses.replace(
                b,
                financials=dataclasses.replace(b.financials, metrics={}),
            ),
            "basic_financials",
        ),
    ],
)
def test_build_forecast_prompt_names_the_missing_block(mutate, missing) -> None:
    bundle = mutate(aapl_bundle())
    with pytest.raises(IncompleteBundle) as err:
        build_forecast_prompt(
            bundle, dt.date(2024, 4, 19), 7, "en", PromptStore()
        )
    assert err.value.missing_block == missing


# ---------------------------------------------------------------- parsing


def test_parse_reference_forecast_en() -> None:
    result = parse_forecast(NVDA_TEXT, "en")
    assert result.direction == "up"
    assert (result.low, result.high) == (0.0, 1.0)
    assert len(result.positives) == 4
    assert len(result.concerns) == 3
    assert [p.evidence_tag for p in result.positives] == [
        "Stock Price",
        "News",
        "News",
        "Basic Financials",
    ]
    assert [c.evidence_tag for c in result.concerns] == [
        "Basic Financials",
        "Basic Financials",
        "Basic Financials",
    ]
    assert result.positives[0].text == (
        "NVDA's stock price has been steadily increasing over the past "
        "weeks, suggesting a strong investor sentiment."
    )
    assert result.analysis.startswith("Despite some potential concerns")
    assert result.analysis.endswith("affect its liquidity.")


def test_parse_reference_forecast_zh() -> None:
    result = parse_forecast(MOUTAI_TEXT, "zh")
    assert result.direction == "up"
    assert (result.low, result.high) == (0.0, 1.0)
    assert [p.evidence_tag for p in result.positives] == [
        "News",
        "News",
        "Basic Financials",
        "Basic Financials",
    ]
    assert [c.evidence_tag for c in result.concerns] == [
        "Basic Financials",
        "News",
        "Stock Price",
    ]
    assert result.analysis.startswith("虽然贵州茅台")
    assert result.analysis.endswith("上涨0-1%。")


def test_parse_accepts_singular_and_alternate_headers() -> None:
    text = (
        "[Positive development]:\n"
        "1. Shipments accelerated. (News)\n\n"
        "[Potential concern]:\n"
        "1. Inventory is building.\n\n"
        "[Forecast and Analysis]:\n"
        "Prediction: Down by 2-3%\n"
        "Analysis: Softness ahead.\n"
    )
    result = parse_forecast(text, "en")
    assert result.direction == "down"
    assert (result.low, result.high) == (2.0, 3.0)
    assert result.concerns[0].evidence_tag is None
    assert result.analysis == "Softness ahead."


def test_parse_tolerates_unbracketed_and_cased_headers() -> None:
    text = (
        "POSITIVE DEVELOPMENTS:\n"
        "1. Margins widened. (Basic Financials)\n"
        "potential concerns\n"
        "1. Churn rose. (News)\n"
        "Prediction & Analysis:\n"
        "prediction: up by 1-2%\n"
    )
    result = parse_forecast(text, "en")
    assert result.direction == "up"
    assert (result.low, result.high) == (1.0, 2.0)
    assert result.analysis == ""


def test_parse_missing_sections_named_canonically() -> None:
    base = (
        "[Positive Developments]:\n1. Good. (News)\n\n"
        "[Potential Concerns]:\n1. Bad. (News)\n"
    )
    with pytest.raises(MissingSection) as err:
        parse_forecast(base, "en")
    assert err.value.section == "Prediction & Analysis"
    with pytest.raises(MissingSection) as err2:
        parse_forecast(
            "[Potential Concerns]:\n1. Bad.\n\n[Prediction & Analysis]:\n"
            "Prediction: Up by 0-1%\n",
            "en",
        )
    assert err2.value.section == "Positive Developments"


def test_parse_unparseable_prediction() -> None:
    text = (
        "[Positive Developments]:\n1. Good. (News)\n\n"
        "[Potential Concerns]:\n1. Bad. (News)\n\n"
        "[Prediction & Analysis]:\n"
        "We feel broadly constructive on the name.\n"
    )
    with pytest.raises(UnparseablePrediction) as err:
        parse_forecast(text, "en")
    assert "broadly constructive" in err.value.text


@pytest.mark.parametrize(
    "line",
    [
        "Prediction: Up by 5%",  # no band
        "Prediction: Up by 3-1%",  # inverted band
        "Prediction: sideways by 0-1%",  # unknown direction
    ],
)
def test_parse_rejects_malformed_bands(line: str) -> None:
    text = (
        "[Positive Developments]:\n1. Good. (News)\n\n"
        "[Potential Concerns]:\n1. Bad. (News)\n\n"
        f"[Prediction & Analysis]:\n{line}\n"
    )
    with pytest.raises(UnparseablePrediction):
        parse_forecast(text, "en")


def test_parse_unknown_tag_goes_to_other() -> None:
    text = (
        "[Positive Developments]:\n"
        "1. Rates may ease. (Macro)\n"
        "2. Untagged strength continues.\n\n"
        "[Potential Concerns]:\n1. Bad. (News)\n\n"
        "[Prediction & Analysis]:\nPrediction: Up by 0-1%\n"
    )
    result = parse_forecast(text, "en")
    first, second = result.positives
    assert first.evidence_tag is None
    assert first.other_tag == "Macro"
    assert first.text == "Rates may ease."
    assert second.evidence_tag is None
    assert second.other_tag == ""


def test_parse_fractional_band() -> None:
    text = (
        "[Positive Developments]:\n1. Good. (News)\n\n"
        "[Potential Concerns]:\n1. Bad. (News)\n\n"
        "[Prediction & Analysis]:\nPrediction: Up by 2.5-3.5%\n"
    )
    result = parse_forecast(text, "en")
    assert (result.low, result.high) == (2.5, 3.5)
    assert result.band_text() == "2.5-3.5%"


def test_factor_item_validation() -> None:
    with pytest.raises(ValueError):
        FactorItem(text="x", evidence_tag="Rumor")
    with pytest.raises(ValueError):
        FactorItem(text="x", evidence_tag="News", other_tag="Macro")
    with pytest.raises(ValueError):
        FactorItem(text="")


def test_forecast_result_validation() -> None:
    with pytest.raises(ValueError):
        ForecastResult((), (), "sideways", 0.0, 1.0, "")
    with pytest.raises(ValueError):
        ForecastResult((), (), "up", 2.0, 1.0, "")


# ------------------------------------------------------------- round trip


def test_round_trip_reference_forecasts() -> None:
    for text, lang in ((NVDA_TEXT, "en"), (MOUTAI_TEXT, "zh")):
        parsed = parse_forecast(text, lang)
        rendered = render_forecast(parsed)
        assert parse_forecast(rendered, lang) == parsed


def test_round_trip_hand_built_result() -> None:
    result = ForecastResult(
        positives=(
            FactorItem(text="Backlog grew.", evidence_tag="News"),
            FactorItem(text="Rates may ease.", other_tag="Macro"),
            FactorItem(text="Untagged item."),
        ),
        concerns=(FactorItem(text="Margins thin.", evidence_tag="Basic Financials"),),
        direction="down",
        low=1.5,
        high=2.0,
        analysis="Two lines of analysis\njoined here.",
        language="en",
    )
    assert parse_forecast(render_forecast(result), "en") == result
    no_analysis = dataclasses.replace(result, analysis="")
    assert parse_forecast(render_forecast(no_analysis), "en") == no_analysis


def test_render_prediction_lines() -> None:
    en = ForecastResult((), (), "up", 0.0, 1.0, "", "en")
    assert "Prediction: Up by 0-1%" in render_forecast(en)
    zh = ForecastResult((), (), "up", 0.0, 1.0, "", "zh")
    assert "预测涨跌幅: 上涨0-1%" in render_forecast(zh)
    down = ForecastResult((), (), "down", 2.0, 3.0, "", "zh")
    assert "预测涨跌幅: 下跌2-3%" in render_forecast(down)


# ---------------------------------------------------------------- pipeline


FORECAST_REPLY = """[Positive Developments]:
1. AAPL's installed base keeps compounding and services attach is rising. (News)
2. The stock held its level into the print while peers slipped. (Stock Price)
3. Gross margin has stayed above 45 with a modest net debt position. (Basic Financials)

[Potential Concerns]:
1. The pe_ratio of 26.4 leaves little room for a guide-down. (Basic Financials)
2. Regulatory scrutiny of app distribution keeps headline risk alive. (News)

[Prediction & Analysis]:
Prediction: Up by 0-1%
Analysis: Weekly momentum is mildly positive and positioning is light, but the multiple caps the upside; a drift higher of under one percent is the base case.
"""


def build_pipeline(tmp_path: Path, assessment: dict | None = None):
    """Gateway and scheduler with the forecaster scored; ``assessment``
    replaces the scripted answer to the self-assessment prompt."""
    task_id = forecast_task_id("AAPL", dt.date(2024, 4, 19), 7, "en")
    assessment = assessment or {"reply": "score: 0.9 cited every block"}
    gateway = Gateway(
        clock=FixedClock(), sleeper=lambda _s: None, rng=random.Random(0)
    )
    gateway.script_mock(
        "forecaster-backend",
        [
            {"match": task_id, **assessment},
            {"match": "probe: weekly call", "reply": "up by 0-1%"},
            {"match": "AAPL", "reply": FORECAST_REPLY},
        ],
    )
    gateway.script_mock("judge", [{"match": "", "reply": "score: 1.0 accepted"}])
    scheduler = Scheduler(
        gateway=gateway,
        prompt_store=PromptStore(),
        state_dir=tmp_path / "state",
        judge_backend_id="judge",
        clock=FixedClock(),
    )
    scheduler.register_agent(
        AgentProfile(
            agent_id="forecaster",
            backend_id="forecaster-backend",
            task_kinds=frozenset({"forecast"}),
        )
    )
    scheduler.evaluate_agent(
        "forecaster",
        [
            GoldenRecord(
                record_id="g1",
                task_kind="forecast",
                input_text="probe: weekly call",
                reference_answer="up by 0-1%",
                dimension_labels=("exact_match",),
            )
        ],
    )
    return gateway, scheduler


def run_once(tmp_path: Path, assessment: dict | None = None):
    gateway, scheduler = build_pipeline(tmp_path, assessment)
    return run_forecaster(
        "AAPL",
        dt.date(2024, 4, 19),
        7,
        scheduler=scheduler,
        gateway=gateway,
        prompt_store=PromptStore(),
        market_data=MarketData(FixtureProvider(FIXTURES)),
        language="en",
        runs_dir=tmp_path / "runs",
        clock=FixedClock(),
    )


def test_run_forecaster_end_to_end(tmp_path: Path) -> None:
    run = run_once(tmp_path)
    assert run.task.task_id == "forecast-AAPL-20240419-h7-en"
    assert run.result.direction == "up"
    assert run.result.band_text() == "0-1%"
    assert len(run.result.positives) == 3
    assert run.evaluation is not None and run.evaluation.grade == 1.0
    artifact = json.loads(run.forecast_path.read_text(encoding="utf-8"))
    assert artifact["symbol"] == "AAPL"
    assert artifact["window"] == {"start": "2024-04-22", "end": "2024-04-26"}
    assert artifact["prediction"] == {"direction": "up", "low": 0.0, "high": 1.0}
    assert artifact["self_score"] == 0.9
    assert artifact["grade"] == 1.0
    assert artifact["model_text"] == FORECAST_REPLY
    trace_lines = (
        (run.run_dir / "trace.jsonl").read_text(encoding="utf-8").splitlines()
    )
    records = [json.loads(line) for line in trace_lines]
    assert records[0]["event"] == "route"
    assert records[0]["chosen"] == "forecaster"
    assert [r["event"] for r in records] == [
        "route",
        "perception",
        "forecast",
        "self_assessment",
        "finalized",
    ]


def test_run_forecaster_prompt_is_cutoff_clean(tmp_path: Path) -> None:
    run = run_once(tmp_path)
    for message in run.exchange.request_messages:
        assert WATERMARK not in message.content
    artifact_text = run.forecast_path.read_text(encoding="utf-8")
    assert WATERMARK not in artifact_text


def test_run_forecaster_is_deterministic(tmp_path: Path) -> None:
    first = run_once(tmp_path / "a")
    second = run_once(tmp_path / "b")
    assert (
        first.forecast_path.read_bytes() == second.forecast_path.read_bytes()
    )
    assert (first.run_dir / "trace.jsonl").read_bytes() == (
        second.run_dir / "trace.jsonl"
    ).read_bytes()


def test_run_forecaster_self_assessment_failure_is_the_analysts(
    tmp_path: Path,
) -> None:
    with pytest.raises(EngineError) as err:
        run_once(tmp_path, assessment={"fail": True})
    assert err.value.role == "Financial Analyst"
    trace = tmp_path / "runs" / "forecast-AAPL-20240419-h7-en" / "trace.jsonl"
    records = [json.loads(line) for line in trace.read_text().splitlines()]
    assert [r["event"] for r in records] == [
        "route",
        "perception",
        "forecast",
        "error",
    ]
    assert records[-1]["role"] == "Financial Analyst"
    assert str(err.value) in records[-1]["error"]
