"""Market Forecaster app.

Builds the four-block forecasting prompt from a strictly pre-cutoff company
bundle, sends it through the routed backend, and parses the structured answer
(positive developments, potential concerns, tagged evidence, and a banded
prediction) back into data. Rendering and parsing are inverses, so stored
forecasts round-trip losslessly.
"""

from __future__ import annotations

import datetime as dt
import json
import re
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import Any

from finorch.clock import Clock, SystemClock, isoformat
from finorch.dataops.providers import MarketData
from finorch.dataops.types import CompanyBundle
from finorch.errors import (
    EmptyBundle,
    IncompleteBundle,
    InvalidHorizon,
    MissingSection,
    UnparseablePrediction,
)
from finorch.gateway import ChatExchange, ChatMessage, Gateway
from finorch.prompts import PromptStore
from finorch.scheduler import Scheduler, WorkflowEvaluation
from finorch.workflow import (
    ROLE_ASSISTANT,
    ROLE_FINANCIAL_ANALYST,
    Outcome,
    Task,
    Trace,
    run_task,
)

EVIDENCE_TAGS = ("News", "Stock Price", "Basic Financials")

_SECTION_KEYS = ("positive", "concerns", "prediction")


@lru_cache(maxsize=1)
def _headers() -> dict[str, Any]:
    path = Path(__file__).parent.parent / "resources" / "forecast_headers.json"
    return json.loads(path.read_text(encoding="utf-8"))


# ── result dataclasses ───────────────────────────────────────────────────


@dataclass(frozen=True)
class FactorItem:
    """One numbered development or concern, with its evidence tag."""

    text: str
    evidence_tag: str | None = None
    other_tag: str = ""

    def __post_init__(self) -> None:
        if self.evidence_tag is not None:
            if self.evidence_tag not in EVIDENCE_TAGS:
                raise ValueError(f"unknown evidence tag {self.evidence_tag!r}")
            if self.other_tag:
                raise ValueError("a tagged item cannot also carry other_tag")
        if not self.text:
            raise ValueError("item text must be non-empty")


@dataclass(frozen=True)
class ForecastResult:
    """Parsed model forecast: factors, banded prediction, and analysis."""

    positives: tuple[FactorItem, ...]
    concerns: tuple[FactorItem, ...]
    direction: str
    low: float
    high: float
    analysis: str
    language: str = "en"

    def __post_init__(self) -> None:
        if self.direction not in ("up", "down"):
            raise ValueError(f"direction must be 'up' or 'down', got {self.direction!r}")
        if self.low < 0 or self.high < self.low:
            raise ValueError(
                f"prediction band [{self.low}, {self.high}] is not ordered"
            )

    def band_text(self) -> str:
        return f"{self.low:g}-{self.high:g}%"


# ── horizon arithmetic ───────────────────────────────────────────────────


def horizon_window(cutoff: dt.date, horizon_days: int) -> tuple[dt.date, dt.date]:
    """The forecast window: first weekday strictly after the cutoff through
    the cutoff plus the horizon (rolled back off weekends).
    """
    if horizon_days < 1:
        raise InvalidHorizon(
            f"horizon must be at least 1 day, got {horizon_days}"
        )
    start = cutoff + dt.timedelta(days=1)
    while start.weekday() >= 5:
        start += dt.timedelta(days=1)
    end = cutoff + dt.timedelta(days=horizon_days)
    while end.weekday() >= 5:
        end -= dt.timedelta(days=1)
    if end < start:
        raise InvalidHorizon(
            f"horizon of {horizon_days} day(s) from {cutoff} spans no weekday"
        )
    return start, end


# ── perception (Assistant) ───────────────────────────────────────────────


@dataclass(frozen=True)
class PerceptionBundle:
    """What the Assistant gathered for one forecast."""

    company: CompanyBundle
    assembled_at: str


def perceive(
    task: Task,
    market_data: MarketData,
    *,
    clock: Clock | None = None,
    window_days: int = 30,
) -> PerceptionBundle:
    """Draw the task's strictly pre-cutoff company bundle."""
    clock = clock or SystemClock()
    company = market_data.company_bundle(
        task.subject, task.cutoff_date, window_days=window_days
    )
    if (
        len(company.prices) == 0
        and not company.news
        and not company.financials.metrics
    ):
        raise EmptyBundle(
            f"no data for {task.subject!r} before {task.cutoff_date}"
        )
    return PerceptionBundle(company=company, assembled_at=isoformat(clock.now()))


# ── prompt construction ──────────────────────────────────────────────────


_TEXT = {
    "en": {
        "intro": (
            "{name} operates in the {industry} industry and is listed on "
            "{exchange}. Market capitalization: {cap}."
        ),
        "price_move": (
            "From {d0} to {d1}, {symbol}'s closing price moved from {c0} to "
            "{c1}, a change of {pct}. Low was {lo} on {lod}; high was {hi} "
            "on {hid}."
        ),
        "headline": "[Headline]: {headline}",
        "summary": "[Summary]: {summary}",
        "period": "Reporting period: {period}",
    },
    "zh": {
        "intro": "{name}属于{industry}行业，于{exchange}上市。市值：{cap}。",
        "price_move": (
            "从{d0}到{d1}，{symbol}的收盘价由{c0}变为{c1}，涨跌幅{pct}。"
            "期间最低{lo}（{lod}），最高{hi}（{hid}）。"
        ),
        "headline": "[新闻标题]: {headline}",
        "summary": "[新闻摘要]: {summary}",
        "period": "报告期：{period}",
    },
}


def company_introduction_text(company: CompanyBundle, language: str) -> str:
    t = _TEXT[language]
    profile = company.profile
    if not profile.name:
        return ""
    intro = t["intro"].format(
        name=profile.name,
        industry=profile.industry,
        exchange=profile.exchange,
        cap=f"{profile.market_cap:,.0f}",
    )
    if profile.description:
        intro = f"{intro} {profile.description}"
    return intro


def stock_price_changes_text(company: CompanyBundle, language: str) -> str:
    t = _TEXT[language]
    obs = company.prices.observations
    if len(obs) < 2:
        return ""
    first, last = obs[0], obs[-1]
    pct = (last.close_value() / first.close_value() - 1.0) * 100.0
    lo = min(obs, key=lambda o: o.close_value())
    hi = max(obs, key=lambda o: o.close_value())
    return t["price_move"].format(
        d0=first.date.isoformat(),
        d1=last.date.isoformat(),
        symbol=company.symbol,
        c0=first.close,
        c1=last.close,
        pct=f"{pct:+.2f}%",
        lo=lo.close,
        lod=lo.date.isoformat(),
        hi=hi.close,
        hid=hi.date.isoformat(),
    )


def recent_news_text(company: CompanyBundle, language: str) -> str:
    t = _TEXT[language]
    blocks = []
    for item in company.news:
        blocks.append(
            "\n".join(
                (
                    f"[{item.dated.isoformat()}] ({item.source_id})",
                    t["headline"].format(headline=item.headline),
                    t["summary"].format(summary=item.summary),
                )
            )
        )
    return "\n\n".join(blocks)


def basic_financials_text(company: CompanyBundle, language: str) -> str:
    t = _TEXT[language]
    snapshot = company.financials
    if not snapshot.metrics:
        return ""
    lines = [t["period"].format(period=snapshot.period)]
    lines.extend(f"{name}: {value:g}" for name, value in snapshot.items())
    return "\n".join(lines)


def build_forecast_prompt(
    bundle: CompanyBundle,
    cutoff: dt.date,
    horizon: int,
    language: str,
    store: PromptStore,
) -> list[ChatMessage]:
    """System + user messages for one forecast call.

    Every information block must be non-empty; the first missing one is
    reported by name.
    """
    blocks = {
        "company_introduction": company_introduction_text(bundle, language),
        "stock_price_changes": stock_price_changes_text(bundle, language),
        "recent_news": recent_news_text(bundle, language),
        "basic_financials": basic_financials_text(bundle, language),
    }
    for name in (
        "company_introduction",
        "stock_price_changes",
        "recent_news",
        "basic_financials",
    ):
        if not blocks[name]:
            raise IncompleteBundle(name)
    start, end = horizon_window(cutoff, horizon)
    bindings = {
        **blocks,
        "symbol": bundle.symbol,
        "cutoff": cutoff.isoformat(),
        "horizon_start": start.isoformat(),
        "horizon_end": end.isoformat(),
    }
    return [
        ChatMessage(
            role="system", content=store.render("forecaster_system", bindings, language)
        ),
        ChatMessage(
            role="user", content=store.render("forecaster_user", bindings, language)
        ),
    ]


# ── parsing ──────────────────────────────────────────────────────────────


def _match_header(line: str, language: str) -> str | None:
    s = line.strip()
    if not s:
        return None
    while s and s[-1] in ":：":
        s = s[:-1].rstrip()
    if s.startswith("[") and s.endswith("]"):
        s = s[1:-1].strip()
    folded = s.casefold()
    for key, aliases in _headers()["sections"][language].items():
        if folded in (a.casefold() for a in aliases):
            return key
    return None


def _tag_for(raw: str) -> str | None:
    folded = raw.strip().casefold()
    for canonical, aliases in _headers()["tags"].items():
        if folded in (a.casefold() for a in aliases):
            return canonical
    return None


_ITEM_START = re.compile(r"^\s*\d+\s*[.、)]\s*(.+)$")
_TRAILING_TAG = re.compile(r"[(（]([^()（）]*)[)）]\s*$")


def _parse_items(lines: list[str]) -> tuple[FactorItem, ...]:
    texts: list[str] = []
    for line in lines:
        if not line.strip():
            continue
        started = _ITEM_START.match(line)
        if started:
            texts.append(started.group(1).strip())
        elif texts:
            texts[-1] = f"{texts[-1]} {line.strip()}"
        else:
            texts.append(line.strip())
    items: list[FactorItem] = []
    for text in texts:
        evidence: str | None = None
        other = ""
        tag_match = _TRAILING_TAG.search(text)
        if tag_match:
            evidence = _tag_for(tag_match.group(1))
            if evidence is None:
                other = tag_match.group(1).strip()
            text = text[: tag_match.start()].rstrip()
        if text:
            items.append(
                FactorItem(text=text, evidence_tag=evidence, other_tag=other)
            )
    return tuple(items)


def _prediction_pattern(language: str) -> re.Pattern[str]:
    line = _headers()["prediction_line"][language]
    prefix = re.escape(line["prefix"].rstrip(":："))
    up = re.escape(line["up"])
    down = re.escape(line["down"])
    return re.compile(
        rf"{prefix}\s*[:：]\s*({up}|{down})\s*(?:by\s+)?"
        rf"(\d+(?:\.\d+)?)\s*[-–~]\s*(\d+(?:\.\d+)?)\s*%?",
        re.IGNORECASE,
    )


def parse_forecast(model_text: str, language: str = "en") -> ForecastResult:
    """Parse a forecast reply into structured data.

    Raises MissingSection (by canonical section name) when a required block
    is absent and UnparseablePrediction when the band line cannot be read.
    """
    sections: dict[str, list[str]] = {}
    current: str | None = None
    for line in model_text.splitlines():
        key = _match_header(line, language)
        if key is not None:
            sections[key] = []
            current = key
        elif current is not None:
            sections[current].append(line)
    names = _headers()["section_names"]
    for key in _SECTION_KEYS:
        if key not in sections:
            raise MissingSection(names[key])

    positives = _parse_items(sections["positive"])
    concerns = _parse_items(sections["concerns"])

    body = "\n".join(sections["prediction"])
    found = _prediction_pattern(language).search(body)
    if not found:
        raise UnparseablePrediction(body.strip())
    line_cfg = _headers()["prediction_line"][language]
    direction = (
        "up" if found.group(1).casefold() == line_cfg["up"].casefold() else "down"
    )
    low, high = float(found.group(2)), float(found.group(3))
    if high < low:
        raise UnparseablePrediction(body.strip())

    after = body[found.end():].strip("\n")
    analysis_lines = [ln for ln in after.splitlines() if ln.strip()]
    analysis = "\n".join(ln.strip() for ln in analysis_lines)
    prefix = _headers()["analysis_prefix"][language]
    if analysis.startswith(prefix):
        analysis = analysis[len(prefix):].strip()
    return ForecastResult(
        positives=positives,
        concerns=concerns,
        direction=direction,
        low=low,
        high=high,
        analysis=analysis,
        language=language,
    )


def render_forecast(result: ForecastResult) -> str:
    """Serialize a result back to the canonical forecast layout.

    parse_forecast(render_forecast(r), r.language) == r.
    """
    cfg = _headers()
    headers = cfg["canonical_headers"][result.language]
    line_cfg = cfg["prediction_line"][result.language]
    out: list[str] = [headers["positive"]]

    def emit(items: tuple[FactorItem, ...]) -> None:
        for i, item in enumerate(items, start=1):
            tag = item.evidence_tag or item.other_tag
            suffix = f" ({tag})" if tag else ""
            out.append(f"{i}. {item.text}{suffix}")

    emit(result.positives)
    out.append("")
    out.append(headers["concerns"])
    emit(result.concerns)
    out.append("")
    out.append(headers["prediction"])
    word = line_cfg["up"] if result.direction == "up" else line_cfg["down"]
    joiner = " by " if result.language == "en" else ""
    out.append(f"{line_cfg['prefix']} {word}{joiner}{result.band_text()}")
    if result.analysis:
        prefix = cfg["analysis_prefix"][result.language]
        sep = "" if prefix.endswith("：") else " "
        out.append(f"{prefix}{sep}{result.analysis}")
    return "\n".join(out) + "\n"


# ── pipeline ─────────────────────────────────────────────────────────────


def forecast_task_id(
    symbol: str, cutoff: dt.date, horizon: int, language: str
) -> str:
    return f"forecast-{symbol}-{cutoff.strftime('%Y%m%d')}-h{horizon}-{language}"


@dataclass(frozen=True)
class ForecastRun:
    """Artifacts of one forecaster invocation."""

    task: Task
    result: ForecastResult
    exchange: ChatExchange
    evaluation: WorkflowEvaluation | None = None
    run_dir: Path | None = None

    @property
    def forecast_path(self) -> Path | None:
        return self.run_dir / "forecast.json" if self.run_dir else None


def _factors(items: tuple[FactorItem, ...]) -> list[dict[str, Any]]:
    return [
        {"text": i.text, "evidence_tag": i.evidence_tag, "other_tag": i.other_tag}
        for i in items
    ]


def run_forecaster(
    symbol: str,
    cutoff: dt.date,
    horizon: int,
    *,
    scheduler: Scheduler,
    gateway: Gateway,
    prompt_store: PromptStore,
    market_data: MarketData,
    language: str = "en",
    runs_dir: Path | None = None,
    clock: Clock | None = None,
    window_days: int = 30,
) -> ForecastRun:
    """Perceive, prompt and parse one forecast through the task runner."""
    clock = clock or SystemClock()
    task = Task(
        task_id=forecast_task_id(symbol, cutoff, horizon, language),
        task_kind="forecast",
        subject=symbol,
        cutoff_date=cutoff,
        horizon=horizon,
        instruction_text=(
            f"Forecast {symbol} for the week after {cutoff.isoformat()}; "
            "give tagged positives, concerns, and a banded prediction."
        ),
        language=language,
    )

    def act(backend_id: str, trace: Trace) -> Outcome:
        with trace.stage(ROLE_ASSISTANT):
            bundle = perceive(
                task, market_data, clock=clock, window_days=window_days
            ).company
            messages = build_forecast_prompt(
                bundle, task.cutoff_date, horizon, language, prompt_store
            )
        trace.emit(
            ROLE_ASSISTANT,
            {
                "event": "perception",
                "prices": len(bundle.prices),
                "news": len(bundle.news),
            },
        )
        with trace.stage(ROLE_FINANCIAL_ANALYST):
            exchange = gateway.chat(backend_id, messages)
            result = parse_forecast(exchange.response_text, language)
        trace.emit(
            ROLE_FINANCIAL_ANALYST,
            {
                "event": "forecast",
                "direction": result.direction,
                "band": result.band_text(),
                "positives": len(result.positives),
                "concerns": len(result.concerns),
            },
        )
        start, end = horizon_window(task.cutoff_date, horizon)
        return Outcome(
            value=(result, exchange),
            final_output=exchange.response_text,
            artifact="forecast.json",
            payload={
                "symbol": symbol,
                "cutoff": task.cutoff_date.isoformat(),
                "horizon_days": horizon,
                "language": language,
                "window": {"start": start.isoformat(), "end": end.isoformat()},
                "prediction": {
                    "direction": result.direction,
                    "low": result.low,
                    "high": result.high,
                },
                "positives": _factors(result.positives),
                "concerns": _factors(result.concerns),
                "analysis": result.analysis,
                "model_text": exchange.response_text,
            },
        )

    run = run_task(
        task,
        act,
        scheduler=scheduler,
        gateway=gateway,
        prompt_store=prompt_store,
        runs_dir=runs_dir,
        clock=clock,
    )
    result, exchange = run.value
    return ForecastRun(
        task=task,
        result=result,
        exchange=exchange,
        evaluation=run.evaluation,
        run_dir=run.run_dir,
    )
