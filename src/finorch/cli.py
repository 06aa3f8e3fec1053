"""Command-line interface.

Every command loads one YAML config and assembles the engine either live
(real backends, real provider) or offline (scripted backends, bundled
fixtures, fixed clock). Offline runs are fully deterministic: the same
invocation writes byte-identical artifacts every time.

Exit codes: 0 on success, 1 on any engine error, 2 on usage errors.
"""

from __future__ import annotations

import datetime as dt
import functools
import json
import sys
from pathlib import Path

import click

from finorch.config import build_engine, load_config
from finorch.errors import EngineError

OFFLINE_DEFAULT_CUTOFF = dt.date(2024, 4, 19)


def _echo(message: str, err: bool = False) -> None:
    """``click.echo`` to the current stdout, or stderr, named on each
    call. Left to pick the stream, click caches a wrapper per ``sys.stdout``
    object and keeps a stream that needs none alive as its own wrapper, so
    a caller that redirects stdout per command would keep every command's
    output."""
    stream = click.get_text_stream("stderr" if err else "stdout")
    click.echo(message, file=stream)


def _engine(config_path: str, offline: bool):
    return build_engine(load_config(config_path), offline=offline)


def _engine_command(fn):
    """Shared options plus EngineError-to-exit-code handling."""

    @click.option(
        "--config",
        "config_path",
        default="config.yaml",
        show_default=True,
        help="Path to the engine config file.",
    )
    @click.option(
        "--offline",
        is_flag=True,
        help="Use scripted backends and bundled fixtures; never touch "
        "the network.",
    )
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except EngineError as exc:
            role = getattr(exc, "role", None)
            prefix = f"error ({role})" if role else "error"
            _echo(f"{prefix}: {exc}", err=True)
            sys.exit(1)

    return wrapper


@click.group()
def cli() -> None:
    """Financial agent engine: evaluate, route, forecast, report."""


@cli.command()
@click.option(
    "--kind",
    type=click.Choice(["forecast", "report", "all"]),
    default="all",
    show_default=True,
    help="Task kind to evaluate agents for.",
)
@click.option("--json", "as_json", is_flag=True, help="Emit JSON.")
@_engine_command
def evaluate(config_path: str, offline: bool, kind: str, as_json: bool) -> None:
    """Score every registered agent against its golden dataset."""
    engine = _engine(config_path, offline)
    kinds = ["forecast", "report"] if kind == "all" else [kind]
    engine.evaluate_all(*kinds)
    payload: dict[str, list[dict]] = {}
    for task_kind in kinds:
        ranking = engine.scheduler.rank_agents(task_kind)
        scores = engine.scheduler.latest_scores(task_kind)
        payload[task_kind] = [
            {
                "agent_id": agent_id,
                "composite": composite,
                "raw_scores": dict(scores[agent_id].raw_scores),
            }
            for agent_id, composite in ranking
        ]
    if as_json:
        _echo(json.dumps(payload, indent=2, sort_keys=True))
        return
    for task_kind in kinds:
        _echo(f"{task_kind}:")
        for row in payload[task_kind]:
            _echo(
                f"  {row['agent_id']}: composite={row['composite']:.4f}"
            )


@cli.command()
@click.argument("task_kind", type=click.Choice(["forecast", "report"]))
@click.option("--json", "as_json", is_flag=True, help="Emit JSON.")
@_engine_command
def route(config_path: str, offline: bool, task_kind: str, as_json: bool) -> None:
    """Pick the best-scored agent for a task kind."""
    engine = _engine(config_path, offline)
    engine.ensure_scores(task_kind)
    ranking = engine.scheduler.rank_agents(task_kind)
    chosen = engine.scheduler.route(task_kind)
    if as_json:
        _echo(
            json.dumps(
                {
                    "task_kind": task_kind,
                    "ranking": [[a, c] for a, c in ranking],
                    "chosen": chosen,
                },
                indent=2,
                sort_keys=True,
            )
        )
        return
    _echo(chosen)


@cli.command()
@click.argument("symbol")
@click.option(
    "--cutoff",
    type=click.DateTime(formats=["%Y-%m-%d"]),
    default=None,
    help="Information cutoff date (YYYY-MM-DD). Offline default: "
    f"{OFFLINE_DEFAULT_CUTOFF.isoformat()}; live default: today.",
)
@click.option(
    "--horizon",
    type=click.IntRange(min=1),
    default=7,
    show_default=True,
    help="Forecast horizon in calendar days.",
)
@click.option(
    "--lang",
    type=click.Choice(["en", "zh"]),
    default=None,
    help="Prompt and output language (default: config default_language).",
)
@_engine_command
def forecast(
    config_path: str,
    offline: bool,
    symbol: str,
    cutoff: dt.datetime | None,
    horizon: int,
    lang: str | None,
) -> None:
    """Forecast next week's move for SYMBOL from pre-cutoff data."""
    engine = _engine(config_path, offline)
    if cutoff is not None:
        cutoff_date = cutoff.date()
    elif offline:
        cutoff_date = OFFLINE_DEFAULT_CUTOFF
    else:
        cutoff_date = dt.date.today()
    run = engine.forecast(symbol.upper(), cutoff_date, horizon, language=lang)
    result = run.result
    _echo(f"task: {run.task.task_id}")
    _echo(f"backend: {run.exchange.backend_id}")
    _echo(
        f"prediction: {result.direction} {result.band_text()} "
        f"({len(result.positives)} positives, {len(result.concerns)} concerns)"
    )
    if run.forecast_path is not None:
        _echo(f"saved: {run.forecast_path}")


@cli.command()
@click.argument(
    "doc_path", type=click.Path(exists=True, dir_okay=False, path_type=Path)
)
@click.option("--subject", default=None, help="Report subject (default: from file name).")
@click.option(
    "--lang",
    type=click.Choice(["en", "zh"]),
    default=None,
    help="Prompt and output language (default: config default_language).",
)
@_engine_command
def report(
    config_path: str,
    offline: bool,
    doc_path: Path,
    subject: str | None,
    lang: str | None,
) -> None:
    """Analyze DOC_PATH and write a five-section research note."""
    engine = _engine(config_path, offline)
    result = engine.report(doc_path, subject=subject, language=lang)
    _echo(f"task: {result.task_id}")
    _echo(f"subject: {result.subject}")
    _echo(
        f"sections: {len(result.sections)}, "
        f"indicators: {len(result.analysis.indicators)}, "
        f"failures: {len(result.analysis.failures)}, "
        f"discrepancies: {len(result.analysis.discrepancies)}"
    )
    if result.run_dir is not None:
        _echo(f"saved: {result.run_dir / 'report.md'}")


@cli.command()
@click.option(
    "--config",
    "config_path",
    default="config.yaml",
    show_default=True,
    help="Path to the engine config file.",
)
def selfcheck(config_path: str) -> None:
    """Verify the offline stack end to end without touching the network."""
    from finorch.gateway import ChatMessage
    from finorch.offline import FORECAST_PROBE_ANSWERS

    failures = []

    def check(label: str, fn) -> None:
        try:
            fn()
            _echo(f"ok: {label}")
        except Exception as exc:  # noqa: BLE001 - selfcheck reports anything
            failures.append(label)
            _echo(f"FAIL: {label}: {exc}")

    try:
        config = load_config(config_path)
        engine = build_engine(config, offline=True)
    except EngineError as exc:
        _echo(f"FAIL: load config and build offline engine: {exc}")
        sys.exit(1)
    _echo("ok: load config and build offline engine")

    def templates_bilingual() -> None:
        pairs = engine.prompt_store.available()
        if not pairs:
            raise AssertionError("prompt store lists no templates")
        by_language: dict[str, set[str]] = {"en": set(), "zh": set()}
        for template_id, language in pairs:
            engine.prompt_store.template_text(template_id, language)
            by_language[language].add(template_id)
        if by_language["en"] != by_language["zh"]:
            missing = by_language["en"] ^ by_language["zh"]
            raise AssertionError(
                f"templates not bilingual: {sorted(missing)}"
            )

    check("prompt templates load in both languages", templates_bilingual)
    check(
        "golden datasets load",
        lambda: (engine.golden_dataset("forecast"), engine.golden_dataset("report")),
    )
    check(
        "market fixtures answer a profile request",
        lambda: engine.market_data.get_company_profile("AAPL"),
    )

    def scripted_round_trip() -> None:
        probe, expected = next(iter(FORECAST_PROBE_ANSWERS.items()))
        exchange = engine.gateway.chat(
            "primary", [ChatMessage(role="user", content=probe + " ping")]
        )
        if exchange.response_text != expected:
            raise AssertionError(
                f"scripted backend replied {exchange.response_text!r}"
            )

    check("scripted backend round trip", scripted_round_trip)
    check(
        "agents evaluate and route offline",
        lambda: (engine.route("forecast"), engine.route("report")),
    )

    if failures:
        _echo(f"selfcheck failed: {len(failures)} check(s)")
        sys.exit(1)
    _echo("selfcheck passed")


main = cli


if __name__ == "__main__":
    main()
