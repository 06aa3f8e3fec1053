"""Command-line interface.

Every command loads one YAML config and assembles the engine either live
(real backends, real provider) or offline (scripted backends, bundled
fixtures, fixed clocks, scores of its own under ``state_dir/offline``).
Offline runs are fully deterministic: the same invocation writes
byte-identical artifacts every time.

Exit codes: 0 on success; 1 on an engine error, printed as one ``error
(<role>): ...`` line on stderr; 2 on a usage error, refused before the
config loads. The parser is built once per process, for every ``main`` call.

``entry`` runs ``main`` as a process, for ``python -m finorch.cli`` and the
``finorch`` script: once the command has ended, it ends the process without
tearing the interpreter down.
"""

from __future__ import annotations

import argparse
import atexit
import datetime as dt
import functools
import json
import os
import sys
from pathlib import Path

from finorch.config import build_engine, load_config
from finorch.errors import EngineError
from finorch.prompts import LANGUAGES
from finorch.scheduler import TASK_KINDS

OFFLINE_DEFAULT_CUTOFF = dt.date(2024, 4, 19)


def evaluate(args: argparse.Namespace) -> None:
    """Score every registered agent against its golden dataset."""
    engine = build_engine(load_config(args.config_path), offline=args.offline)
    kinds = TASK_KINDS if args.kind == "all" else (args.kind,)
    engine.scheduler.evaluate_all(*kinds)
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
    if args.as_json:
        print(json.dumps(payload, indent=2, sort_keys=True))
        return
    for task_kind in kinds:
        print(f"{task_kind}:")
        for row in payload[task_kind]:
            print(f"  {row['agent_id']}: composite={row['composite']:.4f}")


def route(args: argparse.Namespace) -> None:
    """Pick the best-scored agent for a task kind."""
    engine = build_engine(load_config(args.config_path), offline=args.offline)
    engine.scheduler.ensure_scores(args.task_kind)
    decisions: list[dict] = []
    chosen = engine.scheduler.route(args.task_kind, recorder=decisions.append)
    if args.as_json:
        payload = {k: decisions[0][k] for k in ("task_kind", "ranking", "chosen")}
        print(json.dumps(payload, indent=2, sort_keys=True))
        return
    print(chosen)


def forecast(args: argparse.Namespace) -> None:
    """Forecast next week's move for SYMBOL from pre-cutoff data."""
    engine = build_engine(load_config(args.config_path), offline=args.offline)
    if args.cutoff is not None:
        cutoff = args.cutoff
    elif args.offline:
        cutoff = OFFLINE_DEFAULT_CUTOFF
    else:
        cutoff = dt.date.today()
    run = engine.forecast(
        args.symbol.upper(), cutoff, args.horizon, language=args.lang
    )
    result = run.result
    print(f"task: {run.task.task_id}")
    print(f"backend: {run.exchange.backend_id}")
    print(
        f"prediction: {result.direction} {result.band_text()} "
        f"({len(result.positives)} positives, {len(result.concerns)} concerns)"
    )
    print(f"saved: {run.forecast_path}")


def report(args: argparse.Namespace) -> None:
    """Analyze DOC_PATH and write a five-section research note."""
    engine = build_engine(load_config(args.config_path), offline=args.offline)
    result = engine.report(args.doc_path, subject=args.subject, language=args.lang)
    print(f"task: {result.task_id}")
    print(f"subject: {result.subject}")
    print(
        f"sections: {len(result.sections)}, "
        f"indicators: {len(result.analysis.indicators)}, "
        f"failures: {len(result.analysis.failures)}, "
        f"discrepancies: {len(result.analysis.discrepancies)}"
    )
    print(f"saved: {result.run_dir / 'report.md'}")


def selfcheck(args: argparse.Namespace) -> None:
    """Verify the offline stack end to end without touching the network."""
    from finorch import offline
    from finorch.gateway import ChatMessage

    failures = []

    def check(label: str, fn) -> None:
        try:
            fn()
            print(f"ok: {label}")
        except Exception as exc:  # noqa: BLE001 - selfcheck reports anything
            failures.append(label)
            print(f"FAIL: {label}: {exc}")

    try:
        config = load_config(args.config_path)
        engine = build_engine(config, offline=True)
    except EngineError as exc:
        print(f"FAIL: load config and build offline engine: {exc}")
        sys.exit(1)
    print("ok: load config and build offline engine")

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
        lambda: [engine.scheduler.golden_dataset(kind) for kind in TASK_KINDS],
    )
    check(
        "market fixtures answer a profile request",
        lambda: engine.market_data.get_company_profile("AAPL"),
    )

    def scripted_round_trip() -> None:
        primary = offline.primary_script()
        backend_id = next(
            (
                spec.backend_id
                for spec in config.backends
                if offline.script_for(spec.backend_id, config.judge_backend_id)
                == primary
            ),
            None,
        )
        if backend_id is None:
            raise AssertionError("no backend carries the primary script")
        probe, expected = next(iter(offline.FORECAST_PROBE_ANSWERS.items()))
        exchange = engine.gateway.chat(
            backend_id, [ChatMessage(role="user", content=probe + " ping")]
        )
        if exchange.response_text != expected:
            raise AssertionError(
                f"scripted backend replied {exchange.response_text!r}"
            )

    check("scripted backend round trip", scripted_round_trip)
    check(
        "agents evaluate and route offline",
        lambda: (
            engine.scheduler.evaluate_all(*TASK_KINDS),
            [engine.scheduler.route(kind) for kind in TASK_KINDS],
        ),
    )

    if failures:
        print(f"selfcheck failed: {len(failures)} check(s)")
        sys.exit(1)
    print("selfcheck passed")


# ── arguments: each type refuses bad input as a usage error ─────────────


def _nonblank(value: str) -> str:
    if not value.strip():
        raise argparse.ArgumentTypeError("must not be empty")
    return value


def _symbol(value: str) -> str:
    """A ticker names a run dir and a fixture file: no path separator or
    control character in it (``BRK.B`` and ``^GSPC`` pass)."""
    if any(ch in "/\\" or not ch.isprintable() for ch in _nonblank(value)):
        raise argparse.ArgumentTypeError(
            f"{value!r} is not a ticker: it holds '/', '\\' or a control character"
        )
    return value


def _date(value: str) -> dt.date:
    try:
        return dt.datetime.strptime(value, "%Y-%m-%d").date()
    except ValueError:
        raise argparse.ArgumentTypeError(f"{value!r} is not YYYY-MM-DD") from None


def _days(value: str) -> int:
    days = int(value)  # argparse reports a ValueError as a usage error too
    if days < 1:
        raise argparse.ArgumentTypeError(f"{value!r} is not a whole number >= 1")
    return days


def _document(value: str) -> Path:
    if os.path.isdir(value) or not os.access(value, os.R_OK):
        raise argparse.ArgumentTypeError(f"{value!r} is not a readable file")
    return Path(value)


_SHARED_OPTIONS = {
    "--offline": dict(
        action="store_true",
        help="Use scripted backends and bundled fixtures; never touch the network.",
    ),
    "--json": dict(dest="as_json", action="store_true", help="Emit JSON."),
    "--lang": dict(
        choices=LANGUAGES,
        help="Prompt and output language (default: config default_language).",
    ),
}


@functools.cache
def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="finorch",
        description="Financial agent engine: evaluate, route, forecast, report.",
        allow_abbrev=False,
    )
    commands = parser.add_subparsers(metavar="COMMAND", required=True)

    def command(run, *shared: str) -> argparse.ArgumentParser:
        sub = commands.add_parser(
            run.__name__, help=run.__doc__, description=run.__doc__, allow_abbrev=False
        )
        sub.set_defaults(run=run)
        sub.add_argument(
            "--config",
            dest="config_path",
            default="config.yaml",
            help="Path to the engine config file (default: %(default)s).",
        )
        for name in shared:
            sub.add_argument(name, **_SHARED_OPTIONS[name])
        return sub

    command(evaluate, "--offline", "--json").add_argument(
        "--kind",
        choices=(*TASK_KINDS, "all"),
        default="all",
        help="Task kind to evaluate agents for (default: %(default)s).",
    )
    command(route, "--offline", "--json").add_argument("task_kind", choices=TASK_KINDS)
    sub = command(forecast, "--offline", "--lang")
    sub.add_argument("symbol", metavar="SYMBOL", type=_symbol)
    sub.add_argument(
        "--cutoff",
        type=_date,
        help="Information cutoff date (YYYY-MM-DD). Offline default: "
        f"{OFFLINE_DEFAULT_CUTOFF.isoformat()}; live default: today.",
    )
    sub.add_argument(
        "--horizon",
        type=_days,
        default=7,
        help="Forecast horizon in calendar days (default: %(default)s).",
    )
    sub = command(report, "--offline", "--lang")
    sub.add_argument("doc_path", metavar="DOC_PATH", type=_document)
    sub.add_argument(
        "--subject", type=_nonblank, help="Report subject (default: from file name)."
    )
    command(selfcheck)
    return parser


def main(argv: list[str] | None = None, standalone_mode: bool = True) -> None:
    """Run one command: return on success, raise ``SystemExit`` otherwise."""
    # ``standalone_mode`` changes nothing; it stays because bench/run.py and
    # bench/cliprobe.py call ``main(argv, standalone_mode=False)``.
    args = _parser().parse_args(argv)
    try:
        args.run(args)
    except EngineError as exc:
        prefix = f"error ({exc.role})" if exc.role else "error"
        print(f"{prefix}: {exc}", file=sys.stderr)
        sys.exit(1)


def entry() -> None:
    """Run ``main`` as the process: ``python -m finorch.cli`` and the
    ``finorch`` script.

    An exit handler registered before the command runs, so that it runs
    after every other one and after ``threading`` has joined its workers,
    flushes stdout and stderr and then ends the process with the command's
    status through ``os._exit``: the interpreter skips unloading its
    modules and its last garbage collection, 10-16 ms of a cold command on
    a shared 2-vCPU host. This is safe because every file finorch writes
    is closed before ``main`` returns, and the kernel closes the sockets.
    A command that ends in an uncaught exception other than ``SystemExit``
    records no status, so its process prints the traceback, exits 1 and
    finalizes as usual.

    A stdout whose reader has gone, as in ``finorch ... | head``, ends the
    process with status 1 and nothing on stderr, the exit the ``signal``
    docs give for SIGPIPE. What stdout still buffers is dropped: the
    process ends by ``os._exit``, which flushes nothing, so it needs no
    redirect to ``os.devnull``.
    """
    status: list[int] = []
    atexit.register(_end, status)
    try:
        main()
    except SystemExit as exc:
        # The status CPython reports: a message other than an int is
        # printed to stderr when the exception leaves this frame.
        code = exc.code
        status.append(0 if code is None else code if isinstance(code, int) else 1)
        raise
    except BrokenPipeError:
        status.append(1)
        sys.exit(1)
    status.append(0)


def _end(status: list[int]) -> None:
    """The last exit handler: flush, then end without teardown."""
    if not status:
        return
    code = status[0]
    try:
        sys.stdout.flush()
    except BrokenPipeError:
        code = 1
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    entry()
