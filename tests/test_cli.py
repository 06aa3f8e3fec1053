"""CLI behavior: commands, exit codes, and offline determinism."""

from __future__ import annotations

import contextlib
import gc
import io
import json
import os
import shutil
import socket
import subprocess
import sys
import weakref
from pathlib import Path

import pytest

from finorch import offline
from finorch.cli import _parser, main
from finorch.config import build_engine, load_config
from finorch.dataops import cache, providers
from finorch.gateway import MOCK_SENTINEL, Gateway, MockTransport
from finorch.scheduler import Scheduler, TaskScore

from clirun import run_cli
from test_config import MINIMAL, REPO, minimal_text, write_config


#: Modules no command may import: the CLI runs on ``argparse``, and
#: finorch's records are plain classes, so nothing loads ``dataclasses``
#: or the ``inspect`` it imports.
NEVER_IMPORTED = ["click", "dataclasses", "inspect"]


def imported_by_command(config_path, args, *modules, env=None):
    """Which of ``modules`` and ``NEVER_IMPORTED`` one command imports, in
    a fresh interpreter with ``env`` added to the environment."""
    code = (
        "import sys; from finorch.cli import main; "
        "main(sys.argv[1:], standalone_mode=False); "
        f"print(sorted(set({[*modules, *NEVER_IMPORTED]!r}) & set(sys.modules)))"
    )
    env = {**os.environ, **(env or {}), "PYTHONPATH": str(REPO / "src")}
    done = subprocess.run(
        [sys.executable, "-c", code, *args, "--config", str(config_path)],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()[-1]


def imported_by_offline_command(config_path, args, *modules):
    """``imported_by_command`` for the offline form of the command."""
    return imported_by_command(config_path, [*args, "--offline"], *modules)


@pytest.fixture()
def config_path(tmp_path) -> Path:
    return write_config(tmp_path)


def invoke(config_path, *args):
    return run_cli([*args, "--config", str(config_path)])


#: The input texts of the forecast golden set, which every probe carries.
PROBES = [
    json.loads(line)["input_text"]
    for line in (REPO / "fixtures" / "golden" / "forecast.jsonl")
    .read_text(encoding="utf-8")
    .splitlines()
    if line.strip()
]


def score_row(agent_id: str, composite: float) -> dict:
    """A persisted forecast score as an evaluation writes it."""
    scores = {"exact_match": composite, "token_f1": composite}
    return TaskScore(
        agent_id=agent_id,
        task_kind="forecast",
        raw_scores=scores,
        normalized_scores=scores,
        weights={"exact_match": 0.5, "token_f1": 0.5},
        composite=composite,
        evaluated_at="2024-01-01T00:00:00Z",
    ).to_dict()


class TestForecastCommand:
    def test_offline_forecast_succeeds(self, config_path, tmp_path):
        result = invoke(config_path, "forecast", "AAPL", "--offline")
        assert result.exit_code == 0, result.output
        assert "task: forecast-AAPL-20240419-h7-en" in result.output
        assert "prediction: up 0-1% (3 positives, 2 concerns)" in result.output
        run_dir = tmp_path / "runs" / "forecast-AAPL-20240419-h7-en"
        assert (run_dir / "forecast.json").exists()
        assert (run_dir / "trace.jsonl").exists()

    def test_offline_forecast_is_byte_deterministic(
        self, config_path, tmp_path
    ):
        first = invoke(config_path, "forecast", "AAPL", "--offline")
        assert first.exit_code == 0, first.output
        run_dir = tmp_path / "runs" / "forecast-AAPL-20240419-h7-en"
        forecast_1 = (run_dir / "forecast.json").read_bytes()
        trace_1 = (run_dir / "trace.jsonl").read_bytes()

        second = invoke(config_path, "forecast", "AAPL", "--offline")
        assert second.exit_code == 0, second.output
        assert (run_dir / "forecast.json").read_bytes() == forecast_1
        assert (run_dir / "trace.jsonl").read_bytes() == trace_1
        assert second.output == first.output

    def test_offline_forecast_zh(self, config_path, tmp_path):
        result = invoke(
            config_path, "forecast", "AAPL", "--offline",
            "--lang", "zh",
        )
        assert result.exit_code == 0, result.output
        payload = json.loads(
            (tmp_path / "runs" / "forecast-AAPL-20240419-h7-zh" /
             "forecast.json").read_text(encoding="utf-8")
        )
        assert payload["language"] == "zh"
        assert payload["prediction"] == {
            "direction": "up", "low": 0.0, "high": 1.0,
        }

    def test_explicit_cutoff_and_horizon(self, config_path, tmp_path):
        result = invoke(
            config_path, "forecast", "NVDA", "--offline",
            "--cutoff", "2024-01-29", "--horizon", "7",
        )
        assert result.exit_code == 0, result.output
        assert "task: forecast-NVDA-20240129-h7-en" in result.output
        assert "prediction: up 2-3%" in result.output

    def test_unknown_symbol_exits_one(self, config_path):
        result = invoke(config_path, "forecast", "MSFT", "--offline")
        assert result.exit_code == 1
        assert "error (Assistant)" in result.stderr
        assert "MSFT" in result.stderr

    def test_invalid_horizon_is_usage_error(self, config_path):
        result = invoke(
            config_path, "forecast", "AAPL", "--offline",
            "--horizon", "0",
        )
        assert result.exit_code == 2

    def test_horizon_with_no_weekday_is_one_error_line(
        self, config_path, tmp_path
    ):
        # Friday cutoff, one day: the window holds only a Saturday
        env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
        done = subprocess.run(
            [sys.executable, "-m", "finorch.cli", "forecast", "AAPL",
             "--offline", "--cutoff", "2024-04-19", "--horizon", "1",
             "--config", str(config_path)],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert done.returncode == 1
        assert "Traceback" not in done.stderr
        [line] = done.stderr.splitlines()
        assert line.startswith("error (Assistant): ")
        assert "spans no weekday" in line
        # refused before any scoring, fetch or trace
        assert not (tmp_path / "runs" / "forecast-AAPL-20240419-h1-en").exists()
        assert not (tmp_path / "state" / "offline" / "task_scores.jsonl").exists()

    @pytest.mark.parametrize(
        "args",
        [
            ["--horizon", "10000000"],
            ["--cutoff", "9999-12-31"],
            ["--cutoff", "0001-01-01"],
        ],
        ids=["horizon-past-max", "cutoff-max", "cutoff-min"],
    )
    def test_dates_off_the_calendar_are_one_error_line(
        self, config_path, tmp_path, args
    ):
        env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
        done = subprocess.run(
            [sys.executable, "-m", "finorch.cli", "forecast", "AAPL",
             "--offline", *args, "--config", str(config_path)],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert done.returncode == 1
        assert "Traceback" not in done.stderr
        [line] = done.stderr.splitlines()
        assert line.startswith("error (Assistant): ")
        assert "leave the calendar" in line
        # refused before any scoring, fetch or trace
        assert not (tmp_path / "runs").exists()
        assert not (tmp_path / "state" / "offline" / "task_scores.jsonl").exists()

    def test_rerun_grades_only_its_own_reflection(
        self, config_path, tmp_path
    ):
        for _ in range(2):
            result = invoke(config_path, "forecast", "AAPL", "--offline")
            assert result.exit_code == 0, result.output
        state = tmp_path / "state" / "offline"
        rows = [
            json.loads(line)
            for line in (state / "evaluations.jsonl").read_text().splitlines()
        ]
        forecast = json.loads(
            (tmp_path / "runs" / "forecast-AAPL-20240419-h7-en" /
             "forecast.json").read_text(encoding="utf-8")
        )
        assert len(rows) == 2
        assert rows[-1]["reflection_count"] == 1
        assert rows[-1]["self_scores"] == [forecast["self_score"]]
        assert len((state / "reflections.jsonl").read_text().splitlines()) == 2

    def test_second_offline_forecast_reuses_the_scores(
        self, config_path, tmp_path, monkeypatch
    ):
        """Offline, like live, evaluates only when no score exists."""
        first = invoke(config_path, "forecast", "AAPL", "--offline")
        assert first.exit_code == 0, first.output
        log = tmp_path / "state" / "offline" / "task_scores.jsonl"
        rows = log.read_bytes()
        sent: list[str] = []
        send = MockTransport.send

        def recording(self, spec, payload):
            sent.append(payload["messages"][-1]["content"])
            return send(self, spec, payload)

        monkeypatch.setattr(MockTransport, "send", recording)
        second = invoke(config_path, "forecast", "AAPL", "--offline")
        assert second.exit_code == 0, second.output
        # the forecast, its self-assessment and the judge: no probe
        assert len(sent) == 3
        assert not any(probe in text for text in sent for probe in PROBES)
        assert log.read_bytes() == rows

    def test_offline_judge_is_the_configured_judge_backend(
        self, tmp_path
    ):
        """Offline, the backend that ``judge_backend_id`` names answers as
        the judge, whatever its id."""
        from test_config import minimal_text

        config_path = write_config(
            tmp_path, minimal_text().replace(": judge", ": grader")
        )
        result = invoke(config_path, "forecast", "AAPL", "--offline")
        assert result.exit_code == 0, result.output
        forecast = json.loads(
            (tmp_path / "runs" / "forecast-AAPL-20240419-h7-en" /
             "forecast.json").read_text(encoding="utf-8")
        )
        assert forecast["grade"] == 1.0

    def test_missing_symbol_is_usage_error(self, config_path):
        result = invoke(config_path, "forecast", "--offline")
        assert result.exit_code == 2

    def test_offline_runs_with_network_disabled(
        self, config_path, monkeypatch
    ):
        def refuse(*args, **kwargs):
            raise AssertionError("offline command attempted a network call")

        monkeypatch.setattr(socket, "socket", refuse)
        monkeypatch.setattr(socket, "create_connection", refuse)
        result = invoke(config_path, "forecast", "AAPL", "--offline")
        assert result.exit_code == 0, result.output


class TestReportCommand:
    DOC = REPO / "tests" / "fixtures" / "acme_filing.txt"

    def test_offline_report_succeeds(self, config_path, tmp_path):
        result = invoke(
            config_path, "report", str(self.DOC), "--offline"
        )
        assert result.exit_code == 0, result.output
        assert "subject: Acme Filing" in result.output
        assert "sections: 5" in result.output
        run_dir = tmp_path / "runs" / "report-acme-filing-acme_filing-en"
        for name in ("report.txt", "report.md", "analysis.json", "trace.jsonl"):
            assert (run_dir / name).exists()

    def test_offline_report_is_byte_deterministic(
        self, config_path, tmp_path
    ):
        first = invoke(
            config_path, "report", str(self.DOC), "--offline"
        )
        assert first.exit_code == 0, first.output
        run_dir = tmp_path / "runs" / "report-acme-filing-acme_filing-en"
        before = {
            name: (run_dir / name).read_bytes()
            for name in ("report.txt", "report.md", "analysis.json",
                         "trace.jsonl")
        }
        second = invoke(
            config_path, "report", str(self.DOC), "--offline"
        )
        assert second.exit_code == 0, second.output
        for name, blob in before.items():
            assert (run_dir / name).read_bytes() == blob, name
        assert second.output == first.output

    def _imported_by_offline_report(self, config_path, *modules):
        return imported_by_offline_command(
            config_path, ["report", str(self.DOC)], *modules
        )

    def test_offline_report_starts_no_thread_pool(self, config_path):
        """Scripted backends answer inline, so an offline run never even
        imports the executor."""
        assert self._imported_by_offline_report(
            config_path, "concurrent.futures"
        ) == "[]"

    def test_offline_report_imports_no_dsl_or_analytics(self, config_path):
        """No command runs the expression language or the analytics
        formulas, so no command pays for importing them."""
        assert self._imported_by_offline_report(
            config_path, "finorch.analytics", "finorch.tools.dsl"
        ) == "[]"

    def test_report_routes_once(self, config_path, monkeypatch):
        """The Director routes a report once, in the task runner; the
        routed agent's backend both extracts and writes."""
        routed: list[str] = []
        route = Scheduler.route

        def recording(self, task, *args, **kwargs):
            routed.append(getattr(task, "task_kind", task))
            return route(self, task, *args, **kwargs)

        monkeypatch.setattr(Scheduler, "route", recording)
        result = invoke(
            config_path, "report", str(self.DOC), "--offline"
        )
        assert result.exit_code == 0, result.output
        assert routed == ["report"]

    def test_offline_zh_report_answers_every_section(
        self, config_path, tmp_path
    ):
        result = invoke(
            config_path, "report", str(self.DOC), "--offline",
            "--lang", "zh",
        )
        assert result.exit_code == 0, result.output
        report = (
            tmp_path / "runs" / "report-acme-filing-acme_filing-zh" / "report.md"
        ).read_text(encoding="utf-8")
        assert MOCK_SENTINEL not in report
        for body in offline.SECTION_REPLIES.values():
            assert body in report

    def test_offline_zh_report_extracts_in_zh(
        self, config_path, tmp_path, monkeypatch
    ):
        prompts: list[str] = []
        chat_many = Gateway.chat_many

        def recording(self, requests):
            prompts.extend(messages[-1].content for _, messages in requests)
            return chat_many(self, requests)

        monkeypatch.setattr(Gateway, "chat_many", recording)
        indicators = {}
        for lang in ("en", "zh"):
            prompts.clear()
            result = invoke(
                config_path, "report", str(self.DOC), "--offline",
                "--lang", lang,
            )
            assert result.exit_code == 0, result.output
            extractions = [p for p in prompts if "ABSENT" in p]
            assert len(extractions) == 5
            zh = [p for p in extractions if p.startswith("请从下面的段落中提取")]
            assert len(zh) == (5 if lang == "zh" else 0)
            analysis = json.loads(
                (tmp_path / "runs" / f"report-acme-filing-acme_filing-{lang}" /
                 "analysis.json").read_text(encoding="utf-8")
            )
            indicators[lang] = analysis["indicators"]
        assert indicators["zh"] == indicators["en"]
        assert [i["name"] for i in indicators["en"]] == ["revenue", "net income"]

    def test_custom_subject(self, config_path):
        result = invoke(
            config_path, "report", str(self.DOC), "--offline",
            "--subject", "Acme Industrial Group",
        )
        assert result.exit_code == 0, result.output
        assert "subject: Acme Industrial Group" in result.output

    def test_missing_document_is_usage_error(self, config_path):
        result = invoke(
            config_path, "report", "no-such-file.txt", "--offline"
        )
        assert result.exit_code == 2

    @pytest.mark.parametrize(
        "text, message",
        [
            ("   \n", "is empty"),
            ("." * 3000 + "\n", "has no indexable text"),
        ],
        ids=["empty", "tokenless"],
    )
    def test_unusable_document_is_one_assistant_error_line(
        self, config_path, tmp_path, text, message
    ):
        doc = tmp_path / "filing.txt"
        doc.write_text(text, encoding="utf-8")
        env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
        done = subprocess.run(
            [sys.executable, "-m", "finorch.cli", "report", str(doc),
             "--offline", "--config", str(config_path)],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert done.returncode == 1
        assert "Traceback" not in done.stderr
        [line] = done.stderr.splitlines()
        assert line.startswith("error (Assistant): ")
        assert message in line
        # Refused before any scoring: no agent was evaluated.
        assert not (tmp_path / "state" / "offline" / "task_scores.jsonl").exists()

    def test_report_skips_a_run_of_text_without_tokens(
        self, config_path, tmp_path
    ):
        doc = tmp_path / "acme_filing.txt"
        body = self.DOC.read_text(encoding="utf-8")
        doc.write_text(
            "Contents " + "." * 3000 + "\n" + body + "- " * 700,
            encoding="utf-8",
        )
        result = invoke(config_path, "report", str(doc), "--offline")
        assert result.exit_code == 0, result.output
        assert "sections: 5" in result.output


@pytest.mark.parametrize(
    "args",
    [
        ["forecast", ""],
        ["forecast", " \t"],
        ["report", str(TestReportCommand.DOC), "--subject", ""],
        ["report", str(TestReportCommand.DOC), "--subject", "  "],
    ],
    ids=["symbol-empty", "symbol-blank", "subject-empty", "subject-blank"],
)
def test_empty_subject_is_usage_error(config_path, monkeypatch, args):
    """An empty SYMBOL or --subject is refused before the config loads, so
    nothing is scored."""

    def refuse(path):
        raise AssertionError("config loaded")

    monkeypatch.setattr("finorch.cli.load_config", refuse)
    result = invoke(config_path, *args, "--offline")
    assert result.exit_code == 2
    assert "must not be empty" in result.stderr


def test_parser_is_built_once_per_process(config_path):
    _parser.cache_clear()
    for _ in range(2):
        assert invoke(config_path, "route", "forecast", "--offline").exit_code == 0
    assert _parser.cache_info().misses == 1


class TestEvaluateAndRoute:
    def test_evaluate_json(self, config_path):
        result = invoke(
            config_path, "evaluate", "--offline", "--json"
        )
        assert result.exit_code == 0, result.output
        payload = json.loads(result.output)
        assert set(payload) == {"forecast", "report"}
        forecast_rows = payload["forecast"]
        assert forecast_rows[0]["agent_id"] == "forecaster-primary"
        assert forecast_rows[0]["composite"] == 1.0
        assert forecast_rows[1]["agent_id"] == "forecaster-secondary"
        assert forecast_rows[1]["composite"] == 0.0
        assert payload["report"][0]["agent_id"] == "report-writer"

    def test_evaluate_single_kind_text(self, config_path):
        result = invoke(
            config_path, "evaluate", "--offline", "--kind", "forecast"
        )
        assert result.exit_code == 0, result.output
        assert "forecast:" in result.output
        assert "report:" not in result.output
        assert "forecaster-primary: composite=1.0000" in result.output

    def test_route_plain(self, config_path):
        result = invoke(config_path, "route", "forecast", "--offline")
        assert result.exit_code == 0, result.output
        assert result.output.strip() == "forecaster-primary"

    def test_route_json(self, config_path):
        result = invoke(
            config_path, "route", "report", "--offline", "--json"
        )
        assert result.exit_code == 0, result.output
        payload = json.loads(result.output)
        assert payload["chosen"] == "report-writer"
        assert payload["ranking"][0] == ["report-writer", 1.0]

    def test_evaluate_all_sends_every_probe_in_one_batch(
        self, config_path, monkeypatch
    ):
        batches: list[int] = []
        chat_many = Gateway.chat_many

        def recording(self, requests):
            batches.append(len(requests))
            return chat_many(self, requests)

        monkeypatch.setattr(Gateway, "chat_many", recording)
        result = invoke(config_path, "evaluate", "--offline")
        assert result.exit_code == 0, result.output
        # 4 forecast records for 2 agents, 2 report records for 2 agents
        assert batches == [12]

    @pytest.mark.parametrize(
        "args",
        [["forecast", "AAPL"], ["evaluate"], ["route", "report"]],
        ids=["forecast", "evaluate", "route"],
    )
    def test_offline_command_starts_no_thread_pool(self, config_path, args):
        """Scripted backends answer inline, which keeps offline runs
        byte-deterministic, so no offline command imports the executor."""
        assert imported_by_offline_command(
            config_path, args, "concurrent.futures"
        ) == "[]"

    @pytest.mark.parametrize(
        "args",
        [
            ["forecast", "AAPL"],
            ["report", str(TestReportCommand.DOC)],
            ["evaluate"],
            ["route", "report"],
        ],
        ids=["forecast", "report", "evaluate", "route"],
    )
    def test_offline_command_loads_no_http_client(self, config_path, args):
        """Offline never opens a socket, so no offline command pays for
        importing an HTTP client, or the date parser it reads a
        Retry-After header with."""
        assert imported_by_offline_command(
            config_path, args, "requests", "urllib3", "http.client",
            "email.utils",
        ) == "[]"

    @pytest.mark.parametrize(
        "args, expected",
        [
            (["evaluate"], []),
            (["route", "report"], []),
            (["forecast", "AAPL"], ["finorch.apps.forecaster"]),
        ],
        ids=["evaluate", "route", "forecast"],
    )
    def test_offline_command_imports_only_its_app(
        self, config_path, args, expected
    ):
        """An app is imported on its first call, so scoring and routing load
        no app code and a forecast loads no report code."""
        assert imported_by_offline_command(
            config_path, args, "finorch.apps.forecaster",
            "finorch.apps.reports", "finorch.dataops.retrieval",
            "finorch.tools.calls",
        ) == str(expected)

    @pytest.mark.parametrize(
        "args",
        [["evaluate"], ["route", "report"]],
        ids=["evaluate", "route"],
    )
    def test_offline_scoring_loads_no_runner_market_data_or_logging(
        self, config_path, args
    ):
        """Scoring and routing run no task and read no market data, so they
        load neither the workflow runner nor any of ``finorch.dataops``
        (whose submodules all load the package), and nothing they run
        logs."""
        assert imported_by_offline_command(
            config_path, args, "finorch.workflow", "finorch.dataops",
            "hashlib", "logging",
        ) == "[]"

    @pytest.mark.parametrize(
        "args",
        [["forecast", "AAPL"], ["report", str(TestReportCommand.DOC)]],
        ids=["forecast", "report"],
    )
    def test_offline_app_loads_no_response_cache(self, config_path, args):
        """Offline market data comes straight from the fixtures, so no
        offline command loads the response cache or the hash it keys
        entries with."""
        assert imported_by_offline_command(
            config_path, args, "finorch.dataops.cache", "hashlib"
        ) == "[]"

    def test_live_route_on_persisted_scores_builds_no_market_data(
        self, config_path, tmp_path, monkeypatch
    ):
        """Market data is built on first use, and routing never uses it."""
        (tmp_path / "state").mkdir()
        (tmp_path / "state" / "task_scores.jsonl").write_text(
            "".join(
                json.dumps(score_row(agent_id, composite)) + "\n"
                for agent_id, composite in (
                    ("forecaster-primary", 1.0),
                    ("forecaster-secondary", 0.0),
                )
            ),
            encoding="utf-8",
        )

        def refuse(*args, **kwargs):
            raise AssertionError("route built market data")

        monkeypatch.setattr(providers.LiveProvider, "__init__", refuse)
        monkeypatch.setattr(cache.ResponseCache, "__init__", refuse)
        result = invoke(config_path, "route", "forecast")
        assert result.exit_code == 0, result.output
        assert result.output.strip() == "forecaster-primary"

    def test_live_route_on_persisted_scores_loads_no_record_machinery(
        self, config_path, tmp_path
    ):
        """A live route builds the HTTP client, but loads neither
        ``dataclasses`` nor ``inspect`` either."""
        (tmp_path / "state").mkdir()
        (tmp_path / "state" / "task_scores.jsonl").write_text(
            "".join(
                json.dumps(score_row(agent_id, composite)) + "\n"
                for agent_id, composite in (
                    ("forecaster-primary", 1.0),
                    ("forecaster-secondary", 0.0),
                )
            ),
            encoding="utf-8",
        )
        dummy = {"EXAMPLE_API_KEY": "dummy-key", "OTHER_API_KEY": "dummy-key"}
        assert imported_by_command(
            config_path, ["route", "forecast"], "http.client", env=dummy
        ) == "['http.client']"

    def test_evaluate_writes_one_row_per_agent(
        self, config_path, tmp_path
    ):
        result = invoke(config_path, "evaluate", "--offline")
        assert result.exit_code == 0, result.output
        log = tmp_path / "state" / "offline" / "task_scores.jsonl"
        rows = [json.loads(line) for line in log.read_text().splitlines()]
        assert [(row["task_kind"], row["agent_id"]) for row in rows] == [
            ("forecast", "forecaster-primary"),
            ("forecast", "forecaster-secondary"),
            ("report", "report-skeptic"),
            ("report", "report-writer"),
        ]
        # no row is contradicted by a later row of the same evaluation
        latest = {(r["task_kind"], r["agent_id"]): r["composite"] for r in rows}
        assert [r["composite"] for r in rows] == [
            latest[(r["task_kind"], r["agent_id"])] for r in rows
        ] == [1.0, 0.0, 0.0, 1.0]

    def test_offline_scores_never_route_a_live_task(
        self, config_path, monkeypatch
    ):
        """Offline scores live under ``state/offline``, so a live route
        after an offline evaluation still has to evaluate, and without
        credentials that fails."""
        result = invoke(config_path, "evaluate", "--offline")
        assert result.exit_code == 0, result.output
        live = build_engine(load_config(config_path), offline=False, env={})
        assert live.scheduler.latest_scores("forecast") == {}
        monkeypatch.delenv("EXAMPLE_API_KEY", raising=False)
        monkeypatch.delenv("OTHER_API_KEY", raising=False)
        result = invoke(config_path, "route", "forecast", "--json")
        assert result.exit_code == 1
        assert result.stdout == ""
        [line] = result.stderr.splitlines()
        assert line.startswith("error: ")
        assert "'EXAMPLE_API_KEY', which is unset" in line

    def test_route_unknown_kind_is_usage_error(self, config_path):
        result = invoke(config_path, "route", "poetry", "--offline")
        assert result.exit_code == 2

    def test_evaluate_missing_golden_exits_one(self, tmp_path):
        from test_config import MINIMAL

        (tmp_path / "no-golden").mkdir()
        config_path = write_config(
            tmp_path,
            MINIMAL.format(
                golden_dir=tmp_path / "no-golden",
                fixture_dir=REPO / "fixtures",
            ),
        )
        result = invoke(config_path, "evaluate", "--offline")
        assert result.exit_code == 1
        assert "no golden dataset" in result.stderr


    def test_bad_config_number_is_one_error_line(self, tmp_path):
        from test_config import minimal_text

        config_path = write_config(
            tmp_path,
            minimal_text().replace("exact_match: 0.5", 'exact_match: "abc"'),
        )
        env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
        done = subprocess.run(
            [sys.executable, "-m", "finorch.cli", "evaluate", "--offline",
             "--config", str(config_path)],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert done.returncode == 1
        assert "Traceback" not in done.stderr
        [line] = done.stderr.splitlines()
        assert line.startswith("error: weights['forecast'] key 'exact_match'")


def config_not_utf8(tmp_path):
    config = write_config(tmp_path)
    config.write_bytes(config.read_bytes() + b"# caf\xe9\n")
    return config, ["evaluate"], config


def golden_set_not_utf8(tmp_path):
    golden = tmp_path / "golden"
    shutil.copytree(REPO / "fixtures" / "golden", golden)
    broken = golden / "forecast.jsonl"
    broken.write_bytes(broken.read_bytes() + b"\xff\n")
    text = MINIMAL.format(golden_dir=golden, fixture_dir=REPO / "fixtures")
    return write_config(tmp_path, text), ["evaluate"], broken


def fixture_not_json(tmp_path):
    fixtures = tmp_path / "fixtures"
    fixtures.mkdir()
    broken = fixtures / "AAPL.json"
    broken.write_text("{not json", encoding="utf-8")
    text = MINIMAL.format(
        golden_dir=REPO / "fixtures" / "golden", fixture_dir=fixtures
    )
    return write_config(tmp_path, text), ["forecast", "AAPL"], broken


def template_not_utf8(tmp_path):
    prompts = tmp_path / "prompts"
    shutil.copytree(REPO / "src" / "finorch" / "prompts", prompts)
    broken = prompts / "adaptor_default.en.txt"
    broken.write_bytes(broken.read_bytes() + b"\xff")
    text = minimal_text() + f"prompt_dir: {prompts}\n"
    return write_config(tmp_path, text), ["evaluate"], broken


@pytest.mark.parametrize(
    "setup, prefix",
    [
        (config_not_utf8, "error: cannot read config"),
        (golden_set_not_utf8, "error: cannot read golden dataset"),
        (fixture_not_json, "error (Assistant): cannot read fixture"),
        (template_not_utf8, "error: cannot read template"),
    ],
    ids=["config", "golden-set", "fixture", "template"],
)
def test_an_unreadable_input_file_is_one_error_line(tmp_path, setup, prefix):
    """A file that is not UTF-8, or a fixture that is not JSON, is one
    error line naming the file."""
    config_path, args, broken = setup(tmp_path)
    env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
    done = subprocess.run(
        [sys.executable, "-m", "finorch.cli", *args, "--offline",
         "--config", str(config_path)],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert done.returncode == 1
    assert "Traceback" not in done.stderr
    [line] = done.stderr.splitlines()
    assert line.startswith(f"{prefix} {broken}: ")


class TestSelfcheck:
    def test_selfcheck_passes(self, config_path):
        result = run_cli(["selfcheck", "--config", str(config_path)])
        assert result.exit_code == 0, result.output
        assert "selfcheck passed" in result.output
        assert result.output.count("ok:") == 6

    def test_selfcheck_evaluates_on_every_run(
        self, config_path, tmp_path
    ):
        """Route alone reuses persisted scores, so selfcheck evaluates
        first: each run scores all four agents again."""
        log = tmp_path / "state" / "offline" / "task_scores.jsonl"
        for run in (1, 2):
            result = run_cli(["selfcheck", "--config", str(config_path)])
            assert result.exit_code == 0, result.output
            assert "ok: agents evaluate and route offline" in result.output
            assert len(log.read_text().splitlines()) == 4 * run

    def test_selfcheck_with_a_renamed_primary_backend(self, tmp_path):
        """The round trip goes to a configured backend that carries the
        primary script, whatever its id."""
        from test_config import minimal_text

        config_path = write_config(
            tmp_path,
            minimal_text().replace("backend_id: primary", "backend_id: openai"),
        )
        result = run_cli(["selfcheck", "--config", str(config_path)])
        assert result.exit_code == 0, result.output
        assert "ok: scripted backend round trip" in result.output
        assert "selfcheck passed" in result.output

    def test_selfcheck_bad_config_fails(self, tmp_path):
        result = run_cli(["selfcheck", "--config", str(tmp_path / "missing.yaml")])
        assert result.exit_code == 1
        assert "FAIL" in result.output


def test_in_process_commands_keep_no_redirected_stdout(config_path):
    """A caller that runs commands in its own process and redirects stdout
    for each gets every redirected stream back: the CLI keeps none alive."""
    streams = []
    for argv in (["route", "forecast"], ["route", "report"], ["evaluate"]):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            main([*argv, "--offline", "--config", str(config_path)],
                 standalone_mode=False)
        assert out.getvalue()
        streams += [weakref.ref(out), weakref.ref(err)]
        del out, err
    gc.collect()
    assert [stream() for stream in streams] == [None] * 6
