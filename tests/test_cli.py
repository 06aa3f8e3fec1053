"""CLI behavior: commands, exit codes, and offline determinism."""

from __future__ import annotations

import builtins
import contextlib
import errno
import gc
import io
import json
import os
import shutil
import socket
import subprocess
import sys
import time
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


@pytest.fixture()
def config_path(tmp_path) -> Path:
    return write_config(tmp_path)


def invoke(config_path, *args):
    return run_cli([*args, "--config", str(config_path)])


def error_line(config_path, *args) -> str:
    """The one line a failing command prints, run as a shell runs it: in a
    fresh interpreter, where a traceback would show."""
    done = subprocess.run(
        [sys.executable, "-m", "finorch.cli", *args, "--config", str(config_path)],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(REPO / "src")},
    )
    assert done.returncode == 1, done.stderr
    assert "Traceback" not in done.stderr
    [line] = done.stderr.splitlines()
    return line


def loaded_offline(mode: str, *modules: str) -> list[str]:
    """Which of ``modules`` the cost oracle's offline ``mode`` loads, and of
    the CLI framework and reflection no command may load (it runs on
    ``argparse``; records are plain classes)."""
    from test_cost import observed  # test_cost imports this module

    seen = observed(mode)
    never = {"click", "dataclasses", "inspect"}
    return sorted({*modules, *never} & {*seen["finorch"], *seen["modules"]})


#: The input texts of the forecast golden set, which every probe carries.
PROBES = [
    json.loads(line)["input_text"]
    for line in (REPO / "fixtures" / "golden" / "forecast.jsonl")
    .read_text(encoding="utf-8")
    .splitlines()
    if line.strip()
]


def score_row(agent_id: str, raw: float) -> dict:
    """A persisted forecast score as an evaluation writes it."""
    return TaskScore(
        agent_id=agent_id,
        task_kind="forecast",
        raw_scores={"exact_match": raw, "token_f1": raw},
        evaluated_at="2024-01-01T00:00:00Z",
    ).to_dict()


def persist_forecast_scores(state_dir: Path) -> None:
    """Live scores for both forecast agents, the primary ahead."""
    state_dir.mkdir()
    (state_dir / "task_scores.jsonl").write_text(
        "".join(
            json.dumps(score_row(agent_id, raw)) + "\n"
            for agent_id, raw in (
                ("forecaster-primary", 1.0),
                ("forecaster-secondary", 0.0),
            )
        ),
        encoding="utf-8",
    )


def edited_golden(tmp_path: Path, edit) -> Path:
    """A config over a copy of the golden sets whose forecast rows went
    through ``edit(line number, row)``."""
    golden = tmp_path / "golden"
    shutil.copytree(REPO / "fixtures" / "golden", golden)
    path = golden / "forecast.jsonl"
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    path.write_text(
        "".join(json.dumps(edit(n, row)) + "\n" for n, row in enumerate(rows, 1))
    )
    return write_config(
        tmp_path,
        MINIMAL.format(golden_dir=golden, fixture_dir=REPO / "fixtures"),
    )


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
        line = error_line(
            config_path, "forecast", "AAPL", "--offline",
            "--cutoff", "2024-04-19", "--horizon", "1",
        )
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
        line = error_line(config_path, "forecast", "AAPL", "--offline", *args)
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

    @pytest.mark.parametrize(
        "symbol",
        ["/../../escape", "..\\..\\escape", "AA/PL", "AAPL\n", "AA\x00PL"],
        ids=["slash-traversal", "backslash-traversal", "slash", "newline", "nul"],
    )
    def test_symbol_that_is_not_a_ticker_is_usage_error(
        self, config_path, tmp_path, symbol
    ):
        """SYMBOL names the run directory and the fixture file, so a path
        separator or a control character in it is refused before the config
        loads, and nothing is written."""
        result = invoke(config_path, "forecast", symbol, "--offline")
        assert result.exit_code == 2
        assert "is not a ticker" in result.stderr
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.yaml"]

    @pytest.mark.parametrize("symbol", ["BRK.B", "^GSPC", "AAPL"])
    def test_real_tickers_are_symbols(self, symbol):
        assert _parser().parse_args(["forecast", symbol]).symbol == symbol

    def test_offline_runs_with_network_disabled(self):
        """An offline forecast creates no socket and connects nowhere."""
        from test_cost import observed  # test_cost imports this module

        assert observed("forecast")["sockets"] == {
            "socket.__new__": 0, "socket.connect": 0,
        }


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

    def test_offline_report_starts_no_thread_pool(self):
        assert loaded_offline("report", "concurrent.futures") == []

    def test_offline_report_imports_no_dsl_or_analytics(self):
        """No command runs the expression language or analytics."""
        dsl = "finorch.tools.dsl"
        assert loaded_offline("report", "finorch.analytics", dsl) == []

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
            # 3,000 words, none of a topic or a section query: the note
            # would be grounded in no passage
            (
                "lorem ipsum dolor sit amet consectetur adipiscing elit " * 375,
                "shares no word with the report's topics",
            ),
        ],
        ids=["empty", "tokenless", "no-query-word"],
    )
    def test_unusable_document_is_one_assistant_error_line(
        self, config_path, tmp_path, text, message
    ):
        doc = tmp_path / "filing.txt"
        doc.write_text(text, encoding="utf-8")
        line = error_line(config_path, "report", str(doc), "--offline")
        assert line.startswith("error (Assistant): ")
        assert str(doc) in line and message in line
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

    @pytest.mark.parametrize("mode", ["forecast", "evaluate", "route"])
    def test_offline_command_starts_no_thread_pool(self, mode):
        """Scripted backends answer inline, keeping offline runs
        byte-deterministic, so nothing offline imports the executor."""
        assert loaded_offline(mode, "concurrent.futures") == []

    @pytest.mark.parametrize("mode", ["forecast", "report", "evaluate", "route"])
    def test_offline_command_loads_no_http_client(self, mode):
        """Nothing offline loads an HTTP client, its wire code, ``socket``
        or the date parser a Retry-After header is read with."""
        assert loaded_offline(
            mode, "requests", "urllib3", "http.client", "email.utils",
            "socket", "finorch.httpclient", "finorch.http11",
        ) == []

    @pytest.mark.parametrize("mode, expected", [
        ("evaluate", []), ("route", []),
        ("forecast", ["finorch.apps.forecaster"]),
    ], ids=["evaluate", "route", "forecast"])
    def test_offline_command_imports_only_its_app(self, mode, expected):
        """An app is imported on its first call."""
        assert loaded_offline(
            mode, "finorch.apps.forecaster", "finorch.apps.reports",
            "finorch.dataops.retrieval", "finorch.tools.calls",
        ) == expected

    @pytest.mark.parametrize("mode", ["evaluate", "route"])
    def test_offline_scoring_loads_no_runner_market_data_or_logging(
        self, mode
    ):
        """Scoring and routing run no task and read no market data."""
        assert loaded_offline(
            mode, "finorch.workflow", "finorch.dataops", "hashlib", "logging"
        ) == []

    @pytest.mark.parametrize("mode", ["forecast", "report"])
    def test_offline_app_loads_no_response_cache(self, mode):
        """Offline market data comes straight from the fixtures."""
        cached = ("finorch.dataops.cache", "hashlib")
        assert loaded_offline(mode, *cached) == []

    def test_live_route_on_persisted_scores_builds_no_market_data(
        self, config_path, tmp_path, monkeypatch
    ):
        """Market data is built on first use, and routing never uses it."""
        persist_forecast_scores(tmp_path / "state")

        def refuse(*args, **kwargs):
            raise AssertionError("route built market data")

        monkeypatch.setattr(providers.LiveProvider, "__init__", refuse)
        monkeypatch.setattr(cache.ResponseCache, "__init__", refuse)
        result = invoke(config_path, "route", "forecast")
        assert result.exit_code == 0, result.output
        assert result.output.strip() == "forecaster-primary"

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
        # a row holds what was measured; ranking derives the rest
        assert {tuple(row) for row in rows} == {
            ("agent_id", "task_kind", "raw_scores", "evaluated_at")
        }
        assert [row["raw_scores"] for row in rows] == [
            {"exact_match": 1.0, "token_f1": 1.0},
            {"exact_match": 0.0, "token_f1": 0.0},
            {"token_f1": 0.0},
            {"token_f1": 1.0},
        ]

    def test_offline_evaluated_at_does_not_count_chats(self, tmp_path):
        """A fixed clock ticks only for stamps that are written, so the
        number of probes an evaluation sends moves no stamp."""
        records = (REPO / "fixtures" / "golden" / "forecast.jsonl").read_text(
            encoding="utf-8"
        ).splitlines(keepends=True)
        stamps = []
        for kept in (records, records[:2]):
            run_dir = tmp_path / f"kept{len(kept)}"
            golden = run_dir / "golden"
            shutil.copytree(REPO / "fixtures" / "golden", golden)
            (golden / "forecast.jsonl").write_text(
                "".join(kept), encoding="utf-8"
            )
            config = write_config(
                run_dir,
                MINIMAL.format(golden_dir=golden, fixture_dir=REPO / "fixtures"),
            )
            result = invoke(config, "evaluate", "--offline", "--kind", "forecast")
            assert result.exit_code == 0, result.output
            log = run_dir / "state" / "offline" / "task_scores.jsonl"
            rows = [json.loads(line) for line in log.read_text().splitlines()]
            assert len(rows) == 2
            stamps.append([row["evaluated_at"] for row in rows])
        assert len(records) > 2
        assert stamps[0] == stamps[1]

    def test_offline_scores_never_route_a_live_task(
        self, config_path, monkeypatch
    ):
        """Offline scores live under ``state/offline``, so a live route
        after an offline evaluation still has to evaluate, and without
        credentials that fails."""
        result = invoke(config_path, "evaluate", "--offline")
        assert result.exit_code == 0, result.output
        monkeypatch.delenv("EXAMPLE_API_KEY", raising=False)
        monkeypatch.delenv("OTHER_API_KEY", raising=False)
        monkeypatch.delenv("FINNHUB_TOKEN", raising=False)
        live = build_engine(load_config(config_path), offline=False)
        assert live.scheduler.latest_scores("forecast") == {}
        result = invoke(config_path, "route", "forecast", "--json")
        assert result.exit_code == 1
        assert result.stdout == ""
        [line] = result.stderr.splitlines()
        assert line.startswith("error: ")
        assert "'EXAMPLE_API_KEY', which is unset" in line

    def test_a_key_http_cannot_carry_is_one_error_line(
        self, tmp_path, monkeypatch
    ):
        """A live evaluation whose API key holds CR LF fails before it
        sends anything, in one line that names the variable, not the key."""
        text = minimal_text()
        for url in ("https://api.example.com/v1", "https://api.example.org/v1"):
            text = text.replace(url, "http://127.0.0.1:9/v1")
        config_path = write_config(tmp_path, text)
        for name in ("EXAMPLE_API_KEY", "OTHER_API_KEY"):
            monkeypatch.setenv(name, "sk-secret\r\nX-Evil: 1")
        result = invoke(config_path, "evaluate")
        assert result.exit_code == 1
        [line] = result.stderr.splitlines()
        assert line.startswith("error: ")
        assert "_API_KEY' holds CR, LF or NUL" in line
        assert "sk-secret" not in result.output

    def test_route_unknown_kind_is_usage_error(self, config_path):
        result = invoke(config_path, "route", "poetry", "--offline")
        assert result.exit_code == 2

    def test_evaluate_missing_golden_exits_one(self, tmp_path):
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

    @pytest.mark.parametrize(
        "args", [["route", "report"], ["evaluate"]], ids=["route", "evaluate"]
    )
    def test_empty_golden_set_names_the_file_and_the_kind(self, tmp_path, args):
        golden = tmp_path / "golden"
        shutil.copytree(REPO / "fixtures" / "golden", golden)
        (golden / "report.jsonl").write_text("", encoding="utf-8")
        config_path = write_config(
            tmp_path,
            MINIMAL.format(golden_dir=golden, fixture_dir=REPO / "fixtures"),
        )
        result = invoke(config_path, *args, "--offline")
        assert result.exit_code == 1
        assert result.stderr.splitlines() == [
            f"error: golden dataset {golden / 'report.jsonl'} for task kind "
            "'report' is empty"
        ]
        assert not (tmp_path / "state" / "offline" / "task_scores.jsonl").exists()

    @pytest.mark.parametrize("kind", ["all", "report"])
    def test_evaluate_of_a_kind_with_no_agent_changes_no_state(
        self, tmp_path, chats, kind
    ):
        """A kind no agent is registered for is refused before any probe,
        so no row of another kind is written, and no empty log either."""
        text = minimal_text()
        for agent_id, backend_id in (
            ("report-writer", "primary"), ("report-skeptic", "secondary")
        ):
            text = text.replace(
                f"  - agent_id: {agent_id}\n    backend_id: {backend_id}\n"
                "    task_kinds: [report]\n",
                "",
            )
        config_path = write_config(tmp_path, text)
        result = invoke(config_path, "evaluate", "--offline", "--kind", kind)
        assert result.exit_code == 1
        assert result.stdout == ""
        assert result.stderr.splitlines() == [
            "error: no agent is registered for task kind 'report'"
        ]
        assert chats == []
        assert not (tmp_path / "state" / "offline" / "task_scores.jsonl").exists()

    def test_route_on_persisted_weighted_scores_reads_no_golden_set(
        self, tmp_path
    ):
        """The kind's weights name the dimensions its rows must hold, so a
        route on such rows needs no golden set, here not even a golden dir."""
        config_path = write_config(
            tmp_path,
            MINIMAL.format(
                golden_dir=tmp_path / "no-golden", fixture_dir=REPO / "fixtures"
            ),
        )
        persist_forecast_scores(tmp_path / "state")
        result = invoke(config_path, "route", "forecast")
        assert result.exit_code == 0, result.output
        assert result.stdout == "forecaster-primary\n"


    def test_golden_row_with_other_labels_is_one_error_line(self, tmp_path, chats):
        """A golden row that breaks a rule is one error line, before any
        chat. The kind has no weights here to refuse a row: split into
        characters, "token_f1" made eight judged dimensions that every
        agent, a junk one too, scored 1.0 on."""
        cases = [  # (first edited row, edit, what the error says of it)
            (
                2,
                {"dimension_labels": ["token_f1"]},
                "has dimension labels ['token_f1']",
            ),
            (
                2,
                {"reference_answer": None},
                "is malformed: TypeError: reference_answer is None, not a string",
            ),
            (
                1,
                {"dimension_labels": "token_f1"},
                "is malformed: TypeError: dimension_labels is 'token_f1', not a "
                "non-empty list of distinct, non-empty strings",
            ),
        ]
        for case, (first, change, problem) in enumerate(cases):
            run = tmp_path / f"case-{case}"
            run.mkdir()

            def edit(number, row, first=first, change=change):
                return {**row, **change} if number >= first else row

            config_path = edited_golden(run, edit)
            text = config_path.read_text(encoding="utf-8")
            weights = "  forecast:\n    exact_match: 0.5\n    token_f1: 0.5\n"
            assert weights in text
            config_path.write_text(text.replace(weights, ""))
            result = invoke(config_path, "evaluate", "--offline")
            assert result.exit_code == 1
            [line] = result.stderr.splitlines()
            assert line.startswith("error: golden dataset ")
            assert f"forecast.jsonl line {first} {problem}" in line
            assert chats == []
            assert not (run / "state" / "offline" / "task_scores.jsonl").exists()

    def test_golden_rows_of_another_kind_route_no_foreign_agent(self, tmp_path):
        def as_report(number, row):
            row["task_kind"] = "report"
            row["dimension_labels"] = ["token_f1"]
            return row

        config_path = edited_golden(tmp_path, as_report)
        result = invoke(config_path, "evaluate", "--offline")
        assert result.exit_code == 1
        [line] = result.stderr.splitlines()
        assert "forecast.jsonl line 1 has task kind 'report'" in line
        result = invoke(config_path, "route", "report", "--offline", "--json")
        assert result.exit_code == 0, result.output
        ranking = json.loads(result.stdout)["ranking"]
        assert sorted(agent for agent, _ in ranking) == [
            "report-skeptic", "report-writer",
        ]

    def test_bad_config_number_is_one_error_line(self, tmp_path):
        config_path = write_config(
            tmp_path,
            minimal_text().replace("exact_match: 0.5", 'exact_match: "abc"'),
        )
        line = error_line(config_path, "evaluate", "--offline")
        assert line.startswith("error: weights['forecast'] key 'exact_match'")


@pytest.fixture()
def chats(monkeypatch) -> list[str]:
    """The backend id of every chat sent from here on, in order."""
    sent: list[str] = []
    chat = Gateway.chat

    def recording(self, backend_id, messages):
        sent.append(backend_id)
        return chat(self, backend_id, messages)

    monkeypatch.setattr(Gateway, "chat", recording)
    return sent


#: One more forecast agent, on the backend no other agent uses; offline,
#: the judge's script answers its probes.
TERTIARY = (
    "  - agent_id: forecaster-tertiary\n"
    "    backend_id: judge\n"
    "    task_kinds: [forecast]\n"
)


def with_tertiary(text: str) -> str:
    return text.replace(
        "  - agent_id: report-writer\n", TERTIARY + "  - agent_id: report-writer\n"
    )


def with_forecast_weights(text: str, exact_match: float) -> str:
    return text.replace(
        "exact_match: 0.5\n    token_f1: 0.5",
        f"exact_match: {exact_match}\n    token_f1: {1 - exact_match}",
    )


def split_golden(number: int, row: dict) -> dict:
    """Record 1 stays the primary's; the secondary's reply nearly matches
    the other references. So the primary leads on exact match (raw 0.25
    against 0) and the secondary on token F1 (0.68 against 0.25)."""
    if number > 1:
        row["reference_answer"] = offline.SECONDARY_REPLY + " today"
    return row


def route_json(config_path: Path) -> dict:
    result = invoke(config_path, "route", "forecast", "--offline", "--json")
    assert result.exit_code == 0, result.output
    return json.loads(result.stdout)


class TestRankingFollowsTheConfig:
    """Scores store what was measured; ranking reads the current config."""

    def test_changed_weights_reorder_the_ranking_without_a_chat(
        self, tmp_path, chats
    ):
        config_path = edited_golden(tmp_path, split_golden)
        text = config_path.read_text(encoding="utf-8")
        config_path.write_text(with_forecast_weights(text, 0.75))
        assert route_json(config_path)["ranking"] == [
            ["forecaster-primary", 0.75], ["forecaster-secondary", 0.25],
        ]
        assert len(chats) == 8
        chats.clear()
        config_path.write_text(with_forecast_weights(text, 0.25))
        assert route_json(config_path) == {
            "task_kind": "forecast",
            "ranking": [
                ["forecaster-secondary", 0.75], ["forecaster-primary", 0.25],
            ],
            "chosen": "forecaster-secondary",
        }
        assert chats == []

    def test_an_added_agent_is_evaluated_and_ranked(self, tmp_path, chats):
        config_path = write_config(tmp_path)
        assert len(route_json(config_path)["ranking"]) == 2
        chats.clear()
        write_config(tmp_path, with_tertiary(minimal_text()))
        payload = route_json(config_path)
        assert chats == ["judge"] * 4  # its four golden probes, and no more
        assert [agent for agent, _ in payload["ranking"]] == [
            "forecaster-primary", "forecaster-tertiary", "forecaster-secondary",
        ]

    def test_a_deconfigured_agent_moves_no_composite(self, tmp_path, chats):
        retired = tmp_path / "retired"
        retired.mkdir()
        config_path = edited_golden(retired, split_golden)
        text = config_path.read_text(encoding="utf-8")
        config_path.write_text(with_tertiary(text))
        result = invoke(config_path, "evaluate", "--offline", "--kind", "forecast")
        assert result.exit_code == 0, result.output
        config_path.write_text(text)
        chats.clear()
        kept = route_json(config_path)["ranking"]
        assert chats == []
        fresh = tmp_path / "fresh"
        fresh.mkdir()
        assert route_json(edited_golden(fresh, split_golden))["ranking"] == kept
        assert kept == [
            ["forecaster-primary", 0.5], ["forecaster-secondary", 0.5],
        ]

    def test_weights_that_miss_a_golden_dimension_send_no_probe(
        self, tmp_path, chats
    ):
        config_path = write_config(
            tmp_path,
            minimal_text().replace(
                "exact_match: 0.5\n    token_f1: 0.5", "token_f1: 1.0"
            ),
        )
        result = invoke(config_path, "route", "forecast", "--offline")
        assert result.exit_code == 1
        assert chats == []
        [line] = result.stderr.splitlines()
        assert line == (
            "error: weights['forecast'] has dimensions ['token_f1'], but its "
            "golden dataset has ['exact_match', 'token_f1']"
        )

    @pytest.mark.parametrize(
        "weights", ["token_f1: 1.0", None], ids=["weights", "no-weights"]
    )
    def test_rows_of_dimensions_the_golden_set_dropped_are_scored_again(
        self, tmp_path, chats, weights
    ):
        config_path = edited_golden(tmp_path, lambda number, row: row)
        text = config_path.read_text(encoding="utf-8")
        old_weights = "  forecast:\n    exact_match: 0.5\n    token_f1: 0.5\n"
        if weights is None:  # uniform over whatever the rows measured
            config_path.write_text(text.replace(old_weights, ""))
        assert len(route_json(config_path)["ranking"]) == 2
        chats.clear()
        golden = tmp_path / "golden" / "forecast.jsonl"
        golden.write_text(
            golden.read_text().replace(
                '["exact_match", "token_f1"]', '["token_f1"]'
            )
        )
        if weights is not None:
            config_path.write_text(
                text.replace(old_weights, f"  forecast:\n    {weights}\n")
            )
        assert route_json(config_path)["ranking"] == [
            ["forecaster-primary", 1.0], ["forecaster-secondary", 0.0],
        ]
        assert len(chats) == 8  # both agents' four golden probes
        chats.clear()
        route_json(config_path)
        assert chats == []

    def test_route_ranks_once(self, config_path, monkeypatch):
        ranked: list[str] = []
        rank_agents = Scheduler.rank_agents

        def counting(self, task_kind):
            ranked.append(task_kind)
            return rank_agents(self, task_kind)

        monkeypatch.setattr(Scheduler, "rank_agents", counting)
        payload = route_json(config_path)
        assert ranked == ["forecast"]
        assert payload["ranking"][0] == ["forecaster-primary", 1.0]


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
    line = error_line(config_path, *args, "--offline")
    assert line.startswith(f"{prefix} {broken}: ")


@pytest.mark.parametrize(
    "deep",
    ["deep: " + "[" * 50000 + "]" * 50000 + "\n",
     "deep:\n" + "- " * 30000 + "x\n"],
    ids=["flow", "block"],
)
def test_a_config_nested_past_libyamls_stack_is_one_error_line(tmp_path, deep):
    """LibYAML's composer recurses in C and crashes the process some 20000
    levels down, so such a config is refused before it composes."""
    config_path = write_config(tmp_path, minimal_text() + deep)
    started = time.perf_counter()
    line = error_line(config_path, "route", "forecast", "--offline")
    assert time.perf_counter() - started < 2
    assert line == f"error: config {config_path} nests too deeply"


def a_file_at(path: Path) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("not a directory\n", encoding="utf-8")
    return path


def a_dir_at(path: Path) -> Path:
    path.mkdir(parents=True)
    return path


@pytest.mark.parametrize(
    "args, unusable, prefix",
    [
        (["evaluate", "--offline"], lambda tmp: a_file_at(tmp / "state"),
         "error: cannot use state directory"),
        (["route", "forecast"], lambda tmp: a_file_at(tmp / "state"),
         "error: cannot use state directory"),
        (["forecast", "AAPL", "--offline"], lambda tmp: a_file_at(tmp / "runs"),
         "error: cannot write run trace"),
        (["route", "forecast", "--offline"],
         lambda tmp: a_dir_at(tmp / "state" / "offline" / "task_scores.jsonl"),
         "error: cannot read state file"),
        (["evaluate", "--offline"],
         lambda tmp: a_dir_at(tmp / "state" / "offline" / "task_scores.jsonl"),
         "error: cannot read state file"),
        (["forecast", "AAPL", "--offline"],
         lambda tmp: a_dir_at(tmp / "state" / "offline" / "reflections.jsonl"),
         "error (Financial Analyst): cannot write state file"),
        (["forecast", "AAPL", "--offline"],
         lambda tmp: a_dir_at(
             tmp / "runs" / "forecast-AAPL-20240419-h7-en" / "forecast.json"
         ),
         "error: cannot write run artifact"),
    ],
    ids=[
        "state-dir-offline", "state-dir-live", "runs-dir", "scores-read",
        "scores-write", "reflections", "artifact",
    ],
)
def test_an_unusable_state_or_runs_path_is_one_error_line(
    config_path, tmp_path, args, unusable, prefix
):
    """A state or runs path that is a file where a directory belongs, or a
    directory where a file belongs, is one error line naming the path (or
    the file under it that could not be made), and leaves no temporary
    file behind."""
    path = unusable(tmp_path)
    result = invoke(config_path, *args)
    assert result.exit_code == 1, result.output
    assert result.stdout == ""
    [line] = result.stderr.splitlines()
    assert line.startswith(f"{prefix} {path}")
    assert not list(tmp_path.rglob("*.tmp"))


def no_network_and_forecast_scores(tmp_path, monkeypatch) -> None:
    """A live forecast that evaluates nothing, on persisted scores, and
    reaches no network: every socket is refused."""

    def refuse(*args, **kwargs):
        raise AssertionError("the test attempted a network call")

    monkeypatch.setattr(socket, "socket", refuse)
    monkeypatch.setattr(socket, "create_connection", refuse)
    persist_forecast_scores(tmp_path / "state")


class FullDisk:
    """An open file whose every write fails, as on a full disk."""

    def __init__(self, handle):
        self._handle = handle

    def __getattr__(self, name):
        return getattr(self._handle, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self._handle.close()

    def write(self, data):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


@pytest.mark.parametrize(
    "live, full, prefix",
    [
        (False, lambda path: path.name == "trace.jsonl",
         "error: cannot write run trace"),
        (False, lambda path: path.name.startswith("forecast.json."),
         "error: cannot write run artifact"),
        (False, lambda path: path.name == "reflections.jsonl",
         "error (Financial Analyst): cannot write state file"),
        (True, lambda path: path.parent.name == "cache",
         "error (Assistant): cannot write cache entry"),
    ],
    ids=["trace", "artifact", "state-row", "cache-entry"],
)
def test_a_full_disk_is_one_error_line(
    config_path, tmp_path, monkeypatch, live, full, prefix
):
    """A write that fails mid-run, as on a full disk, is one error line
    naming the file it was for, and leaves no temporary file behind. The
    fault is in ``open``'s file, so ``finorch.files`` maps it itself. The
    live forecast misses the cache, so it puts the provider's answer."""
    failed = []
    real_open = builtins.open

    def open_(file, mode="r", *args, **kwargs):
        handle = real_open(file, mode, *args, **kwargs)
        if set(mode) & set("wax+") and full(Path(file)):
            failed.append(Path(file))
            return FullDisk(handle)
        return handle

    args = ["forecast", "AAPL"]
    if live:
        no_network_and_forecast_scores(tmp_path, monkeypatch)
        fixture = providers.FixtureProvider(REPO / "fixtures")
        monkeypatch.setattr(
            providers.LiveProvider, "fetch",
            lambda self, endpoint, params: fixture.fetch(endpoint, params),
        )
    else:
        args.append("--offline")
    monkeypatch.setattr(builtins, "open", open_)
    result = invoke(config_path, *args)
    assert result.exit_code == 1, result.output
    assert result.stdout == ""
    target = failed[0]
    if target.suffix == ".tmp":  # a replace: the temporary file's target
        target = target.with_name(target.name.rsplit(".", 2)[0])
    enospc = OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
    assert result.stderr.splitlines() == [f"{prefix} {target}: {enospc}"]
    assert not list(tmp_path.rglob("*.tmp"))


def test_an_unusable_cache_dir_is_one_error_line(
    config_path, tmp_path, monkeypatch
):
    """A live forecast on persisted scores builds the response cache before
    any request, and a cache_dir that is a file is one error line."""
    no_network_and_forecast_scores(tmp_path, monkeypatch)
    path = a_file_at(tmp_path / "cache")
    result = invoke(config_path, "forecast", "AAPL")
    assert result.exit_code == 1, result.output
    [line] = result.stderr.splitlines()
    assert line.startswith(f"error: cannot use cache directory {path}: ")


def without_template(tmp_path: Path, template_id: str) -> tuple[Path, Path]:
    """A config whose prompt dir lacks ``<template_id>.en.txt``, and that
    prompt dir."""
    prompts = tmp_path / "prompts"
    shutil.copytree(REPO / "src" / "finorch" / "prompts", prompts)
    (prompts / f"{template_id}.en.txt").unlink()
    return write_config(tmp_path, minimal_text() + f"prompt_dir: {prompts}\n"), prompts


def unknown_symbol(tmp_path):
    return write_config(tmp_path), ["forecast", "ZZZZ"], (
        f"error (Assistant): no fixture for symbol 'ZZZZ' under {REPO / 'fixtures'}"
    )


def weekday_free_horizon(tmp_path):
    args = ["forecast", "AAPL", "--cutoff", "2024-04-19", "--horizon", "1"]
    return write_config(tmp_path), args, (
        "error (Assistant): horizon of 1 day(s) from 2024-04-19 spans no weekday"
    )


def empty_document(tmp_path):
    document = tmp_path / "empty.txt"
    document.write_text("", encoding="utf-8")
    return write_config(tmp_path), ["report", str(document)], (
        f"error (Assistant): document {document} is empty"
    )


def no_judge_template(tmp_path):
    """A judge backend is configured, so its missing template is an error,
    not a skipped grade."""
    config_path, prompts = without_template(tmp_path, "judge")
    return config_path, ["forecast", "AAPL"], (
        f"error (Director): no template 'judge' for language 'en' under {prompts}"
    )


@pytest.mark.parametrize(
    "setup",
    [unknown_symbol, weekday_free_horizon, empty_document, no_judge_template],
    ids=["unknown-symbol", "weekday-free-horizon", "empty-document",
         "no-judge-template"],
)
def test_an_offline_error_is_its_exact_line(tmp_path, setup):
    """The role and the message are all a failed command prints."""
    config_path, args, line = setup(tmp_path)
    result = invoke(config_path, *args, "--offline")
    assert result.exit_code == 1, result.output
    assert result.stdout == ""
    assert result.stderr.splitlines() == [line]


def test_a_missing_extraction_template_fails_the_report(tmp_path):
    """Every topic renders the one template, so its absence is the
    report's error, not a failure per topic."""
    config_path, prompts = without_template(tmp_path, "extract_indicator")
    document = REPO / "tests" / "fixtures" / "acme_filing.txt"
    result = invoke(config_path, "report", str(document), "--offline")
    assert result.exit_code == 1, result.output
    assert result.stdout == ""
    assert result.stderr.splitlines() == [
        "error (Assistant): no template 'extract_indicator' for language 'en' "
        f"under {prompts}"
    ]


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
