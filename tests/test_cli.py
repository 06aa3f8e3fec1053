"""CLI behavior: commands, exit codes, and offline determinism."""

from __future__ import annotations

import json
import os
import socket
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

from finorch.cli import cli
from finorch.gateway import Gateway

from test_config import REPO, write_config


@pytest.fixture()
def runner():
    return CliRunner()


@pytest.fixture()
def config_path(tmp_path) -> Path:
    return write_config(tmp_path)


def invoke(runner, config_path, *args):
    return runner.invoke(cli, [*args, "--config", str(config_path)])


class TestForecastCommand:
    def test_offline_forecast_succeeds(self, runner, config_path, tmp_path):
        result = invoke(runner, config_path, "forecast", "AAPL", "--offline")
        assert result.exit_code == 0, result.output
        assert "task: forecast-AAPL-20240419-h7-en" in result.output
        assert "prediction: up 0-1% (3 positives, 2 concerns)" in result.output
        run_dir = tmp_path / "runs" / "forecast-AAPL-20240419-h7-en"
        assert (run_dir / "forecast.json").exists()
        assert (run_dir / "trace.jsonl").exists()

    def test_offline_forecast_is_byte_deterministic(
        self, runner, config_path, tmp_path
    ):
        first = invoke(runner, config_path, "forecast", "AAPL", "--offline")
        assert first.exit_code == 0, first.output
        run_dir = tmp_path / "runs" / "forecast-AAPL-20240419-h7-en"
        forecast_1 = (run_dir / "forecast.json").read_bytes()
        trace_1 = (run_dir / "trace.jsonl").read_bytes()

        second = invoke(runner, config_path, "forecast", "AAPL", "--offline")
        assert second.exit_code == 0, second.output
        assert (run_dir / "forecast.json").read_bytes() == forecast_1
        assert (run_dir / "trace.jsonl").read_bytes() == trace_1
        assert second.output == first.output

    def test_offline_forecast_zh(self, runner, config_path, tmp_path):
        result = invoke(
            runner, config_path, "forecast", "AAPL", "--offline",
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

    def test_explicit_cutoff_and_horizon(self, runner, config_path, tmp_path):
        result = invoke(
            runner, config_path, "forecast", "NVDA", "--offline",
            "--cutoff", "2024-01-29", "--horizon", "7",
        )
        assert result.exit_code == 0, result.output
        assert "task: forecast-NVDA-20240129-h7-en" in result.output
        assert "prediction: up 2-3%" in result.output

    def test_unknown_symbol_exits_one(self, runner, config_path):
        result = invoke(runner, config_path, "forecast", "MSFT", "--offline")
        assert result.exit_code == 1
        assert "error (Assistant)" in result.stderr
        assert "MSFT" in result.stderr

    def test_invalid_horizon_is_usage_error(self, runner, config_path):
        result = invoke(
            runner, config_path, "forecast", "AAPL", "--offline",
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
        assert not (tmp_path / "state" / "task_scores.jsonl").exists()

    def test_rerun_grades_only_its_own_reflection(
        self, runner, config_path, tmp_path
    ):
        for _ in range(2):
            result = invoke(runner, config_path, "forecast", "AAPL", "--offline")
            assert result.exit_code == 0, result.output
        state = tmp_path / "state"
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

    def test_missing_symbol_is_usage_error(self, runner, config_path):
        result = invoke(runner, config_path, "forecast", "--offline")
        assert result.exit_code == 2

    def test_offline_runs_with_network_disabled(
        self, runner, config_path, monkeypatch
    ):
        def refuse(*args, **kwargs):
            raise AssertionError("offline command attempted a network call")

        monkeypatch.setattr(socket, "socket", refuse)
        monkeypatch.setattr(socket, "create_connection", refuse)
        result = invoke(runner, config_path, "forecast", "AAPL", "--offline")
        assert result.exit_code == 0, result.output


class TestReportCommand:
    DOC = REPO / "tests" / "fixtures" / "acme_filing.txt"

    def test_offline_report_succeeds(self, runner, config_path, tmp_path):
        result = invoke(
            runner, config_path, "report", str(self.DOC), "--offline"
        )
        assert result.exit_code == 0, result.output
        assert "subject: Acme Filing" in result.output
        assert "sections: 5" in result.output
        run_dir = tmp_path / "runs" / "report-acme-filing-acme_filing-en"
        for name in ("report.txt", "report.md", "analysis.json", "trace.jsonl"):
            assert (run_dir / name).exists()

    def test_offline_report_is_byte_deterministic(
        self, runner, config_path, tmp_path
    ):
        first = invoke(
            runner, config_path, "report", str(self.DOC), "--offline"
        )
        assert first.exit_code == 0, first.output
        run_dir = tmp_path / "runs" / "report-acme-filing-acme_filing-en"
        before = {
            name: (run_dir / name).read_bytes()
            for name in ("report.txt", "report.md", "analysis.json",
                         "trace.jsonl")
        }
        second = invoke(
            runner, config_path, "report", str(self.DOC), "--offline"
        )
        assert second.exit_code == 0, second.output
        for name, blob in before.items():
            assert (run_dir / name).read_bytes() == blob, name
        assert second.output == first.output

    def test_offline_report_starts_no_thread_pool(self, config_path):
        """Scripted backends answer inline, so an offline run never even
        imports the executor."""
        code = (
            "import sys; from finorch.cli import cli; "
            "cli(sys.argv[1:], standalone_mode=False); "
            "print('concurrent.futures' in sys.modules)"
        )
        env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
        done = subprocess.run(
            [sys.executable, "-c", code, "report", str(self.DOC), "--offline",
             "--config", str(config_path)],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines()[-1] == "False"

    def test_offline_zh_report_extracts_in_zh(
        self, runner, config_path, tmp_path, monkeypatch
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
                runner, config_path, "report", str(self.DOC), "--offline",
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

    def test_custom_subject(self, runner, config_path):
        result = invoke(
            runner, config_path, "report", str(self.DOC), "--offline",
            "--subject", "Acme Industrial Group",
        )
        assert result.exit_code == 0, result.output
        assert "subject: Acme Industrial Group" in result.output

    def test_missing_document_is_usage_error(self, runner, config_path):
        result = invoke(
            runner, config_path, "report", "no-such-file.txt", "--offline"
        )
        assert result.exit_code == 2


class TestEvaluateAndRoute:
    def test_evaluate_json(self, runner, config_path):
        result = invoke(
            runner, config_path, "evaluate", "--offline", "--json"
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

    def test_evaluate_single_kind_text(self, runner, config_path):
        result = invoke(
            runner, config_path, "evaluate", "--offline", "--kind", "forecast"
        )
        assert result.exit_code == 0, result.output
        assert "forecast:" in result.output
        assert "report:" not in result.output
        assert "forecaster-primary: composite=1.0000" in result.output

    def test_route_plain(self, runner, config_path):
        result = invoke(runner, config_path, "route", "forecast", "--offline")
        assert result.exit_code == 0, result.output
        assert result.output.strip() == "forecaster-primary"

    def test_route_json(self, runner, config_path):
        result = invoke(
            runner, config_path, "route", "report", "--offline", "--json"
        )
        assert result.exit_code == 0, result.output
        payload = json.loads(result.output)
        assert payload["chosen"] == "report-writer"
        assert payload["ranking"][0] == ["report-writer", 1.0]

    def test_route_unknown_kind_is_usage_error(self, runner, config_path):
        result = invoke(runner, config_path, "route", "poetry", "--offline")
        assert result.exit_code == 2

    def test_evaluate_missing_golden_exits_one(self, runner, tmp_path):
        from test_config import MINIMAL

        (tmp_path / "no-golden").mkdir()
        config_path = write_config(
            tmp_path,
            MINIMAL.format(
                golden_dir=tmp_path / "no-golden",
                fixture_dir=REPO / "fixtures",
            ),
        )
        result = invoke(runner, config_path, "evaluate", "--offline")
        assert result.exit_code == 1
        assert "no golden dataset" in result.stderr


class TestSelfcheck:
    def test_selfcheck_passes(self, runner, config_path):
        result = runner.invoke(
            cli, ["selfcheck", "--config", str(config_path)]
        )
        assert result.exit_code == 0, result.output
        assert "selfcheck passed" in result.output
        assert result.output.count("ok:") == 6

    def test_selfcheck_bad_config_fails(self, runner, tmp_path):
        result = runner.invoke(
            cli, ["selfcheck", "--config", str(tmp_path / "missing.yaml")]
        )
        assert result.exit_code == 1
        assert "FAIL" in result.output
