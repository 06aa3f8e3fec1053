"""Config parsing, validation, and engine assembly."""

from __future__ import annotations

import datetime as dt
from pathlib import Path

import pytest

from finorch.config import (
    EngineConfig,
    build_engine,
    load_config,
)
from finorch.errors import ConfigError
from finorch.gateway import BackendSpec, ChatMessage

REPO = Path(__file__).resolve().parent.parent

MINIMAL = """\
backends:
  - backend_id: primary
    base_url: https://api.example.com/v1
    model_name: alpha-model
    api_key_env: EXAMPLE_API_KEY
  - backend_id: secondary
    base_url: https://api.example.org/v1
    model_name: beta-model
    api_key_env: OTHER_API_KEY
  - backend_id: judge
    base_url: https://api.example.com/v1
    model_name: judge-model
    api_key_env: EXAMPLE_API_KEY

agents:
  - agent_id: forecaster-primary
    backend_id: primary
    task_kinds: [forecast]
  - agent_id: forecaster-secondary
    backend_id: secondary
    task_kinds: [forecast]
  - agent_id: report-writer
    backend_id: primary
    task_kinds: [report]
  - agent_id: report-skeptic
    backend_id: secondary
    task_kinds: [report]

weights:
  forecast:
    exact_match: 0.5
    token_f1: 0.5
  report:
    token_f1: 1.0

judge_backend_id: judge
default_language: en

provider:
  name: finnhub
  base_url: https://finnhub.io/api/v1
  token_env: FINNHUB_TOKEN

state_dir: state
runs_dir: runs
cache_dir: cache
golden_dir: {golden_dir}
fixture_dir: {fixture_dir}
"""


def write_config(tmp_path: Path, text: str | None = None) -> Path:
    path = tmp_path / "config.yaml"
    content = text if text is not None else MINIMAL.format(
        golden_dir=REPO / "fixtures" / "golden",
        fixture_dir=REPO / "fixtures",
    )
    path.write_text(content, encoding="utf-8")
    return path


class TestLoadConfig:
    def test_full_round_trip(self, tmp_path):
        config = load_config(write_config(tmp_path))
        assert isinstance(config, EngineConfig)
        assert config.backend_ids() == ["primary", "secondary", "judge"]
        assert config.backends[0] == BackendSpec(
            backend_id="primary",
            base_url="https://api.example.com/v1",
            model_name="alpha-model",
            api_key_env="EXAMPLE_API_KEY",
        )
        assert [a.agent_id for a in config.agents] == [
            "forecaster-primary",
            "forecaster-secondary",
            "report-writer",
            "report-skeptic",
        ]
        assert config.weights == {
            "forecast": {"exact_match": 0.5, "token_f1": 0.5},
            "report": {"token_f1": 1.0},
        }
        assert config.judge_backend_id == "judge"
        assert config.provider.token_env == "FINNHUB_TOKEN"

    def test_relative_dirs_resolve_against_config_parent(self, tmp_path):
        config = load_config(write_config(tmp_path))
        assert config.state_dir == tmp_path / "state"
        assert config.runs_dir == tmp_path / "runs"
        assert config.cache_dir == tmp_path / "cache"
        assert config.golden_dir == REPO / "fixtures" / "golden"

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config(tmp_path / "absent.yaml")

    def test_invalid_yaml(self, tmp_path):
        with pytest.raises(ConfigError, match="not valid YAML"):
            load_config(write_config(tmp_path, "backends: [unclosed"))

    def test_non_mapping_document(self, tmp_path):
        with pytest.raises(ConfigError, match="YAML mapping"):
            load_config(write_config(tmp_path, "- just\n- a list\n"))

    def test_unknown_top_level_key(self, tmp_path):
        base = MINIMAL.format(
            golden_dir=REPO / "fixtures" / "golden",
            fixture_dir=REPO / "fixtures",
        )
        with pytest.raises(ConfigError, match="unknown top-level"):
            load_config(write_config(tmp_path, base + "\nsurprise: 1\n"))

    @pytest.mark.parametrize(
        "mutation, message",
        [
            ("backends: []\n", "'backends' must be a non-empty list"),
            ("agents: []\n", "'agents' must be a non-empty list"),
        ],
    )
    def test_empty_required_lists(self, tmp_path, mutation, message):
        key = mutation.split(":")[0]
        base = MINIMAL.format(
            golden_dir=REPO / "fixtures" / "golden",
            fixture_dir=REPO / "fixtures",
        )
        lines = []
        skipping = False
        for line in base.splitlines(keepends=True):
            if line.startswith(f"{key}:"):
                skipping = True
                continue
            if skipping and line.startswith((" ", "-", "\n")):
                continue
            skipping = False
            lines.append(line)
        with pytest.raises(ConfigError, match=message):
            load_config(write_config(tmp_path, mutation + "".join(lines)))

    def test_agent_references_unknown_backend(self, tmp_path):
        base = MINIMAL.format(
            golden_dir=REPO / "fixtures" / "golden",
            fixture_dir=REPO / "fixtures",
        ).replace("backend_id: secondary\n    task_kinds: [forecast]",
                  "backend_id: ghost\n    task_kinds: [forecast]")
        with pytest.raises(ConfigError, match="unknown backend 'ghost'"):
            load_config(write_config(tmp_path, base))

    def test_unknown_task_kind(self, tmp_path):
        base = MINIMAL.format(
            golden_dir=REPO / "fixtures" / "golden",
            fixture_dir=REPO / "fixtures",
        ).replace("task_kinds: [report]", "task_kinds: [poetry]", 1)
        with pytest.raises(ConfigError, match="'poetry'"):
            load_config(write_config(tmp_path, base))

    def test_duplicate_backend_ids(self, tmp_path):
        base = MINIMAL.format(
            golden_dir=REPO / "fixtures" / "golden",
            fixture_dir=REPO / "fixtures",
        ).replace("backend_id: secondary", "backend_id: primary", 1)
        with pytest.raises(ConfigError, match="duplicate backend ids"):
            load_config(write_config(tmp_path, base))

    def test_unknown_judge_backend(self, tmp_path):
        base = MINIMAL.format(
            golden_dir=REPO / "fixtures" / "golden",
            fixture_dir=REPO / "fixtures",
        ).replace("judge_backend_id: judge", "judge_backend_id: nobody")
        with pytest.raises(ConfigError, match="judge_backend_id 'nobody'"):
            load_config(write_config(tmp_path, base))

    def test_unsupported_language(self, tmp_path):
        base = MINIMAL.format(
            golden_dir=REPO / "fixtures" / "golden",
            fixture_dir=REPO / "fixtures",
        ).replace("default_language: en", "default_language: fr")
        with pytest.raises(ConfigError, match="default_language 'fr'"):
            load_config(write_config(tmp_path, base))

    def test_inline_credential_rejected(self, tmp_path):
        base = MINIMAL.format(
            golden_dir=REPO / "fixtures" / "golden",
            fixture_dir=REPO / "fixtures",
        ).replace(
            "api_key_env: OTHER_API_KEY", "api_key: sk-verysecret"
        )
        with pytest.raises(ConfigError, match="environment"):
            load_config(write_config(tmp_path, base))

    def test_inline_provider_token_rejected(self, tmp_path):
        base = MINIMAL.format(
            golden_dir=REPO / "fixtures" / "golden",
            fixture_dir=REPO / "fixtures",
        ).replace("token_env: FINNHUB_TOKEN", "token: hub-secret")
        with pytest.raises(ConfigError, match="environment"):
            load_config(write_config(tmp_path, base))

    @pytest.mark.parametrize(
        "setting, message",
        [
            ("timeout: 0", "timeout must be positive"),
            ("temperature: 3", "temperature must lie in"),
            ('max_tokens: "abc"', "max_tokens"),
        ],
    )
    def test_invalid_backend_values(self, tmp_path, setting, message):
        base = MINIMAL.format(
            golden_dir=REPO / "fixtures" / "golden",
            fixture_dir=REPO / "fixtures",
        ).replace(
            "api_key_env: OTHER_API_KEY",
            f"api_key_env: OTHER_API_KEY\n    {setting}",
        )
        with pytest.raises(ConfigError, match=rf"backends\[1\].*{message}"):
            load_config(write_config(tmp_path, base))

    def test_repo_config_is_valid(self):
        config = load_config(REPO / "config.yaml")
        assert config.backend_ids() == ["primary", "secondary", "judge"]
        assert config.fixture_dir == REPO / "fixtures"
        assert (config.golden_dir / "forecast.jsonl").exists()
        assert (config.golden_dir / "report.jsonl").exists()


class TestBuildEngineOffline:
    def test_offline_engine_components(self, tmp_path):
        engine = build_engine(load_config(write_config(tmp_path)), offline=True)
        assert engine.offline is True
        assert engine.gateway.list_backends() == [
            "primary",
            "secondary",
            "judge",
        ]
        assert {a.agent_id for a in engine.scheduler.agents_for("forecast")} == {
            "forecaster-primary",
            "forecaster-secondary",
        }
        profile = engine.market_data.get_company_profile("AAPL")
        assert profile.name == "Apple Inc"

    def test_offline_guard_blocks_unscripted_backends(self, tmp_path):
        engine = build_engine(load_config(write_config(tmp_path)), offline=True)
        # Simulate a wiring bug: a freshly registered backend with no
        # script must hit the guard, not the network.
        engine.gateway.register_backend(
            BackendSpec(
                backend_id="rogue",
                base_url="https://live.example.com/v1",
                model_name="rogue-model",
            )
        )
        with pytest.raises(ConfigError, match="offline mode"):
            engine.gateway.chat(
                "rogue", [ChatMessage(role="user", content="hello")]
            )

    def test_offline_clock_is_fixed(self, tmp_path):
        engine_a = build_engine(
            load_config(write_config(tmp_path)), offline=True
        )
        engine_b = build_engine(
            load_config(write_config(tmp_path)), offline=True
        )
        assert engine_a.clock.now() == engine_b.clock.now()

    def test_evaluate_all_ranks_scripted_agents(self, tmp_path):
        engine = build_engine(load_config(write_config(tmp_path)), offline=True)
        scores = engine.evaluate_all("forecast")
        assert scores["forecaster-primary"].composite == 1.0
        assert scores["forecaster-secondary"].composite == 0.0
        assert engine.scheduler.route("forecast") == "forecaster-primary"

    def test_route_helper_evaluates_then_routes(self, tmp_path):
        engine = build_engine(load_config(write_config(tmp_path)), offline=True)
        assert engine.route("report") == "report-writer"

    def test_golden_dataset_missing_kind(self, tmp_path):
        base = MINIMAL.format(
            golden_dir=tmp_path / "empty-golden",
            fixture_dir=REPO / "fixtures",
        )
        (tmp_path / "empty-golden").mkdir()
        engine = build_engine(
            load_config(write_config(tmp_path, base)), offline=True
        )
        with pytest.raises(ConfigError, match="no golden dataset"):
            engine.golden_dataset("forecast")

    def test_forecast_pipeline_offline(self, tmp_path):
        engine = build_engine(load_config(write_config(tmp_path)), offline=True)
        run = engine.forecast("AAPL", dt.date(2024, 4, 19), 7)
        assert run.result.direction == "up"
        assert run.result.band_text() == "0-1%"
        assert run.forecast_path is not None
        assert run.forecast_path.exists()
        assert run.forecast_path.parent.parent == tmp_path / "runs"

    def test_report_pipeline_offline(self, tmp_path):
        engine = build_engine(load_config(write_config(tmp_path)), offline=True)
        result = engine.report(REPO / "tests" / "fixtures" / "acme_filing.txt")
        assert result.subject == "Acme Filing"
        assert len(result.sections) == 5
        assert {i.name for i in result.analysis.indicators} == {
            "revenue",
            "net income",
        }


class TestBuildEngineLive:
    def test_live_engine_uses_configured_specs(self, tmp_path):
        engine = build_engine(
            load_config(write_config(tmp_path)), offline=False, env={}
        )
        assert engine.offline is False
        spec = engine.gateway.get_backend("primary")
        assert spec.base_url == "https://api.example.com/v1"
        assert spec.api_key_env == "EXAMPLE_API_KEY"

    def test_live_chat_without_key_is_config_error(self, tmp_path, monkeypatch):
        monkeypatch.delenv("EXAMPLE_API_KEY", raising=False)
        engine = build_engine(
            load_config(write_config(tmp_path)), offline=False, env={}
        )
        with pytest.raises(ConfigError):
            engine.gateway.chat(
                "primary", [ChatMessage(role="user", content="hi")]
            )
