"""YAML engine configuration and the assembled Engine facade.

A config file declares backends, agents, routing weights, a market-data
provider, and the directories the engine writes to. Credentials never live
in the file: each backend names the environment variable that holds its key
(``api_key_env``) and the provider names its token variable (``token_env``).

``build_engine`` wires the whole stack two ways:

* live — HTTP transport, real provider, disk response cache, wall clock;
* offline — scripted mock backends, fixture provider, fixed clock, and a
  guard transport so nothing can reach the network by accident.
"""

from __future__ import annotations

import datetime as dt
import os
import random
from collections.abc import Mapping
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import yaml

from finorch import offline as offline_scripts
from finorch.apps.forecaster import ForecastRun, horizon_window, run_forecaster
from finorch.apps.reports import (
    DocumentAnalysis,
    ReportResult,
    analyze_document,
    generate_report,
)
from finorch.clock import Clock, FixedClock, SystemClock
from finorch.dataops.cache import ResponseCache
from finorch.dataops.providers import (
    FixtureProvider,
    LiveProvider,
    MarketData,
)
from finorch.errors import ConfigError, EngineError
from finorch.gateway import BackendSpec, Gateway
from finorch.prompts import PromptStore
from finorch.scheduler import (
    AgentProfile,
    GoldenRecord,
    Scheduler,
    TaskScore,
    load_golden_dataset,
)
from finorch.workflow import ROLE_ASSISTANT, TASK_KINDS

__all__ = [
    "AgentSettings",
    "Engine",
    "EngineConfig",
    "ProviderSettings",
    "build_engine",
    "load_config",
]

_TOP_LEVEL_KEYS = {
    "backends",
    "agents",
    "weights",
    "provider",
    "judge_backend_id",
    "default_language",
    "state_dir",
    "runs_dir",
    "cache_dir",
    "golden_dir",
    "fixture_dir",
    "prompt_dir",
}

_SECRET_KEYS = ("api_key", "token", "secret", "password")

# Optional numeric backend keys; absent ones take the BackendSpec default.
_BACKEND_NUMBERS = {
    "max_tokens": int,
    "temperature": float,
    "timeout": float,
    "max_retries": int,
}


@dataclass(frozen=True)
class AgentSettings:
    agent_id: str
    backend_id: str
    task_kinds: tuple[str, ...]


@dataclass(frozen=True)
class ProviderSettings:
    name: str
    base_url: str
    token_env: str


@dataclass(frozen=True)
class EngineConfig:
    backends: tuple[BackendSpec, ...]
    agents: tuple[AgentSettings, ...]
    weights: Mapping[str, Mapping[str, float]]
    provider: ProviderSettings
    state_dir: Path
    runs_dir: Path
    cache_dir: Path
    golden_dir: Path
    fixture_dir: Path
    prompt_dir: Path | None = None
    judge_backend_id: str | None = None
    default_language: str = "en"

    def backend_ids(self) -> list[str]:
        return [b.backend_id for b in self.backends]


def _require(
    row: Mapping[str, Any], key: str, where: str, kind: type = str
) -> Any:
    if key not in row:
        raise ConfigError(f"{where} is missing required key {key!r}")
    value = row[key]
    if kind is float and isinstance(value, int):
        value = float(value)
    if not isinstance(value, kind) or (kind is str and not value):
        raise ConfigError(
            f"{where} key {key!r} must be a non-empty {kind.__name__}"
        )
    return value


def _reject_secrets(row: Mapping[str, Any], where: str) -> None:
    for key in row:
        lowered = str(key).lower()
        if lowered in _SECRET_KEYS:
            raise ConfigError(
                f"{where} sets {key!r}: credentials belong in environment "
                "variables, never in config files (use *_env keys)"
            )


def _parse_backend(row: Any, index: int) -> BackendSpec:
    where = f"backends[{index}]"
    if not isinstance(row, Mapping):
        raise ConfigError(f"{where} must be a mapping")
    _reject_secrets(row, where)
    unknown = set(row) - {
        "backend_id",
        "base_url",
        "model_name",
        "api_key_env",
        *_BACKEND_NUMBERS,
    }
    if unknown:
        raise ConfigError(f"{where} has unknown keys {sorted(unknown)}")
    numbers = {}
    for key, kind in _BACKEND_NUMBERS.items():
        if key in row:
            try:
                numbers[key] = kind(row[key])
            except (TypeError, ValueError):
                raise ConfigError(
                    f"{where} key {key!r} must be a number, got {row[key]!r}"
                ) from None
    try:
        return BackendSpec(
            backend_id=_require(row, "backend_id", where),
            base_url=_require(row, "base_url", where),
            model_name=_require(row, "model_name", where),
            api_key_env=str(row.get("api_key_env", "")),
            **numbers,
        )
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from None


def _parse_agent(row: Any, index: int, backend_ids: set[str]) -> AgentSettings:
    where = f"agents[{index}]"
    if not isinstance(row, Mapping):
        raise ConfigError(f"{where} must be a mapping")
    unknown = set(row) - {"agent_id", "backend_id", "task_kinds"}
    if unknown:
        raise ConfigError(f"{where} has unknown keys {sorted(unknown)}")
    agent_id = _require(row, "agent_id", where)
    backend_id = _require(row, "backend_id", where)
    if backend_id not in backend_ids:
        raise ConfigError(
            f"{where} references unknown backend {backend_id!r}"
        )
    kinds = row.get("task_kinds")
    if not isinstance(kinds, list) or not kinds:
        raise ConfigError(f"{where} key 'task_kinds' must be a non-empty list")
    for kind in kinds:
        if kind not in TASK_KINDS:
            raise ConfigError(
                f"{where} task kind {kind!r} is not one of {TASK_KINDS}"
            )
    return AgentSettings(
        agent_id=agent_id,
        backend_id=backend_id,
        task_kinds=tuple(kinds),
    )


def _parse_weights(raw: Any) -> dict[str, dict[str, float]]:
    if raw is None:
        return {}
    if not isinstance(raw, Mapping):
        raise ConfigError("'weights' must map task kinds to weight tables")
    weights: dict[str, dict[str, float]] = {}
    for kind, table in raw.items():
        if kind not in TASK_KINDS:
            raise ConfigError(
                f"weights task kind {kind!r} is not one of {TASK_KINDS}"
            )
        if not isinstance(table, Mapping) or not table:
            raise ConfigError(
                f"weights[{kind!r}] must be a non-empty mapping"
            )
        weights[kind] = {
            str(dim): float(value) for dim, value in table.items()
        }
    return weights


def _parse_provider(raw: Any) -> ProviderSettings:
    if not isinstance(raw, Mapping):
        raise ConfigError("'provider' must be a mapping")
    _reject_secrets(raw, "provider")
    unknown = set(raw) - {"name", "base_url", "token_env"}
    if unknown:
        raise ConfigError(f"provider has unknown keys {sorted(unknown)}")
    return ProviderSettings(
        name=_require(raw, "name", "provider"),
        base_url=_require(raw, "base_url", "provider"),
        token_env=_require(raw, "token_env", "provider"),
    )


def load_config(path: Path | str) -> EngineConfig:
    """Parse and validate one YAML config file.

    Relative directories are resolved against the config file's parent, so
    a checked-in config works from any working directory.
    """
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        raw = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ConfigError(f"config {path} is not valid YAML: {exc}") from exc
    if not isinstance(raw, Mapping):
        raise ConfigError(f"config {path} must be a YAML mapping")

    unknown = set(raw) - _TOP_LEVEL_KEYS
    if unknown:
        raise ConfigError(f"config has unknown top-level keys {sorted(unknown)}")

    backend_rows = raw.get("backends")
    if not isinstance(backend_rows, list) or not backend_rows:
        raise ConfigError("'backends' must be a non-empty list")
    backends = tuple(
        _parse_backend(row, i) for i, row in enumerate(backend_rows)
    )
    ids = [b.backend_id for b in backends]
    if len(set(ids)) != len(ids):
        raise ConfigError(f"duplicate backend ids in config: {ids}")

    agent_rows = raw.get("agents")
    if not isinstance(agent_rows, list) or not agent_rows:
        raise ConfigError("'agents' must be a non-empty list")
    agents = tuple(
        _parse_agent(row, i, set(ids)) for i, row in enumerate(agent_rows)
    )
    agent_ids = [a.agent_id for a in agents]
    if len(set(agent_ids)) != len(agent_ids):
        raise ConfigError(f"duplicate agent ids in config: {agent_ids}")

    judge = raw.get("judge_backend_id")
    if judge is not None and judge not in ids:
        raise ConfigError(
            f"judge_backend_id {judge!r} is not a configured backend"
        )

    language = raw.get("default_language", "en")
    if language not in ("en", "zh"):
        raise ConfigError(
            f"default_language {language!r} must be 'en' or 'zh'"
        )

    base = path.resolve().parent

    def _dir(key: str, default: str) -> Path:
        value = raw.get(key, default)
        if not isinstance(value, str) or not value:
            raise ConfigError(f"{key!r} must be a non-empty path string")
        candidate = Path(value)
        return candidate if candidate.is_absolute() else base / candidate

    prompt_dir_raw = raw.get("prompt_dir")
    prompt_dir = None
    if prompt_dir_raw is not None:
        if not isinstance(prompt_dir_raw, str) or not prompt_dir_raw:
            raise ConfigError("'prompt_dir' must be a non-empty path string")
        candidate = Path(prompt_dir_raw)
        prompt_dir = candidate if candidate.is_absolute() else base / candidate

    return EngineConfig(
        backends=backends,
        agents=agents,
        weights=_parse_weights(raw.get("weights")),
        provider=_parse_provider(raw.get("provider")),
        state_dir=_dir("state_dir", "state"),
        runs_dir=_dir("runs_dir", "runs"),
        cache_dir=_dir("cache_dir", "cache"),
        golden_dir=_dir("golden_dir", "fixtures/golden"),
        fixture_dir=_dir("fixture_dir", "fixtures"),
        prompt_dir=prompt_dir,
        judge_backend_id=judge,
        default_language=language,
    )


class _OfflineGuard:
    """Default transport in offline mode: any use is a wiring bug."""

    def send(self, spec: BackendSpec, payload: dict[str, Any]) -> dict[str, Any]:
        raise ConfigError(
            f"offline mode: backend {spec.backend_id!r} has no script and "
            "may not touch the network"
        )


@dataclass
class Engine:
    """One assembled stack: gateway, scheduler, data, prompts, and dirs."""

    config: EngineConfig
    gateway: Gateway
    scheduler: Scheduler
    prompt_store: PromptStore
    market_data: MarketData
    clock: Clock
    offline: bool = False
    language: str = "en"
    _golden: dict[str, list[GoldenRecord]] = field(default_factory=dict)

    def golden_path(self, task_kind: str) -> Path:
        return self.config.golden_dir / f"{task_kind}.jsonl"

    def golden_dataset(self, task_kind: str) -> list[GoldenRecord]:
        if task_kind not in self._golden:
            path = self.golden_path(task_kind)
            if not path.exists():
                raise ConfigError(
                    f"no golden dataset for task kind {task_kind!r} "
                    f"(expected {path})"
                )
            self._golden[task_kind] = load_golden_dataset(path)
        return self._golden[task_kind]

    def evaluate_all(self, task_kind: str) -> dict[str, TaskScore]:
        """Score every agent registered for one task kind."""
        dataset = self.golden_dataset(task_kind)
        scores: dict[str, TaskScore] = {}
        for profile in self.scheduler.agents_for(task_kind):
            scores[profile.agent_id] = self.scheduler.evaluate_agent(
                profile.agent_id, dataset
            )
        return scores

    def ensure_scores(self, task_kind: str) -> None:
        """Make sure routing has scores to rank.

        Offline runs re-evaluate every time so repeated invocations make
        the exact same sequence of scripted calls (byte-stable artifacts);
        live runs reuse persisted scores and only evaluate a cold start.
        """
        if self.offline or not self.scheduler.latest_scores(task_kind):
            self.evaluate_all(task_kind)

    def route(self, task_kind: str) -> str:
        self.ensure_scores(task_kind)
        return self.scheduler.route(task_kind)

    def forecast(
        self,
        symbol: str,
        cutoff: dt.date,
        horizon: int,
        language: str | None = None,
    ) -> ForecastRun:
        # A window with no weekday is refused before any scoring or fetch.
        try:
            horizon_window(cutoff, horizon)
        except EngineError as exc:
            raise exc.with_role(ROLE_ASSISTANT)
        self.ensure_scores("forecast")
        return run_forecaster(
            symbol,
            cutoff,
            horizon,
            scheduler=self.scheduler,
            gateway=self.gateway,
            prompt_store=self.prompt_store,
            market_data=self.market_data,
            language=language or self.language,
            runs_dir=self.config.runs_dir,
            clock=self.clock,
        )

    def analyze(self, doc_path: Path | str, language: str) -> DocumentAnalysis:
        agent = self.route("report")
        backend_id = self.scheduler.get_agent(agent).backend_id
        return analyze_document(
            Path(doc_path),
            gateway=self.gateway,
            backend_id=backend_id,
            prompt_store=self.prompt_store,
            language=language,
        )

    def report(
        self,
        doc_path: Path | str,
        subject: str | None = None,
        language: str | None = None,
    ) -> ReportResult:
        doc_path = Path(doc_path)
        if subject is None:
            subject = doc_path.stem.replace("_", " ").replace("-", " ").title()
        language = language or self.language
        analysis = self.analyze(doc_path, language)
        return generate_report(
            analysis,
            subject,
            scheduler=self.scheduler,
            gateway=self.gateway,
            prompt_store=self.prompt_store,
            language=language,
            runs_dir=self.config.runs_dir,
            clock=self.clock,
        )


def build_engine(
    config: EngineConfig,
    offline: bool = False,
    env: Mapping[str, str] | None = None,
) -> Engine:
    """Assemble a live or offline engine from one validated config."""
    if env is None:
        env = os.environ
    clock: Clock = FixedClock() if offline else SystemClock()

    if offline:
        gateway = Gateway(
            transport=_OfflineGuard(),
            clock=clock,
            sleeper=lambda seconds: None,
            rng=random.Random(0),
        )
        for spec in config.backends:
            gateway.script_mock(
                spec.backend_id, offline_scripts.script_for(spec.backend_id)
            )
        market_data = MarketData(FixtureProvider(config.fixture_dir))
    else:
        gateway = Gateway(clock=clock)
        for spec in config.backends:
            gateway.register_backend(spec)
        provider = LiveProvider(
            base_url=config.provider.base_url,
            token_env=config.provider.token_env,
            provider_id=config.provider.name,
            env=env,
        )
        market_data = MarketData(provider, ResponseCache(config.cache_dir))

    prompt_store = PromptStore(config.prompt_dir)
    scheduler = Scheduler(
        gateway,
        prompt_store,
        config.state_dir,
        weights=config.weights,
        judge_backend_id=config.judge_backend_id,
        language=config.default_language,
        clock=clock,
    )
    for agent in config.agents:
        scheduler.register_agent(
            AgentProfile(
                agent_id=agent.agent_id,
                backend_id=agent.backend_id,
                task_kinds=frozenset(agent.task_kinds),
            )
        )
    return Engine(
        config=config,
        gateway=gateway,
        scheduler=scheduler,
        prompt_store=prompt_store,
        market_data=market_data,
        clock=clock,
        offline=offline,
        language=config.default_language,
    )
