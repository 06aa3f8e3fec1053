"""YAML engine configuration and the assembled Engine facade.

A config file declares backends, agents, routing weights, a market-data
provider, and the directories the engine writes to. Credentials never live
in the file: each backend names the environment variable that holds its key
(``api_key_env``) and the provider names its token variable (``token_env``).

The file is parsed with LibYAML (``yaml.CSafeLoader``) when PyYAML was
built with it, and with the pure-Python ``yaml.SafeLoader`` otherwise. Both
refuse a key repeated in one mapping, and a bad number is a ``ConfigError``
naming its key.

``build_engine`` wires the whole stack two ways:

* live — HTTP transport, real provider, disk response cache, wall clock;
* offline — scripted mock backends, fixture provider, scores under
  ``state_dir/offline``, a fixed clock for scoring and another for task
  runs (so a run's stamps do not depend on whether it evaluated first),
  and a guard transport so nothing can reach the network by accident.

Offline and live alike, a command evaluates only when no score exists.

A command loads only the layers it runs. Every command loads the config,
the gateway, the scheduler and the prompt store; a live one also builds
the HTTP client with the engine. Beyond that:

* ``evaluate`` and ``route`` (``evaluate_all``, ``ensure_scores``,
  ``route``) load no app, no workflow runner and nothing of
  ``finorch.dataops``;
* ``forecast`` loads ``finorch.apps.forecaster`` with the workflow runner,
  and builds ``Engine.market_data`` on first use: the fixture provider
  offline, the live provider behind the response cache (``hashlib``
  included) live;
* ``report`` loads ``finorch.apps.reports`` with the workflow runner,
  retrieval and tool calls, and no market data.

``logging`` is loaded only when a live request is retried.
"""

from __future__ import annotations

import datetime as dt
import functools
import math
import os
import random
from collections.abc import Mapping
from pathlib import Path
from typing import TYPE_CHECKING, Any

import yaml

from finorch import offline as offline_scripts
from finorch.clock import Clock, FixedClock, SystemClock
from finorch.errors import ConfigError, EngineError
from finorch.gateway import BackendSpec, Gateway
from finorch.prompts import LANGUAGES, PromptStore
from finorch.record import Record
from finorch.scheduler import (
    TASK_KINDS,
    AgentProfile,
    GoldenRecord,
    Scheduler,
    TaskScore,
    load_golden_dataset,
)

if TYPE_CHECKING:
    from finorch.apps.forecaster import ForecastRun
    from finorch.apps.reports import DocumentAnalysis, ReportResult
    from finorch.dataops.providers import MarketData

__all__ = [
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


class ProviderSettings(Record):
    name: str
    base_url: str
    token_env: str
    __slots__ = ("name", "base_url", "token_env")

    def __init__(self, name: str, base_url: str, token_env: str) -> None:
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "base_url", base_url)
        object.__setattr__(self, "token_env", token_env)


class EngineConfig(Record):
    backends: tuple[BackendSpec, ...]
    agents: tuple[AgentProfile, ...]
    weights: Mapping[str, Mapping[str, float]]
    provider: ProviderSettings
    state_dir: Path
    runs_dir: Path
    cache_dir: Path
    golden_dir: Path
    fixture_dir: Path
    prompt_dir: Path | None
    judge_backend_id: str | None
    default_language: str
    __slots__ = (
        "backends", "agents", "weights", "provider", "state_dir", "runs_dir",
        "cache_dir", "golden_dir", "fixture_dir", "prompt_dir",
        "judge_backend_id", "default_language",
    )

    def __init__(
        self, backends: tuple[BackendSpec, ...],
        agents: tuple[AgentProfile, ...],
        weights: Mapping[str, Mapping[str, float]], provider: ProviderSettings,
        state_dir: Path, runs_dir: Path, cache_dir: Path, golden_dir: Path,
        fixture_dir: Path, prompt_dir: Path | None = None,
        judge_backend_id: str | None = None, default_language: str = "en"
    ) -> None:
        object.__setattr__(self, "backends", backends)
        object.__setattr__(self, "agents", agents)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "provider", provider)
        object.__setattr__(self, "state_dir", state_dir)
        object.__setattr__(self, "runs_dir", runs_dir)
        object.__setattr__(self, "cache_dir", cache_dir)
        object.__setattr__(self, "golden_dir", golden_dir)
        object.__setattr__(self, "fixture_dir", fixture_dir)
        object.__setattr__(self, "prompt_dir", prompt_dir)
        object.__setattr__(self, "judge_backend_id", judge_backend_id)
        object.__setattr__(self, "default_language", default_language)

    def backend_ids(self) -> list[str]:
        return [b.backend_id for b in self.backends]


def _require(row: Mapping[str, Any], key: str, where: str) -> str:
    if key not in row:
        raise ConfigError(f"{where} is missing required key {key!r}")
    value = row[key]
    if not isinstance(value, str) or not value:
        raise ConfigError(f"{where} key {key!r} must be a non-empty str")
    return value


def _number(value: Any, where: str, key: str, kind: type) -> Any:
    """``value`` as ``kind`` (``int`` or ``float``). Only a finite real
    number passes, never a boolean or a string, and an ``int`` key also
    needs a whole number."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            number = float(value)
        except OverflowError:  # an integer beyond the float range
            number = math.inf
        if math.isfinite(number) and (kind is float or number.is_integer()):
            return kind(value)
    what = "a whole number" if kind is int else "a finite number"
    raise ConfigError(f"{where} key {key!r} must be {what}, got {value!r}")


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
    api_key_env = row.get("api_key_env", "")
    if not isinstance(api_key_env, str):
        raise ConfigError(
            f"{where} key 'api_key_env' must be a str, got {api_key_env!r}"
        )
    numbers = {
        key: _number(row[key], where, key, kind)
        for key, kind in _BACKEND_NUMBERS.items()
        if key in row
    }
    try:
        return BackendSpec(
            backend_id=_require(row, "backend_id", where),
            base_url=_require(row, "base_url", where),
            model_name=_require(row, "model_name", where),
            api_key_env=api_key_env,
            **numbers,
        )
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from None


def _parse_agent(row: Any, index: int, backend_ids: set[str]) -> AgentProfile:
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
    # registered_at stays empty: register_agent stamps it from the clock.
    return AgentProfile(
        agent_id=agent_id, backend_id=backend_id, task_kinds=frozenset(kinds)
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
            str(dim): _number(value, f"weights[{kind!r}]", str(dim), float)
            for dim, value in table.items()
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


class _UniqueKeys:
    """Mixin for a YAML loader: a key repeated in one mapping is an error,
    where PyYAML would let the last one win silently."""

    def construct_mapping(self, node: Any, deep: bool = False) -> Any:
        seen = set()
        for key_node, _ in node.value:
            if (
                not isinstance(key_node, yaml.ScalarNode)
                or key_node.tag == "tag:yaml.org,2002:merge"
            ):
                continue
            key = self.construct_object(key_node, deep=deep)
            if key in seen:
                raise yaml.constructor.ConstructorError(
                    "while constructing a mapping",
                    node.start_mark,
                    f"found duplicate key {key!r}",
                    key_node.start_mark,
                )
            seen.add(key)
        return super().construct_mapping(node, deep=deep)


@functools.cache
def _with_unique_keys(base: type) -> type:
    return type("ConfigLoader", (_UniqueKeys, base), {})


def _yaml_loader() -> type:
    """LibYAML's parser (``yaml.CSafeLoader``) when PyYAML was built with
    it, else the pure-Python ``yaml.SafeLoader``. Both build the document
    with the same Python ``SafeConstructor``, so both give equal values."""
    return _with_unique_keys(getattr(yaml, "CSafeLoader", yaml.SafeLoader))


def load_config(path: Path | str) -> EngineConfig:
    """Parse and validate one YAML config file.

    Relative directories are resolved against the config file's parent, so
    a checked-in config works from any working directory.
    """
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        raw = yaml.load(text, Loader=_yaml_loader())
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
    if language not in LANGUAGES:
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


# The apps are imported on a command's first call into them, so evaluate and
# route load no app code and forecast loads no report code. The Engine calls
# these names through this module, where a caller can wrap them.


def run_forecaster(*args: Any, **kwargs: Any) -> ForecastRun:
    from finorch.apps.forecaster import run_forecaster

    return run_forecaster(*args, **kwargs)


def index_document(*args: Any, **kwargs: Any) -> DocumentAnalysis:
    from finorch.apps.reports import index_document

    return index_document(*args, **kwargs)


def analyze_document(*args: Any, **kwargs: Any) -> DocumentAnalysis:
    from finorch.apps.reports import analyze_document

    return analyze_document(*args, **kwargs)


def generate_report(*args: Any, **kwargs: Any) -> ReportResult:
    from finorch.apps.reports import generate_report

    return generate_report(*args, **kwargs)


class _OfflineGuard:
    """Default transport in offline mode: any use is a wiring bug."""

    def send(self, spec: BackendSpec, payload: dict[str, Any]) -> dict[str, Any]:
        raise ConfigError(
            f"offline mode: backend {spec.backend_id!r} has no script and "
            "may not touch the network"
        )


class Engine:
    """One assembled stack: gateway, scheduler, data, prompts, and dirs.

    ``clock`` stamps task runs (traces, perception, artifacts) and ``env``
    is where the live provider reads its token."""

    def __init__(
        self, config: EngineConfig, gateway: Gateway, scheduler: Scheduler,
        prompt_store: PromptStore, clock: Clock, env: Mapping[str, str],
        offline: bool = False, language: str = "en"
    ) -> None:
        self.config = config
        self.gateway = gateway
        self.scheduler = scheduler
        self.prompt_store = prompt_store
        self.clock = clock
        self.env = env
        self.offline = offline
        self.language = language
        self._golden: dict[str, list[GoldenRecord]] = {}

    @functools.cached_property
    def market_data(self) -> MarketData:
        """Built on first use: only forecasts (and selfcheck) read market
        data. Offline it reads the fixtures; live it fronts the provider
        with the disk response cache."""
        from finorch.dataops.providers import (
            FixtureProvider,
            LiveProvider,
            MarketData,
        )

        if self.offline:
            return MarketData(FixtureProvider(self.config.fixture_dir))
        from finorch.dataops.cache import ResponseCache

        provider = LiveProvider(
            base_url=self.config.provider.base_url,
            token_env=self.config.provider.token_env,
            provider_id=self.config.provider.name,
            env=self.env,
        )
        return MarketData(provider, ResponseCache(self.config.cache_dir))

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

    def evaluate_all(
        self, *task_kinds: str
    ) -> dict[tuple[str, str], TaskScore]:
        """Score every agent registered for each task kind, with all their
        probes in one batch; scores keyed by (task kind, agent id)."""
        jobs = [
            (profile.agent_id, self.golden_dataset(task_kind))
            for task_kind in task_kinds
            for profile in self.scheduler.agents_for(task_kind)
        ]
        return {
            (score.task_kind, score.agent_id): score
            for score in self.scheduler.evaluate_agents(jobs)
        }

    def ensure_scores(self, task_kind: str) -> None:
        """Evaluate the task kind only when none of its agents has a score."""
        if not self.scheduler.latest_scores(task_kind):
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
        from finorch.apps.forecaster import horizon_window
        from finorch.workflow import ROLE_ASSISTANT

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

    def report(
        self,
        doc_path: Path | str,
        subject: str | None = None,
        language: str | None = None,
    ) -> ReportResult:
        from finorch.workflow import ROLE_ASSISTANT

        doc_path = Path(doc_path)
        if subject is None:
            subject = doc_path.stem.replace("_", " ").replace("-", " ").title()
        # An unusable document is refused before any scoring.
        try:
            document = index_document(doc_path)
        except EngineError as exc:
            raise exc.with_role(ROLE_ASSISTANT)
        self.ensure_scores("report")
        return generate_report(
            document,
            subject,
            scheduler=self.scheduler,
            gateway=self.gateway,
            prompt_store=self.prompt_store,
            language=language or self.language,
            runs_dir=self.config.runs_dir,
            clock=self.clock,
            analyze=analyze_document,
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
    run_clock: Clock = FixedClock() if offline else clock

    if offline:
        gateway = Gateway(
            transport=_OfflineGuard(),
            clock=clock,
            sleeper=lambda seconds: None,
            rng=random.Random(0),
        )
        for spec in config.backends:
            gateway.script_mock(
                spec.backend_id,
                offline_scripts.script_for(
                    spec.backend_id, config.judge_backend_id
                ),
            )
    else:
        # The HTTP client is built here, not on the first chat (see
        # ``HttpClient.__init__``).
        gateway = Gateway(clock=clock)
        for spec in config.backends:
            gateway.register_backend(spec)

    prompt_store = PromptStore(config.prompt_dir)
    scheduler = Scheduler(
        gateway,
        prompt_store,
        config.state_dir / "offline" if offline else config.state_dir,
        weights=config.weights,
        judge_backend_id=config.judge_backend_id,
        language=config.default_language,
        clock=clock,
    )
    for agent in config.agents:
        scheduler.register_agent(agent)
    return Engine(
        config=config,
        gateway=gateway,
        scheduler=scheduler,
        prompt_store=prompt_store,
        clock=run_clock,
        env=env,
        offline=offline,
        language=config.default_language,
    )
