"""YAML engine configuration and the assembled Engine facade.

A config file declares backends, agents, routing weights, a market-data
provider, and the directories the engine writes to. Credentials never live
in the file: each backend names the environment variable that holds its key
(``api_key_env``) and the provider names its token variable (``token_env``).

LibYAML (``yaml.CSafeLoader``) parses the file into a node graph when
PyYAML was built with it, else the pure-Python ``yaml.SafeLoader`` does,
and ``_ConfigConstructor`` builds the values from it. Both refuse a key
repeated in one mapping, and a bad number is a ``ConfigError`` naming it.

``build_engine`` wires the whole stack two ways:

* live — HTTP transport, real provider, disk response cache, wall clock;
* offline — the config's own backends, each answered by a scripted
  ``MockTransport``, fixture provider, scores under ``state_dir/offline``,
  a fixed clock for scoring and another for task runs (so a run's stamps
  do not depend on whether it evaluated first), each ticking once per
  stamp written; no HTTP client is ever built. Chats are timed by the
  gateway's monotonic timer, never by a clock.

The scheduler, built with the config's ``golden_dir``, decides when to
score (``Scheduler.ensure_scores``); ``Engine.forecast`` and
``Engine.report`` ask it before their run opens its trace.

A command loads only the layers it runs. Every command loads the config,
the gateway, the scheduler and the prompt store; a live gateway builds
the HTTP client at its first chat, and only an offline engine loads the
scripted replies of ``finorch.offline``. Beyond that:

* ``evaluate`` and ``route`` call only the scheduler, and load no app, no
  workflow runner and nothing of ``finorch.dataops``;
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
import reprlib
from collections.abc import Mapping
from pathlib import Path
from typing import TYPE_CHECKING, Any
from urllib.parse import urlsplit

import yaml

from finorch.clock import Clock, FixedClock, SystemClock
from finorch.errors import ConfigError, EngineError, WeightSumInvalid
from finorch.gateway import BackendSpec, Gateway, MockTransport
from finorch.prompts import LANGUAGES, PromptStore
from finorch.record import Record
from finorch.scheduler import TASK_KINDS, AgentProfile, Scheduler, check_weights

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

_SECRET_KEYS = ("api_key", "token", "secret", "password")

# Optional numeric backend keys; absent ones take the BackendSpec default.
_BACKEND_NUMBERS = {
    "max_tokens": int,
    "temperature": float,
    "timeout": float,
    "max_retries": int,
}

# A value in a message shows one level of its containers and a few of their
# items: a value built from nested aliases is shared, not small.
_SHOWN = reprlib.Repr()
_SHOWN.maxlevel, _SHOWN.maxstring = 1, 80


class ProviderSettings(Record):
    __slots__ = ("name", "base_url", "token_env")

    def __init__(self, name: str, base_url: str, token_env: str) -> None:
        super().__init__(name, base_url, token_env)


class EngineConfig(Record):
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
        super().__init__(
            backends, agents, weights, provider, state_dir, runs_dir,
            cache_dir, golden_dir, fixture_dir, prompt_dir, judge_backend_id,
            default_language,
        )


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
    raise ConfigError(
        f"{where} key {key!r} must be {what}, got {_SHOWN.repr(value)}"
    )


def _reject_secrets(row: Mapping[str, Any], where: str) -> None:
    for key in row:
        lowered = str(key).lower()
        if lowered in _SECRET_KEYS:
            raise ConfigError(
                f"{where} sets {key!r}: credentials belong in environment "
                "variables, never in config files (use *_env keys)"
            )


def _base_url(row: Mapping[str, Any], where: str) -> str:
    url = _require(row, "base_url", where)
    if "@" in urlsplit(url).netloc:
        raise ConfigError(
            f"{where} key 'base_url' carries credentials; finorch sends none "
            "in a URL, and credentials belong in environment variables"
        )
    return url


def _parse_backend(row: Any, index: int) -> BackendSpec:
    where = f"backends[{index}]"
    if not isinstance(row, Mapping):
        raise ConfigError(f"{where} must be a mapping")
    _reject_secrets(row, where)
    unknown = set(row) - set(BackendSpec.__slots__)
    if unknown:
        raise ConfigError(f"{where} has unknown keys {sorted(unknown)}")
    api_key_env = row.get("api_key_env", "")
    if not isinstance(api_key_env, str):
        raise ConfigError(
            f"{where} key 'api_key_env' must be a str, "
            f"got {_SHOWN.repr(api_key_env)}"
        )
    numbers = {
        key: _number(row[key], where, key, kind)
        for key, kind in _BACKEND_NUMBERS.items()
        if key in row
    }
    try:
        return BackendSpec(
            backend_id=_require(row, "backend_id", where),
            base_url=_base_url(row, where),
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
    unknown = set(row) - set(AgentProfile.__slots__)
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
                f"{where} task kind {_SHOWN.repr(kind)} is not one of "
                f"{TASK_KINDS}"
            )
    return AgentProfile(
        agent_id=agent_id, backend_id=backend_id, task_kinds=frozenset(kinds)
    )


def _parse_weights(raw: Any) -> dict[str, dict[str, float]]:
    """Each task kind's weights, a distribution (``check_weights``)."""
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
        where = f"weights[{kind!r}]"
        if not isinstance(table, Mapping) or not table:
            raise ConfigError(f"{where} must be a non-empty mapping")
        weights[kind] = {
            str(dim): _number(value, where, str(dim), float)
            for dim, value in table.items()
        }
        try:
            check_weights(weights[kind])
        except WeightSumInvalid as exc:
            raise ConfigError(f"{where}: {exc}") from None
    return weights


def _parse_provider(raw: Any) -> ProviderSettings:
    if not isinstance(raw, Mapping):
        raise ConfigError("'provider' must be a mapping")
    _reject_secrets(raw, "provider")
    unknown = set(raw) - set(ProviderSettings.__slots__)
    if unknown:
        raise ConfigError(f"provider has unknown keys {sorted(unknown)}")
    return ProviderSettings(
        name=_require(raw, "name", "provider"),
        base_url=_base_url(raw, "provider"),
        token_env=_require(raw, "token_env", "provider"),
    )


_STR, _SEQ, _MAP, _MERGE = (
    f"tag:yaml.org,2002:{kind}" for kind in ("str", "seq", "map", "merge")
)


class _ConfigConstructor(yaml.constructor.SafeConstructor):
    """Builds plain strings, lists and mappings itself, and refuses a key
    repeated in one mapping; a key a ``<<`` merge brings in may be
    overridden. PyYAML's ``SafeConstructor`` builds every other node."""

    def construct_object(self, node: yaml.Node, deep: bool = False) -> Any:
        built = self.constructed_objects
        if node in built:
            return built[node]
        if node.tag == _STR and isinstance(node, yaml.ScalarNode):
            return node.value
        # A container is stored before it is filled, so every alias shares
        # it, and nested or recursive aliases cost no more than their nodes.
        if node.tag == _SEQ and isinstance(node, yaml.SequenceNode):
            built[node] = items = []
            items.extend([self.construct_object(item) for item in node.value])
            return items
        if node.tag != _MAP or not isinstance(node, yaml.MappingNode):
            return super().construct_object(node, deep)
        built[node] = mapping = {}
        own = sum(key.tag != _MERGE for key, _ in node.value)
        self.flatten_mapping(node)  # puts the merged pairs before the own
        merged, own_keys = len(node.value) - own, set()
        for index, (key_node, value_node) in enumerate(node.value):
            key = self.construct_object(key_node)
            try:
                repeated = key in own_keys
            except TypeError:
                repeated = None
            if repeated is not False:
                raise yaml.constructor.ConstructorError(
                    "while constructing a mapping", node.start_mark,
                    "found unhashable key" if repeated is None
                    else f"found duplicate key {key!r}", key_node.start_mark,
                )
            if index >= merged:
                own_keys.add(key)
            mapping[key] = self.construct_object(value_node)
        return mapping


def _yaml_loader() -> type:
    """LibYAML's parser (``yaml.CSafeLoader``) when PyYAML was built with
    it, else the pure-Python ``yaml.SafeLoader``."""
    return getattr(yaml, "CSafeLoader", yaml.SafeLoader)


#: Nesting beyond this is refused before LibYAML composes the text: its
#: composer recurses in C and crashes the process some 20000 levels down.
#: Building the values recurses in Python, so no deeper config loads anyway.
_MAX_DEPTH = 1000


def _parse_yaml(text: str) -> Any:
    """The one YAML document in ``text``, None if it holds none. Nesting
    deeper than ``_MAX_DEPTH`` is a RecursionError, as building it would
    be. Each level takes one of ``[{-?:``, so only a text with more of
    those than the limit has its parser events walked first."""
    loader = _yaml_loader()
    if sum(map(text.count, "[{-?:")) > _MAX_DEPTH:
        depth = 0
        for event in yaml.parse(text, Loader=loader):
            if isinstance(event, yaml.CollectionStartEvent):
                depth += 1
                if depth > _MAX_DEPTH:
                    raise RecursionError(f"nesting deeper than {_MAX_DEPTH}")
            elif isinstance(event, yaml.CollectionEndEvent):
                depth -= 1
    node = yaml.compose(text, Loader=loader)
    return node and _ConfigConstructor().construct_document(node)


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
        raw = _parse_yaml(text)
    except yaml.YAMLError as exc:
        raise ConfigError(f"config {path} is not valid YAML: {exc}") from exc
    except RecursionError:
        raise ConfigError(f"config {path} nests too deeply") from None
    if not isinstance(raw, Mapping):
        raise ConfigError(f"config {path} must be a YAML mapping")

    unknown = set(raw) - set(EngineConfig.__slots__)
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
            f"judge_backend_id {_SHOWN.repr(judge)} is not a configured "
            "backend"
        )

    language = raw.get("default_language", "en")
    if language not in LANGUAGES:
        raise ConfigError(
            f"default_language {_SHOWN.repr(language)} must be 'en' or 'zh'"
        )

    base = path.resolve().parent

    def _dir(key: str, default: str | None) -> Path | None:
        value = raw.get(key, default)
        if value is None and default is None:  # an optional directory
            return None
        if not isinstance(value, str) or not value:
            raise ConfigError(f"{key!r} must be a non-empty path string")
        candidate = Path(value)
        return candidate if candidate.is_absolute() else base / candidate

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
        prompt_dir=_dir("prompt_dir", None),
        judge_backend_id=judge,
        default_language=language,
    )


# The apps are imported on a command's first call into them, so evaluate and
# route load no app code and forecast loads no report code. The Engine calls
# these names through this module, where a caller can wrap them.


def run_forecaster(*args: Any, **kwargs: Any) -> ForecastRun:
    from finorch.apps.forecaster import run_forecaster

    return run_forecaster(*args, **kwargs)


def analyze_document(*args: Any, **kwargs: Any) -> DocumentAnalysis:
    from finorch.apps.reports import analyze_document

    return analyze_document(*args, **kwargs)


def generate_report(*args: Any, **kwargs: Any) -> ReportResult:
    from finorch.apps.reports import generate_report

    return generate_report(*args, **kwargs)


class Engine:
    """One assembled stack: gateway, scheduler, data, prompts, and dirs.

    Every task run writes to ``config.runs_dir``, stamped by ``clock``.
    Commands run in ``config.default_language`` unless they name another."""

    def __init__(
        self, config: EngineConfig, gateway: Gateway, scheduler: Scheduler,
        prompt_store: PromptStore, clock: Clock, offline: bool = False
    ) -> None:
        self.config = config
        self.gateway = gateway
        self.scheduler = scheduler
        self.prompt_store = prompt_store
        self.clock = clock
        self.offline = offline

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
        )
        return MarketData(provider, ResponseCache(self.config.cache_dir))

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
        self.scheduler.ensure_scores("forecast")
        return run_forecaster(
            symbol,
            cutoff,
            horizon,
            scheduler=self.scheduler,
            gateway=self.gateway,
            prompt_store=self.prompt_store,
            market_data=self.market_data,
            language=language or self.config.default_language,
            runs_dir=self.config.runs_dir,
            clock=self.clock,
        )

    def report(
        self,
        doc_path: Path | str,
        subject: str | None = None,
        language: str | None = None,
    ) -> ReportResult:
        from finorch.apps.reports import index_document
        from finorch.workflow import ROLE_ASSISTANT

        doc_path = Path(doc_path)
        if subject is None:
            subject = doc_path.stem.replace("_", " ").replace("-", " ").title()
        # An unusable document is refused before any scoring.
        try:
            document = index_document(doc_path)
        except EngineError as exc:
            raise exc.with_role(ROLE_ASSISTANT)
        self.scheduler.ensure_scores("report")
        return generate_report(
            document,
            subject,
            scheduler=self.scheduler,
            gateway=self.gateway,
            prompt_store=self.prompt_store,
            language=language or self.config.default_language,
            runs_dir=self.config.runs_dir,
            clock=self.clock,
            analyze=analyze_document,
        )


def build_engine(config: EngineConfig, offline: bool = False) -> Engine:
    """Assemble a live or offline engine from one validated config."""
    clock: Clock = FixedClock() if offline else SystemClock()
    run_clock: Clock = FixedClock() if offline else clock

    # Offline, each configured backend answers from its script. Live, the
    # gateway builds its HTTP transport at the first chat, in the calling
    # thread, so a route on persisted scores loads no HTTP stack.
    gateway = Gateway()
    if offline:
        from finorch.offline import script_for
    for spec in config.backends:
        gateway.register_backend(
            spec,
            MockTransport(script_for(spec.backend_id, config.judge_backend_id))
            if offline
            else None,
        )

    prompt_store = PromptStore(config.prompt_dir)
    scheduler = Scheduler(
        gateway,
        prompt_store,
        config.state_dir / "offline" if offline else config.state_dir,
        weights=config.weights,
        judge_backend_id=config.judge_backend_id,
        language=config.default_language,
        clock=clock,
        golden_dir=config.golden_dir,
    )
    for agent in config.agents:
        scheduler.register_agent(agent)
    return Engine(
        config=config,
        gateway=gateway,
        scheduler=scheduler,
        prompt_store=prompt_store,
        clock=run_clock,
        offline=offline,
    )
