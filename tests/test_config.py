"""Config parsing, validation, and engine assembly."""

from __future__ import annotations

import datetime as dt
import importlib.util
import time
from pathlib import Path

import pytest
import yaml
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from yaml.constructor import ConstructorError, SafeConstructor

from finorch import httpclient
from finorch.config import (
    EngineConfig,
    _parse_yaml,
    _yaml_loader,
    build_engine,
    load_config,
)
from finorch.errors import ConfigError
from finorch.gateway import BackendSpec, ChatMessage, MockTransport

from oracles import oracle_config_yaml

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
    content = text if text is not None else minimal_text()
    path.write_text(content, encoding="utf-8")
    return path


def minimal_text() -> str:
    return MINIMAL.format(
        golden_dir=REPO / "fixtures" / "golden",
        fixture_dir=REPO / "fixtures",
    )


@pytest.fixture(params=["CSafeLoader", "SafeLoader"])
def yaml_loader(request, monkeypatch) -> str:
    """Run a test under LibYAML's parser and under the pure-Python one that
    ``load_config`` falls back to when PyYAML has no LibYAML bindings."""
    if not hasattr(yaml, "CSafeLoader"):
        if request.param == "CSafeLoader":
            pytest.skip("PyYAML is built without LibYAML")
    elif request.param == "SafeLoader":
        monkeypatch.delattr(yaml, "CSafeLoader")
    return request.param


class TestLoadConfig:
    def test_full_round_trip(self, tmp_path):
        config = load_config(write_config(tmp_path))
        assert isinstance(config, EngineConfig)
        assert [b.backend_id for b in config.backends] == [
            "primary", "secondary", "judge",
        ]
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
        base = minimal_text()
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
        base = minimal_text()
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
        base = minimal_text().replace(
            "backend_id: secondary\n    task_kinds: [forecast]",
            "backend_id: ghost\n    task_kinds: [forecast]",
        )
        with pytest.raises(ConfigError, match="unknown backend 'ghost'"):
            load_config(write_config(tmp_path, base))

    def test_unknown_task_kind(self, tmp_path):
        base = minimal_text().replace("task_kinds: [report]", "task_kinds: [poetry]", 1)
        with pytest.raises(ConfigError, match="'poetry'"):
            load_config(write_config(tmp_path, base))

    def test_duplicate_backend_ids(self, tmp_path):
        base = minimal_text().replace("backend_id: secondary", "backend_id: primary", 1)
        with pytest.raises(ConfigError, match="duplicate backend ids"):
            load_config(write_config(tmp_path, base))

    def test_unknown_judge_backend(self, tmp_path):
        base = minimal_text().replace(
            "judge_backend_id: judge", "judge_backend_id: nobody"
        )
        with pytest.raises(ConfigError, match="judge_backend_id 'nobody'"):
            load_config(write_config(tmp_path, base))

    def test_unsupported_language(self, tmp_path):
        base = minimal_text().replace("default_language: en", "default_language: fr")
        with pytest.raises(ConfigError, match="default_language 'fr'"):
            load_config(write_config(tmp_path, base))

    def test_inline_credential_rejected(self, tmp_path):
        base = minimal_text().replace(
            "api_key_env: OTHER_API_KEY", "api_key: sk-verysecret"
        )
        with pytest.raises(ConfigError, match="environment"):
            load_config(write_config(tmp_path, base))

    def test_inline_provider_token_rejected(self, tmp_path):
        base = minimal_text().replace("token_env: FINNHUB_TOKEN", "token: hub-secret")
        with pytest.raises(ConfigError, match="environment"):
            load_config(write_config(tmp_path, base))

    @pytest.mark.parametrize(
        "url, where",
        [
            ("https://api.example.org/v1", "backends[1]"),
            ("https://finnhub.io/api/v1", "provider"),
        ],
    )
    def test_a_base_url_with_credentials_is_refused(self, tmp_path, url, where):
        text = minimal_text().replace(
            url, url.replace("https://", "https://alice:hunter2@")
        )
        with pytest.raises(ConfigError, match="base_url") as err:
            load_config(write_config(tmp_path, text))
        assert where in str(err.value)
        assert "hunter2" not in str(err.value)

    @pytest.mark.parametrize(
        "setting, message",
        [
            ("timeout: 0", "timeout must be positive"),
            ("temperature: 3", "temperature must lie in"),
            ('max_tokens: "abc"', "max_tokens"),
            ("max_tokens: .inf", "'max_tokens' must be a whole number"),
            ("max_retries: .inf", "'max_retries' must be a whole number"),
            ("max_tokens: 1.9", "'max_tokens' must be a whole number"),
            ("max_tokens: true", "'max_tokens' must be a whole number"),
            ("max_retries: '2'", "'max_retries' must be a whole number"),
            ("timeout: .nan", "'timeout' must be a finite number"),
            ("timeout: .inf", "'timeout' must be a finite number"),
            ("temperature: false", "'temperature' must be a finite number"),
            pytest.param(
                "max_retries: " + "9" * 400,
                "'max_retries' must be a whole number",
                id="beyond-float-range",
            ),
            ("api_key_env: null", "'api_key_env' must be a str, got None"),
            ("api_key_env: [OPENAI_API_KEY]", "'api_key_env' must be a str"),
            ("api_key_env: 123", "'api_key_env' must be a str, got 123"),
            ("api_key_env: true", "'api_key_env' must be a str, got True"),
            ("api_key_env: {name: KEY}", "'api_key_env' must be a str"),
        ],
    )
    def test_invalid_backend_values(self, tmp_path, setting, message):
        # an api_key_env setting takes the place of the backend's own
        line = "api_key_env: OTHER_API_KEY"
        if not setting.startswith("api_key_env:"):
            setting = f"{line}\n    {setting}"
        base = minimal_text().replace(line, setting)
        with pytest.raises(ConfigError, match=rf"backends\[1\].*{message}"):
            load_config(write_config(tmp_path, base))

    def test_a_value_of_nested_aliases_prints_bounded(
        self, tmp_path, yaml_loader
    ):
        """A one-line value that aliases nested six deep make a million
        strings long loads at once, and its message shows a bounded part
        of it, not the million."""
        value = "[" + ", ".join(["x"] * 10) + "]"
        for anchor in "abcde":
            value = f"[&{anchor} {value}, " + ", ".join([f"*{anchor}"] * 9) + "]"
        base = minimal_text().replace(
            "api_key_env: OTHER_API_KEY",
            f"api_key_env: OTHER_API_KEY\n    max_tokens: {value}",
        )
        started = time.perf_counter()
        with pytest.raises(ConfigError) as info:
            load_config(write_config(tmp_path, base))
        assert time.perf_counter() - started < 1
        message = str(info.value)
        assert message.startswith(
            "backends[1] key 'max_tokens' must be a whole number, got [[...], "
        )
        assert len(message) < 1024

    @pytest.mark.parametrize(
        "setting, expected",
        [
            ("", ""),
            ("api_key_env: ''", ""),
            ("api_key_env: OPENAI_API_KEY", "OPENAI_API_KEY"),
        ],
    )
    def test_api_key_env_is_a_string_or_absent(self, tmp_path, setting, expected):
        base = minimal_text().replace("api_key_env: OTHER_API_KEY", setting)
        config = load_config(write_config(tmp_path, base))
        assert config.backends[1].api_key_env == expected

    def test_whole_numbers_take_the_key_type(self, tmp_path):
        base = minimal_text().replace(
            "api_key_env: OTHER_API_KEY",
            "api_key_env: OTHER_API_KEY\n    max_tokens: 512.0\n    timeout: 30",
        )
        spec = load_config(write_config(tmp_path, base)).backends[1]
        assert spec.max_tokens == 512 and isinstance(spec.max_tokens, int)
        assert spec.timeout == 30.0 and isinstance(spec.timeout, float)

    @pytest.mark.parametrize(
        "value", ['"abc"', "[0.5]", "{half: 0.5}", ".nan", "-.inf", "true"]
    )
    def test_bad_weight(self, tmp_path, value):
        base = minimal_text().replace(
            "exact_match: 0.5", f"exact_match: {value}"
        )
        with pytest.raises(
            ConfigError,
            match=r"weights\['forecast'\] key 'exact_match' must be a finite",
        ):
            load_config(write_config(tmp_path, base))

    @pytest.mark.parametrize(
        ("table", "message"),
        [
            (
                "exact_match: 0.2\n    token_f1: 0.5",
                r"weights\['forecast'\]: weights sum to 0.7, expected 1",
            ),
            (
                "exact_match: 1.5\n    token_f1: -0.5",
                r"weights\['forecast'\]: negative weights for "
                r"\['token_f1'\]",
            ),
        ],
        ids=["sum", "negative"],
    )
    def test_weight_table_that_is_no_distribution(
        self, tmp_path, table, message
    ):
        base = minimal_text().replace(
            "exact_match: 0.5\n    token_f1: 0.5", table
        )
        with pytest.raises(ConfigError, match=message):
            load_config(write_config(tmp_path, base))

    def test_repo_config_is_valid(self):
        config = load_config(REPO / "config.yaml")
        assert [b.backend_id for b in config.backends] == [
            "primary", "secondary", "judge",
        ]
        assert config.fixture_dir == REPO / "fixtures"
        assert (config.golden_dir / "forecast.jsonl").exists()
        assert (config.golden_dir / "report.jsonl").exists()


#: Key spellings grouped by the value each reads as (``1 == 1.0 == True``),
#: so a generated mapping repeats a key only when it draws one twice.
KEY_GROUPS = [
    ["a", "'a'", '"a"'],
    ["b"],
    ["name"],
    ["1", "+1", "0x1", "1.0", "yes", "On", "true"],
    ["0", "0o0", "no", "off", "False", "0.0"],
    ["~", "null", "Null"],
    [".nan", ".NaN"],
    ["2001-12-14"],
    ["190:20:30", "685230"],
]

#: Every core scalar form YAML 1.1 gives PyYAML, plus explicit tags.
SCALARS = [
    "plain", "'quoted'", '"double"', "'12'", "!!str 12", "0o17",
    "0", "-7", "+12", "1_000", "0x1F", "017", "0b101", "190:20:30",
    "1.5", "-2.5", "6.8523015e+5", "190:20:30.15", "!!float 1",
    ".inf", "-.Inf", ".nan", ".NaN",
    "yes", "No", "on", "OFF", "true", "False",
    "~", "null",
    "2001-12-14", "2001-12-14t21:59:43.10-05:00", "2001-12-14 21:59:43.10",
    "2002-12-14T00:00:00Z", "!!binary aGVsbG8=", "!!set {x, y}",
]


@st.composite
def mapping_keys(draw, min_size=0):
    """Up to four keys of distinct values; now and then one drawn twice."""
    groups = draw(st.lists(
        st.integers(0, len(KEY_GROUPS) - 1), min_size=min_size, max_size=4,
        unique=True,
    ))
    keys = [draw(st.sampled_from(KEY_GROUPS[g])) for g in groups]
    if keys and draw(st.integers(0, 7)) == 0:
        again = draw(st.sampled_from(KEY_GROUPS[draw(st.sampled_from(groups))]))
        keys.insert(draw(st.integers(0, len(keys))), again)
    return keys


@st.composite
def yaml_documents(draw):
    """A block mapping of flow values: nested maps and lists of scalars,
    anchors, aliases to anchored nodes already closed, and ``<<`` merges of
    one mapping, of a list of mappings, or of an inline mapping."""
    anchors: list[tuple[str, bool]] = []  # closed anchors; names a mapping?
    count = iter(range(1000))

    def value(depth: int) -> str:
        kind = draw(st.sampled_from(
            ["scalar", "scalar", "alias", "list", "map"] if depth < 3
            else ["scalar", "alias"]
        ))
        if kind == "alias" and anchors:
            return "*" + draw(st.sampled_from(anchors))[0]
        name = f"a{next(count)}" if draw(st.booleans()) else ""
        if kind == "list":
            size = draw(st.integers(0, 3))
            text = "[" + ", ".join(value(depth + 1) for _ in range(size)) + "]"
        elif kind == "map":
            text = mapping(depth + 1)
        else:
            text = draw(st.sampled_from(SCALARS))
        if name:
            anchors.append((name, kind == "map"))
            text = f"&{name} {text}"
        return text

    def merge_source() -> str | None:
        maps = [name for name, is_map in anchors if is_map]
        kind = draw(st.sampled_from(["none", "one", "list", "inline"]))
        if kind == "one" and maps:
            return "*" + draw(st.sampled_from(maps))
        if kind == "list" and maps:
            names = draw(st.lists(st.sampled_from(maps), min_size=1, max_size=3))
            return "[" + ", ".join("*" + name for name in names) + "]"
        if kind == "inline":
            pairs = [
                f"{key}: {draw(st.sampled_from(SCALARS))}"
                for key in draw(mapping_keys())
            ]
            return "{" + ", ".join(pairs) + "}"
        return None

    def mapping(depth: int) -> str:
        source = merge_source()  # of anchors closed before this mapping
        pairs = [f"{key}: {value(depth)}" for key in draw(mapping_keys())]
        if source is not None:
            pairs.insert(draw(st.integers(0, len(pairs))), f"<<: {source}")
        return "{" + ", ".join(pairs) + "}"

    lines = [f"{key}: {value(0)}" for key in draw(mapping_keys(min_size=1))]
    source = merge_source()
    if source is not None:
        lines.append(f"<<: {source}")
    return "\n".join(lines) + "\n"


def same(a, b) -> bool:
    """Equal values of one type each, in one order, a NaN equal to a NaN."""
    if type(a) is not type(b):
        return False
    if isinstance(a, float) and a != a:
        return b != b
    if isinstance(a, list):
        return len(a) == len(b) and all(map(same, a, b))
    if isinstance(a, dict):
        return same(list(a), list(b)) and same(list(a.values()), list(b.values()))
    return a == b


def bench_config_text() -> str:
    """The JSON config the benchmark writes (``bench/gen.py``)."""
    spec = importlib.util.spec_from_file_location(
        "bench_gen", REPO / "bench" / "gen.py"
    )
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    return gen.config_text(REPO)


class TestYamlLoaders:
    def test_libyaml_is_chosen_when_present(self, yaml_loader):
        assert issubclass(_yaml_loader(), getattr(yaml, yaml_loader))

    @pytest.mark.parametrize("source", ["repo", "minimal"])
    def test_loaders_give_equal_configs(self, tmp_path, monkeypatch, source):
        path = (
            REPO / "config.yaml" if source == "repo" else write_config(tmp_path)
        )
        native = load_config(path)
        monkeypatch.delattr(yaml, "CSafeLoader", raising=False)
        assert load_config(path) == native

    @pytest.mark.parametrize(
        "text, mark",
        [
            ("backends: [unclosed", "line 1, column 11"),
            ("a: b: c\n", "line 1, column 5"),
            ("backends:\n\t- backend_id: x\n", "line 2, column 1"),
        ],
        ids=["unclosed-flow", "nested-mapping-value", "tab-indent"],
    )
    def test_malformed_yaml_names_line_and_column(
        self, tmp_path, yaml_loader, text, mark
    ):
        with pytest.raises(ConfigError, match="not valid YAML") as info:
            load_config(write_config(tmp_path, text))
        assert mark in str(info.value)

    @pytest.mark.parametrize(
        "old, new, key",
        [
            (
                "default_language: en\n",
                "default_language: en\ndefault_language: zh\n",
                "default_language",
            ),
            (
                "model_name: beta-model\n",
                "model_name: beta-model\n    model_name: gamma-model\n",
                "model_name",
            ),
        ],
        ids=["top-level", "in-backend"],
    )
    def test_duplicate_key_is_refused(
        self, tmp_path, yaml_loader, old, new, key
    ):
        text = minimal_text().replace(old, new, 1)
        line = text.splitlines().index(new.splitlines()[1]) + 1
        with pytest.raises(
            ConfigError, match=rf"duplicate key '{key}'\n.*line {line},"
        ):
            load_config(write_config(tmp_path, text))

    def test_merge_keys_are_not_duplicates(self, tmp_path, yaml_loader):
        text = minimal_text().replace(
            "weights:\n  forecast:\n",
            "weights:\n  forecast: &forecast\n",
        ).replace(
            "  report:\n    token_f1: 1.0\n",
            "  report:\n    <<: *forecast\n    exact_match: 0.25\n"
            "    token_f1: 0.75\n",
        )
        config = load_config(write_config(tmp_path, text))
        assert config.weights["report"] == {
            "exact_match": 0.25, "token_f1": 0.75,
        }

    @settings(
        max_examples=150, deadline=None, derandomize=True,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(text=yaml_documents())
    @example(text=(REPO / "config.yaml").read_text(encoding="utf-8"))
    @example(text=minimal_text())
    def test_values_match_pyyamls_constructor(self, yaml_loader, text):
        """The config reader gives what PyYAML's own ``SafeConstructor``
        with the duplicate-key rule gives, and refuses what it refuses."""
        try:
            expected = oracle_config_yaml(text)
        except ConstructorError as exc:
            with pytest.raises(ConstructorError) as info:
                _parse_yaml(text)
            assert ("duplicate" in info.value.problem) == (
                "duplicate" in exc.problem
            ), (info.value, exc)
        else:
            assert same(_parse_yaml(text), expected)

    def test_an_overridden_key_of_a_mapping_merged_before_it_is_built(self):
        """PyYAML fills nested containers after their siblings, so the old
        duplicate-key rule checked ``x`` only after ``two`` had merged it
        in place: the ``k`` that ``x`` merges from ``base`` then read as a
        second ``k`` of its own."""
        text = (
            "base: &b {k: 0}\n"
            "one: {x: &x {<<: *b, k: 1}}\n"
            "two: {<<: *x}\n"
        )
        assert _parse_yaml(text) == {
            "base": {"k": 0}, "one": {"x": {"k": 1}}, "two": {"k": 1},
        }

    def test_aliases_share_one_object(self, tmp_path, yaml_loader):
        """Nested aliases that expand to 10**9 strings load at once, and a
        config that holds them is one ConfigError. A recursive alias loads
        as a container that holds itself."""
        value = _parse_yaml("a: &x [*x]\nb: &y {self: *y}\n")
        assert value["a"][0] is value["a"]
        assert value["b"]["self"] is value["b"]
        levels = ["a: &a [" + ", ".join(["x"] * 10) + "]"] + [
            f"{high}: &{high} [" + ", ".join([f"*{low}"] * 10) + "]"
            for low, high in zip("abcdefgh", "bcdefghi")
        ]
        value = _parse_yaml("\n".join(levels))
        assert value["i"][0] is value["i"][9] is value["h"]
        text = minimal_text() + "laughs:\n" + "".join(
            f"  {line}\n" for line in levels
        )
        with pytest.raises(ConfigError, match=r"unknown top-level keys \['laughs'\]"):
            load_config(write_config(tmp_path, text))

    @pytest.mark.parametrize(
        "old, new, message",
        [
            ("task_kinds: [forecast]\n", "task_kinds: &x [*x]\n",
             r"agents\[0\] task kind \[\[...\]\] is not one of"),
            ("state_dir: state\n", "? [1]\n: x\nstate_dir: state\n",
             "found unhashable key"),
            ("provider:\n", "provider: !!python/object:builtins.dict\n",
             r"could not determine a constructor for the tag "
             r"'tag:yaml.org,2002:python/object:builtins.dict'"),
        ],
        ids=["recursive-alias", "unhashable-key", "python-object"],
    )
    def test_hostile_yaml_is_one_config_error(
        self, tmp_path, yaml_loader, old, new, message
    ):
        text = minimal_text().replace(old, new, 1)
        with pytest.raises(ConfigError, match=message):
            load_config(write_config(tmp_path, text))

    @pytest.mark.parametrize("source", ["repo", "bench"])
    def test_plain_maps_and_lists_skip_pyyamls_constructor(
        self, tmp_path, monkeypatch, yaml_loader, source
    ):
        """Plain mappings and lists are built from the node graph, never by
        ``SafeConstructor``'s own map and list constructors."""

        def refuse(constructor, node):
            raise AssertionError(f"SafeConstructor built {node.tag}")

        for kind in ("map", "seq"):
            monkeypatch.setitem(
                SafeConstructor.yaml_constructors,
                f"tag:yaml.org,2002:{kind}", refuse,
            )
        if source == "repo":
            path = REPO / "config.yaml"
        else:
            path = write_config(tmp_path, bench_config_text())
        assert [b.backend_id for b in load_config(path).backends]

    def test_nesting_too_deep_is_one_config_error(self, tmp_path, yaml_loader):
        """Not a RecursionError from the parser or the builder."""
        text = minimal_text() + "deep: " + "[" * 600 + "]" * 600 + "\n"
        with pytest.raises(ConfigError):
            load_config(write_config(tmp_path, text))


class TestBuildEngineOffline:
    def test_offline_engine_components(self, tmp_path):
        engine = build_engine(load_config(write_config(tmp_path)), offline=True)
        assert engine.offline is True
        for backend_id in ("primary", "secondary", "judge"):
            assert engine.gateway.get_backend(backend_id).backend_id == backend_id
        assert {a.agent_id for a in engine.scheduler.agents_for("forecast")} == {
            "forecaster-primary",
            "forecaster-secondary",
        }
        profile = engine.market_data.get_company_profile("AAPL")
        assert profile.name == "Apple Inc"

    def test_offline_engine_builds_no_http_client(self, tmp_path, monkeypatch):
        """Offline, every configured backend answers from its script, and a
        chat to any other backend id is a ConfigError before a
        transport is built, so no offline chat can reach the network."""

        def refuse(*args, **kwargs):
            raise AssertionError("an offline engine built an HTTP client")

        monkeypatch.setattr(httpclient, "_shared", None)
        monkeypatch.setattr(httpclient.HttpClient, "__init__", refuse)
        engine = build_engine(load_config(write_config(tmp_path)), offline=True)
        hello = [ChatMessage(role="user", content="hello")]
        scripted, rogue = engine.gateway.chat_many(
            [("primary", hello), ("rogue", hello)]
        )
        assert scripted.response_text
        assert isinstance(rogue, ConfigError)
        assert str(rogue) == "no backend registered as 'rogue'"
        with pytest.raises(ConfigError, match="no backend registered as 'rogue'"):
            engine.gateway.chat("rogue", hello)

    def test_offline_chats_carry_the_configured_backend(
        self, tmp_path, monkeypatch
    ):
        """An offline engine registers the config's own backends, so a
        scripted chat is sent with the configured model and settings."""
        sent = []
        send = MockTransport.send

        def spy(transport, spec, payload):
            sent.append((spec, payload))
            return send(transport, spec, payload)

        monkeypatch.setattr(MockTransport, "send", spy)
        config = load_config(write_config(tmp_path))
        engine = build_engine(config, offline=True)
        engine.gateway.chat("judge", [ChatMessage(role="user", content="hi")])
        [(spec, payload)] = sent
        assert spec == config.backends[2]
        assert payload["model"] == "judge-model"
        assert payload["max_tokens"] == spec.max_tokens

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
        scores = engine.scheduler.evaluate_all("forecast")
        assert [(s.task_kind, s.agent_id, s.raw_scores) for s in scores] == [
            ("forecast", "forecaster-primary", {"exact_match": 1.0, "token_f1": 1.0}),
            ("forecast", "forecaster-secondary", {"exact_match": 0.0, "token_f1": 0.0}),
        ]
        assert engine.scheduler.rank_agents("forecast") == [
            ("forecaster-primary", 1.0), ("forecaster-secondary", 0.0),
        ]
        assert engine.scheduler.route("forecast") == "forecaster-primary"

    def test_route_helper_evaluates_then_routes(self, tmp_path):
        engine = build_engine(load_config(write_config(tmp_path)), offline=True)
        engine.scheduler.ensure_scores("report")
        assert engine.scheduler.route("report") == "report-writer"

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
            engine.scheduler.golden_dataset("forecast")

    def test_forecast_pipeline_offline(self, tmp_path):
        engine = build_engine(load_config(write_config(tmp_path)), offline=True)
        run = engine.forecast("AAPL", dt.date(2024, 4, 19), 7)
        assert run.result.direction == "up"
        assert run.result.band_text() == "0-1%"
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
        engine = build_engine(load_config(write_config(tmp_path)), offline=False)
        assert engine.offline is False
        spec = engine.gateway.get_backend("primary")
        assert spec.base_url == "https://api.example.com/v1"
        assert spec.api_key_env == "EXAMPLE_API_KEY"

    def test_live_chat_without_key_is_config_error(self, tmp_path, monkeypatch):
        monkeypatch.delenv("EXAMPLE_API_KEY", raising=False)
        engine = build_engine(load_config(write_config(tmp_path)), offline=False)
        with pytest.raises(ConfigError):
            engine.gateway.chat(
                "primary", [ChatMessage(role="user", content="hi")]
            )
