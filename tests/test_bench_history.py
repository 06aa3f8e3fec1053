"""The benchmark's grown score history routes to the agents it expects.

``bench/gen.py`` writes the 10k-row score log that the ``state-history``
workload starts from, in the row format older versions wrote (with
normalized scores, weights and a composite), and its last round of each
task kind puts ``gen.EXPECTED_AGENT`` on top. Should the scheduler stop
reading those rows, or rank them otherwise, every op of that workload
would fail its output check. The module is loaded by file path, and needs
only the standard library.
"""

from __future__ import annotations

import importlib.util
import random
from pathlib import Path

import pytest

from finorch.gateway import Gateway
from finorch.prompts import PromptStore
from finorch.scheduler import AgentProfile, Scheduler

from scripted import script_backend

GEN = Path(__file__).resolve().parents[1] / "bench" / "gen.py"


@pytest.fixture(scope="module")
def gen():
    spec = importlib.util.spec_from_file_location("bench_gen", GEN)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("seed", [7, 16])
def test_grown_history_routes_to_the_expected_agents(gen, tmp_path, seed):
    gen.write_history(tmp_path, seed)
    gateway = Gateway(sleeper=lambda _s: None, rng=random.Random(0))
    for backend_id in sorted({backend for _, backend, _ in gen.AGENTS}):
        script_backend(gateway, backend_id, [{"match": "", "reply": "unused"}])
    scheduler = Scheduler(gateway, PromptStore(), tmp_path, weights=gen.WEIGHTS)
    for agent_id, backend_id, kind in gen.AGENTS:
        scheduler.register_agent(AgentProfile(agent_id, backend_id, [kind]))
    for kind, expected in gen.EXPECTED_AGENT.items():
        assert scheduler.route(kind) == expected
