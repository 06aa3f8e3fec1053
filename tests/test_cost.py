"""The cost oracle: what each command loads, opens, connects and sends.

Each mode runs one command in a fresh interpreter and a fresh directory
holding the minimal config, with an audit hook (PEP 578) installed before
finorch is imported. ``tests/golden/cost/<mode>.json`` holds what it saw:
the ``finorch`` modules; the other ``modules``, minus those a bare run of
the same harness loads; read and write counts per file ``opens`` (the run
directory is ``<run>``, the checkout ``<repo>``; Python code and files
under the interpreter's prefix are left out); ``socket.__new__`` and
``socket.connect`` events; and the gateway's chat requests and waves (a
lone chat, or a ``chat_many`` batch). On the CPython version a golden
records, all of it is compared exactly. On another, ``modules`` is
compared only for the names in ``GUARDED``.

An intended change regenerates the files with
``PYTHONPATH=src python tests/test_cost.py`` and shows up in the diff.
"""

from __future__ import annotations

import functools
import json
import os
import re
import subprocess
import sys
import tempfile
from importlib.machinery import EXTENSION_SUFFIXES
from pathlib import Path

import pytest

from test_cli import persist_forecast_scores
from test_config import REPO, write_config

COST = Path(__file__).parent / "golden" / "cost"
DOC = str(REPO / "tests" / "fixtures" / "acme_filing.txt")

#: Mode: the command, and what it adds to the environment.
MODES = {
    "forecast": (["forecast", "AAPL", "--offline"], {}),
    "report": (["report", DOC, "--offline"], {}),
    "evaluate": (["evaluate", "--offline"], {}),
    "route": (["route", "report", "--offline"], {}),
    # on persisted scores, so it sends nothing
    "live_route": (
        ["route", "forecast"],
        {"EXAMPLE_API_KEY": "dummy-key", "OTHER_API_KEY": "dummy-key"},
    ),
}

#: Modules compared on every CPython version: no CLI framework or
#: reflection (records are plain classes), no thread pool or HTTP stack
#: offline, nothing that logs and no app, runner or market data in
#: scoring and routing, ``hashlib`` only with the response cache, and no
#: DSL or analytics in any command.
GUARDED = (
    "click", "dataclasses", "inspect", "concurrent.futures", "socket", "ssl",
    "http.client", "email.utils", "email.parser", "urllib.request",
    "requests", "urllib3", "hashlib", "logging", "finorch.httpclient",
    "finorch.http11", "finorch.offline", "finorch.apps.forecaster",
    "finorch.apps.reports", "finorch.workflow", "finorch.dataops",
    "finorch.dataops.cache", "finorch.dataops.retrieval", "finorch.tools.calls",
    "finorch.tools.dsl", "finorch.analytics",
)

#: Runs ``exec(argv[1])``, then the command ``argv[2:]`` if any, and prints
#: what the hook saw. Nothing is imported before ``sys.modules`` is read
#: that the bare run does not import too.
HARNESS = """
import sys

opens, sockets = [], dict.fromkeys(["socket.__new__", "socket.connect"], 0)
chats, batches = {"requests": 0, "waves": 0}, []


def record(event, args):
    if event == "open":
        opens.append(args[::2])  # the path and the os.open flags
    elif event in sockets:
        sockets[event] += 1


sys.addaudithook(record)
prelude, *argv = sys.argv[1:]
exec(prelude)
if argv:
    from finorch.gateway import Gateway

    chat, chat_many = Gateway.chat, Gateway.chat_many

    def counted_chat(self, *args):
        chats["requests"] += 1
        chats["waves"] += not batches
        return chat(self, *args)

    def counted_chat_many(self, batch):
        batch = list(batch)
        chats["waves"] += bool(batch)
        batches.append(batch)
        try:
            return chat_many(self, batch)
        finally:
            batches.pop()

    Gateway.chat, Gateway.chat_many = counted_chat, counted_chat_many
    from finorch.cli import main

    main(argv)
modules, opened = sorted(sys.modules), list(opens)
import json, os

print(json.dumps({"modules": modules, "opens": opened, "sockets": sockets,
                  "chats": chats}, default=os.fsdecode))
"""

UNCOUNTED = (".py", ".pyc", *EXTENSION_SUFFIXES)
PREFIXES = (sys.prefix + os.sep, sys.base_prefix + os.sep)
TMP_NAME = re.compile(r"\.[0-9a-f]{12}\.tmp$")


def harness(run: Path, argv=(), env=None, prelude: str = "") -> dict:
    """What ``HARNESS`` saw, run in ``run`` with ``env`` added."""
    done = subprocess.run(
        [sys.executable, "-c", HARNESS, prelude, *argv],
        capture_output=True, text=True, cwd=run, timeout=60,
        env={**os.environ, "PYTHONPATH": str(REPO / "src"), **(env or {})},
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def where(path: str, run: Path) -> str | None:
    """``path`` as a golden names it, or None if it is not counted."""
    path = os.path.normpath(os.path.join(run, path))
    if path.endswith(UNCOUNTED) or path.startswith(PREFIXES) or "__pycache__" in path:
        return None
    for root, name in ((str(run), "<run>"), (str(REPO), "<repo>")):
        if path.startswith(root + os.sep):
            path = name + path[len(root):]
    return TMP_NAME.sub(".<tmp>.tmp", path)


def observe(
    mode: str, run: Path, bare: frozenset[str], prelude: str = ""
) -> dict:
    """What ``mode`` costs, run in the empty directory ``run``."""
    run = run.resolve()
    args, env = MODES[mode]
    config_path = write_config(run)
    if mode == "live_route":
        persist_forecast_scores(run / "state")
    seen = harness(run, [*args, "--config", str(config_path)], env, prelude)
    opens: dict[str, dict[str, int]] = {}
    for path, flags in seen["opens"]:
        if isinstance(path, str) and (name := where(path, run)):
            counts = opens.setdefault(name, {"read": 0, "write": 0})
            counts["write" if flags & (os.O_WRONLY | os.O_RDWR) else "read"] += 1
    finorch = [m for m in seen["modules"] if m.partition(".")[0] == "finorch"]
    return {
        "python": "%d.%d" % sys.version_info[:2],
        "finorch": finorch,
        "modules": sorted(set(seen["modules"]) - bare - set(finorch)),
        "opens": dict(sorted(opens.items())),
        "sockets": seen["sockets"],
        "chats": seen["chats"],
    }


def differences(expected: dict, actual: dict) -> list[str]:
    """One line per module added (+) or gone (-), and per count moved."""
    found = []
    for field in ("finorch", "modules"):
        want, got = set(expected[field]), set(actual[field])
        if field == "modules" and expected["python"] != actual["python"]:
            want, got = want & set(GUARDED), got & set(GUARDED)
        found += [f"{field}: + {m}" for m in sorted(got - want)]
        found += [f"{field}: - {m}" for m in sorted(want - got)]
    for field in ("opens", "sockets", "chats"):
        want, got = expected[field], actual[field]
        found += [
            f"{field}: {key} {want.get(key)} -> {got.get(key)}"
            for key in sorted(want.keys() | got.keys())
            if want.get(key) != got.get(key)
        ]
    return found


def golden(mode: str) -> dict:
    return json.loads((COST / f"{mode}.json").read_text(encoding="utf-8"))


@functools.cache
def bare() -> frozenset[str]:
    """The modules a bare run of ``HARNESS`` loads."""
    with tempfile.TemporaryDirectory() as tmp:
        return frozenset(harness(Path(tmp))["modules"])


@functools.cache
def observed(mode: str) -> dict:
    """What ``mode`` costs, observed once per process: the module checks
    of ``tests/test_cli.py`` read the same record."""
    with tempfile.TemporaryDirectory() as tmp:
        return observe(mode, Path(tmp), bare())


@pytest.mark.parametrize("mode", sorted(MODES))
def test_command_cost_matches_its_golden(mode):
    assert differences(golden(mode), observed(mode)) == []


def test_every_mode_has_one_golden_file():
    assert sorted(path.name for path in COST.iterdir()) == sorted(
        f"{mode}.json" for mode in MODES
    )


def test_the_oracle_sees_an_import_and_a_write(tmp_path):
    prelude = "import logging; open('extra.txt', 'w').close()"
    found = differences(golden("route"), observe("route", tmp_path, bare(), prelude))
    assert "modules: + logging" in found
    assert [line for line in found if not line.startswith("modules: ")] == [
        "opens: <run>/extra.txt None -> {'read': 0, 'write': 1}"
    ]


if __name__ == "__main__":
    for stale in COST.glob("*"):
        stale.unlink()
    COST.mkdir(exist_ok=True)
    for mode in MODES:
        text = json.dumps(observed(mode), indent=1) + "\n"
        (COST / f"{mode}.json").write_text(text, encoding="utf-8")
