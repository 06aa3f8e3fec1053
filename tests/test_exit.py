"""How a command ends: the process entry point and what it relies on.

``finorch.cli.entry`` ends the process with ``os._exit`` once the command
has finished, skipping the interpreter's teardown. These tests run it as a
shell runs it, in a fresh interpreter, and check that the process still
reports what ``main`` does in-process; and they check ``main``'s side of
the bargain: it never ends the process, and it leaves no file open.
"""

from __future__ import annotations

import gc
import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

from clirun import run_cli
from test_config import REPO, write_config

DOC = str(REPO / "tests" / "fixtures" / "acme_filing.txt")

#: Every offline command, and one that fails inside its task run.
COMMANDS = {
    "evaluate": ["evaluate", "--offline"],
    "evaluate-json": ["evaluate", "--offline", "--json"],
    "route": ["route", "report", "--offline"],
    "forecast": ["forecast", "AAPL", "--offline"],
    "report": ["report", DOC, "--offline"],
    "selfcheck": ["selfcheck"],
    "forecast-no-fixture": ["forecast", "NOPE", "--offline"],
}


def environment(**extra: str) -> dict[str, str]:
    """This environment, with ``src`` importable and stdout buffered as a
    shell leaves it: no ``PYTHONUNBUFFERED``."""
    env = {**os.environ, "PYTHONPATH": str(REPO / "src"), **extra}
    if "PYTHONUNBUFFERED" not in extra:
        env.pop("PYTHONUNBUFFERED", None)
    return env


def process(
    args, cwd: Path, stdout=subprocess.PIPE, env=None
) -> subprocess.CompletedProcess:
    """``python -m finorch.cli args`` in ``cwd``; stderr is captured."""
    return subprocess.run(
        [sys.executable, "-m", "finorch.cli", *args], cwd=cwd, timeout=60,
        stdout=stdout, stderr=subprocess.PIPE, env=env or environment(),
    )


def python(script: str, args, cwd: Path) -> subprocess.CompletedProcess:
    """``python -c script args`` in ``cwd``, as text."""
    return subprocess.run(
        [sys.executable, "-c", script, *args],
        cwd=cwd, capture_output=True, text=True, timeout=60, env=environment(),
    )


def harness(code: str, args, cwd: Path) -> subprocess.CompletedProcess:
    """Run ``entry`` in a fresh interpreter, with ``code`` run first: it
    may replace ``cli.main`` to act while the command runs."""
    return python(f"from finorch import cli\n{code}\ncli.entry()\n", args, cwd)


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_a_process_reports_what_main_reports(command, tmp_path):
    """The exit status, stdout and stderr of the process are those of
    ``main`` in-process, with the run directory named alike. stdout is a
    pipe and buffered, so this also shows the last flush is whole."""
    ran, inline = tmp_path / "process", tmp_path / "inline"
    ran.mkdir()
    inline.mkdir()
    args = [*COMMANDS[command], "--config"]
    done = process([*args, str(write_config(ran))], ran)
    result = run_cli([*args, str(write_config(inline))])

    def named(text: str, run: Path) -> str:
        return text.replace(str(run), "<run>")

    assert done.returncode == result.exit_code
    assert named(done.stdout.decode(), ran) == named(result.stdout, inline)
    assert named(done.stderr.decode(), ran) == named(result.stderr, inline)


@pytest.mark.parametrize(
    "unbuffered", [False, True], ids=["at-the-last-flush", "during-a-print"]
)
def test_a_closed_stdout_ends_with_status_1_and_no_traceback(tmp_path, unbuffered):
    """As ``finorch ... | head -c 20`` ends when ``head`` exits first. The
    pipe has no reader from the start, so every write to it fails: with
    stdout buffered, at the exit handler's flush; unbuffered, in ``print``."""
    args = ["route", "report", "--offline", "--json", "--config"]
    env = environment(PYTHONUNBUFFERED="1") if unbuffered else environment()
    reader, writer = os.pipe()
    os.close(reader)
    try:
        done = process(
            [*args, str(write_config(tmp_path))], tmp_path, writer, env
        )
    finally:
        os.close(writer)
    assert (done.returncode, done.stderr) == (1, b"")


def test_exit_handlers_and_threads_of_the_command_still_run(tmp_path):
    """A thread the command started is joined, and an exit handler it
    registered runs, before the process ends; what both print arrives."""
    code = """
import atexit, threading
command, done = cli.main, threading.Event()

def late() -> None:
    done.wait()
    print("thread ran")

def main() -> None:
    atexit.register(print, "handler ran")
    threading.Thread(target=late).start()
    try:
        command()
    finally:
        done.set()

cli.main = main
"""
    config = str(write_config(tmp_path))
    done = harness(code, ["route", "report", "--offline", "--config", config], tmp_path)
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout.splitlines() == ["report-writer", "thread ran", "handler ran"]


@pytest.mark.parametrize(
    "raised, status, stderr",
    [
        ("RuntimeError('boom')", 1, "RuntimeError: boom"),
        ("SystemExit('bye')", 1, "bye"),
        ("SystemExit(3)", 3, None),
        ("SystemExit(None)", 0, None),
    ],
    ids=["runtime-error", "exit-message", "exit-3", "exit-none"],
)
def test_an_exception_from_the_command_ends_as_cpython_ends_it(
    tmp_path, raised, status, stderr
):
    """An uncaught error prints its traceback and exits 1; ``SystemExit``
    reports its status, a message printed to stderr as status 1."""
    code = f"def main() -> None:\n    raise {raised}\ncli.main = main"
    done = harness(code, [], tmp_path)
    assert done.returncode == status
    if stderr is None:
        assert done.stderr == ""
    else:
        assert done.stderr.splitlines()[-1] == stderr
        assert ("Traceback" in done.stderr) == raised.startswith("RuntimeError")


def test_a_usage_error_exits_2(tmp_path):
    done = process(["forecast", "--offline"], tmp_path)
    assert done.returncode == 2
    assert done.stderr.startswith(b"usage: finorch forecast")
    assert b"Traceback" not in done.stderr


def test_the_finorch_script_is_the_entry_point():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((REPO / "pyproject.toml").read_text(encoding="utf-8"))
    assert project["project"]["scripts"] == {"finorch": "finorch.cli:entry"}


def test_main_never_ends_the_process(tmp_path):
    """``main`` returns or raises ``SystemExit``, and neither it nor the
    import of ``finorch.cli`` registers an exit handler: in-process
    callers, the tests and the benchmark, go on after it."""
    config = str(write_config(tmp_path))
    script = f"""
import atexit
handlers = atexit._ncallbacks()
from finorch.cli import main
main(["route", "report", "--offline", "--config", {config!r}])
for argv in (["forecast", "NOPE", "--offline", "--config", {config!r}], ["nope"]):
    try:
        main(argv)
    except SystemExit as exc:
        print("exit", exc.code)
print("handlers added:", atexit._ncallbacks() - handlers)
"""
    done = python(script, [], tmp_path)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == [
        "report-writer", "exit 1", "exit 2", "handlers added: 0"
    ]


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_no_file_is_left_open_when_a_command_returns(command, tmp_path):
    """The process ends without flushing what is still open, so a buffered
    file left open by a command would lose its tail."""
    args = [*COMMANDS[command], "--config", str(write_config(tmp_path))]
    result = run_cli(args)
    assert result.exit_code == (1 if command == "forecast-no-fixture" else 0)
    open_files = [
        obj.name
        for obj in gc.get_objects()
        if isinstance(obj, io.IOBase)
        and not obj.closed
        and isinstance(getattr(obj, "name", None), str)
        and Path(obj.name).is_relative_to(tmp_path)
    ]
    assert open_files == []
