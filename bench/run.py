"""The finorch benchmark: four closed-loop workloads driven through the CLI.

Run from the repository root:

    python3 bench/run.py --workload offline-hot --seed 1 --seconds 25 --trace 0

One client issues one CLI command at a time until ``--seconds`` have
passed, checks every command's outputs, and prints one JSON line: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``. See bench/README.md for the workloads and metric names.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from bisect import bisect_left
from pathlib import Path

import gen
import stats
from spans import END, NAME, NOTE, OP, PARENT, START, Recorder, self_times

REPO = Path.cwd()
BENCH = Path(__file__).resolve().parent
WORKLOADS = ("cli-cold", "offline-hot", "llm-latency", "state-history")
KINDS = ("forecast", "report", "evaluate", "route")

# Ops a 25-second run completes, rounded down, on a 2-vCPU x86-64 VM.
EXPECTED_OPS = {"cli-cold": 38, "offline-hot": 900, "llm-latency": 85, "state-history": 85}
# The tail percentile reported as op_tail_ms is fixed per workload, so it
# means the same in every run: the highest one with at least ten samples
# beyond it at the expected op count.
TAIL_PCT = {name: stats.tail_percentile(n) for name, n in EXPECTED_OPS.items()}
SETUP_REPEATS = 5
# The host is shared and a core's speed can double from one minute to the
# next, so every op and set-up time is rescaled to a reference speed: a
# fixed pure-Python loop of CAL_LOOPS iterations is timed between
# consecutive ops (and set-ups), and the time is scaled by REF_LOOP_MS over
# the mean of the loops just before and just after it. The time spent in
# requests to the stand-in is its fixed delays, which do not follow the
# host's speed, so it is kept as measured. The benchmark and its children
# share one pinned core, so the loop runs where the commands run.
CAL_LOOPS = 40_000
REF_LOOP_MS = 3.0
CHAT_DELAY_MS = {"llm-latency": 20.0, "state-history": 0.0}
MARKET_DELAY_MS = {"llm-latency": 5.0, "state-history": 0.0}
CHILD_TIMEOUT_S = 60.0

END_TO_END = [
    ("setup_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("ops_per_s", "1/s"),
    *[(f"{kind}_p50_ms", "ms") for kind in KINDS],
    ("peak_rss_mb", "MB"),
]


class BenchError(Exception):
    """The benchmark itself cannot run here."""


# ── running one CLI command ──────────────────────────────────────────────


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(REPO / "src"), env.get("PYTHONPATH", "")) if p
    )
    return env


def run_child(cmd: list[str], cwd: Path) -> tuple[int, str, float, int]:
    """Run one child to completion: (exit code, stdout, seconds, peak RSS KiB)."""
    with open(cwd / ".stdout", "w+b") as out:
        started = time.monotonic()
        proc = subprocess.Popen(
            cmd, cwd=cwd, stdout=out, stderr=subprocess.DEVNULL,
            stdin=subprocess.DEVNULL, env=child_env(),
        )
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        elapsed = time.monotonic() - started
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        stdout = out.read().decode("utf-8", "replace")
    return proc.returncode, stdout, elapsed, usage.ru_maxrss


def call_in_process(argv: list[str]) -> tuple[int, str, float, float]:
    """``finorch.cli.main`` in this process: (exit code, stdout, start, end)."""
    import finorch.cli

    out, err = io.StringIO(), io.StringIO()
    code = 0
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        started = time.monotonic()
        try:
            finorch.cli.main(argv, standalone_mode=False)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # noqa: BLE001 - any escape is a failed op
            code = -1
            out.write(f"\nuncaught {type(exc).__name__}: {exc}\n")
        ended = time.monotonic()
    return code, out.getvalue(), started, ended


# ── checking one command ─────────────────────────────────────────────────


def saved_dir(stdout: str) -> Path | None:
    for line in stdout.splitlines():
        if line.startswith("saved: "):
            return Path(line[len("saved: "):]).parent
    return None


def dir_digest(run_dir: Path) -> tuple[str, int, int]:
    """(sha256 over the run's files, total bytes, trace records)."""
    digest = hashlib.sha256()
    size = records = 0
    for path in sorted(run_dir.iterdir()):
        data = path.read_bytes()
        digest.update(path.name.encode() + b"\0" + data + b"\0")
        size += len(data)
        if path.name == "trace.jsonl":
            records = data.count(b"\n")
    return digest.hexdigest(), size, records


def check(op: dict, code: int, stdout: str) -> dict:
    """Verify one command's outputs; returns the op's observations."""
    seen = {"error": None, "digest": None, "bytes": 0, "records": 0, "chunks": None}
    if code != 0:
        seen["error"] = f"exit {code}: {stdout.strip()[-300:]}"
        return seen
    try:
        kind = op["kind"]
        if kind in ("forecast", "report"):
            run_dir = saved_dir(stdout)
            if run_dir is None:
                raise AssertionError("no 'saved:' line")
            seen["digest"], seen["bytes"], seen["records"] = dir_digest(run_dir)
            if kind == "forecast":
                check_forecast(op, run_dir)
            else:
                seen["chunks"] = check_report(run_dir)
        else:
            payload = json.loads(stdout)
            seen["digest"] = hashlib.sha256(stdout.encode()).hexdigest()
            if kind == "evaluate":
                for task_kind, agent in gen.EXPECTED_AGENT.items():
                    top = payload[task_kind][0]["agent_id"]
                    assert top == agent, f"{task_kind} ranked {top} first"
            else:
                chosen = payload["chosen"]
                expected = gen.EXPECTED_AGENT[op["task_kind"]]
                assert chosen == expected, f"routed to {chosen}"
    except (AssertionError, OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        seen["error"] = f"{type(exc).__name__}: {exc}"
    return seen


def check_forecast(op: dict, run_dir: Path) -> None:
    artifact = json.loads((run_dir / "forecast.json").read_text(encoding="utf-8"))
    band = gen.ZH_BAND if op["lang"] == "zh" else gen.EXPECTED_BAND[(op["symbol"], "en")]
    got = artifact["prediction"]
    assert got["direction"] == "up", f"direction {got['direction']}"
    assert (got["low"], got["high"]) == band, f"band {got['low']}-{got['high']}"
    assert artifact["agent"] == gen.EXPECTED_AGENT["forecast"], artifact["agent"]


def check_report(run_dir: Path) -> int:
    analysis = json.loads((run_dir / "analysis.json").read_text(encoding="utf-8"))
    assert analysis["agent"] == gen.EXPECTED_AGENT["report"], analysis["agent"]
    assert tuple(analysis["sections"]) == gen.REPORT_SECTION_NAMES, analysis["sections"]
    values = {i["name"]: i["value"] for i in analysis["indicators"]}
    for name, value in gen.EXPECTED_INDICATORS.items():
        assert values.get(name) == value, f"indicator {name} = {values.get(name)}"
    body = (run_dir / "report.md").read_text(encoding="utf-8")
    blocks = body.split("\n## ")[1:]
    assert len(blocks) == 5, f"{len(blocks)} sections"
    for block in blocks:
        assert "_Sources: `chunk-" in block, f"section without refs: {block[:40]!r}"
    return analysis["chunks"]


def count_rows(path: Path) -> int:
    try:
        return path.read_bytes().count(b"\n")
    except FileNotFoundError:
        return 0


# ── the stand-in server ──────────────────────────────────────────────────


class StandIn:
    """The loopback stand-in in its own process; its request log is read
    when it stops."""

    def __init__(self, work: Path, chat_delay_ms: float, market_delay_ms: float):
        self.log_path = work / "standin.jsonl"
        self.proc = subprocess.Popen(
            [
                sys.executable, str(BENCH / "standin.py"),
                "--fixtures", str(REPO / "fixtures"),
                "--chat-delay-ms", str(chat_delay_ms),
                "--market-delay-ms", str(market_delay_ms),
                "--log", str(self.log_path),
            ],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=child_env(),
        )
        line = self.proc.stdout.readline().decode()
        if not line.startswith("PORT "):
            self.stop()
            raise BenchError("stand-in server did not start")
        self.url = f"http://127.0.0.1:{int(line.split()[1])}"

    def stop(self) -> list[tuple[float, float, str]]:
        if self.proc.stdin and not self.proc.stdin.closed:
            self.proc.stdin.close()
        try:
            self.proc.wait(timeout=15)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()
        if not self.log_path.exists():
            return []
        rows = []
        for line in self.log_path.read_text(encoding="utf-8").splitlines():
            arrival, finish, path, _model = json.loads(line)
            rows.append((arrival, finish, path))
        return rows


# ── workloads ────────────────────────────────────────────────────────────


class Workload:
    """Inputs, set-up and one op for a workload; the loop lives in run()."""

    in_process = True
    offline = True

    def __init__(self, name: str, seed: int, work: Path):
        self.name, self.work = name, work
        self.rng = random.Random(f"{name}:{seed}:inputs")
        self.standin: StandIn | None = None
        self.filings = self.make_filings()

    def make_filings(self) -> list[Path]:
        if self.name in gen.FIXED_FILING_CHARS:
            sizes = [gen.FIXED_FILING_CHARS[self.name]] * gen.FIXED_FILING_POOL
        else:
            sizes = gen.filing_sizes(self.rng, gen.FILING_POOL)
        return gen.write_filings(self.rng, self.work / "filings", sizes)

    def offline_argv(self, argv: list[str]) -> list[str]:
        return [*argv, "--offline"] if self.offline else argv

    def fresh_dir(self, name: str) -> Path:
        path = self.work / name
        if path.exists():
            shutil.rmtree(path)
        path.mkdir(parents=True)
        return path

    def setup_once(self, k: int) -> float:
        """One set-up: a fresh interpreter imports finorch, builds the
        engine and answers one command. Returns its wall seconds."""
        cwd = self.fresh_dir(f"setup-{k}")
        (cwd / "config.yaml").write_text(gen.config_text(REPO), encoding="utf-8")
        argv = self.offline_argv(["route", "forecast", "--json"])
        code, stdout, seconds, _ = run_child([sys.executable, "-m", "finorch.cli", *argv], cwd)
        if check({"kind": "route", "task_kind": "forecast"}, code, stdout)["error"]:
            raise BenchError(f"set-up command failed: {stdout[-300:]}")
        return seconds

    def op(self, index: int, op: dict, recorder: Recorder | None) -> dict:
        raise NotImplementedError

    def close(self) -> list[tuple[float, float, str]]:
        return self.standin.stop() if self.standin else []


class CliCold(Workload):
    """Each op: ``python -m finorch.cli ... --offline`` in a fresh directory."""

    in_process = False

    def op(self, index, op, recorder):
        cwd = self.fresh_dir("op")
        (cwd / "config.yaml").write_text(gen.config_text(REPO), encoding="utf-8")
        argv = self.offline_argv(op["argv"])
        probe = cwd / ".probe.json"
        if recorder is not None:
            cmd = [sys.executable, str(BENCH / "cliprobe.py"), str(probe), "--trace", "--", *argv]
        else:
            cmd = [sys.executable, "-m", "finorch.cli", *argv]
        started = time.monotonic()
        code, stdout, seconds, rss = run_child(cmd, cwd)
        result = {"start": started, "end": started + seconds, "code": code,
                  "stdout": stdout, "rss_kb": rss, "rows_before": 0}
        result["rows_after"] = count_rows(cwd / "state" / "task_scores.jsonl")
        if recorder is not None and probe.exists():
            child = json.loads(probe.read_text(encoding="utf-8"))
            offset = len(recorder.spans)
            for span in child["spans"]:
                span[PARENT] = span[PARENT] + offset if span[PARENT] >= 0 else -1
                span[OP] = index
                recorder.spans.append(span)
            recorder.missing = child["missing"]
        return result


class OfflineHot(Workload):
    """Each op: one in-process ``--offline`` command in a fresh state/runs
    directory with its own config file."""

    def op(self, index, op, recorder):
        cwd = self.fresh_dir("op")
        config = cwd / "config.yaml"
        config.write_text(gen.config_text(REPO), encoding="utf-8")
        argv = [*self.offline_argv(op["argv"]), "--config", str(config)]
        return run_in_process(argv, recorder, index, cwd / "state" / "task_scores.jsonl")


class Live(Workload):
    """In-process commands against the stand-in server; one state
    directory and one response cache for the whole run."""

    offline = False

    def __init__(self, name, seed, work):
        super().__init__(name, seed, work)
        os.environ["BENCH_LLM_KEY"] = "bench-dummy-key"
        os.environ["BENCH_MARKET_TOKEN"] = "bench-dummy-token"
        os.environ["NO_PROXY"] = os.environ["no_proxy"] = "127.0.0.1,localhost"
        self.standin = StandIn(work, CHAT_DELAY_MS[name], MARKET_DELAY_MS[name])
        self.live = self.fresh_dir("live")
        self.config = self.live / "config.yaml"
        self.config.write_text(
            gen.config_text(REPO, base_url=self.standin.url), encoding="utf-8"
        )
        self.state_file = self.live / "state" / "task_scores.jsonl"

    def op(self, index, op, recorder):
        argv = [*op["argv"], "--config", str(self.config)]
        return run_in_process(argv, recorder, index, self.state_file)


class LlmLatency(Live):
    """Steady state: every op starts from the scores persisted in set-up,
    so the history appended by earlier ops does not grow the load time
    (state-history measures that)."""

    def setup_once(self, k):
        """Cold evaluation against the delayed stand-in in a fresh
        interpreter; the last one's persisted scores serve the run."""
        state = self.live / "state"
        if state.exists():
            shutil.rmtree(state)
        code, stdout, seconds, _ = run_child(
            [sys.executable, "-m", "finorch.cli", "evaluate", "--json", "--config", str(self.config)],
            self.live,
        )
        if check({"kind": "evaluate"}, code, stdout)["error"]:
            raise BenchError(f"cold evaluation failed: {stdout[-300:]}")
        self.snapshot = {p.name: p.read_bytes() for p in state.iterdir()}
        return seconds

    def op(self, index, op, recorder):
        state = self.live / "state"
        for path in state.iterdir():
            if path.name not in self.snapshot:
                path.unlink()
        for name, data in self.snapshot.items():
            (state / name).write_bytes(data)
        return super().op(index, op, recorder)


class StateHistory(Live):
    def __init__(self, name, seed, work):
        super().__init__(name, seed, work)
        gen.write_history(self.live / "state", seed)

    def setup_once(self, k):
        """A fresh interpreter loads the grown history and routes once."""
        code, stdout, seconds, _ = run_child(
            [sys.executable, "-m", "finorch.cli", "route", "forecast", "--json",
             "--config", str(self.config)],
            self.live,
        )
        if check({"kind": "route", "task_kind": "forecast"}, code, stdout)["error"]:
            raise BenchError(f"set-up route failed: {stdout[-300:]}")
        return seconds


WORKLOAD_TYPES = {
    "cli-cold": CliCold,
    "offline-hot": OfflineHot,
    "llm-latency": LlmLatency,
    "state-history": StateHistory,
}


def run_in_process(argv, recorder, index, state_file) -> dict:
    before = count_rows(state_file) if recorder is not None else 0
    if recorder is not None:
        recorder.op = index
        recorder.install()
    try:
        code, stdout, started, ended = call_in_process(argv)
    finally:
        if recorder is not None:
            recorder.uninstall()
    result = {"start": started, "end": ended, "code": code, "stdout": stdout,
              "rss_kb": 0, "rows_before": before}
    if recorder is not None:
        result["rows_after"] = count_rows(state_file)
    return result


# ── the run ──────────────────────────────────────────────────────────────


def median(values):
    return statistics.median(values) if values else 0.0


def latency_ms(ops: list[dict], pct: float) -> float | None:
    """Percentile of op latency; a failed op counts as infinitely slow."""
    values = [o["ms"] if not o["error"] else math.inf for o in ops]
    if not values:
        return 0.0
    value = stats.percentile(values, pct)
    return value if math.isfinite(value) else None


def host_loop_ms() -> float:
    """Wall time of the fixed calibration loop, in ms."""
    started = time.perf_counter()
    total = 0
    for i in range(CAL_LOOPS):
        total += i % 7
    return (time.perf_counter() - started) * 1e3


def run(name: str, seed: int, seconds: float, trace: bool, out_dir: Path) -> dict:
    work = REPO / ".bench_work" / f"{name}-{os.getpid()}"
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    workload = None
    try:
        workload = WORKLOAD_TYPES[name](name, seed, work)
        setups, setup_loops = [], [host_loop_ms()]
        for k in range(SETUP_REPEATS):
            started = time.monotonic()
            took = workload.setup_once(k)
            setups.append((started, time.monotonic(), took))
            setup_loops.append(host_loop_ms())
        cli_probe = probe_cli(workload) if trace else {}
        recorder = Recorder() if trace else None
        if workload.in_process:
            import finorch.cli  # noqa: F401 - imported once, before timing

        stream = gen.op_stream(name, seed, workload.filings)
        ops: list[dict] = []
        digests: dict[str, str] = {}
        errors: list[str] = []
        loop_ms = [host_loop_ms()]
        deadline = time.monotonic() + seconds
        while time.monotonic() < deadline:
            op = next(stream)
            index = len(ops)
            traced = trace and index % 2 == 1
            result = workload.op(index, op, recorder if traced else None)
            loop_ms.append(host_loop_ms())
            seen = check(op, result.pop("code"), result.pop("stdout"))
            key = gen.input_key(op)
            if seen["digest"] is not None:
                first = digests.setdefault(key, seen["digest"])
                if workload.offline and first != seen["digest"] and not seen["error"]:
                    seen["error"] = f"artifacts differ from the first run of {key!r}"
            if seen["error"]:
                errors.append(f"op {index} ({key}): {seen['error']}")
            ops.append({**op, **result, **seen, "traced": traced})
        server_log = workload.close()
        workload = None
    finally:
        if workload is not None:
            workload.close()
        shutil.rmtree(work, ignore_errors=True)

    requests = sorted((arrival, finish) for arrival, finish, _ in server_log)
    for o, scale in zip(ops, stats.speed_scales(loop_ms, REF_LOOP_MS)):
        wait = waited_s(requests, o["start"], o["end"])
        o["ms"] = at_reference_ms(o["end"] - o["start"], wait, scale)
    setup_ms = [
        at_reference_ms(took, waited_s(requests, started, ended), scale)
        for (started, ended, took), scale in zip(
            setups, stats.speed_scales(setup_loops, REF_LOOP_MS)
        )
    ]
    failed = sum(1 for o in ops if o["error"])
    if trace:
        metrics = per_layer(name, ops, recorder, server_log, cli_probe)
    else:
        metrics = end_to_end(name, ops, setup_ms)
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "attempted": len(ops), "failed": failed, "errors": errors[:20],
        "tail_percentile": TAIL_PCT[name],
        "tail_samples_beyond": len(ops) * (100.0 - TAIL_PCT[name]) / 100.0,
        "digests": digests, "metrics": metrics, "loop_ms": loop_ms,
        "setup_loop_ms": setup_loops, "setup_s_measured": [took for _, _, took in setups],
        # [command, reported ms, measured ms, ok]
        "ops": [[o["kind"], o["ms"], (o["end"] - o["start"]) * 1e3, not o["error"]] for o in ops],
    }
    out_dir.mkdir(parents=True, exist_ok=True)
    suffix = "trace" if trace else "e2e"
    (out_dir / f"{name}-{suffix}.json").write_text(json.dumps(record, indent=1) + "\n")
    if trace:
        (out_dir / f"{name}-spans.json").write_text(json.dumps(recorder.spans) + "\n")
    for line in errors[:5]:
        print(line, file=sys.stderr)
    return {"correct": failed == 0, "attempted": len(ops), "failed": failed, "metrics": metrics}


def waited_s(requests: list[tuple[float, float]], start: float, end: float) -> float:
    """Seconds of [start, end] covered by requests to the stand-in, given
    as (arrival, finish) pairs sorted by arrival."""
    inside = requests[bisect_left(requests, (start,)) : bisect_left(requests, (end,))]
    return stats.covered([(arrival, min(finish, end)) for arrival, finish in inside])


def at_reference_ms(wall_s: float, wait_s: float, scale: float) -> float:
    """A measured time in ms at the reference host speed: the wait on the
    stand-in as measured, the rest multiplied by ``scale``."""
    return (wait_s + (wall_s - wait_s) * scale) * 1e3


def end_to_end(name: str, ops: list[dict], setup_ms: list[float]) -> dict:
    busy_ms = sum(o["ms"] for o in ops)
    values = {
        "setup_s": median(setup_ms) / 1e3,
        "op_p50_ms": latency_ms(ops, 50.0),
        "op_tail_ms": latency_ms(ops, TAIL_PCT[name]),
        # One client with no think time: the harness's own work between
        # commands is not the program's.
        "ops_per_s": len(ops) * 1e3 / busy_ms,
    }
    for kind in KINDS:
        values[f"{kind}_p50_ms"] = latency_ms([o for o in ops if o["kind"] == kind], 50.0)
    if any(o["rss_kb"] for o in ops):
        peak_kb = max(o["rss_kb"] for o in ops)
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    values["peak_rss_mb"] = peak_kb / 1024.0
    return {key: {"value": values[key], "unit": unit} for key, unit in END_TO_END}


def probe_cli(workload: Workload) -> dict:
    """Interpreter start, import of finorch.cli, and whether an offline
    command imports ``requests``, each measured in fresh interpreters."""
    cwd = workload.fresh_dir("probe")
    (cwd / "config.yaml").write_text(gen.config_text(REPO), encoding="utf-8")
    interpreter, imports, requests_seen = [], [], []
    for _ in range(SETUP_REPEATS):
        interpreter.append(run_child([sys.executable, "-c", "pass"], cwd)[2] * 1000.0)
        out = cwd / ".probe.json"
        run_child([sys.executable, str(BENCH / "cliprobe.py"), str(out), "--",
                   "route", "forecast", "--offline"], cwd)
        child = json.loads(out.read_text(encoding="utf-8"))
        imports.append(child["import_ms"])
        requests_seen.append(1.0 if child["requests_imported"] else 0.0)
    return {
        "cli.import_ms": median(imports),
        "cli.interpreter_ms": median(interpreter),
        "cli.requests_imported": max(requests_seen),
    }


PER_LAYER = [
    ("cli.import_ms", "ms"),
    ("cli.interpreter_ms", "ms"),
    ("cli.requests_imported", "bool"),
    ("config.load_ms", "ms"),
    ("config.build_engine_ms", "ms"),
    ("scheduler.load_ms", "ms"),
    ("scheduler.history_rows", "rows"),
    ("scheduler.route_ms", "ms"),
    ("scheduler.rows_appended_per_op", "rows"),
    ("scheduler.evaluate_ms", "ms"),
    ("scheduler.finalize_ms", "ms"),
    ("prompts.render_us", "us"),
    ("prompts.renders_per_op", "count"),
    ("gateway.calls_per_op", "count"),
    *[(f"gateway.calls_per_op.{kind}", "count") for kind in KINDS],
    ("gateway.waves_per_op", "count"),
    *[(f"gateway.waves_per_op.{kind}", "count") for kind in KINDS],
    ("gateway.llm_wait_ms_per_op", "ms"),
    ("gateway.overhead_ms_per_call", "ms"),
    ("gateway.attempts_per_call", "count"),
    ("dataops.company_bundle_ms", "ms"),
    ("dataops.provider_requests_per_op", "count"),
    ("dataops.cache_hit_ratio", "frac"),
    ("dataops.cache_hits", "count"),
    ("dataops.cache_misses", "count"),
    ("dataops.index_ms", "ms"),
    ("dataops.retrieve_us", "us"),
    ("dataops.chunks_per_doc", "count"),
    ("workflow.perceive_ms", "ms"),
    ("workflow.trace_records_per_op", "count"),
    ("workflow.artifact_bytes_per_op", "bytes"),
    ("tools.text2params_us", "us"),
    ("apps.run_forecaster_self_ms", "ms"),
    ("apps.analyze_document_self_ms", "ms"),
    ("apps.generate_report_self_ms", "ms"),
    ("apps.parse_forecast_us", "us"),
    ("trace.overhead_frac", "frac"),
    ("trace.overhead_ms", "ms"),
    ("trace.spans_per_op", "count"),
    ("trace.unmeasured_layers", "count"),
    ("ops.failed_frac", "frac"),
]

# Per-layer metric -> the span it is read from, where it is read from one.
# Offline, the waves, the LLM wait and the provider requests come from
# spans too (added in per_layer); live, from the stand-in's log.
SPAN_OF = {
    "config.load_ms": "config.load",
    "config.build_engine_ms": "config.build_engine",
    "scheduler.load_ms": "scheduler.load",
    "scheduler.route_ms": "scheduler.route",
    "scheduler.evaluate_ms": "scheduler.evaluate",
    "scheduler.finalize_ms": "scheduler.finalize",
    "prompts.render_us": "prompts.render",
    "prompts.renders_per_op": "prompts.render",
    "gateway.calls_per_op": "gateway.chat",
    "gateway.overhead_ms_per_call": "gateway.chat",
    "gateway.attempts_per_call": "gateway.chat",
    "dataops.company_bundle_ms": "dataops.company_bundle",
    "dataops.cache_hit_ratio": "dataops.cache_get",
    "dataops.cache_hits": "dataops.cache_get",
    "dataops.cache_misses": "dataops.cache_get",
    "dataops.index_ms": "dataops.index",
    "dataops.retrieve_us": "dataops.retrieve",
    "tools.text2params_us": "tools.text2params",
    "workflow.perceive_ms": "workflow.perceive",
    "apps.run_forecaster_self_ms": "apps.run_forecaster",
    "apps.analyze_document_self_ms": "apps.analyze_document",
    "apps.generate_report_self_ms": "apps.generate_report",
    "apps.parse_forecast_us": "apps.parse_forecast",
}


def mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def per_layer(name, ops, recorder, server_log, cli_probe) -> dict:
    spans = recorder.spans
    selfs = self_times(spans)
    live = name in CHAT_DELAY_MS
    traced = [i for i, o in enumerate(ops) if o["traced"]]
    by_name: dict[str, list[int]] = {}
    by_op: dict[int, list[int]] = {}
    for i, span in enumerate(spans):
        by_name.setdefault(span[NAME], []).append(i)
        by_op.setdefault(span[OP], []).append(i)

    def per_call(span_name, scale, self_time=False):
        return median([
            (selfs[i] if self_time else spans[i][END] - spans[i][START]) * scale
            for i in by_name.get(span_name, ())
        ])

    def op_spans(index, span_name):
        return [spans[i] for i in by_op.get(index, ()) if spans[i][NAME] == span_name]

    def window(log, op):
        """Logged requests that arrived while the op ran (log sorted)."""
        return log[bisect_left(log, (op["start"],)) : bisect_left(log, (op["end"],))]

    chat_log = sorted((a, f) for a, f, p in server_log if p.endswith("/chat/completions"))
    market_log = sorted((a, f) for a, f, p in server_log if not p.endswith("/chat/completions"))
    calls, waves_n, wait, overhead_s, kinds = {}, {}, {}, 0.0, {}
    for i in traced:
        op = ops[i]
        chats = op_spans(i, "gateway.chat")
        client = [(s[START], s[END]) for s in chats]
        intervals = window(chat_log, op) if live else client
        calls[i], waves_n[i] = len(chats), stats.waves(intervals)
        wait[i] = stats.covered(intervals)
        overhead_s += sum(e - s for s, e in client) - (
            sum(f - a for a, f in intervals) if live else 0.0
        )
        kinds.setdefault(op["kind"], []).append(i)
    chat_spans = [spans[i] for i in by_name.get("gateway.chat", ())]
    cache = [spans[i] for i in by_name.get("dataops.cache_get", ())]
    misses = sum(1 for s in cache if s[NOTE] == "CacheMiss")
    forecasts = kinds.get("forecast", [])
    if live:
        provider = [len(window(market_log, ops[i])) for i in forecasts]
    else:
        provider = [len(op_spans(i, "dataops.fetch")) for i in forecasts]
    artifacts = [ops[i] for i in traced if ops[i]["kind"] in ("forecast", "report")]
    overhead_ms, overhead_frac = trace_overhead(ops)

    values = {
        **cli_probe,
        "config.load_ms": per_call("config.load", 1e3),
        "config.build_engine_ms": per_call("config.build_engine", 1e3, self_time=True),
        "scheduler.load_ms": per_call("scheduler.load", 1e3),
        "scheduler.history_rows": mean(ops[i]["rows_before"] for i in traced),
        "scheduler.route_ms": per_call("scheduler.route", 1e3),
        "scheduler.rows_appended_per_op": mean(
            ops[i]["rows_after"] - ops[i]["rows_before"] for i in traced
        ),
        "scheduler.evaluate_ms": per_call("scheduler.evaluate", 1e3),
        "scheduler.finalize_ms": per_call("scheduler.finalize", 1e3),
        "prompts.render_us": per_call("prompts.render", 1e6),
        "prompts.renders_per_op": mean(len(op_spans(i, "prompts.render")) for i in traced),
        "gateway.calls_per_op": mean(calls.values()),
        "gateway.waves_per_op": mean(waves_n.values()),
        "gateway.llm_wait_ms_per_op": mean(wait.values()) * 1e3,
        "gateway.overhead_ms_per_call": overhead_s * 1e3 / max(1, sum(calls.values())),
        "gateway.attempts_per_call": mean(s[NOTE] for s in chat_spans if isinstance(s[NOTE], int)),
        "dataops.company_bundle_ms": per_call("dataops.company_bundle", 1e3),
        "dataops.provider_requests_per_op": mean(provider),
        "dataops.cache_hit_ratio": (len(cache) - misses) / len(cache) if cache else 0.0,
        "dataops.cache_hits": len(cache) - misses,
        "dataops.cache_misses": misses,
        "dataops.index_ms": per_call("dataops.index", 1e3),
        "dataops.retrieve_us": per_call("dataops.retrieve", 1e6),
        "dataops.chunks_per_doc": mean(
            ops[i]["chunks"] for i in kinds.get("report", []) if ops[i]["chunks"] is not None
        ),
        "workflow.perceive_ms": per_call("workflow.perceive", 1e3),
        "workflow.trace_records_per_op": mean(o["records"] for o in artifacts),
        "workflow.artifact_bytes_per_op": mean(o["bytes"] for o in artifacts),
        "tools.text2params_us": per_call("tools.text2params", 1e6),
        "apps.run_forecaster_self_ms": per_call("apps.run_forecaster", 1e3, self_time=True),
        "apps.analyze_document_self_ms": per_call("apps.analyze_document", 1e3, self_time=True),
        "apps.generate_report_self_ms": per_call("apps.generate_report", 1e3, self_time=True),
        "apps.parse_forecast_us": per_call("apps.parse_forecast", 1e6),
        "trace.overhead_frac": overhead_frac,
        "trace.overhead_ms": overhead_ms,
        "trace.spans_per_op": len(spans) / max(1, len(traced)),
        "ops.failed_frac": sum(1 for o in ops if o["error"]) / len(ops),
    }
    for kind in KINDS:
        values[f"gateway.calls_per_op.{kind}"] = mean(calls[i] for i in kinds.get(kind, []))
        values[f"gateway.waves_per_op.{kind}"] = mean(waves_n[i] for i in kinds.get(kind, []))
    # A span whose every wrap target is gone leaves its metrics unmeasured.
    span_of = {f"{m}.{kind}": s for m, s in SPAN_OF.items() for kind in KINDS}
    span_of.update(SPAN_OF)
    if not live:
        span_of["gateway.llm_wait_ms_per_op"] = "gateway.chat"
        span_of["dataops.provider_requests_per_op"] = "dataops.fetch"
        for m in ("gateway.waves_per_op", *[f"gateway.waves_per_op.{k}" for k in KINDS]):
            span_of[m] = "gateway.chat"
    present = recorder.measured()
    unmeasured = {m for m, s in span_of.items() if s not in present}
    values["trace.unmeasured_layers"] = len(
        {name for _, _, name in recorder.targets} - present
    )
    return {
        key: {"value": None if key in unmeasured else values[key], "unit": unit}
        for key, unit in PER_LAYER
    }


def trace_overhead(ops: list[dict]) -> tuple[float, float]:
    """Traced minus untraced op latency (ms and as a share), compared per
    command and weighted by each command's share of the run."""
    diff = base = 0.0
    for kind in KINDS:
        lat = {False: [], True: []}
        for o in ops:
            if o["kind"] == kind and not o["error"]:
                lat[o["traced"]].append(o["ms"])
        if lat[False] and lat[True]:
            weight = sum(1 for o in ops if o["kind"] == kind) / len(ops)
            diff += weight * (median(lat[True]) - median(lat[False]))
            base += weight * median(lat[False])
    return diff, (diff / base if base else 0.0)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="finorch benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (REPO / "src" / "finorch" / "cli.py").is_file() or not (REPO / "fixtures").is_dir():
        print(
            "error: run from the root of a finorch checkout "
            "(src/finorch and fixtures/ are missing here)",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, str(REPO / "src"))
    # One core for the benchmark, its children and the stand-in: the
    # calibration loop then times the core the commands run on.
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    # A terminated run still stops the stand-in and removes its scratch files.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace), REPO / ".bench_out")
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
