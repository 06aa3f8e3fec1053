"""Multi-agent workflow: one runner drives every task kind.

A task flows through the paper's named roles:

* the Director routes it to the best-scored agent and owns final acceptance,
* the Assistant assembles the evidence (market data or document analysis),
* the Financial Analyst has the routed agent's backend write the output,
  parses it, and assesses it.

``run_task`` owns routing, the audit trace, role tagging, self-assessment,
finalization and artifact writing. Each app supplies only its act step:
gather evidence, prompt, chat, parse, and name the artifacts to keep.
"""

from __future__ import annotations

import datetime as dt
import json
import os
from collections.abc import Callable, Iterator, Mapping
from contextlib import contextmanager
from pathlib import Path
from typing import Any

from finorch.clock import Clock, SystemClock, isoformat
from finorch.dataops.types import parse_date
from finorch.errors import ConfigError, EngineError
from finorch.gateway import ChatMessage, Gateway
from finorch.prompts import LANGUAGES, PromptStore
from finorch.record import Record
from finorch.scheduler import (
    TASK_KINDS,
    Reflection,
    Scheduler,
    WorkflowEvaluation,
)

ROLE_DIRECTOR = "Director"
ROLE_ASSISTANT = "Assistant"
ROLE_FINANCIAL_ANALYST = "Financial Analyst"


class Task(Record):
    """One unit of routable work."""

    task_id: str
    task_kind: str
    subject: str
    cutoff_date: dt.date
    horizon: int
    instruction_text: str
    language: str
    __slots__ = (
        "task_id", "task_kind", "subject", "cutoff_date", "horizon",
        "instruction_text", "language",
    )

    def __init__(
        self, task_id: str, task_kind: str, subject: str,
        cutoff_date: dt.date | str, horizon: int, instruction_text: str,
        language: str = "en"
    ) -> None:
        if not task_id:
            raise ValueError("task_id must be non-empty")
        if task_kind not in TASK_KINDS:
            raise ValueError(f"unknown task kind {task_kind!r}")
        if not subject:
            raise ValueError("subject must be non-empty")
        if language not in LANGUAGES:
            raise ValueError(f"unsupported language {language!r}")
        if task_kind == "forecast" and horizon < 1:
            raise ValueError(
                f"forecast horizon must be at least 1 day, got {horizon}"
            )
        object.__setattr__(self, "task_id", task_id)
        object.__setattr__(self, "task_kind", task_kind)
        object.__setattr__(self, "subject", subject)
        object.__setattr__(self, "cutoff_date", parse_date(cutoff_date))
        object.__setattr__(self, "horizon", horizon)
        object.__setattr__(self, "instruction_text", instruction_text)
        object.__setattr__(self, "language", language)


class Trace:
    """The run's audit trace: one JSON line per record, stamped by role."""

    def __init__(self, path: Path | None, clock: Clock):
        self._path = path
        self._clock = clock
        if path is not None:
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text("", encoding="utf-8")

    def emit(self, role: str, record: dict[str, Any]) -> None:
        full = {"role": role, "at": isoformat(self._clock.now()), **record}
        if self._path is not None:
            with self._path.open("a", encoding="utf-8") as fh:
                fh.write(json.dumps(full, ensure_ascii=False, sort_keys=True))
                fh.write("\n")

    def fail(self, role: str, exc: EngineError, **context: Any) -> EngineError:
        """Record ``exc`` as the failure of ``role``'s stage and tag it."""
        self.emit(role, {"event": "error", **context, "error": str(exc)})
        return exc.with_role(role)

    @contextmanager
    def stage(self, role: str, **context: Any) -> Iterator[None]:
        """Any EngineError inside the block is ``role``'s failure."""
        try:
            yield
        except EngineError as exc:
            raise self.fail(role, exc, **context)


def _replace_text(path: Path, text: str) -> None:
    """Write ``text`` to a unique temporary file beside ``path``, then
    rename it over ``path``: a reader finds the old file or the new one,
    never a torn one, and a failed write leaves no temporary file. The
    file is opened like any new one, so the umask sets its mode."""
    tmp = path.with_name(f"{path.name}.{os.urandom(6).hex()}.tmp")
    handle = open(tmp, "x", encoding="utf-8")
    try:
        with handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


class Outcome(Record):
    """What an app's act step hands back to the runner."""

    value: Any  # the app's own result, returned untouched
    final_output: str  # the text self-assessment and the judge read
    artifact: str  # JSON file in the run dir: ``payload`` plus run fields
    payload: Mapping[str, Any]
    texts: Mapping[str, str]  # file -> text
    __slots__ = ("value", "final_output", "artifact", "payload", "texts")

    def __init__(
        self, value: Any, final_output: str, artifact: str,
        payload: Mapping[str, Any], texts: Mapping[str, str] | None = None
    ) -> None:
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "final_output", final_output)
        object.__setattr__(self, "artifact", artifact)
        object.__setattr__(self, "payload", payload)
        object.__setattr__(self, "texts", {} if texts is None else texts)


class TaskRun(Record):
    """One finished task: the act step's value and the Director's grade."""

    value: Any
    evaluation: WorkflowEvaluation | None
    run_dir: Path | None
    __slots__ = ("value", "evaluation", "run_dir")

    def __init__(
        self, value: Any, evaluation: WorkflowEvaluation | None,
        run_dir: Path | None
    ) -> None:
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "evaluation", evaluation)
        object.__setattr__(self, "run_dir", run_dir)


def run_task(
    task: Task,
    act: Callable[[str, Trace], Outcome],
    *,
    scheduler: Scheduler,
    gateway: Gateway,
    prompt_store: PromptStore,
    runs_dir: Path | None = None,
    clock: Clock | None = None,
) -> TaskRun:
    """Route -> act -> self-assess and judge -> finalize -> write, for one
    task.

    ``act`` receives the routed agent's backend id and the trace. When
    self-assessment or the judge fails after ``act`` returned, its
    artifacts are still written, with a null grade and self-score, before
    the error propagates.
    """
    clock = clock or SystemClock()
    run_dir = (runs_dir / task.task_id) if runs_dir is not None else None
    trace = Trace(run_dir / "trace.jsonl" if run_dir is not None else None, clock)

    with trace.stage(ROLE_DIRECTOR):
        agent = scheduler.route(
            task, recorder=lambda rec: trace.emit(ROLE_DIRECTOR, rec)
        )
    backend_id = scheduler.get_agent(agent).backend_id
    outcome = act(backend_id, trace)

    def write(grade: float | None, self_score: float | None) -> None:
        if run_dir is None:
            return
        for name, text in outcome.texts.items():
            _replace_text(run_dir / name, text)
        payload = {
            **outcome.payload,
            "task_id": task.task_id,
            "agent": agent,
            "grade": grade,
            "self_score": self_score,
            "generated_at": isoformat(clock.now()),
        }
        _replace_text(
            run_dir / outcome.artifact,
            json.dumps(payload, ensure_ascii=False, indent=2, sort_keys=True)
            + "\n",
        )

    try:
        reflection, evaluation = _assess(
            task, agent, backend_id, outcome, trace,
            scheduler, gateway, prompt_store,
        )
    except EngineError:
        # The parsed output is kept; a null grade and self-score, beside the
        # trace's error record, mark it as never assessed.
        write(None, None)
        raise
    write(evaluation.grade if evaluation else None, reflection.self_score)
    return TaskRun(value=outcome.value, evaluation=evaluation, run_dir=run_dir)


def _assess(
    task: Task, agent: str, backend_id: str, outcome: Outcome, trace: Trace,
    scheduler: Scheduler, gateway: Gateway, prompt_store: PromptStore,
) -> tuple[Reflection, WorkflowEvaluation | None]:
    """Self-assess and judge one run's output, then finalize it."""
    # The judge reads only the final output and the acceptance text, so the
    # self-assessment and the judge chat go out together.
    with trace.stage(ROLE_FINANCIAL_ANALYST):
        prompt = prompt_store.render(
            "self_assessment",
            {"task_id": task.task_id, "output": outcome.final_output},
            task.language,
        )
    requests = [(backend_id, [ChatMessage(role="user", content=prompt)])]
    skipped: ConfigError | None = None
    with trace.stage(ROLE_DIRECTOR):
        try:
            requests.append(
                scheduler.judge_request(
                    outcome.final_output, task.instruction_text
                )
            )
        except ConfigError as exc:  # no judge backend: grading is skipped
            skipped = exc
    assessment, *judged = gateway.chat_many(requests)

    with trace.stage(ROLE_FINANCIAL_ANALYST):
        if isinstance(assessment, EngineError):
            raise assessment
        reflection = scheduler.record_reflection(
            agent, task.task_id, assessment.response_text
        )
    trace.emit(
        ROLE_FINANCIAL_ANALYST,
        {"event": "self_assessment", "self_score": reflection.self_score},
    )

    evaluation: WorkflowEvaluation | None = None
    with trace.stage(ROLE_DIRECTOR):
        if skipped is not None:
            trace.emit(
                ROLE_DIRECTOR,
                {"event": "finalize_skipped", "reason": str(skipped)},
            )
        else:
            [judge] = judged
            if isinstance(judge, EngineError):
                raise judge
            evaluation = scheduler.finalize_workflow(
                task.task_id, judge.response_text, reflection
            )
            trace.emit(
                ROLE_DIRECTOR, {"event": "finalized", "grade": evaluation.grade}
            )
    return reflection, evaluation
