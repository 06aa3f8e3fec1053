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
from collections.abc import Callable, Iterator, Mapping
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from finorch.clock import Clock, SystemClock, isoformat
from finorch.dataops.types import parse_date
from finorch.errors import ConfigError, EngineError
from finorch.gateway import ChatMessage, Gateway
from finorch.prompts import LANGUAGES, PromptStore
from finorch.scheduler import Scheduler, WorkflowEvaluation

TASK_KINDS = ("forecast", "report")
ROLE_DIRECTOR = "Director"
ROLE_ASSISTANT = "Assistant"
ROLE_FINANCIAL_ANALYST = "Financial Analyst"


@dataclass(frozen=True)
class Task:
    """One unit of routable work."""

    task_id: str
    task_kind: str
    subject: str
    cutoff_date: dt.date
    horizon: int
    instruction_text: str
    language: str = "en"

    def __post_init__(self) -> None:
        if not self.task_id:
            raise ValueError("task_id must be non-empty")
        if self.task_kind not in TASK_KINDS:
            raise ValueError(f"unknown task kind {self.task_kind!r}")
        if not self.subject:
            raise ValueError("subject must be non-empty")
        if self.language not in LANGUAGES:
            raise ValueError(f"unsupported language {self.language!r}")
        if self.task_kind == "forecast" and self.horizon < 1:
            raise ValueError(
                f"forecast horizon must be at least 1 day, got {self.horizon}"
            )
        object.__setattr__(self, "cutoff_date", parse_date(self.cutoff_date))


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


@dataclass(frozen=True)
class Outcome:
    """What an app's act step hands back to the runner."""

    value: Any  # the app's own result, returned untouched
    final_output: str  # the text self-assessment and the judge read
    artifact: str  # JSON file in the run dir: ``payload`` plus run fields
    payload: Mapping[str, Any]
    texts: Mapping[str, str] = field(default_factory=dict)  # file -> text


@dataclass(frozen=True)
class TaskRun:
    """One finished task: the act step's value and the Director's grade."""

    value: Any
    evaluation: WorkflowEvaluation | None
    run_dir: Path | None


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
    """Route -> act -> self-assess -> finalize -> write, for one task.

    ``act`` receives the routed agent's backend id and the trace.
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

    with trace.stage(ROLE_FINANCIAL_ANALYST):
        prompt = prompt_store.render(
            "self_assessment",
            {"task_id": task.task_id, "output": outcome.final_output},
            task.language,
        )
        assessment = gateway.chat(
            backend_id, [ChatMessage(role="user", content=prompt)]
        )
        reflection = scheduler.record_reflection(
            agent, task.task_id, assessment.response_text
        )
    trace.emit(
        ROLE_FINANCIAL_ANALYST,
        {"event": "self_assessment", "self_score": reflection.self_score},
    )

    evaluation: WorkflowEvaluation | None = None
    with trace.stage(ROLE_DIRECTOR):
        try:
            evaluation = scheduler.finalize_workflow(
                task.task_id,
                outcome.final_output,
                task.instruction_text,
                reflection,
            )
        except ConfigError as exc:  # no judge backend: grading is skipped
            trace.emit(
                ROLE_DIRECTOR, {"event": "finalize_skipped", "reason": str(exc)}
            )
        else:
            trace.emit(
                ROLE_DIRECTOR, {"event": "finalized", "grade": evaluation.grade}
            )

    if run_dir is not None:
        for name, text in outcome.texts.items():
            (run_dir / name).write_text(text, encoding="utf-8")
        payload = {
            **outcome.payload,
            "task_id": task.task_id,
            "agent": agent,
            "grade": evaluation.grade if evaluation else None,
            "self_score": reflection.self_score,
            "generated_at": isoformat(clock.now()),
        }
        (run_dir / outcome.artifact).write_text(
            json.dumps(payload, ensure_ascii=False, indent=2, sort_keys=True)
            + "\n",
            encoding="utf-8",
        )
    return TaskRun(value=outcome.value, evaluation=evaluation, run_dir=run_dir)
