"""Multi-agent workflow: one runner drives every task kind.

A task flows through the paper's named roles:

* the Director routes it to the best-scored agent and owns final acceptance,
* the Assistant assembles the evidence (market data or document analysis),
* the Financial Analyst has the routed agent's backend write the output,
  parses it, and assesses it.

``run_task`` owns routing, the audit trace, role tagging, self-assessment,
finalization and artifact writing. Every run writes its trace and artifacts
to ``<runs_dir>/<task_id>/``, stamped by the engine's clock. Each app
supplies only its act step: gather evidence, prompt, chat, parse, and name
the artifacts to keep. A ``Task`` holds only what the runner reads; what an
app alone needs (a forecast's cutoff and horizon) stays with the app.
"""

from __future__ import annotations

import json
from collections.abc import Callable, Iterator, Mapping
from contextlib import contextmanager
from pathlib import Path
from typing import Any

from finorch import files
from finorch.clock import Clock, isoformat
from finorch.errors import EngineError, unusable_path
from finorch.gateway import ChatMessage, Gateway
from finorch.prompts import LANGUAGES, PromptStore
from finorch.record import Record
from finorch.scheduler import (
    NO_JUDGE_BACKEND,
    TASK_KINDS,
    Reflection,
    Scheduler,
    WorkflowEvaluation,
)

ROLE_DIRECTOR = "Director"
ROLE_ASSISTANT = "Assistant"
ROLE_FINANCIAL_ANALYST = "Financial Analyst"


class Task(Record):
    """One unit of routable work, as the runner reads it."""

    __slots__ = ("task_id", "task_kind", "instruction_text", "language")

    def __init__(
        self, task_id: str, task_kind: str, instruction_text: str,
        language: str = "en"
    ) -> None:
        if not task_id:
            raise ValueError("task_id must be non-empty")
        if task_kind not in TASK_KINDS:
            raise ValueError(f"unknown task kind {task_kind!r}")
        if language not in LANGUAGES:
            raise ValueError(f"unsupported language {language!r}")
        super().__init__(task_id, task_kind, instruction_text, language)


class Trace:
    """The run's audit trace: one JSON line per record, stamped by role,
    through one handle that ``close`` releases."""

    def __init__(self, path: Path, clock: Clock):
        self._clock = clock
        with unusable_path("write run trace", path):
            path.parent.mkdir(parents=True, exist_ok=True)
        self._log = files.Log(path, "write run trace")

    def emit(self, role: str, record: dict[str, Any]) -> None:
        full = {"role": role, "at": isoformat(self._clock.now()), **record}
        line = json.dumps(full, ensure_ascii=False, sort_keys=True) + "\n"
        self._log.write(line.encode())

    def close(self) -> None:
        self._log.close()

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


class Outcome(Record):
    """What an app's act step hands back to the runner.

    ``value`` is the app's own result, returned untouched; ``final_output``
    the text that self-assessment and the judge read; ``artifact`` the JSON
    file in the run dir (``payload`` plus run fields); ``texts`` maps file
    -> text.
    """

    __slots__ = ("value", "final_output", "artifact", "payload", "texts")

    def __init__(
        self, value: Any, final_output: str, artifact: str,
        payload: Mapping[str, Any], texts: Mapping[str, str] | None = None
    ) -> None:
        texts = {} if texts is None else texts
        super().__init__(value, final_output, artifact, payload, texts)


class TaskRun(Record):
    """One finished task: the act step's value and the Director's grade."""

    __slots__ = ("value", "evaluation", "run_dir")

    def __init__(
        self, value: Any, evaluation: WorkflowEvaluation | None, run_dir: Path
    ) -> None:
        super().__init__(value, evaluation, run_dir)


def run_task(
    task: Task,
    act: Callable[[str, Trace], Outcome],
    *,
    scheduler: Scheduler,
    gateway: Gateway,
    prompt_store: PromptStore,
    runs_dir: Path,
    clock: Clock,
) -> TaskRun:
    """Route -> act -> self-assess and judge -> finalize -> write, for one
    task, in the run dir ``runs_dir / task.task_id``.

    ``act`` receives the routed agent's backend id and the trace. ``clock``
    stamps every trace record and the artifact's ``generated_at``. When
    self-assessment or the judge fails after ``act`` returned, its
    artifacts are still written, with a null grade and self-score, before
    the error propagates.
    """
    run_dir = runs_dir / task.task_id
    trace = Trace(run_dir / "trace.jsonl", clock)

    try:
        with trace.stage(ROLE_DIRECTOR):
            agent = scheduler.route(
                task.task_kind,
                task.task_id,
                recorder=lambda rec: trace.emit(ROLE_DIRECTOR, rec),
            )
        backend_id = scheduler.get_agent(agent).backend_id
        outcome = act(backend_id, trace)

        def write(grade: float | None, self_score: float | None) -> None:
            for name, text in outcome.texts.items():
                files.replace(run_dir / name, text.encode(), "write run artifact")
            payload = {
                **outcome.payload,
                "task_id": task.task_id,
                "agent": agent,
                "grade": grade,
                "self_score": self_score,
                "generated_at": isoformat(clock.now()),
            }
            text = json.dumps(
                payload, ensure_ascii=False, indent=2, sort_keys=True
            )
            files.replace(
                run_dir / outcome.artifact, f"{text}\n".encode(),
                "write run artifact",
            )

        try:
            reflection, evaluation = _assess(
                task, agent, backend_id, outcome, trace,
                scheduler, gateway, prompt_store,
            )
        except EngineError:
            # The parsed output is kept; a null grade and self-score, beside
            # the trace's error record, mark it as never assessed.
            write(None, None)
            raise
        write(evaluation.grade if evaluation else None, reflection.self_score)
        return TaskRun(
            value=outcome.value, evaluation=evaluation, run_dir=run_dir
        )
    finally:
        trace.close()


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
    with trace.stage(ROLE_DIRECTOR):
        judge_chat = scheduler.judge_request(
            outcome.final_output, task.instruction_text
        )
    if judge_chat is not None:
        requests.append(judge_chat)
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
        if judge_chat is None:
            trace.emit(
                ROLE_DIRECTOR,
                {"event": "finalize_skipped", "reason": NO_JUDGE_BACKEND},
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
