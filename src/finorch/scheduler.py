"""Smart Scheduler: agent registry, golden-dataset evaluation, composite
scoring, task routing, reflections, and workflow evaluations.

Scoring pipeline: per golden record the agent's adaptor prompt is sent
through the gateway and the reply graded per dimension. Raw dimension
scores are averaged over records, min-max normalized across the roster of
the task kind, and combined into a weighted composite in [0, 1]. Routing
picks the highest composite, ties broken by ascending agent id.

Grading dimensions: ``exact_match`` (normalized-whitespace, case-folded
equality) and ``token_f1`` (F1 over whitespace tokens) are computed
locally; any other dimension name is judged by a grading prompt whose
reply must contain "score: <x>".

State is kept as append-only JSON-lines files under the state directory
(task_scores.jsonl, reflections.jsonl, evaluations.jsonl); the latest
TaskScore per (agent, task kind) wins for routing.
"""

from __future__ import annotations

import dataclasses
import json
import math
import re
import threading
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Mapping, Sequence

from finorch.clock import Clock, SystemClock, isoformat
from finorch.errors import (
    ConfigError,
    DimensionMismatch,
    DuplicateAgent,
    EmptyDataset,
    EmptyInput,
    EngineError,
    GatewayFailure,
    GradeParseFailure,
    MissingDimension,
    NoScoredAgents,
    UnknownAgent,
    UnknownTask,
    WeightSumInvalid,
    WorkflowNotComplete,
)
from finorch.gateway import ChatMessage, Gateway
from finorch.prompts import PromptStore

__all__ = [
    "AgentProfile",
    "GoldenRecord",
    "Reflection",
    "Scheduler",
    "TaskScore",
    "WorkflowEvaluation",
    "composite_score",
    "grade_exact_match",
    "grade_token_f1",
    "load_golden_dataset",
    "normalize_scores",
    "parse_self_score",
]

WEIGHT_TOLERANCE = 1e-9
MAX_EXCLUDED_FRACTION = 0.2

_SELF_SCORE = re.compile(r"score:\s*(\d+(?:\.\d+)?)", re.IGNORECASE)

BUILTIN_DIMENSIONS = ("exact_match", "token_f1")


# ------------------------------------------------------------------- types


@dataclass(frozen=True)
class AgentProfile:
    agent_id: str
    backend_id: str
    task_kinds: frozenset[str]
    adaptor_prompt_id: str = "adaptor_default"
    registered_at: str = ""

    def __post_init__(self) -> None:
        if not self.agent_id:
            raise ValueError("agent_id must be non-empty")
        object.__setattr__(self, "task_kinds", frozenset(self.task_kinds))
        if not self.task_kinds:
            raise ValueError(
                f"agent {self.agent_id!r} must declare at least one task kind"
            )


@dataclass(frozen=True)
class GoldenRecord:
    record_id: str
    task_kind: str
    input_text: str
    reference_answer: str
    dimension_labels: tuple[str, ...]

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "dimension_labels", tuple(self.dimension_labels)
        )
        if not self.dimension_labels:
            raise ValueError(
                f"record {self.record_id!r} needs at least one dimension"
            )


@dataclass(frozen=True)
class TaskScore:
    agent_id: str
    task_kind: str
    raw_scores: Mapping[str, float]
    normalized_scores: Mapping[str, float]
    weights: Mapping[str, float]
    composite: float
    evaluated_at: str

    def __post_init__(self) -> None:
        object.__setattr__(self, "raw_scores", dict(self.raw_scores))
        object.__setattr__(
            self, "normalized_scores", dict(self.normalized_scores)
        )
        object.__setattr__(self, "weights", dict(self.weights))
        for name, value in self.normalized_scores.items():
            if not 0.0 <= value <= 1.0:
                raise ValueError(
                    f"normalized score {name}={value} out of [0, 1]"
                )
        total = math.fsum(self.weights.values())
        if abs(total - 1.0) > WEIGHT_TOLERANCE:
            raise WeightSumInvalid(f"weights sum to {total}, expected 1")
        recomputed = math.fsum(
            self.weights[d] * self.normalized_scores[d] for d in self.weights
        )
        if abs(recomputed - self.composite) > WEIGHT_TOLERANCE:
            raise ValueError(
                f"composite {self.composite} disagrees with weighted sum "
                f"{recomputed}"
            )
        if not 0.0 <= self.composite <= 1.0 + WEIGHT_TOLERANCE:
            raise ValueError(f"composite {self.composite} out of [0, 1]")

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


@dataclass(frozen=True)
class Reflection:
    agent_id: str
    task_id: str
    self_score: float | None
    notes: str
    created_at: str

    def __post_init__(self) -> None:
        if self.self_score is not None and not 0.0 <= self.self_score <= 1.0:
            raise ValueError(f"self_score {self.self_score} out of [0, 1]")

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


@dataclass(frozen=True)
class WorkflowEvaluation:
    workflow_id: str
    grade: float | None
    self_scores: tuple[float, ...]
    mean_self_score: float | None
    reflection_count: int
    feedback: str
    created_at: str

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


# ---------------------------------------------------------------- formulas


def normalize_scores(
    raw: Mapping[str, Mapping[str, float]],
) -> dict[str, dict[str, float]]:
    """Per-dimension min-max normalization across agents.

    A dimension where every agent scored the same maps to 1.0 for all
    (uniform excellence should not zero out the dimension).
    """
    if not raw:
        raise EmptyInput("no agents to normalize")
    agents = sorted(raw)
    dimensions = sorted({d for scores in raw.values() for d in scores})
    for agent in agents:
        for dim in dimensions:
            if dim not in raw[agent]:
                raise MissingDimension(
                    f"agent {agent!r} is missing dimension {dim!r}"
                )
            if raw[agent][dim] < 0:
                raise ValueError(
                    f"raw score must be non-negative, got "
                    f"{agent}/{dim}={raw[agent][dim]}"
                )
    normalized: dict[str, dict[str, float]] = {a: {} for a in agents}
    for dim in dimensions:
        column = [raw[a][dim] for a in agents]
        lo, hi = min(column), max(column)
        for agent, value in zip(agents, column):
            if hi == lo:
                normalized[agent][dim] = 1.0
            else:
                normalized[agent][dim] = (value - lo) / (hi - lo)
    return normalized


def composite_score(
    normalized: Mapping[str, float], weights: Mapping[str, float]
) -> float:
    """Weighted sum of normalized dimension scores."""
    if set(normalized) != set(weights):
        raise DimensionMismatch(
            f"dimensions {sorted(normalized)} do not match weights "
            f"{sorted(weights)}"
        )
    if any(w < 0 for w in weights.values()):
        raise WeightSumInvalid("weights must be non-negative")
    total = math.fsum(weights.values())
    if abs(total - 1.0) > WEIGHT_TOLERANCE:
        raise WeightSumInvalid(f"weights sum to {total}, expected 1")
    return math.fsum(weights[d] * normalized[d] for d in sorted(weights))


def parse_self_score(text: str) -> float | None:
    """First "score: <decimal>" occurrence, case-insensitive, clipped to
    [0, 1]; None when the pattern is absent."""
    match = _SELF_SCORE.search(text)
    if match is None:
        return None
    return min(1.0, max(0.0, float(match.group(1))))


def _normalize_text(text: str) -> str:
    return " ".join(text.split()).casefold()


def grade_exact_match(response: str, reference: str) -> float:
    return 1.0 if _normalize_text(response) == _normalize_text(reference) else 0.0


def grade_token_f1(response: str, reference: str) -> float:
    pred = response.casefold().split()
    ref = reference.casefold().split()
    if not pred or not ref:
        return 1.0 if pred == ref else 0.0
    overlap = sum((Counter(pred) & Counter(ref)).values())
    if overlap == 0:
        return 0.0
    precision = overlap / len(pred)
    recall = overlap / len(ref)
    return 2 * precision * recall / (precision + recall)


def load_golden_dataset(path: Path | str) -> list[GoldenRecord]:
    """Read a JSON-lines golden dataset file."""
    records = []
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if not line:
            continue
        row = json.loads(line)
        records.append(
            GoldenRecord(
                record_id=row["record_id"],
                task_kind=row["task_kind"],
                input_text=row["input_text"],
                reference_answer=row["reference_answer"],
                dimension_labels=tuple(row["dimension_labels"]),
            )
        )
    return records


# --------------------------------------------------------------- scheduler


class Scheduler:
    """Registry, evaluator, and router over one gateway and one state dir."""

    def __init__(
        self,
        gateway: Gateway,
        prompt_store: PromptStore,
        state_dir: Path | str,
        weights: Mapping[str, Mapping[str, float]] | None = None,
        judge_backend_id: str | None = None,
        language: str = "en",
        clock: Clock | None = None,
    ):
        self._gateway = gateway
        self._store = prompt_store
        self._state_dir = Path(state_dir)
        self._state_dir.mkdir(parents=True, exist_ok=True)
        self._weights = {k: dict(v) for k, v in (weights or {}).items()}
        self._judge_backend_id = judge_backend_id
        self._language = language
        self._clock = clock or SystemClock()
        self._agents: dict[str, AgentProfile] = {}
        self._tasks: set[str] = set()
        self._completed_workflows: dict[str, dict] = {}
        self._write_lock = threading.Lock()
        self._scores: list[TaskScore] = []
        self._reflections: list[Reflection] = []
        self._load_state()

    # ---------------------------------------------------------- persistence

    @property
    def scores_path(self) -> Path:
        return self._state_dir / "task_scores.jsonl"

    @property
    def reflections_path(self) -> Path:
        return self._state_dir / "reflections.jsonl"

    @property
    def evaluations_path(self) -> Path:
        return self._state_dir / "evaluations.jsonl"

    def _load_state(self) -> None:
        if self.scores_path.exists():
            for line in self.scores_path.read_text(encoding="utf-8").splitlines():
                if line.strip():
                    self._scores.append(TaskScore(**json.loads(line)))
        if self.reflections_path.exists():
            for line in self.reflections_path.read_text(
                encoding="utf-8"
            ).splitlines():
                if line.strip():
                    self._reflections.append(Reflection(**json.loads(line)))

    def _append(self, path: Path, row: Mapping) -> None:
        with self._write_lock:
            with path.open("a", encoding="utf-8") as handle:
                handle.write(json.dumps(row, ensure_ascii=False) + "\n")

    # ------------------------------------------------------------- registry

    def register_agent(self, profile: AgentProfile) -> str:
        if profile.agent_id in self._agents:
            raise DuplicateAgent(f"agent {profile.agent_id!r} already registered")
        self._gateway.get_backend(profile.backend_id)  # UnknownBackend if not
        if not profile.registered_at:
            profile = dataclasses.replace(
                profile, registered_at=isoformat(self._clock.now())
            )
        self._agents[profile.agent_id] = profile
        return profile.agent_id

    def get_agent(self, agent_id: str) -> AgentProfile:
        try:
            return self._agents[agent_id]
        except KeyError:
            raise UnknownAgent(f"no agent registered as {agent_id!r}") from None

    def agents_for(self, task_kind: str) -> list[AgentProfile]:
        return sorted(
            (p for p in self._agents.values() if task_kind in p.task_kinds),
            key=lambda p: p.agent_id,
        )

    def register_task(self, task_id: str) -> None:
        self._tasks.add(task_id)

    # ------------------------------------------------------------- grading

    def _judge_chat(self, prompt: str) -> str:
        if self._judge_backend_id is None:
            raise ConfigError("no judge backend configured for judged grading")
        exchange = self._gateway.chat(
            self._judge_backend_id, [ChatMessage(role="user", content=prompt)]
        )
        return exchange.response_text

    def _grade_dimension(
        self, dimension: str, response: str, record: GoldenRecord
    ) -> float:
        if dimension == "exact_match":
            return grade_exact_match(response, record.reference_answer)
        if dimension == "token_f1":
            return grade_token_f1(response, record.reference_answer)
        prompt = self._store.render(
            "grade_judged",
            {
                "dimension": dimension,
                "reference": record.reference_answer,
                "response": response,
            },
            self._language,
        )
        reply = self._judge_chat(prompt)
        score = parse_self_score(reply)
        if score is None:
            raise GradeParseFailure(
                f"judge reply for record {record.record_id!r} dimension "
                f"{dimension!r} carries no score line"
            )
        return score

    # ----------------------------------------------------------- evaluation

    def evaluate_agent(
        self,
        agent_id: str,
        dataset: Sequence[GoldenRecord],
        weights: Mapping[str, float] | None = None,
    ) -> TaskScore:
        profile = self.get_agent(agent_id)
        if not dataset:
            raise EmptyDataset("golden dataset is empty")
        kinds = {record.task_kind for record in dataset}
        if len(kinds) != 1:
            raise ValueError(f"dataset mixes task kinds {sorted(kinds)}")
        task_kind = dataset[0].task_kind
        dimensions = dataset[0].dimension_labels
        for record in dataset:
            if record.dimension_labels != dimensions:
                raise ValueError(
                    f"record {record.record_id!r} changes dimension labels"
                )

        # The golden probes are independent: send them together, then
        # grade the replies in dataset order.
        prompts = [
            self._store.render(
                profile.adaptor_prompt_id,
                {"input_text": record.input_text},
                self._language,
            )
            for record in dataset
        ]
        outcomes = self._gateway.chat_many(
            [
                (profile.backend_id, [ChatMessage(role="user", content=prompt)])
                for prompt in prompts
            ]
        )
        per_dimension: dict[str, list[float]] = {d: [] for d in dimensions}
        excluded = 0
        for record, outcome in zip(dataset, outcomes):
            if isinstance(outcome, EngineError):
                raise GatewayFailure(
                    f"agent {agent_id!r} failed on record "
                    f"{record.record_id!r}: {outcome}",
                    record_id=record.record_id,
                ) from outcome
            try:
                grades = {
                    d: self._grade_dimension(d, outcome.response_text, record)
                    for d in dimensions
                }
            except GradeParseFailure:
                excluded += 1
                continue
            for dimension, value in grades.items():
                per_dimension[dimension].append(value)

        if excluded / len(dataset) > MAX_EXCLUDED_FRACTION:
            raise GradeParseFailure(
                f"{excluded} of {len(dataset)} records excluded by grade "
                f"parse failures (limit {MAX_EXCLUDED_FRACTION:.0%})"
            )
        raw = {
            d: (math.fsum(vals) / len(vals)) if vals else 0.0
            for d, vals in per_dimension.items()
        }
        return self._restore_roster(task_kind, agent_id, raw, weights)

    def _weights_for(
        self,
        task_kind: str,
        dimensions: Sequence[str],
        override: Mapping[str, float] | None,
    ) -> dict[str, float]:
        if override is not None:
            return dict(override)
        if task_kind in self._weights:
            return dict(self._weights[task_kind])
        uniform = 1.0 / len(dimensions)
        return {d: uniform for d in dimensions}

    def _restore_roster(
        self,
        task_kind: str,
        agent_id: str,
        raw: Mapping[str, float],
        weights_override: Mapping[str, float] | None,
    ) -> TaskScore:
        """Recompute normalization and composites for the whole roster after
        one agent's raw scores changed, persisting fresh rows for all."""
        latest_raw: dict[str, Mapping[str, float]] = {}
        for score in self._scores:
            if score.task_kind == task_kind:
                latest_raw[score.agent_id] = score.raw_scores
        latest_raw[agent_id] = dict(raw)
        weights = self._weights_for(task_kind, sorted(raw), weights_override)
        normalized = normalize_scores(latest_raw)
        evaluated_at = isoformat(self._clock.now())
        result: TaskScore | None = None
        for roster_agent in sorted(latest_raw):
            score = TaskScore(
                agent_id=roster_agent,
                task_kind=task_kind,
                raw_scores=dict(latest_raw[roster_agent]),
                normalized_scores=normalized[roster_agent],
                weights=weights,
                composite=composite_score(normalized[roster_agent], weights),
                evaluated_at=evaluated_at,
            )
            self._scores.append(score)
            self._append(self.scores_path, score.to_dict())
            if roster_agent == agent_id:
                result = score
        assert result is not None
        return result

    # -------------------------------------------------------------- routing

    def latest_scores(self, task_kind: str) -> dict[str, TaskScore]:
        """Latest TaskScore per agent for one task kind (registered agents)."""
        latest: dict[str, TaskScore] = {}
        for score in self._scores:
            if score.task_kind == task_kind and score.agent_id in self._agents:
                latest[score.agent_id] = score
        return latest

    def rank_agents(self, task_kind: str) -> list[tuple[str, float]]:
        latest = self.latest_scores(task_kind)
        if not latest:
            raise NoScoredAgents(
                f"no scored agents for task kind {task_kind!r}"
            )
        return sorted(
            ((a, s.composite) for a, s in latest.items()),
            key=lambda item: (-item[1], item[0]),
        )

    def route(
        self,
        task,
        recorder: Callable[[dict], None] | None = None,
    ) -> str:
        """Pick the top-ranked agent for the task's kind.

        ``task`` is either a task-kind string or an object with
        ``task_kind`` (and optionally ``task_id``). The full ranking
        snapshot goes to ``recorder`` so traces capture the decision.
        """
        task_kind = getattr(task, "task_kind", task)
        task_id = getattr(task, "task_id", None)
        if task_id:
            self.register_task(task_id)
        ranking = self.rank_agents(task_kind)
        chosen = ranking[0][0]
        if recorder is not None:
            recorder(
                {
                    "event": "route",
                    "task_kind": task_kind,
                    "task_id": task_id,
                    "ranking": [[a, c] for a, c in ranking],
                    "chosen": chosen,
                }
            )
        return chosen

    # ---------------------------------------------------------- reflections

    def record_reflection(
        self, agent_id: str, task_id: str, self_assessment_text: str
    ) -> Reflection:
        if agent_id not in self._agents:
            raise UnknownAgent(f"no agent registered as {agent_id!r}")
        if task_id not in self._tasks:
            raise UnknownTask(f"no task known as {task_id!r}")
        reflection = Reflection(
            agent_id=agent_id,
            task_id=task_id,
            self_score=parse_self_score(self_assessment_text),
            notes=self_assessment_text,
            created_at=isoformat(self._clock.now()),
        )
        self._reflections.append(reflection)
        self._append(self.reflections_path, reflection.to_dict())
        return reflection

    def reflections_for(self, task_id: str) -> list[Reflection]:
        return [r for r in self._reflections if r.task_id == task_id]

    # ---------------------------------------------------------- evaluations

    def mark_workflow_complete(
        self,
        workflow_id: str,
        final_output: str,
        acceptance_text: str,
    ) -> None:
        """Called by the workflow engine once every step result is recorded."""
        self.register_task(workflow_id)
        self._completed_workflows[workflow_id] = {
            "final_output": final_output,
            "acceptance_text": acceptance_text,
        }

    def finalize_workflow(self, workflow_id: str) -> WorkflowEvaluation:
        if workflow_id not in self._completed_workflows:
            raise WorkflowNotComplete(
                f"workflow {workflow_id!r} has not completed"
            )
        record = self._completed_workflows[workflow_id]
        prompt = self._store.render(
            "judge",
            {
                "acceptance_text": record["acceptance_text"],
                "final_output": record["final_output"],
            },
            self._language,
        )
        reply = self._judge_chat(prompt)
        grade = parse_self_score(reply)
        reflections = self.reflections_for(workflow_id)
        self_scores = tuple(
            r.self_score for r in reflections if r.self_score is not None
        )
        mean_self = (
            math.fsum(self_scores) / len(self_scores) if self_scores else None
        )
        feedback = reply.strip()
        evaluation = WorkflowEvaluation(
            workflow_id=workflow_id,
            grade=grade,
            self_scores=self_scores,
            mean_self_score=mean_self,
            reflection_count=len(reflections),
            feedback=feedback,
            created_at=isoformat(self._clock.now()),
        )
        self._append(self.evaluations_path, evaluation.to_dict())
        return evaluation
