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
TaskScore per (agent, task kind) wins for routing. reflections.jsonl and
evaluations.jsonl are audit logs that no command reads back: a workflow
evaluation grades only its own run, from the output and the reflection
the runner hands it.

task_scores.jsonl is the source of truth. Beside it,
task_scores.snapshot.json holds the fold of the log's first ``log_bytes``
bytes (``log_lines`` lines): the latest row per (task kind, agent) in
first-seen order, plus ``last_line``, the last line of that prefix. A load
that finds the log still ending that prefix with that line starts from the
snapshot and parses only the rows after it, so it costs O(agents + new
rows) instead of O(history). A missing, unreadable or stale snapshot is
ignored: the load replays the whole log and writes a fresh one. The
snapshot can be deleted at any time.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import re
import tempfile
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
    WeightSumInvalid,
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
    """Read a JSON-lines golden dataset file; a malformed line is a
    ConfigError naming the file and the line."""
    records = []
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    for number, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
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
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(
                f"golden dataset {path} line {number} is malformed: "
                f"{type(exc).__name__}: {exc}"
            ) from None
    return records


def _parse_row(path: Path, number: int, line: str | bytes, row_type: type):
    """One state-file row; a torn or malformed line is a ConfigError
    naming the file and the line."""
    try:
        return row_type(**json.loads(line))
    except (TypeError, ValueError) as exc:
        raise ConfigError(
            f"state file {path} line {number} is malformed: {exc}"
        ) from None


ScoreKey = tuple[str, str]  # (task_kind, agent_id)


@dataclass
class _ScoreFold:
    """The latest TaskScore per key over the log's first ``log_bytes``
    bytes (``log_lines`` lines), of which ``last_line`` is the last."""

    latest: dict[ScoreKey, TaskScore] = field(default_factory=dict)
    log_lines: int = 0
    log_bytes: int = 0
    last_line: bytes = b""


def _read_snapshot(path: Path) -> _ScoreFold | None:
    """The fold a snapshot file holds, or None when it is absent or does
    not parse."""
    try:
        snapshot = json.loads(path.read_bytes())
        fold = _ScoreFold(
            log_lines=snapshot["log_lines"],
            log_bytes=snapshot["log_bytes"],
            last_line=snapshot["last_line"].encode("utf-8", "surrogateescape"),
        )
        for row in snapshot["latest"]:
            score = TaskScore(**row)
            fold.latest[(score.task_kind, score.agent_id)] = score
    except (
        OSError, AttributeError, KeyError, TypeError, ValueError, EngineError
    ):
        return None
    if (
        type(fold.log_lines) is type(fold.log_bytes) is int
        and fold.log_lines > 0
        and fold.last_line.endswith(b"\n")
        and len(fold.last_line) <= fold.log_bytes
    ):
        return fold
    return None


def _write_snapshot(path: Path, fold: _ScoreFold) -> None:
    """Replace the snapshot atomically (a unique temp file, then
    ``os.replace``). The snapshot only saves time, so a state dir that
    cannot take it is left without one."""
    data = json.dumps(
        {
            "log_bytes": fold.log_bytes,
            "log_lines": fold.log_lines,
            "last_line": fold.last_line.decode("utf-8", "surrogateescape"),
            "latest": [score.to_dict() for score in fold.latest.values()],
        }
    ).encode("ascii")
    try:
        fd, tmp = tempfile.mkstemp(
            dir=path.parent, prefix=f"{path.name}.", suffix=".tmp"
        )
    except OSError:
        return
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
        os.replace(tmp, path)
    except OSError:
        os.unlink(tmp)


def _replay_scores(log: Path, snapshot: Path) -> dict[ScoreKey, TaskScore]:
    """Latest TaskScore per (task_kind, agent_id), in first-seen order.

    Starts from the snapshot's fold when the log still ends that fold's
    prefix with its last line, else from empty at offset 0 (a full
    replay); then folds in every row after the offset. Rewrites the
    snapshot when that read more rows than the snapshot keeps.
    """
    try:
        handle = log.open("rb")
    except FileNotFoundError:
        return {}
    with handle:
        fold = _read_snapshot(snapshot)
        if fold is not None:
            handle.seek(fold.log_bytes - len(fold.last_line))
            if handle.read(len(fold.last_line)) != fold.last_line:
                fold = None
        if fold is None:
            fold = _ScoreFold()
            handle.seek(0)
        tail = handle.read()
    read = 0
    lines = tail.split(b"\n")
    for number, line in enumerate(lines, start=fold.log_lines + 1):
        if line.strip():
            score = _parse_row(log, number, line, TaskScore)
            fold.latest[(score.task_kind, score.agent_id)] = score
            read += 1
    # Only complete lines go into a snapshot: a tail that does not end in
    # a newline is left for the next load to read again.
    if read > len(fold.latest) and tail.endswith(b"\n"):
        fold.log_lines += tail.count(b"\n")
        fold.log_bytes += len(tail)
        fold.last_line = tail[:-1].rpartition(b"\n")[2] + b"\n"
        _write_snapshot(snapshot, fold)
    return fold.latest


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
        self._write_lock = threading.Lock()
        self._load_state()

    # ---------------------------------------------------------- persistence

    @property
    def scores_path(self) -> Path:
        return self._state_dir / "task_scores.jsonl"

    @property
    def snapshot_path(self) -> Path:
        return self._state_dir / "task_scores.snapshot.json"

    @property
    def reflections_path(self) -> Path:
        return self._state_dir / "reflections.jsonl"

    @property
    def evaluations_path(self) -> Path:
        return self._state_dir / "evaluations.jsonl"

    def _load_state(self) -> None:
        self._latest: dict[ScoreKey, TaskScore] = _replay_scores(
            self.scores_path, self.snapshot_path
        )

    def _append(self, path: Path, *rows: Mapping) -> None:
        """Append rows with one open and one write."""
        text = "".join(
            json.dumps(row, ensure_ascii=False) + "\n" for row in rows
        )
        with self._write_lock:
            with path.open("a", encoding="utf-8") as handle:
                handle.write(text)

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
        latest_raw: dict[str, Mapping[str, float]] = {
            roster_agent: score.raw_scores
            for (kind, roster_agent), score in self._latest.items()
            if kind == task_kind
        }
        latest_raw[agent_id] = dict(raw)
        weights = self._weights_for(task_kind, sorted(raw), weights_override)
        normalized = normalize_scores(latest_raw)
        evaluated_at = isoformat(self._clock.now())
        roster = [
            TaskScore(
                agent_id=roster_agent,
                task_kind=task_kind,
                raw_scores=dict(latest_raw[roster_agent]),
                normalized_scores=normalized[roster_agent],
                weights=weights,
                composite=composite_score(normalized[roster_agent], weights),
                evaluated_at=evaluated_at,
            )
            for roster_agent in sorted(latest_raw)
        ]
        self._append(self.scores_path, *(score.to_dict() for score in roster))
        for score in roster:
            self._latest[(task_kind, score.agent_id)] = score
        return self._latest[(task_kind, agent_id)]

    # -------------------------------------------------------------- routing

    def latest_scores(self, task_kind: str) -> dict[str, TaskScore]:
        """Latest TaskScore per agent for one task kind (registered agents)."""
        return {
            agent: score
            for (kind, agent), score in self._latest.items()
            if kind == task_kind and agent in self._agents
        }

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
        reflection = Reflection(
            agent_id=agent_id,
            task_id=task_id,
            self_score=parse_self_score(self_assessment_text),
            notes=self_assessment_text,
            created_at=isoformat(self._clock.now()),
        )
        self._append(self.reflections_path, reflection.to_dict())
        return reflection

    # ---------------------------------------------------------- evaluations

    def finalize_workflow(
        self,
        task_id: str,
        final_output: str,
        acceptance_text: str,
        reflection: Reflection,
    ) -> WorkflowEvaluation:
        """Judge one run's final output against its acceptance text, beside
        that run's own reflection, and append the evaluation."""
        prompt = self._store.render(
            "judge",
            {"acceptance_text": acceptance_text, "final_output": final_output},
            self._language,
        )
        reply = self._judge_chat(prompt)
        self_score = reflection.self_score
        evaluation = WorkflowEvaluation(
            workflow_id=task_id,
            grade=parse_self_score(reply),
            self_scores=() if self_score is None else (self_score,),
            mean_self_score=self_score,
            reflection_count=1,
            feedback=reply.strip(),
            created_at=isoformat(self._clock.now()),
        )
        self._append(self.evaluations_path, evaluation.to_dict())
        return evaluation
