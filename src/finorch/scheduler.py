"""Smart Scheduler: agent registry, golden-dataset evaluation, composite
scoring, task routing, reflections, and workflow evaluations.

Scoring pipeline: one evaluation is a flat list of probes, one per
(agent, golden record), each the agent's adaptor prompt for that record;
all of them go through the gateway as one batch, and each reply is graded
per dimension. Raw dimension scores are averaged over an agent's records,
and that is what a TaskScore row holds.
Ranking derives the rest from the latest raw scores of the agents
registered for the task kind: each dimension is min-max normalized across
them and combined with the current weights into a composite in [0, 1].
Routing picks the highest composite, ties broken by ascending agent id.

The scheduler alone decides when to score: before a task kind routes,
``ensure_scores`` evaluates its agents with no score of the dimensions
that the kind's weights, or else its golden set, name; ``evaluate_all``
scores all of them. Each call reads a golden set at most once.

Grading dimensions: ``exact_match`` (normalized-whitespace, case-folded
equality) and ``token_f1`` (F1 over whitespace tokens) are computed
locally; any other dimension name is judged by a grading prompt whose
reply must contain "score: <x>". The judge chats of one evaluation go out
as one more batch, once the probes are answered, and each verdict is
looked up by the (probe index, dimension) it grades.

State is kept as append-only JSON-lines files under the state directory
(task_scores.jsonl, reflections.jsonl, evaluations.jsonl). One evaluation
appends one row per agent it scored, all in one write, and a failed one
appends nothing; the latest TaskScore per (task kind, agent) wins for
routing. reflections.jsonl and evaluations.jsonl are audit logs that no
command reads back: a workflow evaluation grades only its own run, from
the output and the reflection the runner hands it.

Scores are loaded on first need, once the agents are registered: the read
goes backward from the end of task_scores.jsonl and stops once it holds
the latest row of every registered (task kind, agent) pair. It costs
O(agents), not O(history), unless a registered agent has no row: then the
read goes to the start of the file.
"""

from __future__ import annotations

import json
import math
import os
import re
import sys
import threading
from collections import Counter
from pathlib import Path
from typing import Callable, Iterable, Mapping, Sequence

from finorch import files
from finorch.clock import Clock, SystemClock, isoformat
from finorch.errors import (
    ConfigError,
    EngineError,
    GradeParseFailure,
    WeightSumInvalid,
    unusable_path,
)
from finorch.gateway import ChatExchange, ChatMessage, Gateway
from finorch.prompts import PromptStore
from finorch.record import Record

__all__ = [
    "NO_JUDGE_BACKEND",
    "TASK_KINDS",
    "AgentProfile",
    "GoldenRecord",
    "Reflection",
    "Scheduler",
    "TaskScore",
    "WorkflowEvaluation",
    "check_weights",
    "composite_score",
    "grade_exact_match",
    "grade_token_f1",
    "load_golden_dataset",
    "normalize_scores",
    "parse_self_score",
]

#: Task kinds an agent can be registered, scored and routed for.
TASK_KINDS = ("forecast", "report")

WEIGHT_TOLERANCE = 1e-9
_MAX_FLOAT = sys.float_info.max
MAX_EXCLUDED_FRACTION = 0.2

_SELF_SCORE = re.compile(r"score:\s*(\d+(?:\.\d+)?)", re.IGNORECASE)

#: Template that wraps a golden record's input for the agent under test.
ADAPTOR_PROMPT_ID = "adaptor_default"

#: Why a judged dimension is refused and a run's grading is skipped.
NO_JUDGE_BACKEND = "no judge backend configured for judged grading"


# ------------------------------------------------------------------- types


class AgentProfile(Record):
    """An agent registered for routing; ``task_kinds`` is stored as a
    frozenset."""

    __slots__ = ("agent_id", "backend_id", "task_kinds")

    def __init__(
        self, agent_id: str, backend_id: str, task_kinds: Iterable[str]
    ) -> None:
        if not agent_id:
            raise ValueError("agent_id must be non-empty")
        task_kinds = frozenset(task_kinds)
        if not task_kinds:
            raise ValueError(
                f"agent {agent_id!r} must declare at least one task kind"
            )
        super().__init__(agent_id, backend_id, task_kinds)


class GoldenRecord(Record):
    """One golden-dataset record, as ``load_golden_dataset`` checks it;
    ``dimension_labels`` is stored as a tuple."""

    __slots__ = (
        "record_id", "task_kind", "input_text", "reference_answer",
        "dimension_labels",
    )

    def __init__(
        self, record_id: str, task_kind: str, input_text: str,
        reference_answer: str, dimension_labels: Iterable[str]
    ) -> None:
        super().__init__(
            record_id, task_kind, input_text, reference_answer,
            tuple(dimension_labels),
        )


class TaskScore(Record):
    """One agent's measured raw score per dimension for one task kind,
    stored as a private dict copy: a non-empty mapping of finite,
    non-negative numbers."""

    __slots__ = ("agent_id", "task_kind", "raw_scores", "evaluated_at")

    def __init__(
        self, agent_id: str, task_kind: str, raw_scores: Mapping[str, float],
        evaluated_at: str
    ) -> None:
        if not isinstance(raw_scores, Mapping) or not raw_scores:
            raise ValueError(
                f"raw_scores must be a non-empty mapping, got {raw_scores!r}"
            )
        for name, value in raw_scores.items():  # NaN fails the comparison
            if type(value) not in (int, float) or not 0 <= value <= _MAX_FLOAT:
                raise ValueError(
                    f"raw score {name}={value!r} is not a finite, "
                    "non-negative number"
                )
        super().__init__(agent_id, task_kind, dict(raw_scores), evaluated_at)


class Reflection(Record):
    __slots__ = ("agent_id", "task_id", "self_score", "notes", "created_at")

    def __init__(
        self, agent_id: str, task_id: str, self_score: float | None,
        notes: str, created_at: str
    ) -> None:
        if self_score is not None and not 0.0 <= self_score <= 1.0:
            raise ValueError(f"self_score {self_score} out of [0, 1]")
        super().__init__(agent_id, task_id, self_score, notes, created_at)


class WorkflowEvaluation(Record):
    __slots__ = (
        "workflow_id", "grade", "self_scores", "mean_self_score",
        "reflection_count", "feedback", "created_at",
    )

    def __init__(
        self, workflow_id: str, grade: float | None,
        self_scores: tuple[float, ...], mean_self_score: float | None,
        reflection_count: int, feedback: str, created_at: str
    ) -> None:
        super().__init__(
            workflow_id, grade, self_scores, mean_self_score, reflection_count,
            feedback, created_at,
        )


# ---------------------------------------------------------------- formulas


def normalize_scores(
    raw: Mapping[str, Mapping[str, float]],
) -> dict[str, dict[str, float]]:
    """Per-dimension min-max normalization across agents.

    A dimension where every agent scored the same maps to 1.0 for all
    (uniform excellence should not zero out the dimension).
    """
    if not raw:
        raise EngineError("no agents to normalize")
    agents = sorted(raw)
    dimensions = sorted({d for scores in raw.values() for d in scores})
    for agent in agents:
        for dim in dimensions:
            if dim not in raw[agent]:
                raise EngineError(f"agent {agent!r} is missing dimension {dim!r}")
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


def check_weights(weights: Mapping[str, float]) -> None:
    """WeightSumInvalid unless the weights are non-negative and sum to 1."""
    negative = sorted(d for d, w in weights.items() if w < 0)
    if negative:
        raise WeightSumInvalid(f"negative weights for {negative}")
    total = math.fsum(weights.values())
    if abs(total - 1.0) > WEIGHT_TOLERANCE:
        raise WeightSumInvalid(f"weights sum to {total}, expected 1")


def composite_score(
    normalized: Mapping[str, float], weights: Mapping[str, float]
) -> float:
    """Weighted sum of normalized dimension scores."""
    if set(normalized) != set(weights):
        raise EngineError(
            f"dimensions {sorted(normalized)} do not match weights "
            f"{sorted(weights)}"
        )
    check_weights(weights)
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


#: Dimensions graded locally; any other is sent to the judge backend.
_LOCAL_GRADERS = {"exact_match": grade_exact_match, "token_f1": grade_token_f1}


def _golden_record(row: object) -> GoldenRecord:
    """The record a golden row holds; TypeError for a row or a field of
    the wrong type, KeyError for a missing field."""
    if not isinstance(row, dict):
        raise TypeError(f"row is {type(row).__name__}, not a JSON object")
    for key in ("record_id", "input_text", "reference_answer"):
        if not isinstance(row[key], str):
            raise TypeError(f"{key} is {row[key]!r}, not a string")
    labels = row["dimension_labels"]
    if not (
        isinstance(labels, list)
        and labels
        and all(isinstance(label, str) and label for label in labels)
        and len(set(labels)) == len(labels)
    ):
        raise TypeError(
            f"dimension_labels is {labels!r}, not a non-empty list of "
            "distinct, non-empty strings"
        )
    return GoldenRecord(
        row["record_id"], row["task_kind"], row["input_text"],
        row["reference_answer"], labels,
    )


def load_golden_dataset(path: Path | str, task_kind: str) -> list[GoldenRecord]:
    """The golden set of ``task_kind`` in the JSON-lines file at ``path``:
    the one check of what a golden file holds. Each non-blank line is a
    JSON object of string ``record_id``, ``input_text`` and
    ``reference_answer``, ``task_kind`` equal to ``task_kind``, and the
    first row's ``dimension_labels``, a non-empty list of distinct,
    non-empty strings. A missing, unreadable or empty file is a ConfigError
    naming the file, and a line that breaks a rule one naming the line.
    """
    path = Path(path)
    try:
        lines = path.read_text(encoding="utf-8").splitlines()
    except FileNotFoundError:
        raise ConfigError(
            f"no golden dataset for task kind {task_kind!r} (expected {path})"
        ) from None
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read golden dataset {path}: {exc}") from None
    records: list[GoldenRecord] = []
    for number, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        where = f"golden dataset {path} line {number}"
        try:
            record = _golden_record(json.loads(line))
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(
                f"{where} is malformed: {type(exc).__name__}: {exc}"
            ) from None
        if record.task_kind != task_kind:
            raise ConfigError(
                f"{where} has task kind {record.task_kind!r}, not {task_kind!r}"
            )
        labels = records[0].dimension_labels if records else record.dimension_labels
        if record.dimension_labels != labels:
            raise ConfigError(
                f"{where} has dimension labels {list(record.dimension_labels)}, "
                f"not the first row's {list(labels)}"
            )
        records.append(record)
    if not records:
        raise ConfigError(
            f"golden dataset {path} for task kind {task_kind!r} is empty"
        )
    return records


ScoreKey = tuple[str, str]  # (task_kind, agent_id)

#: Bytes taken per step of the backward read of task_scores.jsonl.
_BLOCK = 1 << 12


def _latest_scores(
    log: Path, wanted: set[ScoreKey]
) -> dict[ScoreKey, TaskScore]:
    """Latest TaskScore per wanted (task_kind, agent_id), read from the end
    of the log.

    The log is read back in blocks. The first row seen per wanted pair is
    that pair's latest, and rows of other pairs are skipped. The read stops
    once every wanted pair is found, or at the start of the file. A row's
    fields beyond TaskScore's own (the normalized scores, weights and
    composite that older versions stored) are ignored. A torn or malformed
    row it reads is a ConfigError naming the file and the line.
    """
    with unusable_path("read state file", log):
        try:
            handle = log.open("rb")
        except FileNotFoundError:
            return {}
    latest: dict[ScoreKey, TaskScore] = {}
    missing = set(wanted)
    with handle:
        position = handle.seek(0, os.SEEK_END)
        partial = b""
        while missing and position:
            step = min(_BLOCK, position)
            position -= step
            handle.seek(position)
            block = handle.read(step) + partial
            end = position + len(block)
            lines = block.split(b"\n")
            # Unless the block starts the file, its first piece may be the
            # end of a line that starts in the block before it.
            partial = lines.pop(0) if position else b""
            for line in reversed(lines):
                if not missing:
                    break
                start = end - len(line)
                end = start - 1
                if not line.strip():
                    continue
                try:
                    row = json.loads(line)
                    key = (row["task_kind"], row["agent_id"])
                    if key in missing:
                        missing.discard(key)
                        latest[key] = TaskScore(
                            key[1], key[0], row["raw_scores"], row["evaluated_at"]
                        )
                except (KeyError, TypeError, ValueError) as exc:
                    handle.seek(0)
                    number = handle.read(start).count(b"\n") + 1
                    raise ConfigError(
                        f"state file {log} line {number} is malformed: {exc}"
                    ) from None
    return latest


# --------------------------------------------------------------- scheduler


class Scheduler:
    """Registry, evaluator, and router over one gateway, one golden dir and
    one state dir."""

    def __init__(
        self,
        gateway: Gateway,
        prompt_store: PromptStore,
        state_dir: Path | str,
        weights: Mapping[str, Mapping[str, float]] | None = None,
        judge_backend_id: str | None = None,
        language: str = "en",
        clock: Clock | None = None,
        golden_dir: Path | str = "fixtures/golden",
    ):
        self._gateway = gateway
        self._store = prompt_store
        self._state_dir = Path(state_dir)
        with unusable_path("use state directory", self._state_dir):
            self._state_dir.mkdir(parents=True, exist_ok=True)
        self._weights = {k: dict(v) for k, v in (weights or {}).items()}
        self._judge_backend_id = judge_backend_id
        self._language = language
        self._clock = clock or SystemClock()
        self._golden_dir = Path(golden_dir)
        self._agents: dict[str, AgentProfile] = {}
        self._write_lock = threading.Lock()
        self._latest: dict[ScoreKey, TaskScore] | None = None

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
        wanted = {(k, a) for a, p in self._agents.items() for k in p.task_kinds}
        self._latest = _latest_scores(self.scores_path, wanted)

    def _scores(self) -> dict[ScoreKey, TaskScore]:
        """Latest TaskScore per (task kind, agent id), read on first need."""
        if self._latest is None:
            self._load_state()
        return self._latest

    def _append(self, path: Path, *rows: Mapping) -> None:
        """Append rows, one JSON line each, in one write."""
        text = "".join(json.dumps(row, ensure_ascii=False) + "\n" for row in rows)
        with self._write_lock:
            files.append(path, text.encode(), "write state file")

    # ------------------------------------------------------------- registry

    def register_agent(self, profile: AgentProfile) -> str:
        if profile.agent_id in self._agents:
            raise ConfigError(f"agent {profile.agent_id!r} already registered")
        self._gateway.get_backend(profile.backend_id)  # ConfigError if not
        self._agents[profile.agent_id] = profile
        self._latest = None  # the next read looks for this agent's rows too
        return profile.agent_id

    def get_agent(self, agent_id: str) -> AgentProfile:
        try:
            return self._agents[agent_id]
        except KeyError:
            raise ConfigError(f"no agent registered as {agent_id!r}") from None

    def agents_for(self, task_kind: str) -> list[AgentProfile]:
        return sorted(
            (p for p in self._agents.values() if task_kind in p.task_kinds),
            key=lambda p: p.agent_id,
        )

    # ------------------------------------------------------------- grading

    def _request(
        self, backend_id: str, template_id: str, bindings: Mapping[str, object]
    ) -> tuple[str, list[ChatMessage]]:
        """A chat to ``backend_id`` whose one user message is ``template_id``
        rendered in the scheduler's language."""
        text = self._store.render(template_id, bindings, self._language)
        return backend_id, [ChatMessage(role="user", content=text)]

    def _grade_dimension(
        self, dimension: str, response: str, record: GoldenRecord,
        verdict: ChatExchange | EngineError | None,
    ) -> float:
        local = _LOCAL_GRADERS.get(dimension)
        if local is not None:
            return local(response, record.reference_answer)
        if isinstance(verdict, EngineError):
            raise verdict
        score = parse_self_score(verdict.response_text)
        if score is None:
            raise GradeParseFailure(
                f"judge reply for record {record.record_id!r} dimension "
                f"{dimension!r} carries no score line"
            )
        return score

    # ----------------------------------------------------------- evaluation

    def golden_dataset(self, task_kind: str) -> list[GoldenRecord]:
        """The golden set of ``task_kind``: ``load_golden_dataset`` of
        ``<task_kind>.jsonl`` in the golden dir."""
        return load_golden_dataset(
            self._golden_dir / f"{task_kind}.jsonl", task_kind
        )

    def evaluate_all(self, *task_kinds: str) -> list[TaskScore]:
        """Score every agent registered for each task kind, with all their
        probes in one batch (``evaluate_agents``). A kind with no registered
        agent is refused before any probe is sent."""
        jobs = []
        for task_kind in task_kinds:
            agents = self.agents_for(task_kind)
            if not agents:
                raise ConfigError(
                    f"no agent is registered for task kind {task_kind!r}"
                )
            dataset = self.golden_dataset(task_kind)
            jobs += [(profile.agent_id, dataset) for profile in agents]
        return self.evaluate_agents(jobs)

    def ensure_scores(self, task_kind: str) -> None:
        """Evaluate, in one batch, the agents registered for ``task_kind``
        with no score of the golden set's dimensions. The kind's weights
        name those when the config sets some (an evaluation refuses
        others), and then the set is read only to score an agent."""
        weights = self._weights.get(task_kind)
        dataset = None if weights else self.golden_dataset(task_kind)
        labels = set(weights or dataset[0].dimension_labels)
        measured = {
            agent_id: set(score.raw_scores)
            for agent_id, score in self.latest_scores(task_kind).items()
        }
        stale = [
            profile.agent_id
            for profile in self.agents_for(task_kind)
            if measured.get(profile.agent_id) != labels
        ]
        if stale:
            dataset = dataset or self.golden_dataset(task_kind)
            self.evaluate_agents([(agent_id, dataset) for agent_id in stale])

    def evaluate_agent(
        self, agent_id: str, dataset: Sequence[GoldenRecord]
    ) -> TaskScore:
        """Score one agent on one golden dataset."""
        return self.evaluate_agents([(agent_id, dataset)])[0]

    def evaluate_agents(
        self, jobs: Sequence[tuple[str, Sequence[GoldenRecord]]]
    ) -> list[TaskScore]:
        """Score each (agent id, golden dataset) job; one TaskScore per job.
        Each dataset is a golden set as ``load_golden_dataset`` returns it.

        An evaluation sends one probe per (agent, golden record) of every
        job, in the order given, all in one ``chat_many`` batch, and the
        judge chats of all answered probes in one more. Each judge outcome
        is kept under its (probe index, dimension), and grading looks it up
        by the probe it grades. The rows of all jobs go to the log in one
        append. A failed probe raises an EngineError naming its record, a
        failed judge chat its own error, whichever comes first in probe
        order, then dimension order; a failed evaluation appends nothing.
        """
        checked = [(self.get_agent(agent_id), dataset) for agent_id, dataset in jobs]
        for _, dataset in checked:
            self._check_dimensions(dataset)  # a ConfigError sends no probe
        scores = self._scores()  # a malformed log fails before any probe
        probes = [
            (profile, record) for profile, dataset in checked for record in dataset
        ]
        replies = self._gateway.chat_many(
            [
                self._request(
                    profile.backend_id,
                    ADAPTOR_PROMPT_ID,
                    {"input_text": record.input_text},
                )
                for profile, record in probes
            ]
        )
        judged = {
            (index, dimension): self._request(
                self._judge_backend_id,
                "grade_judged",
                {
                    "dimension": dimension,
                    "reference": record.reference_answer,
                    "response": replies[index].response_text,
                },
            )
            for index, (_, record) in enumerate(probes)
            if not isinstance(replies[index], EngineError)
            for dimension in record.dimension_labels
            if dimension not in _LOCAL_GRADERS
        }
        outcomes = self._gateway.chat_many(list(judged.values())) if judged else []
        verdicts = dict(zip(judged, outcomes))
        graded, first = [], 0
        for profile, dataset in checked:
            graded.append(self._grade_job(profile, dataset, first, replies, verdicts))
            first += len(dataset)
        evaluated_at = isoformat(self._clock.now())
        rows = [
            TaskScore(profile.agent_id, dataset[0].task_kind, raw, evaluated_at)
            for (profile, dataset), raw in zip(checked, graded)
        ]
        self._append(self.scores_path, *(row.to_dict() for row in rows))
        scores.update(((row.task_kind, row.agent_id), row) for row in rows)
        return rows

    def _check_dimensions(self, dataset: Sequence[GoldenRecord]) -> None:
        """ConfigError unless the kind's weights, if any, name exactly the
        set's dimensions and a judged dimension has a judge backend."""
        task_kind, dimensions = dataset[0].task_kind, dataset[0].dimension_labels
        weights = self._weights.get(task_kind)
        if weights is not None and set(weights) != set(dimensions):
            raise ConfigError(
                f"weights[{task_kind!r}] has dimensions {sorted(weights)}, "
                f"but its golden dataset has {sorted(dimensions)}"
            )
        if self._judge_backend_id is None and any(
            d not in _LOCAL_GRADERS for d in dimensions
        ):
            raise ConfigError(NO_JUDGE_BACKEND)

    def _grade_job(
        self,
        profile: AgentProfile,
        dataset: Sequence[GoldenRecord],
        first: int,
        replies: Sequence[ChatExchange | EngineError],
        verdicts: Mapping[tuple[int, str], ChatExchange | EngineError],
    ) -> dict[str, float]:
        """Grade one agent's probes, which start at probe index ``first``,
        in dataset order; its raw score per dimension, averaged over the
        graded records."""
        dimensions = dataset[0].dimension_labels
        per_dimension: dict[str, list[float]] = {d: [] for d in dimensions}
        excluded = 0
        for index, record in enumerate(dataset, first):
            outcome = replies[index]
            if isinstance(outcome, EngineError):
                raise EngineError(
                    f"agent {profile.agent_id!r} failed on record "
                    f"{record.record_id!r}: {outcome}"
                ) from outcome
            try:
                grades = {
                    d: self._grade_dimension(
                        d, outcome.response_text, record, verdicts.get((index, d))
                    )
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
        return {
            d: (math.fsum(vals) / len(vals)) if vals else 0.0
            for d, vals in per_dimension.items()
        }

    # -------------------------------------------------------------- routing

    def latest_scores(self, task_kind: str) -> dict[str, TaskScore]:
        """Latest TaskScore per agent registered for ``task_kind``."""
        scores = self._scores()
        return {
            profile.agent_id: scores[(task_kind, profile.agent_id)]
            for profile in self.agents_for(task_kind)
            if (task_kind, profile.agent_id) in scores
        }

    def rank_agents(self, task_kind: str) -> list[tuple[str, float]]:
        """(agent id, composite) of each scored agent registered for
        ``task_kind``, best first, ties by ascending agent id. Composites
        come from the latest raw scores, normalized across these agents,
        and the current weights, which are uniform over the dimensions
        when the config sets none for the kind."""
        latest = self.latest_scores(task_kind)
        if not latest:
            raise EngineError(f"no scored agents for task kind {task_kind!r}")
        normalized = normalize_scores(
            {agent: score.raw_scores for agent, score in latest.items()}
        )
        dimensions = next(iter(normalized.values()))
        uniform = dict.fromkeys(dimensions, 1.0 / len(dimensions))
        weights = self._weights.get(task_kind, uniform)
        return sorted(
            ((a, composite_score(n, weights)) for a, n in normalized.items()),
            key=lambda item: (-item[1], item[0]),
        )

    def route(
        self,
        task_kind: str,
        task_id: str | None = None,
        recorder: Callable[[dict], None] | None = None,
    ) -> str:
        """Pick the top-ranked agent for ``task_kind``.

        The full ranking snapshot, with ``task_id``, goes to ``recorder``
        so traces capture the decision.
        """
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
            raise ConfigError(f"no agent registered as {agent_id!r}")
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

    def judge_request(
        self, final_output: str, acceptance_text: str
    ) -> tuple[str, list[ChatMessage]] | None:
        """The judge chat for one run's final output against its acceptance
        text, as (backend id, messages); None when no judge backend is
        configured."""
        if self._judge_backend_id is None:
            return None
        return self._request(
            self._judge_backend_id,
            "judge",
            {"acceptance_text": acceptance_text, "final_output": final_output},
        )

    def finalize_workflow(
        self, task_id: str, judge_reply: str, reflection: Reflection
    ) -> WorkflowEvaluation:
        """Grade one run from the judge's reply to its ``judge_request``,
        beside that run's own reflection, and append the evaluation."""
        self_score = reflection.self_score
        evaluation = WorkflowEvaluation(
            workflow_id=task_id,
            grade=parse_self_score(judge_reply),
            self_scores=() if self_score is None else (self_score,),
            mean_self_score=self_score,
            reflection_count=1,
            feedback=judge_reply.strip(),
            created_at=isoformat(self._clock.now()),
        )
        self._append(self.evaluations_path, evaluation.to_dict())
        return evaluation
