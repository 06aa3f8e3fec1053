"""Document Analysis & Report Generation app.

analyze_document chunks a filing or transcript, indexes the chunks, retrieves
evidence per indicator topic, and asks the model to emit one structured tool
call per indicator ("ABSENT" when the document is silent). Conflicting values
for the same indicator are flagged as discrepancies. generate_report routes
the task once, has the routed agent run that extraction on the indexed
document, then write a five-section research note, each section grounded
in its own retrieved passages and the extracted indicators.
"""

from __future__ import annotations

import re
from pathlib import Path
from typing import Callable

from finorch.clock import Clock
from finorch.dataops.retrieval import (
    Document,
    RetrievalIndex,
    RetrievedPassage,
    index_documents,
    retrieve,
    tokenize,
)
from finorch.errors import EmptyCorpus, EngineError, ExtractionFailure
from finorch.gateway import ChatMessage, Gateway
from finorch.prompts import PromptStore
from finorch.record import Record
from finorch.scheduler import Scheduler, WorkflowEvaluation
from finorch.tools.calls import ToolParam, ToolSchema, text2params
from finorch.workflow import (
    ROLE_ASSISTANT,
    ROLE_FINANCIAL_ANALYST,
    Outcome,
    Task,
    Trace,
    run_task,
)

ABSENT_MARKER = "ABSENT"
DISCREPANCY_TOLERANCE = 0.01  # 1% relative difference

CHUNK_SIZE = 1000  # characters per chunk
CHUNK_OVERLAP = 200  # characters each chunk repeats from the one before
TOP_K = 3  # passages retrieved per indicator topic and per report section

DEFAULT_TOPICS = (
    "revenue",
    "net income",
    "gross margin",
    "operating cash flow",
    "total debt",
)

REPORT_SECTIONS = (
    ("Company Overview", "company business overview segments products"),
    ("Financial Performance", "revenue margin profit income growth"),
    ("Peer Comparison", "peers competitors market share industry position"),
    ("Risks", "risk debt regulation litigation competition headwinds"),
    ("Outlook", "outlook guidance forecast expectations next year"),
)

#: Every term of the topic and section queries. A chunk holding none of
#: them is no passage of any topic or section.
_QUERY_TERMS = frozenset(
    tokenize(" ".join([*DEFAULT_TOPICS, *(query for _, query in REPORT_SECTIONS)]))
)

RECORD_INDICATOR = ToolSchema(
    tool_name="record_indicator",
    description="Store one extracted financial indicator.",
    parameters=(
        ToolParam(name="name", type="string"),
        ToolParam(name="value", type="number"),
        ToolParam(name="unit", type="string", required=False),
        ToolParam(name="period", type="string", required=False),
    ),
)


# ── records ──────────────────────────────────────────────────────────────


class Indicator(Record):
    """One extracted figure, tied to the chunks that supported it."""

    __slots__ = ("name", "value", "unit", "period", "topic", "source_ids")

    def __init__(
        self, name: str, value: float, unit: str = "", period: str = "",
        topic: str = "", source_ids: tuple[str, ...] = ()
    ) -> None:
        super().__init__(name, value, unit, period, topic, source_ids)


class Discrepancy(Record):
    """The same indicator name extracted with materially different values."""

    __slots__ = ("name", "values", "detail")

    def __init__(self, name: str, values: tuple[float, ...], detail: str) -> None:
        super().__init__(name, values, detail)


class DocumentAnalysis(Record):
    """Everything analyze_document learned about one file. ``failures``
    holds (topic, cause) pairs; ``index`` is left out of equality and of
    the repr."""

    __slots__ = (
        "doc_path", "chunk_count", "indicators", "failures", "discrepancies",
        "index",
    )
    _uncompared = _unshown = ("index",)

    def __init__(
        self, doc_path: Path, chunk_count: int,
        indicators: tuple[Indicator, ...],
        failures: tuple[tuple[str, str], ...],
        discrepancies: tuple[Discrepancy, ...],
        index: RetrievalIndex | None = None
    ) -> None:
        super().__init__(
            doc_path, chunk_count, indicators, failures, discrepancies, index,
        )


class ReportSection(Record):
    __slots__ = ("name", "body", "refs")

    def __init__(self, name: str, body: str, refs: tuple[str, ...]) -> None:
        super().__init__(name, body, refs)


class ReportResult(Record):
    """A finished research note plus the analysis it was built from."""

    __slots__ = (
        "task_id", "subject", "sections", "analysis", "evaluation", "run_dir",
    )

    def __init__(
        self, task_id: str, subject: str, sections: tuple[ReportSection, ...],
        analysis: DocumentAnalysis,
        evaluation: WorkflowEvaluation | None = None,
        run_dir: Path | None = None
    ) -> None:
        super().__init__(
            task_id, subject, sections, analysis, evaluation, run_dir,
        )

    def to_text(self) -> str:
        parts = [f"{self.subject} — Research Note", "=" * 40, ""]
        for section in self.sections:
            parts.append(section.name.upper())
            parts.append("-" * len(section.name))
            parts.append(section.body)
            if section.refs:
                parts.append(f"Sources: {', '.join(section.refs)}")
            parts.append("")
        return "\n".join(parts)

    def to_markdown(self) -> str:
        parts = [f"# {self.subject} — Research Note", ""]
        for section in self.sections:
            parts.append(f"## {section.name}")
            parts.append("")
            parts.append(section.body)
            parts.append("")
            if section.refs:
                refs = ", ".join(f"`{r}`" for r in section.refs)
                parts.append(f"_Sources: {refs}_")
                parts.append("")
        return "\n".join(parts)


# ── chunking ─────────────────────────────────────────────────────────────


def chunk_text(
    text: str, chunk_size: int = CHUNK_SIZE, overlap: int = CHUNK_OVERLAP
) -> list[Document]:
    """Fixed-size character chunks with forward overlap."""
    if chunk_size < 1:
        raise ValueError(f"chunk_size must be positive, got {chunk_size}")
    if not 0 <= overlap < chunk_size:
        raise ValueError(
            f"overlap must be in [0, chunk_size), got {overlap} for "
            f"chunk_size {chunk_size}"
        )
    step = chunk_size - overlap
    chunks: list[Document] = []
    for n, start in enumerate(range(0, max(len(text), 1), step), start=1):
        piece = text[start : start + chunk_size]
        if not piece:
            break
        chunks.append(Document(doc_id=f"chunk-{n:04d}", text=piece))
        if start + chunk_size >= len(text):
            break
    return chunks


def _read_document(path: Path) -> str:
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise EngineError(f"cannot read {path}: {exc}") from exc
    if not text.strip():
        raise EngineError(f"document {path} is empty")
    return text


# ── extraction ───────────────────────────────────────────────────────────


def _passages_block(passages: list[RetrievedPassage]) -> str:
    return "\n\n".join(f"[{p.doc_id}] {p.text}" for p in passages)


def _find_discrepancies(indicators: tuple[Indicator, ...]) -> tuple[Discrepancy, ...]:
    by_name: dict[str, list[Indicator]] = {}
    for ind in indicators:
        by_name.setdefault(ind.name.casefold(), []).append(ind)
    out: list[Discrepancy] = []
    for name in sorted(by_name):
        group = by_name[name]
        if len(group) < 2:
            continue
        values = [i.value for i in group]
        lo, hi = min(values), max(values)
        scale = max(abs(lo), abs(hi))
        if scale > 0 and (hi - lo) / scale > DISCREPANCY_TOLERANCE:
            out.append(
                Discrepancy(
                    name=group[0].name,
                    values=tuple(values),
                    detail=(
                        f"{group[0].name} extracted as "
                        f"{' vs '.join(format(v, 'g') for v in values)}"
                    ),
                )
            )
    return tuple(out)


def index_document(path: Path) -> DocumentAnalysis:
    """Read, chunk and index a document: its analysis before extraction.

    A chunk with no token can match no query, so the index leaves it out;
    the other chunks keep their ids. An unreadable, empty or tokenless
    document raises an ``EngineError``, and so does one in which no
    chunk shares a term with the topic and section queries, as its report
    would stand on no passage.
    """
    text = _read_document(path)
    chunks = chunk_text(text)
    try:
        index = index_documents(chunks)
    except EmptyCorpus:
        raise EngineError(f"document {path} has no indexable text") from None
    if all(counts.keys().isdisjoint(_QUERY_TERMS) for counts in index.term_counts):
        raise EngineError(
            f"document {path} shares no word with the report's topics and "
            "section queries, so no passage could ground the report"
        )
    return DocumentAnalysis(
        doc_path=path,
        chunk_count=len(chunks),
        indicators=(),
        failures=(),
        discrepancies=(),
        index=index,
    )


def analyze_document(
    document: DocumentAnalysis,
    *,
    gateway: Gateway,
    backend_id: str,
    prompt_store: PromptStore,
    topics: tuple[str, ...] = DEFAULT_TOPICS,
    language: str = "en",
) -> DocumentAnalysis:
    """Extract one indicator per topic from the ``document`` that
    ``index_document`` built.

    A topic no passage matches, and a reply that fails or holds no valid
    tool call, are that topic's failure, and the analysis carries on; any
    other error, such as a missing template, fails it.
    """
    # Retrieve and render every topic first, then run the extractions
    # together; each topic keeps either its passages or its failure.
    staged: list[tuple[str, list[RetrievedPassage] | ExtractionFailure]] = []
    requests = []
    for topic in topics:
        passages = retrieve(
            document.index, topic, k=min(TOP_K, document.chunk_count)
        )
        if not passages:
            staged.append(
                (topic, ExtractionFailure(topic, "no passages matched the topic"))
            )
            continue
        prompt = prompt_store.render(
            "extract_indicator",
            {"topic": topic, "passages": _passages_block(passages)},
            language,
        )
        staged.append((topic, passages))
        requests.append((backend_id, [ChatMessage(role="user", content=prompt)]))
    outcomes = iter(gateway.chat_many(requests))
    indicators: list[Indicator] = []
    failures: list[tuple[str, str]] = []
    for topic, prepared in staged:
        try:
            if isinstance(prepared, ExtractionFailure):
                raise prepared
            outcome = next(outcomes)
            if isinstance(outcome, EngineError):
                raise outcome
            reply = outcome.response_text
            if ABSENT_MARKER in reply and "```tool" not in reply:
                continue
            call = text2params(reply, [RECORD_INDICATOR])
            indicators.append(
                Indicator(
                    name=str(call.arguments["name"]),
                    value=float(call.arguments["value"]),
                    unit=str(call.arguments.get("unit", "")),
                    period=str(call.arguments.get("period", "")),
                    topic=topic,
                    source_ids=tuple(p.doc_id for p in prepared),
                )
            )
        except ExtractionFailure as exc:
            failures.append((topic, exc.cause))
        except EngineError as exc:
            failures.append((topic, str(exc)))
    return document.replace(
        indicators=tuple(indicators),
        failures=tuple(failures),
        discrepancies=_find_discrepancies(tuple(indicators)),
    )


# ── report generation ────────────────────────────────────────────────────


def _indicator_block(analysis: DocumentAnalysis) -> str:
    if not analysis.indicators:
        return "(no indicators were extracted)"
    lines = []
    for ind in analysis.indicators:
        unit = f" {ind.unit}" if ind.unit else ""
        period = f" ({ind.period})" if ind.period else ""
        lines.append(f"- {ind.name}: {ind.value:g}{unit}{period}")
    for disc in analysis.discrepancies:
        lines.append(f"- DISCREPANCY: {disc.detail}")
    return "\n".join(lines)


def _slug(text: str) -> str:
    return re.sub(r"[^a-z0-9]+", "-", text.casefold()).strip("-") or "subject"


def generate_report(
    document: DocumentAnalysis,
    subject: str,
    *,
    scheduler: Scheduler,
    gateway: Gateway,
    prompt_store: PromptStore,
    runs_dir: Path,
    clock: Clock,
    language: str = "en",
    analyze: Callable[..., DocumentAnalysis] = analyze_document,
) -> ReportResult:
    """Extract the indicators of an indexed ``document`` and write the
    five-section research note, both through the routed agent's backend,
    in one run of the task runner.

    ``analyze`` is called like ``analyze_document``, with the document and
    the routed backend id; its failure is the Assistant's.
    """
    task_id = f"report-{_slug(subject)}-{document.doc_path.stem}-{language}"
    task = Task(
        task_id=task_id,
        task_kind="report",
        instruction_text=(
            f"Write a five-section research note on {subject} grounded in "
            "the analyzed document."
        ),
        language=language,
    )

    def act(backend_id: str, trace: Trace) -> Outcome:
        with trace.stage(ROLE_ASSISTANT):
            analysis = analyze(
                document,
                gateway=gateway,
                backend_id=backend_id,
                prompt_store=prompt_store,
                language=language,
            )
        trace.emit(
            ROLE_ASSISTANT,
            {
                "event": "analysis",
                "chunks": analysis.chunk_count,
                "indicators": len(analysis.indicators),
                "failures": len(analysis.failures),
                "discrepancies": len(analysis.discrepancies),
            },
        )
        # Render every section prompt first, then write the sections together.
        indicators_block = _indicator_block(analysis)
        staged: list[tuple[str, tuple[str, ...]]] = []
        requests = []
        for name, query in REPORT_SECTIONS:
            with trace.stage(ROLE_FINANCIAL_ANALYST, section=name):
                passages = retrieve(
                    analysis.index, query, k=min(TOP_K, analysis.chunk_count)
                )
                prompt = prompt_store.render(
                    "report_section",
                    {
                        "section_name": name,
                        "subject": subject,
                        "indicators": indicators_block,
                        "passages": _passages_block(passages) or "(none)",
                    },
                    language,
                )
            staged.append((name, tuple(p.doc_id for p in passages)))
            requests.append((backend_id, [ChatMessage(role="user", content=prompt)]))
        sections: list[ReportSection] = []
        for (name, refs), outcome in zip(staged, gateway.chat_many(requests)):
            if isinstance(outcome, EngineError):
                raise trace.fail(ROLE_FINANCIAL_ANALYST, outcome, section=name)
            sections.append(
                ReportSection(name=name, body=outcome.response_text, refs=refs)
            )
            trace.emit(
                ROLE_FINANCIAL_ANALYST,
                {"event": "section", "name": name, "refs": list(refs)},
            )
        result = ReportResult(
            task_id=task_id,
            subject=subject,
            sections=tuple(sections),
            analysis=analysis,
        )
        return Outcome(
            value=result,
            final_output="\n\n".join(f"{s.name}\n{s.body}" for s in sections),
            artifact="analysis.json",
            payload={
                "subject": subject,
                "chunks": analysis.chunk_count,
                "indicators": [
                    {
                        "name": i.name,
                        "value": i.value,
                        "unit": i.unit,
                        "period": i.period,
                        "topic": i.topic,
                        "sources": list(i.source_ids),
                    }
                    for i in analysis.indicators
                ],
                "failures": [list(f) for f in analysis.failures],
                "discrepancies": [d.to_dict() for d in analysis.discrepancies],
                "sections": [s.name for s in sections],
            },
            texts={"report.txt": result.to_text(), "report.md": result.to_markdown()},
        )

    run = run_task(
        task,
        act,
        scheduler=scheduler,
        gateway=gateway,
        prompt_store=prompt_store,
        runs_dir=runs_dir,
        clock=clock,
    )
    return run.value.replace(evaluation=run.evaluation, run_dir=run.run_dir)
