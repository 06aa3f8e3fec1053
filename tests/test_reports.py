"""Document analysis and report generation tests: chunking, per-topic
indicator extraction with failure isolation, discrepancy detection, and the
five-section routed report over scripted mock backends.
"""

from __future__ import annotations

import json
import random
import threading
from pathlib import Path

import pytest

from finorch.apps.reports import (
    DEFAULT_TOPICS,
    Indicator,
    analyze_document,
    chunk_text,
    generate_report,
    _find_discrepancies,
    _indicator_block,
)
from finorch.clock import FixedClock
from finorch.errors import (
    EngineError,
    TransportError,
    TransportExhausted,
    UnknownTemplate,
    UnreadableDocument,
)
from finorch.gateway import BackendSpec, Gateway, MockTransport
from finorch.prompts import PromptStore
from finorch.scheduler import AgentProfile, GoldenRecord, Scheduler
from finorch.workflow import ROLE_FINANCIAL_ANALYST

FILING = Path(__file__).parent / "fixtures" / "acme_filing.txt"


# ---------------------------------------------------------------- chunking


def test_chunk_text_single_chunk() -> None:
    chunks = chunk_text("a" * 1000)
    assert len(chunks) == 1
    assert chunks[0].doc_id == "chunk-0001"


def test_chunk_text_overlap() -> None:
    text = "".join(chr(ord("a") + i % 26) for i in range(2100))
    chunks = chunk_text(text, chunk_size=1000, overlap=200)
    assert [c.doc_id for c in chunks] == ["chunk-0001", "chunk-0002", "chunk-0003"]
    assert chunks[0].text == text[0:1000]
    assert chunks[1].text == text[800:1800]
    assert chunks[2].text == text[1600:2600]
    # consecutive chunks share exactly the overlap
    assert chunks[0].text[-200:] == chunks[1].text[:200]
    assert chunks[1].metadata["offset"] == 800


def test_chunk_text_validation() -> None:
    with pytest.raises(ValueError):
        chunk_text("x", chunk_size=0)
    with pytest.raises(ValueError):
        chunk_text("x", chunk_size=100, overlap=100)
    with pytest.raises(ValueError):
        chunk_text("x", chunk_size=100, overlap=-1)


# ---------------------------------------------------------- document read


def test_unreadable_documents(tmp_path: Path) -> None:
    gateway = scripted_gateway({})
    kwargs = dict(
        gateway=gateway,
        backend_id="extractor",
        prompt_store=PromptStore(),
    )
    with pytest.raises(UnreadableDocument):
        analyze_document(tmp_path / "missing.txt", **kwargs)
    empty = tmp_path / "empty.txt"
    empty.write_text("   \n", encoding="utf-8")
    with pytest.raises(UnreadableDocument):
        analyze_document(empty, **kwargs)
    binary = tmp_path / "binary.txt"
    binary.write_bytes(b"\xff\xfe\x00\x00junk")
    with pytest.raises(UnreadableDocument):
        analyze_document(binary, **kwargs)


# ------------------------------------------------------------- extraction


def tool_reply(name: str, value: float, unit: str = "billion") -> str:
    payload = {"tool": "record_indicator", "args": {"name": name, "value": value, "unit": unit}}
    return f"Found it. ```tool\n{json.dumps(payload)}\n```"


def extractor_script() -> list[dict]:
    return [
        {"match": 'indicator "total revenue"', "reply": tool_reply("revenue", 12.3)},
        {"match": 'indicator "revenue"', "reply": tool_reply("revenue", 12.0)},
        {"match": 'indicator "net income"', "reply": tool_reply("net income", 2.1)},
        {"match": 'indicator "gross margin"', "reply": "ABSENT"},
        {
            "match": 'indicator "total debt"',
            "reply": "```tool\n{not valid json\n```",
        },
    ]


def scripted_gateway(scripts: dict[str, list[dict]]) -> Gateway:
    gateway = Gateway(
        clock=FixedClock(), sleeper=lambda _s: None, rng=random.Random(0)
    )
    gateway.script_mock("extractor", extractor_script())
    for backend_id, script in scripts.items():
        gateway.script_mock(backend_id, script)
    return gateway


TOPICS = (
    "revenue",
    "total revenue",
    "net income",
    "gross margin",
    "total debt",
    "moonshot quotient",
)


def analyzed(tmp_path_unused: Path | None = None):
    return analyze_document(
        FILING,
        gateway=scripted_gateway({}),
        backend_id="extractor",
        prompt_store=PromptStore(),
        topics=TOPICS,
    )


def test_analyze_document_extracts_and_isolates_failures() -> None:
    analysis = analyzed()
    assert analysis.chunk_count >= 3
    by_topic = {i.topic: i for i in analysis.indicators}
    assert by_topic["revenue"].value == 12.0
    assert by_topic["total revenue"].value == 12.3
    assert by_topic["net income"].value == 2.1
    assert by_topic["net income"].unit == "billion"
    # ABSENT topic produced no indicator and no failure
    assert "gross margin" not in by_topic
    failed_topics = [topic for topic, _ in analysis.failures]
    assert "total debt" in failed_topics  # malformed tool block
    assert "moonshot quotient" in failed_topics  # no passage matched
    assert len(analysis.indicators) == 3
    src = by_topic["revenue"].source_ids
    assert src and all(s.startswith("chunk-") for s in src)


def test_analyze_document_flags_discrepancies() -> None:
    analysis = analyzed()
    assert len(analysis.discrepancies) == 1
    disc = analysis.discrepancies[0]
    assert disc.name == "revenue"
    assert sorted(disc.values) == [12.0, 12.3]
    assert "12 vs 12.3" in disc.detail


def test_discrepancy_tolerance_boundary() -> None:
    def ind(value: float) -> Indicator:
        return Indicator(name="margin", value=value)

    # 0.9% apart: within tolerance
    assert _find_discrepancies((ind(100.0), ind(99.1))) == ()
    # 2% apart: flagged
    flagged = _find_discrepancies((ind(100.0), ind(98.0)))
    assert len(flagged) == 1
    # identical values never flag
    assert _find_discrepancies((ind(5.0), ind(5.0))) == ()
    # different names never compare
    assert (
        _find_discrepancies(
            (Indicator(name="a", value=1.0), Indicator(name="b", value=9.0))
        )
        == ()
    )


def test_indicator_block_lists_values_and_discrepancies() -> None:
    analysis = analyzed()
    block = _indicator_block(analysis)
    assert "- revenue: 12 billion" in block
    assert "- net income: 2.1 billion" in block
    assert "DISCREPANCY: revenue extracted as" in block


def test_default_topics_are_finance_shaped() -> None:
    assert "revenue" in DEFAULT_TOPICS
    assert all(t == t.casefold() for t in DEFAULT_TOPICS)


# ----------------------------------------------------------------- report


def section_script(task_id: str) -> list[dict]:
    return [
        {"match": task_id, "reply": "score: 0.8 grounded in passages"},
        {"match": '"Company Overview"', "reply": "Acme builds motion control. [chunk-0001]"},
        {"match": '"Financial Performance"', "reply": "Revenue grew eight percent."},
        {"match": '"Peer Comparison"', "reply": "Share gains in servo drives."},
        {"match": '"Risks"', "reply": "Cyclicality and concentration."},
        {"match": '"Outlook"', "reply": "Guidance is five to seven percent."},
        {"match": "report probe", "reply": "a full five-section note"},
    ]


REPORT_TASK_ID = "report-acme-industrial-acme_filing-en"


def report_setup(tmp_path: Path, writer_transport=None):
    """Analysis, gateway and scheduler with the writer agent scored.

    The writer backend is the section script as a mock, unless
    ``writer_transport`` is given."""
    analysis = analyzed()
    if writer_transport is None:
        gateway = scripted_gateway(
            {"writer-backend": section_script(REPORT_TASK_ID)}
        )
    else:
        gateway = scripted_gateway({})
        gateway.register_backend(
            BackendSpec(
                backend_id="writer-backend",
                base_url="http://writer.test",
                model_name="m",
            ),
            transport=writer_transport,
        )
    gateway.script_mock("judge", [{"match": "", "reply": "score: 1.0"}])
    scheduler = Scheduler(
        gateway=gateway,
        prompt_store=PromptStore(),
        state_dir=tmp_path / "state",
        judge_backend_id="judge",
        clock=FixedClock(),
    )
    scheduler.register_agent(
        AgentProfile(
            agent_id="writer",
            backend_id="writer-backend",
            task_kinds=frozenset({"report"}),
        )
    )
    scheduler.evaluate_agent(
        "writer",
        [
            GoldenRecord(
                record_id="p1",
                task_kind="report",
                input_text="report probe",
                reference_answer="a full five-section note",
                dimension_labels=("exact_match",),
            )
        ],
    )
    return analysis, gateway, scheduler


def run_report(tmp_path: Path):
    analysis, gateway, scheduler = report_setup(tmp_path)
    return generate_report(
        analysis,
        "Acme Industrial",
        scheduler=scheduler,
        gateway=gateway,
        prompt_store=PromptStore(),
        runs_dir=tmp_path / "runs",
        clock=FixedClock(),
    )


def test_generate_report_five_sections(tmp_path: Path) -> None:
    result = run_report(tmp_path)
    assert result.task_id == "report-acme-industrial-acme_filing-en"
    assert [s.name for s in result.sections] == [
        "Company Overview",
        "Financial Performance",
        "Peer Comparison",
        "Risks",
        "Outlook",
    ]
    assert result.sections[0].body.startswith("Acme builds motion control")
    assert all(s.refs for s in result.sections)
    assert result.evaluation is not None and result.evaluation.grade == 1.0


def test_report_text_and_markdown_outputs(tmp_path: Path) -> None:
    result = run_report(tmp_path)
    text = result.to_text()
    assert text.startswith("Acme Industrial — Research Note")
    assert "COMPANY OVERVIEW" in text
    assert "Sources: chunk-" in text
    md = result.to_markdown()
    assert md.startswith("# Acme Industrial — Research Note")
    for name in ("Company Overview", "Financial Performance", "Outlook"):
        assert f"## {name}" in md
    assert "_Sources:" in md


def test_report_artifacts_persisted_and_deterministic(tmp_path: Path) -> None:
    first = run_report(tmp_path / "a")
    second = run_report(tmp_path / "b")
    for name in ("report.txt", "report.md", "analysis.json", "trace.jsonl"):
        assert (first.run_dir / name).exists()
        assert (first.run_dir / name).read_bytes() == (
            second.run_dir / name
        ).read_bytes()
    summary = json.loads(
        (first.run_dir / "analysis.json").read_text(encoding="utf-8")
    )
    assert summary["subject"] == "Acme Industrial"
    assert summary["grade"] == 1.0
    assert summary["self_score"] == 0.8
    assert len(summary["indicators"]) == 3
    assert summary["sections"] == [
        "Company Overview",
        "Financial Performance",
        "Peer Comparison",
        "Risks",
        "Outlook",
    ]


def test_generate_report_requires_the_section_template(tmp_path: Path) -> None:
    analysis, gateway, scheduler = report_setup(tmp_path)
    bare = tmp_path / "bare_prompts"
    bare.mkdir()
    with pytest.raises(UnknownTemplate):
        generate_report(
            analysis,
            "Acme Industrial",
            scheduler=scheduler,
            gateway=gateway,
            prompt_store=PromptStore(bare),
            clock=FixedClock(),
        )


def section_failure(tmp_path: Path, writer_transport=None):
    """Run a report expected to fail; return the error and trace events."""
    analysis, gateway, scheduler = report_setup(tmp_path, writer_transport)
    with pytest.raises(EngineError) as err:
        generate_report(
            analysis,
            "Acme Industrial",
            scheduler=scheduler,
            gateway=gateway,
            prompt_store=PromptStore(),
            runs_dir=tmp_path / "runs",
            clock=FixedClock(),
        )
    trace = tmp_path / "runs" / REPORT_TASK_ID / "trace.jsonl"
    records = [json.loads(line) for line in trace.read_text().splitlines()]
    return err.value, [r for r in records if r["event"] in ("section", "error")]


def test_section_failure_raises_for_first_failing_section(tmp_path: Path) -> None:
    script = [
        {"match": '"Peer Comparison"', "fail": True},
        {"match": '"Outlook"', "fail": True},
        *section_script(REPORT_TASK_ID),
    ]
    error, events = section_failure(tmp_path, MockTransport(script))
    assert isinstance(error, TransportExhausted)
    assert error.role == ROLE_FINANCIAL_ANALYST
    assert [(r["event"], r.get("name", r.get("section"))) for r in events] == [
        ("section", "Company Overview"),
        ("section", "Financial Performance"),
        ("error", "Peer Comparison"),
    ]


def test_concurrent_section_failures_raise_for_first_section(
    tmp_path: Path,
) -> None:
    """Outlook fails before Peer Comparison does; the error still names
    Peer Comparison."""

    class RacingSections:
        def __init__(self):
            self._mock = MockTransport(section_script(REPORT_TASK_ID))
            self._outlook_failed = threading.Event()

        def send(self, spec, payload):
            text = payload["messages"][-1]["content"]
            if '"Outlook"' in text:
                self._outlook_failed.set()
                raise TransportError("outlook down")
            if '"Peer Comparison"' in text:
                assert self._outlook_failed.wait(timeout=5)
                raise TransportError("peers down")
            return self._mock.send(spec, payload)

    error, events = section_failure(tmp_path, RacingSections())
    assert "peers down" in str(error)
    assert error.role == ROLE_FINANCIAL_ANALYST
    assert [r["event"] for r in events] == ["section", "section", "error"]
    assert events[-1]["section"] == "Peer Comparison"


def test_self_assessment_failure_is_the_analysts(tmp_path: Path) -> None:
    script = [
        {"match": REPORT_TASK_ID, "fail": True},
        *section_script(REPORT_TASK_ID),
    ]
    error, events = section_failure(tmp_path, MockTransport(script))
    assert isinstance(error, TransportExhausted)
    assert error.role == ROLE_FINANCIAL_ANALYST
    assert [r["event"] for r in events] == ["section"] * 5 + ["error"]
    assert events[-1]["role"] == ROLE_FINANCIAL_ANALYST
    assert "section" not in events[-1]
