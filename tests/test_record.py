"""The frozen records: value equality and hashing, no assignment or
deletion, a repr naming every shown field, copying and pickling,
``to_dict``, ``replace`` running the record's checks again, and every
``__init__`` taking its fields in ``__slots__`` order."""

from __future__ import annotations

import copy
import datetime as dt
import inspect
import pickle
from pathlib import Path

import pytest

from finorch.apps.forecaster import (
    FactorItem,
    ForecastResult,
    ForecastRun,
)
from finorch.apps.reports import (
    Discrepancy,
    DocumentAnalysis,
    Indicator,
    ReportResult,
    ReportSection,
)
from finorch.config import EngineConfig, ProviderSettings
from finorch.dataops.retrieval import (
    Document,
    RetrievalIndex,
    RetrievedPassage,
    index_documents,
)
from finorch.dataops.types import (
    CompanyBundle,
    CompanyProfile,
    FinancialSnapshot,
    NewsItem,
    PriceObservation,
    PriceSeries,
)
from finorch.gateway import BackendSpec, ChatExchange, ChatMessage
from finorch.record import Record
from finorch.scheduler import (
    AgentProfile,
    GoldenRecord,
    Reflection,
    TaskScore,
    WorkflowEvaluation,
)
from finorch.tools.calls import ToolCall, ToolParam, ToolSchema
from finorch.workflow import Outcome, Task, TaskRun

DAY = dt.date(2024, 4, 18)


def backend() -> BackendSpec:
    return BackendSpec(backend_id="b", base_url="https://x", model_name="m")


def message() -> ChatMessage:
    return ChatMessage(role="user", content="hello")


def exchange() -> ChatExchange:
    return ChatExchange("b", (message(),), "reply", 0.5, 1)


def scores() -> dict[str, float]:
    return {"exact_match": 1.0, "token_f1": 0.5}


def evaluation() -> WorkflowEvaluation:
    return WorkflowEvaluation("t", 0.8, (0.5,), 0.5, 1, "fine", "now")


def task() -> Task:
    return Task("t", "forecast", "forecast it")


def prices() -> PriceSeries:
    return PriceSeries("AAPL", (PriceObservation(DAY, "170.5"),))


def profile() -> CompanyProfile:
    return CompanyProfile("Apple", "NASDAQ", "Tech", 2.6e12)


def bundle() -> CompanyBundle:
    return CompanyBundle(
        "AAPL", DAY + dt.timedelta(days=1), profile(), prices(),
        (NewsItem("h", "s", DAY, "n1"),),
        FinancialSnapshot("FY23", {"pe": 28.0}),
    )


def result() -> ForecastResult:
    item = FactorItem("growth", "News")
    return ForecastResult((item,), (FactorItem("risk"),), "up", 1.0, 2.0, "a")


def analysis(index: RetrievalIndex | None = None) -> DocumentAnalysis:
    return DocumentAnalysis(
        Path("filing.txt"), 2, (Indicator("revenue", 1.5),),
        (("debt", "absent"),), (Discrepancy("eps", (1.0, 2.0), "eps"),), index,
    )


def document() -> Document:
    return Document("chunk-0001", "revenue grew")


#: A validated example of every frozen record.
EXAMPLES = {
    "ProviderSettings": lambda: ProviderSettings("finnhub", "https://x", "T"),
    "EngineConfig": lambda: EngineConfig(
        (backend(),), (AgentProfile("a", "b", ["forecast"]),),
        {"forecast": scores()}, ProviderSettings("finnhub", "https://x", "T"),
        Path("s"), Path("r"), Path("c"), Path("g"), Path("f"),
    ),
    "BackendSpec": backend,
    "ChatMessage": message,
    "ChatExchange": exchange,
    "AgentProfile": lambda: AgentProfile("a", "b", ["forecast", "report"]),
    "GoldenRecord": lambda: GoldenRecord("r1", "forecast", "in", "out", ["x"]),
    "TaskScore": lambda: TaskScore("a", "forecast", scores(), "now"),
    "Reflection": lambda: Reflection("a", "t", 0.5, "score: 0.5", "now"),
    "WorkflowEvaluation": evaluation,
    "Task": task,
    "Outcome": lambda: Outcome("v", "out", "forecast.json", {"k": 1}),
    "TaskRun": lambda: TaskRun("v", evaluation(), Path("runs/t")),
    "PriceObservation": lambda: PriceObservation(DAY, "170.5"),
    "PriceSeries": prices,
    "CompanyProfile": profile,
    "NewsItem": lambda: NewsItem("h", "s", DAY, "n1"),
    "FinancialSnapshot": lambda: FinancialSnapshot("FY23", {"pe": 28.0}),
    "CompanyBundle": bundle,
    "Document": document,
    "RetrievedPassage": lambda: RetrievedPassage("chunk-0001", "text", 1.5),
    "RetrievalIndex": lambda: index_documents([document()]),
    "ToolParam": lambda: ToolParam("value", "number"),
    "ToolSchema": lambda: ToolSchema("t", "d", (ToolParam("n", "string"),)),
    "ToolCall": lambda: ToolCall("t", {"n": "x"}, "model text"),
    "FactorItem": lambda: FactorItem("growth", "News"),
    "ForecastResult": result,
    "ForecastRun": lambda: ForecastRun(
        task(), result(), exchange(), evaluation(), Path("runs/t")
    ),
    "Indicator": lambda: Indicator("revenue", 1.5, "USD", "FY23", "revenue"),
    "Discrepancy": lambda: Discrepancy("eps", (1.0, 2.0), "eps"),
    "DocumentAnalysis": analysis,
    "ReportSection": lambda: ReportSection("Risks", "body", ("chunk-0001",)),
    "ReportResult": lambda: ReportResult(
        "t", "Acme", (ReportSection("Risks", "body", ()),), analysis()
    ),
}

#: Records holding a mapping, which no hash takes: as with a frozen
#: dataclass, hashing them raises TypeError.
HOLDS_A_MAPPING = {
    "EngineConfig", "TaskScore", "Outcome", "FinancialSnapshot",
    "CompanyBundle", "RetrievalIndex", "ToolCall",
}

#: The one field a repr leaves out, by record.
UNSHOWN = {"DocumentAnalysis": "index"}


@pytest.mark.parametrize("name", sorted(EXAMPLES))
def test_frozen_record_semantics(name):
    make = EXAMPLES[name]
    record, twin = make(), make()
    cls = type(record)
    assert cls.__name__ == name
    fields = cls.__slots__

    # Equal fields, equal records, equal hashes.
    assert record == twin and not record != twin
    assert record != object()
    if name in HOLDS_A_MAPPING:
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(record) == hash(twin)

    # No field can be assigned or deleted, and no attribute added.
    for field in fields:
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(twin, field))
        with pytest.raises(AttributeError):
            delattr(record, field)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert record == twin

    # The repr names the class and its fields.
    text = repr(record)
    assert text.startswith(f"{name}(") and text.endswith(")")
    shown = [field for field in fields if field != UNSHOWN.get(name)]
    positions = [text.index(f"{field}=") for field in shown]
    assert positions == sorted(positions)

    # to_dict gives every field as stored, in __slots__ order.
    # CompanyBundle keeps its own nested, ISO-dated to_dict.
    if name != "CompanyBundle":
        as_dict = record.to_dict()
        assert list(as_dict) == list(fields)
        assert as_dict == {field: getattr(record, field) for field in fields}

    # replace with no change gives a new, equal record, as do copying and
    # pickling.
    for rebuilt in (
        record.replace(),
        copy.copy(record),
        copy.deepcopy(record),
        pickle.loads(pickle.dumps(record)),
    ):
        assert rebuilt == record and rebuilt is not record


def _descendants(cls: type) -> list[type]:
    found = []
    for sub in cls.__subclasses__():
        found += [sub, *_descendants(sub)]
    return found


def test_every_record_takes_its_slots_in_order():
    """Record's fill, __reduce__ and replace pass the fields in __slots__
    order, so each record's __init__ must take them in that order."""
    records = _descendants(Record)
    assert sorted(cls.__name__ for cls in records) == sorted(EXAMPLES)
    for cls in records:
        assert cls.__bases__ == (Record,), cls
        assert "__init__" in vars(cls), cls
        params = list(inspect.signature(cls.__init__).parameters.values())
        assert all(p.kind is p.POSITIONAL_OR_KEYWORD for p in params), cls
        assert tuple(p.name for p in params[1:]) == cls.__slots__, cls


def test_replace_runs_the_checks_and_coercions_again():
    with pytest.raises(ValueError, match="timeout must be positive"):
        backend().replace(timeout=0)
    with pytest.raises(ValueError, match="unknown role"):
        message().replace(role="robot")
    with pytest.raises(TypeError):
        message().replace(colour="red")
    agent = AgentProfile("a", "b", ["forecast"]).replace(task_kinds=["report"])
    assert agent.task_kinds == frozenset({"report"})
    record = GoldenRecord("r1", "forecast", "in", "out", ["x"])
    assert record.replace(dimension_labels=["y"]).dimension_labels == ("y",)


def test_uncompared_fields_are_left_out_of_equality():
    assert ToolCall("t", {"n": "x"}, "one text") == ToolCall(
        "t", {"n": "x"}, "another"
    )
    assert ToolCall("t", {"n": "x"}) != ToolCall("t", {"n": "y"})
    index = index_documents([document()])
    with_index = analysis(index)
    assert with_index == analysis()
    assert hash(with_index) == hash(analysis())
    assert "index=" not in repr(with_index)
    assert "RetrievalIndex" not in repr(with_index)
