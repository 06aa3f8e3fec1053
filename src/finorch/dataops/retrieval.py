r"""Lexical retrieval: inverted index plus BM25 scoring.

Tokenization: a token is a lowercased run of two or more characters for
which ``str.isalnum()`` holds; every other character, ``_`` included,
ends a run. ``tokenize`` finds them in one C-level pass per text: it
encodes the lowercased text as UTF-8 and lets one 256-entry byte table
turn every ASCII byte outside ``[a-z0-9]`` into a space, so ``split()``
yields the ASCII runs directly. The rare word that still holds a
non-ASCII character goes through the regex ``[^\W_]{2,}``, which applies
the same rule to any character.

Scoring uses k1 = 1.2, b = 0.75 and the always-positive idf variant
idf(t) = ln(1 + (N - df + 0.5)/(df + 0.5)). Query terms are summed per
occurrence, so a repeated query term counts twice. Only documents sharing
at least one query term are returned, ordered by descending score with
ties broken by ascending doc_id.
"""

from __future__ import annotations

import math
import re
from collections import Counter, defaultdict
from typing import Any, Mapping, Sequence

from finorch.errors import EmptyCorpus, EmptyQuery
from finorch.record import Record

__all__ = [
    "BM25_B",
    "BM25_K1",
    "Document",
    "RetrievalIndex",
    "RetrievedPassage",
    "has_token",
    "index_documents",
    "retrieve",
    "tokenize",
]

BM25_K1 = 1.2
BM25_B = 0.75

# ASCII bytes outside [a-z0-9] become spaces; bytes of multi-byte UTF-8
# characters (0x80 and up) pass unchanged.
_KEEP = b"abcdefghijklmnopqrstuvwxyz0123456789"
_SEPARATORS = bytes(b if b >= 0x80 or b in _KEEP else 0x20 for b in range(256))
# unicode alphanumerics without the underscore, two or more
_TOKEN = re.compile(r"[^\W_]{2,}")


def tokenize(text: str) -> list[str]:
    words = (
        text.lower()
        .encode("utf-8", "surrogatepass")
        .translate(_SEPARATORS)
        .decode("utf-8", "surrogatepass")
        .split()
    )
    tokens: list[str] = []
    for word in words:
        if word.isascii():
            if len(word) > 1:
                tokens.append(word)
        else:
            tokens += _TOKEN.findall(word)
    return tokens


def has_token(text: str) -> bool:
    """Whether ``tokenize(text)`` is non-empty; stops at the first token."""
    return _TOKEN.search(text.lower()) is not None


class Document(Record):
    doc_id: str
    text: str
    metadata: Mapping[str, Any]
    __slots__ = ("doc_id", "text", "metadata")

    def __init__(
        self, doc_id: str, text: str, metadata: Mapping[str, Any] | None = None
    ) -> None:
        object.__setattr__(self, "doc_id", doc_id)
        object.__setattr__(self, "text", text)
        object.__setattr__(self, "metadata", {} if metadata is None else metadata)


class RetrievedPassage(Record):
    doc_id: str
    text: str
    score: float
    metadata: Mapping[str, Any]
    __slots__ = ("doc_id", "text", "score", "metadata")

    def __init__(
        self, doc_id: str, text: str, score: float,
        metadata: Mapping[str, Any] | None = None
    ) -> None:
        object.__setattr__(self, "doc_id", doc_id)
        object.__setattr__(self, "text", text)
        object.__setattr__(self, "score", score)
        object.__setattr__(self, "metadata", {} if metadata is None else metadata)


class RetrievalIndex(Record):
    """Immutable inverted index over a fixed corpus."""

    documents: Mapping[str, Document]  # doc_id -> document, corpus order
    postings: Mapping[str, Mapping[str, int]]  # term -> doc_id -> tf
    doc_lengths: Mapping[str, int]
    average_doc_length: float
    __slots__ = ("documents", "postings", "doc_lengths", "average_doc_length")

    def __init__(
        self, documents: Mapping[str, Document],
        postings: Mapping[str, Mapping[str, int]],
        doc_lengths: Mapping[str, int], average_doc_length: float
    ) -> None:
        object.__setattr__(self, "documents", documents)
        object.__setattr__(self, "postings", postings)
        object.__setattr__(self, "doc_lengths", doc_lengths)
        object.__setattr__(self, "average_doc_length", average_doc_length)

    def __len__(self) -> int:
        return len(self.documents)

    def document(self, doc_id: str) -> Document:
        return self.documents[doc_id]


def _as_document(raw: Document | Sequence[Any]) -> Document:
    if isinstance(raw, Document):
        return raw
    if len(raw) == 2:
        return Document(doc_id=str(raw[0]), text=str(raw[1]))
    doc_id, text, metadata = raw
    return Document(doc_id=str(doc_id), text=str(text), metadata=metadata)


def index_documents(
    docs: Sequence[Document | Sequence[Any]],
) -> RetrievalIndex:
    """Build the inverted index; deterministic for a given corpus.

    Terms appear in ``postings`` in order of first use and each posting
    list in corpus order.
    """
    documents: dict[str, Document] = {}
    for raw in docs:
        doc = _as_document(raw)
        if doc.doc_id in documents:
            raise ValueError(f"duplicate doc_id {doc.doc_id!r}")
        documents[doc.doc_id] = doc
    if not documents:
        raise EmptyCorpus("no documents to index")
    postings: defaultdict[str, dict[str, int]] = defaultdict(dict)
    doc_lengths: dict[str, int] = {}
    for doc_id, doc in documents.items():
        tokens = tokenize(doc.text)
        if not tokens:
            raise EmptyCorpus(f"document {doc_id!r} has no indexable tokens")
        doc_lengths[doc_id] = len(tokens)
        for term, tf in Counter(tokens).items():
            postings[term][doc_id] = tf
    average = sum(doc_lengths.values()) / len(documents)
    return RetrievalIndex(
        documents=documents,
        postings=dict(postings),
        doc_lengths=doc_lengths,
        average_doc_length=average,
    )


def bm25_scores(index: RetrievalIndex, query: str) -> dict[str, float]:
    """Raw BM25 scores for documents sharing at least one query term."""
    terms = tokenize(query)
    if not terms:
        raise EmptyQuery(f"query {query!r} has no indexable tokens")
    n_docs = len(index.documents)
    scores: dict[str, float] = {}
    for term in terms:
        plist = index.postings.get(term)
        if not plist:
            continue
        df = len(plist)
        idf = math.log(1.0 + (n_docs - df + 0.5) / (df + 0.5))
        for doc_id, tf in plist.items():
            length_norm = 1.0 - BM25_B + BM25_B * (
                index.doc_lengths[doc_id] / index.average_doc_length
            )
            gain = idf * tf * (BM25_K1 + 1.0) / (tf + BM25_K1 * length_norm)
            scores[doc_id] = scores.get(doc_id, 0.0) + gain
    return scores


def retrieve(index: RetrievalIndex, query: str, k: int) -> list[RetrievedPassage]:
    """Top-k passages by BM25; ties broken by ascending doc_id."""
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")
    scores = bm25_scores(index, query)
    ranked = sorted(scores.items(), key=lambda item: (-item[1], item[0]))
    out: list[RetrievedPassage] = []
    for doc_id, score in ranked[:k]:
        doc = index.document(doc_id)
        out.append(
            RetrievedPassage(
                doc_id=doc_id, text=doc.text, score=score, metadata=doc.metadata
            )
        )
    return out
