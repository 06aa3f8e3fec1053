r"""Lexical retrieval: per-document term counts plus BM25 scoring.

A token is a lowercased run of two or more characters for which
``str.isalnum()`` holds; every other character, ``_`` included, ends a
run. One C-level pass splits a text into words: it lowercases and
UTF-8-encodes the text, and one 256-entry byte table turns every ASCII
byte outside ``[a-z0-9]`` into a space, so ``split()`` yields the ASCII
runs directly. The rare word that still holds a non-ASCII character goes
through the regex ``[^\W_]{2,}``, which applies the same rule to any
character. The index is each document's term counts from that one pass,
in corpus order, and BM25 looks up only the query terms in them.

Scoring uses k1 = 1.2, b = 0.75 and the always-positive idf variant
idf(t) = ln(1 + (N - df + 0.5)/(df + 0.5)). A repeated query term counts
twice. Only documents sharing a query term are returned, ordered by
descending score with ties broken by ascending doc_id.
"""

from __future__ import annotations

import math
import re
from collections import Counter
from itertools import compress, filterfalse, repeat
from typing import Any, Mapping, Sequence

from finorch.errors import EmptyCorpus, EngineError
from finorch.record import Record

__all__ = [
    "BM25_B",
    "BM25_K1",
    "Document",
    "RetrievalIndex",
    "RetrievedPassage",
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
_SHORT = tuple(_KEEP.decode())  # the one-character words: no token
# unicode alphanumerics without the underscore, two or more
_TOKEN = re.compile(r"[^\W_]{2,}")


def _words(text: str) -> list[str]:
    return (
        text.lower()
        .encode("utf-8", "surrogatepass")
        .translate(_SEPARATORS)
        .decode("utf-8", "surrogatepass")
        .split()
    )


def tokenize(text: str) -> list[str]:
    tokens: list[str] = []
    for word in _words(text):
        if not word.isascii():
            tokens += _TOKEN.findall(word)
        elif len(word) > 1:
            tokens.append(word)
    return tokens


def _term_counts(text: str) -> Counter[str]:
    """``Counter(tokenize(text))``, with a loop only per distinct non-ASCII
    word."""
    counts = Counter(_words(text))
    for char in _SHORT:
        counts.pop(char, None)
    if not text.isascii():
        tokens: list[str] = []
        for word in list(filterfalse(str.isascii, counts)):
            tokens += _TOKEN.findall(word) * counts.pop(word)
        counts.update(tokens)
    return counts


class Document(Record):
    __slots__ = ("doc_id", "text")

    def __init__(self, doc_id: str, text: str) -> None:
        super().__init__(doc_id, text)


class RetrievedPassage(Record):
    __slots__ = ("doc_id", "text", "score")

    def __init__(self, doc_id: str, text: str, score: float) -> None:
        super().__init__(doc_id, text, score)


class RetrievalIndex(Record):
    """Immutable index over a fixed corpus. ``documents`` maps doc_id ->
    document in corpus order; ``term_counts`` holds each document's
    term -> tf and ``doc_lengths`` its token count, in the same order."""

    __slots__ = ("documents", "term_counts", "doc_lengths", "average_doc_length")

    def __init__(
        self, documents: Mapping[str, Document],
        term_counts: Sequence[Mapping[str, int]],
        doc_lengths: Sequence[int], average_doc_length: float
    ) -> None:
        super().__init__(documents, term_counts, doc_lengths, average_doc_length)

    def __len__(self) -> int:
        return len(self.documents)

    def document(self, doc_id: str) -> Document:
        return self.documents[doc_id]


def _as_document(raw: Document | Sequence[Any]) -> Document:
    if isinstance(raw, Document):
        return raw
    doc_id, text = raw
    return Document(doc_id=str(doc_id), text=str(text))


def index_documents(
    docs: Sequence[Document | Sequence[Any]],
) -> RetrievalIndex:
    """Index ``docs``, leaving out each document that holds no token, as it
    can match no query; EmptyCorpus when none is left."""
    corpus: dict[str, Document] = {}
    for raw in docs:
        doc = _as_document(raw)
        if doc.doc_id in corpus:
            raise ValueError(f"duplicate doc_id {doc.doc_id!r}")
        corpus[doc.doc_id] = doc
    counted = {doc_id: _term_counts(doc.text) for doc_id, doc in corpus.items()}
    documents = {doc_id: corpus[doc_id] for doc_id, c in counted.items() if c}
    if not documents:
        raise EmptyCorpus("no document with indexable tokens")
    term_counts = tuple(filter(None, counted.values()))
    lengths = tuple(sum(counts.values()) for counts in term_counts)
    return RetrievalIndex(
        documents, term_counts, lengths, sum(lengths) / len(lengths)
    )


def bm25_scores(index: RetrievalIndex, query: str) -> dict[str, float]:
    """Raw BM25 scores for documents sharing at least one query term."""
    terms = tokenize(query)
    if not terms:
        raise EngineError(f"query {query!r} has no indexable tokens")
    n_docs = len(index.documents)
    scores: dict[str, float] = {}
    for term in terms:
        tfs = list(map(dict.get, index.term_counts, repeat(term)))
        hits = list(compress(zip(index.documents, tfs, index.doc_lengths), tfs))
        df = len(hits)
        idf = math.log(1.0 + (n_docs - df + 0.5) / (df + 0.5))
        for doc_id, tf, length in hits:
            length_norm = 1.0 - BM25_B + BM25_B * (
                length / index.average_doc_length
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
    return [
        RetrievedPassage(doc_id, index.document(doc_id).text, score)
        for doc_id, score in ranked[:k]
    ]
