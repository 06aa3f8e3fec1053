"""Independent brute-force oracles.

Each function here re-derives an expected result with a different method
than the production code (stdlib statistics, Horner schemes, naive loops)
so agreement is meaningful evidence rather than tautology.
"""

from __future__ import annotations

import math
import statistics
from collections import Counter
from typing import Any

import yaml


def oracle_log_returns(prices: list[float], f: int) -> list[float]:
    """ln(S[t+f]) - ln(S[t]) via separate logs rather than one quotient."""
    return [
        math.log(prices[t + f]) - math.log(prices[t])
        for t in range(len(prices) - f)
    ]


def oracle_nll(probs: list[float]) -> float:
    total = 0.0
    for p in probs:
        total -= math.log(p)
    return total


def oracle_discounted(rewards: list[float], gamma: float) -> float:
    """Horner evaluation from the tail: r0 + g*(r1 + g*(r2 + ...))."""
    acc = 0.0
    for r in reversed(rewards):
        acc = r + gamma * acc
    return acc


def oracle_zscore(values: dict[str, float], subject: str) -> float | None:
    """Population z-score via the stdlib statistics module; None if degenerate."""
    data = list(values.values())
    mean = statistics.fmean(data)
    std = statistics.pstdev(data)
    if std == 0.0:
        return None
    return (values[subject] - mean) / std


def oracle_minmax(column: list[float]) -> list[float]:
    lo, hi = min(column), max(column)
    if hi == lo:
        return [1.0 for _ in column]
    return [(v - lo) / (hi - lo) for v in column]


def oracle_composite(
    raw: dict[str, dict[str, float]], weights: dict[str, float]
) -> dict[str, float]:
    """Weighted sum of per-dimension min-max-normalized scores.

    ``raw`` maps agent -> dimension -> raw score; every agent must carry
    every dimension.
    """
    agents = sorted(raw)
    dims = sorted(weights)
    normalized: dict[str, dict[str, float]] = {a: {} for a in agents}
    for dim in dims:
        column = [raw[a][dim] for a in agents]
        for a, norm in zip(agents, oracle_minmax(column)):
            normalized[a][dim] = norm
    return {
        a: sum(weights[d] * normalized[a][d] for d in dims) for a in agents
    }


def oracle_ranking(composites: dict[str, float]) -> list[str]:
    """Descending composite; ties broken by ascending agent id."""
    return [a for _, a in sorted(((-c, a) for a, c in composites.items()))]


def _bm25_tokenize(text: str) -> list[str]:
    out: list[str] = []
    word: list[str] = []
    for ch in text.lower():
        if ch.isalnum():
            word.append(ch)
        else:
            if word:
                out.append("".join(word))
            word = []
    if word:
        out.append("".join(word))
    return [tok for tok in out if len(tok) > 1]


def oracle_bm25(
    docs: list[tuple[str, str]],
    query: str,
    k1: float = 1.2,
    b: float = 0.75,
) -> dict[str, float]:
    """Naive per-document BM25 with Lucene-style idf.

    Returns doc_id -> score for documents sharing at least one query term.
    """
    return oracle_bm25_queries(docs, [query], k1, b)[0]


def oracle_bm25_queries(
    docs: list[tuple[str, str]],
    queries: list[str],
    k1: float = 1.2,
    b: float = 0.75,
) -> list[dict[str, float]]:
    """``oracle_bm25`` for each query, tokenizing the corpus once."""
    tokenized = {doc_id: _bm25_tokenize(text) for doc_id, text in docs}
    vocabularies = [set(toks) for toks in tokenized.values()]
    n_docs = len(docs)
    avg_len = sum(len(toks) for toks in tokenized.values()) / n_docs
    out: list[dict[str, float]] = []
    for query in queries:
        query_terms = _bm25_tokenize(query)
        df = {t: sum(t in vocab for vocab in vocabularies) for t in query_terms}
        scores: dict[str, float] = {}
        for doc_id, toks in tokenized.items():
            counts = Counter(toks)
            score = 0.0
            matched = False
            for term in query_terms:
                tf = counts.get(term, 0)
                if tf == 0:
                    continue
                matched = True
                idf = math.log(1.0 + (n_docs - df[term] + 0.5) / (df[term] + 0.5))
                denom = tf + k1 * (1.0 - b + b * len(toks) / avg_len)
                score += idf * tf * (k1 + 1.0) / denom
            if matched:
                scores[doc_id] = score
        out.append(scores)
    return out


def oracle_token_f1(prediction: str, reference: str) -> float:
    """SQuAD-style token F1 over casefolded whitespace tokens."""
    pred = prediction.casefold().split()
    ref = reference.casefold().split()
    if not pred or not ref:
        return 1.0 if pred == ref else 0.0
    overlap = sum((Counter(pred) & Counter(ref)).values())
    if overlap == 0:
        return 0.0
    precision = overlap / len(pred)
    recall = overlap / len(ref)
    return 2 * precision * recall / (precision + recall)


class _UniqueKeys:
    """Mixin for a YAML loader: a key repeated in one mapping is an error,
    where PyYAML would let the last one win silently. Containers are filled
    depth first, where PyYAML fills nested ones later: a mapping merged by a
    later ``<<`` before it was filled would read the merged keys as its
    own."""

    def construct_object(self, node: Any, deep: bool = False) -> Any:
        return super().construct_object(node, deep=True)

    def construct_mapping(self, node: Any, deep: bool = False) -> Any:
        seen = set()
        for key_node, _ in node.value:
            if (
                not isinstance(key_node, yaml.ScalarNode)
                or key_node.tag == "tag:yaml.org,2002:merge"
            ):
                continue
            key = self.construct_object(key_node, deep=deep)
            if key in seen:
                raise yaml.constructor.ConstructorError(
                    "while constructing a mapping",
                    node.start_mark,
                    f"found duplicate key {key!r}",
                    key_node.start_mark,
                )
            seen.add(key)
        return super().construct_mapping(node, deep=deep)


def oracle_config_yaml(text: str) -> Any:
    """The config document as PyYAML's own ``SafeConstructor`` builds it,
    on the parser ``load_config`` picks (LibYAML's when present), with a
    key repeated in one mapping refused and a ``<<`` merge key exempt."""
    base = getattr(yaml, "CSafeLoader", yaml.SafeLoader)
    return yaml.load(text, Loader=type("UniqueKeyLoader", (_UniqueKeys, base), {}))
