"""Numeric formulas used across the platform.

Pure functions only: causal negative log-likelihood of a token sequence,
discounted return of an allocation episode, rolling log-returns of a price
series, peer-panel z-scoring of financial ratios, and text+table fusion for
prompt building. Natural logarithm throughout.
"""

from __future__ import annotations

import datetime as dt
import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from finorch.dataops.types import PriceSeries
from finorch.errors import (
    HorizonTooLong,
    NonPositivePrice,
    OutOfRangeProbability,
    RaggedTable,
    TooFewPeers,
)

__all__ = [
    "ANOMALY_THRESHOLD",
    "FLAG_ANOMALOUS",
    "FLAG_NORMAL",
    "TABLE_MARKER",
    "EpisodeTrace",
    "PanelVerdict",
    "RatioPanel",
    "TokenLikelihoods",
    "Transition",
    "causal_nll",
    "discounted_return",
    "fuse_text_table",
    "log_return",
    "mean_discounted_return",
    "normalize_ratio_panel",
]

FLAG_NORMAL = "normal"
FLAG_ANOMALOUS = "anomalous"

#: |z| above which a ratio is flagged anomalous.
ANOMALY_THRESHOLD = 2.0

TABLE_MARKER = "[TABLE]"


@dataclass(frozen=True)
class TokenLikelihoods:
    """Conditional next-token probabilities for one scored sequence.

    ``backend_id`` records which model produced the probabilities.
    """

    probs: tuple[float, ...]
    backend_id: str | None = None

    def __post_init__(self) -> None:
        if not self.probs:
            raise ValueError("token likelihoods require at least one probability")
        for i, p in enumerate(self.probs):
            if not (0.0 < p <= 1.0) or math.isnan(p):
                raise OutOfRangeProbability(
                    f"prob[{i}] = {p!r} outside (0, 1]"
                )

    @classmethod
    def from_sequence(
        cls, probs: Iterable[float], backend_id: str | None = None
    ) -> "TokenLikelihoods":
        return cls(probs=tuple(float(p) for p in probs), backend_id=backend_id)


@dataclass(frozen=True)
class Transition:
    state: str
    action: str
    reward: float


@dataclass(frozen=True)
class EpisodeTrace:
    """One realized allocation episode: transitions plus discount factor."""

    transitions: tuple[Transition, ...]
    gamma: float
    policy: str = "default"

    def __post_init__(self) -> None:
        if not self.transitions:
            raise ValueError("episode trace must contain at least one transition")
        if not (0.0 < self.gamma <= 1.0):
            raise ValueError(f"gamma must lie in (0, 1], got {self.gamma!r}")

    @classmethod
    def from_rewards(
        cls, rewards: Iterable[float], gamma: float, policy: str = "default"
    ) -> "EpisodeTrace":
        transitions = tuple(
            Transition(state=f"s{t}", action=f"a{t}", reward=float(r))
            for t, r in enumerate(rewards)
        )
        return cls(transitions=transitions, gamma=gamma, policy=policy)

    def rewards(self) -> list[float]:
        return [tr.reward for tr in self.transitions]


@dataclass(frozen=True)
class RatioPanel:
    """One named financial ratio observed across a peer group.

    ``peers`` maps company id to ratio value and includes the subject.
    """

    ratio_name: str
    peers: Mapping[str, float]
    subject: str

    def __post_init__(self) -> None:
        if self.subject not in self.peers:
            raise ValueError(
                f"subject {self.subject!r} missing from peer map for "
                f"{self.ratio_name!r}"
            )
        for company, value in self.peers.items():
            if not math.isfinite(value):
                raise ValueError(
                    f"ratio {self.ratio_name!r}: non-finite value for "
                    f"{company!r}: {value!r}"
                )


@dataclass(frozen=True)
class PanelVerdict:
    """Outcome of z-scoring one subject against its peer panel."""

    ratio_name: str
    subject: str
    zscore: float | None
    flag: str
    degenerate: bool = False


def log_return(series: PriceSeries, f: int) -> list[tuple[dt.date, float]]:
    """Rolling ``f``-step log-returns: r = ln(S[T+f] / S[T]).

    Returns one ``(date, r)`` pair per valid window, dated at the later
    observation; output length is ``len(series) - f``.
    """
    if f < 1:
        raise ValueError(f"horizon must be at least 1 observation, got {f}")
    n = len(series.observations)
    if f >= n:
        raise HorizonTooLong(
            f"horizon {f} needs more than {n} observation(s) in series "
            f"{series.symbol!r}"
        )
    closes: list[float] = []
    for obs in series.observations:
        price = obs.close_value()
        if not math.isfinite(price) or price <= 0.0:
            raise NonPositivePrice(
                f"series {series.symbol!r}: price {obs.close!r} on {obs.date} "
                f"is not a positive real"
            )
        closes.append(price)
    out: list[tuple[dt.date, float]] = []
    for t in range(n - f):
        r = math.log(closes[t + f] / closes[t])
        out.append((series.observations[t + f].date, r))
    return out


def causal_nll(tl: TokenLikelihoods) -> float:
    """Negative log-likelihood of the sequence: -sum of ln(p_t).

    Non-negative; zero exactly when every probability is 1.
    """
    return -math.fsum(math.log(p) for p in tl.probs)


def discounted_return(trace: EpisodeTrace) -> float:
    """Realized discounted return of one episode: sum of gamma**t * r_t."""
    return math.fsum(
        trace.gamma**t * tr.reward for t, tr in enumerate(trace.transitions)
    )


def mean_discounted_return(traces: Sequence[EpisodeTrace]) -> float:
    """Sample mean of :func:`discounted_return` over a trace set."""
    if not traces:
        raise ValueError("at least one trace is required")
    return math.fsum(discounted_return(tr) for tr in traces) / len(traces)


def normalize_ratio_panel(panel: RatioPanel) -> PanelVerdict:
    """Z-score the subject against the peer panel (population statistics).

    A panel with zero spread is degenerate: flagged normal with no z-score.
    Otherwise the subject is anomalous iff |z| > ANOMALY_THRESHOLD.
    """
    values = list(panel.peers.values())
    if len(values) < 2:
        raise TooFewPeers(
            f"ratio {panel.ratio_name!r}: need at least 2 peers, got {len(values)}"
        )
    n = len(values)
    mean = math.fsum(values) / n
    variance = math.fsum((v - mean) ** 2 for v in values) / n
    std = math.sqrt(variance)
    if std == 0.0:
        return PanelVerdict(
            ratio_name=panel.ratio_name,
            subject=panel.subject,
            zscore=None,
            flag=FLAG_NORMAL,
            degenerate=True,
        )
    z = (panel.peers[panel.subject] - mean) / std
    flag = FLAG_ANOMALOUS if abs(z) > ANOMALY_THRESHOLD else FLAG_NORMAL
    return PanelVerdict(
        ratio_name=panel.ratio_name,
        subject=panel.subject,
        zscore=z,
        flag=flag,
        degenerate=False,
    )


def _escape_cell(cell: str) -> str:
    return (
        cell.replace("\\", "\\\\")
        .replace("|", "\\|")
        .replace("\r", "\\r")
        .replace("\n", "\\n")
    )


def fuse_text_table(text: str, table: Sequence[Sequence[object]]) -> str:
    """Append a table to a passage as a pipe-delimited grid.

    The table's first row is its header row. Cells are stringified and
    escaped (backslash, pipe, newline), which makes the serialization
    injective over tables of string cells: distinct tables produce distinct
    grids. An empty table leaves the text unchanged with no marker.
    """
    rows = [list(row) for row in table]
    if not rows:
        return text
    width = len(rows[0])
    for i, row in enumerate(rows):
        if len(row) != width:
            raise RaggedTable(
                f"row {i} has {len(row)} cell(s), expected {width}"
            )
    lines = [" | ".join(_escape_cell(str(cell)) for cell in row) for row in rows]
    return f"{text}\n\n{TABLE_MARKER}\n" + "\n".join(lines)
