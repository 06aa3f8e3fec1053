"""Seeded inputs for the benchmark.

Everything the program sees in a run is made here from the workload seed:
the op sequence, the config files, synthetic filings and the scheduler
history. The same seed gives byte-identical inputs.
"""

from __future__ import annotations

import datetime as dt
import json
import math
import random
from pathlib import Path

SYMBOL_CUTOFFS = {
    # Weekday cutoffs whose 30-day pre-cutoff window the fixtures fill
    # (prices, news and a financial snapshot all present).
    "AAPL": (dt.date(2024, 4, 3), dt.date(2024, 4, 26)),
    "NVDA": (dt.date(2024, 1, 10), dt.date(2024, 2, 2)),
}

# Expected outputs of the scripted replies (finorch.offline), which the
# stand-in server serves in the live-shaped workloads too.
EXPECTED_BAND = {("AAPL", "en"): (0.0, 1.0), ("NVDA", "en"): (2.0, 3.0)}
ZH_BAND = (0.0, 1.0)
EXPECTED_AGENT = {"forecast": "forecaster-primary", "report": "report-writer"}
EXPECTED_INDICATORS = {"revenue": 12.0, "net income": 2.1}
REPORT_SECTION_NAMES = (
    "Company Overview",
    "Financial Performance",
    "Peer Comparison",
    "Risks",
    "Outlook",
)

AGENTS = (
    ("forecaster-primary", "primary", "forecast"),
    ("forecaster-secondary", "secondary", "forecast"),
    ("report-writer", "primary", "report"),
    ("report-skeptic", "secondary", "report"),
)
WEIGHTS = {
    "forecast": {"exact_match": 0.5, "token_f1": 0.5},
    "report": {"token_f1": 1.0},
}
# Model names the stand-in server keys its reply scripts by.
STANDIN_MODELS = {
    "primary": "standin-primary",
    "secondary": "standin-secondary",
    "judge": "standin-judge",
}

# Op mix per workload: (kind, weight). Every workload runs all four
# commands so every per-command latency exists on every workload. The
# weights keep the median op away from the border between cheap and costly
# commands (llm-latency: route and forecast are 4 of 11 ops), where it
# would jump between them from run to run.
MIXES = {
    "cli-cold": (("forecast", 1), ("report", 1), ("evaluate", 1), ("route", 1)),
    "offline-hot": (("forecast", 3), ("report", 4), ("evaluate", 2), ("route", 1)),
    "llm-latency": (("forecast", 2), ("report", 4), ("evaluate", 3), ("route", 2)),
    "state-history": (("route", 3), ("forecast", 3), ("evaluate", 2), ("report", 2)),
}

FILING_MIN_CHARS = 2_000
FILING_MAX_CHARS = 200_000
FILING_POOL = 32
# Reports in the other workloads use fixed-size filings: cli-cold is bound
# by interpreter start and the live-shaped ones by LLM waiting, and a fixed
# size keeps document CPU from adding seed-to-seed spread there.
FIXED_FILING_CHARS = {"cli-cold": 10_000, "llm-latency": 20_000, "state-history": 20_000}
FIXED_FILING_POOL = 4
# Distinct (symbol, cutoff) pairs per run. The live-shaped workloads use
# few, so most forecasts hit the response cache and some miss.
PAIR_POOL = {"cli-cold": 12, "offline-hot": 12, "llm-latency": 2, "state-history": 2}
HISTORY_ROWS = 10_000
HISTORY_REFLECTIONS = 2_000


def weekdays(start: dt.date, end: dt.date) -> list[dt.date]:
    days = []
    day = start
    while day <= end:
        if day.weekday() < 5:
            days.append(day)
        day += dt.timedelta(days=1)
    return days


# ── filings ──────────────────────────────────────────────────────────────

_SYLLABLES = (
    "ka", "lo", "mi", "ten", "var", "sol", "ru", "den", "pa", "tor",
    "vel", "na", "quin", "ber", "sta", "mon", "gal", "fi", "ro", "cel",
)

# Sentences carrying the indicator topics and the report-section query
# terms, so every extraction and section prompt has passages to retrieve.
_TOPIC_SENTENCES = (
    "Revenue for the period was {a} billion, an increase of {p} percent.",
    "Net income was {b} billion and earnings per share rose to {c}.",
    "Gross margin held near {p} percent despite input costs.",
    "Operating cash flow reached {b} billion on tighter receivables.",
    "Total debt stood at {a} billion with no maturities before next year.",
    "The company business spans {n} segments whose products serve {w} markets.",
    "Peers and competitors hold market share across the industry while the "
    "company position in {w} improved.",
    "Risk factors include debt, regulation, litigation, competition and "
    "{w} headwinds.",
    "Management outlook and guidance forecast {w} expectations for next year.",
)


def vocabulary(rng: random.Random, size: int = 1500) -> list[str]:
    words = set()
    while len(words) < size:
        words.add("".join(rng.choice(_SYLLABLES) for _ in range(rng.randint(2, 4))))
    return sorted(words)


def filing_text(rng: random.Random, n_chars: int, vocab: list[str]) -> str:
    """English filing of about ``n_chars`` characters (never shorter) that
    uses every topic sentence at least once."""
    weights = [1.0 / (rank + 1) for rank in range(len(vocab))]
    paragraphs: list[str] = []
    size = 0
    i = 0
    while size < n_chars or i < len(_TOPIC_SENTENCES):
        sentences = []
        for _ in range(3):
            template = _TOPIC_SENTENCES[i % len(_TOPIC_SENTENCES)]
            i += 1
            sentences.append(
                template.format(
                    a=f"{rng.uniform(1, 40):.1f}",
                    b=f"{rng.uniform(0.1, 9):.1f}",
                    c=f"{rng.uniform(0.5, 12):.2f}",
                    p=rng.randint(2, 60),
                    n=rng.randint(2, 7),
                    w=rng.choice(vocab),
                )
            )
        for _ in range(rng.randint(2, 5)):
            words = rng.choices(vocab, weights, k=rng.randint(8, 18))
            sentences.append(" ".join(words).capitalize() + ".")
        rng.shuffle(sentences)
        paragraph = " ".join(sentences)
        paragraphs.append(paragraph)
        size += len(paragraph) + 2
    return "\n\n".join(paragraphs) + "\n"


def filing_sizes(rng: random.Random, count: int) -> list[int]:
    """Log-uniform sizes, stratified so every seed covers the whole range."""
    lo, hi = math.log(FILING_MIN_CHARS), math.log(FILING_MAX_CHARS)
    return [
        int(math.exp(lo + (hi - lo) * (k + rng.random()) / count))
        for k in range(count)
    ]


def write_filings(rng: random.Random, directory: Path, sizes: list[int]) -> list[Path]:
    directory.mkdir(parents=True, exist_ok=True)
    vocab = vocabulary(rng)
    paths = []
    for k, size in enumerate(sizes):
        path = directory / f"filing_{k:02d}.txt"
        path.write_text(filing_text(rng, size, vocab), encoding="utf-8")
        paths.append(path)
    return paths


# ── op sequences ─────────────────────────────────────────────────────────


def forecast_pairs(rng: random.Random, count: int) -> list[tuple[str, str]]:
    pool = [
        (symbol, day.isoformat())
        for symbol, (start, end) in SYMBOL_CUTOFFS.items()
        for day in weekdays(start, end)
    ]
    return rng.sample(pool, count)


def op_stream(workload: str, seed: int, filings: list[Path]):
    """Endless seeded sequence of ops: dicts with kind and argv.

    ``argv`` is the CLI argument list without ``--config``/``--offline``.
    Commands come in shuffled blocks that hold the mix exactly, so every
    run has the same mix spread evenly over time. Forecast pairs repeat
    with a Zipf skew so a response cache both hits and misses; reports
    go through the filing pool in shuffled rounds, each filing once a
    round.
    """
    rng = random.Random(f"{workload}:{seed}:ops")
    block = [kind for kind, weight in MIXES[workload] for _ in range(weight)]
    pairs = forecast_pairs(rng, PAIR_POOL[workload])
    pair_weights = [1.0 / (rank + 1) for rank in range(len(pairs))]
    deck: list[Path] = []
    while True:
        rng.shuffle(block)
        for kind in block:
            if kind == "report" and not deck:
                deck = rng.sample(filings, len(filings))
            yield _op(rng, kind, pairs, pair_weights, deck)


def _op(rng, kind, pairs, pair_weights, deck) -> dict:
    if kind == "forecast":
        symbol, cutoff = rng.choices(pairs, pair_weights)[0]
        lang = rng.choice(("en", "zh"))
        argv = ["forecast", symbol, "--cutoff", cutoff, "--lang", lang]
        return {"kind": kind, "argv": argv, "symbol": symbol, "lang": lang}
    if kind == "report":
        return {"kind": kind, "argv": ["report", str(deck.pop())]}
    if kind == "evaluate":
        return {"kind": kind, "argv": ["evaluate", "--json"]}
    return {"kind": kind, "argv": ["route", "forecast", "--json"], "task_kind": "forecast"}


def input_key(op: dict) -> str:
    """Identity of an op's input, for the per-input artifact digests."""
    argv = list(op["argv"])
    if op["kind"] == "report":
        argv[1] = Path(argv[1]).name
    return " ".join(argv)


# ── configs ──────────────────────────────────────────────────────────────


def config_text(repo: Path, base_url: str | None = None) -> str:
    """A finorch config whose state, runs and cache directories sit beside
    it. With ``base_url`` every backend and the market provider point at
    the stand-in server; without it only ``--offline`` runs make sense."""
    url = base_url or "http://127.0.0.1:9"
    backends = []
    for backend_id, model in STANDIN_MODELS.items():
        backends.append(
            {
                "backend_id": backend_id,
                "base_url": url + "/v1",
                "model_name": model,
                "api_key_env": "BENCH_LLM_KEY",
                "temperature": 0.0,
                "max_tokens": 256 if backend_id == "judge" else 1024,
            }
        )
    config = {
        "backends": backends,
        "agents": [
            {"agent_id": a, "backend_id": b, "task_kinds": [k]}
            for a, b, k in AGENTS
        ],
        "weights": WEIGHTS,
        "judge_backend_id": "judge",
        "default_language": "en",
        "provider": {
            "name": "finnhub",
            "base_url": url + "/api/v1",
            "token_env": "BENCH_MARKET_TOKEN",
        },
        "state_dir": "state",
        "runs_dir": "runs",
        "cache_dir": "cache",
        "golden_dir": str(repo / "fixtures" / "golden"),
        "fixture_dir": str(repo / "fixtures"),
    }
    # JSON is valid YAML, and needs no YAML writer here.
    return json.dumps(config, indent=1) + "\n"


# ── scheduler history ────────────────────────────────────────────────────


def _stamp(base: dt.datetime, seconds: int) -> str:
    return (base + dt.timedelta(seconds=seconds)).strftime("%Y-%m-%dT%H:%M:%SZ")


def _score_rows(kind: str, raw: dict[str, dict[str, float]], at: str) -> list[dict]:
    """One evaluation round in the scheduler's row format: min-max
    normalization across the roster, then the weighted composite."""
    weights = WEIGHTS[kind]
    agents = sorted(raw)
    rows = []
    for agent in agents:
        normalized = {}
        for dim in sorted(weights):
            column = [raw[a][dim] for a in agents]
            lo, hi = min(column), max(column)
            normalized[dim] = 1.0 if hi == lo else (raw[agent][dim] - lo) / (hi - lo)
        composite = math.fsum(weights[d] * normalized[d] for d in weights)
        rows.append(
            {
                "agent_id": agent,
                "task_kind": kind,
                "raw_scores": raw[agent],
                "normalized_scores": normalized,
                "weights": dict(weights),
                "composite": composite,
                "evaluated_at": at,
            }
        )
    return rows


def history(seed: int, rows: int = HISTORY_ROWS) -> tuple[list[dict], list[dict]]:
    """Score rows and reflections for a grown state directory.

    Earlier rounds rank agents at random; the last round of each task kind
    puts the expected agent (EXPECTED_AGENT) on top, so routing must read
    the latest rows to pick it.
    """
    rng = random.Random(f"history:{seed}")
    base = dt.datetime(2024, 1, 1)
    roster = {
        kind: sorted(a for a, _, k in AGENTS if k == kind) for kind in WEIGHTS
    }
    score_rows: list[dict] = []
    second = 0
    while len(score_rows) < rows - 4:
        kind = rng.choice(sorted(WEIGHTS))
        raw = {
            agent: {dim: round(rng.random(), 4) for dim in sorted(WEIGHTS[kind])}
            for agent in roster[kind]
        }
        second += rng.randint(1, 600)
        score_rows.extend(_score_rows(kind, raw, _stamp(base, second)))
    for kind in sorted(WEIGHTS):
        winner = EXPECTED_AGENT[kind]
        raw = {
            agent: {dim: (0.9 if agent == winner else 0.2) for dim in sorted(WEIGHTS[kind])}
            for agent in roster[kind]
        }
        second += 60
        score_rows.extend(_score_rows(kind, raw, _stamp(base, second)))
    reflections = []
    for n in range(HISTORY_REFLECTIONS):
        agent, _, kind = rng.choice(AGENTS)
        score = round(rng.random(), 2)
        reflections.append(
            {
                "agent_id": agent,
                "task_id": f"{kind}-history-{n:05d}",
                "self_score": score,
                "notes": f"score: {score} earlier run {n}",
                "created_at": _stamp(base, n * 7),
            }
        )
    return score_rows, reflections


def write_history(state_dir: Path, seed: int) -> None:
    state_dir.mkdir(parents=True, exist_ok=True)
    score_rows, reflections = history(seed)
    for name, rows in (
        ("task_scores.jsonl", score_rows),
        ("reflections.jsonl", reflections),
    ):
        with (state_dir / name).open("w", encoding="utf-8") as handle:
            for row in rows:
                handle.write(json.dumps(row, ensure_ascii=False) + "\n")
