"""Rank-based retrieval evaluation: AP/NDCG over condensed lists, paired t-test.

Condensing removes unjudged documents from a ranked list before metrics are
computed, which keeps runs that retrieve many unpooled documents comparable.
Gains are raw relevance grades with a 1/log2(rank+1) discount, matching the
usual trec_eval ndcg_cut convention; AP treats grade >= 1 as relevant.
"""

from __future__ import annotations

import logging
import math
import statistics
from dataclasses import dataclass, field

from .csvio import read_lines, write_csv

__all__ = [
    "Qrels",
    "RunScores",
    "SignificanceResult",
    "condense",
    "average_precision",
    "ndcg_at",
    "evaluate_run",
    "paired_ttest",
    "read_qrels",
    "read_run",
    "write_run",
    "check_run_fields",
    "write_metric_report",
    "write_comparison_report",
]

logger = logging.getLogger(__name__)

SIGNIFICANCE_LEVEL = 0.05
MAX_RUN_DOCS = 1000  # documents per topic in a TREC run

Run = dict[str, list[tuple[str, float]]]


@dataclass(eq=False)
class Qrels:
    """Relevance judgments: topic -> doc -> integer grade >= 0."""

    grades: dict[str, dict[str, int]] = field(default_factory=dict)

    def add(self, topic_id: str, doc_id: str, grade: int) -> None:
        if grade < 0:
            raise ValueError(f"negative grade for ({topic_id}, {doc_id})")
        per_topic = self.grades.setdefault(topic_id, {})
        if doc_id in per_topic:
            raise ValueError(f"duplicate judgment for ({topic_id}, {doc_id})")
        per_topic[doc_id] = grade

    def topics(self) -> list[str]:
        return sorted(self.grades)

    def judged(self, topic_id: str) -> dict[str, int]:
        return self.grades.get(topic_id, {})


def read_qrels(path: str) -> Qrels:
    """TREC qrels format: whitespace-separated 'topic_id 0 doc_id grade'."""
    qrels = Qrels()
    for lineno, line in read_lines(path):
        parts = line.split()
        if not parts:
            continue
        if len(parts) != 4:
            raise ValueError(f"{path}:{lineno}: expected 4 fields")
        topic_id, _, doc_id, grade = parts
        try:
            qrels.add(topic_id, doc_id, int(grade))
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from None
    if not qrels.grades:
        raise ValueError(f"{path}: no judgments found")
    return qrels


def read_run(path: str) -> Run:
    """TREC run format, in file order per topic. A document may occur once per
    topic: a repeat would count as a second hit in every metric."""
    run: Run = {}
    first: dict[tuple[str, str], int] = {}  # (topic id, doc id) -> line
    for lineno, line in read_lines(path):
        parts = line.split()
        if not parts:
            continue
        if len(parts) != 6:
            raise ValueError(f"{path}:{lineno}: expected 6 whitespace-separated fields")
        topic_id, _, doc_id, _, score, _ = parts
        try:
            value = float(score)
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from None
        if (seen := first.setdefault((topic_id, doc_id), lineno)) != lineno:
            raise ValueError(
                f"{path}:{lineno}: duplicate document {doc_id!r} for topic {topic_id!r} (first on line {seen})"
            )
        run.setdefault(topic_id, []).append((doc_id, value))
    return run


def check_run_fields(what: str, *fields: str) -> None:
    """Raise unless ``read_run`` reads each field back whole: non-empty, and left whole by ``str.split``."""
    if " ".join(fields).split() != list(fields):
        raise ValueError(f"{what} {next(f for f in fields if f.split() != [f])!r} is empty or holds whitespace")


def write_run(run: Run, path: str, run_tag: str = "simthresh", max_docs: int = MAX_RUN_DOCS) -> None:
    """TREC run format: topic_id Q0 doc_id rank score run_tag, at most ``max_docs`` lines per topic."""
    if max_docs < 1:
        raise ValueError("max_docs must be >= 1")
    check_run_fields("run field", run_tag, *run, *(d for ranked in run.values() for d, _ in ranked[:max_docs]))
    with open(path, "w", encoding="utf-8") as fh:
        for topic_id in sorted(run, key=_topic_sort_key):
            for rank, (doc_id, score) in enumerate(run[topic_id][:max_docs], start=1):
                fh.write(f"{topic_id} Q0 {doc_id} {rank} {score!r} {run_tag}\n")


def _topic_sort_key(topic_id: str) -> tuple[int, str]:
    # Numeric topic ids sort numerically, everything else lexicographically.
    return (0, f"{int(topic_id):020d}") if topic_id.isdecimal() else (1, topic_id)


def condense(run: Run, qrels: Qrels) -> Run:
    """Remove unjudged documents per topic, preserving order; idempotent."""
    condensed: Run = {}
    for topic_id, ranked in run.items():
        judged = qrels.judged(topic_id)
        condensed[topic_id] = [(d, s) for d, s in ranked if d in judged]
    return condensed


def average_precision(ranked_docs: list[str], judged: dict[str, int]) -> float:
    """Mean of precision at each relevant retrieved rank, over all relevant
    judged docs for the topic; 0 when the topic has no relevant docs."""
    n_relevant = sum(1 for g in judged.values() if g >= 1)
    if n_relevant == 0:
        return 0.0
    hits = 0
    precision_sum = 0.0
    for rank, doc_id in enumerate(ranked_docs, start=1):
        if judged.get(doc_id, 0) >= 1:
            hits += 1
            precision_sum += hits / rank
    return precision_sum / n_relevant


def ndcg_at(ranked_docs: list[str], judged: dict[str, int], cutoff: int = 20) -> float:
    """DCG@cutoff over raw grades with 1/log2(rank+1) discount, normalized by
    the ideal ordering of all judged grades; 0 when the ideal DCG is 0."""
    if cutoff < 1:
        raise ValueError("cutoff must be >= 1")
    dcg = 0.0
    for rank, doc_id in enumerate(ranked_docs[:cutoff], start=1):
        grade = judged.get(doc_id, 0)
        if grade > 0:
            dcg += grade / math.log2(rank + 1)
    ideal = sorted((g for g in judged.values() if g > 0), reverse=True)
    idcg = sum(g / math.log2(rank + 1) for rank, g in enumerate(ideal[:cutoff], start=1))
    if idcg == 0.0:
        return 0.0
    return dcg / idcg


@dataclass(eq=False)
class RunScores:
    """Per-topic metric values plus their arithmetic mean."""

    metric: str
    per_topic: dict[str, float]

    @property
    def mean(self) -> float:
        if not self.per_topic:
            return 0.0
        return sum(self.per_topic.values()) / len(self.per_topic)


def evaluate_run(
    run: Run,
    qrels: Qrels,
    metric: str = "map",
    cutoff: int = 20,
    condense_lists: bool = True,
) -> RunScores:
    """Score a run topic-by-topic. Topics are those present in the qrels;
    a topic missing from the run scores 0."""
    if metric not in ("map", "ndcg"):
        raise ValueError(f"unknown metric {metric!r}")
    scored = condense(run, qrels) if condense_lists else run
    per_topic: dict[str, float] = {}
    for topic_id in qrels.topics():
        ranked = [d for d, _ in scored.get(topic_id, [])]
        judged = qrels.judged(topic_id)
        if metric == "map":
            per_topic[topic_id] = average_precision(ranked, judged)
        else:
            per_topic[topic_id] = ndcg_at(ranked, judged, cutoff=cutoff)
    return RunScores(metric=metric, per_topic=per_topic)


@dataclass(frozen=True)
class SignificanceResult:
    t_statistic: float
    p_value: float
    significant: bool
    n_topics: int


def _t_sf_two_sided(t: float, df: int) -> float:
    """Two-sided p for Student's t: the regularized incomplete beta
    I_x(df/2, 1/2) at x = df / (df + t^2), from its continued fraction
    (modified Lentz method)."""
    a, b, t2 = df / 2.0, 0.5, t * t
    x, y = df / (df + t2), t2 / (df + t2)  # y = 1 - x, without the cancellation
    if x == 0.0 or y == 0.0:  # |t| infinite (or t^2 overflows), or t == 0
        return x
    front = math.exp(math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b) + a * math.log(x) + b * math.log(y))
    flip = x >= (a + 1.0) / (a + b + 2.0)
    if flip:  # I_x(a, b) = 1 - I_y(b, a), whose fraction converges fast here
        a, b, x = b, a, y
    tiny = 1e-300  # stands in for a zero denominator
    c, d = 1.0, 1.0 / (1.0 - (a + b) * x / (a + 1.0) or tiny)
    h = d
    for m in range(1, 10_000):
        for coef in (m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
                     -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1))):
            d = 1.0 / (1.0 + coef * d or tiny)
            c = 1.0 + coef / c or tiny
            h *= c * d
        if abs(c * d - 1.0) < 1e-15:
            break
    return 1.0 - front * h / a if flip else front * h / a


def paired_ttest(a: RunScores, b: RunScores) -> SignificanceResult:
    """Two-sided paired t-test over matching topics.

    All-zero differences give t=0, p=1 by convention. Zero variance with a
    nonzero mean difference is reported as significant with p=0 and a warning
    (the statistic diverges).
    """
    if set(a.per_topic) != set(b.per_topic):
        raise ValueError("runs were evaluated on different topic sets")
    topics = sorted(a.per_topic)
    n = len(topics)
    if n < 2:
        raise ValueError("paired t-test needs at least 2 topics")
    diffs = [a.per_topic[t] - b.per_topic[t] for t in topics]
    mean = float(statistics.mean(diffs))
    std = statistics.stdev(diffs)
    if std == 0.0:
        if mean == 0.0:
            return SignificanceResult(t_statistic=0.0, p_value=1.0, significant=False, n_topics=n)
        logger.warning("paired t-test: constant nonzero difference, statistic diverges")
        t = math.inf if mean > 0 else -math.inf
        return SignificanceResult(t_statistic=t, p_value=0.0, significant=True, n_topics=n)
    t = mean / (std / math.sqrt(n))
    p = _t_sf_two_sided(t, n - 1)
    return SignificanceResult(
        t_statistic=t, p_value=p, significant=p < SIGNIFICANCE_LEVEL, n_topics=n
    )


def write_metric_report(path: str, scores: list[RunScores]) -> None:
    """Per-topic rows for each metric, then a final 'all' row of means."""
    if not scores:
        raise ValueError("nothing to report")
    topics = sorted(scores[0].per_topic)
    for s in scores[1:]:
        if sorted(s.per_topic) != topics:
            raise ValueError("metric reports must share a topic set")
    write_csv(
        path,
        ["topic"] + [s.metric for s in scores],
        [[t] + [s.per_topic[t] for s in scores] for t in topics] + [["all"] + [s.mean for s in scores]],
    )


def write_comparison_report(
    path: str, metric: str, a_mean: float, b_mean: float, result: SignificanceResult
) -> None:
    write_csv(
        path,
        ["metric", "mean_a", "mean_b", "t_statistic", "p_value", "significant", "n_topics"],
        [(metric, a_mean, b_mean, result.t_statistic, result.p_value,
          str(result.significant).lower(), result.n_topics)],
    )
