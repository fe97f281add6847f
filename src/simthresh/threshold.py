"""Similarity thresholds: where the expected-neighbor curve meets a synonym target.

The main threshold is the similarity at which the aggregated expected-neighbor
curve equals the lexicon-derived mean synonym count; the lower/upper bounds
are where the confidence band's edges meet the same target. All three are
linear crossings of the sampled curve, so the thresholds depend on the curve
and the target alone: ``solve_threshold(read_curve_csv(path), target)``
reproduces a report from its curve file.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .csvio import read_records, write_csv
from .neighbors import NeighborCurve

__all__ = [
    "SynonymTarget",
    "ThresholdResult",
    "TargetUnreachableError",
    "check_target",
    "solve_threshold",
    "synonym_statistics",
    "parse_synsets",
    "write_threshold_csv",
]

# Tolerated upward float wiggle when validating that a curve is non-increasing.
_MONOTONE_SLACK = 1e-9


class TargetUnreachableError(ValueError):
    """The curve never crosses the requested neighbor count."""


@dataclass(frozen=True)
class SynonymTarget:
    """Average synonym count used as the expected-neighbor target."""

    mean_synonyms: float
    std_synonyms: float = 0.0
    term_count: int = 0

    def __post_init__(self) -> None:  # a zero mean is a statistic, though no solvable target
        for name, value in (("mean_synonyms", self.mean_synonyms), ("std_synonyms", self.std_synonyms)):
            if not 0 <= value < np.inf:
                raise ValueError(f"{name} must be nonnegative and finite, got {value:g}")


@dataclass(frozen=True)
class ThresholdResult:
    """Derived similarity cut points for one dimensionality."""

    dimensionality: int
    main: float
    lower: float
    upper: float

    def __post_init__(self) -> None:
        if not self.lower <= self.main <= self.upper:
            raise ValueError("threshold bounds out of order")


def _first_crossing(grid: np.ndarray, values: np.ndarray, target: float, label: str) -> float:
    """Leftmost s where a descending curve passes through ``target``, by
    linear interpolation between the bracketing grid points."""
    if values[0] < target:
        raise TargetUnreachableError(
            f"{label}: target {target} above curve start {values[0]:.6g}"
        )
    hits = np.flatnonzero((values[:-1] >= target) & (values[1:] <= target))
    if len(hits) == 0:
        raise TargetUnreachableError(
            f"{label}: curve never descends to target {target} (ends at {values[-1]:.6g})"
        )
    i = int(hits[0])
    lo, hi = float(grid[i]), float(grid[i + 1])
    v_lo, v_hi = float(values[i]), float(values[i + 1])
    if v_lo == v_hi:
        return lo
    return lo + (hi - lo) * (v_lo - target) / (v_lo - v_hi)


def check_target(mean: float, what: str = "target") -> None:
    """The one rule for a solvable target: a positive finite mean synonym count."""
    if not 0 < mean < np.inf:
        raise TargetUnreachableError(f"{what} must be positive and finite, got {mean:g}")


def solve_threshold(
    curve: NeighborCurve,
    target: SynonymTarget | float,
    dimensionality: int = 0,
) -> ThresholdResult:
    """Solve expected(s) = target for the main threshold and band crossings.

    Each is the linear crossing of its grid samples (``_first_crossing``), so
    the result depends on nothing but ``curve`` and ``target``. The band's
    lower edge sits below the mean curve and therefore meets the target at a
    smaller similarity, giving the lower bound; the upper edge gives the upper
    bound. Curves without a band yield lower == main == upper.
    """
    goal = target.mean_synonyms if isinstance(target, SynonymTarget) else float(target)
    check_target(goal)
    expected = np.asarray(curve.expected, dtype=np.float64)
    slack = _MONOTONE_SLACK * max(1.0, abs(float(expected[0])))
    if np.any(np.diff(expected) > slack):
        raise ValueError("expected-neighbor curve is not non-increasing")
    main = _first_crossing(curve.grid, expected, goal, "expected")
    if curve.band_low is not None:
        lower = _first_crossing(curve.grid, np.asarray(curve.band_low), goal, "band_low")
        upper = _first_crossing(curve.grid, np.asarray(curve.band_high), goal, "band_high")
    else:
        lower = upper = main
    # Guard against float jitter when the band is degenerate.
    lower = min(lower, main)
    upper = max(upper, main)
    return ThresholdResult(dimensionality=dimensionality, main=main, lower=lower, upper=upper)


def parse_synsets(path: str) -> list[list[str]]:
    """Synset file: one synset per line, lemmas space-separated, multiword
    lemmas joined with underscores; '#' lines are comments."""
    synsets = [[w.lower() for w in line.split()] for _, line in read_records(path)]
    if not synsets:
        raise ValueError(f"{path}: no synsets found")
    return synsets


def _single_word(lemma: str) -> bool:
    return "_" not in lemma and " " not in lemma


def synonym_statistics(synsets: list[list[str]] | str) -> SynonymTarget:
    """Mean/population-std of per-lemma synonym counts over a synset list.

    A lemma's synonyms are the distinct single-word lemmas sharing at least
    one synset with it (itself excluded); multiword lemmas are dropped both
    as headwords and as synonyms. Lemma matching is case-insensitive.
    """
    where = ""  # a synset file's errors name it
    if isinstance(synsets, str):
        where, synsets = f"{synsets}: ", parse_synsets(synsets)
    co_members: dict[str, set[str]] = {}
    for synset in synsets:
        members = {w.strip().lower() for w in synset if _single_word(w.strip())}
        members.discard("")
        for lemma in members:
            co_members.setdefault(lemma, set()).update(members)
    if not co_members:
        raise ValueError(f"{where}no single-word lemmas in synset input")
    # Sorted so the statistics are bitwise independent of input order.
    counts = np.sort(np.array([len(v) - 1 for v in co_members.values()], dtype=np.float64))
    return SynonymTarget(
        mean_synonyms=float(counts.mean()),
        std_synonyms=float(counts.std(ddof=0)),
        term_count=len(counts),
    )


def write_threshold_csv(results: list[ThresholdResult], path: str) -> None:
    write_csv(
        path,
        ["dimensionality", "lower", "main", "upper"],
        [(r.dimensionality, r.lower, r.main, r.upper) for r in results],
    )
