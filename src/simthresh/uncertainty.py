"""Similarity disagreement between two embedding replicas, binned by similarity.

For a set of probe terms, every (probe, other-term) pair is placed in the bin
holding its similarity under the reference replica; the bin then averages the
absolute difference between the two replicas' similarities for its pairs. The
same binning machinery also produces plain similarity histograms.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .csvio import write_csv
from .embeddings import EmbeddingModel, ModelEnsemble, ReducedReplica

__all__ = [
    "HistogramConfig",
    "UncertaintyCurve",
    "SimilarityHistogram",
    "uncertainty_curve",
    "similarity_histogram",
    "write_uncertainty_csv",
    "write_histogram_csv",
]


@dataclass(frozen=True)
class HistogramConfig:
    """Uniform binning of the similarity axis.

    The default splits (-0.2, 1.0) into 500 equal bins. The bins are the rows
    of ``edges``, the ones the reports print: half-open [low, high) with the
    final bin closed, so the domain is covered exactly once; similarities
    outside the domain are tallied separately, never clamped into edge bins.
    """

    domain_low: float = -0.2
    domain_high: float = 1.0
    bin_count: int = 500

    def __post_init__(self) -> None:
        low, high = self.domain_low, self.domain_high
        if not (np.isfinite(low) and np.isfinite(high) and low < high):
            raise ValueError(f"domain needs finite ends with domain_low < domain_high, got {low} and {high}")
        if self.bin_count < 1:
            raise ValueError("bin_count must be positive")

    @property
    def edges(self) -> np.ndarray:
        return np.linspace(self.domain_low, self.domain_high, self.bin_count + 1)  # the last edge is domain_high

    def bin_indices(self, values: np.ndarray) -> np.ndarray:
        """Bin index per value; -1 marks out-of-domain values."""
        values = np.asarray(values, dtype=np.float64)
        idx = np.searchsorted(self.edges, values, side="right") - 1
        idx[values == self.domain_high] = self.bin_count - 1
        idx[idx == self.bin_count] = -1  # above the domain
        return idx


@dataclass(eq=False)
class UncertaintyCurve:
    """Mean absolute replica disagreement per similarity bin."""

    config: HistogramConfig
    pair_counts: np.ndarray  # int64 per bin
    mean_abs_diff: np.ndarray  # float64 per bin, NaN where pair_counts == 0
    out_of_domain_count: int = 0

    def rows(self) -> list[tuple[float, float, int, float]]:
        """(bin_low, bin_high, pair_count, mean_abs_diff) per bin, in order."""
        edges = self.config.edges
        return [
            (float(edges[i]), float(edges[i + 1]), int(self.pair_counts[i]), float(self.mean_abs_diff[i]))
            for i in range(self.config.bin_count)
        ]


@dataclass(eq=False)
class SimilarityHistogram:
    """Counts of similarity values per bin."""

    config: HistogramConfig
    counts: np.ndarray  # int64 per bin
    out_of_domain_count: int = 0

    @property
    def total(self) -> int:
        return int(self.counts.sum()) + self.out_of_domain_count


def _tally(config: HistogramConfig, rows: Iterable[tuple]) -> tuple[np.ndarray, np.ndarray, int]:
    """Per-bin counts and weight sums of (values, weights) rows, and the count
    of out-of-domain values; rows whose weights are None add no sums."""
    slots = config.bin_count + 1  # slot 0 takes the out-of-domain values, bin_indices' -1
    counts = np.zeros(slots, dtype=np.int64)
    sums = np.zeros(slots, dtype=np.float64)
    for values, weights in rows:
        idx = config.bin_indices(values) + 1
        counts += np.bincount(idx, minlength=slots)
        if weights is not None:
            sums += np.bincount(idx, weights=weights, minlength=slots)
    return counts[1:], sums[1:], int(counts[0])


def uncertainty_curve(
    reference: EmbeddingModel | ReducedReplica,
    other: EmbeddingModel | ReducedReplica,
    probe_terms: list[str],
    config: HistogramConfig = HistogramConfig(),
) -> UncertaintyCurve:
    """Binned mean |sim_reference - sim_other| over probe/vocabulary pairs.

    Pairs run over each probe term against every other term of the shared
    vocabulary; each pair lands in the bin of its reference-model similarity.
    Probe terms must exist in both models; reduced replicas must have been
    reduced to them.
    """
    if not probe_terms:
        raise ValueError("probe_terms must be nonempty")
    ensemble = ModelEnsemble([reference, other], probe_terms)
    rows = ((ref, np.abs(ref - oth)) for ref, oth in map(ensemble.similarities, probe_terms))
    counts, diff_sums, out_of_domain = _tally(config, rows)
    with np.errstate(invalid="ignore"):
        mean = np.where(counts > 0, diff_sums / np.maximum(counts, 1), np.nan)
    return UncertaintyCurve(
        config=config, pair_counts=counts, mean_abs_diff=mean, out_of_domain_count=out_of_domain
    )


def similarity_histogram(
    model: EmbeddingModel | ReducedReplica,
    probe_terms: list[str],
    config: HistogramConfig = HistogramConfig(),
) -> SimilarityHistogram:
    """Histogram of cosine(probe, y) over every probe term and every y != probe.
    A reduced replica gives the rows it was reduced to, with no new product."""
    if not probe_terms:
        raise ValueError("probe_terms must be nonempty")
    rows = ((np.delete(model.similarities_to(probe), model.row(probe)), None) for probe in probe_terms)
    counts, _, out_of_domain = _tally(config, rows)
    return SimilarityHistogram(config=config, counts=counts, out_of_domain_count=out_of_domain)


def write_uncertainty_csv(curve: UncertaintyCurve, path: str) -> None:
    """One row per bin: bin_low, bin_high, pair_count, mean_abs_diff.

    The mean field is empty for unpopulated bins. A leading comment line
    records the out-of-domain pair count.
    """
    write_csv(
        path,
        ["bin_low", "bin_high", "pair_count", "mean_abs_diff"],
        [(low, high, count, None if count == 0 else mean) for low, high, count, mean in curve.rows()],
        [f"out_of_domain_pairs={curve.out_of_domain_count}"],
    )


def write_histogram_csv(hist: SimilarityHistogram, path: str) -> None:
    edges = hist.config.edges
    write_csv(
        path,
        ["bin_low", "bin_high", "count"],
        [(edges[i], edges[i + 1], int(hist.counts[i])) for i in range(hist.config.bin_count)],
        [f"out_of_domain_count={hist.out_of_domain_count}"],
    )
