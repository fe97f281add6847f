"""Similarity disagreement between two embedding replicas, binned by similarity.

For a set of probe terms, every (probe, other-term) pair is placed in the bin
holding its similarity under the reference replica; the bin then averages the
absolute difference between the two replicas' similarities for its pairs. The
same binning machinery also produces plain similarity histograms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .csvio import read_csv, write_csv
from .embeddings import EmbeddingModel, ModelEnsemble, ReducedReplica

__all__ = [
    "HistogramConfig",
    "UncertaintyCurve",
    "SimilarityHistogram",
    "uncertainty_curve",
    "similarity_histogram",
    "write_uncertainty_csv",
    "read_uncertainty_csv",
    "write_histogram_csv",
    "read_histogram_csv",
]


@dataclass(frozen=True)
class HistogramConfig:
    """Uniform binning of the similarity axis.

    The default splits (-0.2, 1.0) into 500 equal bins. Bins are half-open
    [low, high) with the final bin closed so the domain is covered exactly
    once; similarities outside the domain are tallied separately, never
    clamped into edge bins.
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
    def bin_width(self) -> float:
        return (self.domain_high - self.domain_low) / self.bin_count

    @property
    def edges(self) -> np.ndarray:
        return self.domain_low + self.bin_width * np.arange(self.bin_count + 1)

    def bin_indices(self, values: np.ndarray) -> np.ndarray:
        """Bin index per value; -1 marks out-of-domain values."""
        values = np.asarray(values, dtype=np.float64)
        idx = np.floor((values - self.domain_low) / self.bin_width).astype(np.int64)
        idx = np.minimum(idx, self.bin_count - 1)
        out = (values < self.domain_low) | (values > self.domain_high)
        idx[out] = -1
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

    counts = np.zeros(config.bin_count, dtype=np.int64)
    diff_sums = np.zeros(config.bin_count, dtype=np.float64)
    out_of_domain = 0
    for probe in probe_terms:
        sims_ref, sims_oth = ensemble.similarities(probe)
        idx = config.bin_indices(sims_ref)
        out_of_domain += int(np.count_nonzero(idx < 0))
        ok = idx >= 0
        counts += np.bincount(idx[ok], minlength=config.bin_count)
        diffs = np.abs(sims_ref - sims_oth)
        diff_sums += np.bincount(idx[ok], weights=diffs[ok], minlength=config.bin_count)

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
    counts = np.zeros(config.bin_count, dtype=np.int64)
    out_of_domain = 0
    for probe in probe_terms:
        sims = np.delete(model.similarities_to(probe), model.row(probe))
        idx = config.bin_indices(sims)
        out_of_domain += int(np.count_nonzero(idx < 0))
        counts += np.bincount(idx[idx >= 0], minlength=config.bin_count)
    return SimilarityHistogram(config=config, counts=counts, out_of_domain_count=out_of_domain)


def _config_from_rows(path: str, rows: list[dict[str, str]]) -> HistogramConfig:
    if not rows:
        raise ValueError(f"{path}: no bins found")
    return HistogramConfig(
        domain_low=float(rows[0]["bin_low"]), domain_high=float(rows[-1]["bin_high"]), bin_count=len(rows)
    )


def _comment_count(comments: list[str], key: str) -> int:
    return int(dict(c.split("=", 1) for c in comments if "=" in c).get(key, 0))


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


def read_uncertainty_csv(path: str) -> UncertaintyCurve:
    comments, rows = read_csv(path)
    config = _config_from_rows(path, rows)
    return UncertaintyCurve(
        config=config,
        pair_counts=np.array([int(r["pair_count"]) for r in rows], dtype=np.int64),
        mean_abs_diff=np.array([float(r["mean_abs_diff"] or "nan") for r in rows]),
        out_of_domain_count=_comment_count(comments, "out_of_domain_pairs"),
    )


def write_histogram_csv(hist: SimilarityHistogram, path: str) -> None:
    edges = hist.config.edges
    write_csv(
        path,
        ["bin_low", "bin_high", "count"],
        [(edges[i], edges[i + 1], int(hist.counts[i])) for i in range(hist.config.bin_count)],
        [f"out_of_domain_count={hist.out_of_domain_count}"],
    )


def read_histogram_csv(path: str) -> SimilarityHistogram:
    comments, rows = read_csv(path)
    return SimilarityHistogram(
        config=_config_from_rows(path, rows),
        counts=np.array([int(r["count"]) for r in rows], dtype=np.int64),
        out_of_domain_count=_comment_count(comments, "out_of_domain_count"),
    )
