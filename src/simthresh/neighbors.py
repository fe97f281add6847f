"""Continuous expected-neighbor curves built from replica similarity spread.

Each (term, other) pair's similarity across the replica ensemble is fitted as
a normal distribution; the expected number of neighbors above a similarity s
is then the sum of the pairs' survival probabilities at s. Per-term curves are
averaged over a probe set, with a normal-approximation confidence band on the
mean.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .csvio import read_csv, write_csv
from .embeddings import ModelEnsemble, _worker_count

__all__ = [
    "NeighborCurve",
    "default_grid",
    "pair_statistics",
    "expected_neighbors",
    "aggregate_curves",
    "write_curve_csv",
    "read_curve_csv",
]

# Degenerate zero-variance pairs become near-step survival functions instead
# of divisions by zero.
STD_FLOOR = 1e-6
# The curve file's columns, as write_curve_csv prints them and read_curve_csv needs them.
_CURVE_COLUMNS = ("grid_s", "expected", "band_low", "band_high")


def default_grid(low: float = -0.2, high: float = 1.0, points: int = 2401) -> np.ndarray:
    """Uniform similarity grid; the default step (5e-4) keeps interpolation
    error below the 3-decimal reporting precision of derived thresholds."""
    if not (np.isfinite(low) and np.isfinite(high) and low < high):
        raise ValueError(f"grid needs finite ends with grid_low < grid_high, got {low} and {high}")
    if points < 2:
        raise ValueError("grid needs at least 2 points")
    return np.linspace(low, high, points)


@dataclass(eq=False)
class NeighborCurve:
    """Expected neighbor count over a similarity grid.

    Per-term curves carry ``term`` and no band; aggregated curves carry
    ``n_terms`` and a confidence band with band_low <= expected <= band_high.
    """

    grid: np.ndarray
    expected: np.ndarray
    band_low: np.ndarray | None = None
    band_high: np.ndarray | None = None
    term: str | None = None
    n_terms: int | None = None

    def __post_init__(self) -> None:
        if not np.all(np.diff(self.grid) > 0):  # a NaN step fails too
            raise ValueError("grid must be strictly increasing")
        if len(self.grid) != len(self.expected):
            raise ValueError("grid and expected lengths differ")
        if not all(v is None or np.isfinite(v).all() for v in (self.grid, self.expected, self.band_low, self.band_high)):
            raise ValueError("grid, expected and band values must be finite")
        if (self.band_low is None) != (self.band_high is None):
            raise ValueError("a band needs both band_low and band_high")
        if self.band_low is not None and not len(self.band_low) == len(self.band_high) == len(self.grid):
            raise ValueError("band and grid lengths differ")
        if self.band_low is not None and not np.all((self.band_low <= self.expected) & (self.expected <= self.band_high)):
            raise ValueError("band must hold band_low <= expected <= band_high")


def pair_statistics(ensemble: ModelEnsemble, term: str) -> tuple[np.ndarray, np.ndarray]:
    """(means, stds) of cosine(term, u) across replicas, for every other
    shared-vocabulary term u, from the sums and squared sums over replicas.
    Column j is the j-th term of ``ensemble.shared_vocabulary`` with ``term``
    left out."""
    sims = ensemble.similarities(term)
    if sims.shape[1] == 0:
        raise ValueError("shared vocabulary has no other terms")
    r = ensemble.replica_count
    means = sims.sum(axis=0) / r
    # n-1 denominator; cancellation noise can push the numerator a hair
    # negative, which the floor absorbs.
    var = np.maximum((sims * sims).sum(axis=0) - r * means * means, 0.0) / (r - 1)
    stds = np.maximum(np.sqrt(var), STD_FLOOR)
    return means, stds


def mixture_survival(grid: np.ndarray, means: np.ndarray, stds: np.ndarray) -> np.ndarray:
    """Sum over components of P(similarity > s), evaluated on the ascending grid.

    In float64 1 - ndtr(z) is exactly 1 for z <= -8.2924 and exactly 0 for
    z >= 8.2924, so each pair is evaluated only where |z| < 8.5 (a margin for
    rounding in z), in blocks of 128 pairs sorted by window; below its window
    a pair adds exactly 1. The blocks are evaluated on threads (``ndtr`` and
    numpy release the GIL), one per CPU (``_worker_count``), each taking the
    next block as it finishes one; the threads end before the call returns,
    and after an interrupt no further block starts. The block sums are added
    in block order as they arrive, so the result does not depend on the
    worker count."""
    # imported here: commands that never evaluate a mixture skip scipy and the pool
    from concurrent.futures import ThreadPoolExecutor
    from scipy.special import ndtr

    grid = np.asarray(grid, dtype=np.float64)
    if not np.all(np.diff(grid) >= 0):
        raise ValueError("grid must be ascending")
    lo, hi = np.searchsorted(grid, means - 8.5 * stds), np.searchsorted(grid, means + 8.5 * stds)
    order = np.lexsort((lo, hi))
    picks = (order[i : i + 128] for i in range(0, len(order), 128))
    blocks = [(pick, lo[pick].min(), hi[pick].max()) for pick in picks]

    def block_sum(block: tuple[np.ndarray, int, int]) -> np.ndarray:
        pick, a, b = block
        z = np.subtract(grid[a:b, None], means[pick])
        np.divide(z, stds[pick], out=z)
        return np.subtract(1.0, ndtr(z, out=z), out=z).sum(axis=1)

    total = np.zeros(len(grid))
    with ThreadPoolExecutor(_worker_count(len(blocks))) as pool:
        for (pick, a, b), s in zip(blocks, pool.map(block_sum, blocks)):
            total[:a] += len(pick)
            total[a:b] += s
    return total


def expected_neighbors(ensemble: ModelEnsemble, term: str, grid: np.ndarray) -> NeighborCurve:
    """Per-term expected-neighbor curve E(s) = sum of pair survivals at s."""
    means, stds = pair_statistics(ensemble, term)
    expected = mixture_survival(grid, means, stds)
    return NeighborCurve(grid=np.asarray(grid, dtype=np.float64), expected=expected, term=term)


def aggregate_curves(curves: list[NeighborCurve], confidence: float = 0.95) -> NeighborCurve:
    """Pointwise mean over per-term curves with a confidence band on the mean.

    The band is mean +/- z * (sample std / sqrt(n)); its lower edge is floored
    at zero since neighbor counts cannot be negative.
    """
    from scipy.special import ndtri

    if len(curves) < 2:
        raise ValueError("aggregation needs at least 2 curves")
    if not 0.0 < confidence < 1.0:
        raise ValueError("confidence must be in (0, 1)")
    grid = curves[0].grid
    for c in curves[1:]:
        if len(c.grid) != len(grid) or not np.array_equal(c.grid, grid):
            raise ValueError("curves must share an identical grid")
    stack = np.vstack([c.expected for c in curves])
    mean = stack.mean(axis=0)
    std = stack.std(axis=0, ddof=1)
    z = float(ndtri(0.5 + confidence / 2.0))
    half = z * std / np.sqrt(len(curves))
    return NeighborCurve(
        grid=grid,
        expected=mean,
        band_low=np.maximum(mean - half, 0.0),
        band_high=mean + half,
        n_terms=len(curves),
    )


def write_curve_csv(curve: NeighborCurve, path: str) -> None:
    """One row per grid point: grid_s, expected, band_low, band_high
    (band fields empty for per-term curves)."""
    label = f"term={curve.term}" if curve.term is not None else f"n_terms={curve.n_terms}"
    n = len(curve.grid)
    lows = [None] * n if curve.band_low is None else curve.band_low
    highs = [None] * n if curve.band_high is None else curve.band_high
    write_csv(
        path,
        _CURVE_COLUMNS,
        zip(curve.grid, curve.expected, lows, highs),
        [f"source {label}"],
    )


def read_curve_csv(path: str) -> NeighborCurve:
    """A curve file as ``write_curve_csv`` writes it: ``grid_s`` and ``expected`` on every row, the band
    on every row or on none. Errors name the file, and the data row or comment."""
    comments, rows = read_csv(path)
    if not rows:
        raise ValueError(f"{path}: no grid points found")
    source = dict(c.split("=", 1) for c in comments if "=" in c)
    n_terms = source.get("source n_terms")
    try:
        n_terms = None if n_terms is None else int(n_terms)
    except ValueError as exc:
        raise ValueError(f"{path}: comment '# source n_terms={n_terms}': {exc}") from None
    points = []
    for i, r in enumerate(rows, 1):
        try:
            cells = [r[name] for name in _CURVE_COLUMNS]
            if i == 1:  # the first row says whether the curve has a band
                width = 4 if any(cells[2:]) else 2
            if "" in cells[:width]:
                raise ValueError(f"empty {_CURVE_COLUMNS[cells.index('')]}")
            if any(cells[width:]):
                raise ValueError("a band value, but data row 1 has no band")
            points.append([float(c) for c in cells[:width]])
        except (KeyError, ValueError) as exc:
            what = f"no column {exc}" if isinstance(exc, KeyError) else exc
            raise ValueError(f"{path}: data row {i}: {what}") from None
    grid, expected, *band = np.array(points).T
    try:
        return NeighborCurve(grid, expected, *band, term=source.get("source term"), n_terms=n_terms)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
