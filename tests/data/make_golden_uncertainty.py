"""Regenerates the 5-replica toy fixture and golden uncertainty/histogram CSVs.

The replica files are seeded noise around a shared base model. The golden CSVs
are produced by the package writer only after a pure-Python brute-force
recomputation (no numpy in the checking path) agrees with every emitted value
to within 2 ulp; the brute-force pass is the oracle, the byte-frozen file
guards against regressions. Run from the repo root:

    python3 tests/data/make_golden_uncertainty.py
"""

import bisect
import math
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parents[1] / "src"))

from simthresh.embeddings import load_model  # noqa: E402
from simthresh.uncertainty import (  # noqa: E402
    HistogramConfig,
    similarity_histogram,
    uncertainty_curve,
    write_histogram_csv,
    write_uncertainty_csv,
)

TOKENS = ["alpha", "beta", "gamma", "delta", "epsilon", "zeta"]
DIM = 4
REPLICAS = 5


def write_replicas() -> list[Path]:
    rng = np.random.default_rng(20250101)
    base = rng.standard_normal((len(TOKENS), DIM))
    paths = []
    for r in range(REPLICAS):
        noisy = base + 0.05 * rng.standard_normal(base.shape)
        path = HERE / f"toy_replica_{r}.vec"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(f"{len(TOKENS)} {DIM}\n")
            for token, row in zip(TOKENS, noisy):
                fh.write(token + " " + " ".join(repr(float(x)) for x in row) + "\n")
        paths.append(path)
    return paths


def printed_edges(low: float, high: float, bins: int) -> list[float]:
    """The edges the reports print, by np.linspace's arithmetic: the last is ``high``."""
    return [low + i * ((high - low) / bins) for i in range(bins)] + [high]


def oracle_row(value: float, edges: list[float]) -> int | None:
    """The row whose [low, high) holds ``value``, the last row closed at the top;
    None outside the domain, NaN included."""
    bins = len(edges) - 1
    idx = bins - 1 if value == edges[-1] else bisect.bisect_right(edges, value) - 1
    return idx if 0 <= idx < bins else None


def brute_force_curve(path_ref: Path, path_other: Path, probes: list[str], config: HistogramConfig):
    """Pure-Python recomputation of the binned disagreement curve."""

    def load(path):
        lines = path.read_text().splitlines()
        vocab, vecs = [], []
        for line in lines[1:]:
            parts = line.split()
            vocab.append(parts[0])
            vec = [float(x) for x in parts[1:]]
            norm = math.sqrt(sum(x * x for x in vec))
            vecs.append([x / norm for x in vec])
        return vocab, vecs

    def cos(u, v):
        return max(-1.0, min(1.0, sum(a * b for a, b in zip(u, v))))

    vocab_r, vecs_r = load(path_ref)
    vocab_o, vecs_o = load(path_other)
    row_r = {t: i for i, t in enumerate(vocab_r)}
    row_o = {t: i for i, t in enumerate(vocab_o)}
    shared = [t for t in vocab_r if t in row_o]
    # a pair lands in the printed row whose [low, high) holds its reference similarity
    edges = printed_edges(config.domain_low, config.domain_high, config.bin_count)
    counts = [0] * config.bin_count
    sums = [0.0] * config.bin_count
    out_of_domain = 0
    for probe in probes:
        for other in shared:
            if other == probe:
                continue
            s_ref = cos(vecs_r[row_r[probe]], vecs_r[row_r[other]])
            s_oth = cos(vecs_o[row_o[probe]], vecs_o[row_o[other]])
            idx = oracle_row(s_ref, edges)
            if idx is None:
                out_of_domain += 1
                continue
            counts[idx] += 1
            sums[idx] += abs(s_ref - s_oth)
    means = [s / c if c else float("nan") for s, c in zip(sums, counts)]
    return counts, means, out_of_domain


def values_close(a: float, b: float, rel: float = 1e-12) -> bool:
    # BLAS and sequential-Python summation round differently in the last
    # couple of ulps; anything beyond 1e-12 relative would be a real bug.
    if math.isnan(a) and math.isnan(b):
        return True
    return abs(a - b) <= rel * max(abs(a), abs(b), 1.0)


def main() -> None:
    paths = write_replicas()
    probes = ["alpha", "gamma"]
    (HERE / "toy_probes.txt").write_text("\n".join(probes) + "\n", encoding="utf-8")

    config = HistogramConfig()
    reference = load_model(str(paths[0]))
    other = load_model(str(paths[1]))
    curve = uncertainty_curve(reference, other, probes, config)
    counts, means, out_of_domain = brute_force_curve(paths[0], paths[1], probes, config)

    assert list(curve.pair_counts) == counts
    assert curve.out_of_domain_count == out_of_domain
    for got, want in zip(curve.mean_abs_diff, means):
        assert values_close(float(got), want), (got, want)

    write_uncertainty_csv(curve, str(HERE / "golden_uncertainty.csv"))
    hist = similarity_histogram(reference, probes, config)
    assert hist.total == len(probes) * (len(TOKENS) - 1)
    write_histogram_csv(hist, str(HERE / "golden_histogram.csv"))
    populated = int((curve.pair_counts > 0).sum())
    print(f"golden fixtures written ({populated} populated bins, oracle agreement verified)")


if __name__ == "__main__":
    main()
