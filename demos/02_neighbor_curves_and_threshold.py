# %% [markdown]
# # From replica spread to a similarity threshold
#
# Fitting a normal distribution to each pair's similarities across an ensemble
# of replicas turns the neighborhood of a term into a continuous curve: the
# expected number of neighbors above each similarity value. Averaging the
# curves of a probe set and intersecting with the average synonym count of a
# lexicon yields a dimension-specific similarity threshold with a confidence
# band.

# %%
from pathlib import Path

import numpy as np

from simthresh.embeddings import EmbeddingModel, ModelEnsemble
from simthresh.neighbors import (
    aggregate_curves, default_grid, expected_neighbors, pair_statistics, write_curve_csv,
)
from simthresh.threshold import solve_threshold, synonym_statistics, write_threshold_csv

OUT = Path(__file__).resolve().parent / "output"
OUT.mkdir(exist_ok=True)

rng = np.random.default_rng(11)

# %% Five replicas of one synthetic model.
n_tokens, dim = 400, 48
tokens = [f"w{i:04d}" for i in range(n_tokens)]
base = rng.standard_normal((n_tokens, dim))
replicas = [
    EmbeddingModel.from_arrays(tokens, base + 0.015 * rng.standard_normal(base.shape), f"replica-{r}")
    for r in range(5)
]

# %% The ensemble keeps only the probe terms' similarity rows of each replica.
probes = [tokens[int(i)] for i in rng.choice(n_tokens, size=25, replace=False)]
ensemble = ModelEnsemble(replicas, probes)

# %% A single pair's distribution across the replicas. Column j of the
# statistics is the j-th shared term with the probe left out.
means, stds = pair_statistics(ensemble, probes[0])
other = next(t for t in ensemble.shared_vocabulary if t != probes[0])
print(f"pair ({probes[0]}, {other}): mean {means[0]:+.4f}, std {stds[0]:.5f} "
      f"over {ensemble.replica_count} replicas")

# %% Per-term expected-neighbor curves, then the aggregated curve with band.
grid = default_grid()
curves = [expected_neighbors(ensemble, t, grid) for t in ensemble.probes]  # one per probe, in probe order
aggregated = aggregate_curves(curves, confidence=0.95)
write_curve_csv(aggregated, str(OUT / "expected_neighbors_aggregated.csv"))
for s in (0.0, 0.2, 0.4, 0.6):
    i = int(np.searchsorted(grid, s))
    print(f"E(s={s:.1f}) = {aggregated.expected[i]:8.3f} "
          f"[{aggregated.band_low[i]:8.3f}, {aggregated.band_high[i]:8.3f}]")

# %% The synonym target: mean synonym count of a small lexicon file.
lexicon = [
    ["car", "auto", "automobile"],
    ["car", "railcar"],
    ["book", "volume"],
    ["publish", "print"],
    ["happy", "glad", "cheerful"],
    ["big", "large"],
    ["small", "little"],
    ["street", "road"],
]
target = synonym_statistics(lexicon)
print(f"\nsynonym target: mean {target.mean_synonyms:.3f}, std {target.std_synonyms:.3f} "
      f"over {target.term_count} lemmas")

# %% Solve for the threshold: where the curve crosses the target.
result = solve_threshold(aggregated, target, dimensionality=dim)
write_threshold_csv([result], str(OUT / "threshold_report.csv"))
print(f"derived threshold (dim {dim}): main {result.main:.4f} "
      f"in [{result.lower:.4f}, {result.upper:.4f}]")
print(f"\nCSV data written to {OUT}/")
