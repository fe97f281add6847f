# %% [markdown]
# # Validating a threshold with translation-LM retrieval
#
# A derived similarity threshold is only useful if it separates expansion
# terms that help retrieval from ones that hurt. This script builds a corpus
# with planted synonym pairs (relevant documents use synonym B where topics
# say A), scores it under the query-likelihood model with Dirichlet smoothing,
# and compares expansion policies: none, threshold-filtered, and plain k-NN.
# Metrics are MAP / NDCG@20 over condensed lists with a paired t-test.

# %%
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))

from planted_world import build_world  # noqa: E402

from simthresh.evaluation import evaluate_run, paired_ttest  # noqa: E402
from simthresh.neighbors import aggregate_curves, default_grid, expected_neighbors  # noqa: E402
from simthresh.retrieval import ExpansionPolicy  # noqa: E402
from simthresh.threshold import solve_threshold  # noqa: E402

# %% The synthetic world: 500 docs, 24 topics, planted synonyms at 0.92/0.80.
world = build_world()
print(f"corpus: {world.index.doc_count} docs, {world.index.total_tokens} tokens, "
      f"{len(world.topics)} topics")

# %% Derive the threshold from the replica ensemble.
grid = default_grid()
curves = [expected_neighbors(world.ensemble, t, grid) for t in world.ensemble.probes]
aggregated = aggregate_curves(curves)
derived = solve_threshold(aggregated, 1.6, dimensionality=world.base.dimensionality)
print(f"derived threshold: {derived.main:.4f} in [{derived.lower:.4f}, {derived.upper:.4f}]")

# %% Score every policy and evaluate.
policies = {
    "baseline (no expansion)": ExpansionPolicy(mode="none"),
    f"threshold {derived.main:.3f}": ExpansionPolicy(mode="threshold", threshold=derived.main),
    "threshold 0.30 (too loose)": ExpansionPolicy(mode="threshold", threshold=0.30),
    "threshold 0.95 (too strict)": ExpansionPolicy(mode="threshold", threshold=0.95),
    "knn k=10": ExpansionPolicy(mode="knn", k=10),
}
scores = {}
print(f"\n{'policy':30s} {'MAP':>8s} {'NDCG@20':>8s}")
for name, policy in policies.items():
    run = world.run_policy(policy)
    ap = evaluate_run(run, world.qrels, "map")
    ndcg = evaluate_run(run, world.qrels, "ndcg", cutoff=20)
    scores[name] = ap
    print(f"{name:30s} {ap.mean:8.4f} {ndcg.mean:8.4f}")

# %% Significance of the derived threshold against the baseline.
derived_name = f"threshold {derived.main:.3f}"
test = paired_ttest(scores[derived_name], scores["baseline (no expansion)"])
verdict = "significant" if test.significant else "not significant"
print(f"\nderived vs baseline: t = {test.t_statistic:.3f}, p = {test.p_value:.5f} "
      f"({verdict} at 0.05, n = {test.n_topics})")
