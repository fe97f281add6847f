"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Tolerances are fixed here, not tuned elsewhere.
"""

import json
import math
import os
import time
from pathlib import Path

import numpy as np
import pytest
import scipy.stats
from scipy.special import ndtr, ndtri

from simthresh.cli import main
from simthresh.csvio import read_csv
from simthresh.embeddings import ModelEnsemble
from simthresh.evaluation import (
    RunScores,
    condense,
    evaluate_run,
    paired_ttest,
    read_qrels,
)
from simthresh.neighbors import (
    NeighborCurve,
    aggregate_curves,
    default_grid,
    expected_neighbors,
    mixture_survival,
    pair_statistics,
)
from simthresh.retrieval import (
    ExpansionPolicy,
    LmConfig,
    TranslationTable,
    build_index,
    build_translation_table,
    lm_score,
    read_run,
    save_index,
    tlm_score,
)
from simthresh.textproc import Pipeline
from simthresh.threshold import solve_threshold, synonym_statistics
from simthresh.uncertainty import HistogramConfig, uncertainty_curve
from simthresh import porter

from conftest import perturbed_replicas, random_model, word2vec_bytes
from metrics_oracle import oracle_average_precision, oracle_condense, oracle_ndcg
from pair_oracle import pair_cosine
from planted_world import build_world
from retrieval_oracle import dense_rank

DATA = Path(__file__).parent / "data"
PLAIN = Pipeline(stopwords=frozenset(), stem_enabled=False)


def report(number: int, name: str, elapsed: float | None = None) -> None:
    suffix = f" ({elapsed:.1f}s)" if elapsed is not None else ""
    print(f"\n[AC-{number:02d}] {name}: PASS{suffix}")


def random_corpus(rng, n_docs, vocab_size, max_len=12):
    vocab = [f"w{i}" for i in range(vocab_size)]
    docs = {}
    for i in range(n_docs):
        length = int(rng.integers(1, max_len))
        docs[f"d{i:03d}"] = [vocab[j] for j in rng.integers(0, vocab_size, size=length)]
    return docs


def test_c01_zero_uncertainty_identity():
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    for dim in (8, 64):
        for size in (10, 1000):
            model = random_model(rng, size, dim, f"m{dim}x{size}")
            probes = [model.vocabulary[int(i)] for i in rng.integers(0, size, size=5)]
            curve = uncertainty_curve(model, model, sorted(set(probes)))
            populated = curve.pair_counts > 0
            assert populated.any()
            assert np.all(curve.mean_abs_diff[populated] == 0.0)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report(1, "zero-uncertainty identity", elapsed)


def test_c02_synthetic_uncertainty_calibration():
    start = time.perf_counter()
    rng = np.random.default_rng(202)
    sigma = 0.01
    n_tokens, dim = 60, 16
    base = random_model(rng, n_tokens, dim, "base")
    m, p = perturbed_replicas(base, rng, 2, sigma)

    # Grand mean over all ordered probe pairs via the uncertainty module,
    # with a domain wide enough that nothing falls outside it.
    config = HistogramConfig(domain_low=-1.0, domain_high=1.0, bin_count=100)
    curve = uncertainty_curve(m, p, list(base.vocabulary), config)
    assert curve.out_of_domain_count == 0
    weights = curve.pair_counts
    grand_mean = float(
        np.nansum(curve.mean_abs_diff * weights) / weights.sum()
    )

    # Per-probe means feed the realization-noise term of the standard error.
    per_probe = []
    for token in base.vocabulary:
        sims_m = np.delete(m.similarities_to(token), m.row(token))
        sims_p = np.delete(p.similarities_to(token), p.row(token))
        per_probe.append(float(np.abs(sims_m - sims_p).mean()))
    se_realization = float(np.std(per_probe, ddof=1) / np.sqrt(len(per_probe)))

    # Monte Carlo oracle of the same construction: fresh noise on freshly
    # drawn base pairs, 1e6 samples in chunks.
    draws = 10**6
    chunk = 10**5
    total, total_sq, seen = 0.0, 0.0, 0
    base_vecs = base.vectors
    while seen < draws:
        n = min(chunk, draws - seen)
        xi = rng.integers(0, n_tokens, size=n)
        yi = (xi + rng.integers(1, n_tokens, size=n)) % n_tokens
        u, v = base_vecs[xi], base_vecs[yi]

        def noisy(w):
            z = w + sigma * rng.standard_normal(w.shape)
            return z / np.linalg.norm(z, axis=1, keepdims=True)

        sim_first_replica = np.sum(noisy(u) * noisy(v), axis=1)
        sim_second_replica = np.sum(noisy(u) * noisy(v), axis=1)
        diff = np.abs(sim_first_replica - sim_second_replica)
        total += float(diff.sum())
        total_sq += float((diff * diff).sum())
        seen += n
    mc_mean = total / draws
    mc_var = total_sq / draws - mc_mean * mc_mean
    se_mc = math.sqrt(max(mc_var, 0.0) / draws)

    se = math.sqrt(se_mc**2 + se_realization**2)
    assert abs(grand_mean - mc_mean) <= 3 * se, (grand_mean, mc_mean, se)
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    report(2, "synthetic uncertainty calibration", elapsed)


def test_c03_expected_neighbor_curve_properties():
    start = time.perf_counter()
    rng = np.random.default_rng(303)
    base = random_model(rng, 10_000, 32, "big")
    term = base.vocabulary[123]
    ensemble = ModelEnsemble(perturbed_replicas(base, rng, 5, 0.01), [term])
    means, stds = pair_statistics(ensemble, term)
    far = float(means.max() + 10 * stds.max())
    grid = np.unique(np.concatenate([np.linspace(-1.0, 1.0, 801), [far]]))
    curve = expected_neighbors(ensemble, term, grid)
    assert np.all(np.diff(curve.expected) <= 1e-12)
    at_minus_one = curve.expected[int(np.searchsorted(grid, -1.0))]
    assert abs(at_minus_one - (len(base) - 1)) <= 1e-6
    at_far = curve.expected[int(np.searchsorted(grid, far))]
    assert at_far < 1e-6
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    report(3, "expected-neighbor curve properties", elapsed)


def test_c04_threshold_solver_vs_grid_scan_oracle():
    start = time.perf_counter()
    rng = np.random.default_rng(404)
    grid = default_grid()

    def scan(fn, target):
        coarse = np.arange(-0.2, 1.0 + 1e-12, 2e-3)
        values = fn(coarse)
        hits = np.flatnonzero((values[:-1] >= target) & (values[1:] <= target))
        i = int(hits[0])
        fine = np.linspace(coarse[i], coarse[i + 1], 201)  # 1e-5 lattice
        fv = fn(fine)
        j = int(np.flatnonzero((fv[:-1] >= target) & (fv[1:] <= target))[0])
        return 0.5 * (fine[j] + fine[j + 1])

    solved = 0
    while solved < 100:
        n = int(rng.integers(2, 51))
        means = rng.uniform(0.0, 0.95, size=n)
        stds = rng.uniform(1e-3, 0.2, size=n)
        expected = mixture_survival(grid, means, stds)
        curve = NeighborCurve(
            grid=grid,
            expected=expected,
            band_low=0.9 * expected,
            band_high=1.1 * expected,
            n_terms=2,
        )
        target = float(rng.uniform(0.05 * n, 0.8 * n))
        if not (curve.band_low[0] >= target >= curve.band_high[-1]):
            continue
        result = solve_threshold(curve, target)
        assert result.lower <= result.main <= result.upper

        def mixture(s, scale=1.0):
            return scale * mixture_survival(np.atleast_1d(s), means, stds)

        assert abs(result.main - scan(lambda s: mixture(s), target)) <= 2e-4
        assert abs(result.lower - scan(lambda s: mixture(s, 0.9), target)) <= 2e-4
        assert abs(result.upper - scan(lambda s: mixture(s, 1.1), target)) <= 2e-4
        solved += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    report(4, f"threshold solver vs oracle ({solved} mixtures)", elapsed)


def test_c05_closed_form_threshold():
    grid = default_grid()
    expected = 2.0 * (1.0 - ndtr((grid - 0.7) / 0.05))
    curve = NeighborCurve(
        grid=grid, expected=expected, band_low=expected, band_high=expected, n_terms=2
    )
    result = solve_threshold(curve, 1.6)
    analytic = 0.7 + 0.05 * float(ndtri(0.2))
    assert analytic == pytest.approx(0.65792, abs=1e-5)
    assert result.main == pytest.approx(analytic, abs=1e-3)
    assert result.lower == pytest.approx(analytic, abs=1e-3)
    assert result.upper == pytest.approx(analytic, abs=1e-3)
    report(5, "closed-form threshold inversion")


def test_c06_synonym_statistics():
    # hand enumeration: counts {3, 2, 2, 1}, mean 2, population std sqrt(1/2)
    target = synonym_statistics([["a", "b", "c"], ["a", "d"]])
    assert target.mean_synonyms == pytest.approx(2.0, abs=1e-12)
    assert target.std_synonyms == pytest.approx(math.sqrt(0.5), abs=1e-9)
    assert target.term_count == 4
    multi = synonym_statistics([["a", "big_cat"], ["b", "c", "loch_ness_monster"]])
    assert multi.mean_synonyms == pytest.approx((0 + 1 + 1) / 3)
    assert multi.term_count == 3
    wordnet_path = os.environ.get("SIMTHRESH_WORDNET_SYNSETS")
    if wordnet_path:
        wn = synonym_statistics(wordnet_path)
        assert wn.mean_synonyms == pytest.approx(1.6, abs=0.1)
        note = f"; wordnet export mean {wn.mean_synonyms:.3f} over {wn.term_count} terms"
    else:
        note = "; wordnet export not provided, documented expectation unchecked"
    report(6, "synonym statistics" + note)


def test_c07_translation_lm_reduction():
    start = time.perf_counter()
    rng = np.random.default_rng(707)
    for _ in range(50):
        docs = random_corpus(rng, int(rng.integers(2, 21)), int(rng.integers(3, 25)))
        index = build_index([(d, " ".join(t)) for d, t in docs.items()], PLAIN)
        vocab = sorted({t for terms in docs.values() for t in terms})
        query = [vocab[int(i)] for i in rng.integers(0, len(vocab), size=int(rng.integers(1, 5)))]
        base = lm_score(index, LmConfig(), query)
        table = build_translation_table(query, ExpansionPolicy())
        assert table.entries == {t: [(t, 1.0)] for t in query}
        translated = tlm_score(index, LmConfig(), table, query)
        assert [d for d, _ in base] == [d for d, _ in translated]
        for (_, s1), (_, s2) in zip(base, translated):
            assert abs(s1 - s2) <= 1e-12
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    report(7, "translation-LM reduction identity (50 corpora)", elapsed)


def test_c08_dense_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(808)
    for _ in range(30):
        docs = random_corpus(rng, int(rng.integers(2, 21)), int(rng.integers(3, 31)))
        index = build_index([(d, " ".join(t)) for d, t in docs.items()], PLAIN)
        vocab = sorted({t for terms in docs.values() for t in terms})
        query = [vocab[int(i)] for i in rng.integers(0, len(vocab), size=int(rng.integers(1, 4)))]
        table = TranslationTable()
        for tq in query:
            pairs = [(tq, 1.0)]
            extra = vocab[int(rng.integers(0, len(vocab)))]
            if extra != tq:
                pairs.append((extra, float(rng.uniform(0.2, 0.9))))
            table.add(tq, pairs)
        mu = float(rng.uniform(50, 1500))
        got = tlm_score(index, LmConfig(mu=mu), table, query)
        want = dense_rank(docs, mu, table.entries, query)
        assert [d for d, _ in got] == [d for d, _ in want]
        for (_, log_score), (_, linear) in zip(got, want):
            assert math.exp(log_score) == pytest.approx(linear, rel=1e-10)
        base_got = lm_score(index, LmConfig(mu=mu), query)
        base_want = dense_rank(docs, mu, build_translation_table(query, ExpansionPolicy()).entries, query)
        assert [d for d, _ in base_got] == [d for d, _ in base_want]
        for (_, log_score), (_, linear) in zip(base_got, base_want):
            assert math.exp(log_score) == pytest.approx(linear, rel=1e-10)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    report(8, "dense oracle equivalence (30 corpora)", elapsed)


def test_c09_metric_oracle():
    from simthresh.evaluation import average_precision, ndcg_at

    # hand enumeration: (1/2)(1/2 + 2/3) = 7/12 = 0.583333...
    ap = average_precision(["d2", "d1", "d3", "d4"], {"d1": 1, "d3": 1, "d2": 0, "d4": 0})
    assert ap == pytest.approx(7 / 12, abs=1e-9)
    ndcg = ndcg_at(["d1", "d2", "d3"], {"d2": 1, "d1": 0, "d3": 0}, cutoff=3)
    assert ndcg == pytest.approx(0.63093, abs=1e-4)

    run = read_run(str(DATA / "metric_run.txt"))
    qrels = read_qrels(str(DATA / "metric_qrels.txt"))
    expected = json.loads((DATA / "metric_expected.json").read_text())
    got_map = evaluate_run(run, qrels, "map", cutoff=20, condense_lists=True)
    got_ndcg = evaluate_run(run, qrels, "ndcg", cutoff=20, condense_lists=True)
    for topic in qrels.topics():
        # frozen expectations and a live oracle recomputation must both agree
        ranking = [d for d, _ in run[topic]]
        grades = qrels.judged(topic)
        live_map = oracle_average_precision(oracle_condense(ranking, grades), grades)
        live_ndcg = oracle_ndcg(oracle_condense(ranking, grades), grades, 20)
        assert got_map.per_topic[topic] == pytest.approx(expected[topic]["map"], abs=1e-6)
        assert got_map.per_topic[topic] == pytest.approx(live_map, abs=1e-6)
        assert got_ndcg.per_topic[topic] == pytest.approx(expected[topic]["ndcg20"], abs=1e-6)
        assert got_ndcg.per_topic[topic] == pytest.approx(live_ndcg, abs=1e-6)
    assert got_map.mean == pytest.approx(expected["mean"]["map"], abs=1e-6)
    assert got_ndcg.mean == pytest.approx(expected["mean"]["ndcg20"], abs=1e-6)
    report(9, "metric oracle fixture (5 topics, 50 docs)")


def test_c10_condensation():
    rng = np.random.default_rng(1010)
    from simthresh.evaluation import Qrels, average_precision, ndcg_at

    for trial in range(100):
        docs = [f"d{i:02d}" for i in range(20)]
        judged_docs = list(rng.permutation(docs)[:12])  # 40% unjudged
        qrels = Qrels()
        grades = {}
        for d in judged_docs:
            grades[d] = int(rng.integers(0, 3))
            qrels.add("1", d, grades[d])
        ranked = list(rng.permutation(docs))
        run = {"1": [(d, -float(i)) for i, d in enumerate(ranked)]}

        condensed = condense(run, qrels)
        hand_filtered = [d for d in ranked if d in grades]
        assert [d for d, _ in condensed["1"]] == hand_filtered

        auto = evaluate_run(run, qrels, "map", condense_lists=True).per_topic["1"]
        manual = average_precision(hand_filtered, grades)
        assert auto == manual  # exact
        auto_n = evaluate_run(run, qrels, "ndcg", condense_lists=True).per_topic["1"]
        manual_n = ndcg_at(hand_filtered, grades, cutoff=20)
        assert auto_n == manual_n

        assert condense(condensed, qrels) == condensed
    report(10, "condensed-list evaluation and idempotence (100 fixtures)")


def test_c11_paired_ttest_oracle():
    diffs = [0.05, -0.02, 0.07, 0.01, 0.04]
    a = RunScores(metric="map", per_topic={f"t{i}": 0.5 + d for i, d in enumerate(diffs)})
    b = RunScores(metric="map", per_topic={f"t{i}": 0.5 for i in range(5)})
    result = paired_ttest(a, b)
    # Frozen from the independent statistics oracle (scipy.stats.ttest_rel).
    oracle_t, oracle_p = scipy.stats.ttest_rel(
        [0.5 + d for d in diffs], [0.5] * 5
    )
    assert result.t_statistic == pytest.approx(float(oracle_t), abs=1e-9)
    assert result.p_value == pytest.approx(float(oracle_p), abs=1e-9)
    assert result.t_statistic == pytest.approx(1.8973665961010273, abs=1e-3)
    assert result.p_value == pytest.approx(0.13063511375366066, abs=1e-3)
    assert not result.significant

    rng = np.random.default_rng(1111)
    for _ in range(100):
        n = int(rng.integers(2, 15))
        x = RunScores(metric="map", per_topic={f"t{i}": float(v) for i, v in enumerate(rng.uniform(0, 1, n))})
        y = RunScores(metric="map", per_topic={f"t{i}": float(v) for i, v in enumerate(rng.uniform(0, 1, n))})
        xy = paired_ttest(x, y)
        yx = paired_ttest(y, x)
        assert xy.t_statistic == pytest.approx(-yx.t_statistic, abs=1e-12)
        assert xy.p_value == pytest.approx(yx.p_value, abs=1e-12)
    report(11, "paired t-test oracle and antisymmetry")


def test_c12_end_to_end_planted_synonyms():
    start = time.perf_counter()
    world = build_world()
    grid = default_grid()
    curves = [expected_neighbors(world.ensemble, t, grid) for t in world.probe_terms]
    aggregated = aggregate_curves(curves)
    derived = solve_threshold(aggregated, 1.6, dimensionality=world.base.dimensionality)
    assert 0.7 < derived.main < pair_cosine(world.base, "aa00", "cc00") + 0.01

    def mean_map(policy):
        run = world.run_policy(policy)
        return evaluate_run(run, world.qrels, "map").mean

    map_baseline = mean_map(ExpansionPolicy(mode="none"))
    map_derived = mean_map(ExpansionPolicy(mode="threshold", threshold=derived.main))
    map_knn10 = mean_map(ExpansionPolicy(mode="knn", k=10))
    map_low = mean_map(ExpansionPolicy(mode="threshold", threshold=0.3))
    map_high = mean_map(ExpansionPolicy(mode="threshold", threshold=0.95))

    assert map_derived > map_baseline
    assert map_derived > map_knn10
    assert map_derived >= map_low
    assert map_derived >= map_high
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    report(
        12,
        "end-to-end planted-synonym trend "
        f"(baseline {map_baseline:.3f} < derived {map_derived:.3f}; "
        f"knn10 {map_knn10:.3f}, sweep edges {map_low:.3f}/{map_high:.3f})",
        elapsed,
    )


def test_c12_claim_through_the_cli(tmp_path, capsys):
    """AC-12 run as a user runs it: ``threshold`` on replica files, ``search`` under each policy, ``evaluate``
    and ``compare``. Each number must be the one AC-12 computes in the library."""
    start = time.perf_counter()
    world = build_world()
    replicas = [tmp_path / f"replica{r}.vec" for r in range(len(world.replicas))]
    for path, replica in zip(replicas, world.replicas):
        path.write_bytes(word2vec_bytes(replica))
    (tmp_path / "base.vec").write_bytes(word2vec_bytes(world.base))
    (tmp_path / "probes.txt").write_text("".join(f"{t}\n" for t in world.probe_terms))
    (tmp_path / "topics.tsv").write_text("".join(f"{t}\t{text}\n" for t, text in world.topics))
    (tmp_path / "qrels.txt").write_text("".join(f"{t} 0 {d} {g}\n" for t in world.qrels.topics()
                                                for d, g in world.qrels.judged(t).items()))
    save_index(world.index, str(tmp_path / "index.npz"))

    assert main(["threshold", "--models", *map(str, replicas), "--probes", str(tmp_path / "probes.txt"),
                 "--out", str(tmp_path / "threshold.csv")]) == 0
    derived = float(read_csv(str(tmp_path / "threshold.csv"))[1][0]["main"])
    curves = [expected_neighbors(world.ensemble, t, default_grid()) for t in world.probe_terms]
    assert derived == solve_threshold(aggregate_curves(curves), 1.6, dimensionality=world.base.dimensionality).main

    policies = {  # name -> (search flags, the same policy in the library)
        "none": ([], ExpansionPolicy(mode="none")),
        "derived": (["--policy", "threshold", "--threshold", repr(derived)],
                    ExpansionPolicy(mode="threshold", threshold=derived)),
        "knn10": (["--policy", "knn", "--k", "10"], ExpansionPolicy(mode="knn", k=10)),
        "low": (["--policy", "threshold", "--threshold", "0.3"], ExpansionPolicy(mode="threshold", threshold=0.3)),
        "high": (["--policy", "threshold", "--threshold", "0.95"], ExpansionPolicy(mode="threshold", threshold=0.95)),
    }
    maps = {}
    for name, (flags, policy) in policies.items():
        run, report_csv = tmp_path / f"{name}.run", tmp_path / f"{name}.csv"
        model = ["--model", str(tmp_path / "base.vec")] if flags else []
        assert main(["search", "--index", str(tmp_path / "index.npz"), "--topics", str(tmp_path / "topics.tsv"),
                     *flags, *model, "--out", str(run)]) == 0
        assert main(["evaluate", "--run", str(run), "--qrels", str(tmp_path / "qrels.txt"),
                     "--out", str(report_csv)]) == 0
        maps[name] = float(read_csv(str(report_csv))[1][-1]["map"])
        assert maps[name] == evaluate_run(world.run_policy(policy), world.qrels, "map").mean, name

    assert main(["compare", "--run-a", str(tmp_path / "derived.run"), "--run-b", str(tmp_path / "none.run"),
                 "--qrels", str(tmp_path / "qrels.txt"), "--out", str(tmp_path / "compare.csv")]) == 0
    (comparison,) = read_csv(str(tmp_path / "compare.csv"))[1]
    assert (float(comparison["mean_a"]), float(comparison["mean_b"])) == (maps["derived"], maps["none"])
    assert comparison["significant"] == "true"  # the paper's claim: significantly better than no expansion
    assert maps["derived"] > maps["none"]
    assert maps["derived"] > maps["knn10"]
    assert maps["derived"] >= maps["low"]
    assert maps["derived"] >= maps["high"]
    capsys.readouterr()
    report(12, f"the planted-synonym trend through the CLI (threshold {derived:.4f}; MAP "
               + ", ".join(f"{name} {value:.4f}" for name, value in maps.items())
               + f"; derived vs none p={float(comparison['p_value']):.2g})", time.perf_counter() - start)


def test_c13_porter_reference_fixture():
    vocab = (DATA / "porter_vocab.txt").read_text().split()
    expected = (DATA / "porter_expected.txt").read_text().split()
    assert len(vocab) == 1000 and len(expected) == 1000
    mismatches = [
        (w, porter.stem(w), e) for w, e in zip(vocab, expected) if porter.stem(w) != e
    ]
    assert mismatches == []
    report(13, "stemmer matches 1000-word reference output")
