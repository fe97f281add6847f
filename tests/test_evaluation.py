import logging
import math

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import betainc, betaincc

from simthresh.csvio import read_csv
from simthresh.evaluation import (
    _t_sf_two_sided,
    Qrels,
    RunScores,
    average_precision,
    condense,
    evaluate_run,
    ndcg_at,
    paired_ttest,
    read_qrels,
    read_run,
    write_comparison_report,
    write_metric_report,
    write_run,
)


def make_qrels(entries: dict[str, dict[str, int]]) -> Qrels:
    qrels = Qrels()
    for topic, docs in entries.items():
        for doc, grade in docs.items():
            qrels.add(topic, doc, grade)
    return qrels


class TestQrels:
    def test_reader(self, tmp_path):
        path = tmp_path / "qrels.txt"
        path.write_text("301 0 d1 1\n301 0 d2 0\n302 0 d9 2\n")
        qrels = read_qrels(str(path))
        assert qrels.topics() == ["301", "302"]
        assert qrels.judged("301") == {"d1": 1, "d2": 0}

    def test_duplicate_rejected(self):
        qrels = Qrels()
        qrels.add("1", "d1", 1)
        with pytest.raises(ValueError, match="duplicate"):
            qrels.add("1", "d1", 0)

    def test_negative_grade_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            Qrels().add("1", "d1", -1)

    def test_malformed_line(self, tmp_path):
        path = tmp_path / "qrels.txt"
        path.write_text("301 0 d1\n")
        with pytest.raises(ValueError, match="4 fields"):
            read_qrels(str(path))


class TestRunFile:
    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "run.txt"
        path.write_text("1 Q0 d1 1 2.0 t\n\n  \n1 Q0 d2 2 1.0 t\n")
        assert read_run(str(path)) == {"1": [("d1", 2.0), ("d2", 1.0)]}

    @pytest.mark.parametrize("max_docs", [0, -1])
    def test_write_keeps_at_least_one_document(self, tmp_path, max_docs):
        path = tmp_path / "run.txt"
        with pytest.raises(ValueError, match="max_docs must be >= 1"):
            write_run({"1": [("d1", 1.0)]}, str(path), max_docs=max_docs)
        assert not path.exists()


class TestCondense:
    def test_all_judged_identity(self):
        qrels = make_qrels({"1": {"d1": 1, "d2": 0, "d3": 1}})
        run = {"1": [("d3", -1.0), ("d1", -2.0), ("d2", -3.0)]}
        assert condense(run, qrels) == run

    def test_filter_and_compact(self):
        qrels = make_qrels({"1": {"d1": 1, "d3": 0}})
        run = {"1": [("d1", -1.0), ("d2", -2.0), ("d3", -3.0)]}
        assert condense(run, qrels) == {"1": [("d1", -1.0), ("d3", -3.0)]}

    def test_no_judged_docs(self):
        qrels = make_qrels({"1": {"dX": 1}})
        run = {"1": [("d1", -1.0), ("d2", -2.0)]}
        assert condense(run, qrels) == {"1": []}

    def test_idempotent(self, rng):
        for _ in range(25):
            docs = [f"d{i}" for i in range(20)]
            judged = {d: int(rng.integers(0, 3)) for d in docs if rng.random() < 0.6}
            qrels = make_qrels({"1": judged or {"d0": 1}})
            order = list(rng.permutation(docs))
            run = {"1": [(d, -float(i)) for i, d in enumerate(order)]}
            once = condense(run, qrels)
            assert condense(once, qrels) == once


class TestAveragePrecision:
    def test_hand_example(self):
        judged = {"d1": 1, "d3": 1, "d2": 0, "d4": 0}
        ap = average_precision(["d2", "d1", "d3", "d4"], judged)
        assert ap == pytest.approx(0.5833333333333333, abs=1e-9)

    def test_ideal_ranking(self):
        judged = {"d1": 1, "d2": 1, "d3": 0, "d4": 0}
        assert average_precision(["d1", "d2", "d3", "d4"], judged) == 1.0

    def test_no_relevant_retrieved(self):
        judged = {"d1": 1}
        assert average_precision(["d2", "d3"], judged) == 0.0

    def test_no_relevant_judged(self):
        assert average_precision(["d1"], {"d1": 0}) == 0.0

    def test_unretrieved_relevant_counts_in_denominator(self):
        judged = {"d1": 1, "d2": 1}
        assert average_precision(["d1"], judged) == pytest.approx(0.5)

    def test_relabeling_invariance(self, rng):
        judged = {f"d{i}": int(rng.integers(0, 2)) for i in range(10)}
        ranking = [f"d{i}" for i in rng.permutation(10)]
        mapping = {f"d{i}": f"X{i}" for i in range(10)}
        renamed = average_precision(
            [mapping[d] for d in ranking], {mapping[d]: g for d, g in judged.items()}
        )
        assert renamed == average_precision(ranking, judged)


class TestNdcg:
    def test_perfect_ordering(self):
        judged = {"d1": 2, "d2": 1, "d3": 0}
        assert ndcg_at(["d1", "d2", "d3"], judged) == pytest.approx(1.0)

    def test_hand_example(self):
        judged = {"d2": 1, "d1": 0, "d3": 0}
        value = ndcg_at(["d1", "d2", "d3"], judged, cutoff=3)
        assert value == pytest.approx(0.6309, abs=1e-4)

    def test_no_relevant(self):
        assert ndcg_at(["d1"], {"d1": 0}) == 0.0

    def test_graded_hand_value(self):
        judged = {"a": 3, "b": 2, "c": 1}
        got = ndcg_at(["c", "a", "b"], judged, cutoff=3)
        dcg = 1 / math.log2(2) + 3 / math.log2(3) + 2 / math.log2(4)
        idcg = 3 / math.log2(2) + 2 / math.log2(3) + 1 / math.log2(4)
        assert got == pytest.approx(dcg / idcg, abs=1e-12)

    def test_cutoff_applies_to_ideal_too(self):
        judged = {f"d{i}": 1 for i in range(30)}
        got = ndcg_at([f"d{i}" for i in range(30)], judged, cutoff=20)
        assert got == pytest.approx(1.0)

    def test_bounds(self, rng):
        for _ in range(50):
            judged = {f"d{i}": int(rng.integers(0, 4)) for i in range(12)}
            ranking = [f"d{i}" for i in rng.permutation(15)]  # some unjudged
            value = ndcg_at(ranking, judged, cutoff=5)
            assert 0.0 <= value <= 1.0

    def test_invalid_cutoff(self):
        with pytest.raises(ValueError):
            ndcg_at([], {}, cutoff=0)


class TestEvaluateRun:
    def test_topics_come_from_qrels(self):
        qrels = make_qrels({"1": {"d1": 1}, "2": {"d2": 1}})
        run = {"1": [("d1", -1.0)], "99": [("dX", -1.0)]}
        scores = evaluate_run(run, qrels, "map")
        assert set(scores.per_topic) == {"1", "2"}
        assert scores.per_topic["1"] == 1.0
        assert scores.per_topic["2"] == 0.0
        assert scores.mean == pytest.approx(0.5)

    def test_condensation_toggle(self):
        qrels = make_qrels({"1": {"d1": 1, "d3": 1}})
        run = {"1": [("d2", -1.0), ("d1", -2.0), ("d3", -3.0)]}
        condensed = evaluate_run(run, qrels, "map", condense_lists=True)
        raw = evaluate_run(run, qrels, "map", condense_lists=False)
        assert condensed.per_topic["1"] == pytest.approx(1.0)
        assert raw.per_topic["1"] == pytest.approx(0.5 * (1 / 2 + 2 / 3))

    def test_mean_of_no_topics_is_zero(self):
        assert RunScores(metric="map", per_topic={}).mean == 0.0

    def test_unknown_metric(self):
        with pytest.raises(ValueError):
            evaluate_run({}, make_qrels({"1": {"d": 1}}), "bpref")


class TestPairedTtest:
    def _scores(self, values: list[float], metric="map") -> RunScores:
        return RunScores(metric=metric, per_topic={f"t{i}": v for i, v in enumerate(values)})

    def test_identical_runs(self):
        a = self._scores([0.3, 0.5, 0.7])
        result = paired_ttest(a, self._scores([0.3, 0.5, 0.7]))
        assert result.t_statistic == 0.0
        assert result.p_value == 1.0
        assert not result.significant

    def test_constant_nonzero_difference(self, caplog):
        # exactly representable values so every pairwise difference is 0.25
        a = self._scores([0.5, 0.75, 1.0, 0.25])
        b = self._scores([0.25, 0.5, 0.75, 0.0])
        with caplog.at_level(logging.WARNING):
            result = paired_ttest(a, b)
        assert result.significant
        assert result.p_value == 0.0
        assert math.isinf(result.t_statistic)
        assert "diverges" in caplog.text

    def test_oracle_example(self):
        # scipy.stats.ttest_1samp on the difference vector is the oracle.
        diffs = [0.05, -0.02, 0.07, 0.01, 0.04]
        a = self._scores([0.5 + d for d in diffs])
        b = self._scores([0.5] * 5)
        result = paired_ttest(a, b)
        assert result.t_statistic == pytest.approx(1.8973665961010273, abs=1e-9)
        assert result.p_value == pytest.approx(0.13063511375366066, abs=1e-9)
        assert not result.significant
        assert result.n_topics == 5

    def test_matches_scipy_on_random_pairs(self, rng):
        for _ in range(50):
            n = int(rng.integers(2, 30))
            a = rng.uniform(0, 1, size=n)
            b = rng.uniform(0, 1, size=n)
            if np.all(a - b == (a - b)[0]):
                continue
            ra = self._scores(list(a))
            rb = self._scores(list(b))
            got = paired_ttest(ra, rb)
            want_t, want_p = scipy.stats.ttest_rel(a, b)
            assert got.t_statistic == pytest.approx(float(want_t), abs=1e-9)
            assert got.p_value == pytest.approx(float(want_p), abs=1e-9)
            assert got.significant == (got.p_value < 0.05)

    def test_antisymmetry(self, rng):
        for _ in range(100):
            n = int(rng.integers(2, 12))
            a = self._scores(list(rng.uniform(0, 1, size=n)))
            b = self._scores(list(rng.uniform(0, 1, size=n)))
            ab = paired_ttest(a, b)
            ba = paired_ttest(b, a)
            assert ab.t_statistic == pytest.approx(-ba.t_statistic, abs=1e-12)
            assert ab.p_value == pytest.approx(ba.p_value, abs=1e-12)

    @settings(max_examples=500, deadline=None)
    @given(df=st.integers(1, 1000), t=st.floats(-1e3, 1e3) | st.sampled_from([math.inf, -math.inf]))
    def test_tail_matches_scipy(self, df, t):
        # scipy evaluates I_x(df/2, 1/2) at whichever of x = df / (df + t^2) and 1 - x is the smaller,
        # computed directly: 1 - x rounded from x would lose the digits that decide p near 1.
        x, y = df / (df + t * t), t * t / (df + t * t)
        want = 0.0 if math.isinf(t) else float(betainc(df / 2, 0.5, x) if x <= y else betaincc(0.5, df / 2, y))
        assert _t_sf_two_sided(t, df) == pytest.approx(want, rel=1e-9, abs=1e-9)

    def test_topic_mismatch(self):
        a = RunScores(metric="map", per_topic={"1": 0.5, "2": 0.5})
        b = RunScores(metric="map", per_topic={"1": 0.5, "3": 0.5})
        with pytest.raises(ValueError, match="topic sets"):
            paired_ttest(a, b)

    def test_too_few_topics(self):
        a = RunScores(metric="map", per_topic={"1": 0.5})
        with pytest.raises(ValueError, match="at least 2"):
            paired_ttest(a, a)


class TestReports:
    def test_metric_report_round_trip(self, tmp_path):
        ap = RunScores(metric="map", per_topic={"1": 0.25, "2": 0.75})
        ndcg = RunScores(metric="ndcg", per_topic={"1": 0.5, "2": 1.0})
        path = tmp_path / "report.csv"
        write_metric_report(str(path), [ap, ndcg])
        _, rows = read_csv(str(path))
        assert rows[0] == {"topic": "1", "map": "0.25", "ndcg": "0.5"}
        assert rows[2]["topic"] == "all"
        assert float(rows[2]["map"]) == pytest.approx(0.5)
        assert float(rows[2]["ndcg"]) == pytest.approx(0.75)

    @pytest.mark.parametrize("scores, message", [
        ([], "nothing to report"),
        ([RunScores(metric="map", per_topic={"1": 0.5}), RunScores(metric="ndcg", per_topic={"2": 0.5})],
         "metric reports must share a topic set"),
    ], ids=["no-scores", "topic-sets-differ"])
    def test_metric_report_rejected(self, tmp_path, scores, message):
        path = tmp_path / "report.csv"
        with pytest.raises(ValueError, match=message):
            write_metric_report(str(path), scores)
        assert not path.exists()

    def test_comparison_report(self, tmp_path):
        a = RunScores(metric="map", per_topic={"1": 0.6, "2": 0.7, "3": 0.9})
        b = RunScores(metric="map", per_topic={"1": 0.5, "2": 0.75, "3": 0.6})
        result = paired_ttest(a, b)
        path = tmp_path / "cmp.csv"
        write_comparison_report(str(path), "map", a.mean, b.mean, result)
        lines = path.read_text().splitlines()
        assert lines[0] == "metric,mean_a,mean_b,t_statistic,p_value,significant,n_topics"
        cells = lines[1].split(",")
        assert cells[0] == "map"
        assert float(cells[3]) == pytest.approx(result.t_statistic)
        assert cells[5] in ("true", "false")
