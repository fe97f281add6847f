import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from simthresh.csvio import read_csv
from simthresh.embeddings import EmbeddingModel
from simthresh.uncertainty import (
    HistogramConfig,
    UncertaintyCurve,
    _tally,
    similarity_histogram,
    uncertainty_curve,
    write_histogram_csv,
    write_uncertainty_csv,
)

from conftest import hub_model, random_model
from pair_oracle import pair_cosine

# the pure-Python bin rule behind the golden CSVs: bisect over the printed edges
_spec = importlib.util.spec_from_file_location("make_golden_uncertainty",
                                               Path(__file__).parent / "data" / "make_golden_uncertainty.py")
golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden)


def landing_rows(config: HistogramConfig, values) -> list[int]:
    """The row each value is tallied in by the reports' accumulator, -1 when it is out of domain."""
    rows = []
    for value in values:
        counts, _, out_of_domain = _tally(config, [(np.array([value], dtype=np.float64), None)])
        assert counts.sum() + out_of_domain == 1
        rows.append(-1 if out_of_domain else int(np.flatnonzero(counts)[0]))
    return rows


class TestHistogramConfig:
    def test_defaults(self):
        config = HistogramConfig()
        assert config.bin_count == 500
        assert (config.edges[0], config.edges[-1]) == (-0.2, 1.0)
        np.testing.assert_allclose(np.diff(config.edges), 0.0024, rtol=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            HistogramConfig(domain_low=1.0, domain_high=-0.2)
        with pytest.raises(ValueError):
            HistogramConfig(bin_count=0)

    def test_bin_indices_cover_domain(self):
        config = HistogramConfig(domain_low=0.0, domain_high=1.0, bin_count=4)
        values = np.array([0.0, 0.24, 0.25, 0.5, 0.99, 1.0, -0.01, 1.01])
        np.testing.assert_array_equal(landing_rows(config, values), [0, 0, 1, 2, 3, 3, -1, -1])

    def test_top_edge_closed(self):
        config = HistogramConfig()
        assert landing_rows(config, [1.0])[0] == 499

    def test_one_ulp_below_top_edge_lands_in_last_bin(self):
        # cosine 0.9999999999999999, one ulp below the closed top edge
        angle = 1.5e-8
        model = EmbeddingModel.from_arrays(["a", "b"], np.array([[1.0, 0.0], [np.cos(angle), np.sin(angle)]]))
        assert pair_cosine(model, "a", "b") == np.nextafter(1.0, 0.0)
        assert landing_rows(HistogramConfig(), [pair_cosine(model, "a", "b")])[0] == 499
        hist = similarity_histogram(model, ["a"])
        assert hist.counts[499] == 1 and hist.total == 1
        curve = uncertainty_curve(model, model, ["a"])
        assert curve.pair_counts[499] == 1 and curve.mean_abs_diff[499] == 0.0

    @settings(max_examples=200, deadline=None)
    @given(low=st.floats(-1.0, 1.0), span=st.floats(1e-3, 2.0), bins=st.integers(1, 1000),
           fractions=st.lists(st.floats(0.0, 1.0), max_size=20))
    @example(low=-0.2, span=1.2, bins=500, fractions=[])  # the default axis: -0.1952 is the low edge of row 2
    def test_each_value_lands_in_the_printed_row_that_holds_it(self, tmp_path_factory, low, span, bins, fractions):
        config = HistogramConfig(low, low + span, bins)
        path = tmp_path_factory.getbasetemp() / "printed_rows.csv"
        write_uncertainty_csv(UncertaintyCurve(config, np.zeros(bins), np.zeros(bins)), str(path))
        printed = [(float(row["bin_low"]), float(row["bin_high"])) for row in read_csv(str(path))[1]]
        high = config.domain_high
        edges = golden.printed_edges(config.domain_low, high, bins)
        assert edges == config.edges.tolist()
        inside = [*edges, config.domain_low, high, *(min(high, low + f * (high - low)) for f in fractions)]
        near = [np.nextafter(e, toward) for e in edges for toward in (-np.inf, np.inf)]  # one ulp either side
        values = [*inside, *near, np.nan, np.inf, -np.inf]
        rows = [golden.oracle_row(float(value), edges) for value in values]
        for value, row in zip(inside, rows):
            assert row is not None and 0 <= row < bins, (value, row)
            row_low, row_high = printed[row]
            assert row_low <= value < row_high or (row == bins - 1 and value == row_high), (value, row, printed[row])
        # the accumulator and the oracle both bin monotonically, so equal counts put each value in the same row
        counts, _, out_of_domain = _tally(config, [(np.array(values), None)])
        assert counts.tolist() == np.bincount([r for r in rows if r is not None], minlength=bins).tolist()
        assert out_of_domain == rows.count(None)

    def test_row_longer_than_histogram_block(self, rng):
        # np.histogram bins and sums a long row in blocks of 65536 values
        config = HistogramConfig()
        values = rng.uniform(-0.3, 1.1, 70_000)
        values[::997] = np.nan
        weights = rng.uniform(0.0, 0.5, len(values))
        counts, sums, out_of_domain = _tally(config, [(values, weights)])
        edges = config.edges.tolist()
        want_counts, want_weights = [0] * config.bin_count, [[] for _ in range(config.bin_count)]
        for value, weight in zip(values.tolist(), weights.tolist()):
            if (row := golden.oracle_row(value, edges)) is not None:
                want_counts[row] += 1
                want_weights[row].append(weight)
        assert counts.tolist() == want_counts
        assert out_of_domain == len(values) - sum(want_counts)
        np.testing.assert_allclose(sums, [math.fsum(w) for w in want_weights], rtol=1e-12, atol=0)


class TestUncertaintyCurve:
    def test_identity_models_zero_everywhere(self, rng):
        model = random_model(rng, 40, 8)
        curve = uncertainty_curve(model, model, ["t0000", "t0017"])
        populated = curve.pair_counts > 0
        assert populated.any()
        assert np.all(curve.mean_abs_diff[populated] == 0.0)

    def test_hand_example(self):
        reference = hub_model({"b": 0.80, "c": 0.10}, model_id="M")
        other = hub_model({"b": 0.84, "c": 0.30}, model_id="P")
        config = HistogramConfig()
        curve = uncertainty_curve(reference, other, ["a"], config)
        bin_08, bin_01 = landing_rows(config, [0.80, 0.10])
        assert curve.pair_counts[bin_08] == 1
        assert curve.mean_abs_diff[bin_08] == pytest.approx(0.04, abs=1e-12)
        assert curve.pair_counts[bin_01] == 1
        assert curve.mean_abs_diff[bin_01] == pytest.approx(0.20, abs=1e-12)
        assert curve.pair_counts.sum() == 2

    def test_permuted_vocabulary_matches_reordered_copies(self, rng):
        reference = random_model(rng, 60, 5, "M")
        order = rng.permutation(60)
        order = order[order != reference.row("t0031")]
        noisy = reference.vectors[order] + 0.1 * rng.standard_normal((59, 5))
        other = EmbeddingModel.from_arrays([reference.vocabulary[i] for i in order], noisy, "P")
        shared = [t for t in reference.vocabulary if t != "t0031"]
        ref_copy = EmbeddingModel.from_arrays(shared, np.stack([reference.vector(t) for t in shared]), "M2")
        oth_copy = EmbeddingModel.from_arrays(shared, np.stack([other.vector(t) for t in shared]), "P2")
        config = HistogramConfig(bin_count=40)
        probes = ["t0000", "t0007", "t0059"]
        permuted = uncertainty_curve(reference, other, probes, config)
        aligned = uncertainty_curve(ref_copy, oth_copy, probes, config)
        np.testing.assert_array_equal(permuted.pair_counts, aligned.pair_counts)
        assert permuted.out_of_domain_count == aligned.out_of_domain_count
        assert permuted.pair_counts.sum() + permuted.out_of_domain_count == 3 * 58
        np.testing.assert_allclose(permuted.mean_abs_diff, aligned.mean_abs_diff, rtol=0, atol=1e-12)

    def test_probe_missing_from_other(self, rng):
        reference = hub_model({"b": 0.5, "c": 0.5})
        other = hub_model({"b": 0.5}, dim=3)
        with pytest.raises(KeyError, match="'c'.*missing"):
            uncertainty_curve(reference, other, ["c"])

    def test_empty_probes(self, rng):
        model = random_model(rng, 5, 3)
        with pytest.raises(ValueError, match="nonempty"):
            uncertainty_curve(model, model, [])

    def test_probe_permutation_invariance(self, rng):
        reference = random_model(rng, 30, 6, "M")
        other = random_model(rng, 30, 6, "P")
        probes = ["t0003", "t0011", "t0025", "t0007"]
        a = uncertainty_curve(reference, other, probes)
        b = uncertainty_curve(reference, other, list(reversed(probes)))
        np.testing.assert_array_equal(a.pair_counts, b.pair_counts)
        np.testing.assert_array_equal(
            np.nan_to_num(a.mean_abs_diff), np.nan_to_num(b.mean_abs_diff)
        )

    def test_pair_count_conservation(self, rng):
        reference = random_model(rng, 50, 4, "M")
        other = random_model(rng, 50, 4, "P")
        probes = ["t0001", "t0002", "t0003"]
        curve = uncertainty_curve(reference, other, probes)
        assert curve.pair_counts.sum() + curve.out_of_domain_count == len(probes) * 49

    def test_nonnegative_everywhere(self, rng):
        reference = random_model(rng, 30, 4, "M")
        other = random_model(rng, 30, 4, "P")
        curve = uncertainty_curve(reference, other, ["t0000"])
        populated = curve.pair_counts > 0
        assert np.all(curve.mean_abs_diff[populated] >= 0)

    def test_shared_vocabulary_only(self):
        reference = hub_model({"b": 0.5, "c": 0.4, "z": 0.3}, model_id="M")
        other = hub_model({"b": 0.6, "c": 0.2}, model_id="P", dim=4)
        curve = uncertainty_curve(reference, other, ["a"])
        # z is not shared, so only pairs (a,b) and (a,c) are tallied
        assert curve.pair_counts.sum() + curve.out_of_domain_count == 2

    def test_out_of_domain_counted_not_clamped(self):
        config = HistogramConfig(domain_low=0.5, domain_high=1.0, bin_count=10)
        reference = hub_model({"b": 0.9, "c": 0.2}, model_id="M")
        curve = uncertainty_curve(reference, reference, ["a"], config)
        assert curve.out_of_domain_count == 1
        assert curve.pair_counts.sum() == 1


class TestSimilarityHistogram:
    def test_two_token_model_single_tally(self):
        model = hub_model({"b": 0.3})
        hist = similarity_histogram(model, ["a"])
        assert hist.total == 1

    def test_total_counts(self, rng):
        model = random_model(rng, 25, 5)
        probes = ["t0000", "t0010"]
        hist = similarity_histogram(model, probes)
        assert hist.total == len(probes) * 24

    def test_known_sims(self):
        model = hub_model({"b": 0.9, "c": 0.9, "d": 0.3})
        config = HistogramConfig()
        hist = similarity_histogram(model, ["a"], config)
        bin_09, bin_03 = landing_rows(config, [0.9, 0.3])
        assert hist.counts[bin_09] == 2
        assert hist.counts[bin_03] == 1

    def test_unknown_probe(self):
        model = hub_model({"b": 0.3})
        with pytest.raises(KeyError):
            similarity_histogram(model, ["nope"])


class TestCsvRoundTrip:
    def test_uncertainty_round_trip(self, tmp_path, rng):
        reference = random_model(rng, 20, 4, "M")
        other = random_model(rng, 20, 4, "P")
        curve = uncertainty_curve(reference, other, ["t0001", "t0002"])
        path = tmp_path / "curve.csv"
        write_uncertainty_csv(curve, str(path))
        comments, rows = read_csv(str(path))
        np.testing.assert_array_equal([int(r["pair_count"]) for r in rows], curve.pair_counts)
        # an unpopulated bin's mean is an empty field; assert_array_equal matches NaN with NaN
        np.testing.assert_array_equal([float(r["mean_abs_diff"] or "nan") for r in rows], curve.mean_abs_diff)
        assert comments == [f"out_of_domain_pairs={curve.out_of_domain_count}"]
        header = path.read_text().splitlines()[1]
        assert header == "bin_low,bin_high,pair_count,mean_abs_diff"

    def test_histogram_round_trip(self, tmp_path, rng):
        model = random_model(rng, 20, 4)
        hist = similarity_histogram(model, ["t0003"])
        path = tmp_path / "hist.csv"
        write_histogram_csv(hist, str(path))
        comments, rows = read_csv(str(path))
        np.testing.assert_array_equal([int(r["count"]) for r in rows], hist.counts)
        assert comments == [f"out_of_domain_count={hist.out_of_domain_count}"]

    @pytest.mark.parametrize("low, high, bins", [(-0.3, 0.9, 7), (-1.0, 0.9, 40)])
    def test_last_edge_is_domain_high(self, tmp_path, rng, low, high, bins):
        config = HistogramConfig(low, high, bins)
        assert config.edges[-1] == high
        hist = similarity_histogram(random_model(rng, 20, 4), ["t0003"], config)
        path = tmp_path / "hist.csv"
        write_histogram_csv(hist, str(path))
        assert path.read_text().splitlines()[-1].split(",")[1] == repr(high)
        _, rows = read_csv(str(path))
        assert (float(rows[0]["bin_low"]), float(rows[-1]["bin_high"]), len(rows)) == (low, high, bins)
