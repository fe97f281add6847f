import numpy as np
import pytest

from simthresh.csvio import read_csv
from simthresh.embeddings import EmbeddingModel
from simthresh.uncertainty import (
    HistogramConfig,
    similarity_histogram,
    uncertainty_curve,
    write_histogram_csv,
    write_uncertainty_csv,
)

from conftest import hub_model, random_model


class TestHistogramConfig:
    def test_defaults(self):
        config = HistogramConfig()
        assert config.bin_count == 500
        assert config.bin_width == pytest.approx(0.0024)

    def test_validation(self):
        with pytest.raises(ValueError):
            HistogramConfig(domain_low=1.0, domain_high=-0.2)
        with pytest.raises(ValueError):
            HistogramConfig(bin_count=0)

    def test_bin_indices_cover_domain(self):
        config = HistogramConfig(domain_low=0.0, domain_high=1.0, bin_count=4)
        values = np.array([0.0, 0.24, 0.25, 0.5, 0.99, 1.0, -0.01, 1.01])
        np.testing.assert_array_equal(config.bin_indices(values), [0, 0, 1, 2, 3, 3, -1, -1])

    def test_top_edge_closed(self):
        config = HistogramConfig()
        assert config.bin_indices(np.array([1.0]))[0] == 499

    def test_one_ulp_below_top_edge_lands_in_last_bin(self):
        # cosine 0.9999999999999999 divides out to exactly bin_count.
        angle = 1.5e-8
        model = EmbeddingModel.from_arrays(["a", "b"], np.array([[1.0, 0.0], [np.cos(angle), np.sin(angle)]]))
        assert model.cosine("a", "b") == np.nextafter(1.0, 0.0)
        assert HistogramConfig().bin_indices(np.array([model.cosine("a", "b")]))[0] == 499
        hist = similarity_histogram(model, ["a"])
        assert hist.counts[499] == 1 and hist.total == 1
        curve = uncertainty_curve(model, model, ["a"])
        assert curve.pair_counts[499] == 1 and curve.mean_abs_diff[499] == 0.0


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
        bin_08 = int(config.bin_indices(np.array([0.80]))[0])
        bin_01 = int(config.bin_indices(np.array([0.10]))[0])
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
        bin_09 = int(config.bin_indices(np.array([0.9]))[0])
        bin_03 = int(config.bin_indices(np.array([0.3]))[0])
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
