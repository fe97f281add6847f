import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.special import ndtri

from simthresh.csvio import read_csv
from simthresh.embeddings import ModelEnsemble
from simthresh.neighbors import NeighborCurve, aggregate_curves, default_grid, expected_neighbors
from simthresh.threshold import (
    SynonymTarget,
    TargetUnreachableError,
    ThresholdResult,
    parse_synsets,
    solve_threshold,
    synonym_statistics,
    write_threshold_csv,
)

from conftest import dense_mixture, perturbed_replicas, random_model


def scan_crossing(values_fn, target, lo=-0.2, hi=1.0, step=1e-5):
    """Dense grid-scan oracle: first crossing on a 1e-5 lattice.

    A coarse pass brackets the crossing, then the fine lattice is scanned
    inside the bracket; for non-increasing curves the result is identical to
    scanning the full fine lattice.
    """
    coarse = np.arange(lo, hi + 1e-12, step * 200)
    v = values_fn(coarse)
    hits = np.flatnonzero((v[:-1] >= target) & (v[1:] <= target))
    if len(hits) == 0:
        raise AssertionError("oracle: no crossing")
    i = int(hits[0])
    n_fine = int(round((coarse[i + 1] - coarse[i]) / step))
    fine = np.linspace(coarse[i], coarse[i + 1], n_fine + 1)
    fv = values_fn(fine)
    hits = np.flatnonzero((fv[:-1] >= target) & (fv[1:] <= target))
    j = int(hits[0])
    return 0.5 * (fine[j] + fine[j + 1])


def banded_curve(grid, expected, low_scale=0.9, high_scale=1.1):
    return NeighborCurve(
        grid=np.asarray(grid, float),
        expected=np.asarray(expected, float),
        band_low=low_scale * np.asarray(expected, float),
        band_high=high_scale * np.asarray(expected, float),
        n_terms=2,
    )


class TestSolve:
    def test_closed_form_single_component(self):
        grid = default_grid()
        means, stds = np.array([0.7]), np.array([0.05])
        expected = 2.0 * dense_mixture(grid, means, stds)
        curve = NeighborCurve(
            grid=grid, expected=expected, band_low=expected, band_high=expected, n_terms=2
        )
        result = solve_threshold(curve, 1.6, dimensionality=100)
        analytic = 0.7 + 0.05 * float(ndtri(0.2))
        assert analytic == pytest.approx(0.65792, abs=1e-5)
        assert result.main == pytest.approx(analytic, abs=1e-3)
        assert result.lower == pytest.approx(result.main, abs=1e-9)
        assert result.upper == pytest.approx(result.main, abs=1e-9)
        assert result.dimensionality == 100

    def test_unreachable_target(self):
        grid = default_grid(points=25)
        expected = dense_mixture(grid, np.array([0.5]), np.array([0.05]))
        curve = NeighborCurve(grid=grid, expected=expected)
        with pytest.raises(TargetUnreachableError):
            solve_threshold(curve, 5.0)

    def test_nonpositive_target(self):
        grid = default_grid(points=25)
        curve = NeighborCurve(grid=grid, expected=dense_mixture(grid, np.array([0.5]), np.array([0.05])))
        with pytest.raises(TargetUnreachableError):
            solve_threshold(curve, 0.0)

    @pytest.mark.parametrize("target", [float("nan"), float("inf")])
    def test_nonfinite_target(self, target):
        grid = default_grid(points=25)
        curve = NeighborCurve(grid=grid, expected=dense_mixture(grid, np.array([0.5]), np.array([0.05])))
        with pytest.raises(TargetUnreachableError, match=f"positive and finite, got {target}$"):
            solve_threshold(curve, target)

    @pytest.mark.parametrize("label", ["expected", "band_high"])
    def test_curve_that_never_descends_to_the_target(self, label):
        grid, stays_above = np.array([0.0, 0.5, 1.0]), np.array([3.0, 2.5, 2.0])
        if label == "expected":
            curve = NeighborCurve(grid=grid, expected=stays_above)
        else:
            curve = NeighborCurve(grid=grid, expected=np.array([3.0, 2.0, 0.5]),
                                  band_low=np.array([3.0, 1.5, 0.0]), band_high=stays_above, n_terms=2)
        with pytest.raises(TargetUnreachableError, match=rf"^{label}: curve never descends to target 1.0 \(ends at 2\)$"):
            solve_threshold(curve, 1.0)

    def test_flat_crossing_solves_to_its_left_end(self):
        curve = NeighborCurve(grid=np.array([0.0, 0.5, 1.0]), expected=np.array([1.0, 1.0, 0.0]))
        result = solve_threshold(curve, 1.0)
        assert (result.main, result.lower, result.upper) == (0.0, 0.0, 0.0)

    def test_non_monotone_curve_rejected(self):
        curve = NeighborCurve(
            grid=np.array([0.0, 0.5, 1.0]), expected=np.array([1.0, 2.0, 0.0])
        )
        with pytest.raises(ValueError, match="non-increasing"):
            solve_threshold(curve, 1.5)

    def test_randomized_mixtures_match_grid_scan_oracle(self, rng):
        grid = default_grid()
        for _ in range(25):
            n = int(rng.integers(2, 51))
            means = rng.uniform(0.0, 0.95, size=n)
            stds = rng.uniform(1e-3, 0.2, size=n)
            expected = dense_mixture(grid, means, stds)
            curve = banded_curve(grid, expected)
            lo, hi = 0.05 * n, 0.8 * n
            target = float(rng.uniform(lo, hi))
            if not (curve.band_low[0] >= target and curve.band_high[-1] <= target):
                continue
            result = solve_threshold(curve, target)
            assert result.lower <= result.main <= result.upper
            oracle_main = scan_crossing(lambda s: dense_mixture(s, means, stds), target)
            oracle_low = scan_crossing(lambda s: 0.9 * dense_mixture(s, means, stds), target)
            oracle_high = scan_crossing(lambda s: 1.1 * dense_mixture(s, means, stds), target)
            assert result.main == pytest.approx(oracle_main, abs=2e-4)
            assert result.lower == pytest.approx(oracle_low, abs=2e-4)
            assert result.upper == pytest.approx(oracle_high, abs=2e-4)

    def test_scale_invariance(self):
        grid = default_grid(points=601)
        expected = dense_mixture(grid, np.array([0.4, 0.7]), np.array([0.05, 0.1]))
        curve = banded_curve(grid, expected)
        base = solve_threshold(curve, 1.0)
        for scale in (0.25, 3.0, 117.0):
            scaled = NeighborCurve(
                grid=grid,
                expected=scale * expected,
                band_low=scale * curve.band_low,
                band_high=scale * curve.band_high,
                n_terms=2,
            )
            result = solve_threshold(scaled, scale * 1.0)
            assert result.main == pytest.approx(base.main, abs=1e-9)
            assert result.lower == pytest.approx(base.lower, abs=1e-9)
            assert result.upper == pytest.approx(base.upper, abs=1e-9)

    def test_bounds_order_with_real_band(self):
        grid = default_grid(points=1201)
        expected = dense_mixture(grid, np.array([0.5, 0.75]), np.array([0.03, 0.06]))
        curve = banded_curve(grid, expected, 0.8, 1.2)
        result = solve_threshold(curve, 0.9)
        assert result.lower < result.main < result.upper

    def test_band_free_curve_degenerates(self):
        grid = default_grid(points=301)
        expected = dense_mixture(grid, np.array([0.5]), np.array([0.05]))
        result = solve_threshold(NeighborCurve(grid=grid, expected=expected), 0.5)
        assert result.lower == result.main == result.upper

    def test_result_invariant_enforced(self):
        with pytest.raises(ValueError, match="out of order"):
            ThresholdResult(dimensionality=100, main=0.5, lower=0.6, upper=0.7)


@st.composite
def ensembles(draw):
    """Noisy replicas of a random base model, as trained replicas disagree."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    base = random_model(rng, draw(st.integers(3, 15)), draw(st.integers(2, 8)))
    replicas = perturbed_replicas(base, rng, draw(st.integers(2, 5)), draw(st.floats(0.0, 0.2)))
    return ModelEnsemble(replicas, base.vocabulary[:3])


class TestNorthStarProperties:
    @settings(max_examples=40, deadline=None)
    @given(ensembles(), st.integers(2, 3))
    def test_curves_never_increase_and_band_orders_thresholds(self, ensemble, n_probes):
        grid = default_grid(low=-1.5, high=1.5, points=601)
        probes = ensemble.shared_vocabulary[:n_probes]
        curves = [expected_neighbors(ensemble, t, grid) for t in probes]
        pairs = len(ensemble.shared_vocabulary) - 1
        for curve in curves:
            # ndtr is monotone only up to a few ulps, hence the rounding-level slack
            assert np.all(np.diff(curve.expected) <= 1e-14 * pairs)
        agg = aggregate_curves(curves)
        start, end = agg.band_low[0], agg.band_high[-1]
        assume(start - end > 1e-3)
        result = solve_threshold(agg, (start + end) / 2)
        assert result.lower <= result.main <= result.upper


class TestSynonymStatistics:
    def test_two_synset_fixture(self):
        target = synonym_statistics([["a", "b", "c"], ["a", "d"]])
        assert target.mean_synonyms == pytest.approx(2.0, abs=1e-12)
        assert target.std_synonyms == pytest.approx(0.7071067811865476, abs=1e-9)
        assert target.term_count == 4

    def test_multiword_exclusion(self):
        target = synonym_statistics([["a", "big_cat"]])
        assert target.mean_synonyms == 0.0
        assert target.term_count == 1

    def test_multiword_excluded_as_synonym_too(self):
        target = synonym_statistics([["a", "b", "big_cat"]])
        assert target.mean_synonyms == pytest.approx(1.0)
        assert target.term_count == 2

    def test_case_insensitive_merge(self):
        target = synonym_statistics([["Dog", "canine"], ["dog", "hound"]])
        # dog shares synsets with canine and hound; counts: dog 2, canine 1, hound 1
        assert target.term_count == 3
        assert target.mean_synonyms == pytest.approx(4 / 3)

    def test_order_invariance(self):
        synsets = [["a", "b", "c"], ["a", "d"], ["e", "f"]]
        a = synonym_statistics(synsets)
        b = synonym_statistics([list(reversed(s)) for s in reversed(synsets)])
        assert a.mean_synonyms == b.mean_synonyms
        assert a.std_synonyms == b.std_synonyms
        assert a.term_count == b.term_count

    def test_file_parsing(self, tmp_path):
        path = tmp_path / "synsets.txt"
        path.write_text("# lexicon\na b c\na d\n\nbig_cat a\n")
        target = synonym_statistics(str(path))
        assert target.term_count == 4
        assert target.mean_synonyms == pytest.approx(2.0)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "synsets.txt"
        path.write_text("# nothing\n")
        with pytest.raises(ValueError, match="no synsets"):
            parse_synsets(str(path))

    def test_no_single_word_lemmas(self):
        with pytest.raises(ValueError, match="single-word"):
            synonym_statistics([["big_cat", "large_feline"]])

    @pytest.mark.parametrize("field", ["mean_synonyms", "std_synonyms"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf"), -1.0])
    def test_target_rejects_a_bad_statistic(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be nonnegative and finite, got {value:g}$"):
            SynonymTarget(**{"mean_synonyms": 1.6, field: value})

    def test_zero_mean_is_a_statistic_but_no_target(self):
        # lone lemmas have no synonyms: synonym-stats prints the zero mean, the solver refuses it
        target = synonym_statistics([["alpha"], ["beta"]])
        assert (target.mean_synonyms, target.std_synonyms, target.term_count) == (0.0, 0.0, 2)
        curve = NeighborCurve(grid=np.array([0.0, 1.0]), expected=np.array([2.0, 1.0]))
        with pytest.raises(TargetUnreachableError, match="^target must be positive and finite, got 0$"):
            solve_threshold(curve, target)


class TestThresholdCsv:
    def test_round_trip_with_reference_shape(self, tmp_path):
        # Format check using the documented reference values for trained
        # 100..400-dimensional replicas.
        rows = [
            ThresholdResult(100, 0.818, 0.802, 0.829),
            ThresholdResult(200, 0.756, 0.737, 0.767),
            ThresholdResult(300, 0.708, 0.692, 0.726),
            ThresholdResult(400, 0.675, 0.655, 0.693),
        ]
        path = tmp_path / "thresholds.csv"
        write_threshold_csv(rows, str(path))
        _, loaded = read_csv(str(path))
        assert [tuple(r.values()) for r in loaded] == [
            ("100", "0.802", "0.818", "0.829"),
            ("200", "0.737", "0.756", "0.767"),
            ("300", "0.692", "0.708", "0.726"),
            ("400", "0.655", "0.675", "0.693"),
        ]
        assert path.read_text().splitlines()[0] == "dimensionality,lower,main,upper"
