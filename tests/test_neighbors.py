import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.special import ndtr

from simthresh import cli, neighbors
from simthresh.embeddings import EmbeddingModel, ModelEnsemble
from simthresh.neighbors import (
    STD_FLOOR,
    aggregate_curves,
    default_grid,
    expected_neighbors,
    mixture_survival,
    pair_statistics,
    read_curve_csv,
    write_curve_csv,
    NeighborCurve,
)

from conftest import dense_mixture, pair_ensemble, pair_replicas, perturbed_replicas, random_model
from pair_oracle import fit_pair

SRC = Path(__file__).parent.parent / "src"


class TestFitPair:
    """The per-pair normal fit, from ``pair_statistics`` and from the per-pair oracle."""

    def test_zero_dispersion_hits_floor(self):
        dist = fit_pair(pair_replicas([0.7] * 5), "a", "b")
        assert dist.mean == pytest.approx(0.7, abs=1e-12)
        assert dist.std == STD_FLOOR
        assert dist.sample_count == 5
        means, stds = pair_statistics(pair_ensemble([0.7] * 5), "a")
        assert means[0] == pytest.approx(0.7, abs=1e-12)
        assert stds[0] == STD_FLOOR

    def test_two_sample_std(self):
        dist = fit_pair(pair_replicas([0.6, 0.8]), "a", "b")
        assert dist.mean == pytest.approx(0.7, abs=1e-12)
        assert dist.std == pytest.approx(0.1414, abs=1e-4)
        means, stds = pair_statistics(pair_ensemble([0.6, 0.8]), "b")
        assert means[0] == pytest.approx(0.7, abs=1e-12)
        assert stds[0] == pytest.approx(0.1414, abs=1e-4)

    def test_same_term_rejected(self):
        with pytest.raises(ValueError, match="distinct"):
            fit_pair(pair_replicas([0.6, 0.8]), "a", "a")

    def test_unknown_token(self):
        with pytest.raises(KeyError):
            fit_pair(pair_replicas([0.6, 0.8]), "a", "zzz")
        with pytest.raises(KeyError):
            pair_statistics(pair_ensemble([0.6, 0.8]), "zzz")

    def test_probe_alone_in_shared_vocabulary(self):
        # the replicas share only the probe, so it has no pair to fit
        replicas = [EmbeddingModel.from_arrays(["a", t], np.eye(2), f"r{t}") for t in ("b", "c")]
        with pytest.raises(ValueError, match="^shared vocabulary has no other terms$"):
            pair_statistics(ModelEnsemble(replicas, ["a"]), "a")

    def test_matches_streaming_statistics(self, rng):
        base = random_model(rng, 12, 6)
        replicas = perturbed_replicas(base, rng, 5, 0.02)
        ensemble = ModelEnsemble(iter(replicas), ["t0004"])
        means, stds = pair_statistics(ensemble, "t0004")
        others = [t for t in ensemble.shared_vocabulary if t != "t0004"]
        assert len(others) == len(means) == len(stds)
        for i, other in enumerate(others):
            dist = fit_pair(replicas, "t0004", other)
            assert means[i] == pytest.approx(dist.mean, abs=1e-12)
            assert stds[i] == pytest.approx(dist.std, rel=1e-7)


class TestExpectedNeighbors:
    def test_survival_at_the_mean(self):
        ensemble = pair_ensemble([0.69, 0.71])
        grid = np.array([-1.0, 0.0, 0.7, 1.0])
        curve = expected_neighbors(ensemble, "a", grid)
        assert curve.expected[2] == pytest.approx(0.5, abs=1e-9)
        assert curve.term == "a"

    def test_two_pair_mixture_value(self):
        # survival of N(0.8, 0.05) and N(0.6, 0.05) at 0.7: (1-Phi(-2)) + (1-Phi(2)) = 1
        value = mixture_survival(np.array([0.7]), np.array([0.8, 0.6]), np.array([0.05, 0.05]))
        assert value[0] == pytest.approx(1.0, abs=1e-6)

    def test_far_tail_vanishes(self, rng):
        base = random_model(rng, 10, 5)
        ensemble = ModelEnsemble(perturbed_replicas(base, rng, 4, 0.01), ["t0000"])
        means, stds = pair_statistics(ensemble, "t0000")
        far = float(means.max() + 10 * stds.max())
        value = mixture_survival(np.array([far]), means, stds)
        assert value[0] < 1e-9

    def test_non_increasing_and_left_limit(self, rng):
        base = random_model(rng, 30, 6)
        ensemble = ModelEnsemble(perturbed_replicas(base, rng, 5, 0.02), ["t0011"])
        grid = default_grid(low=-1.0, high=1.0, points=801)
        curve = expected_neighbors(ensemble, "t0011", grid)
        assert np.all(np.diff(curve.expected) <= 1e-12)
        assert curve.expected[0] == pytest.approx(29, abs=1e-6)

    def test_unknown_token(self, rng):
        ensembles = pair_ensemble([0.5, 0.6])
        with pytest.raises(KeyError):
            expected_neighbors(ensembles, "zzz", default_grid())

    def test_monte_carlo_mixture_consistency(self, rng):
        # Independent route: sample each pair's normal directly and count
        # survivors; agreement within 3 Monte Carlo standard errors.
        base = random_model(rng, 6, 4)
        ensemble = ModelEnsemble(perturbed_replicas(base, rng, 5, 0.05), ["t0002"])
        means, stds = pair_statistics(ensemble, "t0002")
        draws = 10**6
        for s in (0.2, 0.6, 0.9):
            analytic = mixture_survival(np.array([s]), means, stds)[0]
            survivals = np.empty(len(means))
            variances = np.empty(len(means))
            for i, (m, sd) in enumerate(zip(means, stds)):
                samples = rng.normal(m, sd, size=draws)
                p = float((samples > s).mean())
                survivals[i] = p
                variances[i] = p * (1 - p) / draws
            estimate = survivals.sum()
            se = float(np.sqrt(variances.sum()))
            assert abs(estimate - analytic) <= max(3 * se, 1e-9)

    def test_mixture_cdf_identity(self):
        # Summed survivals equal pair_count * (1 - mean mixture CDF).
        means = np.array([0.1, 0.4, 0.8])
        stds = np.array([0.03, 0.05, 0.01])
        grid = default_grid(points=241)
        direct = mixture_survival(grid, means, stds)
        mixture_cdf = np.mean([ndtr((grid - m) / s) for m, s in zip(means, stds)], axis=0)
        np.testing.assert_allclose(direct, len(means) * (1.0 - mixture_cdf), atol=1e-9)


class TestProbeCurves:
    """``threshold`` computes one curve per probe, in probe order, through
    ``neighbors.expected_neighbors``: the first probe that fails or is
    interrupted ends the command, and no later probe starts."""

    DATA = Path(__file__).parent / "data"
    TERMS = ["alpha", "beta", "gamma", "delta", "epsilon", "zeta"]  # the toy replicas' vocabulary

    def run_threshold(self, tmp_path, monkeypatch, behaviour) -> tuple[int, list[int]]:
        """``threshold`` on two toy replicas with six probes, each probe's curve
        replaced by ``behaviour(index)``: its exit status, and the probe
        indices that started, in the order they did."""
        started: list[int] = []

        def fake(ensemble, term, grid):
            started.append(self.TERMS.index(term))
            return behaviour(self.TERMS.index(term))

        monkeypatch.setattr(neighbors, "expected_neighbors", fake)
        probes = tmp_path / "probes.txt"
        probes.write_text("\n".join(self.TERMS) + "\n")
        rc = cli.main(["threshold", "--models", str(self.DATA / "toy_replica_0.vec"),
                       str(self.DATA / "toy_replica_1.vec"), "--probes", str(probes),
                       "--out", str(tmp_path / "t.csv")])
        assert not (tmp_path / "t.csv").exists()
        return rc, started

    @pytest.mark.parametrize("failing", [{0}, {1}, {0, 1}])
    def test_failure_raises_the_first_in_probe_order(self, tmp_path, monkeypatch, capsys, failing):
        def behaviour(i):
            if i in failing:
                raise ValueError(f"probe {i}")

        rc, started = self.run_threshold(tmp_path, monkeypatch, behaviour)
        first = min(failing)
        assert rc == 1
        assert capsys.readouterr().err == f"error: probe {first}\n"
        assert started == list(range(first + 1))  # no later probe starts after a failure

    @pytest.mark.skipif(not hasattr(signal, "pthread_kill"), reason="needs signal.pthread_kill")
    def test_interrupt_cancels_queued_probes(self, tmp_path, monkeypatch, capsys):
        # Ctrl-C reaches the main thread while it computes the first curve.
        def behaviour(i):
            signal.pthread_kill(threading.main_thread().ident, signal.SIGINT)
            time.sleep(10)  # cut short by the interrupt

        previous = signal.signal(signal.SIGINT, signal.default_int_handler)
        try:
            rc, started = self.run_threshold(tmp_path, monkeypatch, behaviour)
        finally:
            signal.signal(signal.SIGINT, previous)
        assert rc == 130
        assert capsys.readouterr().err == "error: interrupted\n"
        assert started == [0]


@st.composite
def mixtures(draw):
    n = draw(st.integers(0, 300))
    means = draw(hnp.arrays(np.float64, n, elements=st.floats(-1.0, 1.0)))
    stds = draw(hnp.arrays(np.float64, n, elements=st.floats(STD_FLOOR, 0.5)))
    if draw(st.booleans()):
        grid = np.linspace(draw(st.floats(-1.5, 0.0)), draw(st.floats(0.1, 1.5)), draw(st.integers(1, 60)))
    else:
        grid = draw(hnp.arrays(np.float64, st.integers(1, 60), elements=st.floats(-1.5, 1.5)))
    # grid points exactly on some pairs' window edges m -/+ 8.5 s
    on_edge = draw(st.lists(st.integers(0, n - 1), max_size=8)) if n else []
    grid = np.concatenate([grid, means[on_edge] - 8.5 * stds[on_edge], means[on_edge] + 8.5 * stds[on_edge]])
    return np.sort(grid), means, stds


class TestWindowedKernel:
    @settings(max_examples=150, deadline=None)
    @given(mixtures())
    def test_matches_dense_reference(self, case):
        grid, means, stds = case
        np.testing.assert_allclose(mixture_survival(grid, means, stds), dense_mixture(grid, means, stds),
                                   rtol=1e-12, atol=1e-12 * len(means))

    def test_many_blocks_on_default_grid(self, rng):
        means, stds = rng.uniform(-1, 1, 1000), rng.uniform(STD_FLOOR, 0.1, 1000)
        grid = default_grid()
        np.testing.assert_allclose(mixture_survival(grid, means, stds), dense_mixture(grid, means, stds),
                                   rtol=1e-12, atol=1e-12 * len(means))

    def test_survival_saturates_exactly_beyond_window(self):
        # The kernel adds exactly 1 below a pair's window and nothing above
        # it; that is only the dense sum if 1 - ndtr(z) is exactly 1 or 0 there.
        z = np.linspace(8.5, 40.0, 1_000_001)
        assert np.all(1.0 - ndtr(z) == 0.0)
        assert np.all(1.0 - ndtr(-z) == 1.0)

    def test_non_ascending_grid_rejected(self):
        with pytest.raises(ValueError, match="grid must be ascending"):
            mixture_survival(np.array([0.5, 0.2]), np.array([0.3]), np.array([0.1]))


class TestKernelWorkers:
    """``mixture_survival`` spreads its blocks over worker threads; the bytes
    do not depend on how many, and no thread outlives a call."""

    WORKERS = (1, 2, 3, 4)

    @staticmethod
    def survival_with(workers: int, grid, means, stds) -> np.ndarray:
        with mock.patch.object(neighbors, "_worker_count", lambda tasks: workers):
            return mixture_survival(grid, means, stds)

    @settings(max_examples=100, deadline=None)
    @given(mixtures())
    @example((np.linspace(-0.5, 1.0, 7), np.empty(0), np.empty(0)))  # no pairs: more workers than blocks
    def test_same_bytes_for_any_worker_count(self, case):
        # at most 300 pairs: 3 blocks, so 4 workers always outnumber them
        results = [self.survival_with(w, *case).tobytes() for w in self.WORKERS]
        assert results == [mixture_survival(*case).tobytes()] * len(self.WORKERS)

    def test_many_blocks_for_any_worker_count(self, rng):
        means, stds = rng.uniform(-1, 1, 2000), rng.uniform(STD_FLOOR, 0.1, 2000)
        grid = default_grid()
        want = self.survival_with(1, grid, means, stds).tobytes()
        assert all(self.survival_with(w, grid, means, stds).tobytes() == want for w in self.WORKERS[1:])

    def test_blocks_run_off_the_calling_thread(self, rng, monkeypatch):
        import scipy.special  # the kernel imports ndtr from here on each call

        threads, ndtr_of = set(), scipy.special.ndtr

        def recorded(*args, **kwargs):
            threads.add(threading.get_ident())
            return ndtr_of(*args, **kwargs)

        monkeypatch.setattr(scipy.special, "ndtr", recorded)
        means, stds = rng.uniform(-1, 1, 1000), rng.uniform(0.01, 0.1, 1000)
        self.survival_with(3, default_grid(points=601), means, stds)
        assert threads and threading.get_ident() not in threads  # a pool thread may take more than one block

    @pytest.mark.skipif(not hasattr(signal, "pthread_kill"), reason="needs signal.pthread_kill")
    def test_interrupt_cancels_queued_blocks(self, rng, monkeypatch):
        import scipy.special  # the kernel imports ndtr from here on each call

        workers, evaluated, ndtr_of = 3, [], scipy.special.ndtr
        first, interrupted = threading.Lock(), threading.Event()

        def on_sigint(signum, frame):
            interrupted.set()
            raise KeyboardInterrupt

        def slow(*args, **kwargs):
            evaluated.append(threading.get_ident())
            if first.acquire(blocking=False):
                time.sleep(0.1)  # lets the main thread queue every block and wait for the first
                signal.pthread_kill(threading.main_thread().ident, signal.SIGINT)
            assert interrupted.wait(10)
            # keeps every worker busy until the queued blocks are cancelled, also when the main thread stalls
            # first, as in a gen-2 collection of the whole suite's heap (up to 0.19 s measured)
            time.sleep(1.0)
            return ndtr_of(*args, **kwargs)

        monkeypatch.setattr(scipy.special, "ndtr", slow)
        means, stds = rng.uniform(-1, 1, 40 * 128), rng.uniform(0.01, 0.1, 40 * 128)  # 40 blocks
        before, previous = threading.active_count(), signal.signal(signal.SIGINT, on_sigint)
        try:
            with pytest.raises(KeyboardInterrupt):
                self.survival_with(workers, default_grid(points=301), means, stds)
        finally:
            signal.signal(signal.SIGINT, previous)
        assert 1 <= len(evaluated) <= workers
        assert threading.active_count() == before

    @pytest.mark.parametrize("workers", WORKERS)
    def test_no_thread_outlives_a_call(self, rng, workers):
        # a fork after the call (load_reduced for the next ensemble) must not copy running threads
        before = threading.active_count()
        self.survival_with(workers, default_grid(points=301), rng.uniform(-1, 1, 700), rng.uniform(0.01, 0.1, 700))
        assert threading.active_count() == before

    def test_clean_under_dev_mode_and_warnings_as_errors(self):
        code = (
            "import threading, numpy as np\n"
            "from unittest import mock\n"
            "from simthresh import neighbors\n"
            "rng = np.random.default_rng(1)\n"
            "means, stds = rng.uniform(-1, 1, 700), rng.uniform(0.01, 0.1, 700)\n"
            "grid = neighbors.default_grid(points=301)\n"
            "want = neighbors.mixture_survival(grid, means, stds).tobytes()\n"
            "for w in (1, 2, 3, 4):\n"
            "    with mock.patch.object(neighbors, '_worker_count', lambda tasks: w):\n"
            "        assert neighbors.mixture_survival(grid, means, stds).tobytes() == want\n"
            "assert threading.active_count() == 1\n"
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run([sys.executable, "-X", "dev", "-W", "error", "-c", code],
                              env=env, capture_output=True, text=True, timeout=120)
        assert (proc.returncode, proc.stderr) == (0, "")


class TestAggregation:
    def _curves(self, values: list[list[float]]) -> list[NeighborCurve]:
        grid = np.array([0.0, 0.5, 1.0])
        return [NeighborCurve(grid=grid, expected=np.asarray(v, float), term=f"t{i}")
                for i, v in enumerate(values)]

    def test_identical_curves_degenerate_band(self):
        curves = self._curves([[3.0, 2.0, 1.0], [3.0, 2.0, 1.0]])
        agg = aggregate_curves(curves)
        np.testing.assert_array_equal(agg.band_low, agg.expected)
        np.testing.assert_array_equal(agg.band_high, agg.expected)
        assert agg.n_terms == 2

    def test_hand_band(self):
        curves = self._curves([[5.0, 1.0, 0.0], [5.0, 3.0, 0.0]])
        agg = aggregate_curves(curves, confidence=0.95)
        assert agg.expected[1] == pytest.approx(2.0)
        half = 1.959964 * np.sqrt(2.0) / np.sqrt(2)
        assert agg.band_high[1] == pytest.approx(2.0 + half, abs=1e-4)
        assert agg.band_low[1] == pytest.approx(2.0 - half, abs=1e-4)

    def test_band_low_floored(self):
        curves = self._curves([[1.0, 0.1, 0.0], [1.0, 3.0, 0.0]])
        agg = aggregate_curves(curves)
        assert np.all(agg.band_low >= 0.0)

    def test_single_curve_rejected(self):
        with pytest.raises(ValueError, match="at least 2"):
            aggregate_curves(self._curves([[1.0, 0.5, 0.2]]))

    @pytest.mark.parametrize("confidence, message", [
        (0.0, r"^confidence must be in \(0, 1\)$"),
        (1.0, r"^confidence must be in \(0, 1\)$"),
        (-0.5, r"^confidence must be in \(0, 1\)$"),
        (np.nan, r"^confidence must be in \(0, 1\)$"),
        # just below 1, 0.5 + c / 2 rounds to 1, whose normal quantile is infinite
        (0.9999999999999999, r"^confidence 0\.9999999999999999: 0\.5 \+ confidence / 2 rounds to 1, "),
    ])
    def test_confidence_rule(self, confidence, message):
        with pytest.raises(ValueError, match=message):
            aggregate_curves(self._curves([[3.0, 2.0, 1.0], [4.0, 2.0, 1.0]]), confidence=confidence)

    def test_largest_confidence_gives_a_finite_band(self):
        agg = aggregate_curves(self._curves([[3.0, 2.0, 1.0], [4.0, 2.0, 1.0]]), confidence=0.9999999999999998)
        assert np.isfinite(agg.band_high).all() and agg.band_high[0] > 4.0

    def test_grid_mismatch(self):
        a = NeighborCurve(grid=np.array([0.0, 1.0]), expected=np.array([1.0, 0.0]))
        b = NeighborCurve(grid=np.array([0.0, 2.0]), expected=np.array([1.0, 0.0]))
        with pytest.raises(ValueError, match="identical grid"):
            aggregate_curves([a, b])

    def test_permutation_invariance(self):
        curves = self._curves([[5.0, 1.0, 0.0], [4.0, 3.0, 0.5], [2.0, 1.5, 0.1]])
        a = aggregate_curves(curves)
        b = aggregate_curves(list(reversed(curves)))
        np.testing.assert_array_equal(a.expected, b.expected)
        np.testing.assert_allclose(a.band_low, b.band_low, atol=1e-15)
        np.testing.assert_allclose(a.band_high, b.band_high, atol=1e-15)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(2, 8).flatmap(lambda n: st.lists(
        hnp.arrays(np.float64, n, elements=st.floats(0.0, 1e6)).map(lambda a: np.sort(a)[::-1]),
        min_size=2, max_size=6)))
    def test_aggregated_band_holds_the_mean_exactly(self, values):
        # the CLI's curves come from here, so the band rule can never reject one it builds
        grid = np.linspace(0.0, 1.0, len(values[0]))
        agg = aggregate_curves([NeighborCurve(grid=grid, expected=v, term=f"t{i}") for i, v in enumerate(values)])
        assert np.all(agg.band_low <= agg.expected) and np.all(agg.expected <= agg.band_high)

    def test_band_ordering(self, rng):
        values = rng.uniform(0, 5, size=(4, 3))
        values.sort(axis=1)
        curves = self._curves([list(v)[::-1] for v in values])
        agg = aggregate_curves(curves)
        assert np.all(agg.band_low <= agg.expected + 1e-12)
        assert np.all(agg.expected <= agg.band_high + 1e-12)


class TestCurveCsv:
    def test_per_term_round_trip(self, tmp_path):
        grid = np.array([0.0, 0.5, 1.0])
        curve = NeighborCurve(grid=grid, expected=np.array([2.0, 1.0, 0.5]), term="book")
        path = tmp_path / "curve.csv"
        write_curve_csv(curve, str(path))
        loaded = read_curve_csv(str(path))
        assert loaded.term == "book"
        assert loaded.band_low is None
        np.testing.assert_array_equal(loaded.grid, curve.grid)
        np.testing.assert_array_equal(loaded.expected, curve.expected)

    def test_aggregated_round_trip(self, tmp_path):
        grid = np.array([0.0, 0.5, 1.0])
        curves = [
            NeighborCurve(grid=grid, expected=np.array([2.0, 1.0, 0.5]), term="x"),
            NeighborCurve(grid=grid, expected=np.array([3.0, 1.5, 0.0]), term="y"),
        ]
        agg = aggregate_curves(curves)
        path = tmp_path / "agg.csv"
        write_curve_csv(agg, str(path))
        loaded = read_curve_csv(str(path))
        assert loaded.n_terms == 2
        np.testing.assert_array_equal(loaded.expected, agg.expected)
        np.testing.assert_array_equal(loaded.band_low, agg.band_low)
        np.testing.assert_array_equal(loaded.band_high, agg.band_high)

    def test_header_present(self, tmp_path):
        curve = NeighborCurve(grid=np.array([0.0, 1.0]), expected=np.array([1.0, 0.0]), term="t")
        path = tmp_path / "c.csv"
        write_curve_csv(curve, str(path))
        lines = path.read_text().splitlines()
        assert lines[1] == "grid_s,expected,band_low,band_high"

    def test_bad_number_names_file_and_row(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text("# source term=t\ngrid_s,expected,band_low,band_high\n0.0,1.0,,\n1.0,abc,,\n")
        with pytest.raises(ValueError) as excinfo:
            read_curve_csv(str(path))
        assert str(excinfo.value) == f"{path}: data row 2: could not convert string to float: 'abc'"

    def test_missing_column_names_file_and_row(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text("# source term=t\ngrid_s,expected,band_high\n0.0,1.0,\n1.0,0.0,\n")
        with pytest.raises(ValueError) as excinfo:
            read_curve_csv(str(path))
        assert str(excinfo.value) == f"{path}: data row 1: no column 'band_low'"

    def test_bad_term_count_names_file_and_comment(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text("# source n_terms=x\ngrid_s,expected,band_low,band_high\n0.0,1.0,0.5,1.5\n1.0,0.0,0.0,0.0\n")
        with pytest.raises(ValueError) as excinfo:
            read_curve_csv(str(path))
        assert str(excinfo.value) == f"{path}: comment '# source n_terms=x': invalid literal for int() with base 10: 'x'"

    @pytest.mark.parametrize(
        "rows, message",
        [
            ("0.0,2.0,,\n1.0,,,\n", "data row 2: empty expected"),
            ("0.0,2.0,,\n,1.0,,\n", "data row 2: empty grid_s"),
            ("0.0,2.0,1.5,2.5\n1.0,1.0,,1.5\n", "data row 2: empty band_low"),
            ("0.0,2.0,,\n1.0,1.0,0.5,1.5\n", "data row 2: a band value, but data row 1 has no band"),
            ("1.0,2.0,,\n0.0,1.0,,\n", "grid must be strictly increasing"),
            ("0.0,2.0,,\nnan,1.0,,\n", "grid must be strictly increasing"),
            ("0.0,2.0,,\ninf,1.0,,\n", "grid, expected and band values must be finite"),
            ("0.0,nan,,\n0.5,1.0,,\n1.0,0.0,,\n", "grid, expected and band values must be finite"),
            ("0.0,2.0,,\n1.0,inf,,\n", "grid, expected and band values must be finite"),
            ("0.0,2.0,nan,2.5\n1.0,1.0,0.5,1.5\n", "grid, expected and band values must be finite"),
            ("0.0,2.0,1.5,2.5\n1.0,1.0,-inf,1.5\n", "grid, expected and band values must be finite"),
            ("0.0,2.0,1.5,2.5\n1.0,1.0,0.5,nan\n", "grid, expected and band values must be finite"),
            ("0.0,2.0,1.5,inf\n1.0,1.0,0.5,1.5\n", "grid, expected and band values must be finite"),
            ("0.0,2.0,2.5,1.5\n1.0,1.0,0.5,1.5\n", "band must hold band_low <= expected <= band_high"),
            ("", "no grid points found"),
        ],
        ids=["empty-expected", "empty-grid", "band-with-a-hole", "band-on-a-later-row", "grid-not-increasing",
             "grid-nan", "grid-inf", "expected-nan", "expected-inf", "band_low-nan", "band_low-minus-inf",
             "band_high-nan", "band_high-inf", "band-inverted", "header-only"],
    )
    def test_malformed_curve_names_file_and_row(self, tmp_path, rows, message):
        path = tmp_path / "c.csv"
        path.write_text("# source n_terms=2\ngrid_s,expected,band_low,band_high\n" + rows)
        with pytest.raises(ValueError) as excinfo:
            read_curve_csv(str(path))
        assert str(excinfo.value) == f"{path}: {message}"


class TestGrid:
    def test_default_grid_shape(self):
        grid = default_grid()
        assert len(grid) == 2401
        assert grid[0] == pytest.approx(-0.2)
        assert grid[-1] == pytest.approx(1.0)
        assert grid[1] - grid[0] == pytest.approx(5e-4)

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            default_grid(points=1)
        with pytest.raises(ValueError):
            NeighborCurve(grid=np.array([0.0, 0.0]), expected=np.array([1.0, 1.0]))

    def test_nan_grid_rejected(self):
        # Every comparison with NaN is false, so only a check that each step is > 0 catches it.
        with pytest.raises(ValueError, match="strictly increasing"):
            NeighborCurve(grid=np.array([0.0, np.nan, 1.0]), expected=np.array([2.0, 1.0, 0.0]))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("field", ["grid", "expected", "band_low", "band_high"])
    def test_non_finite_value_rejected(self, field, value):
        # each field's first value: a NaN or +inf first grid point already breaks the increasing rule
        values = {"grid": [0.0, 0.5, 1.0], "expected": [2.0, 1.0, 0.0],
                  "band_low": [1.5, 0.5, 0.0], "band_high": [2.5, 1.5, 0.5]}
        values[field][0] = value
        message = "must be finite" if field != "grid" or value == -np.inf else "strictly increasing"
        with pytest.raises(ValueError, match=message):
            NeighborCurve(**{name: np.array(v) for name, v in values.items()})

    @pytest.mark.parametrize("expected", [[2.0, 1.0], [2.0, 1.0, 0.5, 0.0]], ids=["short", "long"])
    def test_expected_one_value_per_grid_point(self, expected):
        with pytest.raises(ValueError, match="grid and expected lengths differ"):
            NeighborCurve(np.array([0.0, 0.5, 1.0]), np.array(expected))

    @pytest.mark.parametrize("band, message", [
        (dict(band_low=[1.5, 0.5, 0.0]), "a band needs both band_low and band_high"),
        (dict(band_high=[2.5, 1.5, 0.5]), "a band needs both band_low and band_high"),
        (dict(band_low=[1.5, 0.5], band_high=[2.5, 1.5]), "band and grid lengths differ"),
        (dict(band_low=[1.5, 0.5, 0.0], band_high=[2.5, 1.5]), "band and grid lengths differ"),
        (dict(band_low=[2.5, 1.5, 0.5], band_high=[1.5, 0.5, 0.0]), "band must hold band_low <= expected"),
        (dict(band_low=[1.5, 1.0 + 1e-15, 0.0], band_high=[2.5, 1.5, 0.5]), "band must hold band_low <= expected"),
        (dict(band_low=[1.5, 0.5, 0.0], band_high=[2.5, 1.5, -1e-300]), "band must hold band_low <= expected"),
    ], ids=["low-only", "high-only", "short-band", "short-high", "inverted", "low-above-by-a-hair",
            "high-below-by-a-hair"])
    def test_band_rules(self, band, message):
        # without these a short band writes a short file, and a one-sided or inverted band solves silently
        with pytest.raises(ValueError, match=message):
            NeighborCurve(np.array([0.0, 0.5, 1.0]), np.array([2.0, 1.0, 0.0]),
                          **{name: np.array(v) for name, v in band.items()})
