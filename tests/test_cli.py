import json
import multiprocessing
import os
import random
import re
import shlex
import signal
import struct
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from simthresh import retrieval
from simthresh.cli import COMMANDS, OPTIONS, build_parser, main, read_config, resolve
from simthresh.csvio import read_csv
from simthresh.embeddings import EmbeddingModel, load_model
from simthresh.neighbors import read_curve_csv
from simthresh.retrieval import (ExpansionPolicy, LmConfig, build_index, lm_score, load_index, read_corpus, read_run,
                                 read_topics, tlm_score, write_run)
from simthresh.textproc import Pipeline, default_stopwords, load_stopwords
from simthresh.threshold import solve_threshold
from simthresh.uncertainty import HistogramConfig

from conftest import hub_model, word2vec_bytes

DATA = Path(__file__).parent / "data"
SRC = Path(__file__).parent.parent / "src"
REPLICAS = [str(DATA / f"toy_replica_{r}.vec") for r in range(5)]
PROBES = str(DATA / "toy_probes.txt")


def write_pair_replicas(tmp_path, sims):
    """Two-token replica files with prescribed pair similarities."""
    paths = []
    for r, s in enumerate(sims):
        vectors = np.array([[1.0, 0.0], [s, np.sqrt(1 - s * s)]])
        model = EmbeddingModel.from_arrays(["a", "b"], vectors, model_id=f"r{r}")
        path = tmp_path / f"pair_{r}.vec"
        path.write_bytes(word2vec_bytes(model))
        paths.append(str(path))
    return paths


class TestUncertaintyCommand:
    def test_golden_curve_bytes(self, tmp_path):
        curve_out = tmp_path / "curve.csv"
        hist_out = tmp_path / "hist.csv"
        rc = main([
            "uncertainty", "--reference", REPLICAS[0], "--other", REPLICAS[1],
            "--probes", PROBES, "--curve-out", str(curve_out),
            "--histogram-out", str(hist_out),
        ])
        assert rc == 0
        assert curve_out.read_bytes() == (DATA / "golden_uncertainty.csv").read_bytes()
        assert hist_out.read_bytes() == (DATA / "golden_histogram.csv").read_bytes()

    def test_identical_models_zero_curve(self, tmp_path):
        out, copy = tmp_path / "curve.csv", tmp_path / "copy.vec"
        copy.write_bytes(Path(REPLICAS[2]).read_bytes())  # a byte copy: the one file given twice is rejected
        rc = main([
            "uncertainty", "--reference", REPLICAS[2], "--other", str(copy),
            "--probes", PROBES, "--curve-out", str(out),
        ])
        assert rc == 0
        _, rows = read_csv(str(out))
        populated = [r for r in rows if int(r["pair_count"]) > 0]
        assert populated
        assert all(float(r["mean_abs_diff"]) == 0.0 for r in populated)

    def test_missing_probe_file(self, tmp_path, capsys):
        rc = main([
            "uncertainty", "--reference", REPLICAS[0], "--other", REPLICAS[1],
            "--probes", str(tmp_path / "nope.txt"), "--curve-out", str(tmp_path / "c.csv"),
        ])
        assert rc == 1
        assert "error" in capsys.readouterr().err

    def test_bad_probes_file_reported_before_missing_model(self, tmp_path, capsys):
        probes = tmp_path / "probes.txt"
        probes.write_text("# no terms\n")
        rc = main(["uncertainty", "--reference", str(tmp_path / "missing.vec"), "--other", REPLICAS[1],
                   "--probes", str(probes), "--curve-out", str(tmp_path / "c.csv")])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {probes}: no terms found\n"

    def test_config_file_with_flag_override(self, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text(
            f"reference = {REPLICAS[0]}\nother = {REPLICAS[1]}\n"
            f"probes = {PROBES}\nbins = 10\n"
        )
        out_cfg = tmp_path / "c10.csv"
        assert main(["uncertainty", "--config", str(config), "--curve-out", str(out_cfg)]) == 0
        assert len(read_csv(str(out_cfg))[1]) == 10
        out_flag = tmp_path / "c20.csv"
        rc = main([
            "uncertainty", "--config", str(config), "--bins", "20",
            "--curve-out", str(out_flag),
        ])
        assert rc == 0
        assert len(read_csv(str(out_flag))[1]) == 20

    def test_golden_readable_by_repo_readers(self):
        assert len(read_csv(str(DATA / "golden_uncertainty.csv"))[1]) == 500
        comments, rows = read_csv(str(DATA / "golden_histogram.csv"))
        assert comments == ["out_of_domain_count=1"]
        assert sum(int(r["count"]) for r in rows) + 1 == 2 * 5


class TestHistogramAndNeighbors:
    def test_histogram_command(self, tmp_path):
        out = tmp_path / "hist.csv"
        rc = main(["histogram", "--model", REPLICAS[0], "--probes", PROBES, "--out", str(out)])
        assert rc == 0
        comments, rows = read_csv(str(out))
        assert comments == ["out_of_domain_count=1"]
        assert sum(int(r["count"]) for r in rows) + 1 == 10

    def test_histogram_counts_each_printed_edge_in_its_own_row(self, tmp_path):
        # the hub's similarity to token i is exactly the default axis's edge i
        edges = HistogramConfig().edges
        model, probes, out = tmp_path / "edges.vec", tmp_path / "probes.txt", tmp_path / "hist.csv"
        model.write_bytes(word2vec_bytes(hub_model({f"e{i:03d}": float(e) for i, e in enumerate(edges)})))
        probes.write_text("a\n")
        assert main(["histogram", "--model", str(model), "--probes", str(probes), "--out", str(out)]) == 0
        comments, rows = read_csv(str(out))
        assert comments == ["out_of_domain_count=0"]
        assert [float(r["bin_low"]) for r in rows] == list(edges[:-1])
        assert [int(r["count"]) for r in rows] == [1] * 499 + [2]  # the last row also holds the top edge

    def test_neighbors_threshold_listing(self, capsys):
        rc = main(["neighbors", "--model", REPLICAS[0], "--term", "alpha", "--threshold", "-1.0"])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "token,similarity"
        assert len(lines) == 6  # header + 5 other tokens

    def test_neighbors_knn_to_file(self, tmp_path):
        out = tmp_path / "nn.csv"
        rc = main(["neighbors", "--model", REPLICAS[0], "--term", "beta", "--k", "2",
                   "--out", str(out)])
        assert rc == 0
        assert len(out.read_text().strip().splitlines()) == 3

    def test_neighbors_tokens_that_need_quoting_read_back(self, tmp_path, capsys):
        # bare, 'a,b' read as three fields, and '#tag' as a comment whose row was lost
        tokens = ["probe", "a,b", 'say"hi', "#tag"]
        vectors = np.array([[1.0, 0, 0, 0], [0.9, np.sqrt(1 - 0.81), 0, 0], [0.8, 0, 0.6, 0], [0.6, 0, 0, 0.8]])
        model = tmp_path / "m.vec"
        model.write_bytes(word2vec_bytes(EmbeddingModel.from_arrays(tokens, vectors, "m")))
        out = tmp_path / "n.csv"
        capsys.readouterr()
        assert main(["neighbors", "--model", str(model), "--term", "probe", "--k", "3", "--out", str(out)]) == 0
        assert main(["neighbors", "--model", str(model), "--term", "probe", "--threshold", "-1"]) == 0
        assert capsys.readouterr().out == out.read_text()
        expected = load_model(str(model)).knn("probe", 3)
        assert [t for t, _ in expected] == ["a,b", 'say"hi', "#tag"]
        assert [(r["token"], float(r["similarity"])) for r in read_csv(str(out))[1]] == expected

    def test_neighbors_flag_exclusivity(self, capsys):
        rc = main(["neighbors", "--model", REPLICAS[0], "--term", "beta",
                   "--threshold", "0.5", "--k", "2"])
        assert rc == 1
        assert "exactly one" in capsys.readouterr().err

    @pytest.mark.parametrize("flags, message", [
        (["--k", "0"], "knn mode needs k >= 1"),
        (["--threshold", "0.5", "--k", "2"], "pass exactly one of --threshold or --k"),
        ([], "pass exactly one of --threshold or --k"),
        (["--threshold", "nan"], "threshold must be a number, got nan"),
    ])
    def test_neighbors_settings_checked_before_the_model(self, tmp_path, capsys, flags, message):
        rc = main(["neighbors", "--model", str(tmp_path / "missing.vec"), "--term", "alpha", *flags])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_a_closed_standard_output_ends_the_command_quietly(self):
        # a reader that stops early (say, ``| head``) closes the pipe: exit 1 and nothing on stderr
        read, write = os.pipe()
        os.close(read)
        # buffered, as in a shell: the three lines reach the pipe only when standard output is flushed
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])
        try:
            proc = subprocess.run([sys.executable, "-m", "simthresh.cli", "neighbors", "--model", REPLICAS[0],
                                   "--term", "alpha", "--k", "3"], env=env, stdout=write, stderr=subprocess.PIPE,
                                  text=True, timeout=120)
        finally:
            os.close(write)
        assert (proc.returncode, proc.stderr) == (1, "")

    @pytest.mark.parametrize("command, flags, message", [
        ("uncertainty", ["--bins", "0"], "bin_count must be positive"),
        ("uncertainty", ["--domain-low", "1", "--domain-high", "0.5"],
         "domain needs finite ends with domain_low < domain_high, got 1.0 and 0.5"),
        ("histogram", ["--bins", "0"], "bin_count must be positive"),
        ("threshold", ["--confidence", "5"], "confidence must be in (0, 1)"),
        ("threshold", ["--confidence", "0"], "confidence must be in (0, 1)"),
        ("threshold", ["--grid-points", "1"], "grid needs at least 2 points"),
        ("histogram", ["--domain-high", "inf"],
         "domain needs finite ends with domain_low < domain_high, got -0.2 and inf"),
        ("uncertainty", ["--domain-low", "nan"],
         "domain needs finite ends with domain_low < domain_high, got nan and 1.0"),
        ("threshold", ["--grid-low", "1", "--grid-high", "-0.2"],
         "grid needs finite ends with grid_low < grid_high, got 1.0 and -0.2"),
        ("threshold", ["--grid-low", "0.5", "--grid-high", "0.5"],
         "grid needs finite ends with grid_low < grid_high, got 0.5 and 0.5"),
        ("threshold", ["--grid-high", "inf"], "grid needs finite ends with grid_low < grid_high, got -0.2 and inf"),
        ("threshold", ["--confidence", "0.9999999999999999"],
         "confidence 0.9999999999999999: 0.5 + confidence / 2 rounds to 1, whose quantile is infinite"),
    ])
    @pytest.mark.filterwarnings("error")  # a bad axis must not reach numpy, which warns before it fails
    def test_settings_checked_before_the_replicas(self, tmp_path, capsys, command, flags, message):
        missing, out = [str(tmp_path / f"missing_{r}.vec") for r in range(2)], str(tmp_path / "out.csv")
        models = {"uncertainty": ["--reference", missing[0], "--other", missing[1], "--curve-out", out],
                  "histogram": ["--model", missing[0], "--out", out],
                  "threshold": ["--models", *missing, "--out", out]}[command]
        rc = main([command, *models, "--probes", PROBES, *flags])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "out.csv").exists()


class TestThresholdCommand:
    def test_toy_ensemble_report(self, tmp_path):
        out = tmp_path / "thresholds.csv"
        curve_out = tmp_path / "curve.csv"
        rc = main([
            "threshold", "--models", *REPLICAS, "--probes", PROBES,
            "--target", "2.5", "--out", str(out), "--curve-out", str(curve_out),
        ])
        assert rc == 0
        _, rows = read_csv(str(out))
        assert len(rows) == 1
        assert rows[0]["dimensionality"] == "4"
        assert float(rows[0]["lower"]) <= float(rows[0]["main"]) <= float(rows[0]["upper"])
        assert curve_out.exists()

    @pytest.mark.parametrize("probes", [["alpha", "gamma"], ["alpha"]], ids=["banded", "one-probe"])
    def test_report_is_the_crossings_of_the_curve_file(self, tmp_path, probes):
        probe_file, out, curve_out = tmp_path / "probes.txt", tmp_path / "t.csv", tmp_path / "curve.csv"
        probe_file.write_text("\n".join(probes) + "\n")
        rc = main(["threshold", "--models", *REPLICAS, "--probes", str(probe_file), "--target", "2.5",
                   "--out", str(out), "--curve-out", str(curve_out)])
        assert rc == 0
        curve = read_curve_csv(str(curve_out))
        assert (curve.band_low is None) == (len(probes) == 1)
        result = solve_threshold(curve, 2.5, dimensionality=4)
        assert read_csv(str(out))[1] == [{"dimensionality": "4", "lower": repr(result.lower),
                                          "main": repr(result.main), "upper": repr(result.upper)}]

    def test_degenerate_pair_closed_form(self, tmp_path):
        paths = write_pair_replicas(tmp_path, [0.68, 0.69, 0.70, 0.71, 0.72])
        probes = tmp_path / "probes.txt"
        probes.write_text("a\nb\n")
        out = tmp_path / "t.csv"
        rc = main([
            "threshold", "--models", *paths, "--probes", str(probes),
            "--target", "0.5", "--out", str(out),
        ])
        assert rc == 0
        (row,) = read_csv(str(out))[1]
        lower, mainv, upper = (float(row[k]) for k in ("lower", "main", "upper"))
        # both per-term curves are the same survival; target 0.5 crosses at the mean
        assert mainv == pytest.approx(0.70, abs=1e-3)
        assert lower == pytest.approx(mainv, abs=1e-9)
        assert upper == pytest.approx(mainv, abs=1e-9)

    def test_missing_probe_term_names_replica(self, tmp_path, capsys):
        probes = tmp_path / "probes.txt"
        probes.write_text("alpha\nmissingterm\n")
        rc = main([
            "threshold", "--models", *REPLICAS, "--probes", str(probes),
            "--target", "1.6", "--out", str(tmp_path / "t.csv"),
        ])
        assert rc == 1
        assert capsys.readouterr().err == f"error: token 'missingterm' missing from replica '{REPLICAS[0]}'\n"

    def test_dimension_mismatch(self, tmp_path, capsys):
        other = write_pair_replicas(tmp_path, [0.5])[0]
        rc = main(["threshold", "--models", REPLICAS[0], other, "--probes", PROBES, "--out", str(tmp_path / "t.csv")])
        assert rc == 1
        assert capsys.readouterr().err == "error: replicas disagree on dimensionality: [2, 4]\n"

    def test_first_error_in_replica_order(self, tmp_path, capsys):
        # replica 2 lacks a probe and replica 3 is truncated; the workers may load replica 3 first,
        # but the error is the one a sequential loop raises: replica 2's
        paths = [str(tmp_path / f"r{k}.vec") for k in range(5)]
        for k, path in enumerate(paths):
            model = load_model(REPLICAS[k])
            if k == 2:
                model = EmbeddingModel(path, [t if t != "alpha" else "other" for t in model.vocabulary], model.vectors)
            Path(path).write_bytes(word2vec_bytes(model))
        Path(paths[3]).write_bytes(Path(paths[3]).read_bytes()[:-20])
        rc = main(["threshold", "--models", *paths, "--probes", PROBES, "--out", str(tmp_path / "t.csv")])
        assert rc == 1
        assert capsys.readouterr().err == f"error: token 'alpha' missing from replica '{paths[2]}'\n"

    @pytest.mark.parametrize("command", ["threshold", "uncertainty"])
    def test_missing_model_file(self, tmp_path, capsys, command):
        missing = tmp_path / "missing.vec"
        argv = {
            "threshold": ["--models", REPLICAS[0], str(missing), REPLICAS[2], "--out", str(tmp_path / "t.csv")],
            "uncertainty": ["--reference", REPLICAS[0], "--other", str(missing),
                            "--curve-out", str(tmp_path / "c.csv")],
        }[command]
        assert main([command, "--probes", PROBES, *argv]) == 1
        assert capsys.readouterr().err == f"error: No such file or directory: {missing}\n"

    def test_empty_file_name_is_printed_quoted(self, tmp_path, capsys):
        corpus, out = tmp_path / "c.jsonl", tmp_path / "i.npz"
        corpus.write_text('{"id": "d1", "text": "alpha beta"}\n')
        assert main(["index", "--corpus", str(corpus), "--stopwords", "", "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: No such file or directory: ''\n"
        assert not out.exists()

    def test_confidence_checked_with_one_probe(self, tmp_path, capsys):
        # One probe makes no band, so nothing downstream would look at the confidence.
        probe_file, out = tmp_path / "probes.txt", tmp_path / "t.csv"
        probe_file.write_text("alpha\n")
        rc = main(["threshold", "--models", *REPLICAS, "--probes", str(probe_file), "--confidence", "5",
                   "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == "error: confidence must be in (0, 1)\n"
        assert not out.exists()

    def test_one_replica_rejected_before_it_is_read(self, tmp_path, capsys):
        rc = main(["threshold", "--models", str(tmp_path / "one.vec"), "--probes", PROBES,
                   "--out", str(tmp_path / "t.csv")])
        assert rc == 1
        assert capsys.readouterr().err == "error: need at least 2 replica model paths\n"
        assert not (tmp_path / "t.csv").exists()

    def test_descending_grid_one_error_line(self, tmp_path, capsys):
        rc = main(["threshold", "--models", *REPLICAS, "--probes", PROBES, "--grid-low", "1", "--grid-high", "0",
                   "--out", str(tmp_path / "t.csv")])
        assert rc == 1
        assert capsys.readouterr().err == "error: grid needs finite ends with grid_low < grid_high, got 1.0 and 0.0\n"

    def test_numeric_target_without_synsets_accepted(self, tmp_path):
        out = tmp_path / "t.csv"
        rc = main([
            "threshold", "--models", *REPLICAS, "--probes", PROBES,
            "--target", "1.6", "--out", str(out),
        ])
        assert rc == 0

    def test_synset_file_target(self, tmp_path, capsys):
        synsets = tmp_path / "synsets.txt"
        # mean synonym count 2.0 over {a, b, c, d}
        synsets.write_text("a b c\na d\n")
        out = tmp_path / "t.csv"
        rc = main([
            "threshold", "--models", *REPLICAS, "--probes", PROBES,
            "--synsets", str(synsets), "--out", str(out),
        ])
        assert rc == 0
        summary = capsys.readouterr().out
        # the file's mean is the target: the same report and summary as --target 2
        rc = main(["threshold", "--models", *REPLICAS, "--probes", PROBES, "--target", "2",
                   "--out", str(tmp_path / "t_2.csv")])
        assert rc == 0
        assert (tmp_path / "t_2.csv").read_bytes() == out.read_bytes()
        assert capsys.readouterr().out == summary


class TestThresholdDeterminism:
    """The threshold report depends on its inputs only: not on the BLAS thread
    count or the CPUs the replicas load and the probe curves run on, and on
    the probe order only through the summation order of the mean. The
    ``uncertainty`` outputs do not depend on the CPUs either. A successful
    run writes nothing to standard error."""

    PROBES = ["alpha", "gamma", "epsilon"]

    @staticmethod
    def run_threshold(tmp_path, probes: list[str], threads: int, cpu: int | None = None) -> tuple[Path, Path]:
        """``threshold`` in a fresh process, restricted to ``cpu`` if given;
        returns the report and curve paths."""
        name = f"{'_'.join(probes)}_{threads}_{cpu}"
        probe_file, out, curve = (tmp_path / f"{kind}_{name}.txt" for kind in ("probes", "report", "curve"))
        probe_file.write_text("\n".join(probes) + "\n")
        TestThresholdDeterminism.run_cli(["threshold", "--models", *REPLICAS, "--probes", str(probe_file),
                                          "--target", "1.6", "--out", str(out), "--curve-out", str(curve)],
                                         threads, cpu)
        return out, curve

    @staticmethod
    def run_cli(argv: list[str], threads: int, cpu: int | None) -> bytes:
        """The CLI in a fresh process, restricted to ``cpu`` if given; returns its standard output."""
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
        env.update({var: str(threads) for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")})
        proc = subprocess.run(
            [sys.executable, "-m", "simthresh.cli", *argv], env=env, check=True, capture_output=True,
            preexec_fn=None if cpu is None else lambda: os.sched_setaffinity(0, {cpu}),  # acts on the child only
        )
        assert proc.stderr == b""
        return proc.stdout

    def test_identical_bytes_across_thread_counts(self, tmp_path):
        one = self.run_threshold(tmp_path, self.PROBES, 1)
        two = self.run_threshold(tmp_path, self.PROBES, 2)
        for a, b in zip(one, two):
            assert a.read_bytes() == b.read_bytes()

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity") or len(os.sched_getaffinity(0)) < 2,
                        reason="needs os.sched_setaffinity and at least 2 CPUs")
    def test_identical_bytes_on_one_cpu_and_all(self, tmp_path):
        # 3 probes: one curve worker on one CPU, two or three on all of them
        one = self.run_threshold(tmp_path, self.PROBES, 1, cpu=min(os.sched_getaffinity(0)))
        every = self.run_threshold(tmp_path, self.PROBES, 1)
        for a, b in zip(one, every):
            assert a.read_bytes() == b.read_bytes()

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity") or len(os.sched_getaffinity(0)) < 2,
                        reason="needs os.sched_setaffinity and at least 2 CPUs")
    def test_uncertainty_identical_bytes_on_one_cpu_and_all(self, tmp_path):
        # two replicas: one loading worker on one CPU, two on all of them
        outputs = []
        for cpu in (min(os.sched_getaffinity(0)), None):
            curve, hist = tmp_path / f"curve_{cpu}.csv", tmp_path / f"hist_{cpu}.csv"
            stdout = self.run_cli(["uncertainty", "--reference", REPLICAS[0], "--other", REPLICAS[1],
                                   "--probes", PROBES, "--curve-out", str(curve), "--histogram-out", str(hist)],
                                  1, cpu)
            outputs.append((stdout, curve.read_bytes(), hist.read_bytes()))
        assert outputs[0] == outputs[1]
        assert outputs[0][1] == (DATA / "golden_uncertainty.csv").read_bytes()

    def test_reversed_probes_agree_to_rounding(self, tmp_path):
        report, curve = self.run_threshold(tmp_path, self.PROBES, 1)
        report_r, curve_r = self.run_threshold(tmp_path, self.PROBES[::-1], 1)
        rows_r, rows = ([[float(v) for v in r.values()] for r in read_csv(str(p))[1]] for p in (report_r, report))
        np.testing.assert_allclose(rows_r, rows, rtol=1e-15)
        a, b = read_curve_csv(str(curve)), read_curve_csv(str(curve_r))
        assert np.array_equal(a.grid, b.grid) and a.n_terms == b.n_terms == 3
        # the band edges are mean -/+ a half-width, so their rounding scales with the mean
        scale = 1e-15 * a.expected
        for column in ("expected", "band_low", "band_high"):
            assert np.all(np.abs(getattr(b, column) - getattr(a, column)) <= scale), column


class TestSynonymStatsCommand:
    def test_stats_output(self, tmp_path, capsys):
        synsets = tmp_path / "synsets.txt"
        synsets.write_text("a b c\na d\n")
        out = tmp_path / "stats.csv"
        rc = main(["synonym-stats", "--synsets", str(synsets), "--out", str(out)])
        assert rc == 0
        assert "mean=2.0000" in capsys.readouterr().out
        header, row = out.read_text().splitlines()
        assert header == "mean_synonyms,std_synonyms,term_count"
        assert row.split(",")[2] == "4"


def search_world(tmp_path):
    """Tiny corpus + topics + qrels + an embedding over the stemmed terms."""
    corpus = tmp_path / "corpus.jsonl"
    docs = [
        ("d1", "embedding similarity threshold analysis"),
        ("d2", "threshold behavior studies"),
        ("d3", "document retrieval evaluation"),
        ("d4", "similarity functions compared"),
    ]
    corpus.write_text("\n".join(json.dumps({"id": d, "text": t}) for d, t in docs) + "\n")
    topics = tmp_path / "topics.tsv"
    topics.write_text("1\tsimilarity threshold\n2\tretrieval evaluation\n")
    qrels = tmp_path / "qrels.txt"
    qrels.write_text(
        "1 0 d1 2\n1 0 d2 1\n1 0 d3 0\n1 0 d4 1\n"
        "2 0 d1 0\n2 0 d2 0\n2 0 d3 2\n2 0 d4 0\n"
    )
    vectors = np.array([
        [1.0, 0.0, 0.0],
        [0.9, np.sqrt(1 - 0.81), 0.0],
        [0.0, 0.0, 1.0],
    ])
    model = EmbeddingModel.from_arrays(["similar", "threshold", "retriev"], vectors, "emb")
    model_path = tmp_path / "emb.vec"
    model_path.write_bytes(word2vec_bytes(model))
    index_path = tmp_path / "index.json.gz"
    assert main(["index", "--corpus", str(corpus), "--out", str(index_path)]) == 0
    return corpus, topics, qrels, model_path, index_path


class TestSearchWorkflow:
    def test_none_equals_threshold_above_one(self, tmp_path):
        _, topics, _, model_path, index_path = search_world(tmp_path)
        run_none = tmp_path / "none.run"
        run_thr = tmp_path / "thr.run"
        assert main(["search", "--index", str(index_path), "--topics", str(topics),
                     "--policy", "none", "--out", str(run_none)]) == 0
        assert main(["search", "--index", str(index_path), "--topics", str(topics),
                     "--policy", "threshold", "--threshold", "1.01",
                     "--model", str(model_path), "--out", str(run_thr)]) == 0
        assert run_none.read_bytes() == run_thr.read_bytes()

    def test_expansion_changes_ranking(self, tmp_path):
        _, topics, _, model_path, index_path = search_world(tmp_path)
        run_none = tmp_path / "none.run"
        run_exp = tmp_path / "exp.run"
        assert main(["search", "--index", str(index_path), "--topics", str(topics),
                     "--policy", "none", "--out", str(run_none)]) == 0
        assert main(["search", "--index", str(index_path), "--topics", str(topics),
                     "--policy", "threshold", "--threshold", "0.5",
                     "--model", str(model_path), "--out", str(run_exp)]) == 0
        none_docs = {d for d, _ in read_run(str(run_none))["1"]}
        exp_docs = {d for d, _ in read_run(str(run_exp))["1"]}
        assert exp_docs >= none_docs

    def test_knn_policy_runs(self, tmp_path):
        _, topics, _, model_path, index_path = search_world(tmp_path)
        out = tmp_path / "knn.run"
        rc = main(["search", "--index", str(index_path), "--topics", str(topics),
                   "--policy", "knn", "--k", "2", "--model", str(model_path),
                   "--out", str(out)])
        assert rc == 0
        assert read_run(str(out))

    def test_one_translation_table_per_search(self, tmp_path, monkeypatch):
        # 'threshold' is in two of the three topics: one table over the run's terms expands it once
        _, topics, _, model_path, index_path = search_world(tmp_path)
        topics.write_text("1\tsimilarity threshold\n2\tretrieval evaluation\n3\tthreshold\n")
        tables, scans = [], []
        build, above = retrieval.build_translation_table, EmbeddingModel.neighbors_above
        monkeypatch.setattr(retrieval, "build_translation_table",
                            lambda terms, *rest: tables.append(terms) or build(terms, *rest))
        monkeypatch.setattr(EmbeddingModel, "neighbors_above",
                            lambda model, term, value: scans.append(term) or above(model, term, value))
        run = tmp_path / "run.txt"
        assert main(["search", "--index", str(index_path), "--topics", str(topics), "--policy", "threshold",
                     "--threshold", "0.5", "--model", str(model_path), "--out", str(run)]) == 0
        assert tables == [["similar", "threshold", "retriev", "evalu", "threshold"]]
        assert scans == ["similar", "threshold", "retriev"]  # the model lacks 'evalu'
        # the run is the one a table per topic gives
        index, model = load_index(str(index_path)), load_model(str(model_path))
        policy = ExpansionPolicy(mode="threshold", threshold=0.5)
        per_topic = {}
        for topic_id, text in read_topics(str(topics)):
            terms = index.pipeline.process(text)
            per_topic[topic_id] = tlm_score(index, LmConfig(), build(terms, policy, model), terms)
        write_run(per_topic, str(tmp_path / "per_topic.txt"))
        assert run.read_bytes() == (tmp_path / "per_topic.txt").read_bytes()

    def test_superscript_topic_id_sorts_after_numeric_ids(self, tmp_path):
        # '²'.isdigit() holds but int('²') fails: the id is not a number, and sorts after the numbers
        _, topics, _, _, index_path = search_world(tmp_path)
        topics.write_text("²\tsimilarity threshold\n10\tretrieval evaluation\n2\tthreshold\n")
        run = tmp_path / "run.txt"
        assert main(["search", "--index", str(index_path), "--topics", str(topics),
                     "--policy", "none", "--out", str(run)]) == 0
        assert list(dict.fromkeys(line.split()[0] for line in run.read_text().splitlines())) == ["2", "10", "²"]

    def test_evaluate_and_compare(self, tmp_path, capsys):
        _, topics, qrels, model_path, index_path = search_world(tmp_path)
        run = tmp_path / "run.txt"
        assert main(["search", "--index", str(index_path), "--topics", str(topics),
                     "--policy", "none", "--out", str(run)]) == 0
        report = tmp_path / "report.csv"
        rc = main(["evaluate", "--run", str(run), "--qrels", str(qrels),
                   "--out", str(report)])
        assert rc == 0
        _, rows = read_csv(str(report))
        assert {r.pop("topic") for r in rows} == {"1", "2", "all"}
        assert all(0.0 <= float(v) <= 1.0 for r in rows for v in r.values())

        cmp_csv, copy = tmp_path / "cmp.csv", tmp_path / "copy.txt"
        copy.write_bytes(run.read_bytes())  # a byte copy: the one file given twice is rejected
        rc = main(["compare", "--run-a", str(run), "--run-b", str(copy),
                   "--qrels", str(qrels), "--out", str(cmp_csv)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "p=1.0000" in out
        assert "not significant" in out

    def test_trec_format_corpus(self, tmp_path):
        trec = tmp_path / "corpus.trec"
        trec.write_text(
            "<DOC>\n<DOCNO>t1</DOCNO>\n<TEXT>alpha beta</TEXT>\n</DOC>\n"
            "<DOC>\n<DOCNO>t2</DOCNO>\n<TEXT>beta gamma</TEXT>\n</DOC>\n"
        )
        out = tmp_path / "idx.json"
        rc = main(["index", "--corpus", str(trec), "--out", str(out)])
        assert rc == 0

    def test_duplicate_doc_id_fails(self, tmp_path, capsys):
        corpus = tmp_path / "c.jsonl"
        corpus.write_text('{"id": "d1", "text": "x"}\n{"id": "d2", "text": "y"}\n{"id": "d1", "text": "z"}\n')
        rc = main(["index", "--corpus", str(corpus), "--out", str(tmp_path / "i.json")])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {corpus}:3: duplicate document 'd1' (first on line 1)\n"

    @pytest.mark.parametrize("name, text", [
        ("c.trec", '{"id": "t1", "text": "alpha"}\n\n{"id": "t2", "text": ""}\n'),
        ("c.jsonl", "\n<DOC>\n<DOCNO>t1</DOCNO>\n<TEXT>alpha</TEXT>\n</DOC>\n<DOC>\n<DOCNO>t2</DOCNO>\n</DOC>\n"),
    ], ids=["jsonl", "trec"])
    def test_format_from_first_line(self, tmp_path, capsys, name, text):
        corpus = tmp_path / name  # the suffix names the other format: only the first line counts
        corpus.write_text(text)
        assert main(["index", "--corpus", str(corpus), "--out", str(tmp_path / "i.npz")]) == 0
        assert capsys.readouterr().out == "indexed 2 documents, 1 tokens\n"


class TestSearchUsesTheIndexPipeline:
    """``index`` records its stopwords and stemming switch in the archive, and
    ``search`` processes every topic with them: it has no pipeline flags."""

    DOCS = [("d1", "the running cats"), ("d2", "running dogs"), ("d3", "the dog and the cat")]
    TOPICS = "1\tthe cats\n2\trunning dogs\n"

    def expected_run(self, path, corpus, topics, pipeline):
        index = build_index(read_corpus(str(corpus)), pipeline)
        run = {tid: lm_score(index, LmConfig(), pipeline.process(text))
               for tid, text in (line.split("\t") for line in topics.read_text().splitlines())}
        write_run(run, str(path))
        return path.read_bytes()

    @pytest.mark.parametrize("no_stem, stopwords", [(True, None), (False, "running\n")], ids=["no-stem", "stopwords"])
    def test_search_scores_with_the_index_pipeline(self, tmp_path, no_stem, stopwords):
        corpus, topics, stop = tmp_path / "corpus.jsonl", tmp_path / "topics.tsv", tmp_path / "stop.txt"
        corpus.write_text("".join(json.dumps({"id": d, "text": t}) + "\n" for d, t in self.DOCS))
        topics.write_text(self.TOPICS)
        flags = ["--no-stem"] if no_stem else []
        if stopwords is not None:
            stop.write_text(stopwords)
            flags += ["--stopwords", str(stop)]
        index, run = tmp_path / "index.npz", tmp_path / "run.txt"
        assert main(["index", "--corpus", str(corpus), *flags, "--out", str(index)]) == 0
        assert main(["search", "--index", str(index), "--topics", str(topics), "--out", str(run)]) == 0
        pipeline = Pipeline(default_stopwords() if stopwords is None else load_stopwords(str(stop)), not no_stem)
        assert load_index(str(index)).pipeline == pipeline
        assert run.read_bytes() == self.expected_run(tmp_path / "want.txt", corpus, topics, pipeline)
        assert run.read_bytes() != self.expected_run(tmp_path / "default.txt", corpus, topics, Pipeline())

    @pytest.mark.parametrize("flag", [["--no-stem"], ["--stopwords", "stop.txt"]], ids=["no-stem", "stopwords"])
    def test_search_has_no_pipeline_flags(self, tmp_path, capsys, flag):
        _, topics, _, _, index_path = search_world(tmp_path)
        with pytest.raises(SystemExit):
            main(["search", "--index", str(index_path), "--topics", str(topics), *flag,
                  "--out", str(tmp_path / "r.txt")])
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("change, message", [
        (lambda m: [m.pop(name) for name in ("stopwords", "stopwords_offsets", "stem")], "stopwords"),
        (lambda m: m.pop("stem"), "stem"),
        (lambda m: m.update(stem=np.array([True, False])), "a member has the wrong dtype or shape"),
        (lambda m: m.update(stem=np.array([1])), "a member has the wrong dtype or shape"),
        (lambda m: m.update(stopwords_offsets=m["stopwords_offsets"] + 1),
         "stopwords offsets do not partition their blob"),
        (lambda m: m.update(stopwords=m["stopwords"][::-1].copy()), "stopwords are not sorted and unique"),
    ], ids=["no-pipeline", "no-stem-switch", "two-switches", "int-switch", "offsets-shifted", "unsorted"])
    def test_bad_pipeline_member_names_file(self, tmp_path, capsys, change, message):
        _, topics, _, _, index_path = search_world(tmp_path)
        _rewrite_archive(index_path, change)
        capsys.readouterr()
        rc = main(["search", "--index", str(index_path), "--topics", str(topics), "--out", str(tmp_path / "r.txt")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {index_path}: not a readable index archive (") and message in err
        assert err.count("\n") == 1
        assert not (tmp_path / "r.txt").exists()


_TYPED_FIELDS = "record needs a string 'text' and a string or integer 'id'\n"


def _json_file(path):
    path.write_text('{"postings": {}}')


def _random_bytes(path):
    path.write_bytes(np.random.default_rng(0).bytes(300))


def _truncated(path):
    data = path.read_bytes()
    path.write_bytes(data[: len(data) // 2])


def _rewrite_archive(path, change):
    with np.load(path, allow_pickle=False) as archive:
        members = {name: archive[name] for name in archive.files}
    change(members)
    with open(path, "wb") as fh:
        np.savez_compressed(fh, **members)


def _missing_member(path):
    _rewrite_archive(path, lambda m: m.pop("tfs"))


def _offsets_overrun(path):
    def change(m):
        m["offsets"] = m["offsets"].copy()
        m["offsets"][-1] += 5
    _rewrite_archive(path, change)


def _duplicate_posting(path):
    def change(m):  # the second posting of a term with two names its first document again
        start = m["offsets"][np.flatnonzero(np.diff(m["offsets"]) >= 2)[0]]
        m["docs"] = m["docs"].copy()
        m["docs"][start + 1] = m["docs"][start]
    _rewrite_archive(path, change)


class TestBadInputs:
    @pytest.mark.parametrize("damage, message", [
        (_json_file, "not a readable index archive (not a zip archive)"),
        (_random_bytes, "not a readable index archive (not a zip archive)"),
        (_truncated, "not a readable index archive"),
        (_missing_member, "tfs"),
        (_offsets_overrun, "postings offsets disagree with the postings"),
        (_duplicate_posting, "postings are not unique (term, document) pairs with positive counts"),
    ], ids=["json", "random-bytes", "truncated", "missing-member", "offsets-overrun", "duplicate-posting"])
    def test_bad_index_names_file(self, tmp_path, capsys, damage, message):
        _, topics, _, _, index_path = search_world(tmp_path)
        capsys.readouterr()
        damage(index_path)
        rc = main(["search", "--index", str(index_path), "--topics", str(topics),
                   "--out", str(tmp_path / "r.txt")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {index_path}: ") and message in err
        assert err.count("\n") == 1
        assert "pickle" not in err

    def test_topics_of_comments_only_rejected(self, tmp_path, capsys):
        _, topics, _, _, index_path = search_world(tmp_path)
        topics.write_text("# 1\tsimilarity threshold\n\n")
        out = tmp_path / "r.txt"
        capsys.readouterr()
        assert main(["search", "--index", str(index_path), "--topics", str(topics), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {topics}: no topics found\n"
        assert not out.exists()

    def test_max_docs_below_one_rejected(self, tmp_path, capsys):
        # checked before any input is read: the index and the topics are missing
        out = tmp_path / "r.txt"
        rc = main(["search", "--index", str(tmp_path / "missing.npz"), "--topics", str(tmp_path / "missing.txt"),
                   "--max-docs", "0", "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == "error: max_docs must be >= 1\n"
        assert not out.exists()

    @pytest.mark.parametrize("which, lines, lineno, message", [
        ("run", ["1 Q0 d1 1 -1.5 t", "1 Q0 d2 2 abc t"], 2, "could not convert string to float"),
        ("qrels", ["1 0 d1 1", "1 0 d2 x"], 2, "invalid literal for int()"),
        ("qrels", ["1 0 d1 -1"], 1, "negative grade"),
        ("qrels", ["1 0 d1 1", "", "1 0 d1 0"], 3, "duplicate judgment"),
        ("run", ["1 Q0 d1 1 -1.0 t", "2 Q0 d1 1 -1.0 t", "1 Q0 d1 2 -2.0 t", "1 Q0 d2 3 -3.0 t"], 3,
         "duplicate document 'd1' for topic '1' (first on line 1)\n"),
    ], ids=["run-score", "qrels-grade", "qrels-negative", "qrels-duplicate", "run-duplicate"])
    def test_bad_record_names_file_and_line(self, tmp_path, capsys, which, lines, lineno, message):
        files = {"run": tmp_path / "run.txt", "qrels": tmp_path / "qrels.txt"}
        files["run"].write_text("1 Q0 d1 1 -1.5 t\n")
        files["qrels"].write_text("1 0 d1 1\n")
        files[which].write_text("\n".join(lines) + "\n")
        rc = main(["evaluate", "--run", str(files["run"]), "--qrels", str(files["qrels"])])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {files[which]}:{lineno}: {message}")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("text, lineno, message", [
        ("<DOC>\n<DOCNO>t1</DOCNO>\n</DOC>\n\n<DOC>\n<TEXT>x</TEXT>\n</DOC>\n", 5, "document without <DOCNO>"),
        ("<DOC>\n<DOCNO>t1</DOCNO>\n</DOC>\n</DOC>\n", 4, "</DOC> without <DOC>"),
        ("<DOC>\n<DOCNO>t1</DOCNO>\n</DOC>\n<DOC>\n<DOCNO>t2</DOCNO>\n", 4, "unterminated <DOC> block"),
        ("<DOC>\n<DOCNO>t1</DOCNO>\n<DOC>\n<DOCNO>t2</DOCNO>\n</DOC>\n", 1, "unterminated <DOC> block"),
        ("<DOC>\n<DOCNO>t1</DOCNO>\n</DOC>\n<DOC>\n<TEXT>x</TEXT><DOCNO>t1</DOCNO>\n</DOC>\n", 4,
         "duplicate document 't1' (first on line 1)"),
        ("\n<DOCNO>t1</DOCNO>\n<TEXT>alpha</TEXT>\n", 2, "expected a JSON object or <DOC>"),
        ("<HEAD>alpha</HEAD>\n<DOC>\n<DOCNO>t1</DOCNO>\n</DOC>\n", 1, "expected a JSON object or <DOC>"),
        ("", None, "no documents found"),
        (" \n\t\r\n\n", None, "no documents found"),
        ("<DOC>\n<DOCNO>t1</DOCNO>\n</DOC>\n<DOC>\n<DOCNO> t 2 </DOCNO>\n</DOC>\n", 4,
         "document id 't 2' is empty or holds whitespace"),
    ], ids=["trec-no-docno", "trec-close-without-open", "trec-unterminated", "trec-reopened", "trec-duplicate",
            "trec-no-doc-line", "trec-header-first", "empty", "blank", "trec-space-in-id"])
    def test_bad_trec_document_names_file_and_line(self, tmp_path, capsys, text, lineno, message):
        corpus = tmp_path / "c.trec"
        corpus.write_text(text)
        rc = main(["index", "--corpus", str(corpus), "--out", str(tmp_path / "i.npz")])
        assert rc == 1
        where = f"{corpus}:{lineno}" if lineno else str(corpus)
        assert capsys.readouterr().err == f"error: {where}: {message}\n"

    @pytest.mark.parametrize("text, lineno, message", [
        ('{"id": "d1", "text": "x"}\n5\n', 2, "record needs 'id' and 'text' fields"),
        ('{"id": "d1", "text": "x"}\n["id", "text"]\n', 2, "record needs 'id' and 'text' fields"),
        ('{"id": "d1", "text": "x"}\n\n"d2"\n', 3, "record needs 'id' and 'text' fields"),
        ('{"id": "d1", "text": "x"}\n{"id": "d2",\n', 2,
         "invalid JSON (Expecting property name enclosed in double quotes: line 1 column 13 (char 12))"),
        ('{"id": ' + "9" * 5000 + ', "text": "x"}\n', 1, "invalid JSON (Exceeds the limit (4300 digits)"),
        ('{"id": "d1", "text": ' + "[" * 100000 + "]" * 100000 + "}\n", 1, "invalid JSON (maximum recursion depth"),
        ('{"id": "d1", "text": "x"}\n{"id": null, "text": null}\n', 2, _TYPED_FIELDS),
        ('{"id": true, "text": "x"}\n', 1, _TYPED_FIELDS),
        ('{"id": 1.0, "text": "x"}\n', 1, _TYPED_FIELDS),
        ('{"id": 7, "text": ["alpha", {"beta": false}]}\n', 1, _TYPED_FIELDS),
        ('{"id": "d1", "text": "x"}\n{"id": "d 1", "text": "y"}\n', 2,
         "document id 'd 1' is empty or holds whitespace"),
        ('{"id": "", "text": "x"}\n', 1, "document id '' is empty or holds whitespace"),
    ], ids=["number", "list", "string", "invalid", "long-integer", "deep", "null-fields", "bool-id", "float-id",
            "list-text", "space-in-id", "empty-id"])
    def test_bad_jsonl_record_names_file_and_line(self, tmp_path, capsys, text, lineno, message):
        corpus = tmp_path / "c.jsonl"
        corpus.write_text(text)
        rc = main(["index", "--corpus", str(corpus), "--out", str(tmp_path / "i.npz")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {corpus}:{lineno}: {message}") and err.count("\n") == 1, err

    def test_search_topic_without_collection_evidence_names_topic(self, tmp_path, capsys):
        _, _, _, _, index_path = search_world(tmp_path)
        capsys.readouterr()
        topics = tmp_path / "topics.tsv"
        topics.write_text("1\tzebra quokka\n")  # no stem occurs in the corpus
        rc = main(["search", "--index", str(index_path), "--topics", str(topics), "--out", str(tmp_path / "r.txt")])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {topics}: topic 1: query has no terms with collection evidence\n"
        assert not (tmp_path / "r.txt").exists()

    def test_topic_without_evidence_fails_before_the_model_is_read(self, tmp_path, capsys):
        _, _, _, _, index_path = search_world(tmp_path)
        topics = tmp_path / "topics.tsv"
        topics.write_text("1\tsimilarity\n2\tzebra quokka\n")
        capsys.readouterr()
        rc = main(["search", "--index", str(index_path), "--topics", str(topics), "--policy", "knn", "--k", "2",
                   "--model", str(tmp_path / "missing.vec"), "--out", str(tmp_path / "r.txt")])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {topics}: topic 2: query has no terms with collection evidence\n"

    @pytest.mark.parametrize("how", ["flag", "config"])
    @pytest.mark.parametrize("tag", ["my tag", ""])
    def test_run_tag_that_a_run_cannot_hold_rejected_before_the_index(self, tmp_path, capsys, how, tag):
        out = tmp_path / "r.txt"  # the index and the topics are missing
        values = dict(index=tmp_path / "missing.npz", topics=tmp_path / "missing.txt", out=out)
        if how == "flag":
            argv = [*as_flags("search", values), f"--run-tag={tag}"]
        else:
            as_config(tmp_path / "search.cfg", {**values, "run_tag": tag})
            argv = ["search", "--config", str(tmp_path / "search.cfg")]
        assert main(argv) == 1
        assert capsys.readouterr().err == f"error: run tag {tag!r} is empty or holds whitespace\n"
        assert not out.exists()

    @pytest.mark.parametrize("text, lineno, what", [
        ("1\tdog\n1 2\tcat\n", 2, "topic id '1 2'"),
        ("\tdog\n", 1, "topic id ''"),
    ], ids=["space", "empty"])
    def test_topic_id_that_a_run_cannot_hold_names_file_and_line(self, tmp_path, capsys, text, lineno, what):
        _, _, _, _, index_path = search_world(tmp_path)
        topics = tmp_path / "topics.tsv"
        topics.write_text(text)
        capsys.readouterr()
        rc = main(["search", "--index", str(index_path), "--topics", str(topics), "--out", str(tmp_path / "r.txt")])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {topics}:{lineno}: {what} is empty or holds whitespace\n"

    @pytest.mark.parametrize("command", ["synonym-stats", "threshold"])
    def test_synsets_without_single_word_lemmas_names_file(self, tmp_path, capsys, command):
        synsets = tmp_path / "synsets.txt"
        synsets.write_text("big_cat large_feline\n")
        out = tmp_path / "out.csv"
        argv = {
            "synonym-stats": ["synonym-stats", "--out", str(out)],
            "threshold": ["threshold", "--models", *REPLICAS, "--probes", PROBES, "--out", str(out)],
        }[command]
        assert main([*argv, "--synsets", str(synsets)]) == 1
        assert capsys.readouterr().err == f"error: {synsets}: no single-word lemmas in synset input\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["histogram", "threshold"])
    def test_allocation_too_large_fails_in_one_line(self, tmp_path, capsys, command):
        # 10**15 eight-byte values (7 PiB) exceed any address space, so nothing is allocated
        out = tmp_path / "out.csv"
        argv = {
            "histogram": ["histogram", "--model", REPLICAS[0], "--bins", str(10**15)],
            "threshold": ["threshold", "--models", *REPLICAS, "--grid-points", str(10**15)],
        }[command]
        assert main([*argv, "--probes", PROBES, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: Unable to allocate ") and err.count("\n") == 1, err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["threshold", "uncertainty", "histogram"])
    def test_duplicate_probe_names_file_and_line(self, tmp_path, capsys, command):
        probes = tmp_path / "probes.txt"
        probes.write_text("alpha\nalpha\nbeta\n")
        out = tmp_path / "out.csv"
        argv = {
            "threshold": ["--models", *REPLICAS, "--out", str(out)],
            "uncertainty": ["--reference", REPLICAS[0], "--other", REPLICAS[1], "--curve-out", str(out)],
            "histogram": ["--model", REPLICAS[0], "--out", str(out)],
        }[command]
        assert main([command, "--probes", str(probes), *argv]) == 1
        assert capsys.readouterr().err == f"error: {probes}:2: duplicate term 'alpha' (first on line 1)\n"
        assert not out.exists()

    @pytest.mark.parametrize("which", ["probes", "config", "topics", "qrels", "run", "stopwords", "synsets",
                                       "corpus", "trec"])
    def test_non_utf8_line_names_file_and_line(self, tmp_path, capsys, which):
        w = pipeline_world(tmp_path)
        w.update(probes=Path(PROBES), config=tmp_path / "run.cfg", run=w["runs"][0])
        w["config"].write_text(f"probes = {PROBES}\nbins = 10\n")
        first, second, *rest = w[which].read_bytes().splitlines(keepends=True)
        bad = tmp_path / f"bad_{which}"
        bad.write_bytes(first + b"\xff\xfe" + second + b"".join(rest))
        out = str(tmp_path / "out")
        pair = ["--reference", REPLICAS[0], "--other", REPLICAS[1], "--curve-out", out]
        argv = {
            "probes": ["uncertainty", "--probes", bad, *pair],
            "config": ["uncertainty", "--config", bad, *pair],
            "topics": ["search", "--index", w["index"], "--topics", bad, "--out", out],
            "qrels": ["evaluate", "--run", w["run"], "--qrels", bad],
            "run": ["evaluate", "--run", bad, "--qrels", w["qrels"]],
            "stopwords": ["index", "--corpus", w["corpus"], "--stopwords", bad, "--out", out],
            "synsets": ["synonym-stats", "--synsets", bad],
            "corpus": ["index", "--corpus", bad, "--out", out],
            "trec": ["index", "--corpus", bad, "--out", out],
        }[which]
        capsys.readouterr()
        assert main([str(a) for a in argv]) == 1
        assert capsys.readouterr().err == f"error: {bad}:2: not valid UTF-8\n"
        assert not Path(out).exists()

    @pytest.mark.parametrize("which", ["probes", "config", "topics", "qrels", "run", "stopwords", "synsets",
                                       "corpus", "trec"])
    def test_byte_order_mark_reads_like_the_plain_file(self, tmp_path, capsys, which):
        w = pipeline_world(tmp_path)
        w.update(probes=Path(PROBES), config=tmp_path / "run.cfg", run=w["runs"][0])
        w["config"].write_text(f"probes = {PROBES}\nbins = 10\n")
        marked = tmp_path / f"bom_{which}"
        marked.write_bytes(b"\xef\xbb\xbf" + w[which].read_bytes())
        results = []
        for given in (w[which], marked):
            out = tmp_path / f"out_{len(results)}"
            pair = ["--reference", REPLICAS[0], "--other", REPLICAS[1], "--curve-out", out]
            argv = {
                "probes": ["uncertainty", "--probes", given, *pair],
                "config": ["uncertainty", "--config", given, *pair],
                "topics": ["search", "--index", w["index"], "--topics", given, "--out", out],
                "qrels": ["evaluate", "--run", w["run"], "--qrels", given, "--out", out],
                "run": ["evaluate", "--run", given, "--qrels", w["qrels"], "--out", out],
                "stopwords": ["index", "--corpus", w["corpus"], "--stopwords", given, "--out", out],
                "synsets": ["synonym-stats", "--synsets", given, "--out", out],
                "corpus": ["index", "--corpus", given, "--out", out],
                "trec": ["index", "--corpus", given, "--out", out],
            }[which]
            capsys.readouterr()
            rc = main([str(a) for a in argv])
            if not out.exists():
                written = None
            elif which in ("stopwords", "corpus", "trec"):  # the archive's bytes hold its write time
                with np.load(out) as archive:
                    written = {name: archive[name].tobytes() for name in archive.files}
            else:
                written = out.read_bytes()
            results.append((rc, capsys.readouterr().out, written))
        assert results[0][0] == 0
        assert results[1] == results[0]

    @pytest.mark.parametrize("fmt", ["word2vec_text", "word2vec_binary"])
    def test_non_utf8_token_names_file_and_record(self, tmp_path, capsys, fmt):
        path = tmp_path / "bad.vec"
        path.write_bytes(word2vec_bytes(load_model(REPLICAS[0]), fmt))
        data = path.read_bytes()
        assert data.count(b"\nbeta ") == 1  # record 1
        path.write_bytes(data.replace(b"\nbeta ", b"\n\xff\xfebeta "))
        rc = main(["neighbors", "--model", str(path), "--format", fmt, "--term", "alpha", "--k", "1"])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {path}: record 1: token is not valid UTF-8\n"

    @pytest.mark.parametrize("fmt", ["word2vec_text", "word2vec_binary"])
    @pytest.mark.parametrize("damage, message", [
        ("duplicate", "record 1: duplicate token 'alpha' (first in record 0)"),
        ("non-finite", "record 1: non-finite vector component"),
        ("zero-norm", "record 1: zero-norm vector for token 'beta'"),
    ], ids=["duplicate", "non-finite", "zero-norm"])
    def test_bad_model_record_names_file_and_record(self, tmp_path, capsys, fmt, damage, message):
        path = tmp_path / "bad.vec"
        path.write_bytes(word2vec_bytes(load_model(REPLICAS[0]), fmt))
        head, tail = path.read_bytes().split(b"\nbeta ")  # record 1 of 4 components
        values = [float("nan"), 1.0, 0.0, 0.0] if damage == "non-finite" else [0.0] * 4
        if damage == "duplicate":
            data = head + b"\nalpha " + tail
        elif fmt == "word2vec_binary":
            data = head + b"\nbeta " + struct.pack("<4f", *values) + tail[16:]
        else:
            data = head + b"\nbeta " + " ".join(map(repr, values)).encode() + tail[tail.index(b"\n"):]
        path.write_bytes(data)
        rc = main(["neighbors", "--model", str(path), "--format", fmt, "--term", "gamma", "--k", "1"])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {path}: {message}\n"


class TestCheckedBeforeTheReads:
    """Settings and small inputs are checked before the large files are read: every large
    file named here is missing, so reading one first would report that file instead."""

    @pytest.mark.parametrize("policy, setting", [("knn", ["--k", "10"]), ("threshold", ["--threshold", "0.7"])])
    def test_search_asks_for_the_model_before_the_index(self, tmp_path, capsys, policy, setting):
        rc = main(["search", "--index", str(tmp_path / "missing.npz"), "--topics", str(tmp_path / "missing.tsv"),
                   "--policy", policy, *setting, "--out", str(tmp_path / "r.txt")])
        assert rc == 1
        assert capsys.readouterr().err == "error: missing required setting 'model' (flag --model)\n"

    def test_threshold_reads_the_synsets_before_the_replicas(self, tmp_path, capsys):
        synsets, out = tmp_path / "missing_synsets.txt", tmp_path / "t.csv"
        rc = main(["threshold", "--models", str(tmp_path / "missing_0.vec"), str(tmp_path / "missing_1.vec"),
                   "--probes", PROBES, "--synsets", str(synsets), "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == f"error: No such file or directory: {synsets}\n"
        assert not out.exists()

    @pytest.mark.parametrize("target", ["0", "-1", "nan", "inf"])
    def test_threshold_checks_the_target_before_the_replicas(self, tmp_path, capsys, target):
        out = tmp_path / "t.csv"
        rc = main(["threshold", "--models", str(tmp_path / "missing_0.vec"), str(tmp_path / "missing_1.vec"),
                   "--probes", PROBES, "--target", target, "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == f"error: --target must be positive and finite, got {target}\n"
        assert not out.exists()

    def test_threshold_checks_the_synset_target_before_the_replicas(self, tmp_path, capsys):
        synsets, out = tmp_path / "lone_lemmas.txt", tmp_path / "t.csv"
        synsets.write_text("alpha\nbeta\n")  # no lemma shares a synset: the mean synonym count is 0
        rc = main(["threshold", "--models", str(tmp_path / "missing_0.vec"), str(tmp_path / "missing_1.vec"),
                   "--probes", PROBES, "--synsets", str(synsets), "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {synsets}: mean synonym count must be positive and finite, got 0\n"
        assert not out.exists()

    @pytest.mark.parametrize("spelling", ["same", "dot-segment", "symlink"])
    def test_threshold_rejects_a_replica_given_twice(self, tmp_path, capsys, spelling):
        first, out = str(tmp_path / "missing_0.vec"), tmp_path / "t.csv"
        again = {"same": first, "dot-segment": str(tmp_path / "." / "missing_0.vec"),
                 "symlink": str(tmp_path / "link.vec")}[spelling]
        os.symlink(first, tmp_path / "link.vec")  # a dangling link resolves to the same missing file
        rc = main(["threshold", "--models", first, str(tmp_path / "missing_1.vec"), again,
                   "--probes", PROBES, "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == f"error: --models {again}: given twice (positions 1 and 3)\n"
        assert not out.exists()

    @pytest.mark.parametrize("command, spelling", [("uncertainty", "same"), ("uncertainty", "symlink"),
                                                   ("uncertainty", "config"), ("compare", "same")])
    def test_a_file_is_not_compared_with_itself(self, tmp_path, capsys, command, spelling):
        """The files a command sets against each other are distinct files: the replicas of ``uncertainty``
        and the runs of ``compare``. A symlink names the same file. Every file here is missing, and the output's
        directory too: the compared files are checked first."""
        out = str(tmp_path / "nodir" / "o.csv")
        first, second, rest = {
            "uncertainty": ("--reference", "--other", ["--probes", PROBES, "--curve-out", out]),
            "compare": ("--run-a", "--run-b", ["--qrels", str(tmp_path / "q.txt"), "--out", out]),
        }[command]
        path = str(tmp_path / "missing")
        again = str(tmp_path / "link") if spelling == "symlink" else path
        os.symlink(path, tmp_path / "link")  # a dangling link resolves to the same missing file
        if spelling == "config":  # the second file comes from the config file, the first from its flag
            (tmp_path / "cfg.txt").write_text(f"{second[2:].replace('-', '_')} = {path}\n")
            rest += ["--config", str(tmp_path / "cfg.txt")]
        else:
            rest += [second, again]
        assert main([command, first, path, *rest]) == 1
        assert capsys.readouterr().err == f"error: {second} {again}: the same file as {first}\n"
        assert {p.name for p in tmp_path.iterdir()} <= {"link", "cfg.txt"}  # nothing written

    @pytest.mark.parametrize("command, outputs, reported, message", [
        ("threshold", ["--out", "t.csv", "--curve-out", "t.csv"], 1, "the same file as --out"),
        ("uncertainty", ["--curve-out", "c.csv", "--histogram-out", "./c.csv"], 1, "the same file as --curve-out"),
        ("threshold", ["--out", "nodir/t.csv", "--curve-out", "c.csv"], 0, "no such directory"),
        ("uncertainty", ["--curve-out", "c.csv", "--histogram-out", "nodir/h.csv"], 1, "no such directory"),
        ("index", ["--out", "nodir/i.npz"], 0, "no such directory"),
        ("index", ["--out", "."], 0, "is a directory"),
        ("evaluate", ["--out", "run.txt"], 0, "the same file as --run"),
        ("compare", ["--out", "./b.txt"], 0, "the same file as --run-b"),
        ("threshold", ["--out", "m1.vec"], 0, "the same file as --models"),
        ("uncertainty", ["--curve-out", "c.csv", "--histogram-out", "p.txt"], 1, "the same file as --probes"),
        ("search", ["--out", "t.tsv"], 0, "the same file as --topics"),
        ("evaluate", ["--config", "cfg.txt", "--out", "cfg.txt"], 1, "the same file as --config"),
        ("threshold", ["--out", ""], 0, "empty path"),
        ("uncertainty", ["--curve-out", ""], 0, "empty path"),
        ("histogram", ["--out", ""], 0, "empty path"),
        ("index", ["--out", ""], 0, "empty path"),
    ], ids=["threshold-same-file", "uncertainty-same-file", "threshold-no-directory", "uncertainty-no-directory",
            "index-no-directory", "index-a-directory", "evaluate-the-run", "compare-a-run", "threshold-a-replica",
            "uncertainty-the-probes", "search-the-topics", "evaluate-the-config", "threshold-empty",
            "uncertainty-empty", "histogram-empty", "index-empty"])
    def test_outputs_checked_before_the_reads(self, tmp_path, capsys, command, outputs, reported, message):
        inputs = {
            "threshold": ["--models", "m0.vec", "m1.vec", "--probes", "p.txt"],
            "uncertainty": ["--reference", "m0.vec", "--other", "m1.vec", "--probes", "p.txt"],
            "histogram": ["--model", "m0.vec", "--probes", "p.txt"],
            "index": ["--corpus", "c.jsonl"],
            "search": ["--index", "i.npz", "--topics", "t.tsv"],
            "evaluate": ["--run", "run.txt", "--qrels", "q.txt"],
            "compare": ["--run-a", "a.txt", "--run-b", "b.txt", "--qrels", "q.txt"],
        }[command]
        argv = [a if a.startswith("--") or not a else os.path.join(tmp_path, a) for a in inputs + outputs]
        if "--config" in argv:  # the one input read before the check, which needs its settings
            Path(argv[argv.index("--config") + 1]).write_text("cutoff = 5\n")
        before = {p: p.read_bytes() for p in tmp_path.iterdir()}
        flag, path = argv[len(inputs) + 2 * reported:][:2]
        assert main([command, *argv]) == 1
        assert capsys.readouterr().err == f"error: {flag} {path or repr(path)}: {message}\n"
        assert {p: p.read_bytes() for p in tmp_path.iterdir()} == before  # no output written

    def test_an_empty_optional_output_is_unset(self, tmp_path, capsys):
        assert main(["neighbors", "--model", REPLICAS[0], "--term", "alpha", "--k", "2", "--out", ""]) == 0
        assert capsys.readouterr().out.startswith("token,similarity\n")
        out = tmp_path / "t.csv"
        assert main(["threshold", "--models", *REPLICAS, "--probes", PROBES, "--out", str(out), "--curve-out", ""]) == 0
        assert list(tmp_path.iterdir()) == [out]

    @pytest.mark.parametrize("command, files", [
        ("evaluate", ["--run", "run.txt", "--qrels", "qrels.txt"]),
        ("compare", ["--run-a", "a.txt", "--run-b", "b.txt", "--qrels", "qrels.txt", "--metric", "map"]),
    ])
    def test_cutoff_checked_before_the_runs(self, tmp_path, capsys, command, files):
        missing = [str(tmp_path / f) if f.endswith(".txt") else f for f in files]
        rc = main([command, *missing, "--cutoff", "0", "--out", str(tmp_path / "report.csv")])
        assert rc == 1
        assert capsys.readouterr().err == "error: cutoff must be >= 1\n"
        assert not (tmp_path / "report.csv").exists()


class TestDoubleDashValue:
    """``--flag=--`` gives a setting the value ``--`` on every supported Python: argparse before 3.13 hands
    it over as an empty list, which used to end these commands with a ``TypeError`` traceback."""

    def test_search_writes_the_run_tag(self, tmp_path, capsys):
        _, topics, _, _, index_path = search_world(tmp_path)
        run = tmp_path / "run.txt"
        assert main(["search", "--index", str(index_path), "--topics", str(topics), "--run-tag=--",
                     "--out", str(run)]) == 0
        assert {line.split()[5] for line in run.read_text().splitlines()} == {"--"}

    @pytest.mark.parametrize("argv, err", [
        (["evaluate", "--run=--", "--qrels", "q.txt"], "No such file or directory: --"),
        (["evaluate", "--config=--", "--run", "r.txt", "--qrels", "q.txt"], "No such file or directory: --"),
        (["threshold", "--probes=--", "--models", "a.vec", "b.vec", "--out", "t.csv"], "No such file or directory: --"),
        (["histogram", "--bins=--", "--model", "m.vec", "--probes", "p.txt", "--out", "h.csv"],
         "--bins: invalid int value: '--'"),
        (["neighbors", "--term=--", "--model", REPLICAS[0], "--k", "2"],
         f"token '--' not in vocabulary of model '{REPLICAS[0]}'"),
    ], ids=["evaluate-run", "evaluate-config", "threshold-probes", "histogram-bins", "neighbors-term"])
    def test_fails_in_one_line(self, tmp_path, capsys, monkeypatch, argv, err):
        monkeypatch.chdir(tmp_path)  # every relative file named is missing
        assert main(argv) == 1
        assert capsys.readouterr().err == f"error: {err}\n"
        assert not any(tmp_path.iterdir())


class TestMoreEdges:
    @pytest.mark.skipif(not hasattr(os, "mkfifo") or not Path(f"/proc/{os.getpid()}/task").exists(),
                        reason="needs named pipes and /proc child lists")
    @pytest.mark.parametrize("stop", ["process-group", "command-only", "worker-killed"])
    def test_ctrl_c_while_replicas_load(self, tmp_path, stop):
        # The replicas are named pipes nobody writes to, so each loading worker blocks opening one
        # until it is stopped. A SIGINT to the whole process group (Ctrl-C) or to the command's
        # process alone, or a worker killed (as for memory), must stop the command and every
        # worker, running loads included, with one line on stderr and no traceback. Pinned to one
        # CPU, one worker loads the two replicas.
        replicas = [tmp_path / "r0.vec", tmp_path / "r1.vec"]
        for path in replicas:
            os.mkfifo(path)
        # with faulthandler on, a SIGABRT makes each process print every thread's stack before it dies
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]),
                   PYTHONFAULTHANDLER="1")
        cpu = min(os.sched_getaffinity(0)) if hasattr(os, "sched_setaffinity") else None
        proc = subprocess.Popen(
            [sys.executable, "-m", "simthresh.cli", "uncertainty", "--reference", str(replicas[0]),
             "--other", str(replicas[1]), "--probes", PROBES, "--curve-out", str(tmp_path / "c.csv")],
            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True, start_new_session=True,
            preexec_fn=None if cpu is None else lambda: os.sched_setaffinity(0, {cpu}),  # acts on the child only
        )
        try:
            deadline = time.monotonic() + 30
            while not (workers := Path(f"/proc/{proc.pid}/task/{proc.pid}/children").read_text().split()):
                assert time.monotonic() < deadline, "no worker process started"
                time.sleep(0.05)
            wchan = Path(f"/proc/{workers[0]}/wchan")  # the one worker's kernel wait, where the kernel shows it
            if wchan.exists():  # stop the command once that worker is blocked opening its replica, mid-load
                while wchan.read_text() != "wait_for_partner":
                    assert time.monotonic() < deadline, f"worker {workers[0]} never blocked opening its replica"
                    time.sleep(0.01)
            else:
                time.sleep(0.5)  # lets the workers reach the blocking open
            if stop == "worker-killed":
                os.kill(int(workers[0]), signal.SIGKILL)
            else:
                (os.killpg if stop == "process-group" else os.kill)(proc.pid, signal.SIGINT)
            try:
                _, err = proc.communicate(timeout=10)
            except subprocess.TimeoutExpired:
                os.killpg(proc.pid, signal.SIGABRT)
                try:
                    _, err = proc.communicate(timeout=10)
                except subprocess.TimeoutExpired:
                    os.killpg(proc.pid, signal.SIGKILL)
                    _, err = proc.communicate()
                pytest.fail(f"the command outlived the {stop} stop by 10 s; its stderr after a SIGABRT:\n{err}")
            deadline = time.monotonic() + 5
            while alive := [pid for pid in workers if Path(f"/proc/{pid}").exists()]:
                assert time.monotonic() < deadline, f"worker processes {alive} outlived the command"
                time.sleep(0.05)
        finally:
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
        if stop == "worker-killed":
            assert (proc.returncode, err) == (1, "error: a worker loading replicas died (exit code -9)\n")
        else:  # 130 is the status a shell reports for a command stopped by SIGINT
            assert (proc.returncode, err) == (130, "error: interrupted\n")
        assert not (tmp_path / "c.csv").exists()

    def test_binary_format_plumbed_through(self, tmp_path):
        model = EmbeddingModel.from_arrays(
            ["a", "b", "c"], np.array([[1.0, 0, 0], [0.9, np.sqrt(1 - 0.81), 0], [0, 0, 1.0]]), "bin"
        )
        path = tmp_path / "m.bin"
        path.write_bytes(word2vec_bytes(model, "word2vec_binary"))
        out = tmp_path / "nn.csv"
        rc = main(["neighbors", "--model", str(path), "--format", "word2vec_binary",
                   "--term", "a", "--k", "1", "--out", str(out)])
        assert rc == 0
        assert out.read_text().splitlines()[1].startswith("b,")

    @pytest.mark.parametrize("how", ["neighbors", "search", "config"])
    def test_nan_threshold_rejected(self, tmp_path, capsys, how):
        # every comparison with NaN is false: unchecked, it selected the whole vocabulary
        _, topics, _, model_path, index_path = search_world(tmp_path)
        config, out = tmp_path / "nan.cfg", tmp_path / "out.txt"
        config.write_text(f"model = {model_path}\nterm = similar\nthreshold = nan\n")
        argv = {
            "neighbors": ["neighbors", "--model", model_path, "--term", "similar", "--threshold", "nan"],
            "search": ["search", "--index", index_path, "--topics", topics, "--policy", "threshold",
                       "--threshold", "nan", "--model", model_path],
            "config": ["neighbors", "--config", config],
        }[how]
        capsys.readouterr()
        assert main([*map(str, argv), "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: threshold must be a number, got nan\n"
        assert not out.exists()

    @pytest.mark.parametrize("how", ["flag", "config"])
    @pytest.mark.parametrize("setting, value, message", [
        ("threshold", "nan", "threshold must be a number, got nan"),
        ("mu", "inf", "mu must be positive and finite, got inf"),
    ])
    def test_search_setting_rejected_without_a_query_stem_in_the_model(self, tmp_path, capsys, how, setting,
                                                                       value, message):
        # the model holds no query stem, so no neighbor query ever sees the threshold
        _, topics, _, _, index_path = search_world(tmp_path)
        model_path, out = tmp_path / "stemless.vec", tmp_path / "run.txt"
        stemless = EmbeddingModel.from_arrays(["unrelat", "other"], np.eye(2), "stemless")
        model_path.write_bytes(word2vec_bytes(stemless))
        settings = dict(index=index_path, topics=topics, policy="threshold", threshold="0.5", model=model_path)
        settings[setting] = value
        if how == "flag":
            argv = as_flags("search", settings)
        else:
            as_config(tmp_path / "search.cfg", settings)
            argv = ["search", "--config", str(tmp_path / "search.cfg")]
        capsys.readouterr()
        assert main([*argv, "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("policy", [["--policy", "none"], ["--policy", "threshold", "--threshold", "0.5"],
                                        ["--policy", "knn", "--k", "2"]], ids=["none", "threshold", "knn"])
    def test_search_summary_counts_query_terms_missing_from_the_model(self, tmp_path, capsys, policy):
        # The topics' distinct stems are similar, threshold, retriev and evalu; the model lacks evalu.
        _, topics, _, model_path, index_path = search_world(tmp_path)
        capsys.readouterr()
        assert main(["search", "--index", str(index_path), "--topics", str(topics), *policy,
                     "--model", str(model_path), "--out", str(tmp_path / "r.txt")]) == 0
        summary = f"scored 2 topics under policy {policy[1]}"
        if policy[1] != "none":
            summary += "; 1 of 4 query terms not in the model"
        assert capsys.readouterr().out == summary + "\n"

    def test_search_duplicate_topic_fails(self, tmp_path, capsys):
        _, _, _, _, index_path = search_world(tmp_path)
        topics = tmp_path / "topics.tsv"
        topics.write_text("9\tsimilarity threshold\n# note\n10\tretrieval\n9\tevaluation\n")
        rc = main(["search", "--index", str(index_path), "--topics", str(topics), "--out", str(tmp_path / "r.txt")])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {topics}:4: duplicate topic '9' (first on line 1)\n"
        assert not (tmp_path / "r.txt").exists()

    def test_search_empty_query_topic_fails(self, tmp_path, capsys):
        _, _, _, _, index_path = search_world(tmp_path)
        topics = tmp_path / "bad_topics.tsv"
        topics.write_text("9\tthe of and\n")  # all stopwords
        rc = main(["search", "--index", str(index_path), "--topics", str(topics),
                   "--policy", "none", "--out", str(tmp_path / "r.txt")])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {topics}: topic 9: query empty after preprocessing\n"
        assert not (tmp_path / "r.txt").exists()


def pipeline_world(tmp_path):
    """Inputs for every command: the search world plus two runs, synsets and stopwords."""
    corpus, topics, qrels, model_path, index_path = search_world(tmp_path)
    runs = [tmp_path / "run_none.txt", tmp_path / "run_thr.txt"]
    assert main(["search", "--index", str(index_path), "--topics", str(topics), "--out", str(runs[0])]) == 0
    assert main(["search", "--index", str(index_path), "--topics", str(topics), "--policy", "threshold",
                 "--threshold", "0.5", "--model", str(model_path), "--out", str(runs[1])]) == 0
    synsets = tmp_path / "synsets.txt"
    synsets.write_text("a b c\na d\n")
    stopwords = tmp_path / "stop.txt"
    stopwords.write_text("the\nof\nfunctions\n")
    trec = tmp_path / "corpus.trec"
    trec.write_text("<DOC>\n<DOCNO>\nt1\n</DOCNO>\n<TEXT>\nsimilarity threshold\nstudies\n</TEXT>\n</DOC>\n"
                    "<DOC>\n<DOCNO>t2</DOCNO>\n<TEXT>retrieval evaluation</TEXT>\n</DOC>\n")
    return dict(corpus=corpus, topics=topics, qrels=qrels, model=model_path, index=index_path,
                runs=runs, synsets=synsets, stopwords=stopwords, trec=trec)


def command_settings(w, out):
    """Non-default settings for every command; output files go under ``out``."""
    return {
        "uncertainty": dict(reference=REPLICAS[0], other=REPLICAS[1], probes=PROBES, format="word2vec_text",
                            bins="40", domain_low="-1.0", domain_high="0.9",
                            curve_out=out / "curve.csv", histogram_out=out / "hist.csv"),
        "histogram": dict(model=REPLICAS[2], probes=PROBES, bins="30", domain_low="-0.5",
                          domain_high="1.0", out=out / "hist.csv"),
        "neighbors": dict(model=REPLICAS[0], term="alpha", threshold="0.1"),
        "threshold": dict(models=REPLICAS[:4], probes=PROBES, target="2.5",
                          confidence="0.9", grid_low="-0.5", grid_high="1.0", grid_points="1201",
                          out=out / "t.csv", curve_out=out / "curve.csv"),
        "synonym-stats": dict(synsets=w["synsets"], out=out / "stats.csv"),
        "index": dict(corpus=w["corpus"], stopwords=w["stopwords"], no_stem=True, out=out / "index.npz"),
        "search": dict(index=w["index"], topics=w["topics"], policy="knn", k="2", model=w["model"],
                       format="word2vec_text", mu="50", run_tag="cfg", max_docs="3", out=out / "run.txt"),
        "evaluate": dict(run=w["runs"][1], qrels=w["qrels"], cutoff="3", no_condense=True,
                         out=out / "report.csv"),
        "compare": dict(run_a=w["runs"][1], run_b=w["runs"][0], qrels=w["qrels"], metric="ndcg", cutoff="3",
                        no_condense=True, out=out / "cmp.csv"),
    }


def as_flags(command, settings):
    argv = [command]
    for key, value in settings.items():
        flag = "--" + key.replace("_", "-")
        if value is True:
            argv.append(flag)
        else:
            argv += [flag, *map(str, value if isinstance(value, list) else [value])]
    return argv


def as_config(path, settings):
    def text(value):
        return "true" if value is True else " ".join(map(str, value)) if isinstance(value, list) else str(value)
    path.write_text("# generated\n" + "".join(f"{key} = {text(v)}\n" for key, v in settings.items()))


def contents(path):
    if path.suffix == ".npz":  # zip member timestamps may differ, the arrays may not
        with np.load(path, allow_pickle=False) as archive:
            return {name: (archive[name].dtype.str, archive[name].tobytes()) for name in archive.files}
    return path.read_bytes()


def run_and_collect(argv, out, capsys):
    capsys.readouterr()
    assert main(argv) == 0
    files = {p.name: contents(p) for p in sorted(out.iterdir()) if p.suffix != ".cfg"}
    return capsys.readouterr().out, files


class TestImportedModules:
    """Each command imports only the modules it runs: numpy and scipy cost a
    short command most of its time. Each case runs in a fresh process, whose
    ``sys.modules`` is read when it ends."""

    NUMERIC = {"numpy", "scipy"}
    TTEST = {"logging", "statistics"}  # only compare's t-test uses them (index and search log through retrieval)
    CASES = {  # case -> (modules it must not load, a module it must load)
        "import-simthresh": (NUMERIC, "simthresh"),
        "import-cli": (NUMERIC, "simthresh.cli"),
        "evaluate": (NUMERIC | TTEST, "simthresh.evaluation"),
        "compare": (NUMERIC, "statistics"),
        "search": ({"scipy", "numpy.ma", "statistics"}, "numpy"),
        "threshold": ({"statistics"}, "scipy.special"),
        "uncertainty": ({"scipy"} | TTEST, "numpy"),
        "histogram": ({"scipy"} | TTEST, "numpy"),
        "neighbors": ({"scipy", "statistics"}, "numpy"),
        "synonym-stats": ({"scipy"} | TTEST, "numpy"),
        "index": ({"scipy", "statistics", "simthresh.embeddings"}, "numpy"),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_only_what_the_command_runs(self, tmp_path, case):
        forbidden, needed = self.CASES[case]
        if case.startswith("import-"):
            code, argv = f"import {needed}", []
        else:
            code = "from simthresh.cli import main; assert main(sys.argv[1:]) == 0"
            argv = as_flags(case, command_settings(pipeline_world(tmp_path), tmp_path)[case])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run([sys.executable, "-c", f"import sys; {code}; print(*sorted(sys.modules))", *argv],
                              env=env, capture_output=True, text=True, check=True)
        loaded = set(proc.stdout.splitlines()[-1].split())
        assert needed in loaded
        assert not {m for m in loaded for f in forbidden if m == f or m.startswith(f + ".")}, case


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(), reason="needs fork")
class TestReplicasReadInWorkers:
    """The commands that name their terms before reading two or more models
    never build an ``EmbeddingModel`` in their own process: only the forked
    workers of ``load_reduced`` hold a whole replica. A command that reads one
    model loads it in its own process, without a worker."""

    @staticmethod
    def argv(command, out):
        return {
            "uncertainty": ["--reference", REPLICAS[0], "--other", REPLICAS[1], "--probes", PROBES,
                            "--curve-out", str(out / "curve.csv"), "--histogram-out", str(out / "hist.csv")],
            "threshold": ["--models", *REPLICAS, "--probes", PROBES, "--out", str(out / "t.csv")],
            "histogram": ["--model", REPLICAS[0], "--probes", PROBES, "--out", str(out / "hist.csv")],
            "neighbors": ["--model", REPLICAS[0], "--term", "alpha", "--k", "2", "--out", str(out / "nn.csv")],
        }[command]

    def run_on(self, cpus, command, out):
        """Run ``command`` under all CPUs, or pinned to one CPU of the affinity mask."""
        if cpus == "one" and not hasattr(os, "sched_setaffinity"):
            pytest.skip("needs os.sched_setaffinity")
        mask = os.sched_getaffinity(0) if cpus == "one" else None
        if mask is not None:
            os.sched_setaffinity(0, {min(mask)})
        try:
            assert main([command, *self.argv(command, out)]) == 0
        finally:
            if mask is not None:
                os.sched_setaffinity(0, mask)

    @pytest.mark.parametrize("cpus", ["all", "one"])
    @pytest.mark.parametrize("command", ["uncertainty", "threshold"])
    def test_no_whole_model_in_the_command(self, tmp_path, monkeypatch, command, cpus):
        pid, build = os.getpid(), EmbeddingModel.__post_init__

        def in_workers_only(model):
            assert os.getpid() != pid, f"{command} built a whole model in its own process"
            build(model)

        monkeypatch.setattr(EmbeddingModel, "__post_init__", in_workers_only)
        self.run_on(cpus, command, tmp_path)

    @pytest.mark.parametrize("cpus", ["all", "one"])
    @pytest.mark.parametrize("command", ["histogram", "neighbors"])
    def test_one_model_loads_in_the_command(self, tmp_path, monkeypatch, command, cpus):
        pid, build, built = os.getpid(), EmbeddingModel.__post_init__, []

        def in_this_process(model):
            built.append(os.getpid())
            build(model)

        def no_worker(process):
            raise AssertionError("a worker process was started for one model")

        monkeypatch.setattr(EmbeddingModel, "__post_init__", in_this_process)
        monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", no_worker)  # every context's Process
        self.run_on(cpus, command, tmp_path)
        assert built == [pid]


class CaseTimeout(BaseException):
    """Raised by the alarm of a case that outlives its bound; no handler in ``main`` catches it."""


class TestInputContract:
    """Every input of every command, damaged in a seeded way, either runs
    (exit 0) or fails with exactly one ``error:`` line (exit 1). No exception
    leaves ``main``, and no case outlives its time bound."""

    CASES = 30  # seeded cases per command, plus one huge-field case, so about 340 in all
    BOUND_S = 20
    INPUTS = {name for name, opt in OPTIONS.items() if opt.role in ("input", "compared")}
    KINDS = ["flip", "truncate", "insert", "field", "duplicate", "delete", "swap"]

    @staticmethod
    def mutate(data: bytes, kind: str, rng: random.Random) -> bytes:
        at = rng.randrange(len(data) + 1)
        lines = data.splitlines(keepends=True) or [b""]
        i, j = rng.randrange(len(lines)), rng.randrange(len(lines))
        if kind == "flip" and data:
            at = min(at, len(data) - 1)
            return data[:at] + bytes([data[at] ^ rng.randrange(1, 256)]) + data[at + 1:]
        if kind == "truncate":
            return data[:at]
        if kind == "insert":
            return data[:at] + rng.choice([b"nan", b"1e999", b"\0", b"\r"]) + data[at:]
        if kind in ("field", "huge"):  # one whitespace-separated field becomes a non-finite number, or 1e200
            parts = re.split(rb"(\s+)", data)
            k = rng.randrange(0, len(parts), 2)
            value = b"1e200" if kind == "huge" else rng.choice([b"nan", b"1e999", b"-inf"])
            return b"".join(parts[:k] + [value] + parts[k + 1:])
        if kind == "duplicate":
            lines.insert(i, lines[i])
        elif kind == "delete":
            del lines[i]
        elif kind == "swap":
            lines[i], lines[j] = lines[j], lines[i]
        return b"".join(lines)

    @staticmethod
    def settings(case, world, out):
        command, _, variant = case.partition(":")
        settings = command_settings(world, out)[command]
        if variant == "trec":
            settings.update(corpus=world["trec"])
        elif variant == "synsets":
            del settings["target"]
            settings["synsets"] = world["synsets"]
        return command, settings

    @pytest.mark.parametrize("case", [*COMMANDS, "index:trec", "threshold:synsets"])
    def test_damaged_input_fails_in_one_line(self, tmp_path, capsys, case):
        world, rng = pipeline_world(tmp_path), random.Random(case)

        def alarm(signum, frame):
            raise CaseTimeout

        previous = signal.signal(signal.SIGALRM, alarm)
        try:
            for n in range(self.CASES + 1):  # the last case makes one field huge, drawn from a stream of its own
                draw = rng if n < self.CASES else random.Random(f"{case}:huge")
                out = tmp_path / f"case{n}"
                out.mkdir()
                command, settings = self.settings(case, world, out)
                key = draw.choice(sorted(self.INPUTS & set(settings)))
                paths = settings[key] if isinstance(settings[key], list) else [settings[key]]
                which, kind = draw.randrange(len(paths)), draw.choice(self.KINDS) if n < self.CASES else "huge"
                damaged = out / Path(paths[which]).name
                damaged.write_bytes(self.mutate(Path(paths[which]).read_bytes(), kind, draw))
                paths = [*paths[:which], damaged, *paths[which + 1:]]
                settings[key] = paths if isinstance(settings[key], list) else paths[0]
                label = f"{case} case {n}: {kind} of --{key.replace('_', '-')} {damaged.name}"
                capsys.readouterr()
                try:
                    signal.setitimer(signal.ITIMER_REAL, self.BOUND_S)
                    rc = main(as_flags(command, settings))
                except CaseTimeout:
                    rc = f"still running after {self.BOUND_S} s"
                except Exception as exc:
                    rc = f"{exc!r} left main"
                finally:
                    signal.setitimer(signal.ITIMER_REAL, 0)
                err = capsys.readouterr().err
                assert rc in (0, 1), f"{label}: {rc}"
                if rc == 1:
                    assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n"), (label, err)
                elif command == "index":  # no document dropped: one per <DOC> line, or per JSON line
                    lines = Path(settings["corpus"]).read_bytes().decode().split("\n")
                    trec = case.endswith(":trec")
                    expected = sum(line.lstrip().startswith("<DOC>") if trec else bool(line.strip()) for line in lines)
                    assert load_index(str(settings["out"])).doc_count == expected, label
        finally:
            signal.signal(signal.SIGALRM, previous)


class TestRunFields:
    """A run field is non-empty and left whole by ``str.split``. ``index`` rejects a document id, ``search`` a
    topic id or run tag, that breaks the rule, so every run ``search`` writes is one ``evaluate`` reads."""

    FIELD = st.text(st.sampled_from("a1# \t\u00a0\u2028\r\n,"), max_size=4) | st.text(max_size=4)

    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(doc_ids=st.lists(FIELD, min_size=2, max_size=2), topic_ids=st.lists(FIELD, min_size=2, max_size=2),
           tag=FIELD)
    @example(doc_ids=["1", "0"], topic_ids=["", ""], tag="--")
    def test_search_writes_only_runs_evaluate_reads(self, tmp_path, capsys, doc_ids, topic_ids, tag):
        corpus, topics, qrels, index, run = (tmp_path / name for name in ("c.jsonl", "t.tsv", "q.txt", "i.npz", "r"))
        for path in (index, run):
            path.unlink(missing_ok=True)
        corpus.write_text("".join(json.dumps({"id": d, "text": text}) + "\n"
                                  for d, text in zip(doc_ids, ["alpha beta", "beta gamma"])), encoding="utf-8")
        topics.write_text("".join(f"{t}\t{text}\n" for t, text in zip(topic_ids, ["alpha", "gamma"])),
                          encoding="utf-8")
        qrels.write_text("1 0 d 1\n")
        capsys.readouterr()
        for argv in (["index", "--corpus", corpus, "--out", index],
                     ["search", "--index", index, "--topics", topics, f"--run-tag={tag}", "--out", run],
                     ["evaluate", "--run", run, "--qrels", qrels]):
            rc = main([str(arg) for arg in argv])
            err = capsys.readouterr().err
            if rc != 0:
                assert (rc, argv[0], err[:7], err.count("\n")) == (1, argv[0], "error: ", 1), err
                assert argv[0] != "evaluate" and not run.exists(), err
                return
        assert set(read_run(str(run))) == {topic_id for topic_id, _ in read_topics(str(topics))}


class TestLineEndings:
    def test_crlf_inputs_read_like_lf(self, tmp_path, capsys):
        w = pipeline_world(tmp_path)
        w["probes"] = Path(PROBES)
        results = []
        for ending in (b"\n", b"\r\n"):
            inputs, out = tmp_path / f"in{len(ending)}", tmp_path / f"out{len(ending)}"
            inputs.mkdir()
            out.mkdir()
            f = {name: inputs / name for name in ("probes", "topics", "qrels", "stopwords", "synsets", "trec")}
            for name, path in f.items():
                path.write_bytes(w[name].read_bytes().replace(b"\n", ending))
            results += [
                run_and_collect(["index", "--corpus", str(w["corpus"]), "--stopwords", str(f["stopwords"]),
                                 "--out", str(out / "index.npz")], out, capsys),
                run_and_collect(["search", "--index", str(out / "index.npz"), "--topics", str(f["topics"]),
                                 "--out", str(out / "run.txt")], out, capsys),
                run_and_collect(["evaluate", "--run", str(out / "run.txt"), "--qrels", str(f["qrels"])], out, capsys),
                run_and_collect(["threshold", "--models", *REPLICAS, "--probes", str(f["probes"]),
                                 "--synsets", str(f["synsets"]), "--out", str(out / "t.csv")], out, capsys),
                run_and_collect(["index", "--corpus", str(f["trec"]), "--out", str(out / "trec.npz")], out, capsys),
            ]
        assert results[:5] == results[5:]


class TestConfigFile:
    def test_parser(self, tmp_path):
        path = tmp_path / "x.cfg"
        path.write_text("# comment\nmu = 1\nrun_tag=two words\nmodels = a.vec  b.vec\nno_stem = Yes\n")
        values = read_config(str(path))
        assert values == {"mu": 1.0, "run_tag": "two words", "models": ["a.vec", "b.vec"], "no_stem": True}
        assert type(values["mu"]) is float

    def test_malformed(self, tmp_path):
        path = tmp_path / "x.cfg"
        path.write_text("no equals sign\n")
        with pytest.raises(ValueError):
            read_config(str(path))

    def test_file_roles(self):
        """Each file setting's role, from which ``resolve`` derives the file rules it checks before any read."""
        roles: dict[str, set[str]] = {}
        for name, opt in OPTIONS.items():
            roles.setdefault(opt.role, set()).add(name)
        del roles[""]  # the settings that name no file
        assert roles == {
            "compared": {"models", "reference", "other", "run_a", "run_b"},
            "input": {"model", "probes", "synsets", "stopwords", "corpus", "index", "topics", "run", "qrels"},
            "output": {"out", "curve_out", "histogram_out"},
        }

    def test_cases_cover_every_setting(self, tmp_path):
        cases = command_settings(pipeline_world(tmp_path), tmp_path)
        assert set(cases) == set(COMMANDS)
        assert set().union(*cases.values()) == set(OPTIONS)
        for command, settings in cases.items():
            _, _, required, optional = COMMANDS[command]
            assert set(settings) <= set(required + optional)

    @pytest.mark.parametrize("command", list(COMMANDS))
    def test_config_file_equals_flags(self, tmp_path, capsys, command):
        world = pipeline_world(tmp_path)
        results = []
        for how in ("flags", "config"):
            out = tmp_path / how
            out.mkdir()
            settings = command_settings(world, out)[command]
            if how == "flags":
                argv = as_flags(command, settings)
            else:
                as_config(out / "run.cfg", settings)
                argv = [command, "--config", str(out / "run.cfg")]
            results.append(run_and_collect(argv, out, capsys))
        assert results[0] == results[1]
        assert results[0][0] or results[0][1]

    @pytest.mark.parametrize("line, message", [
        ("bins = abc", "bins: invalid int value: 'abc'"),
        ("mu = high", "mu: invalid float value: 'high'"),
        ("format = word2vec_txt",
         "format: invalid choice: 'word2vec_txt' (choose from word2vec_text, word2vec_binary)"),
        ("policy = bm25", "policy: invalid choice: 'bm25' (choose from none, threshold, knn)"),
        ("metric = p10", "metric: invalid choice: 'p10' (choose from map, ndcg)"),
        ("no_stem = ture", "no_stem: invalid boolean value: 'ture'"),
        ("binz = 10", "binz: unknown setting"),
        ("corpus_format = trec", "corpus_format: unknown setting"),
        ("bins 10", "expected 'key = value'"),
        ("probes = other.txt", "probes: set twice (first on line 2)"),
    ], ids=["int", "float", "format", "policy", "metric", "bool", "unknown-key", "removed-key", "no-equals",
          "repeated-key"])
    def test_bad_line_names_file_and_line(self, tmp_path, capsys, line, message):
        config = tmp_path / "run.cfg"
        config.write_text(f"# settings\nprobes = {PROBES}\n{line}\nbins = 10\n")
        curve = tmp_path / "c.csv"
        rc = main(["uncertainty", "--config", str(config), "--reference", REPLICAS[0],
                   "--other", REPLICAS[1], "--curve-out", str(curve)])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {config}:3: {message}\n"
        assert not curve.exists()

    def test_keys_of_other_commands_allowed(self, tmp_path):
        config = tmp_path / "pipeline.cfg"
        config.write_text(f"probes = {PROBES}\nmu = 500\npolicy = knn\ncutoff = 5\nno_condense = true\n")
        out = tmp_path / "c.csv"
        assert main(["uncertainty", "--config", str(config), "--reference", REPLICAS[0],
                     "--other", REPLICAS[1], "--curve-out", str(out)]) == 0
        assert out.exists()

    @pytest.mark.parametrize("command, config, override", [
        ("uncertainty", "bins = 10", ["--bins", "20"]),
        ("threshold", f"models = {REPLICAS[0]} {REPLICAS[1]}", ["--models", *REPLICAS]),
        ("index", "no_stem = false", ["--no-stem"]),
    ], ids=["scalar", "list", "switch"])
    def test_flag_beats_config_file(self, tmp_path, capsys, command, config, override):
        world = pipeline_world(tmp_path)
        base = {
            "uncertainty": ["--reference", REPLICAS[0], "--other", REPLICAS[1], "--probes", PROBES],
            "threshold": ["--probes", PROBES, "--target", "2.5"],
            "index": ["--corpus", str(world["corpus"])],
        }[command]
        results = {}
        for how in ("flags", "config", "both"):
            out = tmp_path / how
            out.mkdir()
            (out / "run.cfg").write_text(config + "\n")
            argv = [command, *base, "--curve-out" if command == "uncertainty" else "--out", str(out / "o")]
            argv += ["--config", str(out / "run.cfg")] if how != "flags" else []
            argv += override if how != "config" else []
            results[how] = run_and_collect(argv, out, capsys)
        assert results["both"] == results["flags"]
        assert results["config"] != results["flags"]


README = Path(__file__).parent.parent / "README.md"


def readme_blocks(language):
    return re.findall(rf"```{language}\n(.*?)```", README.read_text(encoding="utf-8"), re.DOTALL)


def readme_invocations():
    lines = "\n".join(readme_blocks("bash")).replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("simthresh ")]


class TestReadme:
    def test_every_command_has_an_example(self):
        assert {argv[0] for argv in readme_invocations()} == set(COMMANDS)

    @pytest.mark.parametrize("argv", readme_invocations(), ids=lambda argv: argv[0])
    def test_example_parses_and_resolves(self, argv):
        resolve(build_parser().parse_args(argv))

    def test_help_prints_every_default(self, capsys):
        for command, (_, _, required, optional) in COMMANDS.items():
            with pytest.raises(SystemExit):
                main([command, "--help"])
            text = " ".join(capsys.readouterr().out.split())
            for name in required + optional:
                if OPTIONS[name].default is not None:
                    assert f"(default: {OPTIONS[name].default})" in text, (command, name)

    def test_config_example_reads(self, tmp_path):
        (block,) = readme_blocks("ini")
        path = tmp_path / "pipeline.cfg"
        path.write_text(block)
        assert read_config(str(path))

    def test_settings_table_lists_every_default(self):
        rows, roles, commands = {}, {}, {}
        for line in README.read_text(encoding="utf-8").splitlines():
            cells = [c.strip() for c in line.split("|")[1:-1]]
            for name in re.findall(r"`(\w+)`", cells[0]) if len(cells) == 4 else []:
                rows[name], roles[name] = cells[1], cells[2]
                listed = set(cells[3].removeprefix("all but ").split(", "))
                commands[name] = set(COMMANDS) - listed if cells[3].startswith("all but ") else listed
        assert set(rows) == set(OPTIONS)
        for name, opt in OPTIONS.items():
            assert roles[name] == opt.role, name
            if opt.default is not None:
                assert rows[name].lower() == str(opt.default).lower(), name
            registered = {c for c, (_, _, required, optional) in COMMANDS.items() if name in required + optional}
            assert commands[name] == registered, name
