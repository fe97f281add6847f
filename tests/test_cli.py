import json
from pathlib import Path

import numpy as np
import pytest

from simthresh.cli import main, read_config
from simthresh.embeddings import EmbeddingModel, save_model
from simthresh.evaluation import read_metric_report
from simthresh.retrieval import read_run
from simthresh.threshold import read_threshold_csv
from simthresh.uncertainty import read_histogram_csv, read_uncertainty_csv

DATA = Path(__file__).parent / "data"
REPLICAS = [str(DATA / f"toy_replica_{r}.vec") for r in range(5)]
PROBES = str(DATA / "toy_probes.txt")


def write_pair_replicas(tmp_path, sims):
    """Two-token replica files with prescribed pair similarities."""
    paths = []
    for r, s in enumerate(sims):
        vectors = np.array([[1.0, 0.0], [s, np.sqrt(1 - s * s)]])
        model = EmbeddingModel.from_arrays(["a", "b"], vectors, model_id=f"r{r}")
        path = tmp_path / f"pair_{r}.vec"
        save_model(model, str(path))
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
        out = tmp_path / "curve.csv"
        rc = main([
            "uncertainty", "--reference", REPLICAS[2], "--other", REPLICAS[2],
            "--probes", PROBES, "--curve-out", str(out),
        ])
        assert rc == 0
        curve = read_uncertainty_csv(str(out))
        populated = curve.pair_counts > 0
        assert populated.any()
        assert np.all(curve.mean_abs_diff[populated] == 0.0)

    def test_missing_probe_file(self, tmp_path, capsys):
        rc = main([
            "uncertainty", "--reference", REPLICAS[0], "--other", REPLICAS[1],
            "--probes", str(tmp_path / "nope.txt"), "--curve-out", str(tmp_path / "c.csv"),
        ])
        assert rc == 1
        assert "error" in capsys.readouterr().err

    def test_config_file_with_flag_override(self, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text(
            f"reference = {REPLICAS[0]}\nother = {REPLICAS[1]}\n"
            f"probes = {PROBES}\nbins = 10\n"
        )
        out_cfg = tmp_path / "c10.csv"
        assert main(["uncertainty", "--config", str(config), "--curve-out", str(out_cfg)]) == 0
        assert read_uncertainty_csv(str(out_cfg)).config.bin_count == 10
        out_flag = tmp_path / "c20.csv"
        rc = main([
            "uncertainty", "--config", str(config), "--bins", "20",
            "--curve-out", str(out_flag),
        ])
        assert rc == 0
        assert read_uncertainty_csv(str(out_flag)).config.bin_count == 20

    def test_golden_readable_by_repo_readers(self):
        curve = read_uncertainty_csv(str(DATA / "golden_uncertainty.csv"))
        assert curve.config.bin_count == 500
        hist = read_histogram_csv(str(DATA / "golden_histogram.csv"))
        assert hist.total == 2 * 5


class TestHistogramAndNeighbors:
    def test_histogram_command(self, tmp_path):
        out = tmp_path / "hist.csv"
        rc = main(["histogram", "--model", REPLICAS[0], "--probes", PROBES, "--out", str(out)])
        assert rc == 0
        assert read_histogram_csv(str(out)).total == 10

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

    def test_neighbors_flag_exclusivity(self, capsys):
        rc = main(["neighbors", "--model", REPLICAS[0], "--term", "beta",
                   "--threshold", "0.5", "--k", "2"])
        assert rc == 1
        assert "exactly one" in capsys.readouterr().err


class TestThresholdCommand:
    def test_toy_ensemble_report(self, tmp_path):
        out = tmp_path / "thresholds.csv"
        curve_out = tmp_path / "curve.csv"
        rc = main([
            "threshold", "--models", *REPLICAS, "--probes", PROBES,
            "--target", "2.5", "--out", str(out), "--curve-out", str(curve_out),
        ])
        assert rc == 0
        rows = read_threshold_csv(str(out))
        assert len(rows) == 1
        dim, lower, mainv, upper = rows[0]
        assert dim == 4
        assert lower <= mainv <= upper
        assert curve_out.exists()

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
        _, lower, mainv, upper = read_threshold_csv(str(out))[0]
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
        err = capsys.readouterr().err
        assert "missingterm" in err
        assert "replica" in err

    def test_numeric_target_without_synsets_accepted(self, tmp_path):
        out = tmp_path / "t.csv"
        rc = main([
            "threshold", "--models", *REPLICAS, "--probes", PROBES,
            "--target", "1.6", "--out", str(out),
        ])
        assert rc == 0

    def test_synset_file_target(self, tmp_path):
        synsets = tmp_path / "synsets.txt"
        # mean synonym count 2.0 over {a, b, c, d}
        synsets.write_text("a b c\na d\n")
        out = tmp_path / "t.csv"
        rc = main([
            "threshold", "--models", *REPLICAS, "--probes", PROBES,
            "--synsets", str(synsets), "--out", str(out),
        ])
        assert rc == 0


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
    save_model(model, str(model_path))
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

    def test_evaluate_and_compare(self, tmp_path, capsys):
        _, topics, qrels, model_path, index_path = search_world(tmp_path)
        run = tmp_path / "run.txt"
        assert main(["search", "--index", str(index_path), "--topics", str(topics),
                     "--policy", "none", "--out", str(run)]) == 0
        report = tmp_path / "report.csv"
        rc = main(["evaluate", "--run", str(run), "--qrels", str(qrels),
                   "--out", str(report)])
        assert rc == 0
        loaded = read_metric_report(str(report))
        assert set(loaded) == {"1", "2", "all"}
        assert all(0.0 <= v <= 1.0 for row in loaded.values() for v in row.values())

        cmp_csv = tmp_path / "cmp.csv"
        rc = main(["compare", "--run-a", str(run), "--run-b", str(run),
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
        rc = main(["index", "--corpus", str(trec), "--corpus-format", "trec",
                   "--out", str(out)])
        assert rc == 0

    def test_duplicate_doc_id_fails(self, tmp_path, capsys):
        corpus = tmp_path / "c.jsonl"
        corpus.write_text('{"id": "d1", "text": "x"}\n{"id": "d1", "text": "y"}\n')
        rc = main(["index", "--corpus", str(corpus), "--out", str(tmp_path / "i.json")])
        assert rc == 1
        assert "duplicate" in capsys.readouterr().err


def _json_file(path):
    path.write_text('{"postings": {}}')


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


class TestBadInputs:
    @pytest.mark.parametrize("damage, message", [
        (_json_file, "not a readable index archive"),
        (_truncated, "not a readable index archive"),
        (_missing_member, "tfs"),
        (_offsets_overrun, "postings offsets disagree with the postings"),
    ], ids=["json", "truncated", "missing-member", "offsets-overrun"])
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

    def test_max_docs_below_one_rejected(self, tmp_path, capsys):
        _, topics, _, _, index_path = search_world(tmp_path)
        out = tmp_path / "r.txt"
        rc = main(["search", "--index", str(index_path), "--topics", str(topics),
                   "--max-docs", "-990", "--out", str(out)])
        assert rc == 1
        assert "max_docs must be >= 1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("which, lines, lineno, message", [
        ("run", ["1 Q0 d1 1 -1.5 t", "1 Q0 d2 2 abc t"], 2, "could not convert string to float"),
        ("qrels", ["1 0 d1 1", "1 0 d2 x"], 2, "invalid literal for int()"),
        ("qrels", ["1 0 d1 -1"], 1, "negative grade"),
        ("qrels", ["1 0 d1 1", "", "1 0 d1 0"], 3, "duplicate judgment"),
    ], ids=["run-score", "qrels-grade", "qrels-negative", "qrels-duplicate"])
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


class TestMoreEdges:
    def test_binary_format_plumbed_through(self, tmp_path):
        model = EmbeddingModel.from_arrays(
            ["a", "b", "c"], np.array([[1.0, 0, 0], [0.9, np.sqrt(1 - 0.81), 0], [0, 0, 1.0]]), "bin"
        )
        path = tmp_path / "m.bin"
        save_model(model, str(path), fmt="word2vec_binary")
        out = tmp_path / "nn.csv"
        rc = main(["neighbors", "--model", str(path), "--format", "word2vec_binary",
                   "--term", "a", "--k", "1", "--out", str(out)])
        assert rc == 0
        assert out.read_text().splitlines()[1].startswith("b,")

    def test_search_empty_query_topic_fails(self, tmp_path, capsys):
        _, _, _, _, index_path = search_world(tmp_path)
        topics = tmp_path / "bad_topics.tsv"
        topics.write_text("9\tthe of and\n")  # all stopwords
        rc = main(["search", "--index", str(index_path), "--topics", str(topics),
                   "--policy", "none", "--out", str(tmp_path / "r.txt")])
        assert rc == 1
        assert "empty after preprocessing" in capsys.readouterr().err


class TestConfigFile:
    def test_parser(self, tmp_path):
        path = tmp_path / "x.cfg"
        path.write_text("# comment\nalpha = 1\nbeta=two words\n")
        assert read_config(str(path)) == {"alpha": "1", "beta": "two words"}

    def test_malformed(self, tmp_path):
        path = tmp_path / "x.cfg"
        path.write_text("no equals sign\n")
        with pytest.raises(ValueError):
            read_config(str(path))
