import weakref

import numpy as np
import pytest

from simthresh.embeddings import (
    EmbeddingModel,
    ModelEnsemble,
    ModelFormatError,
    load_model,
    save_model,
)

from conftest import hub_model, random_model


class TestLoading:
    def test_text_load_normalizes(self, tmp_path):
        path = tmp_path / "m.vec"
        path.write_text("2 3\na 1 0 0\nb 0 2 0\n")
        model = load_model(str(path))
        np.testing.assert_array_equal(model.vector("a"), [1.0, 0.0, 0.0])
        np.testing.assert_array_equal(model.vector("b"), [0.0, 1.0, 0.0])

    def test_record_count_mismatch(self, tmp_path):
        path = tmp_path / "m.vec"
        path.write_text("3 3\na 1 0 0\nb 0 2 0\n")
        with pytest.raises(ModelFormatError, match="promises 3"):
            load_model(str(path))

    def test_too_many_records(self, tmp_path):
        path = tmp_path / "m.vec"
        path.write_text("1 2\na 1 0\nb 0 1\n")
        with pytest.raises(ModelFormatError, match="more records"):
            load_model(str(path))

    def test_zero_vector_rejected(self, tmp_path):
        path = tmp_path / "m.vec"
        path.write_text("2 3\na 1 0 0\nc 0 0 0\n")
        with pytest.raises(ModelFormatError, match="zero-norm"):
            load_model(str(path))

    def test_malformed_header(self, tmp_path):
        path = tmp_path / "m.vec"
        path.write_text("banana\na 1 0 0\n")
        with pytest.raises(ModelFormatError, match="header"):
            load_model(str(path))

    def test_wrong_component_count(self, tmp_path):
        path = tmp_path / "m.vec"
        path.write_text("1 3\na 1 0\n")
        with pytest.raises(ModelFormatError, match="components"):
            load_model(str(path))

    def test_non_finite_component(self, tmp_path):
        path = tmp_path / "m.vec"
        path.write_text("1 3\na 1 nan 0\n")
        with pytest.raises(ModelFormatError, match="non-finite"):
            load_model(str(path))

    def test_duplicate_token(self, tmp_path):
        path = tmp_path / "m.vec"
        path.write_text("2 2\na 1 0\na 0 1\n")
        with pytest.raises(ModelFormatError, match="duplicate"):
            load_model(str(path))

    def test_unknown_format(self, tmp_path):
        with pytest.raises(ValueError, match="unknown format"):
            load_model(str(tmp_path / "x"), fmt="word2vec_quantized")


class TestRoundTrip:
    def test_text_round_trip_bitwise(self, tmp_path, rng):
        model = random_model(rng, 20, 7)
        p1, p2 = tmp_path / "a.vec", tmp_path / "b.vec"
        save_model(model, str(p1))
        loaded = load_model(str(p1))
        save_model(loaded, str(p2))
        reloaded = load_model(str(p2))
        assert loaded.vocabulary == model.vocabulary
        np.testing.assert_array_equal(loaded.vectors, reloaded.vectors)
        np.testing.assert_array_equal(model.vectors, loaded.vectors)

    def test_binary_round_trip_bitwise(self, tmp_path, rng):
        model = random_model(rng, 20, 7)
        p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
        save_model(model, str(p1), fmt="word2vec_binary")
        loaded = load_model(str(p1), fmt="word2vec_binary")
        save_model(loaded, str(p2), fmt="word2vec_binary")
        reloaded = load_model(str(p2), fmt="word2vec_binary")
        assert loaded.vocabulary == model.vocabulary
        np.testing.assert_array_equal(loaded.vectors, reloaded.vectors)
        assert np.all(np.abs(np.linalg.norm(loaded.vectors, axis=1) - 1.0) <= 1e-6)

    def test_binary_truncation_detected(self, tmp_path, rng):
        model = random_model(rng, 5, 4)
        path = tmp_path / "m.bin"
        save_model(model, str(path), fmt="word2vec_binary")
        blob = path.read_bytes()
        path.write_bytes(blob[:-6])
        with pytest.raises(ModelFormatError):
            load_model(str(path), fmt="word2vec_binary")

    def test_unserializable_token(self, tmp_path):
        model = EmbeddingModel.from_arrays(["a b"], np.array([[1.0, 0.0]]))
        with pytest.raises(ValueError, match="serialized"):
            save_model(model, str(tmp_path / "m.vec"))


class TestCosine:
    def test_self_similarity(self):
        model = hub_model({"b": 0.9})
        assert model.cosine("a", "a") == 1.0

    def test_orthogonal(self):
        model = EmbeddingModel.from_arrays(["a", "b"], np.array([[1.0, 0, 0], [0, 1.0, 0]]))
        assert model.cosine("a", "b") == 0.0

    def test_hand_value(self):
        model = EmbeddingModel.from_arrays(["a", "b"], np.array([[1.0, 0, 0], [1.0, 1.0, 0]]))
        assert model.cosine("a", "b") == pytest.approx(np.sqrt(0.5), abs=1e-9)

    def test_symmetry_exact(self, rng):
        model = random_model(rng, 30, 9)
        for t1, t2 in [("t0001", "t0015"), ("t0029", "t0003"), ("t0007", "t0007")]:
            assert model.cosine(t1, t2) == model.cosine(t2, t1)

    def test_unknown_token(self):
        model = hub_model({"b": 0.5})
        with pytest.raises(KeyError, match="zzz"):
            model.cosine("a", "zzz")


class TestNeighborQueries:
    def test_threshold_filtering(self):
        model = hub_model({"b": 0.9, "c": 0.7, "d": 0.2})
        assert model.neighbors_above("a", 0.65) == [
            ("b", pytest.approx(0.9)),
            ("c", pytest.approx(0.7)),
        ]

    def test_above_one_empty(self, rng):
        model = random_model(rng, 10, 4)
        assert model.neighbors_above("t0000", 1.0 + 1e-9) == []

    def test_minus_one_returns_everything(self, rng):
        model = random_model(rng, 10, 4)
        assert len(model.neighbors_above("t0000", -1.0)) == 9

    def test_knn_topk(self):
        model = hub_model({"b": 0.9, "c": 0.7, "d": 0.2})
        assert [t for t, _ in model.knn("a", 2)] == ["b", "c"]

    def test_knn_two_token_model(self):
        model = hub_model({"b": 0.4})
        assert [t for t, _ in model.knn("a", 1)] == ["b"]

    def test_knn_exhaustive_matches_threshold_scan(self, rng):
        model = random_model(rng, 25, 6)
        knn_all = model.knn("t0004", 24)
        assert knn_all == model.neighbors_above("t0004", -1.0)

    def test_knn_k_larger_than_vocab(self):
        model = hub_model({"b": 0.4, "c": 0.1})
        assert len(model.knn("a", 50)) == 2

    def test_knn_invalid_k(self):
        model = hub_model({"b": 0.4})
        with pytest.raises(ValueError):
            model.knn("a", 0)

    def test_prefix_property(self, rng):
        model = random_model(rng, 40, 5)
        full = model.knn("t0010", 39)
        for theta in (-0.5, 0.0, 0.11, 0.73):
            prefix = [(t, s) for t, s in full if s >= theta]
            assert model.neighbors_above("t0010", theta) == prefix

    def test_tie_break_token_ascending(self):
        vecs = np.array([[1.0, 0.0], [0.6, 0.8], [0.6, 0.8], [0.9, np.sqrt(1 - 0.81)]])
        model = EmbeddingModel.from_arrays(["hub", "zed", "abc", "mid"], vecs)
        ranked = [t for t, _ in model.knn("hub", 3)]
        assert ranked == ["mid", "abc", "zed"]

    def test_brute_force_agreement(self, rng):
        model = random_model(rng, 30, 8)
        token = "t0012"
        expected = sorted(
            ((model.cosine(token, t), t) for t in model.vocabulary if t != token),
            key=lambda pair: (-pair[0], pair[1]),
        )
        got = model.neighbors_above(token, 0.0)
        want = [(t, s) for s, t in expected if s >= 0.0]
        assert [(t, pytest.approx(s)) for t, s in want] == got


class TestEnsemble:
    def test_dimension_mismatch(self, rng):
        a = random_model(rng, 5, 4, "a")
        b = random_model(rng, 5, 5, "b")
        with pytest.raises(ValueError, match=r"^replicas disagree on dimensionality: \[4, 5\]$"):
            ModelEnsemble([a, b])

    def test_needs_two_replicas(self, rng):
        with pytest.raises(ValueError, match="2 replicas"):
            ModelEnsemble([random_model(rng, 5, 4)])

    def test_empty_intersection(self):
        a = EmbeddingModel.from_arrays(["x"], np.array([[1.0, 0]]), "a")
        b = EmbeddingModel.from_arrays(["y"], np.array([[1.0, 0]]), "b")
        with pytest.raises(ValueError, match="intersection"):
            ModelEnsemble([a, b])

    def test_shared_vocabulary_order(self):
        a = EmbeddingModel.from_arrays(["p", "q", "r"], np.eye(3), "a")
        b = EmbeddingModel.from_arrays(["r", "p"], np.eye(3)[:2], "b")
        ensemble = ModelEnsemble([a, b])
        assert ensemble.shared_vocabulary == ["p", "r"]
        assert (ensemble.replica_count, ensemble.dimensionality) == (2, 3)

    def test_missing_probe_names_replica(self):
        a = EmbeddingModel.from_arrays(["p", "q", "z"], np.eye(3), "first")
        b = EmbeddingModel.from_arrays(["p", "q"], np.eye(3)[:2], "second")
        ModelEnsemble([a, b], ["p", "q"])
        with pytest.raises(KeyError, match=r"^\"token 'zzz' missing from replica 'first'\"$"):
            ModelEnsemble([a, b], ["zzz"])
        with pytest.raises(KeyError, match=r"^\"token 'z' missing from replica 'second'\"$"):
            ModelEnsemble([a, b], ["p", "z"])

    def test_non_probe_term_rejected(self):
        a = EmbeddingModel.from_arrays(["p", "q"], np.eye(2), "a")
        ensemble = ModelEnsemble([a, a], ["p"])
        assert ensemble.similarities("p").shape == (2, 1)
        with pytest.raises(KeyError, match="not a probe"):
            ensemble.similarities("q")


class TestEnsembleSimilarities:
    """Replicas with permuted vocabulary order and a token missing from one."""

    @staticmethod
    def replicas(rng):
        base = random_model(rng, 30, 6, "base")
        out = []
        for r in range(3):
            order = rng.permutation(len(base)) if r else np.arange(len(base))
            if r == 2:
                order = order[order != base.row("t0007")]
            noisy = base.vectors[order] + 0.05 * rng.standard_normal((len(order), 6))
            out.append(EmbeddingModel.from_arrays([base.vocabulary[i] for i in order], noisy, f"r{r}"))
        return out

    def test_matches_pairwise_cosine(self, rng):
        replicas = self.replicas(rng)
        probes = ["t0000", "t0013", "t0029"]
        ensemble = ModelEnsemble(replicas, probes)
        assert "t0007" not in ensemble.shared_vocabulary
        assert len(ensemble.shared_vocabulary) == 29
        for t in probes:
            others = [u for u in ensemble.shared_vocabulary if u != t]
            sims = ensemble.similarities(t)
            assert sims.shape == (3, len(others))
            for r, model in enumerate(replicas):
                for j, u in enumerate(others):
                    assert abs(sims[r, j] - model.cosine(t, u)) <= 1e-12

    def test_missing_term(self, rng):
        with pytest.raises(KeyError, match="t0007.*r2"):
            ModelEnsemble(self.replicas(rng), ["t0007"])


class TestStreamedReplicas:
    """An ensemble consumes its replicas one at a time and keeps only probe rows."""

    PROBES = ["t0011", "t0017", "t0030"]

    @staticmethod
    def make(k: int, dim: int = 6) -> EmbeddingModel:
        rng = np.random.default_rng(100 + k)
        tokens = [f"t{i:04d}" for i in range(40)]
        keep = [t for i, t in enumerate(tokens) if i not in (k, 20 + k)]  # each replica lacks two tokens
        return EmbeddingModel.from_arrays(keep, rng.standard_normal((len(keep), dim)), f"r{k}")

    def test_each_replica_released_before_the_next(self):
        refs = []

        def stream():
            for k in range(5):
                assert all(ref() is None for ref in refs), f"a replica is alive while replica {k} is produced"
                model = self.make(k)
                refs.append(weakref.ref(model))
                yield model
                del model

        ensemble = ModelEnsemble(stream(), self.PROBES)
        assert ensemble.replica_count == 5 and len(refs) == 5
        assert all(ref() is None for ref in refs)

    def test_missing_probe_stops_the_stream(self):
        produced = []

        def stream():
            for k in range(5):
                produced.append(k)
                model = self.make(k)
                if k == 2:
                    model = EmbeddingModel(model.model_id, [t if t != "t0011" else "gone" for t in model.vocabulary],
                                           model.vectors)
                yield model

        with pytest.raises(KeyError, match=r"^\"token 't0011' missing from replica 'r2'\"$"):
            ModelEnsemble(stream(), self.PROBES)
        assert produced == [0, 1, 2]

    def test_dimension_mismatch_stops_the_stream(self):
        produced = []

        def stream():
            for k in range(5):
                produced.append(k)
                yield self.make(k, dim=5 if k == 1 else 6)

        with pytest.raises(ValueError, match=r"^replicas disagree on dimensionality: \[5, 6\]$"):
            ModelEnsemble(stream(), self.PROBES)
        assert produced == [0, 1]

    def test_generator_equals_list(self):
        replicas = [self.make(k) for k in range(5)]
        listed = ModelEnsemble(replicas, self.PROBES)
        streamed = ModelEnsemble((self.make(k) for k in range(5)), self.PROBES)
        assert streamed.shared_vocabulary == listed.shared_vocabulary
        assert len(listed.shared_vocabulary) == 30
        for t in self.PROBES:
            a, b = listed.similarities(t), streamed.similarities(t)
            assert a.shape == (5, 29) and a.tobytes() == b.tobytes()
