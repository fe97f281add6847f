import multiprocessing
import os
import signal
import subprocess
import sys
import threading
import time
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from simthresh import embeddings
from simthresh.cli import main
from simthresh.embeddings import (
    EmbeddingModel,
    ModelEnsemble,
    ModelFormatError,
    load_model,
    load_reduced,
    reduce_replica,
)

from conftest import hub_model, random_model, word2vec_bytes
from pair_oracle import pair_cosine

SRC = Path(__file__).parent.parent / "src"
BLOCK = embeddings._TEXT_BLOCK_LINES


def cli_error(capsys, path, fmt: str) -> tuple[int, str]:
    """Exit code and standard error of a ``neighbors`` run that loads ``path``."""
    capsys.readouterr()
    rc = main(["neighbors", "--model", str(path), "--format", fmt, "--term", "a", "--k", "1"])
    return rc, capsys.readouterr().err


def read_blocks(blocks, path: str) -> tuple[list[str], np.ndarray]:
    """Every token and float64 row a block reader (``embeddings._text_blocks`` or
    ``_binary_blocks``) reads from ``path``, before normalization."""
    with open(path, "rb") as fh:
        count, dim = embeddings._parse_header(fh.readline(), path)
        read = list(blocks(path, fh, count, dim))
    return [t for tokens, _ in read for t in tokens], np.concatenate([rows for _, rows in read]).astype(np.float64)


def text_rows(lines: list[str]) -> np.ndarray:
    """The components of text records as ``float`` parses them."""
    return np.array([[float(x) for x in line.split()[1:]] for line in lines], dtype=np.float64)


# Damaged text files and the one line each must fail with (after "<path>: ").
TEXT_HOSTILE = {
    "truncated-record": (b"2 3\na 1 0 0\nb 0 1\n", "record 1 has 2 components, expected 3"),
    "count-below-data": (b"1 3\na 1 0 0\nb 0 1 0\n", "more records than header count 1"),
    "count-above-data": (b"3 3\na 1 0 0\nb 0 1 0\n", "header promises 3 records, found 2"),
    "hash-inside-record": (b"2 3\na 1 0 0\nb 0 1 #0\n", "unparseable float in record 1"),
    "hash-comment": (b"2 3\na 1 0 0\nb 0 1 0 # note\n", "record 1 has 5 components, expected 3"),
    "underscore-digits": (b"2 3\na 1 0 0\nb 0 1_0 0\n", "unparseable float in record 1"),
    "non-ascii-digit": ("2 3\na 1 0 0\nb 0 \u0661 0\n".encode(), "unparseable float in record 1"),
    "bare-carriage-return": (b"2 3\na 1 0 0\nb 0\r1 0\n", "unparseable float in record 1"),
    "blank-line-before-a-bad-record": (b"3 3\na 1 0 0\n\nb 0 1 0\nc 0 x 0\n", "unparseable float in record 2"),
    "bad-utf8-token": (b"2 3\na 1 0 0\n\xffb 0 1 0\n", "record 1: token is not valid UTF-8"),
    "utf8-bom": (b"\xef\xbb\xbf2 3\na 1 0 0\nb 0 1 0\n", "malformed header " + repr(b"\xef\xbb\xbf2 3\n")),
    "tiny-then-zero-norm": (b"2 3\na 0 0 2e-16\nb 0 0 0\n", "record 0: zero-norm vector for token 'a'"),
    "zero-norm-then-non-finite": (b"2 3\na 0 0 0\nb 0 0 inf\n", "record 0: zero-norm vector for token 'a'"),
    "zero-count-header": (b"0 3\n", "header counts must be positive, got 0 x 3"),
    "zero-dim-header": (b"2 0\na\nb\n", "header counts must be positive, got 2 x 0"),
}

UNIT = [1.0, 0.0, 0.0]
AB = [(b"a", UNIT), (b"b", UNIT)]
BINARY = "word2vec_binary"
# Damaged binary files (dimension 3) and the line each must fail with.
BINARY_HOSTILE = {
    "truncated-vector": (word2vec_bytes(AB, BINARY)[:-6], "truncated vector in record 1"),
    "truncated-token": (word2vec_bytes(AB, BINARY, 3) + b"c", "truncated at record 2"),
    "count-below-data": (word2vec_bytes(AB, BINARY, 1), "trailing bytes after 1 records"),
    "count-above-data": (word2vec_bytes(AB, BINARY, 3), "truncated at record 2"),
    "count-above-data-no-final-newline": (word2vec_bytes(AB, BINARY, 3)[:-1], "header promises 3 records, found 2"),
    "wrong-separator": (word2vec_bytes(AB, BINARY, sep=b"x"), "expected newline after record 0"),
    "empty-token": (word2vec_bytes([(b"a", UNIT), (b"", UNIT)], BINARY), "empty token in record 1"),
    "bad-utf8-token": (word2vec_bytes([(b"a", UNIT), (b"\xffb", UNIT)], BINARY), "record 1: token is not valid UTF-8"),
    "zero-count-header": (word2vec_bytes(AB, BINARY, 0), "header counts must be positive, got 0 x 3"),
    "zero-dim-header": (b"2 0\na \nb \n", "header counts must be positive, got 2 x 0"),
}


class TestLoading:
    def test_text_load_normalizes(self, tmp_path):
        path = tmp_path / "m.vec"
        path.write_text("2 3\na 1 0 0\nb 0 2 0\n")
        model = load_model(str(path))
        np.testing.assert_array_equal(model.vector("a"), [1.0, 0.0, 0.0])
        np.testing.assert_array_equal(model.vector("b"), [0.0, 1.0, 0.0])

    def test_huge_components_keep_their_direction(self, tmp_path):
        # the squares of 1e200 overflow, so the row's norm is measured scaled by its largest magnitude
        path = tmp_path / "m.vec"
        path.write_text("2 3\na 1e200 1e200 0\nb 0 1 0\n")
        model = load_model(str(path))
        np.testing.assert_array_equal(model.vector("a"), np.array([1.0, 1.0, 0.0]) / np.sqrt(2.0))
        np.testing.assert_array_equal(model.vector("b"), [0.0, 1.0, 0.0])
        assert pair_cosine(model, "a", "b") == 0.7071067811865475

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

    @pytest.mark.parametrize("form", ["word2vec_text", "word2vec_binary", "from_arrays"])
    def test_duplicate_token(self, tmp_path, form):
        # Several tokens repeat: the first record whose token came before is named, with that earlier record.
        tokens, vecs = ["a", "b", "b", "a"], np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [1.0, 2.0]])
        path = tmp_path / "m.vec"  # also the id of the model built from arrays, so every form names it
        with pytest.raises(ModelFormatError) as excinfo:
            if form == "from_arrays":
                EmbeddingModel.from_arrays(tokens, vecs, str(path))
            else:
                path.write_bytes(word2vec_bytes(zip(tokens, vecs), form))
                load_model(str(path), form)
        assert str(excinfo.value) == f"{path}: record 2: duplicate token 'b' (first in record 1)"

    @pytest.mark.parametrize("vectors", [np.eye(3), np.ones(2), np.ones((2, 3, 1))],
                             ids=["a-row-too-many", "one-dimensional", "three-dimensional"])
    def test_vectors_must_be_one_row_per_token(self, vectors):
        with pytest.raises(ValueError, match=r"vectors must be a \(len\(vocabulary\), dim\) matrix"):
            EmbeddingModel(model_id="m", vocabulary=["a", "b"], vectors=vectors)

    def test_unknown_format(self, tmp_path):
        with pytest.raises(ValueError, match="unknown format"):
            load_model(str(tmp_path / "x"), fmt="word2vec_quantized")

    @pytest.mark.parametrize("case", TEXT_HOSTILE, ids=list(TEXT_HOSTILE))
    def test_hostile_text_fails_in_one_line(self, tmp_path, capsys, case):
        data, message = TEXT_HOSTILE[case]
        path = tmp_path / "m.vec"
        path.write_bytes(data)
        assert cli_error(capsys, path, "word2vec_text") == (1, f"error: {path}: {message}\n")

    @pytest.mark.parametrize("chunk", [embeddings._BINARY_CHUNK_BYTES, 3], ids=["default-chunk", "3-byte-chunks"])
    @pytest.mark.parametrize("case", BINARY_HOSTILE, ids=list(BINARY_HOSTILE))
    def test_hostile_binary_fails_in_one_line(self, tmp_path, capsys, monkeypatch, case, chunk):
        monkeypatch.setattr(embeddings, "_BINARY_CHUNK_BYTES", chunk)
        data, message = BINARY_HOSTILE[case]
        path = tmp_path / "m.bin"
        path.write_bytes(data)
        assert cli_error(capsys, path, "word2vec_binary") == (1, f"error: {path}: {message}\n")

    @pytest.mark.parametrize("fmt", ["word2vec_text", "word2vec_binary"])
    def test_overstated_header_count_fails_in_one_line(self, tmp_path, fmt):
        # Allocating for the header's count used to die with a MemoryError traceback.
        model = EmbeddingModel.from_arrays(["a", "b"], np.eye(3)[:2])
        path, probes = tmp_path / "m.vec", tmp_path / "probes.txt"
        path.write_bytes(word2vec_bytes(model, fmt))
        data = path.read_bytes()
        path.write_bytes(b"1000000000000 3" + data[data.index(b"\n"):])
        probes.write_text("a\n")
        copy = tmp_path / "copy.vec"
        copy.write_bytes(path.read_bytes())  # a byte copy: the one file given twice is rejected
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run(
            [sys.executable, "-m", "simthresh.cli", "uncertainty", "--reference", str(path), "--other", str(copy),
             "--probes", str(probes), "--format", fmt, "--curve-out", str(tmp_path / "curve.csv")],
            env=env, capture_output=True, text=True, timeout=120,
        )
        message = {"word2vec_text": "header promises 1000000000000 records, found 2",
                   "word2vec_binary": "truncated at record 2"}[fmt]
        assert (proc.returncode, proc.stderr) == (1, f"error: {path}: {message}\n")

    def test_overstated_dimension_fails_in_one_line(self, tmp_path, capsys):
        path = tmp_path / "m.vec"
        path.write_bytes(b"2 1000000000000\na 1 0 0\nb 0 1 0\n")
        assert cli_error(capsys, path, "word2vec_text") == (
            1, f"error: {path}: record 0 has 3 components, expected 1000000000000\n")

    @pytest.mark.parametrize("fmt", ["word2vec_text", "word2vec_binary"])
    def test_load_from_a_pipe(self, tmp_path, rng, fmt):
        # A pipe has no size to bound the header count by; it loads as a file does.
        model = random_model(rng, 5, 3)
        path, fifo = tmp_path / "m", tmp_path / "m.fifo"
        path.write_bytes(word2vec_bytes(model, fmt))
        os.mkfifo(fifo)
        writer = threading.Thread(target=fifo.write_bytes, args=(path.read_bytes(),), daemon=True)
        writer.start()
        try:
            piped = load_model(str(fifo), fmt=fmt)
        finally:
            writer.join(timeout=10)
        assert not writer.is_alive()
        loaded = load_model(str(path), fmt=fmt)
        assert piped.vocabulary == loaded.vocabulary
        assert piped.vectors.tobytes() == loaded.vectors.tobytes()

    def test_whitespace_variants_parse_alike(self, tmp_path):
        lines = ["a 0.5 -1.25 3", "b 1e-3 2.0 -0.0"]
        want = load_model(str(self.write(tmp_path, "plain.vec", "2 3\n" + "\n".join(lines) + "\n")))
        variants = {
            "no-final-newline": "2 3\n" + "\n".join(lines),
            "crlf": "2 3\r\n" + "\r\n".join(lines) + "\r\n",
            "tabs": "2 3\n" + "\n".join(line.replace(" ", "\t") for line in lines) + "\n",
            "blank-lines-and-runs": "2 3\n\n" + "\n\n".join(line.replace(" ", "  ") for line in lines) + "\n\n",
        }
        for name, text in variants.items():
            got = load_model(str(self.write(tmp_path, f"{name}.vec", text)))
            assert got.vocabulary == want.vocabulary, name
            assert got.vectors.tobytes() == want.vectors.tobytes(), name

    @staticmethod
    def write(tmp_path, name: str, text: str) -> Path:
        path = tmp_path / name
        path.write_bytes(text.encode())
        return path

    @staticmethod
    def block_lines(count: int, rng) -> list[str]:
        return [f"t{i} " + " ".join(repr(float(x)) for x in rng.standard_normal(2)) for i in range(count)]

    @pytest.mark.parametrize("count", [BLOCK - 1, BLOCK, BLOCK + 1])
    def test_block_boundary_counts(self, tmp_path, rng, count):
        lines = self.block_lines(count, rng)
        path = self.write(tmp_path, "m.vec", f"{count} 2\n" + "\n".join(lines) + "\n")
        tokens, rows = read_blocks(embeddings._text_blocks, str(path))
        assert tokens == [line.split()[0] for line in lines]
        assert rows.tobytes() == text_rows(lines).tobytes()
        short = self.write(tmp_path, "short.vec", f"{count + 1} 2\n" + "\n".join(lines) + "\n")
        with pytest.raises(ModelFormatError, match=rf": header promises {count + 1} records, found {count}$"):
            load_model(str(short))
        long = self.write(tmp_path, "long.vec", f"{count - 1} 2\n" + "\n".join(lines) + "\n")
        with pytest.raises(ModelFormatError, match=rf": more records than header count {count - 1}$"):
            load_model(str(long))

    @pytest.mark.parametrize("damage, message", [
        (lambda line: line.replace(" ", " x", 1), "unparseable float in record {n}"),
        (lambda line: line.rsplit(" ", 1)[0], "record {n} has 1 components, expected 2"),
        (lambda line: "\udcff" + line, "record {n}: token is not valid UTF-8"),
    ], ids=["bad-float", "short-record", "bad-utf8"])
    def test_bad_record_in_second_block_is_named(self, tmp_path, rng, damage, message):
        lines = self.block_lines(BLOCK + 20, rng)
        n = BLOCK + 7
        lines[n] = damage(lines[n])
        lines.insert(3, "")  # a blank line is not a record: numbering counts records, not lines
        text = f"{BLOCK + 20} 2\n" + "\n".join(lines) + "\n"
        path = tmp_path / "m.vec"
        path.write_bytes(text.encode("utf-8", "surrogateescape"))
        with pytest.raises(ModelFormatError, match=rf"^{path}: {message.format(n=n)}$"):
            load_model(str(path))

    def test_first_faulty_text_block_is_named(self, tmp_path, rng):
        # Each block is normalized before the next is parsed, so a zero vector in the first block is
        # named although the second holds a float that does not parse.
        lines = self.block_lines(BLOCK + 20, rng)
        lines[5] = "t5 0 0"
        lines[BLOCK + 7] = lines[BLOCK + 7].replace(" ", " x", 1)
        path = self.write(tmp_path, "m.vec", f"{BLOCK + 20} 2\n" + "\n".join(lines) + "\n")
        with pytest.raises(ModelFormatError, match=rf"^{path}: record 5: zero-norm vector for token 't5'$"):
            load_model(str(path))

    @pytest.mark.parametrize("chunk, message", [
        (embeddings._BINARY_CHUNK_BYTES, "truncated at record 2"),  # one read holds the file: one block
        (3, "record 0: zero-norm vector for token 'a'"),  # record 0 is a block of its own
    ], ids=["default-chunk", "3-byte-chunks"])
    def test_first_faulty_binary_block_is_named(self, tmp_path, monkeypatch, chunk, message):
        monkeypatch.setattr(embeddings, "_BINARY_CHUNK_BYTES", chunk)
        path = tmp_path / "m.bin"
        path.write_bytes(word2vec_bytes([(b"a", [0.0, 0.0, 0.0]), (b"b", UNIT)], "word2vec_binary", 3) + b"c")
        with pytest.raises(ModelFormatError, match=rf"^{path}: {message}$"):
            load_model(str(path), fmt="word2vec_binary")

    @settings(max_examples=60, deadline=None)
    @given(rows=st.lists(st.lists(st.floats(allow_nan=False), min_size=3, max_size=3), min_size=1, max_size=30),
           blanks=st.lists(st.integers(0, 30), max_size=10))
    def test_text_block_size_does_not_change_the_load(self, tmp_path_factory, rows, blanks):
        # The same vocabulary and vector bytes, or the same error (zero, infinite and overflowing
        # rows included), whatever the number of lines per block.
        lines = [f"t{i} " + " ".join(repr(x) for x in row) for i, row in enumerate(rows)]
        for at in sorted(blanks, reverse=True):
            lines.insert(min(at, len(lines)), "")
        path = tmp_path_factory.mktemp("blocks") / "m.vec"
        path.write_text(f"{len(rows)} 3\n" + "\n".join(lines) + "\n")
        default = embeddings._TEXT_BLOCK_LINES

        def load(block: int):
            embeddings._TEXT_BLOCK_LINES = block
            try:
                model = load_model(str(path))
            except ModelFormatError as exc:
                return str(exc)
            finally:
                embeddings._TEXT_BLOCK_LINES = default
            return model.vocabulary, model.vectors.tobytes()

        want = load(default)
        assert [load(block) for block in (1, 2, 7)] == [want] * 3

    def test_load_normalizes_like_the_copying_path(self, tmp_path, rng):
        raw = rng.standard_normal((50, 4))
        raw[::3] /= np.linalg.norm(raw[::3], axis=1)[:, None]  # rows already unit length are kept as read
        lines = [f"t{i} " + " ".join(repr(float(x)) for x in row) for i, row in enumerate(raw)]
        path = self.write(tmp_path, "m.vec", "50 4\n" + "\n".join(lines) + "\n")
        want = text_rows(lines)
        norms = np.linalg.norm(want, axis=1)
        needs = np.abs(norms - 1.0) > 1e-6
        assert 0 < needs.sum() < len(needs)
        want[needs] /= norms[needs, None]
        assert load_model(str(path)).vectors.tobytes() == want.tobytes()

    @pytest.mark.parametrize("unit", [False, True], ids=["raw", "unit-rows"])
    def test_from_arrays_leaves_caller_array_untouched(self, rng, unit):
        vectors = rng.standard_normal((6, 3))
        if unit:
            vectors /= np.linalg.norm(vectors, axis=1)[:, None]
        before = vectors.copy()
        model = EmbeddingModel.from_arrays([f"t{i}" for i in range(6)], vectors)
        assert vectors.tobytes() == before.tobytes()
        assert not np.shares_memory(model.vectors, vectors)
        vectors[:] = 0.0
        assert np.all(np.abs(np.linalg.norm(model.vectors, axis=1) - 1.0) <= 1e-6)


class TestRoundTrip:
    def test_text_round_trip_bitwise(self, tmp_path, rng):
        model = random_model(rng, 20, 7)
        p1, p2 = tmp_path / "a.vec", tmp_path / "b.vec"
        p1.write_bytes(word2vec_bytes(model))
        loaded = load_model(str(p1))
        p2.write_bytes(word2vec_bytes(loaded))
        reloaded = load_model(str(p2))
        assert loaded.vocabulary == model.vocabulary
        np.testing.assert_array_equal(loaded.vectors, reloaded.vectors)
        np.testing.assert_array_equal(model.vectors, loaded.vectors)

    def test_binary_round_trip_bitwise(self, tmp_path, rng):
        model = random_model(rng, 20, 7)
        p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
        p1.write_bytes(word2vec_bytes(model, "word2vec_binary"))
        loaded = load_model(str(p1), fmt="word2vec_binary")
        p2.write_bytes(word2vec_bytes(loaded, "word2vec_binary"))
        reloaded = load_model(str(p2), fmt="word2vec_binary")
        assert loaded.vocabulary == model.vocabulary
        np.testing.assert_array_equal(loaded.vectors, reloaded.vectors)
        assert np.all(np.abs(np.linalg.norm(loaded.vectors, axis=1) - 1.0) <= 1e-6)

    def test_binary_truncation_detected(self, tmp_path, rng):
        model = random_model(rng, 5, 4)
        path = tmp_path / "m.bin"
        path.write_bytes(word2vec_bytes(model, "word2vec_binary"))
        blob = path.read_bytes()
        path.write_bytes(blob[:-6])
        with pytest.raises(ModelFormatError):
            load_model(str(path), fmt="word2vec_binary")

    @settings(max_examples=60, deadline=None)
    @given(rows=st.lists(st.lists(st.floats(-1e6, 1e6), min_size=3, max_size=3), min_size=1, max_size=30),
           style=st.sampled_from(["repr", "%.6f"]))
    def test_text_components_parse_like_float(self, tmp_path_factory, rows, style):
        lines = [f"t{i} " + " ".join(repr(x) if style == "repr" else "%.6f" % x for x in row)
                 for i, row in enumerate(rows)]
        path = tmp_path_factory.mktemp("text") / "m.vec"
        path.write_text(f"{len(rows)} 3\n" + "\n".join(lines) + "\n")
        tokens, parsed = read_blocks(embeddings._text_blocks, str(path))
        assert tokens == [f"t{i}" for i in range(len(rows))]
        assert parsed.tobytes() == text_rows(lines).tobytes()

    @settings(max_examples=60, deadline=None)
    @given(rows=st.lists(st.lists(st.floats(width=32, allow_nan=False), min_size=3, max_size=3),
                         min_size=1, max_size=30),
           chunk=st.sampled_from([1, 2, 7, 16, 64, embeddings._BINARY_CHUNK_BYTES]))
    def test_binary_components_read_exactly_across_chunks(self, tmp_path_factory, rows, chunk):
        path = tmp_path_factory.mktemp("binary") / "m.bin"
        path.write_bytes(word2vec_bytes([(f"t{i}", row) for i, row in enumerate(rows)], "word2vec_binary"))
        default = embeddings._BINARY_CHUNK_BYTES
        embeddings._BINARY_CHUNK_BYTES = chunk
        try:
            tokens, parsed = read_blocks(embeddings._binary_blocks, str(path))
        finally:
            embeddings._BINARY_CHUNK_BYTES = default
        assert tokens == [f"t{i}" for i in range(len(rows))]
        assert parsed.tobytes() == np.array(rows, dtype=np.float32).astype(np.float64).tobytes()

    def test_binary_without_final_newline(self, tmp_path, rng):
        model = random_model(rng, 4, 3)
        path = tmp_path / "m.bin"
        path.write_bytes(word2vec_bytes(model, "word2vec_binary"))
        path.write_bytes(path.read_bytes()[:-1])
        loaded = load_model(str(path), fmt="word2vec_binary")
        assert loaded.vocabulary == model.vocabulary
        np.testing.assert_allclose(loaded.vectors, model.vectors, atol=1e-6)


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

    def test_tokens_with_trailing_nul_are_returned_as_they_are(self):
        # numpy's str_ arrays drop trailing NULs, so a ranking that goes through one names 'a' for 'a\x00'.
        vecs = np.array([[1.0, 0.0], [0.6, 0.8], [0.8, 0.6], [0.6, 0.8]])
        model = EmbeddingModel.from_arrays(["hub", "a", "a\x00", "a\x00\x00"], vecs)
        for replica in (model, reduce_replica(model, ["hub"])):
            assert [t for t, _ in replica.knn("hub", 3)] == ["a\x00", "a", "a\x00\x00"]
            assert [t for t, _ in replica.neighbors_above("hub", 0.7)] == ["a\x00"]

    @settings(max_examples=120, deadline=None)
    @given(data=st.data(), size=st.integers(1, 12))
    def test_reduced_replica_ranks_like_the_model(self, data, size):
        # Components from a small integer set plant many equal similarities, so the token tie-break decides.
        rows = data.draw(st.lists(st.lists(st.integers(-1, 2), min_size=3, max_size=3).filter(any),
                                  min_size=size, max_size=size))
        tokens = data.draw(st.lists(st.text("abcz", min_size=1, max_size=3), min_size=size, max_size=size,
                                    unique=True))
        model = EmbeddingModel.from_arrays(tokens, np.array(rows, dtype=np.float64))
        probe = data.draw(st.sampled_from(tokens))
        # Only the kept neighbors are sorted; the reference sorts every other token by (-similarity, token).
        sims = [float(s) for s in model.similarities_to(probe)]
        reference = sorted(((t, s) for t, s in zip(tokens, sims) if t != probe), key=lambda p: (-p[1], p[0]))
        thresholds = [-np.inf, -1.5, -1.0, 1.0 + 1e-9, 2.0, np.inf, *sims, *np.nextafter(sims, np.inf)]
        for replica in (model, reduce_replica(model, [probe])):
            for k in range(1, size + 3):  # k >= V included
                assert replica.knn(probe, k) == reference[:k]
            for theta in thresholds:
                assert replica.neighbors_above(probe, theta) == [p for p in reference if p[1] >= theta]

    def test_nan_threshold_rejected(self):
        model = hub_model({"b": 0.4, "c": 0.1})
        for replica in (model, reduce_replica(model, ["a"])):
            with pytest.raises(ValueError, match="^threshold must be a number, got nan$"):
                replica.neighbors_above("a", float("nan"))

    def test_reduced_replica_lookup_errors_name_the_model(self):
        reduced = reduce_replica(hub_model({"b": 0.4, "c": 0.1}), ["a"])
        with pytest.raises(KeyError, match=r"^\"token 'zz' not in vocabulary of model 'toy'\"$"):
            reduced.knn("zz", 1)
        with pytest.raises(KeyError, match=r"^\"token 'b' is not a probe found in model 'toy'\"$"):
            reduced.neighbors_above("b", 0.0)
        assert ("b" in reduced, len(reduced), reduced.row("c")) == (True, 3, 2)

    def test_brute_force_agreement(self, rng):
        model = random_model(rng, 30, 8)
        token = "t0012"
        expected = sorted(
            ((pair_cosine(model, token, t), t) for t in model.vocabulary if t != token),
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
                    assert abs(sims[r, j] - pair_cosine(model, t, u)) <= 1e-12

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


class TestLoadReduced:
    """``load_reduced`` reduces replica files on worker processes to exactly
    what ``reduce_replica`` gives in this process."""

    PROBES = ["t0001", "t0022", "t0030"]  # replica 1 lacks t0001, replica 2 lacks t0022

    @staticmethod
    def write(tmp_path, fmt: str, count: int = 5) -> list[str]:
        paths = []
        for k in range(count):
            model = TestStreamedReplicas.make(k)
            path = tmp_path / f"r{k}.{fmt}"
            path.write_bytes(word2vec_bytes(model, fmt))
            paths.append(str(path))
        return paths

    @staticmethod
    def assert_identical(got, want) -> None:
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert (a.model_id, a.vocabulary, a.dimensionality) == (b.model_id, b.vocabulary, b.dimensionality)
            assert {t: a.row(t) for t in a.rows} == {t: b.row(t) for t in b.rows}
            assert list(a.rows) == list(b.rows)
            for t in a.rows:
                assert a.rows[t].dtype == b.rows[t].dtype and a.rows[t].tobytes() == b.rows[t].tobytes()

    @pytest.mark.parametrize("fmt", ["word2vec_text", "word2vec_binary"])
    def test_pool_equals_in_process(self, tmp_path, fmt):
        paths = self.write(tmp_path, fmt)  # 5 replicas: more than the workers of a 2- or 4-CPU machine
        want = [reduce_replica(load_model(p, fmt), self.PROBES) for p in paths]
        assert [len(r.rows) for r in want] == [3, 2, 2, 3, 3]  # a missing probe has no row, and no error
        self.assert_identical(list(load_reduced(paths, fmt, self.PROBES)), want)

    def test_in_process_without_fork(self, tmp_path, monkeypatch):
        paths = self.write(tmp_path, "word2vec_binary")
        want = list(load_reduced(paths, "word2vec_binary", self.PROBES))

        def no_worker(process):
            raise AssertionError("a worker process was started where fork is not available")

        monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
        monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", no_worker)  # every context's Process
        self.assert_identical(list(load_reduced(paths, "word2vec_binary", self.PROBES)), want)

    def test_one_path_in_process(self, tmp_path, monkeypatch):
        path = self.write(tmp_path, "word2vec_text", count=1)[0]
        forked = list(load_reduced([path, path], "word2vec_text", self.PROBES))  # two paths: workers
        assert len(forked) == 2

        def no_worker(process):
            raise AssertionError("a worker process was started for one path")

        monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", no_worker)  # every context's Process
        self.assert_identical(list(load_reduced([path], "word2vec_text", self.PROBES)), forked[:1])

    def test_closing_stops_every_worker(self, tmp_path):
        paths = self.write(tmp_path, "word2vec_binary")
        before = threading.active_count()
        replicas = load_reduced(paths, "word2vec_binary", self.PROBES)
        assert next(replicas).model_id == paths[0]
        replicas.close()
        assert multiprocessing.active_children() == []
        assert threading.active_count() == before

    @pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(), reason="needs fork")
    @pytest.mark.parametrize("count", [1, 2, 4])
    def test_workers_forked_once_for_the_whole_ensemble(self, tmp_path, monkeypatch, count):
        # Worker w loads paths[w::count], so five paths take min(count, 5) processes, not one each.
        paths, started, reduce = self.write(tmp_path, "word2vec_binary"), [], embeddings.reduce_replica
        start = multiprocessing.process.BaseProcess.start

        def served(model, probes):  # runs in the worker, which sends its pid back with the replica
            replica = reduce(model, probes)
            replica.served_by = os.getpid()
            return replica

        monkeypatch.setattr(embeddings, "_worker_count", lambda tasks: min(count, tasks))
        monkeypatch.setattr(embeddings, "reduce_replica", served)
        monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", lambda p: started.append(p) or start(p))
        got = list(load_reduced(paths, "word2vec_binary", self.PROBES))
        assert [r.model_id for r in got] == paths
        assert len(started) == min(count, 5)
        for w, worker in enumerate(started):
            assert {r.served_by for r in got[w::len(started)]} == {worker.pid}

    @pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(), reason="needs fork")
    @pytest.mark.parametrize("truncated, loaded", [((2, 3), 2), ((3,), 3)], ids=["both-second", "path-3-only"])
    def test_first_error_in_path_order_across_workers(self, tmp_path, monkeypatch, truncated, loaded):
        # Two workers: paths 2 and 3 are each one's second replica, so either may fail first.
        paths, before, got = self.write(tmp_path, "word2vec_binary"), threading.active_count(), []
        for k in truncated:
            Path(paths[k]).write_bytes(Path(paths[k]).read_bytes()[:-6])
        monkeypatch.setattr(embeddings, "_worker_count", lambda tasks: 2)
        with pytest.raises(ModelFormatError) as excinfo:
            got.extend(r.model_id for r in load_reduced(paths, "word2vec_binary", self.PROBES))
        assert str(excinfo.value).startswith(f"{paths[loaded]}: truncated")
        assert got == paths[:loaded]
        assert multiprocessing.active_children() == [] and threading.active_count() == before

    def test_clean_under_dev_mode_and_warnings_as_errors(self, tmp_path):
        paths = self.write(tmp_path, "word2vec_binary")
        code = (
            "import multiprocessing, sys, threading\n"
            "from simthresh.embeddings import load_reduced\n"
            "paths, probes = sys.argv[1:], ['t0001', 't0022', 't0030']\n"
            "assert [r.model_id for r in load_reduced(paths, 'word2vec_binary', probes)] == paths\n"
            "replicas = load_reduced(paths, 'word2vec_binary', probes)\n"
            "next(replicas)\n"
            "replicas.close()\n"
            "assert multiprocessing.active_children() == [] and threading.active_count() == 1\n"
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run([sys.executable, "-X", "dev", "-W", "error", "-c", code, *paths],
                              env=env, capture_output=True, text=True, timeout=120)
        assert (proc.returncode, proc.stderr) == (0, "")

    @pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(), reason="needs fork")
    def test_early_exit_while_a_worker_is_mid_send(self, tmp_path):
        # Each replica's probe rows (2 x 12000 x 8 B) overflow a pipe's 64 KiB buffer, so once the
        # worker for path 1 has written its first bytes it is blocked part-way through sending. The
        # consumer then stops: an ensemble raises for a probe replica 0 lacks, the iterator is
        # closed, or the blocked worker is killed. Every way must return at once and leave no child
        # process and no thread behind.
        rng = np.random.default_rng(7)
        paths = []
        for k in range(3):
            model = random_model(rng, 12000, 2, model_id=f"r{k}")
            paths.append(str(tmp_path / f"r{k}.bin"))
            Path(paths[-1]).write_bytes(word2vec_bytes(model, "word2vec_binary"))
        code = (
            "import fcntl, multiprocessing, os, signal, struct, sys, termios, threading, time\n"
            "import multiprocessing.connection as connection\n"
            "from simthresh import embeddings\n"
            "from simthresh.embeddings import ModelEnsemble, load_reduced\n"
            "paths, probes = sys.argv[1:], ['t0001', 't0002']\n"
            "embeddings._worker_count = lambda tasks: 2  # path 1 loads while path 0 is read, on any CPU count\n"
            "pipes, workers, pipe, start = [], [], connection.Pipe, multiprocessing.process.BaseProcess.start\n"
            "connection.Pipe = lambda duplex: pipes.append(pipe(duplex)) or pipes[-1]\n"
            "multiprocessing.process.BaseProcess.start = lambda self: workers.append(self) or start(self)\n"
            "def mid_send(replicas):\n"
            "    first = next(replicas)\n"
            "    unread = lambda: struct.unpack('i', fcntl.ioctl(pipes[1][0].fileno(), termios.FIONREAD, bytes(4)))[0]\n"
            "    deadline = time.monotonic() + 10\n"
            "    while not unread():\n"
            "        assert time.monotonic() < deadline, 'the worker for path 1 sent nothing'\n"
            "        time.sleep(0.001)\n"
            "    yield first\n"
            "    yield from replicas\n"
            "for round in range(20):\n"
            "    for stop in ('ensemble', 'close', 'kill'):\n"
            "        began, pipes[:], workers[:] = time.monotonic(), [], []\n"
            "        if stop == 'ensemble':\n"
            "            try:\n"
            "                ModelEnsemble(mid_send(load_reduced(paths, 'word2vec_binary', probes)), ['absent', *probes])\n"
            "            except KeyError as exc:\n"
            "                assert exc.args == (\"token 'absent' missing from replica %r\" % paths[0],)\n"
            "            else:\n"
            "                raise AssertionError('the ensemble took a probe no replica has')\n"
            "        else:\n"
            "            replicas = mid_send(load_reduced(paths, 'word2vec_binary', probes))\n"
            "            assert next(replicas).model_id == paths[0]\n"
            "            if stop == 'close':\n"
            "                replicas.close()\n"
            "            else:\n"
            "                os.kill(workers[1].pid, signal.SIGKILL)\n"
            "                try:\n"
            "                    next(replicas)\n"
            "                except ChildProcessError as exc:\n"
            "                    assert str(exc) == 'a worker loading replicas died (exit code -9)', exc\n"
            "                else:\n"
            "                    raise AssertionError('a killed worker went unnoticed')\n"
            "                del replicas\n"
            "        assert time.monotonic() - began < 5, (round, stop, time.monotonic() - began)\n"
            "        assert multiprocessing.active_children() == [] and threading.active_count() == 1, (round, stop)\n"
            "        try:\n"
            "            os.waitpid(-1, os.WNOHANG)\n"
            "        except ChildProcessError:\n"
            "            pass  # no child process at all, not even an unreaped one\n"
            "        else:\n"
            "            raise AssertionError(f'a child process is left after round {round} ({stop})')\n"
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.Popen([sys.executable, "-X", "dev", "-W", "error", "-c", code, *paths], env=env,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, start_new_session=True)
        try:
            _, err = proc.communicate(timeout=60)
        finally:  # a stalled run's workers go with it
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
        assert (proc.returncode, err) == (0, ""), err

    @pytest.mark.skipif(not hasattr(os, "mkfifo") or not Path(f"/proc/{os.getpid()}/task").exists(),
                        reason="needs named pipes and /proc child lists")
    def test_workers_exit_after_the_loading_process_is_killed(self, tmp_path):
        # Path 0 is a named pipe nobody writes to, so its worker waits to open it, and the process waits
        # on that worker while the worker for path 1 loads. After a SIGKILL of the process both workers
        # exit at once, the blocked one too, and print nothing to the process's stderr.
        fifo, path, stderr = tmp_path / "r0.bin", tmp_path / "r1.bin", tmp_path / "stderr.txt"
        os.mkfifo(fifo)
        path.write_bytes(word2vec_bytes(random_model(np.random.default_rng(7), 12000, 2), "word2vec_binary"))
        code = (
            "import sys\n"
            "from simthresh import embeddings\n"
            "embeddings._worker_count = lambda tasks: 2\n"
            "list(embeddings.load_reduced(sys.argv[1:], 'word2vec_binary', ['t0001', 't0002']))\n"
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
        with open(stderr, "wb") as err:
            proc = subprocess.Popen([sys.executable, "-c", code, str(fifo), str(path)], env=env,
                                    stdout=subprocess.DEVNULL, stderr=err, start_new_session=True)
        workers = []

        def running(pid):
            stat = Path(f"/proc/{pid}/stat")
            return stat.exists() and stat.read_text().rsplit(")", 1)[1].split()[0] != "Z"

        try:
            deadline = time.monotonic() + 30
            while len(workers := Path(f"/proc/{proc.pid}/task/{proc.pid}/children").read_text().split()) < 2:
                assert time.monotonic() < deadline, "the worker processes did not start"
                time.sleep(0.01)
            proc.kill()
            proc.wait()
            deadline = time.monotonic() + 2
            for n in (0, 1):
                while running(workers[n]):
                    assert time.monotonic() < deadline, f"the worker for path {n} outlived the process by 2 s"
                    time.sleep(0.01)
        finally:
            for pid in workers:
                if running(pid):
                    os.kill(int(pid), signal.SIGKILL)
        assert "Traceback" not in stderr.read_text()

    def test_ensemble_of_reduced_equals_ensemble_of_models(self, tmp_path):
        paths = self.write(tmp_path, "word2vec_binary")
        probes = ["t0011", "t0017", "t0030"]  # in every replica
        models = ModelEnsemble((load_model(p, "word2vec_binary") for p in paths), probes)
        reduced = ModelEnsemble(load_reduced(paths, "word2vec_binary", probes), probes)
        assert reduced.shared_vocabulary == models.shared_vocabulary
        assert (reduced.replica_count, reduced.dimensionality) == (5, 6)
        mixed = ModelEnsemble((reduce_replica(load_model(p, "word2vec_binary"), probes) if i % 2
                               else load_model(p, "word2vec_binary") for i, p in enumerate(paths)), probes)
        assert mixed.shared_vocabulary == models.shared_vocabulary
        for t in probes:
            assert reduced.similarities(t).tobytes() == models.similarities(t).tobytes()
            assert mixed.similarities(t).tobytes() == models.similarities(t).tobytes()
