"""Embedding model replicas: loading, cosine similarity, and neighbor queries.

Models are immutable after construction. Vectors are unit-normalized once at
load time, so every similarity downstream is a plain dot product. Neighbor
search is an exact exhaustive scan; ties are broken by token (ascending) so
results are fully deterministic.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "EmbeddingModel",
    "ModelEnsemble",
    "load_model",
    "save_model",
]

# Vectors whose norm is already this close to 1 are not rescaled, which makes
# a load -> save -> load round trip bitwise stable.
_NORM_SKIP_TOL = 1e-6
_ZERO_NORM_TOL = 1e-12


class ModelFormatError(ValueError):
    """Raised when an embedding file violates the declared format."""


@dataclass(eq=False)
class EmbeddingModel:
    """One trained embedding replica: a vocabulary and unit-norm vectors."""

    model_id: str
    vocabulary: list[str]
    vectors: np.ndarray  # shape (len(vocabulary), dimensionality), float64, unit rows
    _row: dict[str, int] = field(init=False, repr=False)
    _token_array: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.vectors.ndim != 2 or self.vectors.shape[0] != len(self.vocabulary):
            raise ValueError("vectors must be a (len(vocabulary), dim) matrix")
        self._row = {t: i for i, t in enumerate(self.vocabulary)}
        if len(self._row) != len(self.vocabulary):
            raise ModelFormatError(f"duplicate token in model {self.model_id!r}")
        self._token_array = np.asarray(self.vocabulary, dtype=np.str_)

    @classmethod
    def from_arrays(
        cls, vocabulary: list[str], vectors: np.ndarray, model_id: str = "model"
    ) -> "EmbeddingModel":
        """Build a model from raw vectors, normalizing each row to unit length."""
        vectors = np.ascontiguousarray(vectors, dtype=np.float64)
        if not np.all(np.isfinite(vectors)):
            raise ModelFormatError(f"non-finite vector component in model {model_id!r}")
        norms = np.linalg.norm(vectors, axis=1)
        if np.any(norms < _ZERO_NORM_TOL):
            bad = vocabulary[int(np.argmin(norms))]
            raise ModelFormatError(f"zero-norm vector for token {bad!r} in model {model_id!r}")
        needs = np.abs(norms - 1.0) > _NORM_SKIP_TOL
        if np.any(needs):
            vectors = vectors.copy()
            vectors[needs] /= norms[needs, None]
        return cls(model_id=model_id, vocabulary=list(vocabulary), vectors=vectors)

    @property
    def dimensionality(self) -> int:
        return int(self.vectors.shape[1])

    def __contains__(self, token: str) -> bool:
        return token in self._row

    def __len__(self) -> int:
        return len(self.vocabulary)

    def row(self, token: str) -> int:
        try:
            return self._row[token]
        except KeyError:
            raise KeyError(f"token {token!r} not in vocabulary of model {self.model_id!r}") from None

    def vector(self, token: str) -> np.ndarray:
        return self.vectors[self.row(token)]

    def cosine(self, t1: str, t2: str) -> float:
        """Cosine similarity of two vocabulary tokens, clamped to [-1, 1]."""
        dot = float(np.dot(self.vector(t1), self.vector(t2)))
        return min(1.0, max(-1.0, dot))

    def similarities_to(self, token: str) -> np.ndarray:
        """Cosine of ``token`` against the whole vocabulary (self included)."""
        sims = self.vectors @ self.vector(token)
        return np.clip(sims, -1.0, 1.0)

    def _ranked_others(self, token: str) -> tuple[np.ndarray, np.ndarray]:
        """All other tokens ordered by similarity desc, token asc on ties."""
        row = self.row(token)
        sims = np.delete(self.similarities_to(token), row)
        tokens = np.delete(self._token_array, row)
        order = np.lexsort((tokens, -sims))
        return tokens[order], sims[order]

    def neighbors_above(self, token: str, threshold: float) -> list[tuple[str, float]]:
        """Every other token with similarity >= threshold, most similar first.

        Thresholds above 1 are legal and yield an empty list (used to disable
        expansion); thresholds at or below -1 return the full vocabulary.
        """
        tokens, sims = self._ranked_others(token)
        n = int(np.searchsorted(-sims, -threshold, side="right"))
        return [(str(t), float(s)) for t, s in zip(tokens[:n], sims[:n])]

    def knn(self, token: str, k: int) -> list[tuple[str, float]]:
        """Top-k most similar tokens (fewer if the vocabulary is smaller)."""
        if k < 1:
            raise ValueError("k must be >= 1")
        tokens, sims = self._ranked_others(token)
        return [(str(t), float(s)) for t, s in zip(tokens[:k], sims[:k])]


@dataclass(eq=False)
class ModelEnsemble:
    """Replicas trained identically except for random initialization.

    The shared vocabulary keeps the first replica's order; each replica's rows
    for it are looked up once, here, so per-term queries only gather.
    """

    replicas: list[EmbeddingModel]
    shared_vocabulary: list[str] = field(init=False)
    _rows: np.ndarray = field(init=False, repr=False)  # (R, S) row of each shared term per replica
    _position: dict[str, int] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if len(self.replicas) < 2:
            raise ValueError("an ensemble needs at least 2 replicas")
        dims = {m.dimensionality for m in self.replicas}
        if len(dims) != 1:
            raise ValueError(f"replicas disagree on dimensionality: {sorted(dims)}")
        shared = [t for t in self.replicas[0].vocabulary if all(t in m for m in self.replicas[1:])]
        if not shared:
            raise ValueError("replica vocabularies have an empty intersection")
        self.shared_vocabulary = shared
        self._rows = np.array([[m.row(t) for t in shared] for m in self.replicas], dtype=np.int64)
        self._position = {t: i for i, t in enumerate(shared)}

    @property
    def dimensionality(self) -> int:
        return self.replicas[0].dimensionality

    @property
    def replica_count(self) -> int:
        return len(self.replicas)

    def require_shared(self, token: str) -> None:
        for m in self.replicas:
            if token not in m:
                raise KeyError(f"token {token!r} missing from replica {m.model_id!r}")

    def similarities(self, token: str) -> np.ndarray:
        """(R, S-1) cosines of ``token`` against every other shared term, one
        row per replica, columns in ``shared_vocabulary`` order without it."""
        self.require_shared(token)
        rows = np.delete(self._rows, self._position[token], axis=1)
        return np.stack([m.similarities_to(token)[r] for m, r in zip(self.replicas, rows)])


def _parse_header(line: bytes, path: str) -> tuple[int, int]:
    parts = line.decode("utf-8", errors="replace").split()
    if len(parts) != 2:
        raise ModelFormatError(f"{path}: malformed header {line!r} (expected '<count> <dim>')")
    try:
        count, dim = int(parts[0]), int(parts[1])
    except ValueError:
        raise ModelFormatError(f"{path}: malformed header {line!r}") from None
    if count < 1 or dim < 1:
        raise ModelFormatError(f"{path}: header counts must be positive, got {count} x {dim}")
    return count, dim


def _load_text(path: str) -> tuple[list[str], np.ndarray]:
    with open(path, "rb") as fh:
        header = fh.readline()
        count, dim = _parse_header(header, path)
        tokens: list[str] = []
        rows = np.empty((count, dim), dtype=np.float64)
        n = 0
        for raw in fh:
            try:
                line = raw.decode("utf-8").strip()
            except UnicodeDecodeError:
                raise ModelFormatError(f"{path}: record {n}: token is not valid UTF-8") from None
            if not line:
                continue
            if n >= count:
                raise ModelFormatError(f"{path}: more records than header count {count}")
            parts = line.split()
            if len(parts) != dim + 1:
                raise ModelFormatError(
                    f"{path}: record {n} has {len(parts) - 1} components, expected {dim}"
                )
            tokens.append(parts[0])
            try:
                rows[n] = [float(x) for x in parts[1:]]
            except ValueError:
                raise ModelFormatError(f"{path}: unparseable float in record {n}") from None
            n += 1
        if n != count:
            raise ModelFormatError(f"{path}: header promises {count} records, found {n}")
    return tokens, rows


def _load_binary(path: str) -> tuple[list[str], np.ndarray]:
    with open(path, "rb") as fh:
        header = fh.readline()
        count, dim = _parse_header(header, path)
        tokens: list[str] = []
        rows = np.empty((count, dim), dtype=np.float64)
        rec_bytes = 4 * dim
        for n in range(count):
            chars = bytearray()
            while True:
                ch = fh.read(1)
                if not ch:
                    raise ModelFormatError(f"{path}: truncated at record {n}")
                if ch == b" ":
                    break
                chars.extend(ch)
            try:
                token = chars.decode("utf-8")
            except UnicodeDecodeError:
                raise ModelFormatError(f"{path}: record {n}: token is not valid UTF-8") from None
            if not token:
                raise ModelFormatError(f"{path}: empty token in record {n}")
            blob = fh.read(rec_bytes)
            if len(blob) != rec_bytes:
                raise ModelFormatError(f"{path}: truncated vector in record {n}")
            tokens.append(token)
            rows[n] = np.frombuffer(blob, dtype="<f4").astype(np.float64)
            sep = fh.read(1)
            if sep not in (b"\n", b""):
                raise ModelFormatError(f"{path}: expected newline after record {n}")
            if sep == b"" and n != count - 1:
                raise ModelFormatError(f"{path}: header promises {count} records, found {n + 1}")
        if fh.read(1):
            raise ModelFormatError(f"{path}: trailing bytes after {count} records")
    return tokens, rows


def load_model(path: str, fmt: str = "word2vec_text", model_id: str | None = None) -> EmbeddingModel:
    """Load a word2vec-format model and unit-normalize its vectors.

    ``fmt`` is ``word2vec_text`` (header line then one ``token f1 .. fdim``
    line per record) or ``word2vec_binary`` (same header; records are the
    token, a space, dim little-endian float32 values, and a newline).
    """
    if fmt == "word2vec_text":
        tokens, rows = _load_text(path)
    elif fmt == "word2vec_binary":
        tokens, rows = _load_binary(path)
    else:
        raise ValueError(f"unknown format {fmt!r}")
    if model_id is None:
        model_id = str(path)
    return EmbeddingModel.from_arrays(tokens, rows, model_id=model_id)


def save_model(model: EmbeddingModel, path: str, fmt: str = "word2vec_text") -> None:
    """Write a model back out in word2vec text or binary format."""
    for t in model.vocabulary:
        if " " in t or "\n" in t or not t:
            raise ValueError(f"token {t!r} cannot be serialized in word2vec formats")
    if fmt == "word2vec_text":
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(f"{len(model)} {model.dimensionality}\n")
            for t, vec in zip(model.vocabulary, model.vectors):
                fh.write(t + " " + " ".join(repr(float(x)) for x in vec) + "\n")
    elif fmt == "word2vec_binary":
        with open(path, "wb") as fh:
            fh.write(f"{len(model)} {model.dimensionality}\n".encode("utf-8"))
            for t, vec in zip(model.vocabulary, model.vectors):
                fh.write(t.encode("utf-8") + b" ")
                fh.write(struct.pack(f"<{model.dimensionality}f", *vec.astype(np.float32)))
                fh.write(b"\n")
    else:
        raise ValueError(f"unknown format {fmt!r}")
