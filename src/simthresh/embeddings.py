"""Embedding model replicas: loading, cosine similarity, and neighbor queries.

Models are immutable after construction. Vectors are unit-normalized once at
load time, so every similarity downstream is a plain dot product. Neighbor
search is an exact exhaustive scan; ties are broken by token (ascending) so
results are fully deterministic.
"""

from __future__ import annotations

import os
import signal
import stat
from dataclasses import InitVar, dataclass, field
from functools import cached_property
from itertools import islice
from typing import BinaryIO, Iterable, Iterator, Sequence

import numpy as np

__all__ = [
    "EmbeddingModel",
    "ReducedReplica",
    "ModelEnsemble",
    "reduce_replica",
    "load_reduced",
    "load_model",
]

# Vectors whose norm is already this close to 1 are not rescaled, so a file
# written from a loaded model's vectors loads back bitwise equal.
_NORM_SKIP_TOL = 1e-6
_ZERO_NORM_TOL = 1e-12
# Text replicas are parsed this many lines at a time, one np.loadtxt call per
# block; binary replicas are read in chunks of this many bytes.
_TEXT_BLOCK_LINES = 4096
_BINARY_CHUNK_BYTES = 1 << 20


class ModelFormatError(ValueError):
    """Raised when an embedding file violates the declared format."""


def _normalize_rows(vocabulary: Sequence[str], vectors: np.ndarray, model_id: str, first: int = 0) -> None:
    """Reject non-finite and zero rows, then scale each row to unit length in
    place; rows already within ``_NORM_SKIP_TOL`` of it are divided by 1.0,
    which leaves them bit-identical. Messages number the rows from ``first``."""
    with np.errstate(over="ignore"):
        norms = np.sqrt(np.add.reduce(vectors * vectors, axis=1))  # np.linalg.norm's arithmetic, one pass
    finite = np.ones(len(norms), dtype=bool)
    odd = np.flatnonzero(~np.isfinite(norms))  # a non-finite component, or squares that overflow
    finite[odd] = np.isfinite(vectors[odd]).all(axis=1)
    faults = ~finite | (norms < _ZERO_NORM_TOL)
    if faults.any():
        bad = int(np.argmax(faults))  # the first faulty row, whatever the block size
        if not finite[bad]:
            raise ModelFormatError(f"{model_id}: record {first + bad}: non-finite vector component")
        raise ModelFormatError(f"{model_id}: record {first + bad}: zero-norm vector for token {vocabulary[bad]!r}")
    for i in odd:  # its squares overflow: measure it scaled by its largest magnitude
        vectors[i] /= np.abs(vectors[i]).max()
        norms[i] = np.linalg.norm(vectors[i])
    needs = np.abs(norms - 1.0) > _NORM_SKIP_TOL
    if np.any(needs):
        vectors /= np.where(needs, norms, 1.0)[:, None]


class _Replica:
    """Token lookup and ranking shared by whole and reduced replicas. A
    subclass gives ``model_id``, ``vocabulary`` and ``similarities_to``."""

    @cached_property
    def _row(self) -> dict[str, int]:  # the record map, built on first use, so a worker does not send it back
        return dict(zip(self.vocabulary, range(len(self.vocabulary))))

    def __contains__(self, token: str) -> bool:
        return token in self._row

    def __len__(self) -> int:
        return len(self.vocabulary)

    def row(self, token: str) -> int:
        try:
            return self._row[token]
        except KeyError:
            raise KeyError(f"token {token!r} not in vocabulary of model {self.model_id!r}") from None

    def _ranked_others(self, token: str, threshold: float, k: int | None = None) -> list[tuple[str, float]]:
        """The other tokens with similarity >= threshold, most similar first
        and token ascending on ties, at most ``k`` of them. Only those kept
        are sorted: with ``k``, the others below the k-th largest similarity
        are dropped first, so ties at the cut stay in until the sort."""
        row = self.row(token)
        sims = np.delete(self.similarities_to(token), row)
        if k is not None and k < len(sims):
            threshold = max(threshold, np.partition(sims, len(sims) - k)[len(sims) - k])
        kept = np.flatnonzero(sims >= threshold)
        tokens = np.asarray([self.vocabulary[i] for i in kept + (kept >= row)], dtype=object)  # np.str_ drops trailing NUL
        order = np.lexsort((tokens, -sims[kept]))[:k]
        return [(tokens[i], float(sims[kept[i]])) for i in order]

    def neighbors_above(self, token: str, threshold: float) -> list[tuple[str, float]]:
        """Every other token with similarity >= threshold, most similar first.

        Thresholds above 1 are legal and yield an empty list (used to disable
        expansion); thresholds at or below -1 return the full vocabulary. NaN
        is rejected: every comparison with it is false, so it would silently select nothing.
        """
        if np.isnan(threshold):
            raise ValueError(f"threshold must be a number, got {threshold}")
        return self._ranked_others(token, threshold)

    def knn(self, token: str, k: int) -> list[tuple[str, float]]:
        """Top-k most similar tokens (fewer if the vocabulary is smaller)."""
        if k < 1:
            raise ValueError("k must be >= 1")
        return self._ranked_others(token, -np.inf, k)


@dataclass(eq=False)
class EmbeddingModel(_Replica):
    """One trained embedding replica: a vocabulary and unit-norm vectors."""

    model_id: str
    vocabulary: list[str]
    vectors: np.ndarray  # shape (len(vocabulary), dimensionality), float64, unit rows

    def __post_init__(self) -> None:
        if self.vectors.ndim != 2 or self.vectors.shape[0] != len(self.vocabulary):
            raise ValueError("vectors must be a (len(vocabulary), dim) matrix")
        if len(self._row) != len(self.vocabulary):  # a token repeats: name its first repeat
            first = {t: i for i, t in reversed(list(enumerate(self.vocabulary)))}
            i, t = next((i, t) for i, t in enumerate(self.vocabulary) if first[t] != i)
            raise ModelFormatError(f"{self.model_id}: record {i}: duplicate token {t!r} (first in record {first[t]})")

    @classmethod
    def from_arrays(
        cls, vocabulary: list[str], vectors: np.ndarray, model_id: str = "model"
    ) -> "EmbeddingModel":
        """Build a model from raw vectors, normalizing a copy of each row to unit length."""
        vectors = np.array(vectors, dtype=np.float64, order="C")
        _normalize_rows(vocabulary, vectors, model_id)
        return cls(model_id=model_id, vocabulary=list(vocabulary), vectors=vectors)

    @property
    def dimensionality(self) -> int:
        return int(self.vectors.shape[1])

    def vector(self, token: str) -> np.ndarray:
        return self.vectors[self.row(token)]

    def similarities_to(self, token: str) -> np.ndarray:
        """Cosine of ``token`` against the whole vocabulary (self included)."""
        sims = self.vectors @ self.vector(token)
        return np.clip(sims, -1.0, 1.0)


@dataclass(eq=False)
class ReducedReplica(_Replica):
    """What an ensemble takes from one replica: its id, vocabulary and
    dimensionality, and each probe's cosine row against the whole vocabulary
    (itself included). A probe missing from the vocabulary has no row."""

    model_id: str
    vocabulary: list[str]
    dimensionality: int
    rows: dict[str, np.ndarray]  # probe -> similarities_to(probe) of the full model

    def similarities_to(self, token: str) -> np.ndarray:
        """Cosine of probe ``token`` against the whole vocabulary (self included)."""
        if token not in self.rows:
            self.row(token)  # raises for a token the vocabulary lacks
            raise KeyError(f"token {token!r} is not a probe found in model {self.model_id!r}")
        return self.rows[token]


def reduce_replica(model: EmbeddingModel, probes: Iterable[str]) -> ReducedReplica:
    """``model`` reduced to the rows of those ``probes`` it holds."""
    present = [t for t in probes if t in model]
    return ReducedReplica(
        model_id=model.model_id,
        vocabulary=model.vocabulary,
        dimensionality=model.dimensionality,
        rows={t: model.similarities_to(t) for t in present},
    )


def _worker_count(tasks: int) -> int:
    """One worker per CPU in the process's affinity mask, at most one per task, at least one."""
    cpus = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else range(os.cpu_count() or 1)
    return max(1, min(tasks, len(cpus)))


def load_reduced(paths: Sequence[str], fmt: str, probes: Sequence[str]) -> Iterator[ReducedReplica]:
    """``reduce_replica(load_model(path, fmt), probes)`` for each path, in path order.

    Two or more paths load in W forked workers, one per CPU of the affinity mask and at most
    one per path, all forked before the first result is read; worker w loads ``paths[w::W]``
    in order and sends each replica, or its exception, on a pipe of its own. One path, or no
    ``fork``, loads here. The first error in path order is raised, ``ChildProcessError`` for a
    dead worker. Workers ignore SIGINT, die with this process and are terminated on the way out."""
    import multiprocessing  # imported here: commands that load no replica skip it
    import threading

    if len(paths) == 1 or "fork" not in multiprocessing.get_all_start_methods():
        yield from (reduce_replica(load_model(path, fmt), probes) for path in paths)
        return
    # fork, not the default of later Pythons (forkserver), which imports numpy again in every worker
    context, count, workers = multiprocessing.get_context("fork"), _worker_count(len(paths)), []
    lifeline, alive = os.pipe()  # only this process keeps ``alive`` open, so its death ends ``lifeline``

    def load(share: Sequence[str], receive, send) -> None:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGINT})  # the command blocks it while it forks
        os.close(alive)  # os.read below returns only at end of file, once this process has died
        threading.Thread(target=lambda: os.read(lifeline, 1) or os._exit(1), daemon=True).start()
        for reader in [receive, *(r for _, r in workers)]:  # with no read end here, a dead command breaks the pipe
            reader.close()
        try:
            for path in share:
                send.send(reduce_replica(load_model(path, fmt), probes))
        except Exception as exc:  # sent in place of the replica; the paths after it are not loaded
            send.send(exc)

    try:
        for w in range(count):
            receive, send = context.Pipe(duplex=False)
            worker = context.Process(target=load, args=(paths[w::count], receive, send), daemon=True)
            mask = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})  # a Ctrl-C waits for ``workers``
            try:
                worker.start()
                workers.append((worker, receive))
            finally:
                signal.pthread_sigmask(signal.SIG_SETMASK, mask)
            send.close()  # the worker holds the only send end, so its death reads as end of file
        for k in range(len(paths)):
            worker, receive = workers[k % count]
            try:
                result = receive.recv()
            except (EOFError, OSError):  # end of file before or in the result: the worker died
                result = None
            if not isinstance(result, ReducedReplica):  # the worker's exception, or its death
                worker.join()
                raise result or ChildProcessError(f"a worker loading replicas died (exit code {worker.exitcode})")
            yield result
    finally:
        for worker, receive in workers:
            worker.terminate()
            worker.join()
            receive.close()
        os.close(lifeline)
        os.close(alive)


@dataclass(eq=False)
class ModelEnsemble:
    """The probes' similarity rows in replicas trained identically except for
    random initialization.

    Replicas are consumed one at a time, as ``EmbeddingModel``s or as
    ``ReducedReplica``s (``load_reduced``). Each is checked for the first
    one's dimensionality and for every probe, gives one cosine row per probe
    over the shared vocabulary (kept in the first replica's order), and is
    released before the next is produced, so a generator of loaded replicas
    never has two alive. Without probes the ensemble only aligns the
    vocabularies.
    """

    replicas: InitVar[Iterable[EmbeddingModel | ReducedReplica]]
    probes: Sequence[str] = ()
    shared_vocabulary: list[str] = field(init=False, repr=False)
    dimensionality: int = field(init=False)
    replica_count: int = field(init=False, default=0)
    _rows: dict[str, list[np.ndarray]] = field(init=False, repr=False)  # probe -> per-replica shared cosines

    def __post_init__(self, replicas: Iterable[EmbeddingModel | ReducedReplica]) -> None:
        self.probes = tuple(self.probes)
        self._rows = {t: [] for t in self.probes}
        for replica in replicas:
            if self.replica_count == 0:
                self.dimensionality, shared = replica.dimensionality, np.asarray(replica.vocabulary, dtype=object)
            elif replica.dimensionality != self.dimensionality:
                dims = sorted({self.dimensionality, replica.dimensionality})
                raise ValueError(f"replicas disagree on dimensionality: {dims}")
            record = replica._row
            cols = np.array([record.get(t, -1) for t in shared], dtype=np.int64)  # -1: not in this replica
            if not (keep := cols >= 0).all():
                shared, cols = shared[keep], cols[keep]
                self._rows = {t: [r[keep] for r in rows] for t, rows in self._rows.items()}
            for t, rows in self._rows.items():
                if t not in replica:
                    raise KeyError(f"token {t!r} missing from replica {replica.model_id!r}")
                rows.append(replica.similarities_to(t)[cols])
            self.replica_count += 1
            del replica, record  # lets a generator free this replica before producing the next
        if self.replica_count < 2:
            raise ValueError("an ensemble needs at least 2 replicas")
        if not len(shared):
            raise ValueError("replica vocabularies have an empty intersection")
        self.shared_vocabulary = list(shared)

    def similarities(self, token: str) -> np.ndarray:
        """(R, S-1) cosines of probe ``token`` against every other shared term,
        one row per replica, columns in ``shared_vocabulary`` order without it."""
        if token not in self._rows:
            raise KeyError(f"token {token!r} is not a probe of this ensemble")
        return np.delete(np.stack(self._rows[token]), self.shared_vocabulary.index(token), axis=1)


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


def _allocate_rows(fh: BinaryIO, count: int, dim: int, record_bytes: int) -> np.ndarray:
    """The matrix for the records after the header, with no more rows than the
    rest of the file can hold: each record takes at least ``record_bytes``, the
    last one's newline optional. An overstated header count then fails as a
    count mismatch instead of allocating for it. A pipe cannot be sized."""
    info = os.fstat(fh.fileno())
    if stat.S_ISREG(info.st_mode):
        count = min(count, (info.st_size - fh.tell() + 1) // record_bytes)
    return np.empty((count, dim), dtype=np.float64)


def _text_blocks(path: str, fh: BinaryIO, count: int, dim: int) -> Iterator[tuple[list[str], np.ndarray]]:
    """The text records after the header, as (tokens, float64 rows) per block
    of ``_TEXT_BLOCK_LINES`` lines that holds any."""
    n = 0
    while block := list(islice(fh, _TEXT_BLOCK_LINES)):
        try:
            heads = [line.split(None, 1) for raw in block if (line := raw.decode("utf-8").strip())]
            if not heads:
                continue
            values = np.loadtxt([body for _, body in heads], dtype=np.float64, ndmin=2, comments=None)
            if values.shape != (len(heads), dim) or n + len(heads) > count:
                raise ValueError("block does not parse")
        except ValueError:  # UnicodeDecodeError included
            _raise_for_text_record(path, block, n, count, dim)
            raise
        yield [token for token, _ in heads], values
        n += len(heads)


def _raise_for_text_record(path: str, block: list[bytes], n: int, count: int, dim: int) -> None:
    """Re-check a text block that failed to parse, record by record (``n`` is
    its first), and raise for the first bad one."""
    for raw in block:
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
            raise ModelFormatError(f"{path}: record {n} has {len(parts) - 1} components, expected {dim}")
        try:
            parsed = np.loadtxt([line.split(None, 1)[1]], dtype=np.float64, ndmin=2, comments=None).shape == (1, dim)
        except ValueError:
            parsed = False
        if not parsed:
            raise ModelFormatError(f"{path}: unparseable float in record {n}")
        n += 1


def _binary_blocks(path: str, fh: BinaryIO, count: int, dim: int) -> Iterator[tuple[list[str], np.ndarray]]:
    """The ``count`` binary records after the header, as (tokens, float32 rows)
    per block: the records completed by one ``_BINARY_CHUNK_BYTES`` read."""
    vec_bytes = 4 * dim
    buf, pos = bytearray(), 0
    tokens: list[str] = []
    vectors: list[bytearray] = []  # each pending record's vector, copied out of ``buf``
    for n in range(count):
        # Read on until the buffer holds this record's token, vector and separator, or the file ends.
        while (space := buf.find(b" ", pos)) < 0 or len(buf) < space + vec_bytes + 2:
            if not (chunk := fh.read(_BINARY_CHUNK_BYTES)):
                break
            if tokens:  # a block per read, yielded first: load_model checks each in turn, so this fixes which fault wins
                yield tokens, np.frombuffer(b"".join(vectors), "<f4").reshape(-1, dim)
                tokens, vectors = [], []
            del buf[:pos]
            buf += chunk
            pos = 0
        if space < 0:
            raise ModelFormatError(f"{path}: truncated at record {n}")
        try:
            token = buf[pos:space].decode("utf-8")
        except UnicodeDecodeError:
            raise ModelFormatError(f"{path}: record {n}: token is not valid UTF-8") from None
        if not token:
            raise ModelFormatError(f"{path}: empty token in record {n}")
        pos = space + 1 + vec_bytes
        if len(buf) < pos:
            raise ModelFormatError(f"{path}: truncated vector in record {n}")
        tokens.append(token)
        vectors.append(buf[space + 1 : pos])
        sep = buf[pos : pos + 1]
        if sep not in (b"\n", b""):
            raise ModelFormatError(f"{path}: expected newline after record {n}")
        if sep == b"" and n != count - 1:
            raise ModelFormatError(f"{path}: header promises {count} records, found {n + 1}")
        pos += 1
    if pos < len(buf) or fh.read(1):
        raise ModelFormatError(f"{path}: trailing bytes after {count} records")
    yield tokens, np.frombuffer(b"".join(vectors), "<f4").reshape(-1, dim)


def load_model(path: str, fmt: str = "word2vec_text") -> EmbeddingModel:
    """Load a word2vec-format model and unit-normalize its vectors.

    ``fmt`` is ``word2vec_text`` (header line then one ``token f1 .. fdim``
    line per record) or ``word2vec_binary`` (same header; records are the
    token, a space, dim little-endian float32 values, and a newline). Each
    block of records is checked and normalized as it is read, so a file with
    faults in several blocks fails at its first faulty block.
    """
    blocks = {"word2vec_text": _text_blocks, "word2vec_binary": _binary_blocks}.get(fmt)
    if blocks is None:
        raise ValueError(f"unknown format {fmt!r}")
    tokens: list[str] = []
    with open(path, "rb") as fh:
        count, dim = _parse_header(fh.readline(), path)
        # the fewest bytes a record takes: token, dim spaced digits, newline; or token, space, vector, newline
        rows = _allocate_rows(fh, count, dim, 2 * (dim + 1) if blocks is _text_blocks else 4 * dim + 3)
        for block_tokens, values in blocks(path, fh, count, dim):
            n = len(tokens)
            tokens.extend(block_tokens)
            rows[n : len(tokens)] = values  # float32 -> float64 is exact
            _normalize_rows(block_tokens, rows[n : len(tokens)], str(path), n)
    if len(tokens) != count:
        raise ModelFormatError(f"{path}: header promises {count} records, found {len(tokens)}")
    return EmbeddingModel(model_id=str(path), vocabulary=tokens, vectors=rows)
