"""Query-likelihood retrieval with Dirichlet smoothing and its translation
language model extension.

Scores are accumulated in log space. The translation model generalizes the
basic model: each query term may be generated by related document terms via
translation probabilities; with self-only tables the two scorers coincide
exactly.
"""

from __future__ import annotations

import json
import logging
import re
import zipfile
import zlib
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Iterator

import numpy as np

from .csvio import read_lines
from .embeddings import EmbeddingModel
from .textproc import Pipeline

__all__ = [
    "Index",
    "LmConfig",
    "TranslationTable",
    "ExpansionPolicy",
    "build_index",
    "save_index",
    "load_index",
    "lm_score",
    "tlm_score",
    "build_translation_table",
    "read_jsonl_corpus",
    "read_trec_corpus",
    "read_topics",
    "write_run",
    "read_run",
]

logger = logging.getLogger(__name__)

MAX_RUN_DOCS = 1000


@dataclass(frozen=True)
class LmConfig:
    """Dirichlet smoothing weight; 1000 is the conventional default."""

    mu: float = 1000.0

    def __post_init__(self) -> None:
        if not 0 < self.mu < np.inf:
            raise ValueError(f"mu must be positive and finite, got {self.mu}")


@dataclass(eq=False)
class Index:
    """Inverted index as compressed sparse rows: ``terms[i]`` occurs in the
    documents ``docs[offsets[i]:offsets[i + 1]]`` (ascending) with frequencies
    ``tfs``. ``terms`` and ``doc_ids`` are sorted, so document index order is
    doc_id order. Lengths and collection statistics derive from the postings."""

    terms: list[str]
    offsets: np.ndarray  # int64, len(terms) + 1
    docs: np.ndarray  # int64
    tfs: np.ndarray  # int64
    doc_ids: list[str]
    doc_lengths: np.ndarray = field(init=False, repr=False)  # int64, one per document
    _slot: dict[str, int] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self._slot = {t: i for i, t in enumerate(self.terms)}
        self.doc_lengths = np.bincount(self.docs, self.tfs, len(self.doc_ids)).astype(np.int64)

    @property
    def doc_count(self) -> int:
        return len(self.doc_ids)

    @cached_property  # collection_prob reads it once per expansion term
    def total_tokens(self) -> int:
        return int(self.tfs.sum())

    def postings(self, term: str) -> tuple[np.ndarray, np.ndarray]:
        """(document indices, term frequencies); empty for an unknown term."""
        slot = self._slot.get(term)
        lo, hi = (0, 0) if slot is None else self.offsets[slot : slot + 2]
        return self.docs[lo:hi], self.tfs[lo:hi]

    def collection_prob(self, term: str) -> float:
        return int(self.postings(term)[1].sum()) / max(self.total_tokens, 1)


def build_index(corpus: Iterable[tuple[str, str]], pipeline: Pipeline) -> Index:
    """Index a stream of (doc_id, text). Empty documents are legal (length 0);
    duplicate ids are not."""
    slots: dict[str, int] = {}  # term -> number in order of first use
    seen: dict[str, int] = {}  # doc_id -> number in corpus order
    rows: list[int] = []  # flat (term number, doc number, tf) triples
    for doc_id, text in corpus:
        if doc_id in seen:
            raise ValueError(f"duplicate doc_id {doc_id!r}")
        seen[doc_id] = d = len(seen)
        for t, n in Counter(pipeline.process(text)).items():
            rows += (slots.setdefault(t, len(slots)), d, n)
    term_of, docs, tfs = np.array(rows, dtype=np.int64).reshape(-1, 3).T
    terms, doc_ids = sorted(slots), sorted(seen)
    # argsort inverts each permutation: first-use number -> position in sorted order.
    term_of = np.argsort([slots[t] for t in terms])[term_of]
    docs = np.argsort([seen[d] for d in doc_ids])[docs]
    order = np.lexsort((docs, term_of))
    offsets = np.searchsorted(term_of[order], np.arange(len(terms) + 1))
    return Index(terms, offsets, docs[order], tfs[order], doc_ids)


def _pack(name: str, strings: list[str]) -> dict[str, np.ndarray]:
    """UTF-8 blob plus offsets: string i is ``blob[offsets[i]:offsets[i + 1]]``."""
    encoded = [s.encode("utf-8") for s in strings]
    blob = np.frombuffer(b"".join(encoded), np.uint8)
    return {name: blob, f"{name}_offsets": np.cumsum([0] + [len(b) for b in encoded])}


def _unpack(archive: dict[str, np.ndarray], name: str) -> list[str]:
    """Inverse of ``_pack``; the strings must be sorted and unique."""
    data, bounds = archive[name].tobytes(), archive[f"{name}_offsets"].tolist()
    if bounds[0] != 0 or bounds[-1] != len(data) or bounds != sorted(bounds):
        raise ValueError(f"{name} offsets do not partition their blob")
    strings = [data[a:b].decode("utf-8") for a, b in zip(bounds, bounds[1:])]
    if strings != sorted(set(strings)):
        raise ValueError(f"{name} are not sorted and unique")
    return strings


_MEMBERS = {"terms": np.uint8, "terms_offsets": np.int64, "doc_ids": np.uint8, "doc_ids_offsets": np.int64,
            "offsets": np.int64, "docs": np.int64, "tfs": np.int64}  # every member is one-dimensional


def save_index(index: Index, path: str) -> None:
    """One compressed numpy archive, written at exactly ``path``."""
    with open(path, "wb") as fh:  # given a path string, numpy would append ".npz"
        np.savez_compressed(fh, **_pack("terms", index.terms), **_pack("doc_ids", index.doc_ids),
                            offsets=index.offsets, docs=index.docs, tfs=index.tfs)


def load_index(path: str) -> Index:
    """Read an archive written by ``save_index``; every failure names the file."""
    try:
        with open(path, "rb") as fh:
            if fh.read(4) != b"PK\x03\x04":  # np.load would take any other file for a pickle
                raise ValueError("not a zip archive")
            fh.seek(0)
            archive = np.load(fh, allow_pickle=False)
            a = {name: archive[name] for name in _MEMBERS}
        if any(a[name].dtype != dtype or a[name].ndim != 1 for name, dtype in _MEMBERS.items()):
            raise ValueError("a member has the wrong dtype or shape")
        terms, doc_ids = _unpack(a, "terms"), _unpack(a, "doc_ids")
        offsets, docs, tfs = a["offsets"], a["docs"], a["tfs"]
        if (len(offsets), offsets[0], offsets[-1], len(tfs)) != (len(terms) + 1, 0, len(docs), len(docs)):
            raise ValueError("postings offsets disagree with the postings")
        # np.repeat rejects decreasing offsets; (term, document) keys must strictly increase.
        keys = np.repeat(np.arange(len(terms)), np.diff(offsets)) * len(doc_ids) + docs
        if np.any(np.diff(keys) <= 0) or np.any(docs >= len(doc_ids)) or np.any(tfs < 1):
            raise ValueError("postings are not unique (term, document) pairs with positive counts")
        return Index(terms, offsets, docs, tfs, doc_ids)  # np.bincount rejects a negative document
    except (ValueError, KeyError, IndexError, EOFError, zipfile.BadZipFile, zlib.error) as exc:
        raise ValueError(f"{path}: not a readable index archive ({exc})") from None


@dataclass(eq=False)
class TranslationTable:
    """Per query term: expansion entries (term, P_T(query_term | term)).

    Entries keep their construction order; probabilities sum to 1 per term.
    """

    entries: dict[str, list[tuple[str, float]]] = field(default_factory=dict)

    def add(self, query_term: str, weighted_terms: list[tuple[str, float]]) -> None:
        total = sum(w for _, w in weighted_terms)
        if not weighted_terms or total <= 0:
            raise ValueError(f"no positive translation mass for {query_term!r}")
        self.entries[query_term] = [(t, w / total) for t, w in weighted_terms]

    def expansion(self, query_term: str) -> list[tuple[str, float]]:
        try:
            return self.entries[query_term]
        except KeyError:
            raise KeyError(f"query term {query_term!r} missing from translation table") from None

    @classmethod
    def self_only(cls, query_terms: Iterable[str]) -> "TranslationTable":
        table = cls()
        for t in query_terms:
            table.entries.setdefault(t, [(t, 1.0)])
        return table


@dataclass(frozen=True)
class ExpansionPolicy:
    """How to pick related embedding terms per query term.

    mode: "none" (self only), "threshold" (all terms with similarity >= value),
    or "knn" (top-k regardless of similarity).
    """

    mode: str = "none"
    threshold: float | None = None
    k: int | None = None

    def __post_init__(self) -> None:
        if self.mode not in ("none", "threshold", "knn"):
            raise ValueError(f"unknown expansion mode {self.mode!r}")
        if self.mode == "threshold" and self.threshold is None:
            raise ValueError("threshold mode needs a threshold value")
        if self.mode == "threshold" and np.isnan(self.threshold):
            raise ValueError(f"threshold must be a number, got {self.threshold}")
        if self.mode == "knn" and (self.k is None or self.k < 1):
            raise ValueError("knn mode needs k >= 1")


def build_translation_table(
    query_terms: list[str],
    policy: ExpansionPolicy,
    embedding: EmbeddingModel | None = None,
) -> TranslationTable:
    """Similarity-normalized translation probabilities over each query term's
    expansion set, always including the term itself with similarity 1.

    Query terms absent from the embedding vocabulary degenerate to self-only
    entries, as do terms with no qualifying neighbor. Neighbors with
    non-positive similarity are discarded: they would break the probability
    simplex.
    """
    if policy.mode != "none" and embedding is None:
        raise ValueError(f"expansion mode {policy.mode!r} needs an embedding model")
    table = TranslationTable()
    for term in query_terms:
        if term in table.entries:
            continue
        pairs: list[tuple[str, float]] = [(term, 1.0)]
        if policy.mode != "none" and embedding is not None and term in embedding:
            if policy.mode == "threshold":
                neighbors = embedding.neighbors_above(term, float(policy.threshold))
            else:
                neighbors = embedding.knn(term, int(policy.k))
            pairs.extend((t, s) for t, s in neighbors if s > 0.0 and t != term)
        table.add(term, pairs)
    return table


def tlm_score(
    index: Index,
    config: LmConfig,
    table: TranslationTable,
    query_terms: list[str],
) -> list[tuple[str, float]]:
    """Translation-model ranking: per query term, sum translation-weighted
    Dirichlet-smoothed document probabilities over the term's expansion set.

    Candidates are the documents containing at least one expansion-set term;
    they are returned ranked by log score (descending), doc_id breaking ties.
    """
    if index.doc_count == 0:
        raise ValueError("cannot score against an empty index")
    kept = []
    for t in query_terms:
        if len(index.postings(t)[0]):
            kept.append(t)
        else:
            logger.warning("dropping query term %r: zero collection frequency", t)
    if not kept:
        raise ValueError("query has no terms with collection evidence")
    expansions = [table.expansion(t) for t in kept]
    postings = {term: index.postings(term) for entry in expansions for term, _ in entry}
    candidates = np.unique(np.concatenate([docs for docs, _ in postings.values()]))
    # Per expansion term over the candidates: tf + mu * P(term | collection).
    numerators = {}
    for term, (docs, tfs) in postings.items():
        numerators[term] = np.full(len(candidates), config.mu * index.collection_prob(term))
        numerators[term][np.searchsorted(candidates, docs)] += tfs
    denom = index.doc_lengths[candidates] + config.mu
    scores = np.zeros(len(candidates))
    for entry in expansions:
        inner = np.zeros(len(candidates))
        for term, p_t in entry:
            inner += p_t * (numerators[term] / denom)
        scores += np.log(inner)
    order = np.lexsort((candidates, -scores))
    return [(index.doc_ids[d], s) for d, s in zip(candidates[order].tolist(), scores[order].tolist())]


def lm_score(index: Index, config: LmConfig, query_terms: list[str]) -> list[tuple[str, float]]:
    """Basic query-likelihood ranking with Dirichlet smoothing.

    Implemented as the translation model with self-only tables, which makes
    the reduction identity exact by construction.
    """
    return tlm_score(index, config, TranslationTable.self_only(query_terms), query_terms)


def read_jsonl_corpus(path: str) -> Iterator[tuple[str, str]]:
    """Line-delimited JSON objects with "id" and "text" fields."""
    for lineno, line in read_lines(path):
        line = line.strip()
        if not line:
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}:{lineno}: invalid JSON ({exc})") from None
        if "id" not in obj or "text" not in obj:
            raise ValueError(f"{path}:{lineno}: record needs 'id' and 'text' fields")
        yield str(obj["id"]), str(obj["text"])


_DOCNO_RE = re.compile(r"<DOCNO>(.*?)</DOCNO>", re.DOTALL)


def read_trec_corpus(path: str) -> Iterator[tuple[str, str]]:
    r"""TREC-tagged documents: <DOC> blocks with <DOCNO> and <TEXT> sections,
    in UTF-8 (``csvio.read_lines``); a '\r' before a line's '\n' is dropped."""
    in_doc, start = False, 0  # start: line of the open <DOC>
    in_text = False
    doc_lines: list[str] = []
    text_lines: list[str] = []
    for lineno, line in read_lines(path):
        line = line.rstrip("\r\n")
        stripped = line.strip()
        if stripped.startswith("<DOC>"):
            in_doc, start, doc_lines, text_lines = True, lineno, [], []
            continue
        if stripped.startswith("</DOC>"):
            if not in_doc:
                raise ValueError(f"{path}:{lineno}: </DOC> without <DOC>")
            header = "\n".join(doc_lines)
            match = _DOCNO_RE.search(header)
            if match is None:
                raise ValueError(f"{path}:{start}: document without <DOCNO>")
            yield match.group(1).strip(), "\n".join(text_lines)
            in_doc = in_text = False
            continue
        if not in_doc:
            continue
        if stripped.startswith("<TEXT>"):
            in_text = True
            remainder = stripped[len("<TEXT>") :]
            if remainder.endswith("</TEXT>"):
                text_lines.append(remainder[: -len("</TEXT>")])
                in_text = False
            elif remainder:
                text_lines.append(remainder)
            continue
        if stripped.startswith("</TEXT>"):
            in_text = False
            continue
        if in_text:
            text_lines.append(line)
        else:
            doc_lines.append(line)
    if in_doc:
        raise ValueError(f"{path}:{start}: unterminated <DOC> block")


def read_corpus(path: str, fmt: str) -> Iterator[tuple[str, str]]:
    if fmt == "jsonl":
        return read_jsonl_corpus(path)
    if fmt == "trec":
        return read_trec_corpus(path)
    raise ValueError(f"unknown corpus format {fmt!r}")


def read_topics(path: str) -> list[tuple[str, str]]:
    """Tab-separated lines: topic_id<TAB>query text. A topic id may occur once."""
    topics = []
    first: dict[str, int] = {}  # topic id -> line
    for lineno, line in read_lines(path):
        line = line.rstrip("\r\n")
        if not line.strip() or line.startswith("#"):
            continue
        if "\t" not in line:
            raise ValueError(f"{path}:{lineno}: expected 'topic_id<TAB>query text'")
        topic_id, text = line.split("\t", 1)
        topic_id = topic_id.strip()
        if (seen := first.setdefault(topic_id, lineno)) != lineno:
            raise ValueError(f"{path}:{lineno}: duplicate topic {topic_id!r} (first on line {seen})")
        topics.append((topic_id, text))
    if not topics:
        raise ValueError(f"{path}: no topics found")
    return topics


def write_run(
    run: dict[str, list[tuple[str, float]]],
    path: str,
    run_tag: str = "simthresh",
    max_docs: int = MAX_RUN_DOCS,
) -> None:
    """TREC run format: topic_id Q0 doc_id rank score run_tag."""
    if max_docs < 1:
        raise ValueError("max_docs must be >= 1")
    with open(path, "w", encoding="utf-8") as fh:
        for topic_id in sorted(run, key=_topic_sort_key):
            for rank, (doc_id, score) in enumerate(run[topic_id][:max_docs], start=1):
                fh.write(f"{topic_id} Q0 {doc_id} {rank} {score!r} {run_tag}\n")


def read_run(path: str) -> dict[str, list[tuple[str, float]]]:
    """TREC run format, in file order per topic. A document may occur once per
    topic: a repeat would count as a second hit in every metric."""
    run: dict[str, list[tuple[str, float]]] = {}
    first: dict[tuple[str, str], int] = {}  # (topic id, doc id) -> line
    for lineno, line in read_lines(path):
        parts = line.split()
        if not parts:
            continue
        if len(parts) != 6:
            raise ValueError(f"{path}:{lineno}: expected 6 whitespace-separated fields")
        topic_id, _, doc_id, _, score, _ = parts
        try:
            value = float(score)
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from None
        if (seen := first.setdefault((topic_id, doc_id), lineno)) != lineno:
            raise ValueError(
                f"{path}:{lineno}: duplicate document {doc_id!r} for topic {topic_id!r} (first on line {seen})"
            )
        run.setdefault(topic_id, []).append((doc_id, value))
    return run


def _topic_sort_key(topic_id: str) -> tuple[int, str]:
    # Numeric topic ids sort numerically, everything else lexicographically.
    return (0, f"{int(topic_id):020d}") if topic_id.isdigit() else (1, topic_id)
