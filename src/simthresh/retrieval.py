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
from itertools import chain
from typing import TYPE_CHECKING, Iterable, Iterator

import numpy as np

from .csvio import read_lines
from .evaluation import check_run_fields, read_run, write_run  # noqa: F401  (the run format lives in evaluation)
from .textproc import Pipeline

if TYPE_CHECKING:  # annotations only: index and search without a model never load the embeddings
    from .embeddings import EmbeddingModel, ReducedReplica

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
    "read_corpus",
    "read_topics",
    "write_run",
]

logger = logging.getLogger(__name__)


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
    doc_id order. Lengths and collection statistics derive from the postings.
    ``pipeline`` made the terms, so it is the one that may process a query."""

    terms: list[str]
    offsets: np.ndarray  # int64, len(terms) + 1
    docs: np.ndarray  # int64
    tfs: np.ndarray  # int64
    doc_ids: list[str]
    pipeline: Pipeline
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
    return Index(terms, offsets, docs[order], tfs[order], doc_ids, pipeline)


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
            "offsets": np.int64, "docs": np.int64, "tfs": np.int64, "stopwords": np.uint8,
            "stopwords_offsets": np.int64, "stem": np.bool_}  # every member is one-dimensional; stem has one value


def save_index(index: Index, path: str) -> None:
    """One compressed numpy archive, written at exactly ``path``, with the index's text pipeline."""
    with open(path, "wb") as fh:  # given a path string, numpy would append ".npz"
        np.savez_compressed(fh, **_pack("terms", index.terms), **_pack("doc_ids", index.doc_ids),
                            **_pack("stopwords", sorted(index.pipeline.stopwords)), stem=[index.pipeline.stem_enabled],
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
        if any(a[n].dtype != dtype or a[n].ndim != 1 for n, dtype in _MEMBERS.items()) or len(a["stem"]) != 1:
            raise ValueError("a member has the wrong dtype or shape")
        terms, doc_ids = _unpack(a, "terms"), _unpack(a, "doc_ids")
        pipeline = Pipeline(frozenset(_unpack(a, "stopwords")), bool(a["stem"][0]))
        offsets, docs, tfs = a["offsets"], a["docs"], a["tfs"]
        if (len(offsets), offsets[0], offsets[-1], len(tfs)) != (len(terms) + 1, 0, len(docs), len(docs)):
            raise ValueError("postings offsets disagree with the postings")
        # np.repeat rejects decreasing offsets; (term, document) keys must strictly increase.
        keys = np.repeat(np.arange(len(terms)), np.diff(offsets)) * len(doc_ids) + docs
        if np.any(np.diff(keys) <= 0) or np.any(docs >= len(doc_ids)) or np.any(tfs < 1):
            raise ValueError("postings are not unique (term, document) pairs with positive counts")
        return Index(terms, offsets, docs, tfs, doc_ids, pipeline)  # np.bincount rejects a negative document
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

    def neighbors(self, replica: EmbeddingModel | ReducedReplica | None, term: str) -> list[tuple[str, float]]:
        """The ranked neighbors of ``term`` in ``replica`` that this policy keeps; none under "none"."""
        if self.mode == "none":
            return []
        if replica is None:
            raise ValueError(f"expansion mode {self.mode!r} needs an embedding model")
        return replica.neighbors_above(term, self.threshold) if self.mode == "threshold" else replica.knn(term, self.k)


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
    table = TranslationTable()
    for term in query_terms:
        if term not in table.entries:
            found = policy.neighbors(embedding, term) if embedding is None or term in embedding else []
            table.add(term, [(term, 1.0), *((t, s) for t, s in found if s > 0.0)])
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
    # np.unique would import numpy.ma; the postings' union is their sorted documents without repeats.
    merged = np.sort(np.concatenate([docs for docs, _ in postings.values()]))
    candidates = merged[np.diff(merged, prepend=-1) != 0]
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
    """Basic query-likelihood ranking with Dirichlet smoothing: the translation
    model on the table ``search --policy none`` scores with, whose self-only
    entries make the reduction identity exact by construction.
    """
    return tlm_score(index, config, build_translation_table(query_terms, ExpansionPolicy()), query_terms)


_DOCNO_RE = re.compile(r"<DOCNO>(.*?)</DOCNO>", re.DOTALL)
_TEXT_RE = re.compile(r"<TEXT>(.*?)(?:</TEXT>|(?=<TEXT>)|\Z)", re.DOTALL)  # unclosed: to the next <TEXT> or </DOC>


def read_corpus(path: str) -> Iterator[tuple[str, str]]:
    r"""(doc_id, text) for each document of a UTF-8 corpus (``csvio.read_lines``), read once.
    The first non-blank line picks the format: '{' starts JSON objects with "id" and "text"
    fields, one per line; '<DOC>' starts TREC documents, each the lines from a <DOC> line to a
    </DOC> line, with the first <DOCNO> outside its <TEXT> sections as id and those sections
    as text. A document id may occur once."""
    lines = read_lines(path)
    for lineno, line in lines:
        if line.strip():
            break
    else:
        raise ValueError(f"{path}: no documents found")
    if not line.lstrip().startswith(("{", "<DOC>")):
        raise ValueError(f"{path}:{lineno}: expected a JSON object or <DOC>")
    documents = _json_documents if line.lstrip().startswith("{") else _trec_documents
    first: dict[str, int] = {}  # doc id -> line of its record or <DOC>
    for start, doc_id, text in documents(path, chain([(lineno, line)], lines)):
        check_run_fields(f"{path}:{start}: document id", doc_id)
        if (seen := first.setdefault(doc_id, start)) != start:
            raise ValueError(f"{path}:{start}: duplicate document {doc_id!r} (first on line {seen})")
        yield doc_id, text


def _json_documents(path: str, lines: Iterator[tuple[int, str]]) -> Iterator[tuple[int, str, str]]:
    for lineno, line in lines:
        if not (line := line.strip()):
            continue
        try:
            obj = json.loads(line)
        except (ValueError, RecursionError) as exc:  # also too many digits, or too deep
            raise ValueError(f"{path}:{lineno}: invalid JSON ({exc})") from None
        if not isinstance(obj, dict) or "id" not in obj or "text" not in obj:
            raise ValueError(f"{path}:{lineno}: record needs 'id' and 'text' fields")
        doc_id, text = obj["id"], obj["text"]
        if not isinstance(text, str) or isinstance(doc_id, bool) or not isinstance(doc_id, (str, int)):
            raise ValueError(f"{path}:{lineno}: record needs a string 'text' and a string or integer 'id'")
        yield lineno, str(doc_id), text


def _trec_documents(path: str, lines: Iterator[tuple[int, str]]) -> Iterator[tuple[int, str, str]]:
    start, block = 0, []  # start: line of the open <DOC>, 0 with none open
    for lineno, line in lines:
        if line.lstrip().startswith("<DOC>"):
            if start:
                raise ValueError(f"{path}:{start}: unterminated <DOC> block")
            start, block = lineno, []
        elif line.lstrip().startswith("</DOC>"):
            if not start:
                raise ValueError(f"{path}:{lineno}: </DOC> without <DOC>")
            body = "\n".join(block)
            match = _DOCNO_RE.search(_TEXT_RE.sub("", body))
            if match is None:
                raise ValueError(f"{path}:{start}: document without <DOCNO>")
            yield start, match.group(1).strip(), "\n".join(_TEXT_RE.findall(body))
            start = 0
        elif start:
            block.append(line.rstrip("\r\n"))
    if start:
        raise ValueError(f"{path}:{start}: unterminated <DOC> block")


def read_topics(path: str) -> list[tuple[str, str]]:
    """Tab-separated lines: topic_id<TAB>query text. A topic id may occur once."""
    topics = []
    first: dict[str, int] = {}  # topic id -> line
    for lineno, line in read_lines(path):
        line = line.rstrip("\r\n")
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        if "\t" not in line:
            raise ValueError(f"{path}:{lineno}: expected 'topic_id<TAB>query text'")
        topic_id, text = line.split("\t", 1)
        topic_id = topic_id.strip()
        check_run_fields(f"{path}:{lineno}: topic id", topic_id)
        if (seen := first.setdefault(topic_id, lineno)) != lineno:
            raise ValueError(f"{path}:{lineno}: duplicate topic {topic_id!r} (first on line {seen})")
        topics.append((topic_id, text))
    if not topics:
        raise ValueError(f"{path}: no topics found")
    return topics
