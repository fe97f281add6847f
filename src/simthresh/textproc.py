"""Shared text preprocessing: tokenization, stopword removal, stemming.

The same pipeline feeds both corpus indexing and embedding lookups so that
query terms and model vocabularies live in one term space (models are assumed
to be trained on stemmed text).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import lru_cache
from importlib import resources

from . import porter
from .csvio import read_records

__all__ = ["Pipeline", "tokenize", "load_stopwords", "default_stopwords"]

_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)
_MAX_DIGIT_RUN = 16
# Stems remembered per process (least recently used dropped first). Word
# frequencies are Zipfian, so this many covers nearly every token of a corpus
# while holding the cache to a few MiB.
_STEM_CACHE_WORDS = 1 << 16


def tokenize(text: str) -> list[str]:
    """Lowercased alphanumeric runs; pure numbers longer than 16 digits are dropped."""
    tokens = _TOKEN_RE.findall(text.lower())
    return [t for t in tokens if not (t.isdigit() and len(t) > _MAX_DIGIT_RUN)]


def load_stopwords(path: str) -> frozenset[str]:
    """Stopword file: UTF-8, one token per line, '#' lines ignored."""
    return frozenset(line.lower() for _, line in read_records(path))


def default_stopwords() -> frozenset[str]:
    """The bundled 127-entry English stopword list.

    Assembled from common IR stopword lists as a stand-in; pass a stopword
    file to :class:`Pipeline` to use a specific list.
    """
    with resources.as_file(resources.files("simthresh").joinpath("data/stopwords_127.txt")) as path:
        return load_stopwords(str(path))


@dataclass(frozen=True)
class Pipeline:
    """Tokenize, drop stopwords, then Porter-stem. Order and duplicates preserved."""

    stopwords: frozenset[str] = field(default_factory=default_stopwords)
    stem_enabled: bool = True

    def process(self, text: str) -> list[str]:
        terms = [t for t in tokenize(text) if t not in self.stopwords]
        if self.stem_enabled:
            terms = [_stem(t) for t in terms]
        return terms


@lru_cache(maxsize=_STEM_CACHE_WORDS)
def _stem(word: str) -> str:
    """``porter.stem``, looked up at call time, remembered per word."""
    return porter.stem(word)
