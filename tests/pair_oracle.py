"""Per-pair normal fit used as an independent oracle for pair statistics.

Kept deliberately naive: one ``pair_cosine`` per replica for one term pair,
then numpy's sample mean and n-1 std, with no shared code path with the
ensemble or the package's similarity primitive.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from simthresh.embeddings import EmbeddingModel
from simthresh.neighbors import STD_FLOOR


class PairFit(NamedTuple):
    mean: float
    std: float
    sample_count: int


def pair_cosine(model: EmbeddingModel, term: str, other: str) -> float:
    """The dot product of two unit rows, clamped to [-1, 1]."""
    return min(1.0, max(-1.0, float(np.dot(model.vector(term), model.vector(other)))))


def fit_pair(replicas: list[EmbeddingModel], term: str, other: str) -> PairFit:
    """Normal fit of cosine(term, other) over the replicas (std floored at 1e-6)."""
    if term == other:
        raise ValueError("a pair needs two distinct terms")
    sims = np.array([pair_cosine(m, term, other) for m in replicas])
    return PairFit(float(sims.mean()), max(float(sims.std(ddof=1)), STD_FLOOR), len(sims))
