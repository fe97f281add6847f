"""Similarity uncertainty, neighbor thresholds, and retrieval validation for
word embedding replicas."""

from .embeddings import EmbeddingModel, ModelEnsemble, load_model, save_model
from .evaluation import (
    Qrels,
    RunScores,
    SignificanceResult,
    average_precision,
    condense,
    evaluate_run,
    ndcg_at,
    paired_ttest,
    read_qrels,
)
from .neighbors import (
    NeighborCurve,
    aggregate_curves,
    default_grid,
    expected_neighbors,
    probe_curves,
)
from .retrieval import (
    ExpansionPolicy,
    Index,
    LmConfig,
    TranslationTable,
    build_index,
    build_translation_table,
    lm_score,
    tlm_score,
)
from .textproc import Pipeline, tokenize
from .threshold import SynonymTarget, ThresholdResult, solve_threshold, synonym_statistics
from .uncertainty import (
    HistogramConfig,
    SimilarityHistogram,
    UncertaintyCurve,
    similarity_histogram,
    uncertainty_curve,
)

__version__ = "0.1.0"

__all__ = [
    "EmbeddingModel",
    "ModelEnsemble",
    "load_model",
    "save_model",
    "HistogramConfig",
    "UncertaintyCurve",
    "SimilarityHistogram",
    "uncertainty_curve",
    "similarity_histogram",
    "NeighborCurve",
    "default_grid",
    "expected_neighbors",
    "probe_curves",
    "aggregate_curves",
    "SynonymTarget",
    "ThresholdResult",
    "solve_threshold",
    "synonym_statistics",
    "Pipeline",
    "tokenize",
    "Index",
    "LmConfig",
    "TranslationTable",
    "ExpansionPolicy",
    "build_index",
    "build_translation_table",
    "lm_score",
    "tlm_score",
    "Qrels",
    "RunScores",
    "SignificanceResult",
    "condense",
    "average_precision",
    "ndcg_at",
    "evaluate_run",
    "paired_ttest",
    "read_qrels",
    "__version__",
]
