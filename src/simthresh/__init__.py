"""Similarity uncertainty, neighbor thresholds, and retrieval validation for
word embedding replicas.

Public names resolve on first access, so importing the package loads neither
numpy nor scipy until a name that needs them is used.
"""

__version__ = "0.1.0"

_MODULES = {name: module for module, names in {  # public name -> the module that defines it
    "embeddings": "EmbeddingModel ModelEnsemble load_model",
    "uncertainty": "HistogramConfig UncertaintyCurve SimilarityHistogram uncertainty_curve similarity_histogram",
    "neighbors": "NeighborCurve default_grid expected_neighbors aggregate_curves",
    "threshold": "SynonymTarget ThresholdResult solve_threshold synonym_statistics",
    "textproc": "Pipeline tokenize",
    "retrieval": "Index LmConfig TranslationTable ExpansionPolicy build_index build_translation_table "
                 "lm_score tlm_score",
    "evaluation": "Qrels RunScores SignificanceResult condense average_precision ndcg_at evaluate_run "
                  "paired_ttest read_qrels",
}.items() for name in names.split()}

__all__ = [*_MODULES, "__version__"]


def __getattr__(name: str):
    if name not in _MODULES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = globals()[name] = getattr(import_module(f".{_MODULES[name]}", __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
