"""Run one ``simthresh`` CLI command with spans around each layer.

Usage: python3 perfbench/traced_cli.py TRACE_OUT [simthresh arguments ...]

The program is not modified: before ``simthresh.cli.main`` runs, the public
functions of each module are replaced at module level (and where ``cli.py``
binds a name itself, there too) by wrappers that record a span -- name,
parent, start, end -- and the counts taken at the same boundary. Spans stay
in memory and are written to TRACE_OUT as JSON when the command ends.
"""

from __future__ import annotations

import functools
import json
import logging
import os
import sys
import time

clock = time.perf_counter
_started = clock()
import simthresh.cli as cli  # noqa: E402  (timed: this is the command's import cost)
from simthresh import embeddings, evaluation, neighbors, porter, retrieval, textproc, threshold, uncertainty  # noqa: E402

IMPORT_S = clock() - _started


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.spans: list[float] = []  # flat (name id, parent span, start, end) records
        self.stack = [-1]
        self.counts: dict[str, float] = {}

    def add(self, key: str, amount: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def wrap(self, name: str, fn, count=None):
        if name not in self.names:
            self.names.append(name)
        nid, spans, stack = self.names.index(name), self.spans, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans) // 4
            spans.extend((nid, stack[-1], clock(), 0.0))
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[4 * idx + 3] = clock()
                stack.pop()
            if count is not None:
                count(args, result)
            return result

        return traced

    def patch(self, owner, attr: str, name: str, count=None) -> None:
        setattr(owner, attr, self.wrap(name, getattr(owner, attr), count))


class _DroppedTerms(logging.Filter):
    """Counts zero-frequency query-term warnings; lets every record through."""

    def __init__(self, tracer: Tracer) -> None:
        super().__init__()
        self.tracer = tracer

    def filter(self, record: logging.LogRecord) -> bool:
        if record.msg.startswith("dropping query term"):
            self.tracer.add("retrieval.dropped_terms", 1)
        return True


def install(t: Tracer) -> set[str]:
    """Wrap every layer's public entry points; returns the stemmed-word set."""
    load = t.wrap("embeddings.load", embeddings.load_model,
                  lambda a, r: t.add("embeddings.load_bytes", os.path.getsize(a[0])))
    embeddings.load_model = cli.load_model = load
    t.patch(embeddings.ModelEnsemble, "__post_init__", "embeddings.ensemble")
    t.patch(embeddings.EmbeddingModel, "neighbors_above", "embeddings.scan")
    t.patch(embeddings.EmbeddingModel, "knn", "embeddings.scan")

    t.patch(neighbors, "pair_statistics", "neighbors.pair_stats")
    t.patch(neighbors, "mixture_survival", "neighbors.mixture",
            lambda a, r: t.add("neighbors.mixture_cells", len(a[0]) * len(a[1])))
    t.patch(neighbors, "aggregate_curves", "neighbors.aggregate")
    t.patch(neighbors, "write_curve_csv", "neighbors.curve_write")

    t.patch(threshold, "solve_threshold", "threshold.solve")
    t.patch(threshold, "synonym_statistics", "threshold.synonyms")
    t.patch(threshold, "write_threshold_csv", "threshold.write")

    def binned(pairs: int, out_of_domain: int) -> None:
        t.add("uncertainty.pairs", pairs)
        t.add("uncertainty.out_of_domain", out_of_domain)

    t.patch(uncertainty, "uncertainty_curve", "uncertainty.curve",
            lambda a, r: binned(int(r.pair_counts.sum()) + r.out_of_domain_count, r.out_of_domain_count))
    t.patch(uncertainty, "similarity_histogram", "uncertainty.histogram",
            lambda a, r: binned(r.total, r.out_of_domain_count))
    t.patch(uncertainty, "write_uncertainty_csv", "uncertainty.write")
    t.patch(uncertainty, "write_histogram_csv", "uncertainty.write")

    t.patch(textproc.Pipeline, "process", "textproc.process")
    words: set[str] = set()
    t.patch(porter, "stem", "porter.stem", lambda a, r: words.add(a[0]))

    t.patch(retrieval, "build_index", "retrieval.build_index")
    t.patch(retrieval, "save_index", "retrieval.save_index",
            lambda a, r: t.add("retrieval.index_bytes", os.path.getsize(a[1])))
    t.patch(retrieval, "load_index", "retrieval.load_index")
    t.patch(retrieval, "build_translation_table", "retrieval.table",
            lambda a, r: t.add("retrieval.expansion_terms", sum(len(e) for e in r.entries.values())))
    t.patch(retrieval, "tlm_score", "retrieval.score",
            lambda a, r: t.add("retrieval.candidates", len(r)))
    t.patch(retrieval, "write_run", "retrieval.write_run")
    retrieval.logger.addFilter(_DroppedTerms(t))

    t.patch(retrieval, "read_run", "evaluation.read")
    t.patch(evaluation, "read_qrels", "evaluation.read")
    t.patch(evaluation, "evaluate_run", "evaluation.metric")
    t.patch(evaluation, "paired_ttest", "evaluation.ttest")
    return words


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    words = install(tracer)
    code = tracer.wrap("cli.main", cli.main)(argv)
    tracer.counts["porter.distinct_words"] = len(words)
    with open(out, "w", encoding="utf-8") as fh:
        json.dump({"import_s": IMPORT_S, "names": tracer.names, "spans": tracer.spans,
                   "counts": tracer.counts}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
