"""Command-line entry points for the analysis and retrieval workflows.

Every command is deterministic given its inputs; errors exit nonzero with a
message on stderr. A flat key=value config file can supply any flag's value;
explicit flags win.
"""

from __future__ import annotations

import argparse
import sys

from . import evaluation, neighbors, retrieval, threshold, uncertainty
from .csvio import format_csv, write_csv
from .embeddings import ModelEnsemble, load_model
from .textproc import Pipeline

__all__ = ["main"]


def read_config(path: str) -> dict[str, str]:
    """Flat key=value file; '#' lines are comments."""
    values: dict[str, str] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            key, value = line.split("=", 1)
            values[key.strip()] = value.strip()
    return values


class Settings:
    """Flag values with config-file fallback."""

    def __init__(self, args: argparse.Namespace):
        self._args = vars(args)
        self._file = read_config(args.config) if getattr(args, "config", None) else {}

    def get(self, key: str, default=None, cast=str):
        value = self._args.get(key)
        if value is not None:
            return value
        if key in self._file:
            raw = self._file[key]
            if cast is bool:
                return raw.lower() in ("1", "true", "yes", "on")
            return cast(raw)
        return default

    def require(self, key: str, cast=str):
        value = self.get(key, None, cast)
        if value is None:
            raise ValueError(f"missing required setting {key!r} (flag --{key.replace('_', '-')})")
        return value


def _read_terms(path: str) -> list[str]:
    terms = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line and not line.startswith("#"):
                terms.append(line)
    if not terms:
        raise ValueError(f"{path}: no terms found")
    return terms


def _histogram_config(cfg: Settings) -> uncertainty.HistogramConfig:
    return uncertainty.HistogramConfig(
        domain_low=cfg.get("domain_low", -0.2, float),
        domain_high=cfg.get("domain_high", 1.0, float),
        bin_count=cfg.get("bins", 500, int),
    )


def cmd_uncertainty(args: argparse.Namespace) -> int:
    cfg = Settings(args)
    fmt = cfg.get("format", "word2vec_text")
    reference = load_model(cfg.require("reference"), fmt)
    other = load_model(cfg.require("other"), fmt)
    probes = _read_terms(cfg.require("probes"))
    config = _histogram_config(cfg)
    curve = uncertainty.uncertainty_curve(reference, other, probes, config)
    uncertainty.write_uncertainty_csv(curve, cfg.require("curve_out"))
    hist_out = cfg.get("histogram_out")
    if hist_out:
        hist = uncertainty.similarity_histogram(reference, probes, config)
        uncertainty.write_histogram_csv(hist, hist_out)
    populated = int((curve.pair_counts > 0).sum())
    print(f"uncertainty: {populated} populated bins, {curve.out_of_domain_count} pairs out of domain")
    return 0


def cmd_histogram(args: argparse.Namespace) -> int:
    cfg = Settings(args)
    model = load_model(cfg.require("model"), cfg.get("format", "word2vec_text"))
    probes = _read_terms(cfg.require("probes"))
    hist = uncertainty.similarity_histogram(model, probes, _histogram_config(cfg))
    uncertainty.write_histogram_csv(hist, cfg.require("out"))
    print(f"histogram: {hist.total} similarities tallied")
    return 0


def cmd_neighbors(args: argparse.Namespace) -> int:
    cfg = Settings(args)
    model = load_model(cfg.require("model"), cfg.get("format", "word2vec_text"))
    term = cfg.require("term")
    thr = cfg.get("threshold", None, float)
    k = cfg.get("k", None, int)
    if (thr is None) == (k is None):
        raise ValueError("pass exactly one of --threshold or --k")
    found = model.neighbors_above(term, thr) if thr is not None else model.knn(term, k)
    out = cfg.get("out")
    if out:
        write_csv(out, ["token", "similarity"], found)
    else:
        sys.stdout.write(format_csv(["token", "similarity"], found))
    return 0


def _grid(cfg: Settings):
    return neighbors.default_grid(
        low=cfg.get("grid_low", -0.2, float),
        high=cfg.get("grid_high", 1.0, float),
        points=cfg.get("grid_points", 2401, int),
    )


def cmd_threshold(args: argparse.Namespace) -> int:
    cfg = Settings(args)
    fmt = cfg.get("format", "word2vec_text")
    paths = cfg.get("models") or []
    if isinstance(paths, str):
        paths = paths.split()
    if len(paths) < 2:
        raise ValueError("need at least 2 replica model paths")
    ensemble = ModelEnsemble([load_model(p, fmt) for p in paths])
    probes = _read_terms(cfg.require("probes"))
    for t in probes:
        ensemble.require_shared(t)
    synset_path = cfg.get("synsets")
    if synset_path:
        target = threshold.synonym_statistics(synset_path)
    else:
        target = threshold.SynonymTarget(
            mean_synonyms=cfg.get("target", 1.6, float), source_label="configured"
        )
    grid = _grid(cfg)
    curves = [neighbors.expected_neighbors(ensemble, t, grid) for t in probes]
    if len(curves) >= 2:
        curve = neighbors.aggregate_curves(curves, confidence=cfg.get("confidence", 0.95, float))
    else:
        curve = curves[0]
    dim = cfg.get("dimension", ensemble.dimensionality, int)
    result = threshold.solve_threshold(curve, target, dimensionality=dim)
    threshold.write_threshold_csv([result], cfg.require("out"))
    curve_out = cfg.get("curve_out")
    if curve_out:
        neighbors.write_curve_csv(curve, curve_out)
    print(
        f"threshold[dim={result.dimensionality}]: main={result.main:.4f} "
        f"lower={result.lower:.4f} upper={result.upper:.4f} "
        f"(target {target.mean_synonyms:g})"
    )
    return 0


def cmd_synonym_stats(args: argparse.Namespace) -> int:
    cfg = Settings(args)
    target = threshold.synonym_statistics(cfg.require("synsets"))
    out = cfg.get("out")
    if out:
        write_csv(
            out,
            ["mean_synonyms", "std_synonyms", "term_count"],
            [(target.mean_synonyms, target.std_synonyms, target.term_count)],
        )
    print(
        f"synonyms: mean={target.mean_synonyms:.4f} std={target.std_synonyms:.4f} "
        f"terms={target.term_count}"
    )
    return 0


def _pipeline(cfg: Settings) -> Pipeline:
    return Pipeline.from_stopword_file(
        cfg.get("stopwords"), stem_enabled=not cfg.get("no_stem", False, bool)
    )


def cmd_index(args: argparse.Namespace) -> int:
    cfg = Settings(args)
    corpus = retrieval.read_corpus(cfg.require("corpus"), cfg.get("corpus_format", "jsonl"))
    index = retrieval.build_index(corpus, _pipeline(cfg))
    retrieval.save_index(index, cfg.require("out"))
    print(f"indexed {index.doc_count} documents, {index.total_tokens} tokens")
    return 0


def _policy(cfg: Settings) -> retrieval.ExpansionPolicy:
    mode = cfg.get("policy", "none")
    if mode == "threshold":
        return retrieval.ExpansionPolicy(mode="threshold", threshold=cfg.require("threshold", float))
    if mode == "knn":
        return retrieval.ExpansionPolicy(mode="knn", k=cfg.require("k", int))
    return retrieval.ExpansionPolicy(mode="none")


def cmd_search(args: argparse.Namespace) -> int:
    cfg = Settings(args)
    index = retrieval.load_index(cfg.require("index"))
    topics = retrieval.read_topics(cfg.require("topics"))
    policy = _policy(cfg)
    embedding = None
    if policy.mode != "none":
        embedding = load_model(cfg.require("model"), cfg.get("format", "word2vec_text"))
    pipeline = _pipeline(cfg)
    config = retrieval.LmConfig(mu=cfg.get("mu", 1000.0, float))
    run: dict[str, list[tuple[str, float]]] = {}
    for topic_id, text in topics:
        terms = pipeline.process(text)
        if not terms:
            raise ValueError(f"topic {topic_id}: query empty after preprocessing")
        table = retrieval.build_translation_table(terms, policy, embedding)
        run[topic_id] = retrieval.tlm_score(index, config, table, terms)
    retrieval.write_run(
        run, cfg.require("out"), run_tag=cfg.get("run_tag", "simthresh"),
        max_docs=cfg.get("max_docs", retrieval.MAX_RUN_DOCS, int),
    )
    print(f"scored {len(run)} topics under policy {policy.mode}")
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    cfg = Settings(args)
    run = retrieval.read_run(cfg.require("run"))
    qrels = evaluation.read_qrels(cfg.require("qrels"))
    condense_lists = not cfg.get("no_condense", False, bool)
    cutoff = cfg.get("cutoff", 20, int)
    ap = evaluation.evaluate_run(run, qrels, "map", cutoff, condense_lists)
    ndcg = evaluation.evaluate_run(run, qrels, "ndcg", cutoff, condense_lists)
    out = cfg.get("out")
    if out:
        evaluation.write_metric_report(out, [ap, ndcg])
    print(f"map={ap.mean:.4f} ndcg@{cutoff}={ndcg.mean:.4f} over {len(ap.per_topic)} topics")
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    cfg = Settings(args)
    qrels = evaluation.read_qrels(cfg.require("qrels"))
    metric = cfg.get("metric", "map")
    cutoff = cfg.get("cutoff", 20, int)
    condense_lists = not cfg.get("no_condense", False, bool)
    a = evaluation.evaluate_run(retrieval.read_run(cfg.require("run_a")), qrels, metric, cutoff, condense_lists)
    b = evaluation.evaluate_run(retrieval.read_run(cfg.require("run_b")), qrels, metric, cutoff, condense_lists)
    result = evaluation.paired_ttest(a, b)
    out = cfg.get("out")
    if out:
        evaluation.write_comparison_report(out, metric, a.mean, b.mean, result)
    verdict = "significant" if result.significant else "not significant"
    print(
        f"{metric}: a={a.mean:.4f} b={b.mean:.4f} t={result.t_statistic:.4f} "
        f"p={result.p_value:.4f} ({verdict}, n={result.n_topics})"
    )
    return 0


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="flat key=value config file; flags override it")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="simthresh",
        description="Embedding similarity uncertainty, thresholds, and retrieval evaluation",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("uncertainty", help="replica disagreement curve (and histogram) CSVs")
    p.add_argument("--reference")
    p.add_argument("--other")
    p.add_argument("--probes")
    p.add_argument("--format", choices=["word2vec_text", "word2vec_binary"])
    p.add_argument("--bins", type=int)
    p.add_argument("--domain-low", dest="domain_low", type=float)
    p.add_argument("--domain-high", dest="domain_high", type=float)
    p.add_argument("--curve-out", dest="curve_out")
    p.add_argument("--histogram-out", dest="histogram_out")
    _add_common(p)
    p.set_defaults(func=cmd_uncertainty)

    p = subs.add_parser("histogram", help="similarity histogram CSV for one model")
    p.add_argument("--model")
    p.add_argument("--probes")
    p.add_argument("--format", choices=["word2vec_text", "word2vec_binary"])
    p.add_argument("--bins", type=int)
    p.add_argument("--domain-low", dest="domain_low", type=float)
    p.add_argument("--domain-high", dest="domain_high", type=float)
    p.add_argument("--out")
    _add_common(p)
    p.set_defaults(func=cmd_histogram)

    p = subs.add_parser("neighbors", help="list a term's neighbors above a threshold or top-k")
    p.add_argument("--model")
    p.add_argument("--term")
    p.add_argument("--threshold", type=float)
    p.add_argument("--k", type=int)
    p.add_argument("--format", choices=["word2vec_text", "word2vec_binary"])
    p.add_argument("--out")
    _add_common(p)
    p.set_defaults(func=cmd_neighbors)

    p = subs.add_parser("threshold", help="derive similarity thresholds from a replica ensemble")
    p.add_argument("--models", nargs="+", help="replica model paths (>= 2)")
    p.add_argument("--probes")
    p.add_argument("--format", choices=["word2vec_text", "word2vec_binary"])
    p.add_argument("--synsets", help="synset file for the synonym target")
    p.add_argument("--target", type=float, help="numeric synonym target (default 1.6)")
    p.add_argument("--dimension", type=int)
    p.add_argument("--confidence", type=float)
    p.add_argument("--grid-low", dest="grid_low", type=float)
    p.add_argument("--grid-high", dest="grid_high", type=float)
    p.add_argument("--grid-points", dest="grid_points", type=int)
    p.add_argument("--out")
    p.add_argument("--curve-out", dest="curve_out")
    _add_common(p)
    p.set_defaults(func=cmd_threshold)

    p = subs.add_parser("synonym-stats", help="mean/std synonym counts from a synset file")
    p.add_argument("--synsets")
    p.add_argument("--out")
    _add_common(p)
    p.set_defaults(func=cmd_synonym_stats)

    p = subs.add_parser("index", help="build an inverted index from a corpus")
    p.add_argument("--corpus")
    p.add_argument("--corpus-format", dest="corpus_format", choices=["jsonl", "trec"])
    p.add_argument("--stopwords")
    p.add_argument("--no-stem", dest="no_stem", action="store_const", const=True)
    p.add_argument("--out")
    _add_common(p)
    p.set_defaults(func=cmd_index)

    p = subs.add_parser("search", help="score topics against an index")
    p.add_argument("--index")
    p.add_argument("--topics")
    p.add_argument("--policy", choices=["none", "threshold", "knn"])
    p.add_argument("--threshold", type=float)
    p.add_argument("--k", type=int)
    p.add_argument("--model", help="embedding model for expansion policies")
    p.add_argument("--format", choices=["word2vec_text", "word2vec_binary"])
    p.add_argument("--mu", type=float)
    p.add_argument("--stopwords")
    p.add_argument("--no-stem", dest="no_stem", action="store_const", const=True)
    p.add_argument("--run-tag", dest="run_tag")
    p.add_argument("--max-docs", dest="max_docs", type=int)
    p.add_argument("--out")
    _add_common(p)
    p.set_defaults(func=cmd_search)

    p = subs.add_parser("evaluate", help="MAP and NDCG over (condensed) run lists")
    p.add_argument("--run")
    p.add_argument("--qrels")
    p.add_argument("--cutoff", type=int)
    p.add_argument("--no-condense", dest="no_condense", action="store_const", const=True)
    p.add_argument("--out")
    _add_common(p)
    p.set_defaults(func=cmd_evaluate)

    p = subs.add_parser("compare", help="paired t-test between two runs")
    p.add_argument("--run-a", dest="run_a")
    p.add_argument("--run-b", dest="run_b")
    p.add_argument("--qrels")
    p.add_argument("--metric", choices=["map", "ndcg"])
    p.add_argument("--cutoff", type=int)
    p.add_argument("--no-condense", dest="no_condense", action="store_const", const=True)
    p.add_argument("--out")
    _add_common(p)
    p.set_defaults(func=cmd_compare)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        return 1
    except KeyError as exc:
        # str() on KeyError wraps the message in quotes
        print(f"error: {exc.args[0] if exc.args else exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        name = f": {exc.filename}" if getattr(exc, "filename", None) else ""
        print(f"error: {exc.strerror or exc}{name}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
