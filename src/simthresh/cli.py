"""Command-line entry points for the analysis and retrieval workflows.

Every command is deterministic given its inputs; errors exit nonzero with a
message on stderr. Each setting is declared once, in ``OPTIONS``, with the role
of a file it names: its flag is ``--`` plus its name with ``-`` for ``_``, and
a flat ``key = value`` config file (``--config``) gives it under its name.
``resolve`` fills each setting from the flag, else the config file, else the
declared default. Each command imports only the modules it runs, so
``evaluate`` and ``compare`` start without numpy or scipy.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Callable, NamedTuple

from .csvio import format_csv, read_records, write_csv
from .evaluation import MAX_RUN_DOCS, check_run_fields

__all__ = ["main"]

_BOOLEANS = {"true": True, "yes": True, "on": True, "1": True,
             "false": False, "no": False, "off": False, "0": False}


def boolean(raw: str) -> bool:
    """A switch's config-file value; on the command line the bare flag means true."""
    try:
        return _BOOLEANS[raw.lower()]
    except KeyError:
        raise ValueError(raw) from None


class Option(NamedTuple):
    """One setting: ``type`` converts the text of its flag or config-file value."""

    help: str
    type: Callable[[str], object] = str
    default: object = None
    choices: tuple[str, ...] = ()
    nargs: str | None = None
    role: str = ""  # of a file: "input", "output", or "compared" (set against the command's other compared files)

    def parse(self, raw: str, where: str) -> object:
        """``raw`` converted and checked (word by word, for a list); an error starts with ``where``."""
        try:
            value = [self.type(v) for v in raw.split()] if self.nargs else self.type(raw)
        except ValueError:
            raise ValueError(f"{where}: invalid {self.type.__name__} value: {raw!r}") from None
        if self.choices and value not in self.choices:
            raise ValueError(f"{where}: invalid choice: {raw!r} (choose from {', '.join(self.choices)})")
        return value


OPTIONS: dict[str, Option] = {
    "reference": Option("reference replica model file", role="compared"),
    "other": Option("second replica model file", role="compared"),
    "model": Option("embedding model file (search: for the expansion policies)", role="input"),
    "models": Option("replica model files (at least 2)", nargs="+", role="compared"),
    "format": Option("embedding model file format", default="word2vec_text",
                     choices=("word2vec_text", "word2vec_binary")),
    "probes": Option("probe terms file, one per line", role="input"),
    "bins": Option("histogram bin count", int, 500),
    "domain_low": Option("low edge of the binned similarity domain", float, -0.2),
    "domain_high": Option("high edge of the binned similarity domain", float, 1.0),
    "curve_out": Option("curve CSV to write", role="output"),
    "histogram_out": Option("similarity histogram CSV to write", role="output"),
    "out": Option("output file", role="output"),
    "term": Option("term whose neighbors to list"),
    "threshold": Option("similarity threshold", float),
    "k": Option("number of nearest neighbors", int),
    "synsets": Option("synset file for the synonym target", role="input"),
    "target": Option("synonym target when no synset file is given", float, 1.6),
    "confidence": Option("confidence of the aggregated band", float, 0.95),
    "grid_low": Option("lowest similarity of the curve grid", float, -0.2),
    "grid_high": Option("highest similarity of the curve grid", float, 1.0),
    "grid_points": Option("points of the curve grid", int, 2401),
    "corpus": Option("corpus file: JSON objects one per line, or TREC <DOC> blocks", role="input"),
    "stopwords": Option("stopword file, one per line (default: the bundled English list)", role="input"),
    "no_stem": Option("skip Porter stemming", boolean, False),
    "index": Option("index archive written by 'index'", role="input"),
    "topics": Option("topics file, 'topic_id<TAB>query text' per line", role="input"),
    "policy": Option("query expansion policy", default="none", choices=("none", "threshold", "knn")),
    "mu": Option("Dirichlet smoothing weight", float, 1000.0),
    "run_tag": Option("run tag written in the run file", default="simthresh"),
    "max_docs": Option("documents kept per topic", int, MAX_RUN_DOCS),
    "run": Option("run file, TREC format", role="input"),
    "qrels": Option("relevance judgments file", role="input"),
    "cutoff": Option("NDCG rank cutoff", int, 20),
    "no_condense": Option("score the full run lists, not the judged-only ones", boolean, False),
    "run_a": Option("first run file", role="compared"),
    "run_b": Option("second run file", role="compared"),
    "metric": Option("metric to compare", default="map", choices=("map", "ndcg")),
}

# name -> (function, help, required settings, other settings)
COMMANDS: dict[str, tuple[Callable[[argparse.Namespace], int], str, list[str], list[str]]] = {}


def command(name: str, help: str, required: str, optional: str = ""):
    """Register a subcommand together with the names of the settings it reads."""
    def register(fn):
        COMMANDS[name] = (fn, help, required.split(), optional.split())
        return fn
    return register


def read_config(path: str) -> dict[str, object]:
    """Flat ``key = value`` file, '#' lines are comments. Each value is
    converted and checked by its setting's declaration, and each key may be
    set once; errors name the line."""
    values: dict[str, object] = {}
    lines: dict[str, int] = {}
    for lineno, line in read_records(path):
        key, eq, raw = (part.strip() for part in line.partition("="))
        if not eq:
            raise ValueError(f"{path}:{lineno}: expected 'key = value'")
        opt = OPTIONS.get(key)
        if opt is None:
            raise ValueError(f"{path}:{lineno}: {key}: unknown setting")
        if key in lines:
            raise ValueError(f"{path}:{lineno}: {key}: set twice (first on line {lines[key]})")
        values[key], lines[key] = opt.parse(raw, f"{path}:{lineno}: {key}"), lineno
    return values


def _require(args: argparse.Namespace, name: str):
    value = getattr(args, name)
    if value is None:
        raise ValueError(f"missing required setting {name!r} (flag --{name.replace('_', '-')})")
    return value


def resolve(args: argparse.Namespace) -> argparse.Namespace:
    """Fill each setting the flags left unset from the config file, else its declared default. Before any file is read,
    check required settings, compared files (no file twice), outputs (distinct, in existing directories, no input)."""
    _, _, required, optional = COMMANDS[args.command]
    for name in (n for n in ("config", *required, *optional) if getattr(args, n) == []):  # argparse < 3.13: --flag=--
        setattr(args, name, "--" if name == "config" else OPTIONS[name].parse("--", "--" + name.replace("_", "-")))
    given = read_config(args.config) if args.config else {}
    for name in required + optional:
        if getattr(args, name) is None:
            setattr(args, name, given.get(name, OPTIONS[name].default))
    for name in required:
        _require(args, name)
    files = {os.path.realpath(args.config): "--config"} if args.config else {}  # real path -> flag: inputs, outputs
    compared: dict[str, tuple[str, int]] = {}  # real path -> flag and position in its list: the compared files
    for name in (n for n in required + optional if OPTIONS[n].role in ("input", "compared") and getattr(args, n)):
        value, flag = getattr(args, name), "--" + name.replace("_", "-")
        for i, path in enumerate(value if isinstance(value, list) else [value], 1):
            files.setdefault(real := os.path.realpath(path), flag)
            if OPTIONS[name].role == "compared" and (first := compared.setdefault(real, (flag, i))) != (flag, i):
                raise ValueError(f"{flag} {path}: " + (f"the same file as {first[0]}" if first[0] != flag
                                                        else f"given twice (positions {first[1]} and {i})"))
    for name in (n for n in required + optional if OPTIONS[n].role == "output" and (getattr(args, n) or n in required)):
        flag, path = "--" + name.replace("_", "-"), getattr(args, name)
        if not path:  # a required output; an empty optional one is unset (neighbors --out '' prints to stdout)
            raise ValueError(f"{flag} '': empty path")
        real = os.path.realpath(path)
        if os.path.isdir(real) or not os.path.isdir(os.path.dirname(real)):
            raise ValueError(f"{flag} {path}: {'is a directory' if os.path.isdir(real) else 'no such directory'}")
        if files.setdefault(real, flag) != flag and (os.path.isfile(real) or not os.path.exists(real)):
            raise ValueError(f"{flag} {path}: the same file as {files[real]}")  # a device may take both
    return args


def _read_terms(path: str) -> list[str]:
    """One term per line, '#' lines are comments; a repeated term is an error,
    since it would weigh twice in every average over the terms."""
    terms: dict[str, int] = {}
    for lineno, term in read_records(path):
        if term in terms:
            raise ValueError(f"{path}:{lineno}: duplicate term {term!r} (first on line {terms[term]})")
        terms[term] = lineno
    if not terms:
        raise ValueError(f"{path}: no terms found")
    return list(terms)


def load_model(path: str, fmt: str):
    """``embeddings.load_model``, imported on the first call: only ``search`` loads a whole model."""
    from .embeddings import load_model

    return load_model(path, fmt)


@command("uncertainty", "replica disagreement curve (and histogram) CSVs",
         "reference other probes curve_out", "format histogram_out bins domain_low domain_high")
def cmd_uncertainty(args: argparse.Namespace) -> int:
    from . import uncertainty
    from .embeddings import load_reduced

    probes = _read_terms(args.probes)
    config = uncertainty.HistogramConfig(args.domain_low, args.domain_high, args.bins)
    reference, other = load_reduced([args.reference, args.other], args.format, probes)
    curve = uncertainty.uncertainty_curve(reference, other, probes, config)
    uncertainty.write_uncertainty_csv(curve, args.curve_out)
    if args.histogram_out:
        hist = uncertainty.similarity_histogram(reference, probes, config)
        uncertainty.write_histogram_csv(hist, args.histogram_out)
    populated = int((curve.pair_counts > 0).sum())
    print(f"uncertainty: {populated} populated bins, {curve.out_of_domain_count} pairs out of domain")
    return 0


@command("histogram", "similarity histogram CSV for one model", "model probes out",
         "format bins domain_low domain_high")
def cmd_histogram(args: argparse.Namespace) -> int:
    from . import uncertainty
    from .embeddings import load_reduced

    probes = _read_terms(args.probes)
    config = uncertainty.HistogramConfig(args.domain_low, args.domain_high, args.bins)
    (replica,) = load_reduced([args.model], args.format, probes)
    hist = uncertainty.similarity_histogram(replica, probes, config)
    uncertainty.write_histogram_csv(hist, args.out)
    print(f"histogram: {hist.total} similarities tallied")
    return 0


@command("neighbors", "list a term's neighbors above a threshold or top-k",
         "model term", "threshold k format out")
def cmd_neighbors(args: argparse.Namespace) -> int:
    from .embeddings import load_reduced
    from .retrieval import ExpansionPolicy

    thr, k = args.threshold, args.k
    if (thr is None) == (k is None):
        raise ValueError("pass exactly one of --threshold or --k")
    policy = ExpansionPolicy(mode="threshold" if k is None else "knn", threshold=thr, k=k)  # rejects k < 1, NaN
    (replica,) = load_reduced([args.model], args.format, [args.term])
    found = policy.neighbors(replica, args.term)
    if args.out:
        write_csv(args.out, ["token", "similarity"], found)
    else:
        sys.stdout.write(format_csv(["token", "similarity"], found))
    return 0


@command("threshold", "derive similarity thresholds from a replica ensemble", "models probes out",
         "format synsets target confidence grid_low grid_high grid_points curve_out")
def cmd_threshold(args: argparse.Namespace) -> int:
    from . import neighbors, threshold
    from .embeddings import ModelEnsemble, load_reduced

    if len(args.models) < 2:
        raise ValueError("need at least 2 replica model paths")
    probes = _read_terms(args.probes)
    grid = neighbors.default_grid(low=args.grid_low, high=args.grid_high, points=args.grid_points)
    neighbors.check_confidence(args.confidence)  # aggregate_curves checks it too, but one probe makes no band
    mean = threshold.synonym_statistics(args.synsets).mean_synonyms if args.synsets else args.target
    threshold.check_target(mean, f"{args.synsets}: mean synonym count" if args.synsets else "--target")
    ensemble = ModelEnsemble(load_reduced(args.models, args.format, probes), probes)
    curves = [neighbors.expected_neighbors(ensemble, t, grid) for t in ensemble.probes]
    curve = neighbors.aggregate_curves(curves, confidence=args.confidence) if len(curves) >= 2 else curves[0]
    result = threshold.solve_threshold(curve, mean, dimensionality=ensemble.dimensionality)
    threshold.write_threshold_csv([result], args.out)
    if args.curve_out:
        neighbors.write_curve_csv(curve, args.curve_out)
    print(f"threshold[dim={result.dimensionality}]: main={result.main:.4f} lower={result.lower:.4f} "
          f"upper={result.upper:.4f} (target {mean:g})")
    return 0


@command("synonym-stats", "mean/std synonym counts from a synset file", "synsets", "out")
def cmd_synonym_stats(args: argparse.Namespace) -> int:
    from . import threshold

    target = threshold.synonym_statistics(args.synsets)
    if args.out:
        write_csv(args.out, ["mean_synonyms", "std_synonyms", "term_count"],
                  [(target.mean_synonyms, target.std_synonyms, target.term_count)])
    print(f"synonyms: mean={target.mean_synonyms:.4f} std={target.std_synonyms:.4f} terms={target.term_count}")
    return 0


@command("index", "build an inverted index from a corpus", "corpus out", "stopwords no_stem")
def cmd_index(args: argparse.Namespace) -> int:
    from . import retrieval
    from .textproc import Pipeline, default_stopwords, load_stopwords

    corpus = retrieval.read_corpus(args.corpus)
    stopwords = load_stopwords(args.stopwords) if args.stopwords is not None else default_stopwords()
    index = retrieval.build_index(corpus, Pipeline(stopwords, not args.no_stem))
    retrieval.save_index(index, args.out)
    print(f"indexed {index.doc_count} documents, {index.total_tokens} tokens")
    return 0


@command("search", "score topics against an index, each processed by the index's own text pipeline",
         "index topics out", "policy threshold k model format mu run_tag max_docs")
def cmd_search(args: argparse.Namespace) -> int:
    from . import retrieval

    if args.policy != "none":
        _require(args, "threshold" if args.policy == "threshold" else "k")
        _require(args, "model")
    policy = retrieval.ExpansionPolicy(mode=args.policy, threshold=args.threshold, k=args.k)
    config = retrieval.LmConfig(mu=args.mu)
    if args.max_docs < 1:  # write_run checks it and the run tag too, but only after every topic is scored
        raise ValueError("max_docs must be >= 1")
    check_run_fields("run tag", args.run_tag)
    index = retrieval.load_index(args.index)
    queries = {topic_id: index.pipeline.process(text) for topic_id, text in retrieval.read_topics(args.topics)}
    for topic_id, terms in queries.items():
        if not any(len(index.postings(t)[0]) for t in terms):
            problem = "query has no terms with collection evidence" if terms else "query empty after preprocessing"
            raise ValueError(f"{args.topics}: topic {topic_id}: {problem}")
    embedding = None if policy.mode == "none" else load_model(args.model, args.format)
    table = retrieval.build_translation_table([t for terms in queries.values() for t in terms], policy, embedding)
    run = {topic_id: retrieval.tlm_score(index, config, table, terms) for topic_id, terms in queries.items()}
    retrieval.write_run(run, args.out, run_tag=args.run_tag, max_docs=args.max_docs)
    summary = f"scored {len(run)} topics under policy {policy.mode}"
    if embedding is not None:  # a model in another term space (say, stemmed against an unstemmed index) shows here
        missing = sum(t not in embedding for t in table.entries)
        summary += f"; {missing} of {len(table.entries)} query terms not in the model"
    print(summary)
    return 0


@command("evaluate", "MAP and NDCG over (condensed) run lists", "run qrels", "out cutoff no_condense")
def cmd_evaluate(args: argparse.Namespace) -> int:
    from . import evaluation

    if args.cutoff < 1:  # checked before any file is read
        raise ValueError("cutoff must be >= 1")
    run = evaluation.read_run(args.run)
    qrels = evaluation.read_qrels(args.qrels)
    ap = evaluation.evaluate_run(run, qrels, "map", args.cutoff, not args.no_condense)
    ndcg = evaluation.evaluate_run(run, qrels, "ndcg", args.cutoff, not args.no_condense)
    if args.out:
        evaluation.write_metric_report(args.out, [ap, ndcg])
    print(f"map={ap.mean:.4f} ndcg@{args.cutoff}={ndcg.mean:.4f} over {len(ap.per_topic)} topics")
    return 0


@command("compare", "paired t-test between two runs", "run_a run_b qrels",
         "metric out cutoff no_condense")
def cmd_compare(args: argparse.Namespace) -> int:
    from . import evaluation

    if args.cutoff < 1:  # checked before any file is read, and under --metric map, which does not use it
        raise ValueError("cutoff must be >= 1")
    qrels = evaluation.read_qrels(args.qrels)
    condense_lists = not args.no_condense
    a = evaluation.evaluate_run(evaluation.read_run(args.run_a), qrels, args.metric, args.cutoff, condense_lists)
    b = evaluation.evaluate_run(evaluation.read_run(args.run_b), qrels, args.metric, args.cutoff, condense_lists)
    result = evaluation.paired_ttest(a, b)
    if args.out:
        evaluation.write_comparison_report(args.out, args.metric, a.mean, b.mean, result)
    verdict = "significant" if result.significant else "not significant"
    print(
        f"{args.metric}: a={a.mean:.4f} b={b.mean:.4f} t={result.t_statistic:.4f} "
        f"p={result.p_value:.4f} ({verdict}, n={result.n_topics})"
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    """One subparser per command; flags default to None so ``resolve`` can tell them unset."""
    parser = argparse.ArgumentParser(
        prog="simthresh",
        description="Embedding similarity uncertainty, thresholds, and retrieval evaluation",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    for name, (fn, help, required, optional) in COMMANDS.items():
        p = subs.add_parser(name, help=help)
        for key in required + optional:
            opt = OPTIONS[key]
            text = opt.help + (" (required)" if key in required else "")
            if opt.default is not None:
                text += f" (default: {opt.default})"
            flag = "--" + key.replace("_", "-")
            if opt.type is boolean:
                p.add_argument(flag, action="store_const", const=True, help=text)
            else:
                p.add_argument(flag, type=opt.type, choices=opt.choices or None, nargs=opt.nargs, help=text)
        p.add_argument("--config", help="flat 'key = value' config file; flags override it")
        p.set_defaults(func=fn)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.func(resolve(args))
        sys.stdout.flush()  # here, so that a reader who closed the pipe ends in the handler, not at exit
        return code
    except BrokenPipeError:  # the exit's own flush would fail again: send what is left to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except KeyboardInterrupt:
        print("error: interrupted", file=sys.stderr)
        return 130  # the status a shell reports for a command stopped by SIGINT
    except KeyError as exc:
        # str() on KeyError wraps the message in quotes
        print(f"error: {exc.args[0] if exc.args else exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        name = "" if exc.filename is None else f": {exc.filename or repr(exc.filename)}"
        print(f"error: {exc.strerror or exc}{name}", file=sys.stderr)
        return 1
    except (ValueError, MemoryError) as exc:  # numpy's MemoryError names the size it could not allocate
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
