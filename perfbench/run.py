"""The simthresh benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

NAME is one of ``ensemble-threshold``, ``replica-disagreement`` and
``tlm-retrieval``; ``all`` runs each of them untraced and traced in turn.
Inputs are generated from the seed (cached per seed under ``.bench_cache/``)
outside the timed region. Every CLI command runs in a fresh process, as a
user runs it, so no in-process cache carries over between commands or runs.
Each command's output is checked against an independent reference
(``checks.py``); a command together with its check is one operation.

``--trace 0`` repeats the workload for S seconds (at least three times) and
reports the end-to-end metrics as medians over those repetitions.
``--trace 1`` does the same untraced repetitions, then one more with every
command under ``traced_cli.py``, and reports per-layer self times and counts.
The last line of standard output is the result object; the lines before it
give every metric with its unit, quartiles and sample count, the
environment and the input sizes. The result with that record is also written
to ``.bench_results/``. See ``README.md`` for the metric definitions.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Callable

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CACHE = os.path.join(ROOT, ".bench_cache")
WORK = os.path.join(ROOT, ".bench_work")
RESULTS = os.path.join(ROOT, ".bench_results")

# One BLAS thread (at most nproc) for the benchmark and every command it
# starts: steadier on a shared machine, and any parallelism a later change
# adds itself shows up as cpu_s moving against wall_s.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

MIN_REPEATS = 3
SETUP_REPEATS = 5
KEEP_SEEDS = 3
COMMAND_TIMEOUT_S = 150.0
RUN_BUDGET_S = 120.0  # no new repetition starts after this, so a run ends well inside 180 s

import checks  # noqa: E402  (numpy must see the thread settings above)
import gen  # noqa: E402

TRACED_CLI = os.path.join(HERE, "traced_cli.py")
SETUP_PROBE = os.path.join(HERE, "setup_probe.py")


@dataclass
class Command:
    """One CLI invocation and the check of its outputs (given its stdout)."""

    argv: list[str]
    check: Callable[[str], list[str]]
    pairs: int = 0  # probe x vocabulary similarity pairs the command scores
    kind: str = ""  # "index" or "search": the retrieval rates are taken over these


@dataclass
class Outcome:
    wall: float
    cpu: float
    rss_mb: float
    problems: list[str]
    trace: dict | None = None


@dataclass
class Repetition:
    commands: list[Command]
    outcomes: list[Outcome] = field(default_factory=list)

    @property
    def wall(self) -> float:
        return sum(o.wall for o in self.outcomes)

    @property
    def cpu(self) -> float:
        return sum(o.cpu for o in self.outcomes)

    @property
    def rss_mb(self) -> float:
        return max(o.rss_mb for o in self.outcomes)

    def wall_of(self, pick: Callable[[Command], bool]) -> float:
        return sum(o.wall for c, o in zip(self.commands, self.outcomes) if pick(c))

    @property
    def pairs_per_s(self) -> float:
        return sum(c.pairs for c in self.commands) / self.wall_of(lambda c: c.pairs > 0)


# ------------------------------------------------------------------ workloads

class EnsembleThreshold:
    name = "ensemble-threshold"
    shape = {"V": 12000, "D": 300, "R": 5, "P": 8}

    def generate(self, out: str, seed: int) -> dict:
        s = self.shape
        return gen.ensemble_inputs(out, seed, s["V"], s["D"], s["R"], s["P"], "word2vec_binary", synsets=True)

    def commands(self, inputs: str, out: str, manifest: dict) -> list[Command]:
        replicas = [os.path.join(inputs, f) for f in manifest["replicas"]]
        probes, synsets = os.path.join(inputs, "probes.txt"), os.path.join(inputs, "synsets.txt")
        ref = checks.ThresholdReference(replicas, probes, synsets)
        thresholds, curve = os.path.join(out, "thresholds.csv"), os.path.join(out, "curve.csv")
        argv = ["threshold", "--models", *replicas, "--format", "word2vec_binary", "--probes", probes,
                "--synsets", synsets, "--out", thresholds, "--curve-out", curve]
        s = self.shape
        return [Command(argv, lambda _: checks.check_threshold(ref, thresholds, curve, s["D"]),
                        pairs=s["P"] * (s["V"] - 1))]

    def working_set(self, inputs: str, manifest: dict) -> int:
        return 8 * manifest["R"] * manifest["V"] * manifest["D"]


class ReplicaDisagreement(EnsembleThreshold):
    name = "replica-disagreement"
    shape = {"V": 12000, "D": 300, "R": 2, "P": 25}

    def generate(self, out: str, seed: int) -> dict:
        s = self.shape
        return gen.ensemble_inputs(out, seed, s["V"], s["D"], s["R"], s["P"], "word2vec_text", synsets=False)

    def commands(self, inputs: str, out: str, manifest: dict) -> list[Command]:
        reference, other = (os.path.join(inputs, f) for f in manifest["replicas"])
        probes = os.path.join(inputs, "probes.txt")
        ref = checks.UncertaintyReference(reference, other, probes)
        curve, histogram = os.path.join(out, "uncertainty.csv"), os.path.join(out, "histogram.csv")
        argv = ["uncertainty", "--reference", reference, "--other", other, "--probes", probes,
                "--curve-out", curve, "--histogram-out", histogram]
        return [Command(argv, lambda _: checks.check_uncertainty(ref, curve, histogram), pairs=ref.pairs)]


class TlmRetrieval:
    name = "tlm-retrieval"
    shape = {"docs": 2000, "topics": 30, "D": 100}
    threshold, k = 0.7, 10

    def generate(self, out: str, seed: int) -> dict:
        s = self.shape
        return gen.corpus_inputs(out, seed, s["docs"], s["topics"], s["D"])

    def commands(self, inputs: str, out: str, manifest: dict) -> list[Command]:
        def i(name: str) -> str:
            return os.path.join(inputs, name)

        def o(name: str) -> str:
            return os.path.join(out, name)

        ref = checks.RetrievalReference(i("corpus.jsonl"), i("topics.tsv"), i("qrels.txt"), i("embedding.bin"))
        index = o("index.json.gz")
        cmds = [Command(["index", "--corpus", i("corpus.jsonl"), "--out", index],
                        lambda stdout: checks.check_index(ref, index, stdout), kind="index")]
        scanned = sum(t in ref.emb_row for _, text in ref.topics for t in dict.fromkeys(ref.query_terms(text)))
        policies = {"none": [], "threshold": ["--threshold", str(self.threshold)], "knn": ["--k", str(self.k)]}
        for policy, extra in policies.items():
            model = [] if policy == "none" else ["--model", i("embedding.bin"), "--format", "word2vec_binary"]
            cmds.append(Command(
                ["search", "--index", index, "--topics", i("topics.tsv"), "--policy", policy, *extra, *model,
                 "--out", o(f"run_{policy}.txt")],
                lambda _, p=policy: checks.check_search(ref, o(f"run_{p}.txt"), p, self.threshold, self.k),
                pairs=0 if policy == "none" else scanned * (len(ref.emb_tokens) - 1), kind="search"))
        for policy in policies:
            cmds.append(Command(
                ["evaluate", "--run", o(f"run_{policy}.txt"), "--qrels", i("qrels.txt"),
                 "--out", o(f"report_{policy}.csv")],
                lambda _, p=policy: checks.check_evaluate(ref, o(f"run_{p}.txt"), o(f"report_{p}.csv"))))
        cmds.append(Command(
            ["compare", "--run-a", o("run_threshold.txt"), "--run-b", o("run_none.txt"), "--qrels",
             i("qrels.txt"), "--out", o("compare.csv")],
            lambda _: checks.check_compare(ref, o("run_threshold.txt"), o("run_none.txt"), o("compare.csv"))))
        return cmds

    def working_set(self, inputs: str, manifest: dict) -> int:
        return os.path.getsize(os.path.join(inputs, "corpus.jsonl")) + 8 * manifest["V"] * manifest["D"]


WORKLOADS = {w.name: w for w in (EnsembleThreshold(), ReplicaDisagreement(), TlmRetrieval())}


def why(name: str) -> str:
    """The workload's reason, as recorded in BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return next(w["why"] for w in json.load(fh)["workloads"] if w["name"] == name)


# ------------------------------------------------------------------ processes

def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + HERE
    env["PYTHONHASHSEED"] = "0"
    return env


def run_process(argv: list[str], log: str) -> tuple[int, float, float, float, str]:
    """Run to completion; (exit code, wall s, user+sys s, peak RSS MiB, stdout)."""
    with open(log + ".out", "wb") as out, open(log + ".err", "wb") as err:
        started = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=child_env(), cwd=ROOT)
        watchdog = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(log + ".out", encoding="utf-8", errors="replace") as fh:
        stdout = fh.read()
    return proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0, stdout


def repeat(commands: list[Command], out: str, traced: bool) -> Repetition:
    rep = Repetition(commands)
    for n, cmd in enumerate(commands):
        log = os.path.join(out, f"cmd{n}")
        trace_path = log + ".trace.json"
        prefix = [TRACED_CLI, trace_path] if traced else ["-m", "simthresh.cli"]
        code, wall, cpu, rss, stdout = run_process([sys.executable, *prefix, *cmd.argv], log)
        if code != 0:
            with open(log + ".err", encoding="utf-8", errors="replace") as fh:
                problems = [f"{cmd.argv[0]} exited {code}: {fh.read().strip()[-300:]}"]
        else:
            try:
                problems = cmd.check(stdout)
            except (OSError, ValueError, IndexError, KeyError) as exc:
                problems = [f"{cmd.argv[0]} output unreadable: {exc!r}"]
        trace = None
        if traced and code == 0:
            with open(trace_path, encoding="utf-8") as fh:
                trace = json.load(fh)
        rep.outcomes.append(Outcome(wall, cpu, rss, [f"{cmd.argv[0]}: {p}" for p in problems], trace))
    return rep


# ---------------------------------------------------------------- the inputs

def _fingerprint(*parts: str) -> str:
    digest = hashlib.sha256()
    for part in parts:
        digest.update(part.encode())
    for path in (os.path.join(HERE, "gen.py"), gen.LEXICON_PATH):
        with open(path, "rb") as fh:
            digest.update(fh.read())
    return digest.hexdigest()[:16]


def cached_inputs(workload, seed: int) -> tuple[str, dict]:
    """Generate (or reuse) the seed's inputs; keeps the newest few seeds."""
    base = os.path.join(CACHE, workload.name)
    target = os.path.join(base, f"seed-{seed}")
    key = _fingerprint(workload.name, json.dumps(workload.shape, sort_keys=True))
    manifest_path = os.path.join(target, "manifest.json")
    if os.path.exists(manifest_path):
        with open(manifest_path, encoding="utf-8") as fh:
            manifest = json.load(fh)
        if manifest.get("key") == key:
            os.utime(target)
            return target, manifest
    tmp = f"{target}.tmp{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    manifest = workload.generate(tmp, seed)
    manifest.update(key=key, seed=seed)
    with open(os.path.join(tmp, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh)
    shutil.rmtree(target, ignore_errors=True)
    os.replace(tmp, target)
    seeds = sorted((os.path.join(base, d) for d in os.listdir(base) if d.startswith("seed-")),
                   key=os.path.getmtime, reverse=True)
    for old in seeds[KEEP_SEEDS:]:
        shutil.rmtree(old, ignore_errors=True)
    return target, manifest


def input_record(workload, inputs: str, manifest: dict) -> dict:
    files = [f for f in os.listdir(inputs) if f != "manifest.json"]
    record = {k: v for k, v in manifest.items() if k in ("V", "D", "R", "P", "docs", "topics")}
    record["file_bytes"] = sum(os.path.getsize(os.path.join(inputs, f)) for f in files)
    record["working_set_bytes"] = workload.working_set(inputs, manifest)
    record["working_set_basis"] = "computed: float64 vectors held by the loaders (plus corpus bytes)"
    return record


# --------------------------------------------------------------- environment

def canary_s() -> float:
    """Time of a fixed CPU-bound task: tells a slow machine from slow code."""
    started = time.perf_counter()
    sum(i * i for i in range(2_000_000))
    return time.perf_counter() - started


def environment(seed: int, canary: list[float]) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu_model = llc = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu_model = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), None)
        caches = "/sys/devices/system/cpu/cpu0/cache"
        levels = []
        for index in (d for d in os.listdir(caches) if d.startswith("index")):
            with open(os.path.join(caches, index, "level")) as lv, open(os.path.join(caches, index, "size")) as sz:
                levels.append((int(lv.read()), sz.read().strip()))
        llc = max(levels)[1] if levels else None
    except OSError:
        pass
    commit = None
    try:
        top = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10,
                             env=dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT)))
        lines = top.stdout.split()
        if top.returncode == 0 and os.path.realpath(lines[0]) == os.path.realpath(ROOT):
            commit = lines[1]
    except (OSError, subprocess.SubprocessError, IndexError):
        pass
    digest = hashlib.sha256()
    package = os.path.join(SRC, "simthresh")
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), "rb") as fh:
                digest.update(name.encode() + fh.read())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "cpu_model": cpu_model,
        "llc": llc,
        "git_commit": commit,
        "src_sha256": digest.hexdigest()[:16],
        "seed": seed,
        "canary_s": canary,
    }


# ------------------------------------------------------------------- metrics

def spread(values: list[float]) -> dict:
    q = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    return {"median": statistics.median(values), "q1": q[0], "q3": q[2], "n": len(values)}


def layer_metrics(traced: Repetition, untraced: list[Repetition], manifest: dict) -> dict[str, tuple[float, str]]:
    """Per-layer self times and counts from the traced repetition."""
    self_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    counts: dict[str, float] = {}
    import_s = 0.0
    for o in traced.outcomes:
        if o.trace is None:
            continue
        t = o.trace
        import_s += t["import_s"]
        for key, value in t["counts"].items():
            counts[key] = counts.get(key, 0) + value
        for name, own, n in span_self_times(t):
            self_s[name] = self_s.get(name, 0.0) + own
            calls[name] = calls.get(name, 0) + n

    def s(name: str) -> float:
        return self_s.get(name, 0.0)

    load_mb = counts.get("embeddings.load_bytes", 0) / 2**20
    index_wall = statistics.median(r.wall_of(lambda c: c.kind == "index") for r in untraced)
    search_wall = statistics.median(r.wall_of(lambda c: c.kind == "search") for r in untraced)
    searches = sum(c.kind == "search" for c in traced.commands)
    untraced_wall = statistics.median(r.wall for r in untraced)
    cells = counts.get("neighbors.mixture_cells", 0)
    return {
        "embeddings.load_s": (s("embeddings.load"), "s"),
        "embeddings.load_mb_per_s": (load_mb / s("embeddings.load") if s("embeddings.load") else 0.0, "MiB/s"),
        "embeddings.ensemble_s": (s("embeddings.ensemble"), "s"),
        "embeddings.scan_s": (s("embeddings.scan"), "s"),
        "embeddings.scans": (calls.get("embeddings.scan", 0), "count"),
        "neighbors.pair_stats_s": (s("neighbors.pair_stats"), "s"),
        "neighbors.mixture_s": (s("neighbors.mixture"), "s"),
        "neighbors.mixture_cells": (cells, "count"),
        "neighbors.mixture_bytes_computed": (24 * cells, "bytes"),
        "neighbors.aggregate_s": (s("neighbors.aggregate"), "s"),
        "neighbors.curve_write_s": (s("neighbors.curve_write"), "s"),
        "threshold.solve_s": (s("threshold.solve"), "s"),
        "threshold.synonyms_s": (s("threshold.synonyms"), "s"),
        "threshold.write_s": (s("threshold.write"), "s"),
        "uncertainty.curve_s": (s("uncertainty.curve"), "s"),
        "uncertainty.histogram_s": (s("uncertainty.histogram"), "s"),
        "uncertainty.pairs": (counts.get("uncertainty.pairs", 0), "count"),
        "uncertainty.out_of_domain": (counts.get("uncertainty.out_of_domain", 0), "count"),
        "uncertainty.write_s": (s("uncertainty.write"), "s"),
        "textproc.process_s": (s("textproc.process"), "s"),
        "porter.stem_s": (s("porter.stem"), "s"),
        "porter.stem_calls": (calls.get("porter.stem", 0), "count"),
        "porter.distinct_words": (counts.get("porter.distinct_words", 0), "count"),
        "retrieval.build_index_s": (s("retrieval.build_index"), "s"),
        "retrieval.save_index_s": (s("retrieval.save_index"), "s"),
        "retrieval.index_bytes": (counts.get("retrieval.index_bytes", 0), "bytes"),
        "retrieval.load_index_s": (s("retrieval.load_index"), "s"),
        "retrieval.table_s": (s("retrieval.table"), "s"),
        "retrieval.expansion_terms": (counts.get("retrieval.expansion_terms", 0), "count"),
        "retrieval.score_s": (s("retrieval.score"), "s"),
        "retrieval.candidates": (counts.get("retrieval.candidates", 0), "count"),
        "retrieval.write_run_s": (s("retrieval.write_run"), "s"),
        "retrieval.dropped_terms": (counts.get("retrieval.dropped_terms", 0), "count"),
        "retrieval.index_docs_per_s": (manifest.get("docs", 0) / index_wall if index_wall else 0.0, "1/s"),
        "retrieval.search_queries_per_s": (
            manifest.get("topics", 0) * searches / search_wall if search_wall else 0.0, "1/s"),
        "evaluation.read_s": (s("evaluation.read"), "s"),
        "evaluation.metric_s": (s("evaluation.metric"), "s"),
        "evaluation.ttest_s": (s("evaluation.ttest"), "s"),
        "cli.import_s": (import_s, "s"),
        "cli.self_s": (s("cli.main"), "s"),
        "trace.overhead_frac": (traced.wall / untraced_wall - 1.0, "ratio"),
    }


def span_self_times(trace: dict) -> list[tuple[str, float, int]]:
    """(span name, summed self time, span count) per name of one command."""
    spans = trace["spans"]
    n = len(spans) // 4
    duration = [spans[4 * i + 3] - spans[4 * i + 2] for i in range(n)]
    own = list(duration)
    for i in range(n):
        parent = int(spans[4 * i + 1])
        if parent >= 0:
            own[parent] -= duration[i]
    totals: dict[int, list[float]] = {}
    for i in range(n):
        entry = totals.setdefault(int(spans[4 * i]), [0.0, 0])
        entry[0] += own[i]
        entry[1] += 1
    return [(trace["names"][k], v[0], int(v[1])) for k, v in totals.items()]


def layer_shares(traced: Repetition) -> list[str]:
    """Per command: each layer's share of the in-process traced time."""
    lines = []
    for cmd, o in zip(traced.commands, traced.outcomes):
        if o.trace is None:
            continue
        layers: dict[str, float] = {"cli.import": o.trace["import_s"]}
        for name, own, _ in span_self_times(o.trace):
            layer = "cli" if name == "cli.main" else name.split(".")[0]
            layers[layer] = layers.get(layer, 0.0) + own
        total = sum(layers.values())
        top = sorted(layers.items(), key=lambda kv: -kv[1])
        lines.append(f"  {cmd.argv[0]:<12} " + "  ".join(f"{k} {v / total:.0%}" for k, v in top if v / total >= 0.01))
    return lines


# ----------------------------------------------------------------------- run

def run_workload(workload, seed: int, seconds: float, trace: bool, started: float) -> dict:
    inputs, manifest = cached_inputs(workload, seed)
    out = os.path.join(WORK, f"{workload.name}-{os.getpid()}")
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(out)
    try:
        commands = workload.commands(inputs, out, manifest)
        canary = [canary_s()]
        reps: list[Repetition] = []
        window = time.perf_counter()
        while len(reps) < MIN_REPEATS or time.perf_counter() - window < seconds:
            if reps and time.perf_counter() - started > RUN_BUDGET_S:
                break
            reps.append(repeat(commands, out, traced=False))
        canary.append(canary_s())
        all_reps = list(reps)
        lines = []
        if trace:
            traced = repeat(commands, out, traced=True)
            all_reps.append(traced)
            metrics = layer_metrics(traced, reps, manifest)
            dist = {}
            lines += ["layer shares of traced in-process time:"] + layer_shares(traced)
        else:
            index_path = os.path.join(out, "index.json.gz")
            setup = [run_process([sys.executable, SETUP_PROBE, workload.name, inputs, index_path],
                                 os.path.join(out, f"setup{i}")) for i in range(SETUP_REPEATS)]
            if any(code != 0 for code, *_ in setup):
                raise RuntimeError("set-up probe failed")
            dist = {
                "wall_s": (spread([r.wall for r in reps]), "s"),
                "cpu_s": (spread([r.cpu for r in reps]), "s"),
                "setup_s": (spread([wall for _, wall, *_ in setup]), "s"),
                "peak_rss_mb": (spread([r.rss_mb for r in reps]), "MiB"),
                "pairs_per_s": (spread([r.pairs_per_s for r in reps]), "1/s"),
            }
            metrics = {k: (d["median"], unit) for k, (d, unit) in dist.items()}
        problems = [p for r in all_reps for o in r.outcomes for p in o.problems]
        attempted = sum(len(r.outcomes) for r in all_reps)
        failed = sum(bool(o.problems) for r in all_reps for o in r.outcomes)
    finally:
        shutil.rmtree(out, ignore_errors=True)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit} for k, (v, unit) in metrics.items()},
    }
    record = {
        "workload": workload.name, "why": why(workload.name), "trace": int(trace), "seconds": seconds,
        "environment": environment(seed, canary), "inputs": input_record(workload, inputs, manifest),
        "distribution": {k: dict(d, unit=unit) for k, (d, unit) in dist.items()},
        "failed_frac": failed / attempted, "problems": problems[:20], "result": result,
    }
    os.makedirs(RESULTS, exist_ok=True)
    with open(os.path.join(RESULTS, f"{workload.name}-seed{seed}-trace{int(trace)}.json"), "w") as fh:
        json.dump(record, fh, indent=1)
    report(record, lines)
    return result


def report(record: dict, extra: list[str]) -> None:
    print(f"workload {record['workload']} (trace {record['trace']}): {record['why']}")
    print("environment: " + json.dumps(record["environment"]))
    print("inputs: " + json.dumps(record["inputs"]))
    result = record["result"]
    print(f"operations: attempted {result['attempted']}, failed {result['failed']}, "
          f"failed_frac {record['failed_frac']:.4g}")
    for p in record["problems"]:
        print("  problem: " + p)
    for name, m in result["metrics"].items():
        d = record["distribution"].get(name)
        tail = f"  (q1 {d['q1']:.6g}, q3 {d['q3']:.6g}, n={d['n']})" if d else ""
        print(f"  {name:<34} {m['value']:>16.6g} {m['unit']}{tail}")
    for line in extra:
        print(line)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    started = time.perf_counter()
    if not os.path.isfile(os.path.join(SRC, "simthresh", "cli.py")):
        print(f"error: no simthresh sources under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.workload == "all":
        for workload in WORKLOADS.values():
            for trace in (False, True):
                print(json.dumps(run_workload(workload, args.seed, args.seconds, trace, time.perf_counter())))
        return 0
    result = run_workload(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), started)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
