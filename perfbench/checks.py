"""Independent references for every workload output.

Nothing here calls the program under test except ``load_index`` in the index
check. The references re-read the generated inputs with their own parsers
and recompute each result another way:

* thresholds by root-finding (``brentq``) on the exact continuous survival
  mixture, with per-pair means and stds taken straight from the vectors (no
  grid, no ``pair_statistics``);
* uncertainty and histogram bins by ``searchsorted`` on ``linspace`` edges;
* rankings by a dense numpy scorer over a document x stem count matrix built
  from the corpus and the reference stem table ``data/lexicon.tsv``;
* MAP and NDCG@20 from the run file and qrels, and the paired t-test with
  ``scipy.stats.ttest_rel``.

Each ``check_*`` function returns a list of problems; empty means correct.
"""

from __future__ import annotations

import json
import math
import re

import numpy as np
from scipy.optimize import brentq
from scipy.special import ndtr, ndtri
from scipy.stats import ttest_rel

from gen import STOPWORDS, read_lexicon

# Same documented model constants as the program: std floor of a pair fit,
# and the tolerance of a vector norm that is left unscaled at load time.
STD_FLOOR = 1e-6
NORM_SKIP_TOL = 1e-6
THRESHOLD_TOL = 1e-4
SCORE_TOL = 1e-9
METRIC_TOL = 1e-12
MAX_RUN_DOCS = 1000


def lines_of(path: str) -> list[str]:
    with open(path, encoding="utf-8") as fh:
        return fh.read().splitlines()


# ---------------------------------------------------------------- embeddings

def _unit(rows: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(rows, axis=1)
    scale = np.where(np.abs(norms - 1.0) > NORM_SKIP_TOL, norms, 1.0)
    return rows / scale[:, None]


def read_binary(path: str) -> tuple[list[str], np.ndarray]:
    with open(path, "rb") as fh:
        data = fh.read()
    end = data.index(b"\n")
    count, dim = (int(x) for x in data[:end].split())
    tokens, rows, pos = [], np.empty((count, dim)), end + 1
    for n in range(count):
        space = data.index(b" ", pos)
        tokens.append(data[pos:space].decode())
        rows[n] = np.frombuffer(data, "<f4", dim, space + 1)
        pos = space + 2 + 4 * dim
    return tokens, _unit(rows)


def read_text(path: str) -> tuple[list[str], np.ndarray]:
    with open(path, encoding="utf-8") as fh:
        dim = int(fh.readline().split()[1])
        tokens = [line.split(" ", 1)[0] for line in fh]
    rows = np.loadtxt(path, skiprows=1, usecols=range(1, dim + 1), dtype=np.float64, comments=None)
    return tokens, _unit(rows)


def read_embedding(path: str) -> tuple[list[str], np.ndarray]:
    return read_binary(path) if path.endswith(".bin") else read_text(path)


def read_terms(path: str) -> list[str]:
    return [s for s in (line.strip() for line in lines_of(path)) if s and not s.startswith("#")]


def probe_sims(tokens: list[str], vectors: np.ndarray, probes: list[str]) -> np.ndarray:
    """(P, V-1) cosines of each probe against every other term, in vocabulary order."""
    row = {t: i for i, t in enumerate(tokens)}
    sims = np.clip(vectors[[row[p] for p in probes]] @ vectors.T, -1.0, 1.0)
    keep = np.ones_like(sims, dtype=bool)
    keep[np.arange(len(probes)), [row[p] for p in probes]] = False
    return sims[keep].reshape(len(probes), len(tokens) - 1)


# ----------------------------------------------------------------- threshold

def synonym_mean(path: str) -> float:
    co: dict[str, set[str]] = {}
    for lemmas in (line.lower().split() for line in lines_of(path)):
        if not lemmas or lemmas[0].startswith("#"):
            continue
        single = {w for w in lemmas if "_" not in w}
        for w in single:
            co.setdefault(w, set()).update(single)
    return sum(len(v) - 1 for v in co.values()) / len(co)


class ThresholdReference:
    """Exact E(s) per probe from replica means/stds; band from the probe spread."""

    def __init__(self, replica_paths: list[str], probes_path: str, synsets_path: str,
                 confidence: float = 0.95):
        probes = read_terms(probes_path)
        sims, vocabularies = [], []
        for path in replica_paths:
            tokens, vectors = read_embedding(path)
            vocabularies.append(tokens)
            sims.append(probe_sims(tokens, vectors, probes))
        if any(v != vocabularies[0] for v in vocabularies):
            raise ValueError("reference expects replicas with one vocabulary order")
        stack = np.stack(sims)  # (R, P, V-1)
        self.means = stack.mean(axis=0)
        self.stds = np.maximum(stack.std(axis=0, ddof=1), STD_FLOOR)
        self.target = synonym_mean(synsets_path)
        self.z = float(ndtri(0.5 + confidence / 2.0))
        self.lower = self._root(lambda s: self.curves(s)[1])
        self.main = self._root(lambda s: self.curves(s)[0])
        self.upper = self._root(lambda s: self.curves(s)[2])

    def curves(self, s: float) -> tuple[float, float, float]:
        per_probe = ndtr((self.means - s) / self.stds).sum(axis=1)
        mean = float(per_probe.mean())
        half = self.z * float(per_probe.std(ddof=1)) / math.sqrt(len(per_probe))
        return mean, max(mean - half, 0.0), mean + half

    def _root(self, fn) -> float:
        return brentq(lambda s: fn(s) - self.target, -0.2, 1.0, xtol=1e-12)


def check_threshold(ref: ThresholdReference, thresholds_csv: str, curve_csv: str, dim: int) -> list[str]:
    errors = []
    rows = [line.strip().split(",") for line in lines_of(thresholds_csv)]
    if rows[:1] != [["dimensionality", "lower", "main", "upper"]] or len(rows) != 2:
        return [f"{thresholds_csv}: expected a header and one row"]
    d, lower, main, upper = int(rows[1][0]), *map(float, rows[1][1:])
    if d != dim:
        errors.append(f"dimensionality {d}, expected {dim}")
    if not lower <= main <= upper:
        errors.append(f"bounds out of order: {lower} {main} {upper}")
    for name, got, want in (("lower", lower, ref.lower), ("main", main, ref.main), ("upper", upper, ref.upper)):
        if not abs(got - want) <= THRESHOLD_TOL:
            errors.append(f"{name}={got!r}, exact root {want!r}")
    errors += _check_curve(ref, curve_csv)
    return errors


def _check_curve(ref: ThresholdReference, path: str) -> list[str]:
    lines = [line.strip() for line in lines_of(path) if not line.startswith("#")]
    if lines[:1] != ["grid_s,expected,band_low,band_high"]:
        return [f"{path}: bad header"]
    try:
        table = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
    except ValueError:
        return [f"{path}: unparseable row"]
    if table.shape != (2401, 4) or not np.allclose(table[:, 0], np.linspace(-0.2, 1.0, 2401), atol=1e-12):
        return [f"{path}: expected the default 2401-point grid"]
    if np.any(np.diff(table[:, 1]) > 1e-9 * table[0, 1]):
        return [f"{path}: expected curve increases"]
    errors = []
    for i in range(0, 2401, 300):
        want = ref.curves(table[i, 0])
        if not np.allclose(table[i, 1:], want, rtol=1e-9, atol=1e-9):
            errors.append(f"{path}: row {i} {table[i, 1:].tolist()} != exact {list(want)}")
    return errors


# --------------------------------------------------------------- uncertainty

class UncertaintyReference:
    def __init__(self, reference_path: str, other_path: str, probes_path: str,
                 low: float = -0.2, high: float = 1.0, bins: int = 500):
        probes = read_terms(probes_path)
        ref_tokens, ref_vectors = read_embedding(reference_path)
        oth_tokens, oth_vectors = read_embedding(other_path)
        if ref_tokens != oth_tokens:
            raise ValueError("reference expects replicas with one vocabulary order")
        s_ref = probe_sims(ref_tokens, ref_vectors, probes).ravel()
        s_oth = probe_sims(oth_tokens, oth_vectors, probes).ravel()
        self.pairs = s_ref.size
        edges = np.linspace(low, high, bins + 1)
        idx = np.searchsorted(edges, s_ref, side="right") - 1
        idx[s_ref == high] = bins - 1
        inside = (s_ref >= low) & (s_ref <= high)
        self.out_of_domain = int((~inside).sum())
        self.counts = np.bincount(idx[inside], minlength=bins)
        diff = np.bincount(idx[inside], weights=np.abs(s_ref - s_oth)[inside], minlength=bins)
        self.mean_abs_diff = diff / np.maximum(self.counts, 1)


def _read_binned(path: str, columns: int) -> tuple[int, np.ndarray]:
    lines = [line.strip() for line in lines_of(path)]
    if not lines[0].startswith("# out_of_domain"):
        raise ValueError(f"{path}: missing out-of-domain preamble")
    rows = [line.split(",") for line in lines[2:] if line]
    if any(len(r) != columns for r in rows):
        raise ValueError(f"{path}: expected {columns} fields per row")
    table = np.array([[float(x) if x else np.nan for x in r] for r in rows])
    return int(lines[0].split("=", 1)[1]), table


def check_uncertainty(ref: UncertaintyReference, curve_csv: str, histogram_csv: str) -> list[str]:
    errors = []
    try:
        ood, curve = _read_binned(curve_csv, 4)
        h_ood, hist = _read_binned(histogram_csv, 3)
    except (ValueError, IndexError) as exc:
        return [str(exc)]
    for label, counts, out in (("curve", curve[:, 2], ood), ("histogram", hist[:, 2], h_ood)):
        if len(counts) != len(ref.counts) or not np.array_equal(counts, ref.counts):
            errors.append(f"{label}: bin counts differ from the independent binning")
        if out != ref.out_of_domain:
            errors.append(f"{label}: {out} out-of-domain pairs, expected {ref.out_of_domain}")
        if int(counts.sum()) + out != ref.pairs:
            errors.append(f"{label}: total {int(counts.sum()) + out} != P*(V-1) = {ref.pairs}")
    populated = ref.counts > 0
    got = curve[:, 3] if len(curve) == len(ref.counts) else np.zeros(len(ref.counts))
    if not (np.all(np.isnan(got[~populated]))
            and np.allclose(got[populated], ref.mean_abs_diff[populated], rtol=1e-9, atol=1e-12)):
        errors.append("curve: mean_abs_diff differs from the reference")
    return errors


# ----------------------------------------------------------------- retrieval

_TOKEN = re.compile(r"[a-z0-9]+")


class RetrievalReference:
    """Dense query-likelihood/TLM scorer with doc_id tie-breaks."""

    def __init__(self, corpus: str, topics: str, qrels: str, embedding: str, mu: float = 1000.0):
        _, self.stem_of = read_lexicon()
        stop = set(STOPWORDS)
        self.mu = mu
        vocab: dict[str, int] = {}
        self.doc_ids: list[str] = []
        cells: list[tuple[int, int]] = []
        for line in lines_of(corpus):
            record = json.loads(line)
            d = len(self.doc_ids)
            self.doc_ids.append(record["id"])
            for w in _TOKEN.findall(record["text"].lower()):
                if w not in stop:
                    cells.append((d, vocab.setdefault(self.stem_of[w], len(vocab))))
        tf = np.zeros((len(self.doc_ids), len(vocab)))
        np.add.at(tf, tuple(np.array(cells).T), 1.0)
        self.vocab, self.tf = vocab, tf
        self.lengths = tf.sum(axis=1)
        self.total = float(self.lengths.sum())
        self.p_coll = tf.sum(axis=0) / self.total
        self.id_rank = np.argsort(np.argsort(self.doc_ids))  # doc_id order for tie-breaks
        self.topics = [line.split("\t", 1) for line in lines_of(topics)]
        self.qrels: dict[str, dict[str, int]] = {}
        for line in lines_of(qrels):
            t, _, d, g = line.split()
            self.qrels.setdefault(t, {})[d] = int(g)
        self.emb_tokens, self.emb = read_binary(embedding)
        self.emb_row = {t: i for i, t in enumerate(self.emb_tokens)}

    def query_terms(self, text: str) -> list[str]:
        return [self.stem_of[w] for w in _TOKEN.findall(text.lower()) if w not in STOPWORDS]

    def _expansion(self, term: str, policy: str, threshold: float, k: int) -> list[tuple[str, float]]:
        pairs = [(term, 1.0)]
        if policy != "none" and term in self.emb_row:
            sims = np.clip(self.emb @ self.emb[self.emb_row[term]], -1.0, 1.0)
            order = sorted((-s, t) for t, s in zip(self.emb_tokens, sims.tolist()) if t != term)
            chosen = [(t, -s) for s, t in order if -s >= threshold] if policy == "threshold" else \
                [(t, -s) for s, t in order[:k]]
            pairs += [(t, s) for t, s in chosen if s > 0.0]
        total = sum(w for _, w in pairs)
        return [(t, w / total) for t, w in pairs]

    def rank(self, text: str, policy: str, threshold: float = 2.0, k: int = 0) -> list[tuple[str, float]]:
        terms = self.query_terms(text)
        kept = [t for t in terms if t in self.vocab]
        tables = {t: self._expansion(t, policy, threshold, k) for t in dict.fromkeys(kept)}
        score = np.zeros(len(self.doc_ids))
        candidate = np.zeros(len(self.doc_ids), dtype=bool)
        for t in kept:
            inner = np.zeros(len(self.doc_ids))
            for term, weight in tables[t]:
                col = self.vocab.get(term)
                if col is None:
                    continue
                inner += weight * (self.tf[:, col] + self.mu * self.p_coll[col])
                candidate |= self.tf[:, col] > 0
            score += np.log(inner / (self.lengths + self.mu))
        docs = np.flatnonzero(candidate)
        docs = docs[np.lexsort((self.id_rank[docs], -score[docs]))]
        return [(self.doc_ids[d], float(score[d])) for d in docs]


def read_run(path: str) -> dict[str, list[tuple[str, int, float]]]:
    run: dict[str, list[tuple[str, int, float]]] = {}
    for line in lines_of(path):
        topic, q0, doc, rank, score, _ = line.split()
        if q0 != "Q0":
            raise ValueError(f"{path}: bad Q0 field")
        run.setdefault(topic, []).append((doc, int(rank), float(score)))
    return run


def check_search(ref: RetrievalReference, run_path: str, policy: str, threshold: float, k: int) -> list[str]:
    try:
        run = read_run(run_path)
    except (ValueError, OSError) as exc:
        return [str(exc)]
    errors = []
    if sorted(run) != sorted(t for t, _ in ref.topics):
        errors.append(f"{run_path}: topic set differs")
    for topic, text in ref.topics:
        got = run.get(topic, [])
        want = ref.rank(text, policy, threshold, k)
        n = min(len(want), MAX_RUN_DOCS)
        if len(got) != n or [r for _, r, _ in got] != list(range(1, n + 1)):
            errors.append(f"topic {topic}: {len(got)} ranked docs, expected {n}")
            continue
        want_score = dict(want)
        for (d1, _, s1), (d2, _, s2) in zip(got, got[1:]):
            if s1 < s2 or (s1 == s2 and d1 > d2):
                errors.append(f"topic {topic}: {d1} ranked above {d2} out of order")
                break
        for doc, rank, score in got:
            if doc not in want_score or not abs(score - want_score[doc]) <= SCORE_TOL * abs(want_score[doc]):
                errors.append(f"topic {topic} rank {rank}: {doc} scored {score!r}, "
                              f"reference {want_score.get(doc)!r}")
                break
        if n == MAX_RUN_DOCS and got and want[n - 1][1] - got[-1][2] > SCORE_TOL * abs(want[n - 1][1]):
            errors.append(f"topic {topic}: cut at 1000 drops a higher-scoring document")
    return errors


def _ap(ranked: list[str], judged: dict[str, int]) -> float:
    relevant = sum(g >= 1 for g in judged.values())
    hits, total = 0, 0.0
    for rank, doc in enumerate(ranked, 1):
        if judged.get(doc, 0) >= 1:
            hits += 1
            total += hits / rank
    return total / relevant if relevant else 0.0


def _ndcg(ranked: list[str], judged: dict[str, int], cutoff: int = 20) -> float:
    gain = sum(judged.get(d, 0) / math.log2(r + 1) for r, d in enumerate(ranked[:cutoff], 1))
    ideal = sorted((g for g in judged.values() if g > 0), reverse=True)[:cutoff]
    best = sum(g / math.log2(r + 1) for r, g in enumerate(ideal, 1))
    return gain / best if best else 0.0


def topic_metrics(ref: RetrievalReference, run_path: str) -> dict[str, tuple[float, float]]:
    """Per qrels topic: (AP, NDCG@20) over the condensed run list."""
    run = read_run(run_path)
    out = {}
    for topic, judged in ref.qrels.items():
        ranked = [d for d, _, _ in run.get(topic, []) if d in judged]
        out[topic] = (_ap(ranked, judged), _ndcg(ranked, judged))
    return out


def check_evaluate(ref: RetrievalReference, run_path: str, report_csv: str) -> list[str]:
    try:
        lines = [line.strip().split(",") for line in lines_of(report_csv) if line.strip()]
        got = {row[0]: (float(row[1]), float(row[2])) for row in lines[1:]}
        want = topic_metrics(ref, run_path)
    except (ValueError, IndexError, OSError) as exc:
        return [f"{report_csv}: {exc}"]
    if lines[0] != ["topic", "map", "ndcg"]:
        return [f"{report_csv}: bad header"]
    n = len(want)
    want["all"] = tuple(sum(v[i] for v in want.values()) / n for i in (0, 1))
    if set(got) != set(want):
        return [f"{report_csv}: topic rows differ from the qrels topics"]
    return [f"{report_csv}: topic {t} reports {got[t]}, recomputed {want[t]}"
            for t in want if not np.allclose(got[t], want[t], rtol=0, atol=METRIC_TOL)]


def check_compare(ref: RetrievalReference, run_a: str, run_b: str, report_csv: str) -> list[str]:
    try:
        lines = [line.strip().split(",") for line in lines_of(report_csv)]
        metric, mean_a, mean_b, t, p, significant, n = lines[1]
        a, b = topic_metrics(ref, run_a), topic_metrics(ref, run_b)
    except (ValueError, IndexError, OSError) as exc:
        return [f"{report_csv}: {exc}"]
    topics = sorted(a)
    ap_a = np.array([a[x][0] for x in topics])
    ap_b = np.array([b[x][0] for x in topics])
    want = ttest_rel(ap_a, ap_b)
    errors = []
    if metric != "map" or int(n) != len(topics):
        errors.append(f"{report_csv}: metric {metric} over {n} topics")
    if not np.allclose([float(mean_a), float(mean_b)], [ap_a.mean(), ap_b.mean()], rtol=0, atol=METRIC_TOL):
        errors.append(f"{report_csv}: means {mean_a}, {mean_b} differ from the recomputed MAPs")
    if not np.allclose([float(t), float(p)], [want.statistic, want.pvalue], rtol=1e-9, atol=1e-300):
        errors.append(f"{report_csv}: t={t} p={p}, ttest_rel gives {want.statistic} {want.pvalue}")
    if significant != str(bool(want.pvalue < 0.05)).lower():
        errors.append(f"{report_csv}: significance flag {significant}")
    return errors


def check_index(ref: RetrievalReference, index_path: str, stdout: str) -> list[str]:
    from simthresh.retrieval import load_index

    line = f"indexed {len(ref.doc_ids)} documents, {int(ref.total)} tokens"
    if line not in stdout:
        return [f"index reported {stdout.strip()!r}, expected {line!r}"]
    try:
        index = load_index(index_path)
    except (OSError, ValueError, EOFError) as exc:
        return [f"{index_path}: {exc}"]
    if index.doc_count != len(ref.doc_ids) or index.total_tokens != int(ref.total):
        return [f"{index_path}: {index.doc_count} docs / {index.total_tokens} tokens after reload"]
    return []
