"""Seeded input generators for the benchmark workloads.

Everything here is a function of the seed and the shape constants in
``run.py``; the program under test only ever sees the files written here.
"""

from __future__ import annotations

import json
import os

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
LEXICON_PATH = os.path.join(HERE, "data", "lexicon.tsv")

# Function words sprinkled through the corpus; all of them are in the
# program's bundled stopword list (make_lexicon.py verifies that), so the
# reference scorer drops exactly these.
STOPWORDS = (
    "the", "of", "and", "a", "to", "in", "is", "for", "on", "with", "as", "by",
    "at", "from", "that", "this", "it", "was", "are", "be", "or", "an", "which",
    "were", "has", "have", "not", "but", "their", "its",
)

_SYLLABLES = ("ba", "ko", "ri", "te", "lu", "ma", "ne", "so", "di", "fa",
              "go", "hi", "ju", "ka", "le", "mo", "nu", "pi", "ra", "sa")


def token_names(n: int, rng: np.random.Generator) -> list[str]:
    """``n`` distinct pronounceable tokens of at least three syllables, in random order."""
    names = []
    for i in rng.permutation(n):
        word, i = "", int(i) + n  # offset keeps every name at least 3 syllables
        while i:
            i, d = divmod(i, len(_SYLLABLES))
            word += _SYLLABLES[d]
        names.append(word)
    return names


def _unit_rows(x: np.ndarray) -> np.ndarray:
    return x / np.linalg.norm(x, axis=1, keepdims=True)


def write_binary(path: str, tokens: list[str], vectors: np.ndarray) -> None:
    """word2vec binary: header, then token, space, little-endian float32s, newline."""
    data = np.ascontiguousarray(vectors, dtype="<f4")
    with open(path, "wb") as fh:
        fh.write(f"{len(tokens)} {data.shape[1]}\n".encode())
        fh.write(b"".join(t.encode() + b" " + row.tobytes() + b"\n" for t, row in zip(tokens, data)))


def write_text(path: str, tokens: list[str], vectors: np.ndarray) -> None:
    """word2vec text with six decimals, as the reference word2vec tool writes it."""
    row_fmt = " ".join(["%.6f"] * vectors.shape[1])
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{len(tokens)} {vectors.shape[1]}\n")
        fh.write("".join(f"{t} {row_fmt % tuple(row)}\n" for t, row in zip(tokens, vectors.tolist())))


def clustered_replicas(rng: np.random.Generator, v: int, d: int, r: int):
    """Yield ``r`` replicas of one clustered vocabulary.

    Terms belong to clusters of geometric size (mean 20), loading 0.55-0.85
    on the cluster centre, so a term's nearest neighbours sit at similarity
    0.3-0.7 and E(s) reaches the synonym target well inside [-0.2, 1].
    Each replica adds per-term noise of lognormal scale (median 0.35, rarer
    terms noisier), so per-pair similarity stds spread over roughly
    0.01-0.08 as they do between independently trained replicas.

    Returns (tokens, cluster id per term, generator of replica matrices).
    """
    sizes = []
    while sum(sizes) < v:
        sizes.append(int(rng.geometric(1 / 20)))
    cluster = np.repeat(np.arange(len(sizes)), sizes)[:v]
    cluster = cluster[rng.permutation(v)]
    centers = _unit_rows(rng.standard_normal((len(sizes), d)))
    load = rng.uniform(0.55, 0.85, v)[:, None]
    base = load * centers[cluster] + np.sqrt(1 - load**2) * _unit_rows(rng.standard_normal((v, d)))
    sigma = np.clip(rng.lognormal(np.log(0.35), 0.5, v), 0.05, 1.5)[:, None]
    tokens = token_names(v, rng)

    def replicas():
        for _ in range(r):
            yield _unit_rows(base + sigma * rng.standard_normal((v, d)) / np.sqrt(d))

    return tokens, cluster, replicas()


def _pick_probes(rng: np.random.Generator, tokens: list[str], cluster: np.ndarray, p: int) -> list[str]:
    """``p`` probe terms from distinct clusters of at least 8 members."""
    counts = np.bincount(cluster)
    picks, used = [], set()
    for i in rng.permutation(len(tokens)):
        c = int(cluster[i])
        if counts[c] >= 8 and c not in used:
            picks.append(tokens[i])
            used.add(c)
            if len(picks) == p:
                return picks
    raise ValueError("not enough clusters for the probe set")


def _write_terms(path: str, terms: list[str]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# probe terms\n" + "".join(t + "\n" for t in terms))


def write_synsets(path: str, rng: np.random.Generator, count: int) -> None:
    """A WordNet-shaped synset file: mostly singleton synsets, lemmas shared
    between synsets, some multiword lemmas (dropped by the statistics)."""
    pool = token_names(2 * count, rng)
    sizes = rng.choice([1, 2, 3, 4, 5], size=count, p=[0.6, 0.25, 0.1, 0.04, 0.01])
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# synthetic synsets: one per line, multiword lemmas joined by '_'\n")
        for size in sizes:
            lemmas = [pool[int(j)] for j in rng.choice(len(pool), size=size, replace=False)]
            if rng.random() < 0.1:
                lemmas.append(lemmas[0] + "_" + pool[int(rng.integers(len(pool)))])
            fh.write(" ".join(lemmas) + "\n")


def ensemble_inputs(out: str, seed: int, v: int, d: int, r: int, p: int, fmt: str, synsets: bool) -> dict:
    """Replica files ``replica{k}.bin|.vec``, ``probes.txt`` and, if asked, ``synsets.txt``."""
    rng = np.random.default_rng(seed)
    tokens, cluster, replicas = clustered_replicas(rng, v, d, r)
    ext, write = (".bin", write_binary) if fmt == "word2vec_binary" else (".vec", write_text)
    paths = []
    for k, vectors in enumerate(replicas):
        paths.append(f"replica{k}{ext}")
        write(os.path.join(out, paths[-1]), tokens, vectors)
    _write_terms(os.path.join(out, "probes.txt"), _pick_probes(rng, tokens, cluster, p))
    if synsets:
        write_synsets(os.path.join(out, "synsets.txt"), rng, 4000)
    return {"V": v, "D": d, "R": r, "P": p, "replicas": paths}


def read_lexicon() -> tuple[list[list[str]], dict[str, str]]:
    """Surface forms per root, and surface -> reference stem."""
    forms: list[list[str]] = []
    stems: dict[str, str] = {}
    with open(LEXICON_PATH, encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("#"):
                continue
            root, surface, stem = line.rstrip("\n").split("\t")
            if int(root) == len(forms):
                forms.append([])
            forms[int(root)].append(surface)
            stems[surface] = stem
    return forms, stems


def _zipf(n: int, exponent: float) -> np.ndarray:
    w = 1.0 / np.arange(1, n + 1) ** exponent
    return w / w.sum()


def corpus_inputs(out: str, seed: int, docs: int, topics: int, dim: int) -> dict:
    """``corpus.jsonl``, ``topics.tsv``, ``qrels.txt`` and ``embedding.bin``.

    Background words follow a Zipf law over the lexicon's surface forms, so
    stems repeat heavily; 30% of tokens are stopwords. Each topic plants a
    query root A, synonym roots B (grade-2 documents) and C (grade-1
    documents) that never use A, and a context root X shared with judged
    non-relevant distractors. A occurs only in a few unjudged documents.
    Queries are A, X, one frequent background word (so candidate lists reach
    the 1000-document cap) and, for a third of the topics, a word absent from
    the corpus. In the embedding, stems of one root sit at cosine ~0.94,
    B at ~0.83 and C at ~0.73 from A, and unrelated stems near 0.
    """
    rng = np.random.default_rng(seed)
    forms, stems = read_lexicon()
    roots = [int(i) for i in rng.permutation(len(forms))]
    planted = np.array(roots[: 4 * topics]).reshape(topics, 4)  # A, B, C, X per topic
    unseen = roots[4 * topics : 4 * topics + 10]
    background = [f for root in roots[4 * topics + 10 :] for f in forms[root]]
    background = [background[i] for i in rng.permutation(len(background))]
    bg_p = _zipf(len(background), 1.05)
    sw_p = _zipf(len(STOPWORDS), 1.0)

    def form(root: int) -> str:
        return forms[root][int(rng.integers(len(forms[root])))]

    planted_docs: list[list[str]] = []
    qrels: list[tuple[int, int, int]] = []  # topic, planted doc index, grade
    for t, (a, b, c, x) in enumerate(planted):
        for grade, root, n in ((2, b, rng.integers(4, 9)), (1, c, rng.integers(2, 6))):
            for _ in range(n):
                qrels.append((t, len(planted_docs), grade))
                planted_docs.append([form(root) for _ in range(rng.integers(2, 6))]
                                    + [form(x) for _ in range(rng.integers(1, 4))])
        for _ in range(8):
            qrels.append((t, len(planted_docs), 0))
            planted_docs.append([form(x) for _ in range(rng.integers(2, 5))])
        for _ in range(3):
            planted_docs.append([form(a) for _ in range(rng.integers(1, 3))])
    if len(planted_docs) > docs:
        raise ValueError("corpus too small for the planted topics")

    doc_ids = [f"DOC{i:05d}" for i in rng.permutation(docs)]
    with open(os.path.join(out, "corpus.jsonl"), "w", encoding="utf-8") as fh:
        for i in range(docs):
            length = int(rng.integers(60, 141))
            n_stop = int(rng.binomial(length, 0.3))
            words = [background[j] for j in rng.choice(len(background), length - n_stop, p=bg_p)]
            words += [STOPWORDS[j] for j in rng.choice(len(STOPWORDS), n_stop, p=sw_p)]
            if i < len(planted_docs):
                words += planted_docs[i]
            words = [words[j] for j in rng.permutation(len(words))]
            text = ". ".join(" ".join(words[k : k + 12]).capitalize() for k in range(0, len(words), 12))
            fh.write(json.dumps({"id": doc_ids[i], "text": text + "."}) + "\n")

    topic_ids = [str(301 + t) for t in range(topics)]
    with open(os.path.join(out, "topics.tsv"), "w", encoding="utf-8") as fh:
        for t, (a, _, _, x) in enumerate(planted):
            words = [form(a), form(x), background[int(rng.integers(5, 60))]]
            if t % 3 == 2:
                words.append(form(unseen[t % len(unseen)]))
            fh.write(f"{topic_ids[t]}\t{' '.join(words).capitalize()}\n")
    extra = [(t, int(j), 0) for t in range(topics) for j in rng.integers(len(planted_docs), docs, 5)]
    seen = set()
    with open(os.path.join(out, "qrels.txt"), "w", encoding="utf-8") as fh:
        for t, j, grade in qrels + extra:
            if (t, j) not in seen:
                seen.add((t, j))
                fh.write(f"{topic_ids[t]} 0 {doc_ids[j]} {grade}\n")

    v = _write_stem_embedding(os.path.join(out, "embedding.bin"), rng, forms, stems, planted, set(unseen), dim)
    return {"docs": docs, "topics": topics, "V": v, "D": dim}


def _write_stem_embedding(path, rng, forms, stems, planted, unseen, dim) -> int:
    direction = _unit_rows(rng.standard_normal((len(forms), dim)))
    for a, b, c, _ in planted:
        for syn, cos in ((b, 0.88), (c, 0.78)):
            ortho = direction[syn] - (direction[syn] @ direction[a]) * direction[a]
            direction[syn] = cos * direction[a] + np.sqrt(1 - cos**2) * ortho / np.linalg.norm(ortho)
    owner: dict[str, int] = {}
    for root, surfaces in enumerate(forms):
        if root not in unseen:
            for s in surfaces:
                owner.setdefault(stems[s], root)
    tokens = sorted(owner)
    noise = rng.standard_normal((len(tokens), dim)) * (0.25 / np.sqrt(dim))
    vectors = _unit_rows(direction[[owner[t] for t in tokens]] + noise)
    write_binary(path, tokens, vectors)
    return len(tokens)
