"""Synthetic retrieval world with planted synonym pairs.

Topics come in two kinds: A-topics query a term (aa..) that never occurs in
relevant documents, which instead use its planted synonyms (bb.. at cosine
0.92, cc.. at 0.80); B-topics query a term (qq..) that relevant documents do
contain. Context words tie relevant documents and distractors together so the
no-expansion baseline is mediocre on A-topics; junk words fill distractors so
indiscriminate k-NN expansion hurts. All randomness is seeded.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from simthresh.embeddings import EmbeddingModel, ModelEnsemble
from simthresh.evaluation import Qrels
from simthresh.retrieval import ExpansionPolicy, Index, LmConfig, build_index, build_translation_table, tlm_score
from simthresh.textproc import Pipeline

N_TOPICS = 12
DIM = 64
SIM_PRIMARY = 0.92
SIM_SECONDARY = 0.80
REPLICA_SIGMA = 0.012
CORPUS_SIZE = 500


@dataclass(eq=False)
class PlantedWorld:
    base: EmbeddingModel
    replicas: list[EmbeddingModel]
    ensemble: ModelEnsemble
    probe_terms: list[str]
    index: Index
    topics: list[tuple[str, str]]
    qrels: Qrels
    pipeline: Pipeline

    def run_policy(self, policy: ExpansionPolicy, mu: float = 1000.0):
        """The run ``search`` writes: one translation table over every topic's terms, in first-use order."""
        queries = {topic_id: self.pipeline.process(text) for topic_id, text in self.topics}
        table = build_translation_table([t for terms in queries.values() for t in terms], policy, self.base)
        return {topic_id: tlm_score(self.index, LmConfig(mu=mu), table, terms) for topic_id, terms in queries.items()}


def build_world(seed: int = 777) -> PlantedWorld:
    rng = np.random.default_rng(seed)
    a_terms = [f"aa{i:02d}" for i in range(N_TOPICS)]
    b_terms = [f"bb{i:02d}" for i in range(N_TOPICS)]
    b2_terms = [f"cc{i:02d}" for i in range(N_TOPICS)]
    q_terms = [f"qq{i:02d}" for i in range(N_TOPICS)]
    ctx_a = [f"xx{i:02d}" for i in range(N_TOPICS)]
    ctx_b = [f"yy{i:02d}" for i in range(N_TOPICS)]
    junk = [f"jk{i:03d}" for i in range(60)]

    # Each synonym triple lives in its own 3-dimensional plane, so planted
    # similarities are exact and everything else in the triple block is 0.
    tokens: list[str] = []
    vectors: list[np.ndarray] = []
    for i in range(N_TOPICS):
        d = 3 * i
        va = np.zeros(DIM)
        va[d] = 1.0
        vb = np.zeros(DIM)
        vb[d] = SIM_PRIMARY
        vb[d + 1] = np.sqrt(1 - SIM_PRIMARY**2)
        vc = np.zeros(DIM)
        vc[d] = SIM_SECONDARY
        vc[d + 2] = np.sqrt(1 - SIM_SECONDARY**2)
        tokens += [a_terms[i], b_terms[i], b2_terms[i]]
        vectors += [va, vb, vc]

    # Remaining words get random unit vectors in the leftover coordinate
    # block, rejection-sampled so no stray similarity comes near the
    # planted-synonym range.
    rand_block = slice(3 * N_TOPICS, DIM)
    rand_vectors: list[np.ndarray] = []
    for _ in q_terms + ctx_a + ctx_b + junk:
        while True:
            v = np.zeros(DIM)
            r = rng.standard_normal(DIM - 3 * N_TOPICS)
            v[rand_block] = r / np.linalg.norm(r)
            if all(abs(float(v @ u)) <= 0.45 for u in rand_vectors):
                rand_vectors.append(v)
                break
    tokens += q_terms + ctx_a + ctx_b + junk
    vectors += rand_vectors
    base = EmbeddingModel.from_arrays(tokens, np.array(vectors), model_id="base")

    replicas = [
        EmbeddingModel.from_arrays(
            tokens,
            base.vectors + REPLICA_SIGMA * rng.standard_normal(base.vectors.shape),
            model_id=f"replica-{r}",
        )
        for r in range(5)
    ]
    ensemble = ModelEnsemble(replicas, a_terms)

    docs: list[tuple[str, str]] = []
    counter = 0

    def add(terms: list[str]) -> str:
        nonlocal counter
        doc_id = f"D{counter:04d}"
        counter += 1
        docs.append((doc_id, " ".join(terms)))
        return doc_id

    def junk_words(n: int) -> list[str]:
        return [junk[int(i)] for i in rng.integers(0, len(junk), size=n)]

    topic_members: dict[str, dict[str, int]] = {}
    topics: list[tuple[str, str]] = []
    for i in range(N_TOPICS):
        topic_id = f"A{i:02d}"
        topics.append((topic_id, f"{a_terms[i]} {ctx_a[i]}"))
        members: dict[str, int] = {}
        for _ in range(5):
            members[add([b_terms[i], b2_terms[i], ctx_a[i]] + junk_words(5))] = 1
        for _ in range(5):
            members[add([ctx_a[i], ctx_a[i]] + junk_words(6))] = 0
        members[add([a_terms[i]] + junk_words(4))] = 0  # keeps cf(aa..) positive
        topic_members[topic_id] = members
    for j in range(N_TOPICS):
        topic_id = f"B{j:02d}"
        topics.append((topic_id, f"{q_terms[j]} {ctx_b[j]}"))
        members = {}
        for _ in range(5):
            members[add([q_terms[j], q_terms[j], ctx_b[j]] + junk_words(4))] = 1
        for _ in range(5):
            members[add([ctx_b[j], ctx_b[j]] + junk_words(6))] = 0
        topic_members[topic_id] = members
    while counter < CORPUS_SIZE:
        add(junk_words(8))

    qrels = Qrels()
    all_ids = [doc_id for doc_id, _ in docs]
    for topic_id, members in topic_members.items():
        for doc_id in all_ids:
            qrels.add(topic_id, doc_id, members.get(doc_id, 0))

    pipeline = Pipeline(stopwords=frozenset(), stem_enabled=False)
    index = build_index(docs, pipeline)
    return PlantedWorld(
        base=base,
        replicas=replicas,
        ensemble=ensemble,
        probe_terms=a_terms,
        index=index,
        topics=topics,
        qrels=qrels,
        pipeline=pipeline,
    )
