import numpy as np
import pytest
from scipy.special import ndtr

from simthresh.embeddings import EmbeddingModel, ModelEnsemble


def hub_model(
    sims: dict[str, float], hub: str = "a", model_id: str = "toy", dim: int | None = None
) -> EmbeddingModel:
    """Model where cosine(hub, t) is exactly sims[t]; other tokens sit in
    their own coordinate plane so cross-similarities are sims[i]*sims[j]."""
    tokens = [hub, *sims]
    dim = len(tokens) if dim is None else dim
    vectors = np.zeros((len(tokens), dim))
    vectors[0, 0] = 1.0
    for i, (_, s) in enumerate(sims.items(), start=1):
        vectors[i, 0] = s
        vectors[i, i] = np.sqrt(1.0 - s * s)
    return EmbeddingModel.from_arrays(tokens, vectors, model_id=model_id)


def random_model(
    rng: np.random.Generator, n_tokens: int, dim: int, model_id: str = "rand"
) -> EmbeddingModel:
    tokens = [f"t{i:04d}" for i in range(n_tokens)]
    vectors = rng.standard_normal((n_tokens, dim))
    return EmbeddingModel.from_arrays(tokens, vectors, model_id=model_id)


def perturbed_replicas(
    base: EmbeddingModel, rng: np.random.Generator, count: int, sigma: float
) -> list[EmbeddingModel]:
    """Replicas built as base + iid Gaussian noise, re-normalized."""
    out = []
    for r in range(count):
        noisy = base.vectors + sigma * rng.standard_normal(base.vectors.shape)
        out.append(EmbeddingModel.from_arrays(base.vocabulary, noisy, model_id=f"{base.model_id}-r{r}"))
    return out


def word2vec_bytes(records, fmt: str = "word2vec_text", count: int | None = None, sep: bytes = b"\n") -> bytes:
    """A word2vec file of ``records``, a model or (token, vector) pairs with str or raw bytes
    tokens: the header ``count dim`` (``count`` defaults to the number of records), then per
    record the token, a space, the vector and ``sep``. Vectors are written as little-endian
    float32s in ``word2vec_binary`` and as space-separated ``repr`` floats in ``word2vec_text``."""
    if isinstance(records, EmbeddingModel):
        records = zip(records.vocabulary, records.vectors)
    records = [(t.encode() if isinstance(t, str) else t, np.asarray(v, dtype=np.float64)) for t, v in records]
    if fmt == "word2vec_binary":
        body = [t + b" " + v.astype("<f4").tobytes() + sep for t, v in records]
    else:
        body = [t + b" " + " ".join(map(repr, v.tolist())).encode() + sep for t, v in records]
    header = f"{len(records) if count is None else count} {len(records[0][1])}\n"
    return header.encode() + b"".join(body)


def pair_replicas(sim_values: list[float]) -> list[EmbeddingModel]:
    """Two-token replicas whose pair similarity takes the given value in each."""
    replicas = []
    for r, s in enumerate(sim_values):
        vectors = np.array([[1.0, 0.0], [s, np.sqrt(1.0 - s * s)]])
        replicas.append(EmbeddingModel.from_arrays(["a", "b"], vectors, model_id=f"r{r}"))
    return replicas


def pair_ensemble(sim_values: list[float]) -> ModelEnsemble:
    """Ensemble of ``pair_replicas`` with both tokens as probes."""
    return ModelEnsemble(pair_replicas(sim_values), ["a", "b"])


def dense_mixture(grid, means, stds):
    """Reference survival mixture: every grid point against every pair."""
    z = (np.asarray(grid, float)[:, None] - means[None, :]) / stds[None, :]
    return (1.0 - ndtr(z)).sum(axis=1)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(42)
