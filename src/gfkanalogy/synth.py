"""Synthetic rotation benchmark: relations the additive rule cannot solve.

Each relation applies one fixed random rotation to every head vector, so the
head-to-tail map is structured but is not a translation. Head vectors are
drawn with a decaying coordinate spectrum, which keeps their dominant
directions stable across samples (subspace estimates from different word
pools then genuinely overlap, the way related word groups do).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .datasets import AnalogyQuestion, RelationDataset
from .embeddings import EmbeddingTable


@dataclass(frozen=True)
class SynthSpec:
    """Generator parameters. All randomness flows from the seed."""

    n_relations: int = 3
    pairs_per_relation: int = 40
    dim: int = 50
    noise: float = 0.05
    seed: int = 7
    spectrum_tau: float | None = None  # decay scale; default dim / 5
    rotation_angle: float = np.pi / 2  # largest principal rotation angle, radians

    def __post_init__(self):
        if self.n_relations < 1 or self.pairs_per_relation < 2:
            raise ValueError("need at least 1 relation and 2 pairs per relation")
        if self.dim < 2:
            raise ValueError("dim must be >= 2")
        if self.noise < 0:
            raise ValueError("noise must be >= 0")
        if self.rotation_angle <= 0:
            raise ValueError("rotation_angle must be positive")


def coordinate_scales(dim: int, tau: float | None) -> np.ndarray:
    """Per-coordinate standard deviations exp(-k / tau), k = 0..dim-1."""
    if tau is None:
        tau = dim / 5.0
    return np.exp(-np.arange(dim) / tau)


def random_rotation(rng: np.random.Generator, dim: int, angle: float) -> np.ndarray:
    """Rotation exp(angle * K) for a random skew K with unit spectral norm."""
    import scipy.linalg  # loaded here, so that importing the package needs NumPy only

    g = rng.standard_normal((dim, dim))
    skew = (g - g.T) / 2.0
    skew /= np.linalg.norm(skew, ord=2)
    return scipy.linalg.expm(angle * skew)


def generate(spec: SynthSpec) -> tuple[EmbeddingTable, RelationDataset]:
    """Build the synthetic vocabulary and its analogy questions.

    Relation r gets words r{r}h{i} (heads) and r{r}t{i} (tails) with
    t_i = Q_r h_i + noise * g_i, and one question per ordered pair of
    indices: (h_i, t_i, h_j, t_j).
    """
    rng = np.random.default_rng(spec.seed)
    scales = coordinate_scales(spec.dim, spec.spectrum_tau)
    words: list[str] = []
    rows: list[np.ndarray] = []
    dataset = RelationDataset(source="synthetic")
    for r in range(spec.n_relations):
        rotation = random_rotation(rng, spec.dim, spec.rotation_angle)
        heads = rng.standard_normal((spec.pairs_per_relation, spec.dim)) * scales
        tails = heads @ rotation.T
        if spec.noise > 0:
            tails = tails + spec.noise * rng.standard_normal(tails.shape)
        relation = f"rotation-{r}"
        head_words = [f"r{r}h{i}" for i in range(spec.pairs_per_relation)]
        tail_words = [f"r{r}t{i}" for i in range(spec.pairs_per_relation)]
        words.extend(head_words)
        rows.extend(heads)
        words.extend(tail_words)
        rows.extend(tails)
        for i in range(spec.pairs_per_relation):
            for j in range(spec.pairs_per_relation):
                if i == j:
                    continue
                dataset.add(
                    AnalogyQuestion(
                        a=head_words[i], b=tail_words[i],
                        x=head_words[j], y=tail_words[j],
                        relation=relation,
                    )
                )
    table = EmbeddingTable(words, np.vstack(rows))
    return table, dataset
