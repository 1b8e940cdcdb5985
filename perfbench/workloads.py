"""Benchmark workloads: input sizes, evaluation settings and why each exists.

Every workload has a full-size form, which the benchmark measures, and a tiny
form with the same shape, which the smoke test runs in a few seconds.
"""

from __future__ import annotations

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class Workload:
    """One fixed input recipe plus the library call sequence that consumes it.

    kind is "eval" (load, parse, evaluate, write the report CSV), "sweep"
    (load, parse, dimension_sweep, write the sweep CSV) or "ppmi" (read the
    corpus, count, PPMI, truncated SVD, save the embeddings), mirroring the
    CLI's eval, sweep and build-ppmi commands.
    """

    name: str
    kind: str
    why: str
    # analogy inputs: synthetic rotation relations plus Gaussian distractors
    n_relations: int = 0
    pairs_per_relation: int = 0
    dim: int = 0
    distractors: int = 0
    measure: str = "all"
    holdout: str = "answer"
    subspace_dim: int = 20
    dims: tuple[int, ...] = ()
    # corpus inputs: Zipf-distributed tokens in fixed-length documents
    tokens: int = 0
    types: int = 0
    doc_len: int = 0
    window: int = 5
    min_count: int = 5
    embed_dim: int = 100
    # setup repetitions per run; setup_s is their median
    setup_reps: int = 3


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="analogy-vocab",
            kind="eval",
            why="vocabulary-scale scoring and per-kernel vocabulary projection "
                "dominate, and a large embedding file is read",
            n_relations=4, pairs_per_relation=22, dim=300, distractors=20_000,
            measure="all", holdout="answer", subspace_dim=20,
        ),
        Workload(
            name="kernel-sweep",
            kind="sweep",
            why="many small kernels on a tiny vocabulary: principal angles and "
                "small projections dominate, plain scoring never runs",
            n_relations=2, pairs_per_relation=16, dim=300, distractors=500,
            measure="GFKCosADD,GFKCosMUL", holdout="question", dims=(4, 8, 12),
            setup_reps=15,
        ),
        Workload(
            name="ppmi-train",
            kind="ppmi",
            why="corpus counting, PPMI and the sparse SVD path, writing "
                "embeddings instead of reading them; no Grassmann or scoring code",
            tokens=300_000, types=30_000, doc_len=200,
            window=5, min_count=5, embed_dim=100, setup_reps=25,
        ),
    )
}

# Same call sequences at a size the smoke test runs in seconds. The corpus
# keeps a vocabulary small enough for the dense SVD path.
TINY = {
    "analogy-vocab": replace(
        WORKLOADS["analogy-vocab"], n_relations=2, pairs_per_relation=8, dim=40,
        distractors=300, subspace_dim=4, setup_reps=2,
    ),
    "kernel-sweep": replace(
        WORKLOADS["kernel-sweep"], n_relations=2, pairs_per_relation=6, dim=30,
        distractors=50, dims=(2, 3), setup_reps=2,
    ),
    "ppmi-train": replace(
        WORKLOADS["ppmi-train"], tokens=6_000, types=800, doc_len=50,
        min_count=3, embed_dim=10, setup_reps=2,
    ),
}


def get_workload(name: str, tiny: bool = False) -> Workload:
    table = TINY if tiny else WORKLOADS
    if name not in table:
        raise SystemExit(f"unknown workload {name!r}; choose from {', '.join(table)}")
    return table[name]
