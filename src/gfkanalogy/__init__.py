"""Relation-specific geodesic flow kernels for word-analogy reasoning."""

from .datasets import AnalogyQuestion, RelationDataset, parse_google, parse_msr, write_google
from .embeddings import EmbeddingTable, load_text_embeddings, save_text_embeddings
from .evaluation import (
    EvalConfig,
    EvalReport,
    Ranking,
    cos_add_answer,
    cos_mul_answer,
    dimension_sweep,
    evaluate,
    gfk_answer,
    relation_subspaces,
)
from .grassmann import (
    GfkKernel,
    PrincipalAngleDecomposition,
    Subspace,
    geodesic_point,
    gfk,
    gfk_numeric_oracle,
    gfk_similarity,
    principal_angles,
    subspace_from_rows,
)
from .ppmi import (
    CooccurrenceCounts,
    build_cooccurrence,
    ppmi_transform,
    read_corpus,
    truncated_svd_embed,
)
from .synth import SynthSpec, generate

__all__ = [
    "AnalogyQuestion",
    "CooccurrenceCounts",
    "EmbeddingTable",
    "EvalConfig",
    "EvalReport",
    "GfkKernel",
    "PrincipalAngleDecomposition",
    "Ranking",
    "RelationDataset",
    "Subspace",
    "SynthSpec",
    "build_cooccurrence",
    "cos_add_answer",
    "cos_mul_answer",
    "dimension_sweep",
    "evaluate",
    "generate",
    "geodesic_point",
    "gfk",
    "gfk_answer",
    "gfk_numeric_oracle",
    "gfk_similarity",
    "load_text_embeddings",
    "parse_google",
    "parse_msr",
    "ppmi_transform",
    "principal_angles",
    "read_corpus",
    "relation_subspaces",
    "save_text_embeddings",
    "subspace_from_rows",
    "truncated_svd_embed",
    "write_google",
]
