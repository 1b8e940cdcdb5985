"""Count-based word vectors: co-occurrence counts -> PPMI -> truncated SVD.

Desk-scale pipeline over whitespace-tokenized text. Context windows never
cross document boundaries (documents are separated by blank lines).
"""

from __future__ import annotations

import warnings
from collections import Counter
from dataclasses import dataclass

import numpy as np
import scipy.sparse
import scipy.sparse.linalg

from .embeddings import EmbeddingTable

# Below this size a dense SVD is cheaper and more robust than svds.
DENSE_SVD_LIMIT = 5000


@dataclass(frozen=True)
class CooccurrenceCounts:
    """Sparse word-by-context counts with both vocabularies in corpus order.

    Context keys are plain tokens, or (token, signed offset) pairs when
    positional contexts are enabled.
    """

    word_vocab: dict[str, int]
    context_vocab: dict
    counts: scipy.sparse.csr_matrix
    total: int

    @property
    def words(self) -> list[str]:
        return list(self.word_vocab)


def read_corpus(path: str) -> list[list[str]]:
    """Read a plain-text corpus into documents of tokens.

    Documents are separated by one or more blank lines; tokens by any
    whitespace.
    """
    docs: list[list[str]] = []
    current: list[str] = []
    with open(path, encoding="utf-8") as f:
        for line in f:
            tokens = line.split()
            if tokens:
                current.extend(tokens)
            elif current:
                docs.append(current)
                current = []
    if current:
        docs.append(current)
    return docs


def build_cooccurrence(
    docs: list[list[str]],
    win: int,
    positional: bool = False,
    min_count: int = 0,
) -> CooccurrenceCounts:
    """Count (center, context) pairs over symmetric windows of size ``win``.

    Words rarer than ``min_count`` are excluded from both vocabularies; they
    still occupy their corpus positions, so offsets are unchanged and pairs
    that involve them are simply skipped. Raises if no pairs survive.
    """
    if win < 1:
        raise ValueError("window size must be >= 1")
    if isinstance(docs, list) and docs and isinstance(docs[0], str):
        docs = [docs]  # a single token sequence is one document

    freq = Counter()
    for doc in docs:
        freq.update(doc)
    kept = {w for w, n in freq.items() if n >= min_count}

    word_vocab: dict[str, int] = {}
    context_vocab: dict = {}
    pair_counts: Counter = Counter()
    for doc in docs:
        n = len(doc)
        for p, center in enumerate(doc):
            if center not in kept:
                continue
            lo = max(0, p - win)
            hi = min(n, p + win + 1)
            for q in range(lo, hi):
                if q == p:
                    continue
                other = doc[q]
                if other not in kept:
                    continue
                key = (other, q - p) if positional else other
                i = word_vocab.setdefault(center, len(word_vocab))
                j = context_vocab.setdefault(key, len(context_vocab))
                pair_counts[i, j] += 1

    total = sum(pair_counts.values())
    if total == 0:
        raise ValueError("no co-occurrence pairs after filtering; corpus too small")
    rows, cols, vals = zip(*((i, j, v) for (i, j), v in pair_counts.items()))
    counts = scipy.sparse.csr_matrix(
        (vals, (rows, cols)),
        shape=(len(word_vocab), len(context_vocab)),
        dtype=np.int64,
    )
    return CooccurrenceCounts(word_vocab, context_vocab, counts, total)


def ppmi_transform(c: CooccurrenceCounts) -> scipy.sparse.csr_matrix:
    """Positive PMI: max(0, log(count * total / (row_sum * col_sum))) per cell.

    Zero-count cells stay exactly zero; negative PMI cells are clamped to
    zero and dropped from the sparse structure.
    """
    if c.total <= 0:
        raise ValueError("empty counts")
    counts = c.counts.tocoo()
    row_sums = np.asarray(c.counts.sum(axis=1)).ravel()
    col_sums = np.asarray(c.counts.sum(axis=0)).ravel()
    pmi = np.log(
        counts.data.astype(np.float64)
        * float(c.total)
        / (row_sums[counts.row] * col_sums[counts.col])
    )
    np.maximum(pmi, 0.0, out=pmi)
    out = scipy.sparse.csr_matrix(
        (pmi, (counts.row, counts.col)), shape=counts.shape, dtype=np.float64
    )
    out.eliminate_zeros()
    return out


def truncated_svd_embed(
    matrix: scipy.sparse.spmatrix | np.ndarray,
    words: list[str],
    dim: int,
    eigen_weight: float = 0.5,
) -> EmbeddingTable:
    """Dense word vectors U * Sigma^p from a rank-``dim`` truncated SVD.

    ``eigen_weight`` is the exponent p on the singular values (0.5 weights
    both sides symmetrically). If ``dim`` exceeds the numerical rank, the
    result is truncated to the rank with a warning.
    """
    if dim < 1:
        raise ValueError("embedding dimension must be >= 1")
    if not 0.0 <= eigen_weight <= 1.0:
        raise ValueError("eigen_weight must lie in [0, 1]")
    n_rows, n_cols = matrix.shape
    if len(words) != n_rows:
        raise ValueError(f"{len(words)} words but matrix has {n_rows} rows")
    if dim > min(n_rows, n_cols):
        raise ValueError(f"dim={dim} exceeds min matrix side {min(n_rows, n_cols)}")

    u, sigma = _truncated_svd(matrix, dim)
    tol = (sigma[0] * max(matrix.shape) * np.finfo(np.float64).eps) if sigma.size else 0.0
    rank = int(np.sum(sigma > tol))
    if rank < dim:
        warnings.warn(f"requested dim={dim} but matrix rank is {rank}; truncating")
        u, sigma = u[:, :rank], sigma[:rank]
    vectors = u * sigma**eigen_weight
    return EmbeddingTable(list(words), vectors)


def _truncated_svd(matrix, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Top-k left singular vectors and values, descending.

    Reproducible: svds starts from a fixed vector, and every singular vector's
    sign is chosen so that its largest-magnitude entry is positive.
    """
    sparse = scipy.sparse.issparse(matrix)
    n_rows, n_cols = matrix.shape
    if not sparse or max(n_rows, n_cols) <= DENSE_SVD_LIMIT or k >= min(n_rows, n_cols):
        dense = matrix.toarray() if sparse else np.asarray(matrix, dtype=np.float64)
        u, sigma, _ = np.linalg.svd(dense, full_matrices=False)
        u, sigma = u[:, :k], sigma[:k]
    else:
        v0 = np.random.default_rng(0).standard_normal(min(n_rows, n_cols))
        u, sigma, _ = scipy.sparse.linalg.svds(matrix.astype(np.float64), k=k, v0=v0)
        order = np.argsort(sigma)[::-1]
        u, sigma = u[:, order], sigma[order]
    pivots = u[np.argmax(np.abs(u), axis=0), np.arange(u.shape[1])]
    return u * np.where(pivots < 0, -1.0, 1.0), sigma
