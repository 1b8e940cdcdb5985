"""Count-based word vectors: co-occurrence counts -> PPMI -> truncated SVD.

Desk-scale pipeline over whitespace-tokenized text. Context windows never
cross document boundaries (documents are separated by blank lines).

scipy is imported inside the functions that use it, so importing the package
for evaluation alone loads NumPy only.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .embeddings import EmbeddingTable

if TYPE_CHECKING:
    import scipy.sparse

# Below this size a dense SVD is cheaper and more robust than the ARPACK
# eigensolve of X Xᵀ.
DENSE_SVD_LIMIT = 5000

# Entries of Xᵀu held at a time while its column norms are summed (2 MB of float64).
_NORM_BLOCK_ELEMS = 262_144

# First scan ordinal of a key that is never scanned.
_UNSCANNED = np.iinfo(np.int64).max


@dataclass(frozen=True)
class CooccurrenceCounts:
    """Sparse word-by-context counts with both vocabularies in scan order.

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

    The corpus is scanned center by center and, around each center, from
    offset -win to +win. ``word_vocab`` lists words by the first position at
    which they are a center with a kept neighbour; ``context_vocab`` lists
    context keys by the first (center, offset) at which they are scanned.
    Counting runs on token-id arrays, one offset at a time. Memory is
    O(tokens + pairs) integers (one key per counted pair, sorted in place,
    int32 when rows x columns fits, else int64) plus a
    types x (2 win + 1) table, never one Python object per pair.
    """
    import scipy.sparse

    if win < 1:
        raise ValueError("window size must be >= 1")
    if isinstance(docs, list) and docs and isinstance(docs[0], str):
        docs = [docs]  # a single token sequence is one document

    types = list(dict.fromkeys(itertools.chain.from_iterable(docs)))
    index = {t: i for i, t in enumerate(types)}
    lengths = np.fromiter(map(len, docs), dtype=np.intp, count=len(docs))
    tok = np.fromiter(map(index.__getitem__, itertools.chain.from_iterable(docs)),
                      dtype=np.intp, count=int(lengths.sum()))
    doc = np.repeat(np.arange(len(docs)), lengths)
    kept = (np.bincount(tok, minlength=len(types)) >= min_count)[tok]
    # no pair spans more than the longest document, so wider offsets scan nothing
    win = min(win, int(lengths.max(initial=1)) - 1)
    span = 2 * win + 1  # scan ordinal of (center p, offset off): p * span + off + win

    def offset_pairs():
        """(center positions, context positions, offset) of the counted pairs, per offset."""
        for d in range(1, win + 1):
            lo = np.flatnonzero(kept[:-d] & kept[d:] & (doc[:-d] == doc[d:]))
            yield lo, lo + d, d
            yield lo + d, lo, -d

    # First pass: the first scan ordinal of each center type and of each
    # (context type, offset) cell; both vocabularies follow it.
    word_first = np.full(len(types), _UNSCANNED)
    context_first = np.full(len(types) * span, _UNSCANNED)
    total = 0
    for center, context, off in offset_pairs():
        ordinal = center * span + win + off
        np.minimum.at(word_first, tok[center], ordinal)
        np.minimum.at(context_first, tok[context] * span + win + off, ordinal)
        total += center.size
    if total == 0:
        raise ValueError("no co-occurrence pairs after filtering; corpus too small")

    if not positional:  # a plain token is first scanned at its earliest offset
        token_first = context_first.reshape(len(types), span).min(axis=1)
        context_first = np.repeat(token_first, span)
    word_types, row_of = _scan_order(word_first)
    key_cells, col_of = _scan_order(context_first)
    n_rows, n_cols = word_types.size, key_cells.size
    word_vocab = {types[t]: i for i, t in enumerate(word_types.tolist())}
    context_vocab = {
        (types[c // span], c % span - win) if positional else types[c // span]: j
        for j, c in enumerate(key_cells.tolist())
    }

    # Second pass: one key row * n_cols + col per pair, int32 when they all
    # fit (signed, so bincount can cast the rows to intp), sorted in place
    # and counted by runs.
    key_type = np.int32 if n_rows * n_cols <= np.iinfo(np.int32).max else np.int64
    pair_keys = np.empty(total, dtype=key_type)
    filled = 0
    for center, context, off in offset_pairs():
        pair_keys[filled:filled + center.size] = (
            row_of[tok[center]] * n_cols + col_of[tok[context] * span + win + off]
        )
        filled += center.size
    cells, data = _sorted_runs(pair_keys)
    rows, cols = np.divmod(cells, n_cols)
    indptr = np.zeros(n_rows + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n_rows), out=indptr[1:])
    counts = scipy.sparse.csr_matrix(
        (data, cols, indptr), shape=(n_rows, n_cols), dtype=np.int64
    )
    return CooccurrenceCounts(word_vocab, context_vocab, counts, total)


def _sorted_runs(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct keys, ascending, and how often each occurs; sorts keys in place."""
    keys.sort()
    run_start = np.empty(keys.size, dtype=bool)
    run_start[0] = True
    np.not_equal(keys[1:], keys[:-1], out=run_start[1:])
    starts = np.flatnonzero(run_start)
    return keys[starts], np.diff(starts, append=keys.size)


def _scan_order(first: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The scanned keys in order of their first scan ordinal, and every key's rank.

    ``first`` holds each key's first ordinal, or ``_UNSCANNED``. Keys with equal
    ordinals share one rank and are listed once, by the lowest key.
    """
    ordinals, keys = np.unique(first, return_index=True)
    return keys[: np.searchsorted(ordinals, _UNSCANNED)], np.searchsorted(ordinals, first)


def ppmi_transform(c: CooccurrenceCounts) -> scipy.sparse.csr_matrix:
    """Positive PMI: max(0, log(count * total / (row_sum * col_sum))) per cell.

    Zero-count cells stay exactly zero; negative PMI cells are clamped to
    zero and dropped from the sparse structure.
    """
    import scipy.sparse

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

    A sparse matrix X above ``DENSE_SVD_LIMIT`` takes one ARPACK eigensolve of
    X Xᵀ (size n_rows, also for tall input): its eigenvectors are U, and
    σᵢ = ‖Xᵀuᵢ‖, which stays accurate down to zero where sqrt(λᵢ) can read
    the eigensolver's rounding noise as rank. Reproducible: ARPACK starts from a
    fixed vector, and every singular vector's sign is chosen so that its
    largest-magnitude entry is positive. Only that eigensolve imports
    scipy.sparse.linalg, and an ndarray imports no scipy module at all.
    """
    if isinstance(matrix, np.ndarray):
        sparse = False
    else:
        import scipy.sparse

        sparse = scipy.sparse.issparse(matrix)
    n_rows, n_cols = matrix.shape
    if not sparse or max(n_rows, n_cols) <= DENSE_SVD_LIMIT or k >= min(n_rows, n_cols):
        dense = matrix.toarray() if sparse else np.asarray(matrix, dtype=np.float64)
        u, sigma, _ = np.linalg.svd(dense, full_matrices=False)
        u, sigma = u[:, :k], sigma[:k]
    else:
        import scipy.sparse.linalg

        x = matrix.tocsr().astype(np.float64, copy=False)
        xt = x.T.tocsr()  # a CSR product is faster than the CSC view x.T
        gram = scipy.sparse.linalg.LinearOperator(
            (n_rows, n_rows), matvec=lambda v: x @ (xt @ v), dtype=np.float64
        )
        v0 = np.random.default_rng(0).standard_normal(n_rows)
        _, u = scipy.sparse.linalg.eigsh(gram, k=k, v0=v0)
        # squared column norms of Xᵀu, summed over row blocks of Xᵀ: the
        # n_cols x k product is never held whole
        sigma_sq = np.zeros(k)
        step = max(1, _NORM_BLOCK_ELEMS // k)
        for lo in range(0, n_cols, step):
            block = xt[lo:lo + step] @ u
            sigma_sq += np.einsum("ij,ij->j", block, block)
        sigma = np.sqrt(sigma_sq)
        order = np.argsort(sigma)[::-1]
        u, sigma = u[:, order], sigma[order]
    pivots = u[np.argmax(np.abs(u), axis=0), np.arange(u.shape[1])]
    return u * np.where(pivots < 0, -1.0, 1.0), sigma
