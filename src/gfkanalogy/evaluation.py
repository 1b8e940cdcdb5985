"""Analogy scoring and evaluation under plain and kernel-space cosines.

Four measures share one scoring core: the additive rule ranks the vocabulary
by cosine against x - a + b, the multiplicative rule combines the three
per-word cosines, and the kernel variants run the identical code on vectors
projected through a relation's flow kernel factor. Rankings are deterministic:
ties break toward the lower vocabulary index.

Vocabulary-wide work is shared. A chunk of questions is scored from one cosine
row per distinct word: the additive numerator (x - a + b).v is a signed sum of
the a, b and x rows, and the multiplicative rule reads those rows directly. A
relation's kernels are all built from subspaces of its head and tail pools, so
they act inside the span of the pool; when a relation has several kernels,
evaluate() maps the vocabulary into an orthonormal basis of that span once and
builds every subspace, kernel and projection in those narrow coordinates.
"""

from __future__ import annotations

import contextlib
import threading
import weakref
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from .datasets import AnalogyQuestion, RelationDataset
from .embeddings import EmbeddingTable
# subspace_from_rows is not called here, but perfbench/tracing.py wraps this module's name for it
from .grassmann import (
    NULL_SPACE_NORM,
    GfkKernel,
    Subspace,
    gfk,
    principal_angles,
    row_spectrum,
    subspace_from_rows,
)

MEASURES = ("CosADD", "CosMUL", "GFKCosADD", "GFKCosMUL")
GFK_MEASURES = ("GFKCosADD", "GFKCosMUL")
HOLDOUTS = ("none", "answer", "question")

_CANONICAL = {m.lower(): m for m in MEASURES}
# The cosine rule behind each measure; kernel measures apply it in kernel coordinates.
_MODES = {"CosADD": "add", "CosMUL": "mul", "GFKCosADD": "add", "GFKCosMUL": "mul"}
# Cap on |V|-wide elements alive per scoring chunk (40 MB), to bound memory on
# big vocabularies: the cosine rows of a chunk's u distinct words, one additive
# score row per question, and one multiplicative row with its denominator.
_CHUNK_ELEMS = 5_000_000


@dataclass(frozen=True)
class EvalConfig:
    """Evaluation knobs.

    measure is 'all', one measure name, or a comma-separated list (case
    insensitive). holdout controls which of a question's words are withheld
    from its own relation subspaces: 'none' keeps everything, 'answer' drops
    the gold word y from the tail pool, 'question' drops all four words from
    both pools. shift_cosines maps cosines to (c+1)/2 inside the
    multiplicative rule so the denominator stays positive; disable it to get
    the literal raw-cosine formula.
    """

    measure: str = "all"
    subspace_dim: int = 40
    epsilon: float = 0.001
    holdout: str = "answer"
    exclude_inputs: bool = True
    shift_cosines: bool = True
    center_subspaces: bool = False
    threads: int = 1

    def __post_init__(self):
        names = self._parse_measures(self.measure)
        object.__setattr__(self, "measure", ",".join(names) if names != MEASURES else "all")
        if self.subspace_dim < 1:
            raise ValueError("subspace_dim must be >= 1")
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")
        if self.holdout not in HOLDOUTS:
            raise ValueError(f"holdout must be one of {HOLDOUTS}, got {self.holdout!r}")
        if self.threads < 1:
            raise ValueError("threads must be >= 1")

    @staticmethod
    def _parse_measures(spec: str) -> tuple[str, ...]:
        if spec.strip().lower() == "all":
            return MEASURES
        names = []
        for token in spec.split(","):
            m = _CANONICAL.get(token.strip().lower())
            if m is None:
                raise ValueError(f"unknown measure {token.strip()!r}; choose from {MEASURES} or 'all'")
            if m not in names:
                names.append(m)
        if not names:
            raise ValueError("no measures requested")
        return tuple(names)

    def measures(self) -> tuple[str, ...]:
        return self._parse_measures(self.measure)


@dataclass
class Ranking:
    """Vocabulary indices in descending score order, with their scores.

    Excluded candidates are absent. diagnostics counts degenerate events
    (null-space vectors, an empty ranking from a zero target).
    """

    indices: np.ndarray
    scores: np.ndarray
    diagnostics: dict[str, int] = field(default_factory=dict)

    def words(self, table: EmbeddingTable) -> list[str]:
        return [table.words[i] for i in self.indices]


class _Workspace(threading.local):
    """Reused buffers for one evaluate call, one set per thread.

    get(name, shape) returns the leading shape[0] rows of the named buffer,
    which is reallocated only when it has fewer rows or another row shape, so
    the |V|-wide arrays of scoring are allocated a few times per call instead
    of once per kernel, chunk or question. A view is valid until the next get
    of its name. Each worker thread of evaluate sees its own buffers
    (threading.local).
    """

    def __init__(self):
        self._bufs: dict[str, np.ndarray] = {}

    def get(self, name: str, shape: tuple[int, ...], dtype=np.float64) -> np.ndarray:
        buf = self._bufs[name] if name in self._bufs else None
        if buf is None or buf.shape[0] < shape[0] or buf.shape[1:] != shape[1:]:
            buf = self._bufs[name] = np.empty(shape, dtype=dtype)
        return buf[: shape[0]]


def _row_norms(rows: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Euclidean norm of each row, in one pass with no rows-sized temporary."""
    norms = np.einsum("ij,ij->i", rows, rows, out=out)
    return np.sqrt(norms, out=norms)


class _Scorer:
    """Cosine scoring over one set of word rows, one row per vocabulary word.

    The rows are the vocabulary itself for the plain measures, or one kernel's
    projection of it (``kernel.project(coords)``) for the kernel measures, so
    each kernel projects the vocabulary once. Query words and candidates are
    both read from these rows. Candidates whose norm is below NULL_SPACE_NORM
    have no direction; their cosine against any query is pinned to -1 so they
    sink to the bottom of every ranking. Questions are scored from one cosine
    row per distinct word, shared by every question and rule of a chunk.

    unit receives the unit candidate rows and must stay untouched while the
    scorer is in use; the plain scorer, which outlives every kernel scorer of
    an evaluate call, gets a buffer of its own. Per-chunk arrays come from the
    workspace ws, fetched once per chunk.
    """

    def __init__(self, rows: np.ndarray, unit: np.ndarray, ws: _Workspace):
        self.rows = rows
        self.unit = unit
        self.ws = ws
        n = len(rows)
        norms = _row_norms(rows, out=ws.get("norms", (n,)))
        null = np.less(norms, NULL_SPACE_NORM, out=ws.get("mask", (n,), bool))
        self.null_idx = null.nonzero()[0]
        norms[self.null_idx] = 1.0
        np.divide(rows, norms[:, None], out=unit)
        unit[self.null_idx] = 0.0
        self.n_null_candidates = len(self.null_idx)

    def scores(self, idx: np.ndarray, modes, epsilon: float, shift: bool):
        """Yield mode -> (score row, null flag) per question of a k x 3 block of (a, b, x) indices.

        Each of the block's u distinct words gets one cosine row against the
        unit candidates, from its slice of the scorer's rows. The additive
        numerator (x - a + b).v is a signed sum of those rows scaled by the
        word norms, taken as one k x u coefficient product, and is divided by
        |x - a + b|; an additive row is None when that target has no
        direction. The multiplicative rule then clips and shifts the word
        cosines in place, once per word, and builds each question's row
        s_b * s_x / (s_a + eps) just before yielding it, in one row buffer
        that the next question overwrites. Null queries and null candidates
        score -1 in every cosine; a NaN score, possible only without a
        positive shifted denominator, becomes -inf.
        """
        ws, n, k = self.ws, len(self.unit), len(idx)
        words, pos = np.unique(idx, return_inverse=True)
        pos = pos.reshape(idx.shape)
        a, b, x = pos.T
        rows = self.rows[words]
        norms = _row_norms(rows)
        null_w = norms < NULL_SPACE_NORM
        safe = np.where(null_w, 1.0, norms)
        cos = np.matmul(rows / safe[:, None], self.unit.T, out=ws.get("cos", (len(words), n)))
        add = mul = None
        if "add" in modes:
            tnorms = _row_norms(rows[x] - rows[a] + rows[b])
            null_t = tnorms < NULL_SPACE_NORM
            scale = np.where(null_t, 1.0, tnorms)
            coef = np.zeros((k, len(words)))
            rk = np.arange(k)
            for col, sign in ((x, 1.0), (a, -1.0), (b, 1.0)):
                np.add.at(coef, (rk, col), sign * safe[col] / scale)
            add = np.matmul(coef, cos, out=ws.get("add", (k, n)))
            np.clip(add, -1.0, 1.0, out=add)
            add[:, self.null_idx] = -1.0
            add[null_t] = -1.0
            null_t = null_t.tolist()
        if "mul" in modes:
            np.clip(cos, -1.0, 1.0, out=cos)
            cos[:, self.null_idx] = -1.0
            cos[null_w] = -1.0
            if shift:
                cos += 1.0
                cos *= 0.5  # exact, as dividing by 2 is
            mul, den = ws.get("mul", (2, n))
            nan = None if shift and epsilon > 0 else ws.get("mask", (n,), bool)
            null_m = (null_w[a] | null_w[b] | null_w[x]).tolist()
        for q, (ia, ib, ix) in enumerate(pos.tolist()):
            scored = {}
            if add is not None:
                scored["add"] = (None if null_t[q] else add[q], null_t[q])
            if mul is not None:
                np.multiply(cos[ib], cos[ix], out=mul)
                np.add(cos[ia], epsilon, out=den)
                if nan is None:
                    mul /= den
                else:
                    with np.errstate(divide="ignore", invalid="ignore"):
                        mul /= den
                    mul[np.isnan(mul, out=nan)] = -np.inf
                scored["mul"] = (mul, null_m[q])
            yield scored


def _resolve_question(q: AnalogyQuestion, table: EmbeddingTable, strict: bool):
    """Vocabulary indices (ia, ib, ix, iy) for a question's tokens.

    Returns None for out-of-vocabulary questions when not strict; strict mode
    raises, naming the missing word.
    """
    out = []
    for token in q.tokens():
        i = table.resolve(token)
        if i is None:
            if strict:
                raise ValueError(f"word not in vocabulary: {token!r}")
            return None
        out.append(i)
    return tuple(out)


def _resolve_relation(questions, table: EmbeddingTable) -> tuple[list, int]:
    """(question, indices) for each in-vocabulary question, and the number dropped."""
    resolved = []
    for q in questions:
        r = _resolve_question(q, table, strict=False)
        if r is not None:
            resolved.append((q, r))
    return resolved, len(questions) - len(resolved)


def _scoring_items(resolved_questions, table: EmbeddingTable, exclude_inputs: bool) -> list:
    """(indices, gold indices, excluded indices) per resolved question.

    The gold indices are every case variant of y in the vocabulary; the
    excluded ones are the distinct a, b, x indices dropped from the
    candidates, never a gold index.
    """
    items = []
    for q, resolved in resolved_questions:
        gold = table.case_matches(q.y)
        excluded = tuple(set(resolved[:3]).difference(gold.tolist())) if exclude_inputs else ()
        items.append((resolved, gold, excluded))
    return items


def _rank_of_gold(scores: np.ndarray, excluded: tuple[int, ...], gold: np.ndarray) -> int:
    """1-based rank of the best gold candidate under stable descending order.

    Counts the candidates ahead of it (a higher score, or an equal score at a
    lower index) in one pass, less the excluded indices among them. There are
    at most three, so they are checked one by one.
    """
    best = int(gold[np.argmax(scores[gold])])
    s = scores[best]
    ahead = np.count_nonzero(scores[:best] >= s) + np.count_nonzero(scores[best:] > s)
    ahead -= sum(1 for i in excluded if scores[i] > s or (i < best and scores[i] == s))
    return 1 + int(ahead)


def _chunks(items, budget: int, per_question: int):
    """Split scoring items into consecutive runs of questions that fit a row budget.

    A run of k questions over u distinct input words holds u cosine rows plus
    per_question score rows per question, all |V| wide; it stays within budget
    rows unless it holds a single question. The caller takes the rows that do
    not grow with k (CosMUL's one row and its denominator) out of budget.
    """
    chunk: list = []
    words: set[int] = set()
    for item in items:
        grown = words.union(item[0][:3])
        if chunk and len(grown) + (len(chunk) + 1) * per_question > budget:
            yield chunk
            chunk, grown = [], set(item[0][:3])
        chunk.append(item)
        words = grown
    if chunk:
        yield chunk


def _scored_questions(scorer, table, items, modes, epsilon, shift):
    """Score _scoring_items a chunk at a time under each mode.

    Yields (gold indices, excluded indices, mode -> (score row, null flag))
    per question, in order. An additive target with no direction has no
    ranking: its score row is None. Score rows are workspace views, valid
    only until the next question is drawn. A chunk budgets u cosine rows, one
    additive row per question, and two rows for the multiplicative rule.
    """
    budget = _CHUNK_ELEMS // max(len(table), 1) - 2 * ("mul" in modes)
    for chunk in _chunks(items, budget, int("add" in modes)):
        idx = np.array([item[0][:3] for item in chunk], dtype=int)
        for (_, gold, excluded), scored in zip(chunk, scorer.scores(idx, modes, epsilon, shift)):
            yield gold, excluded, scored


def _answer(q, table, rows, mode, epsilon, shift, exclude_inputs) -> Ranking:
    """One question scored over rows as a batch of one, then a stable full sort.

    The returned arrays are the ranking's own: scores[sel] copies the row.
    """
    items = _scoring_items([(q, _resolve_question(q, table, strict=True))], table, exclude_inputs)
    scorer = _Scorer(rows, np.empty_like(rows), _Workspace())
    [(_, excluded, scored)] = _scored_questions(scorer, table, items, (mode,), epsilon, shift)
    scores, null_q = scored[mode]
    if scores is None:
        return Ranking(np.empty(0, dtype=int), np.empty(0), {"empty_ranking": 1, "null_queries": 1})
    diagnostics = {"null_queries": 1} if null_q else {}
    if scorer.n_null_candidates:
        diagnostics["null_candidates"] = scorer.n_null_candidates
    order = np.argsort(-scores, kind="stable")
    sel = order[~np.isin(order, excluded)]
    return Ranking(indices=sel, scores=scores[sel], diagnostics=diagnostics)


def cos_add_answer(q: AnalogyQuestion, table: EmbeddingTable, exclude_inputs: bool = True) -> Ranking:
    """Rank the vocabulary by cosine against the combined vector x - a + b."""
    return _answer(q, table, table.vectors, "add", 0.0, False, exclude_inputs)


def cos_mul_answer(
    q: AnalogyQuestion,
    table: EmbeddingTable,
    epsilon: float = 0.001,
    exclude_inputs: bool = True,
    shift_cosines: bool = True,
) -> Ranking:
    """Rank the vocabulary by the multiplicative rule cos(y,b) cos(y,x) / (cos(y,a) + eps)."""
    return _answer(q, table, table.vectors, "mul", epsilon, shift_cosines, exclude_inputs)


def gfk_answer(
    q: AnalogyQuestion,
    table: EmbeddingTable,
    kernel: GfkKernel,
    mode: str = "add",
    epsilon: float = 0.001,
    exclude_inputs: bool = True,
    shift_cosines: bool = True,
) -> Ranking:
    """Additive or multiplicative ranking with cosines taken in kernel space."""
    if mode not in ("add", "mul"):
        raise ValueError(f"mode must be 'add' or 'mul', got {mode!r}")
    return _answer(
        q, table, kernel.project(table.vectors), mode, epsilon, shift_cosines, exclude_inputs
    )


def _slot_pool(resolved_questions, slots) -> list[int]:
    """Distinct indices at the given slots (0-3: a, b, x, y) in first-occurrence order."""
    return list(dict.fromkeys(r[s] for _, r in resolved_questions for s in slots))


def _category_pools(resolved_questions) -> tuple[list[int], list[int]]:
    """Head (a and x) and tail (b and y) index pools."""
    return _slot_pool(resolved_questions, (0, 2)), _slot_pool(resolved_questions, (1, 3))


def _holdout_exclusions(holdout: str, resolved) -> tuple[frozenset[int], frozenset[int]]:
    """(head exclusions, tail exclusions) for one question under a policy."""
    ia, ib, ix, iy = resolved
    if holdout == "none":
        return frozenset(), frozenset()
    if holdout == "answer":
        return frozenset(), frozenset({iy})
    return frozenset({ia, ib, ix, iy}), frozenset({ia, ib, ix, iy})


def _kept(pool: list[int], excluded: frozenset[int]) -> tuple[int, ...]:
    return tuple(i for i in pool if i not in excluded)


def _pool_subspaces(
    coords, head_idx, tail_idx, d, center, ambient_dim=None, spectra=None, keep=None
) -> tuple[Subspace, Subspace]:
    """Head and tail subspaces of dimension d, from the rows of coords at the pools' indices.

    ambient_dim is the embedding dimension when coords are pool coordinates,
    so the effective-rank check is the one made on the full rows. spectra,
    when given, keeps each pool's row_spectrum (with at most keep right
    singular vectors) under its index tuple, so another holdout group or
    subspace dimension with the same rows reuses that SVD.
    """
    for label, idx in (("head", head_idx), ("tail", tail_idx)):
        if len(idx) < d:
            raise ValueError(
                f"only {len(idx)} usable unique words in the {label} category; "
                f"use a subspace dimension <= {len(idx)}"
            )
    spectra = {} if spectra is None else spectra
    subspaces = []
    for idx in (head_idx, tail_idx):
        if idx not in spectra:
            spectra[idx] = row_spectrum(coords[list(idx)], center, ambient_dim=ambient_dim, keep=keep)
        subspaces.append(spectra[idx].subspace(d))
    head, tail = subspaces
    return head, tail


def _pool_width(big_d: int, pool_size: int, d: int, n_kernels: int) -> int | None:
    """Width w of a relation's pool coordinates, or None when they do not save work.

    w = min(D, max(pool size, 2d)). Mapping the vocabulary into pool
    coordinates costs one |V| x D x w product and narrows each of n_kernels
    |V| x D x 2d kernel projections to w; when that does not pay, as for a
    single kernel, the kernels stay in embedding coordinates.
    """
    w = min(big_d, max(pool_size, 2 * d))
    return None if w * (big_d + 2 * d * n_kernels) >= n_kernels * big_d * 2 * d else w


def _pool_basis(vectors: np.ndarray, pool: list[int], w: int) -> np.ndarray:
    """A w x D orthonormal basis (as rows) of a space holding the pool's span.

    The pool's right singular vectors, completed by those of the zero rows
    that pad the pool to w rows, and none dropped by a rank tolerance.
    """
    rows = np.zeros((w, vectors.shape[1]))
    rows[: len(pool)] = vectors[pool]
    return np.linalg.svd(rows, full_matrices=False)[2]


def relation_subspaces(
    questions: list[AnalogyQuestion],
    table: EmbeddingTable,
    d: int,
    holdout: str = "none",
    current: AnalogyQuestion | None = None,
    center: bool = False,
) -> tuple[Subspace, Subspace]:
    """Head and tail subspaces for a relation's word pools.

    The head pool collects every question's a and x (both are category-A
    words), the tail pool every b and y, deduplicated in first-occurrence
    order; out-of-vocabulary words are skipped. Under holdout='answer' the
    current question's y is withheld from the tail pool; under 'question' all
    four of its words are withheld from both pools.
    """
    if holdout not in HOLDOUTS:
        raise ValueError(f"holdout must be one of {HOLDOUTS}, got {holdout!r}")
    if holdout != "none" and current is None:
        raise ValueError(f"holdout={holdout!r} needs the current question")
    resolved_questions, _ = _resolve_relation(questions, table)
    head_pool, tail_pool = _category_pools(resolved_questions)
    if holdout == "none":
        head_excl: frozenset[int] = frozenset()
        tail_excl: frozenset[int] = frozenset()
    else:
        cur = _resolve_question(current, table, strict=True)
        head_excl, tail_excl = _holdout_exclusions(holdout, cur)
    head_idx, tail_idx = _kept(head_pool, head_excl), _kept(tail_pool, tail_excl)
    return _pool_subspaces(table.vectors, head_idx, tail_idx, d, center)


@dataclass
class RelationResult:
    """Per-relation tallies for one measure."""

    n_questions: int = 0
    n_correct: int = 0
    rank_sum: float = 0.0
    n_null_flags: int = 0

    @property
    def accuracy(self) -> float:
        return self.n_correct / self.n_questions if self.n_questions else float("nan")

    @property
    def average_rank(self) -> float:
        return self.rank_sum / self.n_questions if self.n_questions else float("nan")


@dataclass
class EvalReport:
    """Accuracy and average-rank results for one measure.

    Micro metrics weight every question equally, so they equal the
    question-count-weighted means of the per-relation metrics.
    """

    measure: str
    per_relation: dict[str, RelationResult] = field(default_factory=dict)
    skipped: dict[str, str] = field(default_factory=dict)
    oov_counts: dict[str, int] = field(default_factory=dict)

    @property
    def n_questions(self) -> int:
        return sum(r.n_questions for r in self.per_relation.values())

    @property
    def n_oov(self) -> int:
        return sum(self.oov_counts.values())

    @property
    def micro_accuracy(self) -> float:
        n = self.n_questions
        if n == 0:
            return float("nan")
        return sum(r.n_correct for r in self.per_relation.values()) / n

    @property
    def micro_average_rank(self) -> float:
        n = self.n_questions
        if n == 0:
            return float("nan")
        return sum(r.rank_sum for r in self.per_relation.values()) / n


def _score_batch(scorer, table, items, measures, config):
    """Score a batch of resolved questions under each measure.

    Returns measure -> list of (correct, rank, null_flag) aligned with items.
    """
    modes = tuple(dict.fromkeys(_MODES[m] for m in measures))
    out = {m: [] for m in measures}
    for gold, excluded, scored in _scored_questions(
        scorer, table, items, modes, config.epsilon, config.shift_cosines
    ):
        for m in measures:
            scores, null_q = scored[_MODES[m]]
            if scores is None:
                # zero target vector: empty ranking, scored as a worst-case miss
                out[m].append((False, float(len(table) - len(excluded)), True))
                continue
            rank = _rank_of_gold(scores, excluded, gold)
            out[m].append((rank == 1, float(rank), null_q))
    return out


class _Relation:
    """One relation's evaluation state that does not depend on the subspace dimension.

    Holds the in-vocabulary questions as scoring items (with gold and
    excluded indices) and the number dropped, and the holdout groups: per
    distinct exclusion set, the head and tail pool indices left and the
    group's items. Per pool-coordinate width w (None for embedding
    coordinates) it caches, on first use, the w x D pool basis and the row
    spectrum of every distinct group pool. No array here is |V| wide: the
    vocabulary is mapped into pool coordinates anew at each dimension.
    """

    def __init__(self, questions, table: EmbeddingTable, holdout: str, exclude_inputs: bool):
        resolved, self.n_oov = _resolve_relation(questions, table)
        self.items = _scoring_items(resolved, table, exclude_inputs)
        head_pool, tail_pool = _category_pools(resolved)
        self.pool = list(dict.fromkeys(head_pool + tail_pool))
        groups: dict[tuple, list] = {}
        for item in self.items:
            groups.setdefault(_holdout_exclusions(holdout, item[0]), []).append(item)
        self.groups = [
            (_kept(head_pool, head_excl), _kept(tail_pool, tail_excl), items)
            for (head_excl, tail_excl), items in groups.items()
        ]
        self.frames: dict[int | None, tuple[np.ndarray | None, dict]] = {}

    def kernel_groups(self, table: EmbeddingTable, d: int, center: bool, keep: int):
        """The vocabulary's kernel-space rows and every holdout group's subspaces in them.

        Returns (coords, [(head, tail, items)]), one entry per holdout group;
        coords are pool coordinates (|V| x w) when _pool_width finds them
        cheaper, else the vectors themselves. Raises ValueError when a group's
        pools cannot support d, with the checks and messages of
        subspace_from_rows on the group's full rows.
        """
        w = _pool_width(table.dim, len(self.pool), d, len(self.groups))
        if w not in self.frames:
            basis = None if w is None else _pool_basis(table.vectors, self.pool, w)
            self.frames[w] = (basis, {})
        basis, spectra = self.frames[w]
        coords = table.vectors if basis is None else table.vectors @ basis.T
        built = []
        for head_idx, tail_idx, items in self.groups:
            head, tail = _pool_subspaces(
                coords, head_idx, tail_idx, d, center, table.dim, spectra, keep
            )
            built.append((head, tail, items))
        return coords, built


class _SweepState:
    """The _Relation of every relation, shared by the evaluate calls of one sweep.

    It belongs to one dataset and table, one holdout, exclude_inputs and
    center_subspaces setting, and kernels of subspace dimension up to
    max_dim; evaluate refuses it for anything else.
    """

    def __init__(
        self, dataset: RelationDataset, table: EmbeddingTable, config: EvalConfig, max_dim: int
    ):
        self._inputs = (weakref.ref(dataset), weakref.ref(table))
        self._settings = (config.holdout, config.exclude_inputs, config.center_subspaces)
        self.max_dim = max_dim
        self.relations: dict[str, _Relation] = {}

    def check(self, dataset, table, config: EvalConfig, kernels: bool) -> None:
        same = self._inputs[0]() is dataset and self._inputs[1]() is table
        settings = (config.holdout, config.exclude_inputs, config.center_subspaces)
        if not same or settings != self._settings or (kernels and config.subspace_dim > self.max_dim):
            raise ValueError("sweep_state was built for other inputs, settings or dimensions")

    def relation(self, name: str, questions, table: EmbeddingTable) -> _Relation:
        if name not in self.relations:
            holdout, exclude_inputs, _ = self._settings
            self.relations[name] = _Relation(questions, table, holdout, exclude_inputs)
        return self.relations[name]


def evaluate(
    dataset: RelationDataset,
    table: EmbeddingTable,
    config: EvalConfig,
    *,
    sweep_state: _SweepState | None = None,
) -> dict[str, EvalReport]:
    """Run the analogy benchmark and report per-relation and micro metrics.

    Returns one report per measure that config.measure names. Per relation,
    out-of-vocabulary questions are dropped and counted; relations whose word
    pools cannot support the configured subspace dimension are skipped for the
    kernel measures and reported as such; an error raised after a relation's
    pool subspaces are built propagates. Under holdout policies, kernels are cached
    by their excluded-word set, so questions sharing an exclusion reuse one
    kernel.

    Vocabulary-wide work is done once per distinct word and once per relation,
    not once per question and kernel. Each chunk of questions is scored from
    one cosine row per distinct input word. For the kernel measures, the
    vocabulary is mapped once per relation into an orthonormal basis of the
    span of the relation's whole head+tail pool (width w = min(D, max(pool
    size, 2d))); every holdout group's subspaces, principal angles, kernel and
    vocabulary projection are then w wide instead of D. That one-time
    |V| x D x w product is paid only when it costs less than the D-wide
    kernel projections it narrows, so a relation with a single kernel (all of
    them under holdout='none') stays in embedding coordinates. Each pool is
    factored by one SVD, which holdout groups with the same pool share. Each
    kernel projects the vocabulary once, and its scorer reads every
    question's word rows from that projection.

    The |V|-wide arrays of scoring live in one workspace for the whole call:
    each kernel's projected and unit rows, each chunk's cosine rows and
    additive block, and the one multiplicative row that each question fills
    just before it is ranked. The buffers are reused, not reallocated, from
    kernel to kernel and chunk to chunk. The plain scorer's unit rows are a
    separate array, since they outlive every kernel. With threads > 1 one
    pool of worker threads serves every relation, and each worker thread
    has its own workspace.

    sweep_state is not a tuning option: dimension_sweep passes the state it
    builds once for all its dimensions (see there), and the reports equal
    those of a call without it. Without it, each relation's state is
    dropped once the relation is scored.
    """
    measures = config.measures()
    gfk_measures = tuple(m for m in measures if m in GFK_MEASURES)
    plain_measures = tuple(m for m in measures if m not in GFK_MEASURES)
    if gfk_measures and 2 * config.subspace_dim > table.dim:
        raise ValueError(
            f"subspace_dim {config.subspace_dim} too large: kernel measures need "
            f"2 * subspace_dim <= embedding dim (2*d = {2 * config.subspace_dim} > {table.dim})"
        )
    if sweep_state is not None:
        sweep_state.check(dataset, table, config, bool(gfk_measures))
    keep = config.subspace_dim if sweep_state is None else sweep_state.max_dim
    ws = _Workspace()
    plain_scorer = (
        _Scorer(table.vectors, np.empty_like(table.vectors), ws) if plain_measures else None
    )
    reports = {m: EvalReport(measure=m) for m in measures}
    threaded = config.threads > 1 and bool(gfk_measures)
    with ThreadPoolExecutor(config.threads) if threaded else contextlib.nullcontext() as executor:
        for relation, questions in dataset.relations.items():
            if sweep_state is None:
                rel = _Relation(questions, table, config.holdout, config.exclude_inputs)
            else:
                rel = sweep_state.relation(relation, questions, table)
            for m in measures:
                reports[m].oov_counts[relation] = rel.n_oov
            if not rel.items:
                for m in measures:
                    reports[m].skipped[relation] = "no in-vocabulary questions"
                continue

            if plain_measures:
                results = _score_batch(plain_scorer, table, rel.items, plain_measures, config)
                for m in plain_measures:
                    reports[m].per_relation[relation] = _tally(results[m])

            if gfk_measures:
                try:
                    coords, groups = rel.kernel_groups(
                        table, config.subspace_dim, config.center_subspaces, keep
                    )
                except ValueError as err:
                    for m in gfk_measures:
                        reports[m].skipped[relation] = str(err)
                    continue
                grouped = _score_relation_gfk(
                    coords, groups, table, gfk_measures, config, ws, executor
                )
                for m in gfk_measures:
                    reports[m].per_relation[relation] = _tally(grouped[m])
    return reports


def _tally(results) -> RelationResult:
    tally = RelationResult()
    for correct, rank, null_flag in results:
        tally.n_questions += 1
        tally.n_correct += int(correct)
        tally.rank_sum += rank
        tally.n_null_flags += int(null_flag)
    return tally


def _score_relation_gfk(coords, groups, table, measures, config, ws, executor):
    """Kernel-measure scoring for one relation's holdout groups, in pool coordinates.

    Each group's kernel projects coords into the workspace's row buffer and
    its scorer normalizes them into the unit buffer. With an executor the
    groups run on its worker threads, each with its own buffers from ws.
    """

    def run_group(group):
        head, tail, items = group
        kernel = gfk(principal_angles(head, tail))
        shape = (len(coords), kernel.f.shape[1])
        rows = kernel.project(coords, out=ws.get("rows", shape))
        scorer = _Scorer(rows, ws.get("unit", shape), ws)
        return _score_batch(scorer, table, items, measures, config)

    if executor is not None and len(groups) > 1:
        group_results = list(executor.map(run_group, groups))
    else:
        group_results = [run_group(g) for g in groups]

    merged = {m: [] for m in measures}
    for result in group_results:
        for m in measures:
            merged[m].extend(result[m])
    return merged


def dimension_sweep(
    dataset: RelationDataset,
    table: EmbeddingTable,
    config: EvalConfig,
    dims: list[int],
) -> list[tuple[int, str, float | None]]:
    """Micro accuracy per (subspace dimension, measure).

    Kernel measures are re-evaluated at every dimension, by one evaluate call
    per dimension; the plain measures are dimension-independent, so they are
    computed once and replicated as flat baselines. A kernel cell is None when
    2 * d exceeds the embedding dimension or every relation was skipped at
    that dimension.

    What does not depend on d is built once per sweep and handed to each
    evaluate call: question resolution with gold and excluded indices, holdout
    grouping, the pool basis (per basis width) and one SVD per holdout
    group's pool, from whose leading max(dims) right singular vectors each d
    takes its subspace after the same checks as subspace_from_rows. Nothing
    |V|-wide is kept across dimensions: each d maps the vocabulary into pool
    coordinates again.
    """
    measures = config.measures()
    plain = tuple(m for m in measures if m not in GFK_MEASURES)
    gfks = tuple(m for m in measures if m in GFK_MEASURES)
    if any(d >= table.dim for d in dims):
        raise ValueError("every swept dimension must be below the embedding dimension")
    state = _SweepState(dataset, table, config, max(dims, default=1))

    baselines: dict[str, float | None] = {}
    if plain:
        plain_config = replace(config, measure=",".join(plain))
        plain_reports = evaluate(dataset, table, plain_config, sweep_state=state)
        for m in plain:
            rep = plain_reports[m]
            baselines[m] = rep.micro_accuracy if rep.n_questions else None

    rows: list[tuple[int, str, float | None]] = []
    for d in dims:
        per_d: dict[str, float | None] = dict(baselines)
        if gfks and 2 * d > table.dim:
            per_d.update(dict.fromkeys(gfks))
        elif gfks:
            gfk_config = replace(config, subspace_dim=d, measure=",".join(gfks))
            gfk_reports = evaluate(dataset, table, gfk_config, sweep_state=state)
            for m in gfks:
                rep = gfk_reports[m]
                per_d[m] = rep.micro_accuracy if rep.n_questions else None
        for m in measures:
            rows.append((d, m, per_d[m]))
    return rows


def format_config_echo(config: EvalConfig, **extras) -> str:
    """One CSV comment line echoing the configuration, for report provenance."""
    pairs = {
        "measure": config.measure,
        "subspace_dim": config.subspace_dim,
        "epsilon": config.epsilon,
        "holdout": config.holdout,
        "exclude_inputs": config.exclude_inputs,
        "shift_cosines": config.shift_cosines,
        "center_subspaces": config.center_subspaces,
    }
    pairs.update(extras)
    return "# " + " ".join(f"{k}={v}" for k, v in pairs.items())


def write_report_csv(reports: dict[str, EvalReport], config: EvalConfig, f, **extras) -> None:
    """Report CSV: relation,n,measure,accuracy,avg_rank plus micro rows."""
    f.write(format_config_echo(config, **extras) + "\n")
    f.write("relation,n,measure,accuracy,avg_rank\n")
    for measure, report in reports.items():
        for relation, res in report.per_relation.items():
            f.write(
                f"{relation},{res.n_questions},{measure},"
                f"{res.accuracy:.6f},{res.average_rank:.4f}\n"
            )
        if report.n_questions:
            f.write(
                f"micro,{report.n_questions},{measure},"
                f"{report.micro_accuracy:.6f},{report.micro_average_rank:.4f}\n"
            )
        for relation, reason in report.skipped.items():
            f.write(f"# skipped {relation} ({measure}): {reason}\n")
        if report.n_oov:
            f.write(f"# oov questions dropped ({measure}): {report.n_oov}\n")
        n_null = sum(res.n_null_flags for res in report.per_relation.values())
        if n_null:
            f.write(f"# null flags ({measure}): {n_null}\n")


def write_sweep_csv(rows, config: EvalConfig, f, **extras) -> None:
    """Sweep CSV: d,measure,accuracy (empty accuracy for absent cells)."""
    f.write(format_config_echo(config, **extras) + "\n")
    f.write("d,measure,accuracy\n")
    for d, measure, accuracy in rows:
        cell = "" if accuracy is None else f"{accuracy:.6f}"
        f.write(f"{d},{measure},{cell}\n")
