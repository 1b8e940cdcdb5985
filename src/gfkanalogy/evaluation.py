"""Analogy scoring and evaluation under plain and kernel-space cosines.

Four measures share one scoring core: the additive rule ranks the vocabulary
by cosine against x - a + b, the multiplicative rule combines the three
per-word cosines, and the kernel variants run the identical code on vectors
projected through a relation's flow kernel factor. Rankings are deterministic:
ties break toward the lower vocabulary index, and ranks are those of float64
reference scores although the vocabulary-wide passes run in float32.

This module holds the questions, holdout pools, kernels and reports; the
scoring module turns row sets into exact ranks (float32 scores, their bounds
and the reference). Vocabulary-wide work is shared. A chunk of questions is
scored from one cosine row per distinct word: the additive numerator
(x - a + b).v is a signed sum of the a, b and x rows, and the multiplicative
rule reads those rows directly. A relation's kernels are all built from
subspaces of its head and tail pools, so they act inside the span of the
pool; when a relation has several kernels, evaluate() maps the vocabulary
into an orthonormal basis of that span once and builds every subspace,
kernel and projection in those narrow coordinates.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .datasets import AnalogyQuestion, RelationDataset
from .embeddings import EmbeddingTable, _block_rows
# subspace_from_rows is not called here, but perfbench/tracing.py wraps this module's name for it
from .grassmann import (
    GfkKernel,
    RowSpectrum,
    Subspace,
    gfk,
    principal_angles,
    row_spectrum,
    subspace_from_rows,
)
from .scoring import _Block, _ranked, _Scorer, _stacks, _Workspace

MEASURES = ("CosADD", "CosMUL", "GFKCosADD", "GFKCosMUL")
GFK_MEASURES = ("GFKCosADD", "GFKCosMUL")
HOLDOUTS = ("none", "answer", "question")

_CANONICAL = {m.lower(): m for m in MEASURES}
# Cap on the elements of one stacked batch of kernels while it is built (1 MB
# of the float64 bases, factors and coefficients) and of each stacked pool
# SVD's arrays. A few dozen small kernels already share each LAPACK call's
# overhead; bigger batches only raise peak memory (kernel-sweep: 120-kernel
# batches of 32 x 12 bases, +7% peak RSS). Scoring takes its own budget alone
# (scoring._CHUNK_ELEMS).
_KERNEL_BATCH_ELEMS = 131_072


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
    # goes once perfbench/run.py stops passing it (ROADMAP item 1)
    threads: int = 1

    def __post_init__(self):
        names = self._parse_measures(self.measure)
        object.__setattr__(self, "measure", ",".join(names) if names != MEASURES else "all")
        if self.subspace_dim < 1:
            raise ValueError("subspace_dim must be >= 1")
        if not 0 < self.epsilon < np.inf:  # nan fails both comparisons
            raise ValueError(f"epsilon must be positive and finite, got {self.epsilon!r}")
        if self.holdout not in HOLDOUTS:
            raise ValueError(f"holdout must be one of {HOLDOUTS}, got {self.holdout!r}")
        if self.threads != 1:
            raise ValueError(f"threads must be 1: evaluate runs on the calling thread, got {self.threads}")

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
    excluded ones, dropped from the candidates, are every case variant of
    a, b and x that is not a gold, in ascending order. Each distinct word's
    variants are looked up once per call.
    """
    variants: dict[str, tuple[np.ndarray, set[int]]] = {}
    items = []
    for q, resolved in resolved_questions:
        for word in (q.a, q.b, q.x, q.y):
            if word not in variants:
                matches = table.case_matches(word)
                variants[word] = matches, set(matches.tolist())
        gold, gold_set = variants[q.y]
        excluded = ()
        if exclude_inputs:
            inputs = variants[q.a][1] | variants[q.b][1] | variants[q.x][1]
            excluded = tuple(sorted(inputs - gold_set))
        items.append((resolved, gold, excluded))
    return items


def _answer(q, table, scorer: _Scorer, mode, epsilon, shift, exclude_inputs) -> Ranking:
    """One question ranked by the reference scores of every candidate, in a stable full sort.

    The scores are scorer.answer's, the reference that evaluate ranks by, so
    on the same rows the two rank alike. The arrays are the ranking's own.
    """
    [item] = _scoring_items([(q, _resolve_question(q, table, strict=True))], table, exclude_inputs)
    scores, null_q, n_null = scorer.answer(item, mode, epsilon, shift)
    if null_q and mode == "add":
        return Ranking(np.empty(0, dtype=int), np.empty(0), {"empty_ranking": 1, "null_queries": 1})
    diagnostics = {"null_queries": 1} if null_q else {}
    if n_null:
        diagnostics["null_candidates"] = n_null
    order = np.argsort(-scores, kind="stable")
    sel = order[~np.isin(order, item[2])]
    return Ranking(indices=sel, scores=scores[sel], diagnostics=diagnostics)


def cos_add_answer(q: AnalogyQuestion, table: EmbeddingTable, exclude_inputs: bool = True) -> Ranking:
    """Rank the vocabulary by cosine against the combined vector x - a + b."""
    return _answer(q, table, _Scorer(table.vectors[None], _Workspace()), "add", 0.0, False, exclude_inputs)


def cos_mul_answer(
    q: AnalogyQuestion,
    table: EmbeddingTable,
    epsilon: float = 0.001,
    exclude_inputs: bool = True,
    shift_cosines: bool = True,
) -> Ranking:
    """Rank the vocabulary by the multiplicative rule cos(y,b) cos(y,x) / (cos(y,a) + eps)."""
    return _answer(q, table, _Scorer(table.vectors[None], _Workspace()), "mul", epsilon, shift_cosines,
                   exclude_inputs)


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
    if kernel.ambient_dim != table.dim:
        raise ValueError(
            f"kernel ambient dimension {kernel.ambient_dim} does not match the table's dimension {table.dim}"
        )
    # the scorer evaluate takes for a kernel over the table itself, whose reference re-projects the table
    scorer = _Scorer.of_kernels([kernel], _Workspace(), table.vectors, _Scorer.kernel_inputs(table.vectors))
    return _answer(q, table, scorer, mode, epsilon, shift_cosines, exclude_inputs)


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


class _PoolSpectra:
    """Row spectra of holdout groups' head and tail pools, checked for a dimension d.

    pools lists each group's (head indices, tail indices) into the rows of
    coords. Each distinct pool is factored once: the pools are grouped by
    size, and each size is factored in stacked row_spectrum calls whose
    arrays hold about _KERNEL_BATCH_ELEMS elements (at least one pool
    each); each spectrum has the bits of its pool's own call. where
    (G x 2 x 2) gives the stack and the position in it of each group's head
    (side 0) and tail (side 1) pool. ambient_dim is the embedding dimension
    when coords are pool coordinates, so the effective-rank check is the one
    made on the full rows; keep caps the right singular vectors held.
    """

    def __init__(self, coords, pools, center, ambient_dim=None, keep=None):
        by_size: dict[int, list[tuple[int, ...]]] = {}
        for idx in dict.fromkeys(idx for pair in pools for idx in pair):
            by_size.setdefault(len(idx), []).append(idx)
        self.stacks, place = [], {}
        for n, same in by_size.items():
            # a call holds about four n x w arrays per pool (the gathered rows,
            # their centred copy, the factors, the kept vectors); with a
            # sixteenth of the budget in rows (18 pools of 14 x 32), kernel-sweep
            # keeps the peak RSS of one SVD per pool, where an eighth took
            # 0.3 MB more and a quarter 0.5 MB, for 1-2% more speed
            step = max(1, _KERNEL_BATCH_ELEMS // max(1, 16 * n * coords.shape[1]))
            for lo in range(0, len(same), step):
                part = same[lo : lo + step]
                place.update((idx, (len(self.stacks), j)) for j, idx in enumerate(part))
                rows = coords[np.array(part, dtype=np.intp).reshape(len(part), n)]
                self.stacks.append(row_spectrum(rows, center, ambient_dim=ambient_dim, keep=keep))
        self.where = np.array([[place[idx] for idx in pair] for pair in pools], dtype=np.intp)
        self.sizes = [tuple(len(idx) for idx in pair) for pair in pools]
        # the largest d each pool supports: its effective rank, which min(n, D)
        # bounds, or the singular vectors kept
        limits = [np.minimum(spectra.rank, spectra.vt.shape[1]).tolist() for spectra in self.stacks]
        self.limit = np.array([[limits[s][j] for s, j in pair] for pair in self.where.tolist()])

    def pool(self, g: int, side: int) -> RowSpectrum:
        """The spectrum of group g's head (side 0) or tail (side 1) pool."""
        s, j = self.where[g, side]
        return self.stacks[s][j]

    def check(self, d: int) -> None:
        """Raise the ValueError that taking a group's subspaces of dimension d would raise.

        The first group, in order, that cannot support d raises, with the
        checks and messages of subspace_from_rows on its full rows: the
        head's and the tail's size, then each spectrum's own checks.
        """
        for g in np.flatnonzero((self.limit < d).any(axis=1) | (d < 1)).tolist():
            for label, size in zip(("head", "tail"), self.sizes[g]):
                if size < d:
                    raise ValueError(
                        f"only {size} usable unique words in the {label} category; "
                        f"use a subspace dimension <= {size}"
                    )
            self.pool(g, 0).check(d)
            self.pool(g, 1).check(d)

    def bases(self, lo: int, hi: int, side: int, d: int) -> np.ndarray:
        """The top-d bases (B x D x d) of one side's pools of groups lo to hi - 1.

        One fancy index per stack that holds them, written straight into the
        C-contiguous batch that Subspace takes as it is.
        """
        stack, at = self.where[lo:hi, side].T
        out = np.empty((hi - lo, self.stacks[0].vt.shape[-1], d))
        for s in np.unique(stack).tolist():
            sel = stack == s
            out[sel] = self.stacks[s].vt[at[sel], :d].transpose(0, 2, 1)
        return out


def _pool_width(big_d: int, pool_size: int, d: int, n_kernels: int) -> int | None:
    """Width w of a relation's pool coordinates, or None when they do not save work.

    w = min(D, max(pool size, 2d)). Mapping the vocabulary into pool
    coordinates costs one |V| x D x w product and narrows each of n_kernels
    |V| x D x 2d kernel projections to w; when that does not pay, as for a
    single kernel, the kernels stay in embedding coordinates.
    """
    w = min(big_d, max(pool_size, 2 * d))
    return None if w * (big_d + 2 * d * n_kernels) >= n_kernels * big_d * 2 * d else w


def _pool_coords(vectors: np.ndarray, basis: np.ndarray) -> np.ndarray | None:
    """The table's float32 pool coordinates (|V| x w), or None where one passes the float32 range.

    A float64 product per row block of the table (_block_rows, whose float64
    copy is 512 kB), rounded into the float32 array: one product over the
    whole table lets a threaded BLAS pack a copy of all of it (53 MB more
    peak memory on a 20k x 300 table with two threads). Only a finite row
    of norm near 3.4e38 (an un-normalized table) can overflow.
    """
    coords = np.empty((len(vectors), len(basis)), dtype=np.float32)
    step = _block_rows(vectors.shape[1])
    with np.errstate(over="ignore"):
        for lo in range(0, len(vectors), step):
            np.matmul(vectors[lo : lo + step], basis.T, out=coords[lo : lo + step])
    return coords if np.isfinite(coords.min()) and np.isfinite(coords.max()) else None


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
    pools = [(_kept(head_pool, head_excl), _kept(tail_pool, tail_excl))]
    spectra = _PoolSpectra(table.vectors, pools, center)
    spectra.check(d)
    return spectra.pool(0, 0).subspace(d), spectra.pool(0, 1).subspace(d)


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


class _Relation:
    """One relation's evaluation state that does not depend on the subspace dimension.

    Holds the in-vocabulary questions as scoring items (gold and excluded
    indices, per config.exclude_inputs) and the number dropped, and the
    holdout groups of config.holdout: per distinct exclusion set, the head
    and tail pool indices left and the group's items. Per pool-coordinate
    width w (None for embedding coordinates) it caches, on first use, the
    w x D pool basis and the _PoolSpectra of the groups' pools, centred per
    config.center_subspaces, whose keep leading right singular vectors serve
    any d <= keep; each distinct pool is factored once, in stacked SVDs. No
    array here is |V| wide: each dimension maps the vocabulary anew.
    """

    def __init__(self, questions, table: EmbeddingTable, config: EvalConfig, keep: int):
        resolved, self.n_oov = _resolve_relation(questions, table)
        self.items = _scoring_items(resolved, table, config.exclude_inputs)
        head_pool, tail_pool = _category_pools(resolved)
        self.pool = list(dict.fromkeys(head_pool + tail_pool))
        groups: dict[tuple, list] = {}
        for item in self.items:
            groups.setdefault(_holdout_exclusions(config.holdout, item[0]), []).append(item)
        self.groups = [
            (_kept(head_pool, head_excl), _kept(tail_pool, tail_excl), items)
            for (head_excl, tail_excl), items in groups.items()
        ]
        self.center, self.keep = config.center_subspaces, keep
        self.frames: dict[int | None, tuple[np.ndarray | None, _PoolSpectra | None]] = {}

    @cached_property
    def plain_block(self) -> _Block:
        """Every question, as one list."""
        return _Block.of([self.items])

    @cached_property
    def block(self) -> _Block:
        """Each holdout group's questions, one list per group."""
        return _Block.of([items for _, _, items in self.groups])

    def kernel_pools(self, table: EmbeddingTable, d: int):
        """The vocabulary's float32 kernel-space coordinates and the holdout groups' pool spectra in them.

        Returns (coords, spectra): coords are float32 pool coordinates
        (|V| x w) when _pool_width finds them cheaper and _pool_coords can
        make them, else the float32 table itself, and spectra the
        _PoolSpectra of every group's head and tail pool in them (upcast),
        in group order, factored at the first call for this width. Every
        group's pools are checked for d here, in a few array operations,
        before any kernel is built: raises ValueError when one cannot support
        d, with the checks and messages of subspace_from_rows on the group's
        full rows. The subspaces themselves are taken when their kernels are
        built.
        """
        w = _pool_width(table.dim, len(self.pool), d, len(self.groups))
        if w is not None and w not in self.frames:
            self.frames[w] = (_pool_basis(table.vectors, self.pool, w), None)
        coords = None if w is None else _pool_coords(table.vectors, self.frames[w][0])
        if coords is None:  # the table is its own coordinates, as under holdout='none'
            w, coords = None, table.vectors
        basis, spectra = self.frames.get(w, (None, None))
        if spectra is None:
            pools = [(head_idx, tail_idx) for head_idx, tail_idx, _ in self.groups]
            spectra = _PoolSpectra(coords, pools, self.center, table.dim, self.keep)
            self.frames[w] = (basis, spectra)
        spectra.check(d)
        return coords, spectra


def evaluate(
    dataset: RelationDataset,
    table: EmbeddingTable,
    config: EvalConfig,
    *,
    sweep_state: dict[str, _Relation] | None = None,
) -> dict[str, EvalReport]:
    """Run the analogy benchmark and report per-relation and micro metrics.

    Returns one report per measure that config.measure names. Per relation,
    out-of-vocabulary questions are dropped and counted; relations whose word
    pools cannot support the configured subspace dimension are skipped for the
    kernel measures and reported as such; an error raised after a relation's
    pools pass those checks propagates. Under holdout policies, kernels are cached
    by their excluded-word set, so questions sharing an exclusion reuse one
    kernel.

    Vocabulary-wide work is done once per distinct word and once per relation,
    not once per question and kernel. For the kernel measures, the
    vocabulary is mapped once per relation into an orthonormal basis of the
    span of the relation's whole head+tail pool (width w = min(D, max(pool
    size, 2d))); every holdout group's subspaces, principal angles, kernel and
    vocabulary projection are then w wide instead of D. That one-time
    |V| x D x w product is paid only when it costs less than the D-wide
    kernel projections it narrows, so a relation with a single kernel (all of
    them under holdout='none') stays in embedding coordinates. Each distinct
    pool is factored once, which holdout groups with the same pool share:
    a relation's pools of one size go through stacked SVDs (as many as fit
    _KERNEL_BATCH_ELEMS), each pool with the bits of an SVD of its own. A
    relation's kernels are built as a stack: one principal_angles and one gfk
    call for each sub-batch of its holdout groups (as many as fit the 1 MB
    _KERNEL_BATCH_ELEMS), whose stacked LAPACK and BLAS calls give each
    kernel the bits it gets alone. A sub-batch's heads are one batched
    Subspace, gathered from the stacked spectra just before its kernels are
    built, and so are its tails; every group's pools are checked for the
    dimension, in a few array operations, before the relation's first
    kernel, so it is skipped or scored whole.

    Ranks are exact, from the scoring module: its _Scorer.of_kernels has each
    kernel of a stack project a relation's float32 pool coordinates, or the
    float32 table itself, whose norms _Scorer.kernel_inputs takes once per
    relation. Peak memory is the table, plus the scoring budget per |V|-wide
    block, plus |V|(4w + 4) bytes: a relation's float32 pool coordinates and
    their norms.

    sweep_state is not a tuning option: dimension_sweep passes the _Relation
    of every relation, by name, built once for all its dimensions (see
    there), and the reports equal those of a call without it. Without it,
    each relation's _Relation is built for config.subspace_dim and dropped,
    with its pool spectra, once the relation is scored.
    """
    measures = config.measures()
    gfk_measures = tuple(m for m in measures if m in GFK_MEASURES)
    plain_measures = tuple(m for m in measures if m not in GFK_MEASURES)
    if gfk_measures and 2 * config.subspace_dim > table.dim:
        raise ValueError(
            f"subspace_dim {config.subspace_dim} too large: kernel measures need "
            f"2 * subspace_dim <= embedding dim (2*d = {2 * config.subspace_dim} > {table.dim})"
        )
    ws = _Workspace()
    plain_scorer = _Scorer(table.vectors[None], ws) if plain_measures else None
    reports = {m: EvalReport(measure=m) for m in measures}
    for relation, questions in dataset.relations.items():
        if sweep_state is None:
            rel = _Relation(questions, table, config, config.subspace_dim)
        else:
            rel = sweep_state[relation]
        for m in measures:
            reports[m].oov_counts[relation] = rel.n_oov
        if not rel.items:
            for m in measures:
                reports[m].skipped[relation] = "no in-vocabulary questions"
            continue

        if plain_measures:
            [(_, _, parts)] = _stacks(rel.plain_block, [rel.items], 0, plain_measures, len(table))
            results = [_ranked(plain_scorer, p, plain_measures, config) for p in parts]
            for m in plain_measures:
                reports[m].per_relation[relation] = _tally(results, m)

        if gfk_measures:
            try:
                coords, spectra = rel.kernel_pools(table, config.subspace_dim)
            except ValueError as err:
                for m in gfk_measures:
                    reports[m].skipped[relation] = str(err)
                continue
            cnorms = _Scorer.kernel_inputs(coords)
            groups = [items for _, _, items in rel.groups]
            results = _score_relation_gfk(
                coords, cnorms, spectra, rel.block, groups, config.subspace_dim, gfk_measures, config, ws
            )
            del coords, cnorms, spectra  # not held while the next relation is scored
            for m in gfk_measures:
                reports[m].per_relation[relation] = _tally(results, m)
    return reports


def _tally(results, measure: str) -> RelationResult:
    """One measure's tallies over the _ranked results of a relation."""
    ranks, hits, nulls = (np.concatenate(a) for a in zip(*(r[measure] for r in results)))
    return RelationResult(
        n_questions=len(ranks),
        n_correct=int(np.count_nonzero(hits)),
        rank_sum=float(ranks.sum()),
        n_null_flags=int(np.count_nonzero(nulls)),
    )


def _score_relation_gfk(coords, cnorms, spectra, block, groups, d, measures, config, ws):
    """Kernel-measure ranks for one relation's holdout groups, in pool coordinates.

    spectra holds each group's head and tail pool spectra (a _PoolSpectra),
    groups lists each group's items and block holds them. The kernels are
    built in sub-batches, one principal_angles and one gfk call each, of two
    batched Subspaces: the top-d bases of the head and of the tail spectra
    (kernel_pools checked them for d), gathered by one fancy index per
    stacked spectrum just before the call. Building a batch
    peaks at about twelve w x d arrays per kernel (the stacked bases,
    factors, 2d x 2d coefficients and their temporaries), so a sub-batch
    holds as many kernels as fit _KERNEL_BATCH_ELEMS, and at least one. A
    sub-batch is scored in stacks, which the scoring budget alone sizes
    (see _stacks): on a small vocabulary the whole sub-batch is one stack.
    Each stack's _Scorer.of_kernels projects coords, the relation's float32
    coordinates, whose norms are cnorms, by its kernels; it and the
    sub-batch's kernels are dropped before the next ones are built. Returns
    the _ranked results in group order.
    """
    n, w = coords.shape
    size = max(1, _KERNEL_BATCH_ELEMS // (12 * w * d))
    results = []
    for start in range(0, len(groups), size):
        stop = min(start + size, len(groups))
        # the top-d spans that kernel_pools checked, one B x w x d batch per side
        kernels = gfk(principal_angles(*(Subspace(spectra.bases(start, stop, side, d)) for side in (0, 1))))
        for lo, hi, parts in _stacks(block.take(start, stop), groups[start:stop], 2 * d, measures, n):
            scorer = _Scorer.of_kernels([kernels[i] for i in range(lo, hi)], ws, coords, cnorms)
            results.extend(_ranked(scorer, part, measures, config) for part in parts)
            del scorer  # not held while the next stack is built
        del kernels  # nor the batch while the next one is built
    return results


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

    What does not depend on d is built once per sweep: before the first
    evaluate call, one _Relation per relation, kept for max(dims), which
    every call takes as sweep_state. It holds question resolution with gold
    and excluded indices and holdout grouping, and, from the first d that
    needs them, the pool basis (per basis width) and the row spectrum of each
    distinct holdout-group pool, from stacked SVDs of the pools of one size,
    whose leading max(dims) right singular vectors give each d its subspaces
    after the same checks as subspace_from_rows. Nothing |V|-wide is kept
    across dimensions: each d maps the vocabulary into pool coordinates
    again.
    """
    measures = config.measures()
    plain = tuple(m for m in measures if m not in GFK_MEASURES)
    gfks = tuple(m for m in measures if m in GFK_MEASURES)
    if any(d >= table.dim for d in dims):
        raise ValueError("every swept dimension must be below the embedding dimension")
    keep = max(dims, default=1)
    state = {name: _Relation(questions, table, config, keep) for name, questions in dataset.relations.items()}

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
    """Report CSV: relation,n,measure,accuracy,avg_rank plus micro rows.

    Data rows are quoted as csv does, so a relation name with a comma or a
    quote reads back as one field; other names are written as they are.
    """
    f.write(format_config_echo(config, **extras) + "\n")
    f.write("relation,n,measure,accuracy,avg_rank\n")
    out = csv.writer(f, lineterminator="\n")
    for measure, report in reports.items():
        for relation, res in report.per_relation.items():
            out.writerow([relation, res.n_questions, measure, f"{res.accuracy:.6f}", f"{res.average_rank:.4f}"])
        if report.n_questions:
            out.writerow(["micro", report.n_questions, measure,
                          f"{report.micro_accuracy:.6f}", f"{report.micro_average_rank:.4f}"])
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
