"""Analogy scoring and evaluation under plain and kernel-space cosines.

Four measures share one scoring core: the additive rule ranks the vocabulary
by cosine against x - a + b, the multiplicative rule combines the three
per-word cosines, and the kernel variants run the identical code on vectors
projected through a relation's flow kernel factor. Rankings are deterministic:
ties break toward the lower vocabulary index.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from .datasets import AnalogyQuestion, RelationDataset
from .embeddings import EmbeddingTable
from .grassmann import (
    NULL_SPACE_NORM,
    GfkKernel,
    Subspace,
    gfk,
    principal_angles,
    subspace_from_rows,
)

MEASURES = ("CosADD", "CosMUL", "GFKCosADD", "GFKCosMUL")
GFK_MEASURES = ("GFKCosADD", "GFKCosMUL")
HOLDOUTS = ("none", "answer", "question")

_CANONICAL = {m.lower(): m for m in MEASURES}
# The cosine rule behind each measure; kernel measures apply it in kernel coordinates.
_MODES = {"CosADD": "add", "CosMUL": "mul", "GFKCosADD": "add", "GFKCosMUL": "mul"}
# k x |V| float64 arrays alive per rule while a chunk of k questions is scored:
# the additive rule holds its cosines, the multiplicative rule three cosine sets.
_LIVE_ARRAYS = {"add": 1, "mul": 3}
# Cap on score elements alive per scoring chunk (40 MB), to bound memory on big vocabularies.
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


class _Scorer:
    """Cosine scoring, plain or in a kernel's coordinates.

    Holds the unit-normalized (projected) candidates. Candidates whose norm is
    below NULL_SPACE_NORM have no direction; their cosine against any query is
    pinned to -1 so they sink to the bottom of every ranking.
    """

    def __init__(self, vectors: np.ndarray, kernel: GfkKernel | None = None):
        self.project = (lambda rows: rows) if kernel is None else kernel.project
        candidates = np.asarray(self.project(vectors), dtype=np.float64)
        norms = np.linalg.norm(candidates, axis=1)
        self.null_mask = norms < NULL_SPACE_NORM
        safe = np.where(self.null_mask, 1.0, norms)
        self.unit = candidates / safe[:, None]
        self.unit[self.null_mask] = 0.0
        self.n_null_candidates = int(self.null_mask.sum())

    def cosines(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Cosine of each projected row against every candidate.

        Returns (scores k x |V|, null-query mask). Null queries and null
        candidates score -1 everywhere.
        """
        queries = np.atleast_2d(np.asarray(self.project(rows), dtype=np.float64))
        qnorms = np.linalg.norm(queries, axis=1)
        null_q = qnorms < NULL_SPACE_NORM
        safe = np.where(null_q, 1.0, qnorms)
        scores = (queries / safe[:, None]) @ self.unit.T
        np.clip(scores, -1.0, 1.0, out=scores)
        scores[:, self.null_mask] = -1.0
        scores[null_q, :] = -1.0
        return scores, null_q

    def scores(
        self, mode: str, a_rows, b_rows, x_rows, epsilon: float, shift: bool
    ) -> tuple[np.ndarray, np.ndarray]:
        """Scores (k x |V|) and null-query mask under the additive or multiplicative rule.

        The multiplicative rule works in place on its three cosine matrices,
        so at most _LIVE_ARRAYS[mode] k x |V| arrays are alive at once.
        """
        if mode == "add":
            return self.cosines(x_rows - a_rows + b_rows)
        sb, null_b = self.cosines(b_rows)
        sx, null_x = self.cosines(x_rows)
        sa, null_a = self.cosines(a_rows)
        if shift:
            for s in (sb, sx, sa):
                s += 1.0
                s /= 2.0
        sb *= sx
        sa += epsilon
        with np.errstate(divide="ignore", invalid="ignore"):
            sb /= sa
        sb[np.isnan(sb)] = -np.inf
        return sb, null_b | null_x | null_a


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


def _gold_indices(table: EmbeddingTable, y: str, cache: dict | None = None) -> np.ndarray:
    """All vocabulary indices matching the gold answer case-insensitively."""
    key = y.lower()
    if cache is not None and key in cache:
        return cache[key]
    hits = np.flatnonzero(table.lowercase_words() == key)
    if cache is not None:
        cache[key] = hits
    return hits


def _allowed_mask(n_vocab: int, resolved, gold: np.ndarray, exclude_inputs: bool) -> np.ndarray:
    """Candidate mask: optionally drop a, b, x, but never the gold answer."""
    mask = np.ones(n_vocab, dtype=bool)
    if exclude_inputs:
        ia, ib, ix, _ = resolved
        drop = {ia, ib, ix} - set(gold.tolist())
        mask[list(drop)] = False
    return mask


def _rank_of_gold(scores: np.ndarray, allowed: np.ndarray, gold: np.ndarray) -> int:
    """1-based rank of the best gold candidate under stable descending order."""
    usable = gold[allowed[gold]]
    best = usable[int(np.argmax(scores[usable]))]
    s = scores[best]
    higher = int(np.count_nonzero(allowed & (scores > s)))
    ties_before = int(np.count_nonzero(allowed[:best] & (scores[:best] == s)))
    return 1 + higher + ties_before


def _scored_questions(scorer, table, items, modes, epsilon, shift, exclude_inputs, gold_cache=None):
    """Score resolved questions a chunk at a time under each mode.

    Yields (gold indices, candidate mask, mode -> (score row, null flag)) per
    question, in order. An additive target with no direction has no ranking:
    its score row is None.
    """
    n_vocab = len(table)
    live = max(n_vocab, 1) * sum(_LIVE_ARRAYS[mode] for mode in modes)
    chunk_size = max(1, _CHUNK_ELEMS // live)
    for start in range(0, len(items), chunk_size):
        chunk = items[start : start + chunk_size]
        idx = np.array([r for _, r in chunk], dtype=int)
        a_rows, b_rows, x_rows = (table.vectors[idx[:, j]] for j in range(3))
        per_mode = {m: scorer.scores(m, a_rows, b_rows, x_rows, epsilon, shift) for m in modes}
        for k, (q, resolved) in enumerate(chunk):
            gold = _gold_indices(table, q.y, gold_cache)
            allowed = _allowed_mask(n_vocab, resolved, gold, exclude_inputs)
            yield gold, allowed, {
                m: (None if m == "add" and null_q[k] else scores[k], bool(null_q[k]))
                for m, (scores, null_q) in per_mode.items()
            }


def _answer(q, table, kernel, mode, epsilon, shift, exclude_inputs) -> Ranking:
    """One question as a batch of one, then a stable full sort."""
    item = (q, _resolve_question(q, table, strict=True))
    scorer = _Scorer(table.vectors, kernel)
    [(_, allowed, scored)] = _scored_questions(
        scorer, table, [item], (mode,), epsilon, shift, exclude_inputs
    )
    scores, null_q = scored[mode]
    if scores is None:
        return Ranking(np.empty(0, dtype=int), np.empty(0), {"empty_ranking": 1, "null_queries": 1})
    diagnostics = {"null_queries": 1} if null_q else {}
    if scorer.n_null_candidates:
        diagnostics["null_candidates"] = scorer.n_null_candidates
    idx = np.flatnonzero(allowed)
    sel = idx[np.argsort(-scores[idx], kind="stable")]
    return Ranking(indices=sel, scores=scores[sel], diagnostics=diagnostics)


def cos_add_answer(q: AnalogyQuestion, table: EmbeddingTable, exclude_inputs: bool = True) -> Ranking:
    """Rank the vocabulary by cosine against the combined vector x - a + b."""
    return _answer(q, table, None, "add", 0.0, False, exclude_inputs)


def cos_mul_answer(
    q: AnalogyQuestion,
    table: EmbeddingTable,
    epsilon: float = 0.001,
    exclude_inputs: bool = True,
    shift_cosines: bool = True,
) -> Ranking:
    """Rank the vocabulary by the multiplicative rule cos(y,b) cos(y,x) / (cos(y,a) + eps)."""
    return _answer(q, table, None, "mul", epsilon, shift_cosines, exclude_inputs)


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
    return _answer(q, table, kernel, mode, epsilon, shift_cosines, exclude_inputs)


def _category_pools(resolved_questions) -> tuple[list[int], list[int]]:
    """Deduplicated head (a and x) and tail (b and y) index pools, in order."""
    head: dict[int, None] = {}
    tail: dict[int, None] = {}
    for _, (ia, ib, ix, iy) in resolved_questions:
        head.setdefault(ia)
        head.setdefault(ix)
        tail.setdefault(ib)
        tail.setdefault(iy)
    return list(head), list(tail)


def _holdout_exclusions(holdout: str, resolved) -> tuple[frozenset[int], frozenset[int]]:
    """(head exclusions, tail exclusions) for one question under a policy."""
    ia, ib, ix, iy = resolved
    if holdout == "none":
        return frozenset(), frozenset()
    if holdout == "answer":
        return frozenset(), frozenset({iy})
    return frozenset({ia, ib, ix, iy}), frozenset({ia, ib, ix, iy})


def _pool_subspaces(
    table, head_pool, tail_pool, head_excl, tail_excl, d, center
) -> tuple[Subspace, Subspace]:
    head_idx = [i for i in head_pool if i not in head_excl]
    tail_idx = [i for i in tail_pool if i not in tail_excl]
    for label, idx in (("head", head_idx), ("tail", tail_idx)):
        if len(idx) < d:
            raise ValueError(
                f"only {len(idx)} usable unique words in the {label} category; "
                f"use a subspace dimension <= {len(idx)}"
            )
    head = subspace_from_rows(table.vectors[head_idx], d, center=center)
    tail = subspace_from_rows(table.vectors[tail_idx], d, center=center)
    return head, tail


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
    resolved_questions = []
    for q in questions:
        r = _resolve_question(q, table, strict=False)
        if r is not None:
            resolved_questions.append((q, r))
    head_pool, tail_pool = _category_pools(resolved_questions)
    if holdout == "none":
        head_excl: frozenset[int] = frozenset()
        tail_excl: frozenset[int] = frozenset()
    else:
        cur = _resolve_question(current, table, strict=True)
        head_excl, tail_excl = _holdout_exclusions(holdout, cur)
    return _pool_subspaces(table, head_pool, tail_pool, head_excl, tail_excl, d, center)


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


def _score_batch(scorer, table, items, measures, config, gold_cache):
    """Score a batch of resolved questions under each measure.

    Returns measure -> list of (correct, rank, null_flag) aligned with items.
    """
    modes = tuple(dict.fromkeys(_MODES[m] for m in measures))
    out = {m: [] for m in measures}
    for gold, allowed, scored in _scored_questions(
        scorer, table, items, modes,
        config.epsilon, config.shift_cosines, config.exclude_inputs, gold_cache,
    ):
        for m in measures:
            scores, null_q = scored[_MODES[m]]
            if scores is None:
                # zero target vector: empty ranking, scored as a worst-case miss
                out[m].append((False, float(np.count_nonzero(allowed)), True))
                continue
            rank = _rank_of_gold(scores, allowed, gold)
            out[m].append((rank == 1, float(rank), null_q))
    return out


def evaluate(
    dataset: RelationDataset,
    table: EmbeddingTable,
    config: EvalConfig,
    measures: tuple[str, ...] | None = None,
) -> dict[str, EvalReport]:
    """Run the analogy benchmark and report per-relation and micro metrics.

    Returns one report per requested measure. Per relation, out-of-vocabulary
    questions are dropped and counted; relations whose word pools cannot
    support the configured subspace dimension are skipped for the kernel
    measures and reported as such. Under holdout policies, kernels are cached
    by their excluded-word set, so questions sharing an exclusion reuse one
    kernel.
    """
    measures = measures if measures is not None else config.measures()
    gfk_measures = tuple(m for m in measures if m in GFK_MEASURES)
    plain_measures = tuple(m for m in measures if m not in GFK_MEASURES)
    if gfk_measures and 2 * config.subspace_dim > table.dim:
        raise ValueError(
            f"subspace_dim {config.subspace_dim} too large: kernel measures need "
            f"2 * subspace_dim <= embedding dim (2*d = {2 * config.subspace_dim} > {table.dim})"
        )
    plain_scorer = _Scorer(table.vectors) if plain_measures else None
    gold_cache: dict[str, np.ndarray] = {}
    reports = {m: EvalReport(measure=m) for m in measures}

    for relation, questions in dataset.relations.items():
        resolved_questions = []
        n_oov = 0
        for q in questions:
            r = _resolve_question(q, table, strict=False)
            if r is None:
                n_oov += 1
            else:
                resolved_questions.append((q, r))
        for m in measures:
            reports[m].oov_counts[relation] = n_oov
        if not resolved_questions:
            for m in measures:
                reports[m].skipped[relation] = "no in-vocabulary questions"
            continue

        if plain_measures:
            results = _score_batch(
                plain_scorer, table, resolved_questions, plain_measures, config, gold_cache
            )
            for m in plain_measures:
                reports[m].per_relation[relation] = _tally(results[m])

        if gfk_measures:
            try:
                grouped = _evaluate_relation_gfk(
                    table, resolved_questions, gfk_measures, config, gold_cache
                )
            except ValueError as err:
                for m in gfk_measures:
                    reports[m].skipped[relation] = str(err)
            else:
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


def _evaluate_relation_gfk(table, resolved_questions, measures, config, gold_cache):
    """Kernel-measure scoring for one relation, grouped by holdout exclusions."""
    head_pool, tail_pool = _category_pools(resolved_questions)
    groups: dict[tuple, list] = {}
    for item in resolved_questions:
        key = _holdout_exclusions(config.holdout, item[1])
        groups.setdefault(key, []).append(item)

    def run_group(key_items):
        (head_excl, tail_excl), items = key_items
        head, tail = _pool_subspaces(
            table, head_pool, tail_pool, head_excl, tail_excl,
            config.subspace_dim, config.center_subspaces,
        )
        scorer = _Scorer(table.vectors, gfk(principal_angles(head, tail)))
        return _score_batch(scorer, table, items, measures, config, gold_cache)

    entries = list(groups.items())
    if config.threads > 1 and len(entries) > 1:
        with ThreadPoolExecutor(max_workers=config.threads) as pool:
            group_results = list(pool.map(run_group, entries))
    else:
        group_results = [run_group(e) for e in entries]

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

    Kernel measures are re-evaluated at every dimension; the plain measures
    are dimension-independent, so they are computed once and replicated as
    flat baselines. A cell is None when every relation was skipped at that
    dimension.
    """
    measures = config.measures()
    plain = tuple(m for m in measures if m not in GFK_MEASURES)
    gfks = tuple(m for m in measures if m in GFK_MEASURES)
    if any(d >= table.dim for d in dims):
        raise ValueError("every swept dimension must be below the embedding dimension")

    baselines: dict[str, float | None] = {}
    if plain:
        plain_reports = evaluate(dataset, table, config, measures=plain)
        for m in plain:
            rep = plain_reports[m]
            baselines[m] = rep.micro_accuracy if rep.n_questions else None

    rows: list[tuple[int, str, float | None]] = []
    for d in dims:
        per_d: dict[str, float | None] = dict(baselines)
        if gfks:
            cfg = replace(config, subspace_dim=d)
            try:
                gfk_reports = evaluate(dataset, table, cfg, measures=gfks)
            except ValueError:
                gfk_reports = None
            for m in gfks:
                if gfk_reports is None:
                    per_d[m] = None
                else:
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
