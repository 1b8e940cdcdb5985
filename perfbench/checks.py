"""Output checks, run after the timed interval; their tally is the run's error rate.

Analogy workloads are checked two ways. Every measure's per-relation n,
accuracy and average rank must equal the values recorded in
``expected.json`` for the seed at the commit that defined the benchmark.
A seeded sample of questions is also re-ranked through the single-question
API (``cos_add_answer``, ``cos_mul_answer``, and ``gfk_answer`` on a kernel
from ``relation_subspaces`` + ``principal_angles`` + ``gfk``), and each rank
must equal the one an independent NumPy scorer gives from the formulas.

The corpus workload is checked against an independent pair count from token
arrays, for non-negative PPMI values, and for a bit-exact reload of the saved
embedding file.
"""

from __future__ import annotations

import json
import os

import numpy as np

from gfkanalogy import embeddings, evaluation, gfk, principal_angles
from gfkanalogy.grassmann import NULL_SPACE_NORM

SAMPLE_PER_RELATION = 2
EXPECTED_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "expected.json")


def report_values(reports) -> dict:
    """measure -> relation -> [n, accuracy, average rank] for one evaluate call."""
    return {
        m: {rel: [res.n_questions, res.accuracy, res.average_rank]
            for rel, res in rep.per_relation.items()}
        for m, rep in reports.items()
    }


def load_expected() -> dict:
    try:
        with open(EXPECTED_PATH, encoding="utf-8") as f:
            return json.load(f)
    except FileNotFoundError:
        return {}


def record_expected(workload: str, seed: int, values: dict) -> None:
    expected = load_expected()
    expected.setdefault(workload, {})[str(seed)] = values
    expected[workload] = dict(sorted(expected[workload].items(), key=lambda kv: int(kv[0])))
    with open(EXPECTED_PATH, "w", encoding="utf-8") as f:
        json.dump(expected, f, indent=1, sort_keys=True)
        f.write("\n")


def check_recorded(workload: str, seed: int, values: dict) -> list[tuple[str, bool]]:
    """One check per recorded (dim, measure, relation) cell; none for an unrecorded seed."""
    recorded = load_expected().get(workload, {}).get(str(seed))
    if recorded is None:
        return []
    checks = []

    def walk(path, want, got):
        if isinstance(want, dict):
            for key, sub in want.items():
                walk(path + [key], sub, got.get(key) if isinstance(got, dict) else None)
        else:
            checks.append(("recorded " + "/".join(path), got == want))

    walk([], recorded, values)
    return checks


def _oracle_rank(vectors, f, lam, ia, ib, ix, gold, mode, config) -> int:
    """Rank of the gold word from x^T G y / (|x|_G |y|_G) with G = f lam f^T.

    Plain cosine is the same formula with f = lam = I. Excluded inputs and
    ties follow the library's contract: a, b and x are dropped unless they
    are the gold word, and ties rank the lower vocabulary index first.
    """
    proj = vectors @ f
    weighted = proj @ lam
    norms = np.sqrt(np.maximum(np.einsum("ij,ij->i", weighted, proj), 0.0))
    null = norms < NULL_SPACE_NORM
    safe = np.where(null, 1.0, norms)

    def cosines(target):
        t = target @ f
        tn = np.sqrt(max(float(t @ lam @ t), 0.0))
        out = np.clip((weighted @ t) / (safe * tn), -1.0, 1.0)
        out[null] = -1.0
        return out

    if mode == "add":
        scores = cosines(vectors[ix] - vectors[ia] + vectors[ib])
    else:
        sb, sx, sa = (cosines(vectors[i]) for i in (ib, ix, ia))
        if config.shift_cosines:
            sb, sx, sa = (sb + 1) / 2, (sx + 1) / 2, (sa + 1) / 2
        with np.errstate(divide="ignore", invalid="ignore"):
            scores = sb * sx / (sa + config.epsilon)
        scores[np.isnan(scores)] = -np.inf
    allowed = np.ones(len(vectors), dtype=bool)
    allowed[[i for i in (ia, ib, ix) if i not in gold]] = False
    best = max(gold, key=lambda g: (scores[g], -g))
    s = scores[best]
    return 1 + int(np.count_nonzero(allowed & (scores > s))) + int(
        np.count_nonzero(allowed[:best] & (scores[:best] == s)))


def _api_rank(ranking, gold) -> int:
    hits = np.flatnonzero(np.isin(ranking.indices, gold))
    return int(hits[0]) + 1 if hits.size else 0


def check_sample(workload, seed: int, table, dataset, config) -> list[tuple[str, bool]]:
    """Re-rank a seeded sample through the single-question API against the NumPy oracle."""
    rng = np.random.default_rng([seed, 3])
    dims = list(workload.dims) or [config.subspace_dim]
    vectors = table.vectors
    eye = np.eye(table.dim)
    lower = table.lowercase_words()
    checks = []
    for relation, questions in dataset.relations.items():
        picks = rng.choice(len(questions), size=min(SAMPLE_PER_RELATION, len(questions)),
                           replace=False)
        for qi in sorted(picks.tolist()):
            q = questions[qi]
            d = int(rng.choice(dims))
            ia, ib, ix = (table.resolve(t) for t in (q.a, q.b, q.x))
            gold = np.flatnonzero(lower == q.y.lower()).tolist()
            kernel = None
            for m in config.measures():
                mode = "add" if m.endswith("ADD") else "mul"
                if m.startswith("GFK"):
                    if kernel is None:
                        ph, pt = evaluation.relation_subspaces(
                            questions, table, d, holdout=config.holdout, current=q,
                            center=config.center_subspaces)
                        kernel = gfk(principal_angles(ph, pt))
                    ranking = evaluation.gfk_answer(
                        q, table, kernel, mode=mode, epsilon=config.epsilon,
                        exclude_inputs=config.exclude_inputs, shift_cosines=config.shift_cosines)
                    f, lam = kernel.f, kernel.lam
                elif mode == "add":
                    ranking = evaluation.cos_add_answer(q, table, exclude_inputs=config.exclude_inputs)
                    f, lam = eye, eye
                else:
                    ranking = evaluation.cos_mul_answer(
                        q, table, epsilon=config.epsilon, exclude_inputs=config.exclude_inputs,
                        shift_cosines=config.shift_cosines)
                    f, lam = eye, eye
                want = _oracle_rank(vectors, f, lam, ia, ib, ix, gold, mode, config)
                checks.append((f"sample {relation} q{qi} d={d} {m}", _api_rank(ranking, gold) == want))
    return checks


def check_ppmi(docs, counts, ppmi_matrix, table, saved_path, workload) -> list[tuple[str, bool]]:
    """Pair total from token arrays, PPMI sign, output shape, and a bit-exact reload."""
    lengths = np.array([len(d) for d in docs])
    _, ids, freq = np.unique(np.concatenate([np.asarray(d) for d in docs]),
                             return_inverse=True, return_counts=True)
    kept = (freq >= workload.min_count)[ids]
    doc_of = np.repeat(np.arange(len(docs)), lengths)
    pairs = 0
    for k in range(1, workload.window + 1):
        pairs += 2 * int(np.count_nonzero(kept[:-k] & kept[k:] & (doc_of[:-k] == doc_of[k:])))
    reloaded = embeddings.load_text_embeddings(saved_path)
    return [
        ("ppmi pair total equals independent count", counts.total == pairs),
        ("ppmi count matrix sums to pair total", int(counts.counts.sum()) == counts.total),
        ("ppmi values are finite and >= 0",
         bool(np.all(np.isfinite(ppmi_matrix.data)) and np.all(ppmi_matrix.data >= 0))),
        ("ppmi embedding shape", table.vectors.shape == (len(counts.word_vocab), workload.embed_dim)),
        ("ppmi saved file reloads bit-exactly",
         reloaded.words == table.words and np.array_equal(reloaded.vectors, table.vectors)),
    ]
