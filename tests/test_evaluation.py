import csv
import io
import math
import tracemalloc
import warnings
import weakref
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gfkanalogy import evaluation, grassmann, scoring
from gfkanalogy.datasets import AnalogyQuestion, RelationDataset
from gfkanalogy.embeddings import EmbeddingTable
from gfkanalogy.evaluation import (
    GFK_MEASURES,
    HOLDOUTS,
    MEASURES,
    EvalConfig,
    EvalReport,
    RelationResult,
    cos_add_answer,
    cos_mul_answer,
    dimension_sweep,
    evaluate,
    gfk_answer,
    relation_subspaces,
    write_report_csv,
)
from gfkanalogy.grassmann import (
    NULL_SPACE_NORM,
    GfkKernel,
    Subspace,
    gfk,
    principal_angles,
    row_spectrum,
    subspace_from_rows,
)
from gfkanalogy.synth import SynthSpec, generate


# ---------------------------------------------------------------------------
# Independent exhaustive scorer: plain python loops, no shared code with the
# library's vectorized path.
# ---------------------------------------------------------------------------

def brute_cosine(u, v):
    dot = sum(a * b for a, b in zip(u, v))
    nu = math.sqrt(sum(a * a for a in u))
    nv = math.sqrt(sum(b * b for b in v))
    return dot / (nu * nv)


def brute_add_ranking(table, q, exclude_inputs=True):
    # the stored float32 values, read as Python floats: the arithmetic is float64
    vectors = table.vectors.tolist()
    target = [
        x - a + b
        for a, b, x in zip(*(vectors[table.index[w]] for w in (q.a, q.b, q.x)))
    ]
    scored = []
    for i, word in enumerate(table.words):
        if exclude_inputs and word in (q.a, q.b, q.x) and word != q.y:
            continue
        scored.append((-brute_cosine(vectors[i], target), i))
    scored.sort()
    return [i for _, i in scored], [-s for s, _ in scored]


def brute_mul_ranking(table, q, epsilon=0.001, shift=True, exclude_inputs=True):
    vectors = table.vectors.tolist()
    a, b, x = (vectors[table.index[w]] for w in (q.a, q.b, q.x))
    scored = []
    for i, word in enumerate(table.words):
        if exclude_inputs and word in (q.a, q.b, q.x) and word != q.y:
            continue
        db = brute_cosine(vectors[i], b)
        dx = brute_cosine(vectors[i], x)
        da = brute_cosine(vectors[i], a)
        if shift:
            db, dx, da = (db + 1) / 2, (dx + 1) / 2, (da + 1) / 2
        scored.append((-(db * dx / (da + epsilon)), i))
    scored.sort()
    return [i for _, i in scored], [-s for s, _ in scored]


def question(a, b, x, y, relation="r"):
    return AnalogyQuestion(a, b, x, y, relation)


def random_table(seed, n, dim):
    rng = np.random.default_rng(seed)
    return EmbeddingTable([f"w{i}" for i in range(n)], rng.standard_normal((n, dim)))


class TestCosAdd:
    def test_four_word_orthonormal_vocab_vs_brute_force(self):
        table = EmbeddingTable(list("abcd"), np.eye(4))
        q = question("a", "b", "c", "d")
        ranking = cos_add_answer(q, table)
        idx, scores = brute_add_ranking(table, q)
        np.testing.assert_array_equal(ranking.indices, idx)
        np.testing.assert_allclose(ranking.scores, scores, atol=1e-12)

    def test_random_vocab_vs_brute_force(self):
        table = random_table(0, 10, 5)
        q = question("w0", "w3", "w7", "w9")
        ranking = cos_add_answer(q, table)
        idx, scores = brute_add_ranking(table, q)
        np.testing.assert_array_equal(ranking.indices, idx)
        np.testing.assert_allclose(ranking.scores, scores, atol=1e-12)

    def test_a_equals_b_cancellation(self):
        rng = np.random.default_rng(1)
        vecs = rng.standard_normal((6, 4))
        table = EmbeddingTable([f"w{i}" for i in range(6)], vecs)
        q = question("w0", "w0", "w2", "w5")
        kept = cos_add_answer(q, table, exclude_inputs=False)
        assert kept.indices[0] == 2  # target is exactly w2
        assert kept.scores[0] == pytest.approx(1.0, abs=1e-12)
        dropped = cos_add_answer(q, table, exclude_inputs=True)
        assert 2 not in dropped.indices
        # nearest neighbor of w2 among the rest
        sims = [brute_cosine(vecs[i], vecs[2]) for i in (1, 3, 4, 5)]
        assert dropped.indices[0] == (1, 3, 4, 5)[int(np.argmax(sims))]

    def test_cosine_basics(self):
        table = EmbeddingTable(["e1", "e2"], np.eye(2))
        q = question("e1", "e1", "e1", "e2")
        r = cos_add_answer(q, table, exclude_inputs=False)
        # target = e1: cos(e1)=1, cos(e2)=0
        assert r.scores[0] == 1.0 and r.indices[0] == 0
        assert r.scores[1] == 0.0

    def test_zero_target_gives_empty_ranking(self):
        table = EmbeddingTable(
            ["a", "b", "x", "y"],
            np.array([[1.0, 0], [1.0, -1.0], [0, 1.0], [0.5, 0.5]]),
        )
        r = cos_add_answer(question("a", "b", "x", "y"), table)
        assert len(r.indices) == 0
        assert r.diagnostics.get("empty_ranking") == 1

    def test_missing_word_raises(self):
        table = random_table(2, 4, 3)
        with pytest.raises(ValueError, match="zzz"):
            cos_add_answer(question("w0", "zzz", "w1", "w2"), table)


class TestCosMul:
    def test_five_word_vocab_vs_brute_force(self):
        rng = np.random.default_rng(3)
        basis = np.eye(5)[:4]
        combo = (basis[0] + basis[1]) / np.sqrt(2)
        table = EmbeddingTable(list("abcde"), np.vstack([basis, combo]))
        q = question("a", "b", "c", "d")
        for shift in (True, False):
            ranking = cos_mul_answer(q, table, shift_cosines=shift)
            idx, scores = brute_mul_ranking(table, q, shift=shift)
            np.testing.assert_array_equal(ranking.indices, idx)
            np.testing.assert_allclose(ranking.scores, scores, atol=1e-12)

    def test_random_vocab_vs_brute_force(self):
        table = random_table(4, 9, 6)
        q = question("w1", "w4", "w6", "w8")
        ranking = cos_mul_answer(q, table)
        idx, scores = brute_mul_ranking(table, q)
        np.testing.assert_array_equal(ranking.indices, idx)
        np.testing.assert_allclose(ranking.scores, scores, atol=1e-12)

    def test_perfect_candidate_scores_one_over_epsilon(self):
        # candidate parallel to b and x, orthogonal to a; raw-cosine rule
        table = EmbeddingTable(
            ["wa", "wb", "wx", "wc"],
            np.array([[1.0, 0], [0, 1.0], [0, 1.0], [0, 1.0]]),
        )
        q = question("wa", "wb", "wx", "wc")
        r = cos_mul_answer(q, table, epsilon=0.001, shift_cosines=False)
        assert r.indices[0] == 3
        assert r.scores[0] == pytest.approx(1000.0, rel=1e-12)

    def test_large_epsilon_limit_orders_by_product(self):
        table = random_table(5, 12, 4)
        q = question("w0", "w2", "w5", "w11")
        big = cos_mul_answer(q, table, epsilon=1e9, shift_cosines=False)
        b, x = table.lookup(q.b), table.lookup(q.x)
        prods = {
            i: brute_cosine(table.vectors[i], b) * brute_cosine(table.vectors[i], x)
            for i in big.indices
        }
        expected = sorted(prods, key=lambda i: (-prods[i], i))
        np.testing.assert_array_equal(big.indices, expected)

    @pytest.mark.parametrize("epsilon,shift,vectors", [
        # raw cosines: cos(v, a) = -1/2 cancels epsilon, cos(v, b) = 0
        (0.5, False, [[1, 0, 0, 0, 0], [0, 1, 0, 0, 0], [0, 0, 1, 0, 0],
                      [0, 0, 0, 1, 0], [-1, 0, 1, 1, 1]]),
        # shifted cosines, no epsilon: v opposes a and x, which share a direction
        (0.0, True, [[1, 0, 0, 0], [0, 1, 0, 0], [2, 0, 0, 0],
                     [0, 0, 1, 0], [-1, 0, 0, 0]]),
    ])
    def test_zero_over_zero_scores_minus_inf_and_ranks_last(self, epsilon, shift, vectors):
        table = EmbeddingTable(["a", "b", "x", "y", "v"], np.array(vectors, dtype=float))
        r = cos_mul_answer(question("a", "b", "x", "y"), table, epsilon=epsilon,
                           shift_cosines=shift)
        assert r.words(table)[-1] == "v"
        assert r.scores[-1] == -np.inf
        assert not np.isnan(r.scores).any()

    def test_rankings_own_their_arrays(self):
        table = random_table(6, 30, 6)
        first = cos_mul_answer(question("w0", "w1", "w2", "w3"), table)
        indices, scores = first.indices.copy(), first.scores.copy()
        cos_mul_answer(question("w4", "w5", "w6", "w7"), table)
        gfk_answer(question("w8", "w9", "w10", "w11"), table, GfkKernel.identity(6), mode="mul")
        np.testing.assert_array_equal(first.indices, indices)
        np.testing.assert_array_equal(first.scores, scores)


class TestGfkAnswer:
    def test_identity_kernel_reduces_to_cos_add_exactly(self):
        table = random_table(6, 50, 8)
        kernel = GfkKernel.identity(8)
        for seed in range(5):
            rng = np.random.default_rng(seed)
            ia, ib, ix, iy = rng.choice(50, size=4, replace=False)
            q = question(f"w{ia}", f"w{ib}", f"w{ix}", f"w{iy}")
            plain = cos_add_answer(q, table)
            kerneled = gfk_answer(q, table, kernel, mode="add")
            np.testing.assert_array_equal(plain.indices, kerneled.indices)
            np.testing.assert_array_equal(plain.scores, kerneled.scores)

    def test_identity_kernel_reduces_to_cos_mul_exactly(self):
        table = random_table(7, 50, 8)
        kernel = GfkKernel.identity(8)
        q = question("w0", "w10", "w20", "w30")
        plain = cos_mul_answer(q, table)
        kerneled = gfk_answer(q, table, kernel, mode="mul")
        np.testing.assert_array_equal(plain.indices, kerneled.indices)
        np.testing.assert_array_equal(plain.scores, kerneled.scores)

    def test_projector_kernel_matches_plain_ranking_for_in_span_vocab(self):
        # identical head/tail subspaces spanning the full plane of the data:
        # G = 2 P P^T acts as a scalar on in-span vectors
        rng = np.random.default_rng(8)
        coeffs = rng.standard_normal((12, 2))
        basis = np.array([[1.0, 0, 0, 0], [0, 1.0, 0, 0]])
        table = EmbeddingTable([f"w{i}" for i in range(12)], coeffs @ basis)
        sub = subspace_from_rows(coeffs @ basis, 2)
        kernel = gfk(principal_angles(sub, sub))
        q = question("w0", "w3", "w6", "w9")
        plain = cos_add_answer(q, table)
        kerneled = gfk_answer(q, table, kernel, mode="add")
        np.testing.assert_array_equal(plain.indices, kerneled.indices)
        np.testing.assert_allclose(plain.scores, kerneled.scores, atol=1e-10)

    def test_bad_mode_rejected(self):
        table = random_table(9, 6, 4)
        with pytest.raises(ValueError, match="mode"):
            gfk_answer(question("w0", "w1", "w2", "w3"), table, GfkKernel.identity(4), mode="x")

    def test_kernel_of_another_dimension_rejected(self):
        table = random_table(9, 6, 4)
        with pytest.raises(ValueError, match="kernel ambient dimension 6 does not match the table's dimension 4"):
            gfk_answer(question("w0", "w1", "w2", "w3"), table, GfkKernel.identity(6))

    def test_words_off_the_kernel_span_are_counted_as_null_candidates(self):
        # the kernel acts in the plane of the first two axes; w9 lies off it
        rng = np.random.default_rng(12)
        rows = np.zeros((10, 4))
        rows[:9, :2] = rng.standard_normal((9, 2))
        rows[9, 2:] = 1.0
        table = EmbeddingTable([f"w{i}" for i in range(10)], rows)
        kernel = gfk(principal_angles(subspace_from_rows(rows[:4], 1), subspace_from_rows(rows[4:8], 1)))
        for mode in ("add", "mul"):
            ranking = gfk_answer(question("w0", "w1", "w2", "w3"), table, kernel, mode=mode)
            assert ranking.diagnostics == {"null_candidates": 1}
        assert ranking.scores[list(ranking.indices).index(9)] == 0.0  # shifted cosines of -1


class TestRelationSubspaces:
    def test_head_is_top_right_singular_vectors(self):
        rng = np.random.default_rng(10)
        vecs = rng.standard_normal((6, 5))
        table = EmbeddingTable(["man", "woman", "king", "queen", "boy", "girl"], vecs)
        questions = [
            question("man", "woman", "king", "queen"),
            question("king", "queen", "boy", "girl"),
        ]
        head, tail = relation_subspaces(questions, table, d=2)
        # head pool: man, king, boy (dedup, order of first occurrence)
        stacked = table.stack_rows(["man", "king", "boy"])
        _, _, vt = np.linalg.svd(stacked, full_matrices=False)
        np.testing.assert_allclose(
            head.projector(), vt[:2].T @ vt[:2], atol=1e-10
        )
        stacked_tail = table.stack_rows(["woman", "queen", "girl"])
        _, _, vt_t = np.linalg.svd(stacked_tail, full_matrices=False)
        np.testing.assert_allclose(tail.projector(), vt_t[:2].T @ vt_t[:2], atol=1e-10)

    def test_holdout_answer_excludes_gold_from_tail(self):
        table = EmbeddingTable(
            ["man", "woman", "king", "queen"],
            np.array([[1.0, 0, 0], [0, 1.0, 0], [0.5, 0, 1.0], [0, 2.0, 1.0]]),
        )
        q = question("man", "woman", "king", "queen")
        _, tail = relation_subspaces([q], table, d=1, holdout="answer", current=q)
        # tail material reduces to {woman}
        np.testing.assert_allclose(np.abs(tail.basis.ravel()), [0, 1, 0], atol=1e-12)

    def test_holdout_question_excludes_all_four(self):
        rng = np.random.default_rng(11)
        table = EmbeddingTable([f"w{i}" for i in range(8)], rng.standard_normal((8, 6)))
        questions = [
            question("w0", "w1", "w2", "w3"),
            question("w4", "w5", "w6", "w7"),
        ]
        cur = questions[0]
        head, tail = relation_subspaces(questions, table, d=2, holdout="question", current=cur)
        expected_head = subspace_from_rows(table.stack_rows(["w4", "w6"]), 2)
        np.testing.assert_allclose(head.projector(), expected_head.projector(), atol=1e-10)

    def test_too_few_words_names_limit(self):
        table = EmbeddingTable(["a", "b", "x", "y"], np.eye(4))
        with pytest.raises(ValueError, match="subspace dimension <= 2"):
            relation_subspaces([question("a", "b", "x", "y")], table, d=3)

    def test_rotated_relation_angles_match_direct_oracle(self):
        import scipy.linalg

        rng = np.random.default_rng(12)
        heads = rng.standard_normal((10, 8))
        rot = np.linalg.qr(rng.standard_normal((8, 8)))[0]
        tails = heads @ rot.T
        words = [f"h{i}" for i in range(10)] + [f"t{i}" for i in range(10)]
        table = EmbeddingTable(words, np.vstack([heads, tails]))
        questions = [
            question(f"h{i}", f"t{i}", f"h{(i + 1) % 10}", f"t{(i + 1) % 10}")
            for i in range(10)
        ]
        head, tail = relation_subspaces(questions, table, d=2)
        pa = principal_angles(head, tail)
        # independent oracle on the stacked matrices
        oracle = scipy.linalg.subspace_angles(head.basis, tail.basis)
        np.testing.assert_allclose(np.sort(pa.theta), np.sort(oracle), atol=1e-10)

    def test_holdout_requires_current(self):
        table = EmbeddingTable(["a", "b", "x", "y"], np.eye(4))
        with pytest.raises(ValueError, match="current"):
            relation_subspaces([question("a", "b", "x", "y")], table, d=1, holdout="answer")


def build_rank_fixture():
    """Three questions with hand-computable CosADD rankings.

    Vectors live in R^4. For each question the target is x - a + b = e4
    direction; candidate scores against e4 are controlled by angle.
    """
    # shared inputs: a = e1, b = e1 + e4 (target contribution), x = e2
    # target = x - a + b = e2 - e1 + e1 + e4 = e2 + e4 ... keep it simpler:
    # choose a = e1, b = e1, x = e2 -> target = e2 exactly.
    def unit(*v):
        v = np.asarray(v, dtype=float)
        return v / np.linalg.norm(v)

    vecs = {
        "a": [1, 0, 0, 0],
        "b": [1, 0, 0, 0],
        "x": [0, 1, 0, 0],
        "gold": unit(0, 1, 0.4, 0),          # cos vs e2 ~ 0.928
        "near1": unit(0, 1, 0.1, 0),         # ~ 0.995
        "near2": unit(0, 1, 0.2, 0),         # ~ 0.981
        "far": [0, 0, 0, 1],                 # 0
    }
    table = EmbeddingTable(list(vecs), np.array(list(vecs.values()), dtype=float))
    return table


def _low_rank_relation():
    """Eight pairs whose head and tail words share one 4-dim span of R^40.

    The pool's rank 4 is below 2d, so most of the pool basis lies outside the
    pool's numerical span. The span is that of 4 coordinates, so the rows
    keep rank 4 exactly through their float32 rounding and normalization.
    """
    rng = np.random.default_rng(21)
    pairs = np.zeros((16, 40))
    pairs[:, rng.choice(40, 4, replace=False)] = rng.standard_normal((16, 4))
    vecs = np.vstack([pairs, rng.standard_normal((12, 40))])
    words = [f"h{i}" for i in range(8)] + [f"t{i}" for i in range(8)] + [f"z{i}" for i in range(12)]
    ds = RelationDataset()
    for i in range(8):
        for j in (i + 1, i + 3):
            ds.add(question(f"h{i}", f"t{i}", f"h{j % 8}", f"t{j % 8}"))
    return EmbeddingTable(words, vecs).normalized(), ds


def _same_pools_relation():
    """Five words chained as w_i : w_i+1, so head and tail pools coincide (theta = 0).

    The pool has fewer than 2d words, so zero rows complete its basis.
    """
    rng = np.random.default_rng(22)
    words = [f"w{i}" for i in range(5)] + [f"z{i}" for i in range(12)]
    ds = RelationDataset()
    for i in range(5):
        for j in range(5):
            if j != i:
                ds.add(question(f"w{i}", f"w{(i + 1) % 5}", f"w{j}", f"w{(j + 1) % 5}"))
    return EmbeddingTable(words, rng.standard_normal((17, 10))).normalized(), ds


def _synth_relation():
    """16 pool words in R^10: no basis narrower than the embedding, D-wide kernels."""
    table, ds = generate(SynthSpec(n_relations=1, pairs_per_relation=8, dim=10, seed=5))
    return table.normalized(), ds


def _wide_synth_relation():
    """16 pool words in R^40: kernels are built in pool coordinates except under 'none'."""
    table, ds = generate(SynthSpec(n_relations=1, pairs_per_relation=8, dim=40, seed=6))
    return table.normalized(), ds


def _stacking_fixture():
    """Two relations whose holdout groups differ in size, with degenerate words.

    Relation "r" pairs h_i : t_i in R^12 over ordered pairs at offsets 1, 3
    and 5 (offsets 3 and 5 are each other's reverse), plus h0 : t0 :: h0 : t0,
    so holdout groups hold 1 to 4 questions over 2 to 4 distinct input words.
    Two questions' x is "zero", a zero row: a null query in every row set,
    and a null candidate everywhere; one of them has a = b, so its additive
    target is zero and it has no ranking. Relation "axes" is built from unit axes,
    where a : b :: x : y scores the candidate v as 0 / 0 under raw cosines
    and epsilon 0.5: cos(v, a) = -1/2, cos(v, b) = 0.
    """
    rng = np.random.default_rng(29)
    words = [f"h{i}" for i in range(8)] + [f"t{i}" for i in range(8)] + [f"z{i}" for i in range(10)]
    vecs = [rng.standard_normal((len(words), 12)), np.zeros((1, 12)), np.eye(12)[:8],
            [[-1.0, 0, 1.0, 1.0, 1.0] + [0.0] * 7]]
    words += ["zero"] + [f"e{i}" for i in range(8)] + ["v"]
    ds = RelationDataset()
    ds.add(question("h0", "t0", "h0", "t0"))
    for i in range(8):
        for j in (i + 1, i + 3, i + 5):
            ds.add(question(f"h{i}", f"t{i}", f"h{j % 8}", f"t{j % 8}"))
    ds.add(question("h2", "t2", "zero", "t6"))
    ds.add(question("h3", "h3", "zero", "t5"))
    for i in range(0, 8, 2):
        for j in range(0, 8, 2):
            if j != i:
                ds.add(question(f"e{i}", f"e{i + 1}", f"e{j}", f"e{j + 1}", "axes"))
    return EmbeddingTable(words, np.vstack(vecs)), ds


# (holdout, measure, center, input): the plain synthetic GFKCosADD cases keep
# the bare holdout as their id.
_API_CASES = [
    pytest.param(
        holdout, measure, center, make,
        id=holdout if (make, measure, center) == (_synth_relation, "GFKCosADD", False)
        else f"{holdout}-{measure}-{make.__name__.strip('_')}{'-centered' if center else ''}",
    )
    for make in (_synth_relation, _wide_synth_relation, _low_rank_relation, _same_pools_relation)
    for measure in GFK_MEASURES
    for center in (False, True)
    for holdout in HOLDOUTS
]


class TestEvaluate:
    def test_perfect_relation(self):
        # y = x - a + b exactly for both questions; distractor orthogonal
        vecs = np.array(
            [
                [1.0, 0, 0, 0],   # a1
                [0, 1.0, 0, 0],   # b1
                [0, 0, 1.0, 0],   # x1
                [-1.0, 1.0, 1.0, 0],  # y1 = x1 - a1 + b1
                [0, 0, 0, 1.0],   # distractor
                [2.0, 1.0, 0, 0],  # a2
                [0, 1.0, 0, 2.0],  # b2
                [1.0, 0, 1.0, 0],  # x2
                [-1.0, 0, 1.0, 2.0],  # y2
            ]
        )
        words = ["a1", "b1", "x1", "y1", "z", "a2", "b2", "x2", "y2"]
        table = EmbeddingTable(words, vecs)
        ds = RelationDataset()
        ds.add(question("a1", "b1", "x1", "y1"))
        ds.add(question("a2", "b2", "x2", "y2"))
        cfg = EvalConfig(measure="CosADD")
        report = evaluate(ds, table, cfg)["CosADD"]
        res = report.per_relation["r"]
        assert res.n_questions == 2
        assert res.accuracy == 1.0
        assert res.average_rank == 1.0
        assert report.micro_accuracy == 1.0
        assert report.micro_average_rank == 1.0

    def test_zero_target_null_flag_in_report(self):
        table = EmbeddingTable(
            ["a", "b", "x", "y"],
            np.array([[1.0, 0], [1.0, -1.0], [0, 1.0], [0.5, 0.5]]),
        )
        ds = RelationDataset()
        ds.add(question("a", "b", "x", "y"))
        cfg = EvalConfig(measure="CosADD,CosMUL")
        reports = evaluate(ds, table, cfg)
        assert reports["CosADD"].per_relation["r"].n_null_flags == 1
        assert reports["CosMUL"].per_relation["r"].n_null_flags == 0
        out = io.StringIO()
        write_report_csv(reports, cfg, out)
        comments = [l for l in out.getvalue().splitlines() if l.startswith("# null flags")]
        assert comments == ["# null flags (CosADD): 1"]

    def test_report_csv_round_trips_relation_names(self):
        names = ["capital-common", "capital, common", 'say "hi"']
        report = EvalReport(measure="CosADD", per_relation={
            name: RelationResult(n_questions=4, n_correct=1, rank_sum=10.0) for name in names
        })
        out = io.StringIO()
        write_report_csv({"CosADD": report}, EvalConfig(measure="CosADD"), out)
        lines = out.getvalue().splitlines()
        # a name that needs no quoting keeps the plain comma-joined bytes
        assert "capital-common,4,CosADD,0.250000,2.5000" in lines
        rows = [r for r in csv.reader(lines) if not r[0].startswith("#")]
        assert rows[0] == ["relation", "n", "measure", "accuracy", "avg_rank"]
        assert rows[1:] == [[name, "4", "CosADD", "0.250000", "2.5000"] for name in names] + [
            ["micro", "12", "CosADD", "0.250000", "2.5000"]]

    def test_rank_three_bookkeeping(self):
        table = build_rank_fixture()
        ds = RelationDataset()
        ds.add(question("a", "b", "x", "gold"))
        cfg = EvalConfig(measure="CosADD")
        report = evaluate(ds, table, cfg)["CosADD"]
        res = report.per_relation["r"]
        # near1 (rank 1), near2 (rank 2), gold (rank 3)
        assert res.n_questions == 1
        assert res.accuracy == 0.0
        assert res.average_rank == 3.0
        ranking = cos_add_answer(question("a", "b", "x", "gold"), table)
        assert ranking.words(table)[:3] == ["near1", "near2", "gold"]

    def test_rank_consistency_top1_iff_rank1(self):
        table = random_table(13, 20, 6)
        ds = RelationDataset()
        rng = np.random.default_rng(14)
        for k in range(12):
            ia, ib, ix, iy = rng.choice(20, 4, replace=False)
            ds.add(question(f"w{ia}", f"w{ib}", f"w{ix}", f"w{iy}"))
        cfg = EvalConfig(measure="CosADD,CosMUL")
        reports = evaluate(ds, table, cfg)
        for q in ds.relations["r"]:
            for measure, answer in (
                ("CosADD", cos_add_answer(q, table)),
                ("CosMUL", cos_mul_answer(q, table)),
            ):
                top1 = answer.words(table)[0].lower() == q.y.lower()
                # recompute rank from the ranking
                golds = [i for i, w in enumerate(answer.words(table)) if w.lower() == q.y.lower()]
                assert (min(golds) == 0) == top1

    def test_micro_weighting(self):
        # relation sizes 10 and 30 with accuracies 1.0 and 0.5 -> micro = 25/40
        rep = EvalReport(measure="CosADD")
        rep.per_relation["small"] = RelationResult(10, 10, 10.0, 0)
        rep.per_relation["large"] = RelationResult(30, 15, 60.0, 0)
        assert rep.per_relation["small"].accuracy == 1.0
        assert rep.per_relation["large"].accuracy == 0.5
        assert rep.micro_accuracy == pytest.approx(0.625, abs=1e-15)
        assert rep.micro_average_rank == pytest.approx(70.0 / 40, abs=1e-15)

    def test_micro_equals_weighted_mean_property(self):
        table = random_table(15, 30, 8)
        ds = RelationDataset()
        rng = np.random.default_rng(16)
        for rel, n in (("r1", 5), ("r2", 9)):
            for _ in range(n):
                ia, ib, ix, iy = rng.choice(30, 4, replace=False)
                ds.add(question(f"w{ia}", f"w{ib}", f"w{ix}", f"w{iy}", rel))
        reports = evaluate(ds, table, EvalConfig(measure="all", subspace_dim=3))
        for rep in reports.values():
            if not rep.per_relation:
                continue
            total = sum(r.n_questions for r in rep.per_relation.values())
            weighted = sum(r.accuracy * r.n_questions for r in rep.per_relation.values())
            assert rep.micro_accuracy == pytest.approx(weighted / total, abs=1e-12)
            weighted_rank = sum(
                r.average_rank * r.n_questions for r in rep.per_relation.values()
            )
            assert rep.micro_average_rank == pytest.approx(weighted_rank / total, abs=1e-12)

    def test_oov_questions_dropped_and_counted(self):
        table = random_table(17, 8, 4)
        ds = RelationDataset()
        ds.add(question("w0", "w1", "w2", "w3"))
        ds.add(question("w0", "w1", "w2", "zzz"))
        report = evaluate(ds, table, EvalConfig(measure="CosADD"))["CosADD"]
        assert report.per_relation["r"].n_questions == 1
        assert report.oov_counts["r"] == 1
        assert report.n_oov == 1

    def test_relation_with_no_in_vocabulary_question_skipped_for_every_measure(self):
        table, ds = generate(SynthSpec(n_relations=1, pairs_per_relation=6, dim=12, seed=3))
        [relation] = ds.relations
        q = ds.relations[relation][0]
        ds.add(question(q.a, q.b, q.x, "zzz", relation))  # one OOV question among in-vocabulary ones
        ds.add(question("zzz", q.b, q.x, q.y, "lost"))  # a relation of OOV questions only
        ds.add(question(q.a, q.b, "yyy", "zzz", "lost"))
        cfg = EvalConfig(measure="all", subspace_dim=2)
        reports = evaluate(ds, table, cfg)
        assert tuple(reports) == MEASURES
        for rep in reports.values():
            assert rep.skipped == {"lost": "no in-vocabulary questions"}
            assert rep.oov_counts == {relation: 1, "lost": 2} and rep.n_oov == 3
            assert list(rep.per_relation) == [relation]
            assert rep.per_relation[relation].n_questions == len(ds.relations[relation]) - 1
        out = io.StringIO()
        write_report_csv(reports, cfg, out)
        comments = [l for l in out.getvalue().splitlines() if l.startswith(("# skipped", "# oov"))]
        assert comments == [line for m in MEASURES for line in (
            f"# skipped lost ({m}): no in-vocabulary questions", f"# oov questions dropped ({m}): 3")]

    def test_exclude_inputs_never_drops_gold_even_when_equal_to_b(self):
        rng = np.random.default_rng(18)
        table = EmbeddingTable(
            ["algeria", "dinar", "iraq", "w"], rng.standard_normal((4, 4))
        )
        q = question("algeria", "dinar", "iraq", "dinar")  # y == b
        r = cos_add_answer(q, table, exclude_inputs=True)
        assert table.index["dinar"] in r.indices
        assert table.index["algeria"] not in r.indices
        assert table.index["iraq"] not in r.indices

    @pytest.mark.parametrize("words, rank_with_inputs", [
        (["a", "x", "z", "y"], 3.0),  # the tied input comes before the gold word
        (["y", "x", "z", "a"], 2.0),  # ... and after it
    ])
    def test_excluded_input_tied_with_gold(self, words, rank_with_inputs):
        # a == b, so the additive target is x; a has the same vector as the gold
        # word y, so the two tie, and x itself scores highest
        rows = {"a": [1.0, 0], "x": [0.8, 0.6], "z": [0, 1.0], "y": [1.0, 0]}
        table = EmbeddingTable(words, np.array([rows[w] for w in words]))
        ds = RelationDataset()
        ds.add(question("a", "a", "x", "y"))
        for exclude, rank in ((True, 1.0), (False, rank_with_inputs)):
            cfg = EvalConfig(measure="CosADD,CosMUL", exclude_inputs=exclude)
            for report in evaluate(ds, table, cfg).values():
                assert report.per_relation["r"].rank_sum == rank
        for ranking in (cos_add_answer(ds.relations["r"][0], table),
                        cos_mul_answer(ds.relations["r"][0], table)):
            assert ranking.words(table) == ["y", "z"]

    def test_case_insensitive_gold_matching(self):
        vecs = np.array([[1.0, 0], [0, 1.0], [1.0, 1.0], [-1.0, 1.0]])
        table = EmbeddingTable(["A", "b", "x", "Y"], vecs)
        ds = RelationDataset()
        ds.add(question("a", "b", "x", "y"))  # lowercase tokens, mixed-case vocab
        report = evaluate(ds, table, EvalConfig(measure="CosADD"))["CosADD"]
        assert report.per_relation["r"].n_questions == 1

    def test_later_case_variant_of_gold_counts(self):
        # y resolves exactly to "queen", but its later variant "Queen" is the
        # target itself; a rule matching only "queen" would give rank 3
        vecs = np.array([[1.0, 0, 0], [0, 1.0, 0], [0, 0, 1.0],
                         [0, 0, -1.0], [-1.0, 1.0, 0], [-1.0, 1.0, 1.0]])
        table = EmbeddingTable(["a", "b", "x", "queen", "z", "Queen"], vecs)
        ds = RelationDataset()
        ds.add(question("a", "b", "x", "queen"))
        res = evaluate(ds, table, EvalConfig(measure="CosADD"))["CosADD"].per_relation["r"]
        assert (res.n_correct, res.rank_sum) == (1, 1.0)
        assert cos_add_answer(ds.relations["r"][0], table).words(table)[:3] == ["Queen", "z", "queen"]

    def test_case_variants_of_input_words_are_excluded(self):
        # "B" is an exact copy of b, so against x - a + b it scores above the
        # gold word y under both rules unless every case variant of a, b and x
        # is left out of the candidates
        e = np.eye(4)
        vecs = np.array([e[0], e[1], e[0] + 1e-3 * e[2], e[1] + 0.3 * e[3], e[1]])
        table = EmbeddingTable(["a", "b", "x", "y", "B"], vecs)
        ds = RelationDataset()
        ds.add(question("a", "b", "x", "y"))
        for report in evaluate(ds, table, EvalConfig(measure="CosADD,CosMUL")).values():
            res = report.per_relation["r"]
            assert (res.n_correct, res.rank_sum) == (1, 1.0)
        q = ds.relations["r"][0]
        for ranking in (cos_add_answer(q, table), cos_mul_answer(q, table)):
            assert ranking.words(table) == ["y"]

    @pytest.mark.parametrize("holdout", HOLDOUTS)
    def test_each_kernel_projects_the_vocabulary_once(self, monkeypatch, holdout):
        table, ds = generate(SynthSpec(n_relations=2, pairs_per_relation=8, dim=12, seed=3))
        table = table.normalized()
        project = GfkKernel.project
        calls = {"kernels": 0, "project": 0}

        def built(pa):
            calls["kernels"] += len(pa.theta)  # one gfk call per batch of kernels
            return gfk(pa)

        def projected(kernel, *args, **kwargs):
            calls["project"] += 1
            return project(kernel, *args, **kwargs)

        monkeypatch.setattr(evaluation, "gfk", built)
        monkeypatch.setattr(GfkKernel, "project", projected)
        # the default budgets, then one question per chunk and one kernel per batch
        for budget in (None, 1):
            if budget is not None:
                monkeypatch.setattr(scoring, "_CHUNK_ELEMS", budget)
                monkeypatch.setattr(evaluation, "_KERNEL_BATCH_ELEMS", budget)
            calls.update(kernels=0, project=0)
            reports = evaluate(ds, table, EvalConfig(measure="all", subspace_dim=4, holdout=holdout))
            assert not any(rep.skipped for rep in reports.values())
            assert calls["kernels"] >= 2 and calls["project"] == calls["kernels"]

    def test_kernel_sub_batches_leave_tallies_unchanged(self, monkeypatch):
        table, ds = generate(SynthSpec(n_relations=2, pairs_per_relation=8, dim=12, seed=3))
        table = table.normalized()
        batches = []

        def built(pa):
            batches.append(len(pa.theta))
            return gfk(pa)

        monkeypatch.setattr(evaluation, "gfk", built)
        runs = []
        # the default budget builds a relation's kernels in one batch; 1,200
        # elements hold two kernels of 12 x 4 bases; 1 holds one
        for batch_elems in (evaluation._KERNEL_BATCH_ELEMS, 1200, 1):
            monkeypatch.setattr(evaluation, "_KERNEL_BATCH_ELEMS", batch_elems)
            batches.clear()
            run = {}
            for holdout in ("answer", "question"):
                cfg = EvalConfig(measure="all", subspace_dim=4, holdout=holdout)
                for m, rep in evaluate(ds, table, cfg).items():
                    assert not rep.skipped
                    run[holdout, m] = {
                        rel: (r.n_questions, r.n_correct, r.rank_sum, r.n_null_flags)
                        for rel, r in rep.per_relation.items()
                    }
            runs.append((run, list(batches)))
        (whole, whole_sizes), (pairs, pair_sizes), (ones, one_sizes) = runs
        assert whole == pairs == ones
        assert sum(whole_sizes) == sum(pair_sizes) == sum(one_sizes)
        assert len(whole_sizes) == 4  # one batch per relation and holdout
        assert set(pair_sizes) == {2} and set(one_sizes) == {1}

    def test_kernel_stacks_follow_the_scoring_budget(self, monkeypatch):
        table, ds = generate(SynthSpec(n_relations=2, pairs_per_relation=8, dim=12, seed=3))
        # 1,000 more words: a vocabulary on which 28 kernels' rows take more than 1 MB
        pad = np.random.default_rng(59).standard_normal((1000, 12))
        table = EmbeddingTable(table.words + [f"pad{i}" for i in range(1000)], np.vstack([table.vectors, pad]))
        table = table.normalized()
        n, d = len(table), 4
        cfg = EvalConfig(measure="GFKCosADD,GFKCosMUL", subspace_dim=d, holdout="question")
        batches, stacks = [], []  # kernels per gfk call; (G, |V|-wide rows per row set) per stack
        of_kernels, ranked = scoring._Scorer.of_kernels, evaluation._ranked

        def built(pa):
            batches.append(len(pa.theta))
            return gfk(pa)

        def scorer(cls, kernels, *args):
            stacks.append([len(kernels), None])
            return of_kernels(kernels, *args)

        def scored(scorer, block, measures, config):
            # each kernel's rows, a cosine row per distinct word, a score row and a denominator per slot
            stacks[-1][1] = scorer.rows.shape[2] + block.words.shape[1] + 2 * block.pos.shape[1]
            return ranked(scorer, block, measures, config)

        monkeypatch.setattr(evaluation, "gfk", built)
        monkeypatch.setattr(scoring._Scorer, "of_kernels", classmethod(scorer))
        monkeypatch.setattr(evaluation, "_ranked", scored)
        # the default budget: each batch of 28 small kernels is scored as one stack
        evaluate(ds, table, cfg)
        assert batches == [28, 28] and [g for g, _ in stacks] == batches
        # a budget of three kernels' rows: stacks of at most three, each within it
        widest = max(rows for _, rows in stacks)
        monkeypatch.setattr(scoring, "_CHUNK_ELEMS", 3 * n * widest)
        batches.clear(), stacks.clear()
        evaluate(ds, table, cfg)
        assert sum(g for g, _ in stacks) == sum(batches) and max(g for g, _ in stacks) == 3
        for g, rows in stacks:
            if g > 1:
                assert g * n * rows <= scoring._CHUNK_ELEMS

    @pytest.mark.parametrize("holdout", ["answer", "question"])
    def test_two_subspaces_per_kernel_batch(self, monkeypatch, holdout):
        table, ds = generate(SynthSpec(n_relations=2, pairs_per_relation=8, dim=12, seed=3))
        table = table.normalized()
        post_init = Subspace.__post_init__
        calls = {"subspaces": 0, "gfk": 0}

        def checked(sub):
            calls["subspaces"] += 1
            post_init(sub)

        def built(pa):
            calls["gfk"] += 1
            return gfk(pa)

        monkeypatch.setattr(Subspace, "__post_init__", checked)
        monkeypatch.setattr(evaluation, "gfk", built)
        # the default budget (one batch per relation), then one kernel per batch
        for batch_elems in (evaluation._KERNEL_BATCH_ELEMS, 1):
            monkeypatch.setattr(evaluation, "_KERNEL_BATCH_ELEMS", batch_elems)
            calls.update(subspaces=0, gfk=0)
            cfg = EvalConfig(measure="GFKCosADD,GFKCosMUL", subspace_dim=4, holdout=holdout)
            assert not any(rep.skipped for rep in evaluate(ds, table, cfg).values())
            assert calls["gfk"] >= 2 and calls["subspaces"] == 2 * calls["gfk"]

    @pytest.mark.parametrize("holdout", ["answer", "question"])
    @pytest.mark.parametrize("dim,center", [(12, False), (40, True)])
    def test_each_projected_kernel_equals_its_pair_built_alone(self, monkeypatch, holdout, dim, center):
        """Batched kernels keep the bits of gfk(principal_angles(head, tail)) on each pool's own spectrum."""
        table, ds = generate(SynthSpec(n_relations=2, pairs_per_relation=8, dim=dim, seed=3))
        table = table.normalized()
        d = 4
        kernel_pools, project = evaluation._Relation.kernel_pools, GfkKernel.project
        pools, widths, projected = [], [], []

        def recorded_pools(rel, table, d):
            coords, spectra = kernel_pools(rel, table, d)
            widths.append(coords.shape[1])
            # each pool factored by a call of its own, not in a stacked SVD
            pools.extend(
                [row_spectrum(coords[list(idx)], center, ambient_dim=table.dim, keep=rel.keep) for idx in pair]
                for *pair, _ in rel.groups
            )
            return coords, spectra

        def recorded_project(kernel, *args, **kwargs):
            projected.append(kernel)
            return project(kernel, *args, **kwargs)

        monkeypatch.setattr(evaluation._Relation, "kernel_pools", recorded_pools)
        monkeypatch.setattr(GfkKernel, "project", recorded_project)
        # the default budget (one batch per relation), then batches of a few kernels
        for batch_elems in (evaluation._KERNEL_BATCH_ELEMS, 2000):
            monkeypatch.setattr(evaluation, "_KERNEL_BATCH_ELEMS", batch_elems)
            pools.clear(), widths.clear(), projected.clear()
            cfg = EvalConfig(
                measure="GFKCosADD,GFKCosMUL", subspace_dim=d, holdout=holdout, center_subspaces=center
            )
            assert not any(rep.skipped for rep in evaluate(ds, table, cfg).values())
            # 12 wide, the kernels stay in embedding coordinates; 40 wide, in pool coordinates
            assert set(widths) == ({12} if dim == 12 else {16})
            assert len(projected) == len(pools) >= 2
            for (head, tail), kernel in zip(pools, projected):
                alone = gfk(principal_angles(head.subspace(d), tail.subspace(d)))
                for name in ("f", "lam", "lam_sqrt", "_proj"):
                    a, b = getattr(kernel, name), getattr(alone, name)
                    assert a.shape == b.shape and a.tobytes() == b.tobytes(), name

    def test_stack_size_leaves_tallies_unchanged(self, monkeypatch):
        table, ds = _stacking_fixture()
        n, d = len(table), 2
        nan_question = question("e0", "e1", "e2", "e3", "axes")
        nan_ranking = cos_mul_answer(nan_question, table, epsilon=0.5, shift_cosines=False)
        assert nan_ranking.scores[-1] == -np.inf
        configs = [
            EvalConfig(measure="all", subspace_dim=d, holdout=holdout, shift_cosines=shift,
                       epsilon=epsilon)
            for holdout in ("answer", "question")
            for shift, epsilon in ((True, 0.001), (False, 0.5))
        ]
        # |V|-wide rows a kernel takes in a stack: its projection, its
        # relation's padded cosine rows and two score rows per question slot
        rows, groups = {}, set()
        for holdout in ("answer", "question"):
            for name, questions in ds.relations.items():
                rel = evaluation._Relation(questions, table, EvalConfig(holdout=holdout), d)
                assert len(rel.groups) > 1
                if name == "r":
                    assert not rel.block.real.all()  # groups of unequal size are padded
                block = rel.block.words.shape[1] + 2 * rel.block.pos.shape[1]
                rows.setdefault(holdout, []).append(2 * d + block)
                groups.add(len(rel.groups))
            # one chunk budget per holdout holds two kernels of each relation
            assert 2 * max(rows[holdout]) < 3 * min(rows[holdout])
        sizes = []
        init = scoring._Scorer.__init__

        def recorded(self, rows, ws, source=None, cnorms=None):
            if source is not None:  # a stack of kernels
                sizes.append(len(rows))
            init(self, rows, ws, source, cnorms)

        monkeypatch.setattr(scoring._Scorer, "__init__", recorded)
        # (batch budget, chunk budget): one stack per relation, stacks of two
        # (the plain blocks then in slabs), one kernel per batch and stack
        settings = (
            lambda holdout: (10**9, 10**12),
            lambda holdout: (10**9, n * 2 * max(rows[holdout])),
            lambda holdout: (1, scoring._CHUNK_ELEMS),
        )
        runs = []
        for budgets in settings:
            sizes.clear()
            run = {}
            for cfg in configs:
                batch_elems, chunk_elems = budgets(cfg.holdout)
                monkeypatch.setattr(evaluation, "_KERNEL_BATCH_ELEMS", batch_elems)
                monkeypatch.setattr(scoring, "_CHUNK_ELEMS", chunk_elems)
                for m, rep in evaluate(ds, table, cfg).items():
                    assert not rep.skipped
                    run[cfg, m] = {
                        rel: (r.n_questions, r.n_correct, r.rank_sum, r.n_null_flags)
                        for rel, r in rep.per_relation.items()
                    }
            runs.append((run, sorted(set(sizes))))
        (whole, whole_sizes), (pairs, pair_sizes), (ones, one_sizes) = runs
        assert whole == pairs == ones
        assert set(whole_sizes) == groups
        assert max(pair_sizes) == 2 and one_sizes == [1]
        for m in MEASURES:  # every measure meets a null query or target
            flags = [t[3] for (_, name), rels in whole.items() if name == m for t in rels.values()]
            assert any(flags), m

    def test_exact_ties_break_toward_the_lower_index(self):
        rng = np.random.default_rng(31)
        vecs = rng.standard_normal((30, 8))
        # "copy" repeats w3 exactly and "double" is 2 * w5, each after its twin.
        # 32 candidates: BLAS products round each candidate column of a full
        # block alike, but may round a column of a partial edge block
        # otherwise (with 18 or 26 candidates the additive product broke ties).
        words = [f"w{i}" for i in range(30)] + ["copy", "double"]
        table = EmbeddingTable(words, np.vstack([vecs, vecs[3], 2.0 * vecs[5]]))
        twins = {"copy": "w3", "double": "w5"}
        ds = RelationDataset()
        for a, b, x, y in (("w6", "w7", "w8", "copy"), ("w9", "w10", "w11", "double"),
                           ("w12", "w13", "w14", "w15"), ("w8", "w15", "w6", "copy")):
            ds.add(question(a, b, x, y))
        questions = ds.relations["r"]
        kernel = gfk(principal_angles(*relation_subspaces(questions, table, 2, "none")))
        answers = {
            "CosADD": lambda q: cos_add_answer(q, table),
            "CosMUL": lambda q: cos_mul_answer(q, table),
            "GFKCosADD": lambda q: gfk_answer(q, table, kernel, mode="add"),
            "GFKCosMUL": lambda q: gfk_answer(q, table, kernel, mode="mul"),
        }
        reports = evaluate(ds, table, EvalConfig(measure="all", subspace_dim=2, holdout="none"))
        for m in MEASURES:
            rank_sum = 0
            for q in questions:
                ranking = answers[m](q)
                order = ranking.indices.tolist()
                gold = order.index(table.index[q.y])
                if q.y in twins:
                    twin = order.index(table.index[twins[q.y]])
                    assert twin == gold - 1, m
                    assert ranking.scores[twin] == ranking.scores[gold], m
                rank_sum += gold + 1
            assert reports[m].per_relation["r"].rank_sum == rank_sum, m

    def test_plain_scoring_keeps_no_copy_of_the_table(self, monkeypatch):
        rng = np.random.default_rng(37)
        n = 4096
        table = EmbeddingTable([f"w{i}" for i in range(n)], rng.standard_normal((n, 256)))
        ds = RelationDataset()
        for i in range(0, 40, 4):
            ds.add(question(f"w{i}", f"w{i + 1}", f"w{i + 2}", f"w{i + 3}"))
        # 16 |V|-wide rows per block, where a unit copy of the table takes 256
        monkeypatch.setattr(scoring, "_CHUNK_ELEMS", 16 * n)
        cfg = EvalConfig(measure="CosADD,CosMUL")
        evaluate(ds, table, cfg)  # builds the table's lowercase index before the measurement
        tracemalloc.start()
        try:
            evaluate(ds, table, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < table.vectors.nbytes / 4

    def test_relation_too_small_skipped_for_gfk_only(self):
        table = random_table(19, 12, 8)
        ds = RelationDataset()
        ds.add(question("w0", "w1", "w2", "w3"))
        reports = evaluate(ds, table, EvalConfig(measure="all", subspace_dim=3))
        assert "r" in reports["CosADD"].per_relation
        assert "r" in reports["GFKCosADD"].skipped
        assert "usable unique words" in reports["GFKCosADD"].skipped["r"]

    def test_skip_decision_matches_embedding_coordinates(self):
        # The head words span e1 plus a direction 1e-14 as strong: rank 1 under
        # the tolerance on 300-wide rows, rank 2 under one on 8-wide rows.
        rng = np.random.default_rng(23)
        dim, eps = 300, 1e-14
        heads = np.zeros((4, dim))
        heads[:, 0] = 1.0
        heads[:, 1] = eps * np.array([1.0, -1.0, 1.0, -1.0])
        vecs = np.vstack([heads, rng.standard_normal((4 + 20, dim))])
        words = [f"h{i}" for i in range(4)] + [f"t{i}" for i in range(4)] + [f"z{i}" for i in range(20)]
        table = EmbeddingTable(words, vecs)
        ds = RelationDataset()
        for i in range(4):
            for j in range(4):
                if j != i:
                    ds.add(question(f"h{i}", f"t{i}", f"h{j}", f"t{j}"))
        questions = ds.relations["r"]
        with pytest.raises(ValueError, match="effective rank 1") as err:
            relation_subspaces(questions, table, 2, "answer", current=questions[0])
        cfg = EvalConfig(measure="GFKCosADD", subspace_dim=2, holdout="answer")
        assert evaluate(ds, table, cfg)["GFKCosADD"].skipped == {"r": str(err.value)}

    def test_pool_coordinates_only_when_cheaper(self):
        rng = np.random.default_rng(24)
        vecs = rng.standard_normal((50, 40))
        pool = list(range(10))
        assert evaluation._pool_width(40, len(pool), 3, 1) is None
        w = evaluation._pool_width(40, len(pool), 3, 8)
        coords = vecs @ evaluation._pool_basis(vecs, pool, w).T
        assert coords.shape == (50, 10)
        # an orthonormal basis of the pool's span keeps the pool's inner products
        np.testing.assert_allclose(coords[pool] @ coords.T, vecs[pool] @ vecs.T, atol=1e-12)

    def test_gfk_requires_half_dim(self):
        table = random_table(20, 12, 6)
        ds = RelationDataset()
        ds.add(question("w0", "w1", "w2", "w3"))
        with pytest.raises(ValueError, match="2 \\* subspace_dim"):
            evaluate(ds, table, EvalConfig(measure="GFKCosADD", subspace_dim=4))

    def test_determinism(self):
        table, ds = generate(SynthSpec(n_relations=2, pairs_per_relation=8, dim=12, seed=3))
        table = table.normalized()
        cfg = EvalConfig(measure="all", subspace_dim=4, holdout="answer")
        r1 = evaluate(ds, table, cfg)
        r2 = evaluate(ds, table, cfg)
        for m in r1:
            for rel in r1[m].per_relation:
                a, b = r1[m].per_relation[rel], r2[m].per_relation[rel]
                assert (a.n_correct, a.rank_sum) == (b.n_correct, b.rank_sum)

    def test_one_workspace_per_call(self, monkeypatch):
        # every relation and kernel of an evaluate call reuses one workspace
        table, ds = generate(SynthSpec(n_relations=3, pairs_per_relation=8, dim=12, seed=3))
        table = table.normalized()
        init = scoring._Workspace.__init__
        setups = []

        def counted(self):
            setups.append(self)
            init(self)

        monkeypatch.setattr(scoring._Workspace, "__init__", counted)
        cfg = EvalConfig(measure="all", subspace_dim=4, holdout="answer")
        reports = evaluate(ds, table, cfg)
        assert len(reports["GFKCosADD"].per_relation) == 3
        assert len(setups) == 1

    def test_kernel_errors_propagate_instead_of_skipping(self, monkeypatch):
        table, ds = generate(SynthSpec(n_relations=2, pairs_per_relation=8, dim=12, seed=3))
        table = table.normalized()

        def broken(pa):
            raise ValueError("kernel coefficients lost PSD-ness")

        monkeypatch.setattr(evaluation, "gfk", broken)
        with pytest.raises(ValueError, match="PSD"):
            evaluate(ds, table, EvalConfig(measure="GFKCosADD", subspace_dim=4))
        with pytest.raises(ValueError, match="PSD"):
            dimension_sweep(ds, table, EvalConfig(measure="GFKCosADD"), dims=[4])

    @pytest.mark.parametrize("shift", [True, False])
    def test_chunking_does_not_change_tallies(self, monkeypatch, shift):
        table, ds = generate(SynthSpec(n_relations=2, pairs_per_relation=8, dim=12, seed=3))
        table = table.normalized()
        runs = []
        # budget below one |V|-wide row: one question per chunk; then no limit
        for chunk_elems in (1, 10**12):
            monkeypatch.setattr(scoring, "_CHUNK_ELEMS", chunk_elems)
            run = {}
            for holdout in HOLDOUTS:
                cfg = EvalConfig(measure="all", subspace_dim=4, holdout=holdout, shift_cosines=shift)
                for m, rep in evaluate(ds, table, cfg).items():
                    assert not rep.skipped
                    run[holdout, m] = {
                        rel: (r.n_questions, r.n_correct, r.rank_sum, r.n_null_flags)
                        for rel, r in rep.per_relation.items()
                    }
            runs.append(run)
        assert runs[0] == runs[1]

    @pytest.mark.parametrize("chunk_elems", [1, 10**12])
    def test_all_measures_match_one_measure_at_a_time(self, monkeypatch, chunk_elems):
        # D = 2d: plain and kernel unit rows have one shape, so a buffer the
        # kernel scorers shared with the plain scorer would change its tallies
        table, ds = generate(SynthSpec(n_relations=2, pairs_per_relation=8, dim=8, seed=3))
        table = table.normalized()
        monkeypatch.setattr(scoring, "_CHUNK_ELEMS", chunk_elems)

        def tallies(rep):
            assert not rep.skipped
            return {rel: (r.n_questions, r.n_correct, r.rank_sum, r.n_null_flags)
                    for rel, r in rep.per_relation.items()}

        for holdout in HOLDOUTS:
            for shift in (True, False):
                cfg = EvalConfig(measure="all", subspace_dim=4, holdout=holdout, shift_cosines=shift)
                together = evaluate(ds, table, cfg)
                for m in MEASURES:
                    alone = evaluate(ds, table, replace(cfg, measure=m))[m]
                    assert tallies(alone) == tallies(together[m]), (holdout, shift, m)

    @pytest.mark.parametrize("holdout,measure,center,make", _API_CASES)
    def test_evaluate_matches_per_question_api_under_holdout(self, holdout, measure, center, make):
        """evaluate (pool coordinates, shared word rows) ranks as gfk_answer on full-D kernels."""
        table, ds = make()
        d = 3
        cfg = EvalConfig(measure=measure, subspace_dim=d, holdout=holdout, center_subspaces=center)
        report = evaluate(ds, table, cfg)[measure]
        relation = ds.relation_names()[0]
        questions = ds.relations[relation]
        kernels = []
        try:
            for q in questions:
                head, tail = relation_subspaces(
                    questions, table, d, holdout,
                    current=None if holdout == "none" else q, center=center,
                )
                kernels.append(gfk(principal_angles(head, tail)))
        except ValueError as err:
            assert report.skipped == {relation: str(err)}
            return
        assert not report.skipped
        n_correct = 0
        rank_sum = 0.0
        for q, kernel in zip(questions, kernels):
            r = gfk_answer(q, table, kernel, mode="add" if measure == "GFKCosADD" else "mul")
            words = [w.lower() for w in r.words(table)]
            rank = words.index(q.y.lower()) + 1
            n_correct += int(rank == 1)
            rank_sum += rank
        res = report.per_relation[relation]
        assert res.n_correct == n_correct
        assert res.rank_sum == pytest.approx(rank_sum, abs=1e-9)


def _twins_table(size, seed):
    """size words in R^8: random rows, then "copy" = w3 and "double" = 2 * w5."""
    vecs = np.random.default_rng(seed).standard_normal((size - 2, 8))
    words = [f"w{i}" for i in range(size - 2)] + ["copy", "double"]
    table = EmbeddingTable(words, np.vstack([vecs, vecs[3], 2.0 * vecs[5]]))
    ds = RelationDataset()
    for a, b, x, y in (("w6", "w7", "w8", "copy"), ("w9", "w10", "w11", "double"),
                       ("w12", "w13", "w14", "w15"), ("w8", "w15", "w6", "copy")):
        ds.add(question(a, b, x, y))
    return table, ds


def _reference_rank(slab, row, gold, excluded, n):
    """Rank of the best gold candidate of one score row from a full row of reference scores."""
    ref = slab.ref(np.full(n, row), np.arange(n))
    best = max(gold.tolist(), key=lambda i: (ref[i], -i))
    keep = np.ones(n, dtype=bool)
    keep[excluded[excluded >= 0]] = False
    ahead = (ref > ref[best]) | ((ref == ref[best]) & (np.arange(n) < best))
    return 1 + int(np.count_nonzero(ahead & keep))


def _slabs(rows, items, epsilon, shift):
    """(slab, R x |V| float32 scores, R full rows of reference scores) of a stack's questions."""
    scorer = scoring._Scorer(rows.astype(np.float32), scoring._Workspace())
    block = scoring._Block.of(items)
    n = rows.shape[1]
    for slab in scorer.scores(block, ("add", "mul"), epsilon, shift, 10**6):
        scores = slab.scores.reshape(-1, n).astype(np.float64)
        refs = np.array([slab.ref(np.full(n, r), np.arange(n)) for r in range(len(scores))])
        yield slab, scores, refs


class TestExactRanks:
    """float32 scores within a proven bound of the float64 reference, and ranks exact in it."""

    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(6, 40),
        m=st.integers(2, 12),
        scales=st.lists(st.sampled_from([1e-13, 1e-11, 1e-6, 1.0, 1e6]), min_size=1, max_size=3),
        tiny_target=st.booleans(),
        shift=st.booleans(),
        epsilon=st.sampled_from([1e-3, 1e-8, 0.5, 2.0]),
    )
    @settings(max_examples=150, deadline=None)
    def test_float32_scores_are_within_the_bound(self, seed, n, m, scales, tiny_target, shift, epsilon):
        rng = np.random.default_rng(seed)
        # rows of mixed scales: null (below 1e-12) and near-null candidates, large norm ratios
        vecs = rng.standard_normal((n, m)) * rng.choice(scales, size=(n, 1))
        if tiny_target:  # x - a + b is a tiny vector for the first question
            vecs[2] = vecs[0] - vecs[1] + 1e-9 * rng.standard_normal(m)
        # two row sets, as a stack of two kernels' projections
        rows = np.stack([vecs, vecs @ rng.standard_normal((m, m))])
        items = [((i, i + 1, i + 2, i + 3), np.array([i + 3]), (i, i + 1, i + 2)) for i in (0, 1, 2)]
        for slab, scores, refs in _slabs(rows, [items, items[::-1]], epsilon, shift):
            # a float32 norm too near NULL_SPACE_NORM to tell makes a suspect: it scores NaN, under no bound
            suspect = np.zeros(scores.shape, dtype=bool)
            if slab.suspect is not None:
                suspect = slab.suspect[np.arange(len(scores)) // slab.scores.shape[1]]
            assert np.isnan(scores[suspect]).all()
            err = np.abs(scores - refs)
            tau = slab.tau.ravel()
            held = tau < np.inf
            bounded = held[:, None] & ~suspect
            assert (err[bounded] <= np.broadcast_to(tau[:, None], err.shape)[bounded]).all(), slab.mode
            if slab.mode == "add":
                assert held.all()
            # split decides a candidate against a level only on its reference's side of it
            for r, ref in enumerate(refs):
                finite = ref[np.isfinite(ref)]
                levels = np.concatenate([finite, np.nextafter(finite, np.inf), np.nextafter(finite, -np.inf),
                                         finite + 1e-7, finite - 1e-7, [0.0, 1.0, -1.0]])
                for level in levels.tolist():
                    with np.errstate(over="ignore", invalid="ignore"):  # as in _gold_ranks
                        p, k = slab.split(r, level)
                        above, below = p > k, p < -k
                    assert (ref[above] > level).all() and (ref[below] < level).all(), slab.mode

    @pytest.mark.parametrize("m", [8, 300])
    def test_reference_bits_do_not_depend_on_the_other_pairs(self, m):
        rng = np.random.default_rng(41)
        n = 600
        rows = rng.standard_normal((1, n, m))
        items = [((i, i + 1, i + 2, i + 3), np.array([i + 3]), (i, i + 1, i + 2)) for i in (0, 4, 8)]
        scorer = scoring._Scorer(rows, scoring._Workspace())
        for slab in scorer.scores(scoring._Block.of([items]), ("add", "mul"), 1e-3, True, 10**6):
            for r in range(3):
                full = slab.ref(np.full(n, r), np.arange(n))
                for j in rng.choice(n, 5, replace=False).tolist():
                    for among in (0, 7, 500):
                        others = rng.choice(n, among).tolist()
                        at = int(rng.integers(0, among + 1))
                        pairs = np.array(others[:at] + [j] + others[at:])
                        got = slab.ref(np.full(len(pairs), r), pairs)[at]
                        assert got.tobytes() == full[j].tobytes(), (slab.mode, among)
            # pairs of several score rows interleaved: each pair reads its own
            # gathered unit row, and still gets the bits of its full row
            full = [slab.ref(np.full(n, r), np.arange(n)) for r in range(3)]
            r, j = rng.integers(0, 3, 700), rng.integers(0, n, 700)
            got = slab.ref(r, j)
            want = np.array([full[ri][ji] for ri, ji in zip(r.tolist(), j.tolist())])
            assert got.tobytes() == want.tobytes(), slab.mode

    @pytest.mark.parametrize("size", [18, 20, 24, 26, 32, 35, 42, 57])
    @pytest.mark.parametrize("seed", [0, 2])
    def test_twins_tie_at_every_size(self, size, seed):
        # float64 products of BLAS blocks rounded w3 and its copy apart at 18,
        # 26, 35, 42 and 57 candidates; reference scores tie by construction
        table, ds = _twins_table(size, seed)
        questions = ds.relations["r"]
        kernel = gfk(principal_angles(*relation_subspaces(questions, table, 2, "none")))
        answers = {
            "CosADD": lambda q: cos_add_answer(q, table),
            "CosMUL": lambda q: cos_mul_answer(q, table),
            "GFKCosADD": lambda q: gfk_answer(q, table, kernel, mode="add"),
            "GFKCosMUL": lambda q: gfk_answer(q, table, kernel, mode="mul"),
        }
        twins = {"copy": "w3", "double": "w5"}
        reports = evaluate(ds, table, EvalConfig(measure="all", subspace_dim=2, holdout="none"))
        for m in MEASURES:
            rank_sum = 0
            for q in questions:
                ranking = answers[m](q)
                order = ranking.indices.tolist()
                gold = order.index(table.index[q.y])
                if q.y in twins:
                    twin = order.index(table.index[twins[q.y]])
                    assert twin == gold - 1 and ranking.scores[twin] == ranking.scores[gold], m
                rank_sum += gold + 1
            assert reports[m].per_relation["r"].rank_sum == rank_sum, m

    @pytest.mark.parametrize("mode", ["add", "mul"])
    @pytest.mark.parametrize("later", [False, True])
    def test_near_tie_below_float32_resolution(self, mode, later):
        # z differs from the gold word y by one float32 step of its small
        # component off the target: their scores differ by about 1e-11, far
        # below a float32 step. z comes first and scores lower, or comes
        # later and scores higher, so a float32 ranking with the lower-index
        # tie rule gets both wrong.
        target = np.array([-1.0, 1.0, 1.0, 0.0])
        y = (target / np.linalg.norm(target) + np.array([0.0, 0.0, 0.0, 0.01])).astype(np.float32)
        z = y.copy()
        z[3] = np.nextafter(y[3], np.float32(0.0 if later else 1.0))
        rows = {"a": [1.0, 0, 0, 0], "b": [0, 1.0, 0, 0], "x": [0, 0, 1.0, 0], "y": y, "z": z,
                "u": [0, 0.2, 0.1, 1.0], "v": [0.5, 0.5, -0.5, 0.5]}
        words = ["a", "b", "x"] + (["y", "z"] if later else ["z", "y"]) + ["u", "v"]
        table = EmbeddingTable(words, np.array([rows[w] for w in words], dtype=float))
        ds = RelationDataset()
        ds.add(question("a", "b", "x", "y"))
        q = ds.relations["r"][0]
        if mode == "add":
            order, scores = brute_add_ranking(table, q)
            ranking, measure = cos_add_answer(q, table), "CosADD"
        else:
            order, scores = brute_mul_ranking(table, q)
            ranking, measure = cos_mul_answer(q, table), "CosMUL"
        want = order.index(table.index["y"]) + 1
        at = {i: s for i, s in zip(order, scores)}
        y_score, z_score = at[table.index["y"]], at[table.index["z"]]
        assert y_score != z_score and np.float32(y_score) == np.float32(z_score)
        assert (z_score > y_score) == later  # z ahead exactly when it comes later
        assert want == 2 if later else want == 1
        assert ranking.indices.tolist().index(table.index["y"]) + 1 == want
        report = evaluate(ds, table, EvalConfig(measure=measure))[measure]
        assert report.per_relation["r"].rank_sum == want

    def test_plain_rows_past_the_float32_norm_range_are_suspects(self):
        rng = np.random.default_rng(61)
        n = 30
        vecs = rng.standard_normal((n, 12))
        vecs[3] *= 1e20  # its float32 squares overflow: the float32 norm is inf
        table = EmbeddingTable([f"w{i}" for i in range(n)], vecs)
        items = [((i, i + 1, i + 2, i + 3), np.array([i + 3]), (i, i + 1, i + 2)) for i in (0, 4, 8)]
        block = scoring._Block.of([items])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            scorer = scoring._Scorer(table.vectors[None], scoring._Workspace())
            assert scorer.suspect is not None and np.argwhere(scorer.suspect).tolist() == [[0, 3]]
            assert scorer.errors[1].tolist() == [0.0]  # plain rows are their own reference rows
            for slab in scorer.scores(block, ("add", "mul"), 1e-3, True, 10**6):
                scores = slab.scores.reshape(-1, n)
                assert np.isnan(scores[:, 3]).all()
                rows = np.flatnonzero(~slab.null.ravel() if slab.mode == "add" else np.ones(len(scores), bool))
                gold = block.gold.reshape(len(scores), -1)
                excluded = block.excluded.reshape(len(scores), -1)
                ranks = scoring._gold_ranks(scores, slab, rows, gold, excluded)
                want = [_reference_rank(slab, r, gold[r], excluded[r], n) for r in rows.tolist()]
                assert ranks.tolist() == want, slab.mode

    @pytest.mark.parametrize("shift", [True, False])
    def test_cosmul_takes_one_denominator_row_per_a_word(self, shift):
        # 20 questions over 2 a words, on one row set and on two
        table = random_table(71, 60, 8)
        rng = np.random.default_rng(72)
        ds = RelationDataset()
        for k in range(20):
            b, x, y = rng.choice(np.arange(2, 60), 3, replace=False).tolist()
            ds.add(question(f"w{k % 2}", f"w{b}", f"w{x}", f"w{y}"))
        questions = ds.relations["r"]
        items = evaluation._scoring_items(evaluation._resolve_relation(questions, table)[0], table, True)
        cfg = EvalConfig(measure="CosMUL", shift_cosines=shift)
        want = []
        for q in questions:
            order, _ = brute_mul_ranking(table, q, shift=shift)
            want.append(order.index(table.index[q.y]) + 1)
        for g in (1, 2):
            ws = scoring._Workspace()
            scorer = scoring._Scorer(np.repeat(table.vectors[None], g, axis=0), ws)
            ranks, _, _ = scoring._ranked(scorer, scoring._Block.of([items] * g), ("CosMUL",), cfg)["CosMUL"]
            assert ws._bufs["den"].shape[0] == 2 * g
            assert ranks.tolist() == want * g
        assert evaluate(ds, table, cfg)["CosMUL"].per_relation["r"].rank_sum == sum(want)

    @pytest.mark.parametrize("holdout", HOLDOUTS)
    @pytest.mark.parametrize("shift", [True, False])
    def test_evaluate_ranks_equal_all_reference_ranks(self, monkeypatch, holdout, shift):
        table, ds = _stacking_fixture()
        twins, twin_ds = _twins_table(26, 0)
        gold_ranks, rows_rechecked = scoring._gold_ranks, []

        def checked(scores, slab, rows, gold, excluded):
            counted = []

            def split(i, level):
                counted.append(i)
                return slab.split(i, level)

            ranks = gold_ranks(scores, slab._replace(split=split), rows, gold, excluded)
            want = [_reference_rank(slab, r, gold[r], excluded[r], scores.shape[1]) for r in rows.tolist()]
            assert ranks.tolist() == want
            rows_rechecked.extend(counted)
            return ranks

        monkeypatch.setattr(scoring, "_gold_ranks", checked)
        for tab, data in ((table, ds), (twins, twin_ds)):
            cfg = EvalConfig(measure="all", subspace_dim=2, holdout=holdout, shift_cosines=shift,
                             epsilon=0.5 if not shift else 0.001)
            evaluate(data, tab, cfg)
        assert rows_rechecked or shift  # without the shift some rows always take the slow path


@pytest.mark.parametrize("shift", [True, False])
def test_ranks_with_inputs_kept_equal_all_reference_ranks(monkeypatch, shift):
    # with exclude_inputs off every excluded slot is padding; a twin of the
    # gold word is the one other candidate in its band
    gold_ranks = scoring._gold_ranks

    def checked(scores, slab, rows, gold, excluded):
        assert (excluded < 0).all()
        ranks = gold_ranks(scores, slab, rows, gold, excluded)
        want = [_reference_rank(slab, r, gold[r], excluded[r], scores.shape[1]) for r in rows.tolist()]
        assert ranks.tolist() == want
        return ranks

    monkeypatch.setattr(scoring, "_gold_ranks", checked)
    table, ds = _twins_table(26, 0)
    cfg = EvalConfig(measure="all", subspace_dim=2, exclude_inputs=False, shift_cosines=shift,
                     epsilon=0.001 if shift else 0.5)
    evaluate(ds, table, cfg)


def _memory_inputs():
    """4,096 Gaussian words in R^256, and one relation of 90 questions over 20 of them."""
    rng = np.random.default_rng(47)
    n, big_d = 4096, 256
    table = EmbeddingTable([f"w{i}" for i in range(n)], rng.standard_normal((n, big_d)))
    ds = RelationDataset()
    for i in range(0, 40, 4):
        for j in range(0, 40, 4):
            if j != i:
                ds.add(question(f"w{i}", f"w{i + 1}", f"w{j}", f"w{j + 1}"))
    return table, ds


def _kernel_scoring_bound(n, w):
    """Bytes that kernel scoring over n words in w pool coordinates may trace above the table.

    Float32 blocks: the workspace's "rows", "cos", "scores" and "den" share
    one budget of _CHUNK_ELEMS values (4 bytes each), and an open-row part
    gathers score and denominator rows of an eighth of it each (1 byte per
    budget value). A reference chunk gathers float64 rows of another eighth
    (1 byte more). Then the float32 pool coordinates and their norms,
    n(4w + 4), and 512 KiB for a holdout batch's kernels and pools and the
    scorers' per-candidate arrays. A float64 copy of the coordinates (8nw)
    does not fit.
    """
    return 6 * scoring._CHUNK_ELEMS + 4 * n * (w + 1) + (1 << 19)


def _random_kernel(rng, w, d):
    """The flow kernel between two random d-dimensional subspaces of R^w."""
    head, tail = (Subspace(np.linalg.qr(rng.standard_normal((w, d)))[0]) for _ in range(2))
    return gfk(principal_angles(head, tail))


def _kernel_scorer(coords, kernels):
    """A scorer over the float32 rows of a stack of kernels, as evaluate builds it from float32 coordinates."""
    coords = np.asarray(coords, dtype=np.float32)
    return scoring._Scorer.of_kernels(kernels, scoring._Workspace(), coords, scoring._Scorer.kernel_inputs(coords))


class TestKernelRows:
    """float32 kernel rows: bounds against the re-projected float64 reference, suspects and exact ranks."""

    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(10, 40),
        w=st.integers(5, 16),
        d=st.integers(1, 7),
        scales=st.lists(st.sampled_from([1e-13, 1e-11, 1e-6, 1.0, 1e6]), min_size=1, max_size=3),
        delta=st.sampled_from([1e-1, 5e-2, 2e-2, 1e-3, 1e-6, 1e-9]),
        near=st.sampled_from([1 - 1e-3, 1 - 1e-7, 1.0, 1 + 1e-7, 1 + 1e-3]),
        tiny_target=st.booleans(),
        shift=st.booleans(),
        epsilon=st.sampled_from([1e-3, 1e-8, 0.5, 2.0]),
    )
    @settings(max_examples=100, deadline=None)
    def test_float32_kernel_scores_are_within_the_bound(
        self, seed, n, w, d, scales, delta, near, tiny_target, shift, epsilon
    ):
        d = min(d, (w - 1) // 2)  # 2d < w leaves f lam_sqrt a null space
        rng = np.random.default_rng(seed)
        coords = rng.standard_normal((n, w)) * rng.choice(scales, size=(n, 1))
        if tiny_target:  # x - a + b is a tiny vector for the first question
            coords[2] = coords[0] - coords[1] + 1e-9 * rng.standard_normal(w)
        kernels = [_random_kernel(rng, w, d) for _ in range(2)]
        proj = kernels[0].projection
        # planted in the first kernel: rows nearly in the null space of f lam_sqrt
        # (rho about 1 / delta), and a row whose projection is near NULL_SPACE_NORM
        outside = np.linalg.svd(proj.T)[2][-1]
        for j in (n - 1, n - 2):
            coords[j] = outside + delta * rng.standard_normal(w)
        coords[n - 3] *= near * NULL_SPACE_NORM / np.linalg.norm(coords[n - 3] @ proj)
        scorer = _kernel_scorer(coords, kernels)
        # a suspect widens no bound: the row term stays within the one at the cap
        assert (scorer.errors[1] <= 1.1 * scoring._gamma(w + 2, 2.0**-24) * scoring._RHO_CAP).all()
        if delta <= 1e-6:
            assert scorer.suspect is not None and scorer.suspect[0, [n - 1, n - 2]].all()
        items = [((i, i + 1, i + 2, i + 3), np.array([i + 3]), (i, i + 1, i + 2)) for i in (0, 1, 2)]
        block = scoring._Block.of([items, items[::-1]])
        for slab in scorer.scores(block, ("add", "mul"), epsilon, shift, 10**6):
            k = slab.scores.shape[1]
            scores = slab.scores.reshape(-1, n)
            refs = np.array([slab.ref(np.full(n, r), np.arange(n)) for r in range(len(scores))])
            suspect = np.zeros(scores.shape, dtype=bool)
            if slab.suspect is not None:
                suspect = slab.suspect[np.arange(len(scores)) // k]
            tau = slab.tau.ravel()
            held = tau < np.inf
            if slab.mode == "add":
                assert held.all()
            assert np.isnan(scores[suspect]).all()
            err = np.abs(scores.astype(np.float64) - refs)
            bounded = held[:, None] & ~suspect
            assert (err[bounded] <= np.broadcast_to(tau[:, None], err.shape)[bounded]).all()
            # split never decides a candidate on the wrong side of a level
            for r, ref in enumerate(refs):
                finite = ref[np.isfinite(ref)]
                for level in np.concatenate([finite, finite + 1e-7, finite - 1e-7, [0.0, 1.0]]).tolist():
                    with np.errstate(over="ignore", invalid="ignore"):
                        p, kk = slab.split(r, level)
                        above, below = p > kk, p < -kk
                    assert (ref[above] > level).all() and (ref[below] < level).all(), slab.mode
            # exact ranks, suspects and crowded bands included
            rows = np.flatnonzero(~slab.null.ravel() if slab.mode == "add" else np.ones(len(scores), bool))
            gold = block.gold.reshape(len(scores), -1)
            excluded = block.excluded.reshape(len(scores), -1)
            ranks = scoring._gold_ranks(scores, slab, rows, gold, excluded)
            want = [_reference_rank(slab, r, gold[r], excluded[r], n) for r in rows.tolist()]
            assert ranks.tolist() == want, slab.mode

    @pytest.mark.parametrize("w", [8, 300])
    def test_reference_bits_do_not_depend_on_the_other_pairs(self, w):
        rng = np.random.default_rng(43)
        n = 600
        coords = rng.standard_normal((n, w))
        coords[20], coords[21] = coords[13], 2.0 * coords[14]  # a copy of 13 and twice 14
        scorer = _kernel_scorer(coords, [_random_kernel(rng, w, 3) for _ in range(2)])
        # a re-projected row alone, among others, and among rows of the other row set
        want = scorer._reference_rows(np.zeros(n, dtype=np.intp), np.arange(n))
        for j in rng.choice(n, 5, replace=False).tolist():
            for among in (0, 7, 500):
                others = rng.choice(n, among).tolist()
                at = int(rng.integers(0, among + 1))
                pairs = np.array(others[:at] + [j] + others[at:])
                g = np.zeros(len(pairs), dtype=np.intp)
                g[rng.random(len(pairs)) < 0.5] = 1
                g[at] = 0
                for got, full in zip(scorer._reference_rows(g, pairs)[:2], want[:2]):  # rows and norms
                    assert got[at].tobytes() == full[j].tobytes(), among
        items = [((i, i + 1, i + 2, i + 3), np.array([i + 3]), (i, i + 1, i + 2)) for i in (0, 4, 8)]
        block = scoring._Block.of([items, items[::-1]])
        for slab in scorer.scores(block, ("add", "mul"), 1e-3, True, 10**6):
            rows = slab.null.size
            full = [slab.ref(np.full(n, r), np.arange(n)) for r in range(rows)]
            for r in range(rows):
                # twins tie: the copy exactly, twice a row by its cosines
                assert full[r][20] == full[r][13] and full[r][21] == full[r][14], slab.mode
                for j in rng.choice(n, 5, replace=False).tolist():
                    for among in (0, 7, 500):
                        others = rng.choice(n, among).tolist()
                        at = int(rng.integers(0, among + 1))
                        pairs = np.array(others[:at] + [j] + others[at:])
                        got = slab.ref(np.full(len(pairs), r), pairs)[at]
                        assert got.tobytes() == full[r][j].tobytes(), (slab.mode, among)
            # pairs of score rows of both row sets interleaved
            r, j = rng.integers(0, rows, 700), rng.integers(0, n, 700)
            want_pairs = np.array([full[ri][ji] for ri, ji in zip(r.tolist(), j.tolist())])
            assert slab.ref(r, j).tobytes() == want_pairs.tobytes(), slab.mode

    def test_coordinates_past_the_float32_range_of_a_row_are_suspects(self):
        rng = np.random.default_rng(61)
        n, w = 30, 12
        coords = rng.standard_normal((n, w))
        coords[3] *= 1e20  # past 2^59 / |f lam_sqrt|_F: its float32 row or norm may overflow
        kernels = [_random_kernel(rng, w, 3) for _ in range(2)]
        items = [((i, i + 1, i + 2, i + 3), np.array([i + 3]), (i, i + 1, i + 2)) for i in (0, 4, 8)]
        block = scoring._Block.of([items, items[::-1]])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            scorer = _kernel_scorer(coords, kernels)
            # only the scaled row, and by its coordinates alone: its float32 norm is no smaller than the others
            assert scorer.suspect is not None and np.argwhere(scorer.suspect).tolist() == [[0, 3], [1, 3]]
            for slab in scorer.scores(block, ("add", "mul"), 1e-3, True, 10**6):
                scores = slab.scores.reshape(-1, n)
                assert np.isnan(scores[:, 3]).all()
                rows = np.flatnonzero(~slab.null.ravel() if slab.mode == "add" else np.ones(len(scores), bool))
                gold = block.gold.reshape(len(scores), -1)
                excluded = block.excluded.reshape(len(scores), -1)
                ranks = scoring._gold_ranks(scores, slab, rows, gold, excluded)
                want = [_reference_rank(slab, r, gold[r], excluded[r], n) for r in rows.tolist()]
                assert ranks.tolist() == want, slab.mode

    def test_pool_coordinates_past_the_float32_range_keep_the_table(self, monkeypatch):
        # an un-normalized table: a finite float32 row of norm about 1e39
        # along a pool word, whose float32 pool coordinate would be inf
        table, ds = _memory_inputs()
        vecs = table.vectors.astype(np.float64)
        vecs[-1] = vecs[1] * (3e38 / np.abs(vecs[1]).max())
        table = EmbeddingTable(table.words, vecs)
        assert np.linalg.norm(vecs[-1]) > 3.5e38
        kernel_pools, cosines, widths, suspects = evaluation._Relation.kernel_pools, scoring._Scorer._cosines, [], []

        def recorded(rel, *args, **kwargs):
            coords, pools = kernel_pools(rel, *args, **kwargs)
            widths.append(coords.shape[1])
            return coords, pools

        def finite(scorer, *args):
            suspects.append(scorer.suspect is not None and bool(scorer.suspect[:, -1].all()))
            out = cosines(scorer, *args)
            assert np.isfinite(out).all()
            return out

        monkeypatch.setattr(evaluation._Relation, "kernel_pools", recorded)
        monkeypatch.setattr(scoring._Scorer, "_cosines", finite)
        cfg = EvalConfig(measure="all", subspace_dim=4, holdout="answer")
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            reports = evaluate(ds, table, cfg)
        # the relation's kernels project the table itself, where the row is a suspect
        assert widths == [table.dim] and suspects and all(suspects)
        for rep in reports.values():
            assert not rep.skipped and rep.n_questions == 90
            assert np.isfinite(rep.micro_average_rank)
        # the row's coordinate along its own direction is past the float32 range; along the others it is not
        along = vecs[-1] / np.linalg.norm(vecs[-1])
        assert evaluation._pool_coords(table.vectors, along[None]) is None
        axes = evaluation._pool_coords(table.vectors, np.eye(table.dim)[:20])
        assert axes.tobytes() == table.vectors[:, :20].tobytes()

    @pytest.mark.parametrize("holdout", ["none", "answer"])
    def test_kernel_scoring_memory_follows_the_budget(self, monkeypatch, holdout):
        table, ds = _memory_inputs()
        n, big_d, d = len(table), table.dim, 4
        kernel_pools, widths = evaluation._Relation.kernel_pools, []

        def recorded(rel, *args, **kwargs):
            coords, pools = kernel_pools(rel, *args, **kwargs)
            widths.append(coords.shape[1])
            return coords, pools

        monkeypatch.setattr(evaluation._Relation, "kernel_pools", recorded)
        # 16 |V|-wide rows per block, where a float32 copy of the table takes 128
        monkeypatch.setattr(scoring, "_CHUNK_ELEMS", 16 * n)
        cfg = EvalConfig(measure="GFKCosADD,GFKCosMUL", subspace_dim=d, holdout=holdout)
        evaluate(ds, table, cfg)  # builds the table's lowercase index before the measurement
        tracemalloc.start()
        try:
            reports = evaluate(ds, table, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert not any(rep.skipped for rep in reports.values())
        w = widths[-1]
        if holdout == "none":
            # the kernels project the table itself, cast to float32 a block at a time
            assert w == big_d and peak < table.vectors.nbytes / 4
        else:
            assert w < big_d
            assert peak < _kernel_scoring_bound(n, w)

    @pytest.mark.parametrize("shift", [True, False])
    def test_kernel_stacks_keep_memory_within_the_budget(self, monkeypatch, shift):
        """Under holdout='question', stacks of several kernels; unshifted, every CosMUL row is open."""
        table, ds = _memory_inputs()
        n, d = len(table), 4
        kernel_pools, widths = evaluation._Relation.kernel_pools, []
        mul_split, make_stacks = scoring._mul_split, evaluation._stacks
        stacks, split_rows = [], []  # kernels per stack; rows per open-row part of CosMUL

        def recorded(rel, *args, **kwargs):
            coords, pools = kernel_pools(rel, *args, **kwargs)
            widths.append(coords.shape[1])
            return coords, pools

        def split(score, *args):
            split_rows.append(len(score))
            return mul_split(score, *args)

        def stacked(*args):
            for lo, hi, parts in make_stacks(*args):
                stacks.append(hi - lo)
                yield lo, hi, parts

        monkeypatch.setattr(evaluation._Relation, "kernel_pools", recorded)
        monkeypatch.setattr(scoring, "_mul_split", split)
        monkeypatch.setattr(evaluation, "_stacks", stacked)
        # 64 |V|-wide rows per block: four kernels of 2d + u + 2k = 16 rows each
        monkeypatch.setattr(scoring, "_CHUNK_ELEMS", 64 * n)
        cfg = EvalConfig(measure="GFKCosADD,GFKCosMUL", subspace_dim=d, holdout="question", shift_cosines=shift)
        evaluate(ds, table, cfg)  # builds the table's lowercase index before the measurement
        stacks.clear(), split_rows.clear()
        tracemalloc.start()
        try:
            reports = evaluate(ds, table, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert not any(rep.skipped for rep in reports.values())
        assert max(stacks) == 4 and sum(stacks) == 45
        if not shift:
            assert sum(split_rows) == reports["GFKCosMUL"].n_questions == 90
        w = widths[-1]
        assert peak < _kernel_scoring_bound(n, w), (peak, w)

    def test_project_casts_float64_rows_to_float32(self):
        rng = np.random.default_rng(53)
        kernel = _random_kernel(rng, 12, 3)
        vectors = rng.standard_normal((1000, 12))
        out = np.empty((1000, 6), dtype=np.float32)
        assert kernel.project(vectors, out=out) is out
        np.testing.assert_allclose(out, kernel.project(vectors), rtol=1e-5, atol=1e-5)
        # float64 rows are rounded to float32 first: float32 rows are read as they are
        same = kernel.project(vectors.astype(np.float32), out=np.empty((1000, 6), dtype=np.float32))
        assert same.tobytes() == out.tobytes()
        # with no float32 out the product is float64, whatever the input
        assert kernel.project(vectors.astype(np.float32)).dtype == np.float64


@pytest.mark.parametrize("measure", ["CosADD,CosMUL", "GFKCosADD,GFKCosMUL"])
def test_evaluate_makes_no_float64_copy_of_the_table(monkeypatch, measure):
    # plain rows and, under holdout='none', the kernels' rows are scored from
    # the float32 table itself: a float64 copy would take twice its bytes
    table, ds = _memory_inputs()
    assert table.vectors.dtype == np.float32
    monkeypatch.setattr(scoring, "_CHUNK_ELEMS", 16 * len(table))
    cfg = EvalConfig(measure=measure, subspace_dim=4, holdout="none")
    evaluate(ds, table, cfg)  # builds the table's lowercase index before the measurement
    tracemalloc.start()
    try:
        reports = evaluate(ds, table, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not any(rep.skipped for rep in reports.values())
    assert peak < table.vectors.nbytes


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("shift", [True, False])
@pytest.mark.parametrize("kind", ["plain", "kernel"])
def test_ranks_with_several_golds_equal_all_reference_ranks(kind, shift, seed):
    # gold lists of 2-4 case variants: 20 is an exact copy of the gold 3, so
    # the golds tie and 3 must win, which leaves 15, twice 3, behind it; 21
    # is a near copy of 8; the non-gold 19 is a copy of the gold 23 at a
    # lower index, so it ties ahead. The last question excludes five words
    # (its inputs and their case variants): 4, a copy of its gold 26 at a
    # lower index, and 28, a copy of its b. In the first kernel's row set 25
    # (a gold) and 27 lie nearly in the null space of its f lam_sqrt: suspects.
    rng = np.random.default_rng(seed)
    n, w = 30, 10
    coords = rng.standard_normal((n, w))
    coords[20], coords[21], coords[15], coords[19] = coords[3], coords[8] + 1e-9, 2.0 * coords[3], coords[23]
    coords[4], coords[28] = coords[26], coords[17]
    items = [
        ((0, 1, 2, 3), np.array([3, 20]), (0, 1, 2)),
        ((5, 6, 7, 8), np.array([8, 21, 22]), (5, 6, 7)),
        ((10, 11, 12, 13), np.array([13, 23, 24, 25]), (10, 11, 12)),
        ((3, 8, 13, 23), np.array([19, 23]), (3, 8, 13)),
        ((16, 17, 18, 26), np.array([26]), (4, 16, 17, 18, 28)),
    ]
    if kind == "plain":
        scorer = scoring._Scorer(coords[None], scoring._Workspace())
        block = scoring._Block.of([items])
    else:
        kernels = [_random_kernel(rng, w, 2) for _ in range(2)]
        outside = np.linalg.svd(kernels[0].projection.T)[2][-1]
        coords[25], coords[27] = outside + 1e-9 * rng.standard_normal((2, w))
        scorer = _kernel_scorer(coords, kernels)
        assert scorer.suspect is not None and scorer.suspect[0, [25, 27]].all()
        block = scoring._Block.of([items, items[::-1]])
    epsilon = 1e-3 if shift or seed else 0.5
    for slab in scorer.scores(block, ("add", "mul"), epsilon, shift, 10**6):
        scores = slab.scores.reshape(-1, n)
        rows = np.flatnonzero(~slab.null.ravel() if slab.mode == "add" else np.ones(len(scores), bool))
        gold = block.gold.reshape(len(scores), -1)
        excluded = block.excluded.reshape(len(scores), -1)
        ranks = scoring._gold_ranks(scores, slab, rows, gold, excluded)
        want = [_reference_rank(slab, r, gold[r], excluded[r], n) for r in rows.tolist()]
        assert ranks.tolist() == want, slab.mode


class TestDimensionSweep:
    @pytest.fixture
    def synth(self):
        from gfkanalogy.synth import SynthSpec, generate

        table, ds = generate(SynthSpec(n_relations=2, pairs_per_relation=10, dim=16, seed=9))
        return table.normalized(), ds

    def test_shape_and_flat_baselines(self, synth):
        table, ds = synth
        cfg = EvalConfig(measure="all", holdout="none")
        rows = dimension_sweep(ds, table, cfg, dims=[3, 5])
        assert len(rows) == 2 * 4
        by_measure = {}
        for d, m, acc in rows:
            by_measure.setdefault(m, []).append((d, acc))
        for m in ("CosADD", "CosMUL"):
            accs = [a for _, a in by_measure[m]]
            assert accs[0] == accs[1]  # d-independent baselines
        assert [d for d, _ in by_measure["GFKCosADD"]] == [3, 5]

    def test_absent_cells(self, synth):
        table, ds = synth
        cfg = EvalConfig(measure="GFKCosADD", holdout="none")
        rows = dimension_sweep(ds, table, cfg, dims=[3, 12])
        cells = {d: acc for d, m, acc in rows}
        assert cells[3] is not None
        assert cells[12] is None  # 2 * 12 > 16: no kernel at d=12

    def test_dims_must_stay_below_embedding_dim(self, synth):
        table, ds = synth
        with pytest.raises(ValueError, match="below the embedding dimension"):
            dimension_sweep(ds, table, EvalConfig(measure="CosADD"), dims=[16])


def _sweep_fixture():
    """One D = 300 table whose relations reach every per-dimension branch of a sweep.

    rank: the head words span e1 plus a direction 1e-14 as strong, effective
    rank 1 on 300-wide rows (rank 2 on 8-wide pool coordinates). chain: the
    one-hot words c0 -> c1 -> ... -> c7, whose head and tail pools share six
    words, so the 8-word pool is smaller than 2d from d = 5 on; under
    holdout='question' a question's own words are orthogonal to its kernel,
    giving null queries. rot: rotated pairs, 4 usable head words under
    holdout='question', plus one out-of-vocabulary question.
    """
    rng = np.random.default_rng(31)
    dim = 300
    rank_heads = np.zeros((4, dim))
    rank_heads[:, 0] = 1.0
    rank_heads[:, 1] = 1e-14 * np.array([1.0, -1.0, 1.0, -1.0])
    rot_heads = rng.standard_normal((6, dim))
    rotation = np.linalg.qr(rng.standard_normal((dim, dim)))[0]
    vecs = np.vstack([
        rank_heads, rng.standard_normal((4, dim)), np.eye(dim)[10:18],
        rot_heads, rot_heads @ rotation.T, rng.standard_normal((20, dim)),
    ])
    words = ([f"h{i}" for i in range(4)] + [f"t{i}" for i in range(4)] + [f"c{i}" for i in range(8)]
             + [f"a{i}" for i in range(6)] + [f"b{i}" for i in range(6)] + [f"z{i}" for i in range(20)])
    ds = RelationDataset()
    for i in range(4):
        for j in range(4):
            if j != i:
                ds.add(question(f"h{i}", f"t{i}", f"h{j}", f"t{j}", "rank"))
    for i in range(7):
        for j in range(7):
            if j != i:
                ds.add(question(f"c{i}", f"c{i + 1}", f"c{j}", f"c{j + 1}", "chain"))
    for i in range(6):
        for j in range(6):
            if j != i:
                ds.add(question(f"a{i}", f"b{i}", f"a{j}", f"b{j}", "rot"))
    ds.add(question("a0", "b0", "unknown", "b1", "rot"))
    return EmbeddingTable(words, vecs), ds


def _report_facts(reports):
    return {
        m: ({rel: (r.n_questions, r.n_correct, r.rank_sum, r.n_null_flags)
             for rel, r in rep.per_relation.items()}, rep.skipped, rep.oov_counts)
        for m, rep in reports.items()
    }


def _arrays_in(obj, seen=None):
    """Every numpy array reachable from obj through containers and instance attributes."""
    seen = set() if seen is None else seen
    if id(obj) in seen:
        return
    seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        yield obj
    elif isinstance(obj, dict):
        for key, value in obj.items():
            yield from _arrays_in(key, seen)
            yield from _arrays_in(value, seen)
    elif isinstance(obj, (list, tuple, set, frozenset)):
        for value in obj:
            yield from _arrays_in(value, seen)
    elif hasattr(obj, "__dict__"):
        yield from _arrays_in(vars(obj), seen)


class TestSweepState:
    @pytest.mark.parametrize("center", [False, True])
    @pytest.mark.parametrize("holdout", HOLDOUTS)
    def test_sweep_evaluates_equal_fresh_evaluates(self, monkeypatch, holdout, center):
        table, ds = _sweep_fixture()
        cfg = EvalConfig(measure="all", holdout=holdout, center_subspaces=center)
        dims = [1, 2, 3, 5, 151]
        original = evaluation.evaluate
        calls = []

        def capturing(dataset, table_, config, **kwargs):
            reports = original(dataset, table_, config, **kwargs)
            calls.append((config, kwargs["sweep_state"], reports))
            return reports

        monkeypatch.setattr(evaluation, "evaluate", capturing)
        rows = dimension_sweep(ds, table, cfg, dims)
        # one plain call, then one kernel call per d with 2d <= D
        assert [c.subspace_dim for c, _, _ in calls[1:]] == [1, 2, 3, 5]
        state = calls[0][1]
        assert all(s is state for _, s, _ in calls)
        fresh = {}
        for config, _, reports in calls:
            fresh[config.subspace_dim, config.measure] = alone = original(ds, table, config)
            assert _report_facts(reports) == _report_facts(alone)
        plain = fresh[cfg.subspace_dim, "CosADD,CosMUL"]
        for d, m, acc in rows:
            if m in GFK_MEASURES:
                rep = fresh[d, "GFKCosADD,GFKCosMUL"][m] if d != 151 else None
            else:
                rep = plain[m]
            assert acc == (rep.micro_accuracy if rep is not None and rep.n_questions else None), (d, m)
        # the fixture reaches the branches it is meant to reach
        skips = {d: fresh[d, "GFKCosADD,GFKCosMUL"]["GFKCosADD"].skipped for d in (1, 2, 3, 5)}
        assert "effective rank 1" in skips[2]["rank"]
        if holdout == "question":
            assert "usable unique words" in skips[5]["rot"]
            assert fresh[1, "GFKCosADD,GFKCosMUL"]["GFKCosADD"].per_relation["chain"].n_null_flags
        else:
            assert set(state["chain"].frames) == ({8, 10} if holdout == "answer" else {None})
        assert fresh[1, "GFKCosADD,GFKCosMUL"]["GFKCosADD"].oov_counts["rot"] == 1

    def test_each_pool_is_factored_once_per_sweep(self, monkeypatch):
        table, ds = generate(SynthSpec(n_relations=2, pairs_per_relation=8, dim=40, seed=3))
        table = table.normalized()
        factored = []  # pools per row_spectrum call, all of them stacked

        def counted(rows, *args, **kwargs):
            assert rows.ndim == 3
            factored.append(len(rows))
            return row_spectrum(rows, *args, **kwargs)

        monkeypatch.setattr(evaluation, "row_spectrum", counted)
        original = evaluation.evaluate
        states = []

        def capturing(dataset, table_, config, **kwargs):
            states.append(kwargs["sweep_state"])
            return original(dataset, table_, config, **kwargs)

        monkeypatch.setattr(evaluation, "evaluate", capturing)
        cfg = EvalConfig(measure="GFKCosADD,GFKCosMUL", holdout="question")
        rows = dimension_sweep(ds, table, cfg, dims=[2, 3, 4])
        assert all(acc is not None for _, _, acc in rows)
        state = states[0]
        assert all(s is state for s in states)
        relations = state.values()
        # the pool basis is shared by all three dimensions
        assert all(len(rel.frames) == 1 for rel in relations)
        n_groups = sum(len(rel.groups) for rel in relations)
        # every pool has 6 rows: one stacked call per relation factors all of its pools
        assert sum(factored) == 2 * n_groups and len(factored) == len(relations)
        assert not [a.shape for a in _arrays_in(state) if a.ndim and len(a) == len(table)]

    @pytest.mark.parametrize("holdout", HOLDOUTS)
    def test_relations_are_held_one_at_a_time_and_built_once_per_sweep(self, monkeypatch, holdout):
        table, ds = _sweep_fixture()
        init, kernel_pools = evaluation._Relation.__init__, evaluation._Relation.kernel_pools
        built, spectra_built, stale = [], [], []  # weak references; earlier objects alive per kernel_pools

        def recorded_init(rel, *args):
            init(rel, *args)
            built.append(weakref.ref(rel))

        def recorded_pools(rel, *args):
            stale.append([ref() for ref in built + spectra_built if ref() is not None and ref() is not rel])
            coords, spectra = kernel_pools(rel, *args)
            spectra_built.append(weakref.ref(spectra))
            return coords, spectra

        monkeypatch.setattr(evaluation._Relation, "__init__", recorded_init)
        monkeypatch.setattr(evaluation._Relation, "kernel_pools", recorded_pools)
        # a fresh evaluate drops each relation, with its pool spectra, before the next one's kernels
        evaluate(ds, table, EvalConfig(measure="all", subspace_dim=3, holdout=holdout))
        assert len(built) == len(stale) == len(ds.relations) == 3
        assert stale == [[]] * 3
        # a sweep builds every relation once, before its first evaluate call, for all its dimensions
        built.clear(), spectra_built.clear(), stale.clear()
        original, states = evaluation.evaluate, []

        def capturing(dataset, table_, config, **kwargs):
            states.append((len(built), kwargs["sweep_state"]))
            return original(dataset, table_, config, **kwargs)

        monkeypatch.setattr(evaluation, "evaluate", capturing)
        dimension_sweep(ds, table, EvalConfig(measure="all", holdout=holdout), [1, 2, 3, 5])
        assert len(built) == 3 and len(states) == 5
        assert all(n == 3 and state is states[0][1] for n, state in states)
        assert [ref() for ref in built] == list(states[0][1].values())

    @pytest.mark.parametrize("holdout", ["answer", "question"])
    @pytest.mark.parametrize("center", [False, True])
    def test_stacked_pool_spectra_have_the_bits_of_each_pool(self, monkeypatch, holdout, center):
        """Pools of mixed sizes, factored whole and one or two to a stacked call."""
        table, ds = _stacking_fixture()
        d, keep = 2, 3
        cfg = EvalConfig(holdout=holdout, center_subspaces=center)
        rel = evaluation._Relation(ds.relations["r"], table, cfg, keep)
        sizes = {len(idx) for head, tail, _ in rel.groups for idx in (head, tail)}
        assert len(sizes) >= 2
        calls = []

        def counted(rows, *args, **kwargs):
            calls.append(rows.shape[:2])
            return row_spectrum(rows, *args, **kwargs)

        monkeypatch.setattr(evaluation, "row_spectrum", counted)
        width = None
        for cap in (None, 1, 2):
            if cap is not None:
                # cap pools of the widest size to a call; smaller ones may take more
                monkeypatch.setattr(evaluation, "_KERNEL_BATCH_ELEMS", 16 * cap * max(sizes) * width)
            rel.frames.clear(), calls.clear()
            coords, spectra = rel.kernel_pools(table, d)
            width = coords.shape[1]
            distinct = {idx for head, tail, _ in rel.groups for idx in (head, tail)}
            assert sum(b for b, _ in calls) == len(distinct)
            if cap is not None:
                widest = sum(len(idx) == max(sizes) for idx in distinct)
                assert [b for b, n in calls if n == max(sizes)] == [min(cap, widest - i) for i in range(0, widest, cap)]
            for g, (head, tail, _) in enumerate(rel.groups):
                for side, idx in enumerate((head, tail)):
                    alone = row_spectrum(coords[list(idx)], center, ambient_dim=table.dim, keep=keep)
                    got = spectra.pool(g, side)
                    assert got.vt.tobytes() == alone.vt.tobytes() and got.vt.shape == alone.vt.shape
                    assert (got.n, got.rank) == (alone.n, alone.rank)
                    np.testing.assert_array_equal(
                        spectra.bases(g, g + 1, side, d)[0], alone.subspace(d).basis
                    )

    @pytest.mark.parametrize("make", [_low_rank_relation, _stacking_fixture])
    def test_pool_checks_raise_what_the_first_failing_pool_raises(self, make):
        """Each group's pools checked in order, as subspace_from_rows checks the full rows."""
        table, ds = make()
        rel = evaluation._Relation(next(iter(ds.relations.values())), table, EvalConfig(holdout="question"), 11)
        messages = []
        for d in range(1, 12):
            want = None
            for head, tail, _ in rel.groups:
                try:
                    for label, idx in (("head", head), ("tail", tail)):
                        if len(idx) < d:
                            raise ValueError(
                                f"only {len(idx)} usable unique words in the {label} category; "
                                f"use a subspace dimension <= {len(idx)}"
                            )
                    for idx in (head, tail):
                        subspace_from_rows(table.vectors[list(idx)], d)
                except ValueError as err:
                    want = str(err)
                    break
            if want is None:
                rel.kernel_pools(table, d)
            else:
                with pytest.raises(ValueError) as got:
                    rel.kernel_pools(table, d)
                assert str(got.value) == want, d
                messages.append(want)
        # both fixtures reach the pool-size message, the low-rank one the rank message too
        assert any("usable unique words" in m for m in messages)
        assert any("effective rank" in m for m in messages) or make is not _low_rank_relation


class TestConfig:
    def test_measure_parsing(self):
        assert EvalConfig(measure="all").measures() == (
            "CosADD", "CosMUL", "GFKCosADD", "GFKCosMUL",
        )
        assert EvalConfig(measure="cosadd").measures() == ("CosADD",)
        assert EvalConfig(measure="GFKCosMUL,cosadd").measures() == ("GFKCosMUL", "CosADD")
        with pytest.raises(ValueError, match="unknown measure"):
            EvalConfig(measure="bogus")

    def test_validation(self):
        with pytest.raises(ValueError):
            EvalConfig(epsilon=0.0)
        # a nan or infinite epsilon would make every CosMUL score nan or 0
        for epsilon in (float("nan"), float("inf"), -float("inf")):
            with pytest.raises(ValueError, match="epsilon must be positive and finite"):
                EvalConfig(epsilon=epsilon)
        with pytest.raises(ValueError):
            EvalConfig(subspace_dim=0)
        with pytest.raises(ValueError):
            EvalConfig(holdout="sometimes")
        for threads in (0, 2):
            with pytest.raises(ValueError, match="threads must be 1"):
                EvalConfig(threads=threads)
        assert EvalConfig(threads=1).threads == 1
