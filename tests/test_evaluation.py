import io
import math
import threading
from dataclasses import replace

import numpy as np
import pytest

from gfkanalogy import evaluation
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
from gfkanalogy.grassmann import GfkKernel, gfk, principal_angles, row_spectrum, subspace_from_rows
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
    target = [
        x - a + b
        for a, b, x in zip(table.lookup(q.a), table.lookup(q.b), table.lookup(q.x))
    ]
    scored = []
    for i, word in enumerate(table.words):
        if exclude_inputs and word in (q.a, q.b, q.x) and word != q.y:
            continue
        scored.append((-brute_cosine(table.vectors[i], target), i))
    scored.sort()
    return [i for _, i in scored], [-s for s, _ in scored]


def brute_mul_ranking(table, q, epsilon=0.001, shift=True, exclude_inputs=True):
    scored = []
    for i, word in enumerate(table.words):
        if exclude_inputs and word in (q.a, q.b, q.x) and word != q.y:
            continue
        db = brute_cosine(table.vectors[i], table.lookup(q.b))
        dx = brute_cosine(table.vectors[i], table.lookup(q.x))
        da = brute_cosine(table.vectors[i], table.lookup(q.a))
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
    pool's numerical span.
    """
    rng = np.random.default_rng(21)
    span = rng.standard_normal((4, 40))
    pairs = rng.standard_normal((16, 4)) @ span
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

    @pytest.mark.parametrize("holdout", HOLDOUTS)
    def test_each_kernel_projects_the_vocabulary_once(self, monkeypatch, holdout):
        table, ds = generate(SynthSpec(n_relations=2, pairs_per_relation=8, dim=12, seed=3))
        table = table.normalized()
        calls = {"gfk": 0, "project": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(evaluation, "gfk", counted("gfk", gfk))
        monkeypatch.setattr(GfkKernel, "project", counted("project", GfkKernel.project))
        monkeypatch.setattr(evaluation, "_CHUNK_ELEMS", 1)  # one question per chunk
        reports = evaluate(ds, table, EvalConfig(measure="all", subspace_dim=4, holdout=holdout))
        assert not any(rep.skipped for rep in reports.values())
        assert calls["gfk"] >= 2 and calls["project"] == calls["gfk"]

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

    def test_determinism_and_threads(self):
        from gfkanalogy.synth import SynthSpec, generate

        table, ds = generate(SynthSpec(n_relations=2, pairs_per_relation=8, dim=12, seed=3))
        table = table.normalized()
        cfg1 = EvalConfig(measure="all", subspace_dim=4, holdout="answer", threads=1)
        cfg2 = EvalConfig(measure="all", subspace_dim=4, holdout="answer", threads=3)
        r1 = evaluate(ds, table, cfg1)
        r1b = evaluate(ds, table, cfg1)
        r2 = evaluate(ds, table, cfg2)
        for m in r1:
            for rel in r1[m].per_relation:
                a, b, c = (
                    r1[m].per_relation[rel],
                    r1b[m].per_relation[rel],
                    r2[m].per_relation[rel],
                )
                assert (a.n_correct, a.rank_sum) == (b.n_correct, b.rank_sum)
                assert (a.n_correct, a.rank_sum) == (c.n_correct, c.rank_sum)

    def test_one_thread_pool_per_call(self, monkeypatch):
        # each worker thread sets up its own workspace once: one pool per
        # evaluate call, not one per relation
        table, ds = generate(SynthSpec(n_relations=3, pairs_per_relation=8, dim=12, seed=3))
        table = table.normalized()
        init = evaluation._Workspace.__init__
        setups = []

        def counted(self):
            setups.append(threading.get_ident())
            init(self)

        monkeypatch.setattr(evaluation._Workspace, "__init__", counted)
        cfg = EvalConfig(measure="all", subspace_dim=4, holdout="answer", threads=2)
        reports = evaluate(ds, table, cfg)
        assert len(reports["GFKCosADD"].per_relation) == 3
        assert len(setups) <= 1 + cfg.threads

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
            monkeypatch.setattr(evaluation, "_CHUNK_ELEMS", chunk_elems)
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
        monkeypatch.setattr(evaluation, "_CHUNK_ELEMS", chunk_elems)

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
            assert set(state.relations["chain"].frames) == ({8, 10} if holdout == "answer" else {None})
        assert fresh[1, "GFKCosADD,GFKCosMUL"]["GFKCosADD"].oov_counts["rot"] == 1

    def test_each_pool_is_factored_once_per_sweep(self, monkeypatch):
        table, ds = generate(SynthSpec(n_relations=2, pairs_per_relation=8, dim=40, seed=3))
        table = table.normalized()
        factored = []

        def counted(rows, *args, **kwargs):
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
        [state] = set(states)
        relations = state.relations.values()
        # the pool basis is shared by all three dimensions
        assert all(len(rel.frames) == 1 for rel in relations)
        n_groups = sum(len(rel.groups) for rel in relations)
        assert len(factored) == 2 * n_groups
        assert not [a.shape for a in _arrays_in(state) if a.ndim and len(a) == len(table)]

    def test_state_refused_for_other_inputs(self):
        table, ds = generate(SynthSpec(n_relations=2, pairs_per_relation=8, dim=12, seed=3))
        cfg = EvalConfig(measure="GFKCosADD", subspace_dim=4, holdout="answer")
        state = evaluation._SweepState(ds, table, cfg, 4)
        evaluate(ds, table, cfg, sweep_state=state)
        for other in (replace(cfg, holdout="question"), replace(cfg, subspace_dim=5)):
            with pytest.raises(ValueError, match="sweep_state"):
                evaluate(ds, table, other, sweep_state=state)
        with pytest.raises(ValueError, match="sweep_state"):
            evaluate(ds, table.normalized(), cfg, sweep_state=state)


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
        with pytest.raises(ValueError):
            EvalConfig(subspace_dim=0)
        with pytest.raises(ValueError):
            EvalConfig(holdout="sometimes")
        with pytest.raises(ValueError):
            EvalConfig(threads=0)
