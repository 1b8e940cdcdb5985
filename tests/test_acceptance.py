"""Acceptance suite: one test per exit criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines. Every tolerance is pinned here; nothing is deferred to calibration.
"""

import math
import os
import time
from pathlib import Path

import numpy as np
import pytest

from gfkanalogy.cli import main
from gfkanalogy.datasets import AnalogyQuestion, RelationDataset, parse_google
from gfkanalogy.embeddings import EmbeddingTable, load_text_embeddings
from gfkanalogy.evaluation import (
    EvalConfig,
    cos_add_answer,
    cos_mul_answer,
    evaluate,
    gfk_answer,
)
from gfkanalogy.grassmann import (
    GfkKernel,
    Subspace,
    geodesic_point,
    gfk,
    gfk_numeric_oracle,
    gfk_similarity,
    principal_angles,
    subspace_from_rows,
)
from gfkanalogy.ppmi import build_cooccurrence, ppmi_transform
from gfkanalogy.synth import coordinate_scales, random_rotation


def check(name: str, ok: bool, detail: str = ""):
    print(f"{'PASS' if ok else 'FAIL'}  {name}" + (f"  [{detail}]" if detail else ""))
    assert ok, f"{name}: {detail}"


def random_pairs(n_pairs=100, big_d=20, d=3, seed=20250809):
    rng = np.random.default_rng(seed)
    pairs = []
    for _ in range(n_pairs):
        ph = subspace_from_rows(rng.standard_normal((2 * d + 4, big_d)), d)
        pt = subspace_from_rows(rng.standard_normal((2 * d + 4, big_d)), d)
        pairs.append((ph, pt, principal_angles(ph, pt)))
    return pairs


@pytest.fixture(scope="module")
def pairs100():
    return random_pairs()


def test_kernel_closed_form_vs_integral_oracle(pairs100):
    start = time.time()
    worst = 0.0
    for _, _, pa in pairs100:
        closed = gfk(pa).materialize()
        numeric = gfk_numeric_oracle(pa, 10_000)
        rel = np.linalg.norm(closed - 2.0 * numeric) / np.linalg.norm(closed)
        worst = max(worst, rel)
    elapsed = time.time() - start
    check(
        "closed-form kernel vs 10k-node trapezoid oracle on 100 pairs",
        worst < 1e-6 and elapsed < 10.0,
        f"worst rel err {worst:.2e}, {elapsed:.1f}s",
    )


def test_geodesic_endpoints(pairs100):
    worst0 = worst1 = 0.0
    for ph, pt, pa in pairs100:
        p0 = geodesic_point(pa, 0.0)
        p1 = geodesic_point(pa, 1.0)
        worst0 = max(worst0, np.linalg.norm(p0.projector() - ph.projector()))
        worst1 = max(worst1, np.linalg.norm(p1.projector() - pt.projector()))
    check(
        "geodesic endpoints land on source and target spans",
        worst0 < 1e-8 and worst1 < 1e-8,
        f"max projector errors {worst0:.2e}, {worst1:.2e}",
    )


def test_path_orthonormality(pairs100):
    worst = 0.0
    eye = np.eye(3)
    for _, _, pa in pairs100:
        for t in np.linspace(0.0, 1.0, 11):
            phi = geodesic_point(pa, t).basis
            worst = max(worst, np.linalg.norm(phi.T @ phi - eye))
    check("flow stays orthonormal on the t grid", worst < 1e-10, f"max {worst:.2e}")


def test_lambda_limit_cases():
    rng = np.random.default_rng(1)
    basis, _ = np.linalg.qr(rng.standard_normal((10, 3)))
    sub = Subspace(basis)
    same = gfk(principal_angles(sub, sub)).materialize()
    err_same = np.linalg.norm(same - 2.0 * sub.projector())
    e = np.eye(3)
    right = gfk(principal_angles(Subspace(e[:, :1]), Subspace(e[:, 1:2])))
    lam = right.lam
    err_right = max(
        abs(lam[0, 0] - 1.0), abs(lam[1, 1] - 1.0), abs(lam[0, 1] - (-2.0 / np.pi))
    )
    check(
        "kernel limits: identical subspaces give 2PP^T; right angle gives (1, -2/pi, 1)",
        err_same < 1e-10 and err_right < 1e-12,
        f"identical {err_same:.2e}, right-angle {err_right:.2e}",
    )


def test_psd_and_scale_invariance(pairs100):
    min_eig = np.inf
    worst_delta = 0.0
    rng = np.random.default_rng(2)
    for _, _, pa in pairs100[:20]:
        kernel = gfk(pa)
        min_eig = min(min_eig, np.linalg.eigvalsh(kernel.lam).min())
        for c in (0.5, 3.0):
            scaled = GfkKernel(
                f=kernel.f, lam=c * kernel.lam, lam_sqrt=math.sqrt(c) * kernel.lam_sqrt
            )
            for _ in range(5):
                x = rng.standard_normal(20)
                y = rng.standard_normal(20)
                worst_delta = max(
                    worst_delta,
                    abs(gfk_similarity(scaled, x, y) - gfk_similarity(kernel, x, y)),
                )
    check(
        "coefficient matrix PSD and similarity scale-invariant for c in {0.5, 3}",
        min_eig >= -1e-10 and worst_delta < 1e-12,
        f"min eig {min_eig:.2e}, max delta {worst_delta:.2e}",
    )


def test_basis_rotation_invariance(pairs100):
    rng = np.random.default_rng(3)
    worst_theta = worst_sim = 0.0
    for ph, pt, pa in pairs100[:10]:
        q1, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        q2, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        pa_rot = principal_angles(Subspace(ph.basis @ q1), Subspace(pt.basis @ q2))
        worst_theta = max(worst_theta, np.abs(pa_rot.theta - pa.theta).max())
        k1, k2 = gfk(pa), gfk(pa_rot)
        for _ in range(5):
            x = rng.standard_normal(20)
            y = rng.standard_normal(20)
            worst_sim = max(
                worst_sim, abs(gfk_similarity(k1, x, y) - gfk_similarity(k2, x, y))
            )
    check(
        "angles and kernel similarities invariant to basis rotation",
        worst_theta < 1e-8 and worst_sim < 1e-8,
        f"max theta delta {worst_theta:.2e}, max sim delta {worst_sim:.2e}",
    )


def test_identity_kernel_reduction():
    rng = np.random.default_rng(4)
    table = EmbeddingTable([f"w{i}" for i in range(50)], rng.standard_normal((50, 8)))
    kernel = GfkKernel.identity(8)
    questions = []
    for _ in range(30):
        ia, ib, ix, iy = rng.choice(50, size=4, replace=False)
        questions.append(AnalogyQuestion(f"w{ia}", f"w{ib}", f"w{ix}", f"w{iy}", "r"))
    add_ok = all(
        np.array_equal(
            cos_add_answer(q, table).indices,
            gfk_answer(q, table, kernel, mode="add").indices,
        )
        for q in questions
    )
    mul_ok = all(
        np.array_equal(
            cos_mul_answer(q, table).indices,
            gfk_answer(q, table, kernel, mode="mul").indices,
        )
        for q in questions
    )
    check(
        "identity kernel reproduces plain rankings exactly (50-word vocabulary)",
        add_ok and mul_ok,
        f"additive {add_ok}, multiplicative {mul_ok}",
    )


def test_brute_force_analogy_oracle():
    def brute_cos(u, v):
        dot = sum(p * r for p, r in zip(u, v))
        return dot / (math.sqrt(sum(p * p for p in u)) * math.sqrt(sum(r * r for r in v)))

    rng = np.random.default_rng(5)
    table = EmbeddingTable([f"w{i}" for i in range(10)], rng.standard_normal((10, 6)))
    q = AnalogyQuestion("w0", "w4", "w7", "w9", "r")
    # the stored float32 values, read as Python floats: the arithmetic is float64
    vectors = table.vectors.tolist()
    a, b, x = (vectors[table.index[w]] for w in ("w0", "w4", "w7"))

    target = [xi - ai + bi for ai, bi, xi in zip(a, b, x)]
    add_expected = sorted(
        (
            (-brute_cos(vectors[i], target), i)
            for i in range(10)
            if table.words[i] not in ("w0", "w4", "w7")
        ),
    )
    got_add = cos_add_answer(q, table)
    add_ok = np.array_equal(got_add.indices, [i for _, i in add_expected]) and np.allclose(
        got_add.scores, [-s for s, _ in add_expected], rtol=0, atol=1e-12
    )

    mul_expected = []
    for i in range(10):
        if table.words[i] in ("w0", "w4", "w7"):
            continue
        db = (brute_cos(vectors[i], b) + 1) / 2
        dx = (brute_cos(vectors[i], x) + 1) / 2
        da = (brute_cos(vectors[i], a) + 1) / 2
        mul_expected.append((-(db * dx / (da + 0.001)), i))
    mul_expected.sort()
    got_mul = cos_mul_answer(q, table)
    mul_ok = np.array_equal(got_mul.indices, [i for _, i in mul_expected]) and np.allclose(
        got_mul.scores, [-s for s, _ in mul_expected], rtol=0, atol=1e-12
    )
    check(
        "additive and multiplicative rules match an exhaustive scorer (10 words)",
        add_ok and mul_ok,
        f"additive {add_ok}, multiplicative {mul_ok}",
    )


def test_ppmi_fixture():
    counts = build_cooccurrence([["a", "b", "a"]], win=1)
    ppmi = ppmi_transform(counts)
    i, j = counts.word_vocab["a"], counts.context_vocab["b"]
    err = abs(ppmi[i, j] - math.log(2.0))

    import scipy.sparse

    from gfkanalogy.ppmi import CooccurrenceCounts

    uniform = CooccurrenceCounts(
        word_vocab={"a": 0, "b": 1},
        context_vocab={"a": 0, "b": 1},
        counts=scipy.sparse.csr_matrix(np.full((2, 2), 5)),
        total=20,
    )
    all_zero = ppmi_transform(uniform).nnz == 0
    check(
        "PPMI fixture: 'a b a' gives log 2; uniform counts give zero matrix",
        err < 1e-12 and all_zero,
        f"log2 err {err:.2e}, uniform zero {all_zero}",
    )


def test_synthetic_rotation_benchmark(tmp_path):
    start = time.time()
    emb = str(tmp_path / "synth_emb.txt")
    data = str(tmp_path / "synth_questions.txt")
    rc = main([
        "synth", "--out-embeddings", emb, "--out-dataset", data,
        "--n-relations", "3", "--pairs-per-relation", "40",
        "--dim", "50", "--noise", "0.05", "--seed", "7",
    ])
    assert rc == 0
    table = load_text_embeddings(emb, normalize=True)
    dataset = parse_google(data)
    config = EvalConfig(measure="all", subspace_dim=15, holdout="answer")
    reports = evaluate(dataset, table, config)
    acc = {m: r.micro_accuracy for m, r in reports.items()}
    elapsed = time.time() - start
    ok = (
        acc["GFKCosADD"] >= acc["CosADD"]
        and acc["GFKCosMUL"] >= acc["CosMUL"]
        and elapsed < 60.0
    )
    check(
        "synthetic rotation benchmark: kernel measures beat their plain counterparts",
        ok,
        f"CosADD {acc['CosADD']:.3f} vs GFKCosADD {acc['GFKCosADD']:.3f}; "
        f"CosMUL {acc['CosMUL']:.3f} vs GFKCosMUL {acc['GFKCosMUL']:.3f}; {elapsed:.1f}s",
    )


def test_average_rank_bookkeeping():
    def unit(*v):
        v = np.asarray(v, dtype=float)
        return v / np.linalg.norm(v)

    dim = 12
    rows = {}

    def put(name, vec):
        rows[name] = np.asarray(vec, dtype=float)

    e = np.eye(dim)
    # block 1: gold lands at rank 3 behind two nearer candidates
    put("a1", e[0]); put("x1", e[1])
    put("gold1", unit(e[1] + 0.4 * e[2]))
    put("n11", unit(e[1] + 0.1 * e[2]))
    put("n12", unit(e[1] + 0.2 * e[2]))
    # block 2: gold at rank 2 behind one nearer candidate
    put("a2", e[4]); put("x2", e[5])
    put("gold2", unit(e[5] + 0.1 * e[6]))
    put("m2", unit(e[5] + 0.05 * e[6]))
    # block 3: gold at rank 1
    put("a3", e[8]); put("x3", e[9])
    put("gold3", unit(e[9] + 0.05 * e[10]))

    table = EmbeddingTable(list(rows), np.vstack(list(rows.values())))
    ds = RelationDataset()
    ds.add(AnalogyQuestion("a1", "a1", "x1", "gold1", "r"))
    ds.add(AnalogyQuestion("a2", "a2", "x2", "gold2", "r"))
    ds.add(AnalogyQuestion("a3", "a3", "x3", "gold3", "r"))
    report = evaluate(ds, table, EvalConfig(measure="CosADD"))["CosADD"]
    res = report.per_relation["r"]
    ok = (
        res.n_questions == 3
        and res.rank_sum == 6.0
        and res.average_rank == 2.0
        and res.accuracy == pytest.approx(1.0 / 3.0, abs=0)
    )
    check(
        "average rank bookkeeping: hand-built ranks (3, 2, 1) average exactly 2",
        ok,
        f"ranks sum {res.rank_sum}, average {res.average_rank}",
    )


def test_same_distribution_pools_have_smaller_angles():
    dim, n, tau, noise = 50, 400, 3.0, 0.05
    rng = np.random.default_rng(7)
    scales = coordinate_scales(dim, tau)
    rotation = random_rotation(rng, dim, np.pi / 2)
    heads = rng.standard_normal((n, dim)) * scales
    second_heads = rng.standard_normal((n, dim)) * scales
    tails = heads @ rotation.T + noise * rng.standard_normal((n, dim))
    ok = True
    detail = []
    for d in range(1, 11):
        a = subspace_from_rows(heads, d)
        x = subspace_from_rows(second_heads, d)
        b = subspace_from_rows(tails, d)
        ax = principal_angles(a, x).theta.max()
        ab = principal_angles(a, b).theta.max()
        ok = ok and ax <= ab
        detail.append(f"d={d}: {np.degrees(ax):.0f}<={np.degrees(ab):.0f}")
    check(
        "largest principal angle: same-distribution pools below head/tail pools at every d",
        ok,
        "; ".join(detail[:4]) + " ...",
    )


LARGE_EMB = os.environ.get("GFKANALOGY_EMBEDDINGS")
LARGE_GOOGLE = os.environ.get("GFKANALOGY_GOOGLE")


@pytest.mark.skipif(
    not (LARGE_EMB and LARGE_GOOGLE),
    reason="set GFKANALOGY_EMBEDDINGS and GFKANALOGY_GOOGLE to run the "
    "large-scale reproduction path",
)
def test_optional_large_scale_path(tmp_path):
    out = str(tmp_path / "large_report.csv")
    rc = main([
        "eval", "--embeddings", LARGE_EMB, "--dataset", LARGE_GOOGLE,
        "--measure", "all", "--subspace-dim", "40", "--epsilon", "0.001",
        "--out", out,
    ])
    content = Path(out).read_text()
    ok = rc == 0 and content.count("micro,") == 4
    check("large-scale eval completes and reports all four measures", ok)
