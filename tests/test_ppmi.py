import tracemalloc
from collections import Counter

import numpy as np
import pytest
import scipy.sparse
from hypothesis import given, settings
from hypothesis import strategies as st

from gfkanalogy.grassmann import Subspace, principal_angles
from gfkanalogy.ppmi import (
    CooccurrenceCounts,
    build_cooccurrence,
    ppmi_transform,
    read_corpus,
    truncated_svd_embed,
)


def cell(counts, word, key):
    i = counts.word_vocab[word]
    j = counts.context_vocab[key]
    return counts.counts[i, j]


def _reference_cooccurrence(docs, win, positional=False, min_count=0):
    """Per-pair loop over the corpus, the oracle for ``build_cooccurrence``."""
    if win < 1:
        raise ValueError("window size must be >= 1")
    if isinstance(docs, list) and docs and isinstance(docs[0], str):
        docs = [docs]

    freq = Counter()
    for doc in docs:
        freq.update(doc)
    kept = {w for w, n in freq.items() if n >= min_count}

    word_vocab = {}
    context_vocab = {}
    pair_counts = Counter()
    for doc in docs:
        n = len(doc)
        for p, center in enumerate(doc):
            if center not in kept:
                continue
            for q in range(max(0, p - win), min(n, p + win + 1)):
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


def assert_matches_reference(docs, win, positional, min_count):
    """Same vocabularies (items in order), CSR arrays and total, or the same error."""
    try:
        ref = _reference_cooccurrence(docs, win, positional, min_count)
    except ValueError as err:
        with pytest.raises(ValueError) as raised:
            build_cooccurrence(docs, win, positional, min_count)
        assert str(raised.value) == str(err)
        return
    got = build_cooccurrence(docs, win, positional, min_count)
    assert list(got.word_vocab.items()) == list(ref.word_vocab.items())
    assert list(got.context_vocab.items()) == list(ref.context_vocab.items())
    assert got.counts.shape == ref.counts.shape
    for name in ("indptr", "indices", "data"):
        a, b = getattr(got.counts, name), getattr(ref.counts, name)
        assert a.dtype == b.dtype, name
        np.testing.assert_array_equal(a, b, err_msg=name)
    assert type(got.total) is int and got.total == ref.total


class TestCooccurrenceMatchesReference:
    doc_lists = st.lists(st.lists(st.sampled_from("abcdef"), max_size=12), max_size=6)

    @given(doc_lists, st.integers(1, 14), st.booleans(), st.integers(0, 4))
    @settings(max_examples=300, deadline=None)
    def test_documents(self, docs, win, positional, min_count):
        assert_matches_reference(docs, win, positional, min_count)

    @given(st.lists(st.sampled_from("abcdef"), min_size=1, max_size=30),
           st.integers(1, 32), st.booleans(), st.integers(0, 4))
    @settings(max_examples=150, deadline=None)
    def test_bare_token_list(self, tokens, win, positional, min_count):
        assert_matches_reference(tokens, win, positional, min_count)

    @pytest.mark.parametrize("positional", [False, True])
    @pytest.mark.parametrize("min_count", [0, 3])
    def test_zipf_corpus(self, positional, min_count):
        rng = np.random.default_rng(4)
        words = [f"w{i}" for i in rng.zipf(1.3, size=3000) % 400]
        docs = [words[i:i + n] for i, n in zip(range(0, 3000, 150), rng.integers(0, 150, 20))]
        assert_matches_reference(docs, 5, positional, min_count)

    @pytest.mark.parametrize("docs", [[], [[]], [["a"]], [[], ["a"], []], [["a", "b"]]])
    def test_too_small_raises_like_reference(self, docs):
        assert_matches_reference(docs, 2, False, 2)
        with pytest.raises(ValueError, match="no co-occurrence pairs"):
            build_cooccurrence(docs, 2, min_count=2)

    def test_contexts_in_scan_order_not_corpus_order(self):
        # center a scans b (+1) and c (+2) before center b scans a (-1)
        counts = build_cooccurrence([["a", "b", "c"]], win=2)
        assert list(counts.context_vocab) == ["b", "c", "a"]
        assert list(counts.word_vocab) == ["a", "b", "c"]
        assert_matches_reference([["a", "b", "c"]], 2, False, 0)
        assert_matches_reference([["a", "b", "c"]], 2, True, 0)


class TestCooccurrence:
    def test_aba_window1(self):
        # positions: a(0) b(1) a(2); pairs: (a0,b1), (b1,a0), (b1,a2), (a2,b1)
        counts = build_cooccurrence([["a", "b", "a"]], win=1)
        assert counts.total == 4
        assert cell(counts, "a", "b") == 2
        assert cell(counts, "b", "a") == 2

    def test_aba_positional(self):
        counts = build_cooccurrence([["a", "b", "a"]], win=1, positional=True)
        assert counts.total == 4
        for word, key in [("a", ("b", 1)), ("b", ("a", -1)), ("b", ("a", 1)), ("a", ("b", -1))]:
            assert cell(counts, word, key) == 1

    def test_single_token_corpus_is_empty(self):
        with pytest.raises(ValueError, match="too small"):
            build_cooccurrence([["a"]], win=3)

    def test_min_count_filters_both_vocabularies(self):
        docs = [["a", "rare", "b", "a", "b", "a", "b"]]
        counts = build_cooccurrence(docs, win=1, min_count=2)
        assert "rare" not in counts.word_vocab
        assert all(
            (key if isinstance(key, str) else key[0]) != "rare"
            for key in counts.context_vocab
        )

    def test_min_count_keeps_positions(self):
        # with "rare" filtered, a and b are still 2 apart, outside win=1
        counts = build_cooccurrence([["a", "rare", "b", "a", "b", "a", "b"]], win=1, min_count=2)
        # the first a sees only "rare" (dropped); pairs come from the rest
        assert counts.total == 8

    def test_cells_past_the_int32_range(self):
        # 70,000 distinct words in a row: rows x columns is 4.9e9 > 2**32,
        # so every pair key needs 64 bits although there are only 139,998 pairs
        n = 70_000
        counts = build_cooccurrence([[f"w{i}" for i in range(n)]], win=1)
        assert counts.counts.shape == (n, n)
        assert counts.total == counts.counts.nnz == 2 * (n - 1)
        assert counts.counts.sum() == 2 * (n - 1)
        for i in (0, 1, n // 2, n - 2):
            assert cell(counts, f"w{i}", f"w{i + 1}") == 1
            assert cell(counts, f"w{i + 1}", f"w{i}") == 1
        assert cell(counts, "w0", "w2") == 0

    def test_one_word_with_a_power_of_two_of_columns(self):
        # one row of exactly 128 positional columns: a key type that only just
        # holds rows x columns could not hold the column count itself
        n, win = 100, 64
        counts = build_cooccurrence([["a"] * n], win=win, positional=True)
        assert counts.counts.shape == (1, 2 * win)
        for off in [*range(-win, 0), *range(1, win + 1)]:
            assert cell(counts, "a", ("a", off)) == n - abs(off)

    def test_windows_do_not_cross_documents(self):
        counts = build_cooccurrence([["a", "b"], ["c", "d"]], win=5)
        assert ("a", counts.context_vocab.get("d")) is not None  # vocab exists
        assert "d" in counts.context_vocab
        i = counts.word_vocab["a"]
        j = counts.context_vocab["d"]
        assert counts.counts[i, j] == 0

    def test_reversal_invariance_example(self):
        fwd = build_cooccurrence([["x", "y", "z", "y"]], win=2)
        rev = build_cooccurrence([["y", "z", "y", "x"]], win=2)
        for w in fwd.word_vocab:
            for c in fwd.context_vocab:
                assert cell(fwd, w, c) == rev.counts[rev.word_vocab[w], rev.context_vocab[c]]

    @given(st.lists(st.sampled_from("abc"), min_size=2, max_size=30), st.integers(1, 4))
    @settings(max_examples=50, deadline=None)
    def test_reversal_invariance_property(self, tokens, win):
        fwd = build_cooccurrence([tokens], win=win)
        rev = build_cooccurrence([tokens[::-1]], win=win)
        assert fwd.total == rev.total
        for w, i in fwd.word_vocab.items():
            for c, j in fwd.context_vocab.items():
                assert fwd.counts[i, j] == rev.counts[rev.word_vocab[w], rev.context_vocab[c]]


class TestPpmi:
    def test_aba_fixture_log2(self):
        counts = build_cooccurrence([["a", "b", "a"]], win=1)
        ppmi = ppmi_transform(counts)
        i, j = counts.word_vocab["a"], counts.context_vocab["b"]
        # PMI(a,b) = log(2 * 4 / (2 * 2)) = log 2
        assert ppmi[i, j] == pytest.approx(np.log(2.0), abs=1e-12)

    def test_zero_cells_stay_zero(self):
        counts = build_cooccurrence([["a", "b", "a"]], win=1)
        ppmi = ppmi_transform(counts)
        i = counts.word_vocab["a"]
        j = counts.context_vocab["a"]
        assert ppmi[i, j] == 0.0

    def test_uniform_counts_give_all_zero(self):
        from gfkanalogy.ppmi import CooccurrenceCounts

        counts = CooccurrenceCounts(
            word_vocab={"a": 0, "b": 1},
            context_vocab={"a": 0, "b": 1},
            counts=scipy.sparse.csr_matrix(np.full((2, 2), 3)),
            total=12,
        )
        ppmi = ppmi_transform(counts)
        assert ppmi.nnz == 0

    @given(
        st.lists(st.sampled_from(["a", "b", "c", "d"]), min_size=2, max_size=40),
        st.integers(1, 3),
    )
    @settings(max_examples=50, deadline=None)
    def test_ppmi_nonnegative(self, tokens, win):
        counts = build_cooccurrence([tokens], win=win)
        ppmi = ppmi_transform(counts)
        assert np.all(ppmi.data >= 0)


class TestTruncatedSvd:
    def test_identity_matrix(self):
        table = truncated_svd_embed(np.eye(3), ["a", "b", "c"], dim=2, eigen_weight=1.0)
        assert table.dim == 2
        # reconstruction error equals the dropped singular value (1.0)
        u = table.vectors  # U * Sigma with sigma = 1 -> orthonormal columns
        err = np.linalg.norm(np.eye(3) - u @ u.T)
        assert err == pytest.approx(1.0, abs=1e-10)

    def test_diagonal_norms(self):
        table = truncated_svd_embed(np.diag([3.0, 2.0, 1.0]), list("abc"), dim=2, eigen_weight=1.0)
        norms = sorted(np.linalg.norm(table.vectors, axis=1), reverse=True)
        np.testing.assert_allclose(norms, [3.0, 2.0, 0.0], atol=1e-12)

    def test_reconstruction_error_matches_full_svd_oracle(self):
        rng = np.random.default_rng(11)
        tokens = rng.choice(list("abcdefghijkl"), size=1000).tolist()
        counts = build_cooccurrence([tokens], win=2)
        m = ppmi_transform(counts)
        dense = m.toarray()
        u_full, s_full, vt_full = np.linalg.svd(dense, full_matrices=False)
        d = 10
        recon = (u_full[:, :d] * s_full[:d]) @ vt_full[:d]
        err = np.linalg.norm(dense - recon)
        oracle = np.sqrt(np.sum(s_full[d:] ** 2))
        assert err == pytest.approx(oracle, abs=1e-8)

    def test_error_nonincreasing_in_dim(self):
        rng = np.random.default_rng(5)
        m = rng.random((8, 6))
        u_full, s_full, vt_full = np.linalg.svd(m, full_matrices=False)
        errors = [
            np.linalg.norm(m - (u_full[:, :d] * s_full[:d]) @ vt_full[:d])
            for d in range(1, 6)
        ]
        assert all(e1 >= e2 - 1e-12 for e1, e2 in zip(errors, errors[1:]))

    def test_rank_deficient_warns_and_truncates(self):
        m = np.outer([1.0, 2.0, 3.0], [1.0, 0.0, 1.0])  # rank 1
        with pytest.warns(UserWarning, match="rank"):
            table = truncated_svd_embed(m, list("abc"), dim=2)
        assert table.dim == 1

    def test_eigen_weight_scales_columns(self):
        m = np.diag([4.0, 1.0]) @ np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2)
        t0 = truncated_svd_embed(m, ["a", "b"], dim=2, eigen_weight=0.0)
        t1 = truncated_svd_embed(m, ["a", "b"], dim=2, eigen_weight=1.0)
        _, s, _ = np.linalg.svd(m)
        np.testing.assert_allclose(np.abs(t1.vectors), np.abs(t0.vectors * s), atol=1e-12)

    def test_dim_exceeding_matrix_side_rejected(self):
        with pytest.raises(ValueError, match="exceeds"):
            truncated_svd_embed(np.eye(3), list("abc"), dim=4)

    def test_sparse_path_matches_dense(self, monkeypatch):
        import gfkanalogy.ppmi as ppmi_mod

        rng = np.random.default_rng(0)
        dense = rng.random((30, 20))
        dense[dense < 0.7] = 0.0
        sparse = scipy.sparse.csr_matrix(dense)
        monkeypatch.setattr(ppmi_mod, "DENSE_SVD_LIMIT", 5)
        words = [f"w{i}" for i in range(30)]
        via_svds = truncated_svd_embed(sparse, words, dim=4, eigen_weight=1.0)
        monkeypatch.setattr(ppmi_mod, "DENSE_SVD_LIMIT", 5000)
        via_dense = truncated_svd_embed(sparse, words, dim=4, eigen_weight=1.0)
        # singular vectors match up to column signs
        gram_a = via_svds.vectors @ via_svds.vectors.T
        gram_b = via_dense.vectors @ via_dense.vectors.T
        np.testing.assert_allclose(gram_a, gram_b, atol=1e-8)

    def test_sparse_path_is_reproducible(self, monkeypatch):
        import gfkanalogy.ppmi as ppmi_mod

        rng = np.random.default_rng(1)
        dense = rng.random((40, 30))
        dense[dense < 0.7] = 0.0
        sparse = scipy.sparse.csr_matrix(dense)
        words = [f"w{i}" for i in range(40)]
        monkeypatch.setattr(ppmi_mod, "DENSE_SVD_LIMIT", 5)
        first = truncated_svd_embed(sparse, words, dim=5)
        second = truncated_svd_embed(sparse, words, dim=5)
        np.testing.assert_array_equal(first.vectors, second.vectors)
        monkeypatch.setattr(ppmi_mod, "DENSE_SVD_LIMIT", 5000)
        via_dense = truncated_svd_embed(sparse, words, dim=5)
        # both paths put each column's largest-magnitude entry on the positive side
        for vectors in (first.vectors, via_dense.vectors):
            pivots = vectors[np.argmax(np.abs(vectors), axis=0), np.arange(5)]
            assert np.all(pivots > 0)

    def test_wide_sparse_path_matches_dense(self, monkeypatch):
        import gfkanalogy.ppmi as ppmi_mod

        # the positional shape: fewer words than contexts
        rng = np.random.default_rng(2)
        dense = rng.random((20, 60))
        dense[dense < 0.7] = 0.0
        sparse = scipy.sparse.csr_matrix(dense)
        words = [f"w{i}" for i in range(20)]
        monkeypatch.setattr(ppmi_mod, "DENSE_SVD_LIMIT", 5)
        via_eigsh = truncated_svd_embed(sparse, words, dim=6, eigen_weight=1.0)
        monkeypatch.setattr(ppmi_mod, "DENSE_SVD_LIMIT", 5000)
        via_dense = truncated_svd_embed(sparse, words, dim=6, eigen_weight=1.0)
        sigma = np.linalg.norm(via_dense.vectors, axis=0)
        np.testing.assert_allclose(np.linalg.norm(via_eigsh.vectors, axis=0), sigma, rtol=1e-12)
        np.testing.assert_allclose(via_eigsh.vectors @ via_eigsh.vectors.T,
                                   via_dense.vectors @ via_dense.vectors.T,
                                   rtol=0, atol=1e-12 * sigma[0] ** 2)

    def test_rank_deficient_sparse_path_warns_and_truncates(self, monkeypatch):
        import gfkanalogy.ppmi as ppmi_mod

        # rank 17 of 30: the other four eigenvalues of X Xᵀ come out as noise
        # whose square roots are over ten times the rank tolerance, while the
        # norms |Xᵀu| of their eigenvectors stay far below it
        rng = np.random.default_rng(3)
        dense = rng.random((30, 17)) @ rng.random((17, 45))
        dense[:, rng.random(45) < 0.5] = 0.0
        sparse = scipy.sparse.csr_matrix(dense)
        words = [f"w{i}" for i in range(30)]
        monkeypatch.setattr(ppmi_mod, "DENSE_SVD_LIMIT", 5)
        with pytest.warns(UserWarning, match="rank"):
            via_eigsh = truncated_svd_embed(sparse, words, dim=21, eigen_weight=1.0)
        monkeypatch.setattr(ppmi_mod, "DENSE_SVD_LIMIT", 5000)
        with pytest.warns(UserWarning, match="rank"):
            via_dense = truncated_svd_embed(sparse, words, dim=21, eigen_weight=1.0)
        assert via_eigsh.dim == via_dense.dim == 17
        np.testing.assert_allclose(np.linalg.norm(via_eigsh.vectors, axis=0),
                                   np.linalg.norm(via_dense.vectors, axis=0), rtol=1e-12)

    def test_positional_sparse_path_never_holds_xt_u(self, monkeypatch):
        import gfkanalogy.ppmi as ppmi_mod

        # positional contexts make X ten times wider than tall, so an
        # n_cols x dim product Xᵀu would outweigh everything else the SVD holds
        rng = np.random.default_rng(5)
        tokens = [f"w{i}" for i in rng.zipf(1.1, size=20_000) % 3000]
        matrix = ppmi_transform(build_cooccurrence([tokens], 5, positional=True))
        n_rows, n_cols = matrix.shape
        assert n_cols >= 10 * n_rows
        dim = 50
        monkeypatch.setattr(ppmi_mod, "DENSE_SVD_LIMIT", 5)
        tracemalloc.start()
        try:
            table = truncated_svd_embed(matrix, [f"x{i}" for i in range(n_rows)], dim=dim)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert table.dim == dim
        assert peak < n_cols * dim * 8

    def test_integer_counts_match_their_float_copy(self, monkeypatch):
        import gfkanalogy.ppmi as ppmi_mod

        rng = np.random.default_rng(4)
        counts = rng.integers(0, 4, size=(30, 30)) * (rng.random((30, 30)) < 0.4)
        sparse = scipy.sparse.csr_matrix(counts)
        assert sparse.dtype == np.int64
        words = [f"w{i}" for i in range(30)]
        monkeypatch.setattr(ppmi_mod, "DENSE_SVD_LIMIT", 5)
        as_int = truncated_svd_embed(sparse, words, dim=5)
        as_float = truncated_svd_embed(sparse.astype(np.float64), words, dim=5)
        np.testing.assert_array_equal(as_int.vectors, as_float.vectors)


class TestCorpusReader:
    def test_blank_lines_separate_documents(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("a b\nc\n\n\nd e f\n", encoding="utf-8")
        assert read_corpus(str(path)) == [["a", "b", "c"], ["d", "e", "f"]]

    def test_pipeline_end_to_end(self):
        rng = np.random.default_rng(1)
        tokens = rng.choice(list("abcdefgh"), size=400).tolist()
        counts = build_cooccurrence([tokens], win=2, positional=False, min_count=0)
        table = truncated_svd_embed(ppmi_transform(counts), counts.words, dim=4)
        assert table.dim == 4
        assert set(table.words) == set(counts.word_vocab)



class TestTrainerOracle:
    """The trainer recovers the PPMI span of a known pair distribution, converging as it samples more.

    Pairs (i, j) drawn from a symmetric J, as two-token documents and counted
    with win=1, have expected counts 2 N J_ij, so their PPMI estimates
    M = max(0, log(J_ij / (P_i P_j))), P the marginal of J. Its top-k span is
    compared with the trainer's, as the largest principal angle.
    """

    N_WORDS, K = 300, 10

    def joint(self):
        """J ∝ p pᵀ ∘ exp(B Bᵀ), p Zipf with exponent 0.5, B N_WORDS x K.

        The PMI of J is the rank-K B Bᵀ plus one term per row and per column.
        """
        p = 1.0 / np.sqrt(np.arange(1, self.N_WORDS + 1))
        b = 0.4 * np.random.default_rng(0).standard_normal((self.N_WORDS, self.K))
        joint = np.outer(p, p) * np.exp(b @ b.T)
        return joint / joint.sum()

    def largest_angle(self, joint, span, n_pairs):
        n = self.N_WORDS
        docs = [[f"w{c // n}", f"w{c % n}"] for c in range(n * n)]
        cells = np.random.default_rng(0).choice(n * n, size=n_pairs, p=joint.ravel())
        # documents of one pair share one list: the corpus is N references
        counts = build_cooccurrence([docs[c] for c in cells.tolist()], win=1)
        table = truncated_svd_embed(ppmi_transform(counts), counts.words, self.K)
        rows = np.zeros((n, self.K))  # in J's word order; a word never drawn is a zero row
        rows[[int(w[1:]) for w in table.words]] = table.vectors
        return np.degrees(principal_angles(Subspace(np.linalg.qr(rows)[0]), span).theta[-1])

    def test_span_converges_to_the_exact_ppmi_span(self):
        joint = self.joint()
        marginal = joint.sum(axis=1)
        exact = np.maximum(np.log(joint / np.outer(marginal, marginal)), 0.0)
        span = Subspace(np.linalg.svd(exact)[0][:, : self.K])
        coarse, fine = (self.largest_angle(joint, span, n) for n in (100_000, 1_000_000))
        # the angle falls about as 1/sqrt(N): 30.0 and 11.2 degrees here,
        # 27.6-35.1 and 10.1-13.3 over ten sampling seeds
        assert coarse >= 2 * fine
        assert fine < 16.0
