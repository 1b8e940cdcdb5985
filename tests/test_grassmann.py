import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gfkanalogy.grassmann import (
    DEGENERATE_ANGLE,
    SMALL_ANGLE,
    GfkKernel,
    PrincipalAngleDecomposition,
    Subspace,
    geodesic_point,
    gfk,
    gfk_numeric_oracle,
    gfk_similarity,
    principal_angles,
    row_spectrum,
    subspace_from_rows,
)


def random_subspace(rng, big_d, d):
    return subspace_from_rows(rng.standard_normal((2 * d + 3, big_d)), d)


def random_pair(seed, big_d=6, d=2):
    rng = np.random.default_rng(seed)
    return random_subspace(rng, big_d, d), random_subspace(rng, big_d, d)


def span_basis(*vectors):
    q, _ = np.linalg.qr(np.column_stack(vectors))
    return Subspace(q)


def shared_direction_pair():
    # D = 2d with one shared direction: its complement direction comes from
    # an orthonormal completion that has exactly one dimension to choose from
    rng = np.random.default_rng(7)
    q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
    ph = Subspace(q[:, :3])
    pt = span_basis(
        q[:, 0],
        np.cos(0.4) * q[:, 1] + np.sin(0.4) * q[:, 3],
        np.cos(1.1) * q[:, 2] + np.sin(1.1) * q[:, 4],
    )
    return ph, pt


def reference_block_root(theta):
    """(1 - q, the root of one angle's block) with q = sin(theta) / theta.

    The block [[lambda1, lambda2], [lambda2, lambda3]] is I + q F, F the
    reflection across the line at -theta/2, so R = rotation by -theta/2
    diagonalizes it: root = R diag(sqrt(1 + q), sqrt(1 - q)) R^T. 1 - q is
    its Taylor series summed in exact rational arithmetic, rounded once.
    """
    x = Fraction(theta)
    gap = sum(Fraction((-1) ** (k + 1), math.factorial(2 * k + 1)) * x ** (2 * k) for k in range(1, 30))
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    rot = np.array([[c, s], [-s, c]])
    root = rot @ np.diag([math.sqrt(2 - gap), math.sqrt(gap)]) @ rot.T
    return float(gap), root


def assert_decomposition_invariants(ph, pt, pa):
    d = pa.dim
    b = pa.complement_directions()
    assert np.all(np.diff(pa.theta) >= 0)
    assert np.all(pa.theta >= 0) and np.all(pa.theta <= np.pi / 2 + 1e-12)
    np.testing.assert_allclose(pa.u1.T @ pa.u1, np.eye(d), atol=1e-10)
    np.testing.assert_allclose(pa.v.T @ pa.v, np.eye(d), atol=1e-10)
    np.testing.assert_allclose(b.T @ b, np.eye(d), atol=1e-10)
    assert np.linalg.norm(ph.basis.T @ b) < 1e-10
    gamma = np.diag(np.cos(pa.theta))
    sigma = np.diag(np.sin(pa.theta))
    np.testing.assert_allclose(
        ph.basis.T @ pt.basis, pa.u1 @ gamma @ pa.v.T, atol=1e-8
    )
    np.testing.assert_allclose(b.T @ pt.basis, -sigma @ pa.v.T, atol=1e-8)


class TestSubspace:
    def test_axis_aligned_dominant_direction(self):
        sub = subspace_from_rows(np.array([[2.0, 0, 0], [0, 3.0, 0]]), 1)
        np.testing.assert_allclose(np.abs(sub.basis.ravel()), [0, 1, 0], atol=1e-12)

    def test_single_row(self):
        sub = subspace_from_rows(np.array([[1.0, 0, 0]]), 1)
        np.testing.assert_allclose(np.abs(sub.basis.ravel()), [1, 0, 0], atol=1e-12)

    def test_residual_matches_full_svd_oracle(self):
        rng = np.random.default_rng(21)
        rows = rng.standard_normal((50, 10))
        rows /= np.linalg.norm(rows, axis=1, keepdims=True)
        sub = subspace_from_rows(rows, 3)
        residual = np.linalg.norm(rows @ (np.eye(10) - sub.projector()))
        sigma = np.linalg.svd(rows, compute_uv=False)
        assert residual == pytest.approx(np.sqrt(np.sum(sigma[3:] ** 2)), abs=1e-8)

    def test_columns_ordered_by_singular_value(self):
        rows = np.array([[5.0, 0, 0, 0], [0, 1.0, 0, 0], [5.0, 0, 0, 0]])
        sub = subspace_from_rows(rows, 2)
        np.testing.assert_allclose(np.abs(sub.basis[:, 0]), [1, 0, 0, 0], atol=1e-12)
        np.testing.assert_allclose(np.abs(sub.basis[:, 1]), [0, 1, 0, 0], atol=1e-12)

    def test_rank_deficiency_reports_effective_rank(self):
        rows = np.array([[1.0, 0, 0], [2.0, 0, 0]])
        with pytest.raises(ValueError, match="rank 1"):
            subspace_from_rows(rows, 2)

    def test_one_spectrum_serves_every_kept_dimension(self):
        rng = np.random.default_rng(22)
        rows = rng.standard_normal((7, 9))
        for center in (False, True):
            spectrum = row_spectrum(rows, center, keep=4)
            for d in range(1, 5):
                expected = subspace_from_rows(rows, d, center=center).basis
                np.testing.assert_array_equal(spectrum.subspace(d).basis, expected)
            with pytest.raises(ValueError, match="4 singular vectors kept"):
                spectrum.subspace(5)

    def test_centering_flag(self):
        rows = np.array([[1.0, 1.0, 0], [1.0, -1.0, 0], [1.0, 0.5, 0]])
        sub = subspace_from_rows(rows, 1, center=True)
        np.testing.assert_allclose(np.abs(sub.basis.ravel()), [0, 1, 0], atol=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError, match="orthonormal"):
            Subspace(np.array([[1.0, 1.0], [0.0, 1.0], [0.0, 0.0]]))
        with pytest.raises(ValueError, match="1 <= d < D"):
            Subspace(np.eye(3))  # d == D rejected


class TestPrincipalAngles:
    def test_identical_subspaces(self):
        sub = span_basis(np.eye(4)[0], np.eye(4)[1])
        pa = principal_angles(sub, sub)
        np.testing.assert_allclose(pa.theta, [0.0, 0.0], atol=1e-8)

    def test_orthogonal_lines(self):
        e = np.eye(3)
        pa = principal_angles(span_basis(e[0]), span_basis(e[1]))
        np.testing.assert_allclose(pa.theta, [np.pi / 2], atol=1e-12)

    def test_45_degrees(self):
        e = np.eye(3)
        pa = principal_angles(span_basis(e[0]), span_basis((e[0] + e[1]) / np.sqrt(2)))
        np.testing.assert_allclose(pa.theta, [np.pi / 4], atol=1e-12)

    def test_dimension_mismatches_rejected(self):
        e = np.eye(4)
        with pytest.raises(ValueError, match="subspace dimensions differ"):
            principal_angles(span_basis(e[0]), span_basis(e[1], e[2]))
        with pytest.raises(ValueError, match="ambient"):
            principal_angles(span_basis(np.eye(3)[0]), span_basis(np.eye(4)[0]))

    def test_factor_width_limit(self):
        rng = np.random.default_rng(0)
        a = random_subspace(rng, 5, 3)
        b = random_subspace(rng, 5, 3)
        with pytest.raises(ValueError, match="2d <= D"):
            principal_angles(a, b)

    @pytest.mark.parametrize("seed", range(10))
    def test_decomposition_invariants(self, seed):
        ph, pt = random_pair(seed, big_d=9, d=3)
        assert_decomposition_invariants(ph, pt, principal_angles(ph, pt))

    def test_shared_direction_at_half_ambient_dim(self):
        ph, pt = shared_direction_pair()
        pa = principal_angles(ph, pt)
        assert_decomposition_invariants(ph, pt, pa)
        np.testing.assert_allclose(pa.theta, [0.0, 0.4, 1.1], atol=1e-12)
        gfk(pa)  # validates factor orthonormality internally

    def test_tiny_angles_resolved(self):
        # cos(1e-10) rounds to 1 and arccos near 1 keeps only sqrt(eps);
        # the sines resolve each of these angles
        e = np.eye(12)
        angles = np.array([0.0, 1e-10, 1e-7, 3e-7, 0.5])
        cols = [np.cos(a) * e[:, i] + np.sin(a) * e[:, 7 + i] for i, a in enumerate(angles)]
        pa = principal_angles(Subspace(e[:, :5]), Subspace(np.column_stack(cols)))
        assert np.all(np.diff(pa.theta) >= 0)
        np.testing.assert_allclose(pa.theta, angles, rtol=1e-6, atol=1e-15)
        gfk(pa)

    def test_kernels_stay_on_numpy_lapack(self, monkeypatch):
        # scipy loads its own OpenBLAS whose spinning thread pool slows the
        # numpy GEMMs that follow, so kernel construction must not call it
        import scipy.linalg

        def refuse(*args, **kwargs):
            raise AssertionError("kernel construction called scipy.linalg")

        monkeypatch.setattr(scipy.linalg, "null_space", refuse)
        monkeypatch.setattr(scipy.linalg, "svd", refuse)
        rng = np.random.default_rng(11)
        generic = (random_subspace(rng, 300, 20), random_subspace(rng, 300, 20))
        for ph, pt in (generic, shared_direction_pair()):
            gfk(principal_angles(ph, pt))

    def test_near_degenerate_angle_mix(self):
        # zero, tiny, and order-one angles together: tiny-angle columns used
        # to pick up each other's roundoff through normalization
        e = np.eye(12)
        ph = Subspace(e[:, :5])
        cols = [
            e[:, 0],
            e[:, 1],
            np.cos(1e-7) * e[:, 2] + np.sin(1e-7) * e[:, 9],
            np.cos(3e-7) * e[:, 3] + np.sin(3e-7) * e[:, 10],
            np.cos(0.5) * e[:, 4] + np.sin(0.5) * e[:, 11],
        ]
        pt = Subspace(np.column_stack(cols))
        pa = principal_angles(ph, pt)
        b = pa.complement_directions()
        np.testing.assert_allclose(b.T @ b, np.eye(5), atol=1e-10)
        kernel = gfk(pa)  # validates factor orthonormality internally
        assert np.linalg.eigvalsh(kernel.lam).min() >= -1e-10
        np.testing.assert_allclose(pa.theta[-1], 0.5, atol=1e-10)

    @pytest.mark.parametrize("seed", range(5))
    def test_swap_symmetry(self, seed):
        ph, pt = random_pair(seed)
        np.testing.assert_allclose(
            principal_angles(ph, pt).theta, principal_angles(pt, ph).theta, atol=1e-8
        )

    @pytest.mark.parametrize("seed", range(5))
    def test_basis_rotation_invariance_of_theta(self, seed):
        rng = np.random.default_rng(100 + seed)
        ph, pt = random_pair(seed)
        q1, _ = np.linalg.qr(rng.standard_normal((2, 2)))
        q2, _ = np.linalg.qr(rng.standard_normal((2, 2)))
        rotated = principal_angles(Subspace(ph.basis @ q1), Subspace(pt.basis @ q2))
        np.testing.assert_allclose(rotated.theta, principal_angles(ph, pt).theta, atol=1e-8)


class TestGeodesic:
    def test_endpoints(self):
        ph, pt = random_pair(3)
        pa = principal_angles(ph, pt)
        p0 = geodesic_point(pa, 0.0)
        p1 = geodesic_point(pa, 1.0)
        assert np.linalg.norm(p0.projector() - ph.projector()) < 1e-10
        assert np.linalg.norm(p1.projector() - pt.projector()) < 1e-8

    def test_path_orthonormal(self):
        ph, pt = random_pair(4)
        pa = principal_angles(ph, pt)
        for t in np.linspace(0, 1, 11):
            phi = geodesic_point(pa, t).basis
            assert np.linalg.norm(phi.T @ phi - np.eye(2)) < 1e-10

    def test_halfway_point_r2(self):
        # single angle of pi/2: the midpoint bisects the quarter turn
        ph = Subspace(np.array([[1.0], [0.0]]))
        pt = Subspace(np.array([[0.0], [1.0]]))
        pa = principal_angles(ph, pt)
        np.testing.assert_allclose(pa.theta, [np.pi / 2], atol=1e-12)
        mid = geodesic_point(pa, 0.5).basis.ravel()
        expected = np.array([1.0, 1.0]) / np.sqrt(2)
        assert min(np.linalg.norm(mid - expected), np.linalg.norm(mid + expected)) < 1e-12

    def test_t_out_of_range(self):
        ph, pt = random_pair(5)
        pa = principal_angles(ph, pt)
        with pytest.raises(ValueError):
            geodesic_point(pa, 1.5)


class TestKernel:
    def test_identical_subspaces_give_twice_projector(self):
        sub = span_basis(np.eye(5)[0], np.eye(5)[1])
        kernel = gfk(principal_angles(sub, sub))
        np.testing.assert_allclose(
            kernel.materialize(), 2.0 * sub.projector(), atol=1e-10
        )

    def test_right_angle_lambdas(self):
        e = np.eye(3)
        kernel = gfk(principal_angles(span_basis(e[0]), span_basis(e[1])))
        lam = kernel.lam
        assert lam[0, 0] == pytest.approx(1.0, abs=1e-12)
        assert lam[1, 1] == pytest.approx(1.0, abs=1e-12)
        assert lam[0, 1] == pytest.approx(-2.0 / np.pi, abs=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_closed_form_vs_numeric_oracle(self, seed):
        ph, pt = random_pair(seed, big_d=6, d=2)
        pa = principal_angles(ph, pt)
        closed = gfk(pa).materialize()
        numeric = gfk_numeric_oracle(pa, 10_000)
        rel = np.linalg.norm(closed - 2.0 * numeric) / np.linalg.norm(2.0 * numeric)
        assert rel < 1e-6

    def test_oracle_constant_integrand_for_identical_subspaces(self):
        sub = span_basis(np.eye(5)[0], np.eye(5)[1])
        pa = principal_angles(sub, sub)
        for nodes in (2, 5):
            np.testing.assert_allclose(
                gfk_numeric_oracle(pa, nodes), sub.projector(), atol=1e-12
            )

    def test_oracle_refinement_monotone(self):
        ph, pt = random_pair(8)
        pa = principal_angles(ph, pt)
        reference = gfk(pa).materialize() / 2.0
        errors = [
            np.linalg.norm(gfk_numeric_oracle(pa, n) - reference)
            for n in (2, 4, 8, 16, 32, 64)
        ]
        assert all(e1 > e2 for e1, e2 in zip(errors, errors[1:]))

    def test_oracle_broadcasts_over_a_batch(self):
        # B = 4 pairs of 3-dim subspaces of R^10: one integral per pair
        rng = np.random.default_rng(13)
        bases = [np.linalg.qr(rng.standard_normal((4, 10, 3)))[0] for _ in range(2)]
        pa = principal_angles(Subspace(bases[0]), Subspace(bases[1]))
        batch = gfk_numeric_oracle(pa, 2_000)
        assert batch.shape == (4, 10, 10)
        closed = gfk(pa).materialize()
        for i in range(4):
            alone = gfk_numeric_oracle(principal_angles(Subspace(bases[0][i]), Subspace(bases[1][i])), 2_000)
            np.testing.assert_allclose(batch[i], alone, rtol=0, atol=1e-14)
            rel = np.linalg.norm(closed[i] - 2.0 * batch[i]) / np.linalg.norm(2.0 * batch[i])
            assert rel < 1e-5

    def test_oracle_right_angle_diagonal(self):
        # integral of cos^2 and sin^2 over a quarter turn are both 1/2
        ph = Subspace(np.array([[1.0], [0.0]]))
        pt = Subspace(np.array([[0.0], [1.0]]))
        pa = principal_angles(ph, pt)
        integral = gfk_numeric_oracle(pa, 20_001)
        np.testing.assert_allclose(np.diag(integral), [0.5, 0.5], atol=1e-8)

    def test_lambda_ranges_and_psd(self):
        for seed in range(5):
            ph, pt = random_pair(seed, big_d=8, d=3)
            kernel = gfk(principal_angles(ph, pt))
            d = 3
            diag = np.diag(kernel.lam)
            assert np.all(diag[:d] >= 1.0 - 1e-12) and np.all(diag[:d] <= 2.0 + 1e-12)
            assert np.all(diag[d:] >= -1e-12) and np.all(diag[d:] <= 1.0 + 1e-12)
            assert np.linalg.eigvalsh(kernel.lam).min() >= -1e-10
            eigs = np.linalg.eigvalsh(kernel.materialize())
            assert eigs.min() >= -1e-10

    def test_small_angle_taylor_branch_continuity(self):
        from gfkanalogy.grassmann import _lambda_coefficients

        below = np.array([1e-4 * (1 - 1e-9)])
        above = np.array([1e-4 * (1 + 1e-9)])
        for lo, hi in zip(_lambda_coefficients(below), _lambda_coefficients(above)):
            assert abs(lo[0] - hi[0]) < 1e-12

    def test_zero_angle_limit_exact(self):
        from gfkanalogy.grassmann import _lambda_coefficients

        lam1, lam2, lam3 = _lambda_coefficients(np.array([0.0]))
        assert lam1[0] == 2.0 and lam2[0] == 0.0 and lam3[0] == 0.0

    @pytest.mark.parametrize("theta", [
        0.0, 1e-12, 1e-8, 1e-6, SMALL_ANGLE * (1 - 1e-9), SMALL_ANGLE * (1 + 1e-9),
        0.3, 1.2, np.pi / 2, *np.linspace(0.0, np.pi / 2, 33)[1:-1],
    ])
    def test_block_root_matches_an_independent_root(self, theta):
        # one angle's kernel, the only one of a batch of one
        pa = PrincipalAngleDecomposition(
            np.array([[theta]]), np.ones((1, 1, 1)), np.ones((1, 1, 1)), np.eye(2)[None]
        )
        kernel = gfk(pa)
        lam, root = kernel.lam[0], kernel.lam_sqrt[0]
        gap, reference = reference_block_root(theta)
        assert np.array_equal(root, root.T)
        np.testing.assert_allclose(root, reference, rtol=0, atol=1e-15)
        np.testing.assert_allclose(root @ root, lam, rtol=0, atol=1e-15)
        np.testing.assert_allclose(np.linalg.eigvalsh(lam), [gap, 2.0 - gap], rtol=0, atol=1e-15)

    def test_gfk_kernels_skip_the_checks_a_built_kernel_runs(self, monkeypatch):
        checked = []
        post_init = GfkKernel.__post_init__

        def counted(kernel):
            checked.append(kernel.f.shape)
            post_init(kernel)

        monkeypatch.setattr(GfkKernel, "__post_init__", counted)
        rng = np.random.default_rng(31)
        pairs = [pair_with_angles(rng, 11, np.array([1e-9, 0.3, 1.2])) for _ in range(3)]
        single = principal_angles(*pairs[0])
        batch = principal_angles(*(batched(side) for side in zip(*pairs)))
        for pa in (single, batch):
            kernel = gfk(pa)
            assert not checked  # neither the kernel nor, for a batch, kernel[i]
            if pa is batch:
                assert kernel[1].projection.shape == (11, 6) and not checked
            again = GfkKernel(kernel.f, kernel.lam, kernel.lam_sqrt)
            assert checked.pop() == kernel.f.shape
            for name in ("f", "lam", "lam_sqrt"):
                assert_same_bits(getattr(kernel, name), getattr(again, name))
                assert not getattr(kernel, name).flags.writeable
            if pa is single:
                assert_same_bits(kernel.projection, again.projection)
                assert_same_bits(kernel.f, pa.directions)

    def test_a_built_kernel_is_checked(self):
        kernel = gfk(principal_angles(*random_pair(3)))
        f, lam, root = kernel.f, kernel.lam, kernel.lam_sqrt
        with pytest.raises(ValueError, match="factor columns not orthonormal"):
            GfkKernel(2.0 * f, lam, root)
        skewed = lam.copy()
        skewed[0, 1] += 1e-6
        with pytest.raises(ValueError, match="lam not symmetric"):
            GfkKernel(f, skewed, root)
        with pytest.raises(ValueError, match="shapes do not match"):
            GfkKernel(f, lam[:2, :2], root)


class TestRowSpectrumBatch:
    @pytest.mark.parametrize("shape", [(3, 14, 32), (4, 21, 44), (5, 5, 12), (2, 30, 300), (3, 7, 6)])
    @pytest.mark.parametrize("center", [False, True])
    @pytest.mark.parametrize("keep", [None, 4])
    def test_each_spectrum_has_the_bits_of_its_own_call(self, shape, center, keep):
        rng = np.random.default_rng(sum(shape))
        rows = rng.standard_normal(shape)
        rows[0, 1] = rows[0, 0]  # a repeated row
        rows[1] = rng.standard_normal((shape[1], 2)) @ rng.standard_normal((2, shape[2]))  # rank 2
        for ambient_dim in (None, 2 * shape[2]):
            batch = row_spectrum(rows, center, ambient_dim=ambient_dim, keep=keep)
            kept = min(shape[1:]) if keep is None else keep
            assert batch.vt.shape == (shape[0], kept, shape[2]) and batch.rank.shape == (shape[0],)
            for i, pool in enumerate(rows):
                alone, view = row_spectrum(pool, center, ambient_dim=ambient_dim, keep=keep), batch[i]
                assert_same_bits(view.vt, alone.vt)
                assert (view.n, view.rank) == (alone.n, alone.rank) and isinstance(view.rank, int)
            assert batch[1].rank == 2
            for d in (1, 3, kept + 1):
                for i in range(shape[0]):
                    try:
                        want = row_spectrum(rows[i], center, ambient_dim=ambient_dim, keep=keep).subspace(d)
                    except ValueError as err:
                        with pytest.raises(ValueError, match=f"^{re.escape(str(err))}$"):
                            batch[i].subspace(d)
                    else:
                        assert_same_bits(batch[i].subspace(d).basis, want.basis)

    def test_pools_without_rows(self):
        batch = row_spectrum(np.empty((2, 0, 5)), True, keep=3)
        assert batch.vt.shape == (2, 0, 5) and batch.rank.tolist() == [0, 0]
        with pytest.raises(ValueError, match=r"min\(n=0, D=5\)"):
            batch[1].check(1)

    def test_a_batch_is_checked_spectrum_by_spectrum(self):
        rows = np.random.default_rng(2).standard_normal((3, 4, 6))
        batch = row_spectrum(rows)
        with pytest.raises(TypeError, match=r"take spectrum\[i\]"):
            batch.subspace(2)
        with pytest.raises(TypeError, match="only a batch"):
            batch[0][0]


class TestSimilarity:
    def test_self_similarity_is_one(self):
        ph, pt = random_pair(0)
        kernel = gfk(principal_angles(ph, pt))
        rng = np.random.default_rng(1)
        for _ in range(5):
            x = rng.standard_normal(6)
            assert gfk_similarity(kernel, x, x) == pytest.approx(1.0, abs=1e-12)

    def test_symmetry_exact(self):
        ph, pt = random_pair(1)
        kernel = gfk(principal_angles(ph, pt))
        rng = np.random.default_rng(2)
        x, y = rng.standard_normal(6), rng.standard_normal(6)
        assert gfk_similarity(kernel, x, y) == gfk_similarity(kernel, y, x)

    def test_null_space_vector_scores_worst(self):
        sub = span_basis(np.eye(4)[0], np.eye(4)[1])
        kernel = gfk(principal_angles(sub, sub))  # G = 2 P P^T, null on e3, e4
        assert gfk_similarity(kernel, np.eye(4)[3], np.eye(4)[0]) == -1.0

    def test_vector_of_another_dimension_rejected(self):
        kernel = GfkKernel.identity(4)
        with pytest.raises(ValueError, match=r"x has shape \(6,\); the kernel's ambient dimension is 4"):
            gfk_similarity(kernel, np.ones(6), np.ones(4))
        with pytest.raises(ValueError, match=r"y has shape \(3,\); the kernel's ambient dimension is 4"):
            gfk_similarity(kernel, np.ones(4), np.ones(3))

    def test_projector_kernel_matches_plain_cosine_in_span(self):
        sub = span_basis(np.eye(5)[0], np.eye(5)[1])
        kernel = gfk(principal_angles(sub, sub))
        rng = np.random.default_rng(3)
        for _ in range(10):
            x = sub.basis @ rng.standard_normal(2)
            y = sub.basis @ rng.standard_normal(2)
            plain = x @ y / (np.linalg.norm(x) * np.linalg.norm(y))
            assert gfk_similarity(kernel, x, y) == pytest.approx(plain, abs=1e-10)

    def test_kernel_scaling_invariance(self):
        ph, pt = random_pair(2)
        kernel = gfk(principal_angles(ph, pt))
        rng = np.random.default_rng(4)
        x, y = rng.standard_normal(6), rng.standard_normal(6)
        base = gfk_similarity(kernel, x, y)
        for c in (0.5, 3.0):
            scaled = GfkKernel(
                f=kernel.f, lam=c * kernel.lam, lam_sqrt=np.sqrt(c) * kernel.lam_sqrt
            )
            assert gfk_similarity(scaled, x, y) == pytest.approx(base, abs=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_basis_rotation_invariance_of_kernel(self, seed):
        rng = np.random.default_rng(200 + seed)
        ph, pt = random_pair(seed)
        q1, _ = np.linalg.qr(rng.standard_normal((2, 2)))
        q2, _ = np.linalg.qr(rng.standard_normal((2, 2)))
        k1 = gfk(principal_angles(ph, pt))
        k2 = gfk(principal_angles(Subspace(ph.basis @ q1), Subspace(pt.basis @ q2)))
        np.testing.assert_allclose(k1.materialize(), k2.materialize(), atol=1e-8)
        for _ in range(5):
            x, y = rng.standard_normal(6), rng.standard_normal(6)
            assert gfk_similarity(k1, x, y) == pytest.approx(
                gfk_similarity(k2, x, y), abs=1e-8
            )

    def test_identity_kernel(self):
        kernel = GfkKernel.identity(4)
        rng = np.random.default_rng(5)
        x, y = rng.standard_normal(4), rng.standard_normal(4)
        plain = x @ y / (np.linalg.norm(x) * np.linalg.norm(y))
        assert gfk_similarity(kernel, x, y) == pytest.approx(plain, abs=1e-15)
        with pytest.raises(ValueError, match="even"):
            GfkKernel.identity(5)


def pair_with_angles(rng, big_d, angles):
    """A subspace pair in generic position whose principal angles are the given ones."""
    d = len(angles)
    q, _ = np.linalg.qr(rng.standard_normal((big_d, big_d)))
    r1, _ = np.linalg.qr(rng.standard_normal((d, d)))
    r2, _ = np.linalg.qr(rng.standard_normal((d, d)))
    tail = q[:, :d] * np.cos(angles) + q[:, d : 2 * d] * np.sin(angles)
    return Subspace(q[:, :d] @ r1), Subspace(tail @ r2)


def assert_same_bits(a, b):
    assert a.shape == b.shape and a.tobytes() == b.tobytes()


def batched(subspaces):
    return Subspace(np.stack([s.basis for s in subspaces]))


class TestBatch:
    def assert_batch_stacks_pairs(self, pairs):
        heads, tails = zip(*pairs)
        batch = principal_angles(batched(heads), batched(tails))
        kernels = gfk(batch)
        singles = [principal_angles(ph, pt) for ph, pt in pairs]
        single_kernels = [gfk(pa) for pa in singles]
        for name in ("theta", "u1", "v", "directions"):
            assert_same_bits(getattr(batch, name), np.stack([getattr(pa, name) for pa in singles]))
        for name in ("f", "lam", "lam_sqrt"):
            assert_same_bits(getattr(kernels, name), np.stack([getattr(k, name) for k in single_kernels]))
        x = np.random.default_rng(1).standard_normal((5, heads[0].ambient_dim))
        for i, one in enumerate(single_kernels):
            assert_same_bits(kernels[i].project(x), one.project(x))
        for t in (0.0, 0.4, 1.0):
            points = np.stack([geodesic_point(pa, t).basis for pa in singles])
            assert_same_bits(geodesic_point(batch, t).basis, points)
        return batch

    def test_no_small_angles(self):
        rng = np.random.default_rng(3)
        pairs = [pair_with_angles(rng, 10, rng.uniform(0.9, 1.5, 3)) for _ in range(4)]
        batch = self.assert_batch_stacks_pairs(pairs)
        assert np.all(batch.theta > np.pi / 4)

    def test_pairs_with_different_small_column_counts(self):
        rng = np.random.default_rng(4)
        pairs = [
            pair_with_angles(rng, 12, np.sort(np.r_[rng.uniform(1e-7, 0.6, k), rng.uniform(0.9, 1.5, 4 - k)]))
            for k in (2, 0, 4, 1, 3, 2)
        ]
        batch = self.assert_batch_stacks_pairs(pairs)
        assert (batch.theta < np.pi / 4).sum(axis=1).tolist() == [2, 0, 4, 1, 3, 2]

    def test_degenerate_completion(self):
        rng = np.random.default_rng(5)
        same = random_subspace(rng, 9, 3)
        pairs = [
            (same, Subspace(same.basis.copy())),
            pair_with_angles(rng, 9, np.array([0.0, 0.3, 1.2])),
            pair_with_angles(rng, 9, np.array([0.2, 0.5, 1.0])),
        ]
        batch = self.assert_batch_stacks_pairs(pairs)
        assert np.all(batch.theta[0] <= DEGENERATE_ANGLE) and batch.theta[1, 0] <= DEGENERATE_ANGLE

    def test_as_many_pairs_as_ambient_dimensions(self):
        # B = D: angles broadcast along the ambient axis instead of the batch
        # axis would still fit the shapes, and mix the pairs' angles up
        rng = np.random.default_rng(8)
        pairs = [pair_with_angles(rng, 4, rng.uniform(0.1, 1.4, 2)) for _ in range(4)]
        self.assert_batch_stacks_pairs(pairs)

    def test_batched_subspace_reads_the_last_two_axes(self):
        rng = np.random.default_rng(9)
        subs = [random_subspace(rng, 7, 3) for _ in range(2)]
        batch = batched(subs)
        assert (batch.ambient_dim, batch.dim) == (7, 3)
        np.testing.assert_allclose(batch.projector(), np.stack([s.projector() for s in subs]), atol=1e-14)

    def test_batch_validation(self):
        rng = np.random.default_rng(6)
        a, b = random_subspace(rng, 8, 2), random_subspace(rng, 9, 2)
        with pytest.raises(ValueError, match="as many targets"):
            principal_angles(batched([a, a]), batched([a]))
        with pytest.raises(ValueError, match="as many targets"):
            principal_angles(batched([a]), a)
        with pytest.raises(ValueError, match="ambient dimensions differ"):
            principal_angles(batched([a, a]), batched([b, b]))
        with pytest.raises(ValueError, match="B >= 1"):
            Subspace(np.empty((0, 8, 2)))
        with pytest.raises(ValueError, match=r"not orthonormal .*basis 1\)"):
            Subspace(np.stack([a.basis, 2.0 * a.basis, a.basis]))
        kernels = gfk(principal_angles(batched([a, a]), batched([a, a])))
        with pytest.raises(TypeError, match=r"take kernels\[i\]"):
            kernels.project(np.ones(8))
        with pytest.raises(TypeError, match=r"take kernels\[i\]"):
            gfk_similarity(kernels, np.ones(8), np.ones(8))
        with pytest.raises(TypeError, match="batch"):
            gfk(principal_angles(a, a))[0]


@given(st.integers(0, 10_000), st.floats(0.0, 1.0))
@settings(max_examples=30, deadline=None)
def test_flow_orthonormality_property(seed, t):
    ph, pt = random_pair(seed)
    pa = principal_angles(ph, pt)
    phi = geodesic_point(pa, t).basis
    assert np.linalg.norm(phi.T @ phi - np.eye(phi.shape[1])) < 1e-10
