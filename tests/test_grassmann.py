import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gfkanalogy.grassmann import (
    GfkKernel,
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


@given(st.integers(0, 10_000), st.floats(0.0, 1.0))
@settings(max_examples=30, deadline=None)
def test_flow_orthonormality_property(seed, t):
    ph, pt = random_pair(seed)
    pa = principal_angles(ph, pt)
    phi = geodesic_point(pa, t).basis
    assert np.linalg.norm(phi.T @ phi - np.eye(phi.shape[1])) < 1e-10
