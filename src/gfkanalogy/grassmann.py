"""Subspace geometry on the Grassmannian.

Subspaces are D x d orthonormal bases. Two subspaces of equal dimension are
linked by principal angles computed from thin (D x d) factors; from those we
build the geodesic flow between them and its closed-form flow kernel.

Conventions, fixed here and relied on by the tests:

* theta is ascending in [0, pi/2].
* The complement directions B (D x d, orthonormal, orthogonal to P_H)
  satisfy ``P_T V = P_H U1 diag(cos theta) - B diag(sin theta)`` with
  sin theta >= 0, so the flow lands exactly on the target span at t=1.
* The closed-form kernel equals exactly twice the raw path integral
  ``int_0^1 Phi(t) Phi(t)^T dt``; cosine-style similarities are scale
  invariant, so the factor never affects rankings. The numeric oracle below
  returns the raw integral.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

ORTHONORMAL_TOL = 1e-10
# Below this sine a complement direction is numerically undefined; the matching
# sin(t*theta) contribution is < 1e-8, so any orthonormal completion works.
DEGENERATE_ANGLE = 1e-8
# Below this angle the lambda coefficients switch to series expansions.
SMALL_ANGLE = 1e-4
NULL_SPACE_NORM = 1e-12


@dataclass(frozen=True)
class Subspace:
    """A d-dimensional subspace of R^D held as a D x d orthonormal basis."""

    basis: np.ndarray

    def __post_init__(self):
        basis = np.ascontiguousarray(self.basis, dtype=np.float64)
        if basis.ndim != 2:
            raise ValueError(f"basis must be 2-d, got shape {basis.shape}")
        big_d, small_d = basis.shape
        if not 1 <= small_d < big_d:
            raise ValueError(f"need 1 <= d < D, got d={small_d}, D={big_d}")
        gram_err = np.linalg.norm(basis.T @ basis - np.eye(small_d))
        if gram_err > ORTHONORMAL_TOL:
            raise ValueError(f"basis columns not orthonormal (|B^T B - I|_F = {gram_err:.2e})")
        basis.setflags(write=False)
        object.__setattr__(self, "basis", basis)

    @property
    def ambient_dim(self) -> int:
        return self.basis.shape[0]

    @property
    def dim(self) -> int:
        return self.basis.shape[1]

    def projector(self) -> np.ndarray:
        return self.basis @ self.basis.T


def subspace_from_rows(
    rows: np.ndarray, d: int, center: bool = False, *, ambient_dim: int | None = None
) -> Subspace:
    """Dominant d-dimensional span of a stack of row vectors.

    Takes the top-d right singular vectors of the (by default uncentered)
    n x D row matrix, ordered by descending singular value. With
    ``center=True`` the row mean is subtracted first, which fits an affine
    cloud instead of a span. ``d`` must not exceed the effective rank, counted
    with the tolerance ``sigma_1 * max(n, D) * eps``; for rows given in an
    orthonormal basis of part of a wider space, ``ambient_dim`` names that
    space's dimension so the count matches the one on the full rows.
    """
    rows = np.atleast_2d(np.asarray(rows, dtype=np.float64))
    n, big_d = rows.shape
    if d < 1:
        raise ValueError("subspace dimension must be >= 1")
    if d > min(n, big_d):
        raise ValueError(f"d={d} exceeds min(n={n}, D={big_d})")
    if center:
        rows = rows - rows.mean(axis=0)
    _, sigma, vt = np.linalg.svd(rows, full_matrices=False)
    width = max(n, big_d if ambient_dim is None else ambient_dim)
    tol = sigma[0] * width * np.finfo(np.float64).eps if sigma.size else 0.0
    rank = int(np.sum(sigma > tol))
    if d > rank:
        raise ValueError(f"d={d} exceeds effective rank {rank} of the row matrix")
    return Subspace(vt[:d].T)


@dataclass(frozen=True)
class PrincipalAngleDecomposition:
    """Principal angles and matched directions linking two equal-dim subspaces.

    theta:  d ascending angles in [0, pi/2]
    u1, v:  d x d orthogonal factors with ``source^T target = U1 diag(cos theta) V^T``
    b:      D x d orthonormal complement directions, orthogonal to the source,
            with ``target V = source U1 diag(cos theta) - b diag(sin theta)``

    No field is wider than D x d; principal_angles builds them in O(D d^2).
    """

    theta: np.ndarray
    u1: np.ndarray
    v: np.ndarray
    b: np.ndarray
    source: Subspace
    target: Subspace

    def __post_init__(self):
        for name in ("theta", "u1", "v", "b"):
            getattr(self, name).setflags(write=False)

    @property
    def dim(self) -> int:
        return self.theta.size

    @property
    def ambient_dim(self) -> int:
        return self.source.ambient_dim

    def source_directions(self) -> np.ndarray:
        """Principal directions in the source subspace (D x d)."""
        return self.source.basis @ self.u1

    def complement_directions(self) -> np.ndarray:
        """Matching directions in the source's complement (D x d)."""
        return self.b


def principal_angles(ph: Subspace, pt: Subspace) -> PrincipalAngleDecomposition:
    """Decompose the pair (ph, pt) into principal angles and matched directions.

    With ``U1 Gamma V^T`` the SVD of ``ph^T pt``, the columns of
    ``W = pt V - ph U1 Gamma = (I - ph ph^T) pt V`` have norms sin(theta);
    negated and normalized they are the complement directions. Angles come
    from ``arctan2(sin, cos)``, accurate to ~1e-15 even where cos rounds to 1.
    Below pi/4 the cosines no longer separate the singular vectors, so those
    columns are re-split by a thin SVD of their part of W (the sine/cosine
    split of Knyazev & Argentati 2002). Directions with sine at most
    DEGENERATE_ANGLE get an orthonormal completion. Cost is O(D d^2): no
    factor is wider than D x 2d and no D x D matrix is factorized.
    """
    if ph.ambient_dim != pt.ambient_dim:
        raise ValueError(
            f"ambient dimensions differ: {ph.ambient_dim} vs {pt.ambient_dim}"
        )
    if ph.dim != pt.dim:
        raise ValueError(f"subspace dimensions differ: {ph.dim} vs {pt.dim}")
    big_d, d = ph.basis.shape
    if 2 * d > big_d:
        raise ValueError(
            f"need 2d <= D for the flow kernel factors, got d={d}, D={big_d}"
        )

    src, tgt = ph.basis, pt.basis
    m = src.T @ tgt
    u1, cos, vt = np.linalg.svd(m)
    v = vt.T
    w = tgt @ v - src @ (u1 * cos)
    sin = np.linalg.norm(w, axis=0)
    small = sin < cos
    b = np.empty_like(w)
    b[:, ~small] = -w[:, ~small] / sin[~small]
    if small.any():
        # The part of W along ph and the large-angle directions is roundoff,
        # yet it would dominate a column whose sine is near zero.
        known = np.hstack([src, b[:, ~small]])
        w_small = w[:, small]
        w_small -= known @ (known.T @ w_small)
        q, sin_small, rt = np.linalg.svd(w_small, full_matrices=False)
        v_small = v[:, small] @ rt.T
        mv = m @ v_small
        cos_small = np.linalg.norm(mv, axis=0)
        degenerate = sin_small <= DEGENERATE_ANGLE
        if degenerate.any():
            # n + k coordinate axes projected off the n accepted columns keep
            # k singular values of exactly 1: a well-conditioned completion
            accepted = np.hstack([known, q[:, ~degenerate]])
            n, k = accepted.shape[1], int(degenerate.sum())
            resid = np.eye(big_d, n + k) - accepted @ accepted[: n + k].T
            q[:, degenerate] = np.linalg.svd(resid, full_matrices=False)[0][:, :k]
        v[:, small] = v_small
        u1[:, small] = mv / cos_small
        cos[small] = cos_small
        sin[small] = sin_small
        b[:, small] = -q

    theta = np.arctan2(sin, cos)
    order = np.argsort(theta, kind="stable")
    return PrincipalAngleDecomposition(
        theta=theta[order],
        u1=u1[:, order],
        v=v[:, order],
        b=b[:, order],
        source=ph,
        target=pt,
    )


def geodesic_point(pa: PrincipalAngleDecomposition, t: float) -> Subspace:
    """Point Phi(t) on the geodesic from the source (t=0) to the target (t=1).

    Phi(t) = source_directions * cos(t theta) - complement_directions * sin(t theta),
    columnwise; its columns stay orthonormal for every t.
    """
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"t must be in [0, 1], got {t}")
    cos_t = np.cos(t * pa.theta)
    sin_t = np.sin(t * pa.theta)
    basis = pa.source_directions() * cos_t - pa.complement_directions() * sin_t
    return Subspace(basis)


def _lambda_coefficients(theta: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Diagonal kernel coefficients (lambda1, lambda2, lambda3) per angle.

    For theta < 1e-4 both ratios are evaluated by 4th-order series in
    u = 2*theta, avoiding 0/0 and cancellation at the theta -> 0 limit
    (lambda1 -> 2, lambda2 -> 0, lambda3 -> 0).
    """
    u = 2.0 * theta
    small = theta < SMALL_ANGLE
    u_safe = np.where(small, 1.0, u)
    sin_ratio = np.where(small, 1.0 - u**2 / 6.0 + u**4 / 120.0, np.sin(u) / u_safe)
    cos_ratio = np.where(small, -u / 2.0 + u**3 / 24.0, (np.cos(u) - 1.0) / u_safe)
    return 1.0 + sin_ratio, cos_ratio, 1.0 - sin_ratio


@dataclass(frozen=True)
class GfkKernel:
    """Geodesic flow kernel in factored form G = f lam f^T.

    f is D x 2d with orthonormal columns (source directions next to
    complement directions); lam is the symmetric PSD 2d x 2d coefficient
    matrix and lam_sqrt its symmetric square root. The evaluation path never
    materializes the D x D kernel; it maps rows through the D x 2d product
    f lam_sqrt, formed once per kernel.
    """

    f: np.ndarray
    lam: np.ndarray
    lam_sqrt: np.ndarray

    def __post_init__(self):
        f = np.ascontiguousarray(self.f, dtype=np.float64)
        lam = np.ascontiguousarray(self.lam, dtype=np.float64)
        lam_sqrt = np.ascontiguousarray(self.lam_sqrt, dtype=np.float64)
        m = f.shape[1]
        if lam.shape != (m, m) or lam_sqrt.shape != (m, m):
            raise ValueError("lam/lam_sqrt shapes do not match the factor width")
        if np.linalg.norm(f.T @ f - np.eye(m)) > ORTHONORMAL_TOL:
            raise ValueError("kernel factor columns not orthonormal")
        if np.linalg.norm(lam - lam.T) > ORTHONORMAL_TOL:
            raise ValueError("lam not symmetric")
        proj = f @ lam_sqrt
        for arr in (f, lam, lam_sqrt, proj):
            arr.setflags(write=False)
        object.__setattr__(self, "f", f)
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "lam_sqrt", lam_sqrt)
        object.__setattr__(self, "_proj", proj)

    @property
    def ambient_dim(self) -> int:
        return self.f.shape[0]

    def project(self, vectors: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Map vectors (rows, shape ... x D) into kernel coordinates (... x 2d).

        Cosines between projected vectors equal the kernel similarity, since
        x^T G y = (proj x)^T (proj y) and |sqrt(G) x| = |proj x|. One product
        with f lam_sqrt; out, when given, receives it.
        """
        return np.matmul(np.asarray(vectors, dtype=np.float64), self._proj, out=out)

    def materialize(self) -> np.ndarray:
        """Dense D x D kernel, for diagnostics and tests only."""
        return self.f @ self.lam @ self.f.T

    @classmethod
    def identity(cls, ambient_dim: int) -> "GfkKernel":
        """Identity kernel: similarity reduces exactly to plain cosine.

        Requires an even ambient dimension so the factor keeps the D x 2d
        block shape.
        """
        if ambient_dim % 2:
            raise ValueError("identity kernel needs an even ambient dimension")
        eye = np.eye(ambient_dim)
        return cls(f=eye, lam=eye.copy(), lam_sqrt=eye.copy())


def gfk(pa: PrincipalAngleDecomposition) -> GfkKernel:
    """Closed-form geodesic flow kernel for a decomposed subspace pair.

    Assembles the 2d x 2d coefficient matrix [[L1, L2], [L2, L3]] from the
    per-angle lambdas, clamps any negative eigenvalues from roundoff at zero,
    and stores the symmetric square root alongside.
    """
    lam1, lam2, lam3 = _lambda_coefficients(pa.theta)
    d = pa.dim
    lam = np.zeros((2 * d, 2 * d))
    idx = np.arange(d)
    lam[idx, idx] = lam1
    lam[idx + d, idx + d] = lam3
    lam[idx, idx + d] = lam2
    lam[idx + d, idx] = lam2

    eigvals, eigvecs = np.linalg.eigh(lam)
    if eigvals.min() < -ORTHONORMAL_TOL:
        raise ValueError(f"kernel coefficients lost PSD-ness (min eig {eigvals.min():.2e})")
    eigvals = np.clip(eigvals, 0.0, None)
    lam_sqrt = (eigvecs * np.sqrt(eigvals)) @ eigvecs.T
    lam_sqrt = 0.5 * (lam_sqrt + lam_sqrt.T)

    f = np.hstack([pa.source_directions(), pa.complement_directions()])
    return GfkKernel(f=f, lam=lam, lam_sqrt=lam_sqrt)


def gfk_similarity(kernel: GfkKernel, x: np.ndarray, y: np.ndarray) -> float:
    """Kernel-space cosine x^T G y / (|sqrt(G) x| |sqrt(G) y|), in [-1, 1].

    A vector that falls in the kernel's null space (projected norm < 1e-12)
    has no usable direction; the similarity is then pinned to -1 (worst).
    """
    a = kernel.project(np.asarray(x, dtype=np.float64))
    b = kernel.project(np.asarray(y, dtype=np.float64))
    na = np.linalg.norm(a)
    nb = np.linalg.norm(b)
    if na < NULL_SPACE_NORM or nb < NULL_SPACE_NORM:
        return -1.0
    return float(np.clip(a @ b / (na * nb), -1.0, 1.0))


def gfk_numeric_oracle(pa: PrincipalAngleDecomposition, nodes: int) -> np.ndarray:
    """Trapezoid approximation of the raw path integral int_0^1 Phi(t) Phi(t)^T dt.

    Test oracle, not a production path: the closed form equals exactly twice
    this integral. Runs the flow formula over a batch of t values rather than
    the per-angle lambdas, so it stays independent of gfk().
    """
    if nodes < 2:
        raise ValueError("need at least 2 trapezoid nodes")
    ts = np.linspace(0.0, 1.0, nodes)
    a = pa.source_directions()
    b = pa.complement_directions()
    cos_t = np.cos(np.outer(ts, pa.theta))
    sin_t = np.sin(np.outer(ts, pa.theta))
    phi = a[None, :, :] * cos_t[:, None, :] - b[None, :, :] * sin_t[:, None, :]
    weights = np.full(nodes, 1.0 / (nodes - 1))
    weights[0] = weights[-1] = 0.5 / (nodes - 1)
    # sum_n w_n Phi_n Phi_n^T, contracted over nodes and subspace columns
    return np.tensordot(phi * weights[:, None, None], phi, axes=([0, 2], [0, 2]))

