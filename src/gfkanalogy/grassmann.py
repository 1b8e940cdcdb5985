"""Subspace geometry on the Grassmannian.

Subspaces are D x d orthonormal bases. Two subspaces of equal dimension are
linked by principal angles computed from thin (D x d) factors; from those we
build the geodesic flow between them and its closed-form flow kernel.

A batch is one leading array axis on every type: B x D x d Subspace bases
give B x ... principal-angle fields, geodesic points and kernels.

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

import math
from dataclasses import dataclass

import numpy as np

ORTHONORMAL_TOL = 1e-10
# Below this sine a complement direction is numerically undefined; the matching
# sin(t*theta) contribution is < 1e-8, so any orthonormal completion works.
DEGENERATE_ANGLE = 1e-8
NULL_SPACE_NORM = 1e-12
# (-1)^(k+1) / (2k+1)!, k = 1..10: the Taylor coefficients of 1 - sin(x)/x in x^2
_SINC_GAP_SERIES = tuple((-1) ** (k + 1) / math.factorial(2 * k + 1) for k in range(1, 11))
# float64 rows a float32 projection casts at a time (1 MB of float32).
_CAST_BLOCK_ELEMS = 262_144


@dataclass(frozen=True)
class Subspace:
    """A d-dimensional subspace of R^D held as a D x d orthonormal basis, or a batch (B x D x d)."""

    basis: np.ndarray

    def __post_init__(self):
        basis = np.ascontiguousarray(self.basis, dtype=np.float64)
        if basis.ndim not in (2, 3) or not len(basis):
            raise ValueError(f"basis must be D x d or B x D x d (B >= 1), got shape {basis.shape}")
        big_d, small_d = basis.shape[-2:]
        if not 1 <= small_d < big_d:
            raise ValueError(f"need 1 <= d < D, got d={small_d}, D={big_d}")
        err = np.linalg.norm(_t(basis) @ basis - np.eye(small_d), axis=(-2, -1)).ravel()
        if err.max() > ORTHONORMAL_TOL:
            i = int(err.argmax())
            raise ValueError(f"basis columns not orthonormal (|B^T B - I|_F = {err[i]:.2e}, basis {i})")
        basis.setflags(write=False)
        object.__setattr__(self, "basis", basis)

    @property
    def ambient_dim(self) -> int:
        return self.basis.shape[-2]

    @property
    def dim(self) -> int:
        return self.basis.shape[-1]

    def projector(self) -> np.ndarray:
        return self.basis @ _t(self.basis)


@dataclass(frozen=True)
class RowSpectrum:
    """One SVD of an n x D row matrix, enough to take its dominant span at any d.

    vt holds the right singular vectors as rows, by descending singular value
    (all of them unless row_spectrum was told to keep fewer), and rank the
    effective rank that subspace() checks d against. A batch, the spectra of
    B row matrices of one size, carries a leading batch axis on vt
    (B x keep x D) and a length-B rank array; spectrum[i] is its i-th
    spectrum, a view of the batch's vt that takes subspaces and checks d.
    """

    vt: np.ndarray
    n: int
    rank: int | np.ndarray

    def __getitem__(self, i: int) -> "RowSpectrum":
        """Spectrum i of a batch."""
        if self.vt.ndim != 3:
            raise TypeError("only a batch of spectra can be indexed")
        return RowSpectrum(self.vt[i], self.n, int(self.rank[i]))

    def subspace(self, d: int) -> Subspace:
        """The span of the top-d right singular vectors, after the checks on d."""
        self.check(d)
        return Subspace(self.vt[:d].T)

    def check(self, d: int) -> None:
        """Raise ValueError unless subspace(d) can be taken."""
        if self.vt.ndim != 2:
            raise TypeError("a batch of spectra is checked spectrum by spectrum: take spectrum[i]")
        big_d = self.vt.shape[1]
        if d < 1:
            raise ValueError("subspace dimension must be >= 1")
        if d > min(self.n, big_d):
            raise ValueError(f"d={d} exceeds min(n={self.n}, D={big_d})")
        if d > self.rank:
            raise ValueError(f"d={d} exceeds effective rank {self.rank} of the row matrix")
        if d > len(self.vt):
            raise ValueError(f"d={d} exceeds the {len(self.vt)} singular vectors kept")


def row_spectrum(
    rows: np.ndarray,
    center: bool = False,
    *,
    ambient_dim: int | None = None,
    keep: int | None = None,
) -> RowSpectrum:
    """SVD of a stack of row vectors, with its effective rank.

    With ``center=True`` the row mean is subtracted first, which fits an
    affine cloud instead of a span. The effective rank counts singular values
    above ``sigma_1 * max(n, D) * eps``; for rows given in an orthonormal
    basis of part of a wider space, ``ambient_dim`` names that space's
    dimension so the count matches the one on the full rows. ``keep`` limits
    the right singular vectors held to the leading ``keep``.

    A B x n x D stack of row matrices gives their batch of spectra, from one
    stacked SVD that factors each matrix as the 2-d call would: spectrum i
    has the bits of row_spectrum(rows[i]).
    """
    rows = np.atleast_2d(np.asarray(rows, dtype=np.float64))
    n, big_d = rows.shape[-2:]
    if center and n:
        rows = rows - rows.mean(axis=-2, keepdims=True)
    _, sigma, vt = np.linalg.svd(rows, full_matrices=False)
    width = max(n, big_d if ambient_dim is None else ambient_dim)
    rank = np.count_nonzero(sigma > sigma[..., :1] * width * np.finfo(np.float64).eps, axis=-1)
    if keep is not None:
        vt = vt[..., :keep, :].copy()
    return RowSpectrum(vt=vt, n=n, rank=int(rank) if rows.ndim == 2 else rank)


def subspace_from_rows(
    rows: np.ndarray, d: int, center: bool = False, *, ambient_dim: int | None = None
) -> Subspace:
    """Dominant d-dimensional span of a stack of row vectors.

    Takes the top-d right singular vectors of the (by default uncentered)
    n x D row matrix, ordered by descending singular value (see row_spectrum
    for ``center`` and ``ambient_dim``). ``d`` must not exceed min(n, D) or
    the effective rank.
    """
    return row_spectrum(rows, center, ambient_dim=ambient_dim).subspace(d)


@dataclass(frozen=True)
class PrincipalAngleDecomposition:
    """Principal angles and matched directions linking two equal-dim subspaces.

    theta:      d ascending angles in [0, pi/2]
    u1, v:      d x d orthogonal factors with ``source^T target = U1 diag(cos theta) V^T``
    directions: D x 2d, the source directions ``source U1`` next to the
                orthonormal complement directions b, orthogonal to the source,
                with ``target V = source U1 diag(cos theta) - b diag(sin theta)``

    directions is the flow kernel's factor, which gfk takes as it is. A batch
    of pairs carries one more leading axis on every field (theta is B x d,
    and so on). No field is wider than D x 2d; principal_angles builds them
    in O(D d^2) per pair.
    """

    theta: np.ndarray
    u1: np.ndarray
    v: np.ndarray
    directions: np.ndarray

    def __post_init__(self):
        for name in ("theta", "u1", "v", "directions"):
            getattr(self, name).setflags(write=False)

    @property
    def dim(self) -> int:
        return self.theta.shape[-1]

    @property
    def ambient_dim(self) -> int:
        return self.directions.shape[-2]

    def source_directions(self) -> np.ndarray:
        """Principal directions in the source subspace (D x d)."""
        return self.directions[..., : self.dim]

    def complement_directions(self) -> np.ndarray:
        """Matching directions in the source's complement (D x d)."""
        return self.directions[..., self.dim :]


def _t(a: np.ndarray) -> np.ndarray:
    """Each matrix of a stack transposed (a view)."""
    return np.swapaxes(a, -1, -2)


def _columns(a: np.ndarray, rows: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """Columns idx[j] (G x k) of the matrices a[rows[j]], as a G x n x k stack.

    Each result matrix is column-major, as the 2-d gather a[:, idx] leaves
    it. Products read that layout, and BLAS may round a transposed operand
    differently, so a batch keeps the bits of one pair only in this layout.
    """
    # the two index arrays broadcast to G x k and lead the indexed shape: G x k x n
    return _t(a[rows[:, None], :, idx])


def _set_columns(a: np.ndarray, rows: np.ndarray, idx: np.ndarray, values: np.ndarray) -> None:
    """Write values (G x n x k) into columns idx[j] (G x k) of the matrices a[rows[j]]."""
    a[rows[:, None], :, idx] = _t(values)


def principal_angles(ph: Subspace, pt: Subspace) -> PrincipalAngleDecomposition:
    """Decompose the pair (ph, pt) into principal angles and matched directions.

    Two D x d bases give one decomposition; two batches of as many B x D x d
    bases give the decompositions of their pairs, in fields with a leading
    batch axis. A single pair is the batch of one, so both take one path and
    a batch gives the same bits as its pairs one at a time.

    With ``U1 Gamma V^T`` the SVD of ``ph^T pt``, the columns of
    ``W = pt V - ph U1 Gamma = (I - ph ph^T) pt V`` have norms sin(theta);
    negated and normalized they are the complement directions. Angles come
    from ``arctan2(sin, cos)``, accurate to ~1e-15 even where cos rounds to 1.
    Below pi/4 the cosines no longer separate the singular vectors, so those
    columns are re-split by a thin SVD of their part of W (the sine/cosine
    split of Knyazev & Argentati 2002), one stacked SVD for the pairs with
    the same number of such columns. Directions with sine at most
    DEGENERATE_ANGLE get an orthonormal completion, pair by pair. Cost is
    O(D d^2) per pair: no factor is wider than D x 2d and no D x D matrix is
    factorized. Every step is one stacked LAPACK or BLAS call per batch, and
    stacked calls factor each matrix as the 2-d call would. Gathered
    columns keep the memory layout of the 2-d gather (see _columns), as BLAS
    may round an operand differently in another layout.
    """
    batch = ph.basis.shape[:-2]
    if pt.basis.shape[:-2] != batch:
        raise ValueError(f"need as many targets as sources, got {batch} and {pt.basis.shape[:-2]}")
    if ph.ambient_dim != pt.ambient_dim:
        raise ValueError(f"ambient dimensions differ: {ph.ambient_dim} vs {pt.ambient_dim}")
    if ph.dim != pt.dim:
        raise ValueError(f"subspace dimensions differ: {ph.dim} vs {pt.dim}")
    if 2 * ph.dim > ph.ambient_dim:
        raise ValueError(f"need 2d <= D for the kernel factors, got d={ph.dim}, D={ph.ambient_dim}")

    src, tgt = (s.basis.reshape(-1, ph.ambient_dim, ph.dim) for s in (ph, pt))
    u1, cos, sin, v, b = _split_angles(src, tgt)
    theta = np.arctan2(sin, cos)
    order = np.argsort(theta, axis=1, kind="stable")
    theta = np.take_along_axis(theta, order, axis=1)
    every = np.arange(len(src))
    u1, v = _columns(u1, every, order), _columns(v, every, order)
    directions = np.concatenate([src @ u1, _columns(b, every, order)], axis=2)
    fields = (theta, u1, v, directions)
    return PrincipalAngleDecomposition(*(a.reshape(batch + a.shape[1:]) for a in fields))


def _split_angles(src: np.ndarray, tgt: np.ndarray):
    """(u1, cos, sin, v, b) of principal_angles for B x D x d stacks of bases, unsorted."""
    big_d, d = src.shape[1:]
    m = _t(src) @ tgt
    u1, cos, vt = np.linalg.svd(m)
    v = _t(vt)
    w = tgt @ v - src @ (u1 * cos[:, None, :])
    sin = np.linalg.norm(w, axis=1)
    small = sin < cos
    b = np.divide(-w, sin[:, None, :], out=np.empty_like(w), where=~small[:, None, :])
    n_small = small.sum(axis=1)
    for k in np.unique(n_small[n_small > 0]).tolist():
        sel = np.flatnonzero(n_small == k)
        cols = small[sel].nonzero()[1].reshape(len(sel), k)
        rest = (~small[sel]).nonzero()[1].reshape(len(sel), d - k)
        # The part of W along ph and the large-angle directions is roundoff,
        # yet it would dominate a column whose sine is near zero.
        known = np.concatenate([src[sel], _columns(b, sel, rest)], axis=2)
        w_small = _columns(w, sel, cols)
        w_small -= known @ (_t(known) @ w_small)
        q, sin_small, rt = np.linalg.svd(w_small, full_matrices=False)
        v_small = _columns(v, sel, cols) @ _t(rt)
        mv = m[sel] @ v_small
        cos_small = np.linalg.norm(mv, axis=1)
        degenerate = sin_small <= DEGENERATE_ANGLE
        for j in np.flatnonzero(degenerate.any(axis=1)).tolist():
            # n + k coordinate axes projected off the n accepted columns keep
            # k singular values of exactly 1: a well-conditioned completion
            accepted = np.hstack([known[j], q[j][:, ~degenerate[j]]])
            n, n_deg = accepted.shape[1], int(degenerate[j].sum())
            resid = np.eye(big_d, n + n_deg) - accepted @ accepted[: n + n_deg].T
            q[j][:, degenerate[j]] = np.linalg.svd(resid, full_matrices=False)[0][:, :n_deg]
        _set_columns(v, sel, cols, v_small)
        _set_columns(u1, sel, cols, mv / cos_small[:, None, :])
        cos[sel[:, None], cols] = cos_small
        sin[sel[:, None], cols] = sin_small
        _set_columns(b, sel, cols, -q)
    return u1, cos, sin, v, b


def geodesic_point(pa: PrincipalAngleDecomposition, t: float) -> Subspace:
    """Point Phi(t) on the geodesic from the source (t=0) to the target (t=1).

    Phi(t) = source_directions * cos(t theta) - complement_directions * sin(t theta),
    columnwise; its columns stay orthonormal for every t. A batch of pairs
    gives a batch of points, each with its own angles.
    """
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"t must be in [0, 1], got {t}")
    cos_t = np.cos(t * pa.theta)[..., None, :]
    sin_t = np.sin(t * pa.theta)[..., None, :]
    basis = pa.source_directions() * cos_t - pa.complement_directions() * sin_t
    return Subspace(basis)


def _lambda_coefficients(theta: np.ndarray, gap: np.ndarray | None = None) -> tuple[np.ndarray, ...]:
    """Diagonal kernel coefficients (lambda1, lambda2, lambda3) per angle.

    lambda1, lambda3 = 1 +- sin(2 theta) / (2 theta) and lambda2 =
    -sin(theta)^2 / theta. With q = sin(theta) / theta = 1 - gap (gap from
    _sinc_gap unless given), sin(2 theta) / (2 theta) = q cos(theta), so
    lambda3 = gap cos(theta) + 2 sin(theta / 2)^2, two terms >= 0 on
    [0, pi/2]: no cancellation and no division at any angle. lambda1 =
    2 - lambda3 and lambda2 = -sin(theta) (1 - gap); at theta = 0 the three
    are exactly 2, 0 and 0.
    """
    if gap is None:
        gap = _sinc_gap(theta)
    lam3 = gap * np.cos(theta) + 2.0 * np.sin(0.5 * theta) ** 2
    return 2.0 - lam3, -np.sin(theta) * (1.0 - gap), lam3


def _sinc_gap(theta: np.ndarray) -> np.ndarray:
    """1 - sin(theta) / theta for theta in [0, pi/2], to about 1.5 ulp relative.

    Summed from its Taylor series, so the cancellation of the direct form
    near theta = 0 never happens; the terms up to theta^20 leave a
    truncation below 1e-18 absolute on the whole range (about 2e-18
    relative at pi/2).
    """
    t2 = theta * theta
    gap = np.full_like(theta, _SINC_GAP_SERIES[-1])
    for c in _SINC_GAP_SERIES[-2::-1]:
        gap *= t2
        gap += c
    gap *= t2
    return gap


def _angle_blocks(top: np.ndarray, off: np.ndarray, bottom: np.ndarray) -> np.ndarray:
    """The 2d x 2d matrices [[diag(top), diag(off)], [diag(off), diag(bottom)]], one per row of angles."""
    d = top.shape[-1]
    out = np.zeros(top.shape[:-1] + (2 * d, 2 * d))
    idx = np.arange(d)
    out[..., idx, idx] = top
    out[..., idx + d, idx + d] = bottom
    out[..., idx, idx + d] = off
    out[..., idx + d, idx] = off
    return out


@dataclass(frozen=True)
class GfkKernel:
    """Geodesic flow kernel in factored form G = f lam f^T.

    f is D x 2d with orthonormal columns (source directions next to
    complement directions); lam is the symmetric PSD 2d x 2d coefficient
    matrix and lam_sqrt its symmetric square root (gfk builds both in closed
    form, PSD by construction, without an eigensolver). The evaluation path
    never materializes the D x D kernel; it maps rows through the D x 2d
    product f lam_sqrt, formed once per kernel.

    A batch of kernels carries a leading batch axis on f, lam and lam_sqrt
    and is validated in a few stacked calls. kernel[i] is its i-th kernel: it
    shares the batch's arrays and forms its own product with f lam_sqrt, so
    the batch never holds all of them at once. A kernel built by
    GfkKernel(f, lam, lam_sqrt) is checked; gfk builds its kernels without
    the checks, from factors that principal_angles and the closed form make
    valid by construction.
    """

    f: np.ndarray
    lam: np.ndarray
    lam_sqrt: np.ndarray

    def __post_init__(self):
        f = np.ascontiguousarray(self.f, dtype=np.float64)
        lam = np.ascontiguousarray(self.lam, dtype=np.float64)
        lam_sqrt = np.ascontiguousarray(self.lam_sqrt, dtype=np.float64)
        m = f.shape[-1]
        if f.ndim not in (2, 3) or lam.shape != f.shape[:-2] + (m, m) or lam_sqrt.shape != lam.shape:
            raise ValueError("lam/lam_sqrt shapes do not match the factor width")
        if np.max(np.linalg.norm(_t(f) @ f - np.eye(m), axis=(-2, -1))) > ORTHONORMAL_TOL:
            raise ValueError("kernel factor columns not orthonormal")
        if np.max(np.linalg.norm(lam - _t(lam), axis=(-2, -1))) > ORTHONORMAL_TOL:
            raise ValueError("lam not symmetric")
        self._set(f, lam, lam_sqrt)

    @classmethod
    def _unchecked(cls, f, lam, lam_sqrt) -> "GfkKernel":
        """A kernel of float64 C-contiguous arrays known to be valid, not checked again."""
        kernel = object.__new__(cls)
        kernel._set(f, lam, lam_sqrt)
        return kernel

    def _set(self, f, lam, lam_sqrt) -> None:
        proj = f @ lam_sqrt if f.ndim == 2 else None
        for arr in (f, lam, lam_sqrt, proj):
            if arr is not None:
                arr.setflags(write=False)
        object.__setattr__(self, "f", f)
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "lam_sqrt", lam_sqrt)
        object.__setattr__(self, "_proj", proj)

    def __getitem__(self, i: int) -> "GfkKernel":
        """Kernel i of a batch, validated with the batch."""
        if self.f.ndim != 3:
            raise TypeError("only a batch of kernels can be indexed")
        return GfkKernel._unchecked(self.f[i], self.lam[i], self.lam_sqrt[i])

    @property
    def ambient_dim(self) -> int:
        return self.f.shape[-2]

    @property
    def projection(self) -> np.ndarray:
        """The D x 2d product f lam_sqrt that project multiplies by (read-only)."""
        if self._proj is None:
            raise TypeError("a batch of kernels projects kernel by kernel: take kernels[i]")
        return self._proj

    def project(self, vectors: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Map vectors (rows, shape ... x D) into kernel coordinates (... x 2d).

        Cosines between projected vectors equal the kernel similarity, since
        x^T G y = (proj x)^T (proj y) and |sqrt(G) x| = |proj x|. One product
        with f lam_sqrt; out, when given, receives it.

        The product is float64, whatever the dtype of vectors, unless out is
        float32: then it is a float32 product with a float32 copy of
        f lam_sqrt, taken in blocks of rows (_CAST_BLOCK_ELEMS) of a row
        matrix. float32 rows are read as they are; float64 rows are cast
        a block at a time, so no float32 copy of them is made, and values
        past the float32 range become inf, and their rows inf or NaN.
        """
        if self._proj is None:
            raise TypeError("a batch of kernels projects kernel by kernel: take kernels[i]")
        vectors = np.asarray(vectors)
        if out is None or out.dtype != np.float32:
            return np.matmul(np.asarray(vectors, dtype=np.float64), self._proj, out=out)
        proj = self._proj.astype(np.float32)
        with np.errstate(over="ignore", invalid="ignore"):
            if vectors.ndim != 2:
                return np.matmul(vectors.astype(np.float32), proj, out=out)
            step = max(1, _CAST_BLOCK_ELEMS // vectors.shape[1])
            for lo in range(0, len(vectors), step):
                np.matmul(vectors[lo : lo + step].astype(np.float32, copy=False), proj, out=out[lo : lo + step])
        return out

    def materialize(self) -> np.ndarray:
        """Dense D x D kernel, for diagnostics and tests only."""
        return self.f @ self.lam @ _t(self.f)

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

    The 2d x 2d coefficient matrix [[L1, L2], [L2, L3]] from the per-angle
    lambdas is d independent 2 x 2 blocks M, one per angle theta, with
    eigenvalues 1 +- q, q = sin(theta) / theta. Each block's square root is
    taken in closed form, (M + s I) / (sqrt(1 + q) + sqrt(1 - q)) with
    s = sqrt((1 - q)(1 + q)), and 1 - q from its series: no eigensolver, and
    both eigenvalues of the root are >= 0 by construction. The factor f is
    pa.directions itself, orthonormal as principal_angles built it, and the
    coefficients are symmetric by construction, so the kernel is not checked
    again. A batch of pairs gives a batch of kernels; every step is
    elementwise per angle, so each kernel has the bits it gets when built
    alone.
    """
    gap = _sinc_gap(pa.theta)  # 1 - q
    lam1, lam2, lam3 = _lambda_coefficients(pa.theta, gap)
    root_det = np.sqrt(gap * (2.0 - gap))
    root_trace = np.sqrt(2.0 - gap) + np.sqrt(gap)
    lam = _angle_blocks(lam1, lam2, lam3)
    lam_sqrt = _angle_blocks((lam1 + root_det) / root_trace, lam2 / root_trace, (lam3 + root_det) / root_trace)
    return GfkKernel._unchecked(np.ascontiguousarray(pa.directions, dtype=np.float64), lam, lam_sqrt)


def gfk_similarity(kernel: GfkKernel, x: np.ndarray, y: np.ndarray) -> float:
    """Kernel-space cosine x^T G y / (|sqrt(G) x| |sqrt(G) y|), in [-1, 1].

    A vector that falls in the kernel's null space (projected norm < 1e-12)
    has no usable direction; the similarity is then pinned to -1 (worst).
    Raises ValueError when a vector's dimension is not the kernel's.
    """
    x, y = np.asarray(x, dtype=np.float64), np.asarray(y, dtype=np.float64)
    for name, v in (("x", x), ("y", y)):
        if v.shape[-1:] != (kernel.ambient_dim,):
            raise ValueError(f"{name} has shape {v.shape}; the kernel's ambient dimension is {kernel.ambient_dim}")
    a = kernel.project(x)
    b = kernel.project(y)
    na = np.linalg.norm(a)
    nb = np.linalg.norm(b)
    if na < NULL_SPACE_NORM or nb < NULL_SPACE_NORM:
        return -1.0
    return float(np.clip(a @ b / (na * nb), -1.0, 1.0))


def gfk_numeric_oracle(pa: PrincipalAngleDecomposition, nodes: int) -> np.ndarray:
    """Trapezoid approximation of the raw path integral int_0^1 Phi(t) Phi(t)^T dt.

    Test oracle, not a production path: the closed form equals exactly twice
    this integral. Runs the flow formula over a batch of t values rather than
    the per-angle lambdas, so it stays independent of gfk(). A batched
    decomposition (theta B x d) gives a B x D x D stack, one integral per
    pair.
    """
    if nodes < 2:
        raise ValueError("need at least 2 trapezoid nodes")
    ts = np.linspace(0.0, 1.0, nodes)[:, None]
    a = pa.source_directions()[..., None, :, :]
    b = pa.complement_directions()[..., None, :, :]
    angles = ts * pa.theta[..., None, :]  # ... x nodes x d
    phi = a * np.cos(angles)[..., None, :] - b * np.sin(angles)[..., None, :]
    weights = np.full(nodes, 1.0 / (nodes - 1))
    weights[0] = weights[-1] = 0.5 / (nodes - 1)

    def side_by_side(x):  # ... x nodes x D x d -> ... x D x (nodes d)
        return np.moveaxis(x, -3, -2).reshape(x.shape[:-3] + (x.shape[-2], -1))

    # sum_n w_n Phi_n Phi_n^T, contracted over nodes and subspace columns in one product
    return side_by_side(phi * weights[:, None, None]) @ _t(side_by_side(phi))

