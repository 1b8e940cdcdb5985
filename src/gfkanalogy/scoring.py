"""Exact ranks of analogy questions from float32 scores and proven error bounds.

Scoring works on stacks of G float32 row sets (see _Scorer): the table itself
(G = 1) for the plain measures, or the projections of G kernels. A stack's
cosines, one row per distinct question word per row set, come from one
batched float32 product, and every |V|-wide pass runs in float32: the
additive and multiplicative blocks, null handling and the two counts per
score row behind the gold ranks. The additive block and the clips take a
fixed number of NumPy calls per stack; the multiplicative rows and the
counts take a few per score row, which on a wide vocabulary moves less
memory than calls over the whole slab.

Ranks are still exact. A score is defined per pair by a float64 reference
(see _Scorer._cosines): plain rows upcast to float64, kernel rows
re-projected pair by pair from their float32 coordinates, upcast, through the
kernel's float64 f lam_sqrt, whose bits do not depend on the other pairs. Every
float32 score lies within a proven bound of it, from one error model for
plain and kernel rows (see _Scorer, _row_terms, _add_tau and _mul_bound;
kernel bounds grow with the largest rho_j = |c_j| |f lam_sqrt|_F / |r_j| of
a kernel's ordinary candidates). _gold_ranks centres one band per score
row on the best float32 score of the question's golds (every case variant
of y), counts the candidates clearly above or below it from the float32
scores, and goes to the reference only for rows whose band holds other
candidates or whose stack has suspects: candidates past _RHO_CAP or too
near NULL_SPACE_NORM to bound, which no count takes in. So the ranks are
those of the reference scores (_Scorer.answer gives them for one question),
the same on any BLAS, thread count or block size; exact duplicates and 2v
multiples tie.

A stack holds as many row sets as fit _CHUNK_ELEMS of |V|-wide rows: their
kernel rows, cosine rows and per question a score row, and for CosMUL at most
one denominator row (one per distinct a word); a row set over it is scored in
slabs of questions, and in parts by distinct words if need be (see _stacks).
So each |V|-wide block of scoring (a stack's rows, a chunk of reference rows,
a part of open rows) takes at most that one budget. The blocks live in one
_Workspace per call and are reused from stack to stack; each scorer owns its
candidate norms and flags (G x |V|).
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple

import numpy as np

from .grassmann import NULL_SPACE_NORM

# The cosine rule behind each measure; kernel measures apply it in kernel coordinates.
_MODES = {"CosADD": "add", "CosMUL": "mul", "GFKCosADD": "add", "GFKCosMUL": "mul"}
# The scoring budget: a cap on the elements of every |V|-wide block of scoring,
# plain or kernel, so that peak memory is the table, this budget per block and
# |V|(4w + 4) bytes of float32 pool coordinates and their norms, however wide
# the vocabulary. A stack's block is, per row set, its kernel rows (2d; none
# for the table itself), the cosine rows of its u distinct words and per
# question slot a score row, plus for CosMUL a denominator row per distinct a
# word (at most one per question), all float32. Reference scores are taken in
# chunks whose gathered float64 rows, and open score rows decided again in
# parts, hold an eighth as many elements.
_CHUNK_ELEMS = 5_000_000

# A kernel stack's candidate whose rho_j = |c_j| |P|_F / |r_j| (its pool
# coordinates c_j, the kernel's f lam_sqrt P and its projected row r_j) is past
# this cap is a suspect, scored by the reference alone (see
# _Scorer.of_kernels): its float32 row may be off by gamma_{w+2}(u) rho_j of
# itself, and a row's bound grows with the largest rho_j it covers. A row
# spread evenly over w coordinates has rho_j near sqrt(w); at the cap the
# projection term gamma_{w+2}(u) rho_j of a bound stays below 2^-9 for rows
# up to w = 512 coordinates wide. The benchmark's kernels reach 12 (w = 44)
# and 19 (w = 32).
_RHO_CAP = 64.0


class _Workspace:
    """Reused buffers for one evaluate call.

    get(name, shape) returns the leading shape[0] rows of the named float32
    buffer, which is reallocated only when it has fewer rows or another row
    shape, so the vocabulary-wide blocks of scoring ("rows", "cos", "scores",
    "den") are allocated a few times per call instead of once per kernel,
    chunk or question. A view is valid until the next get of its name.
    """

    def __init__(self):
        self._bufs: dict[str, np.ndarray] = {}

    def get(self, name: str, shape: tuple[int, ...]) -> np.ndarray:
        buf = self._bufs[name] if name in self._bufs else None
        if buf is None or buf.shape[0] < shape[0] or buf.shape[1:] != shape[1:]:
            buf = self._bufs[name] = np.empty(shape, dtype=np.float32)
        return buf[: shape[0]]


def _row_norms(rows: np.ndarray, dtype=None) -> np.ndarray:
    """Euclidean norm of each row (last axis), in one pass with no rows-sized temporary, summed in dtype if given."""
    norms = np.einsum("...i,...i->...", rows, rows, dtype=dtype)
    return np.sqrt(norms, out=norms)


class _Block(NamedTuple):
    """The questions of G lists of scoring items, one list per row set, as padded index arrays.

    words (G x U) holds each list's distinct a, b, x indices in ascending
    order, padded with its first; pos (G x K x 3) the positions of each
    question's a, b, x in its list's words; gold (G x K x L) its gold indices
    and excluded (G x K x E) its excluded ones, padded with -1 to the
    longest list; real (G x K) marks the slots that hold a question. A
    padding slot repeats its list's first question, so it adds no distinct
    word, and gold rows are padded with their first index, which never
    changes their argmax.
    """

    words: np.ndarray
    pos: np.ndarray
    gold: np.ndarray
    excluded: np.ndarray
    real: np.ndarray

    @classmethod
    def of(cls, entries) -> "_Block":
        k = max(len(e) for e in entries)
        real = np.array([[True] * len(e) + [False] * (k - len(e)) for e in entries])
        slots = [e + e[:1] * (k - len(e)) for e in entries]
        most = max(len(item[1]) for e in entries for item in e)
        gold = [[[*item[1]] + [item[1][0]] * (most - len(item[1])) for item in e] for e in slots]
        widest = max(len(item[2]) for e in entries for item in e)
        excluded = [[[*item[2]] + [-1] * (widest - len(item[2])) for item in e] for e in slots]
        idx = np.array([[item[0][:3] for item in e] for e in slots], dtype=np.intp)
        # distinct words per list: sort each list's indices and number the runs
        flat = idx.reshape(len(entries), -1)
        order = np.argsort(flat, axis=1, kind="stable")
        ordered = np.take_along_axis(flat, order, axis=1)
        first = np.ones(flat.shape, dtype=bool)
        np.not_equal(ordered[:, 1:], ordered[:, :-1], out=first[:, 1:])
        run = np.cumsum(first, axis=1) - 1
        pos = np.empty_like(flat)
        np.put_along_axis(pos, order, run, axis=1)
        words = np.repeat(ordered[:, :1], int(run[:, -1].max()) + 1, axis=1)
        words[first.nonzero()[0], run[first]] = ordered[first]
        return cls(words, pos.reshape(idx.shape), np.array(gold, dtype=np.intp),
                   np.array(excluded, dtype=np.intp), real)

    def take(self, lo: int, hi: int) -> "_Block":
        """The lists lo to hi - 1, with the block's padding."""
        return _Block(*(a[lo:hi] for a in self))


def _slices(n: int, size: int) -> list[slice]:
    """Consecutive slices of at most size items covering range(n)."""
    return [slice(i, i + size) for i in range(0, n, size)]


# Unit roundoffs of float32 and float64, and the largest float32 rounding
# error of a result in the subnormal range (half the smallest subnormal).
_U32, _U64, _ETA32 = 2.0**-24, 2.0**-53, 2.0**-150


def _gamma(n: int, unit: float) -> float:
    """gamma_n = n unit / (1 - n unit): the relative error bound of n roundings (Higham ch. 3)."""
    return n * unit / (1 - n * unit)


def _project_rows(coords: np.ndarray, proj_t: np.ndarray) -> np.ndarray:
    """float64 rows c f lam_sqrt of coordinate rows c, each a row-wise dot of its own coordinates, never a GEMM.

    proj_t holds (f lam_sqrt)^T: coords P x w take one m x w factor, or
    each row its own (P x m x w). The float32 coordinates that the kernel
    rows project are upcast before the dots, as an einsum of mixed dtypes
    may group its sums otherwise. The einsum dots each (row, factor column)
    pair in one order whatever the other rows are, in either layout, so a
    row's bits do not depend on which rows are projected with it (the tests
    hold rows computed alone, among others or per row set bit-equal).
    """
    coords = coords.astype(np.float64, copy=False)
    return np.einsum("ij,ikj->ik" if proj_t.ndim == 3 else "ij,kj->ik", coords, proj_t)


def _add_tau(spread: np.ndarray, m: int, dc32, drow) -> np.ndarray:
    """Bound on |float32 additive score - reference score| per question; inf when none holds.

    spread is (|x| + |a| + |b|) / |x - a + b| from the word norms (a null
    word's norm reads 1), m the row width, and dc32 and drow the scorer's
    cosine and row errors (see _Scorer). Write u = 2^-24, v = 2^-53
    and eta = 2^-150 (the float32 rounding error in the subnormal range),
    and take every bound in the standard model of Higham, *Accuracy and
    Stability of Numerical Algorithms*, ch. 3 (a length-m dot is off by at
    most gamma_m |u||w|, gamma_m = mv / (1 - mv)). The unit query rows are
    float64 data both paths share, with norms at most 1 + (m + 2)v.

    - The reference's row-wise dots are each within (m + 1)v of the exact
      cosine of the rows, and the float64 coefficients +-|w| / |t| and the
      target t = x - a + b each carry a few more roundings (gamma_4 v per
      unit of spread). Together: spread * e64 + e64, e64 = 2(m + 8)v.
    - Each cosine's float32 value is within dc32 of the exact cosine of its
      float32 candidate row (see _Scorer). Rounding the coefficients to
      float32 costs u per unit of spread, and the float32 coefficient GEMM,
      three nonzero terms per score, gamma_3(u) < 3.001u, both times the
      cosines' size, at most 1 + dc32 + drow. Each of these roundings may
      add eta, (spread + 8) eta in all.
    - A candidate's float32 row is off its reference row by an angle of at
      most drow (0 for plain rows, whose reference rows are their exact
      float64 upcasts). The additive score is linear in the candidate's
      unit row, with a weight vector of norm within spread * e64 of one, so
      this adds drow (1 + spread (4.001u + e64)) whatever the spread.
    - Clipping to [-1, 1] does not increase a difference, and null
      candidates are -1 on both paths.

    The float32 products cannot overflow while spread <= 2^100; past that,
    or for a non-finite spread, the bound is inf.
    """
    e64 = 2 * (m + 8) * _U64
    tau = spread * (dc32 + 4.001 * _U32 * (1 + dc32) + e64 + _ETA32) + (e64 + 8 * _ETA32)
    tau = tau + drow * (1 + spread * (4.001 * _U32 + e64))
    return np.where(spread <= 2.0**100, tau, np.inf)


def _mul_bound(m: int, epsilon: float, shift: bool, dc32: float) -> tuple[float, float, float, float]:
    """(k0, k1, dd, R) with |S - reference| <= (k0 + k1 |S|) / (|D| - dd) for float32 CosMUL scores.

    S is a float32 multiplicative score and D its float32 denominator. The
    bound holds where |D| > dd, and none holds where |D| <= dd: the
    denominator may then be 0 or change sign (possible without the shift).
    m is the row width; u, v, eta and e64 are as for _add_tau, and
    epsilon stands for |epsilon|.

    - One cosine: the reference is within (m + 1)v of the exact cosine,
      and the float32 cosine within dc32 of it, the scorer's cosine error
      plus its row error (see _Scorer and _add_tau): dc = dc32 + e64.
      Clipping and the -1 pins of null words and candidates keep it.
    - Shifted, s = (c + 1) / 2 is within ds = dc / 2 + u + eta + v of its
      reference (the float32 sum c + 1 <= 2 rounds once; halving is exact
      but in the subnormal range); unshifted, ds = dc. |s| <= 1 on both
      paths.
    - Numerator s_b s_x: within dn = 2 ds + u + eta + v. Denominator
      s_a + epsilon: within dd = ds + 2(u + v)(1 + epsilon) + eta, the
      rounding of epsilon to float32 included.
    - The exact quotient of the float32 numerator and denominator is at
      most q = (|S| + eta)(1 + 2u) in magnitude. Since n32/D32 - n/D =
      (n32 - n)/D + (n32/D32)(D - D32)/D and |D| >= |D32| - dd, the exact
      quotients differ by at most (dn + q dd) / (|D32| - dd); the float32
      division adds u q + eta and the float64 one v q (to first order).
      As |D32| <= R = (1 + epsilon)(1 + 2u), those last terms are at most
      R((u + v) q + eta) / (|D32| - dd). Collected over |S|, that is
      k0 + k1 |S| over |D32| - dd, widened by 0.1% for second-order terms
      and the roundings of this formula. R is returned too.
    """
    e64, eps = 2 * (m + 8) * _U64, abs(epsilon)
    dc = dc32 + e64
    ds = dc / 2 + _U32 + _ETA32 + _U64 if shift else dc
    dn = 2 * ds + _U32 + _ETA32 + _U64
    dd = ds + 2 * (_U32 + _U64) * (1 + eps) + _ETA32
    r, q = (1 + eps) * (1 + 2 * _U32), 1 + 2 * _U32
    per_q = dd + r * (_U32 + _U64)
    return 1.001 * (dn + r * _ETA32 + q * _ETA32 * per_q), 1.001 * q * per_q, dd, r


# A margin widened by this factor and rounded to float32 (which takes off at
# most 2^-24 of it) still covers the few float32 roundings, each at most
# 2^-24 relative, of the difference it is compared with.
_WIDEN32 = 1 + 2.0**-17


def _margin(x) -> np.ndarray:
    """float64 x (a scalar or an array) widened by _WIDEN32 and rounded to float32; inf past the float32 range."""
    x = np.multiply(x, _WIDEN32)
    return np.where(x < 2.0**127, x, np.inf).astype(np.float32)


def _add_split(score: np.ndarray, level, tau) -> tuple[np.ndarray, np.ndarray]:
    """(p, k) that decide float32 additive score rows, within tau of their reference, against float64 levels g.

    score is one row, or C rows with C levels and bounds, and becomes p =
    S - g32 in place (pass a copy). Where p > k the reference score is
    above g, where p < -k below it; elsewhere it is undecided. g32 is off g
    by at most u|g| + eta, and k = tau + u|g| + eta, widened, covers that
    and the rounding of p.
    """
    level = np.asarray(level)
    score -= level.astype(np.float32)[..., None]
    return score, _margin(tau + _U32 * np.abs(level) + _ETA32)


def _mul_split(score: np.ndarray, den: np.ndarray, level, bound) -> tuple[np.ndarray, np.ndarray]:
    """(p, k) that decide float32 multiplicative score rows against float64 levels g, as _add_split does.

    den holds the scores' float32 denominators and bound is _mul_bound's
    (k0, k1, dd, R), each an array over the rows when there are C of them.
    p = (S - g32) max(|D| - (dd + k1), 0) in float32, taken in place of
    score and den (pass copies), and NaN (undecided) where S or g32 is not
    finite, which the caller lets pass without floating-point warnings.

    Write delta = S - g. Where |D| - dd - k1 > 0 and |delta| (|D| - dd - k1)
    > k0 + k1 |g|, the candidate's bound (k0 + k1 |S|) / (|D| - dd) is below
    |delta|, as |S| <= |g| + |delta|; so its reference score lies on the
    side of g that S does. g32 is off g by at most u|g| + eta, which moves
    p by at most R(u|g| + eta) as |D| <= R; k = k0 + k1|g| + 2R(u|g| +
    eta), widened, covers that and the three float32 roundings of p.
    """
    k0, k1, dd, r = bound
    level = np.asarray(level)
    room = np.abs(den, out=den)
    room -= _margin(dd + k1)[..., None]
    np.maximum(room, 0.0, out=room)
    score -= level.astype(np.float32)[..., None]
    score *= room
    return score, _margin(k0 + k1 * np.abs(level) + 2 * r * (_U32 * np.abs(level) + _ETA32))


def _targets(x: np.ndarray, a: np.ndarray, b: np.ndarray):
    """Targets x - a + b over the last axis, with their norms and null flags.

    A target whose norm is below NULL_SPACE_NORM has no direction: it is
    flagged, and its norm reads 1. The unit target is target / norm.
    """
    target = x - a + b
    scale = _row_norms(target)
    null = scale < NULL_SPACE_NORM
    scale[null] = 1.0
    return target, scale, null


def _mul_reference(s: np.ndarray, epsilon: float, shift: bool) -> np.ndarray:
    """Reference multiplicative scores s_b s_x / (s_a + eps) from 3 x P reference cosines (a, b, x).

    s is shifted in place when shift is set; a NaN score (0 / 0) reads -inf.
    """
    if shift:
        s += 1.0
        s *= 0.5
    sa, sb, sx = s
    if shift and epsilon > 0:
        return sb * sx / (sa + epsilon)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        out = sb * sx / (sa + epsilon)
    out[np.isnan(out)] = -np.inf
    return out


def _row_terms(w: int | None, m: int, pf: np.ndarray):
    """Error terms of float32 row sets: (alpha, beta, lim, floor) per row set, and (nu, n_abs, nu64, dc32).

    A kernel's float32 row set holds r~_j = fl32(fl32(c_j) fl32(P)), the
    projection of candidate j's w coordinates c_j through the kernel's
    w x m factor P = f lam_sqrt (pf = |P|_F); the reference re-projects
    r_j = fl64(c_j P) row by row. With u, v and eta as for _add_tau and
    |c_j| read from its norm cn_j rounded to float32:

    - |r~_j - r_j| <= E_j = alpha cn_j + beta. Casting c_j and P costs u
      each and the length-w float32 dots gamma_w(u), so a component is off
      the exact c_j.P_k by gamma_{w+2}(u) |c_j|.|P_k| <= gamma_{w+2}(u)
      |c_j| |P_k| (Cauchy-Schwarz), and the row by gamma_{w+2}(u) |c_j| pf;
      the reference adds gamma_w(v) |c_j| pf. (Both paths read float32
      c_j, whose cast costs nothing; the bound keeps the term.) Subnormal
      casts and products add at most eta each: eta (sqrt(m w) |c_j| +
      sqrt(w) pf + sqrt(m) w + 1) per path. rho_j = cn_j pf / |r_j| is the
      error in units of the row.
    - The float32 norm n~_j of r~_j (squares, a sum, a square root) is
      within nu |r~_j| + n_abs of |r~_j|, nu = gamma_{m+1}(u) / 2 + u, and
      n_abs = sqrt(m eta) covers squares in the subnormal range. The
      reference norm is within nu64 |r_j| + n_abs of |r_j| alike.
    - lim is _RHO_CAP / pf in float32. A candidate with cn_j / n~_j <= lim
      has cn_j <= r n~_j, r = lim (1 + 3u) + 2^-100 (the float32 rounding
      of the quotient and its subnormal range), so its reference norm is at
      least n~_j kappa - (2 n_abs + beta), kappa = (1 / (1 + nu) - alpha r)
      (1 - nu64). From floor = (NULL_SPACE_NORM + 2 n_abs + beta) / kappa
      up, that is at least NULL_SPACE_NORM: the row is not null in the
      reference either. Where kappa <= 0 (past 2^18 coordinates) no floor
      holds, and the floor is inf.
    - Given its row, a float32 cosine of a candidate at or above the floor
      (the unit query row rounded to float32, a length-m float32 dot, the
      float32 norm and the divide) is within dc32 of the exact cosine of
      the float32 row: (nu + 2 n_abs / NULL_SPACE_NORM + gamma_m(u)(1 + u)
      + u + sqrt(m) eta) / (1 - nu - n_abs / NULL_SPACE_NORM) + u, plus
      (m + 1) eta / NULL_SPACE_NORM + eta for subnormal products.

    Each term is widened by 0.1% for second-order terms and the rounding
    of cn_j. Plain rows (w None) are the float32 table, and each one's
    reference row is its exact upcast: the rule is the same with no
    projection term, alpha = beta = 0 (see _Scorer).
    """
    if w is None:
        alpha = beta = np.zeros_like(pf)
    else:
        alpha = 1.001 * ((_gamma(w + 2, _U32) + _gamma(w, _U64)) * pf + 2 * _ETA32 * math.sqrt(m * w))
        beta = 2.002 * _ETA32 * (math.sqrt(w) * pf + math.sqrt(m) * w + 1)
    nu, nu64 = (1.001 * (_gamma(m + 1, unit) / 2 + unit) for unit in (_U32, _U64))
    n_abs = 1.002 * math.sqrt(m * _ETA32)
    lim = (_RHO_CAP / pf).astype(np.float32)
    kappa = (1 / (1 + nu) - alpha * (lim * (1 + 3 * _U32) + 2.0**-100)) * (1 - nu64)
    with np.errstate(divide="ignore"):
        floor = np.where(kappa > 0, 1.001 * (NULL_SPACE_NORM + 2 * n_abs + beta) / kappa, np.inf)
    nu_a = n_abs / NULL_SPACE_NORM
    dc32 = 1.001 * (
        (nu + 2 * nu_a + _gamma(m, _U32) * (1 + _U32) + _U32 + math.sqrt(m) * _ETA32) / (1 - nu - nu_a) + _U32
    ) + (m + 1) * _ETA32 / NULL_SPACE_NORM + _ETA32
    return (alpha, beta, lim, floor), (nu, n_abs, nu64, dc32)


class _Slab(NamedTuple):
    """One mode's scores for a slab of question slots, in every row set of a stack.

    scores (G x k x |V|, float32) is a workspace view, valid until the next
    slab is drawn; null (G x k) flags null targets or words. Score rows are
    numbered G-major, as scores.reshape(G * k, |V|) numbers them. tau
    (G x k) bounds |scores - reference| per score row, inf where no bound
    holds. split(i, g) decides the candidates of score row i (or of rows
    i, each against its own g) against a float64 score g with each
    candidate's own bound, which may be tighter
    (a multiplicative score over a small denominator is less exact than the
    others): see _add_split and _mul_split. ref(r, j) gives the float64
    reference scores of the pairs (score row r[p], candidate j[p]).
    suspect (G x |V|) flags the candidates of each row set that no bound
    covers, None when there are none; they score NaN.
    """

    mode: str
    at: slice
    scores: np.ndarray
    null: np.ndarray
    tau: np.ndarray
    split: Callable[..., tuple[np.ndarray, np.ndarray]]
    ref: Callable[[np.ndarray, np.ndarray], np.ndarray]
    suspect: np.ndarray | None


class _Scorer:
    """Cosine scoring over a stack of G float32 row sets, each one row per vocabulary word.

    rows (G x |V| x m) is the float32 table itself (G = 1) for the plain
    measures, or the float32 projections of G kernels for the kernel
    measures, made by of_kernels, so each kernel projects the vocabulary
    once. A cosine is (unit query row . raw candidate row) / |candidate row|,
    so no scorer keeps a unit copy of its rows: both kinds of row give one
    float32 product with the float32 unit query rows, divided in place by
    the rows' float32 norms.

    What a score is, is defined per pair by the float64 reference (see
    _cosines): the additive score is the cosine of the unit target
    (x - a + b) / |x - a + b| and the candidate, the multiplicative one
    s_b s_x / (s_a + eps) of the reference cosines. The reference reads
    plain rows upcast to float64 and re-projects kernel rows pair by pair
    from the float32 coordinates that the kernels project, upcast, and the
    query words' reference rows are the query rows of both paths.
    Every vocabulary-wide pass runs in float32, and each slab carries a
    proven bound on how far its float32 scores are from the reference ones,
    which _gold_ranks turns into exact ranks.

    Both kinds of row take one float32-row rule (see _row_terms): source
    is None for plain rows, or (coords, (f lam_sqrt)^T per kernel) for
    kernel rows, with coords the float32 coordinates they project, and
    cnorms the coordinates' norms rounded to float32 (see of_kernels). Each
    candidate of a row set is one of three kinds:
    - null: its float32 norm is so far below NULL_SPACE_NORM that its
      reference norm is too; its cosine against any query is pinned to -1
      on both paths, so it sinks to the bottom of every ranking.
    - ordinary: its float32 norm is at least the floor, so its reference
      row is not null either, and rho_j = cn_j pf / n~_j is at most
      _RHO_CAP.
    - a suspect: any other, such as a kernel row nearly in the null space
      of f lam_sqrt (a large rho_j), a norm too close to NULL_SPACE_NORM to
      tell, or coordinates past 2^59 / pf, whose float32 row or norm may
      overflow. Suspects score NaN in every float32 score row, so no count
      or bound takes them in, and _gold_ranks scores them by the reference
      in every score row of their row set.
    A plain row is the identity projection of itself with no rounding:
    alpha = beta = 0, pf = 1 and cn_j = n~_j, so its only suspects are
    rows near NULL_SPACE_NORM or with a float32 norm of 2^59 or more.

    The scorer carries its errors as (dc32, drow), one value of each per
    row set: a float32 cosine is within dc32 of the exact cosine of its
    float32 candidate row, and that row is off its reference row by an
    angle of at most drow. A row set's drow takes the largest rho_j of its
    ordinary candidates, through cn_j / n~_j <= r: their float32 rows are
    off their reference rows by at most e = (alpha r + beta / floor) /
    (1 / (1 + nu) - (n_abs + beta) / floor - alpha r) times the latter's
    norm, so the angle between the two rows is at most arcsin(e) <=
    e / sqrt(1 - e^2). Against a unit query row, or any unit vector, their
    cosines differ by at most that angle: drow, widened by 0.1%, which is 0
    for plain rows. The bounds take both alike (see _add_tau and
    _mul_bound).

    The scorer owns its per-candidate arrays (G x |V| norms and flags); the
    vocabulary-wide blocks of scoring come from the workspace ws.
    """

    def __init__(self, rows: np.ndarray, ws: _Workspace, source=None, cnorms=None):
        self.rows, self.ws, self.source = rows, ws, source
        g, m = len(rows), rows.shape[-1]
        self.norms = norms = _row_norms(rows)
        pf = np.ones(g) if source is None else np.sqrt(np.einsum("gij,gij->g", source[1], source[1]))
        cnorms = norms.copy() if source is None else np.broadcast_to(cnorms, norms.shape)
        w = None if source is None else source[0].shape[1]
        (alpha, beta, lim, floor), (nu, n_abs, nu64, dc32) = _row_terms(w, m, pf)
        # the float32 floor rounded up, so that a norm at or above it is at or above the float64 one
        floor32 = np.nextafter(floor.astype(np.float32), np.float32(np.inf))
        irregular = norms < floor32[:, None]
        # rows whose float32 projection or norm may overflow (their cosines are not read)
        big = (2.0**59 / pf).astype(np.float32)
        if cnorms.max() > big.min():
            irregular |= cnorms > big[:, None]
        any_irregular = bool(irregular.any())
        if any_irregular:
            raw = norms[irregular].astype(np.float64)
            norms[irregular] = 1.0
        ratio = cnorms / norms
        suspect = ratio > lim[:, None]
        self.null = null = np.zeros(norms.shape, dtype=bool)
        if any_irregular:
            suspect |= irregular
            i, j = np.nonzero(irregular)
            with np.errstate(invalid="ignore"):
                high = ((raw + n_abs) / (1 - nu) + alpha[i] * cnorms[i, j] + beta[i]) * (1 + nu64) + n_abs
            dead = high < NULL_SPACE_NORM * (1 - 2.0**-30)
            null[i[dead], j[dead]] = True
            suspect[i[dead], j[dead]] = False
        any_suspect = bool(suspect.any())
        peak = np.max(ratio, axis=1, initial=0.0, where=~suspect) if any_suspect else ratio.max(axis=1)
        r = peak.astype(np.float64) * (1 + 3 * _U32) + 2.0**-100
        e = (alpha * r + beta / floor) / (1 / (1 + nu) - (n_abs + beta) / floor - alpha * r)
        self.any_null = bool(null.any())
        self.suspect = suspect if any_suspect else None
        # past e = 1/2 take the largest difference of two cosines, 2
        self.errors = (np.full(g, dc32), np.where(e < 0.5, 1.001 * e / np.sqrt(1 - np.minimum(e, 0.5) ** 2), 2.0))

    @staticmethod
    def kernel_inputs(coords: np.ndarray) -> np.ndarray:
        """cnorms for of_kernels, once for every kernel that projects the float32 coords.

        Their float64 norms rounded to float32 (inf past its range: a suspect),
        with no float64 copy of the coordinates.
        """
        with np.errstate(over="ignore"):
            return _row_norms(coords, np.float64).astype(np.float32)

    @classmethod
    def of_kernels(cls, kernels, ws: _Workspace, coords: np.ndarray, cnorms: np.ndarray) -> "_Scorer":
        """A scorer over float32 kernel rows: row set i is coords projected by kernels[i].

        coords (|V| x w, float32) are a relation's pool coordinates or the
        table itself, and cnorms their kernel_inputs. Kernel rows are made
        here alone: each kernel writes its slice of the workspace's float32
        "rows" buffer with one GfkKernel.project(coords, out=...), so
        r~_j = fl32(c_j fl32(P)) as _row_terms bounds it. The reference
        re-projects each pair from the same coordinates, upcast, through the
        kernel's float64 P = f lam_sqrt (its projection; see _project_rows)
        and takes that row's norm and null flag, so a pair's reference bits
        depend on its own two rows only.
        """
        g, n, m = len(kernels), len(coords), kernels[0].projection.shape[1]
        rows = ws.get("rows", (g * n, m)).reshape(g, n, m)
        for kernel, out in zip(kernels, rows):
            kernel.project(coords, out=out)
        proj_t = np.stack([kernel.projection.T for kernel in kernels])
        return cls(rows, ws, (coords, proj_t), cnorms)

    def _reference_rows(self, g: np.ndarray, j: np.ndarray):
        """float64 rows of the candidates j[p] of row sets g[p], their norms, and null flags.

        A run of consecutive candidates of one row set is read as a view.
        Plain rows are upcast; kernel rows are re-projected from their
        coordinates, each through its row set's factor (_project_rows). A
        null row's norm reads 1.
        """
        one = bool((g == g[0]).all())
        run = slice(j[0], j[-1] + 1) if one and j[-1] - j[0] == len(j) - 1 and (np.diff(j) == 1).all() else j
        if self.source is None:
            rows = (self.rows[g[0], run] if one else self.rows[g, j]).astype(np.float64)
        else:
            coords, proj_t = self.source
            rows = _project_rows(coords[run], proj_t[g[0]]) if one else _project_rows(coords[j], proj_t[g])
        norms = _row_norms(rows)
        null = norms < NULL_SPACE_NORM
        norms[null] = 1.0
        return rows, norms, null

    def _cosines(self, units, t, g, j) -> np.ndarray:
        """Reference cosines of the pairs (units[t[i, p]], candidate j[p] of row set g[p]), T x P.

        t is T x P: each candidate row is read once and dotted with T unit
        rows. A cosine is the float64 row-wise dot of the two rows (one einsum
        per unit row), divided by the candidate's norm, clipped to [-1, 1], and
        -1 for a null candidate, so its bits depend on its own two rows only,
        never on the other pairs of the call. Pairs go in chunks whose
        gathered rows (and kernel coordinates and factors) fit an eighth of
        _CHUNK_ELEMS, which keeps a chunk's passes in cache. A chunk whose
        pairs share one unit row reads it as a broadcast view rather than as
        gathered copies; the einsum dots each row pair alike either way (the
        tests hold a full row bit-equal to pairs computed alone or among
        pairs of other score rows).
        """
        out, nulls = np.empty(t.shape), np.empty(len(j), dtype=bool)
        m = self.rows.shape[-1]
        width = (len(t) + 1) * m  # float64 elements gathered per pair: its rows, coordinates and factor
        if self.source is not None:
            width += self.source[0].shape[1] * (1 if (g == g[0]).all() else m + 1)
        for s in _slices(len(j), max(1, _CHUNK_ELEMS // (8 * width))):
            cand, norms, nulls[s] = self._reference_rows(g[s], j[s])
            for ti, o in zip(t, out):
                ti = ti[s]
                unit = np.broadcast_to(units[ti[0]], cand.shape) if (ti == ti[0]).all() else units[ti]
                np.einsum("ij,ij->i", cand, unit, out=o[s])
            out[:, s] /= norms
        np.minimum(out, 1.0, out=out)
        np.maximum(out, -1.0, out=out)
        out[:, nulls] = -1.0
        return out

    def scores(self, block: _Block, modes, epsilon: float, shift: bool, slab: int):
        """Yield a _Slab per mode and slab of a block's question slots.

        The block holds one question list per row set. Each list's U
        distinct words get one cosine row per row set, all from one batched
        product (see the class), in a float32 block. A slab is a slice of at
        most slab question slots, the same in every row set.

        The additive numerator (x - a + b).v is a signed sum of the word
        rows' cosines scaled by the word norms, taken as one float32
        G x k x U coefficient product, and is divided by |x - a + b|; a
        target with no direction is flagged null and its scores mean
        nothing. Every additive slab comes first. The multiplicative rule
        then clips and shifts the cosine rows in place, once per word. A
        slab takes one denominator row s_a + eps per distinct a word of each
        row set, from one gathered sum, and builds its s_b * s_x rows into
        the score buffer, one product of views of the word rows per score
        row, each divided in place by its a word's denominator. A row's
        largest score and its a word's least denominator set its bound,
        which is infinite when a denominator may be 0 or change sign;
        each candidate's own bound still holds where its own denominator is
        clear of 0 (see _mul_split). Null queries and null candidates score
        -1 in every cosine; in the reference, a NaN score becomes -inf.
        Suspects (see of_kernels) score NaN and set no bound.
        """
        words, pos = block.words, block.pos
        ws, (g, n, m), u = self.ws, self.rows.shape, words.shape[1]
        stack = np.arange(g)[:, None]
        # the query words' reference rows, one (row set, word) pair each
        query, qnorms, null_w = self._reference_rows(np.repeat(np.arange(g), u), words.ravel())
        query, qnorms = query.reshape(g, u, m), qnorms.reshape(g, u)
        units = query / qnorms[..., None]
        dc32, drow = self.errors
        cos = ws.get("cos", (g * u, n)).reshape(g, u, n)
        with np.errstate(over="ignore", invalid="ignore"):  # only a suspect's cosines may overflow
            np.matmul(units.astype(np.float32), self.rows.transpose(0, 2, 1), out=cos)
        cos /= self.norms[:, None, :]
        suspect = None if self.suspect is None else self.suspect[:, None, :]
        if "add" in modes:
            for at in _slices(pos.shape[1], slab):
                a, b, x = (pos[:, at, i] for i in range(3))
                k = a.shape[1]
                q = np.arange(k)
                target, scale, null_t = _targets(query[stack, x], query[stack, a], query[stack, b])
                nx, na, nb = qnorms[stack, x], qnorms[stack, a], qnorms[stack, b]
                coef = np.zeros(a.shape + (u,))
                coef[stack, q, x] = nx / scale
                coef[stack, q, a] -= na / scale
                coef[stack, q, b] += nb / scale
                add = ws.get("scores", (a.size, n)).reshape(g, k, n)
                with np.errstate(over="ignore", invalid="ignore"):
                    np.matmul(coef.astype(np.float32), cos, out=add)
                np.clip(add, -1.0, 1.0, out=add)
                if self.any_null:
                    np.copyto(add, -1.0, where=self.null[:, None, :])
                if suspect is not None:
                    np.copyto(add, np.nan, where=suspect)
                spread = (nx + na + nb) / scale
                tau = _add_tau(spread, m, dc32[:, None], drow[:, None]).ravel()

                def ref(r, j, target=target.reshape(g * k, m), scale=scale.reshape(g * k, 1), k=k):
                    return self._cosines(target / scale, r[None], r // k, j)[0]

                def split(i, level, rows=add.reshape(g * k, n), tau=tau):
                    return _add_split(rows.take(i, axis=0), level, tau[i])

                yield _Slab("add", at, add, null_t, tau.reshape(g, k), split, ref, self.suspect)
        if "mul" in modes:
            np.clip(cos, -1.0, 1.0, out=cos)
            if self.any_null:
                np.copyto(cos, -1.0, where=self.null[:, None, :])
            any_null_w = bool(null_w.any())
            cos.reshape(g * u, n)[null_w] = -1.0
            if shift:
                cos += 1.0
                cos *= 0.5  # exact, as dividing by 2 is
            flat = cos.reshape(g * u, n)
            # a cosine's error is its own plus its row's
            bounds = np.array([_mul_bound(m, epsilon, shift, c) for c in (dc32 + drow).tolist()])
            word_units = units.reshape(g * u, m)
            rows_at = pos + (stack * u)[..., None]
            for at in _slices(pos.shape[1], slab):
                w = rows_at[:, at].reshape(-1, 3)  # flat a, b, x word rows per score row
                k = len(w) // g
                k0, k1, dd, _ = np.repeat(bounds.T, k, axis=1)
                # the distinct a words' rows, and each score row's among them
                a_rows, a_of = np.unique(w[:, 0], return_inverse=True)
                mul, den = ws.get("scores", (len(w), n)), ws.get("den", (len(a_rows), n))
                with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                    np.add(flat[a_rows], epsilon, out=den)
                    for row, ib, ix, ia in zip(mul, w[:, 1].tolist(), w[:, 2].tolist(), a_of.tolist()):
                        np.multiply(flat[ib], flat[ix], out=row)
                        np.divide(row, den[ia], out=row)
                    if suspect is not None:  # neither sets its row's bound
                        np.copyto(mul.reshape(g, k, n), 0.0, where=suspect)
                        np.copyto(den, np.inf, where=self.suspect[a_rows // u])
                    # the row's largest |score| bounds every |S|, and while every D > 0
                    # the least bounds every |D| from below; shifted scores are >= 0
                    peak = mul.max(axis=1) if shift else np.maximum(mul.max(axis=1), -mul.min(axis=1))
                    room = den.min(axis=1)[a_of] - dd
                    tau = np.where(room > 0, (k0 + k1 * peak.astype(np.float64)) / room, np.inf)
                if suspect is not None:
                    np.copyto(mul.reshape(g, k, n), np.nan, where=suspect)

                def split(i, level, mul=mul, den=den, a_of=a_of, k=k):
                    return _mul_split(mul.take(i, axis=0), den.take(a_of[i], axis=0), level, bounds[i // k].T)

                def ref(r, j, w=w, k=k):
                    t = w[r].T  # the a, b and x word rows of every pair
                    s = self._cosines(word_units, t, r // k, j)
                    if any_null_w:
                        s[null_w[t]] = -1.0
                    return _mul_reference(s, epsilon, shift)

                null_m = null_w[w].any(axis=1)
                yield _Slab("mul", at, mul.reshape(g, k, n), null_m.reshape(g, k), tau.reshape(g, k), split, ref,
                            self.suspect)

    def answer(self, item, mode: str, epsilon: float, shift: bool) -> tuple[np.ndarray, bool, int]:
        """Reference scores of every candidate of row set 0 for one scoring item, by its slab's ref.

        Also returns whether the item's target (add) or one of its words
        (mul) is null, and how many candidates' reference rows are null.
        """
        [slab] = self.scores(_Block.of([[item]]), (mode,), epsilon, shift, 1)
        every = np.arange(self.rows.shape[1])
        null = self.null[0].copy()
        if self.suspect is not None:  # null or not in the reference: ask it
            j = np.flatnonzero(self.suspect[0])
            null[j] = self._reference_rows(np.zeros_like(j), j)[2]
        return slab.ref(np.zeros_like(every), every), bool(slab.null[0, 0]), int(np.count_nonzero(null))


def _band(center: np.ndarray, width: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """float32 bounds below center - width and above center + width (float64 arrays).

    Each is rounded to float32 and then moved one float32 step outward,
    which covers the rounding of the cast. The float64 sums round by far
    less than the slack built into every bound (at least 1e-4 of it,
    against 2^-52 of the sum).
    """
    with np.errstate(over="ignore", invalid="ignore"):
        lo, hi = (center - width).astype(np.float32), (center + width).astype(np.float32)
    return np.nextafter(lo, np.float32(-np.inf)), np.nextafter(hi, np.float32(np.inf))


def _gold_ranks(scores: np.ndarray, slab: _Slab, rows: np.ndarray, gold: np.ndarray, excluded: np.ndarray) -> np.ndarray:
    """Exact 1-based rank of the best gold candidate in each of the given rows of an R x |V| score block.

    scores are a slab's float32 scores as R rows, within its bounds of the
    float64 reference scores; rows lists the rows to rank, and gold (R x L,
    ascending, padded with its first index) and excluded (R x E, padded
    with -1) are the rows' index sets. Ranks are those of the reference
    scores under stable descending order, the excluded candidates left out:
    a candidate is ahead of the best gold one when its reference score is
    higher, or equal at a lower index. The best gold candidate is picked by
    reference score (the lower index on ties); call its score g.

    Each row's band is centred on c, the highest float32 score of its
    golds, with width 2 tau, tau the row's bound. g lies within tau of c,
    so a candidate whose float32 score is above the band is ahead, and one
    below it is not. Each row counts the scores in or above the band; only
    where that count exceeds its golds and excluded candidates in or above
    the band does it also count those above the band (elsewhere only
    excluded candidates can be). A row whose band holds nothing but its
    golds and excluded candidates is decided by them. The others are
    left open: crowded rows, rows with no finite bound (CosMUL without the
    shift), which count every candidate as in their band, rows with a
    suspect gold (c is NaN), and rows whose row set has suspects. For the
    open rows alone, one reference call scores the golds, which gives g
    and the best gold; each candidate is then decided again in float32
    with its own bound (slab.split) against g, and one more reference call
    scores those left undecided and every suspect of the row's row set
    (slab.suspect; they score NaN, so no count takes them in). Those ahead
    of the best gold are added. Golds and excluded candidates are never
    counted.
    """
    n, k = scores.shape[1], slab.scores.shape[1]
    tau, gold, excluded = slab.tau.ravel()[rows], gold[rows], excluded[rows]
    at_gold = scores[rows[:, None], gold]
    center = at_gold.max(axis=1).astype(np.float64)  # NaN when a gold is a suspect
    lo, hi = _band(center, 2 * tau)
    finite = hi < np.inf  # a row with no finite bound, or a NaN centre, counts every candidate in its band
    at_least = np.full(len(rows), n, dtype=np.intp)
    at_least[finite] = [
        np.count_nonzero(scores[i] >= low) for i, low in zip(rows[finite].tolist(), lo[finite].tolist())
    ]
    ex = np.where(excluded < 0, gold[:, :1], excluded)  # padding reads a gold: never above the band
    at_ex = scores[rows[:, None], ex]
    above_ex = at_ex > hi[:, None]
    n_above_ex = np.count_nonzero(above_ex, axis=1)
    # the distinct golds (padding repeats the first) and the excluded candidates at or above the band's
    # lower edge; the golds are never above it, and those in it crowd nothing
    distinct = (gold != gold[:, :1]) | (np.arange(gold.shape[1]) == 0)
    known = np.count_nonzero((at_gold >= lo[:, None]) & distinct, axis=1)
    known += np.count_nonzero((at_ex >= lo[:, None]) & (excluded >= 0), axis=1)
    # a row whose other candidates are all below the band has only excluded ones above it
    above = n_above_ex.copy()
    other = np.flatnonzero(finite & (at_least > known))
    above[other] = [
        np.count_nonzero(scores[i] > high) for i, high in zip(rows[other].tolist(), hi[other].tolist())
    ]
    ahead = above - n_above_ex
    left = (at_least - above > known - n_above_ex) | np.isnan(center)
    if slab.suspect is not None:
        left |= slab.suspect.any(axis=1)[rows // k]
    left = np.flatnonzero(left)
    if not len(left):
        return 1 + ahead
    gold_ref = slab.ref(np.repeat(rows[left], gold.shape[1]), gold[left].ravel()).reshape(len(left), -1)
    top = np.argmax(gold_ref, axis=1)
    best, level = gold[left, top], gold_ref[np.arange(len(left)), top]
    drops = np.column_stack((ex, gold))[left]
    suspect = None if slab.suspect is None else slab.suspect[rows[left] // k]
    owners, members = [], []
    # open rows a few at a time: a part's gathered rows hold at most _CHUNK_ELEMS / 8 elements
    with np.errstate(over="ignore", invalid="ignore"):
        for part in _slices(len(left), max(1, _CHUNK_ELEMS // (8 * n))):
            p, margin = slab.split(rows[left[part]], level[part])
            margin = margin[:, None]
            above = p > margin
            undecided = p < -margin
            undecided |= above
            np.logical_not(undecided, out=undecided)  # NaN is never decided
            at = np.arange(len(p))[:, None]
            above[at, drops[part]] = undecided[at, drops[part]] = False
            if suspect is not None:
                undecided &= ~suspect[part]
            ahead[left[part]] = np.count_nonzero(above, axis=1)
            i, j = np.nonzero(undecided)
            owners.append(part.start + i)
            members.append(j)
    if suspect is not None:
        i, j = np.nonzero(suspect)
        owners.append(i)
        members.append(j)
    owner, j = np.concatenate(owners), np.concatenate(members)
    keep = ~(drops[owner] == j[:, None]).any(axis=1)
    owner, j = owner[keep], j[keep]
    if not len(j):
        return 1 + ahead
    ref = slab.ref(rows[left[owner]], j)
    lv = level[owner]
    before = (ref > lv) | ((ref == lv) & (j < best[owner]))
    return 1 + ahead + np.bincount(left[owner[before]], minlength=len(rows))


def _chunks(items, budget: int):
    """Split scoring items into consecutive runs of at most budget distinct input words.

    A run holds at least one question, whatever its words.
    """
    chunk: list = []
    words: set[int] = set()
    for item in items:
        grown = words.union(item[0][:3])
        if chunk and len(grown) > budget:
            yield chunk
            chunk, grown = [], set(item[0][:3])
        chunk.append(item)
        words = grown
    if chunk:
        yield chunk


def _modes(measures) -> tuple[str, ...]:
    return tuple(dict.fromkeys(_MODES[m] for m in measures))


def _rows_per_question(measures) -> int:
    """|V|-wide score rows a question takes at most: its score row, plus for CosMUL its a word's denominator."""
    return 1 + ("mul" in _modes(measures))


def _stacks(block: _Block, groups, width: int, measures, n: int):
    """Split row sets and their questions into stacks that are scored together.

    groups[i] lists the items scored on row set i, and block holds them,
    padded. Each row set takes width |V|-wide rows of its own (a kernel's
    projection; 0 for the vocabulary itself), a cosine row per distinct
    input word and, per question slot, the score rows the measures take
    (_rows_per_question), all float32 for kernels. A stack is a run of row
    sets whose rows fit _CHUNK_ELEMS together, the one budget of every
    |V|-wide block of scoring; it holds at least one. So a sub-batch of
    small kernels over a small vocabulary is scored as one stack, and a
    kernel over a wide one alone. A row set over _CHUNK_ELEMS is a stack of
    its own, scored in slabs of questions (see _ranked), and in parts of at
    most _CHUNK_ELEMS / |V| - width - (score rows per question) distinct
    words (see _chunks) when its words alone do not fit. Such a row set
    leaves the stack size at 1, so one loop serves every case and only the
    word split is conditional.

    Yields (lo, hi, parts): the stack's row sets lo to hi - 1, and the
    blocks scored on them one after another.
    """
    chunk_rows, per_question = _CHUNK_ELEMS // n, _rows_per_question(measures)
    u, k = block.words.shape[1], block.pos.shape[1]
    size = max(1, chunk_rows // (width + u + per_question * k))
    for lo in range(0, len(groups), size):
        hi = min(lo + size, len(groups))
        if width + u + per_question <= chunk_rows:
            parts = [block.take(lo, hi)]
        else:
            parts = [_Block.of([c]) for c in _chunks(groups[lo], chunk_rows - width - per_question)]
        yield lo, hi, parts


def _ranked(scorer: _Scorer, block: _Block, measures, config):
    """Gold ranks of a block's questions, scored on the row sets of scorer.

    Returns measure -> (ranks, hits, null flags), arrays over the questions
    in list order; hits mark rank 1. A question whose additive target has no
    direction has no ranking: it is a worst-case miss, ranked behind every
    candidate left. Each of the G row sets takes _CHUNK_ELEMS / (G |V|)
    |V|-wide rows: its kernel rows (none for the vocabulary itself), its
    cosine rows, and score rows for as many question slots at a time as fit.
    config is read for epsilon and shift_cosines alone (an EvalConfig).
    """
    modes = _modes(measures)
    (g, k), (n, m) = block.real.shape, scorer.rows.shape[1:]
    width = 0 if scorer.source is None else m
    size = max(1, (_CHUNK_ELEMS // n // g - width - block.words.shape[1]) // _rows_per_question(measures))
    ranks = {mode: np.zeros((g, k), dtype=np.intp) for mode in modes}
    hits = {mode: np.zeros((g, k), dtype=bool) for mode in modes}
    nulls = {mode: np.zeros((g, k), dtype=bool) for mode in modes}
    for slab in scorer.scores(block, modes, config.epsilon, config.shift_cosines, size):
        mode, at, null = slab.mode, slab.at, slab.null
        rows = null.size
        excluded = block.excluded[:, at]
        rank = np.zeros(null.shape, dtype=np.intp)
        # padding slots, and additive targets with no direction, are not ranked
        sel = np.flatnonzero(block.real[:, at] & ~null if mode == "add" else block.real[:, at])
        rank.ravel()[sel] = _gold_ranks(
            slab.scores.reshape(rows, n), slab, sel, block.gold[:, at].reshape(rows, -1),
            excluded.reshape(rows, -1),
        )
        hit = rank == 1
        if mode == "add":
            # no ranking: behind every candidate left
            rank[null] = n - np.count_nonzero(excluded[null] >= 0, axis=-1)
            hit &= ~null
        ranks[mode][:, at], hits[mode][:, at], nulls[mode][:, at] = rank, hit, null
    return {
        m: (ranks[_MODES[m]][block.real], hits[_MODES[m]][block.real], nulls[_MODES[m]][block.real])
        for m in measures
    }
