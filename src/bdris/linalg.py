"""Numeric substrate: least squares, matrix checks, scalar predicates.

Everything here is a thin, carefully specified layer over numpy.  The
solver contract matters more than speed: rank decisions are made relative
to the largest singular value so that callers stay scale invariant, and
the minimum-norm solution is computed from the SVD directly.  Normal
equations are deliberately avoided; the rank-deficient systems produced by
adversarial channels would square the condition number and blur the rank
decision.

The optimizers solve steering systems by structured methods first and call
min_norm_least_squares only as their fallback: for a tc system or a regular
gc group whose structured solve meets a near-singular 2x2 determinant (at
most optimize.NEAR_SINGULAR_RTOL of its Hadamard bound) or leaves a
residual above optimize.CONSISTENT_RTOL.  Dead, width-1 and degenerate gc
groups are solved without it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import InputError, NumericalFailure

# Singular values at or below max(RANK_RTOL * sigma_max, _ABS_FLOOR) count
# as exact zeros.  The absolute floor only matters when A is all zeros.
RANK_RTOL = 1e-10
_ABS_FLOOR = 1e-300
# Construction tolerances for the scattering matrix Theta (max-abs-entry
# norms), applied by check_symmetric_unitary.
THETA_SYM_TOL = 1e-10
THETA_UNITARY_TOL = 1e-9
# Two complex entries are real-proportional when |Im(z1 conj(z2))| is at
# most PROPORTIONAL_TOL m^2 (see real_ratio).  Zero floors are relative: an
# entry counts as zero against ZERO_FLOOR_REL times the largest entry of its
# vector, a group norm against ZERO_FLOOR_REL times the whole norm.
PROPORTIONAL_TOL = 1e-9
ZERO_FLOOR_REL = 1e-12


@dataclass(frozen=True)
class LsSolution:
    """Minimum-norm least-squares solution of A x = b."""

    x: np.ndarray
    residual_norm: float
    numerical_rank: int


def min_norm_least_squares(a, b) -> LsSolution:
    """Solve min ||A x - b||_2 and return the minimum-norm minimizer.

    Singular values <= RANK_RTOL * sigma_max are zeroed.

    Args:
        a: real matrix, shape (m, k).
        b: real vector, shape (m,).

    Returns:
        LsSolution with x, the 2-norm of A x - b recomputed from the
        returned x, and the numerical rank.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.ndim != 2 or b.ndim != 1 or a.shape[0] != b.shape[0]:
        raise InputError(f"incompatible least-squares shapes: A {a.shape}, b {b.shape}")
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
        raise InputError("least-squares operands must be finite")
    try:
        u, sigma, vt = np.linalg.svd(a, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure(f"SVD did not converge: {exc}") from exc
    cutoff = max(RANK_RTOL * (float(sigma[0]) if sigma.size else 0.0), _ABS_FLOOR)
    keep = sigma > cutoff
    rank = int(np.count_nonzero(keep))
    if rank == 0:
        x = np.zeros(a.shape[1])
    else:
        x = vt[keep].T @ ((u[:, keep].T @ b) / sigma[keep])
    residual = float(np.linalg.norm(a @ x - b))
    return LsSolution(x=x, residual_norm=residual, numerical_rank=rank)


@dataclass(frozen=True)
class MatrixCheck:
    """Defect norms from check_symmetric_unitary."""

    symmetry_defect: float
    unitarity_defect: float
    ok: bool


class TridiagonalLDL(NamedTuple):
    """M = L D L^T of a complex symmetric tridiagonal M, with M's couplings.

    pivots (n,) is D's diagonal d_k and multipliers (n - 1,) is L's unit
    lower bidiagonal's subdiagonal l_k = c_k / d_k, with c_k = M_{k,k+1} =
    M_{k+1,k} the couplings (n - 1,).  The scattering operator it stands for
    is Theta' = 2 (L D L^T)^-1 - I of the stored pivots and multipliers.
    """

    pivots: np.ndarray
    multipliers: np.ndarray
    couplings: np.ndarray


def check_symmetric_unitary(m) -> MatrixCheck:
    """Measure how far a square matrix, a stack of them, or a Cayley operator is from symmetric unitary.

    For a matrix, defects are max-abs-entry norms of M - M^T and M^H M - I,
    the maximum over the stack for shape (g, w, w), in real arithmetic on M
    = R + jI: M^H M - I = (R^T R + I^T I - I) + j (R^T I - (R^T I)^T), the
    first term one real product of [R; I] with itself, and M - M^T = (R -
    R^T) + j (I - I^T), each modulus the square root of a sum of squares.
    A stack of 1 x 1 blocks (all of sc) is checked entry by entry: its
    symmetry defect is 0 and M^H M = R^2 + I^2.  For a TridiagonalLDL,
    they are bounds on those of Theta' = 2 (L D L^T)^-1 - I in O(n) work
    (_tridiagonal_bound): the dense matrix is never formed.  The check
    passes when the defects are within THETA_SYM_TOL and THETA_UNITARY_TOL.

    ScatteringMatrix takes the bound at construction for a tridiagonal B
    (tc).  When the bound exceeds THETA_UNITARY_TOL, the Cayley map falls
    back to the dense Theta and its matrix check; reading .matrix of the
    operator runs the matrix check on the dense Theta too.
    """
    if isinstance(m, TridiagonalLDL):
        return _tridiagonal_bound(m)
    m = np.asarray(m, dtype=complex)
    if m.ndim not in (2, 3) or m.shape[-1] != m.shape[-2] or m.size == 0:
        raise InputError(f"expected a nonempty square matrix or stack of them, got shape {m.shape}")
    width = m.shape[-1]
    if width == 1:
        # a 1 x 1 block is its own transpose, and Theta^H Theta = R^2 + I^2
        sym = 0.0
        gram = m.real * m.real
        gram += m.imag * m.imag
        gram -= 1.0
        uni = float(np.abs(gram).max())
    else:
        ri = np.concatenate((m.real, m.imag), axis=-2)  # [R; I], 2w x w
        halves = ri.reshape(ri.shape[:-2] + (2, width, width))
        asym = halves - halves.swapaxes(-1, -2)
        asym *= asym
        sym = math.sqrt((asym[..., 0, :, :] + asym[..., 1, :, :]).max())
        # the copy keeps numpy from taking ri^T ri as a symmetric rank-k
        # update, which is slower than a general product on small blocks
        gram = ri.swapaxes(-1, -2) @ ri.copy()
        gram.reshape(gram.shape[:-2] + (-1,))[..., ::width + 1] -= 1.0  # the diagonal
        cross = halves[..., 0, :, :].swapaxes(-1, -2) @ halves[..., 1, :, :]
        skew = cross - cross.swapaxes(-1, -2)
        gram *= gram
        skew *= skew
        gram += skew
        uni = math.sqrt(gram.max())
    return MatrixCheck(sym, uni, sym <= THETA_SYM_TOL and uni <= THETA_UNITARY_TOL)


_EPS = float(np.finfo(float).eps)
_TINY = float(np.finfo(float).tiny)


def _tridiagonal_bound(f: TridiagonalLDL) -> MatrixCheck:
    """Defects of Theta' = 2 M'^-1 - I, M' = L D L^T exactly from the stored factors.

    Symmetry: M' is symmetric for any pivots and multipliers, so is
    Theta', and its symmetry defect is 0.

    Unitarity: with Herm(M') = (M' + M'^H) / 2 and H = Herm(M') - I,
    Theta'^H Theta' - I = 4 M'^-H M'^-1 - 2 M'^-H - 2 M'^-1 = -4 M'^-H H
    M'^-1.  As M' is symmetric, Herm(M') is Re M' entrywise, so H is real
    symmetric tridiagonal, zero in exact arithmetic on M = I + j z0 B
    (_row_bounds gives its entries).  Take rho_k >= sum_l |H_kl| and h =
    max_k rho_k >= ||H||_2.  If h < 1, then Re(x^H M' x) = x^H (I + H) x >=
    (1 - h) ||x||^2 for every x, so ||M' x|| >= (1 - h) ||x||, M' is
    invertible and G = M'^-1 has ||G||_2 <= 1 / (1 - h).  Hence max
    |Theta'^H Theta' - I|_ij <= 4 ||G||_2^2 ||H||_2 <= 4 h / (1 - h)^2.

    That plain bound is loose where a pivot is large, as the rounding
    allowance of H_kk grows with |d_k| while G is small there.  When it
    fails THETA_UNITARY_TOL, the bound is the smaller of it and
    _weighted_bound, which weighs each row of H by G's diagonal.  A
    non-finite value or h >= 1 gives an infinite bound.  All of it is O(n)
    work, the weighted bound's sort aside.
    """
    rho, lsq = _row_bounds(f)
    h = float(np.max(rho))
    if not h < 1.0:
        return MatrixCheck(0.0, math.inf, False)
    uni = 4.0 * h / (1.0 - h) ** 2 * (1.0 + 4.0 * _EPS)
    if uni > THETA_UNITARY_TOL:
        uni = min(uni, _weighted_bound(f, rho, lsq, h))
    return MatrixCheck(0.0, uni, uni <= THETA_UNITARY_TOL)


def _row_bounds(f: TridiagonalLDL) -> tuple[np.ndarray, np.ndarray]:
    """(rho, |l|^2): upper bounds on the row sums of |H|, and x_k^2 + y_k^2 in floats.

    For d_k = r_k + j s_k and l_k = x_k + j y_k,

        H_{k,k+1} = Re(l_k d_k) = x_k r_k - y_k s_k,
        H_kk = r_k - 1 + Re(l_{k-1}^2 d_{k-1})
             = r_k - 1 + (x_{k-1}^2 - y_{k-1}^2) r_{k-1} - 2 x_{k-1} y_{k-1} s_{k-1}

    (no last term for k = 0).  Each entry is taken as the modulus of its
    float value plus an allowance for its rounding.  An entry that is a sum
    of products evaluated in m operations is within gamma_m S of its float
    value, S the same sum over the terms' moduli, gamma_m = m u / (1 - m
    u), u = eps / 2 (m = 2 off the diagonal, 5 on it); 2 eps S and 4 eps S
    cover that and the rounding of S.  Gradual underflow adds at most
    2^-1074 per operation, carried through the later products by factors of
    at most 2 (|r_{k-1}| + |s_{k-1}|); tiny (1 + |r_{k-1}| + |s_{k-1}|)
    covers it, tiny = 2^52 2^-1074.  The row sums of these nonnegative
    terms lose a few more u, covered by the factor (1 + 2 eps).
    """
    r, s = f.pivots.real, f.pivots.imag
    x, y = f.multipliers.real, f.multipliers.imag
    rp, sp = r[:-1], s[:-1]
    with np.errstate(over="ignore", invalid="ignore"):
        off = np.abs(x * rp - y * sp) + 2.0 * _EPS * (np.abs(x * rp) + np.abs(y * sp)) + _TINY
        diag = r - 1.0
        size = np.abs(r) + 1.0
        lsq = x * x + y * y
        xy = x * y
        diag[1:] += (x * x - y * y) * rp - 2.0 * xy * sp
        size[1:] += lsq * np.abs(rp) + 2.0 * np.abs(xy) * np.abs(sp)
        rows = np.abs(diag) + 4.0 * _EPS * size + _TINY
        rows[1:] += _TINY * (np.abs(rp) + np.abs(sp))
        rows[:-1] += off
        rows[1:] += off
        rows *= 1.0 + 2.0 * _EPS
    return rows, lsq


def _weighted_bound(f: TridiagonalLDL, rho: np.ndarray, lsq: np.ndarray, h: float) -> float:
    """A bound on max |Theta'^H Theta' - I|_ij that weighs row k of H by |G_kk|, for h < 1.

    With g_k the columns of the symmetric G = M'^-1:

    - |g_i^H H g_j| <= sum_kl |G_ki| |H_kl| |G_lj| <= (sum_k rho_k |G_ki|^2
      + sum_l rho_l |G_lj|^2) / 2 by |ab| <= (a^2 + b^2) / 2, and for any
      tau >= 0, sum_k rho_k |G_ki|^2 <= tau ||g_i||^2 + sum_{rho_k > tau}
      rho_k ||g_k||^2, as |G_ki| = |G_ik| <= ||g_k||.
    - g_k^H M' g_k = g_k^H e_k = conj(G_kk), whose real part is g_k^H (I +
      H) g_k >= (1 - h) ||g_k||^2, so ||g_k||^2 <= |G_kk| / (1 - h).
    - From L^T G = D^-1 L^-1 (lower triangular, diagonal 1 / d_k), G_kk +
      l_k G_{k+1,k} = 1 / d_k and G_{k,k+1} + l_k G_{k+1,k+1} = 0, so G_kk
      = 1 / d_k + l_k^2 G_{k+1,k+1} with G_{n-1,n-1} = 1 / d_{n-1}.  With
      |G_kk| <= ||G||_2 <= 1 / (1 - h) = c, the capped recursion w_k =
      min(c, 1 / max(|r_k|, |s_k|) + |l_k|^2 w_{k+1}) bounds |G_kk|.

    So the defect is at most 4 / (1 - h) (tau max_k w_k + sum_{rho_k > tau}
    rho_k w_k), minimized here over tau in {0} and the rho_k.  Every term
    is nonnegative, so the float recursion, each step at most 4 roundings
    and min with c raised by 4 eps, stays within (1 - u)^(4n) of the exact
    one, and the sums and products after it within a few (n + 2) u; the
    factor (1 + 16 (n + 2) eps) covers both.
    """
    n = rho.size
    cap = 1.0 / (1.0 - h) * (1.0 + 4.0 * _EPS)
    with np.errstate(divide="ignore"):
        inv = (1.0 / np.maximum(np.abs(f.pivots.real), np.abs(f.pivots.imag))).tolist()
    step = lsq.tolist()
    w = [min(inv[-1], cap)] * n
    for k in range(n - 2, -1, -1):
        w[k] = min(inv[k] + step[k] * w[k + 1], cap)
    w = np.array(w)
    order = np.argsort(-rho)
    ranked = rho[order]
    prefix = np.concatenate([[0.0], np.cumsum(ranked * w[order])])
    weighted = min(float(np.min(ranked * w.max() + prefix[:-1])), float(prefix[-1]))
    return 4.0 / (1.0 - h) * weighted * (1.0 + 16.0 * (n + 2) * _EPS)


def row_norms(h) -> np.ndarray:
    """The 2-norm of each row (the last axis) of a real or complex array, as np.linalg.norm rounds one vector.

    np.linalg.norm of a real vector is the square root of its BLAS dot
    product with itself, and of a complex vector the square root of the
    sum of those of its real and imaginary parts; vecdot makes the same
    ddot calls on each row.  np.linalg.norm ravels a real vector to
    contiguous memory first, and ddot rounds a strided vector another way,
    so real rows are made contiguous too.  A 1-D vector gives a 0-d result.
    """
    h = np.asarray(h)
    if not np.iscomplexobj(h):
        h = np.ascontiguousarray(h, dtype=float)
        return np.sqrt(np.vecdot(h, h))
    h = h.astype(complex, copy=False)
    return np.sqrt(np.vecdot(h.real, h.real) + np.vecdot(h.imag, h.imag))


def real_ratio(z1, z2, floor: float = 0.0):
    """Real gamma with z1 = gamma * z2, or None when no nonzero real ratio fits.

    Entries with modulus at or below PROPORTIONAL_TOL * m, where m =
    max(|z1|, |z2|, floor), count as zero.  Two zeros give gamma = 1.0 by
    convention; a single zero gives None, because only a zero or infinite
    ratio could fit and downstream column merging needs a finite nonzero
    one.  Two nonzero entries are proportional iff |Im(z1 * conj(z2))| <=
    PROPORTIONAL_TOL * m^2.  The test runs on z1, z2 and floor scaled by
    the exact power of two that brings their largest real or imaginary
    part into [0.5, 1), so its products neither underflow nor overflow at
    any scale and the answer does not depend on it.
    """
    z1 = complex(z1)
    z2 = complex(z2)
    top = max(abs(z1.real), abs(z1.imag), abs(z2.real), abs(z2.imag), floor)
    if top == 0.0:
        return 1.0
    e = -math.frexp(top)[1]
    z1 = complex(math.ldexp(z1.real, e), math.ldexp(z1.imag, e))
    z2 = complex(math.ldexp(z2.real, e), math.ldexp(z2.imag, e))
    a1 = abs(z1)
    a2 = abs(z2)
    m = max(a1, a2, math.ldexp(floor, e))
    z1_zero = a1 <= PROPORTIONAL_TOL * m
    z2_zero = a2 <= PROPORTIONAL_TOL * m
    if z1_zero and z2_zero:
        return 1.0
    if z1_zero or z2_zero:
        return None
    cross = z1 * z2.conjugate()
    if abs(cross.imag) <= PROPORTIONAL_TOL * m * m:
        return cross.real / (a2 * a2)
    return None


def proportional_adjacencies(s):
    """1-based adjacencies of s whose neighbors are real-proportional, for a vector or each row of a stack.

    Proportionality is real_ratio's test, with an entry counting as zero
    against ZERO_FLOOR_REL * max|s| (of its row), evaluated for all
    adjacencies of all rows at once by the same float operations: moduli by
    hypot, as Python's abs of a complex, z1 conj(z2) from its real and
    imaginary parts, and every row scaled first by the exact power of two
    that brings its max|s| into [0.5, 1).  For a vector, returns (cuts,
    gammas) with gammas[k] the real ratio of entry cuts[k] over entry
    cuts[k] + 1; for a (T, n) stack, the list of the T rows' (cuts, gammas).
    """
    s = np.asarray(s, dtype=complex)
    rows = s.reshape(-1, s.shape[-1])
    # max|s| = top 2^e exactly, with top in [0.5, 1)
    top, e = np.frexp(np.abs(rows).max(axis=1, keepdims=True))
    x, y = np.ldexp(rows.real, -e), np.ldexp(rows.imag, -e)
    a = np.hypot(x, y)
    m = np.maximum(np.maximum(a[:, :-1], a[:, 1:]), ZERO_FLOOR_REL * top)
    tol = PROPORTIONAL_TOL * m
    zero = a[:, :-1] <= tol
    cross_im = y[:, :-1] * x[:, 1:] - x[:, :-1] * y[:, 1:]
    # both entries zero, or neither zero and the cross product within tol m
    keep = (zero == (a[:, 1:] <= tol)) & (zero | (np.abs(cross_im) <= tol * m))
    found = [((), ())] * len(rows)
    if keep.any():
        row, col = np.nonzero(keep)
        gammas = np.ones(col.size)
        nonzero = ~zero[row, col]
        r, i = row[nonzero], col[nonzero]
        gammas[nonzero] = (x[r, i] * x[r, i + 1] + y[r, i] * y[r, i + 1]) / (a[r, i + 1] * a[r, i + 1])
        # row is sorted, so row t's adjacencies are the slice bounds[t]:bounds[t + 1]
        bounds = np.searchsorted(row, np.arange(len(rows) + 1)).tolist()
        cuts, gammas = (col + 1).tolist(), gammas.tolist()
        found = [(tuple(cuts[lo:hi]), tuple(gammas[lo:hi])) for lo, hi in zip(bounds, bounds[1:])]
    return found[0] if s.ndim == 1 else found
