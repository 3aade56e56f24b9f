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

from dataclasses import dataclass

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


def check_symmetric_unitary(m) -> MatrixCheck:
    """Measure how far a square matrix is from being symmetric and unitary.

    Defects are max-abs-entry norms of M - M^T and M^H M - I; the check
    passes when they are within THETA_SYM_TOL and THETA_UNITARY_TOL.
    """
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] == 0:
        raise InputError(f"expected a nonempty square matrix, got shape {m.shape}")
    sym = float(np.max(np.abs(m - m.T)))
    uni = float(np.max(np.abs(m.conj().T @ m - np.eye(m.shape[0]))))
    return MatrixCheck(sym, uni, sym <= THETA_SYM_TOL and uni <= THETA_UNITARY_TOL)


def real_ratio(z1, z2, floor: float = 0.0):
    """Real gamma with z1 = gamma * z2, or None when no nonzero real ratio fits.

    Entries with modulus at or below PROPORTIONAL_TOL * m, where m =
    max(|z1|, |z2|, floor), count as zero.  Two zeros give gamma = 1.0 by
    convention; a single zero gives None, because only a zero or infinite
    ratio could fit and downstream column merging needs a finite nonzero
    one.  Two nonzero entries are proportional iff |Im(z1 * conj(z2))| <=
    PROPORTIONAL_TOL * m^2.
    """
    z1 = complex(z1)
    z2 = complex(z2)
    a1 = abs(z1)
    a2 = abs(z2)
    m = max(a1, a2, floor)
    if m == 0.0:
        return 1.0
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
