"""Architecture-constrained optimizers for the received-power objective.

The tridiagonal and group-connected optimizers share one idea: a surface
achieves the relevant upper bound exactly when its susceptance matrix B
steers the (normalized) transmit channel onto the receive channel, which
is a linear condition B alpha = beta on the free entries of B.  Each
pattern's system is solved by a structured method:

- tridiagonal: an O(n) recursion, unique at full column rank;
- group-connected and fully connected: one batched solve per group width
  (_solve_groups), the closed-form minimum-Frobenius real symmetric
  solution, with sc's phase alignment for width-1 and degenerate groups.
  The closed form has rank at most 4, so a group wider than that (fc's
  one group among them) is handed over as its factors, never as a dense
  block.

optimize_trials solves many pairs of one size at once, a ChannelStack.
For sc, gc and fc it treats the stack's rows as one channel and repeats the
cut partition once per pair (_solve_blocks): every group is normalized and
solved on its own, so the groups of different pairs are groups like any
other, and each width is solved, mapped and checked once for the whole
stack.  optimize() is the same core at one pair; tc runs pair by pair.

Stacking real and imaginary parts turns any of these systems into an
ordinary real least-squares problem, solved by SVD as the fallback.  The
fallback solves a whole tc system, or one gc group, when the structured
solve divides by a determinant at most NEAR_SINGULAR_RTOL times its
Hadamard bound (a cut-set adjacency, a near-singular group Gram matrix),
or when its residual fails CONSISTENT_RTOL; a group whose stacked system
would pass FALLBACK_MAX_BYTES raises NumericalFailure.  The minimum-norm
least-squares solution is exact whenever the system is consistent and a
well-behaved heuristic when it is not.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .architecture import (
    DEFAULT_Z0,
    KIND_SINGLE,
    KIND_TREE,
    ArchitectureSpec,
    ScatteringMatrix,
    SusceptanceMatrix,
    _check_z0,
    _group_bounds,
    full_bounds,
    groups_by_width,
    pattern_mask,
    received_power,
    scattering_from_susceptance,
    upper_bound_full,
)
from .channel import ChannelPair, ChannelStack, Rng, normalize
from .errors import InputError, NumericalFailure
from .linalg import min_norm_least_squares

# A steering system counts as consistent when the least-squares residual is
# below this, relative to ||b||.
CONSISTENT_RTOL = 1e-8
# A structured solve divides by 2x2 determinants: D_k = Im(conj(alpha_k)
# alpha_{k+1}) for tc, the Gram determinant of [Re alpha, Im alpha] for a gc
# group.  At or below this fraction of its Hadamard bound (|alpha_k|
# |alpha_{k+1}|, or the product of the Gram diagonal) the determinant counts
# as singular and the system goes to the SVD fallback.
NEAR_SINGULAR_RTOL = 1e-8
# The closed form of a group has rank at most this; a group wider than it is
# handed over as its factors (_closed_form_factors), a narrower one as a
# dense block.
_FACTOR_RANK = 4
# The SVD fallback of a width-w group builds a real 2w x w(w + 1)/2 system
# (about 8.6 GB at w = 1024).  Above this many bytes it raises
# NumericalFailure instead of allocating it.
FALLBACK_MAX_BYTES = 2 ** 28
# optimize_trials stacks at most this many surface elements (pairs times n,
# at least one pair) into one solve, which bounds its memory.
_STACK_ELEMENTS = 2 ** 14
# Group with || hr_hat + ht_hat || below this is degenerate (opposite unit
# vectors); the linear system vanishes and per-element phasing takes over.
_DEGENERATE_GROUP_TOL = 1e-10
# Keep per-element phases strictly inside (-pi, pi) so tan stays finite.
_PHASE_MARGIN = 1e-6


@dataclass(frozen=True)
class LinearSystem:
    """Real-stacked steering system for a tridiagonal surface.

    Unknown layout: x[:n] are the diagonal entries B_11..B_nn, x[n:] the
    couplings B_12..B_{n-1,n}.  alpha is the complex coefficient vector
    j z0 (hr_hat + ht_hat) the columns are built from.
    """

    a: np.ndarray
    b: np.ndarray
    alpha: np.ndarray
    n: int


@dataclass(frozen=True)
class TrialResult:
    """The figures of one pair's optimization: received power, bounds, residual."""

    p_r: float
    p_bar_full: float
    p_bar_arch: float
    ratio_full: float
    residual_norm: float
    consistent: bool


@dataclass(frozen=True)
class OptimizeResult(TrialResult):
    """Outcome of one architecture-constrained optimization, with its B and Theta."""

    b_matrix: SusceptanceMatrix
    theta: ScatteringMatrix


def build_tc_system(pair: ChannelPair, z0: float = DEFAULT_Z0) -> LinearSystem:
    """Equations a tridiagonal surface must satisfy to reach the full bound.

    With unit-norm channels and alpha = j z0 (hr_hat + ht_hat), any
    tridiagonal B solving B alpha = ht_hat - hr_hat makes the scattering
    matrix map ht_hat exactly onto hr_hat.  Row k of the complex system
    reads B_kk alpha_k + B_{k-1,k} alpha_{k-1} + B_{k,k+1} alpha_{k+1};
    the real stacking puts real parts on top of imaginary parts.
    """
    alpha, beta = _tc_steering(pair, z0)
    a, b = _stacked_system(alpha, beta, _tc_entries(pair.n))
    return LinearSystem(a=a, b=b, alpha=alpha, n=pair.n)


def optimize_tc(pair: ChannelPair, z0: float = DEFAULT_Z0) -> OptimizeResult:
    """Tridiagonal optimizer: O(n) recursion on the steering system.

    Falls back to minimum-norm least squares on the real-stacked system
    when a 2x2 block is near-singular or the recursion's residual fails
    CONSISTENT_RTOL (the adversarial set).  Either way B is handed over as
    its bands, the diagonal and the couplings, with no dense n x n B, and
    its Theta is the Cayley map's O(n) operator on the L D L^T factors of I
    + j z0 B (or, when their bound fails, the O(n^2) dense sweep).  Needs
    n >= 2; optimize() serves n = 1 by sc's closed form.
    """
    n = pair.n
    solved = _solve_tridiagonal(*_tc_steering(pair, z0))
    if solved is None:
        system = build_tc_system(pair, z0)
        sol = min_norm_least_squares(system.a, system.b)
        diag, coupling, residual = sol.x[:n], sol.x[n:], sol.residual_norm
        consistent = residual <= CONSISTENT_RTOL * float(np.linalg.norm(system.b))
    else:
        diag, coupling, residual = solved
        consistent = True
    b = SusceptanceMatrix(bands=(diag, coupling))
    return _finish(pair, b, z0, upper_bound_full(pair), residual, consistent)


def optimize_gc(pair: ChannelPair, cuts, z0: float = DEFAULT_Z0) -> OptimizeResult:
    """Group-connected optimizer: one steering system per group.

    Each group is normalized independently, which pins every group's
    contribution to phase zero so they add coherently; under that
    normalization the per-group consistency scalar Im(alpha^H beta)
    vanishes identically and the group systems are generically solvable.
    Groups of equal width are solved together by _solve_groups, which
    picks each group's solver once, and B holds each width's stack of group
    blocks as it comes, with no dense n x n B.  A closed-form group wider
    than 4 (all of fc's one group, at n >= 5) is held as its rank-4
    factors Q S Q^T, whose Theta comes from a 4 x 4 Cayley map.
    """
    return _result(_solve_blocks(*_one_pair(pair), cuts, z0))


def optimize_sc(pair: ChannelPair, z0: float = DEFAULT_Z0) -> OptimizeResult:
    """Closed-form diagonal optimizer: per-element phase alignment.

    Element i gets scattering phase arg(h_r,i) - arg(h_t,i), so every term
    of the received sum lands on the positive real axis and the diagonal
    bound (sum_i |h_r,i| |h_t,i|)^2 is met up to the phase clamp.  B holds
    the diagonal as one stack of width-1 blocks.
    """
    return _result(_solve_blocks(*_one_pair(pair), None, z0))


def optimize(pair: ChannelPair, spec: ArchitectureSpec, z0: float = DEFAULT_Z0) -> OptimizeResult:
    """Run the optimizer matching the architecture kind: optimize_trials at one pair, with B and Theta.

    A one-element tridiagonal surface is the single-connected one, so tc at
    n = 1 takes sc's closed form, whose bound equals the full one there.
    """
    _check_sizes([pair], spec)
    if spec.kind == KIND_TREE and spec.n > 1:
        return optimize_tc(pair, z0)
    return _result(_block_cell(*_one_pair(pair), spec, z0))


def optimize_trials(pairs, spec: ArchitectureSpec, z0: float = DEFAULT_Z0) -> list[TrialResult]:
    """The TrialResult of every pair of a ChannelStack or a sequence of pairs, all of size spec.n, in order.

    sc, gc and fc solve the pairs stacked, up to _STACK_ELEMENTS elements
    at a time (_solve_blocks); each pair's figures are bit for bit those
    optimize() gives it alone.  The stacked Theta passes its construction
    check only if every pair's own Theta would, so a NumericalFailure here
    means some pair fails: a caller that needs to know which runs the pairs
    one at a time.  tc runs optimize_tc pair by pair.
    """
    if isinstance(pairs, ChannelStack):
        stack = pairs
        _check_sizes([stack], spec)
    else:
        _check_sizes(pairs, spec)
        stack = ChannelStack.of(pairs, spec.n)
    if spec.kind == KIND_TREE and spec.n > 1:
        return [TrialResult(*_figures(optimize_tc(stack[t], z0))) for t in range(len(stack))]
    full = full_bounds(stack.norms_r, stack.norms_t)
    step = max(1, _STACK_ELEMENTS // spec.n)
    return [TrialResult(*row) for lo in range(0, len(stack), step)
            for row in _block_cell(stack.h_r[lo:lo + step].reshape(-1),
                                   stack.h_t[lo:lo + step].reshape(-1), full[lo:lo + step],
                                   spec, z0)[2]]


def _one_pair(pair: ChannelPair):
    """(h_r, h_t, full) of _solve_blocks for one pair: its vectors and its bound."""
    return pair.h_r, pair.h_t, [upper_bound_full(pair)]


def _check_sizes(pairs, spec: ArchitectureSpec) -> None:
    """Raise InputError unless every pair (or stack) of the sequence has size spec.n."""
    for pair in pairs:
        if spec.n != pair.n:
            raise InputError(f"architecture is for n = {spec.n}, channels have n = {pair.n}")


def _block_cell(h_r, h_t, full, spec: ArchitectureSpec, z0: float):
    """_solve_blocks for the architecture: sc, tc at n = 1 (sc with the full bound), gc or fc."""
    if spec.kind == KIND_SINGLE:
        return _solve_blocks(h_r, h_t, full, None, z0)
    if spec.kind == KIND_TREE:
        b, theta, rows = _solve_blocks(h_r, h_t, full, None, z0)
        return b, theta, [(p_r, bound, bound, *rest) for p_r, bound, _, *rest in rows]
    return _solve_blocks(h_r, h_t, full, spec.effective_cuts, z0)


def _solve_blocks(h_r, h_t, full, cuts, z0: float):
    """(B, Theta, rows) of sc (cuts None) or of the cut partition, for len(full) pairs end to end.

    h_r and h_t hold the pairs one after another, one channel of len(full)
    n elements, and full their p_bar_full, upper_bound_full of each.  sc
    phase-aligns it entry by entry; otherwise the cut partition is
    repeated once per pair and each width's groups, of every pair, go
    through one _solve_groups call.  B and Theta hold the whole stack, so
    the Cayley map and its construction check run once per width.  Every
    step works group by group, so a pair's blocks, residuals and slice of
    Theta h_t are those it gets alone.  rows holds one (p_r, p_bar_full,
    p_bar_arch, ratio_full, residual_norm, consistent) per pair: p_r from
    the pair's slice of Theta h_t, the residual and its scale the largest
    over the pair's own groups, and the bounds as the pair rounds them
    alone.
    """
    _check_z0(z0)
    count = len(full)
    n = h_r.size // count
    if cuts is None:
        d = _phase_align_susceptance(h_r, h_t, z0)
        b = SusceptanceMatrix(((np.arange(h_r.size)[:, None], d[:, None, None]),))
        # a row sum rounds like the sum of the pair's own vector
        bounds = [float(s ** 2) for s in (np.abs(h_r) * np.abs(h_t)).reshape(count, n).sum(axis=1)]
        residuals = scales = [0.0] * count
    else:
        blocks = []
        factors = []
        residuals = scales = np.zeros(count)
        offsets = n * np.arange(count)[:, None, None]
        for idx in groups_by_width(cuts, n):
            stacked = (idx + offsets).reshape(-1, idx.shape[1])
            dense, factored, res, rhs = _solve_groups(stacked, h_r, h_t, z0)
            if dense is not None:
                blocks.append(dense)
            if factored is not None:
                factors.append(factored)
            residuals = np.maximum(residuals, res.reshape(count, -1).max(axis=1))
            scales = np.maximum(scales, rhs.reshape(count, -1).max(axis=1))
        b = SusceptanceMatrix(tuple(blocks), factors=tuple(factors))
        bounds = _group_bounds(h_r, h_t, cuts, n)
        residuals, scales = residuals.tolist(), scales.tolist()
    theta = scattering_from_susceptance(b, z0)
    y = theta.apply(h_t)
    rows = []
    for t, p_bar_full in enumerate(full):
        p_r = float(abs(np.vdot(h_r[t * n:(t + 1) * n], y[t * n:(t + 1) * n])) ** 2)
        residual, scale = residuals[t], scales[t]
        consistent = residual <= CONSISTENT_RTOL * scale if scale > 0.0 else True
        rows.append((p_r, p_bar_full, bounds[t], p_r / p_bar_full, residual, consistent))
    return b, theta, rows


def _result(cell) -> OptimizeResult:
    """The OptimizeResult of a one-pair _solve_blocks."""
    b, theta, (row,) = cell
    return OptimizeResult(*row, b_matrix=b, theta=theta)


def _figures(result: TrialResult) -> tuple:
    """(p_r, p_bar_full, p_bar_arch, ratio_full, residual_norm, consistent) of a result."""
    return (result.p_r, result.p_bar_full, result.p_bar_arch, result.ratio_full,
            result.residual_norm, result.consistent)


@dataclass(frozen=True)
class SearchResult:
    """Best candidate found by brute_force_power_search."""

    p_r: float
    b_matrix: SusceptanceMatrix
    evaluations: int


class _BudgetExhausted(Exception):
    pass


def brute_force_power_search(pair: ChannelPair, spec: ArchitectureSpec,
                             z0: float = DEFAULT_Z0, budget: int = 100_000,
                             rng: Rng | None = None) -> SearchResult:
    """Derivative-free search over patterned susceptance matrices.

    Cauchy-distributed random candidates cover every magnitude scale, then
    the best ones are refined coordinate by coordinate with a grid scan
    plus golden-section line search on the bounded reparametrization
    u = atan(z0 * b).  Spends at most `budget` received-power evaluations;
    since every candidate's scattering matrix is unitary, the result can
    never exceed the full upper bound.
    """
    if spec.n != pair.n:
        raise InputError(f"architecture is for n = {spec.n}, channels have n = {pair.n}")
    if not isinstance(budget, int) or budget < 1:
        raise InputError(f"evaluation budget must be a positive integer, got {budget!r}")
    if rng is None:
        raise InputError("brute_force_power_search needs an explicit rng")
    _check_z0(z0)
    n = pair.n
    mask = pattern_mask(spec)
    coords = [(i, j) for i in range(n) for j in range(i, n) if mask[i, j]]
    k = len(coords)
    eye = np.eye(n)
    hr_conj = pair.h_r.conj()

    state = {"spent": 0, "best_p": -1.0, "best_vals": np.zeros(k)}

    def eval_batch(vals: np.ndarray) -> np.ndarray:
        left = budget - state["spent"]
        if left <= 0:
            raise _BudgetExhausted
        vals = vals[:left]
        bs = np.zeros((vals.shape[0], n, n))
        for c, (i, j) in enumerate(coords):
            bs[:, i, j] = vals[:, c]
            if i != j:
                bs[:, j, i] = vals[:, c]
        jb = 1j * z0 * bs
        theta = np.linalg.solve(eye + jb, eye - jb)
        p = np.abs(np.einsum("i,mij,j->m", hr_conj, theta, pair.h_t)) ** 2
        state["spent"] += vals.shape[0]
        top = int(np.argmax(p))
        if p[top] > state["best_p"]:
            state["best_p"] = float(p[top])
            state["best_vals"] = vals[top].copy()
        return p

    def eval_one(vals: np.ndarray) -> float:
        return float(eval_batch(vals[None, :])[0])

    pool: list[np.ndarray] = []
    try:
        eval_one(np.zeros(k))  # the all-zero surface is always a candidate
        explore = min(budget // 2, max(64, 32 * k))
        while explore > 0:
            m = min(explore, 4096)
            u = rng.uniform(m * k).reshape(m, k)
            vals = np.tan(np.pi * (u - 0.5)) / z0
            p = eval_batch(vals)
            order = np.argsort(p)[::-1][:4]
            pool.extend(vals[i].copy() for i in order)
            explore -= m
        pool.sort(key=lambda v: -eval_one(v))
        if not pool:
            pool = [np.zeros(k)]
        for start in pool:
            vals = start.copy()
            current = eval_one(vals)
            for _ in range(60):  # coordinate cycles per start
                improved = False
                for ci in range(k):
                    better, u_best = _line_search(eval_one, vals, ci, z0, current)
                    if better > current * (1.0 + 1e-12):
                        current = better
                        vals[ci] = math.tan(u_best) / z0
                        improved = True
                if not improved:
                    break
    except _BudgetExhausted:
        pass
    b = np.zeros((n, n))
    for c, (i, j) in enumerate(coords):
        b[i, j] = b[j, i] = state["best_vals"][c]
    return SearchResult(p_r=state["best_p"], b_matrix=SusceptanceMatrix(b),
                        evaluations=state["spent"])


def _line_search(eval_one, vals, ci, z0, f_cur):
    """Grid + golden-section maximization along one susceptance coordinate.

    Works on u = atan(z0 * b) so the whole real susceptance axis becomes
    the bounded interval (-pi/2, pi/2).  Returns (best value, best u).
    """
    lim = math.pi / 2 - 1e-4
    u_cur = math.atan(z0 * vals[ci])
    grid = np.linspace(-lim, lim, 13)

    def f_at(u: float) -> float:
        probe = vals.copy()
        probe[ci] = math.tan(u) / z0
        return eval_one(probe)

    scores = [(f_cur, u_cur)] + [(f_at(u), u) for u in grid]
    f0, u0 = max(scores, key=lambda t: t[0])
    lo = max(u0 - 0.3, -lim)
    hi = min(u0 + 0.3, lim)
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    c = hi - invphi * (hi - lo)
    d = lo + invphi * (hi - lo)
    fc, fd = f_at(c), f_at(d)
    for _ in range(30):
        if fc >= fd:
            hi, d, fd = d, c, fc
            c = hi - invphi * (hi - lo)
            fc = f_at(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + invphi * (hi - lo)
            fd = f_at(d)
    cands = [(f0, u0), (fc, c), (fd, d)]
    return max(cands, key=lambda t: t[0])


def _steering(hr_hat, ht_hat, z0: float):
    """alpha = j z0 (hr_hat + ht_hat) and beta = ht_hat - hr_hat of B alpha = beta."""
    return 1j * z0 * (hr_hat + ht_hat), ht_hat - hr_hat


def _tc_steering(pair: ChannelPair, z0: float):
    """alpha and beta of the whole-surface steering system, for n >= 2."""
    if pair.n < 2:
        raise InputError("the tridiagonal steering system needs n >= 2")
    _check_z0(z0)
    return _steering(normalize(pair.h_r), normalize(pair.h_t), z0)


def _solve_tridiagonal(alpha, beta):
    """(diagonal, couplings, residual norm) of tridiagonal B alpha = beta, or None.

    Row k reads B_kk alpha_k + B_{k-1,k} alpha_{k-1} + B_{k,k+1} alpha_{k+1}
    = beta_k.  Once B_{k-1,k} is known its real and imaginary parts are a
    2x2 solve for (B_kk, B_{k,k+1}) with determinant D_k = Im(conj(alpha_k)
    alpha_{k+1}).  Eliminating B_kk gives B_{k,k+1} D_k = B_{k-1,k} D_{k-1}
    + Im(conj(alpha_k) beta_k), so every coupling is a running sum over D_k,
    and an error made at step j reaches step k scaled by D_{j-1} / D_k.
    Each diagonal entry is then the projection of what its row leaves onto
    alpha_k; the last row carries the consistency residual Im(alpha^H beta).

    Returns None when some |D_k| is at most NEAR_SINGULAR_RTOL |alpha_k|
    |alpha_{k+1}| or the residual ||B alpha - beta|| fails CONSISTENT_RTOL.
    """
    modulus = np.abs(alpha)
    det = (alpha[:-1].conj() * alpha[1:]).imag
    if not np.all(np.abs(det) > NEAR_SINGULAR_RTOL * modulus[:-1] * modulus[1:]):
        return None
    coupling = np.cumsum((alpha[:-1].conj() * beta[:-1]).imag) / det
    rest = beta.copy()
    rest[1:] -= coupling * alpha[:-1]
    rest[:-1] -= coupling * alpha[1:]
    diag = (alpha.conj() * rest).real / modulus ** 2
    residual = float(np.linalg.norm(rest - diag * alpha))
    if residual > CONSISTENT_RTOL * float(np.linalg.norm(beta)):
        return None
    return diag, coupling, residual


def _solve_groups(idx, h_r, h_t, z0: float):
    """(dense, factored, residual norms, ||rhs||) of the steering systems of equal-width groups.

    idx has shape (groups, width), the elements of each group.  Each group
    is classified once: a dead group (zero channel on either side)
    contributes nothing for any block and gets a zero block; a width-1 or
    degenerate group (hr_hat ~ -ht_hat, vanishing alpha) gets per-element
    phasing, sc's closed form, which meets the group bound; both report
    zero residual and ||rhs||.  Any other group takes the minimum-Frobenius
    real symmetric B with B X = Y, X = [Re alpha, Im alpha], Y = [Re beta,
    Im beta]: Y X+ + X+^T Y^T - X+^T X^T Y X+, X+ = (X^T X)^-1 X^T, which
    exists exactly when X^T Y is symmetric, as per-group normalization
    guarantees.  Only a group whose Gram determinant is at most
    NEAR_SINGULAR_RTOL times the product of its diagonal, or whose residual
    fails CONSISTENT_RTOL, goes to minimum-norm least squares on its
    real-stacked system.

    dense is (index, blocks), the groups held as dense blocks: all of them
    at width <= _FACTOR_RANK, where _closed_form_blocks solves, and the
    groups no closed form solved at a wider width.  factored is (index, q,
    s), the closed-form groups of a wider width as _closed_form_factors
    gives them.  Either is None when it holds no group.
    """
    hr, ht = h_r[idx], h_t[idx]
    groups, width = idx.shape
    residuals = np.zeros(groups)
    rhs_norms = np.zeros(groups)
    nr = np.linalg.norm(hr, axis=1)
    nt = np.linalg.norm(ht, axis=1)
    live = np.flatnonzero((nr > 0.0) & (nt > 0.0))
    hrn = hr[live] / nr[live, None]
    htn = ht[live] / nt[live, None]
    phased = (width == 1) | (np.linalg.norm(hrn + htn, axis=1) < _DEGENERATE_GROUP_TOL)
    g_phased = live[phased]
    if g_phased.size:
        regular = ~phased
        live, hrn, htn = live[regular], hrn[regular], htn[regular]
    closed = fallback = live[:0]
    if live.size:
        alpha, beta = _steering(hrn, htn, z0)
        x = np.stack([alpha.real, alpha.imag], axis=2)
        y = np.stack([beta.real, beta.imag], axis=2)
        gram = x.transpose(0, 2, 1) @ x
        g00, g01, g11 = gram[:, 0, 0], gram[:, 0, 1], gram[:, 1, 1]
        take = g00 * g11 - g01 * g01 > NEAR_SINGULAR_RTOL * g00 * g11
        gram, x, y = gram[take], x[take], y[take]
        if width <= _FACTOR_RANK:
            *solved, res = _closed_form_blocks(gram, x, y)
        else:
            *solved, res = _closed_form_factors(x, y)
        rhs = np.linalg.norm(y, axis=(1, 2))
        ok = res <= CONSISTENT_RTOL * rhs
        take[take] = ok  # now marks the groups the closed form solved
        closed, fallback = live[take], live[~take]
        residuals[closed], rhs_norms[closed] = res[ok], rhs[ok]
    if width <= _FACTOR_RANK:
        slot, factored = np.arange(groups), None
    else:
        factored = (idx[closed], *(part[ok] for part in solved)) if closed.size else None
        if closed.size == groups:
            return None, factored, residuals, rhs_norms
        # only the groups no closed form solved get a dense block
        held = np.ones(groups, dtype=bool)
        held[closed] = False
        slot = np.cumsum(held) - 1
        idx = idx[held]
    blocks = np.zeros((len(idx), width, width))
    if g_phased.size:
        k = np.arange(width)
        blocks[slot[g_phased][:, None], k, k] = _phase_align_susceptance(hr[g_phased], ht[g_phased], z0)
    if width <= _FACTOR_RANK and closed.size:
        blocks[closed] = solved[0][ok]
    if fallback.size:
        entries = _group_entries(width)
        _check_fallback_size(width, entries)
    for g in fallback:
        # the 1-D norm, not the batched one above (which may differ in the
        # last bit), keeps this leg equal to the SVD solve of the group alone
        system = _stacked_system(*_steering(hr[g] / np.linalg.norm(hr[g]),
                                            ht[g] / np.linalg.norm(ht[g]), z0), entries)
        blocks[slot[g]], residuals[g], rhs_norms[g] = _least_squares_block(*system, entries, width)
    return (idx, blocks), factored, residuals, rhs_norms


def _closed_form_blocks(gram, x, y):
    """(B blocks, residual norms) of the closed form, as dense blocks."""
    xt = x.transpose(0, 2, 1)
    pinv = np.linalg.solve(gram, xt)
    yp = y @ pinv
    bk = yp + yp.transpose(0, 2, 1) - pinv.transpose(0, 2, 1) @ (xt @ y) @ pinv
    bk = 0.5 * (bk + bk.transpose(0, 2, 1))  # exactly symmetric
    return bk, np.linalg.norm(bk @ x - y, axis=(1, 2))


def _closed_form_factors(x, y):
    """(Q, S, residual norms) of the closed form, as B = Q S Q^T with Q^T Q = I.

    With P = X+^T, the closed form is P Y^T + Y P^T - P C P^T, C = X^T Y,
    that is W K W^T with W = [Y, P] (w x 4) and K = [[0, I], [I, -C]].
    P spans what X spans, so take the thin QR [X, Y] = Q [R_x, R_y]
    instead of W's: X = Q_1 T with Q_1 the first two columns of Q and T
    upper triangular, T^T T = X^T X.  Then P = Q_1 T^-T, C = T^T M_1 with
    M = R_y T^-1 = [M_1; M_2] (two 2 x 2 halves), and W K W^T reduces to
    S = [[M_1, M_2^T], [M_2, 0]], 4 x 4; M_1 = T^-T C T^-1 is symmetric,
    and is symmetrized as the dense closed form symmetrizes B.
    Householder QR keeps Q orthonormal even when [X, Y] has rank 2 or 3
    (beta = 0 when hr_hat = ht_hat, and then S = 0).  The residual B X -
    Y = Q (S (Q^T X)) - Y takes O(w) work.
    """
    q, r = np.linalg.qr(np.concatenate([x, y], axis=2))
    m = r[:, :, 2:].copy()  # M = R_y T^-1, by forward substitution
    m[:, :, 0] /= r[:, 0, 0, None]
    m[:, :, 1] -= r[:, 0, 1, None] * m[:, :, 0]
    m[:, :, 1] /= r[:, 1, 1, None]
    s = np.zeros((len(r), _FACTOR_RANK, _FACTOR_RANK))
    s[:, :, :2] = m
    s = s + s.transpose(0, 2, 1)
    s[:, :2, :2] *= 0.5  # exactly symmetric
    return q, s, np.linalg.norm(q @ (s @ (q.transpose(0, 2, 1) @ x)) - y, axis=(1, 2))


def _check_fallback_size(width: int, entries) -> None:
    """Raise NumericalFailure before a group's SVD fallback would pass FALLBACK_MAX_BYTES."""
    size = 2 * width * entries[0].size * np.dtype(float).itemsize
    if size > FALLBACK_MAX_BYTES:
        raise NumericalFailure(
            f"the SVD fallback of a width-{width} group needs a {2 * width} x {entries[0].size} "
            f"real system of {size / 2 ** 20:.0f} MiB, above FALLBACK_MAX_BYTES = "
            f"{FALLBACK_MAX_BYTES / 2 ** 20:.0f} MiB")


def _tc_entries(n: int):
    """(rows, cols) of the free entries of a tridiagonal B, in unknown order.

    Diagonal entries first, then the couplings (k, k + 1).
    """
    k = np.arange(n)
    return np.concatenate([k, k[:-1]]), np.concatenate([k, k[1:]])


def _group_entries(width: int):
    """(rows, cols) of the free entries of one fully-coupled group, in unknown order.

    Diagonal entries first, then the couplings (i, j) with i < j in
    row-major order.
    """
    k = np.arange(width)
    upper_rows, upper_cols = np.triu_indices(width, 1)
    return np.concatenate([k, upper_rows]), np.concatenate([k, upper_cols])


def _stacked_system(alpha, beta, entries):
    """Real-stacked B alpha = beta over the free entries (rows, cols) of B.

    Unknown c is B_ij = B_ji for (i, j) = (rows[c], cols[c]); its column is
    e_i alpha_j + e_j alpha_i, or e_i alpha_i on the diagonal.  Real parts
    sit on top of imaginary parts.  Returns (A, rhs).
    """
    rows, cols = entries
    unknowns = np.arange(rows.size)
    m = np.zeros((alpha.size, rows.size), dtype=complex)
    m[rows, unknowns] = alpha[cols]
    m[cols, unknowns] = alpha[rows]
    return np.vstack([m.real, m.imag]), np.concatenate([beta.real, beta.imag])


def _least_squares_block(a, rhs, entries, size: int):
    """(B block, residual norm, ||rhs||) of the SVD fallback on one group's real-stacked system."""
    sol = min_norm_least_squares(a, rhs)
    return _symmetric_block(sol.x, entries, size), sol.residual_norm, float(np.linalg.norm(rhs))


def _symmetric_block(values, entries, size: int) -> np.ndarray:
    """size x size symmetric matrix with values at (rows, cols) and (cols, rows)."""
    rows, cols = entries
    block = np.zeros((size, size))
    block[rows, cols] = values
    block[cols, rows] = values
    return block


def _phase_align_susceptance(h_r, h_t, z0: float) -> np.ndarray:
    """Diagonal susceptances giving element i the phase arg(h_r,i) - arg(h_t,i).

    A diagonal entry b produces the scattering phase -2 atan(z0 b), so
    b = -tan(phase / 2) / z0.  Elements with a zero channel entry on either
    side contribute nothing; their phase is pinned to 0.  Phases are
    clamped strictly inside (-pi, pi) to keep tan finite.
    """
    phase = np.angle(h_r) - np.angle(h_t)
    phase = (phase + np.pi) % (2.0 * np.pi) - np.pi
    phase[(h_r == 0) | (h_t == 0)] = 0.0
    limit = np.pi - _PHASE_MARGIN
    phase = np.minimum(np.maximum(phase, -limit), limit)  # np.clip's values, without its wrapper
    return -np.tan(0.5 * phase) / z0


def _finish(pair, b_matrix, z0, p_bar_arch, residual_norm, consistent) -> OptimizeResult:
    theta = scattering_from_susceptance(b_matrix, z0)
    p_r = received_power(pair, theta)
    p_bar_full = upper_bound_full(pair)
    return OptimizeResult(
        b_matrix=b_matrix,
        theta=theta,
        p_r=p_r,
        p_bar_full=p_bar_full,
        p_bar_arch=p_bar_arch,
        ratio_full=p_r / p_bar_full,
        residual_norm=residual_norm,
        consistent=consistent,
    )

