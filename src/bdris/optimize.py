"""Architecture-constrained optimizers for the received-power objective.

The tridiagonal and group-connected optimizers share one idea: a surface
achieves the relevant upper bound exactly when its susceptance matrix B
steers the (normalized) transmit channel onto the receive channel, which
is a linear condition B alpha = beta on the free entries of B.  Each
pattern's system is solved by a structured method:

- tridiagonal: an O(n) recursion, unique at full column rank;
- group-connected and fully connected: one batched solve per group width
  (_solve_groups), the closed-form minimum-Frobenius real symmetric
  solution in real batched arithmetic with no LAPACK call (a QR above
  width 4), with sc's phase alignment for width-1 and degenerate groups.
  The closed form has rank at most 4, so a group wider than that (fc's
  one group among them) is handed over as its factors, never as a dense
  block.

optimize_trials solves many pairs of one size at once, a ChannelStack, and
optimize() is the same core (_solve) at one pair, with its B and Theta.
For sc, gc and fc the core treats the stack's rows as one channel and
repeats the cut partition once per pair: every group is normalized and
solved on its own, so the groups of different pairs are groups like any
other, and each width is solved, mapped and checked once for the whole
stack.  tc's recursion runs on one pair's whole surface, so tc is solved
pair by pair.  Every architecture's Theta, received power and figures
come from the core's one tail.

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

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

# received_power is not called here, but stays importable by this name: the
# benchmark tracer (perfbench/tracer.py) wraps bdris.optimize.received_power
from .architecture import (
    DEFAULT_Z0,
    KIND_SINGLE,
    KIND_TREE,
    ArchitectureSpec,
    ScatteringMatrix,
    SusceptanceMatrix,
    _check_z0,
    full_bounds,
    group_bounds,
    group_norms,
    groups_by_width,
    pattern_mask,
    received_power,
    scattering_from_susceptance,
)
from .channel import ChannelPair, ChannelStack, Rng
from .errors import InputError, NumericalFailure
from .linalg import min_norm_least_squares, row_norms

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
# The signs of a 2 x 2 adjugate: adj(G) = G[::-1, ::-1] * _ADJUGATE_SIGNS.
_ADJUGATE_SIGNS = np.array([[1.0, -1.0], [-1.0, 1.0]])
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


class TrialResult(NamedTuple):
    """The figures of one pair's optimization: received power, bounds, residual.

    An immutable row, as cheap to build as a tuple: optimize_trials makes
    one per pair.
    """

    p_r: float
    p_bar_full: float
    p_bar_arch: float
    ratio_full: float
    residual_norm: float
    consistent: bool


@dataclass(frozen=True)
class OptimizeResult:
    """Outcome of one architecture-constrained optimization: the TrialResult figures, with its B and Theta."""

    p_r: float
    p_bar_full: float
    p_bar_arch: float
    ratio_full: float
    residual_norm: float
    consistent: bool
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
    _check_z0(z0)
    alpha, beta = _tc_steering(pair.h_r, pair.h_t, pair.norm_r, pair.norm_t, z0)
    a, b = _stacked_system(alpha, beta, _tc_entries(pair.n))
    return LinearSystem(a=a, b=b, alpha=alpha, n=pair.n)


def optimize(pair: ChannelPair, spec: ArchitectureSpec, z0: float = DEFAULT_Z0) -> OptimizeResult:
    """The architecture-constrained optimum for one pair: optimize_trials at one pair, with its B and Theta."""
    _check_sizes([pair], spec)
    b, theta, (row,) = _solve(pair.h_r, pair.h_t, [pair.norm_r], [pair.norm_t], spec, z0)
    return OptimizeResult(*row, b_matrix=b, theta=theta)


def optimize_trials(pairs, spec: ArchitectureSpec, z0: float = DEFAULT_Z0) -> list[TrialResult]:
    """The TrialResult of every pair of a ChannelStack or a sequence of pairs, all of size spec.n, in order.

    The pairs are solved stacked (_solve), up to _STACK_ELEMENTS elements at
    a time, or one at a time where the tridiagonal recursion solves the
    whole surface; each pair's figures are bit for bit those optimize()
    gives it alone.  The stacked Theta passes its construction check only
    if every pair's own Theta would, so a NumericalFailure here means some
    pair fails: a caller that needs to know which runs the pairs one at a
    time.
    """
    if isinstance(pairs, ChannelStack):
        stack = pairs
        _check_sizes([stack], spec)
    else:
        _check_sizes(pairs, spec)
        stack = ChannelStack.of(pairs, spec.n)
    step = 1 if _recursive(spec) else max(1, _STACK_ELEMENTS // spec.n)
    rows = []
    for lo in range(0, len(stack), step):
        chunk = slice(lo, lo + step)
        rows += _solve(stack.h_r[chunk].reshape(-1), stack.h_t[chunk].reshape(-1),
                       stack.norms_r[chunk], stack.norms_t[chunk], spec, z0)[2]
    return list(map(TrialResult._make, rows))


def _check_sizes(pairs, spec: ArchitectureSpec) -> None:
    """Raise InputError unless every pair (or stack) of the sequence has size spec.n."""
    for pair in pairs:
        if spec.n != pair.n:
            raise InputError(f"architecture is for n = {spec.n}, channels have n = {pair.n}")


def _recursive(spec: ArchitectureSpec) -> bool:
    """Whether the tridiagonal recursion solves spec: tc at n >= 2.

    A one-element tridiagonal surface is the single-connected one, so tc at
    n = 1 takes sc's closed form, whose bound equals the full one there.
    """
    return spec.kind == KIND_TREE and spec.n > 1


def _solve(h_r, h_t, norms_r, norms_t, spec: ArchitectureSpec, z0: float):
    """(B, Theta, rows) of the architecture for len(norms_r) pairs end to end.

    h_r and h_t hold the pairs one after another, one channel of
    len(norms_r) n elements, and norms_r and norms_t the norms of each
    pair's channels, as its check computed them.  tc (one pair,
    _recursive) hands over B as its bands (_solve_tc); sc, and tc at n = 1,
    phase-align the channel entry by entry; gc and fc repeat the cut
    partition once per pair and each width's groups, of every pair, go
    through one _solve_groups call.  Each group is normalized on its own,
    which pins its contribution to phase zero so that the groups add
    coherently, and makes its consistency scalar Im(alpha^H beta) vanish
    identically.  B and Theta hold the whole stack, so the Cayley map and
    its construction check run once per width.  Every step works group by
    group, so a pair's blocks, residuals and slice of Theta h_t are those
    it gets alone.  rows holds one (p_r, p_bar_full, p_bar_arch,
    ratio_full, residual_norm, consistent) per pair: p_r from h_r^H (Theta
    h_t) over the pair's own slices, the residual and its scale the largest
    over the pair's own groups, and the bounds as the pair rounds them
    alone (_received_powers takes every p_r at once).  The gc and fc bound
    is group_bounds of the norms each width's group solve formed, and sc's
    of the element moduli, the same norms at width 1.
    """
    _check_z0(z0)
    count = len(norms_r)
    n = h_r.size // count
    full = full_bounds(norms_r, norms_t)
    if _recursive(spec):
        b, residual, consistent = _solve_tc(h_r, h_t, norms_r[0], norms_t[0], z0)
        residuals, consistent = [residual], [consistent]
    elif spec.kind in (KIND_SINGLE, KIND_TREE):
        d = _phase_align_susceptance(h_r, h_t, z0)
        b = SusceptanceMatrix(((np.arange(h_r.size)[:, None], d[:, None, None]),))
        bounds = group_bounds([(np.abs(h_r), np.abs(h_t))], count)  # width-1 group_norms
        residuals = [0.0] * count
        consistent = [True] * count
    else:
        blocks = []
        factors = []
        norms = []
        peaks = []
        for idx in groups_by_width(spec.effective_cuts, n, count):
            dense, factored, res, rhs, *width_norms = _solve_groups(idx, h_r, h_t, z0)
            if dense is not None:
                blocks.append(dense)
            if factored is not None:
                factors.append(factored)
            norms.append(width_norms)
            # each pair's largest residual and ||rhs|| over its groups of this width
            peaks.append(np.concatenate((res, rhs)).reshape(2, count, -1).max(axis=2))
        b = SusceptanceMatrix(tuple(blocks), factors=tuple(factors))
        bounds = group_bounds(norms, count)
        residuals, scales = functools.reduce(np.maximum, peaks).tolist()
        # a pair with no scale (every group dead or phased) is consistent
        consistent = [residual <= CONSISTENT_RTOL * scale if scale > 0.0 else True
                      for residual, scale in zip(residuals, scales)]
    if spec.kind == KIND_TREE:
        bounds = full  # tc's bound, which sc's equals at n = 1 up to rounding
    theta = scattering_from_susceptance(b, z0)
    p_r = _received_powers(h_r, theta.apply(h_t), count)
    ratios = [p / p_bar_full for p, p_bar_full in zip(p_r, full)]
    return b, theta, list(zip(p_r, full, bounds, ratios, residuals, consistent))


def _solve_tc(h_r, h_t, norm_r, norm_t, z0: float):
    """(B as its bands, residual norm, consistent) of one pair's tridiagonal steering system.

    The O(n) recursion solves it, and minimum-norm least squares on
    build_tc_system's real-stacked system does when a 2x2 block is
    near-singular or the recursion's residual fails CONSISTENT_RTOL (the
    adversarial set).  Either way B is handed over as its bands, the
    diagonal and the couplings, with no dense n x n B, and its Theta is the
    Cayley map's O(n) operator on the L D L^T factors of I + j z0 B (or,
    when their bound fails, the O(n^2) dense sweep).  norm_r and norm_t are
    the norms of h_r and h_t (_tc_steering).  Needs n >= 2.
    """
    n = h_r.size
    solved = _solve_tridiagonal(*_tc_steering(h_r, h_t, norm_r, norm_t, z0))
    if solved is None:
        system = build_tc_system(ChannelPair(h_r, h_t), z0)
        sol = min_norm_least_squares(system.a, system.b)
        diag, coupling, residual = sol.x[:n], sol.x[n:], sol.residual_norm
        consistent = residual <= CONSISTENT_RTOL * float(np.linalg.norm(system.b))
    else:
        diag, coupling, residual = solved
        consistent = True
    return SusceptanceMatrix(bands=(diag, coupling)), residual, consistent


def _received_powers(h_r, y, count: int) -> list[float]:
    """|h_r^H y|^2 over each of count equal slices of h_r and y, as received_power rounds each.

    One vecdot over the (count, n) views is the zdotc that vdot calls for
    each slice, and |.|^2 is taken of each numpy scalar, as received_power
    takes it: np.abs over the array can differ in the last bit.
    """
    dots = np.vecdot(h_r.reshape(count, -1), y.reshape(count, -1))
    return [float(abs(d) ** 2) for d in dots]


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
    _check_sizes([pair], spec)
    if not isinstance(budget, int) or isinstance(budget, bool) or budget < 1:
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


def _tc_steering(h_r, h_t, norm_r, norm_t, z0: float):
    """alpha and beta of the whole-surface steering system, for n >= 2.

    norm_r and norm_t are the norms of h_r and h_t that the pair's (or the
    stack's) check computed, rounded as np.linalg.norm rounds them, so the
    unit channels are channel.normalize's bit for bit.
    """
    if h_r.size < 2:
        raise InputError("the tridiagonal steering system needs n >= 2")
    return _steering(h_r / norm_r, h_t / norm_t, z0)


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
    """(dense, factored, residual norms, ||rhs||, norms_r, norms_t) of the steering systems of equal-width groups.

    idx has shape (groups, width), the elements of each group.  Each group
    is classified once: a dead group (zero channel on either side)
    contributes nothing for any block and gets a zero block; a width-1 or
    degenerate group (hr_hat ~ -ht_hat, vanishing alpha) gets per-element
    phasing, sc's closed form, which meets the group bound; both report
    zero residual and ||rhs||.  Any other group
    takes the minimum-Frobenius real symmetric B with B X = Y, X = [Re
    alpha, Im alpha] = [-z0 Im s, z0 Re s] with s = hr_hat + ht_hat, Y =
    [Re beta, Im beta]: Y X+ + X+^T Y^T - X+^T X^T Y X+, X+ = (X^T X)^-1
    X^T, which exists exactly when X^T Y is symmetric, as per-group
    normalization guarantees.  Only a group
    whose Gram determinant is at most NEAR_SINGULAR_RTOL times the product
    of its diagonal, or whose residual fails CONSISTENT_RTOL, goes to
    minimum-norm least squares on its real-stacked system.

    Everything before the fallback is real arithmetic on whole stacks:
    [X, Y]^T is built as (groups, 4, width) rows (_steering_rows), and one
    batched product [X, Y]^T [X, Y] gives each group's Gram entries, C =
    X^T Y and ||Y||_F.  The degenerate test reads ||s|| = ||X||_F / z0 off
    the Gram diagonal, the near-singular test forms the Gram determinant,
    and the closed form inverts the Gram matrix by its adjugate with that
    determinant (_closed_form_blocks), so no LAPACK call runs here at a
    width of at most _FACTOR_RANK.  A mask narrows the stack only when it
    drops a group, so dead, degenerate and fallback groups cost nothing
    when a stack has none.  Every step works group by group, so a group's
    results do not depend on the stack around it.

    dense is (index, blocks), the groups held as dense blocks: all of them
    at width <= _FACTOR_RANK, where _closed_form_blocks solves, and the
    groups no closed form solved at a wider width.  factored is (index, q,
    s), the closed-form groups of a wider width as _closed_form_factors
    gives them.  Either is None when it holds no group.  When every group
    took the closed form, the residuals, ||rhs|| and blocks or factors are
    handed over as the closed form made them, in group order; otherwise
    the groups it did not solve get zero residual and ||rhs|| beside them.
    norms_r and norms_t are the group norms of hr and ht (group_norms),
    from which the caller sums the architecture bound (group_bounds).
    """
    hr, ht = h_r[idx], h_t[idx]
    groups, width = idx.shape
    nr, nt = group_norms(hr), group_norms(ht)
    # each group's real and imaginary parts in turn, one row of floats
    live, hv, tv, live_nr, live_nt = _narrow((nr > 0.0) & (nt > 0.0), np.arange(groups),
                                             hr.view(float), ht.view(float), nr, nt)
    phased = live if width == 1 else live[:0]
    closed = fallback = live[:0]
    if width > 1 and live.size:
        xy = _steering_rows(hv, tv, live_nr, live_nt, z0)
        # [X, Y]^T [X, Y] holds the Gram matrix X^T X, C = X^T Y and, in its
        # last two diagonal entries, ||Y||_F^2; the copy keeps numpy from
        # taking the product of xy with its own transpose as a symmetric
        # rank-k update, which is slower on small blocks
        products = xy @ xy.swapaxes(1, 2).copy()
        g00, g01, g11 = products[:, 0, 0], products[:, 0, 1], products[:, 1, 1]
        det = g00 * g11 - g01 * g01
        # ||hr_hat + ht_hat||^2 = ||X||_F^2 / z0^2 = (g00 + g11) / z0^2
        degenerate = g00 + g11 < (z0 * _DEGENERATE_GROUP_TOL) ** 2
        take = (det > NEAR_SINGULAR_RTOL * g00 * g11) & ~degenerate
        regular, products, det, xy = _narrow(take, live, products, det, xy)
        if regular.size < live.size:
            phased, fallback = live[degenerate], live[~(take | degenerate)]
        if width <= _FACTOR_RANK:
            *solved, res = _closed_form_blocks(products, det, xy)
        else:
            *solved, res = _closed_form_factors(xy)
        rhs = np.sqrt(products[:, 2, 2] + products[:, 3, 3])
        ok = res <= CONSISTENT_RTOL * rhs
        closed, res, rhs, *solved = _narrow(ok, regular, res, rhs, *solved)
        if closed.size < regular.size:
            fallback = np.union1d(fallback, regular[~ok])
    if closed.size == groups:
        # every group took the closed form: its outputs go on as solved
        if width <= _FACTOR_RANK:
            return (idx, solved[0]), None, res, rhs, nr, nt
        return None, (idx, *solved), res, rhs, nr, nt
    residuals = np.zeros(groups)
    rhs_norms = np.zeros(groups)
    if closed.size:
        residuals[closed], rhs_norms[closed] = res, rhs
    if width <= _FACTOR_RANK:
        slot, factored = np.arange(groups), None
    else:
        factored = (idx[closed], *solved) if closed.size else None
        # only the groups no closed form solved get a dense block
        held = np.ones(groups, dtype=bool)
        held[closed] = False
        slot = np.cumsum(held) - 1
        idx = idx[held]
    blocks = np.zeros((len(idx), width, width))
    if phased.size:
        k = np.arange(width)
        blocks[slot[phased][:, None], k, k] = _phase_align_susceptance(hr[phased], ht[phased], z0)
    if width <= _FACTOR_RANK and closed.size:
        blocks[closed] = solved[0]
    if fallback.size:
        entries = _group_entries(width)
        _check_fallback_size(width, entries)
    for g in fallback:
        # group_norms rounds as np.linalg.norm does above width 1, so this
        # leg is the SVD solve of the group alone
        system = _stacked_system(*_steering(hr[g] / nr[g], ht[g] / nt[g], z0), entries)
        blocks[slot[g]], residuals[g], rhs_norms[g] = _least_squares_block(*system, entries, width)
    return (idx, blocks), factored, residuals, rhs_norms, nr, nt


def _narrow(keep, *arrays):
    """The arrays' rows that keep marks; the arrays themselves, uncopied, when it marks every row."""
    if keep.all():
        return arrays
    return tuple(a[keep] for a in arrays)


def _steering_rows(hv, tv, nr, nt, z0: float):
    """[X, Y]^T of the closed form, (groups, 4, width): the rows -z0 Im s, z0 Re s, Re beta and Im beta.

    hv and tv hold each group's channel as floats, real and imaginary part
    in turn, and nr and nt their norms.  s = hr_hat + ht_hat and beta =
    ht_hat - hr_hat, with hr_hat = hr / nr and ht_hat = ht / nt divided as
    real numbers.
    """
    groups, width = len(hv), hv.shape[1] // 2
    hr_hat = (hv / nr[:, None]).reshape(groups, width, 2)
    ht_hat = (tv / nt[:, None]).reshape(groups, width, 2)
    s = hr_hat + ht_hat
    beta = ht_hat - hr_hat
    xy = np.empty((groups, 4, width))
    np.multiply(s[..., 1], -z0, out=xy[:, 0])
    np.multiply(s[..., 0], z0, out=xy[:, 1])
    xy[:, 2] = beta[..., 0]
    xy[:, 3] = beta[..., 1]
    return xy


def _closed_form_blocks(products, det, xy):
    """(B blocks, residual norms) of the closed form, as dense blocks, from xy = [X, Y]^T.

    products is [X, Y]^T [X, Y], with the 2 x 2 Gram matrix G = X^T X and C
    = X^T Y in its first two rows.  The rows of X+ are G^-1 X^T, with G^-1
    = adj(G) / det, det the determinant the near-singular test formed.
    With A = X+^T (Y^T - C X+ / 2), B = A + A^T is the closed form with C
    symmetrized, exactly symmetric in floats by construction.  The
    residual's rows are X^T B - Y^T, that is (B X - Y)^T as B is
    symmetric.  Every product is a real batched matmul.
    """
    x, y = xy[:, :2], xy[:, 2:]
    gram, c = products[:, :2, :2], products[:, :2, 2:]
    pinv = (gram[:, ::-1, ::-1] * _ADJUGATE_SIGNS / det[:, None, None]) @ x
    a = pinv.swapaxes(1, 2) @ (y - (0.5 * c) @ pinv)
    bk = a + a.swapaxes(1, 2)
    return bk, row_norms((x @ bk - y).reshape(len(bk), 2 * bk.shape[-1]))


def _closed_form_factors(xy):
    """(Q, S, residual norms) of the closed form, as B = Q S Q^T with Q^T Q = I, from xy = [X, Y]^T.

    With P = X+^T, the closed form is P Y^T + Y P^T - P C P^T, C = X^T Y,
    that is W K W^T with W = [Y, P] (w x 4) and K = [[0, I], [I, -C]].
    P spans what X spans, so take the thin QR [X, Y] = Q [R_x, R_y]
    instead of W's: X = Q_1 T with Q_1 the first two columns of Q and T
    upper triangular, T^T T = X^T X.  Then P = Q_1 T^-T, C = T^T M_1 with
    M = R_y T^-1 = [M_1; M_2] (two 2 x 2 halves), and W K W^T reduces to
    S = [[M_1, M_2^T], [M_2, 0]], 4 x 4; M_1 = T^-T C T^-1 is symmetric,
    and is symmetrized as the dense closed form symmetrizes B.
    Householder QR keeps Q orthonormal even when [X, Y] has rank 2 or 3
    (beta = 0 when hr_hat = ht_hat, and then S = 0).  The residual rows
    X^T Q S Q^T - Y^T take O(w) work.
    """
    q, r = np.linalg.qr(xy.swapaxes(1, 2))
    s = np.zeros((len(r), _FACTOR_RANK, _FACTOR_RANK))
    m = s[:, :, :2]  # M = R_y T^-1, by forward substitution in place
    m[...] = r[:, :, 2:]
    m[:, :, 0] /= r[:, 0, 0, None]
    m[:, :, 1] -= r[:, 0, 1, None] * m[:, :, 0]
    m[:, :, 1] /= r[:, 1, 1, None]
    s = s + s.transpose(0, 2, 1)
    s[:, :2, :2] *= 0.5  # exactly symmetric
    residual = ((xy[:, :2] @ q) @ s) @ q.swapaxes(1, 2) - xy[:, 2:]
    return q, s, row_norms(residual.reshape(len(q), 2 * q.shape[1]))


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

