"""Structured steering solves against the dense SVD path they replace.

`svd_reference` is the dense solve every tc and gc system used before the
structured solvers: minimum-norm least squares on the real-stacked system of
the whole tridiagonal surface, or of each group.  Where the structured
solvers fall back, their results must equal it bit for bit; elsewhere they
must agree on B (tc, where the solution is unique) or on the ratio.
"""

import importlib

import numpy as np
import pytest

from bdris.architecture import (
    KIND_TREE,
    SusceptanceMatrix,
    groups_by_width,
    parse_arch,
    partition_from_cuts,
    received_power,
    scattering_from_susceptance,
    upper_bound_full,
)
from bdris.channel import ChannelPair, Rng, gen_gc_favorable, gen_los, gen_rayleigh, gen_tc_adversarial
from bdris.errors import InputError
from bdris.linalg import min_norm_least_squares
from bdris.optimize import (
    CONSISTENT_RTOL,
    NEAR_SINGULAR_RTOL,
    _group_entries,
    _phase_align_susceptance,
    _solve_tc,
    _solve_tridiagonal,
    _stacked_system,
    _steering,
    _symmetric_block,
    build_tc_system,
    optimize,
)

optimize_module = importlib.import_module("bdris.optimize")

Z0 = 50.0
PAPER_PAIR = ChannelPair(np.array([2j, 3 + 1j]), np.array([(3 + 1j) / 2, 1j]))
SIZES = (2, 3, 8, 64, 256)


def svd_reference(pair, spec, z0=Z0):
    """(B, residual norm, consistent) of the dense SVD steering solve."""
    n = pair.n
    b = np.zeros((n, n))
    if spec.kind == KIND_TREE:
        system = build_tc_system(pair, z0)
        sol = min_norm_least_squares(system.a, system.b)
        b[np.arange(n), np.arange(n)] = sol.x[:n]
        for k in range(n - 1):
            b[k, k + 1] = b[k + 1, k] = sol.x[n + k]
        consistent = sol.residual_norm <= CONSISTENT_RTOL * float(np.linalg.norm(system.b))
        return b, sol.residual_norm, consistent
    worst_residual = 0.0
    scale = 0.0
    for lo, hi in partition_from_cuts(spec.effective_cuts, n):
        hr = pair.h_r[lo:hi]
        ht = pair.h_t[lo:hi]
        nr = float(np.linalg.norm(hr))
        nt = float(np.linalg.norm(ht))
        if nr == 0.0 or nt == 0.0:
            continue
        hrn = hr / nr
        htn = ht / nt
        if np.linalg.norm(hrn + htn) < 1e-10:
            idx = np.arange(lo, hi)
            b[idx, idx] = _phase_align_susceptance(hr, ht, z0)
            continue
        entries = _group_entries(hi - lo)
        a, rhs = _stacked_system(*_steering(hrn, htn, z0), entries)
        sol = min_norm_least_squares(a, rhs)
        for c, (i, j) in enumerate(zip(*entries)):
            b[lo + i, lo + j] = b[lo + j, lo + i] = sol.x[c]
        worst_residual = max(worst_residual, sol.residual_norm)
        scale = max(scale, float(np.linalg.norm(rhs)))
    consistent = worst_residual <= CONSISTENT_RTOL * scale if scale > 0.0 else True
    return b, worst_residual, consistent


def spec_layout(b, spec):
    """B in the layout its optimizer hands over: tc its bands, sc and gc their groups."""
    if spec.kind == KIND_TREE:
        return SusceptanceMatrix(bands=(np.diagonal(b), np.diagonal(b, 1)))
    return SusceptanceMatrix(tuple((idx, b[idx[:, :, None], idx[:, None, :]])
                                   for idx in groups_by_width(spec.effective_cuts, spec.n)))


def reference_ratio(pair, b, z0=Z0):
    return received_power(pair, scattering_from_susceptance(b, z0)) / upper_bound_full(pair)


def normalized_beta(pair):
    return pair.h_t / np.linalg.norm(pair.h_t) - pair.h_r / np.linalg.norm(pair.h_r)


@pytest.fixture
def svd_calls(monkeypatch):
    """Counts the optimizers' calls of the SVD fallback."""
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return min_norm_least_squares(*args, **kwargs)

    monkeypatch.setattr(optimize_module, "min_norm_least_squares", counting)
    return calls


def equivalence_pairs():
    for n in SIZES:
        yield f"rayleigh-{n}", gen_rayleigh(n, Rng(7000 + n))
        yield f"los-{n}", gen_los(n, Rng(7100 + n))
        if n % 2 == 0:
            yield f"gc_favorable-{n}", gen_gc_favorable(n, 2, Rng(7200 + n))


PAIRS = dict(equivalence_pairs())


@pytest.mark.parametrize("name", sorted(PAIRS))
def test_tc_recursion_matches_svd_solution(name, svd_calls):
    pair = PAIRS[name]
    res = optimize(pair, parse_arch("tc", pair.n), Z0)
    assert not svd_calls
    b_ref, _, consistent_ref = svd_reference(pair, parse_arch("tc", pair.n))
    b = res.b_matrix.matrix
    # the solution is unique at full column rank; the SVD reference itself
    # carries a forward error up to eps cond(A), which exceeds 1e-9 on
    # ill-conditioned pairs (cond 3e7 for LOS at n = 256)
    sigma = np.linalg.svd(build_tc_system(pair, Z0).a, compute_uv=False)
    rtol = max(1e-9, 10 * np.finfo(float).eps * sigma[0] / sigma[-1])
    assert np.max(np.abs(b - b_ref)) <= rtol * np.max(np.abs(b_ref))
    assert res.consistent and consistent_ref
    assert res.residual_norm <= CONSISTENT_RTOL * np.linalg.norm(normalized_beta(pair))
    assert abs(res.ratio_full - reference_ratio(pair, b_ref)) <= 1e-12


GROUP_CASES = [(name, label) for name in sorted(PAIRS) for label in ("gc:2", "gc:4", "fc")
               if label == "fc" or PAIRS[name].n % int(label[3:]) == 0]


@pytest.mark.parametrize("name,label", GROUP_CASES)
def test_symmetric_group_solve(name, label, svd_calls):
    pair = PAIRS[name]
    n = pair.n
    spec = parse_arch(label, n)
    res = optimize(pair, spec, Z0)
    assert not svd_calls
    b = res.b_matrix.matrix
    assert np.array_equal(b, b.T)
    assert res.b_matrix.conforms(spec)
    assert res.consistent
    for lo, hi in partition_from_cuts(spec.effective_cuts, n):
        hr = pair.h_r[lo:hi] / np.linalg.norm(pair.h_r[lo:hi])
        ht = pair.h_t[lo:hi] / np.linalg.norm(pair.h_t[lo:hi])
        alpha = 1j * Z0 * (hr + ht)
        beta = ht - hr
        block = b[lo:hi, lo:hi]
        assert np.linalg.norm(block @ alpha - beta) <= CONSISTENT_RTOL * np.linalg.norm(beta)
    if label == "fc" and n > 64:
        return  # the dense fc group system at n = 256 is 512 x 32,896
    b_ref, _, consistent_ref = svd_reference(pair, spec)
    assert consistent_ref
    assert abs(res.ratio_full - reference_ratio(pair, b_ref)) <= 1e-12


def assert_same_as_svd(pair, label, z0=Z0):
    spec = parse_arch(label, pair.n)
    res = optimize(pair, spec, z0)
    b_ref, residual_ref, consistent_ref = svd_reference(pair, spec, z0)
    assert np.array_equal(res.b_matrix.matrix, b_ref)
    assert res.residual_norm == residual_ref
    assert res.consistent == consistent_ref
    assert res.p_r == received_power(pair, scattering_from_susceptance(spec_layout(b_ref, spec), z0))
    return res


def test_worked_example_takes_fallback(svd_calls):
    res = assert_same_as_svd(PAPER_PAIR, "tc", z0=1.0)
    assert len(svd_calls) == 1
    b = res.b_matrix.matrix
    assert (b[0, 0], b[1, 1]) == pytest.approx((-2.0 / 3.0, 2.0 / 3.0), rel=1e-9)
    assert abs(b[0, 1]) <= 1e-12
    assert res.residual_norm ** 2 == pytest.approx(2.0 / 7.0, abs=1e-9)


@pytest.mark.parametrize("n", (4, 8, 16, 64))
def test_tc_adversarial_fallbacks_match_svd(n, svd_calls):
    for trial in range(3):
        pair = gen_tc_adversarial(n, Rng(8000 + 10 * n + trial))
        del svd_calls[:]
        # tc's fallback solves the alpha and beta its recursion formed:
        # build_tc_system's minimum-norm solution, bands and residual bit
        # for bit
        tc = assert_same_as_svd(pair, "tc")
        assert len(svd_calls) == 1 and not tc.consistent
        # every width-2 group holds one swapped pair, whose alpha entries
        # share a phase: each Gram matrix is singular
        del svd_calls[:]
        assert_same_as_svd(pair, "gc:2")
        assert len(svd_calls) == n // 2
        # width-4 groups hold two swapped pairs of independent phases, so
        # their Gram matrices are regular and the closed form applies
        del svd_calls[:]
        spec = parse_arch("gc:4", n)
        res = optimize(pair, spec, Z0)
        assert not svd_calls
        b_ref, _, consistent_ref = svd_reference(pair, spec)
        assert res.consistent and consistent_ref
        assert abs(res.ratio_full - reference_ratio(pair, b_ref)) <= 1e-12


def test_degenerate_and_dead_groups(svd_calls):
    # group 0 has h_r_hat = -h_t_hat; group 1 has a zero receive channel
    h_r = np.array([1.0 + 0j, 1j, 0j, 0j, 0.3 + 0.1j, -0.2j])
    h_t = np.array([-1.0 + 0j, -1j, 0.5 + 0j, 0.5j, 0.7 + 0j, 0.4 - 0.6j])
    pair = ChannelPair(h_r, h_t)
    spec = parse_arch("gc:2", 6)
    res = optimize(pair, spec, Z0)
    assert not svd_calls  # group 2 takes the closed form
    b = res.b_matrix.matrix
    b_ref, _, consistent_ref = svd_reference(pair, spec)
    assert np.array_equal(b[:4, :4], b_ref[:4, :4])
    assert b[0, 1] == 0.0 and b[0, 0] != 0.0  # per-element phasing on group 0
    assert not np.any(b[2:4, 2:4])
    assert res.consistent and consistent_ref
    assert abs(res.ratio_full - reference_ratio(pair, b_ref)) <= 1e-12
    assert res.p_r >= (1.0 - 1e-6) * res.p_bar_arch


def test_gc1_and_single_element_surfaces(svd_calls):
    # width-1 groups take sc's phase alignment, never the SVD
    pair = gen_rayleigh(6, Rng(91))
    gc1 = optimize(pair, parse_arch("gc:1", 6), Z0)
    sc = optimize(pair, parse_arch("sc", 6), Z0)
    assert np.array_equal(gc1.b_matrix.matrix, sc.b_matrix.matrix)
    assert np.array_equal(gc1.theta.matrix, sc.theta.matrix)
    assert (gc1.p_r, gc1.p_bar_arch, gc1.residual_norm, gc1.consistent) == (
        sc.p_r, sc.p_bar_arch, 0.0, True)
    b_ref, _, consistent_ref = svd_reference(pair, parse_arch("gc:1", 6))
    assert consistent_ref
    assert np.allclose(gc1.b_matrix.matrix, b_ref, rtol=1e-12, atol=0.0)
    assert abs(gc1.ratio_full - reference_ratio(pair, b_ref)) <= 1e-12
    one = gen_rayleigh(1, Rng(92))
    sc1 = optimize(one, parse_arch("sc", 1), Z0)
    fc1 = optimize(one, parse_arch("fc", 1), Z0)
    assert sc1.ratio_full == pytest.approx(1.0, abs=1e-9)
    assert np.array_equal(fc1.b_matrix.matrix, sc1.b_matrix.matrix) and fc1.p_r == sc1.p_r
    assert not svd_calls
    with pytest.raises(InputError):
        _solve_tc(one.h_r, one.h_t, one.norm_r, one.norm_t, Z0)


def test_singleton_groups_inside_cut_list(svd_calls):
    # singletons at 0, 4 and 5 beside a width-3 group take the phase
    # alignment, the width-3 group the closed form
    pair = gen_rayleigh(6, Rng(93))
    spec = parse_arch("gc:I=1,4,5", 6)
    res = optimize(pair, spec, Z0)
    assert not svd_calls
    sc = optimize(pair, parse_arch("sc", 6), Z0).b_matrix.matrix
    b = res.b_matrix.matrix
    assert [b[k, k] for k in (0, 4, 5)] == [sc[k, k] for k in (0, 4, 5)]
    assert res.consistent and res.b_matrix.conforms(spec)
    b_ref, _, _ = svd_reference(pair, spec)
    assert abs(res.ratio_full - reference_ratio(pair, b_ref)) <= 1e-12


def test_fc_large_surface_completes():
    pair = gen_rayleigh(512, Rng(94))
    res = optimize(pair, parse_arch("fc", 512), Z0)
    assert res.consistent
    assert res.ratio_full == pytest.approx(1.0, abs=1e-9)


def test_tridiagonal_determinant_threshold():
    rng = np.random.default_rng(95)
    n = 12
    alpha = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    diag = rng.standard_normal(n)
    coupling = rng.standard_normal(n - 1)
    for sin_angle, solved in ((1e-2 * NEAR_SINGULAR_RTOL, False), (1e2 * NEAR_SINGULAR_RTOL, True)):
        # turn alpha_6 to within the given angle of alpha_5's phase
        a = alpha.copy()
        a[6] = abs(a[6]) * a[5] / abs(a[5]) * np.exp(1j * np.arcsin(sin_angle))
        beta = diag * a
        beta[1:] += coupling * a[:-1]
        beta[:-1] += coupling * a[1:]
        out = _solve_tridiagonal(a, beta)
        assert (out is not None) == solved
        if solved:
            assert np.allclose(out[0], diag, rtol=0, atol=1e-4)
            assert np.allclose(out[1], coupling, rtol=0, atol=1e-4)
            assert out[2] <= CONSISTENT_RTOL * np.linalg.norm(beta)


def test_group_gram_determinant_threshold(svd_calls):
    # a width-2 group whose h_t leans out of h_r's common phase by eps: its
    # Gram determinant is about k eps^2 times the product of its diagonal,
    # and eps puts it just above or just below NEAR_SINGULAR_RTOL of it
    phase = np.exp(0.7j)
    h_r = phase * np.array([1.0, 0.3])

    def pair_at(eps):
        return ChannelPair(h_r, phase * np.array([0.5, 1.0 + 1j * eps]))

    def normalized(pair):
        return pair.h_r / np.linalg.norm(pair.h_r), pair.h_t / np.linalg.norm(pair.h_t)

    def gram_ratio(pair):
        s = sum(normalized(pair))
        (g00, g01), (_, g11) = np.array([[s.imag @ s.imag, -s.imag @ s.real],
                                         [-s.real @ s.imag, s.real @ s.real]]) * Z0 ** 2
        return (g00 * g11 - g01 * g01) / (g00 * g11)

    k = gram_ratio(pair_at(1e-3)) / 1e-6
    entries = _group_entries(2)
    for margin, closed in ((1.001, True), (0.999, False)):
        pair = pair_at(np.sqrt(margin * NEAR_SINGULAR_RTOL / k))
        assert (gram_ratio(pair) > NEAR_SINGULAR_RTOL) == closed
        del svd_calls[:]
        b = optimize(pair, parse_arch("gc:2", 2), Z0).b_matrix.matrix
        # the real-stacked system, 4 equations in the 3 entries of B, has
        # full column rank, so both solves seek the same B
        sol = min_norm_least_squares(*_stacked_system(*_steering(*normalized(pair), Z0), entries))
        assert sol.numerical_rank == 3
        reference = _symmetric_block(sol.x, entries, 2)
        if closed:
            # the adjugate closed form
            assert not svd_calls
            assert np.max(np.abs(b - reference)) <= 1e-9 * np.max(np.abs(reference))
        else:
            assert len(svd_calls) == 1
            assert np.array_equal(b, reference)
