"""Tests for the per-architecture optimizers and the brute-force search."""

import tracemalloc

import numpy as np
import pytest

from bdris.architecture import (
    ArchitectureSpec,
    KIND_FULL,
    KIND_GROUP,
    KIND_SINGLE,
    KIND_TREE,
    parse_arch,
    pattern_mask,
    received_power,
    upper_bound_full,
    upper_bound_gc,
)
from bdris.channel import ChannelPair, Rng, gen_gc_favorable, gen_los, gen_rayleigh, normalize
from bdris.errors import InputError
from bdris.optimize import (
    _group_entries,
    _stacked_system,
    _steering,
    brute_force_power_search,
    build_tc_system,
    optimize,
)

PAPER_PAIR = ChannelPair(np.array([2j, 3 + 1j]), np.array([(3 + 1j) / 2, 1j]))
S14 = np.sqrt(14.0)


def test_build_tc_system_frozen():
    sysm = build_tc_system(PAPER_PAIR, z0=1.0)
    assert sysm.a.shape == (4, 3)
    assert sysm.b.shape == (4,)
    alpha = ((-3.0 + 3.0j) / S14) * np.ones(2)
    assert np.allclose(sysm.alpha, alpha, atol=1e-14)
    a_expect = (
        np.array(
            [
                [-3.0, 0.0, -3.0],
                [0.0, -3.0, -3.0],
                [3.0, 0.0, 3.0],
                [0.0, 3.0, 3.0],
            ]
        )
        / S14
    )
    assert np.allclose(sysm.a, a_expect, atol=1e-14)
    assert np.allclose(sysm.b, np.array([3.0, -3.0, -1.0, 1.0]) / S14, atol=1e-14)


def test_group_system_frozen():
    # one fully-coupled group of width 3 at z0 = 1: alpha = j (hr + ht),
    # beta = ht - hr, unknowns B_00, B_11, B_22, B_01, B_02, B_12
    s3 = np.sqrt(3.0)
    hr = np.array([1.0, 1j, 1.0]) / s3
    ht = np.array([1.0, -1.0, 1j]) / s3
    entries = _group_entries(3)
    assert [(int(i), int(j)) for i, j in zip(*entries)] == [
        (0, 0), (1, 1), (2, 2), (0, 1), (0, 2), (1, 2)]
    a, rhs = _stacked_system(*_steering(hr, ht, 1.0), entries)
    a_expect = (
        np.array(
            [
                [0.0, 0.0, 0.0, -1.0, -1.0, 0.0],
                [0.0, -1.0, 0.0, 0.0, 0.0, -1.0],
                [0.0, 0.0, -1.0, 0.0, 0.0, -1.0],
                [2.0, 0.0, 0.0, -1.0, 1.0, 0.0],
                [0.0, -1.0, 0.0, 2.0, 0.0, 1.0],
                [0.0, 0.0, 1.0, 0.0, 2.0, -1.0],
            ]
        )
        / s3
    )
    assert np.allclose(a, a_expect, atol=1e-14)
    assert np.allclose(rhs, np.array([0.0, -1.0, -1.0, 0.0, -1.0, 1.0]) / s3, atol=1e-14)


def loop_stacked_system(alpha, beta, index_pairs):
    """Column-by-column reference: column (i, j) is e_i alpha_j + e_j alpha_i."""
    m = np.zeros((alpha.size, len(index_pairs)), dtype=complex)
    for c, (i, j) in enumerate(index_pairs):
        m[i, c] = alpha[j]
        m[j, c] = alpha[i]
    return np.vstack([m.real, m.imag]), np.concatenate([beta.real, beta.imag])


@pytest.mark.parametrize("n", range(1, 9))
def test_stacked_system_matches_loop(n):
    pair = gen_rayleigh(n, Rng(900 + n))
    alpha, beta = _steering(normalize(pair.h_r), normalize(pair.h_t), 50.0)
    diagonal = [(i, i) for i in range(n)]
    group_pairs = diagonal + [(i, j) for i in range(n) for j in range(i + 1, n)]
    a, rhs = _stacked_system(alpha, beta, _group_entries(n))
    a_ref, rhs_ref = loop_stacked_system(alpha, beta, group_pairs)
    assert np.array_equal(a, a_ref) and np.array_equal(rhs, rhs_ref)
    if n >= 2:
        system = build_tc_system(pair, z0=50.0)
        a_ref, rhs_ref = loop_stacked_system(
            system.alpha, beta, diagonal + [(k, k + 1) for k in range(n - 1)])
        assert np.array_equal(system.a, a_ref) and np.array_equal(system.b, rhs_ref)


def test_tc_system_coupling_column_structure():
    pair = gen_rayleigh(6, Rng(8))
    sysm = build_tc_system(pair, z0=50.0)
    n = 6
    for i in range(n - 1):
        col = sysm.a[:, n + i]
        nz = np.nonzero(np.abs(col) > 0)[0]
        assert set(nz) <= {i, i + 1, n + i, n + i + 1}


def test_build_tc_system_rejects_single_element():
    with pytest.raises(InputError):
        build_tc_system(ChannelPair(np.ones(1, complex), np.ones(1, complex)), z0=50.0)


def test_optimize_tc_worked_example():
    res = optimize(PAPER_PAIR, parse_arch("tc", 2), z0=1.0)
    b = res.b_matrix.matrix
    assert b[0, 0] == pytest.approx(-2.0 / 3.0, rel=1e-9)
    assert b[1, 1] == pytest.approx(2.0 / 3.0, rel=1e-9)
    assert abs(b[0, 1]) <= 1e-12
    assert res.residual_norm**2 == pytest.approx(2.0 / 7.0, abs=1e-9)
    assert res.p_r == pytest.approx(6724.0 / 169.0, rel=1e-6)
    assert res.ratio_full == pytest.approx(6724.0 / 169.0 / 49.0, rel=1e-6)
    assert not res.consistent
    expect_theta = np.diag([(5 + 12j) / 13.0, (5 - 12j) / 13.0])
    assert np.allclose(res.theta.matrix, expect_theta, atol=1e-9)


def test_optimize_tc_rayleigh_consistent():
    pair = gen_rayleigh(16, Rng(5))
    res = optimize(pair, parse_arch("tc", 16), z0=50.0)
    assert res.consistent
    assert res.ratio_full >= 1.0 - 1e-6


def test_optimize_sc_frozen_and_los():
    e1 = ChannelPair(np.array([1.0 + 0j]), np.array([1.0 + 0j]))
    res = optimize(e1, parse_arch("sc", 1), z0=50.0)
    assert res.b_matrix.matrix[0, 0] == 0.0
    assert res.p_r == pytest.approx(1.0, rel=1e-12)

    res = optimize(PAPER_PAIR, parse_arch("sc", 2), z0=50.0)
    assert res.p_bar_arch == pytest.approx(40.0, rel=1e-12)
    assert res.p_r == pytest.approx(40.0, rel=1e-6)
    assert res.ratio_full == pytest.approx(40.0 / 49.0, rel=1e-6)
    assert res.consistent and res.residual_norm == 0.0

    los = gen_los(16, Rng(21))
    assert optimize(los, parse_arch("sc", 16), z0=50.0).ratio_full >= 1.0 - 1e-6


def test_optimize_sc_zero_entry():
    pair = ChannelPair(np.array([0j, 1.0 + 0j]), np.array([1.0 + 0j, 1j]))
    res = optimize(pair, parse_arch("sc", 2), z0=50.0)
    assert res.b_matrix.matrix[0, 0] == 0.0
    assert res.p_r >= (1.0 - 1e-6) * res.p_bar_arch


def test_optimize_gc_matches_sc_for_singleton_groups():
    gc = optimize(PAPER_PAIR, ArchitectureSpec(KIND_GROUP, 2, (1,)), z0=50.0)
    sc = optimize(PAPER_PAIR, parse_arch("sc", 2), z0=50.0)
    assert gc.p_r == pytest.approx(sc.p_r, rel=1e-9)
    assert gc.p_bar_arch == pytest.approx(40.0, rel=1e-12)


def test_optimize_gc_reaches_group_bound():
    fav = gen_gc_favorable(12, 2, Rng(31))
    res = optimize(fav, ArchitectureSpec(KIND_GROUP, 12, tuple(range(2, 12, 2))), z0=50.0)
    assert res.p_r >= 0.999 * res.p_bar_full

    ray = gen_rayleigh(8, Rng(32))
    res = optimize(ray, ArchitectureSpec(KIND_GROUP, 8, (4,)), z0=50.0)
    assert res.p_r >= (1.0 - 1e-6) * upper_bound_gc(ray, (4,))
    assert res.consistent

    # no cuts means one dense block, which reaches the full bound
    res = optimize(ray, ArchitectureSpec(KIND_GROUP, 8, ()), z0=50.0)
    assert res.ratio_full >= 1.0 - 1e-6


def test_optimize_gc_degenerate_group_fallback():
    # one group has normalized sum close to zero, forcing phase alignment
    h_r = np.array([1.0 + 0j, 1j, 0.5 + 0j])
    h_t = np.array([-1.0 + 0j, -1j, 0.7 + 0j])
    nr = np.linalg.norm(h_r)
    pair = ChannelPair(h_r, h_t * (nr / np.linalg.norm(h_t)))
    res = optimize(pair, ArchitectureSpec(KIND_GROUP, 3, (2,)), z0=50.0)
    assert res.p_r >= 0.999 * res.p_bar_arch


def test_optimize_dispatch():
    for label, kind in (("sc", KIND_SINGLE), ("tc", KIND_TREE), ("fc", KIND_FULL)):
        spec = ArchitectureSpec(kind, 2)
        res = optimize(PAPER_PAIR, spec, z0=50.0)
        assert res.p_r <= res.p_bar_full * (1 + 1e-10)
    with pytest.raises(InputError):
        optimize(PAPER_PAIR, ArchitectureSpec(KIND_SINGLE, 3), z0=50.0)


def test_tc_on_one_element_is_sc():
    pair = gen_rayleigh(1, Rng(94))
    tc = optimize(pair, ArchitectureSpec(KIND_TREE, 1), z0=50.0)
    sc = optimize(pair, ArchitectureSpec(KIND_SINGLE, 1), z0=50.0)
    assert np.array_equal(tc.b_matrix.matrix, sc.b_matrix.matrix)
    assert (tc.p_r, tc.ratio_full, tc.residual_norm, tc.consistent) == (
        sc.p_r, sc.ratio_full, 0.0, True)
    assert tc.p_bar_arch == upper_bound_full(pair)
    assert tc.p_bar_arch == pytest.approx(sc.p_bar_arch, rel=1e-15)


@pytest.mark.parametrize("label", ["sc", "gc:4"])
def test_block_patterns_build_no_dense_theta(label):
    # a block pattern's optimize() holds B and Theta as their blocks; at
    # n = 1024 a dense real B would take 8 MB and a dense complex Theta 16 MB
    n = 1024
    pair = gen_rayleigh(n, Rng(95))
    spec = parse_arch(label, n)
    optimize(pair, spec, z0=50.0)
    tracemalloc.start()
    try:
        res = optimize(pair, spec, z0=50.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2 ** 20
    assert "matrix" not in vars(res.b_matrix)
    assert "matrix" not in vars(res.theta)


def test_tc_holds_b_as_bands():
    # tc hands B over as its two bands and holds Theta as the O(n) operator
    # on the L D L^T factors of I + j z0 B, checked by an O(n) bound: the
    # call peaks near 0.25 MB at n = 1024, where a dense real B alone would
    # take 8 MB and a dense complex Theta 16 MB
    n = 1024
    pair = gen_rayleigh(n, Rng(95))
    spec = parse_arch("tc", n)
    tracemalloc.start()
    try:
        res = optimize(pair, spec, z0=50.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2 * 2 ** 20
    assert "matrix" not in vars(res.b_matrix) and "matrix" not in vars(res.theta)
    assert res.b_matrix.bands[0].shape == (n,) and res.b_matrix.bands[1].shape == (n - 1,)


@pytest.mark.parametrize("pair,z0", [(gen_rayleigh(64, Rng(96)), 50.0), (PAPER_PAIR, 1.0)],
                         ids=["rayleigh-64", "paper-pair-fallback"])
def test_tc_calls_no_dense_solve(pair, z0, monkeypatch):
    # both legs, the recursion and (on the paper's pair) the SVD fallback,
    # reach Theta without np.linalg.solve
    def refuse(*args, **kwargs):
        raise AssertionError("np.linalg.solve called on the tc path")

    monkeypatch.setattr(np.linalg, "solve", refuse)
    res = optimize(pair, parse_arch("tc", pair.n), z0=z0)
    assert res.consistent == (pair is not PAPER_PAIR)
    assert res.theta.symmetry_defect <= 1e-14 and res.theta.unitarity_defect <= 1e-14


def test_tc_large_entry_pair_passes_the_check():
    # trial 1935 of `simulate --scenario rayleigh --sizes 64 --trials 4000
    # --arch tc --seed 3`: its B has large entries, and the dense solve's
    # Theta missed THETA_SYM_TOL with a symmetry defect of 1.05e-9
    pair = gen_rayleigh(64, Rng(11371763063177264948))
    res = optimize(pair, parse_arch("tc", 64), z0=50.0)
    assert res.theta.symmetry_defect <= 1e-14 and res.theta.unitarity_defect <= 1e-14
    assert res.consistent and res.ratio_full >= 1.0 - 1e-12


def test_z0_invariance():
    specs = (
        ArchitectureSpec(KIND_SINGLE, 8),
        ArchitectureSpec(KIND_TREE, 8),
        ArchitectureSpec(KIND_GROUP, 8, cuts=(4,)),
        ArchitectureSpec(KIND_FULL, 8),
    )
    for trial in range(10):
        pair = gen_rayleigh(8, Rng(400 + trial))
        for spec in specs:
            p1 = optimize(pair, spec, z0=1.0).p_r
            p50 = optimize(pair, spec, z0=50.0).p_r
            assert p1 == pytest.approx(p50, rel=1e-8)


def test_positive_scaling_invariance():
    spec = ArchitectureSpec(KIND_TREE, 8)
    pair = gen_rayleigh(8, Rng(55))
    base = optimize(pair, spec, z0=50.0)
    for c1, c2 in ((2.0, 0.5), (10.0, 3.0)):
        scaled = ChannelPair(c1 * pair.h_r, c2 * pair.h_t)
        res = optimize(scaled, spec, z0=50.0)
        assert res.ratio_full == pytest.approx(base.ratio_full, abs=1e-10)
        assert res.p_r == pytest.approx(base.p_r * c1**2 * c2**2, rel=1e-8)


def test_bound_chain_and_coherence():
    specs = (
        ArchitectureSpec(KIND_SINGLE, 6),
        ArchitectureSpec(KIND_TREE, 6),
        ArchitectureSpec(KIND_GROUP, 6, cuts=(3,)),
        ArchitectureSpec(KIND_FULL, 6),
    )
    for trial in range(25):
        pair = gen_rayleigh(6, Rng(500 + trial))
        for spec in specs:
            res = optimize(pair, spec, z0=50.0)
            assert res.p_bar_arch <= res.p_bar_full * (1 + 1e-12)
            assert res.p_r <= res.p_bar_full * (1 + 1e-10)
            if res.consistent:
                assert res.p_r <= res.p_bar_arch * (1 + 1e-9)
            # reported power must match an end-to-end re-evaluation
            assert received_power(pair, res.theta.matrix) == pytest.approx(
                res.p_r, rel=1e-10
            )


def test_brute_force_search_worked_pair():
    res = brute_force_power_search(
        PAPER_PAIR, ArchitectureSpec(KIND_TREE, 2), z0=1.0, budget=20_000, rng=Rng(0)
    )
    ub = upper_bound_full(PAPER_PAIR)
    assert res.p_r >= 6724.0 / 169.0 - 1e-6  # at least the steering solution
    assert res.p_r <= ub * (1 + 1e-9)
    assert res.evaluations <= 20_000
    assert res.b_matrix.conforms(ArchitectureSpec(KIND_TREE, 2))

    res = brute_force_power_search(
        PAPER_PAIR, ArchitectureSpec(KIND_SINGLE, 2), z0=1.0, budget=20_000, rng=Rng(1)
    )
    assert 40.0 * (1 - 1e-3) <= res.p_r <= 40.0 * (1 + 1e-9)


def test_brute_force_trivial_and_validation():
    e1 = ChannelPair(np.array([1.0 + 0j, 0j]), np.array([1.0 + 0j, 0j]))
    for kind in (KIND_SINGLE, KIND_TREE, KIND_FULL):
        res = brute_force_power_search(
            e1, ArchitectureSpec(kind, 2), z0=50.0, budget=500, rng=Rng(4)
        )
        assert res.p_r >= 1.0 - 1e-6
    with pytest.raises(InputError):
        brute_force_power_search(e1, ArchitectureSpec(KIND_TREE, 2), z0=50.0, budget=100)
    # a bool is an int to Python, and True would silently buy one evaluation
    for budget in (0, True, False):
        with pytest.raises(InputError):
            brute_force_power_search(
                e1, ArchitectureSpec(KIND_TREE, 2), z0=50.0, budget=budget, rng=Rng(0)
            )


def test_brute_force_respects_pattern():
    pair = gen_rayleigh(4, Rng(71))
    spec = ArchitectureSpec(KIND_GROUP, 4, cuts=(2,))
    res = brute_force_power_search(pair, spec, z0=50.0, budget=2_000, rng=Rng(5))
    mask = pattern_mask(spec)
    assert np.all(res.b_matrix.matrix[~mask] == 0.0)
