"""The factored layout of wide closed-form groups against the dense Cayley map.

A closed-form group wider than 4 (fc's one group, wide gc groups) holds its
block of B as Q S Q^T with a 4 x 4 core S, and its block of Theta as
I + Q (Theta_S - I) Q^T.  Its dense B, mapped by the dense Cayley solve, must
give the same power and Theta, and the defects the factored check reports
must bound those of the dense check.
"""

import importlib
import json
import tracemalloc

import numpy as np
import pytest

from bdris.architecture import (
    ScatteringMatrix,
    SusceptanceMatrix,
    parse_arch,
    scattering_from_susceptance,
)
from bdris.channel import ChannelPair, Rng, gen_los, gen_rayleigh, gen_tc_adversarial, write_channel_json
from bdris.cli import main
from bdris.errors import InputError, NumericalFailure
from bdris.linalg import check_symmetric_unitary
from bdris.optimize import optimize

optimize_module = importlib.import_module("bdris.optimize")

Z0 = 50.0
GENERATORS = {"rayleigh": gen_rayleigh, "los": gen_los, "tc_adversarial": gen_tc_adversarial}
CASES = [(n, label) for n in (5, 8, 64, 256) for label in ("fc", "gc:8", "gc:16")
         if label == "fc" or n % int(label[3:]) == 0]


def dense_cayley(b, z0):
    jb = 1j * z0 * b
    eye = np.eye(b.shape[0])
    return np.linalg.solve(eye + jb, eye - jb)


def assert_matches_dense(pair, res, z0):
    """Power, Theta and defects of a factored result against its dense B."""
    b = res.b_matrix.matrix
    assert np.array_equal(b, b.T)
    theta = dense_cayley(b, z0)
    p_dense = abs(np.vdot(pair.h_r, theta @ pair.h_t)) ** 2
    assert abs(res.ratio_full - p_dense / res.p_bar_full) <= 1e-12
    mapped = scattering_from_susceptance(SusceptanceMatrix(b), z0).matrix
    dense_theta = res.theta.matrix
    assert np.max(np.abs(dense_theta - mapped)) <= 1e-11
    check = check_symmetric_unitary(dense_theta)
    assert res.theta.symmetry_defect >= check.symmetry_defect
    assert res.theta.unitarity_defect >= check.unitarity_defect


@pytest.mark.parametrize("scenario", sorted(GENERATORS))
@pytest.mark.parametrize("n,label", CASES)
def test_factored_groups_match_dense_map(scenario, n, label):
    spec = parse_arch(label, n)
    for seed in range(3):
        pair = GENERATORS[scenario](n, Rng(12_000 + 100 * n + seed))
        res = optimize(pair, spec, Z0)
        assert res.b_matrix.factors and not res.b_matrix.blocks
        assert res.consistent
        assert_matches_dense(pair, res, Z0)


def test_equal_unit_channels_give_zero_b():
    # h_r_hat = h_t_hat makes beta = 0, so [X, Y] has rank 2; Q stays
    # orthonormal and S, B and Theta - I come out zero
    h = gen_rayleigh(16, Rng(12_500)).h_r
    pair = ChannelPair(h, h.copy())
    res = optimize(pair, parse_arch("fc", 16), Z0)
    (_, q, s), = res.b_matrix.factors
    assert not np.any(s)
    assert np.allclose(q[0].T @ q[0], np.eye(4), rtol=0.0, atol=1e-14)
    assert not np.any(res.b_matrix.matrix)
    assert np.array_equal(res.theta.matrix, np.eye(16))
    assert res.consistent and res.residual_norm == 0.0
    assert res.ratio_full == pytest.approx(1.0, abs=1e-14)


def test_width_five_is_the_smallest_factored_group():
    pair = gen_rayleigh(5, Rng(12_600))
    res = optimize(pair, parse_arch("fc", 5), Z0)
    (index, q, s), = res.b_matrix.factors
    assert index.shape == (1, 5) and q.shape == (1, 5, 4) and s.shape == (1, 4, 4)
    assert_matches_dense(pair, res, Z0)


@pytest.mark.parametrize("n", (2, 3, 4))
def test_narrow_groups_stay_dense_bit_for_bit(n):
    # the dense closed form, op for op: what every width <= 4 group takes,
    # in real arithmetic on [X; Y] as rows, with the 2 x 2 Gram matrix
    # inverted by its adjugate
    pair = gen_rayleigh(n, Rng(12_700 + n))
    res = optimize(pair, parse_arch("fc", n), Z0)
    assert not res.b_matrix.factors and not res.theta.factors
    (index, block), = res.b_matrix.blocks
    hv, tv = pair.h_r.view(float)[None], pair.h_t.view(float)[None]
    hr = (hv / np.linalg.norm(pair.h_r)).reshape(1, n, 2)
    ht = (tv / np.linalg.norm(pair.h_t)).reshape(1, n, 2)
    s, beta = hr + ht, ht - hr
    xy = np.stack([-Z0 * s[..., 1], Z0 * s[..., 0], beta[..., 0], beta[..., 1]], axis=1)
    x, y = xy[:, :2], xy[:, 2:]
    products = xy @ xy.transpose(0, 2, 1).copy()
    (g00, g01), (g10, g11) = products[0, :2, :2]
    det = g00 * g11 - g01 * g01
    pinv = (np.array([[[g11, -g10], [-g01, g00]]]) / det) @ x
    a = pinv.transpose(0, 2, 1) @ (y - (0.5 * products[:, :2, 2:]) @ pinv)
    bk = a + a.transpose(0, 2, 1)
    assert np.array_equal(index, np.arange(n)[None]) and np.array_equal(block, bk)
    residual = (x @ bk - y).ravel()
    assert res.residual_norm == np.sqrt(np.vecdot(residual, residual))
    # the closed form as it was solved before, through np.linalg.solve on
    # the Gram matrix, gives the same B up to rounding
    xt = x.transpose(0, 2, 1)
    pinv_solved = np.linalg.solve(x @ xt, x)
    yp = y.transpose(0, 2, 1) @ pinv_solved
    c = x @ y.transpose(0, 2, 1)
    solved = yp + yp.transpose(0, 2, 1) - pinv_solved.transpose(0, 2, 1) @ c @ pinv_solved
    assert np.max(np.abs(bk - solved)) <= 1e-12 * np.max(np.abs(bk))
    jb = 1j * Z0 * bk
    (_, theta), = res.theta.blocks
    eye = np.eye(n)
    assert np.array_equal(theta, 2.0 * np.linalg.solve(eye + jb, np.broadcast_to(eye, jb.shape)) - eye)


@pytest.mark.parametrize("z0", (1e-3, 1e4))
@pytest.mark.parametrize("label", ("fc", "gc:8"))
def test_extreme_reference_impedance(z0, label):
    # pytest turns a RuntimeWarning (overflow, invalid value) into an error
    pair = gen_rayleigh(64, Rng(12_800))
    res = optimize(pair, parse_arch(label, 64), z0)
    assert res.b_matrix.factors and res.consistent
    assert_matches_dense(pair, res, z0)
    assert res.ratio_full == pytest.approx(optimize(pair, parse_arch(label, 64), Z0).ratio_full,
                                           abs=1e-12)


def real_group_pair(n, seed):
    """A pair whose channels are real: alpha has one phase, so every Gram matrix is singular."""
    rng = np.random.default_rng(seed)
    return ChannelPair(rng.standard_normal(n) + 0j, rng.standard_normal(n) + 0j)


def test_fallback_and_factored_groups_share_a_width():
    # gc:8 on 16 elements: the first group's channels are real and go to
    # the SVD fallback as a dense block, the second takes the closed form
    real = real_group_pair(8, 12_900)
    rayleigh = gen_rayleigh(8, Rng(12_901))
    pair = ChannelPair(np.concatenate([real.h_r, rayleigh.h_r]),
                       np.concatenate([real.h_t, rayleigh.h_t]))
    res = optimize(pair, parse_arch("gc:8", 16), Z0)
    (dense_index, _), = res.b_matrix.blocks
    (factored_index, _, _), = res.b_matrix.factors
    assert np.array_equal(dense_index, np.arange(8)[None])
    assert np.array_equal(factored_index, np.arange(8, 16)[None])
    assert res.b_matrix.conforms(parse_arch("gc:8", 16))
    assert_matches_dense(pair, res, Z0)


def test_wide_degenerate_and_dead_groups_stay_dense():
    # gc:6 on 18 elements: a degenerate group (h_t = -2 h_r) takes sc's
    # phase alignment and a dead one (h_r = 0) a zero block, both dense;
    # the third takes the closed form as factors
    rng = np.random.default_rng(12_950)
    h = rng.standard_normal((3, 6)) + 1j * rng.standard_normal((3, 6))
    h_t = rng.standard_normal((3, 6)) + 1j * rng.standard_normal((3, 6))
    h_t[0] = -2.0 * h[0]
    h[1] = 0.0
    pair = ChannelPair(h.ravel(), h_t.ravel())
    res = optimize(pair, parse_arch("gc:6", 18), Z0)
    (dense_index, blocks), = res.b_matrix.blocks
    (factored_index, _, _), = res.b_matrix.factors
    assert np.array_equal(dense_index, np.arange(12).reshape(2, 6))
    assert np.array_equal(factored_index, np.arange(12, 18)[None])
    assert np.array_equal(blocks[0], np.diag(np.diagonal(blocks[0]))) and np.any(blocks[0])
    assert not np.any(blocks[1])
    assert res.consistent
    assert_matches_dense(pair, res, Z0)


def test_fallback_size_guard(monkeypatch, tmp_path, capsys):
    # a width-6 group's stacked system is 12 x 21 reals, 2016 bytes
    pair = real_group_pair(6, 13_000)
    spec = parse_arch("fc", 6)
    assert not optimize(pair, spec, Z0).b_matrix.factors  # the SVD fallback, a dense block
    monkeypatch.setattr(optimize_module, "FALLBACK_MAX_BYTES", 2000)
    with pytest.raises(NumericalFailure, match=r"width-6 group needs a 12 x 21 real system"):
        optimize(pair, spec, Z0)
    channel_file = tmp_path / "pair.json"
    with open(channel_file, "w") as fp:
        write_channel_json(pair, fp)
    assert main(["optimize", "--arch", "fc", "--channels", str(channel_file)]) == 3
    assert "FALLBACK_MAX_BYTES" in capsys.readouterr().err


def test_emitted_theta_matches_dense_map(tmp_path, capsys):
    channel_file = tmp_path / "pair.json"
    with open(channel_file, "w") as fp:
        write_channel_json(gen_los(12, Rng(13_100)), fp)
    assert main(["optimize", "--arch", "fc", "--channels", str(channel_file), "--emit-matrices"]) == 0
    doc = json.loads(capsys.readouterr().out)
    b = np.array(doc["b_matrix"])
    theta = np.array(doc["theta"]) @ np.array([1.0, 1j])
    assert np.array_equal(b, b.T)
    assert np.max(np.abs(theta - dense_cayley(b, doc["z0"]))) <= 1e-11


def test_fc_builds_no_dense_matrix_at_n_4096():
    # a dense real B would take 128 MiB and a dense complex Theta 256 MiB
    n = 4096
    pair = gen_rayleigh(n, Rng(13_200))
    spec = parse_arch("fc", n)
    optimize(pair, spec, Z0)
    tracemalloc.start()
    try:
        res = optimize(pair, spec, Z0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 4 * 2 ** 20
    assert res.consistent and res.ratio_full == pytest.approx(1.0, abs=1e-12)
    assert "matrix" not in vars(res.b_matrix)
    assert "matrix" not in vars(res.theta)


def test_factor_layout_is_checked():
    index = np.arange(6)[None]
    q = np.linalg.qr(np.random.default_rng(1).standard_normal((6, 4)))[0][None]
    s = np.eye(4)[None]
    b = SusceptanceMatrix((), factors=((index, q, s),))
    assert b.n == 6 and np.array_equal(b.matrix, b.matrix.T)
    assert np.allclose(b.matrix, q[0] @ q[0].T, rtol=0.0, atol=1e-15)
    asymmetric = s.copy()
    asymmetric[0, 0, 1] = 1e-3
    bad = np.full_like(q, np.nan)
    for factors in (((index, q, asymmetric),), ((index, bad, s),), ((index, q[:, :5], s),),
                    ((index, q, s[:, :3, :3]),)):
        with pytest.raises(InputError):
            SusceptanceMatrix((), factors=factors)
    with pytest.raises(InputError):
        SusceptanceMatrix(bands=(np.zeros(6), np.zeros(5)), factors=((index, q, s),))


def test_bound_covers_the_rounding_of_the_dense_form():
    # a diagonal core of unit phases is exactly symmetric, so only the
    # rounding allowance of the bound covers the asymmetry that forming the
    # dense I + Q (Theta_S - I) Q^T leaves; at width 1024 the dense check's
    # length-2w real inner products round the most
    rng = np.random.default_rng(13_300)
    for width, draws in ((64, 20), (1024, 4)):
        index = np.arange(width)[None]
        dense_defects = []
        for _ in range(draws):
            q = np.linalg.qr(rng.standard_normal((width, 4)))[0][None]
            core = np.diag(np.exp(1j * rng.uniform(-np.pi, np.pi, 4)))[None]
            theta = ScatteringMatrix(width, (), ((index, q, core),))
            check = check_symmetric_unitary(theta.matrix)
            assert theta.symmetry_defect >= check.symmetry_defect
            assert theta.unitarity_defect >= check.unitarity_defect
            dense_defects.append(check.symmetry_defect)
        assert max(dense_defects) > 0.0
