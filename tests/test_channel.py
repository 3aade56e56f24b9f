"""Tests for the deterministic generator and channel models."""

import io
import json
import math

import numpy as np
import pytest

from bdris.adversarial import cut_set
from bdris.channel import (
    ChannelPair,
    Rng,
    default_swap_extent,
    gen_gc_adversarial,
    gen_gc_favorable,
    gen_los,
    gen_rayleigh,
    gen_tc_adversarial,
    normalize,
    read_channel_json,
    splitmix64,
    write_channel_json,
)
from bdris.errors import InputError, NumericalFailure

MASK = (1 << 64) - 1


def reference_stream(seed, count):
    # independent restatement of the splitmix64 reference sequence
    out = []
    state = seed & MASK
    for _ in range(count):
        state = (state + 0x9E3779B97F4A7C15) & MASK
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
        out.append(z ^ (z >> 31))
    return out


def test_raw_stream_matches_reference():
    for seed in (0, 1, 42, (1 << 64) - 1):
        rng = Rng(seed)
        got = [int(v) for v in rng._raw(6)]
        assert got == reference_stream(seed, 6)


def test_counter_rng_is_stateless_across_block_sizes():
    a = Rng(7)
    b = Rng(7)
    whole = a.uniform(10)
    parts = np.concatenate([b.uniform(3), b.uniform(7)])
    assert np.array_equal(whole, parts)


def test_splitmix64_avalanche_distinct():
    vals = {splitmix64(k) for k in range(1000)}
    assert len(vals) == 1000


def test_uniform_ranges_and_moments():
    rng = Rng(123)
    u = rng.uniform(10_000)
    assert np.all(u >= 0.0) and np.all(u < 1.0)
    assert abs(u.mean() - 0.5) <= 0.02
    assert abs(u.var() - 1.0 / 12.0) <= 0.05 / 12.0

    up = rng.uniform_pos(10_000)
    assert np.all(up > 0.0) and np.all(up <= 1.0)


def test_complex_gaussian_moments():
    z = Rng(5).complex_gaussian(10_000)
    assert abs(z.mean()) <= 0.03
    assert np.mean(np.abs(z) ** 2) == pytest.approx(1.0, abs=0.05)
    assert np.mean(np.abs(z)) == pytest.approx(math.sqrt(math.pi) / 2.0, abs=0.03)
    # circular symmetry: phases roughly uniform
    phases = np.angle(z)
    assert abs(np.mean(np.exp(1j * phases))) <= 0.03


def test_channel_pair_validation():
    with pytest.raises(InputError):
        ChannelPair(np.zeros(3, complex), np.ones(3, complex))
    with pytest.raises(InputError):
        ChannelPair(np.ones(3, complex), np.ones(4, complex))
    with pytest.raises(InputError):
        ChannelPair(np.array([np.inf + 0j]), np.array([1.0 + 0j]))
    with pytest.raises(InputError):
        ChannelPair(np.ones((2, 2), complex), np.ones((2, 2), complex))


@pytest.mark.parametrize("scale_r, scale_t", [
    (1e80, 1e80),     # ||h_r||^2 ||h_t||^2 overflows
    (1e160, 1.0),     # ||h_r|| itself overflows
    (1e-90, 1e-90),   # the product underflows to zero
    (1e-160, 1e-160),
])
def test_channel_pair_rejects_out_of_range_scale(scale_r, scale_t):
    pair = gen_rayleigh(8, Rng(3))
    with pytest.raises(InputError, match="channel scale out of range"):
        ChannelPair(scale_r * pair.h_r, scale_t * pair.h_t)


def test_normalize():
    v = np.array([3.0 + 4j, 0.0])
    n1 = normalize(v)
    assert np.linalg.norm(n1) == pytest.approx(1.0, rel=1e-15)
    assert np.allclose(normalize(n1), n1, atol=1e-12)
    with pytest.raises(InputError):
        normalize(np.zeros(2, complex))


def test_gen_rayleigh_basic():
    pair = gen_rayleigh(16, Rng(9))
    assert pair.n == 16
    assert np.all(np.isfinite(pair.h_r)) and np.all(np.isfinite(pair.h_t))
    again = gen_rayleigh(16, Rng(9))
    assert np.array_equal(pair.h_r, again.h_r)
    assert np.array_equal(pair.h_t, again.h_t)


def test_gen_los_constant_modulus():
    pair = gen_los(12, Rng(3))
    mr = np.abs(pair.h_r)
    mt = np.abs(pair.h_t)
    assert np.allclose(mr, mr[0], rtol=1e-12)
    assert np.allclose(mt, mt[0], rtol=1e-12)
    assert 0.1 <= mr[0] <= 10.0
    assert 0.1 <= mt[0] <= 10.0


def test_gen_gc_favorable_norm_ratios_equal():
    pair = gen_gc_favorable(12, 3, Rng(11))
    ratios = []
    for g in range(4):
        s = slice(3 * g, 3 * g + 3)
        ratios.append(np.linalg.norm(pair.h_t[s]) / np.linalg.norm(pair.h_r[s]))
    assert np.allclose(ratios, ratios[0], rtol=1e-12)
    with pytest.raises(InputError):
        gen_gc_favorable(10, 3, Rng(0))  # group size must divide n


def test_gen_gc_adversarial_group_scales():
    pair = gen_gc_adversarial(16, 4, Rng(2))
    for g in range(4):
        s = slice(4 * g, 4 * g + 4)
        ng = np.linalg.norm(pair.h_t[s])
        assert 0.0 < ng <= 1.0 + 1e-12


def test_gen_tc_adversarial_structure():
    for n, q in ((4, 3), (8, 5), (9, 7), (16, 15)):
        pair = gen_tc_adversarial(n, Rng(100 + n), q=q)
        cuts, gammas = cut_set(pair)
        assert cuts == tuple(range(1, q + 1, 2))
        # swaps preserve the multiset of moduli
        assert np.allclose(
            np.sort(np.abs(pair.h_r)), np.sort(np.abs(pair.h_t)), rtol=1e-12
        )
        # swapped pairs keep distinguishable moduli
        for i in range(0, q, 2):
            a, b = abs(pair.h_r[i]), abs(pair.h_r[i + 1])
            assert abs(a - b) > 1e-6 * max(a, b)


def test_gen_tc_adversarial_default_extent():
    assert default_swap_extent(64) == 63
    assert default_swap_extent(9) == 7
    assert default_swap_extent(2) == 1
    pair = gen_tc_adversarial(6, Rng(0))
    cuts, _ = cut_set(pair)
    assert cuts == (1, 3, 5)


def test_gen_tc_adversarial_validation():
    with pytest.raises(InputError):
        gen_tc_adversarial(8, Rng(0), q=4)  # even q
    with pytest.raises(InputError):
        gen_tc_adversarial(8, Rng(0), q=9)  # q > n - 1
    with pytest.raises(InputError):
        gen_tc_adversarial(1, Rng(0))


def test_channel_json_round_trip():
    pair = gen_rayleigh(5, Rng(77))
    buf = io.StringIO()
    write_channel_json(pair, buf)
    back = read_channel_json(io.StringIO(buf.getvalue()))
    assert back.n == 5
    assert np.array_equal(back.h_r, pair.h_r)
    assert np.array_equal(back.h_t, pair.h_t)


def test_channel_json_validation():
    good = {"n": 2, "h_r": [[1.0, 0.0], [0.0, 1.0]], "h_t": [[1.0, 0.0], [1.0, 0.0]]}

    def corrupt(**changes):
        doc = dict(good)
        doc.update(changes)
        return io.StringIO(json.dumps(doc))

    read_channel_json(corrupt())  # sanity: the base document parses
    with pytest.raises(InputError):
        read_channel_json(corrupt(n=3))
    with pytest.raises(InputError):
        read_channel_json(corrupt(h_r=[[1.0, 0.0]]))
    with pytest.raises(InputError):
        read_channel_json(corrupt(h_r=[[1.0], [0.0]]))
    with pytest.raises(InputError):
        read_channel_json(corrupt(h_r=[[True, 0.0], [0.0, 1.0]]))
    with pytest.raises(InputError):
        read_channel_json(io.StringIO("not json"))
    with pytest.raises(InputError):
        read_channel_json(io.StringIO('{"n": 1, "h_r": [[0.0, 0.0]], "h_t": [[1.0, 0.0]]}'))
