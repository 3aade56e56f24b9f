"""Tests for membership predicates, the brute-force oracle, and column merging."""

import json

import numpy as np
import pytest

from bdris.adversarial import (
    cut_set,
    is_gc_adversarial,
    is_tc_adversarial,
    is_tc_adversarial_bruteforce,
    matches_cut_set,
    reduce_coupling,
)
from bdris.channel import ChannelPair, Rng, gen_los, gen_rayleigh, gen_tc_adversarial
from bdris.errors import InputError
from bdris.linalg import min_norm_least_squares
from bdris.optimize import build_tc_system

PAPER_PAIR = ChannelPair(np.array([2j, 3 + 1j]), np.array([(3 + 1j) / 2, 1j]))

# second two-element member with a non-unit proportionality factor:
# normalized channel sum is (0.64, 0.32), so gamma = 2
GAMMA2_PAIR = ChannelPair(
    np.array([0.6j, 0.8]), np.array([0.64 - 0.6j, -0.48 + 0j])
)


def test_cut_set_paper_pair():
    cuts, gammas = cut_set(PAPER_PAIR)
    assert cuts == (1,)
    assert gammas[0] == pytest.approx(1.0, rel=1e-12)


def test_cut_set_gamma2_pair():
    cuts, gammas = cut_set(GAMMA2_PAIR)
    assert cuts == (1,)
    assert gammas[0] == pytest.approx(2.0, rel=1e-12)


def test_cut_set_generic_pair_is_empty():
    pair = gen_rayleigh(8, Rng(17))
    cuts, gammas = cut_set(pair)
    assert cuts == ()
    assert gammas == ()


def test_is_gc_adversarial():
    flag, ratios = is_gc_adversarial(PAPER_PAIR, (1,))
    assert flag
    assert ratios[0] == pytest.approx(4.0 / np.sqrt(10.0), rel=1e-12)
    assert ratios[1] == pytest.approx(np.sqrt(10.0), rel=1e-12)

    # equal per-group norm ratios are not adversarial for that grouping
    h = gen_rayleigh(4, Rng(23)).h_r
    pair = ChannelPair(h, 0.5 * h)
    flag, _ = is_gc_adversarial(pair, (2,))
    assert not flag


def test_matches_cut_set():
    assert matches_cut_set(PAPER_PAIR, (1,))
    assert not matches_cut_set(gen_rayleigh(4, Rng(2)), (1,))
    with pytest.raises(InputError):
        matches_cut_set(PAPER_PAIR, ())
    with pytest.raises(InputError):
        matches_cut_set(PAPER_PAIR, (2,))


def test_membership_report_paper_pair():
    rep = is_tc_adversarial(PAPER_PAIR)
    assert rep.in_a
    assert rep.cut_set == (1,)
    assert rep.gammas[0] == pytest.approx(1.0, rel=1e-12)
    assert rep.c1_holds
    doc = json.loads(rep.to_json())
    assert set(doc) == {"in_a", "cut_set", "gammas", "group_ratios", "c1_holds"}
    assert doc["in_a"] is True
    assert doc["cut_set"] == [1]


def test_membership_gamma2_pair():
    rep = is_tc_adversarial(GAMMA2_PAIR)
    assert rep.in_a
    assert rep.cut_set == (1,)
    assert rep.gammas[0] == pytest.approx(2.0, rel=1e-9)
    assert rep.group_ratios[0] == pytest.approx(0.6 / abs(0.64 - 0.6j), rel=1e-12)
    assert rep.group_ratios[1] == pytest.approx(0.8 / 0.48, rel=1e-12)


def test_membership_rayleigh_pair_not_adversarial():
    rep = is_tc_adversarial(gen_rayleigh(6, Rng(37)))
    assert not rep.in_a
    assert rep.cut_set == ()


def test_zero_sum_entries():
    # one zero entry of the normalized sum next to nonzero ones: no cut there
    h_r = np.array([1.0, 1.0, 1.0], complex) / np.sqrt(3.0)
    h_t = np.array([1.0, -1.0, 1.0], complex) / np.sqrt(3.0)
    rep = is_tc_adversarial(ChannelPair(h_r, h_t))
    assert rep.cut_set == ()
    assert not rep.in_a

    # two adjacent zero entries count as proportional with gamma 1
    h_r4 = np.array([1.0, 1.0, 1.0, 1.0], complex) / 2.0
    h_t4 = np.array([1.0, -1.0, -1.0, 1.0], complex) / 2.0
    rep4 = is_tc_adversarial(ChannelPair(h_r4, h_t4))
    assert rep4.cut_set == (2,)
    assert rep4.gammas[0] == 1.0
    # groups {1,2} and {3,4} have identical norm ratios, so c1 fails
    assert not rep4.c1_holds
    assert not rep4.in_a


def test_bruteforce_oracle_agreement():
    checked = 0
    for n in range(2, 9):
        for k in range(12):
            pair = gen_rayleigh(n, Rng(1000 + 13 * n + k))
            assert is_tc_adversarial(pair).in_a == is_tc_adversarial_bruteforce(pair)
            checked += 1
        for k in range(12):
            pair = gen_tc_adversarial(n, Rng(2000 + 13 * n + k))
            assert is_tc_adversarial(pair).in_a
            assert is_tc_adversarial_bruteforce(pair)
            checked += 1
        pair = gen_los(n, Rng(3000 + n))
        assert is_tc_adversarial(pair).in_a == is_tc_adversarial_bruteforce(pair)
        checked += 1
    assert checked >= 150


def test_bruteforce_size_guard():
    pair = gen_rayleigh(17, Rng(0))
    with pytest.raises(InputError):
        is_tc_adversarial_bruteforce(pair)


def test_rank_deficiency_matches_cut_count():
    for k in range(30):
        n = 4 + (k % 5) * 2
        pair = gen_tc_adversarial(n, Rng(4000 + k))
        cuts, _ = cut_set(pair)
        sysm = build_tc_system(pair, z0=50.0)
        sol = min_norm_least_squares(sysm.a, sysm.b)
        assert sol.numerical_rank <= 2 * n - 1 - len(cuts)


def test_reduce_coupling_identity():
    rng = np.random.default_rng(12)
    for pair, gamma in ((PAPER_PAIR, 1.0), (GAMMA2_PAIR, 2.0)):
        sysm = build_tc_system(pair, z0=1.0)
        for _ in range(50):
            x = rng.standard_normal(3)
            xp = reduce_coupling(sysm, x, cut=1, gamma=gamma)
            assert xp[2] == 0.0
            scale = max(np.max(np.abs(sysm.a)) * np.max(np.abs(x)), 1.0)
            assert np.max(np.abs(sysm.a @ (x - xp))) <= 1e-12 * scale


def test_reduce_coupling_larger_system():
    pair = gen_tc_adversarial(8, Rng(91))
    cuts, gammas = cut_set(pair)
    sysm = build_tc_system(pair, z0=50.0)
    rng = np.random.default_rng(3)
    for _ in range(20):
        x = rng.standard_normal(15)
        for cut, gamma in zip(cuts, gammas):
            xp = reduce_coupling(sysm, x, cut=cut, gamma=gamma)
            assert xp[8 + cut - 1] == 0.0
            scale = max(np.max(np.abs(sysm.a)) * np.max(np.abs(x)), 1.0)
            assert np.max(np.abs(sysm.a @ (x - xp))) <= 1e-12 * scale


def test_reduce_coupling_validation():
    sysm = build_tc_system(PAPER_PAIR, z0=1.0)
    x = np.zeros(3)
    with pytest.raises(InputError):
        reduce_coupling(sysm, x, cut=0, gamma=1.0)
    with pytest.raises(InputError):
        reduce_coupling(sysm, x, cut=2, gamma=1.0)
    with pytest.raises(InputError):
        reduce_coupling(sysm, x, cut=1, gamma=0.0)
    with pytest.raises(InputError):
        reduce_coupling(sysm, x, cut=1, gamma=np.inf)
    with pytest.raises(InputError):
        reduce_coupling(sysm, np.zeros(4), cut=1, gamma=1.0)
