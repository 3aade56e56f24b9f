"""Stacked trials: optimize_trials against one optimize() call per pair.

optimize_trials solves the pairs of one (size, architecture) cell in one
stacked call.  Every pair's figures must be bit for bit those optimize()
gives it alone, on every architecture and on the group kinds the solver
tells apart (dead, degenerate, SVD-fallback and factored groups), and a
failure inside a batch must reach the caller as it would trial by trial.
Also here: the vectorized adjacency test against real_ratio at the
PROPORTIONAL_TOL boundary, and the cached cut partition.
"""

import cmath
import importlib
import math

import numpy as np
import pytest

from bdris.adversarial import is_tc_adversarial, is_tc_adversarial_bruteforce
from bdris.architecture import groups_by_width, parse_arch, upper_bound_gc
from bdris.channel import ChannelPair, Rng, gen_rayleigh
from bdris.errors import NumericalFailure
from bdris.experiment import SCENARIO_TABLE, ExperimentConfig, mix64, run_experiment
from bdris.linalg import PROPORTIONAL_TOL, ZERO_FLOOR_REL, proportional_adjacencies, real_ratio
from bdris.optimize import TrialResult, optimize, optimize_trials

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

optimize_module = importlib.import_module("bdris.optimize")
experiment = importlib.import_module("bdris.experiment")

FIGURES = ("p_r", "p_bar_full", "p_bar_arch", "ratio_full", "residual_norm", "consistent")
LABELS = ("sc", "gc:1", "gc:2", "gc:4", "gc:I=1,3", "fc", "tc")
EPS = float(np.finfo(float).eps)
# A gc:4 pair at n = 64 whose width-4 stack fails the scattering check (the
# gc THETA_SYM_TOL defect): trial 2489 of a tc_adversarial sweep with seed 3.
FAILING_SEED = 4268808066948259505
FAILING_MESSAGE = ("scattering matrix check failed: symmetry defect 1.059e-10, "
                   "unitarity defect 1.005e-10")


def assert_same_figures(batch, pairs, spec):
    assert len(batch) == len(pairs)
    for result, pair in zip(batch, pairs):
        alone = optimize(pair, spec)
        for name in FIGURES:
            assert repr(getattr(result, name)) == repr(getattr(alone, name)), name
        assert type(result.consistent) is bool


def mixed_pair(rng, kinds, width):
    """A pair whose width-`width` groups are of the given kinds, in order."""
    h_r, h_t = [], []
    for kind in kinds:
        hr = rng.standard_normal(width) + 1j * rng.standard_normal(width)
        ht = rng.standard_normal(width) + 1j * rng.standard_normal(width)
        if kind == "dead":
            hr = np.zeros(width, complex)
        elif kind == "degenerate":
            ht = -2.5 * hr  # hr_hat = -ht_hat: per-element phasing
        elif kind == "real":
            # alpha = j z0 (hr_hat + ht_hat) is imaginary, so the Gram matrix
            # is singular and the inconsistent system takes the SVD fallback
            hr, ht = hr.real.astype(complex), ht.real.astype(complex)
        h_r.append(hr)
        h_t.append(ht)
    return ChannelPair(np.concatenate(h_r), np.concatenate(h_t))


@pytest.mark.parametrize("scenario", sorted(SCENARIO_TABLE))
@pytest.mark.parametrize("n", [4, 8, 16])
def test_batch_matches_single_calls_on_every_scenario(scenario, n):
    pairs = [SCENARIO_TABLE[scenario].draw(n, Rng(100 * n + k))[0] for k in range(6)]
    for label in LABELS:
        spec = parse_arch(label, n)
        assert_same_figures(optimize_trials(pairs, spec), pairs, spec)


@pytest.mark.parametrize("width,label", [(2, "gc:2"), (4, "gc:4"), (8, "gc:8"), (8, "fc")])
def test_batch_matches_single_calls_on_every_group_kind(width, label, monkeypatch):
    # dead, degenerate, SVD-fallback and regular groups in one stack; at
    # width 8 the regular groups are held as rank-4 factors beside dense
    # blocks for the others, fc's one group among them (an fc pair, one
    # group, cannot be dead)
    rng = np.random.default_rng(width)
    n = 32 if label != "fc" else width
    kinds = ("regular", "dead", "degenerate", "real") if label != "fc" else ("regular", "degenerate", "real")
    pairs = []
    for k in range(8):
        picked = [kinds[(k + g) % len(kinds)] for g in range(n // width)]
        pairs.append(mixed_pair(rng, picked, width))
    spec = parse_arch(label, n)
    fallbacks = []
    real_solve = optimize_module.min_norm_least_squares
    monkeypatch.setattr(optimize_module, "min_norm_least_squares",
                        lambda a, b: fallbacks.append(a.shape) or real_solve(a, b))
    batch = optimize_trials(pairs, spec)
    assert fallbacks
    assert_same_figures(batch, pairs, spec)
    assert not all(r.consistent for r in batch)  # the real groups leave a residual
    if width > 4:
        assert optimize(pairs[0], spec).b_matrix.factors


def test_batch_of_one_is_optimize():
    pair = gen_rayleigh(16, Rng(3))
    for label in LABELS:
        spec = parse_arch(label, 16)
        (result,) = optimize_trials([pair], spec)
        assert type(result) is TrialResult
        assert_same_figures([result], [pair], spec)
    assert optimize_trials([], parse_arch("gc:4", 16)) == []


def test_n1_tc_takes_sc_with_the_full_bound():
    pairs = [gen_rayleigh(1, Rng(k)) for k in range(4)]
    batch = optimize_trials(pairs, parse_arch("tc", 1))
    assert_same_figures(batch, pairs, parse_arch("tc", 1))
    assert all(r.p_bar_arch == r.p_bar_full for r in batch)


def test_stacks_are_split_at_the_element_cap(monkeypatch):
    pairs = [gen_rayleigh(8, Rng(k)) for k in range(7)]
    calls = []
    real = optimize_module.scattering_from_susceptance

    def counting(b, z0):
        calls.append(b.n)
        return real(b, z0)

    monkeypatch.setattr(optimize_module, "_STACK_ELEMENTS", 24)
    monkeypatch.setattr(optimize_module, "scattering_from_susceptance", counting)
    spec = parse_arch("gc:4", 8)
    batch = optimize_trials(pairs, spec)
    assert calls[:3] == [24, 24, 8]  # three pairs a stack, then the one left
    assert_same_figures(batch, pairs, spec)


def test_a_failing_pair_fails_its_batch_with_its_own_message():
    failing = SCENARIO_TABLE["tc_adversarial"].draw(64, Rng(FAILING_SEED))[0]
    others = [SCENARIO_TABLE["tc_adversarial"].draw(64, Rng(k))[0] for k in range(6)]
    spec = parse_arch("gc:4", 64)
    with pytest.raises(NumericalFailure) as alone:
        optimize(failing, spec)
    with pytest.raises(NumericalFailure) as batch:
        optimize_trials(others[:3] + [failing] + others[3:], spec)
    assert str(alone.value) == str(batch.value) == FAILING_MESSAGE
    assert_same_figures(optimize_trials(others, spec), others, spec)


def plant(monkeypatch, at, failing=None, draw_error=None):
    """Make the tc_adversarial draws of the given trial indexes return the failing pair, or raise."""
    real = experiment.gen_tc_adversarial
    calls = []

    def generate(n, rng, q=None):
        calls.append(n)
        if draw_error is not None and len(calls) - 1 == draw_error:
            raise NumericalFailure("planted draw failure")
        return failing if len(calls) - 1 in at else real(n, rng, q)

    monkeypatch.setattr(experiment, "gen_tc_adversarial", generate)


def test_failure_in_the_middle_of_a_batch_names_its_trial(monkeypatch):
    # trials 4 and 7 of the cell fail gc:4; sc passes on both, so the error
    # names the first failing (trial, arch) in record order, as when the
    # trials ran one by one
    failing = SCENARIO_TABLE["tc_adversarial"].draw(64, Rng(FAILING_SEED))[0]
    plant(monkeypatch, {4, 7}, failing)
    config = ExperimentConfig(scenario="tc_adversarial", sizes=(64,), trials=10,
                              archs=("sc", "gc:4"), seed=3)
    with pytest.raises(NumericalFailure) as info:
        run_experiment(config)
    assert str(info.value) == (f"{FAILING_MESSAGE} (scenario tc_adversarial:q=63, n = 64, "
                               f"trial 4, arch gc:4, trial seed {mix64(3, 0, 4)})")


def _failing_on(target):
    """optimize_tc, raising NumericalFailure on the target pair."""
    real = optimize_module.optimize_tc

    def optimize_tc(pair, z0):
        if pair is target:
            raise NumericalFailure("tc failed")
        return real(pair, z0)

    return optimize_tc


@pytest.mark.parametrize("draw_error,named", [(3, None), (6, 4)])
def test_a_failing_draw_raises_after_the_trials_before_it(monkeypatch, draw_error, named):
    failing = SCENARIO_TABLE["tc_adversarial"].draw(16, Rng(FAILING_SEED))[0]
    plant(monkeypatch, {4}, failing, draw_error)
    monkeypatch.setattr(optimize_module, "optimize_tc", _failing_on(failing))
    config = ExperimentConfig(scenario="tc_adversarial", sizes=(16,), trials=10,
                              archs=("sc", "tc"), seed=3)
    with pytest.raises(NumericalFailure) as info:
        run_experiment(config)
    if named is None:
        assert str(info.value) == "planted draw failure"
    else:
        assert str(info.value).startswith(f"tc failed (scenario tc_adversarial:q=15, n = 16, "
                                          f"trial {named}, arch tc,")


def test_a_failed_stack_is_solved_trial_by_trial(monkeypatch):
    # a stack can fail a check its pairs pass alone (the factored bound
    # takes the stack's maxima); the trial-by-trial results then stand
    config = ExperimentConfig(scenario="rayleigh", sizes=(4, 8), trials=6,
                              archs=("sc", "gc:2", "fc", "tc"), seed=9, check_membership=True)
    expected = run_experiment(config)
    real = experiment.optimize_trials

    def stacks_fail(pairs, spec, *args):
        if len(pairs) > 1:
            raise NumericalFailure("stacked check failed")
        return real(pairs, spec, *args)

    monkeypatch.setattr(experiment, "optimize_trials", stacks_fail)
    assert run_experiment(config) == expected


def scalar_adjacencies(s):
    """proportional_adjacencies as the loop of real_ratio calls it replaced."""
    floor = ZERO_FLOOR_REL * float(np.max(np.abs(s)))
    cuts, gammas = [], []
    for i in range(len(s) - 1):
        gamma = real_ratio(s[i], s[i + 1], floor)
        if gamma is not None:
            cuts.append(i + 1)
            gammas.append(float(gamma))
    return tuple(cuts), tuple(gammas)


@st.composite
def near_threshold_vectors(draw):
    """Vectors whose adjacencies sit within a few ulps of real_ratio's thresholds.

    Built from pieces: a random entry, a zero, an entry of modulus
    PROPORTIONAL_TOL times its predecessor's, one of modulus
    PROPORTIONAL_TOL times the zero floor ZERO_FLOOR_REL max|s|, or a fresh
    adjacency u a, u (gamma a + j c), with u in {1, j, -1, -j} and a a
    power of two, so that Im(z1 conj(z2)) = -a c is exact and c puts it at
    PROPORTIONAL_TOL m^2 as real_ratio rounds it.  Each threshold is scaled
    by 1 + k eps, |k| <= 4.
    """
    pieces = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    s = [complex(rng.standard_normal(), rng.standard_normal())]
    floor_entries = []
    for _ in range(pieces):
        kind = draw(st.sampled_from(("random", "zero", "angle", "modulus", "floor")))
        scale = 1.0 + draw(st.integers(-4, 4)) * EPS
        phase = cmath.exp(1j * rng.uniform(-math.pi, math.pi))
        if kind == "random":
            s.append(complex(rng.standard_normal(), rng.standard_normal()))
        elif kind == "zero":
            s.append(0j)
        elif kind == "modulus":
            s.append(PROPORTIONAL_TOL * abs(s[-1]) * scale * phase)
        elif kind == "floor":
            floor_entries.append((len(s), scale * phase))
            s.append(0j)
        else:
            u = draw(st.sampled_from((1, 1j, -1, -1j)))
            a = 2.0 ** draw(st.integers(-3, 3))
            b = draw(st.sampled_from((-3.0, -1.0, 0.5, 1.0, 2.0))) * a
            m = max(a, abs(b))
            c = PROPORTIONAL_TOL * m * m * scale / a * draw(st.sampled_from((-1, 1)))
            s += [u * a, u * complex(b, c)]
    s = np.array(s)
    top = float(np.max(np.abs(s)))
    for i, factor in floor_entries:
        s[i] = PROPORTIONAL_TOL * ZERO_FLOOR_REL * top * factor
    return s


@settings(max_examples=400, deadline=None)
@given(near_threshold_vectors())
def test_vectorized_adjacencies_match_real_ratio(s):
    assert proportional_adjacencies(s) == scalar_adjacencies(s)


@st.composite
def near_threshold_pairs(draw):
    """Pairs whose hr_hat + ht_hat has near-proportional adjacencies and matching or mismatched group norms.

    h_t is h_r with some adjacent entries swapped, each swapped entry turned
    by an angle of 0.1 to 10 times PROPORTIONAL_TOL (or not at all), and
    some entries scaled, which moves the group norm ratios.
    """
    n = draw(st.integers(2, 7))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    h = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    t = h.copy()
    for i in range(n - 1):
        if draw(st.booleans()):
            turn = draw(st.sampled_from((0.0, 0.1, 0.5, 1.0, 2.0, 10.0))) * PROPORTIONAL_TOL
            t[i], t[i + 1] = h[i + 1] * cmath.exp(1j * turn), h[i]
    for i in range(n):
        if draw(st.integers(0, 3)) == 0:
            t[i] *= draw(st.sampled_from((0.5, 2.0)))
    return ChannelPair(h, t)


@settings(max_examples=300, deadline=None)
@given(near_threshold_pairs())
def test_membership_matches_brute_force_near_the_threshold(pair):
    assert is_tc_adversarial(pair).in_a == is_tc_adversarial_bruteforce(pair)


def test_cut_partition_is_cached_and_read_only():
    first = groups_by_width((2, 3), 6)
    assert groups_by_width([2, 3], 6) is first
    assert [idx.tolist() for idx in first] == [[[2]], [[0, 1]], [[3, 4, 5]]]
    for idx in first:
        with pytest.raises(ValueError):
            idx[0, 0] = 7
    pair = gen_rayleigh(6, Rng(2))
    assert upper_bound_gc(pair, [2, 3]) == upper_bound_gc(pair, (2, 3))
