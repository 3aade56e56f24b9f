"""Stacked trials: optimize_trials against one optimize() call per pair.

optimize_trials solves the pairs of one (size, architecture) cell in one
stacked call.  Every pair's figures must be bit for bit those optimize()
gives it alone, on every architecture and on the group kinds the solver
tells apart (dead, degenerate, SVD-fallback and factored groups), and a
failure inside a batch must reach the caller as it would trial by trial.
Also here: the vectorized adjacency test against real_ratio at the
PROPORTIONAL_TOL boundary and at extreme scales, the cached cut partition,
and the trial axis before the optimizers: stacked draws, validation and
membership against their one-pair functions, and simulate's records
against a sweep run one trial at a time.
"""

import cmath
import importlib
import io
import math

import numpy as np
import pytest

from bdris.adversarial import is_tc_adversarial, is_tc_adversarial_bruteforce, tc_membership
from bdris.architecture import (
    DEFAULT_Z0,
    KIND_GROUP,
    ArchitectureSpec,
    full_bounds,
    groups_by_width,
    parse_arch,
    upper_bound_full,
    upper_bound_gc,
)
from bdris.channel import (
    GOLDEN_GAMMA,
    ChannelPair,
    ChannelStack,
    Rng,
    check_rows,
    default_swap_extent,
    gc_adversarial_channels,
    gc_favorable_channels,
    gen_gc_adversarial,
    gen_gc_favorable,
    gen_los,
    gen_rayleigh,
    gen_tc_adversarial,
    los_channels,
    normalize,
    rayleigh_channels,
    tc_adversarial_channels,
)
from bdris.errors import InputError, NumericalFailure
from bdris.experiment import (
    SCENARIO_TABLE,
    SCENARIOS,
    ExperimentConfig,
    TrialRecord,
    mix64,
    run_experiment,
    summarize,
    trial_seeds,
    write_records_csv,
    write_summary_csv,
)
from bdris.linalg import (
    PROPORTIONAL_TOL,
    ZERO_FLOOR_REL,
    proportional_adjacencies,
    real_ratio,
    row_norms,
)
from bdris.optimize import _DEGENERATE_GROUP_TOL, TrialResult, optimize, optimize_trials

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

optimize_module = importlib.import_module("bdris.optimize")
channel = importlib.import_module("bdris.channel")
experiment = importlib.import_module("bdris.experiment")
architecture = importlib.import_module("bdris.architecture")

FIGURES = ("p_r", "p_bar_full", "p_bar_arch", "ratio_full", "residual_norm", "consistent")
LABELS = ("sc", "gc:1", "gc:2", "gc:4", "gc:I=1,3", "fc", "tc")
EPS = float(np.finfo(float).eps)
# Trial 2489 of a tc_adversarial sweep with seed 3 at n = 64: a gc:4 pair whose
# width-4 Theta stack, solved as (I + j z0 B)^-1 (I - j z0 B), failed the
# scattering check with defects 1.059e-10 and 1.005e-10.
FAILING_SEED = 4268808066948259505
# Added to entry (0, 1) of a planted Theta block: its symmetry defect.
SKEW = 1e-9


def assert_same_figures(batch, pairs, spec):
    assert len(batch) == len(pairs)
    for result, pair in zip(batch, pairs):
        alone = optimize(pair, spec)
        for name in FIGURES:
            assert repr(getattr(result, name)) == repr(getattr(alone, name)), name
        assert type(result.consistent) is bool


def mixed_pair(rng, kinds, width):
    """A pair whose width-`width` groups are of the given kinds, in order."""
    return partitioned_pair(rng, [(width, kind) for kind in kinds])[0]


def partitioned_pair(rng, groups):
    """A pair of the (width, kind) groups in order, and the cuts between them."""
    h_r, h_t = [], []
    for width, kind in groups:
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
    cuts = tuple(np.cumsum([width for width, _ in groups])[:-1].tolist())
    return ChannelPair(np.concatenate(h_r), np.concatenate(h_t)), cuts


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


def near_degenerate_group(rng, width, factor):
    """(hr, ht) of a group with ||hr_hat + ht_hat|| about factor * _DEGENERATE_GROUP_TOL."""
    hr = rng.standard_normal(width) + 1j * rng.standard_normal(width)
    u = rng.standard_normal(width) + 1j * rng.standard_normal(width)
    u -= np.vdot(hr, u) / np.vdot(hr, hr) * hr
    hr_hat = hr / np.linalg.norm(hr)
    # ht_hat = -(hr_hat - t u) / sqrt(1 + t^2), so hr_hat + ht_hat = t u + O(t^2)
    return hr, -2.5 * (hr_hat - factor * _DEGENERATE_GROUP_TOL * u / np.linalg.norm(u))


@pytest.mark.parametrize("width", (2, 4, 8))
def test_groups_at_the_degenerate_tolerance_match_single_calls(width):
    # dead, regular and near-degenerate groups, just below the tolerance
    # (phased) and just above it (the closed form), in a different mix per
    # pair and none at all in the first: each pair's figures are those of
    # its one-pair call, bit for bit, whichever groups its stack narrows out
    rng = np.random.default_rng(20_000 + width)
    kinds = ("regular", "dead", "below", "above")
    groups = 4
    pairs = []
    for k in range(8):
        h_r, h_t = [], []
        for g in range(groups):
            kind = "regular" if k == 0 else kinds[(k + g) % len(kinds)]
            hr = rng.standard_normal(width) + 1j * rng.standard_normal(width)
            ht = rng.standard_normal(width) + 1j * rng.standard_normal(width)
            if kind == "dead":
                hr = np.zeros(width, complex)
            elif kind != "regular":
                hr, ht = near_degenerate_group(rng, width, 0.9 if kind == "below" else 1.1)
                norm = np.linalg.norm(hr / np.linalg.norm(hr) + ht / np.linalg.norm(ht))
                assert (norm < _DEGENERATE_GROUP_TOL) == (kind == "below")
            h_r.append(hr)
            h_t.append(ht)
        pairs.append(ChannelPair(np.concatenate(h_r), np.concatenate(h_t)))
    spec = parse_arch(f"gc:{width}", groups * width)
    assert_same_figures(optimize_trials(pairs, spec), pairs, spec)
    # the group just below the tolerance is phase-aligned, a diagonal block;
    # the one just above takes the closed form, which couples its elements
    # (pair 1's groups are dead, below, above and regular)
    b = optimize(pairs[1], spec).b_matrix.matrix
    below, above = (b[g * width:(g + 1) * width, g * width:(g + 1) * width] for g in (1, 2))
    assert np.array_equal(below, np.diag(np.diag(below))) and np.any(below)
    assert np.any(above - np.diag(np.diag(above)))


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


BOUND_CASES = (
    # mixed widths, each kind beside the others: dead, degenerate, SVD fallback
    ((1, "regular"), (2, "regular"), (4, "dead"), (1, "dead"), (3, "real"), (2, "degenerate")),
    ((3, "regular"), (1, "regular"), (7, "degenerate"), (3, "real"), (7, "regular")),
    ((5, "real"), (2, "dead"), (5, "regular"), (1, "degenerate"), (8, "regular")),
)


@pytest.mark.parametrize("groups", BOUND_CASES)
def test_arch_bound_is_upper_bound_gc_on_mixed_partitions(groups, monkeypatch):
    # p_bar_arch is summed from the group solve's own norms, width by width;
    # upper_bound_gc sums the same norms the same way, so the two agree
    # exactly, on every group kind and whichever partition the widths make
    rng = np.random.default_rng(len(groups))
    fallbacks = []
    real_solve = optimize_module.min_norm_least_squares
    monkeypatch.setattr(optimize_module, "min_norm_least_squares",
                        lambda a, b: fallbacks.append(a.shape) or real_solve(a, b))
    pairs, cuts = zip(*(partitioned_pair(rng, groups) for _ in range(5)))
    spec = ArchitectureSpec(KIND_GROUP, pairs[0].n, cuts[0])
    for pair in pairs:
        assert optimize(pair, spec).p_bar_arch == upper_bound_gc(pair, cuts[0])
    assert fallbacks
    assert_same_figures(optimize_trials(pairs, spec), pairs, spec)


@pytest.mark.parametrize("n", [1, 2, 7, 64])
def test_arch_bound_is_upper_bound_gc_on_every_partition_kind(n):
    pairs = [gen_rayleigh(n, Rng(400 + n + k)) for k in range(4)]
    labels = ["sc", "gc:1", "fc"] + [label for label in ("gc:2", "gc:4", "gc:8", "gc:I=1,3,6")
                                     if n >= 8 or label == "gc:2" and n == 2]
    for label in labels:
        spec = parse_arch(label, n)
        for pair in pairs:
            assert optimize(pair, spec).p_bar_arch == upper_bound_gc(pair, spec.effective_cuts)
        assert_same_figures(optimize_trials(pairs, spec), pairs, spec)


def test_gc1_phases_tiny_entries_as_sc():
    # a singleton group's norm is its modulus, which no nonzero entry
    # underflows to zero in, so gc:1 phase-aligns a tiny entry as sc does
    # instead of taking it for a dead group
    pair = gen_rayleigh(4, Rng(5))
    h_r = pair.h_r.copy()
    h_r[1] = 3e-170 - 2e-170j  # |h|^2 underflows to 0
    pair = ChannelPair(h_r, pair.h_t)
    sc, gc1 = (optimize(pair, parse_arch(label, 4)) for label in ("sc", "gc:1"))
    assert sc.b_matrix.matrix[1, 1] != 0.0
    assert np.array_equal(gc1.b_matrix.matrix, sc.b_matrix.matrix)
    assert gc1.p_bar_arch == sc.p_bar_arch == upper_bound_gc(pair, (1, 2, 3))


def test_tc_steering_checks_z0_once(monkeypatch):
    # the steering solve divides by the norms the pair's check computed and
    # leaves the z0 check to the one in _solve
    calls = []
    real_check = optimize_module._check_z0
    monkeypatch.setattr(optimize_module, "_check_z0", lambda z0: calls.append(z0) or real_check(z0))
    optimize(gen_rayleigh(8, Rng(6)), parse_arch("tc", 8))
    assert calls == [DEFAULT_Z0]


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


def test_the_theta_sym_tol_pair_passes():
    # 2 (I + j z0 B)^-1 - I keeps the defects of the pair that once failed
    # at rounding level, alone and in a batch
    assert FAILING_SEED == mix64(3, 0, 2489)
    pair = SCENARIO_TABLE["tc_adversarial"].draw(64, Rng(FAILING_SEED))[0]
    others = [SCENARIO_TABLE["tc_adversarial"].draw(64, Rng(k))[0] for k in range(3)]
    spec = parse_arch("gc:4", 64)
    theta = optimize(pair, spec).theta
    assert theta.symmetry_defect < 1e-11 and theta.unitarity_defect < 1e-11
    assert_same_figures(optimize_trials(others + [pair], spec), others + [pair], spec)


def plant_theta_defect(monkeypatch, pair, label):
    """Skew the Theta block of pair's first group under label by SKEW wherever it is mapped, alone or stacked.

    The block is found by its bits, which a pair's group has in any stack.
    Returns the construction check's message on the pair alone.
    """
    real = architecture._cayley
    spec = parse_arch(label, pair.n)
    values = optimize(pair, spec).b_matrix.blocks[0][1]
    target = real(values[:1], DEFAULT_Z0)

    def skewed(values, z0):
        theta = real(values, z0)
        if theta.ndim == 3 and theta.shape[1:] == target.shape[1:]:
            theta[(theta == target).all(axis=(1, 2)), 0, 1] += SKEW
        return theta

    monkeypatch.setattr(architecture, "_cayley", skewed)
    with pytest.raises(NumericalFailure) as alone:
        optimize(pair, spec)
    assert str(alone.value).startswith(
        f"scattering matrix check failed: symmetry defect {SKEW:.3e}, unitarity defect ")
    return str(alone.value)


def test_a_failing_pair_fails_its_batch_with_its_own_message(monkeypatch):
    failing = SCENARIO_TABLE["tc_adversarial"].draw(64, Rng(FAILING_SEED))[0]
    others = [SCENARIO_TABLE["tc_adversarial"].draw(64, Rng(k))[0] for k in range(6)]
    spec = parse_arch("gc:4", 64)
    message = plant_theta_defect(monkeypatch, failing, "gc:4")
    with pytest.raises(NumericalFailure) as batch:
        optimize_trials(others[:3] + [failing] + others[3:], spec)
    assert str(batch.value) == message
    assert_same_figures(optimize_trials(others, spec), others, spec)


def plant(monkeypatch, at, failing=None, draw_error=None):
    """Make the tc_adversarial rows of the given trial indexes the failing pair's, or fail at a row.

    A sweep's trials here are one draw stack, so a row index is its trial
    index.  A row that fails to draw raises as the generator reports it,
    with the rows before it as valid.
    """
    real = experiment.tc_adversarial_channels

    def channels(n, rng, q=None):
        h_r, h_t = real(n, rng, q)
        if draw_error is not None and draw_error < len(h_r):
            error = NumericalFailure("planted draw failure")
            error.valid = draw_error
            raise error
        for t in at & set(range(len(h_r))):
            h_r[t], h_t[t] = failing.h_r, failing.h_t
        return h_r, h_t

    monkeypatch.setattr(experiment, "tc_adversarial_channels", channels)


def test_failure_in_the_middle_of_a_batch_names_its_trial(monkeypatch):
    # trials 4 and 7 of the cell fail gc:4; sc passes on both, so the error
    # names the first failing (trial, arch) in record order, as when the
    # trials ran one by one
    failing = SCENARIO_TABLE["tc_adversarial"].draw(64, Rng(FAILING_SEED))[0]
    message = plant_theta_defect(monkeypatch, failing, "gc:4")
    plant(monkeypatch, {4, 7}, failing)
    config = ExperimentConfig(scenario="tc_adversarial", sizes=(64,), trials=10,
                              archs=("sc", "gc:4"), seed=3)
    with pytest.raises(NumericalFailure) as info:
        run_experiment(config)
    assert str(info.value) == (f"{message} (scenario tc_adversarial:q=63, n = 64, "
                               f"trial 4, arch gc:4, trial seed {mix64(3, 0, 4)})")


def _failing_on(target):
    """_solve_tc, raising NumericalFailure on a pair of the target's values."""
    real = optimize_module._solve_tc

    def solve_tc(h_r, h_t, *args):
        if np.array_equal(bits(h_r), bits(target.h_r)) and np.array_equal(bits(h_t), bits(target.h_t)):
            raise NumericalFailure("tc failed")
        return real(h_r, h_t, *args)

    return solve_tc


@pytest.mark.parametrize("draw_error,named", [(3, None), (6, 4)])
def test_a_failing_draw_raises_after_the_trials_before_it(monkeypatch, draw_error, named):
    failing = SCENARIO_TABLE["tc_adversarial"].draw(16, Rng(FAILING_SEED))[0]
    plant(monkeypatch, {4}, failing, draw_error)
    monkeypatch.setattr(optimize_module, "_solve_tc", _failing_on(failing))
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


def test_a_short_cell_fails_loudly(monkeypatch):
    # a cell with fewer results than the stack has trials must not drop records
    config = ExperimentConfig(scenario="rayleigh", sizes=(8,), trials=5, archs=("sc", "gc:2"),
                              seed=9)
    real = experiment.optimize_trials

    def short(pairs, spec, *args):
        return real(pairs, spec, *args)[:-1]

    monkeypatch.setattr(experiment, "optimize_trials", short)
    with pytest.raises(ValueError):
        run_experiment(config)


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


# --- the trial axis before the optimizers: draws, validation, membership ---

MASK64 = (1 << 64) - 1
# the top of the seed range, where seed + k GOLDEN_GAMMA wraps at once
TOP_SEEDS = [MASK64 - k for k in range(4)]


def bits(a):
    """The raw 64-bit words of a float or complex array, for bit-for-bit comparison."""
    return np.ascontiguousarray(a).view(np.uint64)


def reference_mix64(seed, size_index, trial_index):
    """The derived trial seed, restated in Python integers."""
    z = (seed ^ size_index * GOLDEN_GAMMA ^ trial_index * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return z ^ (z >> 31)


@pytest.mark.parametrize("seed,size_index", [(0, 0), (7, 3), (-1, 1), (MASK64, 9)])
def test_trial_seeds_are_the_per_trial_seeds(seed, size_index):
    seeds = trial_seeds(seed, size_index, np.arange(40))
    assert seeds.dtype == np.uint64
    expected = [reference_mix64(seed & MASK64, size_index, t) for t in range(40)]
    assert seeds.tolist() == expected
    assert [mix64(seed, size_index, t) for t in range(40)] == expected


@pytest.mark.parametrize("n", [1, 2, 8, 64])
def test_stacked_draws_match_per_seed_draws(n):
    seeds = np.array(TOP_SEEDS + trial_seeds(5, 2, np.arange(12)).tolist() + [0, 1], dtype=np.uint64)
    stacked, alone = Rng(seeds), [Rng(int(seed)) for seed in seeds]
    # every draw kind, in a row, so the streams' counters advance together
    for draw in ("uniform", "uniform_pos", "complex_gaussian"):
        rows = getattr(stacked, draw)(n)
        assert rows.shape == (len(seeds), n)
        assert np.array_equal(bits(rows), bits(np.stack([getattr(r, draw)(n) for r in alone])))
    for stack_gen, pair_gen in generator_pairs(n):
        h_r, h_t = stack_gen(Rng(seeds))
        pairs = [pair_gen(Rng(int(seed))) for seed in seeds]
        assert np.array_equal(bits(h_r), bits(np.stack([p.h_r for p in pairs])))
        assert np.array_equal(bits(h_t), bits(np.stack([p.h_t for p in pairs])))


def generator_pairs(n):
    """(stacked, one-stream) functions of an Rng, of every generator and parameter that fits size n."""
    found = [(lambda rng: rayleigh_channels(n, rng), lambda rng: gen_rayleigh(n, rng)),
             (lambda rng: los_channels(n, rng), lambda rng: gen_los(n, rng))]
    for gs in (1, 2, 3, 4):
        if n % gs == 0:
            found += [(lambda rng, gs=gs: gc_favorable_channels(n, gs, rng),
                       lambda rng, gs=gs: gen_gc_favorable(n, gs, rng)),
                      (lambda rng, gs=gs: gc_adversarial_channels(n, gs, rng),
                       lambda rng, gs=gs: gen_gc_adversarial(n, gs, rng))]
    for q in ((1, None) if n >= 2 else ()):
        found.append((lambda rng, q=q: tc_adversarial_channels(n, rng, q),
                      lambda rng, q=q: gen_tc_adversarial(n, rng, q)))
    return found


def gaussians(stream, n):
    """n complex Gaussians of a stream, restated from its uniforms: moduli first, then phases."""
    mag = np.sqrt(-np.log(stream.uniform_pos(n)))
    phase = 2.0 * np.pi * stream.uniform(n)
    return mag * np.exp(1j * phase)


def square(stream, n):
    """n entries with uniform(-1, 1) real and imaginary parts, restated from a stream's uniforms."""
    re = 2.0 * stream.uniform(n) - 1.0
    im = 2.0 * stream.uniform(n) - 1.0
    return re + 1j * im


def reference_gc_favorable(n, gs, stream):
    """gc_favorable's draws as the loop over groups they once were."""
    h_r = gaussians(stream, n)
    gamma = 0.1 + 9.9 * float(stream.uniform(1)[0])
    parts = []
    for lo in range(0, n, gs):
        block_norm = np.linalg.norm(h_r[lo:lo + gs])
        direction = gaussians(stream, gs)
        parts.append(gamma * block_norm * (direction / np.linalg.norm(direction)))
    return h_r, np.concatenate(parts)


def reference_gc_adversarial(n, gs, stream):
    """gc_adversarial's draws as the loop over groups they once were."""
    h_r = square(stream, n)
    parts = []
    for _ in range(n // gs):
        f = square(stream, gs)
        a = float(stream.uniform_pos(1)[0])
        parts.append(a * (f / np.linalg.norm(f)))
    return h_r, np.concatenate(parts)


def reference_tc_adversarial(n, stream, q, attempts):
    """tc_adversarial's draws as the loop over attempts they once were, each attempt counted in attempts."""
    swapped = [(i, i + 1) for i in range(0, q, 2)]
    planted = {i + 1 for i, _ in swapped}
    for _ in range(channel._SWAP_MAX_RETRIES):
        attempts.append(n)
        h = gaussians(stream, n)
        nrm = np.linalg.norm(h)
        if nrm == 0.0:
            continue
        h = h / nrm
        mod = np.abs(h)
        rtol = channel._SWAP_MODULI_RTOL
        if any(abs(mod[i] - mod[j]) <= rtol * max(mod[i], mod[j]) for i, j in swapped):
            continue
        t = h.copy()
        for i, j in swapped:
            t[i], t[j] = h[j], h[i]
        cuts, _ = proportional_adjacencies(h + t)
        if planted.issuperset(cuts):
            return h, t
    raise NumericalFailure(f"no acceptable swap-construction draw in {channel._SWAP_MAX_RETRIES} "
                           "attempts")


def assert_same_pair(pair, expected):
    assert np.array_equal(bits(pair.h_r), bits(expected[0]))
    assert np.array_equal(bits(pair.h_t), bits(expected[1]))


@pytest.mark.parametrize("n", [1, 2, 6, 8])
def test_one_stream_generators_keep_their_draw_order(n):
    # every one-stream generator against its documented draw order, restated
    # from one stream's uniforms, the gains as Python floats, the group and
    # swap generators as the loops they once were
    for seed in (0, 9, MASK64):
        for gs in (1, 2, 3):
            if n % gs == 0:
                assert_same_pair(gen_gc_favorable(n, gs, Rng(seed)),
                                 reference_gc_favorable(n, gs, Rng(seed)))
                assert_same_pair(gen_gc_adversarial(n, gs, Rng(seed)),
                                 reference_gc_adversarial(n, gs, Rng(seed)))
        for q in ((1, None) if n >= 2 else ()):
            assert_same_pair(gen_tc_adversarial(n, Rng(seed), q),
                             reference_tc_adversarial(n, Rng(seed), q or default_swap_extent(n), []))
        stream = Rng(seed)
        assert_same_pair(gen_rayleigh(n, Rng(seed)), (gaussians(stream, n), gaussians(stream, n)))
        stream = Rng(seed)
        c = [0.1 + 9.9 * float(v) for v in stream.uniform(2)]
        phi = 2.0 * np.pi * stream.uniform(n)
        psi = 2.0 * np.pi * stream.uniform(n)
        assert_same_pair(gen_los(n, Rng(seed)), (c[0] * np.exp(1j * phi), c[1] * np.exp(1j * psi)))


@pytest.mark.parametrize("n,q,rtol", [(2, 1, 0.6), (8, 1, 0.6), (8, None, 0.2), (9, None, 0.2)])
def test_tc_rows_keep_their_first_accepted_attempt(monkeypatch, n, q, rtol):
    # a wide moduli tolerance rejects most attempts (of one swapped pair or
    # of four), so rows accept at different attempts: each row is the one
    # its stream gives alone
    monkeypatch.setattr(channel, "_SWAP_MODULI_RTOL", rtol)
    seeds = trial_seeds(11, 0, np.arange(40))
    h_r, h_t = tc_adversarial_channels(n, Rng(seeds), q)
    attempts = []
    for t, seed in enumerate(seeds.tolist()):
        expected = reference_tc_adversarial(n, Rng(seed), q or default_swap_extent(n), attempts)
        assert_same_pair(ChannelPair(h_r[t], h_t[t]), expected)
        assert_same_pair(gen_tc_adversarial(n, Rng(seed), q), expected)
    assert len(attempts) > 2 * len(seeds)  # most rows took retries


def test_an_exhausted_tc_row_fails_after_the_rows_before_it(monkeypatch):
    # with two attempts a row, some rows find no acceptable draw: the stack
    # holds the rows before the first, then its NumericalFailure is raised,
    # as trial by trial
    monkeypatch.setattr(channel, "_SWAP_MODULI_RTOL", 0.2)
    monkeypatch.setattr(channel, "_SWAP_MAX_RETRIES", 2)
    n = 8
    seeds = trial_seeds(11, 0, np.arange(40))
    alone = []
    for seed in seeds.tolist():
        try:
            alone.append(gen_tc_adversarial(n, Rng(seed)))
        except NumericalFailure as exc:
            message = str(exc)
            break
    assert 0 < len(alone) < len(seeds)
    assert message == "no acceptable swap-construction draw in 2 attempts"
    with pytest.raises(NumericalFailure) as stacked:
        tc_adversarial_channels(n, Rng(seeds))
    assert str(stacked.value) == message and stacked.value.valid == len(alone)
    stack, _, error = experiment.draw_trials(SCENARIO_TABLE["tc_adversarial"], n, seeds)
    assert type(error) is NumericalFailure and str(error) == message
    assert len(stack) == len(alone)
    for t, pair in enumerate(alone):
        assert_same_pair(stack[t], (pair.h_r, pair.h_t))
    # a sweep solves and records those trials, then raises the failure
    solved = []
    real = experiment.optimize_trials

    def recording(pairs, spec, *args):
        solved.append(len(pairs))
        return real(pairs, spec, *args)

    monkeypatch.setattr(experiment, "optimize_trials", recording)
    with pytest.raises(NumericalFailure) as sweep:
        run_experiment(ExperimentConfig(scenario="tc_adversarial", sizes=(n,), trials=40,
                                        archs=("sc",), seed=11))
    assert str(sweep.value) == message
    assert solved == [len(alone)]


def test_a_zero_group_direction_fails_at_its_stream():
    # the group generators normalize every group of every stream at once;
    # a zero group fails as normalize fails it, at the first stream with one
    v = rayleigh_channels(6, Rng(np.arange(4, dtype=np.uint64)))[0].reshape(4, 3, 2)
    expected = [[normalize(group) for group in stream] for stream in v]
    assert np.array_equal(bits(channel._unit_groups(v)), bits(np.array(expected)))
    assert np.array_equal(bits(channel._unit_groups(v[1])), bits(np.array(expected[1])))
    v[3, 0] = v[2, 1] = 0.0
    with pytest.raises(InputError) as alone:
        normalize(v[2, 1])
    for draw, valid in ((v, 2), (v[2], 0)):
        with pytest.raises(InputError) as stacked:
            channel._unit_groups(draw)
        assert str(stacked.value) == str(alone.value) and stacked.value.valid == valid


def test_rng_seed_forms_agree():
    # a seed is taken mod 2^64 in every form: Python ints past int64, negative
    # ints, numpy integer arrays
    n = 5
    expected = [Rng(seed).uniform(n) for seed in (MASK64, 3, 2 ** 63)]
    for seeds in ([MASK64, 3, 2 ** 63], [-1, 3, -(2 ** 63)], np.array([-1, 3, -(2 ** 63)]),
                  np.array([MASK64, 3, 2 ** 63], dtype=np.uint64)):
        assert np.array_equal(Rng(seeds).uniform(n), np.stack(expected))
    with pytest.raises(InputError):
        Rng(np.zeros((2, 2), dtype=np.uint64))


def test_row_norms_round_as_np_linalg_norm():
    # vecdot on the real and imaginary views is the ddot np.linalg.norm calls
    rng = np.random.default_rng(3)
    for n in (1, 2, 3, 8, 63, 64, 257):
        scale = 10.0 ** rng.uniform(-150, 150, (40, 1))
        h = (rng.standard_normal((40, n)) + 1j * rng.standard_normal((40, n))) * scale
        assert [float(v) for v in row_norms(h)] == [float(np.linalg.norm(row)) for row in h]
        assert float(row_norms(h[0])) == float(np.linalg.norm(h[0]))
        # a real array keeps its one ddot per row, as for a real vector
        assert [float(v) for v in row_norms(h.real)] == [float(np.linalg.norm(row)) for row in h.real]
        # the stack's bounds, from the norms its check computed, are
        # upper_bound_full's (scales kept within the bound's range)
        h_r, h_t = h / scale * 10.0 ** rng.uniform(-60, 60, (40, 1)), h[::-1] / scale[::-1]
        stack = ChannelStack(h_r, h_t)
        assert full_bounds(stack.norms_r, stack.norms_t) == [
            upper_bound_full(ChannelPair(a, b)) for a, b in zip(h_r, h_t)]


def corrupted_rows(kind, n=4, rows=6, at=3):
    """Rayleigh rows with row `at` made to fail ChannelPair's rule in one way."""
    h_r, h_t = rayleigh_channels(n, Rng(np.arange(rows, dtype=np.uint64)))
    if kind == "nan":
        h_r[at, 1] = complex(np.nan, 0.0)
    elif kind == "inf":
        h_t[at, 0] = complex(0.0, np.inf)
    elif kind == "zero":
        h_t[at] = 0.0
    elif kind == "overflow":
        h_r[at] *= 1e200
    elif kind == "underflow":
        h_r[at] *= 1e-170
        h_t[at] *= 1e-170
    return h_r, h_t


@pytest.mark.parametrize("kind", ["nan", "inf", "zero", "overflow", "underflow"])
@pytest.mark.parametrize("at", [0, 3, 5])
def test_stacked_validation_fails_as_channel_pair(kind, at):
    h_r, h_t = corrupted_rows(kind, at=at)
    later = corrupted_rows("zero" if kind != "zero" else "nan", at=5)
    if at < 5:  # a later failing row does not move the first
        h_r[5], h_t[5] = later[0][5], later[1][5]
    with pytest.raises(InputError) as alone:
        ChannelPair(h_r[at], h_t[at])
    check = check_rows(h_r, h_t)
    assert check.valid == at
    assert type(check.error) is InputError and str(check.error) == str(alone.value)
    with pytest.raises(InputError) as stacked:
        ChannelStack(h_r, h_t)
    assert str(stacked.value) == str(alone.value)
    for t in range(at):
        ChannelPair(h_r[t], h_t[t])  # the rows before it pass alone too


@pytest.mark.parametrize("kind", ["nan", "overflow"])
def test_a_failing_stacked_draw_raises_after_the_rows_before_it(monkeypatch, kind):
    # the draw of trial 3 fails ChannelPair's rule: trials 0-2 are solved and
    # recorded, then the sweep raises ChannelPair's error
    def planted(n, rng):
        h_r, h_t = rayleigh_channels(n, rng)
        bad_r, bad_t = corrupted_rows(kind, n=n, rows=len(h_r))
        h_r[3], h_t[3] = bad_r[3], bad_t[3]
        return h_r, h_t

    solved = []
    real = experiment.optimize_trials

    def recording(pairs, spec, *args):
        solved.append(len(pairs))
        return real(pairs, spec, *args)

    monkeypatch.setattr(experiment, "rayleigh_channels", planted)
    monkeypatch.setattr(experiment, "optimize_trials", recording)
    with pytest.raises(InputError) as stacked:
        run_experiment(ExperimentConfig(scenario="rayleigh", sizes=(4,), trials=6, archs=("sc",),
                                        check_membership=True))
    with pytest.raises(InputError) as alone:
        ChannelPair(*[v[3] for v in corrupted_rows(kind, rows=6)])
    assert str(stacked.value) == str(alone.value)
    assert solved == [3]


def assert_same_membership(stack):
    expected = [is_tc_adversarial(ChannelPair(a, b)).in_a for a, b in zip(stack.h_r, stack.h_t)]
    assert tc_membership(stack) == expected
    return expected


def matched_pair(n, seed):
    """A pair with cuts but one norm ratio on every group: h_t a real multiple of h_r.

    h_r has real-proportional neighbors at every other adjacency, so
    hr_hat + ht_hat = 2 hr_hat has cuts there, and every group's ratio is
    the same, so the pair is not in the set.
    """
    h = gen_rayleigh(n, Rng(seed)).h_r
    h[1::2] = h[0::2][:len(h[1::2])] * np.linspace(-2.0, 3.0, len(h[1::2]))
    return ChannelPair(h, 0.5 * h)


@pytest.mark.parametrize("n,q", [(2, 1), (3, 1), (8, None), (8, 3), (16, None), (64, None)])
def test_stacked_membership_matches_per_pair_on_swap_draws(n, q):
    swapped = [gen_tc_adversarial(n, Rng(seed), q) for seed in range(12)]
    rayleigh = [gen_rayleigh(n, Rng(seed)) for seed in range(4)]
    matched = [matched_pair(n, seed) for seed in range(3)]
    pairs = swapped[:6] + rayleigh + matched + swapped[6:]
    in_a = assert_same_membership(ChannelStack.of(pairs, n))
    assert any(in_a[:6])  # the swap construction's pairs are in the set
    assert not any(in_a[6:13])
    assert all(is_tc_adversarial(pair).cut_set for pair in matched)
    # a stack of rows with no pairs behind them answers the same
    assert_same_membership(ChannelStack(np.stack([p.h_r for p in pairs]),
                                        np.stack([p.h_t for p in pairs])))


@settings(max_examples=150, deadline=None)
@given(st.lists(near_threshold_pairs(), min_size=1, max_size=8))
def test_stacked_membership_matches_per_pair_near_the_threshold(pairs):
    for n in {p.n for p in pairs}:
        assert_same_membership(ChannelStack.of([p for p in pairs if p.n == n], n))


def test_stacked_membership_searches_cut_sets_vectors(monkeypatch):
    # each row the stacked search sees is, bit for bit, the vector cut_set
    # searches for that pair alone
    adversarial = importlib.import_module("bdris.adversarial")
    seen = []
    real = adversarial.proportional_adjacencies

    def recording(s):
        seen.append(np.array(s))
        return real(s)

    monkeypatch.setattr(adversarial, "proportional_adjacencies", recording)
    seeds = trial_seeds(3, 1, np.arange(40))
    stack = ChannelStack(*rayleigh_channels(16, Rng(seeds)))
    tc_membership(stack)
    (rows,) = seen
    for t in range(len(stack)):
        alone = normalize(stack.h_r[t]) + normalize(stack.h_t[t])
        assert np.array_equal(bits(rows[t]), bits(alone))


def test_membership_of_an_empty_stack():
    assert tc_membership(ChannelStack.of([], 4)) == []
    assert proportional_adjacencies(np.zeros((0, 4), complex)) == []


@pytest.mark.parametrize("scale", [1e-300, 1e300])
def test_adjacency_test_does_not_depend_on_scale(scale):
    # entries this small or large once underflowed (ZeroDivisionError, nan
    # gammas) or overflowed in the products of the test
    assert real_ratio(2.0 * scale, scale) == 2.0
    assert real_ratio(scale, 1j * scale) is None
    v = np.array([2.0, -4.0, 3j, 1.5j, 1 + 1e-3j, 0.0, 0.0, 5.0])
    cuts, gammas = proportional_adjacencies(v)
    assert cuts == (1, 3, 6) and gammas == (-0.5, 2.0, 1.0)
    found = proportional_adjacencies(v * scale)
    assert found == scalar_adjacencies(v * scale)
    assert found[0] == cuts
    assert found[1] == pytest.approx(gammas, rel=1e-12)
    assert proportional_adjacencies(np.stack([v, v * scale]))[0] == (cuts, gammas)


def test_tiny_entries_no_longer_underflow():
    assert real_ratio(2e-170, 1e-170) == 2.0
    assert proportional_adjacencies([2e-170, 1e-170, 3e-170j]) == ((1,), (2.0,))


def test_normal_range_gammas_are_unchanged():
    # the power-of-two rescale is exact, so gammas are those of the formula
    # on the unscaled entries
    rng = np.random.default_rng(8)
    for _ in range(200):
        z = complex(rng.standard_normal(), rng.standard_normal()) * 10.0 ** rng.uniform(-100, 100)
        gamma = rng.uniform(-50, 50)
        s = np.array([gamma * z, z])
        x, y = s.real, s.imag
        expected = (x[0] * x[1] + y[0] * y[1]) / (np.hypot(x[1], y[1]) * np.hypot(x[1], y[1]))
        found = proportional_adjacencies(s)
        assert found == ((1,), (float(expected),))
        assert real_ratio(s[0], s[1]) == float(expected)


def per_trial_records(config):
    """run_experiment restated one trial at a time through the one-pair functions."""
    scenario = SCENARIO_TABLE[config.scenario]
    records = []
    for si, n in enumerate(config.sizes):
        specs = [parse_arch(label, n) for label in config.archs]
        for t in range(config.trials):
            seed = mix64(config.seed, si, t)
            pair, label = scenario.draw(n, Rng(seed), config.group_size, config.q_override)
            in_a = is_tc_adversarial(pair).in_a if config.check_membership else None
            for arch, spec in zip(config.archs, specs):
                r = optimize(pair, spec, config.z0)
                records.append(TrialRecord(label, n, arch, t, seed, r.p_r, r.p_bar_full,
                                           r.ratio_full, r.residual_norm, r.consistent, in_a))
    return records


def csv_text(records):
    records_out, summary_out = io.StringIO(), io.StringIO()
    write_records_csv(records, records_out)
    write_summary_csv(summarize(records), summary_out)
    return records_out.getvalue(), summary_out.getvalue()


@pytest.mark.parametrize("membership", [False, True])
@pytest.mark.parametrize("scenario", SCENARIOS)
def test_simulate_csvs_match_the_per_trial_sweep(scenario, membership):
    config = ExperimentConfig(scenario=scenario, sizes=(4, 8, 16), trials=10,
                              archs=("sc", "gc:2", "tc", "fc"), seed=21,
                              check_membership=membership)
    assert csv_text(run_experiment(config)) == csv_text(per_trial_records(config))


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_simulate_csvs_match_across_draw_stacks(scenario):
    # 300 trials at n = 64 take two draw stacks of _STACK_ELEMENTS // 64 = 256
    # and 44 trials; the group and swap scenarios cannot draw at n = 1
    small = 1 if scenario in ("rayleigh", "los") else 4
    config = ExperimentConfig(scenario=scenario, sizes=(small, 64), trials=300, archs=("sc",),
                              seed=4, check_membership=True)
    assert optimize_module._STACK_ELEMENTS // 64 < config.trials
    assert csv_text(run_experiment(config)) == csv_text(per_trial_records(config))
