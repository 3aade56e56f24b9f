"""Property tests: the group solve on random partitions, scale and z0
invariance of the received-power ratio, channel JSON parsing.

Each surface drawn for the group solve mixes the group kinds the solver
tells apart: width-1 groups, dead groups (zero channel on one side),
degenerate groups (h_t = -s h_r), swapped groups (h_t is h_r reversed, so a
width-2 group has a singular Gram matrix and takes the SVD) and regular
groups.
"""

import importlib
import io
import json

import numpy as np
import pytest

from bdris.architecture import (
    DEFAULT_Z0,
    KIND_GROUP,
    KIND_TREE,
    ArchitectureSpec,
    ScatteringMatrix,
    SusceptanceMatrix,
    groups_by_width,
    parse_arch,
    pattern_mask,
    received_power,
    scattering_from_susceptance,
)
from bdris.channel import ChannelPair, Rng, gen_rayleigh, read_channel_json
from bdris.errors import InputError, NumericalFailure
from bdris.experiment import oracle_mix
from bdris.linalg import min_norm_least_squares
from bdris.optimize import optimize

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

optimize_module = importlib.import_module("bdris.optimize")

KINDS = ("regular", "dead_r", "dead_t", "degenerate", "swapped")
Z0S = (1.0, 50.0, 377.0)


@st.composite
def partitioned_pairs(draw):
    """(pair, spec, z0, number of width-2 swapped groups) of a random partition."""
    groups = draw(st.lists(st.tuples(st.integers(1, 4), st.sampled_from(KINDS)),
                           min_size=1, max_size=6))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    scale = 10.0 ** draw(st.integers(-3, 3))
    h_r, h_t = [], []
    swapped_pairs = 0
    for width, kind in groups:
        hr = scale * (rng.standard_normal(width) + 1j * rng.standard_normal(width))
        ht = rng.standard_normal(width) + 1j * rng.standard_normal(width)
        if kind == "dead_r":
            hr = np.zeros(width, complex)
        elif kind == "dead_t":
            ht = np.zeros(width, complex)
        elif kind == "degenerate":
            ht = -rng.uniform(0.1, 10.0) * hr
        elif kind == "swapped":
            ht = hr[::-1].copy()
            swapped_pairs += width == 2
        h_r.append(hr)
        h_t.append(ht)
    h_r = np.concatenate(h_r)
    h_t = np.concatenate(h_t)
    hypothesis.assume(np.any(h_r) and np.any(h_t))
    cuts = tuple(np.cumsum([width for width, _ in groups])[:-1])
    spec = ArchitectureSpec(KIND_GROUP, h_r.size, cuts)
    return ChannelPair(h_r, h_t), spec, draw(st.sampled_from(Z0S)), swapped_pairs


@settings(max_examples=150, deadline=None)
@given(partitioned_pairs())
def test_group_solve_properties(case):
    pair, spec, z0, swapped_pairs = case
    calls = []

    def counting(*args):
        calls.append(args)
        return min_norm_least_squares(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(optimize_module, "min_norm_least_squares", counting)
        res = optimize(pair, spec, z0)
    b = res.b_matrix.matrix
    assert np.array_equal(b, b.T)
    assert res.b_matrix.conforms(spec)
    assert res.p_bar_arch <= res.p_bar_full * (1 + 1e-12)
    if res.consistent:
        assert res.p_r <= res.p_bar_arch * (1 + 1e-9)
    assert res.p_r == received_power(pair, res.theta)
    # only near-singular Gram matrices reach the SVD
    assert len(calls) <= swapped_pairs


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 64), st.integers(0, 2 ** 64 - 1), st.sampled_from(Z0S),
       st.lists(st.integers(0, 63), max_size=4))
def test_gc1_equals_sc_bit_for_bit(n, seed, z0, zeroed):
    pair = gen_rayleigh(n, Rng(seed))
    h_r = pair.h_r.copy()
    h_r[[k for k in zeroed if k < n - 1]] = 0.0  # dead singletons; element n - 1 stays live
    pair = ChannelPair(h_r, pair.h_t)
    gc1 = optimize(pair, parse_arch("gc:1", n), z0)
    sc = optimize(pair, parse_arch("sc", n), z0)
    assert np.array_equal(gc1.b_matrix.matrix, sc.b_matrix.matrix)
    assert np.array_equal(gc1.theta.matrix, sc.theta.matrix)
    assert (gc1.p_r, gc1.p_bar_arch, gc1.ratio_full, gc1.residual_norm, gc1.consistent) == (
        sc.p_r, sc.p_bar_arch, sc.ratio_full, sc.residual_norm, sc.consistent)


@st.composite
def invariance_cases(draw):
    """(pair, spec) of an oracle-mix scenario at n = 1-16 and sc, tc, fc or a random gc."""
    n = draw(st.integers(1, 16))
    scenario, group_size = draw(st.sampled_from(oracle_mix(n)))
    pair, _ = scenario.draw(n, Rng(draw(st.integers(0, 2 ** 64 - 1))), group_size)
    label = draw(st.sampled_from(("sc", "tc", "fc", "gc")))
    if label != "gc":
        return pair, parse_arch(label, n)
    cuts = draw(st.sets(st.integers(1, n - 1))) if n > 1 else set()
    return pair, ArchitectureSpec(KIND_GROUP, n, tuple(sorted(cuts)))


@settings(max_examples=200, deadline=None)
@given(invariance_cases(), st.floats(-6.0, 6.0), st.floats(-6.0, 6.0), st.floats(-2.0, 4.0))
def test_ratio_invariant_to_channel_scale_and_z0(case, log_a, log_b, log_z0):
    """ratio_full depends on neither the channel scales nor the reference impedance."""
    pair, spec = case
    ref = optimize(pair, spec, DEFAULT_Z0).ratio_full
    scaled = ChannelPair(10.0 ** log_a * pair.h_r, 10.0 ** log_b * pair.h_t)
    assert optimize(scaled, spec, 10.0 ** log_z0).ratio_full == pytest.approx(ref, rel=1e-9)


@st.composite
def patterned_susceptances(draw):
    """(B, spec, z0, pair) of a random sc, tc, fc or gc pattern, z0 |B_ij| up to 1e3, some entries 0."""
    n = draw(st.integers(1, 16))
    label = draw(st.sampled_from(("sc", "tc", "fc", "gc")))
    if label == "gc":
        cuts = draw(st.sets(st.integers(1, n - 1))) if n > 1 else set()
        spec = ArchitectureSpec(KIND_GROUP, n, tuple(sorted(cuts)))
    else:
        spec = parse_arch(label, n)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    z0 = draw(st.sampled_from(Z0S))
    scale = 10.0 ** draw(st.floats(-3.0, 3.0))
    values = rng.uniform(-1.0, 1.0, (n, n)) * scale / z0
    values[rng.uniform(size=(n, n)) < draw(st.sampled_from((0.0, 0.2, 0.6)))] = 0.0
    b = np.triu(np.where(pattern_mask(spec), values, 0.0))
    b = b + np.triu(b, 1).T
    return b, spec, z0, gen_rayleigh(n, Rng(draw(st.integers(0, 2 ** 64 - 1))))


def spec_layout(b, spec):
    """B in the block layout its optimizer hands over: tc one dense block, sc and gc their groups."""
    if spec.kind == KIND_TREE:
        return SusceptanceMatrix(b)
    return SusceptanceMatrix(tuple((idx, b[idx[:, :, None], idx[:, None, :]])
                                   for idx in groups_by_width(spec.effective_cuts, spec.n)))


def _checked(build):
    try:
        return build()
    except NumericalFailure:
        return None


@settings(max_examples=300, deadline=None)
@given(patterned_susceptances())
def test_blocked_cayley_matches_dense_solve(case):
    """The blocked Theta of B in its pattern's layout, and its power, are the dense solve's.

    Up to rounding; outside a block pattern Theta is exactly zero.
    """
    b, spec, z0, pair = case
    n = b.shape[0]
    jb = 1j * z0 * b
    dense = np.linalg.solve(np.eye(n) + jb, np.eye(n) - jb)
    blocked = _checked(lambda: scattering_from_susceptance(spec_layout(b, spec), z0))
    whole = _checked(lambda: ScatteringMatrix(n, ((np.arange(n)[None], dense[None]),)))
    assert (blocked is None) == (whole is None)
    if blocked is None:
        return
    assert np.max(np.abs(blocked.matrix - dense)) <= 1e-12 * np.max(np.abs(dense))
    if spec.kind != KIND_TREE:
        assert not np.any(blocked.matrix[~pattern_mask(spec)])
    p_dense = abs(np.vdot(pair.h_r, dense @ pair.h_t)) ** 2
    assert abs(received_power(pair, blocked) - p_dense) <= 1e-12 * p_dense


NUMBERS = st.floats() | st.integers(min_value=-10 ** 400, max_value=10 ** 400)
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | NUMBERS | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=12)


@st.composite
def channel_docs(draw):
    """Channel documents of n <= 3 with [re, im] entries, one field at times replaced."""
    n = draw(st.integers(1, 3))
    entry = st.one_of(st.lists(st.floats(-10.0, 10.0), min_size=2, max_size=2),
                      st.lists(NUMBERS, min_size=2, max_size=2), JSON_VALUES)
    doc = {"n": n,
           "h_r": draw(st.lists(entry, min_size=n, max_size=n)),
           "h_t": draw(st.lists(entry, min_size=n, max_size=n))}
    key = draw(st.sampled_from(("n", "h_r", "h_t", None)))
    if key is not None and draw(st.booleans()):
        doc[key] = draw(JSON_VALUES)
    return doc


@settings(max_examples=300, deadline=None)
@given(st.one_of(
    channel_docs().map(lambda doc: io.StringIO(json.dumps(doc))),
    JSON_VALUES.map(lambda doc: io.StringIO(json.dumps(doc))),
    st.binary(max_size=64).map(lambda raw: io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8")),
))
def test_read_channel_json_fuzz(fp):
    """Any input either parses to a ChannelPair or raises InputError."""
    try:
        pair = read_channel_json(fp)
    except InputError:
        return
    assert isinstance(pair, ChannelPair)
