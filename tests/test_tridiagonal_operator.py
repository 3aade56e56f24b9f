"""tc's Theta as an O(n) operator on the L D L^T factors of I + j z0 B.

The construction check of that layout is a bound on the unitarity defect of
Theta' = 2 (L D L^T)^-1 - I, taken from the stored factors.  These tests
check the bound against the defect in exact rational arithmetic, which
path the tc calls of the benchmark pool take, and the dense fallback.
"""

import importlib
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from bdris.architecture import (
    SusceptanceMatrix,
    _tridiagonal_cayley,
    _tridiagonal_ldl,
    parse_arch,
    received_power,
    scattering_from_susceptance,
)
from bdris.channel import Rng, gen_rayleigh
from bdris.errors import NumericalFailure
from bdris.linalg import THETA_UNITARY_TOL, TridiagonalLDL, check_symmetric_unitary
from bdris.optimize import optimize

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

architecture = importlib.import_module("bdris.architecture")
linalg = importlib.import_module("bdris.linalg")


def _cmul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def _exact_unitarity_defect_squared(f: TridiagonalLDL) -> Fraction:
    """max |Theta'^H Theta' - I|_ij^2 of Theta' = 2 (L D L^T)^-1 - I, in exact rationals."""
    d = [(Fraction(z.real), Fraction(z.imag)) for z in f.pivots.tolist()]
    mult = [(Fraction(z.real), Fraction(z.imag)) for z in f.multipliers.tolist()]
    n = len(d)
    zero, one = Fraction(0), Fraction(1)
    inv_d = [(p[0] / (p[0] ** 2 + p[1] ** 2), -p[1] / (p[0] ** 2 + p[1] ** 2)) for p in d]
    theta = []  # columns of Theta'
    for j in range(n):
        y = [(one, zero) if k == j else (zero, zero) for k in range(n)]
        for k in range(1, n):
            t = _cmul(mult[k - 1], y[k - 1])
            y[k] = (y[k][0] - t[0], y[k][1] - t[1])
        y = [_cmul(y[k], inv_d[k]) for k in range(n)]
        for k in range(n - 2, -1, -1):
            t = _cmul(mult[k], y[k + 1])
            y[k] = (y[k][0] - t[0], y[k][1] - t[1])
        theta.append([(2 * y[k][0] - (k == j), 2 * y[k][1]) for k in range(n)])
    worst = zero
    for i in range(n):
        for j in range(n):
            re = im = zero
            for k in range(n):
                # conj(theta_ki) theta_kj
                a, b = theta[i][k], theta[j][k]
                re += a[0] * b[0] + a[1] * b[1]
                im += a[0] * b[1] - a[1] * b[0]
            re -= i == j
            worst = max(worst, re * re + im * im)
    return worst


def _cayley_factors(diag, coupling, z0):
    """The factors scattering_from_susceptance takes of I + j z0 B for B's bands."""
    return _tridiagonal_ldl(1.0 + 1j * z0 * diag, 1j * z0 * coupling)


@st.composite
def stored_factors(draw):
    """Factors of I + j z0 B for a tridiagonal B with z0 |B_ij| spread up to 1e8.

    Some couplings are exactly zero.  Some draws add real shifts to I + j
    z0 B, at one diagonal element or at every entry, so that H = Re M' - I
    is far from rounding level and both bounds are put to work.
    """
    n = draw(st.integers(1, 6))
    z0 = draw(st.sampled_from((1.0, 50.0)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    top = draw(st.floats(-3.0, 8.0))
    low = draw(st.sampled_from((-3.0, top)))  # entries of one magnitude, or spread
    bands = []
    for size in (n, n - 1):
        band = rng.uniform(-1.0, 1.0, size) * 10.0 ** rng.uniform(low, top, size) / z0
        band[rng.uniform(size=size) < draw(st.sampled_from((0.0, 0.3, 1.0)))] = 0.0
        bands.append(band)
    shift = draw(st.sampled_from((0.0, 1e-13, 1e-9, 1e-4)))
    if not shift:
        return _cayley_factors(*bands, z0)
    real = shift * rng.uniform(-1.0, 1.0, 2 * n - 1)
    if draw(st.booleans()):
        real[np.arange(2 * n - 1) != draw(st.integers(0, n - 1))] = 0.0
    return _tridiagonal_ldl(1.0 + real[:n] + 1j * z0 * bands[0], real[n:] + 1j * z0 * bands[1])


@settings(max_examples=300, deadline=None)
@given(stored_factors())
def test_tridiagonal_bound_is_never_below_the_exact_defect(f):
    # the reported bound, and the weighted bound on its own (the check
    # takes it only when the plain bound fails THETA_UNITARY_TOL)
    check = check_symmetric_unitary(f)
    assert check.symmetry_defect == 0.0
    assert check.ok == (check.unitarity_defect <= THETA_UNITARY_TOL)
    if not np.isfinite(check.unitarity_defect):
        return
    exact = _exact_unitarity_defect_squared(f)
    assert Fraction(check.unitarity_defect) ** 2 >= exact
    rho, lsq = linalg._row_bounds(f)
    assert Fraction(linalg._weighted_bound(f, rho, lsq, float(rho.max()))) ** 2 >= exact


@pytest.mark.parametrize("a,c", [
    # G_00 = (1 + 1000j) / (1 + 2000j) is about 1/2, far above 1 / |d_0|:
    # the weighted bound needs the l_0^2 G_11 term of its recursion
    (np.array([1.0 + 1e-6 + 1000j, 1.0 + 1000j]), np.array([1000j])),
    # a real coupling puts H off the diagonal, in both rows' sums
    (1.0 + 1j * np.array([-0.94791533, -733.88137414]), np.array([1e-6 - 32.99622583j])),
], ids=["recursion", "off-diagonal"])
def test_bounds_hold_where_each_term_is_needed(a, c):
    f = _tridiagonal_ldl(a, c)
    exact = _exact_unitarity_defect_squared(f)
    rho, lsq = linalg._row_bounds(f)
    assert Fraction(linalg._weighted_bound(f, rho, lsq, float(rho.max()))) ** 2 >= exact
    assert Fraction(check_symmetric_unitary(f).unitarity_defect) ** 2 >= exact


def test_tridiagonal_bound_on_exact_unitary_factors():
    # B = 0: M = I and H = 0, so the bound is the rounding allowance of
    # Re d_k - 1 = 0; a diagonal B gives l = 0 and Re d_k = 1 exactly
    zero = _cayley_factors(np.zeros(4), np.zeros(3), 50.0)
    assert check_symmetric_unitary(zero).unitarity_defect <= 1e-14
    diagonal = _cayley_factors(np.array([0.02, -1.0, 3.0]), np.zeros(2), 50.0)
    assert check_symmetric_unitary(diagonal).unitarity_defect <= 1e-14
    # a pivot far from Re d = 1, and a non-finite one, fail
    bad = zero._replace(pivots=np.array([1.0, 1.5, 1.0, 1.0], dtype=complex))
    assert not check_symmetric_unitary(bad).ok
    inf = zero._replace(pivots=np.array([1.0, np.inf, 1.0, 1.0], dtype=complex))
    assert check_symmetric_unitary(inf).unitarity_defect == np.inf


def test_pool_pairs_take_the_operator_path(monkeypatch):
    # the benchmark's tc pairs (the first 32 of Rng(0) at n = 256) all pass
    # the O(n) bound: no dense solve, no n x n array, no dense Theta
    n = 256
    rng = Rng(0)
    pool = [gen_rayleigh(n, rng) for _ in range(32)]
    spec = parse_arch("tc", n)
    optimize(pool[0], spec)

    def refuse(*args, **kwargs):
        raise AssertionError("np.linalg.solve called on the tc path")

    monkeypatch.setattr(np.linalg, "solve", refuse)
    for pair in pool:
        tracemalloc.start()
        try:
            res = optimize(pair, spec)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2 ** 20
        assert res.theta.ldl is not None and not res.theta.blocks
        assert "matrix" not in vars(res.theta)
        assert res.consistent and res.ratio_full >= 1.0 - 1e-12


def test_operator_matches_its_dense_theta():
    # apply() against the dense sweep of the same factors, and the defects
    # read from the dense check that .matrix runs
    pair = gen_rayleigh(64, Rng(12))
    res = optimize(pair, parse_arch("tc", 64))
    theta = res.theta
    assert "_defects" not in vars(theta)
    dense = theta.matrix
    assert np.array_equal(dense, _tridiagonal_cayley(theta.ldl))
    assert np.max(np.abs(theta.apply(pair.h_t) - dense @ pair.h_t)) <= 1e-13
    check = check_symmetric_unitary(dense)
    assert (theta.symmetry_defect, theta.unitarity_defect) == (
        check.symmetry_defect, check.unitarity_defect)
    assert abs(received_power(pair, dense) - res.p_r) <= 1e-12 * res.p_bar_full


def test_weighted_bound_keeps_large_surfaces_on_the_operator_path():
    # at n = 1024 the plain bound 4 h / (1 - h)^2 fails THETA_UNITARY_TOL on
    # some pool pairs, where a large pivot's rounding allowance sets h; the
    # weighted bound passes them all, so none takes the O(n^2) dense sweep
    # and the O(n^3) dense check
    n = 1024
    rng = Rng(0)
    spec = parse_arch("tc", n)
    plain_fails = 0
    for _ in range(32):
        res = optimize(gen_rayleigh(n, rng), spec)
        assert res.theta.ldl is not None and "matrix" not in vars(res.theta)
        h = float(linalg._row_bounds(res.theta.ldl)[0].max())
        plain_fails += 4.0 * h / (1.0 - h) ** 2 > THETA_UNITARY_TOL
    assert plain_fails > 0


def test_loose_bound_falls_back_to_the_dense_check():
    # z0 B_12 = 1e8 with a zero diagonal makes Re d_2 = 1 + 1e16, and the
    # rounding allowance of H_22 alone passes 1, so the bound is infinite;
    # Theta is then the dense sweep of the same factors, checked in full
    b = SusceptanceMatrix(bands=(np.zeros(4), np.array([0.0, 1e8, 0.0]) / 50.0))
    f = _cayley_factors(*b.bands, 50.0)
    assert check_symmetric_unitary(f).unitarity_defect == np.inf
    theta = scattering_from_susceptance(b, 50.0)
    assert theta.ldl is None
    assert np.array_equal(theta.matrix, _tridiagonal_cayley(f))
    dense = check_symmetric_unitary(theta.matrix)
    assert (theta.symmetry_defect, theta.unitarity_defect) == (
        dense.symmetry_defect, dense.unitarity_defect)
    assert dense.unitarity_defect <= 1e-15
    # z0 B_12 = 1e3: the plain bound (about 7e-9) fails, the weighted one
    # passes
    f = _cayley_factors(np.zeros(4), np.array([0.0, 1e3, 0.0]) / 50.0, 50.0)
    h = float(linalg._row_bounds(f)[0].max())
    assert 4.0 * h / (1.0 - h) ** 2 > THETA_UNITARY_TOL
    assert check_symmetric_unitary(f).unitarity_defect <= 1e-13


def test_dense_check_failure_raises_on_matrix(monkeypatch):
    # the operator passed its bound, but .matrix runs the dense check and
    # raises when that fails, as do the defects that read it
    pair = gen_rayleigh(8, Rng(3))
    theta = optimize(pair, parse_arch("tc", 8)).theta
    assert theta.ldl is not None
    monkeypatch.setattr(architecture, "_tridiagonal_cayley", lambda f: 2.0 * np.eye(f.pivots.size))
    with pytest.raises(NumericalFailure):
        theta.matrix
    with pytest.raises(NumericalFailure):
        theta.unitarity_defect
