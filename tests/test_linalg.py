"""Tests for the min-norm least-squares solver and matrix checks."""

import numpy as np
import pytest

from bdris.errors import InputError
from bdris.linalg import check_symmetric_unitary, min_norm_least_squares, real_ratio

S14 = np.sqrt(14.0)

# 4x3 system from the two-element steering setup; known minimum-norm
# solution (-2/3, 2/3, 0) with squared residual 2/7 and rank 2.
A_FROZEN = np.array(
    [
        [-3.0, 0.0, -3.0],
        [0.0, -3.0, -3.0],
        [3.0, 0.0, 3.0],
        [0.0, 3.0, 3.0],
    ]
) / S14
B_FROZEN = np.array([3.0, -3.0, -1.0, 1.0]) / S14


def test_frozen_example():
    sol = min_norm_least_squares(A_FROZEN, B_FROZEN)
    assert np.allclose(sol.x, [-2.0 / 3.0, 2.0 / 3.0, 0.0], atol=1e-12)
    assert sol.residual_norm**2 == pytest.approx(2.0 / 7.0, rel=1e-12)
    assert sol.numerical_rank == 2


def test_identity_system():
    rng = np.random.default_rng(0)
    b = rng.standard_normal(5)
    sol = min_norm_least_squares(np.eye(5), b)
    assert np.allclose(sol.x, b, atol=1e-14)
    assert sol.residual_norm <= 1e-14
    assert sol.numerical_rank == 5


def test_consistent_systems_have_tiny_residual():
    rng = np.random.default_rng(1)
    for _ in range(50):
        m = rng.integers(2, 12)
        n = rng.integers(1, m + 1)
        a = rng.standard_normal((m, n))
        b = a @ rng.standard_normal(n)
        sol = min_norm_least_squares(a, b)
        assert sol.residual_norm <= 1e-9 * max(np.linalg.norm(b), 1.0)


def test_min_norm_solution_is_orthogonal_to_null_space():
    rng = np.random.default_rng(2)
    for _ in range(20):
        a = rng.standard_normal((3, 7))
        b = rng.standard_normal(3)
        sol = min_norm_least_squares(a, b)
        _, s, vt = np.linalg.svd(a)
        null_basis = vt[len(s) :] if len(s) < vt.shape[0] else vt[np.sum(s > 1e-12) :]
        assert np.max(np.abs(null_basis @ sol.x)) <= 1e-8 * max(np.linalg.norm(sol.x), 1.0)


def test_scaling_equivariance():
    # scaling A by c and keeping b scales the solution by 1/c
    rng = np.random.default_rng(3)
    a = rng.standard_normal((6, 4))
    b = rng.standard_normal(6)
    base = min_norm_least_squares(a, b)
    for c in (1e-3, 2.0, 1e3):
        scaled = min_norm_least_squares(c * a, b)
        assert np.allclose(scaled.x, base.x / c, rtol=1e-10, atol=1e-14)


def test_rank_cutoff_drops_tiny_singular_values():
    a = np.diag([1.0, 1e-14])
    sol = min_norm_least_squares(a, np.array([1.0, 1.0]))
    assert sol.numerical_rank == 1
    assert np.allclose(sol.x, [1.0, 0.0], atol=1e-12)


def test_input_validation():
    with pytest.raises(InputError):
        min_norm_least_squares(np.ones((2, 2)), np.ones(3))
    with pytest.raises(InputError):
        min_norm_least_squares(np.array([[np.nan, 0.0], [0.0, 1.0]]), np.ones(2))
    with pytest.raises(InputError):
        min_norm_least_squares(np.ones(4), np.ones(4))


def test_check_symmetric_unitary():
    ok = check_symmetric_unitary(np.eye(3, dtype=complex))
    assert ok.ok
    assert ok.symmetry_defect == 0.0
    assert ok.unitarity_defect <= 1e-15

    skew = np.array([[0.0, 1.0], [-1.0, 0.0]], dtype=complex)
    bad = check_symmetric_unitary(skew)
    assert not bad.ok
    assert bad.symmetry_defect == pytest.approx(2.0)

    # unitary but badly non-symmetric vs symmetric but non-unitary
    assert not check_symmetric_unitary(2.0 * np.eye(2, dtype=complex)).ok


def test_check_symmetric_unitary_stack():
    # a stack is checked block by block and reports the worst block
    rotation = np.array([[0.6, 0.8j], [0.8j, 0.6]])
    stack = np.stack([rotation, np.eye(2, dtype=complex), rotation.T])
    good = check_symmetric_unitary(stack)
    assert good.ok
    assert good.symmetry_defect == 0.0
    assert good.unitarity_defect <= 1e-15
    stack[1, 0, 1] = 1e-6
    bad = check_symmetric_unitary(stack)
    assert not bad.ok
    assert bad.symmetry_defect == pytest.approx(1e-6)
    assert bad.unitarity_defect == pytest.approx(1e-6)
    # the stack's defects are the maximum of its blocks' own
    singles = [check_symmetric_unitary(block) for block in stack]
    assert bad.symmetry_defect == max(c.symmetry_defect for c in singles)
    assert bad.unitarity_defect == max(c.unitarity_defect for c in singles)
    with pytest.raises(InputError):
        check_symmetric_unitary(np.ones((2, 2, 3), dtype=complex))
    with pytest.raises(InputError):
        check_symmetric_unitary(np.ones((0, 2, 2), dtype=complex))


def test_real_ratio_cases():
    assert real_ratio(0.0, 0.0) == 1.0
    assert real_ratio(1.0, 0.0) is None
    assert real_ratio(0.0, 1.0) is None
    assert real_ratio(2 + 2j, 1 + 1j) == pytest.approx(2.0, rel=1e-14)
    assert real_ratio(-3.0, 1.5) == pytest.approx(-2.0, rel=1e-14)
    assert real_ratio(1 + 1j, 1 - 1j) is None
    # just inside vs far outside the relative tolerance
    assert real_ratio(1.0 + 1e-12j, 1.0) is not None
    assert real_ratio(1.0 + 1e-3j, 1.0) is None
    # floor keeps the zero threshold anchored to an outside scale
    assert real_ratio(1e-18, 1.0, floor=1e-12) is None
    assert real_ratio(1e-23, 1e-24, floor=1e-12) == 1.0
    assert real_ratio(1e-18, 1e-19, floor=1e-12) == pytest.approx(10.0, rel=1e-12)
