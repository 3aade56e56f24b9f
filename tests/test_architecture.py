"""Tests for architecture specs, the Cayley map, and power bounds."""

import numpy as np
import pytest

from bdris.architecture import (
    ArchitectureSpec,
    KIND_FULL,
    KIND_GROUP,
    KIND_SINGLE,
    KIND_TREE,
    ScatteringMatrix,
    SusceptanceMatrix,
    parse_arch,
    partition_from_cuts,
    pattern_mask,
    received_power,
    scattering_from_susceptance,
    upper_bound_full,
    upper_bound_gc,
)
from bdris.channel import ChannelPair, Rng, gen_rayleigh
from bdris.errors import InputError, NumericalFailure

PAPER_PAIR = ChannelPair(np.array([2j, 3 + 1j]), np.array([(3 + 1j) / 2, 1j]))


def test_partition_from_cuts():
    assert partition_from_cuts((2, 3), 5) == [(0, 2), (2, 3), (3, 5)]
    assert partition_from_cuts((), 4) == [(0, 4)]
    assert partition_from_cuts((1, 2, 3), 4) == [(0, 1), (1, 2), (2, 3), (3, 4)]
    for bad in ((0,), (4,), (2, 2), (3, 1)):
        with pytest.raises(InputError):
            partition_from_cuts(bad, 4)


def test_parse_arch():
    assert parse_arch("sc", 8).kind == KIND_SINGLE
    assert parse_arch("tc", 8).kind == KIND_TREE
    assert parse_arch("fc", 8).kind == KIND_FULL
    gc = parse_arch("gc:4", 8)
    assert gc.kind == KIND_GROUP and gc.cuts == (4,)
    gci = parse_arch("gc:I=2,5", 8)
    assert gci.cuts == (2, 5)
    for bad in ("gc:3", "gc:0", "gc:I=", "gc:I=9", "xx", "gc"):
        with pytest.raises(InputError):
            parse_arch(bad, 8)


def test_labels():
    assert ArchitectureSpec(KIND_SINGLE, 8).label == "sc"
    assert ArchitectureSpec(KIND_TREE, 8).label == "tc"
    assert ArchitectureSpec(KIND_FULL, 8).label == "fc"
    assert ArchitectureSpec(KIND_GROUP, 8, cuts=(2, 4, 6)).label == "gc:2"
    assert ArchitectureSpec(KIND_GROUP, 8, cuts=(3,)).label == "gc:I=3"


def test_effective_cuts():
    assert ArchitectureSpec(KIND_SINGLE, 4).effective_cuts == (1, 2, 3)
    assert ArchitectureSpec(KIND_FULL, 4).effective_cuts == ()
    assert ArchitectureSpec(KIND_GROUP, 4, cuts=(2,)).effective_cuts == (2,)
    with pytest.raises(InputError):
        ArchitectureSpec(KIND_TREE, 4).effective_cuts


def test_spec_validation():
    with pytest.raises(InputError):
        ArchitectureSpec(KIND_SINGLE, 0)
    with pytest.raises(InputError):
        ArchitectureSpec(KIND_SINGLE, 4, cuts=(2,))  # cuts only for groups
    with pytest.raises(InputError):
        ArchitectureSpec("ring", 4)


def test_pattern_masks():
    tc = pattern_mask(ArchitectureSpec(KIND_TREE, 4))
    assert np.array_equal(tc, np.abs(np.subtract.outer(range(4), range(4))) <= 1)
    sc = pattern_mask(ArchitectureSpec(KIND_SINGLE, 3))
    assert np.array_equal(sc, np.eye(3, dtype=bool))
    gc = pattern_mask(ArchitectureSpec(KIND_GROUP, 4, cuts=(2,)))
    expect = np.zeros((4, 4), bool)
    expect[:2, :2] = True
    expect[2:, 2:] = True
    assert np.array_equal(gc, expect)
    assert pattern_mask(ArchitectureSpec(KIND_FULL, 3)).all()


def test_susceptance_matrix_checks():
    m = np.array([[0.0, 1.0], [1.0, 0.0]])
    sm = SusceptanceMatrix(m)
    assert sm.n == 2
    assert sm.conforms(ArchitectureSpec(KIND_TREE, 2))
    assert not sm.conforms(ArchitectureSpec(KIND_SINGLE, 2))
    with pytest.raises(InputError):
        SusceptanceMatrix(np.array([[0.0, 1.0], [1.0 + 1e-12, 0.0]]))
    with pytest.raises(InputError):
        SusceptanceMatrix(np.array([[np.inf]]))
    # in block form each block is checked, with the same exact semantics
    index = np.array([[0, 1], [2, 3]])
    good = np.array([[1.0, 2.0], [2.0, 3.0]])
    blocked = SusceptanceMatrix(((index, np.stack([good, 2.0 * good])),))
    assert blocked.n == 4 and "matrix" not in vars(blocked)
    assert np.array_equal(blocked.matrix[:2, :2], good) and not np.any(blocked.matrix[:2, 2:])
    assert blocked.conforms(parse_arch("gc:2", 4))
    assert not blocked.conforms(parse_arch("sc", 4))
    skewed = good.copy()
    skewed[0, 1] += 1e-12
    with pytest.raises(InputError):
        SusceptanceMatrix(((index, np.stack([good, skewed])),))
    with pytest.raises(InputError):
        SusceptanceMatrix(((index, np.stack([good, np.full((2, 2), np.nan)])),))
    with pytest.raises(InputError):
        SusceptanceMatrix(((index, good),))
    with pytest.raises(InputError):
        SusceptanceMatrix(np.ones((2, 3)))


def test_susceptance_bands():
    diag = np.array([1.0, -2.0, 0.5])
    coupling = np.array([0.25, -1.0])
    b = SusceptanceMatrix(bands=(diag, coupling))
    assert b.n == 3 and "matrix" not in vars(b)
    assert np.array_equal(b.matrix, [[1.0, 0.25, 0.0], [0.25, -2.0, -1.0], [0.0, -1.0, 0.5]])
    assert b.conforms(parse_arch("tc", 3)) and not b.conforms(parse_arch("sc", 3))
    one = SusceptanceMatrix(bands=(np.array([0.02]), np.zeros(0)))
    assert one.n == 1 and one.matrix[0, 0] == 0.02
    for bad in ((diag, coupling[:1]), (diag[:, None], coupling), (np.zeros(0), np.zeros(0)),
                (diag, np.array([np.nan, 0.0])), (np.array([np.inf, 0.0, 0.0]), coupling)):
        with pytest.raises(InputError):
            SusceptanceMatrix(bands=bad)
    with pytest.raises(InputError):
        SusceptanceMatrix(np.eye(3), bands=(diag, coupling))


def test_cayley_map_frozen_values():
    theta = scattering_from_susceptance(np.zeros((3, 3)), z0=50.0)
    assert np.allclose(theta.matrix, np.eye(3), atol=1e-14)

    # scalar case: z0*b = 1 maps to -j
    theta1 = scattering_from_susceptance(np.array([[0.02]]), z0=50.0)
    assert theta1.matrix[0, 0] == pytest.approx(-1j, abs=1e-14)

    # diagonal case from the worked two-element trace
    theta2 = scattering_from_susceptance(np.diag([-2.0 / 3.0, 2.0 / 3.0]), z0=1.0)
    expect = np.diag([(5 + 12j) / 13.0, (5 - 12j) / 13.0])
    assert np.allclose(theta2.matrix, expect, atol=1e-14)
    # the same B as tridiagonal bands, and in one element B = 0.02
    banded = SusceptanceMatrix(bands=(np.array([-2.0 / 3.0, 2.0 / 3.0]), np.zeros(1)))
    assert np.allclose(scattering_from_susceptance(banded, z0=1.0).matrix, expect, atol=1e-14)
    one = SusceptanceMatrix(bands=(np.array([0.02]), np.zeros(0)))
    assert scattering_from_susceptance(one, z0=50.0).matrix[0, 0] == pytest.approx(-1j, abs=1e-14)


def test_cayley_map_diagonal_matches_dense_solve():
    rng = np.random.default_rng(21)
    d = rng.standard_normal(64) * 10.0 ** rng.uniform(-8, 8, 64)
    d[::7] = 0.0
    b = SusceptanceMatrix(((np.arange(64)[:, None], d[:, None, None]),))
    for z0 in (1.0, 50.0):
        theta = scattering_from_susceptance(b, z0=z0).matrix
        jb = 1j * z0 * np.diag(d)
        dense = np.linalg.solve(np.eye(64) + jb, np.eye(64) - jb)
        assert not np.any(theta - np.diag(np.diagonal(theta)))
        assert np.max(np.abs(theta - dense)) <= 1e-15


def test_dense_susceptance_is_one_dense_solve():
    # a dense B given alone is one block, whatever its zeros: gc:2 values
    # with one dead group, and a diagonal, map by one dense solve against I,
    # Theta = 2 (I + j z0 B)^-1 - I
    rng = np.random.default_rng(22)
    gc = np.where(pattern_mask(parse_arch("gc:2", 6)), rng.standard_normal((6, 6)), 0.0)
    gc = gc + gc.T
    gc[2:4, 2:4] = 0.0
    for b in (gc, np.diag(rng.standard_normal(5))):
        n = b.shape[0]
        assert len(SusceptanceMatrix(b).blocks) == 1
        for z0 in (1.0, 50.0):
            jb = 1j * z0 * b
            dense = 2.0 * np.linalg.solve(np.eye(n) + jb, np.eye(n)) - np.eye(n)
            assert np.array_equal(scattering_from_susceptance(b, z0=z0).matrix, dense)


def test_cayley_map_defects_random_patterns():
    rng = Rng(20)
    kinds = (
        ArchitectureSpec(KIND_SINGLE, 16),
        ArchitectureSpec(KIND_TREE, 16),
        ArchitectureSpec(KIND_GROUP, 16, cuts=(4, 8, 12)),
        ArchitectureSpec(KIND_FULL, 16),
    )
    for spec in kinds:
        mask = pattern_mask(spec)
        for k in range(50):
            u = rng.uniform(16 * 16).reshape(16, 16)
            b = (2.0 * u - 1.0) * 1e3
            b = np.where(mask, b, 0.0)
            b = (b + b.T) / 2.0
            for z0 in (1.0, 50.0):
                theta = scattering_from_susceptance(b, z0=z0)
                assert theta.symmetry_defect <= 1e-10
                assert theta.unitarity_defect <= 1e-9


def test_scattering_matrix_rejects_a_corrupted_block():
    index = np.array([[0, 1], [2, 3]])
    rotation = np.array([[0.6, 0.8j], [0.8j, 0.6]])
    theta = ScatteringMatrix(4, ((index, np.stack([rotation, rotation])),))
    assert theta.symmetry_defect == 0.0
    assert theta.unitarity_defect <= 1e-15
    assert np.array_equal(theta.matrix[:2, 2:], np.zeros((2, 2)))
    corrupted = rotation.copy()
    corrupted[0, 1] += 1e-6
    with pytest.raises(NumericalFailure):
        ScatteringMatrix(4, ((index, np.stack([rotation, corrupted])),))
    with pytest.raises(InputError):
        ScatteringMatrix(5, ((index, np.stack([rotation, rotation])),))


def test_cayley_rejects_bad_input():
    with pytest.raises(InputError):
        scattering_from_susceptance(np.array([[0.0, 1.0], [2.0, 0.0]]), z0=50.0)
    with pytest.raises(InputError):
        scattering_from_susceptance(np.zeros((2, 2)), z0=0.0)
    with pytest.raises(InputError):
        scattering_from_susceptance(np.zeros((2, 2)), z0=-1.0)


def test_received_power_and_bounds_frozen():
    p_identity = received_power(PAPER_PAIR, np.eye(2, dtype=complex))
    assert p_identity == pytest.approx(4.0, rel=1e-14)
    assert upper_bound_full(PAPER_PAIR) == pytest.approx(49.0, rel=1e-14)
    assert upper_bound_gc(PAPER_PAIR, (1,)) == pytest.approx(40.0, rel=1e-14)


def test_bound_ordering_under_refinement():
    # adding cuts never increases the group bound
    for trial in range(30):
        pair = gen_rayleigh(12, Rng(300 + trial))
        full = upper_bound_full(pair)
        coarse = upper_bound_gc(pair, (6,))
        fine = upper_bound_gc(pair, (3, 6, 9))
        singles = upper_bound_gc(pair, tuple(range(1, 12)))
        assert singles <= fine * (1 + 1e-12)
        assert fine <= coarse * (1 + 1e-12)
        assert coarse <= full * (1 + 1e-12)
        assert upper_bound_gc(pair, ()) == pytest.approx(full, rel=1e-12)
