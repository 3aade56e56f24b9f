"""RIS architectures: sparsity patterns, the lossless scattering map, power, bounds.

A reconfigurable surface is modeled by a real symmetric susceptance matrix
B restricted to an architecture-dependent sparsity pattern.  The lossless
scattering matrix follows from B through a Cayley-type relation and is
always symmetric unitary; received power and its architecture-dependent
upper bounds are plain inner products.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from .errors import InputError, NumericalFailure
from .linalg import (
    THETA_SYM_TOL,
    THETA_UNITARY_TOL,
    MatrixCheck,
    TridiagonalLDL,
    check_symmetric_unitary,
    row_norms,
)

DEFAULT_Z0 = 50.0
# The reference impedances a solve accepts, [Z0_MIN, Z0_MAX].  The closed
# form of a gc or fc group forms the determinant of its Gram matrix X^T X,
# X = [Re alpha, Im alpha] with alpha = j z0 (hr_hat + ht_hat), so each
# Gram entry is at most 4 z0^2 and the determinant at most 16 z0^4; it must
# stay finite, and 16 z0^4 is 1.6e301 at Z0_MAX, below the largest float
# (1.8e308).  Below 1 the determinant shrinks as z0^4 toward the smallest
# normal float (2.2e-308); the range is symmetric about 1, so z0^4 is still
# 1e-300 at Z0_MIN.
Z0_MIN = 1e-75
Z0_MAX = 1e75
_EPS = np.finfo(float).eps

KIND_SINGLE = "single_connected"
KIND_GROUP = "group_connected"
KIND_TREE = "tree_tridiagonal"
KIND_FULL = "fully_connected"
KINDS = (KIND_SINGLE, KIND_GROUP, KIND_TREE, KIND_FULL)


def partition_from_cuts(cuts, n: int) -> list[tuple[int, int]]:
    """Contiguous 0-based [start, stop) spans delimited by 1-based cuts.

    Cut i separates elements i and i+1, so cuts (2, 3) on n = 5 give the
    spans (0, 2), (2, 3), (3, 5).  An empty cut list gives one span.
    """
    if n < 1:
        raise InputError(f"n must be positive, got {n}")
    cuts = tuple(int(c) for c in cuts)
    prev = 0
    for c in cuts:
        if not 1 <= c <= n - 1:
            raise InputError(f"cut {c} outside [1, {n - 1}]")
        if c <= prev:
            raise InputError(f"cuts must be strictly increasing, got {cuts}")
        prev = c
    bounds = (0, *cuts, n)
    return [(bounds[i], bounds[i + 1]) for i in range(len(bounds) - 1)]


@dataclass(frozen=True)
class ArchitectureSpec:
    """Which susceptance entries a surface of n elements may use.

    cuts are 1-based group boundaries and are meaningful only for
    kind == "group_connected"; the other kinds have fixed patterns.
    """

    kind: str
    n: int
    cuts: tuple[int, ...] = ()

    def __post_init__(self):
        if self.kind not in KINDS:
            raise InputError(f"unknown architecture kind {self.kind!r}")
        if not isinstance(self.n, int) or self.n < 1:
            raise InputError(f"element count must be a positive integer, got {self.n!r}")
        object.__setattr__(self, "cuts", tuple(int(c) for c in self.cuts))
        if self.kind == KIND_GROUP:
            partition_from_cuts(self.cuts, self.n)
        elif self.cuts:
            raise InputError(f"cuts are only meaningful for {KIND_GROUP}")

    @property
    def effective_cuts(self) -> tuple[int, ...]:
        """Group boundaries realizing this pattern as a block partition.

        Diagonal equals a partition into singletons, fully connected
        equals one block; tridiagonal has no partition equivalent.
        """
        if self.kind == KIND_SINGLE:
            return tuple(range(1, self.n))
        if self.kind == KIND_FULL:
            return ()
        if self.kind == KIND_GROUP:
            return self.cuts
        raise InputError("the tridiagonal pattern is not a block partition")

    @property
    def label(self) -> str:
        if self.kind == KIND_SINGLE:
            return "sc"
        if self.kind == KIND_TREE:
            return "tc"
        if self.kind == KIND_FULL:
            return "fc"
        sizes = {hi - lo for lo, hi in partition_from_cuts(self.cuts, self.n)}
        if len(sizes) == 1:
            return f"gc:{sizes.pop()}"
        return "gc:I=" + ",".join(str(c) for c in self.cuts)


def parse_arch(text: str, n: int) -> ArchitectureSpec:
    """Parse an architecture label: sc, tc, fc, gc:k, or gc:I=2,5,9."""
    if not isinstance(text, str):
        raise InputError(f"architecture label must be a string, got {text!r}")
    label = text.strip()
    if label == "sc":
        return ArchitectureSpec(KIND_SINGLE, n)
    if label == "tc":
        return ArchitectureSpec(KIND_TREE, n)
    if label == "fc":
        return ArchitectureSpec(KIND_FULL, n)
    if label.startswith("gc:I="):
        body = label[len("gc:I="):]
        try:
            cuts = tuple(int(part) for part in body.split(","))
        except ValueError as exc:
            raise InputError(f"bad cut list in {text!r}") from exc
        return ArchitectureSpec(KIND_GROUP, n, cuts)
    if label.startswith("gc:"):
        try:
            k = int(label[len("gc:"):])
        except ValueError as exc:
            raise InputError(f"bad group size in {text!r}") from exc
        if k < 1 or n % k:
            raise InputError(f"group size {k} must divide n = {n}")
        return ArchitectureSpec(KIND_GROUP, n, tuple(range(k, n, k)))
    raise InputError(f"unknown architecture {text!r}; expected sc, tc, fc, gc:k, or gc:I=...")


def pattern_mask(spec: ArchitectureSpec) -> np.ndarray:
    """Boolean mask of the susceptance entries the architecture may use."""
    n = spec.n
    if spec.kind == KIND_TREE:
        idx = np.arange(n)
        return np.abs(idx[:, None] - idx[None, :]) <= 1
    mask = np.zeros((n, n), dtype=bool)
    for lo, hi in partition_from_cuts(spec.effective_cuts, n):
        mask[lo:hi, lo:hi] = True
    return mask


def groups_by_width(cuts, n: int, count: int = 1) -> tuple[np.ndarray, ...]:
    """Element index of the cut partition's groups, one (g, w) array per width w, over count pairs end to end.

    Row i of a width's array holds the elements of its i-th group of that
    width, pair k's groups (offset by k n) after pair k - 1's.  Widths come
    in increasing order.  The arrays are cached per (cuts, n, count) and
    read-only, so a solve of count pairs builds no index; an entry holds
    count n indices.
    """
    return _groups_by_width(tuple(cuts), n, count)


@lru_cache(maxsize=256)
def _groups_by_width(cuts: tuple, n: int, count: int) -> tuple[np.ndarray, ...]:
    if count > 1:
        offsets = n * np.arange(count)[:, None, None]
        groups = tuple((idx + offsets).reshape(-1, idx.shape[1]) for idx in _groups_by_width(cuts, n, 1))
    else:
        spans = np.array(partition_from_cuts(cuts, n))
        starts, widths = spans[:, 0], spans[:, 1] - spans[:, 0]
        groups = tuple(starts[widths == w][:, None] + np.arange(w) for w in sorted(set(widths.tolist())))
    for array in groups:
        array.flags.writeable = False
    return groups


def _dense(n: int, blocks, dtype) -> np.ndarray:
    """The n x n matrix with these (index, values) diagonal blocks, zero elsewhere."""
    m = np.zeros((n, n), dtype=dtype)
    for index, values in blocks:
        m[index[..., :, None], index[..., None, :]] = values
    return m


@dataclass(frozen=True, eq=False)
class SusceptanceMatrix:
    """Real symmetric susceptance matrix B, held in its architecture's layout.

    The architecture decides the layout, one of three:

    - blocks, a tuple of (index, values) entries, one per block width w:
      index has shape (g, w), the elements of each of g blocks, and values
      shape (g, w, w), their blocks of B.  The optimizer hands over sc's
      diagonal as one width-1 stack, and gc's and fc's groups of width 4
      or less and those of their wider groups that take no closed form
      (dead, degenerate and SVD-fallback groups), while a dense matrix
      given alone (anything but a tuple) is one block of width n, kept
      2-D with index of shape (n,).  Every entry outside the blocks is
      zero, so each block being finite and exactly symmetric is the check
      of the dense B.
    - factors, a tuple of (index, q, s) entries beside the blocks: each of
      the g groups of width w in index (g, w) holds its block of B as
      Q S Q^T, with q of shape (g, w, r) with orthonormal columns and s of
      shape (g, r, r), r <= w.  The optimizer hands over the closed-form
      groups wider than 4 this way, fc's one group among them, as the
      closed form has rank at most 4.  Each s being finite and exactly
      symmetric, and each q finite, is the check of the dense B; the
      Cayley map relies on Q^T Q = I, and the scattering check measures
      how far the q handed over is from it.
    - bands, the (diagonal, couplings) of a tridiagonal B, of shapes (n,)
      and (n - 1,), as the optimizer hands tc's over.  Coupling k is
      B_{k,k+1} = B_{k+1,k}, so the layout is symmetric by construction
      and both bands being finite is the check of the dense B.

    .matrix builds the dense B only on request, a factored block as the
    mean of Q S Q^T and its transpose, so that it is exactly symmetric.
    """

    blocks: tuple[tuple[np.ndarray, np.ndarray], ...] = ()
    bands: tuple[np.ndarray, np.ndarray] | None = None
    factors: tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...] = ()
    n: int = field(init=False)

    def __post_init__(self):
        if self.bands is not None:
            self._check_bands()
            return
        blocks = self.blocks
        if not isinstance(blocks, tuple):
            m = np.asarray(blocks, dtype=float)
            blocks = ((np.arange(m.shape[0] if m.ndim else 0), m),)
        checked = []
        for index, values in blocks:
            values = np.asarray(values, dtype=float)
            if values.shape != index.shape + index.shape[-1:]:
                raise InputError(f"susceptance blocks must be square, got shape {values.shape}")
            _check_symmetric(values)
            checked.append((index, values))
        factors = []
        for index, q, s in self.factors:
            q = np.asarray(q, dtype=float)
            s = np.asarray(s, dtype=float)
            if (q.shape[:-1] != index.shape or s.shape != index.shape[:-1] + q.shape[-1:] * 2
                    or not 1 <= q.shape[-1] <= index.shape[-1]):
                raise InputError(f"susceptance factors of shapes {q.shape} and {s.shape} "
                                 f"do not fit groups of shape {index.shape}")
            if not np.isfinite(q).all():
                raise InputError("susceptance entries must be finite")
            _check_symmetric(s)
            factors.append((index, q, s))
        n = sum(entry[0].size for entry in checked + factors)
        if n == 0:
            raise InputError("susceptance matrix must be nonempty")
        object.__setattr__(self, "blocks", tuple(checked))
        object.__setattr__(self, "factors", tuple(factors))
        object.__setattr__(self, "n", n)

    def _check_bands(self) -> None:
        if not isinstance(self.blocks, tuple) or self.blocks or self.factors:
            raise InputError("susceptance matrix takes blocks and factors, or bands, not both")
        diag, coupling = (np.asarray(band, dtype=float) for band in self.bands)
        if diag.ndim != 1 or diag.size == 0 or coupling.shape != (diag.size - 1,):
            raise InputError(f"tridiagonal bands must have shapes (n,) and (n - 1,) with n >= 1, "
                             f"got {diag.shape} and {coupling.shape}")
        if not (np.isfinite(diag).all() and np.isfinite(coupling).all()):
            raise InputError("susceptance entries must be finite")
        object.__setattr__(self, "bands", (diag, coupling))
        object.__setattr__(self, "n", diag.size)

    @cached_property
    def matrix(self) -> np.ndarray:
        """The dense n x n B."""
        if self.bands is None:
            expanded = []
            for index, q, s in self.factors:
                values = q @ s @ q.swapaxes(-1, -2)
                expanded.append((index, 0.5 * (values + values.swapaxes(-1, -2))))
            return _dense(self.n, self.blocks + tuple(expanded), float)
        diag, coupling = self.bands
        m = np.diag(diag)
        k = np.arange(self.n - 1)
        m[k, k + 1] = m[k + 1, k] = coupling
        return m

    def conforms(self, spec: ArchitectureSpec) -> bool:
        """True when every entry outside the architecture pattern is zero."""
        return not np.any(self.matrix[~pattern_mask(spec)])


def _check_symmetric(values: np.ndarray) -> None:
    if not np.isfinite(values).all():
        raise InputError("susceptance entries must be finite")
    # a stack of width-1 blocks (all of sc) is its own transpose
    if values.shape[-1] > 1 and not (values == values.swapaxes(-1, -2)).all():
        raise InputError("susceptance matrix must be exactly symmetric")


@dataclass(frozen=True, eq=False)
class ScatteringMatrix:
    """Symmetric unitary scattering matrix, held in its susceptance's layout.

    The layout is one of three:

    - blocks holds one (index, theta) entry per block width, in the layout
      of the SusceptanceMatrix it was mapped from, a lone block without its
      leading axis.  Each width's stack is checked at construction by
      linalg.check_symmetric_unitary, against the absolute THETA_SYM_TOL
      and THETA_UNITARY_TOL; as the off-block entries of Theta and Theta^H
      Theta are exactly zero, that is the check of the dense matrix.
    - factors, beside the blocks, holds one (index, q, core) entry per
      factored width: a group's block of Theta is I + Q (Theta_S - I) Q^T,
      with Theta_S the r x r core.  Each stack of cores goes through the
      same call, and its defects bound those of the dense groups
      (_factored_check).
    - ldl, a tridiagonal B's Theta = 2 M^-1 - I as the L D L^T factors of M
      = I + j z0 B (linalg.TridiagonalLDL).  The construction check is
      check_symmetric_unitary's O(n) bound on the operator of the stored
      factors; scattering_from_susceptance holds Theta this way only when
      that bound passes, and otherwise as one dense block from the same
      factors, the O(n^2) dense sweep, checked in full.

    Every entry outside the groups is zero.  The defects are the maximum
    over the checks, taken at construction for blocks and factors; for ldl
    they are those of the dense check .matrix runs, taken when either is
    first read.  .matrix builds the dense Theta only on request; for ldl it
    is the dense sweep of _tridiagonal_cayley, checked like a dense block,
    and raises NumericalFailure when that check fails.  apply() costs O(w
    r) per factored group and O(n) for ldl.
    """

    n: int
    blocks: tuple[tuple[np.ndarray, np.ndarray], ...] = ()
    factors: tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...] = ()
    ldl: TridiagonalLDL | None = None

    def __post_init__(self):
        if self.ldl is not None:
            if self.blocks or self.factors or self.ldl.pivots.shape != (self.n,):
                raise InputError(f"tridiagonal factors do not fit the {self.n} elements alone")
            _verdict([check_symmetric_unitary(self.ldl)])
            return
        if sum(entry[0].size for entry in self.blocks + self.factors) != self.n:
            raise InputError(f"blocks do not cover the {self.n} elements")
        checks = [check_symmetric_unitary(theta) for _, theta in self.blocks]
        checks += [_factored_check(q, core) for _, q, core in self.factors]
        object.__setattr__(self, "_defects", _verdict(checks))

    @property
    def symmetry_defect(self) -> float:
        """Max-abs-entry defect of Theta - Theta^T, or a bound on it."""
        return self._dense_defects()[0]

    @property
    def unitarity_defect(self) -> float:
        """Max-abs-entry defect of Theta^H Theta - I, or a bound on it."""
        return self._dense_defects()[1]

    def _dense_defects(self) -> tuple[float, float]:
        if "_defects" not in self.__dict__:
            self.matrix  # the ldl layout's dense check runs with its dense Theta
        return self._defects

    @cached_property
    def matrix(self) -> np.ndarray:
        """The dense n x n Theta."""
        if self.ldl is not None:
            theta = _tridiagonal_cayley(self.ldl)
            object.__setattr__(self, "_defects", _verdict([check_symmetric_unitary(theta)]))
            return theta
        expanded = []
        for index, q, core in self.factors:
            m = core - np.eye(core.shape[-1])
            expanded.append((index, np.eye(index.shape[-1]) + q @ m @ q.swapaxes(-1, -2)))
        return _dense(self.n, self.blocks + tuple(expanded), complex)

    def apply(self, x) -> np.ndarray:
        """Theta x, block by block and group by group, or by the L D L^T sweeps."""
        if self.ldl is not None:
            return _ldl_apply(self.ldl, x)
        y = np.empty(self.n, dtype=complex)
        for index, theta in self.blocks:
            # a batched matmul, not an elementwise product, even at width 1:
            # it rounds like the BLAS gemv of the dense Theta, which keeps sc
            # bit for bit
            y[index] = (theta @ x[index][..., None])[..., 0]
        for index, q, core in self.factors:
            xg = x[index]
            t = q.swapaxes(-1, -2) @ xg[..., None]
            y[index] = xg + (q @ (core @ t - t))[..., 0]
        return y


def _verdict(checks) -> tuple[float, float]:
    """(symmetry, unitarity) defects, the maximum over the checks; raises if one fails."""
    sym = max(c.symmetry_defect for c in checks)
    uni = max(c.unitarity_defect for c in checks)
    if not all(c.ok for c in checks):
        raise NumericalFailure(
            f"scattering matrix check failed: symmetry defect {sym:.3e}, unitarity defect {uni:.3e}"
        )
    return sym, uni


def _factored_check(q: np.ndarray, core: np.ndarray) -> MatrixCheck:
    """Bounds on the defects of the dense Theta = I + Q (Theta_S - I) Q^T of each group.

    The bounds are never below the max-abs-entry defects that
    check_symmetric_unitary reports on the dense n x n Theta that .matrix
    builds, and they take O(w r^2) work per group.  With the core stack's
    checked defects s_S = max|Theta_S - Theta_S^T| and u_S = max|Theta_S^H
    Theta_S - I|, M = Theta_S - I, m = ||M||_F >= ||M||_2 and E = Q^T Q - I:

    - ||Q A Q^T||_max = max_ij |q_i^T A q_j| <= ||Q||_2^2 ||A||_2 (q_i the
      rows of Q), with ||Q||_2^2 = ||Q^T Q||_2 <= 1 + e for e >= ||E||_2,
      and ||A||_2 <= r ||A||_max for an r x r A.
    - Theta - Theta^T = Q (Theta_S - Theta_S^T) Q^T, so the exact
      symmetry defect is at most (1 + e) r s_S.
    - Theta^H Theta - I = Q (Theta_S^H Theta_S - I + M^H E M) Q^T, by
      expanding with Q^T Q = I + E, so the exact unitarity defect is at
      most u_x = (1 + e)(r u_S + m^2 e).

    e is ||fl(Q^T Q) - I||_F, widened by the rounding of that length-w
    product.  What remains is the rounding of the dense arithmetic: each
    entry of the dense Theta, a sum of at most 2r + 1 products, sits
    within a/2 of the exact one and each column within a/2 in 2-norm,
    with a = (2r + 2) eps (1 + 2 (1 + e) m).  That moves the symmetry
    defect by at most a.  Columns of Theta have 2-norm at most 1 + u_x,
    so the unitarity defect moves by at most 2 (1 + u_x) a.  The check's
    own rounding is that of real arithmetic on Theta = R + jI, with c = (1
    + u_x + a)^2 bounding the product of two column norms: the real part
    of each entry of Theta^H Theta - I is one length-2w real inner product
    (R^T R + I^T I), off by at most gamma_2w c, and its imaginary part the
    difference of two length-w ones (R^T I - (R^T I)^T), off by at most 2
    gamma_w c, so the modulus moves by at most their root sum of squares,
    2 sqrt(2) w eps c to first order.  With a few eps of c for the
    subtraction of I, the squares and the square root, the check adds at
    most (3w + 4) eps c.  The bounds are these sums, maximized over the
    stack.
    """
    width, r = q.shape[-2:]
    check = check_symmetric_unitary(core)
    eye = _identity(r)
    gram_defect = _max_frobenius(q.swapaxes(-1, -2) @ q - eye)
    e = gram_defect + 2 * (width + 1) * _EPS * (1.0 + gram_defect)
    m = _max_frobenius(core - eye)
    sym = (1.0 + e) * r * check.symmetry_defect
    uni = (1.0 + e) * (r * check.unitarity_defect + m * m * e)
    a = (2 * r + 2) * _EPS * (1.0 + 2.0 * (1.0 + e) * m)
    sym += a
    uni += 2.0 * (1.0 + uni) * a + (3 * width + 4) * _EPS * (1.0 + uni + a) ** 2
    return MatrixCheck(sym, uni, sym <= THETA_SYM_TOL and uni <= THETA_UNITARY_TOL)


def _max_frobenius(m: np.ndarray) -> float:
    """The largest Frobenius norm over a stack of real or complex matrices."""
    a = np.abs(m) if np.iscomplexobj(m) else m
    return math.sqrt((a * a).sum(axis=(-2, -1)).max())


def scattering_from_susceptance(b, z0: float = DEFAULT_Z0) -> ScatteringMatrix:
    """Lossless scattering matrix of a susceptance matrix, in B's layout.

    Theta = (I + j z0 B)^-1 (I - j z0 B) is block-diagonal on B's blocks, so
    each of b.blocks is mapped on its own: a width-1 stack entry by entry,
    Theta_ii = (1 - j z0 B_ii) / (1 + j z0 B_ii) (all of sc); each wider
    stack, or the one 2-D block of a dense B, as 2 (I + j z0 B)^-1 - I by
    one batched LU solve against I (_cayley), which keeps the defects at
    rounding level whatever B's scale.  A factored group B = Q S Q^T (Q^T Q
    = I) maps through its r x r core: by the Woodbury identity (I + j z0 Q S Q^T)^-1 = I +
    Q ((I + j z0 S)^-1 - I) Q^T, so Theta = I + Q (Theta_S - I) Q^T with
    Theta_S = (I + j z0 S)^-1 (I - j z0 S), the Cayley map of S, solved
    like a width-r block.  A tridiagonal B given as its bands maps to the
    L D L^T factors of I + j z0 B (_tridiagonal_ldl), held as the operator
    2 (L D L^T)^-1 - I and checked by the O(n) bound; only when the bound
    fails THETA_UNITARY_TOL does Theta fall back to one dense width-n block
    from the O(n^2) sweep of the same factors, checked in full.  No dense n
    x n Theta is formed on the other paths unless .matrix is read.  For
    real symmetric B the result is symmetric unitary up to rounding; the
    construction check enforces that.
    """
    if not isinstance(b, SusceptanceMatrix):
        b = SusceptanceMatrix(b)
    _check_z0(z0)
    if b.bands is not None:
        diag, coupling = b.bands
        ldl = _tridiagonal_ldl(1.0 + 1j * z0 * diag, 1j * z0 * coupling)
        try:
            return ScatteringMatrix(b.n, ldl=ldl)
        except NumericalFailure:
            return ScatteringMatrix(b.n, ((np.arange(b.n), _tridiagonal_cayley(ldl)),))
    blocks = tuple((index, _cayley(values, z0)) for index, values in b.blocks)
    factors = tuple((index, q, _cayley(s, z0)) for index, q, s in b.factors)
    return ScatteringMatrix(b.n, blocks, factors)


def _cayley(values: np.ndarray, z0: float) -> np.ndarray:
    """Theta of each block of a stack, or of one 2-D block.

    A wider block takes Theta = 2 (I + j z0 B)^-1 - I, the form of the
    tridiagonal sweep, with the inverse from one LU solve against I
    (np.linalg.inv is LAPACK's gesv on I, bit for bit solve(M, I)).
    Solving against I - j z0 B instead carries B's scale into the rounding
    of Theta, and on blocks with large entries its symmetry defect reached
    THETA_SYM_TOL.
    """
    jb = 1j * z0 * values
    width = values.shape[-1]
    if width == 1:
        return (1 - jb) / (1 + jb)
    eye = _identity(width)
    jb += eye  # I + j z0 B, in place
    try:
        theta = np.linalg.inv(jb)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure(f"scattering solve failed: {exc}") from exc
    theta *= 2.0
    theta -= eye
    return theta


@lru_cache(maxsize=64)
def _identity(width: int) -> np.ndarray:
    """The width x width identity, cached read-only: the Cayley map and the factored check take it per call."""
    eye = np.eye(width)
    eye.flags.writeable = False
    return eye


def _tridiagonal_ldl(a: np.ndarray, c: np.ndarray) -> TridiagonalLDL:
    """L D L^T factors of the complex symmetric tridiagonal M with diagonal a and couplings c, in O(n).

    It factors with no pivoting: d_0 = a_0, l_k = c_k / d_k and d_{k+1} =
    a_{k+1} - l_k c_k.  For M = I + j z0 B, a_k = 1 + j z0 B_kk and c_k = j
    z0 B_{k,k+1}, no pivot vanishes, as Re M = I gives Re d_k = 1 + z0^2
    B_{k-1,k}^2 Re(d_{k-1}) / |d_{k-1}|^2 >= 1.
    """
    a = a.tolist()
    pivot = a[0]
    d = [pivot]
    mult = []
    for ak, ck in zip(a[1:], c.tolist()):
        lk = ck / pivot
        pivot = ak - lk * ck
        mult.append(lk)
        d.append(pivot)
    return TridiagonalLDL(np.array(d), np.array(mult, dtype=complex), c)


def _tridiagonal_cayley(f: TridiagonalLDL) -> np.ndarray:
    """Dense Theta = 2 M^-1 - I from the factors of M, in O(n^2).

    With the pivots on L's diagonal (Crout form), M = L U: L lower
    bidiagonal with d_k on its diagonal and c_{k-1} below it, U unit upper
    bidiagonal with l_k above it.  A forward sweep builds 2 L^-1 row by
    row, and a back substitution over its n columns gives 2 M^-1 = U^-1
    (2 L^-1): a few numpy row operations per step and no dense solve.  Both
    triangles come out of the sweeps, neither mirrored from the other, so
    the symmetry check of Theta still measures the rounding.
    """
    u = f.pivots.tolist()
    c = f.couplings.tolist()
    mult = f.multipliers.tolist()
    n = len(u)
    theta = np.zeros((n, n), dtype=complex)
    rows = list(theta)
    # forward sweep: row k of 2 L^-1 is -(c_{k-1} / d_k) times row k - 1,
    # plus 2 / d_k on the diagonal
    rows[0][0] = 2.0 / u[0]
    for k in range(1, n):
        np.multiply(rows[k - 1], -c[k - 1] / u[k], out=rows[k])
        rows[k][k] = 2.0 / u[k]
    # back substitution: row k -= l_k row k + 1
    scaled = np.empty(n, dtype=complex)
    for k in range(n - 2, -1, -1):
        np.multiply(rows[k + 1], mult[k], out=scaled)
        np.subtract(rows[k], scaled, out=rows[k])
    theta.flat[:: n + 1] -= 1.0
    return theta


def _ldl_apply(f: TridiagonalLDL, x) -> np.ndarray:
    """2 M^-1 x - x with M = L D L^T: two bidiagonal sweeps and a diagonal scaling, O(n)."""
    mult = f.multipliers.tolist()
    y = []
    prev = 0j
    for xk, lk in zip(x.tolist(), [0j] + mult):  # L y = x
        prev = xk - lk * prev
        y.append(prev)
    w = []
    prev = 0j
    for zk, lk in zip(reversed((np.array(y) / f.pivots).tolist()), reversed(mult + [0j])):  # L^T w = D^-1 y
        prev = zk - lk * prev
        w.append(prev)
    return 2.0 * np.array(w[::-1]) - x


def received_power(pair, theta) -> float:
    """|h_r^H Theta h_t|^2 at unit transmit power with no direct link."""
    if isinstance(theta, ScatteringMatrix):
        if theta.n != pair.n:
            raise InputError(f"scattering matrix size {theta.n} does not match n = {pair.n}")
        return float(abs(np.vdot(pair.h_r, theta.apply(pair.h_t))) ** 2)
    m = np.asarray(theta, dtype=complex)
    if m.shape != (pair.n, pair.n):
        raise InputError(f"scattering matrix shape {m.shape} does not match n = {pair.n}")
    return float(abs(np.vdot(pair.h_r, m @ pair.h_t)) ** 2)


def upper_bound_full(pair) -> float:
    """Received-power bound ||h_r||^2 ||h_t||^2, valid for every architecture: full_bounds of one pair.

    The norms are those the pair's check computed (ChannelPair.norm_r and
    norm_t), rounded as np.linalg.norm rounds them.
    """
    return _full_bound(pair.norm_r, pair.norm_t)


def full_bounds(norms_r, norms_t) -> list[float]:
    """upper_bound_full of each row of a stack, from the 1-D arrays of its row norms.

    linalg.row_norms rounds each norm as np.linalg.norm does, so every bound
    is the one upper_bound_full gives the row alone.
    """
    return [_full_bound(a, b) for a, b in zip(norms_r, norms_t)]


def _full_bound(norm_r, norm_t) -> float:
    """||h_r||^2 ||h_t||^2 from numpy float64 norms, each squared by pow as numpy squares a scalar.

    pow can differ from x * x in the last bit, so the square is taken the
    one way for every caller.
    """
    return float(norm_r ** 2 * norm_t ** 2)


def upper_bound_gc(pair, cuts) -> float:
    """Group-connected bound: (sum_g ||h_r,g|| ||h_t,g||)^2 over the cut partition.

    The group norms are group_norms of each width's groups, and the sum
    runs width by width (group_bounds), as the optimizer sums a pair's
    bound from the norms its group solve formed, so the two agree bit for
    bit.  A singleton group's norm is the modulus, sc's element norm, so
    the all-singleton partition gives sc's bound bit for bit.
    """
    return group_bounds([(group_norms(pair.h_r[idx]), group_norms(pair.h_t[idx]))
                         for idx in groups_by_width(cuts, pair.n)], 1)[0]


def group_norms(h) -> np.ndarray:
    """The norm of each row of h (its last axis, a group's entries): linalg.row_norms, the modulus at width 1.

    row_norms rounds each norm as np.linalg.norm does.  A one-entry group
    takes np.abs instead, the element norm of sc's bound, which a nonzero
    entry never underflows to zero in, as its sqrt(re^2 + im^2) can.
    """
    return np.abs(h[..., 0]) if h.shape[-1] == 1 else row_norms(h)


def group_bounds(norms, count: int) -> list[float]:
    """upper_bound_gc of each of count pairs, from the group norms of every width of their partition.

    norms holds one (norms_r, norms_t) per width, each a 1-D array of that
    width's group norms with the pairs' groups one pair after another.
    Each pair's sum of ||h_r,g|| ||h_t,g|| is taken width by width, each
    width's part a row sum of a contiguous (count, g) array, so it rounds
    as it does for the pair alone.
    """
    sums = [(norms_r * norms_t).reshape(count, -1).sum(axis=1) for norms_r, norms_t in norms]
    return [float(s ** 2) for s in sum(sums[1:], sums[0])]


def _check_z0(z0) -> None:
    if not Z0_MIN <= z0 <= Z0_MAX:  # False for nan too
        raise InputError(f"reference impedance must lie in [{Z0_MIN:g}, {Z0_MAX:g}], got {z0!r}")
