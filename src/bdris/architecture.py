"""RIS architectures: sparsity patterns, the lossless scattering map, power, bounds.

A reconfigurable surface is modeled by a real symmetric susceptance matrix
B restricted to an architecture-dependent sparsity pattern.  The lossless
scattering matrix follows from B through a Cayley-type relation and is
always symmetric unitary; received power and its architecture-dependent
upper bounds are plain inner products.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import InputError, NumericalFailure
from .linalg import check_symmetric_unitary

DEFAULT_Z0 = 50.0

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


def groups_by_width(cuts, n: int) -> list[np.ndarray]:
    """Element index of the cut partition's groups, one (g, w) array per width w.

    Row i of a width's array holds the elements of its i-th group of that
    width.  Widths come in increasing order.
    """
    spans = np.array(partition_from_cuts(cuts, n))
    starts, widths = spans[:, 0], spans[:, 1] - spans[:, 0]
    return [starts[widths == w][:, None] + np.arange(w) for w in sorted(set(widths.tolist()))]


def _dense(n: int, blocks, dtype) -> np.ndarray:
    """The n x n matrix with these (index, values) diagonal blocks, zero elsewhere."""
    m = np.zeros((n, n), dtype=dtype)
    for index, values in blocks:
        m[index[..., :, None], index[..., None, :]] = values
    return m


@dataclass(frozen=True, eq=False)
class SusceptanceMatrix:
    """Real symmetric susceptance matrix B, held as its diagonal blocks.

    blocks is a tuple of (index, values) entries, one per block width w:
    index has shape (g, w), the elements of each of g blocks, and values
    shape (g, w, w), their blocks of B.  The architecture decides the
    layout: optimize_sc hands over one width-1 stack and optimize_gc its
    groups, while a dense matrix given alone (anything but a tuple) is one
    block of width n, kept 2-D with index of shape (n,).  Every entry
    outside the blocks is zero, so each block being finite and exactly
    symmetric is the check of the dense B, which .matrix builds only on
    request.
    """

    blocks: tuple[tuple[np.ndarray, np.ndarray], ...]
    n: int = field(init=False)

    def __post_init__(self):
        blocks = self.blocks
        if not isinstance(blocks, tuple):
            m = np.asarray(blocks, dtype=float)
            blocks = ((np.arange(m.shape[0] if m.ndim else 0), m),)
        checked = []
        for index, values in blocks:
            values = np.asarray(values, dtype=float)
            if values.shape != index.shape + index.shape[-1:]:
                raise InputError(f"susceptance blocks must be square, got shape {values.shape}")
            if not np.isfinite(values).all():
                raise InputError("susceptance entries must be finite")
            if not np.array_equal(values, values.swapaxes(-1, -2)):
                raise InputError("susceptance matrix must be exactly symmetric")
            checked.append((index, values))
        n = sum(index.size for index, _ in checked)
        if n == 0:
            raise InputError("susceptance matrix must be nonempty")
        object.__setattr__(self, "blocks", tuple(checked))
        object.__setattr__(self, "n", n)

    @cached_property
    def matrix(self) -> np.ndarray:
        """The dense n x n B."""
        return _dense(self.n, self.blocks, float)

    def conforms(self, spec: ArchitectureSpec) -> bool:
        """True when every entry outside the architecture pattern is zero."""
        return not np.any(self.matrix[~pattern_mask(spec)])


@dataclass(frozen=True, eq=False)
class ScatteringMatrix:
    """Symmetric unitary scattering matrix, held as its diagonal blocks.

    blocks holds one (index, theta) entry per block width, in the layout of
    the SusceptanceMatrix it was mapped from, a lone block without its
    leading axis.  Every entry outside the blocks is zero.  Each width's
    stack is checked at construction by linalg.check_symmetric_unitary,
    against the absolute THETA_SYM_TOL and THETA_UNITARY_TOL, and the
    defects are the maximum over widths.  As the off-block entries of Theta
    and Theta^H Theta are exactly zero, that is the check of the dense
    matrix, which .matrix builds only on request.
    """

    n: int
    blocks: tuple[tuple[np.ndarray, np.ndarray], ...]
    symmetry_defect: float = field(default=0.0, init=False)
    unitarity_defect: float = field(default=0.0, init=False)

    def __post_init__(self):
        if sum(index.size for index, _ in self.blocks) != self.n:
            raise InputError(f"blocks do not cover the {self.n} elements")
        checks = [check_symmetric_unitary(theta) for _, theta in self.blocks]
        sym = max(c.symmetry_defect for c in checks)
        uni = max(c.unitarity_defect for c in checks)
        object.__setattr__(self, "symmetry_defect", sym)
        object.__setattr__(self, "unitarity_defect", uni)
        if not all(c.ok for c in checks):
            raise NumericalFailure(
                f"scattering matrix check failed: symmetry defect {sym:.3e}, unitarity defect {uni:.3e}"
            )

    @cached_property
    def matrix(self) -> np.ndarray:
        """The dense n x n Theta."""
        return _dense(self.n, self.blocks, complex)

    def apply(self, x) -> np.ndarray:
        """Theta x, block by block."""
        y = np.empty(self.n, dtype=complex)
        for index, theta in self.blocks:
            # a batched matmul, not an elementwise product, even at width 1:
            # it rounds like the BLAS gemv of the dense Theta, which keeps sc
            # bit for bit
            y[index] = (theta @ x[index][..., None])[..., 0]
        return y


def scattering_from_susceptance(b, z0: float = DEFAULT_Z0) -> ScatteringMatrix:
    """Lossless scattering matrix of a susceptance matrix, block by block.

    Theta = (I + j z0 B)^-1 (I - j z0 B) is block-diagonal on B's blocks, so
    each of b.blocks is mapped on its own, in B's layout: a width-1 stack
    entry by entry, Theta_ii = (1 - j z0 B_ii) / (1 + j z0 B_ii) (all of
    sc); each wider stack, or the one 2-D block of a dense B, by one batched
    solve of (I + j z0 B) Theta = (I - j z0 B) rather than an explicit
    inverse, for conditioning.  No dense n x n Theta is formed unless
    .matrix is read.  For real symmetric B the result is symmetric unitary
    up to rounding; the construction check enforces that.
    """
    if not isinstance(b, SusceptanceMatrix):
        b = SusceptanceMatrix(b)
    _check_z0(z0)
    blocks = []
    for index, values in b.blocks:
        jb = 1j * z0 * values
        width = index.shape[-1]
        if width == 1:
            theta = (1 - jb) / (1 + jb)
        else:
            eye = np.eye(width)
            try:
                theta = np.linalg.solve(eye + jb, eye - jb)
            except np.linalg.LinAlgError as exc:
                raise NumericalFailure(f"scattering solve failed: {exc}") from exc
        blocks.append((index, theta))
    return ScatteringMatrix(b.n, tuple(blocks))


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
    """Received-power bound ||h_r||^2 ||h_t||^2, valid for every architecture."""
    return float(np.linalg.norm(pair.h_r) ** 2 * np.linalg.norm(pair.h_t) ** 2)


def upper_bound_gc(pair, cuts) -> float:
    """Group-connected bound: (sum_g ||h_r,g|| ||h_t,g||)^2 over the cut partition.

    A singleton group's norm sqrt(|h|^2) rounds back to |h| exactly (short
    of underflow), so the all-singleton partition gives sc's bound
    (sum_i |h_r,i| |h_t,i|)^2 bit for bit.
    """
    starts = [lo for lo, _ in partition_from_cuts(cuts, pair.n)]
    nr = np.sqrt(np.add.reduceat(np.abs(pair.h_r) ** 2, starts))
    nt = np.sqrt(np.add.reduceat(np.abs(pair.h_t) ** 2, starts))
    return float(np.sum(nr * nt) ** 2)


def _check_z0(z0) -> None:
    if not np.isfinite(z0) or z0 <= 0:
        raise InputError(f"reference impedance must be positive and finite, got {z0!r}")
