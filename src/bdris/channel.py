"""Channel vectors, their generators, and the deterministic RNG behind them.

All randomness flows through ``Rng``, a counter-based SplitMix64 stream.
Pure 64-bit integer mixing plus IEEE-754 arithmetic makes every draw
reproducible bit for bit across platforms and library versions, which the
experiment harness relies on for byte-identical output.  An Rng over an
array of seeds is one stream per seed: a *_channels generator draws a row
per seed, the pair its seed gives alone (gen_* at one stream), and raises
at the first row it cannot draw, with error.valid the rows before it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import InputError, NumericalFailure
from .linalg import proportional_adjacencies, row_norms

_MASK64 = (1 << 64) - 1
# SplitMix64 constants: stream increment and the two avalanche multipliers.
GOLDEN_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

# Swapped-pair moduli closer than this (relative) put the membership test
# on a knife edge, so such draws are rejected.
_SWAP_MODULI_RTOL = 1e-6
# Attempts allowed per row of tc_adversarial_channels.
_SWAP_MAX_RETRIES = 100


def splitmix64(z: int) -> int:
    """One SplitMix64 avalanche round of a 64-bit integer: splitmix64_array of one entry."""
    return int(splitmix64_array(np.array([int(z) & _MASK64], dtype=np.uint64))[0])


def splitmix64_array(z: np.ndarray) -> np.ndarray:
    """The SplitMix64 avalanche of every entry of a uint64 array, in wrapping arithmetic."""
    z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX1)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
    return z ^ (z >> np.uint64(31))


class Rng:
    """Deterministic uniform and complex-Gaussian source: one stream, or one per seed of an array.

    Draw k of a stream is splitmix64(seed + (k + 1) * GOLDEN_GAMMA), so
    the stream is a pure function of (seed, draw index): identical seeds
    give identical streams everywhere, and bulk draws vectorize over
    numpy's wrapping uint64 arithmetic.  Rng(seed) is one stream, and a
    draw of n values has shape (n,).  Rng(seeds), seeds a 1-D array, is
    one stream per seed advanced together: a draw has shape (len(seeds),
    n), and its row t is bit for bit the same draw of Rng(seeds[t]).
    """

    algorithm = "splitmix64"

    def __init__(self, seed):
        if np.ndim(seed) == 0:
            seeds = np.array(int(seed) & _MASK64, dtype=np.uint64)
        else:
            # Python ints go in as objects, which keeps seeds past 2^63 exact
            seeds = seed if isinstance(seed, np.ndarray) else np.array(seed, dtype=object)
            if seeds.ndim != 1:
                raise InputError(f"seeds must be one integer or a 1-D array, got shape {seeds.shape}")
            if seeds.dtype.kind in "iu":
                seeds = seeds.astype(np.uint64)  # two's complement, as & _MASK64
            else:
                seeds = np.array([int(v) & _MASK64 for v in seeds.tolist()], dtype=np.uint64)
        self._seeds = seeds[..., None]  # (1,) or (rows, 1), broadcast against the draw index
        self._count = 0

    def _raw(self, n: int) -> np.ndarray:
        k = np.arange(self._count + 1, self._count + n + 1, dtype=np.uint64)
        self._count += n
        return splitmix64_array(self._seeds + k * np.uint64(GOLDEN_GAMMA))

    def uniform(self, n: int) -> np.ndarray:
        """n doubles uniform on [0, 1) per stream."""
        return (self._raw(n) >> np.uint64(11)) * 2.0**-53

    def uniform_pos(self, n: int) -> np.ndarray:
        """n doubles uniform on (0, 1] per stream; safe under log()."""
        return ((self._raw(n) >> np.uint64(11)) + np.uint64(1)) * 2.0**-53

    def complex_gaussian(self, n: int) -> np.ndarray:
        """n circularly-symmetric complex Gaussians with zero mean, unit variance, per stream.

        Polar Box-Muller: the squared modulus is Exp(1) from one uniform,
        the phase is uniform from the next.  Draw order: moduli first,
        then phases.
        """
        mag = np.sqrt(-np.log(self.uniform_pos(n)))
        phase = 2.0 * np.pi * self.uniform(n)
        return mag * np.exp(1j * phase)

    def blocks(self, count: int, width: int) -> Rng:
        """One stream per block of the next count blocks of width draws: draws of shape (..., count, k)."""
        starts = (self._count + width * np.arange(count, dtype=np.uint64)) * np.uint64(GOLDEN_GAMMA)
        blocks = Rng.__new__(Rng)
        blocks._seeds, blocks._count = (self._seeds + starts)[..., None], 0
        self._count += count * width
        return blocks


class RowCheck(NamedTuple):
    """check_rows of a stack: its row norms, the rows before the first that fails, and that row's error."""

    norms_r: np.ndarray
    norms_t: np.ndarray
    valid: int
    error: InputError | None


def check_rows(h_r, h_t) -> RowCheck:
    """ChannelPair's rule on every row (the last axis) of a stack of channel pairs.

    A row passes when its entries are finite and ||h_r||^2 ||h_t||^2 is a
    finite positive float, the norms as np.linalg.norm rounds them
    (linalg.row_norms).  error is the InputError of the first row that
    fails, None when every row passes, and valid (also error.valid) the
    number of rows before it.  A pair of vectors is one row.
    """
    # an overflowing norm or product is inf, and a row with a non-finite
    # entry has an inf or nan product: all are rejected below
    with np.errstate(over="ignore", invalid="ignore"):
        nr, nt = row_norms(h_r), row_norms(h_t)
        full = (nr * nr) * (nt * nt)
    passes = np.ravel((full > 0.0) & (full < np.inf))
    if passes.all():
        return RowCheck(nr, nt, passes.size, None)
    t = int(np.argmin(passes))
    n = np.shape(h_r)[-1]
    finite = np.isfinite(np.reshape(h_r, (-1, n))[t]).all() and np.isfinite(np.reshape(h_t, (-1, n))[t]).all()
    message = ("channel vectors must have positive norm and a finite ||h_r||^2 ||h_t||^2 (channel "
               "scale out of range)" if finite else "channel entries must be finite")
    return RowCheck(nr, nt, t, _at_row(InputError(message), t))


@dataclass(frozen=True)
class ChannelPair:
    """Receiver-side and transmitter-side channel vectors of equal length.

    The full bound ||h_r||^2 ||h_t||^2 must be a finite positive float:
    check_rows at one row, whose norms the pair keeps as norm_r and norm_t.
    """

    h_r: np.ndarray
    h_t: np.ndarray
    norm_r: np.float64 = field(init=False, repr=False, compare=False)
    norm_t: np.float64 = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        h_r = np.asarray(self.h_r, dtype=complex)
        h_t = np.asarray(self.h_t, dtype=complex)
        object.__setattr__(self, "h_r", h_r)
        object.__setattr__(self, "h_t", h_t)
        if h_r.ndim != 1 or h_t.ndim != 1 or h_r.shape != h_t.shape:
            raise InputError(f"channel vectors must share one length, got {h_r.shape} and {h_t.shape}")
        if h_r.size == 0:
            raise InputError("channel vectors must be nonempty")
        check = check_rows(h_r, h_t)
        if check.error is not None:
            raise check.error
        object.__setattr__(self, "norm_r", check.norms_r)
        object.__setattr__(self, "norm_t", check.norms_t)

    @property
    def n(self) -> int:
        return self.h_r.size


@dataclass(frozen=True)
class ChannelStack:
    """Channel pairs of one length as the rows of two (trials, n) arrays.

    Every row passes ChannelPair's rule (check_rows); construction raises
    the error of the first row that does not, and keeps the row norms it
    computed as norms_r and norms_t.  len() is the number of pairs, and
    stack[t] is row t as a ChannelPair.
    """

    h_r: np.ndarray
    h_t: np.ndarray
    norms_r: np.ndarray = field(init=False, repr=False, compare=False)
    norms_t: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        h_r = np.asarray(self.h_r, dtype=complex)
        h_t = np.asarray(self.h_t, dtype=complex)
        object.__setattr__(self, "h_r", h_r)
        object.__setattr__(self, "h_t", h_t)
        if h_r.ndim != 2 or h_r.shape != h_t.shape:
            raise InputError(f"channel stacks must share one (trials, n) shape, got {h_r.shape} "
                             f"and {h_t.shape}")
        if h_r.shape[1] == 0:
            raise InputError("channel vectors must be nonempty")
        check = check_rows(h_r, h_t)
        if check.error is not None:
            raise check.error
        object.__setattr__(self, "norms_r", check.norms_r)
        object.__setattr__(self, "norms_t", check.norms_t)

    @classmethod
    def of(cls, pairs, n: int) -> ChannelStack:
        """The stack of a sequence of pairs of length n, which may be empty."""
        return cls(np.array([pair.h_r for pair in pairs], complex).reshape(len(pairs), n),
                   np.array([pair.h_t for pair in pairs], complex).reshape(len(pairs), n))

    @property
    def n(self) -> int:
        return self.h_r.shape[1]

    def __len__(self) -> int:
        return self.h_r.shape[0]

    def __getitem__(self, t: int) -> ChannelPair:
        return ChannelPair(self.h_r[t], self.h_t[t])


def normalize(v) -> np.ndarray:
    """Unit-norm copy of a complex vector; rejects the zero vector."""
    v = np.asarray(v, dtype=complex)
    nrm = np.linalg.norm(v)
    if nrm == 0.0:
        raise InputError("cannot normalize a zero vector")
    return v / nrm


def gen_rayleigh(n: int, rng: Rng) -> ChannelPair:
    """i.i.d. CN(0, 1) fading on both links: rayleigh_channels of one stream."""
    return ChannelPair(*rayleigh_channels(n, rng))


def rayleigh_channels(n: int, rng: Rng) -> tuple[np.ndarray, np.ndarray]:
    """(h_r, h_t) of i.i.d. CN(0, 1) fading, one row per stream of rng.  Draw order: h_r, then h_t."""
    _check_size(n)
    return rng.complex_gaussian(n), rng.complex_gaussian(n)


def gen_los(n: int, rng: Rng) -> ChannelPair:
    """Unit-modulus line-of-sight channels with random link gains: los_channels of one stream."""
    return ChannelPair(*los_channels(n, rng))


def los_channels(n: int, rng: Rng) -> tuple[np.ndarray, np.ndarray]:
    """(h_r, h_t) of unit-modulus line-of-sight channels, one row per stream of rng.

    Entries are c1 * exp(j phi_k) and c2 * exp(j psi_k) with phases uniform
    on [0, 2pi) and gains c1, c2 uniform on (0.1, 10).  Draw order: c1, c2,
    the n phases of h_r, the n phases of h_t.
    """
    _check_size(n)
    c = 0.1 + 9.9 * rng.uniform(2)
    phi = 2.0 * np.pi * rng.uniform(n)
    psi = 2.0 * np.pi * rng.uniform(n)
    return c[..., :1] * np.exp(1j * phi), c[..., 1:] * np.exp(1j * psi)


def gen_gc_favorable(n: int, group_size: int, rng: Rng) -> ChannelPair:
    """Rayleigh h_r with h_t of one norm ratio on every group: gc_favorable_channels of one stream."""
    return ChannelPair(*gc_favorable_channels(n, group_size, rng))


def gc_favorable_channels(n: int, group_size: int, rng: Rng) -> tuple[np.ndarray, np.ndarray]:
    """(h_r, h_t) of Rayleigh h_r and h_t of one norm ratio on every group, one row per stream of rng.

    h_t restricted to each group of `group_size` elements points in a
    random direction but has norm gamma * ||h_r restricted to the group||,
    with a single gamma ~ U(0.1, 10) shared by all groups.  Draw order:
    h_r, gamma, then one unit direction per group.
    """
    _check_groups(n, group_size)
    h_r = rng.complex_gaussian(n)
    gamma = 0.1 + 9.9 * rng.uniform(1)
    directions = _unit_groups(rng.blocks(n // group_size, 2 * group_size).complex_gaussian(group_size))
    block_norms = row_norms(h_r.reshape(*h_r.shape[:-1], -1, group_size))
    return h_r, ((gamma * block_norms)[..., None] * directions).reshape(h_r.shape)


def gen_gc_adversarial(n: int, group_size: int, rng: Rng) -> ChannelPair:
    """Channels that defeat group-connected surfaces: gc_adversarial_channels of one stream."""
    return ChannelPair(*gc_adversarial_channels(n, group_size, rng))


def gc_adversarial_channels(n: int, group_size: int, rng: Rng) -> tuple[np.ndarray, np.ndarray]:
    """(h_r, h_t) that defeat group-connected surfaces of the given group size, one row per stream of rng.

    h_r has i.i.d. uniform(-1, 1) real and imaginary parts.  h_t is
    assembled group by group as a_g * f_g / ||f_g|| with f_g drawn like h_r
    and amplitudes a_g uniform on (0, 1], so the per-group norm ratios are
    generically all distinct.  Draw order: h_r real parts, h_r imaginary
    parts, then per group f_g (real parts, imaginary parts) and a_g.
    """
    _check_groups(n, group_size)
    h_r = _uniform_square(n, rng)
    groups = rng.blocks(n // group_size, 2 * group_size + 1)
    f = _uniform_square(group_size, groups)
    return h_r, (groups.uniform_pos(1) * _unit_groups(f)).reshape(h_r.shape)


def default_swap_extent(n: int) -> int:
    """Largest odd cut index q <= n - 1: swaps all floor(n/2) adjacent pairs."""
    if n < 2:
        raise InputError("swap construction needs n >= 2")
    q = n - 1
    return q if q % 2 == 1 else q - 1


def gen_tc_adversarial(n: int, rng: Rng, q: int | None = None) -> ChannelPair:
    """Channels whose tridiagonal steering system is rank deficient: tc_adversarial_channels of one stream."""
    return ChannelPair(*tc_adversarial_channels(n, rng, q))


def tc_adversarial_channels(n: int, rng: Rng, q: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """(h_r, h_t) whose tridiagonal steering system is rank deficient, one row per stream of rng.

    h_r is a normalized complex Gaussian; h_t copies it with adjacent
    entries (i, i+1) swapped for i = 1, 3, ..., q (1-based), planting a
    proportional adjacency of h_r + h_t at exactly those cuts.  Draws are
    rejected while any swapped pair has nearly equal moduli or any
    unplanted adjacency is accidentally proportional, so accepted draws
    have cut set exactly {1, 3, ..., q}: the adjacency test is
    linalg.proportional_adjacencies, the one adversarial.cut_set uses.
    Every stream draws a complex_gaussian of n per attempt, and a row keeps
    its first accepted one, so a row is its stream's alone.  A row with
    none in _SWAP_MAX_RETRIES attempts raises NumericalFailure.
    """
    _check_size(n)
    q = default_swap_extent(n) if q is None or n < 2 else q  # raises below n = 2
    if q % 2 == 0 or not 1 <= q <= n - 1:
        raise InputError(f"swap extent q = {q} must be odd and within [1, {n - 1}]")
    planted = set(range(1, q + 1, 2))  # 1-based, like the cuts
    swap = np.r_[np.arange(q + 1) ^ 1, q + 1:n]  # entry order of h_t
    h_r = np.empty(rng._seeds.shape[:-1] + (n,), complex)
    accepted = h_r.reshape(-1, n)  # a view of h_r, one row per stream
    pending = np.ones(len(accepted), bool)
    for _ in range(_SWAP_MAX_RETRIES):
        rows = np.flatnonzero(pending)
        h = rng.complex_gaussian(n).reshape(-1, n)[rows]
        nrm = row_norms(h)
        rows, h = rows[nrm != 0.0], h[nrm != 0.0] / nrm[nrm != 0.0, None]
        mod = np.abs(h)
        near = np.abs(mod - mod[:, swap]) <= _SWAP_MODULI_RTOL * np.maximum(mod, mod[:, swap])
        far = np.flatnonzero(~near[:, :q + 1].any(axis=1))
        keep = far[[planted.issuperset(cuts) for cuts, _ in
                    proportional_adjacencies(h[far] + h[far][:, swap])]]
        accepted[rows[keep]], pending[rows[keep]] = h[keep], False
        if not pending.any():
            return h_r, h_r[..., swap]
    raise _at_row(NumericalFailure(f"no acceptable swap-construction draw in {_SWAP_MAX_RETRIES} "
                                   f"attempts"), int(np.argmax(pending)))


def write_channel_json(pair: ChannelPair, fp) -> None:
    """Serialize a pair as {"n", "h_r", "h_t"} with [re, im] entry pairs."""
    doc = {
        "n": pair.n,
        "h_r": [[float(z.real), float(z.imag)] for z in pair.h_r],
        "h_t": [[float(z.real), float(z.imag)] for z in pair.h_t],
    }
    json.dump(doc, fp)
    fp.write("\n")


def read_channel_json(fp) -> ChannelPair:
    """Parse and validate the channel file format written by write_channel_json."""
    try:
        doc = json.load(fp)
    except (ValueError, RecursionError) as exc:  # bad syntax or encoding, deep nesting
        raise InputError(f"invalid channel JSON: {exc}") from exc
    if not isinstance(doc, dict) or not {"n", "h_r", "h_t"} <= set(doc):
        raise InputError('channel JSON must be an object with keys "n", "h_r", "h_t"')
    n = doc["n"]
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise InputError(f'"n" must be a positive integer, got {n!r}')
    vecs = []
    for key in ("h_r", "h_t"):
        entries = doc[key]
        if not isinstance(entries, list) or len(entries) != n:
            raise InputError(f'"{key}" must be a list of {n} [re, im] pairs')
        vec = np.empty(n, dtype=complex)
        for i, item in enumerate(entries):
            if (not isinstance(item, list) or len(item) != 2
                    or not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in item)):
                raise InputError(f'"{key}"[{i}] must be a [re, im] number pair')
            try:
                vec[i] = complex(item[0], item[1])
            except OverflowError as exc:
                raise InputError(f'"{key}"[{i}] is out of floating-point range') from exc
        vecs.append(vec)
    return ChannelPair(vecs[0], vecs[1])


def _check_size(n) -> None:
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise InputError(f"channel length must be a positive integer, got {n!r}")


def _check_groups(n, group_size) -> None:
    _check_size(n)
    if group_size < 1 or n % group_size:
        raise InputError(f"group size {group_size} must divide n = {n}")


def _at_row(error: Exception, valid: int) -> Exception:
    """error, as a generator's failure at the row after the first valid rows (error.valid)."""
    error.valid = valid
    return error


def _unit_groups(v: np.ndarray) -> np.ndarray:
    """normalize() of every group of each stream's (groups, width) draw; fails at a stream's zero group."""
    norms = row_norms(v)
    zero = np.ravel((norms == 0.0).any(axis=-1))
    if zero.any():
        raise _at_row(InputError("cannot normalize a zero vector"), int(np.argmax(zero)))
    return v / norms[..., None]


def _uniform_square(n: int, rng: Rng) -> np.ndarray:
    re = 2.0 * rng.uniform(n) - 1.0
    im = 2.0 * rng.uniform(n) - 1.0
    return re + 1j * im
