"""Channel vectors, their generators, and the deterministic RNG behind them.

All randomness flows through ``Rng``, a counter-based SplitMix64 stream.
Pure 64-bit integer mixing plus IEEE-754 arithmetic makes every draw
reproducible bit for bit across platforms and library versions, which the
experiment harness relies on for byte-identical output.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import InputError, NumericalFailure
from .linalg import ZERO_FLOOR_REL, real_ratio

_MASK64 = (1 << 64) - 1
# SplitMix64 constants: stream increment and the two avalanche multipliers.
GOLDEN_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

# Swapped-pair moduli closer than this (relative) put the membership test
# on a knife edge, so such draws are rejected.
_SWAP_MODULI_RTOL = 1e-6
# Rejected draws allowed per gen_tc_adversarial call.
_SWAP_MAX_RETRIES = 100


def splitmix64(z: int) -> int:
    """One SplitMix64 avalanche round of a 64-bit integer."""
    z &= _MASK64
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
    return z ^ (z >> 31)


class Rng:
    """Deterministic uniform and complex-Gaussian source.

    Draw k of the stream is splitmix64(seed + (k + 1) * GOLDEN_GAMMA), so
    the stream is a pure function of (seed, draw index): identical seeds
    give identical streams everywhere, and bulk draws vectorize over
    numpy's wrapping uint64 arithmetic.
    """

    algorithm = "splitmix64"

    def __init__(self, seed: int):
        self._seed = int(seed) & _MASK64
        self._count = 0

    def _raw(self, n: int) -> np.ndarray:
        k = np.arange(self._count + 1, self._count + n + 1, dtype=np.uint64)
        self._count += n
        z = np.uint64(self._seed) + k * np.uint64(GOLDEN_GAMMA)
        z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX1)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
        return z ^ (z >> np.uint64(31))

    def uniform(self, n: int) -> np.ndarray:
        """n doubles uniform on [0, 1)."""
        return (self._raw(n) >> np.uint64(11)) * 2.0**-53

    def uniform_pos(self, n: int) -> np.ndarray:
        """n doubles uniform on (0, 1]; safe under log()."""
        return ((self._raw(n) >> np.uint64(11)) + np.uint64(1)) * 2.0**-53

    def complex_gaussian(self, n: int) -> np.ndarray:
        """n circularly-symmetric complex Gaussians with zero mean, unit variance.

        Polar Box-Muller: the squared modulus is Exp(1) from one uniform,
        the phase is uniform from the next.  Draw order: moduli first,
        then phases.
        """
        mag = np.sqrt(-np.log(self.uniform_pos(n)))
        phase = 2.0 * np.pi * self.uniform(n)
        return mag * np.exp(1j * phase)


@dataclass(frozen=True)
class ChannelPair:
    """Receiver-side and transmitter-side channel vectors of equal length."""

    h_r: np.ndarray
    h_t: np.ndarray

    def __post_init__(self):
        h_r = np.asarray(self.h_r, dtype=complex)
        h_t = np.asarray(self.h_t, dtype=complex)
        object.__setattr__(self, "h_r", h_r)
        object.__setattr__(self, "h_t", h_t)
        if h_r.ndim != 1 or h_t.ndim != 1 or h_r.shape != h_t.shape:
            raise InputError(f"channel vectors must share one length, got {h_r.shape} and {h_t.shape}")
        if h_r.size == 0:
            raise InputError("channel vectors must be nonempty")
        if not (np.all(np.isfinite(h_r)) and np.all(np.isfinite(h_t))):
            raise InputError("channel entries must be finite")
        if np.linalg.norm(h_r) == 0.0 or np.linalg.norm(h_t) == 0.0:
            raise InputError("channel vectors must have positive norm")

    @property
    def n(self) -> int:
        return self.h_r.size


def normalize(v) -> np.ndarray:
    """Unit-norm copy of a complex vector; rejects the zero vector."""
    v = np.asarray(v, dtype=complex)
    nrm = np.linalg.norm(v)
    if nrm == 0.0:
        raise InputError("cannot normalize a zero vector")
    return v / nrm


def gen_rayleigh(n: int, rng: Rng) -> ChannelPair:
    """i.i.d. CN(0, 1) fading on both links.  Draw order: h_r, then h_t."""
    _check_size(n)
    return ChannelPair(rng.complex_gaussian(n), rng.complex_gaussian(n))


def gen_los(n: int, rng: Rng) -> ChannelPair:
    """Unit-modulus line-of-sight channels with random link gains.

    Entries are c1 * exp(j phi_k) and c2 * exp(j psi_k) with phases uniform
    on [0, 2pi) and gains c1, c2 uniform on (0.1, 10).  Draw order: c1, c2,
    the n phases of h_r, the n phases of h_t.
    """
    _check_size(n)
    c = 0.1 + 9.9 * rng.uniform(2)
    phi = 2.0 * np.pi * rng.uniform(n)
    psi = 2.0 * np.pi * rng.uniform(n)
    return ChannelPair(c[0] * np.exp(1j * phi), c[1] * np.exp(1j * psi))


def gen_gc_favorable(n: int, group_size: int, rng: Rng) -> ChannelPair:
    """Rayleigh h_r with h_t built so every group shares one norm ratio.

    h_t restricted to each group of `group_size` elements points in a
    random direction but has norm gamma * ||h_r restricted to the group||,
    with a single gamma ~ U(0.1, 10) shared by all groups.  Draw order:
    h_r, gamma, then one unit direction per group.
    """
    _check_size(n)
    if group_size < 1 or n % group_size:
        raise InputError(f"group size {group_size} must divide n = {n}")
    h_r = rng.complex_gaussian(n)
    gamma = 0.1 + 9.9 * float(rng.uniform(1)[0])
    parts = []
    for lo in range(0, n, group_size):
        block_norm = np.linalg.norm(h_r[lo:lo + group_size])
        direction = normalize(rng.complex_gaussian(group_size))
        parts.append(gamma * block_norm * direction)
    return ChannelPair(h_r, np.concatenate(parts))


def gen_gc_adversarial(n: int, group_size: int, rng: Rng) -> ChannelPair:
    """Channels that defeat group-connected surfaces of the given group size.

    h_r has i.i.d. uniform(-1, 1) real and imaginary parts.  h_t is
    assembled group by group as a_g * f_g / ||f_g|| with f_g drawn like h_r
    and amplitudes a_g uniform on (0, 1], so the per-group norm ratios are
    generically all distinct.  Draw order: h_r real parts, h_r imaginary
    parts, then per group f_g (real parts, imaginary parts) and a_g.
    """
    _check_size(n)
    if group_size < 1 or n % group_size:
        raise InputError(f"group size {group_size} must divide n = {n}")
    h_r = _uniform_square(n, rng)
    parts = []
    for _ in range(n // group_size):
        f = _uniform_square(group_size, rng)
        a = float(rng.uniform_pos(1)[0])
        parts.append(a * normalize(f))
    return ChannelPair(h_r, np.concatenate(parts))


def default_swap_extent(n: int) -> int:
    """Largest odd cut index q <= n - 1: swaps all floor(n/2) adjacent pairs."""
    if n < 2:
        raise InputError("swap construction needs n >= 2")
    q = n - 1
    return q if q % 2 == 1 else q - 1


def gen_tc_adversarial(n: int, rng: Rng, q: int | None = None) -> ChannelPair:
    """Channels whose tridiagonal steering system is rank deficient.

    h_r is a normalized complex Gaussian; h_t copies it with adjacent
    entries (i, i+1) swapped for i = 1, 3, ..., q (1-based), planting a
    proportional adjacency of h_r + h_t at exactly those cuts.  Draws are
    rejected while any swapped pair has nearly equal moduli or any
    unplanted adjacency is accidentally proportional, so accepted draws
    have cut set exactly {1, 3, ..., q}: the adjacency test is
    adversarial.cut_set's, real_ratio with the same ZERO_FLOOR_REL floor.
    """
    _check_size(n)
    if n < 2:
        raise InputError("swap construction needs n >= 2")
    if q is None:
        q = default_swap_extent(n)
    if q % 2 == 0 or not 1 <= q <= n - 1:
        raise InputError(f"swap extent q = {q} must be odd and within [1, {n - 1}]")
    swapped = [(i, i + 1) for i in range(0, q, 2)]
    planted = {i for i, _ in swapped}
    for _ in range(_SWAP_MAX_RETRIES):
        h = rng.complex_gaussian(n)
        nrm = np.linalg.norm(h)
        if nrm == 0.0:
            continue
        h = h / nrm
        mod = np.abs(h)
        if any(abs(mod[i] - mod[j]) <= _SWAP_MODULI_RTOL * max(mod[i], mod[j]) for i, j in swapped):
            continue
        t = h.copy()
        for i, j in swapped:
            t[i], t[j] = h[j], h[i]
        s = h + t
        floor = ZERO_FLOOR_REL * float(np.max(np.abs(s)))
        accidental = any(
            i not in planted and real_ratio(s[i], s[i + 1], floor) is not None
            for i in range(n - 1)
        )
        if accidental:
            continue
        return ChannelPair(h, t)
    raise NumericalFailure(f"no acceptable swap-construction draw in {_SWAP_MAX_RETRIES} attempts")


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


def _uniform_square(n: int, rng: Rng) -> np.ndarray:
    re = 2.0 * rng.uniform(n) - 1.0
    im = 2.0 * rng.uniform(n) - 1.0
    return re + 1j * im
