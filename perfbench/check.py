"""Output checks computed apart from the package.

Only the channel generators are shared with the program: each pair is drawn
again from its record's seed through the public generator, and everything
else (trial seeds, bounds, sparsity patterns, the scattering solve) is
recomputed here with plain numpy.  Each check returns a list of reasons, one
per violated condition; an empty list means the output passed.
"""

from __future__ import annotations

import csv
import io

import numpy as np

# Tolerances, all relative.
BOUND_FULL_RTOL = 1e-12   # p_bar_full against ||h_R||^2 ||h_T||^2
ATTAIN_RTOL = 1e-9        # p_r against the bound it must reach
RATIO_SLACK = 1e-9        # ratio_full <= 1 + RATIO_SLACK
POWER_RTOL = 1e-9         # p_r against |h_R^H x|^2 from our own solve

_MASK64 = (1 << 64) - 1
# SplitMix64 constants and the harness's trial lane, as documented for the
# derived per-trial seeds.
_GOLDEN = 0x9E3779B97F4A7C15
_TRIAL_LANE = 0xBF58476D1CE4E5B9


def _splitmix64(z: int) -> int:
    z &= _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def trial_seed(seed: int, size_index: int, trial_index: int) -> int:
    return _splitmix64((seed ^ (size_index * _GOLDEN) ^ (trial_index * _TRIAL_LANE)) & _MASK64)


def group_width(arch: str, n: int) -> int | None:
    """Block width of a block-diagonal pattern (sc = 1, fc = n); None for tc."""
    if arch == "sc":
        return 1
    if arch == "fc":
        return n
    if arch.startswith("gc:"):
        return int(arch[3:])
    return None


def partition_bound(h_r, h_t, width: int) -> float:
    """(sum_g ||h_R,g|| ||h_T,g||)^2 over contiguous groups of `width` elements."""
    nr = np.sqrt(np.sum(np.abs(h_r.reshape(-1, width)) ** 2, axis=1))
    nt = np.sqrt(np.sum(np.abs(h_t.reshape(-1, width)) ** 2, axis=1))
    return float(np.sum(nr * nt) ** 2)


def full_bound(h_r, h_t) -> float:
    return float(np.sum(np.abs(h_r) ** 2) * np.sum(np.abs(h_t) ** 2))


def pattern(arch: str, n: int) -> np.ndarray:
    idx = np.arange(n)
    if arch == "tc":
        return np.abs(idx[:, None] - idx[None, :]) <= 1
    width = group_width(arch, n)
    return (idx[:, None] // width) == (idx[None, :] // width)


def _close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * abs(b)


def parse_csv(text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text)))


def check_sweep(rows, summary_rows, sweep, seed, draw_pair) -> tuple[list[list[str]], list[str]]:
    """Check every record of one Rayleigh `simulate` call, and the call as a whole.

    `sweep` describes the call (sizes, trials, archs, membership);
    `draw_pair(n, trial_seed)` re-draws a pair through the public generator.
    Returns (reasons per expected record, reasons for the whole call).
    """
    expected = [(si, n, t, arch) for si, n in enumerate(sweep.sizes)
                for t in range(sweep.trials) for arch in sweep.archs]
    whole: list[str] = []
    if len(rows) != len(expected):
        whole.append(f"record count {len(rows)} != {len(expected)}")
    per_record: list[list[str]] = []
    pairs: dict[int, tuple] = {}
    for k, (si, n, t, arch) in enumerate(expected):
        if k >= len(rows):
            per_record.append(["missing"])
            continue
        row = rows[k]
        reasons = []
        if (row["scenario"], int(row["n"]), int(row["trial"]), row["arch"]) != ("rayleigh", n, t, arch):
            per_record.append([f"unexpected record {row['scenario']},{row['n']},{row['trial']},{row['arch']}"])
            continue
        s = trial_seed(seed, si, t)
        if int(row["seed"]) != s:
            reasons.append("seed")
        if s not in pairs:
            pair = draw_pair(n, s)
            pairs[s] = (pair.h_r, pair.h_t, full_bound(pair.h_r, pair.h_t))
        h_r, h_t, full = pairs[s]
        p_r = float(row["p_r"])
        p_bar_full = float(row["p_bar_full"])
        ratio = float(row["ratio_full"])
        consistent = row["consistent"] == "true"
        if not _close(p_bar_full, full, BOUND_FULL_RTOL):
            reasons.append("p_bar_full")
        if not _close(ratio, p_r / p_bar_full, BOUND_FULL_RTOL):
            reasons.append("ratio_full != p_r / bound")
        if ratio > 1.0 + RATIO_SLACK:
            reasons.append("ratio_full above 1")
        width = group_width(arch, n)
        if arch == "sc" and not _close(p_r, partition_bound(h_r, h_t, 1), ATTAIN_RTOL):
            reasons.append("sc misses its partition bound")
        # every group system of a Rayleigh pair is consistent with probability 1
        if arch.startswith("gc:") and not (consistent and _close(p_r, partition_bound(h_r, h_t, width),
                                                                 ATTAIN_RTOL)):
            reasons.append("rayleigh gc not consistent at its partition bound")
        if arch == "tc" and not (consistent and ratio >= 1.0 - ATTAIN_RTOL):
            reasons.append("rayleigh tc not consistent at the full bound")
        # a Rayleigh pair has no real-proportional adjacency with probability 1
        if sweep.membership and row.get("in_a") != "false":
            reasons.append("rayleigh pair reported in the adversarial set")
        per_record.append(reasons)
    whole += _check_summary(rows, summary_rows)
    return per_record, whole


def _check_summary(rows, summary_rows) -> list[str]:
    cells: dict[tuple, list[tuple[float, bool]]] = {}
    for row in rows:
        cells.setdefault((row["scenario"], row["n"], row["arch"]), []).append(
            (float(row["ratio_full"]), row["consistent"] == "true"))
    if len(summary_rows) != len(cells):
        return [f"summary has {len(summary_rows)} cells, records have {len(cells)}"]
    reasons = []
    for row in summary_rows:
        cell = cells.get((row["scenario"], row["n"], row["arch"]))
        if cell is None or int(row["trials"]) != len(cell):
            reasons.append(f"summary cell {row['n']},{row['arch']} does not match the records")
            continue
        ratios, flags = zip(*cell)
        if not _close(float(row["mean_ratio"]), float(np.mean(ratios)), 1e-12):
            reasons.append(f"summary mean {row['n']},{row['arch']}")
        if float(row["consistent_fraction"]) != sum(flags) / len(flags):
            reasons.append(f"summary consistent_fraction {row['n']},{row['arch']}")
    return reasons


def check_surface(h_r, h_t, arch: str, z0: float, b, p_r: float, consistent: bool) -> list[str]:
    """Check one optimize() result on a Rayleigh pair."""
    n = h_r.size
    reasons = []
    if b.shape != (n, n) or not np.array_equal(b, b.T):
        return ["B not exactly symmetric"]
    if np.any(b[~pattern(arch, n)]):
        reasons.append("B nonzero outside the pattern")
    jb = 1j * z0 * b
    eye = np.eye(n)
    x = np.linalg.solve(eye + jb, (eye - jb) @ h_t)
    if not _close(p_r, float(abs(np.vdot(h_r, x)) ** 2), POWER_RTOL):
        reasons.append("p_r != |h_R^H x|^2")
    width = group_width(arch, n)
    bound = full_bound(h_r, h_t) if arch in ("tc", "fc") else partition_bound(h_r, h_t, width)
    if not consistent or not _close(p_r, bound, ATTAIN_RTOL):
        reasons.append(f"{arch} misses its bound")
    return reasons
