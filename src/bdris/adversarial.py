"""Membership tests for channels that defeat the tridiagonal architecture.

A channel pair defeats a tridiagonal surface when two things coincide: the
sum of the normalized channels has real-proportional adjacent entries (the
"cut set", which makes the steering system lose rank), and the groups
induced by those cuts disagree about the receive/transmit norm ratio (so
no single gain serves every group).  The direct test decides exactly that
combination; a brute-force twin enumerates every candidate cut set for
cross-validation.  tc_membership answers the direct test for every pair of
a stack, searching all rows for cuts at once.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .architecture import partition_from_cuts
from .channel import ChannelPair, ChannelStack, normalize
from .errors import InputError
from .linalg import ZERO_FLOOR_REL, proportional_adjacencies

# Finite group norm ratios differing by more than this (relative to the
# largest) are mismatched.
RATIO_TOL = 1e-9
# 2^(n-1) candidate cut sets; past this the enumeration is pointless.
BRUTE_FORCE_MAX_N = 16


@dataclass(frozen=True)
class MembershipReport:
    """Adversarial-set membership with its witnesses.

    cut_set holds 1-based adjacencies with real-proportional entries of
    hr_hat + ht_hat and gammas their ratios (entry i over entry i+1).
    group_ratios are ||h_r,g|| / ||h_t,g|| over the induced partition,
    None where the transmit group norm is negligible.
    """

    in_a: bool
    cut_set: tuple[int, ...]
    gammas: tuple[float, ...]
    group_ratios: tuple[float | None, ...]
    c1_holds: bool

    def to_json(self) -> str:
        return json.dumps({
            "in_a": self.in_a,
            "cut_set": list(self.cut_set),
            "gammas": list(self.gammas),
            "group_ratios": list(self.group_ratios),
            "c1_holds": self.c1_holds,
        })


def cut_set(pair: ChannelPair):
    """(cuts, gammas) of linalg.proportional_adjacencies on hr_hat + ht_hat."""
    return proportional_adjacencies(normalize(pair.h_r) + normalize(pair.h_t))


def is_gc_adversarial(pair: ChannelPair, cuts):
    """Whether no single gain matches every group's norm ratio.

    Groups are the partition induced by the 1-based cuts (an empty cut
    list means one group).  A group norm is negligible at or below
    ZERO_FLOOR_REL times the whole vector's norm.  A group where both norms
    are negligible is a wildcard and constrains nothing; a group where
    exactly one norm is negligible forces the answer to true, since the
    required gain would be zero or infinite.  Otherwise the answer is true
    iff the finite ratios are not all equal within the relative RATIO_TOL.

    Returns (flag, ratios) with one ratio per group, None where the
    transmit norm is negligible.
    """
    spans = partition_from_cuts(cuts, pair.n)
    floor_r = ZERO_FLOOR_REL * float(np.linalg.norm(pair.h_r))
    floor_t = ZERO_FLOOR_REL * float(np.linalg.norm(pair.h_t))
    ratios: list[float | None] = []
    finite: list[float] = []
    forced = False
    for lo, hi in spans:
        nr = float(np.linalg.norm(pair.h_r[lo:hi]))
        nt = float(np.linalg.norm(pair.h_t[lo:hi]))
        r_zero = nr <= floor_r
        t_zero = nt <= floor_t
        ratios.append(None if t_zero else nr / nt)
        if r_zero and t_zero:
            continue
        if r_zero or t_zero:
            forced = True
            continue
        finite.append(nr / nt)
    mismatched = bool(finite) and (max(finite) - min(finite)) > RATIO_TOL * max(finite)
    return forced or mismatched, tuple(ratios)


def matches_cut_set(pair: ChannelPair, cuts) -> bool:
    """Whether the proportionality cut set of the pair equals `cuts` exactly."""
    cuts = tuple(int(c) for c in cuts)
    if not cuts:
        raise InputError("matches_cut_set needs a nonempty cut set")
    partition_from_cuts(cuts, pair.n)  # validates range and ordering
    found, _ = cut_set(pair)
    return found == cuts


def is_tc_adversarial(pair: ChannelPair) -> MembershipReport:
    """Full membership report: rank-breaking cuts plus mismatched group gains."""
    cuts, gammas = cut_set(pair)
    c1, ratios = is_gc_adversarial(pair, cuts)
    return MembershipReport(
        in_a=bool(cuts) and c1,
        cut_set=cuts,
        gammas=gammas,
        group_ratios=ratios,
        c1_holds=c1,
    )


def tc_membership(stack: ChannelStack) -> list[bool]:
    """is_tc_adversarial(stack[t]).in_a of every pair of a stack, in order.

    The rows are normalized by the stack's row norms (np.linalg.norm's
    rounding, so each row of hr_hat + ht_hat is cut_set's vector bit for
    bit), and proportional_adjacencies finds every row's cuts in one pass.
    A pair with no cut is not in the set; a pair with one goes through
    is_tc_adversarial, which keeps the group-ratio rule in one place.
    """
    s = stack.h_r / stack.norms_r[:, None] + stack.h_t / stack.norms_t[:, None]
    return [bool(cuts) and is_tc_adversarial(stack[t]).in_a
            for t, (cuts, _) in enumerate(proportional_adjacencies(s))]


def is_tc_adversarial_bruteforce(pair: ChannelPair) -> bool:
    """Literal union over every nonempty candidate cut set; n <= 16 only."""
    n = pair.n
    if n > BRUTE_FORCE_MAX_N:
        raise InputError(f"brute-force enumeration is limited to n <= {BRUTE_FORCE_MAX_N}")
    for bits in range(1, 1 << (n - 1)):
        cuts = tuple(i + 1 for i in range(n - 1) if bits >> i & 1)
        if matches_cut_set(pair, cuts) and is_gc_adversarial(pair, cuts)[0]:
            return True
    return False


def reduce_coupling(system, x, cut: int, gamma: float) -> np.ndarray:
    """Fold the coupling unknown at `cut` into its two diagonal neighbors.

    When alpha_cut = gamma * alpha_{cut+1} for a finite nonzero real gamma
    (the orientation cut_set reports), the coupling column of the steering
    system is a combination of the two diagonal columns, so zeroing the
    coupling while bumping the neighbors leaves A x unchanged:

        x'_i = x_i + x_c / gamma,   x'_{i+1} = x_{i+1} + gamma * x_c

    with i = cut (1-based) and x_c the coupling unknown at that cut.
    """
    n = system.n
    if not isinstance(cut, (int, np.integer)) or not 1 <= cut <= n - 1:
        raise InputError(f"cut must lie in [1, {n - 1}], got {cut!r}")
    gamma = float(gamma)
    if gamma == 0.0 or not np.isfinite(gamma):
        raise InputError(f"gamma must be finite and nonzero, got {gamma!r}")
    x = np.array(x, dtype=float, copy=True)
    if x.shape != (2 * n - 1,):
        raise InputError(f"x must have shape ({2 * n - 1},), got {x.shape}")
    i = cut - 1
    x_c = x[n + i]
    x[i] += x_c / gamma
    x[i + 1] += gamma * x_c
    x[n + i] = 0.0
    return x
