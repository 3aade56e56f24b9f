"""Monte Carlo harness: scenario sweeps over sizes, trials, architectures.

One channel pair is drawn per (size, trial) from its own derived seed and
shared by every architecture, so architectures see paired trials.  A size's
trials run in stacks of at most optimize._STACK_ELEMENTS surface elements,
each one pass of draws, validation and membership: the trial seeds are one
uint64 array, every scenario's generator draws the pairs as its rows by
one Rng over it, every row is checked by ChannelPair's rule at once
(ChannelStack), and membership searches every row for cuts at once
(adversarial.tc_membership).  Each trial is still a pure function of its
seed, bit for bit the pair Rng(seed) draws alone.
Each (size, architecture) cell of a stack is then solved by one
optimize_trials call, whose TrialResult rows become TrialRecord rows,
both NamedTuples built positionally.  The CSV writers format each record
or summary line with one f-string and write the file at once, quoting each
distinct label through csv once.  Records are a pure function of the
configuration, whatever the worker cap.  Every draw, here and in the CLI's
gen and oracle commands, goes through SCENARIO_TABLE.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

# gen_rayleigh, is_tc_adversarial and optimize are not called here, but stay
# importable by these names: the benchmark tracer (perfbench/tracer.py)
# wraps bdris.experiment.gen_rayleigh, .is_tc_adversarial and .optimize
from .adversarial import is_tc_adversarial, tc_membership
from .architecture import DEFAULT_Z0, ArchitectureSpec, parse_arch
from .channel import (
    ChannelPair,
    ChannelStack,
    GOLDEN_GAMMA,
    Rng,
    default_swap_extent,
    gc_adversarial_channels,
    gc_favorable_channels,
    gen_rayleigh,
    los_channels,
    rayleigh_channels,
    splitmix64_array,
    tc_adversarial_channels,
)
from .errors import InputError, NumericalFailure
from .optimize import _STACK_ELEMENTS, optimize, optimize_trials

DEFAULT_SIZES = (8, 16, 24, 32, 40, 48, 56, 64)
DEFAULT_TRIALS = 1000

_MASK64 = (1 << 64) - 1
_TRIAL_LANE = 0xBF58476D1CE4E5B9

RECORD_HEADER = "scenario,n,arch,trial,seed,p_r,p_bar_full,ratio_full,residual_norm,consistent"
SUMMARY_HEADER = "scenario,n,arch,trials,mean_ratio,std_ratio,min_ratio,max_ratio,consistent_fraction"


@dataclass(frozen=True)
class Scenario:
    """How one scenario draws its channel pairs at a given size.

    channels(n, rng, group_size, q) calls the scenario's generator, which
    returns (h_r, h_t) with one row per stream of rng and raises at the
    first row it cannot draw (channel.py).  It looks the generator up by
    name in this module at every call, so a wrapper set on that name later
    (a test's, a tracer's) sees every draw.  group_sizes is empty for scenarios
    without a group structure; otherwise its first entry is the default
    group size and any later one is what the oracle mix falls back to when
    the default does not divide n.  A scenario with swaps has a swap extent
    q, which is part of its record label.
    """

    name: str
    channels: Callable[[int, Rng, int | None, int | None], tuple[np.ndarray, np.ndarray]]
    group_sizes: tuple[int, ...] = ()
    swaps: bool = False

    def resolve(self, n: int, group_size: int | None = None,
                q: int | None = None) -> tuple[int | None, int | None]:
        """(group size, swap extent) of a draw at size n, defaults filled in.

        Raises InputError when the parameters do not fit n, or when a
        parameter is given that the scenario does not use; an unused
        parameter comes back as None.
        """
        if group_size is not None and not self.group_sizes:
            raise InputError(f"{self.name} takes no group size, got {group_size}")
        if q is not None and not self.swaps:
            raise InputError(f"{self.name} takes no swap extent q, got {q}")
        if self.group_sizes:
            gs = self.group_sizes[0] if group_size is None else group_size
            if gs < 1 or n % gs:
                raise InputError(f"group size {gs} must divide every size; n = {n} fails")
            return gs, None
        if self.swaps:
            if n < 2:
                raise InputError(f"{self.name} needs sizes >= 2")
            if q is None:
                return None, default_swap_extent(n)
            if q % 2 == 0 or not 1 <= q <= n - 1:
                raise InputError(f"q = {q} must be odd and within [1, {n - 1}] for every size")
            return None, q
        return None, None

    def draw(self, n: int, rng: Rng, group_size: int | None = None,
             q: int | None = None) -> tuple[ChannelPair, str]:
        """(pair, record label) of one draw at size n: the generator at the one stream rng."""
        gs, q = self.resolve(n, group_size, q)
        return ChannelPair(*self.channels(n, rng, gs, q)), self.label(q)

    def label(self, q: int | None) -> str:
        """The record label of a draw with resolved swap extent q."""
        # the swap extent is part of the scenario identity, so label it
        return f"{self.name}:q={q}" if self.swaps else self.name


SCENARIO_TABLE = {s.name: s for s in (
    Scenario("rayleigh", lambda n, rng, gs, q: rayleigh_channels(n, rng)),
    Scenario("gc_favorable", lambda n, rng, gs, q: gc_favorable_channels(n, gs, rng), (2,)),
    Scenario("gc_adversarial", lambda n, rng, gs, q: gc_adversarial_channels(n, gs, rng), (4, 2)),
    Scenario("tc_adversarial", lambda n, rng, gs, q: tc_adversarial_channels(n, rng, q), swaps=True),
    Scenario("los", lambda n, rng, gs, q: los_channels(n, rng)),
)}
SCENARIOS = tuple(SCENARIO_TABLE)
# Order in which oracle runs cycle through the scenarios.
ORACLE_SCENARIOS = ("rayleigh", "los", "tc_adversarial", "gc_favorable", "gc_adversarial")


def oracle_mix(n: int) -> list[tuple[Scenario, int | None]]:
    """(scenario, group size) of every oracle scenario that can draw at size n.

    A group scenario takes the first of its group sizes that divides n and
    is left out when none does.
    """
    mix = []
    for name in ORACLE_SCENARIOS:
        scenario = SCENARIO_TABLE[name]
        for group_size in scenario.group_sizes or (None,):
            try:
                scenario.resolve(n, group_size)
            except InputError:
                continue
            mix.append((scenario, group_size))
            break
    return mix


def mix64(seed: int, size_index: int, trial_index: int) -> int:
    """Derived per-trial seed: one avalanche of seed XOR the two lane words; trial_seeds of one trial."""
    return int(trial_seeds(seed, size_index, [trial_index])[0])


def trial_seeds(seed: int, size_index: int, trials) -> np.ndarray:
    """The derived seeds, uint64, of the given trial indexes at one size.

    Trial t's seed is the SplitMix64 avalanche of seed XOR (size_index *
    GOLDEN_GAMMA) XOR (t * _TRIAL_LANE), mod 2^64.
    """
    lanes = np.asarray(trials, dtype=np.uint64) * np.uint64(_TRIAL_LANE)
    return splitmix64_array(np.uint64((int(seed) ^ size_index * GOLDEN_GAMMA) & _MASK64) ^ lanes)


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a sweep depends on; records are a pure function of this."""

    scenario: str
    sizes: tuple[int, ...] = DEFAULT_SIZES
    trials: int = DEFAULT_TRIALS
    archs: tuple[str, ...] = ("sc", "tc")
    seed: int = 0
    z0: float = DEFAULT_Z0
    q_override: int | None = None
    group_size: int | None = None
    check_membership: bool = False

    def __post_init__(self):
        object.__setattr__(self, "sizes", tuple(int(s) for s in self.sizes))
        object.__setattr__(self, "archs", tuple(self.archs))


class TrialRecord(NamedTuple):
    """One (scenario, size, architecture, trial) outcome: an immutable row, one per CSV line."""

    scenario: str
    n: int
    arch: str
    trial: int
    seed: int
    p_r: float
    p_bar_full: float
    ratio_full: float
    residual_norm: float
    consistent: bool
    in_a: bool | None = None


class SummaryRow(NamedTuple):
    """Aggregate of ratio_full over one (scenario, n, arch) cell."""

    scenario: str
    n: int
    arch: str
    trials: int
    mean_ratio: float
    std_ratio: float
    min_ratio: float
    max_ratio: float
    consistent_fraction: float


def resolve_archs(config: ExperimentConfig) -> dict[int, list[ArchitectureSpec]]:
    """Parse every architecture label for every size, failing up front.

    A repeated size or label string fails too: the summary keys its cells
    by (scenario, n, label), so repeats would merge into one cell.
    """
    if not config.sizes:
        raise InputError("at least one size is required")
    if not config.archs:
        raise InputError("at least one architecture is required")
    if config.trials < 1:
        raise InputError(f"trials must be positive, got {config.trials}")
    if config.scenario not in SCENARIO_TABLE:
        raise InputError(f"unknown scenario {config.scenario!r}; choose from {SCENARIOS}")
    scenario = SCENARIO_TABLE[config.scenario]
    resolved = {}
    for n in config.sizes:
        if n < 1:
            raise InputError(f"sizes must be positive, got {n}")
        resolved[n] = [parse_arch(label, n) for label in config.archs]
        scenario.resolve(n, config.group_size, config.q_override)
    if len(resolved) < len(config.sizes):
        raise InputError(f"sizes must not repeat, got {list(config.sizes)}")
    if len(set(config.archs)) < len(config.archs):
        raise InputError(f"architecture labels must not repeat, got {list(config.archs)}")
    return resolved


def run_experiment(config: ExperimentConfig, threads: int = 1) -> list[TrialRecord]:
    """All trial records, ordered by (size, trial, arch position).

    Per size, the trials run in stacks of at most _STACK_ELEMENTS surface
    elements, in trial order: draw_trials draws and checks a stack's pairs,
    tc_membership tests their membership, and each architecture solves them
    in one optimize_trials call.  When a NumericalFailure or InputError
    leaves a stack, the stack is solved again one trial at a time, so the
    error raised is that of the first failing (trial, arch) in record
    order, a NumericalFailure naming its scenario, n, trial, arch and trial
    seed.  A draw that fails raises after the trials drawn before it are
    solved, as if the trials ran one by one.  threads is a worker cap;
    everything runs in order on the calling thread, which meets every cap.
    """
    archs_by_size = resolve_archs(config)
    scenario = SCENARIO_TABLE[config.scenario]
    if threads < 1:
        raise InputError(f"thread count must be positive, got {threads}")
    records = []
    for si, n in enumerate(config.sizes):
        step = max(1, _STACK_ELEMENTS // n)
        for first in range(0, config.trials, step):
            seeds = trial_seeds(config.seed, si, np.arange(first, min(first + step, config.trials)))
            stack, label, failed_draw = draw_trials(scenario, n, seeds, config.group_size,
                                                    config.q_override)
            drawn = seeds[:len(stack)].tolist()
            in_a = tc_membership(stack) if config.check_membership else [None] * len(stack)
            cells = _solve_stack(config, n, archs_by_size[n], stack, label, first, drawn)
            for t, (seed, member, *results) in enumerate(zip(drawn, in_a, *cells, strict=True), first):
                for arch_label, result in zip(config.archs, results):
                    p_r, p_bar_full, _, ratio, residual, consistent = result
                    records.append(TrialRecord(label, n, arch_label, t, seed, p_r, p_bar_full, ratio,
                                               residual, consistent, member))
            if failed_draw is not None:
                raise failed_draw
    return records


def draw_trials(scenario: Scenario, n: int, seeds: np.ndarray, group_size: int | None = None,
                q: int | None = None) -> tuple[ChannelStack, str, Exception | None]:
    """(stack, label, error): the pairs at size n of the trials with these uint64 seeds, in order.

    The scenario's generator draws every pair at once from Rng(seeds),
    each row the pair Rng(seed) gives alone, and the rows are checked at
    once.  The stack holds the pairs before the first draw that fails, by
    the generator's InputError or NumericalFailure (the rows before it
    drawn again) or by failing ChannelPair's rule, and error is that
    failure, or None.  label is the draws' record label.
    """
    gs, q = scenario.resolve(n, group_size, q)
    label, error = scenario.label(q), None
    try:
        h_r, h_t = scenario.channels(n, Rng(seeds), gs, q)
    except (InputError, NumericalFailure) as exc:
        error, (h_r, h_t) = exc, scenario.channels(n, Rng(seeds[:exc.valid]), gs, q)
    try:
        return ChannelStack(h_r, h_t), label, error
    except InputError as exc:
        return ChannelStack(h_r[:exc.valid], h_t[:exc.valid]), label, exc


def _solve_stack(config: ExperimentConfig, n: int, specs, stack: ChannelStack, label: str,
                 first: int, seeds: list[int]) -> list:
    """Per architecture, the results of a stack's trials, trial first + t drawn from seeds[t].

    A stacked call fails when any of its pairs would fail alone, so on
    failure the trials run again one at a time, architecture by
    architecture, until the first failing one raises.
    """
    try:
        return [optimize_trials(stack, spec, config.z0) for spec in specs]
    except (InputError, NumericalFailure):
        pass
    by_trial = []
    for t, seed in enumerate(seeds):
        pair = stack[t]
        row = []
        for arch_label, spec in zip(config.archs, specs):
            try:
                row += optimize_trials([pair], spec, config.z0)
            except NumericalFailure as exc:
                raise NumericalFailure(
                    f"{exc} (scenario {label}, n = {n}, trial {first + t}, arch {arch_label}, "
                    f"trial seed {seed})") from exc
        by_trial.append(row)
    return list(zip(*by_trial))


def summarize(records) -> list[SummaryRow]:
    """Mean/population-std aggregates per (scenario, n, arch), in record order."""
    cells: dict[tuple, tuple[list, list]] = {}
    for r in records:
        key = (r.scenario, r.n, r.arch)
        cell = cells.get(key)
        if cell is None:
            cells[key] = cell = ([], [])
        cell[0].append(r.ratio_full)
        cell[1].append(r.consistent)
    rows = []
    for (scenario, n, arch), (ratio_list, flags) in cells.items():
        ratios = np.array(ratio_list)
        # an exact count over an exact length: the division np.mean makes
        consistent_fraction = sum(flags) / len(flags)
        rows.append(SummaryRow(scenario, n, arch, len(flags), float(ratios.mean()),
                               float(ratios.std()), float(ratios.min()), float(ratios.max()),
                               consistent_fraction))
    return rows


def write_records_csv(records, fp) -> None:
    """Records CSV with shortest round-trip floats; stable byte for byte.

    The in_a column appears only when membership was recorded.  A field
    holding a comma (a gc:I= label with several cuts) is quoted, RFC 4180,
    as csv.writer quotes it.  The file is written at once, one formatted
    line per record.  A p_bar_full equal to the record before's, as the
    architectures of one trial share it, reuses that record's string, and a
    residual of +0.0 (every sc record) is written as 0.0 without
    formatting; a float's string depends only on its value and sign.
    """
    with_membership = any(r.in_a is not None for r in records)
    quoted = _Quoted()
    lines = [RECORD_HEADER + (",in_a\n" if with_membership else "\n")]
    last_full, full_text = math.nan, ""
    for scenario, n, arch, trial, seed, p_r, p_bar_full, ratio, residual, consistent, in_a in records:
        member = ("," if in_a is None else ",true" if in_a else ",false") if with_membership else ""
        # equal values share a string, but 0.0 and -0.0 are equal
        if p_bar_full != last_full or not p_bar_full:
            last_full, full_text = p_bar_full, repr(float(p_bar_full))
        positive_zero = residual == 0.0 and math.copysign(1.0, residual) == 1.0
        residual_text = "0.0" if positive_zero else repr(float(residual))
        lines.append(f"{quoted[scenario]},{n},{quoted[arch]},{trial},{seed},{float(p_r)!r},"
                     f"{full_text},{float(ratio)!r},{residual_text},"
                     f"{'true' if consistent else 'false'}{member}\n")
    fp.write("".join(lines))


def write_summary_csv(rows, fp) -> None:
    """Summary CSV, formatted as write_records_csv formats the records."""
    quoted = _Quoted()
    lines = [SUMMARY_HEADER + "\n"]
    for scenario, n, arch, trials, mean, std, low, high, consistent_fraction in rows:
        lines.append(f"{quoted[scenario]},{n},{quoted[arch]},{trials},{float(mean)!r},"
                     f"{float(std)!r},{float(low)!r},{float(high)!r},"
                     f"{float(consistent_fraction)!r}\n")
    fp.write("".join(lines))


class _Quoted(dict):
    """Each label as a CSV field, quoted by csv.writer when it needs to be, once per distinct label."""

    def __missing__(self, label):
        buf = io.StringIO()
        # a second field keeps csv from quoting an empty label as a lone field
        csv.writer(buf, lineterminator="\n").writerow([label, ""])
        self[label] = field = buf.getvalue()[:-2]
        return field
