"""Monte Carlo harness: scenario sweeps over sizes, trials, architectures.

One channel pair is drawn per (size, trial) from its own derived seed and
shared by every architecture, so architectures see paired trials.  Records
are a pure function of the configuration: execution order and worker count
never change a byte of the output.  Every draw, here and in the CLI's gen
and oracle commands, goes through SCENARIO_TABLE.
"""

from __future__ import annotations

import concurrent.futures
import csv
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .adversarial import is_tc_adversarial
from .architecture import DEFAULT_Z0, ArchitectureSpec, parse_arch
from .channel import (
    ChannelPair,
    GOLDEN_GAMMA,
    Rng,
    default_swap_extent,
    gen_gc_adversarial,
    gen_gc_favorable,
    gen_los,
    gen_rayleigh,
    gen_tc_adversarial,
    splitmix64,
)
from .errors import InputError, NumericalFailure
from .optimize import optimize

DEFAULT_SIZES = (8, 16, 24, 32, 40, 48, 56, 64)
DEFAULT_TRIALS = 1000

_MASK64 = (1 << 64) - 1
_TRIAL_LANE = 0xBF58476D1CE4E5B9

RECORD_HEADER = "scenario,n,arch,trial,seed,p_r,p_bar_full,ratio_full,residual_norm,consistent"
SUMMARY_HEADER = "scenario,n,arch,trials,mean_ratio,std_ratio,min_ratio,max_ratio,consistent_fraction"


@dataclass(frozen=True)
class Scenario:
    """How one scenario draws its channel pair at a given size.

    generate(n, rng, group_size, q) calls the generator.  It looks the
    generator up by name in this module at every call, so a wrapper set on
    that name later (the benchmark tracer's, a test's) sees every draw.
    group_sizes is empty for scenarios without a group structure; otherwise
    its first entry is the default group size and any later one is what
    the oracle mix falls back to when the default does not divide n.  A
    scenario with swaps has a swap extent q, which is part of its record
    label.
    """

    name: str
    generate: Callable[[int, Rng, int | None, int | None], ChannelPair]
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
        """(pair, record label) of one draw at size n."""
        gs, q = self.resolve(n, group_size, q)
        # the swap extent is part of the scenario identity, so label it
        label = f"{self.name}:q={q}" if self.swaps else self.name
        return self.generate(n, rng, gs, q), label


SCENARIO_TABLE = {s.name: s for s in (
    Scenario("rayleigh", lambda n, rng, gs, q: gen_rayleigh(n, rng)),
    Scenario("gc_favorable", lambda n, rng, gs, q: gen_gc_favorable(n, gs, rng), (2,)),
    Scenario("gc_adversarial", lambda n, rng, gs, q: gen_gc_adversarial(n, gs, rng), (4, 2)),
    Scenario("tc_adversarial", lambda n, rng, gs, q: gen_tc_adversarial(n, rng, q), swaps=True),
    Scenario("los", lambda n, rng, gs, q: gen_los(n, rng)),
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
    """Derived per-trial seed: one avalanche of seed XOR the two lane words."""
    z = (int(seed) ^ (size_index * GOLDEN_GAMMA) ^ (trial_index * _TRIAL_LANE)) & _MASK64
    return splitmix64(z)


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


@dataclass(frozen=True)
class TrialRecord:
    """One (scenario, size, architecture, trial) outcome."""

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


@dataclass(frozen=True)
class SummaryRow:
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
    """Parse every architecture label for every size, failing up front."""
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
    return resolved


def run_experiment(config: ExperimentConfig, threads: int = 1) -> list[TrialRecord]:
    """All trial records, ordered by (size, trial, arch position)."""
    archs_by_size = resolve_archs(config)
    scenario = SCENARIO_TABLE[config.scenario]
    if threads < 1:
        raise InputError(f"thread count must be positive, got {threads}")
    tasks = [(si, n, t) for si, n in enumerate(config.sizes) for t in range(config.trials)]

    def run_task(task) -> list[TrialRecord]:
        si, n, t = task
        seed = mix64(config.seed, si, t)
        rng = Rng(seed)
        pair, label = scenario.draw(n, rng, config.group_size, config.q_override)
        in_a = is_tc_adversarial(pair).in_a if config.check_membership else None
        records = []
        for arch_label, spec in zip(config.archs, archs_by_size[n]):
            try:
                result = optimize(pair, spec, config.z0)
            except NumericalFailure as exc:
                raise NumericalFailure(
                    f"{exc} (scenario {label}, n = {n}, trial {t}, arch {arch_label}, "
                    f"trial seed {seed})") from exc
            records.append(TrialRecord(
                scenario=label,
                n=n,
                arch=arch_label,
                trial=t,
                seed=seed,
                p_r=result.p_r,
                p_bar_full=result.p_bar_full,
                ratio_full=result.ratio_full,
                residual_norm=result.residual_norm,
                consistent=result.consistent,
                in_a=in_a,
            ))
        return records

    if threads == 1:
        chunks = [run_task(task) for task in tasks]
    else:
        with concurrent.futures.ThreadPoolExecutor(max_workers=threads) as pool:
            chunks = list(pool.map(run_task, tasks))
    return [record for chunk in chunks for record in chunk]


def summarize(records) -> list[SummaryRow]:
    """Mean/population-std aggregates per (scenario, n, arch), in record order."""
    cells: dict[tuple, list[TrialRecord]] = {}
    for record in records:
        cells.setdefault((record.scenario, record.n, record.arch), []).append(record)
    rows = []
    for (scenario, n, arch), group in cells.items():
        ratios = np.array([r.ratio_full for r in group])
        rows.append(SummaryRow(
            scenario=scenario,
            n=n,
            arch=arch,
            trials=len(group),
            mean_ratio=float(ratios.mean()),
            std_ratio=float(ratios.std()),
            min_ratio=float(ratios.min()),
            max_ratio=float(ratios.max()),
            consistent_fraction=float(np.mean([r.consistent for r in group])),
        ))
    return rows


def write_records_csv(records, fp) -> None:
    """Records CSV with shortest round-trip floats; stable byte for byte.

    The in_a column appears only when membership was recorded.  A field
    holding a comma (a gc:I= label with several cuts) is quoted, RFC 4180.
    """
    with_membership = any(r.in_a is not None for r in records)
    out = csv.writer(fp, lineterminator="\n")
    fp.write(RECORD_HEADER + (",in_a" if with_membership else "") + "\n")
    for r in records:
        row = [r.scenario, str(r.n), r.arch, str(r.trial), str(r.seed), _fmt(r.p_r),
               _fmt(r.p_bar_full), _fmt(r.ratio_full), _fmt(r.residual_norm), _bool(r.consistent)]
        if with_membership:
            row.append("" if r.in_a is None else _bool(r.in_a))
        out.writerow(row)


def write_summary_csv(rows, fp) -> None:
    out = csv.writer(fp, lineterminator="\n")
    fp.write(SUMMARY_HEADER + "\n")
    for r in rows:
        out.writerow([
            r.scenario, str(r.n), r.arch, str(r.trials), _fmt(r.mean_ratio),
            _fmt(r.std_ratio), _fmt(r.min_ratio), _fmt(r.max_ratio),
            _fmt(r.consistent_fraction),
        ])


def _fmt(x: float) -> str:
    return repr(float(x))


def _bool(flag: bool) -> str:
    return "true" if flag else "false"
