"""The two workloads.  Each is run in whole passes of rounds of identical shape.

A round of the sweep is one ``bdris simulate`` call through ``bdris.cli.main``
followed by ``PROBES`` single ``optimize()`` calls per latency architecture at
the sweep's largest size.  A round of ``large_surface`` is one ``optimize()``
call per architecture.  Round r draws its inputs from the run seed and r
alone, so the same seed gives the same inputs however long the run lasts.

tc calls are the exception: their pairs come from a fixed pool drawn from
``TC_POOL_SEED``, not from the run seed.  The tc scattering check is an
absolute tolerance that fails on a rare pair (see README.md); with fixed tc
inputs and runs of whole passes over the pool, such a failure is the same
share of every run whatever its seed and length.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import os
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass, field

import check

# Round r of a run with seed s uses seed s * ROUND_STRIDE + r.
ROUND_STRIDE = 100_000
Z0 = 50.0
# Architectures whose optimize() latency is an end-to-end metric.
LATENCY_ARCHS = ("sc", "gc:4", "tc", "fc")
# Probe calls per architecture and sweep round; with MIN_ROUNDS this gives
# >= 100 samples a run.  Probes run serially after the sweep: timed inside a
# two-worker sweep, one call's latency mostly measures the other worker.
PROBES = 4
# The tc pairs of every run: the first TC_POOL pairs of Rng(TC_POOL_SEED) at
# the size in use.  A run is whole passes over them.
TC_POOL_SEED = 0
TC_POOL = 32


def latency_key(label: str) -> str:
    """Metric suffix of an architecture label: gc:4 -> gc4."""
    return label.replace(":", "")


@dataclass(frozen=True)
class Sweep:
    """A Rayleigh ``simulate`` call."""

    sizes: tuple[int, ...]
    trials: int
    archs: tuple[str, ...]
    threads: int
    membership: bool

    def argv(self, seed: int, out: str, summary: str) -> list[str]:
        """The ``bdris simulate`` arguments of this sweep."""
        argv = ["simulate", "--scenario", "rayleigh", "--sizes", ",".join(map(str, self.sizes)),
                "--trials", str(self.trials), "--arch", ",".join(self.archs), "--seed", str(seed),
                "--out", out, "--summary", summary, "--threads", str(self.threads)]
        return argv + ["--check-membership"] if self.membership else argv


@dataclass
class Tally:
    """Operations attempted, failed (raised or failed a check), and wrong outputs."""

    attempted: int = 0
    failed: int = 0
    wrong: bool = False
    notes: list[str] = field(default_factory=list)

    def note(self, text: str) -> None:
        if len(self.notes) < 20:
            self.notes.append(text)


def draw_pair(n: int, trial_seed: int):
    """A sweep's channel pair, drawn again through the public generator."""
    channel = importlib.import_module("bdris.channel")
    return channel.gen_rayleigh(n, channel.Rng(trial_seed))


def tc_pool(n: int) -> list:
    """The fixed tc pairs at size n, the same on every run."""
    channel = importlib.import_module("bdris.channel")
    rng = channel.Rng(TC_POOL_SEED)
    return [channel.gen_rayleigh(n, rng) for _ in range(TC_POOL)]


def _optimize_checked(module, spec, label, pair, tally, latency, where, trace) -> float:
    """One timed, checked call of ``module.optimize``, traced by `trace`; returns its duration.

    The function is looked up inside the traced window, where the tracer has
    wrapped it.
    """
    tally.attempted += 1
    start = time.perf_counter()
    try:
        with trace:
            result = module.optimize(pair, spec, Z0)
    except Exception:
        tally.failed += 1
        tally.note(f"{where} {label}: {traceback.format_exc()[-500:]}")
        return time.perf_counter() - start
    dt = time.perf_counter() - start
    latency[latency_key(label)].append(dt)
    reasons = check.check_surface(pair.h_r, pair.h_t, label, Z0, result.b_matrix.matrix,
                                  result.p_r, result.consistent)
    if reasons:
        tally.failed += 1
        tally.wrong = True
        tally.note(f"{where} {label}: {reasons}")
    return dt


class SweepWorkload:
    """Repeated ``simulate`` calls, each followed by single optimize() probes.

    Only the ``simulate`` call is traced and counts towards records_per_s;
    the probes give the latency metrics.
    """

    # Rounds per whole pass over the tc pool.
    pass_rounds = TC_POOL // PROBES

    def __init__(self, sweep: Sweep, seed: int, workdir: str):
        self.sweep = sweep
        self.seed = seed
        self.out = os.path.join(workdir, "records.csv")
        self.summary = os.path.join(workdir, "summary.csv")
        self.cli = importlib.import_module("bdris.cli")
        self.optimize = importlib.import_module("bdris.optimize")
        architecture = importlib.import_module("bdris.architecture")
        self.probe_specs = {label: architecture.parse_arch(label, max(sweep.sizes))
                            for label in LATENCY_ARCHS}
        self.tc_pairs = tc_pool(max(sweep.sizes))
        self.rates: list[float] = []
        self.latency: dict[str, list[float]] = defaultdict(list)

    @property
    def records_per_round(self) -> int:
        s = self.sweep
        return len(s.sizes) * s.trials * len(s.archs)

    def round(self, r: int, tally: Tally, trace) -> float:
        """One round; returns the duration of the ``simulate`` call, the traced window."""
        seed = self.seed * ROUND_STRIDE + r
        expected = self.records_per_round
        tally.attempted += expected
        echo = io.StringIO()
        start = time.perf_counter()
        try:
            with trace, contextlib.redirect_stderr(echo):
                code = self.cli.main(self.sweep.argv(seed, self.out, self.summary))
        except Exception:
            code = traceback.format_exc()
        elapsed = time.perf_counter() - start
        if code != 0:
            tally.failed += expected
            tally.note(f"round {r}: simulate returned {code}: {echo.getvalue().strip()[-500:]}")
        else:
            self.rates.append(expected / elapsed)
            self._check(r, seed, tally)
        self._probes(r, seed, tally)
        return elapsed

    def _check(self, r: int, seed: int, tally: Tally) -> None:
        with open(self.out) as fp:
            rows = check.parse_csv(fp.read())
        with open(self.summary) as fp:
            summary = check.parse_csv(fp.read())
        per_record, whole = check.check_sweep(rows, summary, self.sweep, seed, draw_pair)
        bad = [reasons for reasons in per_record if reasons]
        tally.failed += len(bad)
        if bad or whole:
            tally.wrong = True
            tally.note(f"round {r}: {len(bad)} records fail, e.g. {bad[:1]}; call: {whole}")

    def _probes(self, r: int, seed: int, tally: Tally) -> None:
        """PROBES untraced optimize() calls per latency architecture at n max.

        sc, gc:4 and fc run on the round's pairs of the first PROBES trials,
        tc on the next PROBES pairs of the fixed tc pool.
        """
        si = len(self.sweep.sizes) - 1
        n = self.sweep.sizes[si]
        for t in range(PROBES):
            pair = draw_pair(n, check.trial_seed(seed, si, t))
            tc_pair = self.tc_pairs[(r * PROBES + t) % TC_POOL]
            for label, spec in self.probe_specs.items():
                _optimize_checked(self.optimize, spec, label,
                                  tc_pair if label == "tc" else pair, tally, self.latency,
                                  f"round {r} probe {t}", contextlib.nullcontext())


class SurfaceWorkload:
    """Single optimize() calls on Rayleigh pairs drawn before timing starts."""

    # Rounds per whole pass over the tc pool.
    pass_rounds = TC_POOL

    def __init__(self, archs: tuple[tuple[str, int], ...], pool: int, seed: int):
        self.archs = archs
        self.optimize = importlib.import_module("bdris.optimize")
        architecture = importlib.import_module("bdris.architecture")
        channel = importlib.import_module("bdris.channel")
        rng = channel.Rng(seed)
        sizes = sorted({n for label, n in archs if label != "tc"})
        self.pools = {n: [channel.gen_rayleigh(n, rng) for _ in range(pool)] for n in sizes}
        self.tc_pairs = tc_pool(dict(archs)["tc"])
        self.specs = {label: architecture.parse_arch(label, n) for label, n in archs}
        self.rates: list[float] = []
        self.latency: dict[str, list[float]] = defaultdict(list)
        for label, n in archs:  # warm-up, untimed and unchecked
            self.optimize.optimize(self._pair(label, n, 0), self.specs[label], Z0)

    def _pair(self, label: str, n: int, r: int):
        pool = self.tc_pairs if label == "tc" else self.pools[n]
        return pool[r % len(pool)]

    def round(self, r: int, tally: Tally, trace) -> float:
        """One round; returns the summed duration of its calls, the traced windows."""
        elapsed = 0.0
        for label, n in self.archs:
            elapsed += _optimize_checked(self.optimize, self.specs[label], label,
                                         self._pair(label, n, r), tally, self.latency,
                                         f"round {r}", trace)
        self.rates.append(len(self.archs) / elapsed)
        return elapsed


SIZES = (8, 16, 32, 64)
SMOKE_SIZES = (8, 16)


def make(name: str, seed: int, workdir: str, smoke: bool):
    """The named workload, full size or reduced for a smoke run."""
    trials = 3 if smoke else 25
    sizes = SMOKE_SIZES if smoke else SIZES
    if name == "rayleigh_sweep":
        return SweepWorkload(Sweep(sizes, trials, ("sc", "gc:4"), 2, True), seed, workdir)
    if name == "large_surface":
        n, n_fc = (32, 16) if smoke else (256, 64)
        return SurfaceWorkload((("sc", n), ("gc:4", n), ("tc", n), ("fc", n_fc)),
                               4 if smoke else 128, seed)
    raise ValueError(f"unknown workload {name!r}")


# Rounds every run makes at least, a whole number of passes, so that every
# latency metric has >= 100 samples and ten lie beyond its 90th percentile.
MIN_ROUNDS = {"rayleigh_sweep": 32, "large_surface": 128}
WORKLOADS = tuple(MIN_ROUNDS)
