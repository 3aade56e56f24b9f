"""Per-layer times of fc, gc:4 or tc optimize() calls, of a sweep round's stages, or of the acceptance sweeps.

Usage, from the repository root:

    python tools/fc_layers.py --tree before=PATH/TO/OLD/src --tree after=src \
        --sizes 8,64,256,1024,4096 --skip before:4096 --append BENCH_trajectory.json

    python tools/fc_layers.py --arch tc --tree before=PATH/TO/OLD/src --tree after=src \
        --sizes 8,64,256,1024 --append BENCH_trajectory.json

    python tools/fc_layers.py --arch gc4 --tree before=PATH/TO/OLD/src --tree after=src \
        --sizes 8,64,256,1024 --append BENCH_trajectory.json

    python tools/fc_layers.py --arch sweep --tree before=PATH/TO/OLD/src --tree after=src \
        --sizes 8,16,32,64 --append BENCH_trajectory.json

    python tools/fc_layers.py --arch acceptance --tree before=PATH/TO/OLD/src --tree after=src \
        --append BENCH_trajectory.json

Each tree is measured in its own interpreter, with PYTHONPATH set to its
src directory and BLAS pinned to one thread.  For fc, gc4 and tc, the
calls run on Rayleigh pairs drawn by Rng(1), Rng(2), ..., per size, and
every layer reports its median over the calls, in ms.  For --arch fc (the
default) and --arch gc4 (gc:4, groups of four):

- total: the whole optimize() call;
- cayley: scattering_from_susceptance, less its construction check;
- check: the construction check of the ScatteringMatrix;
- power: Theta h_t and the received power (ScatteringMatrix.apply and
  _received_powers, or received_power on a tree without _received_powers);
- closed_form: the rest of the call (steering system, group solve, B in
  its layout, bounds).

For --arch tc the same spans are named for what they hold there:

- total: the whole optimize() call;
- factors: scattering_from_susceptance less its check, that is the
  Cayley map's factors (and the dense sweep, where Theta is dense);
- check: the construction check, the O(n) bound or the dense check;
- apply: Theta h_t and the received power (ScatteringMatrix.apply and
  _received_powers, or received_power on a tree with optimize_tc);
- steering: the rest of the call (the steering solve, B's bands, bounds);
- dense_fallbacks: the calls whose Theta is a dense matrix, a count (on a
  tree without the operator layout, every call).

--arch sweep times SWEEP_ROUNDS rounds of the Rayleigh sweep the benchmark
runs: one in-process bdris.cli.main call of ``bdris simulate`` with the
benchmark's arguments (--sizes, SWEEP_TRIALS trials, sc and gc:4,
membership on, seeds 1, 2, ...), writing its records and summary CSVs to a
temporary directory.  Each stage reports its median per round, in ms, and
the stages sum to the total:

- total: the whole cli.main call, what the benchmark's records_per_s times;
- draw: the channel draws, through the first of DRAW_ENTRIES that
  bdris.experiment has: draw_trials (a stack's Rng, draws and ChannelStack
  check) or gen_rayleigh (one trial's draws and ChannelPair check);
- membership: the first of MEMBERSHIP_ENTRIES it has, tc_membership (a
  stack's) or is_tc_adversarial (one trial's);
- optimize.sc, optimize.gc:4: every optimize() or optimize_trials() call
  run_experiment makes for that architecture;
- csv: write_records_csv, summarize and write_summary_csv;
- cli: the rest of cli.main, that is parsing, the configuration echo and
  opening and closing the two files;
- rest: the remainder of run_experiment, its own bookkeeping;
- records_per_s: the records of a round over its median total.

--arch acceptance times the Monte Carlo sweeps of acceptance criteria 2-5
(tests/test_acceptance.py) end to end: per criterion, one in-process
bdris.cli.main call of ``bdris simulate`` with that criterion's
configuration (ACCEPTANCE_SWEEPS, seed 0, worker cap 8), writing its
records and summary CSVs to a temporary directory, after one small
warm-up call.  Each criterion reports total (the call, in ms), its
records, and records_per_s; --sizes does not apply.

The trees are measured one after the other, in the order given; for the
sweep and the acceptance sweeps, in SWEEP_PASSES alternating passes, each
figure the median over its tree's passes.

--skip TREE:N leaves a size out for one tree.  --append adds one entry,
with the machine, versions, this command and --note, to a trajectory file
holding a JSON list, and creates the file if needed; without it the entry
is printed.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import shlex
import statistics
import subprocess
import sys
import time

# Calls per size: enough for a stable median at small n, few at large n.
CALLS = {8: 30, 64: 30, 256: 30, 1024: 10, 4096: 5}


# Span names per architecture: the call, the Cayley map less its check, the
# check, received_power, and the rest of the call; for the sweep, its stages.
LAYERS = {"fc": ("total", "cayley", "check", "power", "closed_form"),
          "gc4": ("total", "cayley", "check", "power", "closed_form"),
          "tc": ("total", "factors", "check", "apply", "steering"),
          "sweep": ("total", "draw", "membership", "optimize.sc", "optimize.gc:4", "csv", "cli",
                    "rest"),
          "acceptance": ("total", "records", "records_per_s")}
# The sweep round: the benchmark's rayleigh_sweep at the given sizes.
SWEEP_ROUNDS = 30
SWEEP_TRIALS = 25
SWEEP_ARCHS = ("sc", "gc:4")
# The architecture label each per-call mode times.
ARCH_LABELS = {"fc": "fc", "gc4": "gc:4", "tc": "tc"}
# Alternating passes over the trees for --arch sweep and acceptance (fc and
# tc make one): a sweep is short enough for host speed to drift between two
# trees measured one after the other, so these alternate the trees and
# report each figure's median over their passes.
SWEEP_PASSES = 5
# What a figure is the median over, for the alternating modes.
UNITS = {"sweep": "round", "acceptance": "sweep"}
# The draw and membership entry points run_experiment may call, stacked
# first: a tree that has the stacked one calls only that one.
DRAW_ENTRIES = ("draw_trials", "gen_rayleigh")
MEMBERSHIP_ENTRIES = ("tc_membership", "is_tc_adversarial")
# The simulate arguments of acceptance criteria 2-5, as tests/test_acceptance.py runs them.
ACCEPTANCE_SWEEPS = {
    "criterion_2": ("--scenario", "rayleigh", "--sizes", "8,16,32,64", "--trials", "1000",
                    "--arch", "sc,gc:2,gc:4,tc"),
    "criterion_3": ("--scenario", "gc_favorable", "--sizes", "8,16,24,32,40,48,56,64",
                    "--trials", "500", "--arch", "gc:2,tc", "--group-size", "2"),
    "criterion_4": ("--scenario", "gc_adversarial", "--sizes", "64", "--trials", "1000",
                    "--arch", "tc,gc:4,gc:2", "--group-size", "4"),
    "criterion_5": ("--scenario", "tc_adversarial", "--sizes", "64", "--trials", "1000",
                    "--arch", "tc,gc:4,sc"),
}


def timed(spans: dict, name, fn):
    """fn, adding its wall time to spans[name], or to spans[name(args)] for a callable name."""
    def wrapper(*args, **kwargs):
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            key = name(args) if callable(name) else name
            spans[key] = spans.get(key, 0.0) + time.perf_counter() - start
    return wrapper


def measure_sweep(sizes: list[int]) -> dict:
    """Median per-stage ms of one sweep round, in this interpreter."""
    import contextlib
    import io
    import tempfile

    import numpy as np

    from bdris import cli, experiment

    spans: dict[str, float] = {}
    for stage, entries in (("draw", DRAW_ENTRIES), ("membership", MEMBERSHIP_ENTRIES)):
        entry = next(name for name in entries if hasattr(experiment, name))
        setattr(experiment, entry, timed(spans, stage, getattr(experiment, entry)))
    # run_experiment called optimize() per trial before trials were
    # batched, and optimize_trials() per cell since; whichever it calls is
    # timed
    for entry in ("optimize", "optimize_trials"):
        if hasattr(experiment, entry):
            setattr(experiment, entry, timed(spans, lambda args: f"optimize.{args[1].label}",
                                             getattr(experiment, entry)))
    # the names cli.main calls, as the benchmark's tracer wraps them
    cli.run_experiment = timed(spans, "run", cli.run_experiment)
    for entry in ("write_records_csv", "summarize", "write_summary_csv"):
        setattr(cli, entry, timed(spans, "csv", getattr(cli, entry)))
    count = len(sizes) * SWEEP_TRIALS * len(SWEEP_ARCHS)

    with tempfile.TemporaryDirectory() as workdir:
        def round_(seed: int) -> None:
            argv = ["simulate", "--scenario", "rayleigh", "--sizes", ",".join(map(str, sizes)),
                    "--trials", str(SWEEP_TRIALS), "--arch", ",".join(SWEEP_ARCHS),
                    "--seed", str(seed), "--out", os.path.join(workdir, "records.csv"),
                    "--summary", os.path.join(workdir, "summary.csv"), "--threads", "2",
                    "--check-membership"]
            with contextlib.redirect_stderr(io.StringIO()):
                if cli.main(argv) != 0:
                    raise RuntimeError(f"simulate failed on seed {seed}")

        round_(0)  # warm-up
        rows = []
        for seed in range(1, SWEEP_ROUNDS + 1):
            spans.clear()
            start = time.perf_counter()
            round_(seed)
            total = time.perf_counter() - start
            stages = [spans.get(name, 0.0) for name in LAYERS["sweep"][1:-2]]
            run = spans["run"]
            rows.append([total, *stages, total - run - spans["csv"], run - sum(stages[:-1])])
    medians = np.median(np.array(rows), axis=0) * 1e3
    out = {name: round(float(v), 4) for name, v in zip(LAYERS["sweep"], medians)}
    out.update(records=count, rounds=len(rows), records_per_s=round(count / (medians[0] / 1e3), 1))
    return {",".join(map(str, sizes)): out}


def measure_acceptance() -> dict:
    """ms, records and records/s of one simulate call per acceptance sweep, in this interpreter."""
    import contextlib
    import io
    import tempfile

    from bdris import cli

    out = {}
    with tempfile.TemporaryDirectory() as workdir:
        records = os.path.join(workdir, "records.csv")

        def simulate(args) -> float:
            argv = ["simulate", *args, "--seed", "0", "--threads", "8", "--out", records,
                    "--summary", os.path.join(workdir, "summary.csv")]
            start = time.perf_counter()
            with contextlib.redirect_stderr(io.StringIO()):
                if cli.main(argv) != 0:
                    raise RuntimeError(f"simulate failed: {argv}")
            return time.perf_counter() - start

        simulate(("--scenario", "rayleigh", "--sizes", "8", "--trials", "10", "--arch", "sc"))  # warm-up
        for name, args in ACCEPTANCE_SWEEPS.items():
            total = simulate(args)
            with open(records) as fp:
                count = sum(1 for _ in fp) - 1
            out[name] = {"total": round(total * 1e3, 1), "records": count,
                         "records_per_s": round(count / total, 1)}
    return out


def measure(arch: str, sizes: list[int]) -> dict:
    """Median per-layer ms of fc, gc:4 or tc optimize() per size, of a sweep round, or of the acceptance sweeps."""
    if arch == "sweep":
        return measure_sweep(sizes)
    if arch == "acceptance":
        return measure_acceptance()
    import numpy as np

    from bdris import architecture, optimize
    from bdris.channel import Rng, gen_rayleigh

    spans: dict[str, float] = {}
    optimize.scattering_from_susceptance = timed(spans, "map", optimize.scattering_from_susceptance)
    if not hasattr(optimize, "_received_powers") or (arch == "tc" and hasattr(optimize, "optimize_tc")):
        optimize.received_power = timed(spans, "power", optimize.received_power)
    else:
        # Theta h_t by apply and p_r by _received_powers (tc too, on a tree
        # without optimize_tc)
        optimize._received_powers = timed(spans, "power", optimize._received_powers)
        architecture.ScatteringMatrix.apply = timed(spans, "power", architecture.ScatteringMatrix.apply)
    post_init = architecture.ScatteringMatrix.__post_init__
    architecture.ScatteringMatrix.__post_init__ = timed(spans, "check", post_init)
    out = {}
    for n in sizes:
        spec = architecture.parse_arch(ARCH_LABELS[arch], n)
        optimize.optimize(gen_rayleigh(n, Rng(0)), spec)  # warm-up
        rows = []
        dense = 0
        for k in range(CALLS.get(n, 5)):
            pair = gen_rayleigh(n, Rng(k + 1))
            spans.clear()
            start = time.perf_counter()
            result = optimize.optimize(pair, spec)
            total = time.perf_counter() - start
            dense += getattr(result.theta, "ldl", None) is None
            rows.append((total, spans["map"] - spans["check"], spans["check"], spans["power"],
                         total - spans["map"] - spans["power"]))
        medians = np.median(np.array(rows), axis=0) * 1e3
        out[str(n)] = {name: round(float(v), 4) for name, v in zip(LAYERS[arch], medians)}
        out[str(n)]["calls"] = len(rows)
        if arch == "tc":
            out[str(n)]["dense_fallbacks"] = dense
    return out


def median_passes(passes: list[dict]) -> dict:
    """Each figure's median over the passes of one tree, with the number of passes when more than one."""
    if len(passes) == 1:
        return passes[0]
    out = {}
    for size, figures in passes[0].items():
        out[size] = {key: round(statistics.median(p[size][key] for p in passes), 4) for key in figures}
        out[size]["passes"] = len(passes)
    return out


def environment() -> dict:
    import numpy as np

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fp:
            cpu = next(line.split(":", 1)[1].strip() for line in fp if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--arch", choices=sorted(LAYERS), default="fc")
    parser.add_argument("--tree", action="append", default=[], metavar="NAME=SRC")
    parser.add_argument("--sizes", default="8,64,256,1024,4096")
    parser.add_argument("--skip", action="append", default=[], metavar="NAME:N")
    parser.add_argument("--append", metavar="JSON")
    parser.add_argument("--note", default="", help="free text kept with the entry")
    parser.add_argument("--measure", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    sizes = [int(s) for s in args.sizes.split(",")]
    if args.measure:
        json.dump({"layers": measure(args.arch, sizes), "env": environment()}, sys.stdout)
        return 0
    entry = {"date": datetime.date.today().isoformat(),
             "command": " ".join(["python", "tools/fc_layers.py", *map(shlex.quote, argv or sys.argv[1:])]),
             "arch": args.arch, "unit": f"ms, median per {UNITS.get(args.arch, 'call')}",
             "note": args.note, "trees": {}}
    passes: dict[str, list[dict]] = {}
    for _ in range(SWEEP_PASSES if args.arch in UNITS else 1):
        for spec in args.tree:
            name, src = spec.split("=", 1)
            keep = [n for n in sizes if f"{name}:{n}" not in args.skip]
            env = dict(os.environ, PYTHONPATH=os.path.abspath(src), OPENBLAS_NUM_THREADS="1",
                       OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
            run = subprocess.run([sys.executable, __file__, "--measure", "--arch", args.arch,
                                  "--sizes", ",".join(map(str, keep))],
                                 env=env, check=True, capture_output=True, text=True)
            result = json.loads(run.stdout)
            entry["env"] = result["env"]
            passes.setdefault(name, []).append(result["layers"])
    for name, layers in passes.items():
        entry["trees"][name] = median_passes(layers)
    if not args.append:
        json.dump(entry, sys.stdout, indent=1)
        print()
        return 0
    history = []
    if os.path.exists(args.append):
        with open(args.append) as fp:
            history = json.load(fp)
    history.append(entry)
    with open(args.append, "w") as fp:
        json.dump(history, fp, indent=1)
        fp.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
