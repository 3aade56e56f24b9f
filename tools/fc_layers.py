"""A/B per-layer times of fc, gc:4 or tc optimize() calls, a sweep round's stages, or the acceptance sweeps.

Usage, from the repository root:

    python tools/fc_layers.py --tree before=PATH/TO/OLD/src --tree after=src \
        --sizes 8,64,256,1024,4096 --skip before:4096 --append BENCH_trajectory.json

--arch tc, gc4, sweep (with --sizes 8,16,32,64) and acceptance take the
same --tree, --skip and --append.

One interpreter measures every tree: each --tree's bdris directory is
imported as a package of its own under a private alias (load_tree), so the
trees share the process, its heap and the host's drift, and their calls
alternate.  BLAS is pinned to one thread before numpy loads.

For fc, gc4 and tc, the rounds of a size draw the Rayleigh pairs Rng(1),
Rng(2), ..., and in each round each tree in turn, in the order given and
reversed every other round, runs the dense CHECKER_N x CHECKER_N complex
solve that the benchmark's checker (perfbench/check.py, check_surface) runs
after every optimize() call of large_surface and then its timed optimize()
call, so the call runs with the caches that solve leaves behind, as in the
benchmark; a warm loop of calls alone reads fixed costs low.  Every layer
reports its median over a tree's CALLS calls, in ms.  For --arch fc (the
default) and --arch gc4 (gc:4, groups of four):

- total: the whole optimize() call;
- cayley: scattering_from_susceptance, less its construction check;
- check: the construction check of the ScatteringMatrix;
- power: Theta h_t and the received power (ScatteringMatrix.apply and
  _received_powers);
- closed_form: the rest of the call (steering system, group solve, B in
  its layout, bounds).

For --arch tc the same spans are named for what they hold there:

- total: the whole optimize() call;
- factors: scattering_from_susceptance less its check, that is the
  Cayley map's factors (and the dense sweep, where Theta is dense);
- check: the construction check, the O(n) bound or the dense check;
- apply: Theta h_t and the received power;
- steering: the rest of the call (the steering solve, B's bands, bounds);
- dense_fallbacks: the calls whose Theta is a dense matrix, a count.

Resolution: in A/A controls (--tree a=src --tree b=src, the entries so
noted in BENCH_trajectory.json; 2 vCPUs, OpenBLAS, one thread) the two
copies' per-call totals agreed within 1.1% for fc, gc4 and tc at every n
from 8 to 1024, and their layers within 1.6%; the sweep's round totals
within 0.2%, and its stages within 2.1%.  A difference below 2% between
two trees is not resolved.

--arch sweep times ROUNDS["sweep"] rounds of the Rayleigh sweep the
benchmark runs: one bdris.cli.main call of ``bdris simulate`` with the
benchmark's arguments (--sizes, SWEEP_TRIALS trials, sc and gc:4,
membership on, seeds 1, 2, ...), writing its records and summary CSVs to a
temporary directory, the trees alternating round by round.  Each stage
reports its median per round, in ms, and the stages sum to the total:

- total: the whole cli.main call, what the benchmark's records_per_s times;
- draw: draw_trials, a stack's Rng, draws and ChannelStack check;
- membership: tc_membership of a stack;
- optimize.sc, optimize.gc:4: every optimize_trials() call run_experiment
  makes for that architecture;
- csv: write_records_csv, summarize and write_summary_csv;
- cli: the rest of cli.main, that is parsing, the configuration echo and
  opening and closing the two files;
- rest: the remainder of run_experiment, its own bookkeeping;
- records_per_s: the records of a round over its median total.

--arch acceptance times the Monte Carlo sweeps of acceptance criteria 2-5
(tests/test_acceptance.py) end to end: per criterion, one bdris.cli.main
call of ``bdris simulate`` with that criterion's configuration
(ACCEPTANCE_SWEEPS, seed 0, worker cap 8), writing its records and summary
CSVs to a temporary directory, after one small warm-up call per tree.  The
trees alternate round by round, each round running every criterion, and
each criterion reports total (its median over ROUNDS["acceptance"] rounds,
in ms), its records, and records_per_s; --sizes does not apply.

--skip TREE:N leaves a size out for one tree.  --append adds one entry,
with the machine, versions, this command and --note, to a trajectory file
holding a JSON list, and creates the file if needed; without it the entry
is printed.
"""

import os

# One BLAS thread, set before numpy loads, as perfbench/run.py sets it.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import datetime  # noqa: E402
import importlib.util  # noqa: E402
import io  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shlex  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

# Calls per tree and size: enough for a stable median at small n, few at large n.
CALLS = {8: 600, 64: 600, 256: 600, 1024: 200, 4096: 30}
# Span names per architecture: the call, the Cayley map less its check, the
# check, the power, and the rest of the call; for the sweep, its stages.
LAYERS = {"fc": ("total", "cayley", "check", "power", "closed_form"),
          "gc4": ("total", "cayley", "check", "power", "closed_form"),
          "tc": ("total", "factors", "check", "apply", "steering"),
          "sweep": ("total", "draw", "membership", "optimize.sc", "optimize.gc:4", "csv", "cli",
                    "rest"),
          "acceptance": ("total", "records", "records_per_s")}
# Rounds per tree of the modes a figure is the median per round (sweep) or
# per sweep (acceptance) of; a per-call mode's figure is per call.
ROUNDS = {"sweep": 60, "acceptance": 5}
UNITS = {"sweep": "round", "acceptance": "sweep"}
# The sweep round: the benchmark's rayleigh_sweep at the given sizes.
SWEEP_TRIALS = 25
SWEEP_ARCHS = ("sc", "gc:4")
# The architecture label each per-call mode times.
ARCH_LABELS = {"fc": "fc", "gc4": "gc:4", "tc": "tc"}
# The size of the dense solve perfbench's checker runs after each
# large_surface call (n = 256 for sc, gc:4 and tc), run before each timed
# per-call measurement.
CHECKER_N = 256
CHECKER_Z0 = 50.0
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
# The package modules a tree's measurements reach, imported with it.
MODULES = ("architecture", "channel", "optimize", "experiment", "cli")
_ALIASES = itertools.count()


def load_tree(src: str):
    """SRC/bdris imported as a package of its own, with MODULES as its attributes.

    Each call imports a fresh copy under a new alias, so two loads of one
    directory share no module object; the package's relative imports
    resolve within the copy.
    """
    path = os.path.join(os.path.abspath(src), "bdris")
    alias = f"_fc_layers_tree{next(_ALIASES)}"
    spec = importlib.util.spec_from_file_location(alias, os.path.join(path, "__init__.py"),
                                                  submodule_search_locations=[path])
    package = importlib.util.module_from_spec(spec)
    sys.modules[alias] = package
    spec.loader.exec_module(package)
    for name in MODULES:
        importlib.import_module(f"{alias}.{name}")
    return package


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


def wrap_calls(tree, spans: dict) -> None:
    """Time a tree's Cayley map, its check and the power into spans."""
    optimize, matrix = tree.optimize, tree.architecture.ScatteringMatrix
    optimize.scattering_from_susceptance = timed(spans, "map", optimize.scattering_from_susceptance)
    optimize._received_powers = timed(spans, "power", optimize._received_powers)
    matrix.apply = timed(spans, "power", matrix.apply)
    matrix.__post_init__ = timed(spans, "check", matrix.__post_init__)


def wrap_sweep(tree, spans: dict) -> None:
    """Time a tree's sweep stages into spans, where cli.main and run_experiment look them up."""
    experiment, cli = tree.experiment, tree.cli
    experiment.draw_trials = timed(spans, "draw", experiment.draw_trials)
    experiment.tc_membership = timed(spans, "membership", experiment.tc_membership)
    experiment.optimize_trials = timed(spans, lambda args: f"optimize.{args[1].label}",
                                       experiment.optimize_trials)
    cli.run_experiment = timed(spans, "run", cli.run_experiment)
    for entry in ("write_records_csv", "summarize", "write_summary_csv"):
        setattr(cli, entry, timed(spans, "csv", getattr(cli, entry)))


def alternate(names: list, rounds: int):
    """(round, name) over rounds rounds of names, the order reversed every other round."""
    for k in range(rounds):
        for name in names if k % 2 == 0 else names[::-1]:
            yield k, name


def simulate(tree, argv: list) -> float:
    """Seconds of one in-process ``bdris simulate`` call of a tree, its stderr discarded."""
    start = time.perf_counter()
    with contextlib.redirect_stderr(io.StringIO()):
        if tree.cli.main(["simulate", *argv]) != 0:
            raise RuntimeError(f"simulate failed: {argv}")
    return time.perf_counter() - start


def medians(rows: list, names) -> dict:
    """The median of each column of rows, in ms, by name."""
    values = np.median(np.array(rows), axis=0) * 1e3
    return {name: round(float(v), 4) for name, v in zip(names, values)}


def measure_calls(arch: str, trees: dict, sizes: list[int], skip: list[str]) -> dict:
    """Median per-layer ms of each tree's fc, gc:4 or tc optimize() per size, the trees' calls alternated."""
    spans: dict[str, float] = {}
    for tree in trees.values():
        wrap_calls(tree, spans)
    rng = np.random.default_rng(0)
    checker = rng.standard_normal((CHECKER_N, CHECKER_N))
    checker += checker.T
    checker_h = rng.standard_normal(CHECKER_N) + 1j * rng.standard_normal(CHECKER_N)
    eye = np.eye(CHECKER_N)
    out = {name: {} for name in trees}
    for n in sizes:
        names = [name for name in trees if f"{name}:{n}" not in skip]
        specs = {name: trees[name].architecture.parse_arch(ARCH_LABELS[arch], n) for name in names}
        rows = {name: [] for name in names}
        dense = dict.fromkeys(names, 0)
        for k, name in alternate(names, CALLS.get(n, 5) + 1):
            tree = trees[name]
            pair = tree.channel.gen_rayleigh(n, tree.channel.Rng(k))
            if not k:  # warm-up
                tree.optimize.optimize(pair, specs[name])
                continue
            # perfbench's check_surface solve, with its temporaries
            jb = 1j * CHECKER_Z0 * checker
            np.linalg.solve(eye + jb, (eye - jb) @ checker_h)
            spans.clear()
            start = time.perf_counter()
            result = tree.optimize.optimize(pair, specs[name])
            total = time.perf_counter() - start
            dense[name] += result.theta.ldl is None
            rows[name].append((total, spans["map"] - spans["check"], spans["check"], spans["power"],
                               total - spans["map"] - spans["power"]))
        for name in names:
            figures = out[name][str(n)] = medians(rows[name], LAYERS[arch])
            figures["calls"] = len(rows[name])
            if arch == "tc":
                figures["dense_fallbacks"] = dense[name]
    return out


def measure_sweep(trees: dict, sizes: list[int]) -> dict:
    """Median per-stage ms of each tree's sweep round, the trees alternated round by round."""
    spans: dict[str, float] = {}
    for tree in trees.values():
        wrap_sweep(tree, spans)
    count = len(sizes) * SWEEP_TRIALS * len(SWEEP_ARCHS)
    rows = {name: [] for name in trees}
    with tempfile.TemporaryDirectory() as workdir:
        def argv(seed: int) -> list:
            return ["--scenario", "rayleigh", "--sizes", ",".join(map(str, sizes)),
                    "--trials", str(SWEEP_TRIALS), "--arch", ",".join(SWEEP_ARCHS),
                    "--seed", str(seed), "--out", os.path.join(workdir, "records.csv"),
                    "--summary", os.path.join(workdir, "summary.csv"), "--threads", "2",
                    "--check-membership"]

        for k, name in alternate(list(trees), ROUNDS["sweep"] + 1):
            spans.clear()
            total = simulate(trees[name], argv(k))
            if not k:  # warm-up
                continue
            stages = [spans.get(stage, 0.0) for stage in LAYERS["sweep"][1:-2]]
            run = spans["run"]
            rows[name].append([total, *stages, total - run - spans["csv"], run - sum(stages[:-1])])
    out = {}
    for name, tree_rows in rows.items():
        figures = medians(tree_rows, LAYERS["sweep"])
        figures.update(records=count, rounds=len(tree_rows),
                       records_per_s=round(count / (figures["total"] / 1e3), 1))
        out[name] = {",".join(map(str, sizes)): figures}
    return out


def measure_acceptance(trees: dict) -> dict:
    """Median ms, records and records/s of each tree's simulate call per acceptance sweep."""
    totals = {name: {criterion: [] for criterion in ACCEPTANCE_SWEEPS} for name in trees}
    records = {}
    with tempfile.TemporaryDirectory() as workdir:
        files = ["--out", os.path.join(workdir, "records.csv"),
                 "--summary", os.path.join(workdir, "summary.csv")]
        for tree in trees.values():
            simulate(tree, ["--scenario", "rayleigh", "--sizes", "8", "--trials", "10", "--arch", "sc",
                            *files])  # warm-up
        for _, name in alternate(list(trees), ROUNDS["acceptance"]):
            for criterion, args in ACCEPTANCE_SWEEPS.items():
                totals[name][criterion].append(
                    simulate(trees[name], [*args, "--seed", "0", "--threads", "8", *files]))
                with open(files[1]) as fp:
                    records[criterion] = sum(1 for _ in fp) - 1
    out = {}
    for name, by_criterion in totals.items():
        out[name] = {}
        for criterion, samples in by_criterion.items():
            total = float(np.median(samples))
            out[name][criterion] = {"total": round(total * 1e3, 1), "records": records[criterion],
                                    "records_per_s": round(records[criterion] / total, 1),
                                    "rounds": len(samples)}
    return out


def environment() -> dict:
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
    args = parser.parse_args(argv)
    sizes = [int(s) for s in args.sizes.split(",")]
    if not all("=" in spec for spec in args.tree):
        parser.error("--tree takes NAME=SRC")
    sources = dict(spec.split("=", 1) for spec in args.tree)
    for src in sources.values():
        if not os.path.isfile(os.path.join(src, "bdris", "__init__.py")):
            print(f"fc_layers: no package sources at {os.path.join(src, 'bdris')}", file=sys.stderr)
            return 2
    trees = {name: load_tree(src) for name, src in sources.items()}
    if args.arch == "sweep":
        layers = measure_sweep(trees, sizes)
    elif args.arch == "acceptance":
        layers = measure_acceptance(trees)
    else:
        layers = measure_calls(args.arch, trees, sizes, args.skip)
    unit = UNITS.get(args.arch, "call")
    method = (f"one interpreter, each tree imported as its own package; the trees alternate {unit} by "
              f"{unit}, in the given order and reversed every other {unit}, and each figure is the "
              f"median over a tree's {unit}s")
    if args.arch not in UNITS:
        method += (f"; each timed call follows the dense {CHECKER_N} x {CHECKER_N} complex solve "
                   f"perfbench's checker runs after each optimize() call")
    entry = {"date": datetime.date.today().isoformat(),
             "command": " ".join(["python", "tools/fc_layers.py", *map(shlex.quote, argv or sys.argv[1:])]),
             "arch": args.arch, "unit": f"ms, median per {unit}",
             "method": method, "note": args.note, "env": environment(), "trees": layers}
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
