"""bdris benchmark: run one workload, check its outputs, print its metrics.

    python3 perfbench/run.py --workload rayleigh_sweep --seed 1 --seconds 50 --trace 0

Run from the repository root; the package is imported from ``src/``.  With
``--trace 0`` the end-to-end metrics are printed, with ``--trace 1`` the
per-layer metrics of a traced run.  Every metric is printed on its own line
as ``metric <name> <value> <unit>``, the machine and versions on an ``env``
line, and the last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  ``--smoke`` shrinks every input.
"""

import os

# One BLAS thread everywhere, set before numpy loads: the sweeps already run
# worker threads of their own on 2 cores, and BLAS threads on top of tiny
# matrices only add contention (see README.md).
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORKDIR = os.path.join(ROOT, ".perfbench_work")
# A run starts no further pass after this many seconds, whatever its minimum.
HARD_CAP_S = 120.0

# Import of the package and its CLI plus one argument parse, in a fresh process.
SETUP_PROBE = (
    "import time\n"
    "start = time.perf_counter()\n"
    "import bdris.cli\n"
    "bdris.cli.build_parser().parse_args(['simulate', '--scenario', 'rayleigh', '--out', 'x.csv'])\n"
    "print(time.perf_counter() - start)\n"
)

END_TO_END = {
    "setup_s": "s",
    "records_per_s": "records/s",
    "peak_rss_mb": "MB",
    **{f"optimize_{q}_ms.{a}": "ms" for q in ("p50", "p90") for a in ("sc", "gc4", "tc", "fc")},
}

PER_LAYER = {
    "cli.main.self_s": "s/round",
    "channel.gen.calls": "calls/round",
    "channel.gen.s": "s/round",
    "experiment.run_experiment.self_s": "s/round",
    "experiment.write_records_csv.s": "s/round",
    "experiment.write_summary_csv.s": "s/round",
    "experiment.summarize.s": "s/round",
    "optimize.optimize.calls": "calls/round",
    "optimize.optimize.self_s": "s/round",
    "optimize.build_tc_system.s": "s/round",
    "optimize.inconsistent": "calls/round",
    "linalg.min_norm_least_squares.calls": "calls/round",
    "linalg.min_norm_least_squares.s": "s/round",
    "linalg.min_norm_least_squares.rank_deficient": "calls/round",
    "linalg.check_symmetric_unitary.calls": "calls/round",
    "linalg.check_symmetric_unitary.s": "s/round",
    "architecture.scattering_from_susceptance.calls": "calls/round",
    "architecture.scattering_from_susceptance.self_s": "s/round",
    "architecture.scattering_from_susceptance.dense_ops": "n3calc/round",
    "architecture.received_power.s": "s/round",
    "adversarial.is_tc_adversarial.calls": "calls/round",
    "adversarial.is_tc_adversarial.s": "s/round",
    "trace.round_s": "s",
    "trace.overhead_pct": "%",
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="reduced inputs, for a quick check")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "bdris", "__init__.py")):
        print(f"perfbench: no package sources at {SRC}/bdris", file=sys.stderr)
        return 2

    # Set-up is timed three times here and once more at every pass boundary,
    # between timed windows, so that its median spans the run's drift in host
    # speed as the other metrics do.
    setup_samples = [_setup_time() for _ in range(3)]
    sys.path.insert(0, SRC)
    import bdris  # noqa: E402
    if not os.path.abspath(bdris.__file__).startswith(SRC + os.sep):
        print(f"perfbench: bdris came from {bdris.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads  # noqa: E402  (imports numpy through check)
    from tracer import Tracer  # noqa: E402
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {workloads.WORKLOADS}", file=sys.stderr)
        return 2

    print("env " + json.dumps(_environment(bdris)))
    os.makedirs(WORKDIR, exist_ok=True)
    try:
        workload = workloads.make(args.workload, args.seed, WORKDIR, args.smoke)
        tally = workloads.Tally()
        pass_rounds = workload.pass_rounds
        min_rounds = pass_rounds if args.smoke else workloads.MIN_ROUNDS[args.workload]
        layer: dict[str, float] = {}
        traced_s: list[float] = []
        plain_s: list[float] = []
        start = time.perf_counter()
        r = 0
        while True:
            # Stop only between whole passes, so every run attempts the same
            # operations in the same proportions.
            if r % pass_rounds == 0:
                elapsed = time.perf_counter() - start
                if (r >= min_rounds and elapsed >= args.seconds) or elapsed > HARD_CAP_S:
                    break
                if r:
                    setup_samples.append(_setup_time())
            # A traced run alternates traced and untraced rounds; the untraced
            # ones give the reference for the tracing overhead.
            if args.trace and r % 2 == 0:
                tracer = Tracer()
                traced_s.append(workload.round(r, tally, tracer))
                for name, value in tracer.totals().items():
                    layer[name] = layer.get(name, 0.0) + value
            else:
                plain_s.append(workload.round(r, tally, contextlib.nullcontext()))
            r += 1
    finally:
        shutil.rmtree(WORKDIR, ignore_errors=True)

    for note in tally.notes:
        print(f"perfbench: {note}", file=sys.stderr)
    if args.trace:
        metrics = {name: layer.get(name, 0.0) / len(traced_s) for name in PER_LAYER}
        metrics["trace.round_s"] = statistics.median(traced_s)
        metrics["trace.overhead_pct"] = 100.0 * (statistics.median(traced_s) / statistics.median(plain_s) - 1.0)
        units = PER_LAYER
    else:
        metrics = {
            "setup_s": statistics.median(setup_samples),
            "records_per_s": statistics.median(workload.rates),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END
        for arch, samples in sorted(workload.latency.items()):
            # p90 by the exclusive method; MIN_ROUNDS gives >= 100 samples
            metrics[f"optimize_p50_ms.{arch}"] = 1000.0 * statistics.median(samples)
            metrics[f"optimize_p90_ms.{arch}"] = 1000.0 * statistics.quantiles(samples, n=10)[8]
            print(f"samples optimize.{arch} {len(samples)}")
    for name, unit in units.items():
        print(f"metric {name} {metrics[name]!r} {unit}")
    print(f"rounds {r} attempted {tally.attempted} failed {tally.failed} "
          f"seconds {time.perf_counter() - start:.3f}")
    print(json.dumps({
        "correct": not tally.wrong,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


def _setup_time() -> float:
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run([sys.executable, "-c", SETUP_PROBE], env=env, cwd=ROOT,
                         capture_output=True, text=True, check=True, timeout=60)
    return float(out.stdout.strip().splitlines()[-1])


def _environment(bdris) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "bdris": bdris.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "machine": platform.machine(),
    }


def _blas_threads():
    """Threads OpenBLAS will use, asked of the loaded library; None if unknown."""
    with open("/proc/self/maps") as fp:
        libs = sorted({line.split()[-1] for line in fp if "openblas" in line and ".so" in line})
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fp:
            for line in fp:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


if __name__ == "__main__":
    sys.exit(main())
