"""Per-layer times of one fully connected (fc) or tridiagonal (tc) optimize() call, per surface size.

Usage, from the repository root:

    python tools/fc_layers.py --tree before=PATH/TO/OLD/src --tree after=src \
        --sizes 8,64,256,1024,4096 --skip before:4096 --append BENCH_trajectory.json

    python tools/fc_layers.py --arch tc --tree before=PATH/TO/OLD/src --tree after=src \
        --sizes 8,64,256,1024 --append BENCH_trajectory.json

Each tree is measured in its own interpreter, with PYTHONPATH set to its
src directory and BLAS pinned to one thread.  Per size, the calls run on
Rayleigh pairs drawn by Rng(1), Rng(2), ..., and every layer reports its
median over the calls, in ms.  For --arch fc (the default):

- total: the whole optimize() call;
- cayley: scattering_from_susceptance, less its construction check;
- check: the construction check of the ScatteringMatrix;
- power: received_power;
- closed_form: the rest of the call (steering system, group solve, B in
  its layout, bounds).

For --arch tc the same spans are named for what they hold there:

- total: the whole optimize() call;
- factors: scattering_from_susceptance less its check, that is the
  Cayley map's factors (and the dense sweep, where Theta is dense);
- check: the construction check, the O(n) bound or the dense check;
- apply: received_power, Theta h_t;
- steering: the rest of the call (the steering solve, B's bands, bounds);
- dense_fallbacks: the calls whose Theta is a dense matrix, a count (on a
  tree without the operator layout, every call).

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
import subprocess
import sys
import time

# Calls per size: enough for a stable median at small n, few at large n.
CALLS = {8: 30, 64: 30, 256: 30, 1024: 10, 4096: 5}


# Span names per architecture: the call, the Cayley map less its check, the
# check, received_power, and the rest of the call.
LAYERS = {"fc": ("total", "cayley", "check", "power", "closed_form"),
          "tc": ("total", "factors", "check", "apply", "steering")}


def measure(arch: str, sizes: list[int]) -> dict:
    """Median per-layer ms of fc or tc optimize() at each size, in this interpreter."""
    import numpy as np

    from bdris import architecture, optimize
    from bdris.channel import Rng, gen_rayleigh

    spans: dict[str, float] = {}

    def timed(name, fn):
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                spans[name] = spans.get(name, 0.0) + time.perf_counter() - start
        return wrapper

    optimize.scattering_from_susceptance = timed("map", optimize.scattering_from_susceptance)
    optimize.received_power = timed("power", optimize.received_power)
    post_init = architecture.ScatteringMatrix.__post_init__
    architecture.ScatteringMatrix.__post_init__ = timed("check", post_init)
    out = {}
    for n in sizes:
        spec = architecture.parse_arch(arch, n)
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
             "arch": args.arch, "unit": "ms, median per call", "note": args.note, "trees": {}}
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
        entry["trees"][name] = result["layers"]
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
