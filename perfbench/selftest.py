"""Self-test of the output checker: each corrupted output must be rejected.

    python3 perfbench/selftest.py

Runs a small Rayleigh sweep and a few single optimize() calls, checks
that the clean outputs pass, then corrupts one output at a time and asserts
that the checker rejects exactly that output.  Exits 0 when every corruption
is caught.
"""

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"

import contextlib  # noqa: E402
import copy  # noqa: E402
import io  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

import check  # noqa: E402
from bdris import cli  # noqa: E402
from bdris.architecture import parse_arch  # noqa: E402
from bdris.channel import Rng, gen_rayleigh  # noqa: E402
from bdris.optimize import optimize  # noqa: E402
from workloads import Sweep, draw_pair  # noqa: E402

WORKDIR = os.path.join(ROOT, ".perfbench_work", "selftest")
SEED = 7


def run_sweep(sweep: Sweep):
    out = os.path.join(WORKDIR, "records.csv")
    summary = os.path.join(WORKDIR, "summary.csv")
    with contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(sweep.argv(SEED, out, summary))
    if code != 0:
        raise RuntimeError(f"simulate exited {code}")
    with open(out) as fp, open(summary) as fs:
        return check.parse_csv(fp.read()), check.parse_csv(fs.read())


def rejected(rows, summary, sweep) -> tuple[set[int], list[str]]:
    """Indices of the rejected records, and the reasons against the call as a whole."""
    per_record, whole = check.check_sweep(rows, summary, sweep, SEED, draw_pair)
    return {k for k, reasons in enumerate(per_record) if reasons}, whole


def first(rows, **match) -> int:
    return next(k for k, row in enumerate(rows) if all(row[key] == v for key, v in match.items()))


def sweep_cases():
    sweep = Sweep((8, 16), 3, ("sc", "gc:2", "gc:4", "tc"), 1, True)
    rows, summary = run_sweep(sweep)
    assert rejected(rows, summary, sweep) == (set(), []), "clean sweep rejected"
    for arch in sweep.archs:
        k = first(rows, arch=arch)
        bad = copy.deepcopy(rows)
        bad[k]["p_r"] = repr(float(bad[k]["p_r"]) * (1 + 1e-6))
        assert rejected(bad, summary, sweep) == ({k}, []), f"scaled p_r of a {arch} record passed"
    # A flipped consistent flag also leaves the summary's consistent_fraction
    # out of step with the records.
    for arch, field, value in (("tc", "consistent", "false"), ("gc:4", "consistent", "false"),
                               ("sc", "in_a", "true")):
        k = first(rows, arch=arch)
        bad = copy.deepcopy(rows)
        bad[k][field] = value
        ks, whole = rejected(bad, summary, sweep)
        assert ks == {k}, f"{arch} record with {field}={value} passed"
        assert bool(whole) == (field == "consistent"), f"{arch} {field}={value}: summary {whole}"

    bad = copy.deepcopy(summary)
    bad[0]["consistent_fraction"] = "0.5"
    assert rejected(rows, bad, sweep)[1], "a wrong consistent_fraction passed"

    bad = rows[:-1]
    per_record, whole = check.check_sweep(bad, summary, sweep, SEED, draw_pair)
    assert whole and per_record[-1], "a missing record passed"


def surface_cases():
    pair = gen_rayleigh(16, Rng(SEED))
    for arch in ("sc", "gc:4", "tc", "fc"):
        result = optimize(pair, parse_arch(arch, 16))
        b = result.b_matrix.matrix

        def reasons(b=b, p_r=result.p_r, consistent=result.consistent):
            return check.check_surface(pair.h_r, pair.h_t, arch, 50.0, b, p_r, consistent)

        assert reasons() == [], f"clean {arch} result rejected: {reasons()}"
        assert reasons(p_r=result.p_r * (1 + 1e-6)), f"scaled p_r of a {arch} result passed"
        if arch != "fc":  # fc has no entry outside its pattern
            outside = np.argwhere(~check.pattern(arch, 16))[0]
            bad = b.copy()
            bad[outside[0], outside[1]] = bad[outside[1], outside[0]] = 1e-3
            assert "B nonzero outside the pattern" in reasons(b=bad), \
                f"{arch} B entry outside the pattern passed"
        bad = b.copy()
        bad[0, 1] += 1e-3
        assert reasons(b=bad) == ["B not exactly symmetric"], f"asymmetric {arch} B passed"


def main() -> int:
    if not __debug__:
        sys.exit("selftest: the checks are asserts; run without -O")
    os.makedirs(WORKDIR, exist_ok=True)
    try:
        sweep_cases()
        surface_cases()
    finally:
        shutil.rmtree(os.path.dirname(WORKDIR), ignore_errors=True)
    print("selftest: every corrupted output was rejected")
    return 0


if __name__ == "__main__":
    sys.exit(main())
