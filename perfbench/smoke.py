"""Smoke run of every workload on reduced inputs.

    python3 perfbench/smoke.py

Runs ``run.py --smoke`` for each workload in BENCHMARK.json, untraced and
traced, and asserts that every metric BENCHMARK.json names is printed, both on
a ``metric`` line and in the final JSON, with its unit, and that no operation
failed.  Then runs the benchmark in a directory holding only BENCHMARK.json
and the benchmark's files, where it must fail without printing a result.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BARE = os.path.join(ROOT, ".perfbench_work", "bare")


def run(spec, cwd, workload, trace):
    cmd = spec["command"] + ["--workload", workload, "--seed", "1", "--seconds", "1",
                             "--trace", str(trace)]
    return subprocess.run(cmd + ["--smoke"], cwd=cwd, capture_output=True, text=True, timeout=180)


def main() -> int:
    if not __debug__:
        sys.exit("smoke: the checks are asserts; run without -O")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fp:
        spec = json.load(fp)
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = run(spec, ROOT, workload, trace)
            assert proc.returncode == 0, f"{workload} trace={trace} exited {proc.returncode}: {proc.stderr}"
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
            assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, result
            wanted = {m["name"]: m["unit"] for m in spec[key]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            assert got == wanted, f"{workload} trace={trace}: metrics {got} != {wanted}"
            printed = {parts[1]: parts[3] for parts in (line.split() for line in lines)
                       if parts and parts[0] == "metric"}
            assert printed == wanted, f"{workload} trace={trace}: printed {printed} != {wanted}"
            assert any(line.startswith("env ") for line in lines), "no env line"
            print(f"smoke: {workload} trace={trace} ok, {result['attempted']} operations")

    shutil.rmtree(BARE, ignore_errors=True)
    try:
        for path in spec["paths"]:
            shutil.copytree(os.path.join(ROOT, path), os.path.join(BARE, path),
                            ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), BARE)
        proc = run(spec, BARE, spec["workloads"][0]["name"], 0)
        assert proc.returncode != 0, "the benchmark ran without the package sources"
        assert not proc.stdout.strip(), f"printed without the package sources: {proc.stdout}"
    finally:
        shutil.rmtree(os.path.dirname(BARE), ignore_errors=True)
    print("smoke: without the package sources the benchmark fails, printing nothing")
    return 0


if __name__ == "__main__":
    sys.exit(main())
