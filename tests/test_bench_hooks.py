"""The benchmark tracer's hooks still find what they wrap.

perfbench/tracer.py wraps package functions where their callers look them
up.  A name that moved, or got bound into a table at import time, would make
its traced layer silently read 0; these tests catch both.  The tracer source
is only read, never imported from its directory, so nothing is written there.
"""

import importlib
import io
import pathlib
import types
from contextlib import redirect_stderr

import pytest

TRACER_PATH = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    module = types.ModuleType("perfbench_tracer")
    module.__file__ = str(TRACER_PATH)
    exec(compile(TRACER_PATH.read_text(), str(TRACER_PATH), "exec"), module.__dict__)
    return module


def test_wrapped_names_resolve(tracer):
    assert tracer.WRAPPED
    for module_name, attr, _ in tracer.WRAPPED:
        module = importlib.import_module(module_name)
        assert callable(getattr(module, attr, None)), f"{module_name}.{attr}"


def test_simulate_layers_are_counted(tracer, tmp_path):
    argv = ["simulate", "--scenario", "rayleigh", "--sizes", "4,8", "--trials", "2",
            "--arch", "sc", "--check-membership", "--out", str(tmp_path / "records.csv")]
    with tracer.Tracer() as trace, redirect_stderr(io.StringIO()):
        code = importlib.import_module("bdris.cli").main(argv)
    assert code == 0
    totals = trace.totals()
    assert totals["cli.main.calls"] == 1
    assert totals["channel.gen.calls"] == 4
    assert totals["adversarial.is_tc_adversarial.calls"] == 4
    assert totals["optimize.optimize.calls"] == 4
