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

from bdris.architecture import parse_arch
from bdris.channel import Rng, gen_rayleigh

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
    # each size's Rayleigh pairs are drawn as one stack (draw_trials, through
    # channel.rayleigh_channels) and searched for cuts in one pass
    # (adversarial.tc_membership), so the per-trial gen_rayleigh and
    # is_tc_adversarial hooks see no call: no Rayleigh row has a cut, and
    # only a row with one goes through is_tc_adversarial
    assert totals.get("channel.gen.calls", 0) == 0
    assert totals.get("adversarial.is_tc_adversarial.calls", 0) == 0
    # each (size, architecture) cell solves its trials in one stacked call,
    # which reaches the traced Cayley map and its check once for sc's one
    # width-1 stack
    assert totals["architecture.scattering_from_susceptance.calls"] == 2
    assert totals["linalg.check_symmetric_unitary.calls"] == 2


@pytest.mark.parametrize("label", ["sc", "gc:4", "tc", "fc"])
def test_optimize_reaches_the_traced_cayley_map(tracer, label):
    # optimize() must reach the Cayley map and its check through the traced
    # names, or their per-layer figures would silently read 0
    pair = gen_rayleigh(8, Rng(5))
    with tracer.Tracer() as trace:
        importlib.import_module("bdris.optimize").optimize(pair, parse_arch(label, 8))
    totals = trace.totals()
    assert totals["optimize.optimize.calls"] == 1
    assert totals["architecture.scattering_from_susceptance.calls"] == 1
    assert totals["linalg.check_symmetric_unitary.calls"] >= 1
