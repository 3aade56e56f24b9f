"""tools/fc_layers.py loads each tree as its own package and times them in one interpreter.

The tool is loaded by path, as tests/test_bench_hooks.py loads the tracer;
the BLAS pin it sets at import is undone after loading.
"""

import importlib
import json
import os
import pathlib
import types
from unittest import mock

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
TOOL_PATH = ROOT / "tools" / "fc_layers.py"
SRC = str(ROOT / "src")


@pytest.fixture(scope="module")
def tool():
    module = types.ModuleType("fc_layers")
    module.__file__ = str(TOOL_PATH)
    with mock.patch.dict(os.environ):
        exec(compile(TOOL_PATH.read_text(), str(TOOL_PATH), "exec"), module.__dict__)
    return module


def test_trees_are_distinct_packages(tool):
    a, b = tool.load_tree(SRC), tool.load_tree(SRC)
    assert a is not b and a.__name__ != b.__name__
    for name in tool.MODULES:
        assert getattr(a, name) is not getattr(b, name)
    assert a.architecture.ScatteringMatrix is not b.architecture.ScatteringMatrix
    original_b = b.optimize.scattering_from_susceptance
    original_a = a.optimize.scattering_from_susceptance
    tool.wrap_calls(a, {})
    assert a.optimize.scattering_from_susceptance is not original_a
    assert b.optimize.scattering_from_susceptance is original_b
    assert b.architecture.ScatteringMatrix.__post_init__ is not a.architecture.ScatteringMatrix.__post_init__
    # the package the tests import is untouched too
    untouched = importlib.import_module("bdris.optimize").scattering_from_susceptance
    assert untouched.__module__ == "bdris.architecture"


def test_entries_hold_both_trees_and_every_layer(tool, tmp_path, monkeypatch):
    monkeypatch.setitem(tool.CALLS, 8, 4)
    monkeypatch.setitem(tool.ROUNDS, "sweep", 3)
    history = tmp_path / "trajectory.json"
    for arch in ("fc", "sweep"):
        code = tool.main(["--arch", arch, "--tree", f"a={SRC}", "--tree", f"b={SRC}", "--sizes", "8",
                          "--append", str(history)])
        assert code == 0
    entries = json.loads(history.read_text())
    assert [entry["arch"] for entry in entries] == ["fc", "sweep"]
    for entry in entries:
        assert {"date", "command", "arch", "unit", "method", "note", "env", "trees"} <= set(entry)
        assert set(entry["trees"]) == {"a", "b"}
        for figures in entry["trees"].values():
            assert set(tool.LAYERS[entry["arch"]]) <= set(figures["8"])
            assert all(value >= 0.0 for value in figures["8"].values())
    assert entries[0]["trees"]["a"]["8"]["calls"] == 4
    assert entries[1]["trees"]["b"]["8"]["rounds"] == 3
    assert entries[1]["trees"]["a"]["8"]["records_per_s"] > 0.0


def test_missing_tree_exits_nonzero(tool, tmp_path, capsys):
    assert tool.main(["--tree", f"a={SRC}", "--tree", f"b={tmp_path}"]) != 0
    assert "no package sources" in capsys.readouterr().err
