"""End-to-end CLI tests driving main(argv) with temporary files."""

import csv
import importlib
import io
import json

import pytest

from bdris import __version__
from bdris.channel import read_channel_json, write_channel_json
from bdris.cli import main
from bdris.experiment import SCENARIOS, ExperimentConfig, run_experiment

experiment = importlib.import_module("bdris.experiment")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_version(capsys):
    code, out, _ = run(capsys, "--version")
    assert code == 0
    assert out.strip() == f"bdris {__version__}"


def test_missing_subcommand_is_input_error(capsys):
    code, _, _ = run(capsys, )
    assert code == 2


def test_gen_optimize_membership_roundtrip(tmp_path, capsys):
    channel_file = tmp_path / "pair.json"
    code, out, err = run(capsys, "gen", "--scenario", "tc_adversarial", "--n", "8",
                         "--seed", "4", "--out", str(channel_file))
    assert code == 0
    assert out == ""
    # stderr carries the resolved configuration as one JSON line
    echo = json.loads(err.splitlines()[0])
    assert echo["command"] == "gen" and echo["n"] == 8

    with open(channel_file) as fp:
        pair = read_channel_json(fp)
    assert pair.n == 8

    code, out, _ = run(capsys, "optimize", "--arch", "tc", "--channels",
                       str(channel_file))
    assert code == 0
    doc = json.loads(out)
    assert doc["arch"] == "tc" and doc["n"] == 8
    assert 0.0 < doc["ratio_full"] <= 1.0 + 1e-12
    assert doc["p_r"] <= doc["p_bar_full"] * (1 + 1e-10)
    assert "b_matrix" not in doc

    code, out, _ = run(capsys, "membership", "--channels", str(channel_file),
                       "--brute-force")
    assert code == 0
    doc = json.loads(out)
    assert doc["in_a"] is True
    assert doc["in_a_bruteforce"] is True
    assert doc["cut_set"] == [1, 3, 5, 7]


def test_optimize_emit_matrices(tmp_path, capsys):
    channel_file = tmp_path / "pair.json"
    run(capsys, "gen", "--scenario", "rayleigh", "--n", "3", "--seed", "1",
        "--out", str(channel_file))
    code, out, _ = run(capsys, "optimize", "--arch", "sc", "--channels",
                       str(channel_file), "--emit-matrices")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["b_matrix"]) == 3 and len(doc["b_matrix"][0]) == 3
    # off-diagonal susceptance entries are zero for the single-connected case
    assert doc["b_matrix"][0][1] == 0.0
    theta00 = doc["theta"][0][0]
    assert isinstance(theta00, list) and len(theta00) == 2


def test_optimize_bad_arch_label(tmp_path, capsys):
    channel_file = tmp_path / "pair.json"
    run(capsys, "gen", "--scenario", "rayleigh", "--n", "4", "--seed", "0",
        "--out", str(channel_file))
    code, _, err = run(capsys, "optimize", "--arch", "gc:3", "--channels",
                       str(channel_file))
    assert code == 2
    assert "input error" in err


def test_optimize_missing_file(capsys, tmp_path):
    code, _, err = run(capsys, "optimize", "--arch", "sc", "--channels",
                       str(tmp_path / "absent.json"))
    assert code == 2
    assert "i/o error" in err


def test_gen_rejects_even_swap_extent(tmp_path, capsys):
    code, _, err = run(capsys, "gen", "--scenario", "tc_adversarial", "--n", "8",
                       "--q", "4", "--out", str(tmp_path / "x.json"))
    assert code == 2
    assert "input error" in err


def test_gen_rejects_zero_group_size(tmp_path, capsys):
    # the same check simulate applies: the group size must divide n
    code, _, err = run(capsys, "gen", "--scenario", "gc_favorable", "--n", "8",
                       "--group-size", "0", "--out", str(tmp_path / "x.json"))
    assert code == 2
    assert "group size 0 must divide" in err
    assert not (tmp_path / "x.json").exists()


GEN_CASES = [(scenario, ()) for scenario in SCENARIOS] + [
    ("tc_adversarial", ("--q", "3")),
    ("gc_favorable", ("--group-size", "4")),
]


@pytest.mark.parametrize("scenario,extra", GEN_CASES,
                         ids=[" ".join((s, *e)) for s, e in GEN_CASES])
def test_gen_redraws_a_simulate_trial(tmp_path, capsys, monkeypatch, scenario, extra):
    """gen with a trial's scenario, n, seed and parameters writes that trial's pair."""
    drawn = []
    real = experiment.optimize

    def recording(pair, spec, *args):
        drawn.append(pair)
        return real(pair, spec, *args)

    monkeypatch.setattr(experiment, "optimize", recording)
    options = dict(zip(extra[::2], extra[1::2]))
    config = ExperimentConfig(
        scenario=scenario, sizes=(4, 8), trials=2, archs=("sc",), seed=5,
        q_override=int(options["--q"]) if "--q" in options else None,
        group_size=int(options["--group-size"]) if "--group-size" in options else None)
    records = run_experiment(config)
    assert len(drawn) == len(records) == 4
    for record, pair in zip(records, drawn):
        out = tmp_path / f"{record.n}-{record.trial}.json"
        code, _, _ = run(capsys, "gen", "--scenario", scenario, "--n", str(record.n),
                         "--seed", str(record.seed), *extra, "--out", str(out))
        assert code == 0
        expected = io.StringIO()
        write_channel_json(pair, expected)
        assert out.read_text() == expected.getvalue()


def test_simulate_writes_records_and_summary(tmp_path, capsys):
    records_file = tmp_path / "records.csv"
    summary_file = tmp_path / "summary.csv"
    code, out, err = run(capsys, "simulate", "--scenario", "rayleigh",
                         "--sizes", "2,3", "--trials", "4", "--arch", "sc,tc",
                         "--seed", "7", "--out", str(records_file),
                         "--summary", str(summary_file))
    assert code == 0
    assert out == ""
    echo = json.loads(err.splitlines()[0])
    assert echo["sizes"] == [2, 3] and echo["threads"] == 1

    lines = records_file.read_text().splitlines()
    assert lines[0].startswith("scenario,n,arch,trial,seed")
    assert len(lines) == 1 + 2 * 4 * 2

    summary = summary_file.read_text().splitlines()
    assert summary[0].startswith("scenario,n,arch,trials")
    assert len(summary) == 1 + 2 * 2
    assert all(line.split(",")[3] == "4" for line in summary[1:])


def test_simulate_check_membership_column(tmp_path, capsys):
    records_file = tmp_path / "records.csv"
    code, _, _ = run(capsys, "simulate", "--scenario", "tc_adversarial",
                     "--sizes", "4", "--trials", "3", "--arch", "tc",
                     "--out", str(records_file), "--check-membership")
    assert code == 0
    lines = records_file.read_text().splitlines()
    assert lines[0].endswith(",in_a")
    assert all(line.endswith(",true") for line in lines[1:])


def test_simulate_threads_flag_stable_output(tmp_path, capsys):
    out1 = tmp_path / "a.csv"
    out8 = tmp_path / "b.csv"
    run(capsys, "simulate", "--scenario", "gc_favorable", "--sizes", "4",
        "--trials", "6", "--arch", "sc,gc:2", "--seed", "2",
        "--out", str(out1), "--threads", "1")
    run(capsys, "simulate", "--scenario", "gc_favorable", "--sizes", "4",
        "--trials", "6", "--arch", "sc,gc:2", "--seed", "2",
        "--out", str(out8), "--threads", "8")
    assert out1.read_bytes() == out8.read_bytes()


def test_simulate_multi_cut_label(tmp_path, capsys):
    # a bare integer continues the gc:I= cut list before it; the label's
    # comma is quoted in both CSVs
    records_file = tmp_path / "records.csv"
    summary_file = tmp_path / "summary.csv"
    code, _, err = run(capsys, "simulate", "--scenario", "rayleigh", "--sizes", "8",
                       "--trials", "2", "--arch", "sc,gc:I=2,5,tc", "--out", str(records_file),
                       "--summary", str(summary_file))
    assert code == 0
    assert json.loads(err.splitlines()[0])["archs"] == ["sc", "gc:I=2,5", "tc"]
    for path, rows in ((records_file, 6), (summary_file, 3)):
        with open(path, newline="") as fp:
            records = list(csv.DictReader(fp))
        assert len(records) == rows
        assert all(None not in row and None not in row.values() for row in records)
        assert [row["arch"] for row in records[:3]] == ["sc", "gc:I=2,5", "tc"]
    assert 'rayleigh,8,sc,0,' in records_file.read_text()


@pytest.mark.parametrize("argv", [
    ("simulate", "--scenario", "rayleigh", "--sizes", "4", "--trials", "1", "--group-size", "0"),
    ("gen", "--scenario", "gc_favorable", "--n", "8", "--q", "4"),
], ids=["simulate-group-size", "gen-q"])
def test_unused_scenario_parameter_is_rejected(tmp_path, capsys, argv):
    out = tmp_path / "out"
    code, _, err = run(capsys, *argv, "--out", str(out))
    assert code == 2
    assert "takes no" in err
    assert not out.exists()


@pytest.mark.parametrize("content", [
    b'{"n": 1, "h_r": [[1' + b"0" * 400 + b', 0]], "h_t": [[1, 0]]}',
    b'{"n": true, "h_r": [[1, 0]], "h_t": [[1, 0]]}',
    b'{"n": 1, "h_r": [[1, 0]], "h_t": [[1, 0]], "note": "\xff\xfe"}',
    b"[" * 100_000,
], ids=["overflow", "bool-n", "not-utf8", "deep-nesting"])
def test_optimize_malformed_channel_json(tmp_path, capsys, content):
    channel_file = tmp_path / "pair.json"
    channel_file.write_bytes(content)
    code, out, err = run(capsys, "optimize", "--arch", "sc", "--channels", str(channel_file))
    assert code == 2
    assert out == ""
    assert "input error" in err


def test_simulate_bad_sizes_text(tmp_path, capsys):
    code, _, err = run(capsys, "simulate", "--scenario", "rayleigh",
                       "--sizes", "2,x", "--trials", "1",
                       "--out", str(tmp_path / "r.csv"))
    assert code == 2
    assert "--sizes" in err


def test_threads_env_fallback(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("BDRIS_THREADS", "3")
    records_file = tmp_path / "records.csv"
    code, _, err = run(capsys, "simulate", "--scenario", "rayleigh",
                       "--sizes", "2", "--trials", "2", "--arch", "sc",
                       "--out", str(records_file))
    assert code == 0
    assert json.loads(err.splitlines()[0])["threads"] == 3

    monkeypatch.setenv("BDRIS_THREADS", "many")
    code, _, err = run(capsys, "simulate", "--scenario", "rayleigh",
                       "--sizes", "2", "--trials", "2", "--arch", "sc",
                       "--out", str(records_file))
    assert code == 2
    assert "BDRIS_THREADS" in err


def test_oracle_agreement(capsys):
    code, out, _ = run(capsys, "oracle", "--n", "5", "--trials", "40", "--seed", "3")
    assert code == 0
    assert out.strip() == "trials=40 disagreements=0"


def test_oracle_validates_inputs(capsys):
    code, _, _ = run(capsys, "oracle", "--n", "20", "--trials", "5")
    assert code == 2
    code, _, _ = run(capsys, "oracle", "--n", "4", "--trials", "0")
    assert code == 2


def test_membership_rayleigh_pair(tmp_path, capsys):
    channel_file = tmp_path / "pair.json"
    run(capsys, "gen", "--scenario", "rayleigh", "--n", "5", "--seed", "9",
        "--out", str(channel_file))
    code, out, _ = run(capsys, "membership", "--channels", str(channel_file))
    assert code == 0
    doc = json.loads(out)
    assert doc["in_a"] is False
    assert doc["cut_set"] == []
    assert "in_a_bruteforce" not in doc
