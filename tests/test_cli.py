"""End-to-end CLI tests driving main(argv) with temporary files."""

import csv
import importlib
import io
import json
import warnings

import numpy as np
import pytest

from bdris import __version__
from bdris.channel import Rng, gen_rayleigh, read_channel_json, write_channel_json
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


def test_optimize_emit_matrices_group_blocks(tmp_path, capsys):
    # gc:2's Theta is emitted dense: the solve of the whole surface, with
    # exact zeros outside its 2 x 2 blocks
    channel_file = tmp_path / "pair.json"
    run(capsys, "gen", "--scenario", "rayleigh", "--n", "6", "--seed", "4",
        "--out", str(channel_file))
    code, out, _ = run(capsys, "optimize", "--arch", "gc:2", "--channels",
                       str(channel_file), "--emit-matrices")
    assert code == 0
    doc = json.loads(out)
    b = np.array(doc["b_matrix"])
    theta = np.array([[complex(*v) for v in row] for row in doc["theta"]])
    jb = 1j * doc["z0"] * b
    dense = np.linalg.solve(np.eye(6) + jb, np.eye(6) - jb)
    assert np.max(np.abs(theta - dense)) <= 1e-14
    in_block = np.arange(6)[:, None] // 2 == np.arange(6)[None, :] // 2
    assert np.all(theta[~in_block] == 0.0)
    assert np.all(theta[in_block] != 0.0)


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
    real = experiment.optimize_trials

    def recording(pairs, spec, *args):
        drawn.extend(pairs)
        return real(pairs, spec, *args)

    monkeypatch.setattr(experiment, "optimize_trials", recording)
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


def test_simulate_tc_on_one_element(tmp_path, capsys):
    # a one-element tridiagonal surface is the single-connected one
    records_file = tmp_path / "records.csv"
    code, _, _ = run(capsys, "simulate", "--scenario", "rayleigh", "--sizes", "1,2",
                     "--trials", "2", "--arch", "sc,tc", "--out", str(records_file))
    assert code == 0
    rows = list(csv.DictReader(records_file.open()))
    assert len(rows) == 8
    ones = [row for row in rows if row["n"] == "1"]
    for sc, tc in zip(ones[::2], ones[1::2]):
        assert (sc["arch"], tc["arch"]) == ("sc", "tc")
        assert sc["p_r"] == tc["p_r"] and sc["ratio_full"] == tc["ratio_full"]


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


@pytest.mark.parametrize("scale", [1e80, 1e-90])
@pytest.mark.parametrize("arch", ["sc", "gc:2", "tc", "fc"])
def test_optimize_out_of_range_channel_scale(tmp_path, capsys, scale, arch):
    """||h_r||^2 ||h_t||^2 overflowing or underflowing exits 2, not inf, NaN or a crash."""
    pair = gen_rayleigh(8, Rng(5))
    channel_file = tmp_path / "pair.json"
    with open(channel_file, "w") as fp:
        json.dump({"n": 8, "h_r": [[z.real, z.imag] for z in scale * pair.h_r],
                   "h_t": [[z.real, z.imag] for z in scale * pair.h_t]}, fp)
    code, out, err = run(capsys, "optimize", "--arch", arch, "--channels", str(channel_file))
    assert code == 2
    assert out == ""
    assert "scale out of range" in err


Z0_ARCHS = ("sc", "gc:2", "gc:4", "tc", "fc")


@pytest.mark.parametrize("z0", ["1e-80", "1e80", "1e200"])
@pytest.mark.parametrize("arch", Z0_ARCHS)
def test_out_of_range_z0_is_input_error(tmp_path, capsys, z0, arch):
    """A reference impedance outside [1e-75, 1e75] exits 2 from optimize and simulate, not a crash."""
    channel_file = tmp_path / "pair.json"
    with open(channel_file, "w") as fp:
        write_channel_json(gen_rayleigh(8, Rng(5)), fp)
    code, out, err = run(capsys, "optimize", "--arch", arch, "--channels", str(channel_file),
                         "--z0", z0)
    assert code == 2
    assert out == ""
    assert "reference impedance must lie in [1e-75, 1e+75]" in err
    code, out, err = run(capsys, "simulate", "--scenario", "rayleigh", "--sizes", "8",
                         "--trials", "2", "--arch", arch, "--z0", z0,
                         "--out", str(tmp_path / "records.csv"))
    assert code == 2
    assert "reference impedance must lie in [1e-75, 1e+75]" in err


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_z0_range_edges_are_exact(tmp_path, capsys, scenario):
    """At both ends of the z0 range every architecture's ratio_full is within 1e-9 of z0 = 50's, with no warning."""
    def ratios(z0):
        records_file = tmp_path / f"records_{z0}.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, _, _ = run(capsys, "simulate", "--scenario", scenario, "--sizes", "4,8,64",
                             "--trials", "4", "--arch", ",".join(Z0_ARCHS), "--z0", z0,
                             "--out", str(records_file))
        assert code == 0
        return [float(row["ratio_full"]) for row in csv.DictReader(records_file.open())]

    reference = ratios("50")
    for z0 in ("1e-75", "1e75"):
        assert np.allclose(ratios(z0), reference, rtol=0.0, atol=1e-9)


def test_simulate_bad_sizes_text(tmp_path, capsys):
    code, _, err = run(capsys, "simulate", "--scenario", "rayleigh",
                       "--sizes", "2,x", "--trials", "1",
                       "--out", str(tmp_path / "r.csv"))
    assert code == 2
    assert "--sizes" in err


@pytest.mark.parametrize("sizes, archs, message", [
    ("8,8", "gc:1", "sizes must not repeat"),
    ("8", "sc,sc,gc:1", "labels must not repeat"),
])
def test_simulate_repeats_are_input_errors(tmp_path, capsys, sizes, archs, message):
    # repeats would merge into one summary cell: sc's trials doubled
    summary = tmp_path / "s.csv"
    code, _, err = run(capsys, "simulate", "--scenario", "rayleigh", "--sizes", sizes,
                       "--trials", "3", "--arch", archs, "--out", str(tmp_path / "r.csv"),
                       "--summary", str(summary))
    assert code == 2
    assert message in err
    assert not summary.exists()


def test_simulate_zero_threads_is_input_error(tmp_path, capsys):
    code, _, err = run(capsys, "simulate", "--scenario", "rayleigh",
                       "--sizes", "2", "--trials", "1", "--threads", "0",
                       "--out", str(tmp_path / "r.csv"))
    assert code == 2
    assert "thread count must be positive" in err


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
