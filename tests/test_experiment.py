"""Tests for the Monte Carlo harness: seeding, determinism, CSV stability."""

import importlib
import io

import numpy as np
import pytest

from bdris.channel import Rng, gen_rayleigh
from bdris.cli import main
from bdris.errors import InputError, NumericalFailure
from bdris.experiment import (
    ExperimentConfig,
    mix64,
    resolve_archs,
    run_experiment,
    summarize,
    write_records_csv,
    write_summary_csv,
)

MASK = (1 << 64) - 1


def reference_mix64(seed, si, t):
    # independent recompute: one avalanche over seed XOR lane-multiplied indices
    z = (seed ^ (si * 0x9E3779B97F4A7C15) ^ (t * 0xBF58476D1CE4E5B9)) & MASK
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & MASK
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & MASK
    return z ^ (z >> 31)


def test_mix64_against_reference():
    for seed in (0, 1, 42, MASK):
        for si in (0, 1, 7):
            for t in (0, 1, 999):
                assert mix64(seed, si, t) == reference_mix64(seed, si, t)


def test_mix64_lanes_do_not_collide():
    seen = {mix64(5, si, t) for si in range(8) for t in range(200)}
    assert len(seen) == 8 * 200


def test_resolve_archs_validation():
    good = ExperimentConfig(scenario="rayleigh", sizes=(4,), trials=2)
    assert set(resolve_archs(good)) == {4}

    with pytest.raises(InputError):
        resolve_archs(ExperimentConfig(scenario="nakagami", sizes=(4,), trials=2))
    with pytest.raises(InputError):
        resolve_archs(ExperimentConfig(scenario="rayleigh", sizes=(), trials=2))
    with pytest.raises(InputError):
        resolve_archs(ExperimentConfig(scenario="rayleigh", sizes=(4,), trials=0))
    with pytest.raises(InputError):
        resolve_archs(ExperimentConfig(scenario="rayleigh", sizes=(0,), trials=2))
    with pytest.raises(InputError):
        resolve_archs(ExperimentConfig(scenario="rayleigh", sizes=(4,), trials=2,
                                       archs=("sc", "bogus")))
    with pytest.raises(InputError):
        resolve_archs(ExperimentConfig(scenario="rayleigh", sizes=(4,), trials=2,
                                       archs=()))
    # group size must divide every requested size
    with pytest.raises(InputError):
        resolve_archs(ExperimentConfig(scenario="gc_favorable", sizes=(4, 6), trials=2,
                                       group_size=4))
    with pytest.raises(InputError):
        resolve_archs(ExperimentConfig(scenario="gc_adversarial", sizes=(8,), trials=2,
                                       group_size=3))
    # swap extent must be odd and in range for every size
    with pytest.raises(InputError):
        resolve_archs(ExperimentConfig(scenario="tc_adversarial", sizes=(8,), trials=2,
                                       q_override=4))
    with pytest.raises(InputError):
        resolve_archs(ExperimentConfig(scenario="tc_adversarial", sizes=(4, 8), trials=2,
                                       q_override=5))
    with pytest.raises(InputError):
        resolve_archs(ExperimentConfig(scenario="tc_adversarial", sizes=(1,), trials=2))


def test_arch_parse_failure_names_size():
    # gc:3 is fine at n = 6 but not at n = 8; the sweep must fail up front
    with pytest.raises(InputError):
        resolve_archs(ExperimentConfig(scenario="rayleigh", sizes=(6, 8), trials=1,
                                       archs=("gc:3",)))


def test_records_deterministic_and_ordered():
    config = ExperimentConfig(scenario="rayleigh", sizes=(2, 3), trials=3,
                              archs=("sc", "tc"), seed=11)
    records = run_experiment(config)
    assert records == run_experiment(config)
    keys = [(r.n, r.trial, r.arch) for r in records]
    expected = [(n, t, a) for n in (2, 3) for t in range(3) for a in ("sc", "tc")]
    assert keys == expected
    # paired trials: both architectures see the same drawn pair, hence same seed
    for i in range(0, len(records), 2):
        assert records[i].seed == records[i + 1].seed
    for r in records:
        si = (2, 3).index(r.n)
        assert r.seed == mix64(11, si, r.trial)


def test_threads_do_not_change_output():
    config = ExperimentConfig(scenario="tc_adversarial", sizes=(4, 6), trials=5,
                              archs=("sc", "gc:2", "tc"), seed=3)
    buf1, buf8 = io.StringIO(), io.StringIO()
    write_records_csv(run_experiment(config, threads=1), buf1)
    write_records_csv(run_experiment(config, threads=8), buf8)
    assert buf1.getvalue() == buf8.getvalue()


def test_summarize_matches_hand_computation():
    config = ExperimentConfig(scenario="rayleigh", sizes=(4,), trials=6,
                              archs=("sc",), seed=2)
    records = run_experiment(config)
    rows = summarize(records)
    assert len(rows) == 1
    row = rows[0]
    ratios = np.array([r.ratio_full for r in records])
    assert row.trials == 6
    assert row.mean_ratio == ratios.mean()
    assert row.std_ratio == ratios.std()  # population std
    assert row.min_ratio == ratios.min()
    assert row.max_ratio == ratios.max()
    assert row.consistent_fraction == np.mean([r.consistent for r in records])


def test_summary_cell_order_follows_records():
    config = ExperimentConfig(scenario="rayleigh", sizes=(2, 4), trials=2,
                              archs=("tc", "sc"), seed=9)
    rows = summarize(run_experiment(config))
    assert [(r.n, r.arch) for r in rows] == [(2, "tc"), (2, "sc"), (4, "tc"), (4, "sc")]


def test_records_csv_format():
    config = ExperimentConfig(scenario="los", sizes=(3,), trials=2, archs=("sc",), seed=5)
    records = run_experiment(config)
    buf = io.StringIO()
    write_records_csv(records, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == ("scenario,n,arch,trial,seed,p_r,p_bar_full,"
                        "ratio_full,residual_norm,consistent")
    assert len(lines) == 1 + len(records)
    for line, r in zip(lines[1:], records):
        cells = line.split(",")
        assert cells[0] == "los"
        assert cells[1] == "3" and cells[2] == "sc"
        assert cells[4] == str(r.seed)
        # shortest round-trip float text: parsing must reproduce the value exactly
        assert float(cells[5]) == r.p_r
        assert float(cells[7]) == r.ratio_full
        assert cells[9] in ("true", "false")
        assert (cells[9] == "true") == r.consistent


def test_membership_column_only_when_requested():
    base = dict(scenario="tc_adversarial", sizes=(4,), trials=3, archs=("tc",), seed=1)
    plain = run_experiment(ExperimentConfig(**base))
    buf = io.StringIO()
    write_records_csv(plain, buf)
    assert not buf.getvalue().splitlines()[0].endswith(",in_a")

    checked = run_experiment(ExperimentConfig(**base, check_membership=True))
    buf = io.StringIO()
    write_records_csv(checked, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0].endswith(",in_a")
    # swap construction always lands in the adversarial set
    assert all(line.endswith(",true") for line in lines[1:])
    assert all(r.in_a for r in checked)


def test_tc_scenario_label_includes_swap_extent():
    records = run_experiment(ExperimentConfig(
        scenario="tc_adversarial", sizes=(6,), trials=1, archs=("sc",), seed=0))
    assert records[0].scenario == "tc_adversarial:q=5"
    records = run_experiment(ExperimentConfig(
        scenario="tc_adversarial", sizes=(6,), trials=1, archs=("sc",), seed=0,
        q_override=3))
    assert records[0].scenario == "tc_adversarial:q=3"


def test_summary_csv_format():
    config = ExperimentConfig(scenario="rayleigh", sizes=(3,), trials=2,
                              archs=("sc", "tc"), seed=8)
    rows = summarize(run_experiment(config))
    buf = io.StringIO()
    write_summary_csv(rows, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == ("scenario,n,arch,trials,mean_ratio,std_ratio,"
                        "min_ratio,max_ratio,consistent_fraction")
    assert len(lines) == 3
    for line, row in zip(lines[1:], rows):
        cells = line.split(",")
        assert cells[2] == row.arch
        assert cells[3] == "2"
        assert float(cells[4]) == row.mean_ratio


def test_thread_count_validated():
    config = ExperimentConfig(scenario="rayleigh", sizes=(2,), trials=1)
    with pytest.raises(InputError):
        run_experiment(config, threads=0)


def fail_on_pair(monkeypatch, target, arch_kind):
    """Make optimize() raise NumericalFailure on one pair and architecture kind."""
    experiment = importlib.import_module("bdris.experiment")
    real = experiment.optimize

    def optimize(pair, spec, *args):
        if spec.kind == arch_kind and np.array_equal(pair.h_r, target.h_r):
            raise NumericalFailure("scattering matrix check failed")
        return real(pair, spec, *args)

    monkeypatch.setattr(experiment, "optimize", optimize)


@pytest.mark.parametrize("threads", (1, 4))
def test_numerical_failure_names_the_trial(monkeypatch, threads):
    config = ExperimentConfig(scenario="rayleigh", sizes=(4, 6), trials=5,
                              archs=("sc", "tc"), seed=13)
    seed = mix64(13, 1, 2)
    fail_on_pair(monkeypatch, gen_rayleigh(6, Rng(seed)), "tree_tridiagonal")
    with pytest.raises(NumericalFailure) as info:
        run_experiment(config, threads=threads)
    assert str(info.value) == ("scattering matrix check failed (scenario rayleigh, n = 6, "
                               f"trial 2, arch tc, trial seed {seed})")


def test_simulate_exit_3_names_the_trial(monkeypatch, tmp_path, capsys):
    seed = mix64(13, 0, 1)
    fail_on_pair(monkeypatch, gen_rayleigh(4, Rng(seed)), "single_connected")
    out = tmp_path / "records.csv"
    code = main(["simulate", "--scenario", "rayleigh", "--sizes", "4", "--trials", "3",
                 "--arch", "tc,sc", "--seed", "13", "--out", str(out)])
    assert code == 3
    assert capsys.readouterr().err.splitlines()[-1] == (
        "bdris: numerical failure: scattering matrix check failed (scenario rayleigh, "
        f"n = 4, trial 1, arch sc, trial seed {seed})")
