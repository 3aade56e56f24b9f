"""Golden summary: per-cell mean ratios of one short fixed sweep per scenario.

The values were recorded from `bdris simulate --sizes 8,16 --trials 10
--arch sc,gc:1,gc:2,tc,fc --seed 7` before the scenario table, the shared
tolerances and the merged steering-system builder were introduced; any
refactor of the draw, solve or evaluation path must reproduce them.
"""

import pytest

from bdris.experiment import ExperimentConfig, run_experiment, summarize

ARCHS = ("sc", "gc:1", "gc:2", "tc", "fc")

GOLDEN_MEAN_RATIO = {
    "rayleigh": {
        (8, "sc"): 0.6719091875631336,
        (8, "gc:1"): 0.6719091875631334,
        (8, "gc:2"): 0.8353360580333786,
        (8, "tc"): 0.9999999999999998,
        (8, "fc"): 1.0,
        (16, "sc"): 0.5874434000028254,
        (16, "gc:1"): 0.5874434000028255,
        (16, "gc:2"): 0.7683947655669341,
        (16, "tc"): 0.9999999999999998,
        (16, "fc"): 1.0,
    },
    "gc_favorable": {
        (8, "sc"): 0.8408301139646973,
        (8, "gc:1"): 0.8408301139646973,
        (8, "gc:2"): 0.9999999999999998,
        (8, "tc"): 0.9999999999999998,
        (8, "fc"): 1.0,
        (16, "sc"): 0.7465892787190009,
        (16, "gc:1"): 0.7465892787190009,
        (16, "gc:2"): 1.0,
        (16, "tc"): 1.0,
        (16, "fc"): 1.0,
    },
    "gc_adversarial": {
        (8, "sc"): 0.6766927175791335,
        (8, "gc:1"): 0.6766927175791334,
        (8, "gc:2"): 0.7975081030978867,
        (8, "tc"): 1.0,
        (8, "fc"): 1.0,
        (16, "sc"): 0.6029197804415515,
        (16, "gc:1"): 0.6029197804415514,
        (16, "gc:2"): 0.7139828416375049,
        (16, "tc"): 1.0000000000000062,
        (16, "fc"): 1.0,
    },
    "tc_adversarial": {
        (8, "sc"): 0.6751188263506204,
        (8, "gc:1"): 0.6751188263506205,
        (8, "gc:2"): 0.4831073681822457,
        (8, "tc"): 0.7776460133596897,
        (8, "fc"): 1.0,
        (16, "sc"): 0.6475987223774913,
        (16, "gc:1"): 0.6475987223774913,
        (16, "gc:2"): 0.5245729141503159,
        (16, "tc"): 0.7288435244886825,
        (16, "fc"): 1.0,
    },
    "los": {
        (8, "sc"): 1.0,
        (8, "gc:1"): 1.0,
        (8, "gc:2"): 0.9999999999999998,
        (8, "tc"): 1.0,
        (8, "fc"): 1.0,
        (16, "sc"): 1.0,
        (16, "gc:1"): 1.0,
        (16, "gc:2"): 1.0,
        (16, "tc"): 1.0,
        (16, "fc"): 1.0,
    },
}


@pytest.mark.parametrize("scenario", sorted(GOLDEN_MEAN_RATIO))
def test_golden_mean_ratios(scenario):
    config = ExperimentConfig(scenario=scenario, sizes=(8, 16), trials=10, archs=ARCHS, seed=7)
    rows = summarize(run_experiment(config))
    got = {(row.n, row.arch): row.mean_ratio for row in rows}
    golden = GOLDEN_MEAN_RATIO[scenario]
    assert list(got) == list(golden)
    for cell, mean_ratio in golden.items():
        assert abs(got[cell] - mean_ratio) <= 1e-12, cell
