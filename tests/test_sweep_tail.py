"""The sweep's tail after the stacked solve: figures, rows, CSV writers and the CLI parser.

optimize_trials takes every pair's h_r^H (Theta h_t) from one vecdot and
|.|^2 from each numpy scalar; its figures must be bit for bit those of one
optimize() call per pair.  On the optimizers' own outputs h_r^H (Theta h_t)
is real to rounding, where np.abs and abs agree, so _received_powers is
also held to received_power's rounding on arbitrary rows.  The CSV
writers format each line with one f-string; they must write byte for byte
what a csv.writer over the same fields writes.
"""

import csv
import importlib
import io

import numpy as np
import pytest

from bdris.architecture import parse_arch
from bdris.channel import ChannelPair, ChannelStack, Rng, rayleigh_channels
from bdris.experiment import (
    RECORD_HEADER,
    SUMMARY_HEADER,
    SummaryRow,
    TrialRecord,
    write_records_csv,
    write_summary_csv,
)
from bdris.optimize import OptimizeResult, TrialResult, optimize, optimize_trials

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

cli = importlib.import_module("bdris.cli")
optimize_module = importlib.import_module("bdris.optimize")

FIGURES = ("p_r", "p_bar_full", "p_bar_arch", "ratio_full", "residual_norm", "consistent")


def labels_at(n):
    """Architectures of every solver path at size n: sc, a two-group gc (dense or factored), fc and tc."""
    labels = ["sc", "fc", "tc"]
    if n > 1:
        labels.append(f"gc:I={n // 2}")
    return labels


def scaled_stack(n, count):
    """Rayleigh rows at size n, each scaled by its own power of ten in [1e-40, 1e40]."""
    h_r, h_t = rayleigh_channels(n, Rng(np.arange(count, dtype=np.uint64) + 1000 * n))
    scale = 10.0 ** np.random.default_rng(n).integers(-40, 41, (count, 1))
    return ChannelStack(h_r * scale, h_t / scale[::-1])


@pytest.mark.parametrize("n", [1, 2, 3, 5, 64, 257])
@pytest.mark.parametrize("count", [1, 2, 300])
def test_stacked_figures_are_one_pair_figures_bit_for_bit(n, count):
    stack = scaled_stack(n, count)
    for label in labels_at(n):
        spec = parse_arch(label, n)
        batch = optimize_trials(stack, spec)
        assert len(batch) == count
        for t, result in enumerate(batch):
            alone = optimize(ChannelPair(stack.h_r[t], stack.h_t[t]), spec)
            assert [repr(v) for v in result] == [repr(getattr(alone, name)) for name in FIGURES], \
                (label, t)
            assert type(result.p_r) is float and type(result.consistent) is bool


@pytest.mark.parametrize("n", [1, 2, 3, 5, 64, 257])
def test_received_powers_round_as_received_power(n):
    # on arbitrary rows h_r^H y is far from real, where np.abs over an array
    # and abs of each scalar differ in the last bit on about a third of them
    rng = np.random.default_rng(n)
    count = 300
    scale = 10.0 ** rng.uniform(-100, 100, (count, 1))
    h_r = (rng.standard_normal((count, n)) + 1j * rng.standard_normal((count, n))) * scale
    y = rng.standard_normal((count, n)) + 1j * rng.standard_normal((count, n))
    expected = [float(abs(np.vdot(a, b)) ** 2) for a, b in zip(h_r, y)]
    for k in (1, 2, count):
        assert optimize_module._received_powers(h_r[:k].ravel(), y[:k].ravel(), k) == expected[:k]


def test_results_and_records_are_rows():
    result = TrialResult(1.0, 2.0, 2.0, 0.5, 0.0, True)
    assert result == TrialResult(p_r=1.0, p_bar_full=2.0, p_bar_arch=2.0, ratio_full=0.5,
                                 residual_norm=0.0, consistent=True)
    assert result.ratio_full == 0.5 and tuple(result) == (1.0, 2.0, 2.0, 0.5, 0.0, True)
    with pytest.raises(AttributeError):
        result.p_r = 3.0
    record = TrialRecord("rayleigh", 4, "sc", 0, 7, 1.0, 2.0, 0.5, 0.0, True)
    assert record.in_a is None
    assert record == TrialRecord(scenario="rayleigh", n=4, arch="sc", trial=0, seed=7, p_r=1.0,
                                 p_bar_full=2.0, ratio_full=0.5, residual_norm=0.0,
                                 consistent=True, in_a=None)
    # optimize() keeps B and Theta beside the figures, in a class of its own
    full = optimize(ChannelPair(np.ones(2, complex), np.ones(2, complex)), parse_arch("sc", 2))
    assert isinstance(full, OptimizeResult) and not isinstance(full, TrialResult)
    assert full.b_matrix is not None and full.theta is not None


def reference_records_csv(records):
    """The records CSV as a csv.writer over string fields writes it."""
    fp = io.StringIO()
    with_membership = any(r.in_a is not None for r in records)
    out = csv.writer(fp, lineterminator="\n")
    fp.write(RECORD_HEADER + (",in_a" if with_membership else "") + "\n")
    for r in records:
        row = [r.scenario, str(r.n), r.arch, str(r.trial), str(r.seed), repr(float(r.p_r)),
               repr(float(r.p_bar_full)), repr(float(r.ratio_full)), repr(float(r.residual_norm)),
               "true" if r.consistent else "false"]
        if with_membership:
            row.append("" if r.in_a is None else "true" if r.in_a else "false")
        out.writerow(row)
    return fp.getvalue()


def reference_summary_csv(rows):
    fp = io.StringIO()
    out = csv.writer(fp, lineterminator="\n")
    fp.write(SUMMARY_HEADER + "\n")
    for r in rows:
        out.writerow([r.scenario, str(r.n), r.arch, str(r.trials), repr(float(r.mean_ratio)),
                      repr(float(r.std_ratio)), repr(float(r.min_ratio)), repr(float(r.max_ratio)),
                      repr(float(r.consistent_fraction))])
    return fp.getvalue()


# labels with commas, quotes, line breaks and spaces, or empty
LABELS = st.one_of(st.sampled_from(["rayleigh", "tc_adversarial:q=7", "gc:I=2,5", "gc:4", ""]),
                   st.text(alphabet='ab:=,"I2 \r\n', max_size=6))
FLOATS = st.one_of(st.floats(), st.sampled_from([0.0, -0.0, 5e-324, -2.5e-310, 1e308, -1e308,
                                                 np.nextafter(0.0, 1.0)]),
                   st.floats().map(np.float64))
COUNTS = st.integers(0, 10 ** 6)
SEEDS = st.integers(0, 2 ** 64 - 1)

records_strategy = st.builds(TrialRecord, LABELS, COUNTS, LABELS, COUNTS, SEEDS, FLOATS, FLOATS,
                             FLOATS, FLOATS, st.booleans(), st.sampled_from([None, True, False]))
summary_strategy = st.builds(SummaryRow, LABELS, COUNTS, LABELS, COUNTS, FLOATS, FLOATS, FLOATS,
                             FLOATS, FLOATS)


@settings(max_examples=150, deadline=None)
@given(st.lists(records_strategy, max_size=12))
def test_records_writer_is_a_csv_writer_byte_for_byte(records):
    fp = io.StringIO()
    write_records_csv(records, fp)
    assert fp.getvalue() == reference_records_csv(records)


@settings(max_examples=100, deadline=None)
@given(st.lists(summary_strategy, max_size=12))
def test_summary_writer_is_a_csv_writer_byte_for_byte(rows):
    fp = io.StringIO()
    write_summary_csv(rows, fp)
    assert fp.getvalue() == reference_summary_csv(rows)


def test_a_quoted_label_reads_back():
    record = TrialRecord('gc:I=2,5 "x"', 8, "gc:I=2,5", 3, 2 ** 64 - 1, -0.0, 5e-324, 1e308,
                         0.0, False, True)
    fp = io.StringIO()
    write_records_csv([record], fp)
    assert fp.getvalue().splitlines()[1].startswith('"gc:I=2,5 ""x""",8,"gc:I=2,5",3,')
    (row,) = csv.DictReader(io.StringIO(fp.getvalue()))
    assert row["scenario"] == 'gc:I=2,5 "x"' and row["arch"] == "gc:I=2,5"
    assert row["seed"] == str(2 ** 64 - 1) and row["p_r"] == "-0.0" and row["in_a"] == "true"


def test_main_builds_its_parser_once(tmp_path, capsys):
    assert cli.build_parser() is not cli.build_parser()
    assert cli._parser() is cli._parser()
    out = tmp_path / "r.csv"
    argv = ["simulate", "--scenario", "rayleigh", "--sizes", "4", "--trials", "2", "--arch", "sc",
            "--out", str(out)]
    assert cli.main(argv) == 0
    first = out.read_text()
    # a bad call in between leaves the cached parser as it was
    assert cli.main(["simulate", "--scenario", "nowhere", "--out", str(out)]) == 2
    assert cli.main(argv + ["--check-membership"]) == 0
    assert out.read_text().splitlines()[0].endswith(",in_a")
    assert cli.main(argv) == 0
    assert out.read_text() == first
    capsys.readouterr()
