from __future__ import annotations

import random
import shutil

import pytest

from edsim.analysis import (
    DOCTOR_PREFERENCE_METRIC,
    DOCTOR_VARIANCE_METRIC,
    METRICS,
    ExperimentData,
    MetricUnknown,
    MissingFile,
    Run,
    compare_experiments,
    load_experiment,
    render_report,
)
from edsim.cli import EXIT_IO, EXIT_OK, main
from edsim.domain import NurseQuality, Role, Scenario, validate_config
from edsim.metrics import COMPARISONS_HEADER, SchemaError, comparisons_csv


def write_experiment(out_root, combo: str, runs: int, seed_base: int, config: str = "") -> str:
    """Write one combo's directory under `out_root` through `edsim experiment`; returns its path."""
    args = ["experiment", *([config] if config else []), "--combo", combo, "--runs", str(runs)]
    assert main(args + ["--seed-base", str(seed_base), "--out", str(out_root)]) == EXIT_OK
    return str(out_root / combo)


@pytest.fixture(scope="module")
def experiment_dirs(tmp_path_factory):
    root = tmp_path_factory.mktemp("experiments")
    combos = ("baseline-ca", "baseline-fifo", "replacement-ca")
    return {combo: write_experiment(root, combo, 12, 400) for combo in combos}


def test_load_experiment_reads_triplet(experiment_dirs):
    data = load_experiment(experiment_dirs["baseline-ca"])
    assert len(data.runs) == 12
    assert [run.row["run_id"] for run in data.runs] == sorted(run.row["run_id"] for run in data.runs)
    assert all(run.row["scenario"] is Scenario.BASELINE for run in data.runs)
    assert data.label == "baseline-ca"
    default = validate_config({})
    assert (data.cfg.doctors, data.cfg.nurses) == (default.doctors, default.nurses)
    for run in data.runs:
        assert {a["run_id"] for a in run.doctors + run.nurses} == {run.row["run_id"]}
        assert [d["doctor_id"] for d in run.doctors] == [i for i, _ in default.doctors]


def test_missing_directory_raises(tmp_path):
    with pytest.raises(MissingFile):
        load_experiment(str(tmp_path / "nope"))


def test_full_comparison_row_set(experiment_dirs):
    rows = compare_experiments(experiment_dirs["baseline-ca"], experiment_dirs["baseline-fifo"])
    assert [r.metric for r in rows] == list(METRICS)
    by_name = {r.metric: r for r in rows}

    served = by_name["patients_served"]
    assert served.mean_b > served.mean_a  # FIFO throughput beats trust gating
    assert served.chosen is not None and served.chosen.p_value < 0.05

    # The low performer never succeeds under either baseline policy, so the
    # row must come out degenerate (all-zero on both sides, no test).
    successes = by_name["low_nurse_tasks_success"]
    assert successes.degenerate
    assert successes.chosen is None
    assert successes.mean_a == successes.mean_b == 0.0

    pref = by_name[DOCTOR_PREFERENCE_METRIC]
    assert 0 <= pref.mean_a <= 12 and 0 <= pref.mean_b <= 12

    variance = by_name[DOCTOR_VARIANCE_METRIC]
    assert variance.chosen is None or variance.chosen.test_name == "paired_t"


def test_gate_prefers_wilcoxon_on_non_normal(experiment_dirs):
    rows = compare_experiments(
        experiment_dirs["baseline-ca"],
        experiment_dirs["baseline-fifo"],
        metrics=["patients_served"],
    )
    row = rows[0]
    gate_says_wilcoxon = (
        row.sw_a is None
        or row.sw_b is None
        or row.sw_a.p_value < 0.05
        or row.sw_b.p_value < 0.05
    )
    expected = "wilcoxon_rank_sum" if gate_says_wilcoxon else "welch_t"
    assert row.chosen.test_name == expected


def test_self_comparison_null(experiment_dirs):
    rows = compare_experiments(experiment_dirs["baseline-ca"], experiment_dirs["baseline-ca"])
    for row in rows:
        if row.metric in (DOCTOR_PREFERENCE_METRIC, DOCTOR_VARIANCE_METRIC):
            continue
        if not row.degenerate:
            assert row.chosen.p_value == pytest.approx(1.0)
        assert row.mean_a == row.mean_b


def test_variance_notes_tell_single_runs_from_identical_variances(experiment_dirs, tmp_path):
    # One run per group leaves the paired test undefined whatever the
    # variances are; only a self-comparison has identical ones.
    single = {combo: write_experiment(tmp_path, combo, 1, 1) for combo in ("baseline-ca", "baseline-fifo")}
    row = compare_experiments(single["baseline-ca"], single["baseline-fifo"], metrics=[DOCTOR_VARIANCE_METRIC])[0]
    assert (row.mean_a, row.mean_b) == (7.0, 1.0)
    assert row.degenerate and row.notes == "fewer than two runs per group; paired test undefined"

    row = compare_experiments(experiment_dirs["baseline-ca"], experiment_dirs["baseline-ca"],
                              metrics=[DOCTOR_VARIANCE_METRIC])[0]
    assert row.degenerate and row.notes == "identical per-run variances; paired test undefined"


def test_gated_notes_tell_single_runs_from_zero_variance(experiment_dirs, tmp_path):
    # One run per group cannot show spread, even when the two values differ.
    single = {combo: write_experiment(tmp_path, combo, 1, 1) for combo in ("baseline-ca", "baseline-fifo")}
    row = compare_experiments(single["baseline-ca"], single["baseline-fifo"], metrics=["patients_served"])[0]
    assert (row.mean_a, row.mean_b) == (21.0, 36.0)
    assert row.degenerate and row.chosen is None
    assert row.notes == "fewer than two runs per group; no test meaningful"

    # The untrained low performer never succeeds, so twelve runs agree on zero.
    row = compare_experiments(experiment_dirs["baseline-ca"], experiment_dirs["baseline-fifo"],
                              metrics=["low_nurse_tasks_success"])[0]
    assert (row.mean_a, row.mean_b) == (0.0, 0.0)
    assert row.degenerate and row.notes == "no variance in either group; no test meaningful"


def test_groups_beyond_5000_runs_get_a_test():
    # Shapiro-Wilk's approximation is validated up to n = 5000; above it the
    # gate still runs, as scipy's does, rather than failing the comparison.
    cfg = validate_config({})

    def synthetic(label, seed):
        rng = random.Random(seed)
        return ExperimentData(label, cfg, [
            Run({"patients_served": float(rng.randint(15, 40))},
                [{"patients_served": rng.randint(3, 15)} for _ in cfg.doctors], [])
            for _ in range(5001)])

    a, b = synthetic("a", 1), synthetic("b", 2)
    for metric in ("patients_served", DOCTOR_VARIANCE_METRIC):
        row = METRICS[metric](a, b, 100, 0)
        assert not row.degenerate and row.sw_a is not None and row.sw_b is not None
        assert row.chosen is not None and 0.0 <= row.chosen.p_value <= 1.0


def test_unknown_metric(experiment_dirs):
    with pytest.raises(MetricUnknown):
        compare_experiments(
            experiment_dirs["baseline-ca"], experiment_dirs["baseline-fifo"], metrics=["nope"]
        )
    with pytest.raises(MetricUnknown, match="no metric named"):
        compare_experiments(experiment_dirs["baseline-ca"], experiment_dirs["baseline-fifo"], metrics=[])


def test_roster_mismatch_names_agents(experiment_dirs, tmp_path):
    config = tmp_path / "lowlow.cfg"
    config.write_text("nurses = 1:low, 2:low\n", encoding="utf-8")
    other = write_experiment(tmp_path / "lowlow", "baseline-ca", 3, 1, str(config))
    with pytest.raises(SchemaError) as err:
        compare_experiments(experiment_dirs["baseline-ca"], other)
    assert "nurse 2" in str(err.value)


def test_replacement_roster_still_comparable(experiment_dirs):
    # The replacement combo spawns extra nurses at runtime; the configured
    # rosters still match, so the comparison must proceed.  The nurse metrics
    # sum the configured nurses only, never the replacements.
    rows = compare_experiments(experiment_dirs["baseline-ca"], experiment_dirs["replacement-ca"])
    data = load_experiment(experiment_dirs["replacement-ca"])
    nurses = [run.nurses for run in data.runs]
    assert any(n["role"] is Role.REPLACEMENT and n["tasks_success"] for ns in nurses for n in ns)
    high = {i for i, quality in data.cfg.nurses if quality is NurseQuality.HIGH}
    per_run = [sum(n["tasks_success"] for n in ns if n["nurse_id"] in high) for ns in nurses]
    row = {r.metric: r for r in rows}["high_nurse_tasks_success"]
    assert row.mean_b == sum(per_run) / len(per_run)


def test_missing_config_echo_exits_3(experiment_dirs, tmp_path, capsys):
    # config.echo is the only roster source, and `run` and `experiment` always
    # write it: a directory without one is missing an input.
    stripped = tmp_path / "replacement-ca"
    shutil.copytree(experiment_dirs["replacement-ca"], stripped)
    (stripped / "config.echo").unlink()
    with pytest.raises(MissingFile, match="missing config.echo"):
        load_experiment(str(stripped))
    args = ["analyze", experiment_dirs["baseline-ca"], str(stripped), "--out", str(tmp_path / "x")]
    assert main(args) == EXIT_IO
    err = capsys.readouterr().err
    assert err.startswith("missing input: ") and str(stripped) in err and "config.echo" in err


def test_comparisons_csv_shape_and_determinism(experiment_dirs):
    rows = compare_experiments(experiment_dirs["baseline-ca"], experiment_dirs["baseline-fifo"])
    text_a = comparisons_csv(rows)
    text_b = comparisons_csv(
        compare_experiments(experiment_dirs["baseline-ca"], experiment_dirs["baseline-fifo"])
    )
    assert text_a == text_b
    lines = text_a.splitlines()
    assert lines[0] == COMPARISONS_HEADER
    assert len(lines) == len(METRICS) + 1
    assert all(len(line.split(",")) == len(COMPARISONS_HEADER.split(",")) for line in lines)


def test_report_renders_every_metric(experiment_dirs):
    rows = compare_experiments(experiment_dirs["baseline-ca"], experiment_dirs["baseline-fifo"])
    report = render_report(rows)
    for name in METRICS:
        assert name in report
