"""Tests of the benchmark itself: corrupted outputs must count as failures.

Run from the repository root with `python3 -m pytest -q bench`.
"""
from __future__ import annotations

import contextlib
import os
import shutil
import subprocess
import sys

import pytest

import checks
import layers
import run


@pytest.fixture(scope="module")
def ctx(tmp_path_factory):
    return run.Context(str(tmp_path_factory.mktemp("bench")), nproc=1)


@pytest.fixture(scope="module")
def grid(ctx):
    wl = run.Grid(seed=3)
    wl.prepare(ctx)
    out = ctx.fresh_dir("grid")
    assert ctx.run_cli(wl.cli_args("grid", out, 1)).returncode == 0
    return wl, out


def _copy(ctx, src, label):
    dst = ctx.fresh_dir(label)
    shutil.copytree(src, dst)
    return dst


def _rewrite_cell(path, row, column, value):
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    header = lines[0].split(",")
    cells = lines[row].split(",")
    cells[header.index(column)] = value
    lines[row] = ",".join(cells)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def test_clean_grid_output_passes(grid):
    wl, out = grid
    problems, shifts = wl.verify("grid", out)
    assert problems == []
    assert shifts == len(run.COMBOS) * run.GRID_RUNS


def test_corrupted_grid_output_counts_as_failure(ctx, grid):
    wl, out = grid
    bad = _copy(ctx, out, "grid-bad")
    _rewrite_cell(os.path.join(bad, "training-ca", "runs.csv"), 1, "patients_served", "999")
    assert any("patients_served" in p for p in checks.conservation(os.path.join(bad, "training-ca")))
    tally = run.Tally()
    tally.record("grid", wl.verify("grid", out)[0])
    tally.record("grid", wl.verify("grid", bad)[0])
    assert (tally.attempted, tally.failed, tally.failed_frac) == (2, 1, 0.5)


def test_damage_not_conserved_is_caught(ctx, grid):
    _, out = grid
    bad = _copy(ctx, out, "grid-damage")
    _rewrite_cell(os.path.join(bad, "baseline-fifo", "nurses.csv"), 1, "time_damage_s", "12345.000000")
    problems = checks.conservation(os.path.join(bad, "baseline-fifo"))
    assert any("sum over nurses" in p for p in problems)


def test_missing_file_differs_from_reference(ctx, grid):
    wl, out = grid
    bad = _copy(ctx, out, "grid-missing")
    os.remove(os.path.join(bad, "baseline-ca", "manifest.txt"))
    problems, _ = wl.verify("grid", bad)
    assert "missing baseline-ca/manifest.txt" in problems


def test_crowded_trace_must_repeat_and_end_at_shift_end(ctx):
    cfg = os.path.join(ctx.tmp, "small.cfg")
    with open(cfg, "w", encoding="utf-8") as fh:
        fh.write("seed = 4\nshiftLength = 300\n")
    out = ctx.fresh_dir("run")
    assert ctx.run_cli(["run", cfg, "--trace", "--out", out]).returncode == 0
    wl = run.Crowded(seed=4)
    assert wl.verify("ca", out)[0] == []

    truncated = _copy(ctx, out, "run-truncated")
    path = os.path.join(truncated, "trace.csv")
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines[:-1]) + "\n")
    problems, events = wl.verify("ca", truncated)
    assert "trace.csv differs from the reference" in problems
    assert any("shift_end" in p for p in problems)
    assert events == len(lines) - 1


def test_analyze_p_values_must_lie_in_unit_interval(ctx, grid):
    _, grid_out = grid
    out = ctx.fresh_dir("analysis")
    args = ["analyze", os.path.join(grid_out, "baseline-ca"), os.path.join(grid_out, "training-ca"), "--out", out]
    assert ctx.run_cli(args).returncode == 0
    assert checks.check_comparisons(out) == []
    for value, message in (("1.5", "outside [0, 1]"), ("abc", "not a number")):
        bad = _copy(ctx, out, "analysis-bad")
        _rewrite_cell(os.path.join(bad, "comparisons.csv"), 1, "p_value", value)
        assert any(message in p for p in checks.check_comparisons(bad))


def test_tracer_counts_layers_and_restores_names(ctx, grid, monkeypatch):
    cli = run.import_cli()
    import edsim.engine
    import edsim.stats

    wl, _ = grid
    monkeypatch.delattr(edsim.stats, "paired_t_test")
    original = edsim.engine.select_request_ca
    tracer = layers.Tracer()
    tracer.install()
    try:
        out = ctx.fresh_dir("traced")
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            assert cli.main(wl.cli_args("grid", out, 1)) == 0
    finally:
        tracer.uninstall()
    assert edsim.engine.select_request_ca is original
    figures = layers.layer_metrics(tracer)
    assert figures["engine.run_shift.calls"] == len(run.COMBOS) * run.GRID_RUNS
    assert figures["cli.run_experiment.calls"] == len(run.COMBOS)
    assert 0 < figures["engine.self_s"] < figures["engine.run_shift.s"]
    assert figures["policy.select.pending_seen"] > 0
    assert 0 < figures["policy.select.accepted_ratio"] <= 1
    assert figures["stats.paired_t_test.calls"] is None
    assert tracer.missing == ["edsim.stats.paired_t_test"]
    assert wl.verify("grid", out)[0] == []


def test_benchmark_without_program_exits_nonzero(tmp_path):
    bench_dir = tmp_path / "bench"
    bench_dir.mkdir()
    here = os.path.dirname(os.path.abspath(__file__))
    for name in os.listdir(here):
        if name.endswith(".py"):
            shutil.copy(os.path.join(here, name), bench_dir / name)
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "grid", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
