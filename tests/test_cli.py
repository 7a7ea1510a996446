from __future__ import annotations

import csv
import errno
import gc
import io
import json
import os
import pickle
import re
import signal
import subprocess
import sys
import time

import pytest

import edsim
from edsim.cli import COMBOS, EXIT_CONFIG, EXIT_IO, EXIT_OK, EXIT_RUN_FAILED, EXIT_SCHEMA, main
from edsim.domain import Scenario, parse_config_file, validate_config
from edsim.engine import run_shift
from edsim.metrics import read_runs

from conftest import tree_bytes


def write_config(path, text=""):
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_run_happy_path(tmp_path, capsys):
    cfg = write_config(tmp_path / "shift.cfg", "seed = 7\n")
    out = tmp_path / "out"
    assert main(["run", cfg, "--out", str(out)]) == EXIT_OK
    for name in ("runs.csv", "doctors.csv", "nurses.csv", "config.echo", "manifest.txt"):
        assert (out / name).exists()
    line = capsys.readouterr().out.strip()
    rows = read_runs(str(out / "runs.csv"))
    assert len(rows) == 1 and rows[0]["seed"] == 7
    assert line.startswith("run-00000007,7,baseline,ca,")
    # The printed line is the file's data line, from the same formatted row.
    assert line == (out / "runs.csv").read_text(encoding="utf-8").splitlines()[1]


def test_run_seed_override(tmp_path):
    cfg = write_config(tmp_path / "shift.cfg", "seed = 7\n")
    out = tmp_path / "out"
    assert main(["run", cfg, "--seed", "99", "--out", str(out)]) == EXIT_OK
    assert read_runs(str(out / "runs.csv"))[0]["seed"] == 99


def test_run_trace_flag(tmp_path):
    cfg = write_config(tmp_path / "shift.cfg", "shiftLength = 50\n")
    out = tmp_path / "out"
    assert main(["run", cfg, "--trace", "--out", str(out)]) == EXIT_OK
    trace = (out / "trace.csv").read_text().splitlines()
    assert trace[-1].split(",")[2] == "shift_end"
    assert all(len(line.split(",")) == 5 for line in trace)


def test_run_invalid_combination_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path / "bad.cfg", "policy = fifo\nscenario = training\n")
    assert main(["run", cfg, "--out", str(tmp_path / "o")]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "baseline" in err and "policy" in err


def test_run_bad_key_names_key(tmp_path, capsys):
    cfg = write_config(tmp_path / "bad.cfg", "trustLearningRate = 7\n")
    assert main(["run", cfg, "--out", str(tmp_path / "o")]) == EXIT_CONFIG
    assert "trustLearningRate" in capsys.readouterr().err


def test_run_infinite_shift_exits_2_and_names_the_key(tmp_path):
    # A FIFO shift that is let through never ends, so it runs as a child with a timeout.
    cfg = write_config(tmp_path / "inf.cfg", "policy = fifo\nshiftLength = inf\n")
    src = os.path.dirname(os.path.dirname(os.path.abspath(edsim.__file__)))
    done = subprocess.run(
        [sys.executable, "-m", "edsim", "run", cfg, "--out", str(tmp_path / "o")],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src), timeout=60,
    )
    assert done.returncode == EXIT_CONFIG
    assert done.stderr == "config error (key: shiftLength): shiftLength must be finite, got inf\n"
    assert not (tmp_path / "o").exists()


def test_run_reports_first_bad_key_whatever_the_hash_seed(tmp_path):
    # Several keys are bad at once; the one reported must not depend on
    # set iteration order, which varies with PYTHONHASHSEED.
    cfg = write_config(tmp_path / "bad.cfg", "prepTime = -1\ntravelTime = -1\nexamDuration = -1\nshiftLength = -1\n")
    src = os.path.dirname(os.path.dirname(os.path.abspath(edsim.__file__)))
    keys = set()
    for hash_seed in range(8):
        env = dict(os.environ, PYTHONHASHSEED=str(hash_seed), PYTHONPATH=src)
        done = subprocess.run(
            [sys.executable, "-m", "edsim", "run", cfg, "--out", str(tmp_path / "o")],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert done.returncode == EXIT_CONFIG
        keys.add(done.stderr.split("(key: ", 1)[1].split(")", 1)[0])
    assert keys == {"shiftLength"}


def test_run_unreadable_config_exits_3(tmp_path):
    assert main(["run", str(tmp_path / "missing.cfg"), "--out", str(tmp_path / "o")]) == EXIT_IO


def test_experiment_all_combos(tmp_path):
    out = tmp_path / "exp"
    assert main(["experiment", "--runs", "3", "--seed-base", "50", "--out", str(out)]) == EXIT_OK
    for combo in ("baseline-ca", "baseline-fifo", "replacement-ca", "training-ca"):
        rows = read_runs(str(out / combo / "runs.csv"))
        assert len(rows) == 3
        assert [r["seed"] for r in rows] == [50, 51, 52]
        assert (out / combo / "manifest.txt").read_text().count("seeds = 50..52") == 1


def test_experiment_single_run_matches_cmd_run(tmp_path):
    cfg = write_config(tmp_path / "shift.cfg", "")
    out_run = tmp_path / "single"
    out_exp = tmp_path / "batch"
    assert main(["run", cfg, "--seed", "5", "--out", str(out_run)]) == EXIT_OK
    assert main(
        ["experiment", cfg, "--runs", "1", "--seed-base", "5", "--combo", "baseline-ca", "--out", str(out_exp)]
    ) == EXIT_OK
    single = read_runs(str(out_run / "runs.csv"))[0]
    batch = read_runs(str(out_exp / "baseline-ca" / "runs.csv"))[0]
    for key in ("seed", "patients_served", "total_time_damage_s", "total_delay_s"):
        assert single[key] == batch[key]


def test_experiment_parallel_matches_serial(tmp_path):
    serial, parallel = tmp_path / "serial", tmp_path / "parallel"
    args = ["experiment", "--runs", "6", "--seed-base", "9", "--combo", "replacement-ca"]
    assert main(args + ["--out", str(serial)]) == EXIT_OK
    assert main(args + ["--out", str(parallel), "--parallel", "3"]) == EXIT_OK
    assert tree_bytes(serial) == tree_bytes(parallel)


def test_analyze_end_to_end(tmp_path, capsys):
    out = tmp_path / "exp"
    main(["experiment", "--runs", "8", "--seed-base", "3", "--combo", "baseline-ca", "--out", str(out)])
    main(["experiment", "--runs", "8", "--seed-base", "3", "--combo", "baseline-fifo", "--out", str(out)])
    capsys.readouterr()
    analysis = tmp_path / "analysis"
    code = main(
        [
            "analyze",
            str(out / "baseline-ca"),
            str(out / "baseline-fifo"),
            "--mc-draws", "2000",
            "--out", str(analysis),
        ]
    )
    assert code == EXIT_OK
    assert (analysis / "comparisons.csv").exists()
    report = (analysis / "report.txt").read_text()
    assert "patients_served" in report
    assert capsys.readouterr().out.startswith("Comparison:")


# Runs `analyze` in a child, then reports on stderr the exit code, the
# OPENBLAS_NUM_THREADS the child saw and its thread count (None off Linux).
_ANALYZE_AND_REPORT = """
import os, sys
from edsim.cli import main
code = main(sys.argv[1:])
tasks = len(os.listdir("/proc/self/task")) if sys.platform.startswith("linux") else None
print(code, os.environ.get("OPENBLAS_NUM_THREADS"), tasks, file=sys.stderr)
"""


@pytest.mark.parametrize("preset", [None, "3"])
def test_analyze_keeps_openblas_to_one_thread_unless_set(tmp_path, capsys, preset):
    out = tmp_path / "exp"
    for combo in ("baseline-ca", "baseline-fifo"):
        main(["experiment", "--runs", "4", "--combo", combo, "--out", str(out)])
    capsys.readouterr()
    src = os.path.dirname(os.path.dirname(os.path.abspath(edsim.__file__)))
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = src
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    done = subprocess.run(
        [sys.executable, "-c", _ANALYZE_AND_REPORT, "analyze", str(out / "baseline-ca"), str(out / "baseline-fifo"),
         "--mc-draws", "50", "--out", str(tmp_path / "analysis")],
        capture_output=True, text=True, env=env, timeout=120,
    )
    code, seen, tasks = done.stderr.split()
    assert (code, seen) == (str(EXIT_OK), preset or "1")
    if preset is None and sys.platform.startswith("linux"):
        assert tasks == "1"  # OpenBLAS, loaded with numpy, started no thread


def test_analyze_self_comparison(tmp_path):
    out = tmp_path / "exp"
    main(["experiment", "--runs", "5", "--seed-base", "3", "--combo", "baseline-ca", "--out", str(out)])
    analysis = tmp_path / "self"
    code = main(
        [
            "analyze",
            str(out / "baseline-ca"),
            str(out / "baseline-ca"),
            "--metrics", "patients_served,total_delay_s",
            "--mc-draws", "500",
            "--out", str(analysis),
        ]
    )
    assert code == EXIT_OK
    rows = (analysis / "comparisons.csv").read_text().splitlines()[1:]
    for row in rows:
        cells = row.split(",")
        assert cells[-1] == "false"
        assert float(cells[-2]) == pytest.approx(1.0)


def test_analyze_roster_mismatch_exits_5(tmp_path, capsys):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    cfg_b = write_config(tmp_path / "b.cfg", "nurses = 1:high, 2:high\n")
    main(["experiment", "--runs", "3", "--seed-base", "1", "--combo", "baseline-ca", "--out", str(out_a)])
    main(["experiment", cfg_b, "--runs", "3", "--seed-base", "1", "--combo", "baseline-ca", "--out", str(out_b)])
    code = main(["analyze", str(out_a / "baseline-ca"), str(out_b / "baseline-ca"), "--out", str(tmp_path / "x")])
    assert code == EXIT_SCHEMA
    assert "nurse 1" in capsys.readouterr().err


def test_analyze_mc_draws_below_one_exits_2(tmp_path, capsys):
    out = tmp_path / "exp"
    main(["experiment", "--runs", "3", "--seed-base", "1", "--combo", "baseline-ca", "--out", str(out)])
    exp = str(out / "baseline-ca")
    assert main(["analyze", exp, exp, "--mc-draws", "0", "--out", str(tmp_path / "x")]) == EXIT_CONFIG
    assert "--mc-draws" in capsys.readouterr().err


@pytest.mark.parametrize("draws", ["1000001", "100000000000"])
def test_analyze_mc_draws_above_a_million_exits_2_before_reading(draws, tmp_path, capsys):
    # Neither directory exists, so the bound is checked before any input is read.
    missing = str(tmp_path / "missing")
    assert main(["analyze", missing, missing, "--mc-draws", draws, "--out", str(tmp_path / "x")]) == EXIT_CONFIG
    assert capsys.readouterr().err == "config error: --mc-draws must be <= 1000000\n"
    assert not (tmp_path / "x").exists()
    # A million draws is in range: the same call goes on to read its input.
    assert main(["analyze", missing, missing, "--mc-draws", "1000000", "--out", str(tmp_path / "x")]) == EXIT_IO


def test_analyze_legacy_echo_with_mc_draws_exits_5(tmp_path, capsys):
    # Echoes once carried an unused mcDraws key; edsim no longer writes it, so
    # the echo is invalid and the message names the key.
    out = tmp_path / "exp"
    main(["experiment", "--runs", "3", "--seed-base", "1", "--combo", "baseline-ca", "--out", str(out)])
    echo = out / "baseline-ca" / "config.echo"
    echo.write_text(echo.read_text(encoding="utf-8") + "mcDraws = 10000\n", encoding="utf-8")
    exp = str(out / "baseline-ca")
    capsys.readouterr()
    assert main(["analyze", exp, exp, "--mc-draws", "200", "--out", str(tmp_path / "x")]) == EXIT_SCHEMA
    err = capsys.readouterr().err
    assert err.startswith("schema mismatch: ") and str(echo) in err and "'mcDraws'" in err


def test_analyze_malformed_echo_exits_5(tmp_path, capsys):
    out = tmp_path / "exp"
    main(["experiment", "--runs", "3", "--seed-base", "1", "--combo", "baseline-ca", "--out", str(out)])
    echo = out / "baseline-ca" / "config.echo"
    echo.write_text(echo.read_text(encoding="utf-8").replace("trustInit = 0.5", "trustInit = banana"), encoding="utf-8")
    exp = str(out / "baseline-ca")
    assert main(["analyze", exp, exp, "--out", str(tmp_path / "x")]) == EXIT_SCHEMA
    err = capsys.readouterr().err
    assert str(echo) in err and "trustInit" in err


def _header_only_runs(exp):
    runs = exp / "runs.csv"
    runs.write_text(runs.read_text(encoding="utf-8").splitlines()[0] + "\n", encoding="utf-8")
    return runs, []


def _replace_cell(path, column, cell):
    """Put `cell` in `column` of line 3 of the CSV at `path`; returns the damage's path and phrases."""
    lines = path.read_text(encoding="utf-8").splitlines()
    cells = lines[2].split(",")
    cells[lines[0].split(",").index(column)] = cell
    lines[2] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path, ["line 3", f"column {column}", repr(cell)]


def _bad_seed_cell(exp):
    return _replace_cell(exp / "runs.csv", "seed", "abc")


def _nan_delay(exp):
    return _replace_cell(exp / "runs.csv", "total_delay_s", "nan")


def _inf_delay(exp):
    return _replace_cell(exp / "runs.csv", "total_delay_s", "inf")


def _negative_served(exp):
    return _replace_cell(exp / "doctors.csv", "patients_served", "-3")


def _negative_failures(exp):
    return _replace_cell(exp / "nurses.csv", "tasks_failed", "-3")


# Python's number syntax takes each of these; edsim writes none of them.
def _underscored_served(exp):
    return _replace_cell(exp / "doctors.csv", "patients_served", "1_0")


def _padded_doctor_id(exp):
    return _replace_cell(exp / "doctors.csv", "doctor_id", " 7 ")


def _signed_failures(exp):
    return _replace_cell(exp / "nurses.csv", "tasks_failed", "+3")


def _zero_padded_seed(exp):
    return _replace_cell(exp / "runs.csv", "seed", "07")


def _exponent_delay(exp):
    return _replace_cell(exp / "runs.csv", "total_delay_s", "1e1")


# Each enum cell takes only its enum's values, spelled as edsim writes them.
def _upper_quality(exp):
    return _replace_cell(exp / "nurses.csv", "quality", "LOW")


def _padded_quality(exp):
    return _replace_cell(exp / "nurses.csv", "quality", " low")


def _capital_scenario(exp):
    return _replace_cell(exp / "runs.csv", "scenario", "Baseline")


def _upper_policy(exp):
    return _replace_cell(exp / "runs.csv", "policy", "CA")


def _capital_style(exp):
    return _replace_cell(exp / "doctors.csv", "style", "Over")


def _capital_role(exp):
    return _replace_cell(exp / "nurses.csv", "role", "Replacement")


def _rewrite_lines(path, edit):
    """Replace the lines of the CSV at `path` by `edit(lines)`; returns the old lines."""
    lines = path.read_text(encoding="utf-8").splitlines()
    path.write_text("\n".join(edit(lines)) + "\n", encoding="utf-8")
    return lines


def _repeated_run(exp):
    # One run counted twice.
    lines = _rewrite_lines(exp / "runs.csv", lambda lines: lines + lines[1:2])
    return exp / "runs.csv", [f"run {lines[1].split(',')[0]} repeated"]


def _orphan_agent_rows(exp):
    # The last run's runs.csv row is gone, its agent rows are not.
    lines = _rewrite_lines(exp / "runs.csv", lambda lines: lines[:-1])
    return exp / "doctors.csv", [f"run {lines[-1].split(',')[0]} has no row in runs.csv"]


def _missing_doctor_row(exp):
    # One doctor fewer changes that run's variance of patients per doctor.
    lines = _rewrite_lines(exp / "doctors.csv", lambda lines: lines[:2] + lines[3:])
    return exp / "doctors.csv", [f"run {lines[2].split(',')[0]} differs from the roster in config.echo"]


def _swapped_nurse_kind(exp):
    # Nurse 2 is configured high; "low" is a value edsim writes, but not for it.
    path, _ = _replace_cell(exp / "nurses.csv", "quality", "low")
    run_id = path.read_text(encoding="utf-8").splitlines()[2].split(",")[0]
    return path, [f"run {run_id} differs from the roster in config.echo"]


# Each runs row must carry the echo's scenario, policy and horizon.
def _other_combo_row(exp):
    runs = exp / "runs.csv"
    lines = runs.read_text(encoding="utf-8").splitlines()
    assert ",baseline,ca," in lines[2]
    lines[2] = lines[2].replace(",baseline,ca,", ",training,fifo,")
    runs.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return runs, [f"run {lines[2].split(',')[0]} differs from config.echo"]


def _other_horizon_row(exp):
    path, _ = _replace_cell(exp / "runs.csv", "shift_length_s", "5.000000")
    run_id = path.read_text(encoding="utf-8").splitlines()[2].split(",")[0]
    return path, [f"run {run_id} differs from config.echo"]


# The echo must be the text edsim writes for its values.
def _rewrite_echo(exp, line, respelled):
    echo = exp / "config.echo"
    text = echo.read_text(encoding="utf-8")
    assert f"\n{line}\n" in text
    echo.write_text(text.replace(f"\n{line}\n", f"\n{respelled}\n"), encoding="utf-8")
    return echo, ["not as edsim writes it", f"expected {line}"]


def _upper_echo_scenario(exp):
    return _rewrite_echo(exp, "scenario = baseline", "scenario = BASELINE")


def _integral_echo_shift_length(exp):
    return _rewrite_echo(exp, "shiftLength = 1000.0", "shiftLength = 1000")


def _yes_echo_penalty(exp):
    return _rewrite_echo(exp, "utilityFailurePenalty = on", "utilityFailurePenalty = yes")


def _latin1_nurses(exp):
    nurses = exp / "nurses.csv"
    nurses.write_bytes(nurses.read_bytes() + b"caf\xe9\n")
    return nurses, ["not UTF-8"]


def _latin1_echo(exp):
    echo = exp / "config.echo"
    echo.write_bytes(echo.read_bytes() + b"# caf\xe9\n")
    return echo, ["not UTF-8"]


@pytest.mark.parametrize("damage", [
    _header_only_runs, _bad_seed_cell, _latin1_nurses, _latin1_echo,
    _nan_delay, _inf_delay, _negative_served, _negative_failures,
    _underscored_served, _padded_doctor_id, _signed_failures, _zero_padded_seed, _exponent_delay,
    _upper_quality, _padded_quality, _capital_scenario, _upper_policy, _capital_style, _capital_role,
    _repeated_run, _orphan_agent_rows, _missing_doctor_row, _swapped_nurse_kind,
    _other_combo_row, _other_horizon_row, _upper_echo_scenario, _integral_echo_shift_length, _yes_echo_penalty,
])
def test_analyze_malformed_directory_exits_5(tmp_path, capsys, damage):
    out = tmp_path / "exp"
    main(["experiment", "--runs", "3", "--seed-base", "1", "--combo", "baseline-ca", "--out", str(out)])
    exp = out / "baseline-ca"
    path, phrases = damage(exp)
    capsys.readouterr()
    assert main(["analyze", str(exp), str(exp), "--mc-draws", "200", "--out", str(tmp_path / "x")]) == EXIT_SCHEMA
    err = capsys.readouterr().err
    assert err.startswith("schema mismatch: ") and str(path) in err
    assert all(phrase in err for phrase in phrases)


def test_analyze_one_doctor_marks_variance_degenerate(tmp_path, capsys):
    cfg = write_config(tmp_path / "one.cfg", "doctors = 1:correct\nbedCount = 3\n")
    out = tmp_path / "exp"
    for combo in ("baseline-ca", "baseline-fifo"):
        assert main(["experiment", cfg, "--runs", "3", "--seed-base", "1", "--combo", combo, "--out", str(out)]) == EXIT_OK
    analysis = tmp_path / "analysis"
    args = ["analyze", str(out / "baseline-ca"), str(out / "baseline-fifo"), "--mc-draws", "200"]
    assert main(args + ["--out", str(analysis)]) == EXIT_OK
    rows = {r.split(",")[0]: r.split(",") for r in (analysis / "comparisons.csv").read_text().splitlines()[1:]}
    assert rows["patients_per_doctor_variance"][-1] == "true"
    assert rows["doctor_preference_chi2"][3:5] == ["0.000000", "0.000000"]
    # With one doctor no chi-square test runs, so the row must not read as a
    # maximally significant p of zero.
    assert rows["doctor_preference_chi2"][-1] == "true"
    out = capsys.readouterr().out
    assert "fewer than two doctors" in out
    assert "no run in a group has two doctors and a served patient; chi-square undefined" in out


def test_analyze_quotes_labels_holding_commas(tmp_path):
    out = tmp_path / "g"
    for combo in ("baseline-ca", "baseline-fifo"):
        assert main(["experiment", "--runs", "3", "--seed-base", "1", "--combo", combo, "--out", str(out)]) == EXIT_OK
    odd = out / 'base,"ca"'
    (out / "baseline-ca").rename(odd)
    analysis = tmp_path / "analysis"
    args = ["analyze", str(odd), str(out / "baseline-fifo"), "--mc-draws", "200", "--out", str(analysis)]
    assert main(args) == EXIT_OK
    with open(analysis / "comparisons.csv", encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    assert all(len(row) == 13 for row in rows)
    assert {(row[1], row[2]) for row in rows[1:]} == {('base,"ca"', "baseline-fifo")}
    lines = (analysis / "comparisons.csv").read_text(encoding="utf-8").splitlines()
    assert lines[1].split(",", 1)[1].startswith('"base,""ca""",baseline-fifo,')


@pytest.mark.parametrize("newline", ["\r", "\n"])
def test_analyze_quotes_labels_holding_line_breaks(tmp_path, newline):
    out = tmp_path / "g"
    for combo in ("baseline-ca", "baseline-fifo"):
        assert main(["experiment", "--runs", "3", "--seed-base", "1", "--combo", combo, "--out", str(out)]) == EXIT_OK
    label = f"base{newline}ca"
    (out / "baseline-ca").rename(out / label)
    analysis = tmp_path / "analysis"
    args = ["analyze", str(out / label), str(out / "baseline-fifo"), "--mc-draws", "200", "--out", str(analysis)]
    assert main(args) == EXIT_OK
    with open(analysis / "comparisons.csv", encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 14 and all(len(row) == 13 for row in rows)
    assert {(row[1], row[2]) for row in rows[1:]} == {(label, "baseline-fifo")}


def test_analyze_labels_colliding_directories_by_path(tmp_path, capsys):
    # Two directories of one base name are labelled by their normalized
    # paths; the same directory given twice keeps its base name.
    for group in ("g1", "g2"):
        args = ["experiment", "--runs", "3", "--seed-base", "1", "--combo", "baseline-ca"]
        assert main(args + ["--out", str(tmp_path / group)]) == EXIT_OK
    a, b = tmp_path / "g1" / "baseline-ca", tmp_path / "g2" / "baseline-ca"
    for dir_a, dir_b, labels in (
        (f"{a}/", f"{b}/./", (str(a), str(b))),
        (str(a), f"{a}/", ("baseline-ca", "baseline-ca")),
    ):
        analysis = tmp_path / "analysis"
        capsys.readouterr()
        assert main(["analyze", dir_a, dir_b, "--mc-draws", "200", "--out", str(analysis)]) == EXIT_OK
        assert capsys.readouterr().out.startswith(f"Comparison: {labels[0]} vs {labels[1]}\n")
        with open(analysis / "comparisons.csv", encoding="utf-8", newline="") as fh:
            assert {(row[1], row[2]) for row in list(csv.reader(fh))[1:]} == {labels}


@pytest.mark.parametrize("command", [["run"], ["experiment", "--runs", "1", "--combo", "baseline-ca"]])
def test_non_utf8_config_exits_2(tmp_path, capsys, command):
    cfg = tmp_path / "latin1.cfg"
    cfg.write_bytes(b"# caf\xe9\nseed = 3\n")
    code = main([command[0], str(cfg), *command[1:], "--out", str(tmp_path / "o")])
    assert code == EXIT_CONFIG
    assert "not UTF-8" in capsys.readouterr().err


def test_analyze_missing_dir_exits_3(tmp_path):
    out = tmp_path / "exp"
    main(["experiment", "--runs", "3", "--seed-base", "1", "--combo", "baseline-ca", "--out", str(out)])
    assert main(["analyze", str(out / "baseline-ca"), str(tmp_path / "ghost"), "--out", str(tmp_path / "x")]) == EXIT_IO


def test_analyze_unknown_metric_exits_2(tmp_path):
    out = tmp_path / "exp"
    main(["experiment", "--runs", "3", "--seed-base", "1", "--combo", "baseline-ca", "--out", str(out)])
    code = main(
        ["analyze", str(out / "baseline-ca"), str(out / "baseline-ca"), "--metrics", "bogus", "--out", str(tmp_path / "x")]
    )
    assert code == EXIT_CONFIG


@pytest.mark.parametrize("metrics", [",", " , ", ""])
def test_analyze_naming_no_metric_exits_2(tmp_path, capsys, metrics):
    out = tmp_path / "exp"
    main(["experiment", "--runs", "3", "--seed-base", "1", "--combo", "baseline-ca", "--out", str(out)])
    exp = str(out / "baseline-ca")
    assert main(["analyze", exp, exp, "--metrics", metrics, "--out", str(tmp_path / "x")]) == EXIT_CONFIG
    assert "no metric named" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


def test_experiment_run_failure_exits_4(tmp_path, monkeypatch):
    import edsim.cli as cli

    def explode(cfg):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "run_shift", explode)
    code = main(["experiment", "--runs", "2", "--seed-base", "1", "--combo", "baseline-ca", "--out", str(tmp_path)])
    assert code == 4


@pytest.fixture
def forks(monkeypatch):
    """Count the workers forked through `os.fork`; returns their pids."""
    pids = []
    real_fork = os.fork

    def counting_fork():
        pid = real_fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counting_fork)
    return pids


def assert_no_children():
    """Every worker was reaped: this process has no child left, running or not."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_experiment_pool_is_bounded_by_runs(tmp_path, forks):
    args = ["experiment", "--runs", "3", "--combo", "baseline-ca", "--parallel", "500", "--out", str(tmp_path)]
    assert main(args) == EXIT_OK
    assert len(forks) == 3
    assert_no_children()


LOW_DESCRIPTOR_LIMIT = """
import resource, sys
resource.setrlimit(resource.RLIMIT_NOFILE, (64, resource.getrlimit(resource.RLIMIT_NOFILE)[1]))
import edsim.cli
sys.exit(edsim.cli.main(sys.argv[1:]))
"""


def test_experiment_many_workers_fit_a_low_descriptor_limit(tmp_path):
    # 36 workers under a soft limit of 64 open files: the parent holds one
    # store per worker, the claims pipe and the shared exit pipe's read end.
    serial, parallel = tmp_path / "serial", tmp_path / "parallel"
    args = ["experiment", "--runs", "10", "--seed-base", "3", "--combo", "all"]
    assert main(args + ["--out", str(serial)]) == EXIT_OK
    src = os.path.dirname(os.path.dirname(os.path.abspath(edsim.__file__)))
    done = subprocess.run(
        [sys.executable, "-c", LOW_DESCRIPTOR_LIMIT, *args, "--out", str(parallel), "--parallel", "36"],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src), timeout=120,
    )
    assert done.returncode == EXIT_OK, done.stderr
    assert tree_bytes(serial) == tree_bytes(parallel)


@pytest.mark.parametrize("parallel", ["0", "-2"])
def test_experiment_parallel_below_one_exits_2(tmp_path, capsys, forks, parallel):
    args = ["experiment", "--runs", "3", "--combo", "baseline-ca", "--parallel", parallel, "--out", str(tmp_path / "o")]
    assert main(args) == EXIT_CONFIG
    assert "config error: --parallel must be >= 1" in capsys.readouterr().err
    assert forks == []
    assert not (tmp_path / "o").exists()


def test_experiment_shares_one_pool_across_combos(tmp_path, forks):
    serial, parallel = tmp_path / "serial", tmp_path / "parallel"
    args = ["experiment", "--runs", "5", "--seed-base", "4", "--combo", "all"]
    assert main(args + ["--out", str(serial)]) == EXIT_OK
    assert forks == []
    # 5 runs x 4 combos over 3 workers, which claim the 20 runs one at a
    # time, so most workers run runs of more than one combo.
    assert main(args + ["--out", str(parallel), "--parallel", "3"]) == EXIT_OK
    assert len(forks) == 3
    assert tree_bytes(serial) == tree_bytes(parallel)
    assert_no_children()


def test_experiment_without_fork_runs_serially(tmp_path, monkeypatch):
    serial, parallel = tmp_path / "serial", tmp_path / "parallel"
    args = ["experiment", "--runs", "5", "--seed-base", "4", "--combo", "all"]
    assert main(args + ["--out", str(serial)]) == EXIT_OK
    monkeypatch.delattr(os, "fork")
    assert main(args + ["--out", str(parallel), "--parallel", "3"]) == EXIT_OK
    assert tree_bytes(serial) == tree_bytes(parallel)


def test_experiment_validates_once_per_combo_and_exactly(tmp_path, monkeypatch):
    import edsim.cli as cli

    text = "nurses = 1:high, 2:low, 3:low\nshiftLength = 1500\ntrustLearningRate = 0.2\n"
    cfg = write_config(tmp_path / "base.cfg", text)
    validated, mapped = [], []

    def counting_validate(raw):
        validated.append(raw)
        return validate_config(raw)

    def recording_map(jobs, parallel):
        mapped.append(jobs)
        return map_runs(jobs, parallel)

    map_runs = cli._map_runs
    monkeypatch.setattr(cli, "validate_config", counting_validate)
    monkeypatch.setattr(cli, "_map_runs", recording_map)
    args = ["experiment", cfg, "--runs", "5", "--seed-base", "30", "--combo", "all", "--parallel", "2"]
    assert main(args + ["--out", str(tmp_path / "o")]) == EXIT_OK
    # The base config once, then one validation per combo.
    assert len(validated) == 1 + len(COMBOS)
    base_raw = parse_config_file(cfg)
    expected = [
        (validate_config(dict(base_raw, scenario=s.value, policy=p.value, seed=str(seed))), f"{combo}-{seed:08d}")
        for combo, (s, p) in COMBOS.items()
        for seed in range(30, 35)
    ]
    # One map over the whole grid, in combo then seed order.
    assert mapped == [expected]


def test_experiment_seed_past_64_bits_exits_2_and_writes_nothing(tmp_path, capsys, forks):
    out = tmp_path / "o"
    args = ["experiment", "--runs", "2", "--seed-base", str(2**64 - 1), "--combo", "all", "--parallel", "2"]
    assert main(args + ["--out", str(out)]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.err == "config error (key: seed): seed must fit in 64 unsigned bits, got 18446744073709551616\n"
    assert captured.out == ""
    assert forks == []
    assert not out.exists()


@pytest.mark.parametrize("parallel", ["1", "2"])
def test_experiment_unwritable_out_exits_3(tmp_path, capsys, monkeypatch, forks, parallel):
    import edsim.cli as cli

    shifts = []

    def counting_run_shift(cfg):
        shifts.append(cfg)
        return run_shift(cfg)

    monkeypatch.setattr(cli, "run_shift", counting_run_shift)
    blocker = tmp_path / "file"
    blocker.write_text("", encoding="utf-8")
    args = ["experiment", "--runs", "3", "--combo", "all", "--parallel", parallel, "--out", str(blocker / "exp")]
    assert main(args) == EXIT_IO
    captured = capsys.readouterr()
    assert captured.err.startswith(f"cannot write outputs: [Errno {errno.ENOTDIR}] ")
    assert captured.out == ""
    # The output root is checked before the grid: no shift ran, no worker forked.
    assert shifts == []
    assert forks == []
    assert_no_children()


class _NoGlobals(pickle.Unpickler):
    """Loads plain data only: any class or function reference in the payload fails."""

    def find_class(self, module, name):
        raise AssertionError(f"a worker pickled the global {module}.{name}")


def test_workers_send_only_plain_text(tmp_path, monkeypatch, forks):
    with pytest.raises(AssertionError, match="edsim.domain.Scenario"):
        _NoGlobals(io.BytesIO(pickle.dumps(Scenario.BASELINE))).load()
    payloads = []

    def loads_plain(data):
        payloads.append(_NoGlobals(io.BytesIO(data)).load())
        return payloads[-1]

    # The parent reads each frame of the workers' stores through pickle.loads.
    monkeypatch.setattr(pickle, "loads", loads_plain)
    serial, parallel = tmp_path / "serial", tmp_path / "parallel"
    args = ["experiment", "--runs", "3", "--seed-base", "5", "--combo", "all"]
    assert main(args + ["--out", str(parallel), "--parallel", "2"]) == EXIT_OK
    assert len(forks) == 2
    # One frame per run: its index, its rows (a list of one run_rows tuple) and no error.
    assert sorted(index for index, _, _ in payloads) == list(range(3 * len(COMBOS)))
    for _, rows, error in payloads:
        assert error is None
        assert len(rows) == 1
        assert all(type(text) is str for row in rows for text in row)
    assert main(args + ["--out", str(serial)]) == EXIT_OK
    assert tree_bytes(serial) == tree_bytes(parallel)
    assert_no_children()


def test_bench_layer_names_are_called_per_run_and_per_combo(tmp_path, monkeypatch):
    import edsim.cli as cli

    # The benchmark's traced run times these module names from outside; a
    # refactor that stops calling them would zero its per-layer figures.
    def recording(fn, seen):
        def wrapper(*args, **kwargs):
            seen.append(fn(*args, **kwargs))
            return seen[-1]

        return wrapper

    calls = {"run_shift": [], "write_csvs": [], "run_experiment": []}
    for name, seen in calls.items():
        monkeypatch.setattr(cli, name, recording(getattr(cli, name), seen))
    args = ["experiment", "--combo", "all", "--runs", "3", "--out", str(tmp_path / "o")]
    assert main(args) == EXIT_OK
    assert {name: len(seen) for name, seen in calls.items()} == {
        "run_shift": 3 * len(COMBOS), "write_csvs": len(COMBOS), "run_experiment": len(COMBOS),
    }
    for paths in calls["write_csvs"]:
        assert set(paths) == {"runs", "doctors", "nurses"}
        assert all(os.path.isfile(path) for path in paths.values())


def test_experiment_pool_that_cannot_start_exits_4(tmp_path, capsys, monkeypatch, forks):
    # The first worker starts, the second cannot; the first must be stopped.
    counting_fork = os.fork

    def fork_once():
        if forks:
            raise OSError(errno.EAGAIN, "Resource temporarily unavailable")
        return counting_fork()

    monkeypatch.setattr(os, "fork", fork_once)
    args = ["experiment", "--runs", "3", "--combo", "all", "--parallel", "2", "--out", str(tmp_path)]
    assert main(args) == EXIT_RUN_FAILED
    assert capsys.readouterr().err.startswith(f"combo baseline-ca aborted: [Errno {errno.EAGAIN}] ")
    assert os.listdir(tmp_path) == []
    assert len(forks) == 1
    assert_no_children()


def _explode(cfg):
    raise RuntimeError("boom")


def _explode_with_oserror(cfg):
    raise OSError("device gone")


@pytest.mark.parametrize("parallel", ["1", "2"])
def test_experiment_run_raising_oserror_still_exits_4(tmp_path, capsys, monkeypatch, parallel):
    import edsim.cli as cli

    # Only a failed output write exits 3; an OSError from a run is a failed run.
    monkeypatch.setattr(cli, "run_shift", _explode_with_oserror)
    args = ["experiment", "--runs", "3", "--combo", "all", "--parallel", parallel, "--out", str(tmp_path)]
    assert main(args) == EXIT_RUN_FAILED
    assert capsys.readouterr().err == "combo baseline-ca aborted: device gone\n"
    assert os.listdir(tmp_path) == []
    assert_no_children()


def _explode_in_training(cfg):
    if cfg.scenario is Scenario.TRAINING:
        raise RuntimeError("boom")
    return run_shift(cfg)


TEST_PROCESS = os.getpid()


def _die_in_training(cfg):
    if cfg.scenario is Scenario.TRAINING:
        if os.getpid() == TEST_PROCESS:
            raise RuntimeError("meant to run in a forked worker only")
        os.kill(os.getpid(), signal.SIGKILL)
    return run_shift(cfg)


@pytest.mark.parametrize(
    "parallel, explode, message",
    [
        pytest.param("1", _explode_in_training, "boom", id="serial"),
        pytest.param("2", _explode_in_training, "boom", id="fork"),
        # 16 runs over 4 workers: whichever workers claim training-ca's four
        # runs die, and the twelve runs before them are kept.
        pytest.param("4", _die_in_training, "worker [1-4] of 4 exited without sending its results", id="killed"),
    ],
)
def test_experiment_failure_in_last_combo_keeps_earlier_combos(tmp_path, capsys, monkeypatch, parallel, explode, message):
    import edsim.cli as cli

    args = ["experiment", "--runs", "4", "--seed-base", "7", "--combo", "all", "--parallel", parallel]
    clean, failed = tmp_path / "clean", tmp_path / "failed"
    assert main(args + ["--out", str(clean)]) == EXIT_OK
    # Patched before the workers are forked, so they run the patched function too.
    monkeypatch.setattr(cli, "run_shift", explode)
    capsys.readouterr()
    assert main(args + ["--out", str(failed)]) == EXIT_RUN_FAILED
    captured = capsys.readouterr()
    assert re.fullmatch(f"combo training-ca aborted: {message}\n", captured.err)
    earlier_combos = ["baseline-ca", "baseline-fifo", "replacement-ca"]
    assert [line.split(":")[0] for line in captured.out.splitlines()] == earlier_combos
    assert sorted(os.listdir(failed)) == earlier_combos
    earlier = {path: data for path, data in tree_bytes(clean).items() if not path.startswith("training-ca")}
    assert tree_bytes(failed) == earlier
    assert_no_children()


@pytest.mark.parametrize("parallel", ["1", "2"])
def test_experiment_failed_run_exits_4_and_stops_workers(tmp_path, capsys, monkeypatch, parallel):
    import edsim.cli as cli

    # Patched before the workers are forked, so they raise too.
    monkeypatch.setattr(cli, "run_shift", _explode)
    args = ["experiment", "--runs", "4", "--combo", "all", "--parallel", parallel, "--out", str(tmp_path)]
    assert main(args) == EXIT_RUN_FAILED
    assert "combo baseline-ca aborted: boom" in capsys.readouterr().err
    assert os.listdir(tmp_path) == []
    assert_no_children()


def _explode_first_then_hang(cfg):
    if cfg.seed == 1:
        raise RuntimeError("boom")
    time.sleep(60)


def test_experiment_failed_run_cancels_queued_runs(tmp_path, capsys, monkeypatch):
    import edsim.cli as cli

    # The first worker fails at once; the second would sleep for a minute
    # unless the failure kills it.
    monkeypatch.setattr(cli, "run_shift", _explode_first_then_hang)
    args = ["experiment", "--runs", "2", "--combo", "baseline-ca", "--parallel", "2", "--out", str(tmp_path)]
    start = time.monotonic()
    assert main(args) == EXIT_RUN_FAILED
    assert time.monotonic() - start < 30
    assert capsys.readouterr().err == "combo baseline-ca aborted: boom\n"
    assert_no_children()


def _timed_run_shift(log, runs, delay, fail=None):
    """A `run_shift` for an `experiment --combo all --runs <runs> --seed-base 1` grid.

    As each run starts it appends "<index> <pid>" to `log`, the index being
    the run's place in the grid; run `fail` then raises at once, and every
    other run sleeps `delay(index)` seconds first.
    """
    def timed(cfg):
        index = list(COMBOS.values()).index((cfg.scenario, cfg.policy)) * runs + cfg.seed - 1
        with open(log, "a", encoding="utf-8") as fh:
            fh.write(f"{index} {os.getpid()}\n")
        if index == fail:
            raise RuntimeError("boom")
        time.sleep(delay(index))
        return run_shift(cfg)

    return timed


def _started(log):
    """The (index, pid) of every run `_timed_run_shift` started, in start order."""
    with open(log, encoding="utf-8") as fh:
        return [tuple(map(int, line.split())) for line in fh]


def test_slow_runs_are_shared_between_workers(tmp_path, monkeypatch, forks):
    import edsim.cli as cli

    args = ["experiment", "--runs", "2", "--seed-base", "1", "--combo", "all"]
    serial, parallel = tmp_path / "serial", tmp_path / "parallel"
    assert main(args + ["--out", str(serial)]) == EXIT_OK
    # Runs 0-3, baseline-ca's and baseline-fifo's, are slow; a worker that
    # took them as one slice would run all four while the other idles.
    log = tmp_path / "runs.log"
    monkeypatch.setattr(cli, "run_shift", _timed_run_shift(log, 2, lambda i: 0.5 if i < 4 else 0.0))
    assert main(args + ["--out", str(parallel), "--parallel", "2"]) == EXIT_OK
    ran = dict(_started(log))
    assert sorted(ran) == list(range(8))
    assert len(forks) == 2
    assert {ran[i] for i in range(4)} == set(forks)
    assert tree_bytes(serial) == tree_bytes(parallel)
    assert_no_children()


@pytest.mark.parametrize(
    "parallel, delay, fail, aborted",
    [
        # Run 0 fails at once while the other worker is in its first 50 ms run.
        pytest.param(2, lambda i: 0.05, 0, "baseline-ca", id="first"),
        # Run 2 fails at once while run 0 takes 0.5 s: the parent waits for
        # run 0, and in that time no worker may start runs 3-7.
        pytest.param(3, lambda i: 0.5 if i == 0 else 0.05, 2, "baseline-fifo", id="behind-a-slow-run"),
    ],
)
def test_failed_run_stops_new_claims(tmp_path, capsys, monkeypatch, forks, parallel, delay, fail, aborted):
    import edsim.cli as cli

    args = ["experiment", "--runs", "2", "--seed-base", "1", "--combo", "all"]
    clean, failed = tmp_path / "clean", tmp_path / "failed"
    assert main(args + ["--out", str(clean)]) == EXIT_OK
    capsys.readouterr()
    log = tmp_path / "runs.log"
    monkeypatch.setattr(cli, "run_shift", _timed_run_shift(log, 2, delay, fail))
    assert main(args + ["--out", str(failed), "--parallel", str(parallel)]) == EXIT_RUN_FAILED
    assert capsys.readouterr().err == f"combo {aborted} aborted: boom\n"
    assert len(forks) == parallel
    assert len(_started(log)) <= parallel + 1
    # The combos before the failed run are complete and written as a clean run writes them.
    earlier = list(COMBOS)[:list(COMBOS).index(aborted)]
    assert sorted(os.listdir(failed)) == earlier
    assert tree_bytes(failed) == {path: data for path, data in tree_bytes(clean).items() if path.split(os.sep)[0] in earlier}
    assert_no_children()


def test_map_runs_claims_chunks_past_2048_jobs(monkeypatch):
    import edsim.cli as cli

    # 5 000 jobs are claimed 3 consecutive runs at a time, ceil(5000 / 2048),
    # so the claims still fit one 4 096-byte write; the runs here are stand-ins.
    def run(cfg):
        if cfg == 4000:
            raise RuntimeError("boom")
        return cfg

    monkeypatch.setattr(cli, "run_shift", run)
    monkeypatch.setattr(cli, "run_rows", lambda run_id, result: (run_id, str(result)))
    jobs = [(i, f"run-{i}") for i in range(5000)]
    # Run 4 000 sits inside a chunk: the runs before it come back in job order.
    assert cli._map_runs(jobs, 3) == ([(f"run-{i}", str(i)) for i in range(4000)], "boom")
    jobs[4000] = (4001, "run-4000b")
    assert cli._map_runs(jobs, 3) == ([(run_id, str(i)) for i, run_id in jobs], None)
    assert_no_children()


def test_experiment_store_that_cannot_open_exits_4(tmp_path, capsys, monkeypatch, forks):
    import tempfile

    def no_store(*args, **kwargs):
        raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(tempfile, "TemporaryFile", no_store)
    out = tmp_path / "o"
    args = ["experiment", "--runs", "3", "--combo", "all", "--parallel", "2", "--out", str(out)]
    assert main(args) == EXIT_RUN_FAILED
    captured = capsys.readouterr()
    assert captured.err == f"combo baseline-ca aborted: [Errno {errno.ENOSPC}] No space left on device\n"
    assert captured.out == ""
    assert os.listdir(out) == []
    assert forks == []
    assert_no_children()


IMPORT_PROBE = """
import json, sys
MODULES = (
    "numpy", "concurrent.futures", "multiprocessing", "pickle", "select", "edsim.workers", "edsim.analysis",
    "edsim.stats", "statistics", "dataclasses", "inspect",
)
loaded = lambda: [m for m in MODULES if m in sys.modules]
seen = {}
import edsim.cli
seen["import"] = loaded()
out, cfg = sys.argv[1], sys.argv[2]
edsim.cli.main(["run", cfg, "--trace", "--out", out + "/run"])
seen["run"] = loaded()
edsim.cli.main(["experiment", "--runs", "3", "--combo", "baseline-ca", "--out", out + "/exp"])
seen["experiment"] = loaded()
edsim.cli.main(["experiment", "--runs", "3", "--combo", "baseline-ca", "--parallel", "2", "--out", out + "/par"])
seen["parallel"] = loaded()
exp = out + "/exp/baseline-ca"
edsim.cli.main(["analyze", exp, exp, "--mc-draws", "50", "--out", out + "/analysis"])
seen["analyze"] = loaded()
print(json.dumps(seen))
"""


def test_numpy_and_pool_are_loaded_only_where_used(tmp_path):
    cfg = write_config(tmp_path / "shift.cfg", "shiftLength = 60\n")
    src = os.path.dirname(os.path.dirname(os.path.abspath(edsim.__file__)))
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, str(tmp_path), cfg],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src), timeout=60,
    )
    assert done.returncode == 0, done.stderr
    seen = json.loads(done.stdout.splitlines()[-1])
    # numpy imports inspect itself, so analyze may load it; never dataclasses.
    analyze = [m for m in seen.pop("analyze") if m != "inspect"]
    # Only forked workers need edsim.workers and its pickle; no command needs
    # select or a process pool.
    assert seen == {"import": [], "run": [], "experiment": [], "parallel": ["pickle", "edsim.workers"]}
    assert analyze == ["numpy", "pickle", "edsim.workers", "edsim.analysis", "edsim.stats", "statistics"]


def test_out_root_env_default(tmp_path, monkeypatch):
    monkeypatch.setenv("EDSIM_OUT", str(tmp_path / "envroot"))
    cfg = write_config(tmp_path / "shift.cfg", "shiftLength = 20\n")
    assert main(["run", cfg]) == EXIT_OK
    assert (tmp_path / "envroot" / "run" / "runs.csv").exists()


def python(args, cwd):
    """`python <args>` in a child at `cwd`, importing this checkout's edsim."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(edsim.__file__)))
    return subprocess.run(
        [sys.executable, *args], cwd=cwd, capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src), timeout=120
    )


def _grid(root):
    """A small baseline-ca / baseline-fifo grid under `root`; returns the two combo dirs."""
    main(["experiment", "--runs", "6", "--seed-base", "3", "--combo", "baseline-ca", "--out", str(root)])
    main(["experiment", "--runs", "6", "--seed-base", "3", "--combo", "baseline-fifo", "--out", str(root)])
    return str(root / "baseline-ca"), str(root / "baseline-fifo")


@pytest.mark.parametrize("command", ["run", "experiment", "analyze"])
def test_process_entry_matches_in_process_main(tmp_path, capsys, monkeypatch, command):
    cfg = write_config(tmp_path / "shift.cfg", "seed = 5\nshiftLength = 400\n")
    if command == "run":
        args = ["run", cfg, "--trace"]
    elif command == "experiment":
        args = ["experiment", cfg, "--runs", "3", "--combo", "all", "--parallel", "2"]
    else:
        args = ["analyze", *_grid(tmp_path / "grid"), "--mc-draws", "200"]
    capsys.readouterr()
    # Both sides write to the relative `out`, so stdout that names it matches.
    inproc, child = tmp_path / "inproc", tmp_path / "child"
    inproc.mkdir()
    child.mkdir()
    monkeypatch.chdir(inproc)
    assert main(args + ["--out", "out"]) == EXIT_OK
    captured = capsys.readouterr()
    # main() leaves the collector alone; only the process entry freezes it.
    assert gc.get_freeze_count() == 0
    done = python(["-m", "edsim", *args, "--out", "out"], child)
    assert (done.returncode, done.stdout, done.stderr) == (EXIT_OK, captured.out, captured.err)
    written = tree_bytes(inproc / "out")
    assert written and tree_bytes(child / "out") == written


def _bad_config(tmp_path):
    return ["run", write_config(tmp_path / "bad.cfg", "policy = fifo\nscenario = training\n")]


def _unwritable_out(tmp_path):
    blocker = tmp_path / "file"
    blocker.write_text("", encoding="utf-8")
    return ["run", write_config(tmp_path / "shift.cfg", "shiftLength = 50\n"), "--out", str(blocker / "o")]


def _roster_mismatch(tmp_path):
    cfg_b = write_config(tmp_path / "b.cfg", "nurses = 1:high, 2:high\n")
    main(["experiment", "--runs", "3", "--combo", "baseline-ca", "--out", str(tmp_path / "a")])
    main(["experiment", cfg_b, "--runs", "3", "--combo", "baseline-ca", "--out", str(tmp_path / "b")])
    return ["analyze", str(tmp_path / "a" / "baseline-ca"), str(tmp_path / "b" / "baseline-ca"),
            "--out", str(tmp_path / "x")]


@pytest.mark.parametrize(
    "make_args, code", [(_bad_config, EXIT_CONFIG), (_unwritable_out, EXIT_IO), (_roster_mismatch, EXIT_SCHEMA)]
)
def test_process_entry_keeps_exit_codes(tmp_path, capsys, make_args, code):
    args = make_args(tmp_path)
    capsys.readouterr()
    assert main(args) == code
    captured = capsys.readouterr()
    done = python(["-m", "edsim", *args], tmp_path)
    assert (done.returncode, done.stdout, done.stderr) == (code, captured.out, captured.err)
    assert captured.err
    assert gc.get_freeze_count() == 0


# Runs edsim's `__main__` as `python -m edsim` does, with an atexit handler
# registered first: it must still run, and see the heap the entry froze.
_MAIN_WITH_ATEXIT = """
import atexit, gc, runpy, sys
atexit.register(lambda: print("frozen", gc.get_freeze_count() > 0, file=sys.stderr))
runpy.run_module("edsim", run_name="__main__", alter_sys=True)
"""


def test_process_entry_freezes_the_heap_and_keeps_atexit(tmp_path):
    cfg = write_config(tmp_path / "shift.cfg", "shiftLength = 50\n")
    done = python(["-c", _MAIN_WITH_ATEXIT, "run", cfg, "--out", str(tmp_path / "o")], tmp_path)
    assert (done.returncode, done.stderr) == (EXIT_OK, "frozen True\n")
    assert done.stdout == (tmp_path / "o" / "runs.csv").read_text(encoding="utf-8").splitlines(keepends=True)[1]
