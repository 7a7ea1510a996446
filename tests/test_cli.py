from __future__ import annotations

import errno
import io
import json
import os
import pickle
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import edsim
from edsim.cli import COMBOS, EXIT_CONFIG, EXIT_IO, EXIT_OK, EXIT_RUN_FAILED, EXIT_SCHEMA, main
from edsim.domain import Scenario, parse_config_file, validate_config
from edsim.engine import run_shift
from edsim.metrics import read_runs


def write_config(path, text=""):
    path.write_text(text, encoding="utf-8")
    return str(path)


def tree_bytes(root):
    out = {}
    for dirpath, _, files in os.walk(root):
        for name in sorted(files):
            full = os.path.join(dirpath, name)
            out[os.path.relpath(full, root)] = Path(full).read_bytes()
    return out


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


def test_analyze_accepts_legacy_echo_with_mc_draws(tmp_path):
    out = tmp_path / "exp"
    main(["experiment", "--runs", "3", "--seed-base", "1", "--combo", "baseline-ca", "--out", str(out)])
    echo = out / "baseline-ca" / "config.echo"
    echo.write_text(echo.read_text(encoding="utf-8") + "mcDraws = 10000\n", encoding="utf-8")
    exp = str(out / "baseline-ca")
    assert main(["analyze", exp, exp, "--mc-draws", "200", "--out", str(tmp_path / "x")]) == EXIT_OK


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


def _bad_seed_cell(exp):
    runs = exp / "runs.csv"
    lines = runs.read_text(encoding="utf-8").splitlines()
    cells = lines[2].split(",")
    cells[1] = "abc"
    lines[2] = ",".join(cells)
    runs.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return runs, ["line 3", "column seed", "'abc'"]


def _latin1_nurses(exp):
    nurses = exp / "nurses.csv"
    nurses.write_bytes(nurses.read_bytes() + b"caf\xe9\n")
    return nurses, ["not UTF-8"]


def _latin1_echo(exp):
    echo = exp / "config.echo"
    echo.write_bytes(echo.read_bytes() + b"# caf\xe9\n")
    return echo, ["not UTF-8"]


@pytest.mark.parametrize("damage", [_header_only_runs, _bad_seed_cell, _latin1_nurses, _latin1_echo])
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
    assert "fewer than two doctors" in capsys.readouterr().out


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
    # 5 runs x 4 combos over 3 workers: slices of 6, 7 and 7 runs, two of
    # which span a combo boundary.
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

    def load_plain(file):
        payloads.append(_NoGlobals(file).load())
        return payloads[-1]

    # The parent reads each worker's pipe through pickle.load.
    monkeypatch.setattr(pickle, "load", load_plain)
    serial, parallel = tmp_path / "serial", tmp_path / "parallel"
    args = ["experiment", "--runs", "3", "--seed-base", "5", "--combo", "all"]
    assert main(args + ["--out", str(parallel), "--parallel", "2"]) == EXIT_OK
    assert len(payloads) == len(forks) == 2
    for rows, error in payloads:
        assert error is None
        assert all(type(text) is str for row in rows for text in row)
    assert sum(len(rows) for rows, _ in payloads) == 3 * len(COMBOS)
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
        # 16 runs over 4 workers: the last worker's slice is training-ca's four runs.
        pytest.param("4", _die_in_training, "worker 4 of 4 exited without sending its results", id="killed"),
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
    assert captured.err == f"combo training-ca aborted: {message}\n"
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


IMPORT_PROBE = """
import json, sys
MODULES = (
    "numpy", "concurrent.futures", "multiprocessing", "pickle", "edsim.analysis", "edsim.stats", "dataclasses", "inspect"
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
    # Only forked workers need pickle; no command needs a process pool.
    assert seen == {"import": [], "run": [], "experiment": [], "parallel": ["pickle"]}
    assert analyze == ["numpy", "pickle", "edsim.analysis", "edsim.stats"]


def test_out_root_env_default(tmp_path, monkeypatch):
    monkeypatch.setenv("EDSIM_OUT", str(tmp_path / "envroot"))
    cfg = write_config(tmp_path / "shift.cfg", "shiftLength = 20\n")
    assert main(["run", cfg]) == EXIT_OK
    assert (tmp_path / "envroot" / "run" / "runs.csv").exists()
