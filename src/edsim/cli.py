"""Command-line interface: single runs, the 4x60 experiment grid, and analysis."""
from __future__ import annotations

import argparse
import gc
import os
import sys
from typing import NoReturn, Optional

from . import __version__
from .domain import (
    ConfigError,
    Policy,
    Scenario,
    SimConfig,
    config_echo,
    parse_config_file,
    validate_config,
    validate_seed,
)
from .engine import run_shift
from .metrics import SchemaError, comparisons_csv, render_trace, run_rows, write_csvs

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_RUN_FAILED = 4
EXIT_SCHEMA = 5

COMBOS = {
    "baseline-ca": (Scenario.BASELINE, Policy.CA_TRUST),
    "baseline-fifo": (Scenario.BASELINE, Policy.FIFO),
    "replacement-ca": (Scenario.REPLACEMENT, Policy.CA_TRUST),
    "training-ca": (Scenario.TRAINING, Policy.CA_TRUST),
}


def _default_out_root() -> str:
    return os.environ.get("EDSIM_OUT", "out")


def _manifest(name: str, seeds: list[int]) -> str:
    lines = [
        f"tool = edsim {__version__}",
        f"experiment = {name}",
        f"runs = {len(seeds)}",
        f"seeds = {seeds[0]}..{seeds[-1]}",
    ]
    return "\n".join(lines) + "\n"


def _write_text(out_dir: str, name: str, text: str) -> None:
    with open(os.path.join(out_dir, name), "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _config_error(exc: ConfigError) -> int:
    """Report a config error, naming its key when it has one; returns the exit code."""
    key = f" (key: {exc.key})" if exc.key else ""
    print(f"config error{key}: {exc}", file=sys.stderr)
    return EXIT_CONFIG


def cmd_run(config_path: str, seed: Optional[int], trace: bool, out: Optional[str]) -> int:
    try:
        raw = parse_config_file(config_path)
        cfg = validate_config(raw if seed is None else dict(raw, seed=str(seed)))
    except ConfigError as exc:
        return _config_error(exc)
    except OSError as exc:
        print(f"cannot read config: {exc}", file=sys.stderr)
        return EXIT_IO

    out_dir = out or os.path.join(_default_out_root(), "run")
    result = run_shift(cfg)
    run_id = f"run-{cfg.seed:08d}"
    rows = run_rows(run_id, result)
    try:
        run_experiment(out_dir, "run", [(cfg, run_id)], [rows])
        if trace:
            _write_text(out_dir, "trace.csv", render_trace(result.trace))
    except OSError as exc:
        print(f"cannot write outputs: {exc}", file=sys.stderr)
        return EXIT_IO
    print(rows[1], end="")  # the runs.csv line, newline included
    return EXIT_OK


def _combo_jobs(base_raw: dict, combo: str, runs: int, seed_base: int) -> list[tuple[SimConfig, str]]:
    """One (config, run id) job per seed of `combo`, for `runs` consecutive seeds.

    The config is validated once; the seeds differ only in `seed`, so each
    gets its range check and a copy of the config.
    """
    scenario, policy = COMBOS[combo]
    cfg = validate_config(dict(base_raw, scenario=scenario.value, policy=policy.value, seed=str(seed_base)))
    return [(cfg._replace(seed=validate_seed(s)), f"{combo}-{s:08d}") for s in range(seed_base, seed_base + runs)]


def _run_slice(jobs: list[tuple[SimConfig, str]]) -> tuple[list[tuple], Optional[str]]:
    """Run `jobs` in order until one raises; returns the finished runs' `run_rows` and its error text (or None)."""
    rows = []
    for cfg, run_id in jobs:
        try:
            result = run_shift(cfg)
        except Exception as exc:  # noqa: BLE001 - a failed run is reported, not raised
            return rows, str(exc)
        rows.append(run_rows(run_id, result))
    return rows, None


def _map_runs(jobs: list[tuple[SimConfig, str]], parallel: int) -> tuple[list[tuple], Optional[str]]:
    """Run `jobs`; returns the rows of the runs before the first failed one and its error text (or None).

    min(parallel, len(jobs)) forked workers each run one contiguous slice of
    `jobs`, format each finished run into its CSV rows (`metrics.run_rows`)
    and pickle (rows, error) down their own pipe: only strings cross it, never
    a run's agents or metrics.  The pipes are read in slice order, so every
    job before a failure is known to be done, as in a serial run.  Whatever
    happens, every worker is killed and reaped before this returns.  With one
    worker, or without `os.fork`, the jobs run and are formatted here.
    """
    workers = min(parallel, len(jobs))
    if workers <= 1 or not hasattr(os, "fork"):
        return _run_slice(jobs)
    import pickle
    import signal

    bounds = [len(jobs) * k // workers for k in range(workers + 1)]
    pids, pipes = [], []
    try:
        for lo, hi in zip(bounds, bounds[1:]):
            read_fd, write_fd = os.pipe()
            pipes.append(os.fdopen(read_fd, "rb"))
            with os.fdopen(write_fd, "wb") as out:
                pid = os.fork()
                if pid == 0:  # the worker; it never leaves this block
                    try:
                        pickle.dump(_run_slice(jobs[lo:hi]), out)
                        out.flush()
                    finally:
                        os._exit(0)
                pids.append(pid)
        rows = []
        for k, pipe in enumerate(pipes, 1):
            try:
                done, error = pickle.load(pipe)
            except (EOFError, pickle.UnpicklingError):
                return rows, f"worker {k} of {workers} exited without sending its results"
            rows += done
            if error is not None:
                return rows, error
        return rows, None
    except OSError as exc:  # a pipe or a worker could not be made
        return [], str(exc)
    finally:
        for pipe in pipes:
            pipe.close()
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def run_experiment(out_dir: str, name: str, jobs: list[tuple[SimConfig, str]], rows: list[tuple]) -> None:
    """Write one `run` or scenario-policy combination's directory; the one writer of both.

    `jobs` is the (config, run id) list and `rows` its runs' finished CSV rows
    (`metrics.run_rows`) in job order: `run` passes its one shift, and
    `experiment` maps the whole grid first, then calls this once per combo.
    config.echo is the first job's config, and the manifest names `name` and
    the jobs' seeds.  The directory's bytes do not depend on where the rows
    were made.
    """
    write_csvs(rows, out_dir)
    _write_text(out_dir, "config.echo", config_echo(jobs[0][0]))
    _write_text(out_dir, "manifest.txt", _manifest(name, [cfg.seed for cfg, _ in jobs]))


def cmd_experiment(
    config_path: str,
    runs: int,
    seed_base: int,
    combo: str,
    out: Optional[str],
    parallel: int,
) -> int:
    if runs < 1:
        print("config error: --runs must be >= 1", file=sys.stderr)
        return EXIT_CONFIG
    if parallel < 1:
        print("config error: --parallel must be >= 1", file=sys.stderr)
        return EXIT_CONFIG
    combos = list(COMBOS) if combo == "all" else [combo]
    try:
        base_raw = parse_config_file(config_path) if config_path else {}
        # Validate the base config once up front so errors name their key.
        validate_config(base_raw)
        grid = [_combo_jobs(base_raw, name, runs, seed_base) for name in combos]
    except ConfigError as exc:
        return _config_error(exc)
    except OSError as exc:
        print(f"cannot read config: {exc}", file=sys.stderr)
        return EXIT_IO

    out_root = out or os.path.join(_default_out_root(), "experiment")
    try:
        os.makedirs(out_root, exist_ok=True)
    except OSError as exc:  # found before any shift runs or any worker forks
        print(f"cannot write outputs: {exc}", file=sys.stderr)
        return EXIT_IO
    # The whole grid runs first, one contiguous slice per worker; then the
    # combos complete before any failed run are written, in order.
    rows, error = _map_runs([job for jobs in grid for job in jobs], parallel)
    for k, (name, jobs) in enumerate(zip(combos, grid)):
        done = rows[k * runs:(k + 1) * runs]
        if len(done) < runs:
            print(f"combo {name} aborted: {error}", file=sys.stderr)
            return EXIT_RUN_FAILED
        out_dir = os.path.join(out_root, name)
        try:
            run_experiment(out_dir, name, jobs, done)
        except OSError as exc:
            print(f"cannot write outputs: {exc}", file=sys.stderr)
            return EXIT_IO
        print(f"{name}: {runs} runs -> {out_dir}")
    return EXIT_OK


def compare_experiments(*args, **kwargs):
    """`analysis.compare_experiments`, imported on first use.

    `run` and `experiment` never call it, so they load neither the analyzer
    nor the statistics module behind it.
    """
    from .analysis import compare_experiments as compare

    return compare(*args, **kwargs)


def cmd_analyze(
    dir_a: str,
    dir_b: str,
    metrics: str,
    mc_draws: int,
    mc_seed: int,
    out: Optional[str],
) -> int:
    from .analysis import MetricUnknown, MissingFile, render_report

    # numpy, first imported by the chi-square test, loads OpenBLAS, which
    # starts a worker thread that spins beside the main one; edsim calls no BLAS.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    if mc_draws < 1:
        print("config error: --mc-draws must be >= 1", file=sys.stderr)
        return EXIT_CONFIG
    wanted = None if metrics == "all" else [m.strip() for m in metrics.split(",") if m.strip()]
    try:
        rows = compare_experiments(dir_a, dir_b, wanted, mc_draws=mc_draws, mc_seed=mc_seed)
    except MissingFile as exc:
        print(f"missing input: {exc}", file=sys.stderr)
        return EXIT_IO
    except SchemaError as exc:
        print(f"schema mismatch: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    except MetricUnknown as exc:
        print(f"metric error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    report = render_report(rows)
    out_dir = out or os.path.join(_default_out_root(), "analysis")
    try:
        os.makedirs(out_dir, exist_ok=True)
        _write_text(out_dir, "comparisons.csv", comparisons_csv(rows))
        _write_text(out_dir, "report.txt", report)
    except OSError as exc:
        print(f"cannot write outputs: {exc}", file=sys.stderr)
        return EXIT_IO
    print(report, end="")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="edsim", description=__doc__)
    parser.add_argument("--version", action="version", version=f"edsim {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one shift from a config file")
    p_run.add_argument("config", help="path to the key=value config file")
    p_run.add_argument("--seed", type=int, default=None, help="override the config seed")
    p_run.add_argument("--trace", action="store_true", help="also write the event trace")
    p_run.add_argument("--out", default=None, help="output directory")

    p_exp = sub.add_parser("experiment", help="run seeded batches for scenario-policy combos")
    p_exp.add_argument("config", nargs="?", default="", help="optional base config file")
    p_exp.add_argument("--runs", type=int, default=60, help="runs per combo (default 60)")
    p_exp.add_argument("--seed-base", type=int, default=1, help="run i uses seed seed-base + i")
    p_exp.add_argument("--combo", default="all", choices=[*COMBOS, "all"], help="which combo to run")
    p_exp.add_argument("--out", default=None, help="output root (one directory per combo)")
    p_exp.add_argument("--parallel", type=int, default=1, help="forked workers, at most one per run of the grid")

    p_an = sub.add_parser("analyze", help="compare two experiment directories")
    p_an.add_argument("dir_a")
    p_an.add_argument("dir_b")
    p_an.add_argument("--metrics", default="all", help="comma-separated metric names or 'all'")
    p_an.add_argument("--mc-draws", type=int, default=10000, help="Monte Carlo draws for the chi-square test")
    p_an.add_argument("--mc-seed", type=int, default=0, help="seed for the Monte Carlo chi-square test")
    p_an.add_argument("--out", default=None, help="output directory for comparisons.csv and report.txt")
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    """Run one command and return its exit code.

    It leaves the garbage collector alone: tests and the benchmark's traced run
    call it many times in one process.  Process exit belongs to `entry`.
    """
    args = build_parser().parse_args(argv)
    if args.command == "run":
        return cmd_run(args.config, args.seed, args.trace, args.out)
    if args.command == "experiment":
        return cmd_experiment(args.config, args.runs, args.seed_base, args.combo, args.out, args.parallel)
    if args.command == "analyze":
        return cmd_analyze(args.dir_a, args.dir_b, args.metrics, args.mc_draws, args.mc_seed, args.out)
    raise AssertionError(f"unhandled command {args.command!r}")  # pragma: no cover


def entry() -> NoReturn:
    """The process entry of `python -m edsim` and the `edsim` console script.

    Runs `main()`, then exits with its code.  In between, `gc.freeze()` moves
    every live object into the collector's permanent generation, so the
    collections of interpreter shutdown skip numpy's modules and a run's
    events and agents instead of walking them once more.  Shutdown itself is
    unchanged: stdout and stderr are flushed and atexit handlers run.
    """
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    entry()
