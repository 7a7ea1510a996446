#!/usr/bin/env python3
"""edsim benchmark: the CLI commands users run, timed end to end, plus a traced per-layer run.

Run from the repository root:

    python3 bench/run.py --workload grid --seed 1 --seconds 15 --trace 0
    python3 bench/run.py --workload crowded --seed 1 --seconds 15 --trace 1
    python3 bench/run.py --workload all --seed 1 --seconds 15   # every workload in one report
    python3 bench/run.py --workload analyze --seed 1 --profile 25  # cProfile top 25, in-process

Workloads (see bench/README.md for why each was chosen):
  grid     `edsim experiment --combo all --runs 60 --parallel <nproc>`; throughput in shifts/s
  crowded  `edsim run --trace` on a 20-doctor x 15-nurse, 10000 s shift, policy ca and fifo;
           throughput in events/s, counted from the trace.csv lines the user gets
  analyze  the paper's four `edsim analyze` comparisons over a 4x60 grid; comparisons/s

With --trace 0 the CLI runs as child processes and the benchmark reads no
program internals.  With --trace 1 the same commands run in-process through
`edsim.cli.main`, once plain and once with the wrappers from layers.py, and the
per-layer figures are reported.  Every invocation's output is checked; the last
line of stdout is one JSON object with the keys correct, attempted, failed and
metrics.
"""
from __future__ import annotations

import argparse
import contextlib
import cProfile
import importlib
import io
import json
import os
import platform
import pstats
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
from dataclasses import dataclass
from importlib import metadata
from time import monotonic, perf_counter

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import checks  # noqa: E402
import layers  # noqa: E402
import speed  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

# A run must end within 180 s; stop starting rounds that could cross this.
HARD_LIMIT_S = 165.0
MIN_ROUNDS = 3
SETUP_SAMPLES = 7
CHILD_TIMEOUT_S = 150.0

COMBOS = ("baseline-ca", "baseline-fifo", "replacement-ca", "training-ca")
GRID_RUNS = 60
ANALYZE_PAIRS = (
    ("baseline-ca", "baseline-fifo"),
    ("baseline-ca", "replacement-ca"),
    ("baseline-ca", "training-ca"),
    ("replacement-ca", "training-ca"),
)
CROWDED_DOCTORS = 20
CROWDED_NURSES = 15
CROWDED_BEDS_PER_DOCTOR = 3
CROWDED_SHIFT_S = 10000

IMPORT_PROBE = "import time; t = time.perf_counter(); import edsim.cli; print(repr(time.perf_counter() - t))"

END_TO_END = {  # name -> unit
    "throughput": "1/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


class SetupFailed(RuntimeError):
    pass


class Tally:
    """Invocations attempted and failed, with the first few problems kept for stderr."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, label: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{label}: {p}" for p in problems[:3])

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0


@dataclass
class Child:
    wall: float
    scale: float  # turns `wall` into seconds at the reference speed (speed.py)
    maxrss_kb: int
    returncode: int
    stderr: str

    def problems(self) -> list[str]:
        if self.returncode == 0:
            return []
        tail = self.stderr.strip().splitlines()[-1:] or ["no stderr"]
        return [f"exit code {self.returncode}: {tail[0]}"]


class Context:
    """Paths, the child environment and the deadline shared by one benchmark run."""

    def __init__(self, tmp: str, nproc: int):
        self.tmp = tmp
        self.nproc = nproc
        self.started = monotonic()
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH", "")) if p)
        self.env["EDSIM_OUT"] = os.path.join(tmp, "default-out")
        self.cpus = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else [0]
        self.probe: speed.SpeedProbe | None = None
        self._dirs = 0

    def use_cpus(self, all_cpus: bool) -> None:
        """Run from here on pinned to every allowed core, or to the last one only."""
        self.probe = speed.SpeedProbe(self.cpus if all_cpus else self.cpus[-1:])

    def fresh_dir(self, label: str) -> str:
        self._dirs += 1
        return os.path.join(self.tmp, f"{self._dirs:05d}-{label}")

    def remaining(self) -> float:
        return HARD_LIMIT_S - (monotonic() - self.started)

    def run_cli(self, args: list[str]) -> Child:
        """Run `python -m edsim <args>` as a child; its wall time and peak RSS."""
        err_path = os.path.join(self.tmp, "child.stderr")
        with open(err_path, "w+b") as err:
            start = perf_counter()
            proc = subprocess.Popen(
                [sys.executable, "-m", "edsim", *args],
                stdin=subprocess.DEVNULL,
                stdout=subprocess.DEVNULL,
                stderr=err,
                env=self.env,
                cwd=self.tmp,
            )
            watchdog = threading.Timer(max(1.0, min(CHILD_TIMEOUT_S, self.remaining())), proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                watchdog.cancel()
                watchdog.join()
            wall = perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
            scale = self.probe.scale() if self.probe else 1.0
            err.seek(0)
            stderr = err.read().decode("utf-8", "replace")
        return Child(wall, scale, usage.ru_maxrss, proc.returncode, stderr)


class Workload:
    """One workload: set-up, the CLI invocations of a round, and their checks.

    `verify` compares each invocation's whole output tree with the first one
    seen for the same label (or a reference made during set-up), so outputs
    must be identical across repeats.
    """

    name = ""
    work_unit = ""
    labels: tuple[str, ...] = ()
    all_cpus = False  # whether the commands use more than one core

    def __init__(self, seed: int):
        self.seed = seed
        self.reference: dict[str, dict[str, str]] = {}

    def prepare(self, ctx: Context) -> None:
        pass

    def cli_args(self, label: str, out: str, parallel: int) -> list[str]:
        raise NotImplementedError

    def check(self, label: str, out: str) -> list[str]:
        raise NotImplementedError

    def work(self, label: str, out: str) -> int:
        raise NotImplementedError

    def verify(self, label: str, out: str) -> tuple[list[str], int]:
        problems = self.check(label, out)
        digest = checks.tree_digest(out)
        if not problems:
            self.reference.setdefault(label, digest)
        if label in self.reference:
            problems += checks.compare_trees(digest, self.reference[label])
        return problems, self.work(label, out)


def _grid_args(seed_base: int, out: str, parallel: int) -> list[str]:
    return [
        "experiment", "--combo", "all", "--runs", str(GRID_RUNS),
        "--seed-base", str(seed_base), "--parallel", str(parallel), "--out", out,
    ]


def _make_grid(ctx: Context, seed_base: int, parallel: int) -> str:
    """An untimed grid; only a failed command aborts, wrong content fails the checks later."""
    out = ctx.fresh_dir("grid-input")
    problems = ctx.run_cli(_grid_args(seed_base, out, parallel)).problems()
    if problems:
        raise SetupFailed(f"grid set-up failed: {problems[0]}")
    return out


class Grid(Workload):
    name = "grid"
    work_unit = "shifts"
    labels = ("grid",)
    all_cpus = True

    def __init__(self, seed: int):
        super().__init__(seed)
        self.seed_base = 1 + 1000 * seed

    def prepare(self, ctx: Context) -> None:
        # The serial output is the reference every --parallel run must match byte for byte.
        self.reference["grid"] = checks.tree_digest(_make_grid(ctx, self.seed_base, 1))

    def cli_args(self, label: str, out: str, parallel: int) -> list[str]:
        return _grid_args(self.seed_base, out, parallel)

    def check(self, label: str, out: str) -> list[str]:
        return checks.check_grid(out, COMBOS, GRID_RUNS)

    def work(self, label: str, out: str) -> int:
        return sum(checks.count_runs(os.path.join(out, combo)) for combo in COMBOS)


class Crowded(Workload):
    name = "crowded"
    work_unit = "events"
    labels = ("ca", "fifo")

    def prepare(self, ctx: Context) -> None:
        doctors = ", ".join(f"{i}:correct" for i in range(1, CROWDED_DOCTORS + 1))
        nurses = ", ".join(f"{i}:{'low' if i % 3 == 0 else 'high'}" for i in range(1, CROWDED_NURSES + 1))
        self.configs = {}
        for policy in self.labels:
            path = os.path.join(ctx.tmp, f"crowded-{policy}.cfg")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(
                    f"seed = {self.seed}\npolicy = {policy}\ndoctors = {doctors}\nnurses = {nurses}\n"
                    f"bedsPerDoctor = {CROWDED_BEDS_PER_DOCTOR}\n"
                    f"bedCount = {CROWDED_BEDS_PER_DOCTOR * CROWDED_DOCTORS}\n"
                    f"shiftLength = {CROWDED_SHIFT_S}\n"
                )
            self.configs[policy] = path

    def cli_args(self, label: str, out: str, parallel: int) -> list[str]:
        return ["run", self.configs[label], "--trace", "--out", out]

    def check(self, label: str, out: str) -> list[str]:
        return checks.check_run(out)

    def work(self, label: str, out: str) -> int:
        return checks.trace_events(out)


class Analyze(Workload):
    name = "analyze"
    work_unit = "comparisons"
    labels = tuple(f"{a}-vs-{b}" for a, b in ANALYZE_PAIRS)

    def prepare(self, ctx: Context) -> None:
        grid = _make_grid(ctx, 1 + 1000 * self.seed, ctx.nproc)
        self.inputs = {
            f"{a}-vs-{b}": (os.path.join(grid, a), os.path.join(grid, b)) for a, b in ANALYZE_PAIRS
        }

    def cli_args(self, label: str, out: str, parallel: int) -> list[str]:
        dir_a, dir_b = self.inputs[label]
        return ["analyze", dir_a, dir_b, "--out", out]

    def check(self, label: str, out: str) -> list[str]:
        return checks.check_comparisons(out)

    def work(self, label: str, out: str) -> int:
        return 1


WORKLOADS = {cls.name: cls for cls in (Grid, Crowded, Analyze)}


def environment(nproc: int) -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = "not installed"
    return {
        "nproc": nproc,
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "loadavg_start": [round(x, 2) for x in os.getloadavg()],
    }


def measure_setup(ctx: Context) -> tuple[list[float], list[float]]:
    """Scaled and raw times of `import edsim.cli` in fresh interpreters, after one warm-up."""
    ctx.use_cpus(all_cpus=False)
    scaled, raw = [], []
    for i in range(SETUP_SAMPLES + 1):
        done = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE],
            env=ctx.env, cwd=ctx.tmp, capture_output=True, text=True, timeout=60, check=False,
        )
        scale = ctx.probe.scale()
        if done.returncode != 0:
            raise SetupFailed(f"import edsim.cli failed: {done.stderr.strip().splitlines()[-1:]}")
        if i:
            raw.append(float(done.stdout.strip().splitlines()[-1]))
            scaled.append(raw[-1] * scale)
    return scaled, raw


def _rounds(seconds: float, ctx: Context, one_round) -> list:
    """Repeat `one_round` for `seconds` (at least MIN_ROUNDS times) within the hard limit."""
    results = []
    stop = monotonic() + seconds
    longest = 0.0
    while len(results) < MIN_ROUNDS or monotonic() < stop:
        if results and ctx.remaining() < 2 * longest:
            break
        start = monotonic()
        results.append(one_round())
        longest = max(longest, monotonic() - start)
    return results


def cli_round(ctx: Context, wl: Workload, tally: Tally) -> tuple[float, float, int]:
    """One round as child processes: work per scaled second, per raw second, peak RSS in KiB."""
    work, wall, scaled_wall, peak = 0, 0.0, 0.0, 0
    for label in wl.labels:
        out = ctx.fresh_dir(label)
        child = ctx.run_cli(wl.cli_args(label, out, ctx.nproc))
        problems, units = wl.verify(label, out)
        tally.record(label, child.problems() + problems)
        shutil.rmtree(out, ignore_errors=True)
        work += units
        wall += child.wall
        scaled_wall += child.wall * child.scale
        peak = max(peak, child.maxrss_kb)
    return work / scaled_wall, work / wall, peak


def end_to_end(ctx: Context, wl: Workload, seconds: float, tally: Tally) -> dict[str, tuple[list, list]]:
    """Per metric: (reported values, unscaled values or [])."""
    rounds = _rounds(seconds, ctx, lambda: cli_round(ctx, wl, tally))
    return {
        "throughput": ([r[0] for r in rounds], [r[1] for r in rounds]),
        "peak_rss_mb": ([r[2] / 1024.0 for r in rounds], []),
    }


def import_cli():
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    return importlib.import_module("edsim.cli")


def inprocess_round(ctx: Context, cli, wl: Workload, tally: Tally) -> float:
    """One round through `edsim.cli.main` in this process (serial); returns its wall time."""
    wall = 0.0
    for label in wl.labels:
        out = ctx.fresh_dir(label)
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            start = perf_counter()
            code = cli.main(wl.cli_args(label, out, 1))
            wall += perf_counter() - start
        problems, _ = wl.verify(label, out)
        tally.record(label, ([f"exit code {code}"] if code else []) + problems)
        shutil.rmtree(out, ignore_errors=True)
    return wall


def traced(ctx: Context, wl: Workload, seconds: float, tally: Tally) -> dict[str, list]:
    cli = import_cli()
    tracer = layers.Tracer()

    def one_round() -> dict:
        untraced_wall = inprocess_round(ctx, cli, wl, tally)
        tracer.reset()
        tracer.install()
        try:
            traced_wall = inprocess_round(ctx, cli, wl, tally)
        finally:
            tracer.uninstall()
        figures = layers.layer_metrics(tracer)
        figures["traced_wall_s"] = traced_wall
        figures["untraced_wall_s"] = untraced_wall
        figures["trace_overhead_frac"] = traced_wall / untraced_wall - 1.0
        figures["cli.parallel_efficiency"] = 0.0
        if isinstance(wl, Grid):
            # Engine time of the serial traced grid over the cores' share of the parallel CLI wall.
            out = ctx.fresh_dir("grid-parallel")
            child = ctx.run_cli(wl.cli_args("grid", out, ctx.nproc))
            problems, _ = wl.verify("grid", out)
            tally.record("grid", child.problems() + problems)
            shutil.rmtree(out, ignore_errors=True)
            engine_s = figures["engine.run_shift.s"]
            figures["cli.parallel_efficiency"] = None if engine_s is None else engine_s / (ctx.nproc * child.wall)
        return figures

    rounds = _rounds(seconds, ctx, one_round)
    for name in tracer.missing:
        print(f"not wrapped (name no longer exists): {name}", file=sys.stderr)
    return {name: [r[name] for r in rounds] for name in layers.PER_LAYER_UNITS}


def profile(ctx: Context, wl: Workload, top: int) -> None:
    cli = import_cli()
    tally = Tally()
    prof = cProfile.Profile()
    prof.enable()
    inprocess_round(ctx, cli, wl, tally)
    prof.disable()
    print(f"cProfile of one in-process {wl.name} round (serial), top {top} by own time:")
    pstats.Stats(prof, stream=sys.stdout).sort_stats("tottime").print_stats(top)
    print(f"outputs checked: {tally.attempted}, failed: {tally.failed}")


def _median(values: list):
    if not values or any(v is None for v in values):
        return None
    return statistics.median(values)


def _spread(values: list) -> str:
    if len(values) < 2 or any(v is None for v in values):
        return f"n={len(values)}"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"n={len(values)} q1={q1:.6g} q3={q3:.6g}"


def qualified_name(wl: Workload, metric: str) -> str:
    if metric == "throughput":
        return f"{wl.name}.{wl.work_unit}_per_s"
    return f"{wl.name}.{metric}"


def _entry(values: list, unit: str, label: str, raw: list = ()) -> dict:
    detail = _spread(values) + (f" unscaled median={statistics.median(raw):.6g}" if raw else "")
    return {"value": _median(values), "unit": unit, "label": label, "detail": detail}


def run_workload(ctx: Context, wl: Workload, seconds: float, trace: bool, tally: Tally) -> dict:
    """Measure one workload; returns {name: {"value", "unit", "label", "detail"}}."""
    ctx.use_cpus(wl.all_cpus)
    wl.prepare(ctx)
    if trace:
        series = traced(ctx, wl, seconds, tally)
        return {
            name: _entry(values, layers.PER_LAYER_UNITS[name][0], f"{wl.name}.{name}")
            for name, values in series.items()
        }
    series = end_to_end(ctx, wl, seconds, tally)
    return {
        name: _entry(values, END_TO_END[name], qualified_name(wl, name), raw)
        for name, (values, raw) in series.items()
    }


def report(metrics: dict, tallies: dict[str, Tally]) -> None:
    for entry in metrics.values():
        value = "not measured" if entry["value"] is None else f"{entry['value']:.6g}"
        print(f"{entry['label']:<44} {value:>14} {entry['unit']:<6} {entry['detail']}")
    for name, tally in tallies.items():
        print(f"{name + '.failed_frac':<44} {tally.failed_frac:>14.6g} {'ratio':<6} {tally.failed}/{tally.attempted}")
        for problem in tally.problems[:10]:
            print(f"  {problem}", file=sys.stderr)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--profile", type=int, default=0, metavar="N",
                        help="print a cProfile top-N of one in-process round instead of measuring")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "edsim", "cli.py")):
        print(f"no program to benchmark: {os.path.join(SRC, 'edsim')} is missing", file=sys.stderr)
        return 2
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    env = environment(nproc)
    work_root = os.path.join(ROOT, ".bench_tmp")
    os.makedirs(work_root, exist_ok=True)
    tmp = tempfile.mkdtemp(dir=work_root)
    try:
        ctx = Context(tmp, nproc)
        names = list(WORKLOADS) if args.workload == "all" else [args.workload]
        if args.profile:
            wl = WORKLOADS[names[0]](args.seed)
            ctx.use_cpus(wl.all_cpus)
            wl.prepare(ctx)
            profile(ctx, wl, args.profile)
            return 0
        metrics: dict = {}
        tallies: dict[str, Tally] = {}
        for name in names:
            wl = WORKLOADS[name](args.seed)
            tallies[name] = Tally()
            measured = run_workload(ctx, wl, args.seconds, bool(args.trace), tallies[name])
            if args.workload == "all":
                measured = {entry["label"]: entry for entry in measured.values()}
            metrics.update(measured)
        if not args.trace:
            scaled, raw = measure_setup(ctx)
            metrics["setup_s"] = _entry(scaled, END_TO_END["setup_s"], "setup_s", raw)
    except SetupFailed as exc:
        print(f"set-up failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(work_root)

    print("env " + json.dumps(env, sort_keys=True))
    report(metrics, tallies)
    attempted = sum(t.attempted for t in tallies.values())
    failed = sum(t.failed for t in tallies.values())
    result = {
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": e["value"], "unit": e["unit"]} for name, e in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
