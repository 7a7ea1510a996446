#!/usr/bin/env python3
"""Parity check: the working tree's `src` must write the same bytes as REV's.

    python3 tools/against.py REV        # REV: any commit, for example HEAD^ or a tag

`git archive REV src` is unpacked into a temporary directory.  A fixed
command set then runs once with that tree's `src` and once with the working
tree's, each side from its own working directory and at the same relative
output paths, so that paths echoed on stdout match as well:

- `experiment --combo all --runs 60 --parallel 2` at seed bases 1000, 20001
  and 77000;
- `run --trace` on a 20-doctor x 15-nurse, 10 000 s config (seed 7, every
  third nurse low) that the tool writes itself: baseline under policies ca
  and fifo, and ca under the replacement and training scenarios, whose
  latches spawn replacements and attach trainers while the backlog grows;
- `run` on a 40-doctor x 30-nurse shift in which no nurse ever accepts work,
  so it stalls at once and its horizon charge is summed over a 10^8 s
  horizon from non-integer issue times;
- `analyze` on the paper's four combo pairs of each grid;
- an 8-run baseline-ca pilot at seed base 1000, and `analyze` of it against
  that grid's training-ca: its tie-free rank-sum rows (`total_delay_s`,
  `low_nurse_time_damage_s`) take the exact branch, which the 60-run pairs
  never reach.

Every file the two sides wrote is compared, and so are each command's exit
code, stdout and stderr.  Exit status 0 when all match; 1 after listing the
files found on one side only and naming the first file and line that
differ; 2 when REV cannot be unpacked.
"""
from __future__ import annotations

import argparse
import io
import os
import subprocess
import sys
import tarfile
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SEED_BASES = (1000, 20001, 77000)
GRID_RUNS = 60
PILOT_RUNS = 8  # the rank-sum test is exact for tie-free groups of at most 8
ANALYZE_PAIRS = (
    ("baseline-ca", "baseline-fifo"),
    ("baseline-ca", "replacement-ca"),
    ("baseline-ca", "training-ca"),
    ("replacement-ca", "training-ca"),
)
CROWDED_DOCTORS = 20
CROWDED_NURSES = 15
CROWDED_SHIFT_S = 10000
CROWDED_SEED = 7


# Each crowded run's (scenario, policy), by the name of its config and output directory.
CROWDED_RUNS = {
    "ca": ("baseline", "ca"),
    "fifo": ("baseline", "fifo"),
    "replacement": ("replacement", "ca"),
    "training": ("training", "ca"),
}


def _crowded_config(scenario: str, policy: str) -> str:
    doctors = ", ".join(f"{i}:correct" for i in range(1, CROWDED_DOCTORS + 1))
    nurses = ", ".join(f"{i}:{'low' if i % 3 == 0 else 'high'}" for i in range(1, CROWDED_NURSES + 1))
    return (
        f"seed = {CROWDED_SEED}\nscenario = {scenario}\npolicy = {policy}\ndoctors = {doctors}\nnurses = {nurses}\n"
        f"bedsPerDoctor = 3\nbedCount = {3 * CROWDED_DOCTORS}\nshiftLength = {CROWDED_SHIFT_S}\n"
    )


# No nurse trusts itself enough to accept (trustInit 0.1), so every bed fills
# and the shift stalls.  At this horizon the charge's float sum shows the
# order its requests are added in; integer issue times would hide it.
STALLED_CONFIG = (
    "seed = 7\n"
    f"doctors = {', '.join(f'{i}:correct' for i in range(1, 41))}\n"
    f"nurses = {', '.join(f'{i}:high' for i in range(1, 31))}\n"
    "bedsPerDoctor = 3\nbedCount = 120\ntrustInit = 0.1\n"
    "examDuration = 10.123456789\ninitialSpawnInterval = 0.987654321\nshiftLength = 100000000\n"
)

# Config files written into each side's working directory before any command runs.
INPUTS = {f"crowded-{name}.cfg": _crowded_config(*combo) for name, combo in CROWDED_RUNS.items()}
INPUTS["stalled.cfg"] = STALLED_CONFIG

# Each command's arguments to `python -m edsim`, in run order: an analyze reads a grid written before it.
COMMANDS = (
    [["experiment", "--combo", "all", "--runs", str(GRID_RUNS), "--parallel", "2", "--seed-base", str(base),
      "--out", f"grid-{base}"] for base in SEED_BASES]
    + [["run", f"crowded-{name}.cfg", "--trace", "--out", f"crowded-{name}"] for name in CROWDED_RUNS]
    + [["run", "stalled.cfg", "--out", "stalled"]]
    + [["analyze", f"grid-{base}/{a}", f"grid-{base}/{b}", "--out", f"analyze-{base}/{a}-vs-{b}"]
       for base in SEED_BASES for a, b in ANALYZE_PAIRS]
    + [["experiment", "--combo", "baseline-ca", "--runs", str(PILOT_RUNS), "--seed-base", str(SEED_BASES[0]),
        "--out", f"pilot-{SEED_BASES[0]}"],
       ["analyze", f"pilot-{SEED_BASES[0]}/baseline-ca", f"grid-{SEED_BASES[0]}/training-ca", "--out", "analyze-pilot"]]
)


def _unpack(rev: str, dest: str) -> str:
    """Extract REV's `src` under `dest`; returns an error text, or "" when done."""
    done = subprocess.run(["git", "archive", "--format=tar", rev, "src"], cwd=ROOT, capture_output=True)
    if done.returncode != 0:
        return done.stderr.decode("utf-8", "replace").strip() or f"git archive exited {done.returncode}"
    with tarfile.open(fileobj=io.BytesIO(done.stdout)) as tar:
        # The "data" filter exists from Python 3.10.12 and 3.11.4 on; 3.12 warns when none is given.
        tar.extractall(dest, **({"filter": "data"} if hasattr(tarfile, "data_filter") else {}))
    return ""


def _run_side(src: str, workdir: str) -> list[tuple[int, bytes, bytes]]:
    """Write the inputs into `workdir`, run every command there against `src`; returns (code, stdout, stderr) each."""
    os.makedirs(workdir)
    for name, text in INPUTS.items():
        with open(os.path.join(workdir, name), "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    env = dict(os.environ, PYTHONPATH=src, PYTHONDONTWRITEBYTECODE="1")
    results = []
    for args in COMMANDS:
        done = subprocess.run([sys.executable, "-m", "edsim", *args], cwd=workdir, env=env, capture_output=True)
        results.append((done.returncode, done.stdout, done.stderr))
    return results


def _files(root: str) -> dict[str, str]:
    """Every file under `root`, keyed by its path relative to `root`, with '/' separators."""
    out = {}
    for dirpath, _, names in os.walk(root):
        for name in names:
            full = os.path.join(dirpath, name)
            out[os.path.relpath(full, root).replace(os.sep, "/")] = full
    return out


def _first_difference(a: bytes, b: bytes) -> str:
    """Where `a` and `b` first differ: the 1-based line and both versions of it."""
    lines_a, lines_b = a.split(b"\n"), b.split(b"\n")
    for lineno, (line_a, line_b) in enumerate(zip(lines_a, lines_b), start=1):
        if line_a != line_b:
            break
    else:
        lineno = min(len(lines_a), len(lines_b)) + 1
        line_a = lines_a[lineno - 1] if lineno <= len(lines_a) else b"<end of file>"
        line_b = lines_b[lineno - 1] if lineno <= len(lines_b) else b"<end of file>"
    return f"line {lineno}\n  REV:  {line_a!r}\n  work: {line_b!r}"


def _compare(rev_dir: str, rev_results: list, work_dir: str, work_results: list) -> tuple[list[str], list[str]]:
    """The files found on one side only, and every difference in command order, then in file path order."""
    files_rev, files_work = _files(rev_dir), _files(work_dir)
    one_sided = [f"only at REV: {path}" for path in sorted(files_rev.keys() - files_work.keys())]
    one_sided += [f"only in the working tree: {path}" for path in sorted(files_work.keys() - files_rev.keys())]
    problems = []
    for args, (code_a, out_a, err_a), (code_b, out_b, err_b) in zip(COMMANDS, rev_results, work_results):
        command = "edsim " + " ".join(args)
        if code_a != code_b:
            problems.append(f"exit code of `{command}`: {code_a} at REV, {code_b} in the working tree")
        for stream, a, b in (("stdout", out_a, out_b), ("stderr", err_a, err_b)):
            if a != b:
                problems.append(f"{stream} of `{command}` differs at {_first_difference(a, b)}")
    for path in sorted(files_rev.keys() & files_work.keys()):
        with open(files_rev[path], "rb") as fa, open(files_work[path], "rb") as fb:
            a, b = fa.read(), fb.read()
        if a != b:
            problems.append(f"{path} differs at {_first_difference(a, b)}")
    return one_sided, problems


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description="Check that the working tree's src writes the same bytes as REV's.")
    parser.add_argument("rev", help="the revision to compare with, for example HEAD^")
    rev = parser.parse_args(argv).rev
    start = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="edsim-against-") as tmp:
        error = _unpack(rev, os.path.join(tmp, "rev"))
        if error:
            print(f"cannot unpack {rev}: {error}", file=sys.stderr)
            return 2
        sides = {}
        for side, src in (("rev", os.path.join(tmp, "rev", "src")), ("work", os.path.join(ROOT, "src"))):
            workdir = os.path.join(tmp, f"{side}-out")
            sides[side] = (workdir, _run_side(src, workdir))
        one_sided, problems = _compare(*sides["rev"], *sides["work"])
        n_files = len(_files(sides["work"][0]))
    # Every later difference may follow from the first, so only the first is named.
    for line in one_sided + problems[:1]:
        print(line)
    if one_sided or problems:
        print(f"{rev} and the working tree differ in {len(one_sided) + len(problems)} places", file=sys.stderr)
        return 1
    print(f"{len(COMMANDS)} commands and {n_files} files match {rev} ({time.perf_counter() - start:.1f} s)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
