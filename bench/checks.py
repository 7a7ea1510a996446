"""Output checks for the benchmark's workloads.

Every check returns a list of problems; an empty list means the output passed.
The checks read only the files the CLI wrote, and read CSV columns by header
name, so they survive column reordering in the program.
"""
from __future__ import annotations

import csv
import hashlib
import os
from collections import defaultdict

P_VALUE_COLUMNS = ("sw_p_a", "sw_p_b", "p_value")


def tree_digest(root: str) -> dict[str, str]:
    """Map every file under `root` (relative path) to the SHA-256 of its bytes."""
    digest = {}
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                digest[os.path.relpath(path, root)] = hashlib.sha256(fh.read()).hexdigest()
    return digest


def compare_trees(got: dict[str, str], want: dict[str, str]) -> list[str]:
    """Problems for every file that is missing, extra or different from the reference."""
    problems = []
    for rel in sorted(set(got) | set(want)):
        if rel not in got:
            problems.append(f"missing {rel}")
        elif rel not in want:
            problems.append(f"unexpected {rel}")
        elif got[rel] != want[rel]:
            problems.append(f"{rel} differs from the reference")
    return problems


def _read_csv(path: str) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def conservation(exp_dir: str) -> list[str]:
    """Recompute the conservation identities of one experiment directory.

    Per run: `patients_served` in runs.csv equals the sum over doctors, and
    `total_time_damage_s` equals both the sum over nurses and the sum over
    doctors, up to the six-decimal rounding of the CSV cells.
    """
    try:
        runs = _read_csv(os.path.join(exp_dir, "runs.csv"))
        doctors = _read_csv(os.path.join(exp_dir, "doctors.csv"))
        nurses = _read_csv(os.path.join(exp_dir, "nurses.csv"))
    except (OSError, csv.Error) as exc:
        return [f"{exp_dir}: {exc}"]
    if not runs:
        return [f"{exp_dir}: runs.csv has no runs"]

    served: dict = defaultdict(int)
    damage_by_doctors: dict = defaultdict(float)
    damage_by_nurses: dict = defaultdict(float)
    agents: dict = defaultdict(int)
    problems = []
    try:
        for row in doctors:
            served[row["run_id"]] += int(row["patients_served"])
            damage_by_doctors[row["run_id"]] += float(row["time_damage_s"])
            agents[row["run_id"]] += 1
        for row in nurses:
            damage_by_nurses[row["run_id"]] += float(row["time_damage_s"])
            agents[row["run_id"]] += 1
        for row in runs:
            run_id = row["run_id"]
            if int(row["patients_served"]) != served[run_id]:
                problems.append(f"{exp_dir}: {run_id} patients_served != sum over doctors")
            total = float(row["total_time_damage_s"])
            tolerance = 1e-6 * (agents[run_id] + 1)
            if abs(total - damage_by_doctors[run_id]) > tolerance:
                problems.append(f"{exp_dir}: {run_id} total_time_damage_s != sum over doctors")
            if abs(total - damage_by_nurses[run_id]) > tolerance:
                problems.append(f"{exp_dir}: {run_id} total_time_damage_s != sum over nurses")
    except (KeyError, TypeError, ValueError) as exc:
        problems.append(f"{exp_dir}: unreadable cell or column: {exc!r}")
    orphans = (set(served) | set(damage_by_nurses)) - {row.get("run_id") for row in runs}
    if orphans:
        problems.append(f"{exp_dir}: agent rows for unknown runs {sorted(orphans)[:3]}")
    return problems


def count_runs(exp_dir: str) -> int:
    try:
        return len(_read_csv(os.path.join(exp_dir, "runs.csv")))
    except (OSError, csv.Error):
        return 0


def check_grid(out_root: str, combos: tuple[str, ...], runs: int) -> list[str]:
    """Every combo directory exists, holds `runs` runs and conserves."""
    problems = []
    for combo in combos:
        exp_dir = os.path.join(out_root, combo)
        if count_runs(exp_dir) != runs:
            problems.append(f"{exp_dir}: expected {runs} runs")
        problems += conservation(exp_dir)
    return problems


def trace_events(out_dir: str) -> int:
    """Number of events in the user-visible trace.csv (one line each)."""
    try:
        with open(os.path.join(out_dir, "trace.csv"), encoding="utf-8") as fh:
            return sum(1 for _ in fh)
    except OSError:
        return 0


def check_run(out_dir: str) -> list[str]:
    """A traced single run: conservation holds and the trace ends at shift end."""
    problems = conservation(out_dir)
    try:
        with open(os.path.join(out_dir, "trace.csv"), encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        return problems + [f"{out_dir}: {exc}"]
    if len(lines) < 2:
        problems.append(f"{out_dir}: trace.csv has {len(lines)} events")
    elif lines[-1].split(",")[2:3] != ["shift_end"]:
        problems.append(f"{out_dir}: trace.csv does not end with shift_end")
    return problems


def check_comparisons(out_dir: str) -> list[str]:
    """comparisons.csv has rows, and every p-value cell is empty or in [0, 1]."""
    path = os.path.join(out_dir, "comparisons.csv")
    try:
        rows = _read_csv(path)
    except (OSError, csv.Error) as exc:
        return [f"{path}: {exc}"]
    if not rows:
        return [f"{path}: no comparisons"]
    problems = []
    for row in rows:
        for column in P_VALUE_COLUMNS:
            cell = row.get(column)
            if cell is None:
                problems.append(f"{path}: no column {column}")
                continue
            if cell == "":
                continue
            try:
                p = float(cell)
            except ValueError:
                problems.append(f"{path}: {row.get('metric')} {column}={cell!r} is not a number")
                continue
            if not 0.0 <= p <= 1.0:
                problems.append(f"{path}: {row.get('metric')} {column}={p} outside [0, 1]")
    return problems
