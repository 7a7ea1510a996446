"""The CSV layer: each table's columns declared once, one formatter, one writer, one reader.

A finished run's `ShiftResult` becomes text once, in `run_rows`, wherever it
ran: a forked `experiment` worker formats its own runs and sends only those
strings back.  `write_csvs` is the one writer; it orders the rows and adds the
headers, so the files are the same bytes however the runs were spread over
processes.
"""
from __future__ import annotations

import os
from typing import Any, Callable, NamedTuple


class SchemaError(ValueError):
    """A CSV file does not match the expected schema."""


class _Cell(NamedTuple):
    write: Callable[[Any], str]
    read: Callable[[str], Any]


_STR = _Cell(str, str)
_INT = _Cell(str, int)
_REAL = _Cell("{:.6f}".format, float)  # six decimals keep the files byte-deterministic
_OPT_REAL = _Cell(lambda v: "" if v is None else f"{v:.6f}", lambda c: None if c == "" else float(c))


class Column(NamedTuple):
    """One CSV column: header name, cell kind, and the value getter.

    Every getter takes (run_id, subject): an agent for a doctors or nurses
    row, the run's `ShiftResult` for a runs row.
    """

    name: str
    cell: _Cell
    get: Callable[[str, Any], Any]


_RUN_ID = Column("run_id", _STR, lambda run_id, t: run_id)

RUNS_COLUMNS = (
    _RUN_ID,
    Column("seed", _INT, lambda run_id, t: t.config.seed),
    Column("scenario", _STR, lambda run_id, t: t.config.scenario.value),
    Column("policy", _STR, lambda run_id, t: t.config.policy.value),
    Column("shift_length_s", _REAL, lambda run_id, t: t.config.shift_length),
    Column("patients_served", _INT, lambda run_id, t: t.patients_served),
    Column("total_time_damage_s", _REAL, lambda run_id, t: t.time_damage),
    Column("total_delay_s", _REAL, lambda run_id, t: t.delay),
)
DOCTORS_COLUMNS = (
    _RUN_ID,
    Column("doctor_id", _INT, lambda run_id, t: t.id),
    Column("style", _STR, lambda run_id, t: t.style.value),
    Column("patients_served", _INT, lambda run_id, t: t.served),
    Column("time_damage_s", _REAL, lambda run_id, t: t.time_damage),
    Column("delay_s", _REAL, lambda run_id, t: t.delay),
    Column("eval_accuracy", _OPT_REAL, lambda run_id, t: t.eval_accuracy),
)
NURSES_COLUMNS = (
    _RUN_ID,
    Column("nurse_id", _INT, lambda run_id, t: t.id),
    Column("quality", _STR, lambda run_id, t: t.quality.value),
    Column("role", _STR, lambda run_id, t: t.role),
    Column("tasks_success", _INT, lambda run_id, t: t.tasks_success),
    Column("tasks_failed", _INT, lambda run_id, t: t.tasks_failed),
    Column("utility", _INT, lambda run_id, t: t.utility),
    Column("time_damage_s", _REAL, lambda run_id, t: t.time_damage),
    Column("observed_tasks", _INT, lambda run_id, t: t.observed_tasks),
    Column("classified_low_at_s", _OPT_REAL, lambda run_id, t: t.classified_low_at),
)


def _header(columns: tuple[Column, ...]) -> str:
    return ",".join(c.name for c in columns)


RUNS_HEADER = _header(RUNS_COLUMNS)
DOCTORS_HEADER = _header(DOCTORS_COLUMNS)
NURSES_HEADER = _header(NURSES_COLUMNS)


def _row(columns: tuple[Column, ...], run_id: str, subject) -> str:
    return ",".join(c.cell.write(c.get(run_id, subject)) for c in columns) + "\n"


_TABLES = (("runs", RUNS_COLUMNS), ("doctors", DOCTORS_COLUMNS), ("nurses", NURSES_COLUMNS))


def run_rows(run_id: str, result) -> tuple[str, str, str, str]:
    """One finished run as CSV text: (run_id, runs text, doctors text, nurses text).

    `result` is the run's `engine.ShiftResult`, its only record: the runs row
    reads the config and the shift's totals off it, and each agent row reads
    the agent's own totals.  Each text is the run's lines of that file, agents
    in id order, every line ending in \\n.  The tuple holds only strings, so a
    forked worker sends it down its pipe instead of the run's object graph.
    """
    return (
        run_id,
        _row(RUNS_COLUMNS, run_id, result),
        "".join(_row(DOCTORS_COLUMNS, run_id, result.doctors[i]) for i in sorted(result.doctors)),
        "".join(_row(NURSES_COLUMNS, run_id, result.nurses[i]) for i in sorted(result.nurses)),
    )


def write_csvs(rows: list[tuple[str, str, str, str]], out_dir: str) -> dict[str, str]:
    """Write runs/doctors/nurses CSVs from `run_rows` tuples; returns the paths.

    Output is byte-deterministic: each file is its header, then the runs' rows
    sorted by run_id text (agents already in id order), reals with six
    decimals, and a plain \\n after every line.  Where the rows were made, in
    this process or in a forked worker, does not change a byte.
    """
    os.makedirs(out_dir, exist_ok=True)
    ordered = sorted(rows, key=lambda r: r[0])
    paths = {}
    for k, (name, columns) in enumerate(_TABLES, 1):
        path = os.path.join(out_dir, f"{name}.csv")
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(_header(columns) + "\n" + "".join(r[k] for r in ordered))
        paths[name] = path
    return paths


def _split_csv(path: str, header: str) -> list[list[str]]:
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except UnicodeDecodeError:
        raise SchemaError(f"{path}: not UTF-8 text") from None
    if not lines or lines[0] != header:
        raise SchemaError(f"{path}: expected header {header!r}")
    n_cols = len(header.split(","))
    rows = []
    for line in lines[1:]:
        cells = line.split(",")
        if len(cells) != n_cols:
            raise SchemaError(f"{path}: row has {len(cells)} fields, expected {n_cols}")
        rows.append(cells)
    return rows


def _read(path: str, columns: tuple[Column, ...]) -> list[dict]:
    """Typed rows of one CSV file, each a dict keyed by header name."""
    rows = []
    for lineno, cells in enumerate(_split_csv(path, _header(columns)), start=2):
        row = {}
        for c, cell in zip(columns, cells):
            try:
                row[c.name] = c.cell.read(cell)
            except ValueError:
                raise SchemaError(f"{path}: line {lineno}, column {c.name}: cannot read {cell!r}") from None
        rows.append(row)
    return rows


def read_runs(path: str) -> list[dict]:
    return _read(path, RUNS_COLUMNS)


def read_doctors(path: str) -> list[dict]:
    return _read(path, DOCTORS_COLUMNS)


def read_nurses(path: str) -> list[dict]:
    return _read(path, NURSES_COLUMNS)
