"""The CSV layer, `trace.csv` included: each table declared once as `Column`s, one row formatter, one reader.

A finished run's `engine.Shift` becomes text once, in `run_rows`, wherever it
ran: a forked `experiment` worker formats its own runs and sends only those
strings back.  `write_csvs` writes the runs/doctors/nurses triplet; it orders
the rows and adds the headers, so the files are the same bytes however the
runs were spread over processes.  `comparisons_csv` formats `analyze`'s table
with the same `_row`, and `render_trace` formats a shift's event log as
`run --trace`'s `trace.csv`.  The reader rejects cells edsim never writes: a cell
must be the text its value writes back to, and an enum cell (scenario, policy,
style, quality, role) a value of its `edsim.domain` enum, read as the member.
"""
from __future__ import annotations

import math
import os
from operator import attrgetter
from typing import Any, Callable, NamedTuple, Optional

from .domain import EvaluationStyle, NurseQuality, Policy, Role, Scenario


class SchemaError(ValueError):
    """A CSV file does not match the expected schema."""


class _Cell(NamedTuple):
    write: Callable[[Any], str]
    read: Optional[Callable[[str], Any]] = None  # None: edsim writes the cell and never reads it back


def _finite(cell: str) -> float:
    value = float(cell)
    if not math.isfinite(value):
        raise ValueError(cell)
    return value


def _count(cell: str) -> int:
    value = int(cell)
    if value < 0:
        raise ValueError(cell)
    return value


def _quote(text: str) -> str:
    """RFC 4180: a cell holding a comma, a quote, CR or LF is quoted, its quotes doubled."""
    return '"' + text.replace('"', '""') + '"' if any(ch in text for ch in ',"\r\n') else text


# A nurse's utility is an _INT, not a _COUNT: failures take it below zero.
_STR = _Cell(str, str)
_INT = _Cell(str, int)
_COUNT = _Cell(str, _count)
_REAL = _Cell("{:.6f}".format, _finite)  # six decimals keep the files byte-deterministic
_OPT_REAL = _Cell(lambda v: "" if v is None else f"{v:.6f}", lambda c: None if c == "" else _finite(c))
# Cells of comparisons.csv only.
_LABEL = _Cell(_quote)
_P = _Cell(lambda v: "" if v is None else f"{v:.6g}")
_BOOL = _Cell(lambda v: "true" if v else "false")


def _enum(enum) -> _Cell:
    """A member written as its value and read back by a lookup over the enum's values (a KeyError if none)."""
    return _Cell(attrgetter("value"), {m.value: m for m in enum}.__getitem__)


class Column(NamedTuple):
    """One CSV column: header name, cell kind, and the value getter.

    Every getter takes (run_id, subject): an agent for a doctors or nurses
    row, the run's `engine.Shift` for a runs row, an `analysis.ComparisonRow`
    for a comparisons row, which belongs to no run and is given run_id "".
    """

    name: str
    cell: _Cell
    get: Callable[[str, Any], Any]


_RUN_ID = Column("run_id", _STR, lambda run_id, t: run_id)

RUNS_COLUMNS = (
    _RUN_ID,
    Column("seed", _INT, lambda run_id, t: t.cfg.seed),
    Column("scenario", _enum(Scenario), lambda run_id, t: t.cfg.scenario),
    Column("policy", _enum(Policy), lambda run_id, t: t.cfg.policy),
    Column("shift_length_s", _REAL, lambda run_id, t: t.cfg.shift_length),
    Column("patients_served", _COUNT, lambda run_id, t: t.patients_served),
    Column("total_time_damage_s", _REAL, lambda run_id, t: t.time_damage),
    Column("total_delay_s", _REAL, lambda run_id, t: t.delay),
)
DOCTORS_COLUMNS = (
    _RUN_ID,
    Column("doctor_id", _INT, lambda run_id, t: t.id),
    Column("style", _enum(EvaluationStyle), lambda run_id, t: t.style),
    Column("patients_served", _COUNT, lambda run_id, t: t.served),
    Column("time_damage_s", _REAL, lambda run_id, t: t.time_damage),
    Column("delay_s", _REAL, lambda run_id, t: t.delay),
    Column("eval_accuracy", _OPT_REAL, lambda run_id, t: t.eval_accuracy),
)
NURSES_COLUMNS = (
    _RUN_ID,
    Column("nurse_id", _INT, lambda run_id, t: t.id),
    Column("quality", _enum(NurseQuality), lambda run_id, t: t.quality),
    Column("role", _enum(Role), lambda run_id, t: t.role),
    Column("tasks_success", _COUNT, lambda run_id, t: t.tasks_success),
    Column("tasks_failed", _COUNT, lambda run_id, t: t.tasks_failed),
    Column("utility", _INT, lambda run_id, t: t.utility),
    Column("time_damage_s", _REAL, lambda run_id, t: t.time_damage),
    Column("observed_tasks", _COUNT, lambda run_id, t: t.observed_tasks),
    Column("classified_low_at_s", _OPT_REAL, lambda run_id, t: t.trust.classified_low_at),
)

COMPARISONS_COLUMNS = (
    Column("metric", _STR, lambda run_id, r: r.metric),
    Column("group_a", _LABEL, lambda run_id, r: r.group_a),
    Column("group_b", _LABEL, lambda run_id, r: r.group_b),
    Column("mean_a", _REAL, lambda run_id, r: r.mean_a),
    Column("mean_b", _REAL, lambda run_id, r: r.mean_b),
    Column("median_a", _REAL, lambda run_id, r: r.median_a),
    Column("median_b", _REAL, lambda run_id, r: r.median_b),
    Column("sw_p_a", _P, lambda run_id, r: None if r.sw_a is None else r.sw_a.p_value),
    Column("sw_p_b", _P, lambda run_id, r: None if r.sw_b is None else r.sw_b.p_value),
    Column("test", _STR, lambda run_id, r: r.test),
    Column("statistic", _OPT_REAL, lambda run_id, r: None if r.chosen is None else r.chosen.statistic),
    Column("p_value", _P, lambda run_id, r: None if r.chosen is None else r.chosen.p_value),
    Column("degenerate", _BOOL, lambda run_id, r: r.degenerate),
)


def _header(columns: tuple[Column, ...]) -> str:
    return ",".join(c.name for c in columns)


COMPARISONS_HEADER = _header(COMPARISONS_COLUMNS)


def _row(columns: tuple[Column, ...], run_id: str, subject) -> str:
    return ",".join(c.cell.write(c.get(run_id, subject)) for c in columns) + "\n"


_TABLES = (("runs", RUNS_COLUMNS), ("doctors", DOCTORS_COLUMNS), ("nurses", NURSES_COLUMNS))


def run_rows(run_id: str, result) -> tuple[str, str, str, str]:
    """One finished run as CSV text: (run_id, runs text, doctors text, nurses text).

    `result` is the run's `engine.Shift`, its only record: the runs row
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


def comparisons_csv(rows: list) -> str:
    """The text of comparisons.csv: its header, then one line per `ComparisonRow`, in order."""
    return COMPARISONS_HEADER + "\n" + "".join(_row(COMPARISONS_COLUMNS, "", r) for r in rows)


def render_trace(trace: list) -> str:
    """Serialize an event log as `time,seq,kind,actor,object` lines."""
    lines = ["%.6f,%s,%s,%s,%s" % event for event in trace]
    return "\n".join(lines) + ("\n" if lines else "")


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
    kinds = [(c.name, c.cell.read, c.cell.write) for c in columns]
    rows = []
    for lineno, cells in enumerate(_split_csv(path, _header(columns)), start=2):
        row = {}
        for (name, read, write), cell in zip(kinds, cells):
            try:
                value = read(cell)
                # Only the spelling edsim writes: `int` and `float` also take `1_0`, ` 7 `, `+3`, `07` and `1e1`.
                if write(value) != cell:
                    raise ValueError(cell)
            except (ValueError, KeyError):
                raise SchemaError(f"{path}: line {lineno}, column {name}: cannot read {cell!r}") from None
            row[name] = value
        rows.append(row)
    return rows


def read_runs(path: str) -> list[dict]:
    return _read(path, RUNS_COLUMNS)


def read_doctors(path: str) -> list[dict]:
    return _read(path, DOCTORS_COLUMNS)


def read_nurses(path: str) -> list[dict]:
    return _read(path, NURSES_COLUMNS)
