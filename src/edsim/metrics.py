"""Per-shift metric accumulation and the CSV export/import layer."""
from __future__ import annotations

import os
from typing import Any, Callable, NamedTuple, Optional


class SchemaError(ValueError):
    """A CSV file or run record does not match the expected schema."""


class DoctorTotals:
    """One doctor's share of a shift's metrics."""

    __slots__ = ("served", "time_damage", "delay", "eval_hits", "eval_count")

    def __init__(self, served: int = 0, time_damage: float = 0.0, delay: float = 0.0, eval_hits: int = 0,
                 eval_count: int = 0):
        self.served = served
        self.time_damage = time_damage
        self.delay = delay
        self.eval_hits = eval_hits
        self.eval_count = eval_count

    @property
    def eval_accuracy(self) -> Optional[float]:
        """Share of completed requests whose requested level was the true level."""
        return self.eval_hits / self.eval_count if self.eval_count else None


class NurseTotals:
    """One nurse's share of a shift's metrics."""

    __slots__ = ("tasks_success", "tasks_failed", "utility", "time_damage", "observed_tasks", "classified_low_at")

    def __init__(self, tasks_success: int = 0, tasks_failed: int = 0, utility: int = 0, time_damage: float = 0.0,
                 observed_tasks: int = 0, classified_low_at: Optional[float] = None):
        self.tasks_success = tasks_success
        self.tasks_failed = tasks_failed
        self.utility = utility
        self.time_damage = time_damage
        self.observed_tasks = observed_tasks
        self.classified_low_at = classified_low_at


class ShiftMetrics:
    """Running totals plus one record per doctor and per nurse for one shift."""

    __slots__ = ("patients_served", "time_damage", "delay", "doctors", "nurses")

    def __init__(self, patients_served: int = 0, time_damage: float = 0.0, delay: float = 0.0,
                 doctors: Optional[dict[int, DoctorTotals]] = None, nurses: Optional[dict[int, NurseTotals]] = None):
        self.patients_served = patients_served
        self.time_damage = time_damage
        self.delay = delay
        self.doctors = {} if doctors is None else doctors
        self.nurses = {} if nurses is None else nurses

    def mark_served(self, doctor_id: int) -> None:
        self.patients_served += 1
        self.doctors[doctor_id].served += 1


def accrue_delay(metrics: ShiftMetrics, request, shift_length: float) -> float:
    """Add one request's waiting time to the doctor and shift totals.

    A request waits from issue until its execution starts; requests that never
    start (still pending or claimed at shift end) wait until the horizon.
    """
    if request.execution_start_at is not None:
        waited = request.execution_start_at - request.issued_at
    else:
        waited = shift_length - request.issued_at
    metrics.delay += waited
    metrics.doctors[request.doctor].delay += waited
    return waited


def record_task_completion(metrics: ShiftMetrics, request) -> None:
    """Fold one completed request's outcome into the shift metrics."""
    outcome = request.outcome
    nurse = metrics.nurses[request.executed_by]
    doctor = metrics.doctors[request.doctor]
    metrics.time_damage += outcome.time_damage
    nurse.time_damage += outcome.time_damage
    doctor.time_damage += outcome.time_damage
    if outcome.success:
        nurse.tasks_success += 1
    else:
        nurse.tasks_failed += 1
    nurse.utility += outcome.utility_delta
    doctor.eval_count += 1
    if request.requested_level == request.true_level:
        doctor.eval_hits += 1


class RunRecord(NamedTuple):
    """One run's identity, configuration echo fields, and metrics."""

    run_id: str
    seed: int
    scenario: str
    policy: str
    shift_length: float
    metrics: ShiftMetrics
    doctor_styles: dict  # doctor id -> style token
    nurse_info: dict  # nurse id -> (quality token, role token)


class _Cell(NamedTuple):
    write: Callable[[Any], str]
    read: Callable[[str], Any]


_STR = _Cell(str, str)
_INT = _Cell(str, int)
_REAL = _Cell("{:.6f}".format, float)  # six decimals keep the files byte-deterministic
_OPT_REAL = _Cell(lambda v: "" if v is None else f"{v:.6f}", lambda c: None if c == "" else float(c))


class Column(NamedTuple):
    """One CSV column: header name, cell kind, and the value getter.

    Every getter takes (record, agent id, totals); a runs row passes the
    shift's own metrics as its totals and no agent id.
    """

    name: str
    cell: _Cell
    get: Callable[[RunRecord, Any, Any], Any]


_RUN_ID = Column("run_id", _STR, lambda rec, _, t: rec.run_id)

RUNS_COLUMNS = (
    _RUN_ID,
    Column("seed", _INT, lambda rec, _, t: rec.seed),
    Column("scenario", _STR, lambda rec, _, t: rec.scenario),
    Column("policy", _STR, lambda rec, _, t: rec.policy),
    Column("shift_length_s", _REAL, lambda rec, _, t: rec.shift_length),
    Column("patients_served", _INT, lambda rec, _, t: t.patients_served),
    Column("total_time_damage_s", _REAL, lambda rec, _, t: t.time_damage),
    Column("total_delay_s", _REAL, lambda rec, _, t: t.delay),
)
DOCTORS_COLUMNS = (
    _RUN_ID,
    Column("doctor_id", _INT, lambda rec, i, t: i),
    Column("style", _STR, lambda rec, i, t: rec.doctor_styles[i]),
    Column("patients_served", _INT, lambda rec, i, t: t.served),
    Column("time_damage_s", _REAL, lambda rec, i, t: t.time_damage),
    Column("delay_s", _REAL, lambda rec, i, t: t.delay),
    Column("eval_accuracy", _OPT_REAL, lambda rec, i, t: t.eval_accuracy),
)
NURSES_COLUMNS = (
    _RUN_ID,
    Column("nurse_id", _INT, lambda rec, i, t: i),
    Column("quality", _STR, lambda rec, i, t: rec.nurse_info[i][0]),
    Column("role", _STR, lambda rec, i, t: rec.nurse_info[i][1]),
    Column("tasks_success", _INT, lambda rec, i, t: t.tasks_success),
    Column("tasks_failed", _INT, lambda rec, i, t: t.tasks_failed),
    Column("utility", _INT, lambda rec, i, t: t.utility),
    Column("time_damage_s", _REAL, lambda rec, i, t: t.time_damage),
    Column("observed_tasks", _INT, lambda rec, i, t: t.observed_tasks),
    Column("classified_low_at_s", _OPT_REAL, lambda rec, i, t: t.classified_low_at),
)


def _header(columns: tuple[Column, ...]) -> str:
    return ",".join(c.name for c in columns)


RUNS_HEADER = _header(RUNS_COLUMNS)
DOCTORS_HEADER = _header(DOCTORS_COLUMNS)
NURSES_HEADER = _header(NURSES_COLUMNS)


def _row(columns: tuple[Column, ...], rec: RunRecord, agent_id, totals) -> str:
    return ",".join(c.cell.write(c.get(rec, agent_id, totals)) for c in columns)


def runs_row(rec: RunRecord) -> str:
    """The run's `runs.csv` line, without the newline."""
    return _row(RUNS_COLUMNS, rec, None, rec.metrics)


def write_csvs(records: list[RunRecord], out_dir: str) -> dict[str, str]:
    """Write runs/doctors/nurses CSVs for the given records; returns the paths.

    Output is byte-deterministic: rows sorted by (run_id, agent id), reals with
    six decimals, and a plain \\n after every line.
    """
    os.makedirs(out_dir, exist_ok=True)
    ordered = sorted(records, key=lambda r: r.run_id)
    tables = {
        "runs": (RUNS_COLUMNS, [(r, None, r.metrics) for r in ordered]),
        "doctors": (DOCTORS_COLUMNS, [(r, i, r.metrics.doctors[i]) for r in ordered for i in sorted(r.doctor_styles)]),
        "nurses": (NURSES_COLUMNS, [(r, i, r.metrics.nurses[i]) for r in ordered for i in sorted(r.nurse_info)]),
    }
    paths = {}
    for name, (columns, rows) in tables.items():
        path = os.path.join(out_dir, f"{name}.csv")
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(_header(columns) + "\n")
            for row in rows:
                fh.write(_row(columns, *row) + "\n")
        paths[name] = path
    return paths


def _split_csv(path: str, header: str) -> list[list[str]]:
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
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
    return [
        {c.name: c.cell.read(cell) for c, cell in zip(columns, cells)}
        for cells in _split_csv(path, _header(columns))
    ]


def read_runs(path: str) -> list[dict]:
    return _read(path, RUNS_COLUMNS)


def read_doctors(path: str) -> list[dict]:
    return _read(path, DOCTORS_COLUMNS)


def read_nurses(path: str) -> list[dict]:
    return _read(path, NURSES_COLUMNS)
