"""A run's totals: accrued by the engine, written to the CSVs and read back."""
from __future__ import annotations

import pytest

from edsim.behavior import TaskOutcome, evaluate_performance_level
from edsim.domain import EvaluationStyle, Policy, Role, Scenario
from edsim.engine import Patient, TaskRequest, Shift, run_shift
from edsim.metrics import (
    SchemaError,
    read_doctors,
    read_nurses,
    read_runs,
    run_rows,
    write_csvs,
)

from conftest import census, make_config

# The headers edsim writes, spelled out so a renamed or moved column shows here.
RUNS_HEADER = "run_id,seed,scenario,policy,shift_length_s,patients_served,total_time_damage_s,total_delay_s"
DOCTORS_HEADER = "run_id,doctor_id,style,patients_served,time_damage_s,delay_s,eval_accuracy"
NURSES_HEADER = ("run_id,nurse_id,quality,role,tasks_success,tasks_failed,utility,time_damage_s,observed_tasks,"
                 "classified_low_at_s")


def fresh_shift(doctors=(1,), nurses=(1,), shift_length=3600):
    """A shift that has not started: correct doctors, one bed each, nurse 1 low and the others high."""
    return Shift(make_config(
        doctors=", ".join(f"{d}:correct" for d in doctors),
        nurses=", ".join(f"{n}:{'low' if n == 1 else 'high'}" for n in nurses),
        bedsPerDoctor=1,
        bedCount=len(doctors),
        shiftLength=shift_length,
    ))


def req(sim, issued_at, doctor=1, requested_level=3, true_level=3):
    """A request issued at `issued_at` for a patient of the shift's doctor `doctor`."""
    return TaskRequest(0, Patient(0, 0, sim.doctors[doctor], true_level), requested_level, issued_at)


def start(sim, request, nurse_id=1):
    """Claim `request` for nurse `nurse_id` and start executing it at the shift's current time."""
    nurse = sim.nurses[nurse_id]
    nurse.busy, nurse.current_request = True, request
    sim._handle_execution_start(nurse)


def complete(sim, request, outcome, nurse_id=1):
    """Fold `outcome` of `request`, executed by nurse `nurse_id`, into the shift's totals."""
    sim._fold_outcome(sim.nurses[nurse_id], request, outcome)


def test_accrue_delay_started_request():
    sim = fresh_shift()
    sim.now = 15.0
    start(sim, req(sim, issued_at=10.0))
    assert sim.delay == 5.0
    assert sim.doctors[1].delay == 5.0


def test_accrue_delay_never_started_truncates_at_horizon():
    # Requests still queued or claimed but not started wait until the horizon.
    sim = fresh_shift(shift_length=3600)
    queued, claimed = req(sim, issued_at=3500.0), req(sim, issued_at=3550.0)
    sim._pending[queued.requested_level - 1].append(queued)
    sim.nurses[1].current_request = claimed
    result = sim._finalize()
    assert result.delay == 150.0
    assert result.doctors[1].delay == 150.0
    open_work = census(result)
    assert (open_work["pending"], open_work["claimed"]) == (1, 1)


def test_accrue_delay_zero_gap():
    sim = fresh_shift(shift_length=100)
    sim.now = 10.0
    start(sim, req(sim, issued_at=10.0))
    assert sim.delay == 0.0


def test_record_success():
    sim = fresh_shift()
    complete(sim, req(sim, 10.0), TaskOutcome(True, 0.0, 3))
    assert sim.nurses[1].tasks_success == 1
    assert sim.nurses[1].tasks_failed == 0
    assert sim.nurses[1].utility == 3
    assert sim.time_damage == 0.0


def test_record_failure_damage_goes_everywhere():
    sim = fresh_shift()
    complete(sim, req(sim, 10.0), TaskOutcome(False, 7.3, -3))
    assert sim.time_damage == pytest.approx(7.3)
    assert sim.nurses[1].time_damage == pytest.approx(7.3)
    assert sim.doctors[1].time_damage == pytest.approx(7.3)
    assert sim.nurses[1].utility == -3


def test_totals_match_breakdowns_after_every_completion():
    sim = fresh_shift(doctors=(1, 2), nurses=(1, 2))
    outcomes = [
        (req(sim, 0.0, doctor=1), TaskOutcome(False, 2.5, -3), 1),
        (req(sim, 0.0, doctor=2), TaskOutcome(True, 0.0, 4), 2),
        (req(sim, 0.0, doctor=2), TaskOutcome(False, 1.5, -1), 1),
    ]
    for request, outcome, nurse_id in outcomes:
        complete(sim, request, outcome, nurse_id)
        assert sim.time_damage == pytest.approx(sum(n.time_damage for n in sim.nurses.values()))
        assert sim.time_damage == pytest.approx(sum(d.time_damage for d in sim.doctors.values()))


def test_eval_accuracy_correct_doctor_is_one():
    sim = fresh_shift()
    for level in (1, 2, 3, 4, 5):
        complete(sim, req(sim, 0.0, requested_level=level, true_level=level), TaskOutcome(True, 0.0, level))
    assert sim.doctors[1].eval_accuracy == 1.0


@pytest.mark.parametrize(
    "style,expected",
    [(EvaluationStyle.OVERESTIMATES, 0.2), (EvaluationStyle.UNDERESTIMATES, 0.2)],
)
def test_eval_accuracy_biased_doctor_converges(style, expected):
    # Enumeration oracle: over a uniform level mix only one of the five true
    # levels maps to itself under each biased style.
    sim = fresh_shift()
    for i in range(1000):
        level = (i % 5) + 1
        request = req(sim, 0.0, requested_level=evaluate_performance_level(level, style), true_level=level)
        complete(sim, request, TaskOutcome(True, 0.0, 1))
    assert sim.doctors[1].eval_accuracy == pytest.approx(expected, abs=0.02)


def test_eval_accuracy_without_completions_is_none():
    assert fresh_shift().doctors[1].eval_accuracy is None


def make_record(run_id="combo-00000007", seed=7, with_low_classified=True):
    """`run_id` and a real shift's result: one correct doctor, nurse 1 low and nurse 2 high.

    Over 300 s the low nurse classifies itself; over 100 s it has not yet
    failed often enough to, and the high nurse never does.
    """
    result = run_shift(make_config(
        seed=seed,
        doctors="1:correct",
        nurses="1:low, 2:high",
        bedsPerDoctor=2,
        bedCount=2,
        shiftLength=300 if with_low_classified else 100,
    ))
    classified = [n.trust.classified_low_at is not None for n in result.nurses.values()]
    assert classified == [with_low_classified, False]
    return run_id, result


def test_write_csvs_headers_and_shape(tmp_path):
    paths = write_csvs([run_rows(*make_record())], str(tmp_path))
    runs = (tmp_path / "runs.csv").read_text().splitlines()
    doctors = (tmp_path / "doctors.csv").read_text().splitlines()
    nurses = (tmp_path / "nurses.csv").read_text().splitlines()
    assert runs[0] == RUNS_HEADER
    assert doctors[0] == DOCTORS_HEADER
    assert nurses[0] == NURSES_HEADER
    assert len(runs) == 2
    assert len(nurses) == 3
    assert nurses[1].startswith("combo-00000007,1,low,regular,")
    assert nurses[2].startswith("combo-00000007,2,high,regular,")
    assert set(paths) == {"runs", "doctors", "nurses"}


def test_write_csvs_empty_records(tmp_path):
    write_csvs([], str(tmp_path))
    assert (tmp_path / "runs.csv").read_text() == RUNS_HEADER + "\n"
    assert (tmp_path / "doctors.csv").read_text() == DOCTORS_HEADER + "\n"
    assert (tmp_path / "nurses.csv").read_text() == NURSES_HEADER + "\n"


def test_write_csvs_deterministic_bytes(tmp_path):
    rec = make_record()
    write_csvs([run_rows(*rec)], str(tmp_path / "a"))
    write_csvs([run_rows(*rec)], str(tmp_path / "b"))
    for name in ("runs.csv", "doctors.csv", "nurses.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_rows_sorted_by_run_id_and_agent(tmp_path):
    records = [make_record(run_id="x-00000002", seed=2), make_record(run_id="x-00000001", seed=1)]
    write_csvs([run_rows(*r) for r in records], str(tmp_path))
    rows = read_runs(str(tmp_path / "runs.csv"))
    assert [r["run_id"] for r in rows] == ["x-00000001", "x-00000002"]
    nurse_rows = read_nurses(str(tmp_path / "nurses.csv"))
    assert [(r["run_id"], r["nurse_id"]) for r in nurse_rows] == [
        ("x-00000001", 1), ("x-00000001", 2), ("x-00000002", 1), ("x-00000002", 2),
    ]


def test_rows_keep_run_id_text_order_at_width_change(tmp_path):
    # Seeds 99999999 and 100000000 give ids of 8 and 9 digits.  The files sort
    # by id text, so the later seed's row comes first, whatever order the runs
    # arrive in.
    ids = ["baseline-ca-99999999", "baseline-ca-100000000"]
    write_csvs([run_rows(*make_record(run_id=i, seed=int(i.rsplit("-", 1)[1]))) for i in ids], str(tmp_path))
    expected = ["baseline-ca-100000000", "baseline-ca-99999999"]
    assert [r["run_id"] for r in read_runs(str(tmp_path / "runs.csv"))] == expected
    assert [r["run_id"] for r in read_doctors(str(tmp_path / "doctors.csv"))] == expected
    assert [r["run_id"] for r in read_nurses(str(tmp_path / "nurses.csv"))] == [i for i in expected for _ in (1, 2)]


def real(value):
    """What a real cell reads back as: the value to its six written decimals, or None when empty."""
    return None if value is None else pytest.approx(value, abs=1e-6)


def test_round_trip_preserves_fields(tmp_path):
    run_id, result = make_record()
    write_csvs([run_rows(run_id, result)], str(tmp_path))
    run_row = read_runs(str(tmp_path / "runs.csv"))[0]
    assert run_row == {
        "run_id": run_id,
        "seed": result.cfg.seed,
        "scenario": Scenario.BASELINE,
        "policy": Policy.CA_TRUST,
        "shift_length_s": 300.0,
        "patients_served": result.patients_served,
        "total_time_damage_s": real(result.time_damage),
        "total_delay_s": real(result.delay),
    }
    assert result.patients_served > 0 and result.time_damage > 0 and result.delay > 0

    doctor = result.doctors[1]
    doc_row = read_doctors(str(tmp_path / "doctors.csv"))[0]
    assert doc_row == {
        "run_id": run_id,
        "doctor_id": 1,
        "style": EvaluationStyle.CORRECT,
        "patients_served": doctor.served,
        "time_damage_s": real(doctor.time_damage),
        "delay_s": real(doctor.delay),
        "eval_accuracy": real(doctor.eval_accuracy),
    }
    assert doctor.eval_accuracy == 1.0

    nurse_rows = read_nurses(str(tmp_path / "nurses.csv"))
    assert [row["nurse_id"] for row in nurse_rows] == [1, 2]
    for row, nurse in zip(nurse_rows, result.nurses.values()):
        assert row == {
            "run_id": run_id,
            "nurse_id": nurse.id,
            "quality": nurse.quality,
            "role": nurse.role,
            "tasks_success": nurse.tasks_success,
            "tasks_failed": nurse.tasks_failed,
            "utility": nurse.utility,
            "time_damage_s": real(nurse.time_damage),
            "observed_tasks": nurse.observed_tasks,
            "classified_low_at_s": real(nurse.trust.classified_low_at),
        }
    assert [row["role"] for row in nurse_rows] == [Role.REGULAR, Role.REGULAR]
    assert nurse_rows[0]["tasks_failed"] > 0 and nurse_rows[1]["tasks_success"] > 0


def test_never_classified_field_is_empty(tmp_path):
    write_csvs([run_rows(*make_record(with_low_classified=False))], str(tmp_path))
    lines = (tmp_path / "nurses.csv").read_text().splitlines()
    assert lines[1].endswith(",")  # empty classified_low_at_s cell
    assert lines[2].endswith(",")


def damaged(tmp_path, table, column, cell):
    """A written table with `cell` in `column` of its first row; returns its path."""
    write_csvs([run_rows(*make_record())], str(tmp_path))
    path = tmp_path / f"{table}.csv"
    lines = path.read_text().splitlines()
    cells = lines[1].split(",")
    cells[lines[0].split(",").index(column)] = cell
    path.write_text("\n".join([lines[0], ",".join(cells), *lines[2:]]) + "\n")
    return path


@pytest.mark.parametrize("reader, table, column, cell", [
    (read_runs, "runs", "total_delay_s", "nan"),
    (read_runs, "runs", "shift_length_s", "inf"),
    (read_doctors, "doctors", "eval_accuracy", "-inf"),
    (read_doctors, "doctors", "patients_served", "-3"),
    (read_nurses, "nurses", "tasks_success", "-1"),
    (read_nurses, "nurses", "tasks_failed", "-3"),
    (read_nurses, "nurses", "observed_tasks", "-2"),
])
def test_reader_rejects_cells_never_written(tmp_path, reader, table, column, cell):
    # A real must be finite and a count not negative; the message names the
    # line and the column, so a damaged file never reaches the statistics.
    path = damaged(tmp_path, table, column, cell)
    with pytest.raises(SchemaError) as err:
        reader(str(path))
    assert str(err.value) == f"{path}: line 2, column {column}: cannot read {cell!r}"


def test_reader_accepts_negative_utility(tmp_path):
    # Failures take a nurse's utility below zero, so it is no count.
    assert read_nurses(str(damaged(tmp_path, "nurses", "utility", "-3")))[0]["utility"] == -3
