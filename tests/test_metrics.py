from __future__ import annotations

import pytest

from edsim.behavior import TaskOutcome, evaluate_performance_level
from edsim.policy import TrustState
from edsim.domain import EvaluationStyle, NurseQuality, SimConfig
from edsim.engine import DoctorRuntime, NurseRuntime, Patient, TaskRequest
from edsim.metrics import (
    DOCTORS_HEADER,
    NURSES_HEADER,
    RUNS_HEADER,
    RunRecord,
    ShiftMetrics,
    accrue_delay,
    read_doctors,
    read_nurses,
    read_runs,
    record_task_completion,
    run_rows,
    write_csvs,
)


def req(m, issued_at, execution_start_at, doctor=1, executed_by=1, requested_level=3, true_level=3, outcome=None):
    """An engine request for a patient of `m`'s doctor `doctor`, claimed by nurse `executed_by`."""
    request = TaskRequest(0, Patient(0, 0, m.doctors[doctor], true_level), requested_level, issued_at)
    request.executed_by, request.execution_start_at, request.outcome = executed_by, execution_start_at, outcome
    return request


def fresh_metrics(doctors=(1,), nurses=(1,)):
    """Metrics over real agents: correct doctors, nurse 1 low and the others high."""
    trust = TrustState.fresh(SimConfig())
    return ShiftMetrics(
        {d: DoctorRuntime(d, EvaluationStyle.CORRECT, (d,)) for d in doctors},
        {n: NurseRuntime(n, NurseQuality.LOW if n == 1 else NurseQuality.HIGH, "regular", trust) for n in nurses},
    )


def test_accrue_delay_started_request():
    m = fresh_metrics()
    waited = accrue_delay(m, req(m, issued_at=10.0, execution_start_at=15.0), shift_length=3600.0)
    assert waited == 5.0
    assert m.delay == 5.0
    assert m.doctors[1].delay == 5.0


def test_accrue_delay_never_started_truncates_at_horizon():
    m = fresh_metrics()
    waited = accrue_delay(m, req(m, issued_at=3500.0, execution_start_at=None), shift_length=3600.0)
    assert waited == 100.0


def test_accrue_delay_zero_gap():
    m = fresh_metrics()
    assert accrue_delay(m, req(m, issued_at=10.0, execution_start_at=10.0), shift_length=100.0) == 0.0


def test_record_success():
    m = fresh_metrics()
    request = req(m, 10.0, 15.0, outcome=TaskOutcome(True, 0.0, 3))
    record_task_completion(m, request)
    assert m.nurses[1].tasks_success == 1
    assert m.nurses[1].tasks_failed == 0
    assert m.nurses[1].utility == 3
    assert m.time_damage == 0.0


def test_record_failure_damage_goes_everywhere():
    m = fresh_metrics()
    request = req(m, 10.0, 15.0, outcome=TaskOutcome(False, 7.3, -3))
    record_task_completion(m, request)
    assert m.time_damage == pytest.approx(7.3)
    assert m.nurses[1].time_damage == pytest.approx(7.3)
    assert m.doctors[1].time_damage == pytest.approx(7.3)
    assert m.nurses[1].utility == -3


def test_totals_match_breakdowns_after_every_completion():
    m = fresh_metrics(doctors=(1, 2), nurses=(1, 2))
    outcomes = [
        req(m, 0.0, 1.0, doctor=1, executed_by=1, outcome=TaskOutcome(False, 2.5, -3)),
        req(m, 0.0, 2.0, doctor=2, executed_by=2, outcome=TaskOutcome(True, 0.0, 4)),
        req(m, 0.0, 3.0, doctor=2, executed_by=1, outcome=TaskOutcome(False, 1.5, -1)),
    ]
    for request in outcomes:
        record_task_completion(m, request)
        assert m.time_damage == pytest.approx(sum(n.time_damage for n in m.nurses.values()))
        assert m.time_damage == pytest.approx(sum(d.time_damage for d in m.doctors.values()))


def test_eval_accuracy_correct_doctor_is_one():
    m = fresh_metrics()
    for level in (1, 2, 3, 4, 5):
        request = req(m, 0.0, 1.0, requested_level=level, true_level=level, outcome=TaskOutcome(True, 0.0, level))
        record_task_completion(m, request)
    assert m.doctors[1].eval_accuracy == 1.0


@pytest.mark.parametrize(
    "style,expected",
    [(EvaluationStyle.OVERESTIMATES, 0.2), (EvaluationStyle.UNDERESTIMATES, 0.2)],
)
def test_eval_accuracy_biased_doctor_converges(style, expected):
    # Enumeration oracle: over a uniform level mix only one of the five true
    # levels maps to itself under each biased style.
    m = fresh_metrics()
    for i in range(1000):
        level = (i % 5) + 1
        requested = evaluate_performance_level(level, style)
        request = req(m, 0.0, 1.0, requested_level=requested, true_level=level, outcome=TaskOutcome(True, 0.0, 1))
        record_task_completion(m, request)
    assert m.doctors[1].eval_accuracy == pytest.approx(expected, abs=0.02)


def test_eval_accuracy_without_completions_is_none():
    m = fresh_metrics()
    assert m.doctors[1].eval_accuracy is None


def make_record(run_id="combo-00000007", seed=7, with_low_classified=True):
    m = fresh_metrics(doctors=(1,), nurses=(1, 2))
    m.mark_served(m.doctors[1])
    record_task_completion(m, req(m, 0.0, 1.0, executed_by=2, outcome=TaskOutcome(True, 0.0, 3)))
    record_task_completion(
        m, req(m, 0.0, 2.0, executed_by=1, requested_level=2, outcome=TaskOutcome(False, 4.2, -2))
    )
    accrue_delay(m, req(m, 10.0, 15.0), 100.0)
    if with_low_classified:
        m.nurses[1].trust = m.nurses[1].trust._replace(classified_low_at=42.5)
    return RunRecord(run_id=run_id, config=SimConfig(seed=seed, shift_length=100.0), metrics=m)


def test_write_csvs_headers_and_shape(tmp_path):
    paths = write_csvs([run_rows(make_record())], str(tmp_path))
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
    write_csvs([run_rows(rec)], str(tmp_path / "a"))
    write_csvs([run_rows(rec)], str(tmp_path / "b"))
    for name in ("runs.csv", "doctors.csv", "nurses.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_rows_sorted_by_run_id_and_agent(tmp_path):
    records = [make_record(run_id="x-00000002", seed=2), make_record(run_id="x-00000001", seed=1)]
    write_csvs([run_rows(r) for r in records], str(tmp_path))
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
    write_csvs([run_rows(make_record(run_id=i, seed=int(i.rsplit("-", 1)[1]))) for i in ids], str(tmp_path))
    expected = ["baseline-ca-100000000", "baseline-ca-99999999"]
    assert [r["run_id"] for r in read_runs(str(tmp_path / "runs.csv"))] == expected
    assert [r["run_id"] for r in read_doctors(str(tmp_path / "doctors.csv"))] == expected
    assert [r["run_id"] for r in read_nurses(str(tmp_path / "nurses.csv"))] == [i for i in expected for _ in (1, 2)]


def test_round_trip_preserves_fields(tmp_path):
    rec = make_record()
    write_csvs([run_rows(rec)], str(tmp_path))
    run_row = read_runs(str(tmp_path / "runs.csv"))[0]
    assert run_row["seed"] == rec.config.seed
    assert run_row["patients_served"] == rec.metrics.patients_served
    assert run_row["total_time_damage_s"] == pytest.approx(rec.metrics.time_damage)
    assert run_row["total_delay_s"] == pytest.approx(rec.metrics.delay)

    doc_row = read_doctors(str(tmp_path / "doctors.csv"))[0]
    assert doc_row["style"] == "correct"
    assert doc_row["patients_served"] == 1
    assert doc_row["eval_accuracy"] == pytest.approx(0.5)

    nurse_rows = {r["nurse_id"]: r for r in read_nurses(str(tmp_path / "nurses.csv"))}
    assert nurse_rows[1]["tasks_failed"] == 1
    assert nurse_rows[1]["utility"] == -2
    assert nurse_rows[1]["classified_low_at_s"] == pytest.approx(42.5)
    assert nurse_rows[2]["tasks_success"] == 1
    assert nurse_rows[2]["classified_low_at_s"] is None


def test_never_classified_field_is_empty(tmp_path):
    write_csvs([run_rows(make_record(with_low_classified=False))], str(tmp_path))
    lines = (tmp_path / "nurses.csv").read_text().splitlines()
    assert lines[1].endswith(",")  # empty classified_low_at_s cell
