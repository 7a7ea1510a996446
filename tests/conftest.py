from __future__ import annotations

from collections import Counter

import pytest

import edsim.engine as engine
from edsim import cli
from edsim.domain import LEVELS, validate_config
from edsim.engine import EXAM_COMPLETE, NURSE_DECIDE, TaskRequest, _ShiftSim, run_shift

# Each combo's (scenario, policy) as config text.
COMBOS = {name: (scenario.value, policy.value) for name, (scenario, policy) in cli.COMBOS.items()}

# Acceptance protocol: 60 consecutive seeds per combo at three distinct bases.
SEED_BASES = (1000, 20001, 77000)
RUNS_PER_COMBO = 60


def make_config(**overrides):
    raw = {k: str(v) if not isinstance(v, str) else v for k, v in overrides.items()}
    return validate_config(raw)


def run_combo(combo: str, seed_base: int, runs: int = RUNS_PER_COMBO, **extra):
    scenario, policy = COMBOS[combo]
    results = []
    for i in range(runs):
        cfg = make_config(scenario=scenario, policy=policy, seed=seed_base + i, **extra)
        results.append(run_shift(cfg))
    return results


@pytest.fixture(scope="session")
def acceptance_grids():
    """The full 4x60 grid at each pinned seed base, computed once per session."""
    return {
        base: {combo: run_combo(combo, base) for combo in COMBOS}
        for base in SEED_BASES
    }


def record_requests(monkeypatch) -> list:
    """Record every request the engine builds, in issue (id) order.

    The engine keeps no map of its requests, so a test that needs all of them
    keeps its own and reads each request's state from its fields.
    """
    issued = []

    def recording(*args, **kwargs):
        request = TaskRequest(*args, **kwargs)
        issued.append(request)
        return request

    monkeypatch.setattr(engine, "TaskRequest", recording)
    return issued


HANDLERS = (
    "_spawn_patient",
    "_handle_exam_complete",
    "_handle_nurse_decide",
    "_handle_execution_start",
    "_handle_task_complete",
    "_handle_trainer_exit",
)


def run_with_invariant_checks(cfg, monkeypatch):
    """Run one shift of `cfg`, checking the engine's live state after every handled event.

    Returns the shift's result after checking that no request was executed
    twice and that the census counts every started request.
    """
    issued = record_requests(monkeypatch)
    sim = _ShiftSim(cfg)
    live = {}  # issued requests not yet done; a done request is never touched again
    recorded = 0
    started = []

    def check():
        nonlocal recorded
        assert len(issued) == sim._next_request_id - 1
        for r in issued[recorded:]:
            live[r.id] = r
        recorded = len(issued)
        pending = [[] for _ in LEVELS]
        in_hand = {}
        for rid, r in list(live.items()):  # in id order, which is issue order
            if r.executed_by is None:
                pending[r.requested_level - 1].append(r)
            elif r.outcome is not None:
                del live[rid]
            else:
                in_hand[rid] = r.executed_by
        # The per-level queues hold exactly the pending requests, oldest first.
        assert [list(queue) for queue in sim._pending] == pending
        # Each claimed or executing request is the current request of the
        # nurse executing it.  A nurse without one is busy only while it
        # prepares, that is while its post-prep decide is still scheduled.
        preparing = {args[0] for _, _, kind, args in sim._heap if kind == NURSE_DECIDE and args[1]}
        for nurse in sim.nurses.values():
            if nurse.current_request is None:
                assert nurse.busy == (nurse in preparing)
            else:
                request = nurse.current_request
                assert nurse.busy and request is live[request.id] and in_hand.pop(request.id) == nurse.id
        assert not in_hand
        # A patient's open tasks are its requests still queued or in a nurse's
        # hands, and the patient stays in its bed until the last one is done.
        open_tasks = Counter(r.patient for r in live.values())
        assert all(sim.beds[patient.bed] is patient for patient in open_tasks)
        # A doctor examines one patient at a time: the one its scheduled exam
        # completion carries.  Every other unexamined patient in its beds waits
        # in its queue in lie-down order, which is id order.
        exams = [args[0] for _, _, kind, args in sim._heap if kind == EXAM_COMPLETE]
        under_exam = {patient.doctor: patient for patient in exams}
        assert len(under_exam) == len(exams)
        for doctor in sim.doctors.values():
            assert doctor.examining == (doctor in under_exam)
            patients = [sim.beds[bed] for bed in doctor.beds if sim.beds[bed] is not None]
            assert all(patient.doctor is doctor and sim.beds[patient.bed] is patient for patient in patients)
            assert all(patient.open_tasks == open_tasks[patient] for patient in patients)
            unexamined = [p for p in patients if not p.open_tasks and p is not under_exam.get(doctor)]
            assert list(doctor.waiting) == sorted(unexamined, key=lambda p: p.id)

    def checked(handler):
        def run(*args):
            out = handler(*args)
            check()
            return out

        return run

    for name in HANDLERS:
        setattr(sim, name, checked(getattr(sim, name)))
    start = sim._handle_execution_start

    def counted_start(nurse):
        request = nurse.current_request
        assert request is live[request.id]
        assert request.executed_by == nurse.id and request.execution_start_at is None
        started.append(request.id)
        return start(nurse)

    sim._handle_execution_start = counted_start
    result = sim.run()

    # No request is executed twice.
    assert len(started) == len(set(started))
    done = sum(n.tasks_success + n.tasks_failed for n in result.nurses.values())
    assert len(started) == result.audit["requests"]["executing"] + done
    return result
