from __future__ import annotations

import os
from collections import Counter
from pathlib import Path

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


def tree_bytes(root):
    """Every file under `root`, keyed by its path relative to `root`, as bytes."""
    out = {}
    for dirpath, _, files in os.walk(root):
        for name in sorted(files):
            full = os.path.join(dirpath, name)
            out[os.path.relpath(full, root)] = Path(full).read_bytes()
    return out


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
    keeps its own.  A request holds no record of its claim: the nurse that
    claimed it is the decide event's actor in the log, and the one holding it.
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


def run_with_invariant_checks(cfg, monkeypatch, every=1):
    """Run one shift of `cfg`, checking the engine's live state against a ledger of its events.

    The ledger holds every issued request not yet done and, for each claimed
    one, the nurse that claimed it.  It is built from what the engine reports:
    the (actor, object) that each decide, start and completion returns.  The
    ledger and the set of started requests are updated at every event; the
    engine's queues, the nurses' hands, the beds and the doctors are compared
    with them after every `every`-th handled event and after the last.
    Returns the shift's result after checking that no request was started
    twice and that the census counts every started request.
    """
    issued = record_requests(monkeypatch)
    sim = _ShiftSim(cfg)
    live = {}  # request id -> issued request not yet done, in issue (id) order
    claims = {}  # request id -> id of the nurse that claimed it, until the request is done
    started = set()
    recorded = handled = 0

    def claim(nurse_id, request_id):
        if request_id != "":
            # A request is claimed once, while it waits.
            assert request_id in live and request_id not in claims
            claims[request_id] = nurse_id

    def start(nurse_id, request_id):
        assert claims[request_id] == nurse_id and request_id not in started
        started.add(request_id)

    def complete(nurse_id, request_id):
        assert claims.pop(request_id) == nurse_id and request_id in started
        del live[request_id]

    ledger = {"_handle_nurse_decide": claim, "_handle_execution_start": start, "_handle_task_complete": complete}

    def check():
        assert recorded == sim._next_request_id - 1
        # The per-level queues hold exactly the unclaimed requests, oldest first.
        pending = [[] for _ in LEVELS]
        for rid, r in live.items():
            if rid not in claims:
                pending[r.requested_level - 1].append(r)
        assert [list(queue) for queue in sim._pending] == pending
        # Each claimed request not yet done is the current request of the
        # nurse that claimed it.  A nurse without one is busy only while it
        # prepares, that is while its post-prep decide is still scheduled.
        preparing = {args[0] for _, _, kind, args in sim._heap if kind == NURSE_DECIDE and args[1]}
        in_hand = dict(claims)
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

    def checked(handler, record):
        def run(*args):
            nonlocal recorded, handled
            out = handler(*args)
            live.update((r.id, r) for r in issued)
            recorded += len(issued)
            issued.clear()
            if record:
                record(*out)
            handled += 1
            if not handled % every:
                check()
            return out

        return run

    for name in HANDLERS:
        setattr(sim, name, checked(getattr(sim, name), ledger.get(name)))
    result = sim.run()
    if handled % every:
        check()

    # No request is started twice: `start` refuses a second start.
    done = sum(n.tasks_success + n.tasks_failed for n in result.nurses.values())
    assert len(started) == result.audit["requests"]["executing"] + done
    return result
