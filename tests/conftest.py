from __future__ import annotations

import os
import random
from collections import Counter
from pathlib import Path

import pytest

import edsim.engine as engine
from edsim import cli
from edsim.domain import LEVELS, validate_config
from edsim.engine import EXAM_COMPLETE, EXECUTION_START, NURSE_DECIDE, TASK_COMPLETE, Shift, TaskRequest, run_shift
from edsim.policy import eligible_levels

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


class CountingRandom(random.Random):
    """A `random.Random` that counts the unit draws it hands out; `uniform` draws through `random`."""

    draw_count = 0

    def random(self):
        self.draw_count += 1
        return super().random()


def census(shift) -> dict:
    """The open work of a shift: its requests pending, claimed and executing, and its occupied beds.

    A request waits in its level's queue until a nurse claims it, then stays in
    that nurse's hands, claimed and later executing, until it is done.  A live
    patient is a bed's occupant.
    """
    in_hand = [n.current_request for n in shift.nurses.values() if n.current_request is not None]
    claimed = sum(r.execution_start_at is None for r in in_hand)
    return {
        "pending": sum(map(len, shift._pending)),
        "claimed": claimed,
        "executing": len(in_hand) - claimed,
        "occupied_beds": sum(patient is not None for patient in shift.beds.values()),
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


def run_with_invariant_checks(cfg, monkeypatch, every=1):
    """Run one shift of `cfg`, checking the engine's live state against a ledger of its event log.

    The ledger holds every issued request not yet done and, for each claimed
    one, the nurse that claimed it.  It is built from the log alone: the
    (kind, actor, object) of each decide, start and completion entry.  The
    shift's `trace` is a list that updates the ledger and the set of started
    requests as each entry is appended; the engine's queues, the nurses'
    hands, the beds and the doctors are compared with them, and each nurse's
    kept levels and queues with the eligibility rule, after every `every`-th
    event and after the last.  Returns the finished shift after checking that
    no request was started twice and that the census counts every started
    request.
    """
    issued = record_requests(monkeypatch)
    sim = Shift(cfg)
    live = {}  # request id -> issued request not yet done, in issue (id) order
    claims = {}  # request id -> id of the nurse that claimed it, until the request is done
    started = set()
    recorded = 0

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

    ledger = {NURSE_DECIDE: claim, EXECUTION_START: start, TASK_COMPLETE: complete}

    def check():
        assert recorded == sim.requests_issued
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
            # A nurse's kept levels are what the eligibility rule gives for its
            # trust, and its queues are those of the levels it may take now:
            # every level under FIFO or while a trainer is attached, else its
            # kept levels.
            assert nurse.trust.levels == eligible_levels(nurse.trust, cfg)
            levels = LEVELS if sim._fifo or nurse.trainer_attached else nurse.trust.levels
            assert list(map(id, nurse.queues)) == [id(sim._pending[level - 1]) for level in levels]
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
        # completion carries, which heads its exam queue.  The queue holds
        # every unexamined patient in its beds in lie-down order, which is id
        # order.
        exams = [args[0] for _, _, kind, args in sim._heap if kind == EXAM_COMPLETE]
        under_exam = {patient.doctor: patient for patient in exams}
        assert len(under_exam) == len(exams)
        for doctor in sim.doctors.values():
            assert bool(doctor.exams) == (doctor in under_exam)
            if doctor.exams:
                assert doctor.exams[0] is under_exam[doctor]
            patients = [sim.beds[bed] for bed in doctor.beds if sim.beds[bed] is not None]
            assert all(patient.doctor is doctor and sim.beds[patient.bed] is patient for patient in patients)
            assert all(patient.open_tasks == open_tasks[patient] for patient in patients)
            unexamined = [p for p in patients if not p.open_tasks]
            assert list(doctor.exams) == sorted(unexamined, key=lambda p: p.id)

    class CheckedLog(list):
        def append(self, event):
            nonlocal recorded
            super().append(event)
            live.update((r.id, r) for r in issued)
            recorded += len(issued)
            issued.clear()
            _, _, kind, actor, obj = event
            if kind in ledger:
                ledger[kind](actor, obj)
            if not len(self) % every:
                check()

    sim.trace = CheckedLog()
    result = sim.run()
    if len(result.trace) % every:
        check()

    # No request is started twice: `start` refuses a second start.
    done = sum(n.tasks_success + n.tasks_failed for n in result.nurses.values())
    assert len(started) == census(result)["executing"] + done
    return result
