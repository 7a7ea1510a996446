"""Deterministic discrete-event core: spawn/exam/decide/execute cycle and scenarios.

One run is strictly single-threaded.  All randomness comes from one
`random.Random` seeded with the run's seed, in a fixed order: one draw per
patient spawn (true difficulty), then the duration draws at each execution
start.  Events are ordered by (time, insertion sequence), so runs replay.

Pending requests wait in one FIFO queue per requested level.  Requests are
issued in (issued_at, id) order, because the clock never goes back and ids only
increase, so each queue stays sorted by the selectors' tie-break.  Eligibility
and trust weight depend only on the requested level, so each level's best
candidate is its queue's head.  A decision works out the queues the nurse may
take from where it reads them: all of them under FIFO or while a trainer is
attached, else those of its `TrustState.levels`, a tuple kept until those levels
are another object.  A decision whose queues are all empty declines without
selecting; any other hands the selector their heads and claims the winner with
`popleft`.  Either way it costs O(levels), however long the queues grow.

A request is a queue item: its id, its patient, the requested level, when it
was issued and when its execution started.  It lives only where its work is
still open.  It waits in its level's queue; a claim moves it into the claiming
nurse's hands (`NurseRuntime.current_request`), the only record of the claim,
where it stays through execution.  The drawn duration travels in the
`TASK_COMPLETE` event's args, and the outcome judged from it is a local that
`_fold_outcome` adds to the totals before the request is dropped.  A patient
lives only in its bed (`Shift.beds`), from its spawn until its last task is
done, and points at its doctor; a request points at its patient.  A doctor's
`exams` queue holds the patient under exam, then those waiting for theirs, in
lie-down order.  Finished work is not kept, so the open work at the horizon is
counted from the queues, the nurses' hands and the beds.

The engine keeps every fact of the run once.  Each doctor and nurse is one
object from the event loop to the CSV row: `DoctorRuntime` and `NurseRuntime`
carry the agent's own totals.  The `Shift` keeps the shift's delay and time
damage, `stalled_at`, and the counts of patients spawned and requests issued,
each new id being the count that includes it; the patients served are the
doctors' sum.  A nurse's `classified_low_at` lives only in its `TrustState`.
Style, quality and role are `edsim.domain` enum members, never their spelling.
A run is its finished `Shift`, its one record; the CSV formatter
(`metrics.run_rows`) reads the agents and the config off it, in the process
that ran the shift.

Event args carry the agents themselves (the doctor, nurse or patient), so no
handler looks an id up.  The event log, `Shift.trace`, keeps each event's
actor and object as raw ids: ints, or "" where the event has none.  Every run
records the log, but only `run --trace` prints it, and `experiment` throws it
away with the result, so the handlers format nothing.  The ids become text
once, in `metrics.render_trace`.
"""
from __future__ import annotations

import heapq
import itertools
from collections import deque
from operator import attrgetter
from random import Random
from typing import Optional

from .behavior import TaskOutcome, evaluate_performance_level, get_task_duration, judge_outcome, training_bonus_chance
from .domain import LEVELS, EvaluationStyle, NurseQuality, Policy, Role, Scenario, SimConfig, sample_true_level
from .policy import Reason, TrustState, select_request_ca, select_request_fifo, update_trust

PATIENT_SPAWN = "patient_spawn"
EXAM_COMPLETE = "exam_complete"
NURSE_DECIDE = "nurse_decide"
EXECUTION_START = "execution_start"
TASK_COMPLETE = "task_complete"
TRAINER_EXIT = "trainer_exit"
SHIFT_END = "shift_end"

_NONE_ELIGIBLE, _QUEUE_EMPTY = Reason.NONE_ELIGIBLE, Reason.QUEUE_EMPTY  # Enum's class lookup is slow


class DoctorRuntime:
    """One doctor: its beds, its exam queue, and its share of the shift's totals."""

    __slots__ = ("id", "style", "beds", "exams", "served", "time_damage", "delay", "eval_hits", "eval_count")

    def __init__(self, id: int, style: EvaluationStyle, beds: tuple):
        self.id = id
        self.style = style
        self.beds = beds
        self.exams: deque[Patient] = deque()  # the patient under exam, then the unexamined ones, oldest first
        self.served = 0
        self.time_damage = 0.0
        self.delay = 0.0
        self.eval_hits = 0
        self.eval_count = 0

    @property
    def eval_accuracy(self) -> Optional[float]:
        """Share of completed requests whose requested level was the true level."""
        return self.eval_hits / self.eval_count if self.eval_count else None


class Patient:
    """One patient in its bed, under its bed's doctor, counting down its open tasks once examined."""

    __slots__ = ("id", "bed", "doctor", "true_level", "open_tasks")

    def __init__(self, id: int, bed: int, doctor: DoctorRuntime, true_level: int):
        self.id = id
        self.bed = bed
        self.doctor = doctor
        self.true_level = true_level
        self.open_tasks = 0


class TaskRequest:
    __slots__ = ("id", "patient", "requested_level", "issued_at", "execution_start_at")

    def __init__(self, id: int, patient: Patient, requested_level: int, issued_at: float):
        self.id = id
        self.patient = patient
        self.requested_level = requested_level
        self.issued_at = issued_at
        self.execution_start_at: Optional[float] = None


class NurseRuntime:
    """One nurse: its trust state, the queues it last took from, the request in its hands, and its totals."""

    __slots__ = ("id", "quality", "role", "trust", "queues", "queues_for", "observed_tasks", "busy", "trainer_attached",
                 "current_request", "decisions", "tasks_success", "tasks_failed", "utility", "time_damage")

    def __init__(self, id: int, quality: NurseQuality, role: Role, trust: TrustState):
        self.id = id
        self.quality = quality
        self.role = role
        self.trust = trust
        self.queues, self.queues_for = (), None  # the pending queues it last decided over, and their levels
        self.observed_tasks = 0
        self.busy = False
        self.trainer_attached = False
        self.current_request: Optional[TaskRequest] = None
        self.decisions = dict.fromkeys(Reason, 0)
        self.tasks_success = 0
        self.tasks_failed = 0
        self.utility = 0
        self.time_damage = 0.0


class Shift:
    """One shift and, once run, its only record; fully determined by (config, seed)."""

    def __init__(self, cfg: SimConfig):
        self.cfg = cfg
        self.rng = Random(cfg.seed)
        self.now = 0.0
        self._heap: list = []
        self._seq = itertools.count()
        self.trace: list = []  # the event log: (time, seq, kind, actor, object), actor and object as raw ids
        self._fifo = cfg.policy is Policy.FIFO
        # Config validation admits FIFO only under the baseline scenario.
        self._training = cfg.scenario is Scenario.TRAINING

        self.doctors: dict[int, DoctorRuntime] = {}
        for idx, (doctor_id, style) in enumerate(cfg.doctors):
            beds = tuple(range(idx * cfg.beds_per_doctor + 1, (idx + 1) * cfg.beds_per_doctor + 1))
            self.doctors[doctor_id] = DoctorRuntime(doctor_id, style, beds)
        # Pending requests by requested level (index level - 1), oldest first.
        self._pending: tuple[deque, ...] = tuple(deque() for _ in LEVELS)
        # Fresh nurses, replacements included, share one trust state.
        self._fresh = TrustState.fresh(cfg)
        self.nurses: dict[int, NurseRuntime] = {
            nurse_id: NurseRuntime(nurse_id, quality, Role.REGULAR, self._fresh) for nurse_id, quality in cfg.nurses
        }
        self.time_damage = 0.0
        self.delay = 0.0

        # The only home of a live patient: spawned and not yet served.
        self.beds: dict[int, Optional[Patient]] = {bed: None for doctor in self.doctors.values() for bed in doctor.beds}
        self.patients_spawned = 0
        self.requests_issued = 0
        self.stalled_at: Optional[float] = None

    # -- scheduling ---------------------------------------------------------

    def _schedule(self, time: float, kind: str, args: tuple = ()) -> None:
        heapq.heappush(self._heap, (time, next(self._seq), kind, args))

    # -- event handlers -----------------------------------------------------

    def _spawn_patient(self, doctor: DoctorRuntime, bed: int) -> tuple:
        level = sample_true_level(self.rng, self.cfg.true_level_distribution)
        self.patients_spawned += 1
        patient = Patient(self.patients_spawned, bed, doctor, level)
        assert self.beds[bed] is None, f"bed {bed} double-occupied"
        self.beds[bed] = patient
        doctor.exams.append(patient)
        if len(doctor.exams) == 1:
            self._begin_exam(patient)
        return patient.id, bed

    def _begin_exam(self, patient: Patient) -> None:
        self._schedule(self.now + self.cfg.exam_duration, EXAM_COMPLETE, (patient,))

    def _handle_exam_complete(self, patient: Patient) -> tuple:
        doctor = patient.doctor
        patient.open_tasks = self.cfg.tasks_per_patient
        for _ in range(self.cfg.tasks_per_patient):
            requested = evaluate_performance_level(patient.true_level, doctor.style)
            self.requests_issued += 1
            self._pending[requested - 1].append(TaskRequest(self.requests_issued, patient, requested, self.now))
        self._broadcast()
        # Patients spawn in (time, id) order, so once the examined patient
        # leaves the queue its head is the one that lay down first.
        doctor.exams.popleft()
        if doctor.exams:
            self._begin_exam(doctor.exams[0])
        return doctor.id, patient.id

    def _broadcast(self) -> None:
        # `self.nurses` is in ascending id order: the roster is sorted by id and
        # a replacement takes the next id after the largest.
        for nurse in self.nurses.values():
            if not nurse.busy:
                self._schedule(self.now, NURSE_DECIDE, (nurse, 0))

    def _handle_nurse_decide(self, nurse: NurseRuntime, make_idle: int) -> tuple:
        if make_idle:
            # Post-prep decide: the nurse returns to the waiting room first.
            nurse.busy = False
        if nurse.busy:
            return nurse.id, ""
        # A nurse takes from every queue under FIFO or while a trainer is attached, else from its levels'.
        levels = LEVELS if self._fifo or nurse.trainer_attached else nurse.trust.levels
        if levels is not nurse.queues_for:
            nurse.queues_for, nurse.queues = levels, tuple([self._pending[level - 1] for level in levels])
        if not any(nurse.queues):
            # No queue the nurse may take from holds a request: it declines without selecting.
            nurse.decisions[_NONE_ELIGIBLE if any(self._pending) else _QUEUE_EMPTY] += 1
            return nurse.id, ""
        pending = [queue[0] for queue in nurse.queues if queue]
        if self._fifo:
            request, reason = select_request_fifo(pending)
        else:
            request, reason = select_request_ca(nurse.trust, pending)
        nurse.decisions[reason] += 1
        head = self._pending[request.requested_level - 1].popleft()
        assert head is request
        nurse.busy = True
        nurse.current_request = request
        self._schedule(self.now + self.cfg.travel_time, EXECUTION_START, (nurse,))
        return nurse.id, request.id

    def _handle_execution_start(self, nurse: NurseRuntime) -> tuple:
        request = nurse.current_request
        request.execution_start_at = self.now
        self._charge_wait(request, self.now)
        # Only a low performer's draw reads the training flag; its bonus is inert
        # before the first observation and persists after the trainer leaves.
        duration = get_task_duration(
            nurse.quality, self._training, nurse.observed_tasks, request.patient.true_level, self.cfg, self.rng
        )
        # Observation credit requires the trainer to witness the execution from
        # its start; attach events later in time do not count this task.
        self._schedule(self.now + duration, TASK_COMPLETE, (nurse, int(nurse.trainer_attached), duration))
        return nurse.id, request.id

    def _charge_wait(self, request: TaskRequest, until: float) -> None:
        """Charge a request's wait from its issue `until` its execution start (or the horizon)."""
        waited = until - request.issued_at
        self.delay += waited
        request.patient.doctor.delay += waited

    def _fold_outcome(self, nurse: NurseRuntime, request: TaskRequest, outcome: TaskOutcome) -> None:
        """Add a completed request's outcome to the nurse's, its doctor's and the shift's totals."""
        doctor = request.patient.doctor
        self.time_damage += outcome.time_damage
        nurse.time_damage += outcome.time_damage
        doctor.time_damage += outcome.time_damage
        if outcome.success:
            nurse.tasks_success += 1
        else:
            nurse.tasks_failed += 1
        nurse.utility += outcome.utility_delta
        doctor.eval_count += 1
        if request.requested_level == request.patient.true_level:
            doctor.eval_hits += 1

    def _spawn_replacement(self) -> None:
        nurse = NurseRuntime(max(self.nurses) + 1, NurseQuality.HIGH, Role.REPLACEMENT, self._fresh)
        self.nurses[nurse.id] = nurse
        self._schedule(self.now, NURSE_DECIDE, (nurse, 0))

    def _handle_task_complete(self, nurse: NurseRuntime, observed: int, duration: float) -> tuple:
        request = nurse.current_request
        outcome = judge_outcome(duration, request.requested_level, self.cfg)
        self._fold_outcome(nurse, request, outcome)

        if not self._fifo:
            before = nurse.trust
            nurse.trust = after = update_trust(before, request.requested_level, outcome.success, self.cfg, self.now)
            # The scenario responds once, when the nurse first classifies itself low.
            if before.classified_low_at is None and after.classified_low_at is not None:
                if self.cfg.scenario is Scenario.REPLACEMENT:
                    self._spawn_replacement()
                elif self._training:
                    nurse.trainer_attached = True
                    nurse.role = Role.TRAINEE

        if observed:
            nurse.observed_tasks += 1
            # Training ends once the accumulated bonus chance reaches the exit threshold.
            bonus = training_bonus_chance(nurse.observed_tasks, self.cfg)
            if nurse.trainer_attached and bonus >= self.cfg.trainer_exit_bonus:
                self._schedule(self.now, TRAINER_EXIT, (nurse,))

        patient = request.patient
        patient.open_tasks -= 1
        if not patient.open_tasks:
            patient.doctor.served += 1
            self.beds[patient.bed] = None
            self._schedule(self.now, PATIENT_SPAWN, (patient.doctor, patient.bed))

        nurse.current_request = None
        self._schedule(self.now + self.cfg.prep_time, NURSE_DECIDE, (nurse, 1))
        return nurse.id, request.id

    def _handle_trainer_exit(self, nurse: NurseRuntime) -> tuple:
        nurse.trainer_attached = False
        return nurse.id, ""

    # -- main loop ----------------------------------------------------------

    def run(self) -> Shift:
        cfg = self.cfg
        self._schedule(cfg.shift_length, SHIFT_END, ())
        order = [
            (doctor, doctor.beds[slot])
            for slot in range(cfg.beds_per_doctor)
            for doctor in (self.doctors[i] for i in sorted(self.doctors))
        ]
        for i, spawn in enumerate(order):
            self._schedule(i * cfg.initial_spawn_interval, PATIENT_SPAWN, spawn)

        handlers = {
            PATIENT_SPAWN: self._spawn_patient,
            EXAM_COMPLETE: self._handle_exam_complete,
            NURSE_DECIDE: self._handle_nurse_decide,
            EXECUTION_START: self._handle_execution_start,
            TASK_COMPLETE: self._handle_task_complete,
            TRAINER_EXIT: self._handle_trainer_exit,
        }
        heap = self._heap
        log = self.trace.append
        while heap:
            time, seq, kind, args = heapq.heappop(heap)
            last_event_at, self.now = self.now, time
            if kind == SHIFT_END:
                # Stalled: nothing but the shift end was left to happen while
                # requests still waited, so no nurse would ever claim them.
                if not heap and any(self._pending):
                    self.stalled_at = last_event_at
                log((time, seq, kind, "", ""))
                break
            actor, obj = handlers[kind](*args)
            log((time, seq, kind, actor, obj))

        return self._finalize()

    def _finalize(self) -> Shift:
        in_hand = (n.current_request for n in self.nurses.values() if n.current_request is not None)
        claimed = [r for r in in_hand if r.execution_start_at is None]
        # Requests that never started wait until the horizon.  They are charged
        # in id order, the order the shift issued them, so the float sums stay
        # the same whichever queue or hand holds them.
        for request in sorted(itertools.chain(claimed, *self._pending), key=attrgetter("id")):
            self._charge_wait(request, self.cfg.shift_length)
        return self

    @property
    def patients_served(self) -> int:
        return sum(doctor.served for doctor in self.doctors.values())


def run_shift(cfg: SimConfig) -> Shift:
    """Execute one complete shift for a validated config."""
    return Shift(cfg).run()
