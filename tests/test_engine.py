from __future__ import annotations

from collections import Counter

import pytest

import edsim.engine as engine
from edsim.domain import LEVELS, NurseQuality, Role
from edsim.engine import Shift, run_shift
from edsim.metrics import render_trace, run_rows, write_csvs
from edsim.policy import Reason, eligible_levels, select_request_ca, select_request_fifo

from conftest import COMBOS, SEED_BASES, CountingRandom, census, make_config, record_requests, run_with_invariant_checks


class AllHalfRng(CountingRandom):
    """Every unit draw is 0.5: good rolls everywhere, midpoint durations."""

    def random(self):
        super().random()
        return 0.5


def one_bed_config(**overrides):
    settings = dict(
        doctors="1:correct",
        nurses="1:high",
        bedsPerDoctor=1,
        bedCount=1,
        shiftLength=100,
        trueLevelDistribution="0, 0, 0, 0, 1",
    )
    settings.update(overrides)
    return make_config(**settings)


def test_hand_traced_single_bed_timeline(monkeypatch):
    # Hand-computed oracle, all rolls forced good and true level forced to 5:
    #   p1 spawns at 0, exam 0-10, request at 10, claim at 10, start 15,
    #   duration 20 -> done 35 (success, +5 utility, 5 s delay); the freed bed
    #   respawns immediately, so p2 completes at 70 and p3 is still executing
    #   when the shift ends at 100.
    monkeypatch.setattr(engine, "Random", AllHalfRng)
    result = run_shift(one_bed_config())

    expected = [
        (0.0, "patient_spawn", 1, 1),
        (10.0, "exam_complete", 1, 1),
        (10.0, "nurse_decide", 1, 1),
        (15.0, "execution_start", 1, 1),
        (35.0, "task_complete", 1, 1),
        (35.0, "patient_spawn", 2, 1),
        (40.0, "nurse_decide", 1, ""),
        (45.0, "exam_complete", 1, 2),
        (45.0, "nurse_decide", 1, 2),
        (50.0, "execution_start", 1, 2),
        (70.0, "task_complete", 1, 2),
        (70.0, "patient_spawn", 3, 1),
        (75.0, "nurse_decide", 1, ""),
        (80.0, "exam_complete", 1, 3),
        (80.0, "nurse_decide", 1, 3),
        (85.0, "execution_start", 1, 3),
        (100.0, "shift_end", "", ""),
    ]
    assert [(t, k, a, o) for t, _, k, a, o in result.trace] == expected
    assert result.patients_served == 2
    assert result.patients_spawned == 3
    assert result.delay == pytest.approx(15.0)
    assert result.time_damage == 0.0
    assert result.nurses[1].tasks_success == 2
    assert result.nurses[1].tasks_failed == 0
    assert result.nurses[1].utility == 10
    assert census(result) == {"pending": 0, "claimed": 0, "executing": 1, "occupied_beds": 1}
    assert result.requests_issued == 3
    # Draw order: one per spawn, one good roll per execution start.
    assert result.rng.draw_count == 6


def test_zero_length_shift_is_empty(monkeypatch):
    monkeypatch.setattr(engine, "Random", CountingRandom)
    result = run_shift(one_bed_config(shiftLength=0))
    assert [e[2] for e in result.trace] == ["shift_end"]
    assert result.patients_served == 0
    assert result.patients_spawned == 0
    assert result.rng.draw_count == 0


def test_initial_spawn_sequence_round_robins_across_doctors():
    cfg = make_config(seed=1)
    result = run_shift(cfg)
    spawns = [(t, a, o) for t, _, k, a, o in result.trace if k == "patient_spawn"][:9]
    expected_beds = [1, 4, 7, 2, 5, 8, 3, 6, 9]
    assert [bed for _, _, bed in spawns] == expected_beds
    assert [t for t, _, _ in spawns] == [float(i) for i in range(9)]


def test_doctor_bed_blocks_are_contiguous():
    sim = Shift(make_config())
    assert sim.doctors[1].beds == (1, 2, 3)
    assert sim.doctors[2].beds == (4, 5, 6)
    assert sim.doctors[3].beds == (7, 8, 9)


def test_doctor_examines_in_lie_down_order(monkeypatch):
    monkeypatch.setattr(engine, "Random", AllHalfRng)
    cfg = make_config(
        doctors="1:correct",
        nurses="1:high",
        bedsPerDoctor=3,
        bedCount=3,
        shiftLength=35,
        trueLevelDistribution="0, 0, 0, 0, 1",
    )
    result = run_shift(cfg)
    exams = [(t, o) for t, _, k, a, o in result.trace if k == "exam_complete"]
    assert exams == [(10.0, 1), (20.0, 2), (30.0, 3)]


def test_smaller_nurse_id_claims_first(monkeypatch):
    monkeypatch.setattr(engine, "Random", AllHalfRng)
    cfg = make_config(
        doctors="1:correct",
        nurses="1:high, 2:high",
        bedsPerDoctor=1,
        bedCount=1,
        shiftLength=40,
        trueLevelDistribution="0, 0, 0, 0, 1",
    )
    result = run_shift(cfg)
    decides = [(t, a, o) for t, _, k, a, o in result.trace if k == "nurse_decide"]
    assert decides[0] == (10.0, 1, 1)  # nurse 1 claims the only request
    assert decides[1] == (10.0, 2, "")  # nurse 2 finds the queue empty


def test_no_idle_nurse_means_request_waits(monkeypatch):
    monkeypatch.setattr(engine, "Random", AllHalfRng)
    cfg = make_config(
        doctors="1:correct",
        nurses="1:high",
        bedsPerDoctor=2,
        bedCount=2,
        shiftLength=30,
        trueLevelDistribution="0, 0, 0, 0, 1",
    )
    result = run_shift(cfg)
    # Second exam finishes at 20 while the nurse executes until 35: no decide
    # event fires at 20 and the request stays pending at shift end.
    assert not any(k == "nurse_decide" and t == 20.0 for t, _, k, _, _ in result.trace)
    assert census(result)["pending"] == 1


def test_identical_seed_reproduces_bytes(tmp_path):
    cfg = make_config(seed=42)
    a, b = run_shift(cfg), run_shift(cfg)
    assert render_trace(a.trace) == render_trace(b.trace)
    dir_a, dir_b = tmp_path / "a", tmp_path / "b"
    write_csvs([run_rows("run-42", a)], str(dir_a))
    write_csvs([run_rows("run-42", b)], str(dir_b))
    for name in ("runs.csv", "doctors.csv", "nurses.csv"):
        assert (dir_a / name).read_bytes() == (dir_b / name).read_bytes()


def test_different_seeds_differ():
    assert render_trace(run_shift(make_config(seed=1)).trace) != render_trace(run_shift(make_config(seed=2)).trace)


def test_replacement_spawns_on_third_failure():
    # The accept threshold is lowered so the lone low performer keeps taking
    # tasks (whatever their levels) until her reliability trips the latch.
    cfg = make_config(
        scenario="replacement",
        doctors="1:correct",
        nurses="1:low",
        bedsPerDoctor=1,
        bedCount=1,
        acceptThreshold=0.2,
        seed=3,
    )
    result = run_shift(cfg)
    assert (result.nurses[2].quality, result.nurses[2].role) == (NurseQuality.HIGH, Role.REPLACEMENT)
    completions = [t for t, _, k, a, _ in result.trace if k == "task_complete" and a == 1]
    classified_at = result.nurses[1].trust.classified_low_at
    # Reliability walks 1.0 -> 0.7 -> 0.49 -> 0.343: the third completion trips it.
    assert classified_at == completions[2]
    first_decide_n2 = min(t for t, _, k, a, _ in result.trace if k == "nurse_decide" and a == 2)
    assert first_decide_n2 == classified_at


def test_replacement_nurse_starts_fresh_and_executes():
    cfg = make_config(scenario="replacement", seed=11)
    result = run_shift(cfg)
    repl_ids = [i for i, n in result.nurses.items() if n.role is Role.REPLACEMENT]
    assert repl_ids, "expected a replacement nurse with the case-study roster"
    nid = repl_ids[0]
    assert result.nurses[nid].tasks_success + result.nurses[nid].tasks_failed > 0


def test_trainer_attaches_observes_nine_and_exits():
    cfg = make_config(
        scenario="training",
        doctors="1:correct",
        nurses="1:low",
        bedsPerDoctor=1,
        bedCount=1,
        seed=5,
    )
    result = run_shift(cfg)
    assert (result.nurses[1].quality, result.nurses[1].role) == (NurseQuality.LOW, Role.TRAINEE)
    exits = [t for t, _, k, a, _ in result.trace if k == "trainer_exit"]
    assert len(exits) == 1
    # Exit fires once the bonus chance reaches 0.9, i.e. the ninth observation,
    # and the observation count persists afterwards.
    assert result.nurses[1].observed_tasks == 9
    classified_at = result.nurses[1].trust.classified_low_at
    assert classified_at is not None and classified_at < exits[0]


def test_classifying_completion_is_not_observed():
    cfg = make_config(
        scenario="training",
        doctors="1:correct",
        nurses="1:low",
        bedsPerDoctor=1,
        bedCount=1,
        shiftLength=400,
        seed=5,
    )
    result = run_shift(cfg)
    completions = [t for t, _, k, a, _ in result.trace if k == "task_complete" and a == 1]
    classified_at = result.nurses[1].trust.classified_low_at
    observed_after = sum(1 for t in completions if t > classified_at)
    assert result.nurses[1].observed_tasks == min(observed_after, 9)


@pytest.mark.parametrize("base", SEED_BASES)
def test_scenario_response_follows_the_latch(base, acceptance_grids):
    # The engine responds once per nurse, when its latch first sets: replacement
    # spawns one nurse, training attaches one trainer that leaves at most once.
    classified = Counter()
    for combo, results in acceptance_grids[base].items():
        for r in results:
            nurses = r.nurses.values()
            roles = Counter(n.role for n in nurses)
            latched = [n for n in nurses if n.trust.classified_low_at is not None]
            classified[combo] += len(latched)
            exits = Counter(actor for _, _, kind, actor, _ in r.trace if kind == "trainer_exit")
            if combo == "replacement-ca":
                assert roles[Role.REPLACEMENT] == len(latched) and not roles[Role.TRAINEE]
            elif combo == "training-ca":
                assert all((n.role is Role.TRAINEE) == (n.trust.classified_low_at is not None) for n in nurses)
                # One exit at most, and exactly when the trainer has left.
                assert all(exits[n.id] == (n.role is Role.TRAINEE and not n.trainer_attached) for n in nurses)
                assert not roles[Role.REPLACEMENT]
            else:
                assert roles == {Role.REGULAR: len(r.nurses)}
            if combo != "training-ca":
                assert not exits
    assert classified["replacement-ca"] > 0 and classified["baseline-ca"] > 0
    assert classified["training-ca"] > 0 and classified["baseline-fifo"] == 0


@pytest.mark.parametrize("combo", list(COMBOS))
@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
def test_conservation_and_consistency(combo, seed):
    scenario, policy = COMBOS[combo]
    result = run_shift(make_config(scenario=scenario, policy=policy, seed=seed))
    open_work = census(result)

    assert result.patients_spawned == result.patients_served + open_work["occupied_beds"]
    done = sum(n.tasks_success + n.tasks_failed for n in result.nurses.values())
    assert open_work["pending"] + open_work["claimed"] + open_work["executing"] + done == result.requests_issued

    assert result.time_damage == pytest.approx(sum(d.time_damage for d in result.doctors.values()))
    assert result.time_damage == pytest.approx(sum(n.time_damage for n in result.nurses.values()))
    assert result.delay == pytest.approx(sum(d.delay for d in result.doctors.values()))
    accepted = sum(n.decisions[Reason.ACCEPTED] for n in result.nurses.values())
    assert accepted == open_work["claimed"] + open_work["executing"] + done

    # No request is executed twice and the clock never runs backwards.
    starts = [o for _, _, k, _, o in result.trace if k == "execution_start"]
    assert len(starts) == len(set(starts))
    times = [t for t, *_ in result.trace]
    assert times == sorted(times)


def test_correct_doctors_have_perfect_eval_accuracy():
    result = run_shift(make_config(seed=9))
    for doctor_id in (1, 2, 3):
        acc = result.doctors[doctor_id].eval_accuracy
        if acc is not None:
            assert acc == 1.0


def test_unstarted_requests_accrue_horizon_delay():
    cfg = make_config(
        doctors="1:correct",
        nurses="1:high",
        bedsPerDoctor=2,
        bedCount=2,
        shiftLength=30,
        trueLevelDistribution="0, 0, 0, 0, 1",
        seed=1,
    )
    result = run_shift(cfg)
    # Request 1: issued 10, started 15 -> 5 s. Request 2: issued 20, never
    # started -> 30 - 20 = 10 s.
    assert result.delay == pytest.approx(15.0)


STYLES = ("correct", "over", "under")
# 40 doctors x 30 nurses, every third nurse low.  Over the default 1000 s the
# backlog grows past 50 pending requests in every combo.
LARGE_ROSTER = dict(
    doctors=", ".join(f"{i}:{STYLES[i % 3]}" for i in range(1, 41)),
    nurses=", ".join(f"{i}:{'low' if i % 3 == 0 else 'high'}" for i in range(1, 31)),
    bedsPerDoctor=3,
    bedCount=120,
)
STATES = {
    "long-horizon": dict(shiftLength=20000),
    "large-roster": LARGE_ROSTER,
    "all-low": dict(nurses="1:low, 2:low, 3:low", shiftLength=20000),
}


@pytest.mark.parametrize("combo", list(COMBOS))
def test_decisions_match_full_rescan(combo, monkeypatch):
    # A selector sees only the non-empty heads of the queues the nurse may take
    # from, and a nurse whose queues are all empty declines without selecting.
    # Every decision, those declines included, must be what the eligibility
    # rule and the selector give over every pending request of the shift,
    # among them each nurse's first decision after its levels change, after
    # its trainer attaches and after its trainer leaves.
    scenario, policy = COMBOS[combo]
    issued = record_requests(monkeypatch)
    cfg = make_config(scenario=scenario, policy=policy, seed=3, **LARGE_ROSTER)
    sim = Shift(cfg)
    seen = Counter()
    last_state = {}  # nurse id -> its (levels, trainer_attached) at its last decision
    claimed, logged = set(), 0

    def all_pending():
        nonlocal logged
        # A claim is a decide in the log so far, whose object is the claimed request.
        claimed.update(o for _, _, k, _, o in sim.trace[logged:] if k == "nurse_decide" and o != "")
        logged = len(sim.trace)
        pending = [r for r in issued if r.id not in claimed]
        seen["max_backlog"] = max(seen["max_backlog"], len(pending))
        return pending

    def heads(pending, decision):
        assert 1 <= len(pending) <= len(LEVELS)
        seen["selections"] += 1
        return decision

    def fifo(pending):
        return heads(pending, select_request_fifo(pending))

    def ca(trust, pending):
        return heads(pending, select_request_ca(trust, pending))

    def full_rescan(nurse):
        pending = eligible = all_pending()
        if not sim._fifo and not nurse.trainer_attached:
            levels = eligible_levels(nurse.trust, cfg)
            eligible = [r for r in pending if r.requested_level in levels]
        if eligible:
            return select_request_fifo(eligible) if sim._fifo else select_request_ca(nurse.trust, eligible)
        return None, Reason.NONE_ELIGIBLE if pending else Reason.QUEUE_EMPTY

    decide = sim._handle_nurse_decide

    def checked_decide(nurse, make_idle):
        if nurse.busy and not make_idle:
            return decide(nurse, make_idle)
        chosen, reason = full_rescan(nurse)
        seen["restricted"] += nurse.trust.classified_low_at is not None and not nurse.trainer_attached
        seen["training"] += nurse.trainer_attached
        levels, attached = last_state.get(nurse.id, (nurse.trust.levels, nurse.trainer_attached))
        seen["after_crossing"] += levels is not nurse.trust.levels and not nurse.trainer_attached
        seen["after_attach"] += nurse.trainer_attached and not attached
        seen["after_exit"] += attached and not nurse.trainer_attached
        last_state[nurse.id] = nurse.trust.levels, nurse.trainer_attached
        counts = dict(nurse.decisions)
        actor, obj = decide(nurse, make_idle)
        assert [r for r in Reason if nurse.decisions[r] != counts[r]] == [reason]
        assert nurse.current_request is chosen and obj == ("" if chosen is None else chosen.id)
        seen["decisions"] += 1
        return actor, obj

    monkeypatch.setattr(engine, "select_request_fifo", fifo)
    monkeypatch.setattr(engine, "select_request_ca", ca)
    sim._handle_nurse_decide = checked_decide
    result = sim.run()

    assert seen["decisions"] == sum(sum(n.decisions.values()) for n in result.nurses.values())
    assert seen["max_backlog"] > 10 * len(LEVELS)
    # Declines that went around the selector were compared all the same.
    assert 0 < seen["selections"] < seen["decisions"]
    if combo in ("baseline-ca", "replacement-ca"):
        assert seen["restricted"] > 0
    if combo != "baseline-fifo":
        assert seen["after_crossing"] > 0
    if combo == "training-ca":
        assert seen["training"] > 0 and seen["after_attach"] > 0 and seen["after_exit"] > 0


@pytest.mark.parametrize("combo", list(COMBOS))
def test_delay_sums_in_start_order_then_issue_order(combo, monkeypatch):
    # The delay totals are output bytes, so the order of their float sums is
    # pinned: each request as its execution starts, then every request that
    # never started, whether still queued or already claimed, by id.
    scenario, policy = COMBOS[combo]
    issued = record_requests(monkeypatch)
    cfg = make_config(scenario=scenario, policy=policy, seed=2, **LARGE_ROSTER)
    result = run_shift(cfg)
    by_id = {r.id: r for r in issued}
    started = [by_id[o] for _, _, k, _, o in result.trace if k == "execution_start"]
    claimed = {o for _, _, k, _, o in result.trace if k == "nurse_decide"}
    unstarted = [r for r in issued if r.execution_start_at is None]
    assert len({r.requested_level for r in unstarted if r.id not in claimed}) > 1
    assert census(result)["claimed"] > 0

    waits = [(r, r.execution_start_at - r.issued_at) for r in started]
    waits += [(r, cfg.shift_length - r.issued_at) for r in unstarted]
    total, per_doctor = 0.0, dict.fromkeys(result.doctors, 0.0)
    for r, waited in waits:
        total += waited
        per_doctor[r.patient.doctor.id] += waited
    assert result.delay == total
    assert {i: d.delay for i, d in result.doctors.items()} == per_doctor


def test_broadcast_visits_idle_nurses_in_ascending_id_order():
    # `_broadcast` walks `sim.nurses` in insertion order, which is ascending id
    # order only because the roster is sorted and replacements take the next id.
    sim = Shift(make_config(scenario="replacement", seed=3, **LARGE_ROSTER))
    original = set(sim.nurses)
    broadcast, schedule = sim._broadcast, sim._schedule
    seen = Counter()

    def recording_broadcast():
        expected = sorted(n.id for n in sim.nurses.values() if not n.busy)
        visited = []
        sim._schedule = lambda time, kind, args=(): (visited.append(args[0].id), schedule(time, kind, args))
        try:
            broadcast()
        finally:
            sim._schedule = schedule
        assert visited == expected
        seen["after_replacement"] += bool(set(visited) - original) and bool(set(visited) & original)

    sim._broadcast = recording_broadcast
    result = sim.run()
    assert [n.role for n in result.nurses.values()].count(Role.REPLACEMENT) >= 2
    assert seen["after_replacement"] > 0


@pytest.mark.parametrize("combo", list(COMBOS))
@pytest.mark.parametrize("state", list(STATES))
def test_invariants_hold_after_every_event(state, combo, monkeypatch):
    scenario, policy = COMBOS[combo]
    run_with_invariant_checks(make_config(scenario=scenario, policy=policy, seed=3, **STATES[state]), monkeypatch)


def test_decision_counts_show_trust_collapse():
    result = run_shift(make_config(trustInit=0.1, acceptThreshold=0.5))
    for nurse in result.nurses.values():
        assert nurse.decisions[Reason.ACCEPTED] == 0
        assert nurse.decisions[Reason.NONE_ELIGIBLE] > 0


def test_stall_is_recorded_when_no_nurse_accepts():
    result = run_shift(make_config(trustInit=0.1, acceptThreshold=0.5))
    # The last exam completes at 32 s; every nurse then declines every level
    # for good and only the shift end is left.
    assert result.stalled_at == 32.0
    assert census(result)["pending"] == 9


def test_fifo_run_does_not_stall():
    assert run_shift(make_config(policy="fifo")).stalled_at is None
