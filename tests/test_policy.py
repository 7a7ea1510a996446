from __future__ import annotations

import random
from dataclasses import dataclass

import pytest

from edsim.behavior import training_bonus_chance
from edsim.domain import LEVELS, NurseQuality, Role, validate_config
from edsim.engine import run_shift
from edsim.policy import Reason, TrustState, eligible_levels, select_request_ca, select_request_fifo, update_trust


@dataclass(frozen=True)
class Req:
    id: int
    issued_at: float
    requested_level: int


def fresh_trust(cfg):
    return TrustState.fresh(cfg)


def trust_state(weights, reliability, classified_low_at, cfg):
    """A trust state whose kept levels are what the eligibility rule gives for the rest."""
    trust = TrustState(tuple(weights), reliability, classified_low_at, ())
    return trust._replace(levels=eligible_levels(trust, cfg))


def trust_with(cfg, **weights):
    base = list(fresh_trust(cfg).weights)
    for key, value in weights.items():
        base[int(key[1:]) - 1] = value
    return trust_state(base, 1.0, None, cfg)


def classified(trust, cfg, at=1.0):
    """The same trust state after the nurse classified itself low at `at`."""
    return trust_state(trust.weights, trust.reliability, at, cfg)


def decide(trust, trainer_attached, pending, cfg):
    """What the engine decides: the pending requests of the nurse's eligible
    levels (every level while a trainer is attached), ranked by the selector;
    with none left, the decline reason."""
    levels = LEVELS if trainer_attached else eligible_levels(trust, cfg)
    eligible = [r for r in pending if r.requested_level in levels]
    if eligible:
        return tuple(select_request_ca(trust, eligible))
    return None, Reason.NONE_ELIGIBLE if pending else Reason.QUEUE_EMPTY


CFG = validate_config({})


def test_fifo_earliest_first():
    r1, r2 = Req(1, 10.0, 2), Req(2, 12.0, 5)
    decision = select_request_fifo([r2, r1])
    assert decision.reason is Reason.ACCEPTED
    assert decision.chosen is r1


def test_fifo_tie_breaks_exhaustively():
    # Oracle: enumerate both orderings of every two-request combination.
    for t1 in (10.0, 12.0):
        for t2 in (10.0, 12.0):
            a, b = Req(7, t1, 1), Req(9, t2, 4)
            expected = min([a, b], key=lambda r: (r.issued_at, r.id))
            for pending in ([a, b], [b, a]):
                assert select_request_fifo(pending).chosen is expected


def test_fifo_ignores_trust_weights():
    a, b = Req(3, 5.0, 5), Req(4, 6.0, 1)
    assert select_request_fifo([a, b]).chosen is a


def test_ca_equal_weights_picks_earlier_issue():
    pending = [Req(1, 10.0, 2), Req(2, 11.0, 5)]
    decision = select_request_ca(fresh_trust(CFG), pending)
    assert decision.reason is Reason.ACCEPTED and decision.chosen.id == 1


def test_ca_prefers_higher_weight():
    trust = trust_with(CFG, w4=0.9)
    pending = [Req(1, 10.0, 2), Req(2, 11.0, 4)]
    assert select_request_ca(trust, pending).chosen.id == 2


def test_ca_threshold_excludes_low_weight_levels():
    # Only level 2 misses the accept threshold; the threshold itself is eligible.
    assert eligible_levels(trust_with(CFG, w2=0.49), CFG) == (1, 3, 4, 5)
    assert eligible_levels(trust_with(CFG, w2=0.5), CFG) == LEVELS


def test_restricted_easy_task_allowed():
    cfg = validate_config({"restrictedAcceptThreshold": "0.2"})
    trust = trust_with(cfg, w1=0.3)
    assert eligible_levels(trust, cfg) == (2, 3, 4, 5)
    assert eligible_levels(classified(trust, cfg), cfg) == (1, 2)
    pending = [Req(1, 10.0, 1), Req(2, 10.0, 4)]
    assert decide(trust, False, pending, cfg)[0].id == 2
    assert decide(classified(trust, cfg), False, pending, cfg)[0].id == 1


def test_restricted_rejects_levels_above_cap():
    levels = eligible_levels(classified(fresh_trust(CFG), CFG), CFG)
    assert levels == tuple(range(1, CFG.easy_level_cap + 1))
    assert 3 not in levels


def test_restricted_never_returns_barred_requests():
    rng = random.Random(42)
    for _ in range(500):
        trust = TrustState(tuple(rng.random() for _ in range(5)), 1.0, rng.random() * 100, ())
        for level in eligible_levels(trust, CFG):
            assert level <= CFG.easy_level_cap
            assert trust.weights[level - 1] >= CFG.restricted_accept_threshold


def test_training_bypasses_all_gates():
    # Every patient needs level 5, above the easy cap.  The low nurse fails
    # each task; starting from full trust with a low accept threshold, it
    # still takes level 5 until its third failure latches, and then no level-5
    # request is eligible.  Under training the trainer that attaches at that
    # moment lets it claim them all the same; under baseline it never claims again.
    claims_after_latch = {}
    for scenario in ("training", "baseline"):
        cfg = validate_config({
            "scenario": scenario, "doctors": "1:correct", "nurses": "1:low", "bedsPerDoctor": "1",
            "bedCount": "1", "trueLevelDistribution": "0, 0, 0, 0, 1", "trustInit": "1",
            "acceptThreshold": "0.3", "seed": "5",
        })
        result = run_shift(cfg)
        nurse = result.nurses[1]
        latched = nurse.trust.classified_low_at
        assert latched is not None and 5 not in nurse.trust.levels
        claims = [t for t, _, k, _, o in result.trace if k == "nurse_decide" and o != ""]
        claims_after_latch[scenario] = sum(t > latched for t in claims)
        assert nurse.role is (Role.TRAINEE if scenario == "training" else Role.REGULAR)
    assert claims_after_latch["training"] > 0 and claims_after_latch["baseline"] == 0


def test_update_trust_ema_arithmetic():
    trust = trust_with(CFG, w3=0.5)
    updated = update_trust(trust, 3, True, CFG, now=1.0)
    assert updated.weights[2] == pytest.approx(0.65)
    assert updated.classified_low_at is None


def test_reliability_classifies_on_third_consecutive_failure():
    # Brute-force replay of the EMA: 1.0 -> 0.7 -> 0.49 -> 0.343 < 0.4.
    trust = fresh_trust(CFG)
    times = [10.0, 20.0, 30.0]
    latched = []
    for now in times:
        trust = update_trust(trust, 3, False, CFG, now)
        latched.append(trust.classified_low_at)
    assert latched == [None, None, 30.0]
    assert trust.reliability == pytest.approx(0.343)


def test_classification_latch_emits_once():
    # The latch sets once, at the third failure, and later failures keep its time.
    trust = fresh_trust(CFG)
    latched = []
    for now in (1.0, 2.0, 3.0, 4.0, 5.0):
        trust = update_trust(trust, 2, False, CFG, now)
        latched.append(trust.classified_low_at)
    assert latched == [None, None, 3.0, 3.0, 3.0]
    # Later successes never clear the latch.
    trust = update_trust(trust, 2, True, CFG, 6.0)
    assert trust.classified_low_at == 3.0


def test_latch_needs_reliability_strictly_below_threshold():
    # With both rates at 0.5, one failure leaves reliability at exactly the
    # threshold, which is not below it; the second failure latches.
    cfg = validate_config({"trustLearningRate": "0.5", "reliabilityThreshold": "0.5"})
    trust = update_trust(fresh_trust(cfg), 2, False, cfg, 1.0)
    assert trust.reliability == 0.5 and trust.classified_low_at is None
    trust = update_trust(trust, 2, False, cfg, 2.0)
    assert trust.reliability == 0.25 and trust.classified_low_at == 2.0


def test_weights_stay_in_unit_interval():
    rng = random.Random(7)
    trust = fresh_trust(CFG)
    for step in range(2000):
        level = rng.randint(1, 5)
        trust = update_trust(trust, level, rng.random() < 0.5, CFG, float(step))
        assert all(0.0 <= w <= 1.0 for w in trust.weights)
        assert 0.0 <= trust.reliability <= 1.0


def test_update_replay_is_deterministic():
    rng = random.Random(11)
    outcomes = [(rng.randint(1, 5), rng.random() < 0.4) for _ in range(200)]

    def replay():
        trust = fresh_trust(CFG)
        for now, (level, success) in enumerate(outcomes):
            trust = update_trust(trust, level, success, CFG, float(now))
        return trust

    assert replay() == replay()


def test_trainer_exit_threshold():
    # The engine ends training once the bonus chance reaches the exit bonus.
    def exits(observed):
        return training_bonus_chance(observed, CFG) >= CFG.trainer_exit_bonus

    assert not exits(0)
    assert not exits(8)  # 0.8 < 0.9
    assert exits(9)  # 0.9 >= 0.9
    assert exits(15)


def test_high_performer_rarely_classifies_low(acceptance_grids):
    # A 0.9-success EMA stream trips the 0.4 threshold only after runs of
    # failures (about 3% of 20-task streams), so self-classification of a
    # high performer must stay a rare event across the whole acceptance grid.
    total = classified = 0
    for grid in acceptance_grids.values():
        for results in grid.values():
            for r in results:
                for nurse in r.nurses.values():
                    if nurse.quality is NurseQuality.HIGH:
                        total += 1
                        if nurse.trust.classified_low_at is not None:
                            classified += 1
    assert total > 700
    assert classified / total < 0.05


def test_reliability_needs_three_consecutive_failures_from_full_trust():
    # From reliability 1.0, two failures reach 0.49 (still above 0.4) and a
    # success pulls the score straight back up; only a third consecutive
    # failure crosses the threshold.
    trust = fresh_trust(CFG)
    trust = update_trust(trust, 1, False, CFG, 1.0)
    trust = update_trust(trust, 1, False, CFG, 2.0)
    assert trust.reliability == pytest.approx(0.49)
    assert trust.classified_low_at is None
    recovered = update_trust(trust, 1, True, CFG, 3.0)
    assert recovered.reliability == pytest.approx(0.643)
    assert recovered.classified_low_at is None


# Reference copies of the selectors and the trust update as first written
# (filter, then a keyed `min`; a per-call `dataclasses.replace`), kept to check
# the single-pass rewrites against.
def reference_fifo(pending):
    return min(pending, key=lambda r: (r.issued_at, r.id)), Reason.ACCEPTED


def reference_ca(trust, trainer_attached, pending, cfg):
    pending = list(pending)
    if not pending:
        return None, Reason.QUEUE_EMPTY
    if trainer_attached:
        eligible = pending
    elif trust.classified_low_at is not None:
        eligible = [
            r
            for r in pending
            if r.requested_level <= cfg.easy_level_cap
            and trust.weights[r.requested_level - 1] >= cfg.restricted_accept_threshold
        ]
    else:
        eligible = [r for r in pending if trust.weights[r.requested_level - 1] >= cfg.accept_threshold]
    if not eligible:
        return None, Reason.NONE_ELIGIBLE
    return min(eligible, key=lambda r: (-trust.weights[r.requested_level - 1], r.issued_at, r.id)), Reason.ACCEPTED


def reference_update_trust(trust, requested_level, success, cfg, now):
    alpha = cfg.trust_learning_rate
    fb = 1.0 if success else 0.0
    idx = requested_level - 1
    weights = tuple((1.0 - alpha) * w + alpha * fb if i == idx else w for i, w in enumerate(trust.weights))
    reliability = (1.0 - alpha) * trust.reliability + alpha * fb
    classified_at = trust.classified_low_at
    if reliability < cfg.reliability_threshold and classified_at is None:
        classified_at = now
    return weights, reliability, classified_at


def bits(trust):
    return [w.hex() for w in trust.weights], trust.reliability.hex(), trust.classified_low_at


# Weights on and around both thresholds, so ties and boundary cases are common.
TIE_WEIGHTS = (0.0, 0.35, 0.4, 0.45, 0.5, 0.55, 1.0)
DIFF_CFGS = [
    validate_config({"easyLevelCap": str(cap), "restrictedAcceptThreshold": rt})
    for cap in (1, 2, 3, 4)
    for rt in ("0.4", "0.5")
]


def random_pending(rng):
    # Queue heads (one per level, as the engine passes) or an arbitrary list.
    if rng.random() < 0.5:
        levels = rng.sample(range(1, 6), rng.randint(0, 5))
    else:
        levels = [rng.randint(1, 5) for _ in range(rng.randint(0, 7))]
    ids = rng.sample(range(1, 50), len(levels))
    return [Req(i, rng.choice((0.0, 5.0, 5.0, 10.0)), level) for i, level in zip(ids, levels)]


def test_selectors_match_reference_implementations():
    rng = random.Random(2024)
    reasons = set()
    ca_reasons = {"restricted": set(), "unrestricted": set()}
    for _ in range(20000):
        cfg = rng.choice(DIFF_CFGS)
        # The restriction comes from the latch: unset, or set at some time.
        classified_at = rng.choice((0.0, 5.0, 30.0)) if rng.random() < 0.4 else None
        trust = trust_state((rng.choice(TIE_WEIGHTS) for _ in range(5)), 1.0, classified_at, cfg)
        trainer_attached = rng.random() < 0.2
        pending = random_pending(rng)
        chosen, reason = decide(trust, trainer_attached, pending, cfg)
        want_chosen, want_reason = reference_ca(trust, trainer_attached, pending, cfg)
        assert chosen is want_chosen and reason is want_reason
        reasons.add(want_reason)
        if not trainer_attached:
            ca_reasons["restricted" if classified_at is not None else "unrestricted"].add(want_reason)
        if pending:
            decision = select_request_fifo(pending)
            want_chosen, want_reason = reference_fifo(pending)
            assert decision.chosen is want_chosen and decision.reason is want_reason
    assert reasons == set(Reason)
    assert ca_reasons == {"restricted": set(Reason), "unrestricted": set(Reason)}


@pytest.mark.parametrize("scenario", ["baseline", "replacement", "training"])
def test_update_trust_matches_reference_bit_for_bit(scenario):
    # The scenario does not enter the trust model: every scenario latches alike.
    rng = random.Random(99)
    cfg = validate_config({"scenario": scenario})
    latches = crossings = 0
    for _ in range(300):
        trust = trust_state(
            (rng.choice((rng.random(),) + TIE_WEIGHTS) for _ in range(5)),
            rng.random(),
            rng.choice((None, None, 3.0)),
            cfg,
        )
        for step in range(20):
            level, success, now = rng.randint(1, 5), rng.random() < 0.6, float(step)
            updated = update_trust(trust, level, success, cfg, now)
            assert bits(updated) == bits(trust_state(*reference_update_trust(trust, level, success, cfg, now), cfg))
            # The kept levels are the rule's, and the same tuple unless the
            # latch set or the moved weight crossed the nurse's threshold;
            # without the latch, a new tuple means a changed set.
            assert updated.levels == eligible_levels(updated, cfg)
            latched = trust.classified_low_at is None and updated.classified_low_at is not None
            if trust.classified_low_at is None:
                threshold = cfg.accept_threshold
            else:
                threshold = cfg.restricted_accept_threshold
            crossed = (trust.weights[level - 1] >= threshold) != (updated.weights[level - 1] >= threshold)
            if not (latched or crossed):
                assert updated.levels is trust.levels
            if not latched:
                assert (updated.levels is trust.levels) == (updated.levels == trust.levels)
            latches += latched
            crossings += crossed and not latched
            trust = updated
    assert latches > 0 and crossings > 0
