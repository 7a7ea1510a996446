from __future__ import annotations

import pytest

from edsim.behavior import (
    base_duration_for_level,
    evaluate_performance_level,
    get_task_duration,
    judge_outcome,
    random_duration_above_base,
    training_bonus_chance,
)
from edsim.domain import EvaluationStyle, NurseQuality, Rng, validate_config

CORRECT = EvaluationStyle.CORRECT
OVER = EvaluationStyle.OVERESTIMATES
UNDER = EvaluationStyle.UNDERESTIMATES

# The full estimation table: (true level, style) -> requested level.
ESTIMATION_TABLE = {
    (1, OVER): 3, (2, OVER): 3, (3, OVER): 5, (4, OVER): 5, (5, OVER): 5,
    (1, UNDER): 1, (2, UNDER): 1, (3, UNDER): 1, (4, UNDER): 3, (5, UNDER): 3,
    (1, CORRECT): 1, (2, CORRECT): 2, (3, CORRECT): 3, (4, CORRECT): 4, (5, CORRECT): 5,
}


class ScriptedRng:
    """Feeds a fixed sequence of unit draws; counts consumption like Rng."""

    def __init__(self, units):
        self._units = list(units)
        self.draw_count = 0

    def uniform_unit(self):
        self.draw_count += 1
        return self._units.pop(0)

    def uniform_range(self, lo, hi):
        return lo + (hi - lo) * self.uniform_unit()


@pytest.mark.parametrize("true_level,style", list(ESTIMATION_TABLE))
def test_estimation_table(true_level, style):
    assert evaluate_performance_level(true_level, style) == ESTIMATION_TABLE[(true_level, style)]


def test_estimation_image_per_style():
    for level in (1, 2, 3, 4, 5):
        assert evaluate_performance_level(level, OVER) in (3, 5)
        assert evaluate_performance_level(level, UNDER) in (1, 3)
        assert evaluate_performance_level(level, CORRECT) == level


def test_base_durations():
    assert [base_duration_for_level(l) for l in (1, 2, 3, 4, 5)] == [60.0, 50.0, 40.0, 30.0, 20.0]


def test_random_duration_ranges():
    rng = Rng(11)
    expected = {1: (60, 70), 2: (50, 70), 3: (40, 50), 4: (30, 40), 5: (20, 30)}
    for level, (lo, hi) in expected.items():
        for _ in range(500):
            v = random_duration_above_base(level, rng)
            assert lo <= v < hi


def test_random_duration_edges():
    assert random_duration_above_base(3, ScriptedRng([0.0])) == 40.0
    # Linear map of the unit draw: 50 + 0.5 * (70 - 50).
    assert random_duration_above_base(2, ScriptedRng([0.5])) == 60.0


def test_duration_always_at_least_base():
    rng = Rng(13)
    for level in (1, 2, 3, 4, 5):
        base = base_duration_for_level(level)
        assert all(random_duration_above_base(level, rng) >= base for _ in range(2000))


def test_training_bonus_chance():
    cfg = validate_config({})
    assert training_bonus_chance(0, cfg) == 0.0
    assert training_bonus_chance(4, cfg) == pytest.approx(0.4)
    assert training_bonus_chance(15, cfg) == 1.0


def test_high_performer_good_roll_hits_base():
    cfg = validate_config({})
    rng = ScriptedRng([0.5])
    assert get_task_duration(NurseQuality.HIGH, False, 0, 3, cfg, rng) == 40.0
    assert rng.draw_count == 1


def test_high_performer_bad_roll_overruns():
    cfg = validate_config({})
    rng = ScriptedRng([0.95, 0.5])
    assert get_task_duration(NurseQuality.HIGH, False, 0, 3, cfg, rng) == 45.0
    assert rng.draw_count == 2


def test_low_performer_always_overruns_untrained():
    cfg = validate_config({})
    rng = Rng(17)
    for _ in range(2000):
        before = rng.draw_count
        seconds = get_task_duration(NurseQuality.LOW, False, 0, 5, cfg, rng)
        assert 20.0 <= seconds < 30.0
        assert rng.draw_count - before == 1


def test_trainee_with_saturated_bonus_hits_base():
    # clamp(10 * 0.1) = 1.0 forces the bonus branch regardless of the roll.
    cfg = validate_config({})
    rng = ScriptedRng([0.3])
    assert get_task_duration(NurseQuality.LOW, True, 10, 1, cfg, rng) == 60.0
    assert rng.draw_count == 1  # the bonus roll alone: no overrun draw followed


def test_trainee_missed_bonus_consumes_two_draws():
    cfg = validate_config({})
    rng = ScriptedRng([0.9, 0.0])
    assert get_task_duration(NurseQuality.LOW, True, 2, 4, cfg, rng) == 30.0
    assert rng.draw_count == 2  # the missed bonus roll, then the overrun draw


def test_high_performer_empirical_success_rate():
    # With accurate estimation, success frequency equals the good-roll chance.
    cfg = validate_config({})
    rng = Rng(99)
    trials = 100_000
    successes = 0
    for _ in range(trials):
        seconds = get_task_duration(NurseQuality.HIGH, False, 0, 3, cfg, rng)
        if judge_outcome(seconds, 3, cfg).success:
            successes += 1
    assert abs(successes / trials - cfg.high_performer_good_chance) < 0.01


def test_trainee_success_monotone_in_observations():
    cfg = validate_config({})
    rates = []
    for observed in (0, 3, 6, 9):
        rng = Rng(500 + observed)
        wins = 0
        for _ in range(20_000):
            before = rng.draw_count
            get_task_duration(NurseQuality.LOW, True, observed, 2, cfg, rng)
            wins += rng.draw_count - before == 1  # a bonus hit needs no overrun draw
        rates.append(wins / 20_000)
    assert rates == sorted(rates)


def test_judge_outcome_success_and_failure():
    cfg = validate_config({})
    ok = judge_outcome(40.0, 3, cfg)
    assert ok.success and ok.time_damage == 0.0 and ok.utility_delta == 3

    bad = judge_outcome(47.3, 3, cfg)
    assert not bad.success
    assert bad.time_damage == pytest.approx(7.3)
    assert bad.utility_delta == -3


def test_judge_outcome_underestimation_can_still_succeed():
    # Level 1 requested for a true level 3 task: the 60 s budget covers [40, 50).
    cfg = validate_config({})
    out = judge_outcome(45.0, 1, cfg)
    assert out.success
    assert out.time_damage == 0.0


def test_judge_outcome_failure_penalty_switch():
    cfg = validate_config({"utilityFailurePenalty": "off"})
    out = judge_outcome(47.3, 3, cfg)
    assert not out.success
    assert out.utility_delta == 0


def test_success_iff_zero_damage():
    cfg = validate_config({})
    rng = Rng(321)
    for _ in range(5000):
        level = 1 + int(rng.uniform_unit() * 5)
        actual = rng.uniform_range(10.0, 80.0)
        out = judge_outcome(actual, level, cfg)
        assert out.success == (out.time_damage == 0.0)
