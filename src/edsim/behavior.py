"""Doctor difficulty estimation, nurse task-duration sampling, and outcome judging."""
from __future__ import annotations

from random import Random
from typing import NamedTuple

from .domain import EvaluationStyle, NurseQuality, SimConfig

# Expected execution time, in seconds, that a doctor attaches to each requested
# difficulty level.  Harder tasks are shorter: they map to urgent interventions.
BASE_DURATIONS = {1: 60.0, 2: 50.0, 3: 40.0, 4: 30.0, 5: 20.0}

# Delay ranges for a task that misses its expected duration.  `uniform` can
# round a draw to either end of its range, each with probability below 1e-15.
ABOVE_BASE_RANGES = {
    1: (60.0, 70.0),
    2: (50.0, 70.0),
    3: (40.0, 50.0),
    4: (30.0, 40.0),
    5: (20.0, 30.0),
}


class TaskOutcome(NamedTuple):
    success: bool
    time_damage: float
    utility_delta: int


# Enum's metaclass defines `__getattr__`, which puts every member lookup through
# the class on a slow path; the duration draw runs once per task.
_LOW = NurseQuality.LOW


def evaluate_performance_level(true_level: int, style: EvaluationStyle) -> int:
    """Map a task's true difficulty to the level a doctor requests.

    Overestimating doctors push everything to 3 or 5, underestimating doctors
    to 3 or 1; accurate doctors return the true level unchanged.
    """
    if style is EvaluationStyle.OVERESTIMATES:
        return 3 if true_level <= 2 else 5
    if style is EvaluationStyle.UNDERESTIMATES:
        return 3 if true_level >= 4 else 1
    return true_level


def training_bonus_chance(observed_tasks: int, cfg: SimConfig) -> float:
    """Chance a trainee hits the base duration after `observed_tasks` observations."""
    return min(max(observed_tasks * cfg.trainer_bonus_per_task, 0.0), 1.0)


def get_task_duration(
    quality: NurseQuality, training_active: bool, observed_tasks: int, true_level: int, cfg: SimConfig, rng: Random
) -> float:
    """Sample how long, in seconds, a nurse takes on a task of the given true difficulty.

    High performers hit the base duration with probability
    `highPerformerGoodChance`.  Low performers always overrun, unless they are
    the trainee of the training scenario, where accumulated observations grant
    a growing chance of hitting the base duration.  Only a low performer's draw
    reads `training_active`.
    """
    if quality is _LOW:
        hit = training_active and rng.random() <= training_bonus_chance(observed_tasks, cfg)
    else:
        hit = rng.random() <= cfg.high_performer_good_chance
    return BASE_DURATIONS[true_level] if hit else rng.uniform(*ABOVE_BASE_RANGES[true_level])


def judge_outcome(actual: float, requested_level: int, cfg: SimConfig) -> TaskOutcome:
    """Judge a completed task against the duration the doctor requested.

    Success means finishing within the requested duration; any overrun is time
    damage.  Utility moves by the requested level, downward on failure when the
    failure penalty is enabled.
    """
    requested_duration = BASE_DURATIONS[requested_level]
    success = actual <= requested_duration
    damage = max(0.0, actual - requested_duration)
    if success:
        delta = requested_level
    else:
        delta = -requested_level if cfg.utility_failure_penalty else 0
    return TaskOutcome(success, damage, delta)
