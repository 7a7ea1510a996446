"""Nurse decision policies: FIFO selection and the trustee-side trust model."""
from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from typing import Iterable, Optional

from .behavior import training_bonus_chance
from .domain import LEVELS, RELIABILITY_INIT, Scenario, SimConfig


@dataclass(frozen=True)
class TrustState:
    """Self-trust per requested level plus an overall reliability score.

    `classified_low_at` latches the simulation time of the one-time transition
    into the self-classified low-performing state; it is never cleared.
    """

    weights: tuple[float, ...]
    reliability: float
    classified_low_at: Optional[float] = None

    @staticmethod
    def fresh(cfg: SimConfig) -> "TrustState":
        return TrustState(weights=(cfg.trust_init,) * len(LEVELS), reliability=RELIABILITY_INIT)

    def weight(self, level: int) -> float:
        return self.weights[level - 1]


class Reason(Enum):
    ACCEPTED = "accepted"
    NONE_ELIGIBLE = "none_eligible"
    QUEUE_EMPTY = "queue_empty"


@dataclass(frozen=True)
class SelectionDecision:
    chosen: Optional[object]  # the winning request, or None
    reason: Reason


class ScenarioSignal(Enum):
    NONE = "none"
    SPAWN_REPLACEMENT = "spawn_replacement"
    ATTACH_TRAINER = "attach_trainer"


def select_request_fifo(pending: Iterable) -> SelectionDecision:
    """Take the earliest pending request; ties break on the smaller request id.

    `pending` may be every pending request or only the oldest one of each
    requested level: the earliest of those heads is the earliest of all.
    """
    best = min(pending, key=lambda r: (r.issued_at, r.id), default=None)
    if best is None:
        return SelectionDecision(None, Reason.QUEUE_EMPTY)
    return SelectionDecision(best, Reason.ACCEPTED)


def select_request_ca(
    trust: TrustState,
    restricted: bool,
    training_active: bool,
    pending: Iterable,
    cfg: SimConfig,
) -> SelectionDecision:
    """Pick the pending request the nurse trusts itself most on, if any.

    While a trainer is attached every request is eligible.  A restricted
    (self-classified low) nurse only considers levels up to the easy cap and
    only while its weight there clears the restricted threshold.  Otherwise a
    request is eligible when its level's weight clears the accept threshold.
    Ties on weight break on the earlier issue time, then the smaller id.

    `pending` may be every pending request or only the oldest one of each
    requested level.  Eligibility and weight depend only on the level, so the
    winner is always some level's oldest request, and the heads alone give the
    same decision, including NONE_ELIGIBLE versus QUEUE_EMPTY.
    """
    pending = list(pending)
    if not pending:
        return SelectionDecision(None, Reason.QUEUE_EMPTY)

    if training_active:
        eligible = pending
    elif restricted:
        eligible = [
            r
            for r in pending
            if r.requested_level <= cfg.easy_level_cap
            and trust.weight(r.requested_level) >= cfg.restricted_accept_threshold
        ]
    else:
        eligible = [r for r in pending if trust.weight(r.requested_level) >= cfg.accept_threshold]

    if not eligible:
        return SelectionDecision(None, Reason.NONE_ELIGIBLE)
    best = min(eligible, key=lambda r: (-trust.weight(r.requested_level), r.issued_at, r.id))
    return SelectionDecision(best, Reason.ACCEPTED)


def update_trust(
    trust: TrustState,
    requested_level: int,
    success: bool,
    cfg: SimConfig,
    now: float,
) -> tuple[TrustState, ScenarioSignal]:
    """Fold one task outcome into the trust state and raise any scenario signal.

    Both the per-level weight and the reliability score move by an exponential
    moving average toward 1 on success and 0 on failure.  The first time
    reliability drops below the threshold the nurse classifies itself as a low
    performer, emitting the signal the active scenario responds to.
    """
    alpha = cfg.trust_learning_rate
    fb = 1.0 if success else 0.0
    idx = requested_level - 1
    weights = tuple(
        (1.0 - alpha) * w + alpha * fb if i == idx else w for i, w in enumerate(trust.weights)
    )
    reliability = (1.0 - alpha) * trust.reliability + alpha * fb

    signal = ScenarioSignal.NONE
    classified_at = trust.classified_low_at
    if reliability < cfg.reliability_threshold and classified_at is None:
        classified_at = now
        if cfg.scenario is Scenario.REPLACEMENT:
            signal = ScenarioSignal.SPAWN_REPLACEMENT
        elif cfg.scenario is Scenario.TRAINING:
            signal = ScenarioSignal.ATTACH_TRAINER

    return replace(trust, weights=weights, reliability=reliability, classified_low_at=classified_at), signal


def trainer_should_exit(observed_tasks: int, cfg: SimConfig) -> bool:
    """Training ends once the accumulated bonus chance reaches the exit threshold."""
    return training_bonus_chance(observed_tasks, cfg) >= cfg.trainer_exit_bonus
