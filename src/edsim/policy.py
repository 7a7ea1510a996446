"""Nurse decision policies: trust, eligibility and selection; the engine owns the scenario response."""
from __future__ import annotations

from enum import Enum
from typing import Iterable, NamedTuple, Optional

from .domain import LEVELS, RELIABILITY_INIT, SimConfig


class TrustState(NamedTuple):
    """Self-trust per requested level plus an overall reliability score.

    `classified_low_at` latches the simulation time of the one-time transition
    into the self-classified low-performing state; it is never cleared.
    `levels` is `eligible_levels` of the rest, kept by `update_trust`.
    """

    weights: tuple[float, ...]
    reliability: float
    classified_low_at: Optional[float]
    levels: tuple[int, ...]

    @staticmethod
    def fresh(cfg: SimConfig) -> "TrustState":
        trust = TrustState((cfg.trust_init,) * len(LEVELS), RELIABILITY_INIT, None, ())
        return TrustState(trust.weights, RELIABILITY_INIT, None, eligible_levels(trust, cfg))


class Reason(Enum):
    ACCEPTED = "accepted"
    NONE_ELIGIBLE = "none_eligible"
    QUEUE_EMPTY = "queue_empty"

    # Enum compares members by identity, so the identity hash agrees with
    # equality and skips Enum's Python-level `__hash__`; the engine counts
    # every decision in a dict keyed by reason.
    __hash__ = object.__hash__


class SelectionDecision(NamedTuple):
    chosen: object  # the winning request
    reason: Reason


# Enum's metaclass defines `__getattr__`, which puts every member lookup through
# the class (`Reason.ACCEPTED`) on a slow path; the selectors run once per
# accepted decision, so they use this module constant.
_ACCEPTED = Reason.ACCEPTED


def _gate(classified_low_at: Optional[float], cfg: SimConfig) -> tuple[int, float]:
    """The easy cap and the weight threshold: the restricted ones once the nurse has classified itself low."""
    if classified_low_at is not None:
        return cfg.easy_level_cap, cfg.restricted_accept_threshold
    return len(LEVELS), cfg.accept_threshold


def eligible_levels(trust: TrustState, cfg: SimConfig) -> tuple[int, ...]:
    """The requested levels a nurse with no trainer attached may take, ascending:
    once it has classified itself low, the levels up to the easy cap whose
    weight clears the restricted threshold; else the levels whose weight clears
    the accept threshold.  An attached trainer lets a nurse take every level."""
    cap, threshold = _gate(trust.classified_low_at, cfg)
    weights = trust.weights
    return tuple([level for level in LEVELS[:cap] if weights[level - 1] >= threshold])


def select_request_fifo(pending: Iterable) -> SelectionDecision:
    """Take the earliest request of a non-empty `pending`; ties break on the smaller request id.

    `pending` may be every pending request or only the oldest one of each
    requested level: the earliest of those heads is the earliest of all.
    """
    best = None
    for r in pending:
        if best is None or (r.issued_at, r.id) < (best.issued_at, best.id):
            best = r
    return SelectionDecision(best, _ACCEPTED)


def select_request_ca(trust: TrustState, pending: Iterable) -> SelectionDecision:
    """Take the request of a non-empty `pending` that the nurse trusts itself most on.

    Ties on weight break on the earlier issue time, then the smaller id.  The
    caller passes only requests the nurse may take.  Weight depends only on the
    level, so the winner is always some level's oldest request, and the heads
    of those levels' queues alone give the same decision.
    """
    weights = trust.weights
    best, best_w = None, 0.0
    for r in pending:
        w = weights[r.requested_level - 1]
        if best is None or w > best_w or (w == best_w and (r.issued_at, r.id) < (best.issued_at, best.id)):
            best, best_w = r, w
    return SelectionDecision(best, _ACCEPTED)


def update_trust(trust: TrustState, requested_level: int, success: bool, cfg: SimConfig, now: float) -> TrustState:
    """Fold one task outcome into the trust state.

    Both the per-level weight and the reliability score move by an exponential
    moving average toward 1 on success and 0 on failure.  The first time
    reliability drops below the threshold the nurse classifies itself as a low
    performer: `classified_low_at` latches `now` and is never cleared.  The
    eligible levels are recomputed only when the latch sets or the one weight
    that moved crosses the threshold at a level within the cap; otherwise they
    are the same tuple.
    """
    alpha = cfg.trust_learning_rate
    fb = 1.0 if success else 0.0
    weights = trust.weights
    idx = requested_level - 1
    weights = weights[:idx] + ((1.0 - alpha) * weights[idx] + alpha * fb,) + weights[idx + 1 :]
    reliability = (1.0 - alpha) * trust.reliability + alpha * fb

    classified_at = trust.classified_low_at
    if reliability < cfg.reliability_threshold and classified_at is None:
        classified_at = now
    else:
        # Otherwise the levels change only when the one weight that moved crosses the threshold within the cap.
        cap, threshold = _gate(classified_at, cfg)
        if idx >= cap or (trust.weights[idx] >= threshold) == (weights[idx] >= threshold):
            return TrustState(weights, reliability, classified_at, trust.levels)
    updated = TrustState(weights, reliability, classified_at, ())  # the rule reads all but the levels
    return TrustState(weights, reliability, classified_at, eligible_levels(updated, cfg))
