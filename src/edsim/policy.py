"""Nurse decision policies: FIFO selection and the trust model; the engine owns the scenario response."""
from __future__ import annotations

from enum import Enum
from typing import Iterable, NamedTuple, Optional

from .domain import LEVELS, RELIABILITY_INIT, SimConfig


class TrustState(NamedTuple):
    """Self-trust per requested level plus an overall reliability score.

    `classified_low_at` latches the simulation time of the one-time transition
    into the self-classified low-performing state; it is never cleared.
    """

    weights: tuple[float, ...]
    reliability: float
    classified_low_at: Optional[float] = None

    @staticmethod
    def fresh(cfg: SimConfig) -> "TrustState":
        return TrustState((cfg.trust_init,) * len(LEVELS), RELIABILITY_INIT)


class Reason(Enum):
    ACCEPTED = "accepted"
    NONE_ELIGIBLE = "none_eligible"
    QUEUE_EMPTY = "queue_empty"

    # Enum compares members by identity, so the identity hash agrees with
    # equality and skips Enum's Python-level `__hash__`; the engine counts
    # every decision in a dict keyed by reason.
    __hash__ = object.__hash__


class SelectionDecision(NamedTuple):
    chosen: Optional[object]  # the winning request, or None
    reason: Reason


# Enum's metaclass defines `__getattr__`, which puts every member lookup through
# the class (`Reason.ACCEPTED`) on a slow path; the selectors run once per
# decision, so they use these module constants.  A decline carries no request,
# so its decision is shared.
_ACCEPTED = Reason.ACCEPTED
_QUEUE_EMPTY = SelectionDecision(None, Reason.QUEUE_EMPTY)
_NONE_ELIGIBLE = SelectionDecision(None, Reason.NONE_ELIGIBLE)


def select_request_fifo(pending: Iterable) -> SelectionDecision:
    """Take the earliest pending request; ties break on the smaller request id.

    `pending` may be every pending request or only the oldest one of each
    requested level: the earliest of those heads is the earliest of all.
    """
    best = None
    for r in pending:
        if best is None or (r.issued_at, r.id) < (best.issued_at, best.id):
            best = r
    return _QUEUE_EMPTY if best is None else SelectionDecision(best, _ACCEPTED)


def select_request_ca(
    trust: TrustState,
    trainer_attached: bool,
    pending: Iterable,
    cfg: SimConfig,
) -> SelectionDecision:
    """Pick the pending request the nurse trusts itself most on, if any.

    While a trainer is attached every request is eligible.  Otherwise a nurse
    that has classified itself low (`trust.classified_low_at` is set) is
    restricted: it only considers levels up to the easy cap and only while its
    weight there clears the restricted threshold.  Any other nurse takes a
    request when its level's weight clears the accept threshold.
    Ties on weight break on the earlier issue time, then the smaller id.

    `pending` may be every pending request or only the oldest one of each
    requested level.  Eligibility and weight depend only on the level, so the
    winner is always some level's oldest request, and the heads alone give the
    same decision, including NONE_ELIGIBLE versus QUEUE_EMPTY.
    """
    weights = trust.weights
    if trust.classified_low_at is not None:
        cap, threshold = cfg.easy_level_cap, cfg.restricted_accept_threshold
    else:
        cap, threshold = len(LEVELS), cfg.accept_threshold
    seen = False
    best, best_w = None, 0.0
    for r in pending:
        seen = True
        level = r.requested_level
        w = weights[level - 1]
        if not trainer_attached and (level > cap or w < threshold):
            continue
        if best is None or w > best_w or (w == best_w and (r.issued_at, r.id) < (best.issued_at, best.id)):
            best, best_w = r, w
    if best is not None:
        return SelectionDecision(best, _ACCEPTED)
    return _NONE_ELIGIBLE if seen else _QUEUE_EMPTY


def update_trust(
    trust: TrustState,
    requested_level: int,
    success: bool,
    cfg: SimConfig,
    now: float,
) -> TrustState:
    """Fold one task outcome into the trust state.

    Both the per-level weight and the reliability score move by an exponential
    moving average toward 1 on success and 0 on failure.  The first time
    reliability drops below the threshold the nurse classifies itself as a low
    performer: `classified_low_at` latches `now` and is never cleared.
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
    return TrustState(weights, reliability, classified_at)
