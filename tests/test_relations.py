"""Metamorphic relations over seeded random configs.

The golden, sweep and scale digests pin the bytes of configs someone chose.
These relations need no reference output: each compares two runs of one drawn
config that the model says must agree, so they hold for configs nobody pinned.

- Horizon prefix: a shift of length T logs the same events before T as a
  longer shift of the same config, seq column included, then its shift end.
- FIFO ignores trust: `trustInit`, `trustLearningRate` and
  `reliabilityThreshold` change neither the log nor any CSV row under FIFO.
- Replacement waits for the latch: replacement-ca logs the same events as
  baseline-ca before the first nurse classifies itself low, and all of them
  when none does.

Training has no such relation with baseline: a low performer's duration draw
takes one more uniform whenever training is active, before any latch.
"""
from __future__ import annotations

import random

import pytest

from edsim.engine import SHIFT_END, run_shift
from edsim.metrics import run_rows

from conftest import COMBOS, SEED_BASES, make_config
from test_scale import SCALE

STYLES = ("correct", "over", "under")
TRUST_KEYS = ("trustInit", "trustLearningRate", "reliabilityThreshold")


def relation_configs(seed: int = 11, count: int = 30) -> list[dict]:
    """`count` raw configs without scenario or policy, drawn from one seeded generator.

    1-10 doctors with 1-3 beds each, 1-10 nurses, mixed styles and qualities,
    200-6 000 s, and seeds taken in turn from the three acceptance seed bases.
    """
    rng = random.Random(seed)
    configs = []
    for i in range(count):
        doctors = rng.randint(1, 10)
        beds = rng.randint(1, 3)
        configs.append({
            "seed": str(SEED_BASES[i % len(SEED_BASES)] + i),
            "shiftLength": str(rng.randint(200, 6000)),
            "doctors": ", ".join(f"{d}:{rng.choice(STYLES)}" for d in range(1, doctors + 1)),
            "nurses": ", ".join(f"{n}:{rng.choice(('low', 'high'))}" for n in range(1, rng.randint(1, 10) + 1)),
            "bedsPerDoctor": str(beds),
            "bedCount": str(doctors * beds),
            "tasksPerPatient": str(rng.randint(1, 3)),
        })
    return configs


CONFIGS = relation_configs()


def _run(combo: str, raw: dict, **overrides):
    scenario, policy = COMBOS[combo]
    return run_shift(make_config(**dict(raw, scenario=scenario, policy=policy, **overrides)))


def _prefix(trace: list, until: float) -> list:
    return [event for event in trace if event[0] < until]


@pytest.mark.parametrize("combo", sorted(COMBOS))
def test_horizon_prefix(combo):
    rng = random.Random(combo)
    for raw in CONFIGS:
        longer = _run(combo, raw)
        horizon = rng.randint(100, int(raw["shiftLength"]) - 1)
        shorter = _run(combo, raw, shiftLength=str(horizon))
        assert shorter.trace[:-1] == _prefix(longer.trace, horizon), raw
        assert shorter.trace[-1] == (horizon, 0, SHIFT_END, "", "")


@pytest.mark.scale
def test_horizon_prefix_at_scale():
    # 60 doctors x 45 nurses under FIFO, 50 000 s, cut at 20 000 s.
    raw = SCALE[1]
    longer = run_shift(make_config(**raw))
    shorter = run_shift(make_config(**dict(raw, shiftLength="20000")))
    assert shorter.trace[:-1] == _prefix(longer.trace, 20000)
    assert shorter.trace[-1] == (20000, 0, SHIFT_END, "", "")


def test_fifo_ignores_trust():
    rng = random.Random(5)
    for raw in CONFIGS:
        plain = _run("baseline-fifo", raw)
        trust = {key: repr(round(rng.uniform(0.0, 1.0), 3)) for key in TRUST_KEYS}
        changed = _run("baseline-fifo", raw, **trust)
        assert changed.trace == plain.trace, (raw, trust)
        assert run_rows("run", changed) == run_rows("run", plain), (raw, trust)


def _first_latch(result):
    return min((n.trust.classified_low_at for n in result.nurses.values() if n.trust.classified_low_at is not None),
               default=None)


def test_replacement_matches_baseline_before_the_first_latch():
    latched = 0
    for raw in CONFIGS:
        baseline, replacement = _run("baseline-ca", raw), _run("replacement-ca", raw)
        latch = _first_latch(baseline)
        assert _first_latch(replacement) == latch, raw
        if latch is None:
            assert replacement.trace == baseline.trace, raw
        else:
            latched += 1
            assert _prefix(replacement.trace, latch) == _prefix(baseline.trace, latch), raw
    # Most drawn rosters have a low nurse that classifies itself.
    assert latched > len(CONFIGS) // 2
