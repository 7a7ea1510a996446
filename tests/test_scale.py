"""Scale tier of the seeded sweep: large rosters, long horizons, stalls and mass replacement.

`test_golden.py`'s sweep stops at 8 doctors and 5 000 s.  These configs reach
40 to 120 doctors (three nurses for every four doctors, three beds each) and
20 000 to 200 000 s, where under CA most events are decides and few of them
accept.  Each config runs once, through the invariant checker, which compares
every 1 000th event and the last, and its output bytes are pinned.

The configs beyond the tier-1 time budget carry the `scale` marker, which
`pyproject.toml` deselects; run them with `python -m pytest -m scale tests/test_scale.py`.
"""
from __future__ import annotations

import hashlib
import random
from pathlib import Path

import pytest

from edsim.domain import Policy
from edsim.metrics import render_trace, run_rows, write_csvs

from conftest import COMBOS, make_config, run_with_invariant_checks

STYLES = ("correct", "over", "under")
ROSTERS = (40, 60, 80, 120)  # doctors
HORIZONS = (20000, 50000, 200000)


def scale_configs(seed: int = 186) -> list[dict]:
    """Five raw configs drawn from one seeded generator.

    The first four are the four combos in a drawn order.  A fifth CA config
    declines from the start: its `trustInit` sits below both accept
    thresholds, so no nurse ever takes a request and the shift stalls.  The
    replacement combo's roster is all low, so every nurse that classifies
    itself spawns a replacement.  Doctors times horizon stays at most 8e6
    (40 doctors for 200 000 s), which bounds each shift's event log.
    """
    rng = random.Random(seed)
    combos = sorted(COMBOS)
    rng.shuffle(combos)
    combos.append(rng.choice([combo for combo in sorted(COMBOS) if COMBOS[combo][1] == "ca"]))
    configs = []
    for k, combo in enumerate(combos):
        scenario, policy = COMBOS[combo]
        all_low = scenario == "replacement" and k < 4
        doctors = rng.choice(ROSTERS)
        horizon = rng.choice([h for h in HORIZONS if doctors * h <= 8_000_000])
        raw = {
            "seed": str(rng.randrange(10**6)),
            "scenario": scenario,
            "policy": policy,
            "shiftLength": str(horizon),
            "doctors": ", ".join(f"{i}:{rng.choice(STYLES)}" for i in range(1, doctors + 1)),
            "nurses": ", ".join(
                f"{i}:{'low' if all_low or rng.random() < 1 / 3 else 'high'}" for i in range(1, doctors * 3 // 4 + 1)
            ),
            "bedsPerDoctor": "3",
            "bedCount": str(3 * doctors),
        }
        if k == 4:
            raw["trustInit"] = repr(round(rng.uniform(0.05, 0.35), 3))
        configs.append(raw)
    return configs


SCALE = scale_configs()
# SHA-256 over each config's runs/doctors/nurses CSVs as `run` writes them and
# its rendered trace.  The comments give each shift's size and its wall time
# through the checker on a 2-vCPU Xeon (Python 3.11).
SCALE_DIGESTS = (
    # baseline-ca, 120 x 90, 20 000 s: 224 051 events, 0.8 s
    "87bc0bcf0d2ba210c79ff2e30632a07638ed2a676837c1d43fd33bd88aa1aeaa",
    # baseline-fifo, 60 x 45, 50 000 s: 215 884 events, 1.0 s
    "48117a3cf99be59af7cde1495dbf8b134a633e5824350410aeae7d6e067acc15",
    # training-ca, 40 x 30, 200 000 s: 594 172 events, stalls at 192 943.7 s, 2.1 s
    "26611f991ddcaceb8485245e578dabcf72f3b3564582a03e1a00f6d2c20f7229",
    # replacement-ca, 40 x 30 all low, 20 000 s: 262 324 events, 1.3 s
    "162d26f63ad2131eb528944737acbd6d81483b4595b78848cb5c19d8a589d559",
    # training-ca, 80 x 60, trustInit 0.206, 50 000 s: 14 881 events, stalls at 249 s, 0.1 s
    "6a112de9bfe1f4feadce3e99fd0559f64e6879268fb97ac85e0c70d34fd0aad4",
)
# The configs that fit the tier-1 budget; the others carry the `scale` marker.
TIER_1 = {0, 4}


def test_scale_tier_covers_the_corners():
    doctors = [raw["doctors"].count(":") for raw in SCALE]
    horizons = [int(raw["shiftLength"]) for raw in SCALE]
    assert {(raw["scenario"], raw["policy"]) for raw in SCALE} == set(COMBOS.values())
    assert min(doctors) == ROSTERS[0] and max(doctors) == ROSTERS[-1]
    assert min(horizons) == HORIZONS[0] and max(horizons) == HORIZONS[-1]
    # One CA roster declines every request from the first decide on.
    configs = [make_config(**raw) for raw in SCALE]
    declining = [
        cfg for cfg in configs if cfg.trust_init < min(cfg.accept_threshold, cfg.restricted_accept_threshold)
    ]
    assert len(declining) == 1 and declining[0].policy is Policy.CA_TRUST
    # One replacement roster is all low.
    assert any(raw["scenario"] == "replacement" and "high" not in raw["nurses"] for raw in SCALE)


def _digest(result, out: Path) -> str:
    digest = hashlib.sha256()
    paths = write_csvs([run_rows(f"run-{result.cfg.seed:08d}", result)], str(out))
    for name in ("runs", "doctors", "nurses"):
        digest.update(Path(paths[name]).read_bytes())
    # The log is rendered in slices, so its whole text is never held.
    step = 10_000
    for start in range(0, len(result.trace), step):
        digest.update(render_trace(result.trace[start:start + step]).encode("utf-8"))
    return digest.hexdigest()


@pytest.mark.parametrize(
    "k", [pytest.param(k, marks=() if k in TIER_1 else pytest.mark.scale) for k in range(len(SCALE))]
)
def test_scale_digest_and_invariants(k, monkeypatch, tmp_path):
    result = run_with_invariant_checks(make_config(**SCALE[k]), monkeypatch, every=1000)
    assert _digest(result, tmp_path) == SCALE_DIGESTS[k]
