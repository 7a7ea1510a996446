from __future__ import annotations

from random import Random

import pytest

from edsim.behavior import ABOVE_BASE_RANGES
from edsim.domain import (
    ConfigError,
    EvaluationStyle,
    NurseQuality,
    Policy,
    Scenario,
    SimConfig,
    _CONFIG_KEYS,
    config_echo,
    sample_true_level,
    validate_config,
)

from conftest import CountingRandom


def test_defaults_match_case_study_roster():
    cfg = validate_config({})
    assert cfg.scenario is Scenario.BASELINE
    assert cfg.policy is Policy.CA_TRUST
    assert [s for _, s in cfg.doctors] == [EvaluationStyle.CORRECT] * 3
    assert [q for _, q in cfg.nurses] == [NurseQuality.LOW, NurseQuality.HIGH]
    assert cfg.bed_count == 9
    assert cfg.bed_count == cfg.beds_per_doctor * len(cfg.doctors)
    assert abs(sum(cfg.true_level_distribution) - 1.0) < 1e-9
    # Building SimConfig directly gives the same defaults as validating an empty config.
    assert SimConfig() == cfg
    assert SimConfig(seed=5) == validate_config({"seed": "5"})


def test_fifo_outside_baseline_rejected():
    for scenario in ("replacement", "training"):
        with pytest.raises(ConfigError, match=rf"baseline scenario \(got scenario={scenario}\)") as err:
            validate_config({"policy": "fifo", "scenario": scenario})
        assert err.value.key == "policy"
    validate_config({"policy": "fifo", "scenario": "baseline"})


def test_topology_mismatch_rejected():
    with pytest.raises(ConfigError, match=r"^bedCount must equal .* \(3 x 3 = 9\), got 8$") as err:
        validate_config({"bedCount": "8"})
    assert err.value.key == "bedCount"


def test_unknown_key_rejected():
    with pytest.raises(ConfigError) as err:
        validate_config({"bedsPerNurse": "2"})
    assert err.value.key == "bedsPerNurse"


@pytest.mark.parametrize(
    "key,value",
    [
        ("trustLearningRate", "1.5"),
        ("acceptThreshold", "-0.1"),
        ("shiftLength", "-1"),
        ("tasksPerPatient", "0"),
        ("easyLevelCap", "6"),
        ("trueLevelDistribution", "0.5, 0.5, 0.5, 0, 0"),
        ("trueLevelDistribution", "1, 0, 0, 0, nan"),
        ("trueLevelDistribution", "nan, nan, nan, nan, nan"),
        ("seed", "-3"),
    ]
    # Every seconds key, infinite or not a number.
    + [(name, v) for name, key in _CONFIG_KEYS.items() if key.kind == "seconds" for v in ("inf", "1e400", "nan")],
)
def test_out_of_domain_fields_rejected(key, value):
    with pytest.raises(ConfigError, match=rf"^{key} ") as err:
        validate_config({key: value})
    assert err.value.key == key


def test_roster_parsing_from_text():
    cfg = validate_config({"doctors": "1:correct, 2:over, 3:under", "nurses": "1:low, 2:high"})
    assert cfg.doctors == (
        (1, EvaluationStyle.CORRECT),
        (2, EvaluationStyle.OVERESTIMATES),
        (3, EvaluationStyle.UNDERESTIMATES),
    )


def test_validation_is_pure():
    raw = {"seed": "7", "scenario": "training", "doctors": "1:correct, 2:over, 3:under"}
    assert validate_config(dict(raw)) == validate_config(dict(raw))


def test_config_echo_round_trips():
    cfg = validate_config({"seed": "99", "scenario": "replacement", "trustInit": "0.25"})
    echoed = {}
    for line in config_echo(cfg).splitlines():
        k, v = line.split("=", 1)
        echoed[k.strip()] = v.strip()
    assert validate_config(echoed) == cfg


def test_config_file_parsing(tmp_path):
    from edsim.domain import parse_config_file

    path = tmp_path / "shift.cfg"
    path.write_text(
        "# case study setup\n"
        "seed = 7\n"
        "scenario = training  # mentor attached on self-classification\n"
        "\n"
        "doctors = 1:correct, 2:over, 3:under\n",
        encoding="utf-8",
    )
    raw = parse_config_file(str(path))
    assert raw == {"seed": "7", "scenario": "training", "doctors": "1:correct, 2:over, 3:under"}
    cfg = validate_config(raw)
    assert cfg.scenario is Scenario.TRAINING


def test_config_file_duplicate_key(tmp_path):
    path = tmp_path / "dup.cfg"
    path.write_text("seed = 1\nseed = 2\n", encoding="utf-8")
    from edsim.domain import parse_config_file

    with pytest.raises(ConfigError):
        parse_config_file(str(path))


def test_level_validation():
    for level in (1, 2, 3, 4, 5):
        assert validate_config({"easyLevelCap": str(level)}).easy_level_cap == level
    for bad in ("0", "6", "-1", "2.5", "true"):
        with pytest.raises(ConfigError, match="^easyLevelCap must be an integer") as err:
            validate_config({"easyLevelCap": bad})
        assert err.value.key == "easyLevelCap"


def test_rng_uniform_range_bounds():
    # lo + (hi - lo) * u rounds the largest unit draws up to hi: both ends can be drawn.
    class TopRng(Random):
        def random(self):
            return 1.0 - 2.0**-53

    rng = Random(5)
    for lo, hi in ABOVE_BASE_RANGES.values():
        assert all(lo <= rng.uniform(lo, hi) <= hi for _ in range(10_000))
        assert TopRng().uniform(lo, hi) == hi


def test_sample_true_level_degenerate_distribution():
    rng = Random(1)
    assert all(sample_true_level(rng, (1.0, 0.0, 0.0, 0.0, 0.0)) == 1 for _ in range(100))


def test_sample_true_level_lower_edge():
    class ZeroRng(Random):
        def random(self):
            return 0.0

    assert sample_true_level(ZeroRng(), (0.2,) * 5) == 1


def test_sample_true_level_matches_distribution():
    # Monte Carlo oracle: empirical frequencies over 1e6 draws within +-0.01.
    rng = CountingRandom(2024)
    dist = (0.2, 0.2, 0.2, 0.2, 0.2)
    counts = {level: 0 for level in (1, 2, 3, 4, 5)}
    n = 1_000_000
    for _ in range(n):
        counts[sample_true_level(rng, dist)] += 1
    assert rng.draw_count == n
    for level, p in zip((1, 2, 3, 4, 5), dist):
        assert abs(counts[level] / n - p) < 0.01


def test_sample_true_level_skewed_distribution():
    rng = Random(7)
    dist = (0.5, 0.3, 0.1, 0.05, 0.05)
    counts = {level: 0 for level in (1, 2, 3, 4, 5)}
    n = 200_000
    for _ in range(n):
        counts[sample_true_level(rng, dist)] += 1
    for level, p in zip((1, 2, 3, 4, 5), dist):
        assert abs(counts[level] / n - p) < 0.01
