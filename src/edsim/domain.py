"""Shared value types, each enum edsim spells in a file, and the validated configuration."""
from __future__ import annotations

import math
from enum import Enum
from random import Random
from typing import Any, Callable, NamedTuple, Optional

LEVELS = (1, 2, 3, 4, 5)


class ConfigError(ValueError):
    """Any rejected config: a malformed file, an unknown key, a value outside its domain, or
    fields that disagree with each other; `key` names the offending field, if one does."""

    def __init__(self, message: str, key: str = ""):
        super().__init__(message)
        self.key = key


class EvaluationStyle(Enum):
    CORRECT = "correct"
    OVERESTIMATES = "over"
    UNDERESTIMATES = "under"


class NurseQuality(Enum):
    HIGH = "high"
    LOW = "low"


class Policy(Enum):
    CA_TRUST = "ca"
    FIFO = "fifo"


class Scenario(Enum):
    BASELINE = "baseline"
    REPLACEMENT = "replacement"
    TRAINING = "training"


class Role(Enum):
    REGULAR = "regular"
    REPLACEMENT = "replacement"
    TRAINEE = "trainee"


# Self-assessed reliability starts from a clean slate: a fresh provider has no
# evidence against itself, and threshold crossing then needs a run of failures
# (1.0 -> 0.7 -> 0.49 -> 0.343 with the default learning rate).
RELIABILITY_INIT = 1.0


class _Key(NamedTuple):
    """One config key: its external name, value kind and default.

    `tokens` is the enum whose values spell an `enum` or `roster` entry.
    """

    name: str
    kind: str
    default: Any
    tokens: Optional[type[Enum]] = None


class SimConfig(NamedTuple):
    """Validated, immutable bundle of every simulation knob.

    Each field declares one key of the flat config format, in echo order.
    Shift length and the restricted-acceptance threshold are calibrated so
    that the trainer phase spans a meaningful fraction of the shift and a
    self-classified low performer retires from easy tasks after a couple of
    failures; see README for the calibration notes.
    """

    seed: int = _Key("seed", "int", 0)
    scenario: Scenario = _Key("scenario", "enum", Scenario.BASELINE, Scenario)
    policy: Policy = _Key("policy", "enum", Policy.CA_TRUST, Policy)
    shift_length: float = _Key("shiftLength", "seconds", 1000.0)
    doctors: tuple[tuple[int, EvaluationStyle], ...] = _Key(
        "doctors",
        "roster",
        ((1, EvaluationStyle.CORRECT), (2, EvaluationStyle.CORRECT), (3, EvaluationStyle.CORRECT)),
        EvaluationStyle,
    )
    nurses: tuple[tuple[int, NurseQuality], ...] = _Key(
        "nurses", "roster", ((1, NurseQuality.LOW), (2, NurseQuality.HIGH)), NurseQuality
    )
    bed_count: int = _Key("bedCount", "int", 9)
    beds_per_doctor: int = _Key("bedsPerDoctor", "int", 3)
    exam_duration: float = _Key("examDuration", "seconds", 10.0)
    travel_time: float = _Key("travelTime", "seconds", 5.0)
    prep_time: float = _Key("prepTime", "seconds", 5.0)
    initial_spawn_interval: float = _Key("initialSpawnInterval", "seconds", 1.0)
    tasks_per_patient: int = _Key("tasksPerPatient", "int", 1)
    true_level_distribution: tuple[float, ...] = _Key("trueLevelDistribution", "distribution", (0.2,) * 5)
    trust_init: float = _Key("trustInit", "fraction", 0.5)
    trust_learning_rate: float = _Key("trustLearningRate", "fraction", 0.3)
    accept_threshold: float = _Key("acceptThreshold", "fraction", 0.5)
    restricted_accept_threshold: float = _Key("restrictedAcceptThreshold", "fraction", 0.4)
    reliability_threshold: float = _Key("reliabilityThreshold", "fraction", 0.4)
    easy_level_cap: int = _Key("easyLevelCap", "int", 2)
    trainer_bonus_per_task: float = _Key("trainerBonusPerTask", "fraction", 0.1)
    trainer_exit_bonus: float = _Key("trainerExitBonus", "fraction", 0.9)
    high_performer_good_chance: float = _Key("highPerformerGoodChance", "fraction", 0.90)
    utility_failure_penalty: bool = _Key("utilityFailurePenalty", "bool", True)


# External key name -> key, in field order.  The class body gives each field its
# `_Key` as the default; the key's own default then takes its place.
_CONFIG_KEYS: dict[str, _Key] = {key.name: key for key in SimConfig._field_defaults.values()}
SimConfig._field_defaults = {name: key.default for name, key in SimConfig._field_defaults.items()}
SimConfig.__new__.__defaults__ = tuple(SimConfig._field_defaults.values())


def sample_true_level(rng: Random, dist: tuple[float, ...]) -> int:
    """Draw a difficulty level from `dist` using exactly one uniform draw."""
    u = rng.random()
    acc = 0.0
    for level, p in zip(LEVELS, dist):
        acc += p
        if u < acc:
            return level
    return LEVELS[-1]


_U64_MAX = 2**64 - 1

_TRUE_TOKENS = {"true", "on", "yes", "1"}
_FALSE_TOKENS = {"false", "off", "no", "0"}


def validate_seed(seed: int) -> int:
    """Check that a run seed fits in 64 unsigned bits."""
    if not 0 <= seed <= _U64_MAX:
        raise ConfigError(f"seed must fit in 64 unsigned bits, got {seed}", "seed")
    return seed


def _parse_int(raw: str, key: str, tokens) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"{key} must be an integer, got {raw!r}", key) from None


def _parse_seconds(raw: str, key: str, tokens) -> float:
    try:
        t = float(raw)
    except ValueError:
        raise ConfigError(f"{key} must be a number of seconds, got {raw!r}", key) from None
    if not math.isfinite(t):
        raise ConfigError(f"{key} must be finite, got {t}", key)
    if t < 0.0:
        raise ConfigError(f"{key} must be >= 0, got {t}", key)
    return t


def _parse_fraction(raw: str, key: str, tokens) -> float:
    try:
        f = float(raw)
    except ValueError:
        raise ConfigError(f"{key} must be a fraction, got {raw!r}", key) from None
    if not 0.0 <= f <= 1.0:
        raise ConfigError(f"{key} must lie in [0, 1], got {f}", key)
    return f


def _parse_bool(raw: str, key: str, tokens) -> bool:
    t = raw.strip().lower()
    if t in _TRUE_TOKENS:
        return True
    if t in _FALSE_TOKENS:
        return False
    raise ConfigError(f"{key} must be a boolean (on/off), got {raw!r}", key)


def _parse_enum(raw: str, key: str, tokens: type[Enum]):
    try:
        return tokens(raw.strip().lower())
    except ValueError:
        raise ConfigError(f"{key} must be one of {[m.value for m in tokens]}, got {raw!r}", key) from None


def _parse_roster(raw: str, key: str, tokens: type[Enum]):
    """Normalize a roster given as '1:correct, 2:over' text."""
    by_value = {m.value: m for m in tokens}
    roster = []
    for chunk in raw.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        if ":" not in chunk:
            raise ConfigError(f"{key} entries must look like 'id:kind', got {chunk!r}", key)
        ident, kind = (part.strip() for part in chunk.split(":", 1))
        try:
            ident = int(ident)
        except ValueError:
            raise ConfigError(f"{key} ids must be integers, got {ident!r}", key) from None
        if kind.lower() not in by_value:
            raise ConfigError(f"{key} has unknown kind {kind!r} (expected one of {sorted(by_value)})", key)
        roster.append((ident, by_value[kind.lower()]))
    if not roster:
        raise ConfigError(f"{key} must list at least one agent", key)
    ids = [i for i, _ in roster]
    if len(set(ids)) != len(ids):
        raise ConfigError(f"{key} has duplicate ids", key)
    if any(i < 1 for i in ids):
        raise ConfigError(f"{key} ids must be >= 1", key)
    return tuple(sorted(roster))


def _parse_distribution(raw: str, key: str, tokens) -> tuple[float, ...]:
    try:
        dist = tuple(float(p) for p in raw.split(",") if p.strip())
    except ValueError:
        raise ConfigError(f"{key} must be five probabilities", key) from None
    if len(dist) != len(LEVELS):
        raise ConfigError(f"{key} must have exactly {len(LEVELS)} entries, got {len(dist)}", key)
    if not all(map(math.isfinite, dist)):
        raise ConfigError(f"{key} entries must be finite", key)
    if any(p < 0.0 for p in dist):
        raise ConfigError(f"{key} entries must be >= 0", key)
    if abs(sum(dist) - 1.0) > 1e-9:
        raise ConfigError(f"{key} must sum to 1 (got {sum(dist)!r})", key)
    return dist


class _Kind(NamedTuple):
    parse: Callable[[str, str, Any], Any]  # (config text, key, tokens) -> normalized value
    render: Callable[[Any], str]  # normalized value -> config file text


_KINDS = {
    "int": _Kind(_parse_int, str),
    "seconds": _Kind(_parse_seconds, repr),
    "fraction": _Kind(_parse_fraction, repr),
    "bool": _Kind(_parse_bool, lambda v: "on" if v else "off"),
    "enum": _Kind(_parse_enum, lambda v: v.value),
    "roster": _Kind(_parse_roster, lambda v: ", ".join(f"{i}:{k.value}" for i, k in v)),
    "distribution": _Kind(_parse_distribution, lambda v: ", ".join(repr(p) for p in v)),
}


def validate_config(raw: dict | None = None) -> SimConfig:
    """Fill defaults into a config-shaped mapping and check every invariant.

    `raw` maps the external key names (as used in config files) to their text;
    other values are parsed from their str().  An empty mapping yields the
    case-study default setup.  Keys are parsed in declaration order, so the
    first bad key is the one reported.
    """
    raw = dict(raw or {})
    unknown = set(raw) - set(_CONFIG_KEYS)
    if unknown:
        key = sorted(unknown)[0]
        raise ConfigError(f"unknown config key {key!r}", key)

    out: dict[str, Any] = {}
    for key, decl in _CONFIG_KEYS.items():
        value = raw.get(key)
        out[key] = decl.default if value is None else _KINDS[decl.kind].parse(str(value), key, decl.tokens)

    if out["policy"] is Policy.FIFO and out["scenario"] is not Scenario.BASELINE:
        raise ConfigError(
            f"the FIFO policy is only meaningful in the baseline scenario (got scenario={out['scenario'].value})",
            "policy",
        )
    validate_seed(out["seed"])
    for key in ("tasksPerPatient", "bedsPerDoctor"):
        if out[key] < 1:
            raise ConfigError(f"{key} must be >= 1", key)
    if out["easyLevelCap"] not in LEVELS:
        raise ConfigError(f"easyLevelCap must be an integer in 1..5, got {out['easyLevelCap']!r}", "easyLevelCap")
    expected_beds = out["bedsPerDoctor"] * len(out["doctors"])
    if out["bedCount"] != expected_beds:
        raise ConfigError(
            f"bedCount must equal bedsPerDoctor x number of doctors "
            f"({out['bedsPerDoctor']} x {len(out['doctors'])} = {expected_beds}), got {out['bedCount']}",
            "bedCount",
        )

    return SimConfig(*out.values())


def parse_config_file(path: str) -> dict[str, str]:
    """Read a flat `key = value` config file into a raw string mapping."""
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except UnicodeDecodeError:
        raise ConfigError("not UTF-8 text") from None
    raw: dict[str, str] = {}
    for lineno, line in enumerate(lines, start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        if key in raw:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}", key)
        raw[key] = value.strip()
    return raw


def config_echo(cfg: SimConfig) -> str:
    """Render a normalized config in the flat file format (it parses and validates back to the same config)."""
    return "".join(f"{key.name} = {_KINDS[key.kind].render(value)}\n" for key, value in zip(_CONFIG_KEYS.values(), cfg))
