"""Experiment comparison pipeline: load an experiment directory, build each metric's row, render the report.

A loaded directory is its `config.echo`'s `SimConfig` and one `Run` per run;
`load_experiment` checks every other copy of a configured fact against that
echo.  Every metric is one `METRICS` entry; comparisons.csv is declared and
written in `edsim.metrics`, beside the tables it is computed from.
"""
from __future__ import annotations

import os
from functools import partial
from statistics import median
from typing import Callable, NamedTuple, Optional

from . import stats
from .domain import ConfigError, NurseQuality, Role, SimConfig, config_echo, parse_config_file, validate_config
from .metrics import SchemaError, read_doctors, read_nurses, read_runs

NORMALITY_ALPHA = 0.05

class MissingFile(FileNotFoundError):
    pass


class MetricUnknown(KeyError):
    pass


class Run(NamedTuple):
    """One run: its runs.csv row, then its doctors.csv and nurses.csv rows, in id order."""

    row: dict
    doctors: list
    nurses: list


class ExperimentData(NamedTuple):
    """One experiment directory: its label, its echo's config, and its runs in run-id order."""

    label: str
    cfg: SimConfig
    runs: list


def load_experiment(path: str) -> ExperimentData:
    """Read the config echo and the runs/doctors/nurses triplet of one experiment.

    Each run must appear once, each agent row must belong to a listed run,
    and each run must match the echo: its scenario, policy and horizon, and
    its roster in ids and kinds, replacements aside.
    """
    paths = {name: os.path.join(path, name) for name in ("runs.csv", "doctors.csv", "nurses.csv", "config.echo")}
    for name, p in paths.items():
        if not os.path.isfile(p):
            raise MissingFile(f"{path}: missing {name}")
    try:
        cfg = validate_config(parse_config_file(paths["config.echo"]))
    except ConfigError as exc:
        raise SchemaError(f"{paths['config.echo']}: {exc}") from exc
    with open(paths["config.echo"], encoding="utf-8", newline="") as fh:
        text, echo = fh.read(), config_echo(cfg)
    if text != echo:
        want = next((line for line in echo.splitlines() if line not in text.splitlines()), "its lines alone, in order")
        raise SchemaError(f"{paths['config.echo']}: not as edsim writes it; expected {want}")
    echoed = (cfg.scenario, cfg.policy, f"{cfg.shift_length:.6f}")  # the horizon in runs.csv's six decimals
    runs: dict[str, Run] = {}
    for row in sorted(read_runs(paths["runs.csv"]), key=lambda r: r["run_id"]):
        if row["run_id"] in runs:
            raise SchemaError(f"{paths['runs.csv']}: run {row['run_id']} repeated")
        if (row["scenario"], row["policy"], f"{row['shift_length_s']:.6f}") != echoed:
            raise SchemaError(f"{paths['runs.csv']}: run {row['run_id']} differs from config.echo")
        runs[row["run_id"]] = Run(row, [], [])
    if not runs:
        raise SchemaError(f"{paths['runs.csv']}: no runs")
    for k, name, read, id_key, kind_key, roster in ((1, "doctors.csv", read_doctors, "doctor_id", "style", cfg.doctors),
                                                    (2, "nurses.csv", read_nurses, "nurse_id", "quality", cfg.nurses)):
        for agent in read(paths[name]):
            if agent["run_id"] not in runs:
                raise SchemaError(f"{paths[name]}: run {agent['run_id']} has no row in runs.csv")
            runs[agent["run_id"]][k].append(agent)  # k: the Run field, doctors or nurses
        for run_id, run in runs.items():
            if tuple((a[id_key], a[kind_key]) for a in run[k] if a.get("role") is not Role.REPLACEMENT) != roster:
                raise SchemaError(f"{paths[name]}: run {run_id} differs from the roster in config.echo")
    return ExperimentData(os.path.basename(os.path.normpath(path)) or path, cfg, list(runs.values()))


def check_rosters_match(a: ExperimentData, b: ExperimentData) -> None:
    """Raise SchemaError when the configured rosters differ between experiments."""
    diffs = []
    for kind, left, right in (("doctor", a.cfg.doctors, b.cfg.doctors), ("nurse", a.cfg.nurses, b.cfg.nurses)):
        left, right = dict(left), dict(right)
        for ident in sorted(set(left) | set(right)):
            if left.get(ident) != right.get(ident):
                diffs.append(f"{kind} {ident}: {getattr(left.get(ident), 'value', '-')} vs "
                             f"{getattr(right.get(ident), 'value', '-')}")
    if diffs:
        raise SchemaError("experiment rosters differ: " + "; ".join(diffs))


def _values(data: ExperimentData, metric: str) -> list[float]:
    """Per-run values of a gated metric.

    A metric is either a runs.csv column or `<quality>_nurse_<column>`: that
    nurses.csv column summed over the run's configured nurses of that quality.
    Replacements, always high performers, are left out.
    """
    quality, _, key = metric.partition("_nurse_")
    if not key:
        return [float(run.row[metric]) for run in data.runs]
    quality, replacement = NurseQuality(quality), Role.REPLACEMENT
    return [float(sum(n[key] for n in run.nurses if n["quality"] is quality and n["role"] is not replacement))
            for run in data.runs]


DOCTOR_PREFERENCE_METRIC = "doctor_preference_chi2"
DOCTOR_VARIANCE_METRIC = "patients_per_doctor_variance"


class ComparisonRow(NamedTuple):
    metric: str
    group_a: str
    group_b: str
    mean_a: float
    mean_b: float
    median_a: float
    median_b: float
    sw_a: Optional[stats.TestResult] = None
    sw_b: Optional[stats.TestResult] = None
    chosen: Optional[stats.TestResult] = None
    degenerate: bool = False
    notes: str = ""

    @property
    def test(self) -> str:
        """The test comparisons.csv names: the one chosen, else the preference row's per-run count."""
        if self.chosen is not None:
            return self.chosen.test_name
        return "chi2_mc_count" if self.metric == DOCTOR_PREFERENCE_METRIC else ""


def _summary(metric: str, a: ExperimentData, b: ExperimentData, xs_a: list[float], xs_b: list[float]) -> ComparisonRow:
    """A row holding the two groups' means and medians, and no test yet."""
    means = sum(xs_a) / len(xs_a), sum(xs_b) / len(xs_b)
    return ComparisonRow(metric, a.label, b.label, *means, median(xs_a), median(xs_b))


def _try_shapiro(xs: list[float]) -> Optional[stats.TestResult]:
    try:
        return stats.shapiro_wilk(xs)
    except stats.DegenerateSample:
        return None


def _gated_row(metric: str, a: ExperimentData, b: ExperimentData, mc_draws: int, mc_seed: int) -> ComparisonRow:
    xs_a, xs_b = _values(a, metric), _values(b, metric)
    row = _summary(metric, a, b, xs_a, xs_b)
    if min(xs_a) == max(xs_a) and min(xs_b) == max(xs_b):
        # A single run has no spread to measure, which is not the same as
        # runs that all agree.
        reason = "fewer than two runs per group" if min(len(xs_a), len(xs_b)) < 2 else "no variance in either group"
        return row._replace(degenerate=True, notes=f"{reason}; no test meaningful")
    sw_a, sw_b = _try_shapiro(xs_a), _try_shapiro(xs_b)
    normal = all(sw is not None and sw.p_value >= NORMALITY_ALPHA for sw in (sw_a, sw_b))
    chosen = stats.welch_t_test(xs_a, xs_b) if normal else stats.wilcoxon_rank_sum(xs_a, xs_b)
    return row._replace(sw_a=sw_a, sw_b=sw_b, chosen=chosen)


def _preference_pvalues(data: ExperimentData, mc_draws: int, mc_seed: int) -> list[Optional[float]]:
    pvals: list[Optional[float]] = []
    for idx, run in enumerate(data.runs):
        counts = [d["patients_served"] for d in run.doctors]  # in doctor id order, as the echo's roster
        # One dedicated generator per run, derived from the analyzer seed.
        seed = (mc_seed * 1_000_003 + idx) % (2**63)
        testable = sum(counts) > 0 and len(data.cfg.doctors) > 1
        pvals.append(stats.chi_square_uniform_mc(counts, draws=mc_draws, seed=seed).p_value if testable else None)
    return pvals


def _preference_row(a: ExperimentData, b: ExperimentData, mc_draws: int, mc_seed: int) -> ComparisonRow:
    p_a, p_b = _preference_pvalues(a, mc_draws, mc_seed), _preference_pvalues(b, mc_draws, mc_seed)
    usable_a, usable_b = [p for p in p_a if p is not None], [p for p in p_b if p is not None]
    sig_a, sig_b = sum(p < 0.05 for p in usable_a), sum(p < 0.05 for p in usable_b)
    row = ComparisonRow(
        DOCTOR_PREFERENCE_METRIC, a.label, b.label, float(sig_a), float(sig_b),
        median(usable_a) if usable_a else 0.0, median(usable_b) if usable_b else 0.0,
        notes=f"runs with per-run chi-square p<0.05: {sig_a}/{len(p_a)} vs {sig_b}/{len(p_b)}; "
        "means hold counts, medians the per-run p",
    )
    if not (usable_a and usable_b):
        # A run with one doctor, or with no patient served, has no test to run.
        return row._replace(degenerate=True, notes="no run in a group has two doctors and a served patient; "
                            "chi-square undefined")
    return row


def _variance_row(a: ExperimentData, b: ExperimentData, mc_draws: int, mc_seed: int) -> ComparisonRow:
    if len(a.cfg.doctors) < 2:  # b's roster is a's: check_rosters_match has run
        return ComparisonRow(DOCTOR_VARIANCE_METRIC, a.label, b.label, 0.0, 0.0, 0.0, 0.0, degenerate=True,
                             notes="fewer than two doctors in a run; variance undefined")
    var_a = [stats.sample_var([d["patients_served"] for d in run.doctors]) for run in a.runs]
    var_b = [stats.sample_var([d["patients_served"] for d in run.doctors]) for run in b.runs]
    row = _summary(DOCTOR_VARIANCE_METRIC, a, b, var_a, var_b)
    row = row._replace(sw_a=_try_shapiro(var_a), sw_b=_try_shapiro(var_b))
    if len(var_a) != len(var_b):
        return row._replace(degenerate=True, notes="paired variance test needs equal run counts")
    if len(var_a) < 2:
        return row._replace(degenerate=True, notes="fewer than two runs per group; paired test undefined")
    try:
        return row._replace(chosen=stats.paired_t_test(var_a, var_b))
    except stats.DegenerateSample:
        return row._replace(degenerate=True, notes="identical per-run variances; paired test undefined")


_NURSE_KEYS = ("tasks_success", "tasks_failed", "utility", "time_damage_s")
_GATED = ("patients_served", "total_time_damage_s", "total_delay_s", *(
    f"{quality.value}_nurse_{key}" for key in _NURSE_KEYS for quality in (NurseQuality.LOW, NurseQuality.HIGH)))

# Every metric's row builder, (a, b, mc_draws, mc_seed) -> ComparisonRow, in report order.
METRICS: dict[str, Callable[[ExperimentData, ExperimentData, int, int], ComparisonRow]] = {
    **{metric: partial(_gated_row, metric) for metric in _GATED},
    DOCTOR_PREFERENCE_METRIC: _preference_row,
    DOCTOR_VARIANCE_METRIC: _variance_row,
}


def compare_experiments(
    dir_a: str,
    dir_b: str,
    metrics: Optional[list[str]] = None,
    mc_draws: int = 10000,
    mc_seed: int = 0,
) -> list[ComparisonRow]:
    """Build the full comparison table between two experiment directories."""
    data_a = load_experiment(dir_a)
    data_b = load_experiment(dir_b)
    if data_a.label == data_b.label and os.path.normpath(dir_a) != os.path.normpath(dir_b):
        # Two directories of one base name: each group is labelled by its whole path.
        data_a = data_a._replace(label=os.path.normpath(dir_a))
        data_b = data_b._replace(label=os.path.normpath(dir_b))
    check_rosters_match(data_a, data_b)

    wanted = list(METRICS) if metrics is None else list(metrics)
    if not wanted:
        raise MetricUnknown(f"no metric named; known: {', '.join(METRICS)}")
    for name in wanted:
        if name not in METRICS:
            raise MetricUnknown(f"unknown metric {name!r}; known: {', '.join(METRICS)}")
    return [METRICS[name](data_a, data_b, mc_draws, mc_seed) for name in wanted]


def render_report(rows: list[ComparisonRow]) -> str:
    """Human-readable rendering of the comparison table, which holds at least one row."""
    a, b = rows[0].group_a, rows[0].group_b
    out = [f"Comparison: {a} vs {b}", "=" * 60]
    for r in rows:
        out.append("")
        out.append(f"{r.metric}")
        out.append(f"  mean   {a}: {r.mean_a:.4f}   {b}: {r.mean_b:.4f}")
        out.append(f"  median {a}: {r.median_a:.4f}   {b}: {r.median_b:.4f}")
        if r.sw_a or r.sw_b:
            sw_a = f"{r.sw_a.p_value:.4g}" if r.sw_a else "n/a (no variance)"
            sw_b = f"{r.sw_b.p_value:.4g}" if r.sw_b else "n/a (no variance)"
            out.append(f"  Shapiro-Wilk p: {sw_a} / {sw_b}")
        if r.degenerate:
            out.append(f"  degenerate: {r.notes}")
        elif r.chosen is not None:
            out.append(
                f"  {r.chosen.test_name}: statistic={r.chosen.statistic:.4f} "
                f"p={r.chosen.p_value:.6g}"
            )
        if r.notes and not r.degenerate:
            out.append(f"  note: {r.notes}")
    return "\n".join(out) + "\n"
