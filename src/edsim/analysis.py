"""Experiment comparison pipeline: load CSV triplets, gate tests, render reports."""
from __future__ import annotations

import os
from typing import Callable, NamedTuple, Optional

from . import stats
from .domain import ConfigError, parse_config_file, validate_config
from .metrics import SchemaError, read_doctors, read_nurses, read_runs

NORMALITY_ALPHA = 0.05

COMPARISONS_HEADER = (
    "metric,group_a,group_b,mean_a,mean_b,median_a,median_b,sw_p_a,sw_p_b,"
    "test,statistic,p_value,degenerate"
)


class MissingFile(FileNotFoundError):
    pass


class MetricUnknown(KeyError):
    pass


class ExperimentData(NamedTuple):
    """One experiment directory, parsed and indexed by run."""

    label: str
    runs: list
    doctors_by_run: dict
    nurses_by_run: dict
    roster: tuple  # (doctors, nurses) as (id, kind token) pairs, from the config echo


def load_experiment(path: str) -> ExperimentData:
    """Read the runs/doctors/nurses triplet (plus config echo) of one experiment."""
    paths = {name: os.path.join(path, f"{name}.csv") for name in ("runs", "doctors", "nurses")}
    for name, p in paths.items():
        if not os.path.isfile(p):
            raise MissingFile(f"{path}: missing {name}.csv")
    runs = sorted(read_runs(paths["runs"]), key=lambda r: r["run_id"])
    if not runs:
        raise SchemaError(f"{paths['runs']}: no runs")
    doctors_by_run: dict = {}
    for row in read_doctors(paths["doctors"]):
        doctors_by_run.setdefault(row["run_id"], []).append(row)
    nurses_by_run: dict = {}
    for row in read_nurses(paths["nurses"]):
        nurses_by_run.setdefault(row["run_id"], []).append(row)
    for r in runs:
        if r["run_id"] not in doctors_by_run or r["run_id"] not in nurses_by_run:
            raise SchemaError(f"{path}: run {r['run_id']} lacks per-agent rows")

    echo_path = os.path.join(path, "config.echo")
    if os.path.isfile(echo_path):
        try:
            raw = parse_config_file(echo_path)
            # Echoes written before the unused mcDraws key was removed still
            # carry it; dropping it keeps those experiments loadable.
            raw.pop("mcDraws", None)
            cfg = validate_config(raw)
        except ConfigError as exc:
            raise SchemaError(f"{echo_path}: {exc}") from exc
        roster = (
            tuple((i, style.value) for i, style in cfg.doctors),
            tuple((i, quality.value) for i, quality in cfg.nurses),
        )
    else:
        # Fall back to the configured part of the observed roster: the first
        # run's agents, which every run has (checked above), minus replacements.
        first = runs[0]["run_id"]
        roster = (
            tuple((d["doctor_id"], d["style"]) for d in doctors_by_run[first]),
            tuple((n["nurse_id"], n["quality"]) for n in nurses_by_run[first] if n["role"] != "replacement"),
        )
    return ExperimentData(
        label=os.path.basename(os.path.normpath(path)) or path,
        runs=runs,
        doctors_by_run=doctors_by_run,
        nurses_by_run=nurses_by_run,
        roster=roster,
    )


def check_rosters_match(a: ExperimentData, b: ExperimentData) -> None:
    """Raise SchemaError when the configured rosters differ between experiments."""
    diffs = []
    for kind, idx in (("doctor", 0), ("nurse", 1)):
        left, right = dict(a.roster[idx]), dict(b.roster[idx])
        for ident in sorted(set(left) | set(right)):
            if left.get(ident) != right.get(ident):
                diffs.append(f"{kind} {ident}: {left.get(ident, '-')} vs {right.get(ident, '-')}")
    if diffs:
        raise SchemaError("experiment rosters differ: " + "; ".join(diffs))


def _run_values(data: ExperimentData, key: str) -> list[float]:
    return [float(r[key]) for r in data.runs]


def _nurse_values(data: ExperimentData, key: str, quality: str, original_only: bool) -> list[float]:
    values = []
    for r in data.runs:
        rows = [n for n in data.nurses_by_run[r["run_id"]] if n["quality"] == quality]
        if original_only:
            rows = [n for n in rows if n["role"] != "replacement"]
        values.append(float(sum(n[key] for n in rows)))
    return values


def _nurse_metric(key: str, quality: str, original_only: bool) -> Callable[[ExperimentData], list[float]]:
    return lambda data: _nurse_values(data, key, quality, original_only)


METRICS: dict[str, Callable[[ExperimentData], list[float]]] = {
    "patients_served": lambda d: _run_values(d, "patients_served"),
    "total_time_damage_s": lambda d: _run_values(d, "total_time_damage_s"),
    "total_delay_s": lambda d: _run_values(d, "total_delay_s"),
}
for _key in ("tasks_success", "tasks_failed", "utility", "time_damage_s"):
    METRICS[f"low_nurse_{_key}"] = _nurse_metric(_key, "low", original_only=False)
    METRICS[f"high_nurse_{_key}"] = _nurse_metric(_key, "high", original_only=True)

DOCTOR_PREFERENCE_METRIC = "doctor_preference_chi2"
DOCTOR_VARIANCE_METRIC = "patients_per_doctor_variance"
SPECIAL_METRICS = (DOCTOR_PREFERENCE_METRIC, DOCTOR_VARIANCE_METRIC)


def metric_names() -> list[str]:
    return list(METRICS) + list(SPECIAL_METRICS)


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


def _median(xs: list[float]) -> float:
    s = sorted(xs)
    n = len(s)
    mid = n // 2
    return s[mid] if n % 2 else (s[mid - 1] + s[mid]) / 2.0


def _zero_variance(xs: list[float]) -> bool:
    return min(xs) == max(xs)


def _try_shapiro(xs: list[float]) -> Optional[stats.TestResult]:
    try:
        return stats.shapiro_wilk(xs)
    except stats.DegenerateSample:
        return None


def _gated_row(metric: str, a: list[float], b: list[float], label_a: str, label_b: str) -> ComparisonRow:
    row = ComparisonRow(metric, label_a, label_b, sum(a) / len(a), sum(b) / len(b), _median(a), _median(b))
    if _zero_variance(a) and _zero_variance(b):
        # A single run has no spread to measure, which is not the same as
        # runs that all agree.
        reason = "fewer than two runs per group" if min(len(a), len(b)) < 2 else "no variance in either group"
        return row._replace(degenerate=True, notes=f"{reason}; no test meaningful")
    sw_a, sw_b = _try_shapiro(a), _try_shapiro(b)
    normal = all(sw is not None and sw.p_value >= NORMALITY_ALPHA for sw in (sw_a, sw_b))
    chosen = stats.welch_t_test(a, b) if normal else stats.wilcoxon_rank_sum(a, b)
    return row._replace(sw_a=sw_a, sw_b=sw_b, chosen=chosen)


def _doctor_counts(data: ExperimentData, run_id: str) -> list[int]:
    rows = sorted(data.doctors_by_run[run_id], key=lambda d: d["doctor_id"])
    return [int(d["patients_served"]) for d in rows]


def _preference_pvalues(data: ExperimentData, mc_draws: int, mc_seed: int) -> list[Optional[float]]:
    pvals: list[Optional[float]] = []
    for idx, r in enumerate(data.runs):
        counts = _doctor_counts(data, r["run_id"])
        if sum(counts) == 0 or len(counts) < 2:
            pvals.append(None)
            continue
        # One dedicated generator per run, derived from the analyzer seed.
        seed = (mc_seed * 1_000_003 + idx) % (2**63)
        pvals.append(stats.chi_square_uniform_mc(counts, draws=mc_draws, seed=seed).p_value)
    return pvals


def _preference_row(a: ExperimentData, b: ExperimentData, mc_draws: int, mc_seed: int) -> ComparisonRow:
    p_a = _preference_pvalues(a, mc_draws, mc_seed)
    p_b = _preference_pvalues(b, mc_draws, mc_seed)
    sig_a = sum(1 for p in p_a if p is not None and p < 0.05)
    sig_b = sum(1 for p in p_b if p is not None and p < 0.05)
    usable_a = [p for p in p_a if p is not None]
    usable_b = [p for p in p_b if p is not None]
    return ComparisonRow(
        metric=DOCTOR_PREFERENCE_METRIC,
        group_a=a.label,
        group_b=b.label,
        mean_a=float(sig_a),
        mean_b=float(sig_b),
        median_a=_median(usable_a) if usable_a else 0.0,
        median_b=_median(usable_b) if usable_b else 0.0,
        notes=(
            f"runs with per-run chi-square p<0.05: {sig_a}/{len(p_a)} vs {sig_b}/{len(p_b)}; "
            "means hold counts, medians the per-run p"
        ),
    )


def _doctor_variance(values: list[int]) -> float:
    mean = sum(values) / len(values)
    return sum((v - mean) ** 2 for v in values) / (len(values) - 1)


def _variance_row(a: ExperimentData, b: ExperimentData) -> ComparisonRow:
    counts_a = [_doctor_counts(a, r["run_id"]) for r in a.runs]
    counts_b = [_doctor_counts(b, r["run_id"]) for r in b.runs]
    if min(map(len, counts_a + counts_b)) < 2:
        return ComparisonRow(DOCTOR_VARIANCE_METRIC, a.label, b.label, 0.0, 0.0, 0.0, 0.0, degenerate=True,
                             notes="fewer than two doctors in a run; variance undefined")
    var_a = [_doctor_variance(c) for c in counts_a]
    var_b = [_doctor_variance(c) for c in counts_b]
    row = ComparisonRow(
        metric=DOCTOR_VARIANCE_METRIC,
        group_a=a.label,
        group_b=b.label,
        mean_a=sum(var_a) / len(var_a),
        mean_b=sum(var_b) / len(var_b),
        median_a=_median(var_a),
        median_b=_median(var_b),
        sw_a=_try_shapiro(var_a),
        sw_b=_try_shapiro(var_b),
    )
    if len(var_a) != len(var_b):
        return row._replace(degenerate=True, notes="paired variance test needs equal run counts")
    if len(var_a) < 2:
        return row._replace(degenerate=True, notes="fewer than two runs per group; paired test undefined")
    try:
        return row._replace(chosen=stats.paired_t_test(var_a, var_b))
    except stats.DegenerateSample:
        return row._replace(degenerate=True, notes="identical per-run variances; paired test undefined")


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
    check_rosters_match(data_a, data_b)

    wanted = metric_names() if metrics is None else list(metrics)
    rows = []
    for name in wanted:
        if name == DOCTOR_PREFERENCE_METRIC:
            rows.append(_preference_row(data_a, data_b, mc_draws, mc_seed))
        elif name == DOCTOR_VARIANCE_METRIC:
            rows.append(_variance_row(data_a, data_b))
        elif name in METRICS:
            extractor = METRICS[name]
            rows.append(_gated_row(name, extractor(data_a), extractor(data_b), data_a.label, data_b.label))
        else:
            raise MetricUnknown(f"unknown metric {name!r}; known: {', '.join(metric_names())}")
    return rows


def _fmt_p(p: Optional[float]) -> str:
    return "" if p is None else f"{p:.6g}"


def comparisons_csv(rows: list[ComparisonRow]) -> str:
    lines = [COMPARISONS_HEADER]
    for r in rows:
        test_name = r.chosen.test_name if r.chosen else ("chi2_mc_count" if r.metric == DOCTOR_PREFERENCE_METRIC else "")
        lines.append(
            ",".join(
                [
                    r.metric,
                    r.group_a,
                    r.group_b,
                    f"{r.mean_a:.6f}",
                    f"{r.mean_b:.6f}",
                    f"{r.median_a:.6f}",
                    f"{r.median_b:.6f}",
                    _fmt_p(r.sw_a.p_value if r.sw_a else None),
                    _fmt_p(r.sw_b.p_value if r.sw_b else None),
                    test_name,
                    "" if r.chosen is None else f"{r.chosen.statistic:.6f}",
                    _fmt_p(r.chosen.p_value if r.chosen else None),
                    "true" if r.degenerate else "false",
                ]
            )
        )
    return "\n".join(lines) + "\n"


def render_report(rows: list[ComparisonRow]) -> str:
    """Human-readable rendering of the comparison table."""
    if not rows:
        return "no comparisons\n"
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
