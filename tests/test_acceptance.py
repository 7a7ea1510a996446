"""Acceptance suite: each numbered criterion at its stated tolerance.

The ordinal criteria run on the full 4x60 experiment grid at three distinct
seed bases (see conftest).  Run `pytest tests/test_acceptance.py -v -s` to get
one PASS line per criterion; a failed assertion marks the criterion failed.
"""
from __future__ import annotations

import os
import statistics

import numpy as np

from edsim.behavior import BASE_DURATIONS, evaluate_performance_level
from edsim.cli import EXIT_OK, main
from edsim.domain import EvaluationStyle, NurseQuality, Role
from edsim.stats import chi_square_uniform_mc, shapiro_wilk, wilcoxon_rank_sum

from conftest import COMBOS, SEED_BASES, census, tree_bytes


def _nurse_ids(result, quality, original_only=False):
    return [
        i
        for i, n in result.nurses.items()
        if n.quality is quality and (not original_only or n.role is not Role.REPLACEMENT)
    ]


def served(results):
    return [r.patients_served for r in results]


def damage(results):
    return [r.time_damage for r in results]


def delay(results):
    return [r.delay for r in results]


def low_nurse(results, field):
    out = []
    for r in results:
        ids = _nurse_ids(r, NurseQuality.LOW)
        out.append(sum(getattr(r.nurses[i], field) for i in ids))
    return out


def high_nurse(results, field):
    out = []
    for r in results:
        ids = _nurse_ids(r, NurseQuality.HIGH, original_only=True)
        out.append(sum(getattr(r.nurses[i], field) for i in ids))
    return out


def wilcoxon_p(a, b):
    return wilcoxon_rank_sum(a, b).p_value


def test_criterion_01_algorithm_tables():
    table = {
        (1, EvaluationStyle.OVERESTIMATES): 3, (2, EvaluationStyle.OVERESTIMATES): 3,
        (3, EvaluationStyle.OVERESTIMATES): 5, (4, EvaluationStyle.OVERESTIMATES): 5,
        (5, EvaluationStyle.OVERESTIMATES): 5,
        (1, EvaluationStyle.UNDERESTIMATES): 1, (2, EvaluationStyle.UNDERESTIMATES): 1,
        (3, EvaluationStyle.UNDERESTIMATES): 1, (4, EvaluationStyle.UNDERESTIMATES): 3,
        (5, EvaluationStyle.UNDERESTIMATES): 3,
        (1, EvaluationStyle.CORRECT): 1, (2, EvaluationStyle.CORRECT): 2,
        (3, EvaluationStyle.CORRECT): 3, (4, EvaluationStyle.CORRECT): 4,
        (5, EvaluationStyle.CORRECT): 5,
    }
    for (level, style), expected in table.items():
        assert evaluate_performance_level(level, style) == expected
    assert [BASE_DURATIONS[l] for l in (1, 2, 3, 4, 5)] == [60.0, 50.0, 40.0, 30.0, 20.0]
    print("ACCEPTANCE 01 PASS - estimation table (15 pairs) and duration table (5 levels) exact")


def test_criterion_02_zero_success_law(acceptance_grids):
    for base, grid in acceptance_grids.items():
        for combo in ("baseline-ca", "baseline-fifo", "replacement-ca"):
            successes = low_nurse(grid[combo], "tasks_success")
            assert successes == [0] * len(successes), f"{combo}@{base}: {successes}"
    print("ACCEPTANCE 02 PASS - low performer tasks_success == 0 in all 60 runs x 3 combos x 3 bases")


def test_criterion_03_throughput_ordering(acceptance_grids):
    for base, grid in acceptance_grids.items():
        fifo, ca = served(grid["baseline-fifo"]), served(grid["baseline-ca"])
        assert statistics.mean(fifo) > statistics.mean(ca)
        p = wilcoxon_p(fifo, ca)
        assert p < 0.01, f"base {base}: p={p}"
    print("ACCEPTANCE 03 PASS - FIFO serves more patients than CA trust (Wilcoxon p < 0.01)")


def test_criterion_04_damage_ordering(acceptance_grids):
    for base, grid in acceptance_grids.items():
        ca, fifo = damage(grid["baseline-ca"]), damage(grid["baseline-fifo"])
        assert statistics.mean(ca) < statistics.mean(fifo)
        p = wilcoxon_p(ca, fifo)
        assert p < 0.01, f"base {base}: p={p}"
    print("ACCEPTANCE 04 PASS - CA trust accrues less time damage than FIFO (Wilcoxon p < 0.01)")


def test_criterion_05_delay_ordering(acceptance_grids):
    for base, grid in acceptance_grids.items():
        fifo, ca = delay(grid["baseline-fifo"]), delay(grid["baseline-ca"])
        assert statistics.mean(fifo) < statistics.mean(ca)
        p = wilcoxon_p(fifo, ca)
        assert p < 0.05, f"base {base}: p={p}"
    print("ACCEPTANCE 05 PASS - FIFO shows less total delay than CA trust (Wilcoxon p < 0.05)")


def test_criterion_06_low_performer_failures(acceptance_grids):
    for base, grid in acceptance_grids.items():
        fifo = low_nurse(grid["baseline-fifo"], "tasks_failed")
        ca = low_nurse(grid["baseline-ca"], "tasks_failed")
        assert statistics.mean(fifo) > statistics.mean(ca)
        p = wilcoxon_p(fifo, ca)
        assert p < 0.01, f"base {base}: p={p}"
    print("ACCEPTANCE 06 PASS - low performer fails more under FIFO than CA (Wilcoxon p < 0.01)")


def test_criterion_07_replacement_effects(acceptance_grids):
    for base, grid in acceptance_grids.items():
        repl_served, base_served = served(grid["replacement-ca"]), served(grid["baseline-ca"])
        assert statistics.mean(repl_served) > statistics.mean(base_served)
        p1 = wilcoxon_p(repl_served, base_served)
        repl_delay, base_delay = delay(grid["replacement-ca"]), delay(grid["baseline-ca"])
        assert statistics.mean(repl_delay) < statistics.mean(base_delay)
        p2 = wilcoxon_p(repl_delay, base_delay)
        assert p1 < 0.01 and p2 < 0.01, f"base {base}: p_served={p1}, p_delay={p2}"
    print("ACCEPTANCE 07 PASS - replacement raises throughput and cuts delay vs baseline (p < 0.01)")


def test_criterion_08_training_effects(acceptance_grids):
    for base, grid in acceptance_grids.items():
        trainee_succ = low_nurse(grid["training-ca"], "tasks_success")
        share = sum(1 for v in trainee_succ if v > 0) / len(trainee_succ)
        assert share >= 0.90, f"base {base}: trainee succeeded in {share:.0%} of runs"

        train_fail = low_nurse(grid["training-ca"], "tasks_failed")
        base_fail = low_nurse(grid["baseline-ca"], "tasks_failed")
        assert statistics.mean(train_fail) > statistics.mean(base_fail)
        p1 = wilcoxon_p(train_fail, base_fail)

        train_damage, base_damage = damage(grid["training-ca"]), damage(grid["baseline-ca"])
        assert statistics.mean(train_damage) > statistics.mean(base_damage)
        p2 = wilcoxon_p(train_damage, base_damage)
        assert p1 < 0.05 and p2 < 0.05, f"base {base}: p_fail={p1}, p_damage={p2}"
    print("ACCEPTANCE 08 PASS - training: trainee succeeds in >=90% of runs, fails more, damage up (p < 0.05)")


def test_criterion_09_replacement_vs_training(acceptance_grids):
    for base, grid in acceptance_grids.items():
        pairs = [
            (served(grid["replacement-ca"]), served(grid["training-ca"]), "greater"),
            (damage(grid["replacement-ca"]), damage(grid["training-ca"]), "less"),
            (delay(grid["replacement-ca"]), delay(grid["training-ca"]), "less"),
        ]
        for repl, train, direction in pairs:
            if direction == "greater":
                assert statistics.mean(repl) > statistics.mean(train)
            else:
                assert statistics.mean(repl) < statistics.mean(train)
            p = wilcoxon_p(repl, train)
            assert p < 0.05, f"base {base}: p={p}"
        train_succ = low_nurse(grid["training-ca"], "tasks_success")
        repl_succ = low_nurse(grid["replacement-ca"], "tasks_success")
        assert statistics.mean(train_succ) > statistics.mean(repl_succ) == 0.0
    print("ACCEPTANCE 09 PASS - replacement beats training on throughput/damage/delay; trainee succeeds more")


def test_criterion_10_high_performer_stability(acceptance_grids):
    for base, grid in acceptance_grids.items():
        groups = {combo: high_nurse(grid[combo], "tasks_failed") for combo in COMBOS}
        means = {combo: statistics.mean(v) for combo, v in groups.items()}
        pooled = [v for vs in groups.values() for v in vs]
        pooled_sd = statistics.stdev(pooled)
        spread = max(means.values()) - min(means.values())
        assert spread < pooled_sd, f"base {base}: spread {spread} vs sd {pooled_sd}"
        combos = list(COMBOS)
        for i, a in enumerate(combos):
            for b in combos[i + 1:]:
                p = wilcoxon_p(groups[a], groups[b])
                assert p >= 0.05, f"base {base}: {a} vs {b} p={p}"
    print("ACCEPTANCE 10 PASS - original high performer's failures stable across all 4 combos (6 pairs)")


def test_criterion_11_statistics_oracle():
    exact = wilcoxon_rank_sum([1, 2, 3], [4, 5, 6])
    assert abs(exact.p_value - 0.100) < 1e-9

    normal_ok = sum(
        shapiro_wilk(np.random.default_rng(seed).normal(size=500)).p_value > 0.05
        for seed in range(20)
    )
    expo_ok = sum(
        shapiro_wilk(np.random.default_rng(seed).exponential(size=500)).p_value < 0.001
        for seed in range(20)
    )
    assert normal_ok >= 18, f"normal accepted in {normal_ok}/20 seeds"
    assert expo_ok >= 18, f"exponential rejected in {expo_ok}/20 seeds"

    assert chi_square_uniform_mc([10, 10, 10], draws=10000, seed=0).p_value >= 0.95
    assert chi_square_uniform_mc([30, 0, 0], draws=10000, seed=0).p_value < 0.001
    print("ACCEPTANCE 11 PASS - Wilcoxon exact p=0.100, Shapiro-Wilk gate, chi-square MC oracles")


def test_criterion_12_determinism(tmp_path):
    trees = {}
    for variant, parallel in (("serial1", 1), ("serial2", 1), ("parallel", 4)):
        root = tmp_path / variant
        args = ["experiment", "--runs", "60", "--seed-base", str(SEED_BASES[0]), "--parallel", str(parallel)]
        assert main(args + ["--out", str(root)]) == EXIT_OK
        trees[variant] = tree_bytes(root)
    assert sorted({path.split(os.sep)[0] for path in trees["serial1"]}) == sorted(COMBOS)
    assert trees["serial1"] == trees["serial2"]
    assert trees["serial1"] == trees["parallel"]
    print("ACCEPTANCE 12 PASS - full 4x60 grid byte-identical across reruns, serial and parallel")


def test_criterion_13_conservation_suite(acceptance_grids):
    runs_checked = 0
    for grid in acceptance_grids.values():
        for results in grid.values():
            for r in results:
                open_work = census(r)
                assert r.patients_spawned == r.patients_served + open_work["occupied_beds"]
                assert abs(r.time_damage - sum(n.time_damage for n in r.nurses.values())) < 1e-9
                assert abs(r.time_damage - sum(d.time_damage for d in r.doctors.values())) < 1e-9
                assert abs(r.delay - sum(d.delay for d in r.doctors.values())) < 1e-9
                starts = [o for _, _, k, _, o in r.trace if k == "execution_start"]
                assert len(starts) == len(set(starts))
                done = sum(n.tasks_success + n.tasks_failed for n in r.nurses.values())
                assert (done + open_work["executing"] + open_work["claimed"] + open_work["pending"]
                        == r.requests_issued)
                runs_checked += 1
    assert runs_checked == len(SEED_BASES) * len(COMBOS) * 60
    print(f"ACCEPTANCE 13 PASS - conservation and consistency hold in all {runs_checked} runs")
