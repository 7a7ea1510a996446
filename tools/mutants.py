#!/usr/bin/env python3
"""Mutation gate: each named one-line mutant of `src/edsim` must fail its tests.

    python3 tools/mutants.py            # every mutant
    python3 tools/mutants.py NAME ...   # only the named mutants
    python3 tools/mutants.py --list     # names and what each one breaks

Each mutant replaces one line of a module, found exactly once, in a
temporary copy of `src/`, then runs the tests listed beside it, fastest
killer first, in one pytest process that stops at the first failure.  The
mutant is killed when a test fails.  A mutant that no input can tell apart
from the original is marked equivalent with the reason; it is run as well,
and a marked mutant that gets killed fails the gate, because its mark is
wrong.  Before any mutant, the listed tests run once on an unmutated copy
and must all pass, so a test that fails anyway cannot pass for a killer.

Exit status 0 when every mutant is killed or marked equivalent and
survives; 1 otherwise, or when a mutant's line is missing or repeated.
A change that tests its code by mutating a copy adds its mutants here.
"""
from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from typing import NamedTuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class Mutant(NamedTuple):
    name: str
    module: str  # file under src/edsim
    old: str  # the exact line, found once in the module
    new: str
    tests: tuple  # pytest node ids, fastest killer first
    equivalent: str = ""  # why no input tells it apart, if none does


MUTANTS = (
    Mutant("fifo-ties-larger-id", "policy.py",
           "        if best is None or (r.issued_at, r.id) < (best.issued_at, best.id):",
           "        if best is None or (r.issued_at, -r.id) < (best.issued_at, -best.id):",
           ("tests/test_policy.py::test_fifo_tie_breaks_exhaustively",)),
    Mutant("exams-served-lifo", "engine.py",
           "            self._begin_exam(doctor.exams[0])",
           "            self._begin_exam(doctor.exams[-1])",
           ("tests/test_engine.py::test_doctor_examines_in_lie_down_order",)),
    Mutant("exam-begins-while-examining", "engine.py",
           "        if len(doctor.exams) == 1:",
           "        if doctor.exams:",
           ("tests/test_engine.py::test_doctor_examines_in_lie_down_order",)),
    Mutant("broadcast-descending-ids", "engine.py",
           "        for nurse in self.nurses.values():",
           "        for nurse in reversed(self.nurses.values()):",
           ("tests/test_engine.py::test_smaller_nurse_id_claims_first",
            "tests/test_engine.py::test_broadcast_visits_idle_nurses_in_ascending_id_order")),
    Mutant("horizon-charge-unsorted", "engine.py",
           '        for request in sorted(itertools.chain(claimed, *self._pending), key=attrgetter("id")):',
           "        for request in itertools.chain(claimed, *self._pending):",
           ("tests/test_engine.py::test_delay_sums_in_start_order_then_issue_order",)),
    # The claim's assert still holds when the head stays queued, so only the
    # invariant checker's ledger of claims sees the request claimed twice.
    Mutant("claim-peeks-queue-head", "engine.py",
           "        head = self._pending[request.requested_level - 1].popleft()",
           "        head = self._pending[request.requested_level - 1][0]",
           ("tests/test_engine.py::test_invariants_hold_after_every_event[long-horizon-baseline-fifo]",)),
    Mutant("balanced-split-strict", "stats.py",
           "    if sum_sq <= r * (q + 1) ** 2 + (k - r) * q * q:",
           "    if sum_sq < r * (q + 1) ** 2 + (k - r) * q * q:",
           ("tests/test_stats.py::test_chi2_balanced_counts_draw_nothing",)),
    Mutant("response-on-every-update", "engine.py",
           "            if before.classified_low_at is None and after.classified_low_at is not None:",
           "            if after.classified_low_at is not None:",
           ("tests/test_engine.py::test_trainer_attaches_observes_nine_and_exits",
            "tests/test_engine.py::test_scenario_response_follows_the_latch")),
    Mutant("response-reattaches-only-trainer", "engine.py",
           "            if before.classified_low_at is None and after.classified_low_at is not None:",
           "            if after.classified_low_at is not None and (before.classified_low_at is None or self._training):",
           ("tests/test_engine.py::test_trainer_attaches_observes_nine_and_exits",
            "tests/test_engine.py::test_scenario_response_follows_the_latch")),
    Mutant("stalled-at-never-set", "engine.py",
           "                    self.stalled_at = last_event_at",
           "                    self.stalled_at = None",
           ("tests/test_engine.py::test_stall_is_recorded_when_no_nurse_accepts",)),
    Mutant("stall-without-empty-heap", "engine.py",
           "                if not heap and any(self._pending):",
           "                if any(self._pending):",
           ("tests/test_engine.py::test_fifo_run_does_not_stall",
            "tests/test_engine.py::test_stall_is_recorded_when_no_nurse_accepts")),
    Mutant("reader-takes-non-finite-reals", "metrics.py",
           "    if not math.isfinite(value):",
           "    if False:",
           ("tests/test_metrics.py::test_reader_rejects_cells_never_written",)),
    Mutant("reader-takes-negative-counts", "metrics.py",
           "    if value < 0:",
           "    if False:",
           ("tests/test_metrics.py::test_reader_rejects_cells_never_written",)),
    Mutant("reader-takes-any-spelling", "metrics.py",
           "                if write(value) != cell:",
           "                if False:",
           ("tests/test_cli.py::test_analyze_malformed_directory_exits_5",)),
    Mutant("quality-cell-read-as-free-text", "metrics.py",
           '    Column("quality", _enum(NurseQuality), lambda run_id, t: t.quality),',
           '    Column("quality", _Cell(attrgetter("value"), str), lambda run_id, t: t.quality),',
           ("tests/test_cli.py::test_analyze_malformed_directory_exits_5[_upper_quality]",)),
    Mutant("replacement-filter-dropped", "analysis.py",
           '    return [float(sum(n[key] for n in run.nurses if n["quality"] is quality'
           ' and n["role"] is not replacement))',
           '    return [float(sum(n[key] for n in run.nurses if n["quality"] is quality))',
           ("tests/test_analysis.py::test_replacement_roster_still_comparable",)),
    Mutant("repeated-run-check-dropped", "analysis.py",
           '        if row["run_id"] in runs:',
           "        if False:",
           ("tests/test_cli.py::test_analyze_malformed_directory_exits_5[_repeated_run]",)),
    Mutant("per-run-roster-check-dropped", "analysis.py",
           '            if tuple((a[id_key], a[kind_key]) for a in run[k] if a.get("role") is not Role.REPLACEMENT)'
           ' != roster:',
           "            if False:",
           ("tests/test_cli.py::test_analyze_malformed_directory_exits_5[_missing_doctor_row]",
            "tests/test_cli.py::test_analyze_malformed_directory_exits_5[_swapped_nurse_kind]")),
    Mutant("runs-row-echo-check-dropped", "analysis.py",
           '''        if (row["scenario"], row["policy"], f"{row['shift_length_s']:.6f}") != echoed:''',
           "        if False:",
           ("tests/test_cli.py::test_analyze_malformed_directory_exits_5[_other_combo_row]",
            "tests/test_cli.py::test_analyze_malformed_directory_exits_5[_other_horizon_row]")),
    Mutant("echo-round-trip-dropped", "analysis.py",
           "    if text != echo:",
           "    if False:",
           ("tests/test_cli.py::test_analyze_malformed_directory_exits_5[_upper_echo_scenario]",
            "tests/test_cli.py::test_analyze_malformed_directory_exits_5[_integral_echo_shift_length]")),
    Mutant("variance-doctor-guard-at-one", "analysis.py",
           "    if len(a.cfg.doctors) < 2:  # b's roster is a's: check_rosters_match has run",
           "    if len(a.cfg.doctors) < 1:  # b's roster is a's: check_rosters_match has run",
           ("tests/test_cli.py::test_analyze_one_doctor_marks_variance_degenerate",)),
    Mutant("empty-metrics-accepted", "analysis.py",
           "    if not wanted:",
           "    if False:",
           ("tests/test_analysis.py::test_unknown_metric",
            "tests/test_cli.py::test_analyze_naming_no_metric_exits_2")),
    Mutant("missing-echo-let-past-the-input-check", "analysis.py",
           "        if not os.path.isfile(p):",
           '        if not os.path.isfile(p) and name != "config.echo":',
           ("tests/test_analysis.py::test_missing_config_echo_exits_3",)),
    Mutant("colliding-labels-kept", "analysis.py",
           "    if data_a.label == data_b.label and os.path.normpath(dir_a) != os.path.normpath(dir_b):",
           "    if False:",
           ("tests/test_cli.py::test_analyze_labels_colliding_directories_by_path",)),
    Mutant("trainer-exit-strict", "engine.py",
           "            if nurse.trainer_attached and bonus >= self.cfg.trainer_exit_bonus:",
           "            if nurse.trainer_attached and bonus > self.cfg.trainer_exit_bonus:",
           ("tests/test_engine.py::test_trainer_attaches_observes_nine_and_exits",)),
    Mutant("shapiro-large-branch-at-5", "stats.py",
           "    if n > 5:",
           "    if n >= 5:",
           ("tests/test_stats.py::test_shapiro_matches_scipy",)),
    Mutant("threshold-inclusive", "policy.py",
           "    return tuple([level for level in LEVELS[:cap] if weights[level - 1] >= threshold])",
           "    return tuple([level for level in LEVELS[:cap] if weights[level - 1] > threshold])",
           ("tests/test_policy.py::test_selectors_match_reference_implementations",)),
    # The invariant checker compares each nurse's kept levels and queues with
    # the eligibility rule after every event, so it sees a stale one at once;
    # the full-rescan oracle and the digests see it only once a decision differs.
    Mutant("latch-keeps-queues", "policy.py",
           "        classified_at = now",
           "        return TrustState(weights, reliability, now, trust.levels)",
           ("tests/test_engine.py::test_invariants_hold_after_every_event[long-horizon-baseline-ca]",)),
    Mutant("crossing-keeps-levels", "policy.py",
           "        if idx >= cap or (trust.weights[idx] >= threshold) == (weights[idx] >= threshold):",
           "        if True:",
           ("tests/test_engine.py::test_invariants_hold_after_every_event[long-horizon-baseline-ca]",)),
    # Recomputing an unchanged set changes no decision, only the tuple's identity.
    Mutant("crossing-above-the-cap-recomputes", "policy.py",
           "        if idx >= cap or (trust.weights[idx] >= threshold) == (weights[idx] >= threshold):",
           "        if (trust.weights[idx] >= threshold) == (weights[idx] >= threshold):",
           ("tests/test_policy.py::test_update_trust_matches_reference_bit_for_bit",)),
    Mutant("crossing-at-unrestricted-threshold", "policy.py",
           "        cap, threshold = _gate(classified_at, cfg)",
           "        cap, threshold = _gate(classified_at, cfg)[0], cfg.accept_threshold",
           ("tests/test_engine.py::test_invariants_hold_after_every_event[all-low-replacement-ca]",)),
    Mutant("levels-change-keeps-queues", "engine.py",
           "                nurse.queues = self._queues(after.levels)",
           "                pass",
           ("tests/test_engine.py::test_invariants_hold_after_every_event[long-horizon-baseline-ca]",)),
    Mutant("trainee-crossing-narrows-queues", "engine.py",
           "            if after.levels is not before.levels and not nurse.trainer_attached:",
           "            if after.levels is not before.levels:",
           ("tests/test_engine.py::test_trainer_attaches_observes_nine_and_exits",
            "tests/test_engine.py::test_invariants_hold_after_every_event[all-low-training-ca]")),
    Mutant("trainer-attach-keeps-queues", "engine.py",
           "                    nurse.queues = self._pending",
           "                    pass",
           ("tests/test_engine.py::test_invariants_hold_after_every_event[long-horizon-training-ca]",)),
    Mutant("trainer-exit-keeps-queues", "engine.py",
           "        nurse.queues = self._queues(nurse.trust.levels)",
           "        pass",
           ("tests/test_engine.py::test_invariants_hold_after_every_event[long-horizon-training-ca]",)),
    # The log shows a decline alike whatever its reason, so only the decision
    # counts, compared decision by decision with a full rescan, see this one.
    Mutant("shortcut-declines-none-eligible", "engine.py",
           "            nurse.decisions[_NONE_ELIGIBLE if any(self._pending) else _QUEUE_EMPTY] += 1",
           "            nurse.decisions[_NONE_ELIGIBLE] += 1",
           ("tests/test_engine.py::test_decisions_match_full_rescan[baseline-ca]",)),
    Mutant("success-strict", "behavior.py",
           "    success = actual <= requested_duration",
           "    success = actual < requested_duration",
           ("tests/test_behavior.py::test_judge_outcome_success_and_failure",)),
    # The untrained mutant rolls and then discards the roll, so only the count of draws sees it.
    Mutant("untrained-low-performer-rolls-for-bonus", "behavior.py",
           "        hit = training_active and rng.random() <= training_bonus_chance(observed_tasks, cfg)",
           "        hit = rng.random() <= training_bonus_chance(observed_tasks, cfg) and training_active",
           ("tests/test_behavior.py::test_low_performer_always_overruns_untrained",)),
    Mutant("preference-seed-offset", "analysis.py",
           "        seed = (mc_seed * 1_000_003 + idx) % (2**63)",
           "        seed = (mc_seed * 1_000_003 + idx + 1) % (2**63)",
           ("tests/test_golden.py::test_analyze_digests",)),
    Mutant("eval-accuracy-zero-without-evaluations", "engine.py",
           "        return self.eval_hits / self.eval_count if self.eval_count else None",
           "        return self.eval_hits / self.eval_count if self.eval_count else 0.0",
           ("tests/test_metrics.py::test_eval_accuracy_without_completions_is_none",)),
    Mutant("labels-with-line-breaks-unquoted", "metrics.py",
           """    return '"' + text.replace('"', '""') + '"' if any(ch in text for ch in ',"\\r\\n') else text""",
           """    return '"' + text.replace('"', '""') + '"' if any(ch in text for ch in ',"') else text""",
           ("tests/test_cli.py::test_analyze_quotes_labels_holding_line_breaks",)),
    Mutant("wilcoxon-exact-below-8", "stats.py",
           "    if min(n1, n2) <= 8 and not tie_term:",
           "    if min(n1, n2) < 8 and not tie_term:",
           ("tests/test_stats.py::test_wilcoxon_exact_branch_ends_at_eight",)),
    Mutant("rank-sum-null-multiplied-ascending", "stats.py",
           "        for u in range(top, large + i - 1, -1):",
           "        for u in range(large + i, top + 1):",
           ("tests/test_stats.py::test_wilcoxon_exact_matches_brute_force_enumeration",)),
    # t = +-inf and t = 0 reach betainc at x = 0.0 and x = 1.0, where math.log would raise.
    Mutant("betainc-open-at-zero", "stats.py",
           "    if x <= 0.0:",
           "    if x < 0.0:",
           ("tests/test_stats.py::test_t_two_sided_closed_forms_at_zero_and_infinity",)),
    Mutant("betainc-open-at-one", "stats.py",
           "    if x >= 1.0:",
           "    if x > 1.0:",
           ("tests/test_stats.py::test_t_two_sided_closed_forms_at_zero_and_infinity",)),
    Mutant("latch-at-threshold", "policy.py",
           "    if reliability < cfg.reliability_threshold and classified_at is None:",
           "    if reliability <= cfg.reliability_threshold and classified_at is None:",
           ("tests/test_policy.py::test_latch_needs_reliability_strictly_below_threshold",)),
    Mutant("sample-level-inclusive", "domain.py",
           "        if u < acc:",
           "        if u <= acc:",
           ("tests/test_domain.py::test_sample_true_level_lower_edge",
            "tests/test_golden.py::test_csv_triplet_digests"),
           equivalent="the two differ only when a uniform draw, a multiple of 2**-53, equals a rounded "
                      "cumulative sum exactly, one chance in 2**53 per draw"),
    Mutant("topology-error-without-key", "domain.py",
           '            "bedCount",',
           '            "",',
           ("tests/test_domain.py::test_topology_mismatch_rejected",)),
    Mutant("fifo-combination-without-key", "domain.py",
           '            "policy",',
           '            "",',
           ("tests/test_domain.py::test_fifo_outside_baseline_rejected",)),
    Mutant("inversion-thresholds-without-ulp-walk", "stats.py",
           "        thresholds.append(min(math.ceil(low * _UNIT), _UNIT))",
           "        thresholds.append(min(math.ceil(sum(px[:x]) * _UNIT), _UNIT))",
           ("tests/test_stats.py::test_inversion_thresholds_match_numpys_loop",)),
    Mutant("mirrored-columns-like-the-others", "stats.py",
           "        key = (1.0 - p, True) if p > 0.5 else (p, False)",
           "        key = (p, False)",
           ("tests/test_stats.py::test_inversion_draws_match_numpys_multinomial",)),
    Mutant("restart-check-dropped", "stats.py",
           "        if rows[j].min() < 0:",
           "        if False:",
           ("tests/test_stats.py::test_chi2_falls_back_on_a_restart",
            "tests/test_stats.py::test_chi2_falls_back_where_numpy_stops_a_row_early")),
    # Draws past one block lose their last, partial block; fewer draws are
    # still one whole block, so only the tests that draw several see it.
    Mutant("mc-drops-partial-block", "stats.py",
           "        for start in range(0, draws, _BLOCK):",
           "        for start in range(0, draws - draws % _BLOCK or draws, _BLOCK):",
           ("tests/test_stats.py::test_chi2_many_draws_match_one_multinomial",
            "tests/test_stats.py::test_chi2_small_blocks_give_the_one_block_p")),
    Mutant("freeze-inside-main", "cli.py",
           "    args = build_parser().parse_args(argv)",
           "    args = build_parser().parse_args(argv); gc.freeze()",
           ("tests/test_cli.py::test_process_entry_matches_in_process_main",)),
)


def _pytest(src: str, tests) -> tuple[int, str]:
    env = dict(os.environ, PYTHONPATH=src, PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-rf", "-p", "no:cacheprovider", *tests]
    done = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True)
    return done.returncode, done.stdout + done.stderr


def _copy_src(tmp: str) -> str:
    src = os.path.join(tmp, "src")
    shutil.rmtree(src, ignore_errors=True)
    shutil.copytree(os.path.join(ROOT, "src"), src, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    return src


def _apply(src: str, m: Mutant) -> str:
    """Mutate the copy under `src`; returns an error text, or "" when applied."""
    path = os.path.join(src, "edsim", m.module)
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().split("\n")
    hits = [i for i, line in enumerate(lines) if line == m.old]
    if len(hits) != 1:
        return f"its line occurs {len(hits)} times in {m.module}, not once"
    lines[hits[0]] = m.new
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines))
    return ""


def main(argv: list[str]) -> int:
    if argv == ["--list"]:
        for m in MUTANTS:
            print(f"{m.name:40} {m.module:12} {m.new.strip()}")
        return 0
    known = {m.name: m for m in MUTANTS}
    unknown = [name for name in argv if name not in known]
    if unknown:
        print(f"unknown mutant(s): {', '.join(unknown)}", file=sys.stderr)
        return 2
    chosen = [known[name] for name in argv] or list(MUTANTS)
    failures = 0
    start = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="edsim-mutants-") as tmp:
        src = _copy_src(tmp)
        found = subprocess.run([sys.executable, "-c", "import edsim; print(edsim.__file__)"],
                               env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True).stdout
        if not found.startswith(src):
            print(f"the tests would import edsim from {found.strip()!r}, not from the copy", file=sys.stderr)
            return 1
        every_test = list(dict.fromkeys(t for m in chosen for t in m.tests))
        code, out = _pytest(src, every_test)
        if code != 0:
            print(out, file=sys.stderr)
            print("the listed tests do not pass on the unmutated source", file=sys.stderr)
            return 1
        for m in chosen:
            src = _copy_src(tmp)
            error = _apply(src, m)
            t0 = time.perf_counter()
            if error:
                verdict, detail = "ERROR", error
            else:
                code, out = _pytest(src, m.tests)
                killers = [line.split()[1] for line in out.splitlines() if line.startswith("FAILED ")]
                if code == 1:
                    verdict, detail = "killed", killers[0] if killers else "a failing test"
                elif code == 0:
                    verdict, detail = "survived", ""
                else:
                    verdict, detail = "ERROR", f"pytest exited {code}: {out.strip().splitlines()[-1:]}"
            ok = verdict == ("survived" if m.equivalent else "killed")
            failures += not ok
            note = f"equivalent: {m.equivalent}" if m.equivalent else detail
            print(f"{verdict:8} {m.name:40} {time.perf_counter() - t0:5.1f} s  {note}", flush=True)
    print(f"{len(chosen) - failures} of {len(chosen)} as expected, {time.perf_counter() - start:.0f} s")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
