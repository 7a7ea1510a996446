from __future__ import annotations

import functools
import math
import random
import warnings

import numpy as np
import pytest
from scipy import stats as scipy_stats

from edsim import stats
from edsim.stats import (
    DegenerateSample,
    StatsError,
    _exact_two_sided_p,
    _midranks,
    _normal_two_sided_p,
    betainc,
    chi_square_uniform_mc,
    paired_t_test,
    shapiro_wilk,
    t_sf_two_sided,
    welch_t_test,
    wilcoxon_rank_sum,
)


# -- numeric kernels ----------------------------------------------------------

def test_betainc_against_scipy():
    for a, b, x in [(0.5, 0.5, 0.3), (2, 3, 0.7), (30, 0.5, 0.99), (500, 0.5, 0.805)]:
        assert betainc(a, b, x) == pytest.approx(float(scipy_stats.beta.cdf(x, a, b)), rel=1e-10)


def test_t_two_sided_against_scipy():
    for t, df in [(0.5, 3), (2.2, 10), (-4.0, 59), (22.0, 1998)]:
        ref = 2 * scipy_stats.t.sf(abs(t), df)
        assert t_sf_two_sided(t, df) == pytest.approx(ref, rel=1e-9)


# -- Shapiro-Wilk -------------------------------------------------------------

@pytest.mark.parametrize("n", [3, 4, 5, 8, 11, 12, 25, 60, 500, 2000, 5001, 6000])
def test_shapiro_matches_scipy(n):
    rng = np.random.default_rng(123 + n)
    x = rng.normal(size=n)
    ours = shapiro_wilk(x)
    with warnings.catch_warnings():
        # Above n = 5000 scipy warns that the p-value may be inaccurate; edsim extends the same approximation.
        warnings.filterwarnings("ignore", "scipy.stats.shapiro: For N > 5000", UserWarning)
        ref = scipy_stats.shapiro(x)
    assert ours.statistic == pytest.approx(float(ref.statistic), rel=1e-7)
    assert ours.p_value == pytest.approx(float(ref.pvalue), rel=1e-5, abs=1e-12)


def test_shapiro_accepts_seeded_normals():
    # Repetition protocol: 20 pinned seeds, at least 18 must stay above 0.05.
    accepted = 0
    for seed in range(20):
        x = np.random.default_rng(seed).normal(size=500)
        if shapiro_wilk(x).p_value > 0.05:
            accepted += 1
    assert accepted >= 18


def test_shapiro_rejects_seeded_exponentials():
    rejected = 0
    for seed in range(20):
        x = np.random.default_rng(seed).exponential(size=500)
        if shapiro_wilk(x).p_value < 0.001:
            rejected += 1
    assert rejected >= 18


def test_shapiro_weights_are_computed_once_per_size():
    stats._sw_weights.cache_clear()
    rng = np.random.default_rng(5)
    first = [shapiro_wilk(rng.normal(size=60)) for _ in range(3)]
    info = stats._sw_weights.cache_info()
    assert (info.misses, info.hits) == (1, 2)
    assert isinstance(stats._sw_weights(60), tuple)
    # A cached weight vector gives the same result as a fresh one.
    stats._sw_weights.cache_clear()
    rng = np.random.default_rng(5)
    assert [shapiro_wilk(rng.normal(size=60)) for _ in range(3)] == first


def test_shapiro_degenerate_and_range_errors():
    with pytest.raises(DegenerateSample):
        shapiro_wilk([1.0] * 10)
    with pytest.raises(DegenerateSample):
        shapiro_wilk([1.0, 2.0])


# -- Wilcoxon rank-sum --------------------------------------------------------

def test_wilcoxon_exact_textbook_case():
    res = wilcoxon_rank_sum([1, 2, 3], [4, 5, 6])
    assert res.statistic == 0.0
    assert abs(res.p_value - 0.100) < 1e-9
    assert res.p_value == _exact_two_sided_p(0.0, 3, 3)


def test_wilcoxon_exact_matches_brute_force_enumeration():
    # Oracle: enumerate all rank subsets directly with itertools.
    from itertools import combinations

    rng = random.Random(3)
    for _ in range(20):
        n1, n2 = rng.randint(1, 5), rng.randint(1, 7)
        x = rng.sample(range(1000), n1)
        y = rng.sample(range(2000, 3000), n2)
        pooled = sorted(x + y)
        rank_of = {v: i + 1 for i, v in enumerate(pooled)}
        u_obs = sum(rank_of[v] for v in x) - n1 * (n1 + 1) / 2
        dist = []
        for combo in combinations(range(1, n1 + n2 + 1), n1):
            dist.append(sum(combo) - n1 * (n1 + 1) / 2)
        lower = sum(1 for u in dist if u <= u_obs) / len(dist)
        upper = sum(1 for u in dist if u >= u_obs) / len(dist)
        expected = min(1.0, 2 * min(lower, upper))
        assert wilcoxon_rank_sum(x, y).p_value == pytest.approx(expected, abs=1e-12)


def test_wilcoxon_identical_samples():
    res = wilcoxon_rank_sum([2.0, 2.0, 2.0], [2.0, 2.0, 2.0])
    assert res.p_value == 1.0


def test_wilcoxon_self_comparison_is_symmetric_null():
    x = list(np.random.default_rng(9).normal(size=40))
    res = wilcoxon_rank_sum(x, list(x))
    assert res.statistic == pytest.approx(len(x) ** 2 / 2)
    assert res.p_value == 1.0


def test_wilcoxon_matches_scipy_asymptotic():
    rng = np.random.default_rng(17)
    x = rng.integers(0, 6, size=60).astype(float)
    y = rng.integers(1, 7, size=55).astype(float)
    ours = wilcoxon_rank_sum(x, y)
    ref = scipy_stats.mannwhitneyu(x, y, alternative="two-sided", method="asymptotic")
    assert ours.statistic == pytest.approx(float(ref.statistic))
    assert ours.p_value == pytest.approx(float(ref.pvalue), rel=1e-9)


@pytest.mark.parametrize("n1", [8, 9])
def test_wilcoxon_exact_branch_ends_at_eight(n1):
    # Tie-free groups whose smaller size is 8 get scipy's exact p; at 9 the
    # normal approximation takes over and matches scipy's asymptotic p.
    rng = np.random.default_rng(31 + n1)
    for shift in (0.0, 0.8, 2.0):
        x = list(rng.normal(shift, 1.0, size=n1))
        y = list(rng.normal(0.0, 1.0, size=12))
        ours = wilcoxon_rank_sum(x, y)
        exact = scipy_stats.mannwhitneyu(x, y, alternative="two-sided", method="exact")
        assert ours.statistic == float(exact.statistic)
        if n1 == 8:
            assert ours.p_value == _exact_two_sided_p(ours.statistic, n1, 12)
            assert ours.p_value == pytest.approx(float(exact.pvalue), rel=1e-12)
        else:
            ref = scipy_stats.mannwhitneyu(x, y, alternative="two-sided", method="asymptotic")
            assert ours.p_value == _normal_two_sided_p(ours.statistic, n1, 12, _midranks(x + y)[1])
            assert ours.p_value == pytest.approx(float(ref.pvalue), rel=1e-9)
            assert ours.p_value == pytest.approx(float(exact.pvalue), abs=0.02)


def test_wilcoxon_invariant_under_monotone_transform():
    rng = np.random.default_rng(23)
    x = list(rng.normal(size=30))
    y = list(rng.normal(0.4, 1.2, size=25))
    base = wilcoxon_rank_sum(x, y)
    for transform in (lambda v: v ** 3, math.exp, lambda v: 5 * v - 2):
        res = wilcoxon_rank_sum([transform(v) for v in x], [transform(v) for v in y])
        assert res.p_value == pytest.approx(base.p_value, abs=1e-12)
        assert res.statistic == pytest.approx(base.statistic)


def test_wilcoxon_exact_and_normal_branches_agree():
    # The branches must agree to |exact - approx| <= 0.02 on tie-free samples
    # at the exact-branch boundary min(n) = 8.
    rng = random.Random(41)
    for _ in range(50):
        x = rng.sample(range(10000), 8)
        y = rng.sample(range(10000, 20000), 8)
        pooled = [float(v) for v in x + y]
        ranks = {v: i + 1 for i, v in enumerate(sorted(pooled))}
        u1 = sum(ranks[float(v)] for v in x) - 8 * 9 / 2
        exact = _exact_two_sided_p(u1, 8, 8)
        approx = _normal_two_sided_p(u1, 8, 8, _midranks(pooled)[1])
        assert abs(exact - approx) <= 0.02


def test_wilcoxon_empty_sample():
    with pytest.raises(StatsError, match="^both samples must be non-empty$"):
        wilcoxon_rank_sum([], [1.0])


# -- Welch --------------------------------------------------------------------

def test_welch_identical_samples():
    x = [1.0, 2.0, 3.0, 4.0]
    res = welch_t_test(x, list(x))
    assert res.statistic == 0.0
    assert res.p_value == 1.0


def test_welch_zero_variance_rejected():
    with pytest.raises(DegenerateSample):
        welch_t_test([0.0, 0.0, 0.0], [1.0, 1.0, 1.0])


def test_welch_matches_scipy():
    rng = np.random.default_rng(31)
    x = rng.normal(size=30)
    y = rng.normal(0.5, 2.0, size=45)
    ours = welch_t_test(x, y)
    ref = scipy_stats.ttest_ind(x, y, equal_var=False)
    assert ours.statistic == pytest.approx(float(ref.statistic), rel=1e-12)
    assert ours.p_value == pytest.approx(float(ref.pvalue), rel=1e-9)


def test_welch_large_effect_sanity_oracle():
    rng = np.random.default_rng(77)
    x = rng.normal(0.0, 1.0, size=1000)
    y = rng.normal(1.0, 1.0, size=1000)
    assert welch_t_test(x, y).p_value < 1e-6


# -- paired t -----------------------------------------------------------------

def test_paired_identical_is_degenerate():
    with pytest.raises(DegenerateSample):
        paired_t_test([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])


def test_paired_constant_shift_oracle():
    y = list(range(10))
    x = [v + 1 for v in y]
    res = paired_t_test(x, y)
    assert res.p_value < 1e-9


def test_paired_length_mismatch():
    with pytest.raises(StatsError, match="^paired samples differ in length: 5 vs 6$"):
        paired_t_test([1.0] * 5, [1.0] * 6)


def test_paired_matches_scipy():
    rng = np.random.default_rng(13)
    x = rng.normal(size=40)
    y = x + rng.normal(0.2, 0.5, size=40)
    ours = paired_t_test(x, y)
    ref = scipy_stats.ttest_rel(x, y)
    assert ours.statistic == pytest.approx(float(ref.statistic), rel=1e-12)
    assert ours.p_value == pytest.approx(float(ref.pvalue), rel=1e-9)


# -- Monte Carlo chi-square ---------------------------------------------------

def test_chi2_uniform_counts_accept():
    res = chi_square_uniform_mc([10, 10, 10], draws=10000, seed=1)
    assert res.statistic == 0.0
    assert res.p_value >= 0.95


def test_chi2_extreme_counts_reject():
    res = chi_square_uniform_mc([30, 0, 0], draws=10000, seed=1)
    assert res.statistic == pytest.approx(60.0)
    assert res.p_value < 0.001


def test_chi2_empty_counts():
    for counts in ([0, 0], [5]):
        with pytest.raises(StatsError, match="^need at least two categories with a positive total$"):
            chi_square_uniform_mc(counts)


def test_chi2_permutation_invariant():
    a = chi_square_uniform_mc([12, 7, 20], draws=5000, seed=9).p_value
    b = chi_square_uniform_mc([20, 12, 7], draws=5000, seed=9).p_value
    assert a == b


def test_chi2_deterministic_given_seed():
    a = chi_square_uniform_mc([9, 14, 4], draws=5000, seed=3)
    b = chi_square_uniform_mc([9, 14, 4], draws=5000, seed=3)
    assert a == b
    # Another seed draws another sample: the statistic is the same, the p-value is not.
    other = chi_square_uniform_mc([9, 14, 4], draws=5000, seed=4)
    assert other.statistic == a.statistic
    assert other.p_value != a.p_value


def test_chi2_add_one_estimator_never_zero():
    res = chi_square_uniform_mc([1000, 0, 0], draws=2000, seed=5)
    assert res.p_value > 0.0
    assert res.p_value == pytest.approx(1 / 2001)


def test_chi2_total_beyond_int64_squares():
    with pytest.raises(StatsError):
        chi_square_uniform_mc([2**31, 2**31])


def _chi2_float_reference(counts, draws, seed):
    """The Monte Carlo chi-square as it once compared draws: float statistics, 1e-9 tolerance."""
    counts = [int(c) for c in counts]
    k, total = len(counts), sum(counts)
    expected = total / k
    observed = float(((np.asarray(counts, dtype=float) - expected) ** 2 / expected).sum())
    sims = np.random.default_rng(seed).multinomial(total, [1.0 / k] * k, size=draws).astype(float)
    sim_stats = ((sims - expected) ** 2 / expected).sum(axis=1)
    exceed = int((sim_stats >= observed - 1e-9).sum())
    return observed, (1 + exceed) / (draws + 1)


def _tied_draws(counts, draws, seed):
    """How many of the generator's draws have the observed sum of squares."""
    k = len(counts)
    sims = np.random.default_rng(seed).multinomial(sum(counts), [1.0 / k] * k, size=draws)
    return int((np.einsum("ij,ij->i", sims, sims) == sum(c * c for c in counts)).sum())


def _chi2_cases():
    rng = random.Random(2718)
    for _ in range(200):
        k = rng.randint(2, 20)
        counts = [rng.randint(0, rng.choice((3, 40, 5000 // k))) for _ in range(k)]
        if sum(counts):
            yield counts, rng.randint(50, 2000), rng.randrange(2**63)
    # Zero counts, one count holding the whole total, and near-uniform counts
    # whose sum of squares many draws share.
    for counts in ([0, 7, 0], [5, 0], [50, 0, 0, 0], [10, 0, 10], [3, 3, 4], [4, 4, 4, 5], [1, 1]):
        for seed in range(3):
            yield counts, 500, seed


def test_chi2_integer_statistic_matches_float_reference():
    tied = 0
    for counts, draws, seed in _chi2_cases():
        res = chi_square_uniform_mc(counts, draws=draws, seed=seed)
        assert (res.statistic, res.p_value) == _chi2_float_reference(counts, draws, seed), (counts, draws, seed)
        tied += _tied_draws(counts, draws, seed)
    assert tied > 0  # draws whose sum of squares equals the observed one were compared


def _balanced(k, total, rng):
    """The most even split of `total` over k cells, in a random order."""
    q, r = divmod(total, k)
    counts = [q + 1] * r + [q] * (k - r)
    rng.shuffle(counts)
    return counts


def _balanced_cases():
    rng = random.Random(1414)
    for k in range(2, 21):
        for total in sorted({1, k - 1, k, k + 1, 3 * k + 2, 61}):
            if total:
                yield _balanced(k, total, rng)


def test_chi2_balanced_counts_match_float_reference():
    for counts in _balanced_cases():
        for draws in (1, 7, 300):
            for seed in (0, 5, 2**62 + 3):
                res = chi_square_uniform_mc(counts, draws=draws, seed=seed)
                assert (res.statistic, res.p_value) == _chi2_float_reference(counts, draws, seed), (counts, draws, seed)
                assert res.p_value == 1.0


def test_chi2_balanced_counts_draw_nothing(monkeypatch):
    def no_generator(*args, **kwargs):
        raise AssertionError("balanced counts must not build a generator")

    monkeypatch.setattr(np.random, "default_rng", no_generator)
    for counts in _balanced_cases():
        res = chi_square_uniform_mc(counts, draws=10000, seed=1)
        assert res.p_value == 1.0


def test_chi2_one_step_from_balanced_still_samples(monkeypatch):
    generators = []
    real_default_rng = np.random.default_rng

    def counting_rng(seed):
        generators.append(seed)
        return real_default_rng(seed)

    monkeypatch.setattr(np.random, "default_rng", counting_rng)
    below_one = 0
    for counts in _balanced_cases():
        if sum(counts) < 2:
            continue
        # One unit onto a largest cell from another non-empty one leaves two
        # cells at least two apart, so the counts are no longer balanced.
        dest = counts.index(max(counts))
        source = next(i for i, c in enumerate(counts) if c and i != dest)
        step = list(counts)
        step[dest] += 1
        step[source] -= 1
        for draws, seed in ((1, 0), (300, 5), (300, 2**62 + 3)):
            expected = _chi2_float_reference(step, draws, seed)
            generators.clear()
            res = chi_square_uniform_mc(step, draws=draws, seed=seed)
            assert generators == [seed], step
            assert (res.statistic, res.p_value) == expected, (step, draws, seed)
            below_one += res.p_value < 1.0
    assert below_one > 0


@pytest.mark.parametrize("draws", [0, -1])
@pytest.mark.parametrize("counts", [[5, 5, 5], [6, 5, 5], [30, 0, 0]])
def test_chi2_needs_at_least_one_draw(counts, draws):
    with pytest.raises(StatsError, match="draws"):
        chi_square_uniform_mc(counts, draws=draws)


def test_all_p_values_in_unit_interval():
    rng = np.random.default_rng(55)
    for _ in range(25):
        x = rng.normal(size=rng.integers(3, 40))
        y = rng.normal(rng.uniform(-1, 1), 1.0, size=rng.integers(3, 40))
        assert 0.0 <= wilcoxon_rank_sum(x, y).p_value <= 1.0
        assert 0.0 <= welch_t_test(x, y).p_value <= 1.0
        assert 0.0 <= shapiro_wilk(x).p_value <= 1.0


# -- multinomial draws by inversion table --------------------------------------

# Rosters whose last conditional binomial has p > 1/2: numpy draws it as
# n - inversion(n, 1 - p).
MIRRORED_ROSTERS = (9, 11, 12, 17, 18, 20)


def _column_ps(k):
    """The p of each of numpy's conditional binomials for k equal cells, in its order."""
    share, rest, ps = 1.0 / k, 1.0, []
    for _ in range(k - 1):
        ps.append(share / rest)
        rest -= share
    return ps


def _numpy_inversion(n, p, u):
    """numpy's `random_binomial_inversion` fed the uniform u; None where it restarts."""
    q = 1.0 - p
    qn = math.exp(n * math.log(q))
    mean = n * p
    bound = int(min(n, mean + 10.0 * math.sqrt(mean * q + 1)))
    x, px = 0, qn
    while u > px:
        x += 1
        if x > bound:
            return None
        u -= px
        px = ((n - x + 1) * p * px) / (x * q)
    return x


def test_mirrored_rosters_reach_numpys_upper_branch():
    assert [k for k in range(2, 21) if _column_ps(k)[-1] > 0.5] == list(MIRRORED_ROSTERS)


def _reached(n, p, m, table):
    """The count numpy's loop reaches from U = m / 2**53, len(table) for a restart."""
    x = _numpy_inversion(n, p, m / stats._UNIT) if m < stats._UNIT else None
    return len(table) if x is None else x


def test_inversion_thresholds_match_numpys_loop():
    ps = {min(p, 1.0 - p) for k in (2, 3, 4, 7, *MIRRORED_ROSTERS) for p in _column_ps(k)}
    checked = 0
    for p in sorted(ps):
        for n in (1, 2, 3, 8, 17, 31, 44, 60):
            table = stats._inversion_thresholds(n, p)
            for x, m in enumerate(table, start=1):
                assert _reached(n, p, m - 1, table) < x <= _reached(n, p, m, table), (n, p, x, m)
                checked += 1
    assert checked > 3000


def _draw_cases():
    rng = random.Random(4242)
    seeds = (0, 5, 2**62 + 3)
    for k in range(2, 21):
        for total in range(1, 61):
            for draws in (1, 2, 300):
                yield k, total, draws, seeds[(k + total + draws) % 3]
            yield k, total, 2, rng.randrange(2**63)
        for total in (7, 24, 45, 60):
            yield k, total, 10000, rng.choice(seeds + (rng.randrange(2**63),))


def test_inversion_draws_match_numpys_multinomial():
    drawn = fallbacks = mirrored = 0
    for k, total, draws, seed in _draw_cases():
        sims = stats._multinomial_by_inversion(np.random.default_rng(seed), total, k, draws)
        if sims is None:
            fallbacks += 1
            continue
        expected = np.random.default_rng(seed).multinomial(total, [1.0 / k] * k, size=draws)
        assert np.array_equal(sims, expected), (k, total, draws, seed)
        drawn += 1
        mirrored += k in MIRRORED_ROSTERS
    assert drawn > 3000 and mirrored > 500 and fallbacks > 100


def _spy_on_inversion(monkeypatch):
    """Record each result of the table sampler and each generator built."""
    results, generators = [], []
    real_sampler, real_default_rng = stats._multinomial_by_inversion, np.random.default_rng

    def sampler(*args):
        results.append(real_sampler(*args))
        return results[-1]

    def counting_rng(seed):
        generators.append(seed)
        return real_default_rng(seed)

    monkeypatch.setattr(stats, "_multinomial_by_inversion", sampler)
    monkeypatch.setattr(np.random, "default_rng", counting_rng)
    return results, generators


def _assert_like_numpy(counts, draws, seed, generators):
    expected = _chi2_float_reference(counts, draws, seed)
    generators.clear()
    res = chi_square_uniform_mc(counts, draws=draws, seed=seed)
    assert generators == [seed], counts
    assert (res.statistic, res.p_value) == expected, (counts, draws, seed)


def test_chi2_draws_by_table_for_small_totals(monkeypatch):
    results, generators = _spy_on_inversion(monkeypatch)
    for counts in ([14, 9, 7], [20, 11], [9, 3, 5, 8, 6], [40, 2, 0]):
        _assert_like_numpy(counts, 10000, 11, generators)
    assert len(results) == 4 and all(r is not None for r in results)


@functools.lru_cache(maxsize=None)
def _stopping_seeds():
    """Seeds whose 10 000 rows of 11 over 3 cells include one numpy stops early."""
    # k = 3, total 11: about one seed in twenty has a row whose last two cells
    # are both empty.
    return [
        s for s in range(80)
        if (np.random.default_rng(s).multinomial(11, [1 / 3] * 3, size=10000)[:, 1:].sum(axis=1) == 0).any()
    ]


def test_chi2_falls_back_where_numpy_stops_a_row_early(monkeypatch):
    seeds = _stopping_seeds()
    assert seeds
    results, generators = _spy_on_inversion(monkeypatch)
    for seed in seeds:
        _assert_like_numpy([6, 1, 4], 10000, seed, generators)
    assert results == [None] * len(seeds)


def _restart_everywhere(monkeypatch):
    # Every threshold past the first at the second one's value: each uniform
    # that reaches count 2 runs past the loop's bound.
    real_thresholds = stats._inversion_thresholds

    def restarting_thresholds(n, p):
        table = real_thresholds(n, p)
        return table[:1] + table[1:2] * (len(table) - 1)

    monkeypatch.setattr(stats, "_inversion_thresholds", restarting_thresholds)
    monkeypatch.setattr(stats, "_columns", {})


def test_chi2_falls_back_on_a_restart(monkeypatch):
    _restart_everywhere(monkeypatch)
    results, generators = _spy_on_inversion(monkeypatch)
    for counts in ([14, 9, 7], [20, 11]):
        _assert_like_numpy(counts, 10000, 11, generators)
    assert results == [None, None]


def test_chi2_draws_by_numpy_outside_the_table_domain(monkeypatch):
    results, generators = _spy_on_inversion(monkeypatch)
    # Past total 60 (numpy's BTPE branch), too few draws, and rosters whose
    # rows would often stop early.
    cases = [([40, 21], 10000), ([50, 30, 10], 10000), ([14, 9, 7], 999), ([3, 2, 1, 1, 1], 10000),
             ([2] * 19 + [22], 10000)]
    for counts, draws in cases:
        _assert_like_numpy(counts, draws, 3, generators)
    assert results == []


# -- draws in blocks -------------------------------------------------------------


def _random_counts(rng):
    k = rng.randint(2, 6)
    counts = [0] * k
    for _ in range(rng.randint(3, 60)):
        counts[rng.randrange(k)] += 1
    return counts


@pytest.mark.parametrize("block", [1000, 3333, 4096])
def test_chi2_small_blocks_give_the_one_block_p(block, monkeypatch):
    rng = random.Random(6502)
    cases = [(_random_counts(rng), rng.randrange(2**63)) for _ in range(12)]
    cases += [([6, 1, 4], seed) for seed in _stopping_seeds()[:3]]
    whole = [chi_square_uniform_mc(counts, draws=10000, seed=seed) for counts, seed in cases]
    monkeypatch.setattr(stats, "_BLOCK", block)
    results, _ = _spy_on_inversion(monkeypatch)
    assert [chi_square_uniform_mc(counts, draws=10000, seed=seed) for counts, seed in cases] == whole
    # Some blocks were drawn by the tables and some, holding a row numpy
    # stops early, by numpy.
    assert any(r is None for r in results) and any(r is not None for r in results)


def test_chi2_small_blocks_restart_like_one_block(monkeypatch):
    _restart_everywhere(monkeypatch)
    whole = [chi_square_uniform_mc(counts, draws=10000, seed=11) for counts in ([14, 9, 7], [20, 11])]
    monkeypatch.setattr(stats, "_BLOCK", 3333)
    results, _ = _spy_on_inversion(monkeypatch)
    assert [chi_square_uniform_mc(counts, draws=10000, seed=11) for counts in ([14, 9, 7], [20, 11])] == whole
    assert results == [None] * 8  # four blocks each, the last of one row


MANY_DRAWS = 2 * 2**16 + 5

# Drawn by the tables, and by numpy: at this many draws rows of 11 over 3
# cells stop early too often for the tables.
MANY_DRAWS_COUNTS = ([14, 9, 7], [6, 1, 4])


@pytest.mark.parametrize("counts", MANY_DRAWS_COUNTS)
def test_chi2_many_draws_match_one_multinomial(counts):
    res = chi_square_uniform_mc(counts, draws=MANY_DRAWS, seed=17)
    assert (res.statistic, res.p_value) == _chi2_float_reference(counts, MANY_DRAWS, 17)


class _RowCountingGenerator:
    """A numpy Generator that records how many rows each draw asks for."""

    def __init__(self, gen, rows):
        self._gen, self._rows = gen, rows
        self.bit_generator = gen.bit_generator

    def random(self, size):
        self._rows.append(size[0])
        return self._gen.random(size)

    def multinomial(self, n, pvals, size):
        self._rows.append(size)
        return self._gen.multinomial(n, pvals, size=size)


@pytest.mark.parametrize("counts", MANY_DRAWS_COUNTS)
def test_chi2_no_call_draws_more_than_one_block(counts, monkeypatch):
    rows = []
    real_default_rng = np.random.default_rng
    monkeypatch.setattr(np.random, "default_rng", lambda seed: _RowCountingGenerator(real_default_rng(seed), rows))
    chi_square_uniform_mc(counts, draws=MANY_DRAWS, seed=17)
    assert max(rows) <= stats._BLOCK and sum(rows) >= MANY_DRAWS
