"""Self-contained statistical tests used by the experiment analyzer.

Implements the Shapiro-Wilk W test (Royston's AS R94 approximation), the
Wilcoxon rank-sum / Mann-Whitney U test with an exact small-sample branch,
Welch's t-test, the paired t-test, and a Monte Carlo chi-square uniformity
test.  The first four use elementary numerics only: the normal quantile of
`statistics.NormalDist` and a continued-fraction regularized incomplete beta.
The chi-square test draws its multinomial samples from numpy's `Generator`,
and for small totals reproduces those draws exactly from inversion tables
built here (see `chi_square_uniform_mc`).
"""
from __future__ import annotations

import math
from functools import lru_cache
from itertools import groupby
from statistics import NormalDist
from typing import NamedTuple, Optional, Sequence


class StatsError(ValueError):
    """An input no test here accepts: an empty or non-finite sample, unequal pairs, bad counts or draws."""


class DegenerateSample(StatsError):
    """The sample has no variance (or too few points) for the requested test."""


class TestResult(NamedTuple):
    test_name: str
    statistic: float
    p_value: float


def _values(x) -> list[float]:
    vals = [float(v) for v in x]
    if any(not math.isfinite(v) for v in vals):
        raise StatsError("samples must contain finite values only")
    return vals


def _mean(xs: Sequence[float]) -> float:
    return sum(xs) / len(xs)


def sample_var(xs: Sequence[float]) -> float:
    """The unbiased sample variance: squared deviations from the mean over n - 1."""
    m = _mean(xs)
    return sum((v - m) ** 2 for v in xs) / (len(xs) - 1)


def norm_sf(z: float) -> float:
    """Upper tail of the standard normal distribution."""
    return 0.5 * math.erfc(z / math.sqrt(2.0))


def _betacf(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta function (Lentz's method).

    Each step folds one partial numerator `aa` into c, d and h; c starts
    infinite, so the first step, -(a+b)x/(a+1), leaves c at 1 and h at 1/d.
    """
    tiny = 1e-300
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    h, c, d = 1.0, math.inf, 1.0
    for m in range(400):
        m2 = 2 * m
        numerators = ((m * (b - m) * x / ((qam + m2) * (a + m2)), -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2)))
                      if m else (-qab * x / qap,))
        for aa in numerators:
            d, c = 1.0 + aa * d, 1.0 + aa / c
            d, c = 1.0 / (tiny if abs(d) < tiny else d), tiny if abs(c) < tiny else c
            delta = d * c
            h *= delta
        if m and abs(delta - 1.0) < 1e-15:
            return h
    return h


def betainc(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta function I_x(a, b)."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    ln_front = (
        math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
        + a * math.log(x) + b * math.log(1.0 - x)
    )
    front = math.exp(ln_front)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def t_sf_two_sided(t: float, df: float) -> float:
    """Two-sided p-value for a t statistic with `df` degrees of freedom."""
    if math.isinf(t):
        return 0.0
    if t == 0.0:
        return 1.0
    return betainc(df / 2.0, 0.5, df / (df + t * t))


# -- Shapiro-Wilk ------------------------------------------------------------

_SW_C1 = (-2.706056, 4.434685, -2.071190, -0.147981, 0.221157, 0.0)
_SW_C2 = (-3.582633, 5.682633, -1.752461, -0.293762, 0.042981, 0.0)
_SW_C3 = (-0.0006714, 0.025054, -0.39978, 0.544)
_SW_C4 = (-0.0020322, 0.062767, -0.77857, 1.3822)
_SW_C5 = (0.0038915, -0.083751, -0.31082, -1.5861)
_SW_C6 = (0.0030302, -0.082676, -0.4803)


def _polyval(coeffs: Sequence[float], x: float) -> float:
    acc = 0.0
    for c in coeffs:
        acc = acc * x + c
    return acc


@lru_cache(maxsize=64)
def _sw_weights(n: int) -> tuple[float, ...]:
    """The Shapiro-Wilk coefficients for a sample of `n`, computed once per `n`.

    Every group of one comparison has the same size, so the `n` normal
    quantiles are computed once rather than once per test.  The tuple cannot
    be changed by a caller; the bound caps what sweeps over many sizes keep.
    """
    if n == 3:
        r = math.sqrt(0.5)
        return (-r, 0.0, r)
    ppf = NormalDist().inv_cdf
    m = [ppf((i - 0.375) / (n + 0.25)) for i in range(1, n + 1)]
    ssq = sum(v * v for v in m)
    u = 1.0 / math.sqrt(n)
    a_n = m[-1] / math.sqrt(ssq) + _polyval(_SW_C1, u)
    if n > 5:
        a_n1 = m[-2] / math.sqrt(ssq) + _polyval(_SW_C2, u)
        phi = (ssq - 2.0 * m[-1] ** 2 - 2.0 * m[-2] ** 2) / (1.0 - 2.0 * a_n ** 2 - 2.0 * a_n1 ** 2)
        a = [v / math.sqrt(phi) for v in m]
        a[-1], a[0] = a_n, -a_n
        a[-2], a[1] = a_n1, -a_n1
    else:
        phi = (ssq - 2.0 * m[-1] ** 2) / (1.0 - 2.0 * a_n ** 2)
        a = [v / math.sqrt(phi) for v in m]
        a[-1], a[0] = a_n, -a_n
    return tuple(a)


def shapiro_wilk(x) -> TestResult:
    """Shapiro-Wilk normality test for n >= 3 (AS R94 approximation, validated up to n = 5000, as scipy's)."""
    vals = sorted(_values(x))
    n = len(vals)
    if n < 3:
        raise DegenerateSample(f"Shapiro-Wilk needs at least 3 observations, got {n}")
    if vals[-1] - vals[0] == 0.0:
        raise DegenerateSample("Shapiro-Wilk is undefined for a zero-variance sample")

    a = _sw_weights(n)
    mean = _mean(vals)
    numer = sum(w * v for w, v in zip(a, vals)) ** 2
    denom = sum((v - mean) ** 2 for v in vals)
    w_stat = min(numer / denom, 1.0 - 1e-15)

    if n == 3:
        p = (6.0 / math.pi) * (math.asin(math.sqrt(w_stat)) - math.asin(math.sqrt(0.75)))
        p = min(max(p, 0.0), 1.0)
        return TestResult("shapiro_wilk", w_stat, p)

    w1 = 1.0 - w_stat
    if n <= 11:
        gamma = 0.459 * n - 2.273
        if gamma - math.log(w1) <= 0.0:
            return TestResult("shapiro_wilk", w_stat, 1e-19)
        y = -math.log(gamma - math.log(w1))
        mu = _polyval(_SW_C3, float(n))
        sigma = math.exp(_polyval(_SW_C4, float(n)))
    else:
        y = math.log(w1)
        ln_n = math.log(n)
        mu = _polyval(_SW_C5, ln_n)
        sigma = math.exp(_polyval(_SW_C6, ln_n))
    p = norm_sf((y - mu) / sigma)
    return TestResult("shapiro_wilk", w_stat, p)


# -- rank-sum ----------------------------------------------------------------

def _midranks(pooled: Sequence[float]) -> tuple[list[float], float]:
    """The midrank of each value, and the tie term: the sum of t**3 - t over groups of t equal values."""
    order = sorted(range(len(pooled)), key=lambda i: pooled[i])
    ranks = [0.0] * len(pooled)
    pos, tie_term = 0, 0.0
    for _, grp in groupby(order, key=lambda i: pooled[i]):
        idx = list(grp)
        avg = pos + (len(idx) + 1) / 2.0
        for i in idx:
            ranks[i] = avg
        pos += len(idx)
        tie_term += len(idx) ** 3 - len(idx)
    return ranks, tie_term


def _exact_u_tail_counts(n1: int, n2: int) -> list[int]:
    """Count rank subsets of size n1 from 1..n1+n2 by their U statistic."""
    max_u = n1 * n2
    # ways[k][u]: subsets of k ranks seen so far with U = (rank sum) - k(k+1)/2 = u
    ways = [[0] * (max_u + 1) for _ in range(n1 + 1)]
    ways[0][0] = 1
    for rank in range(1, n1 + n2 + 1):
        for k in range(min(rank, n1), 0, -1):
            row, prev = ways[k], ways[k - 1]
            shift = rank - k  # U contribution of taking this rank as the k-th pick
            for u in range(max_u, shift - 1, -1):
                if prev[u - shift]:
                    row[u] += prev[u - shift]
    return ways[n1]


def _exact_two_sided_p(u1: float, n1: int, n2: int) -> float:
    small, large = min(n1, n2), max(n1, n2)
    counts = _exact_u_tail_counts(small, large)
    total = sum(counts)
    u_int = int(round(u1))
    lower = sum(counts[: u_int + 1])
    upper = sum(counts[u_int:])
    return min(1.0, 2.0 * min(lower, upper) / total)


def _normal_two_sided_p(u1: float, n1: int, n2: int, tie_term: float) -> float:
    """Tie-corrected, continuity-corrected approximation; `tie_term` as `_midranks` returns it."""
    mu = n1 * n2 / 2.0
    n = n1 + n2
    var = n1 * n2 / 12.0 * ((n + 1) - tie_term / (n * (n - 1)))
    if var <= 0.0:
        return 1.0
    diff = u1 - mu
    z = (diff - math.copysign(0.5, diff)) / math.sqrt(var) if diff != 0.0 else 0.0
    return min(1.0, 2.0 * norm_sf(abs(z)))


def wilcoxon_rank_sum(x, y) -> TestResult:
    """Two-sided Wilcoxon rank-sum (Mann-Whitney U) test.

    Small tie-free samples (min size <= 8) get an exact enumeration p-value;
    otherwise the normal approximation with midrank tie correction and a 0.5
    continuity correction is used.  The statistic reported is U for the first
    sample.
    """
    xs, ys = _values(x), _values(y)
    n1, n2 = len(xs), len(ys)
    if n1 == 0 or n2 == 0:
        raise StatsError("both samples must be non-empty")
    pooled = xs + ys
    ranks, tie_term = _midranks(pooled)
    u1 = sum(ranks[:n1]) - n1 * (n1 + 1) / 2.0

    if min(n1, n2) <= 8 and not tie_term:
        p = _exact_two_sided_p(u1, n1, n2)
    else:
        p = _normal_two_sided_p(u1, n1, n2, tie_term)
    return TestResult("wilcoxon_rank_sum", u1, p)


def welch_t_test(x, y) -> TestResult:
    """Welch's unequal-variance t-test with Satterthwaite degrees of freedom."""
    xs, ys = _values(x), _values(y)
    n1, n2 = len(xs), len(ys)
    if n1 < 2 or n2 < 2:
        raise DegenerateSample("Welch's t-test needs at least 2 observations per group")
    v1, v2 = sample_var(xs), sample_var(ys)
    if v1 == 0.0 or v2 == 0.0:
        raise DegenerateSample("Welch's t-test is undefined for a zero-variance group")
    se1, se2 = v1 / n1, v2 / n2
    t = (_mean(xs) - _mean(ys)) / math.sqrt(se1 + se2)
    df = (se1 + se2) ** 2 / (se1 ** 2 / (n1 - 1) + se2 ** 2 / (n2 - 1))
    p = t_sf_two_sided(t, df)
    return TestResult("welch_t", t, p)


def paired_t_test(x, y) -> TestResult:
    """Two-sided paired t-test on elementwise differences."""
    xs, ys = _values(x), _values(y)
    if len(xs) != len(ys):
        raise StatsError(f"paired samples differ in length: {len(xs)} vs {len(ys)}")
    n = len(xs)
    if n < 2:
        raise DegenerateSample("paired t-test needs at least 2 pairs")
    d = [a - b for a, b in zip(xs, ys)]
    if all(v == 0.0 for v in d):
        raise DegenerateSample("paired t-test is undefined for identical samples")
    mean_d = _mean(d)
    var_d = sample_var(d)
    if var_d == 0.0:
        t = math.copysign(math.inf, mean_d)
        return TestResult("paired_t", t, 0.0)
    t = mean_d / math.sqrt(var_d / n)
    p = t_sf_two_sided(t, n - 1)
    return TestResult("paired_t", t, p)


# -- multinomial draws by table ------------------------------------------------
#
# numpy's `Generator.multinomial(n, pvals)` draws a row as k - 1 conditional
# binomials: column j gets the count n left in the row and p = pvals[j] / rest,
# where rest starts at 1.0 and loses each pvals[j] in turn.  While
# n * min(p, 1 - p) <= 30 a binomial is drawn by inversion from one uniform
# U = m / 2**53 (numpy's `random_binomial_inversion`): with q = 1 - p and
# px = exp(n * log(q)), `while U > px: X += 1; U -= px;
# px = (n - X + 1) * p * px / (X * q)`, restarting with a new uniform once X
# passes a bound.  For p > 1/2 it returns n - inversion(n, 1 - p).  Every
# rounded step is monotone in U, so the count returned is the number of
# integer thresholds at or below m, and a table of them draws a whole column
# at once.

_FAST_MAX_TOTAL = 60  # n <= 60 keeps n * min(p, 1 - p) <= 30: inversion in every column
_FAST_MIN_DRAWS = 1000  # fewer draws do not pay for the tables
_UNIT = 2**53  # Generator.random() returns m / 2**53 for an integer m
_GUIDE_BITS = 8  # the top bits of m index a guide to the first threshold to test
_SLOT = _FAST_MAX_TOTAL + 2  # bound + 1 <= n + 1 thresholds, then a separator
_RESTART = -1  # the count of a uniform numpy would not map in one pass
_BLOCK = 2**16  # most rows drawn at once, so memory does not grow with the draws
_columns: dict = {}  # (p, mirrored) -> _Column, kept for the life of the process


def _inversion_thresholds(n: int, p: float) -> list[int]:
    """For X = 1 .. bound + 1, the least m at which numpy's inversion loop
    started from U = m / 2**53 reaches X (at bound + 1 it restarts).

    The loop reaches X when U_i = fl(U_{i-1} - px_{i-1}) > px_i for every
    i < X.  A rounded cumulative sum is not that chain, so each threshold walks
    it backwards: from the least double above px_{X-1}, each step finds the
    least U whose rounded difference still reaches the level above, one ulp at
    a time.
    """
    q = 1.0 - p
    px = [math.exp(n * math.log(q))]
    mean = n * p
    bound = int(min(n, mean + 10.0 * math.sqrt(mean * q + 1)))
    for x in range(1, bound + 1):
        px.append((n - x + 1) * p * px[-1] / (x * q))
    up, down = math.inf, -math.inf
    thresholds = []
    for x in range(1, bound + 2):
        low = math.nextafter(px[x - 1], up)
        for prob in reversed(px[: x - 1]):
            u = low + prob
            while u - prob < low:
                u = math.nextafter(u, up)
            while math.nextafter(u, down) - prob >= low:
                u = math.nextafter(u, down)
            low = u
        thresholds.append(min(math.ceil(low * _UNIT), _UNIT))
    return thresholds


class _Column:
    """One column's inversion tables, for every row count n up to _FAST_MAX_TOTAL.

    Row count n owns the _SLOT slots from n * _SLOT: its thresholds, then
    separators no m reaches.  `values` holds the count drawn for each number
    of thresholds passed (n minus it when mirrored), and _RESTART where all of
    them were passed: numpy restarts there.  A row count not built yet maps
    every m to _RESTART, and so does n = 0, which a row reaches before its
    last column only where numpy stops drawing the row.  `guide` holds, for
    each n and each value of the top _GUIDE_BITS bits of m, the first slot
    `draw` tests.
    """

    __slots__ = ("p", "mirrored", "built", "thresholds", "values", "guide")

    def __init__(self, p: float, mirrored: bool):
        import numpy as np

        self.p, self.mirrored = p, mirrored
        self.built = [False] * (_FAST_MAX_TOTAL + 1)
        self.thresholds = np.full((_FAST_MAX_TOTAL + 1) * _SLOT, _UNIT, dtype=np.int64)
        self.values = np.full(len(self.thresholds), _RESTART, dtype=np.int64)
        self.guide = np.repeat(np.arange(0, len(self.thresholds), _SLOT), 1 << _GUIDE_BITS)

    def build(self, n: int) -> None:
        import numpy as np

        at, table = n * _SLOT, np.array(_inversion_thresholds(n, self.p), dtype=np.int64)
        passed = np.arange(len(table))  # passing all len(table) is the restart: _RESTART stays
        self.thresholds[at : at + len(table)] = table
        self.values[at : at + len(table)] = n - passed if self.mirrored else passed
        starts = np.arange(1 << _GUIDE_BITS, dtype=np.int64) << (53 - _GUIDE_BITS)
        self.guide[n << _GUIDE_BITS : (n + 1) << _GUIDE_BITS] = at + table.searchsorted(starts, side="right")
        self.built[n] = True

    def draw(self, n, m):
        """The counts drawn for row counts `n` from uniforms `m / 2**53`."""
        import numpy as np

        for size in range(max(int(n.min()), 1), int(n.max()) + 1):
            if not self.built[size]:
                self.build(size)
        pos = self.guide[(n << _GUIDE_BITS) | (m >> (53 - _GUIDE_BITS))]
        ahead = np.flatnonzero(self.thresholds[pos] <= m)
        while ahead.size:
            pos[ahead] += 1
            ahead = ahead[self.thresholds[pos[ahead]] <= m[ahead]]
        return self.values[pos]


def _multinomial_by_inversion(gen, total: int, k: int, draws: int):
    """`gen.multinomial(total, [1/k]*k, size=draws)`, or None where numpy
    would draw some row otherwise (a restart, or a row stopped early); the
    generator has then moved on.  Needs total <= _FAST_MAX_TOTAL."""
    import numpy as np

    # Fortran order makes each column's uniforms contiguous in the transpose.
    m = (gen.random((draws, k - 1)) * _UNIT).astype(np.int64, order="F").T
    rows = np.empty((k, draws), dtype=np.int64)
    left = np.full(draws, total, dtype=np.int64)
    share, rest = 1.0 / k, 1.0
    for j in range(k - 1):
        p = share / rest
        rest -= share
        key = (1.0 - p, True) if p > 0.5 else (p, False)
        column = _columns.get(key)
        if column is None:
            column = _columns[key] = _Column(*key)
        rows[j] = column.draw(left, m[j])
        if rows[j].min() < 0:
            return None
        left -= rows[j]
    rows[k - 1] = left
    return rows.T


def chi_square_uniform_mc(counts: Sequence[int], draws: int = 10000, seed: int = 0) -> TestResult:
    """Chi-square goodness of fit against uniform, with a Monte Carlo p-value.

    The p-value is the add-one tail estimate (1 + #{simulated >= observed}) /
    (draws + 1) under multinomial resampling with a dedicated seeded generator,
    so it is never exactly zero.  The statistic is k/T * sum(c^2) - T for a
    total T, so each draw is compared on its exact integer sum of squares, at
    most T^2: int64 holds it while T^2 < 2^63, and larger totals are refused.

    With q, r = divmod(T, k), no k non-negative integers summing to T have a
    sum of squares below r*(q+1)^2 + (k-r)*q^2, the sum of the most even
    split: moving one unit from a cell a to a cell b <= a - 2 lowers the sum
    by 2(a - b - 1) > 0, so only a split whose cells differ by at most one
    can be minimal, and that split is unique up to order.  Every draw sums to
    T, so when the observed counts reach this bound every draw counts as
    exceeding them and p is exactly 1, whatever the seed; nothing is drawn.

    The draws are those of `default_rng(seed).multinomial(T, [1/k]*k,
    size=draws)`, bit for bit.  When draws >= 1000, T <= 60 and
    draws * (1 - 2/k)**T < 1/2, they are made from inversion tables instead
    (`_multinomial_by_inversion`): the same uniforms are taken from the same
    generator with `Generator.random`, and each column's conditional binomial
    is looked up in a table of the thresholds at which numpy's inversion loop
    returns each count.  T <= 60 keeps n * min(p, 1 - p) <= 30 in every
    column, numpy's inversion domain (above it numpy switches to BTPE), and
    bounds the tables; (1 - 2/k)**T is the chance that a row's last two cells
    are both empty, where numpy stops drawing the row early and later rows
    take other uniforms, so the bound keeps fallbacks rare; fewer draws do not
    pay for the tables.  Rows are drawn in blocks of at most _BLOCK, so memory
    stays bounded.  If any row of a block is drawn otherwise (that early stop,
    or a restart past the inversion bound) the generator's state is restored
    and `Generator.multinomial` draws the block, so each test still builds one
    generator; a block the tables drew took one uniform per binomial, as numpy
    does, so the next block starts where numpy's would.  The tables assume
    that Python's `math.exp` and `math.log` call the libm numpy's C code
    calls, and that numpy does the rest of the loop in plain double
    arithmetic; tests/test_stats.py compares the draws with numpy's, row for
    row.
    """
    counts = [int(c) for c in counts]
    k = len(counts)
    total = sum(counts)
    if k < 2 or total <= 0:
        raise StatsError("need at least two categories with a positive total")
    if any(c < 0 for c in counts):
        raise StatsError("counts must be non-negative")
    if total * total >= 2**63:
        raise StatsError(f"total {total} is too large: its square must fit in int64")
    if draws < 1:
        raise StatsError(f"draws must be at least 1, got {draws}")
    import numpy as np  # deferred: only this test needs numpy, and importing it dominates CLI start-up

    expected = total / k
    observed = float(((np.asarray(counts, dtype=float) - expected) ** 2 / expected).sum())
    sum_sq = sum(c * c for c in counts)
    q, r = divmod(total, k)
    if sum_sq <= r * (q + 1) ** 2 + (k - r) * q * q:
        p = 1.0
    else:
        gen = np.random.default_rng(seed)
        by_table = draws >= _FAST_MIN_DRAWS and total <= _FAST_MAX_TOTAL and draws * (1.0 - 2.0 / k) ** total < 0.5
        exceed = 0
        for start in range(0, draws, _BLOCK):
            size = min(_BLOCK, draws - start)
            sims = None
            if by_table:
                state = gen.bit_generator.state
                sims = _multinomial_by_inversion(gen, total, k, size)
                if sims is None:
                    gen.bit_generator.state = state
            if sims is None:
                sims = gen.multinomial(total, [1.0 / k] * k, size=size)
            exceed += int((np.einsum("ij,ij->i", sims, sims) >= sum_sq).sum())
        p = (1 + exceed) / (draws + 1)
    return TestResult("chi_square_uniform_mc", observed, p)
