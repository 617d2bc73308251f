import math

import numpy as np
import pytest

from pvb.distributions import (
    FAMILIES,
    STOPPING_FAMILIES,
    DegenerateFitError,
    GainAccumulator,
    MixedGainDistribution,
    cdf,
    fit_report,
    kolmogorov_pvalue,
    ks_test,
    survival,
    tail_cdf,
    tail_survival,
)
from pvb.gains import GainPair, GainSeries, is_zero_gain

from oracles import ks_brute, sample_mixed, sample_tail, tail_cdf_mp


def fit(samples, family):
    """Fit the mixed distribution to a batch of geometric-mean gains."""
    acc = GainAccumulator()
    acc.extend(samples)
    return acc.fit(family)


class TestFit:
    def test_half_zeros_exponential(self):
        d = fit([0, 0, 2, 2], "exponential")
        assert d.p0 == 0.5
        assert d.theta == (0.5,)

    def test_pareto_hand_mle(self):
        d = fit([1, 2, 4, 8], "pareto")
        assert d.p0 == 0.0
        assert d.theta[0] == 1.0
        assert d.theta[1] == pytest.approx(4.0 / math.log(64.0), rel=1e-14)

    def test_exponential_consistency_10k(self):
        rng = np.random.default_rng(101)
        samples = sample_tail(rng, "exponential", (3.0,), 10_000)
        d = fit(samples, "exponential")
        # 5 sigma band of the asymptotic MLE stddev lambda/sqrt(n)
        assert 2.85 <= d.theta[0] <= 3.15

    def test_all_zero_degenerate(self):
        d = fit([0.0, 0.0, 0.0], "exponential")
        assert d.p0 == 1.0
        assert d.degenerate

    def test_pareto_all_equal_rejected(self):
        assert fit([3.0, 3.0, 3.0], "pareto") == MixedGainDistribution(0.0, "pareto", None)

    def test_too_few_nonzero_for_two_parameter_tails(self):
        for family in ("pareto", "lognormal"):
            assert fit([0.0, 5.0], family) == MixedGainDistribution(0.5, family, None)

    @pytest.mark.parametrize(
        "samples, family",
        [
            ([0.0, 0.0, 0.0], "pareto"),
            ([0.0, 2.0, 2.0, 2.0], "lognormal"),
            ([0.0, 2.0, 2.0, 2.0], "normal"),
            ([0.0, 1e154, 1.2e154, 0.9e154], "normal"),  # the sum of squares overflows
            ([0.0, 1e308, 1e308], "exponential"),  # the sum overflows
        ],
    )
    def test_undefined_fit_is_degenerate_with_the_sample_p0(self, samples, family):
        d = fit(samples, family)
        assert d == MixedGainDistribution(samples.count(0.0) / len(samples), family, None)
        assert cdf(d, 0.0) == d.p0
        with pytest.raises(DegenerateFitError):
            cdf(d, 1.0)
        with pytest.raises(DegenerateFitError):
            survival(d, 1.0)
        with pytest.raises(DegenerateFitError):
            ks_test([1.0], d)

    @pytest.mark.parametrize(
        "samples, family",
        [
            # equal gains whose running sums keep a rounding-size spread
            ([0.113] * 6, "pareto"),
            ([0.813] * 3, "lognormal"),
            ([0.313] * 3, "normal"),
        ],
    )
    def test_equal_nonzero_gains_have_no_spread(self, samples, family):
        assert fit([0.0] + samples, family) == MixedGainDistribution(
            1 / (len(samples) + 1), family, None
        )

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            fit([], "exponential")

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            fit([1.0], "weibull")

    def test_mle_matches_direct_formulas(self):
        rng = np.random.default_rng(103)
        xs = rng.uniform(0.1, 50.0, size=500)
        xs[rng.random(500) < 0.3] = 0.0
        nz = xs[xs > 0]
        expected = {
            "exponential": (1.0 / nz.mean(),),
            "pareto": (nz.min(), len(nz) / np.log(nz / nz.min()).sum()),
            "lognormal": (np.log(nz).mean(), np.log(nz).std()),
            "uniform": (nz.max(),),
            "normal": (nz.mean(), nz.std()),
        }
        for family, theta in expected.items():
            d = fit(xs, family)
            assert d.p0 == pytest.approx((xs == 0).mean(), abs=1e-15)
            assert d.theta == pytest.approx(tuple(float(t) for t in theta), rel=1e-9)


class TestAccumulator:
    def test_incremental_equals_batch(self):
        rng = np.random.default_rng(107)
        xs = rng.exponential(2.0, size=300)
        xs[rng.random(300) < 0.2] = 0.0
        acc = GainAccumulator()
        for x in xs:
            acc.add(x)
        for family in FAMILIES:
            assert acc.fit(family) == fit(xs, family)

    def test_counts(self):
        acc = GainAccumulator()
        acc.extend([0.0, 1.0, 5e-10, 2.0])
        assert acc.count == 4
        assert acc.zero_count == 2  # 5e-10 classifies as zero
        assert acc.n_nonzero == 2

    def test_rejects_bad_values(self):
        acc = GainAccumulator()
        with pytest.raises(ValueError):
            acc.add(-1.0)
        with pytest.raises(ValueError):
            acc.add(float("nan"))


def _columns(rows, zero_count=True):
    """A GainAccumulator of arrays whose entry (r, k) holds the sums of
    rows[r][:k + 1] as add keeps them, in add's order of operations; with
    zero_count False it has none, and every gain enters nonzero_sum."""
    zero = np.array([[is_zero_gain(x) for x in row] for row in rows])
    v = np.where(zero, 0.0, np.array(rows, dtype=float))
    lg = np.array([[0.0 if z else math.log(x) for x, z in zip(*pair)] for pair in zip(v, zero)])
    count = np.arange(1, v.shape[1] + 1)
    with np.errstate(over="ignore"):  # sums past the float range are inf, as add's
        if not zero_count:
            return GainAccumulator(count, nonzero_sum=np.add.accumulate(v, 1))
        return GainAccumulator(
            count=count,
            zero_count=np.cumsum(zero, 1, dtype=float),
            nonzero_sum=np.add.accumulate(v, 1),
            nonzero_sum_sq=np.add.accumulate(v * v, 1),
            sum_logs=np.add.accumulate(lg, 1),
            sum_sq_logs=np.add.accumulate(lg * lg, 1),
            nonzero_min=np.minimum.accumulate(np.where(zero, np.inf, v), 1),
            nonzero_max=np.maximum.accumulate(v, 1),
            log_min=np.minimum.accumulate(np.where(zero, np.inf, lg), 1),
        )


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestTailColumns:
    """GainAccumulator.tail on array sums, as the campaign engine calls it,
    is fit on each prefix, bit for bit: one MLE for both."""

    ABOVE_1E300 = float(np.nextafter(1e300, np.inf))
    ROWS = {
        "no nonzero gain": [0.0, 0.0, 5e-10, 0.0, 0.0, 0.0],
        "one nonzero gain": [0.0, 3.0, 0.0, 0.0, 0.0, 0.0],
        "equal gains": [3.3] * 6,
        "normal sums overflow": [1e154, 1.2e154, 0.0, 0.9e154, 1.1e154, 1e154],
        "gain sum overflows": [1e308, 0.0, 1.7e308, 3.0, 1e308, 2.0],
        "pareto logs equal": [1e300, ABOVE_1E300, 0.0, 1e300, ABOVE_1E300, 1e300],
        "mixed": [0.0, 2.5, 0.7, 0.0, 13.0, 1.0001],
        "tiny and huge": [1e-8, 0.0, 4e7, 2e-8, 0.0, 9.5],
    }

    def test_tail_on_columns_is_fit_on_each_prefix(self):
        rows = list(self.ROWS.values())
        cols = _columns(rows)
        for family in FAMILIES:
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                theta, defined = cols.tail(family)
            for r, row in enumerate(rows):
                for k in range(len(row)):
                    acc = GainAccumulator()
                    acc.extend(row[: k + 1])
                    dist = acc.fit(family)
                    assert defined[r, k] == (not dist.degenerate), (family, r, k)
                    if not dist.degenerate:
                        assert _bits([t[r, k] for t in theta]) == _bits(dist.theta), (family, r, k)

    def test_the_rows_reach_every_undefined_case(self):
        rows = list(self.ROWS.values())
        cols = _columns(rows)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            tails = {family: cols.tail(family)[1] for family in FAMILIES}
        none, one, equal, normal, total, logs = range(6)
        assert not any(d[none].any() for d in tails.values())
        assert tails["uniform"][one, 1] and tails["exponential"][one, 1]
        assert not tails["pareto"][one].any()
        for family in ("pareto", "lognormal", "normal"):
            assert not tails[family][equal].any()
        # though their sums leave a log ratio sum and variances of rounding size
        assert cols.sum_logs[equal, 5] - 6 * cols.log_min[equal, 5] > 0
        for sums, squares in ((cols.nonzero_sum, cols.nonzero_sum_sq),
                              (cols.sum_logs, cols.sum_sq_logs)):
            mean = sums[equal, 2] / 3
            assert squares[equal, 2] / 3 - mean * mean > 0
        assert tails["lognormal"][normal, -1] and not tails["normal"][normal, 1:].any()
        assert tails["exponential"][total, 0] and not tails["exponential"][total, 2:].any()
        # distinct gains, so a spread, but one log: no pareto tail
        assert (cols.nonzero_min[logs, 1:] < cols.nonzero_max[logs, 1:]).all()
        assert not tails["pareto"][logs].any()

    def test_tail_without_a_zero_count_is_the_rate_over_every_reveal(self):
        """prob-exp's form: p0 = 0 and the rate i / sum over all i reveals,
        zeros included; a sum that is 0 or overflows leaves no rate."""
        rows = list(self.ROWS.values())
        cols = _columns(rows, zero_count=False)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            (rate,), defined = cols.tail("exponential")
        for r, row in enumerate(rows):
            total = 0.0
            for k, x in enumerate(row):
                total += 0.0 if is_zero_gain(x) else x
                assert defined[r, k] == (0.0 < total < math.inf), (r, k)
                if total > 0.0:
                    dist = GainAccumulator(count=k + 1, nonzero_sum=total).fit("exponential")
                    assert dist.p0 == 0.0
                    if defined[r, k]:
                        assert _bits([rate[r, k]]) == _bits(dist.theta), (r, k)
                        assert _bits([rate[r, k]]) == _bits([(k + 1) / total]), (r, k)


class TestCdf:
    def test_mass_point(self):
        assert cdf(MixedGainDistribution(0.5, "exponential", (1.0,)), 0.0) == 0.5

    def test_exponential_median(self):
        d = MixedGainDistribution(0.0, "exponential", (1.0,))
        assert cdf(d, math.log(2.0)) == pytest.approx(0.5, rel=1e-12)

    def test_pareto_hand_value(self):
        d = MixedGainDistribution(0.25, "pareto", (1.0, 2.0))
        assert cdf(d, 2.0) == pytest.approx(0.8125, rel=1e-14)

    def test_negative_argument(self):
        assert cdf(MixedGainDistribution(0.3, "pareto", (1.0, 2.0)), -1.0) == 0.0
        # the normal control keeps its negative support, mass point excluded
        d = MixedGainDistribution(0.3, "normal", (0.0, 1.0))
        assert cdf(d, -1e9) == pytest.approx(0.0, abs=1e-12)
        assert cdf(d, 0.0) == pytest.approx(0.3 + 0.35, rel=1e-12)

    def test_degenerate_tail_errors_above_zero(self):
        d = fit([0.0, 0.0], "exponential")
        assert cdf(d, 0.0) == 1.0
        with pytest.raises(DegenerateFitError):
            cdf(d, 1.0)

    def test_monotone_and_bounded(self):
        rng = np.random.default_rng(109)
        for _ in range(10_000):
            family = FAMILIES[rng.integers(len(FAMILIES))]
            theta = {
                "exponential": (rng.uniform(0.1, 5),),
                "pareto": (rng.uniform(0.1, 3), rng.uniform(0.3, 5)),
                "lognormal": (rng.uniform(-2, 2), rng.uniform(0.1, 2)),
                "uniform": (rng.uniform(0.5, 10),),
                "normal": (rng.uniform(-5, 5), rng.uniform(0.1, 3)),
            }[family]
            d = MixedGainDistribution(rng.uniform(0, 1), family, theta)
            g1, g2 = sorted(rng.uniform(0, 20, size=2))
            c1, c2 = cdf(d, g1), cdf(d, g2)
            assert 0.0 <= c1 <= c2 <= 1.0

    def test_mass_point_identity_nonnegative_families(self):
        rng = np.random.default_rng(113)
        for family in ("exponential", "pareto", "lognormal", "uniform"):
            for _ in range(50):
                p0 = float(rng.uniform(0, 1))
                theta = {
                    "exponential": (1.0,),
                    "pareto": (0.5, 2.0),
                    "lognormal": (0.0, 1.0),
                    "uniform": (4.0,),
                }[family]
                assert cdf(MixedGainDistribution(p0, family, theta), 0.0) == p0

    def test_matches_extended_precision(self):
        rng = np.random.default_rng(127)
        for family in FAMILIES:
            theta = {
                "exponential": (2.0,),
                "pareto": (0.7, 1.8),
                "lognormal": (0.3, 1.1),
                "uniform": (5.0,),
                "normal": (2.0, 0.9),
            }[family]
            d = MixedGainDistribution(0.0, family, theta)
            for g in rng.uniform(0.01, 12.0, size=40):
                assert cdf(d, g) == pytest.approx(
                    tail_cdf_mp(family, theta, g), abs=1e-12
                )

    def test_survival_strictly_positive_for_stopping_tails(self):
        for family in STOPPING_FAMILIES:
            theta = {
                "exponential": (3.0,),
                "pareto": (1.0, 2.5),
                "lognormal": (0.0, 1.0),
            }[family]
            d = MixedGainDistribution(0.4, family, theta)
            for g_max in (1.0, 10.0, 100.0, 1e4):
                assert survival(d, g_max) > 0.0
        # the uniform control violates the superset-support requirement
        u = MixedGainDistribution(0.0, "uniform", (2.0,))
        assert survival(u, 3.0) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            MixedGainDistribution(1.5, "exponential", (1.0,))
        with pytest.raises(ValueError):
            MixedGainDistribution(0.5, "exponential", (-1.0,))
        with pytest.raises(ValueError):
            MixedGainDistribution(0.5, "pareto", (1.0,))


def _bits(values):
    return np.asarray(values, dtype=float).view(np.uint64).tolist()


class TestTailFormulas:
    """One implementation per formula: a scalar query of a distribution is
    the array formula's element, bit for bit."""

    # g <= 0 (signed zero included), below and at the pareto x_m = 0.7,
    # the body, and the far tail where every stopping family's survival
    # underflows to the 5e-324 floor
    G = np.array([-3.0, -0.0, 0.0, 1e-300, 0.3, 0.7, 0.70001, 1.0, 2.5, 12.0, 1e3, 1e300])
    THETAS = {
        "exponential": (2.0,),
        "pareto": (0.7, 1.8),
        "lognormal": (0.3, 1.1),
        "uniform": (5.0,),
        "normal": (2.0, 0.9),
    }

    @staticmethod
    def _random_theta(rng, family):
        return {
            "exponential": (rng.uniform(0.05, 5),),
            "pareto": (rng.uniform(0.1, 3), rng.uniform(0.3, 5)),
            "lognormal": (rng.uniform(-2, 2), rng.uniform(0.1, 2)),
            "uniform": (rng.uniform(0.5, 10),),
            "normal": (rng.uniform(-5, 5), rng.uniform(0.1, 3)),
        }[family]

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("formula", [tail_cdf, tail_survival])
    def test_scalar_query_is_the_array_element(self, family, formula):
        rng = np.random.default_rng(131)
        thetas = [self.THETAS[family]] + [self._random_theta(rng, family) for _ in range(30)]
        g = np.concatenate((self.G, rng.uniform(-1.0, 40.0, size=20)))
        batch = formula(family, tuple(np.array(col)[:, None] for col in zip(*thetas)), g)
        assert batch.shape == (len(thetas), len(g))
        mixed = {tail_cdf: cdf, tail_survival: survival}[formula]
        for theta, row in zip(thetas, batch):
            scalars = [formula(family, theta, x) for x in g.tolist()]
            assert all(np.ndim(v) == 0 for v in scalars)
            assert _bits(scalars) == _bits(row)
            assert _bits(formula(family, theta, g)) == _bits(row)
            # cdf and survival scale that same element by the mass point
            d = MixedGainDistribution(0.3, family, theta)
            for x, f in zip(g.tolist(), row.tolist()):
                if x >= 0:
                    v = mixed(d, x)
                    tail = (1.0 - d.p0) * f
                    assert type(v) is float
                    assert _bits([v]) == _bits([d.p0 + tail if formula is tail_cdf else tail])

    @pytest.mark.parametrize("family", FAMILIES)
    def test_boundary_values(self, family):
        theta = self.THETAS[family]
        cdf_at = dict(zip(self.G.tolist(), tail_cdf(family, theta, self.G).tolist()))
        surv_at = dict(zip(self.G.tolist(), tail_survival(family, theta, self.G).tolist()))
        if family != "normal":
            for g in (-3.0, 0.0):
                assert cdf_at[g] == 0.0 and surv_at[g] == 1.0
        if family == "pareto":
            for g in (0.3, 0.7):
                assert cdf_at[g] == 0.0 and surv_at[g] == 1.0
            assert 0.0 < cdf_at[0.70001] < 1e-4
        if family in STOPPING_FAMILIES:
            assert surv_at[1e300] == 5e-324
            assert cdf_at[1e300] == 1.0
        if family == "uniform":
            assert surv_at[12.0] == 0.0 and cdf_at[12.0] == 1.0


class TestKsTest:
    def test_exact_quantiles_give_half_step(self):
        d = MixedGainDistribution(0.0, "exponential", (1.0,))
        n = 100
        xs = [-math.log(1.0 - (i - 0.5) / n) for i in range(1, n + 1)]
        stat, _ = ks_test(xs, d)
        assert stat == pytest.approx(0.005, abs=1e-12)

    def test_single_sample_at_median(self):
        d = MixedGainDistribution(0.0, "exponential", (1.0,))
        stat, _ = ks_test([math.log(2.0)], d)
        assert stat == pytest.approx(0.5, rel=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ks_test([], MixedGainDistribution(0.0, "exponential", (1.0,)))

    def test_matches_brute_force(self):
        rng = np.random.default_rng(131)
        for _ in range(40):
            family = FAMILIES[rng.integers(len(FAMILIES))]
            theta = {
                "exponential": (rng.uniform(0.5, 3),),
                "pareto": (rng.uniform(0.2, 2), rng.uniform(0.5, 4)),
                "lognormal": (rng.uniform(-1, 1), rng.uniform(0.2, 1.5)),
                "uniform": (rng.uniform(1, 8),),
                "normal": (rng.uniform(0, 4), rng.uniform(0.3, 2)),
            }[family]
            d = MixedGainDistribution(0.0, family, theta)
            n = int(rng.integers(1, 201))
            xs = sample_tail(rng, family, theta, n)
            stat, _ = ks_test(xs, d)
            brute = ks_brute(xs, lambda x, f=family, t=theta: float(tail_cdf(f, t, x)))
            assert stat == pytest.approx(brute, abs=1e-12)

    def test_calibration_under_true_model(self):
        # 200 seeded repetitions of n=1000 Exp(1) draws tested against
        # the true tail: at least 93% must not reject at alpha = 0.05
        rng = np.random.default_rng(137)
        d = MixedGainDistribution(0.0, "exponential", (1.0,))
        not_rejected = 0
        for _ in range(200):
            xs = sample_tail(rng, "exponential", (1.0,), 1000)
            _, p = ks_test(xs, d)
            not_rejected += p > 0.05
        assert not_rejected >= 186

    def test_asymptotic_tail_constant(self):
        # classic table anchor: Q(1.3581) = 0.05
        assert kolmogorov_pvalue(1.3581) == pytest.approx(0.05, abs=5e-4)
        assert kolmogorov_pvalue(1e-6) == 1.0
        assert kolmogorov_pvalue(5.0) < 1e-10


class TestFitReport:
    def _series(self, values):
        entries = tuple((f"x{i}", GainPair(v, v)) for i, v in enumerate(values))
        return GainSeries("n0", entries)

    def test_synthetic_exponential_series(self):
        rng = np.random.default_rng(139)
        xs = sample_mixed(rng, 0.3, "exponential", (2.0,), 500)
        reports = {r.distribution.family: r for r in fit_report(self._series(xs))}
        r = reports["exponential"]
        assert 0.24 <= r.distribution.p0 <= 0.36
        assert r.ks_p_value > 0.05
        assert r.verdict == "not-rejected"
        assert r.n_zero + r.n_nonzero == 500

    def test_insufficient_flag(self):
        reports = fit_report(self._series([1.0, 2.0, 3.0, 4.0, 5.0]))
        assert all(r.verdict == "insufficient" for r in reports)

    def test_all_zero_series(self):
        reports = fit_report(self._series([0.0] * 20))
        assert all(r.verdict == "degenerate" for r in reports)
        assert all(r.distribution.p0 == 1.0 for r in reports)

    def test_one_report_per_family(self):
        rng = np.random.default_rng(149)
        xs = sample_tail(rng, "exponential", (1.0,), 60)
        reports = fit_report(self._series(xs))
        assert [r.distribution.family for r in reports] == list(FAMILIES)


def asymptotic_se(family, theta, n_nonzero):
    """Asymptotic standard errors of each family's MLE components."""
    n = n_nonzero
    if family == "exponential":
        return (theta[0] / math.sqrt(n),)
    if family == "pareto":
        xm, alpha = theta
        # sample minimum converges at rate 1/(n*alpha); shape at 1/sqrt(n)
        return (xm / (n * alpha), alpha / math.sqrt(n))
    if family == "lognormal":
        sigma = theta[1]
        return (sigma / math.sqrt(n), sigma / math.sqrt(2 * n))
    if family == "uniform":
        return (theta[0] / n,)
    sigma = theta[1]
    return (sigma / math.sqrt(n), sigma / math.sqrt(2 * n))


class TestMleConsistencyLarge:
    # each family recovers its own parameters at n = 1e5 within 5
    # asymptotic standard errors; also used by the acceptance gate
    N = 100_000
    SEEDS = {"exponential": 211, "pareto": 223, "lognormal": 227,
             "uniform": 229, "normal": 233}

    @pytest.mark.parametrize(
        "family,theta",
        [
            ("exponential", (2.0,)),
            ("pareto", (1.5, 2.5)),
            ("lognormal", (0.4, 0.8)),
            ("uniform", (3.0,)),
            ("normal", (8.0, 0.5)),
        ],
    )
    def test_recovers_parameters(self, family, theta):
        rng = np.random.default_rng(self.SEEDS[family])
        xs = sample_mixed(rng, 0.25, family, theta, self.N)
        d = fit(xs, family)
        p0_se = math.sqrt(0.25 * 0.75 / self.N)
        assert abs(d.p0 - 0.25) <= 5 * p0_se
        n_nonzero = int((xs > 0).sum())
        for got, want, s in zip(d.theta, theta, asymptotic_se(family, theta, n_nonzero)):
            assert abs(got - want) <= 5 * s, (family, got, want, s)
