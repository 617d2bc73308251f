"""Mixed model of geometric-mean dual gains: point mass at zero plus tail.

P[G <= g] = p0 + (1 - p0) * F_D(g; theta)

p0 is estimated as the zero fraction of the sample and the tail family
F_D is fit by closed-form maximum likelihood on the nonzero subsample
only. Five families are supported; uniform and normal are control cases
(uniform's bounded support and normal's negative support disqualify them
from the stopping criterion, so they are excluded from STOPPING_FAMILIES).

Each family's tail CDF and tail survival is written once, as the array
functions tail_cdf and tail_survival of (family, theta, g). cdf, survival,
ks_test and the stopping rule's depth probabilities
(lookahead.depth_probabilities) all call them.

Fits are O(1)-updatable: GainAccumulator keeps the running sums (count,
sum, sum of logs, min, max, least log, squared sums) from which its tail
method, each family's one MLE, refits after each reveal without rescanning
the history: for one sample through fit, or per trial in the campaign.
fit_report fits every requested family to one node's pool, the tuple of
geometric-mean gains that gains.load_gain_series reads, and screens each
fit with KS.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .gains import is_zero_gain

FAMILIES = ("exponential", "pareto", "lognormal", "uniform", "normal")
STOPPING_FAMILIES = ("exponential", "pareto", "lognormal")

# Minimum nonzero sample size before a fit report is trusted at all.
MIN_REPORT_NONZERO = 10

# Each family's parameters in theta order, True where one must be positive;
# a row's length is the family's arity.
_THETA_POSITIVE = {
    "exponential": (True,),
    "pareto": (True, True),
    "lognormal": (False, True),
    "uniform": (True,),
    "normal": (False, True),
}


class DegenerateFitError(ValueError):
    """A degenerate tail (theta=None) was asked for a value it does not define."""


_SQRT2 = math.sqrt(2.0)
_erfc = np.vectorize(math.erfc, otypes=[float])


def tail_cdf(family: str, theta, g):
    """F_D(g; theta) elementwise; theta's entries broadcast against g.

    Powers go through np.power, never **: on numpy scalars ** takes C's
    pow, which differs from the array loop in the last ulp, and a scalar
    query must be its array's element bit for bit.
    """
    g = np.asarray(g, dtype=float)
    if family == "exponential":
        return -np.expm1(-theta[0] * np.maximum(g, 0.0))
    if family == "pareto":
        xm, alpha = theta
        return 1.0 - np.power(xm / np.maximum(g, xm), alpha)
    if family == "lognormal":
        mu, sigma = theta
        with np.errstate(divide="ignore"):  # log(0) = -inf gives F_D = 0
            z = (np.log(np.maximum(g, 0.0)) - mu) / sigma
        return 0.5 * _erfc(-z / _SQRT2)
    if family == "uniform":
        return np.clip(g / theta[0], 0.0, 1.0)
    mean, std = theta
    return 0.5 * _erfc(-((g - mean) / std) / _SQRT2)


def tail_survival(family: str, theta, g):
    """1 - F_D(g; theta) elementwise, without cancellation in the far tail.

    For the unbounded-support families the mathematical value is strictly
    positive at every finite g; where the float computation underflows it
    is floored at the smallest subnormal, so the stopping criterion can
    never observe an impossible gain.
    """
    g = np.asarray(g, dtype=float)
    if family == "uniform":
        return 1.0 - tail_cdf(family, theta, g)
    if family == "normal":
        mean, std = theta
        return 0.5 * _erfc((g - mean) / (std * _SQRT2))
    if family == "exponential":
        s = np.exp(-theta[0] * np.maximum(g, 0.0))
    elif family == "pareto":
        xm, alpha = theta
        s = np.power(xm / np.maximum(g, xm), alpha)
    else:  # lognormal
        mu, sigma = theta
        with np.errstate(divide="ignore"):  # log(0) = -inf gives survival 1
            s = 0.5 * _erfc((np.log(np.maximum(g, 0.0)) - mu) / (sigma * _SQRT2))
    return np.maximum(s, 5e-324)


@dataclass(frozen=True)
class MixedGainDistribution:
    """Immutable mixed distribution; theta=None marks an unusable tail."""

    p0: float
    family: str
    theta: tuple[float, ...] | None

    def __post_init__(self) -> None:
        if not 0.0 <= self.p0 <= 1.0:
            raise ValueError(f"p0 must be in [0,1], got {self.p0!r}")
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        if self.theta is not None:
            object.__setattr__(self, "theta", tuple(float(t) for t in self.theta))
            positive = _THETA_POSITIVE[self.family]
            if len(self.theta) != len(positive):
                raise ValueError(f"{self.family} expects {len(positive)} parameters")
            for must_be_pos, t in zip(positive, self.theta):
                if not math.isfinite(t) or (must_be_pos and t <= 0):
                    raise ValueError(f"invalid {self.family} parameter {t!r}")

    @property
    def degenerate(self) -> bool:
        return self.theta is None


def cdf(dist: MixedGainDistribution, g) -> float:
    """P[G <= g] = p0 + (1 - p0) F_D(g) for g >= 0; 0 below (normal excepted).

    The normal family keeps its negative support (control case): below zero
    it returns (1 - p0) * Phi without the mass point.
    """
    g = float(g)
    if g < 0:
        if dist.family == "normal" and not dist.degenerate:
            return (1.0 - dist.p0) * float(tail_cdf(dist.family, dist.theta, g))
        return 0.0
    if dist.degenerate:
        if g > 0:
            raise DegenerateFitError("degenerate tail queried above zero")
        return dist.p0
    return dist.p0 + (1.0 - dist.p0) * float(tail_cdf(dist.family, dist.theta, g))


def survival(dist: MixedGainDistribution, g) -> float:
    """P[G > g] for g >= 0, stable in the far tail."""
    g = float(g)
    if g < 0:
        return 1.0 - cdf(dist, g)
    if dist.degenerate:
        if g > 0:
            raise DegenerateFitError("degenerate tail queried above zero")
        return 1.0 - dist.p0
    return (1.0 - dist.p0) * float(tail_survival(dist.family, dist.theta, g))


@dataclass
class GainAccumulator:
    """Running sums over observed gains; O(1) add, O(1) refit.

    Zero-classified values only advance the zero count (they never touch
    the tail statistics), so p0 and theta stay independently estimable.
    """

    count: int = 0
    zero_count: int = 0
    nonzero_sum: float = 0.0
    nonzero_sum_sq: float = 0.0
    sum_logs: float = 0.0
    sum_sq_logs: float = 0.0
    nonzero_min: float = field(default=math.inf)
    nonzero_max: float = 0.0
    log_min: float = field(default=math.inf)  # least math.log of a nonzero gain

    @property
    def n_nonzero(self) -> int:
        return self.count - self.zero_count

    def add(self, value: float) -> None:
        value = float(value)
        if not (math.isfinite(value) and value >= 0):
            raise ValueError(f"invalid gain {value!r}")
        self.count += 1
        if is_zero_gain(value):
            self.zero_count += 1
            return
        lg = math.log(value)
        self.nonzero_sum += value
        self.nonzero_sum_sq += value * value
        self.sum_logs += lg
        self.sum_sq_logs += lg * lg
        self.nonzero_min = min(self.nonzero_min, value)
        self.nonzero_max = max(self.nonzero_max, value)
        self.log_min = min(self.log_min, lg)

    def extend(self, values) -> None:
        for v in values:
            self.add(v)

    def tail(self, family: str):
        """The tail's closed-form MLE, as (theta, defined), from float sums (one
        sample, as add keeps them) or arrays that broadcast together (one entry
        per sample, as the campaign engine fills them). defined is False where
        the MLE is undefined or leaves the float range: no nonzero gain (no
        positive sum, for exponential); no spread, by the exact min and max, for
        pareto, lognormal and normal (equal gains leave residue in the sums); a
        pareto log ratio sum that is not positive (distinct gains may share a
        log); a sum or variance that is not finite. theta is unread there: None
        for float sums, before a formula divides by zero, and for arrays what
        the formulas give under the caller's np.errstate."""
        n1 = self.n_nonzero
        if family == "uniform":
            return (self.nonzero_max,), n1 > 0
        if family == "exponential":
            defined = (0.0 < self.nonzero_sum) & (self.nonzero_sum < math.inf)
            return (None if defined is False else (n1 / self.nonzero_sum,)), defined
        spread = self.nonzero_min < self.nonzero_max  # False without a nonzero gain
        if family == "pareto":
            ratio = self.sum_logs - n1 * self.log_min
            defined = spread & (ratio > 0)
            return (None if defined is False else (self.nonzero_min, n1 / ratio)), defined
        if spread is False:
            return None, spread
        lognormal = family == "lognormal"  # else normal
        mean = (self.sum_logs if lognormal else self.nonzero_sum) / n1
        var = (self.sum_sq_logs if lognormal else self.nonzero_sum_sq) / n1 - mean * mean
        defined = spread & (0 < var) & (var < math.inf)
        return (None if defined is False else (mean, np.sqrt(var))), defined

    def fit(self, family: str) -> MixedGainDistribution:
        """p0, the zero fraction, and tail's theta, None where it is undefined.
        Raises ValueError only for an unknown family or an empty sample."""
        if family not in FAMILIES:
            raise ValueError(f"unknown family {family!r}")
        if self.count == 0:
            raise ValueError("cannot fit an empty sample")
        theta, defined = self.tail(family)
        p0 = self.zero_count / self.count
        return MixedGainDistribution(p0, family, theta if defined else None)


def kolmogorov_pvalue(lam: float) -> float:
    """Asymptotic Kolmogorov survival Q(lam) = 2 sum (-1)^(k-1) exp(-2 k^2 lam^2).

    Alternating series truncated once a term drops below 1e-10. Below
    lam = 1e-3 the true value is 1 to far more digits than the truncation
    can deliver, so 1.0 is returned outright.
    """
    if lam < 1e-3:
        return 1.0
    total = 0.0
    sign = 1.0
    for k in range(1, 100000):
        term = math.exp(-2.0 * k * k * lam * lam)
        if term < 1e-10:
            break
        total += sign * term
        sign = -sign
    return min(max(2.0 * total, 0.0), 1.0)


def ks_test(nonzero_samples, dist: MixedGainDistribution) -> tuple[float, float]:
    """Kolmogorov-Smirnov statistic and asymptotic p-value of the tail fit.

    Tests the nonzero subsample against F_D only; the mass point is not
    part of the hypothesis (fits are screened the same way).
    """
    xs = np.sort(np.asarray(list(nonzero_samples), dtype=float))
    n = len(xs)
    if n == 0:
        raise ValueError("ks_test requires at least one sample")
    if dist.degenerate:
        raise DegenerateFitError("tail is degenerate; no CDF available")
    f = tail_cdf(dist.family, dist.theta, xs)
    i = np.arange(1, n + 1, dtype=float)
    d = float(np.maximum(i / n - f, f - (i - 1) / n).max())
    return d, kolmogorov_pvalue(math.sqrt(n) * d)


@dataclass(frozen=True)
class FitReport:
    """Fit plus goodness-of-fit summary for one (pool, family) pair."""

    distribution: MixedGainDistribution
    ks_statistic: float | None
    ks_p_value: float | None
    verdict: str  # degenerate | insufficient | rejected | not-rejected


def fit_report(pool, families=FAMILIES, alpha: float = 0.05) -> list[FitReport]:
    """Fit every requested family to one node's pool of geometric-mean
    gains and screen it with KS.

    Pools with fewer than MIN_REPORT_NONZERO nonzero gains keep their
    numbers but are flagged `insufficient` rather than judged.
    """
    acc = GainAccumulator()
    acc.extend(pool)
    nonzero = [v for v in pool if not is_zero_gain(v)]
    reports = []
    for family in families:
        dist = acc.fit(family)
        d = p = None
        if dist.degenerate:
            verdict = "degenerate"
        else:
            d, p = ks_test(nonzero, dist)
            if acc.n_nonzero < MIN_REPORT_NONZERO:
                verdict = "insufficient"
            else:
                verdict = "not-rejected" if p > alpha else "rejected"
        reports.append(FitReport(dist, d, p, verdict))
    return reports
