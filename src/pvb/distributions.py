"""Mixed model of geometric-mean dual gains: point mass at zero plus tail.

P[G <= g] = p0 + (1 - p0) * F_D(g; theta)

p0 is estimated as the zero fraction of the sample and the tail family
F_D is fit by closed-form maximum likelihood on the nonzero subsample
only. Five families are supported; uniform and normal are control cases
(uniform's bounded support and normal's negative support disqualify them
from the stopping criterion, so they are excluded from STOPPING_FAMILIES).

Fits are O(1)-updatable: GainAccumulator keeps the running sums (count,
sum, sum of logs, min, max, squared sums) from which every family's MLE is
recomputed, so a simulation can refit after each reveal without rescanning
its history.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .gains import GainSeries, is_zero_gain

FAMILIES = ("exponential", "pareto", "lognormal", "uniform", "normal")
STOPPING_FAMILIES = ("exponential", "pareto", "lognormal")

# Minimum nonzero sample size before a fit report is trusted at all.
MIN_REPORT_NONZERO = 10

_THETA_ARITY = {
    "exponential": 1,
    "pareto": 2,
    "lognormal": 2,
    "uniform": 1,
    "normal": 2,
}


class DegenerateFitError(ValueError):
    """The MLE is undefined on this sample (too few or collapsed values)."""


def _phi(z: float) -> float:
    return 0.5 * math.erfc(-z / math.sqrt(2.0))


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
            if len(self.theta) != _THETA_ARITY[self.family]:
                raise ValueError(
                    f"{self.family} expects {_THETA_ARITY[self.family]} parameters"
                )
            positive = {
                "exponential": (True,),
                "pareto": (True, True),
                "lognormal": (False, True),
                "uniform": (True,),
                "normal": (False, True),
            }[self.family]
            for must_be_pos, t in zip(positive, self.theta):
                if not math.isfinite(t) or (must_be_pos and t <= 0):
                    raise ValueError(f"invalid {self.family} parameter {t!r}")

    @property
    def degenerate(self) -> bool:
        return self.theta is None

    def tail_cdf(self, g):
        """F_D(g; theta). Accepts scalars or numpy arrays."""
        if self.theta is None:
            raise DegenerateFitError("tail is degenerate; no CDF available")
        if isinstance(g, np.ndarray):
            return _tail_cdf_array(self.family, self.theta, g)
        g = float(g)
        f = self.family
        if f == "exponential":
            return -math.expm1(-self.theta[0] * g) if g > 0 else 0.0
        if f == "pareto":
            xm, alpha = self.theta
            return 1.0 - (xm / g) ** alpha if g > xm else 0.0
        if f == "lognormal":
            mu, sigma = self.theta
            return _phi((math.log(g) - mu) / sigma) if g > 0 else 0.0
        if f == "uniform":
            return min(max(g / self.theta[0], 0.0), 1.0)
        mean, std = self.theta
        return _phi((g - mean) / std)

    def tail_survival(self, g: float) -> float:
        """1 - F_D(g), computed without cancellation in the far tail.

        For the unbounded-support families the mathematical value is
        strictly positive at every finite g; where the float computation
        underflows it is floored at the smallest subnormal, so the
        stopping criterion can never observe an impossible gain.
        """
        if self.theta is None:
            raise DegenerateFitError("tail is degenerate; no CDF available")
        g = float(g)
        f = self.family
        if f == "exponential":
            s = math.exp(-self.theta[0] * g) if g > 0 else 1.0
        elif f == "pareto":
            xm, alpha = self.theta
            s = (xm / g) ** alpha if g > xm else 1.0
        elif f == "lognormal":
            mu, sigma = self.theta
            if g <= 0:
                return 1.0
            s = 0.5 * math.erfc((math.log(g) - mu) / (sigma * math.sqrt(2.0)))
        elif f == "uniform":
            return 1.0 - min(max(g / self.theta[0], 0.0), 1.0)
        else:
            mean, std = self.theta
            return 0.5 * math.erfc((g - mean) / (std * math.sqrt(2.0)))
        return max(s, 5e-324)


def _tail_cdf_array(family: str, theta, g: np.ndarray) -> np.ndarray:
    g = np.asarray(g, dtype=float)
    if family == "exponential":
        return np.where(g > 0, -np.expm1(-theta[0] * g), 0.0)
    if family == "pareto":
        xm, alpha = theta
        safe = np.maximum(g, xm)
        return np.where(g > xm, 1.0 - (xm / safe) ** alpha, 0.0)
    if family == "lognormal":
        mu, sigma = theta
        safe = np.where(g > 0, g, 1.0)
        z = (np.log(safe) - mu) / sigma
        vec_phi = np.vectorize(_phi, otypes=[float])
        return np.where(g > 0, vec_phi(z), 0.0)
    if family == "uniform":
        return np.clip(g / theta[0], 0.0, 1.0)
    mean, std = theta
    return np.vectorize(_phi, otypes=[float])((g - mean) / std)


def cdf(dist: MixedGainDistribution, g) -> float:
    """P[G <= g] = p0 + (1 - p0) F_D(g) for g >= 0; 0 below (normal excepted).

    The normal family keeps its negative support (control case): below zero
    it returns (1 - p0) * Phi without the mass point.
    """
    g = float(g)
    if g < 0:
        if dist.family == "normal" and not dist.degenerate:
            return (1.0 - dist.p0) * dist.tail_cdf(g)
        return 0.0
    if dist.degenerate:
        if g > 0:
            raise DegenerateFitError("degenerate tail queried above zero")
        return dist.p0
    return dist.p0 + (1.0 - dist.p0) * dist.tail_cdf(g)


def survival(dist: MixedGainDistribution, g) -> float:
    """P[G > g] for g >= 0, stable in the far tail."""
    g = float(g)
    if g < 0:
        return 1.0 - cdf(dist, g)
    if dist.degenerate:
        if g > 0:
            raise DegenerateFitError("degenerate tail queried above zero")
        return 1.0 - dist.p0
    return (1.0 - dist.p0) * dist.tail_survival(g)


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

    def extend(self, values) -> None:
        for v in values:
            self.add(v)

    def fit(self, family: str, mass_point: bool = True) -> MixedGainDistribution:
        """Closed-form MLE from the running sums.

        mass_point=False drops p0 and fits the family over all samples,
        zeros included. That only makes sense for families whose support
        contains zero, so it is restricted to exponential.
        """
        if family not in FAMILIES:
            raise ValueError(f"unknown family {family!r}")
        if self.count == 0:
            raise ValueError("cannot fit an empty sample")
        n1 = self.n_nonzero
        if not mass_point:
            if family != "exponential":
                raise ValueError("mass_point=False is supported for exponential only")
            if self.nonzero_sum <= 0:
                raise DegenerateFitError("all samples zero; rate undefined")
            return MixedGainDistribution(0.0, "exponential", (self.count / self.nonzero_sum,))
        p0 = self.zero_count / self.count
        if n1 == 0:
            return MixedGainDistribution(1.0, family, None)
        if family in ("pareto", "lognormal") and n1 < 2:
            raise DegenerateFitError(f"{family} needs at least 2 nonzero samples")
        if family == "exponential":
            theta = (n1 / self.nonzero_sum,)
        elif family == "pareto":
            log_ratio_sum = self.sum_logs - n1 * math.log(self.nonzero_min)
            if log_ratio_sum <= 0:
                raise DegenerateFitError("pareto shape undefined: all nonzeros equal")
            theta = (self.nonzero_min, n1 / log_ratio_sum)
        elif family == "lognormal":
            mu = self.sum_logs / n1
            var = max(self.sum_sq_logs / n1 - mu * mu, 0.0)
            if var <= 0:
                raise DegenerateFitError("lognormal spread undefined: all nonzeros equal")
            theta = (mu, math.sqrt(var))
        elif family == "uniform":
            theta = (self.nonzero_max,)
        else:  # normal
            mean = self.nonzero_sum / n1
            var = max(self.nonzero_sum_sq / n1 - mean * mean, 0.0)
            if var <= 0:
                raise DegenerateFitError("normal spread undefined: all nonzeros equal")
            theta = (mean, math.sqrt(var))
        return MixedGainDistribution(p0, family, theta)


def fit(samples, family: str, mass_point: bool = True) -> MixedGainDistribution:
    """Fit the mixed distribution to a batch of geometric-mean gains."""
    acc = GainAccumulator()
    acc.extend(samples)
    return acc.fit(family, mass_point=mass_point)


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
    f = dist.tail_cdf(xs)
    i = np.arange(1, n + 1, dtype=float)
    d = float(np.maximum(i / n - f, f - (i - 1) / n).max())
    return d, kolmogorov_pvalue(math.sqrt(n) * d)


@dataclass(frozen=True)
class FitReport:
    """Fit plus goodness-of-fit summary for one (series, family) pair."""

    distribution: MixedGainDistribution
    n_zero: int
    n_nonzero: int
    ks_statistic: float | None
    ks_p_value: float | None
    verdict: str  # degenerate | insufficient | rejected | not-rejected


def fit_report(
    series: GainSeries,
    families=FAMILIES,
    alpha: float = 0.05,
) -> list[FitReport]:
    """Fit every requested family to one series and screen it with KS.

    Series with fewer than MIN_REPORT_NONZERO nonzero gains keep their
    numbers but are flagged `insufficient` rather than judged.
    """
    values = series.geomeans
    nonzero = [v for v in values if not is_zero_gain(v)]
    n_zero = len(values) - len(nonzero)
    acc = GainAccumulator()
    acc.extend(values)
    reports = []
    for family in families:
        try:
            dist = acc.fit(family)
        except DegenerateFitError:
            dist = MixedGainDistribution(
                acc.zero_count / acc.count if acc.count else 1.0, family, None
            )
        if dist.degenerate:
            reports.append(FitReport(dist, n_zero, len(nonzero), None, None, "degenerate"))
            continue
        d, p = ks_test(nonzero, dist)
        if len(nonzero) < MIN_REPORT_NONZERO:
            verdict = "insufficient"
        else:
            verdict = "not-rejected" if p > alpha else "rejected"
        reports.append(FitReport(dist, n_zero, len(nonzero), d, p, verdict))
    return reports
