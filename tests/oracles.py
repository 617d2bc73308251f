"""Independent reference implementations used as test oracles.

Nothing in here may call into pvb: each oracle recomputes its quantity from
scratch by a different route (extended precision, explicit enumeration,
two-loop maximization) so agreement is evidence, not tautology.
"""

import math

import mpmath as mp
import numpy as np

mp.mp.dps = 60


def shifted_geomean_mp(down, up, epsilon):
    """sqrt((down+eps)(up+eps)) - eps at 60 decimal digits."""
    d, u, e = (mp.mpf(repr(float(v))) for v in (down, up, epsilon))
    return float(mp.sqrt((d + e) * (u + e)) - e)


def brute_tree_count(gap, left, right):
    """Count nodes by explicitly expanding the tree until every leaf
    reaches the gap. No memoization, no closed form."""
    count = 0
    stack = [0.0]
    while stack:
        g = stack.pop()
        count += 1
        if g < gap:
            stack.append(g + left)
            stack.append(g + right)
    return count


def ks_brute(samples, cdf):
    """O(n^2) Kolmogorov-Smirnov statistic: for every sample point compare
    F against the empirical CDF evaluated by rescanning all samples."""
    xs = list(samples)
    n = len(xs)
    d = 0.0
    for x in xs:
        below_or_equal = sum(1 for y in xs if y <= x) / n
        strictly_below = sum(1 for y in xs if y < x) / n
        f = cdf(x)
        d = max(d, abs(below_or_equal - f), abs(f - strictly_below))
    return d


def sample_tail(rng, family, theta, n):
    """Draw n samples from a continuous tail family by inverse CDF."""
    u = rng.random(n)
    if family == "exponential":
        (lam,) = theta
        return -np.log1p(-u) / lam
    if family == "pareto":
        xm, alpha = theta
        return xm * (1.0 - u) ** (-1.0 / alpha)
    if family == "lognormal":
        mu, sigma = theta
        return np.exp(mu + sigma * rng.standard_normal(n))
    if family == "uniform":
        (b,) = theta
        return u * b
    if family == "normal":
        mean, std = theta
        return mean + std * rng.standard_normal(n)
    raise ValueError(family)


def sample_mixed(rng, p0, family, theta, n):
    """Draw from the mixed distribution: zero with probability p0, else tail."""
    out = sample_tail(rng, family, theta, n)
    out[rng.random(n) < p0] = 0.0
    return out


def tail_cdf_mp(family, theta, g):
    """Tail CDF at extended precision (normal/lognormal via erf)."""
    g = mp.mpf(repr(float(g)))
    if family == "exponential":
        (lam,) = theta
        return float(1 - mp.e ** (-mp.mpf(repr(float(lam))) * g)) if g >= 0 else 0.0
    if family == "pareto":
        xm, alpha = (mp.mpf(repr(float(v))) for v in theta)
        return float(1 - (xm / g) ** alpha) if g >= xm else 0.0
    if family == "lognormal":
        mu, sigma = (mp.mpf(repr(float(v))) for v in theta)
        if g <= 0:
            return 0.0
        return float(mp.ncdf((mp.log(g) - mu) / sigma))
    if family == "uniform":
        (b,) = (mp.mpf(repr(float(v))) for v in theta)
        return float(min(max(g / b, 0), 1))
    if family == "normal":
        mean, std = (mp.mpf(repr(float(v))) for v in theta)
        return float(mp.ncdf((g - mean) / std))
    raise ValueError(family)


def linprog_lp(c, a, senses, rhs, lower, upper):
    """LP reference via scipy's HiGHS wrapper. Returns (status, objective).

    HiGHS presolve can report status 2 (infeasible) for an LP that is
    really unbounded, so a status-2 answer is re-solved without presolve
    and called infeasible only if that solve agrees.
    """
    import scipy.optimize

    rows_ub, rhs_ub, rows_eq, rhs_eq = [], [], [], []
    for row, s, b in zip(a, senses, rhs):
        if s == "<=":
            rows_ub.append(list(row))
            rhs_ub.append(b)
        elif s == ">=":
            rows_ub.append([-v for v in row])
            rhs_ub.append(-b)
        else:
            rows_eq.append(list(row))
            rhs_eq.append(b)

    def highs(presolve):
        return scipy.optimize.linprog(
            c,
            A_ub=rows_ub or None,
            b_ub=rhs_ub or None,
            A_eq=rows_eq or None,
            b_eq=rhs_eq or None,
            bounds=list(zip(lower, upper)),
            method="highs",
            options={"presolve": presolve},
        )

    res = highs(True)
    if res.status == 2:
        res = highs(False)
    if res.status == 0:
        return "optimal", float(res.fun)
    if res.status == 2:
        return "infeasible", None
    if res.status == 3:
        return "unbounded", None
    raise RuntimeError(f"linprog status {res.status}: {res.message}")


def enumerate_binary_mip(c, a, senses, rhs):
    """Brute-force optimum of a pure binary MIP by trying every 0/1 vector.

    Returns the best objective, or None if infeasible. Vectorized over all
    2^n assignments.
    """
    n = len(c)
    assert n <= 20
    grid = ((np.arange(2**n)[:, None] >> np.arange(n)[None, :]) & 1).astype(float)
    lhs = grid @ np.asarray(a).T
    rhs = np.asarray(rhs)
    feas = np.ones(len(grid), dtype=bool)
    for i, s in enumerate(senses):
        if s == "<=":
            feas &= lhs[:, i] <= rhs[i] + 1e-9
        elif s == ">=":
            feas &= lhs[:, i] >= rhs[i] - 1e-9
        else:
            feas &= np.abs(lhs[:, i] - rhs[i]) <= 1e-9
    if not feas.any():
        return None
    return float((grid[feas] @ np.asarray(c)).min())


def mc_depth_probabilities(rng, p0, family, theta, gap, d_min, n):
    """Monte-Carlo estimate of P[depth(next gain) = d] for d = 1..d_min.

    Depth of a sampled gain g is ceil(gap/g); zeros and any depth past
    d_min fall into the absorbing last bucket. Returns (probs, ses).
    """
    g = sample_mixed(rng, p0, family, theta, n)
    with np.errstate(divide="ignore"):
        depth = np.ceil(gap / g)
    depth = np.minimum(depth, d_min).astype(np.int64)
    counts = np.bincount(depth, minlength=d_min + 1)[1 : d_min + 1]
    probs = counts / n
    ses = np.sqrt(probs * (1.0 - probs) / n)
    return probs, ses


def mc_expected_next_total(rng, p0, family, theta, gap, d_min, iteration, n):
    """Monte-Carlo mean of the total-node cost after one extra reveal.

    Each draw prices the tree 2**(min(depth, d_min)+1) - 1 plus the SB
    spend 2*(iteration+1). Returns (mean, se).
    """
    g = sample_mixed(rng, p0, family, theta, n)
    with np.errstate(divide="ignore"):
        depth = np.ceil(gap / g)
    depth = np.minimum(depth, d_min)
    totals = 2.0 ** (depth + 1) - 1.0 + 2.0 * (iteration + 1)
    return float(totals.mean()), float(totals.std(ddof=1) / math.sqrt(n))
