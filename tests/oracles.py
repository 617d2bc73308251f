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


_MAX_BUILT_NODES = 10**7


class TreeBudgetError(RuntimeError):
    """The tree build_svb_tree was asked for exceeds _MAX_BUILT_NODES."""


def build_svb_tree(gap, left, right):
    """Exact node count of the minimal tree branching on one variable with
    side gains (left, right).

    Counts via T(gamma) = 1 if gamma >= gap else 1 + T(gamma+l) + T(gamma+r),
    memoized on the (left steps, right steps) lattice so equal-gap states
    reached in different orders coincide; brute_tree_count expands the
    same tree without memoization. Guarded: raises TreeBudgetError rather
    than enumerating more than _MAX_BUILT_NODES nodes.
    """
    if not (math.isfinite(gap) and gap > 0):
        raise ValueError(f"gap must be positive, got {gap!r}")
    if not min(left, right) > 0:
        raise ValueError("build_svb_tree requires strictly positive gains")

    # Cheap pre-guards. The shallowest possible leaf is at depth
    # ceil(gap/max) and the single-gain path is ceil(gap/min) long; either
    # bound alone can certify the tree is over budget.
    min_depth = math.ceil(gap / max(left, right))
    if (1 << (min_depth + 1)) - 1 > _MAX_BUILT_NODES:
        raise TreeBudgetError(f"tree is at least 2^{min_depth + 1} - 1 nodes")
    if 2 * math.ceil(gap / min(left, right)) + 1 > _MAX_BUILT_NODES:
        raise TreeBudgetError("single-gain path alone exceeds the node budget")

    memo = {}
    stack = [(0, 0)]
    while stack:
        i, j = stack[-1]
        if (i, j) in memo:
            stack.pop()
            continue
        children = []
        ready = True
        for ci, cj in ((i + 1, j), (i, j + 1)):
            if ci * left + cj * right >= gap:
                children.append(1)
            elif (ci, cj) in memo:
                children.append(memo[(ci, cj)])
            else:
                stack.append((ci, cj))
                ready = False
        if ready:
            stack.pop()
            memo[(i, j)] = 1 + children[0] + children[1]
            if len(memo) > _MAX_BUILT_NODES:
                raise TreeBudgetError("tree exceeds the node budget")
    total = memo[(0, 0)]
    if total > _MAX_BUILT_NODES:
        raise TreeBudgetError(f"tree has {total} nodes, over the {_MAX_BUILT_NODES} guard")
    return total


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


def milp_mip(c, a, senses, rhs, lower, upper, integer):
    """MIP reference via scipy.optimize.milp (HiGHS), solved to a zero
    gap. Returns (status, objective).

    HiGHS presolve can call a feasible MIP infeasible, and can leave it
    "infeasible or unbounded" (status 4), so either answer is re-solved
    without presolve and called infeasible only if that solve agrees, as
    linprog_lp does for LPs.
    """
    import scipy.optimize

    constraints = []
    if len(senses):
        constraints.append(scipy.optimize.LinearConstraint(
            np.asarray(a, dtype=float),
            [-np.inf if s == "<=" else b for s, b in zip(senses, rhs)],
            [np.inf if s == ">=" else b for s, b in zip(senses, rhs)],
        ))

    def highs(presolve):
        return scipy.optimize.milp(
            c,
            integrality=np.asarray(integer, dtype=int),
            bounds=scipy.optimize.Bounds(lower, upper),
            constraints=constraints,
            options={"presolve": presolve, "mip_rel_gap": 0.0},
        )

    res = highs(True)
    if res.status in (2, 4):
        res = highs(False)
    if res.status == 0:
        return "optimal", float(res.fun)
    if res.status == 2:
        return "infeasible", None
    if res.status == 3:
        return "unbounded", None
    raise RuntimeError(f"milp status {res.status}: {res.message}")


def mip_point_violation(x, a, senses, rhs, lower, upper, integer, tol=1e-6):
    """How x fails a MIP's bounds, integrality or rows by more than tol,
    as a message naming the first failure; None when x is feasible."""
    x = [float(v) for v in x]
    for j, (v, lo, hi, is_int) in enumerate(zip(x, lower, upper, integer)):
        if not lo - tol <= v <= hi + tol:
            return f"column {j} = {v!r} outside [{lo!r}, {hi!r}]"
        if is_int and abs(v - round(v)) > tol:
            return f"integer column {j} = {v!r} is fractional"
    for i, (row, s, b) in enumerate(zip(a, senses, rhs)):
        lhs = math.fsum(coef * v for coef, v in zip(row, x))
        if (s != ">=" and lhs - b > tol) or (s != "<=" and b - lhs > tol):
            return f"row {i}: {lhs!r} {s} {b!r} fails by more than {tol}"
    return None


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


# ------------------------------------------------- abstract-model trial

_ZERO_TOL = 1e-9  # gains below this are exact zeros (the mass point)
_MAX_EVAL_DEPTH = 1022


class _RefSession:
    """One trial's scan state: best depth, streak, spend and fit sums."""

    def __init__(self, gap):
        self.gap = gap
        self.iteration = 0
        self.d_min = math.inf
        self.best_gain = 0.0
        self.no_improvement_streak = 0
        self.budget_used = 0.0
        self.zero_count = 0
        self.nonzero_sum = 0.0
        self.sum_logs = 0.0
        self.nonzero_min = math.inf

    def observe(self, gain):
        gain = float(gain)
        if gain < _ZERO_TOL:
            self.zero_count += 1
        else:
            self.nonzero_sum += gain
            self.sum_logs += math.log(gain)
            self.nonzero_min = min(self.nonzero_min, gain)
        self.iteration += 1
        self.budget_used += 2.0
        if not gain < _ZERO_TOL and gain > self.best_gain:
            self.best_gain = gain
            self.d_min = math.ceil(self.gap / gain)
            self.no_improvement_streak = 0
        else:
            self.no_improvement_streak += 1


def _ref_fit(s, family, mass_point):
    """(p0, theta) by closed-form MLE, or None where the fit is degenerate."""
    n1 = s.iteration - s.zero_count
    if family == "exponential" and not math.isfinite(s.nonzero_sum):
        # an overflowing sum leaves no rate
        return None
    if not mass_point:
        if s.nonzero_sum <= 0:
            return None
        theta = (s.iteration / s.nonzero_sum,)
        p0 = 0.0
    else:
        p0 = s.zero_count / s.iteration
        if n1 == 0:
            return None
        if family == "pareto":
            # nonzero gains without spread, fewer than 2 among them
            if s.best_gain == s.nonzero_min:
                return None
            log_ratio_sum = s.sum_logs - n1 * math.log(s.nonzero_min)
            if log_ratio_sum <= 0:
                return None
            theta = (s.nonzero_min, n1 / log_ratio_sum)
        else:
            theta = (n1 / s.nonzero_sum,)
    for t in theta:
        if not (math.isfinite(t) and t > 0):
            raise ValueError(f"invalid {family} parameter {t!r}")
    return p0, theta


def _ref_survival(p0, family, theta, g):
    if family == "exponential":
        s = math.exp(-theta[0] * g) if g > 0 else 1.0
    else:
        xm, alpha = theta
        s = (xm / g) ** alpha if g > xm else 1.0
    return (1.0 - p0) * max(s, 5e-324)


def _ref_depth_probabilities(s, p0, family, theta):
    """p_d for d = 1..d_min-1: the survival at G, then survival differences."""
    tails = [_ref_survival(p0, family, theta, s.gap / d) for d in range(1, s.d_min)]
    return tails[:1] + [max(hi - lo, 0.0) for lo, hi in zip(tails, tails[1:])]


_FLOAT_SCALE = 1 << 1074  # every float is an integer multiple of 2**-1074


def probe_saving_stops_exact(ps, d_min):
    """Exact verdict of the one-probe test on float depth probabilities.

    Stop iff sum_{d<d_min} p_d (2**d_min - 2**d) <= 1, half the expected
    tree saving against half the probe's 2 nodes. Each p_d is the exact
    rational num / 2**k that float.as_integer_ratio gives, so scaled by
    2**1074 every term is an integer, built with shifts, and no rounding
    enters the sum.
    """
    total = 0
    for d, p in enumerate(ps[: d_min - 1], start=1):
        num, den = float(p).as_integer_ratio()
        shift = 1075 - den.bit_length()  # p * 2**1074 == num << shift
        total += (num << (shift + d_min)) - (num << (shift + d))
    return total <= _FLOAT_SCALE


def reference_trial(pool, gap, strategy, rng, fixed=None, prob=None):
    """One abstract-model trial walked reveal by reveal, as a plain dict.

    Reveals pool gains in rng.permutation order and asks the strategy after
    every reveal; a stop before any nonzero gain is deferred until one
    appears. `strategy` is one of the five campaign names or a callable
    session -> (stop, reason). `fixed` and `prob` are read for L, K and
    min_nonzero_samples only (defaults 9, 10**6, 5). The probabilistic
    strategies decide with probe_saving_stops_exact.
    Tree sizes are Python ints; a best depth above 1022 is reported
    with final_tree_nodes and total_nodes None instead of being built.
    Raises ValueError for a gap that is not positive and finite and
    LookupError for a pool without a nonzero gain.
    """
    L = getattr(fixed, "L", 9)
    K = getattr(fixed, "K", 10**6)
    min_nonzero = getattr(prob, "min_nonzero_samples", 5)
    if not (math.isfinite(gap) and gap > 0):
        raise ValueError(f"gap must be positive and finite, got {gap!r}")
    if not pool or all(g < _ZERO_TOL for g in pool):
        raise LookupError("every pool gain is zero")

    def fixed_policy(s):
        if s.no_improvement_streak >= L:
            return True, "lookahead_exhausted"
        if s.budget_used >= 0.0 + K:
            return True, "budget_exhausted"
        return False, "continue"

    def prob_policy(family, mass_point):
        def policy(s):
            if s.d_min == math.inf:
                return False, "continue"
            if s.d_min == 1:
                return True, "no_expected_improvement"
            if s.iteration - s.zero_count < min_nonzero or s.d_min > _MAX_EVAL_DEPTH:
                return False, "continue"
            fitted = _ref_fit(s, family, mass_point)
            if fitted is None:
                return False, "continue"
            p0, theta = fitted
            ps = _ref_depth_probabilities(s, p0, family, theta)
            if probe_saving_stops_exact(ps, s.d_min):
                return True, "no_expected_improvement"
            return False, "continue"

        return policy

    if callable(strategy):
        name, policy = getattr(strategy, "__name__", "custom"), strategy
    else:
        name = strategy
        policy = {
            "full": lambda s: (False, "continue"),
            "fixed": fixed_policy,
            "prob-exp": prob_policy("exponential", False),
            "prob-mixed-exp": prob_policy("exponential", True),
            "prob-mixed-pareto": prob_policy("pareto", True),
        }[strategy]
    session = _RefSession(gap)
    reason = None
    for idx in rng.permutation(len(pool)):
        session.observe(pool[idx])
        if reason is None:
            stop, why = policy(session)
            if stop:
                reason = why
        if reason is not None and session.d_min != math.inf:
            break
    depth = int(session.d_min)
    final = (1 << (depth + 1)) - 1 if depth <= 1022 else None
    return {
        "strategy": name,
        "gap": gap,
        "reveals": session.iteration,
        "stop_reason": reason or "candidates_exhausted",
        "depth": depth,
        "final_tree_nodes": final,
        "sb_nodes": 2 * session.iteration,
        "total_nodes": None if final is None else final + 2 * session.iteration,
    }
