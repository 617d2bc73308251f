"""Stopping criteria for a strong-branching scan.

Two rules share one session object. The fixed rule stops after L_max =
(1 + uninit_fraction) * L consecutive non-improving evaluations or once the
budget gamma_max = gamma_node + K is spent. L and K are settings; the node's
unreliable share uninit_fraction and cost gamma_node are session measurements.
The probabilistic rule additionally compares, once warmed up, the cost of
stopping now,

    t_i = 2**(d_min+1) - 1 + 2*i,

against the expected cost of one more evaluation,

    E[t_{i+1}] = sum_{d=1..d_min} (2**(d+1) - 1) * p_d + 2*(i+1),

where p_d is the probability that the next revealed gain lands the best
depth at d. The p_d come from the fitted mixed gain distribution: a gain g
yields depth ceil(G/g), so p_1 is the survival at G, interior p_d are
survival differences at G/d and G/(d-1), and the last bucket absorbs every
non-improving outcome including zero gains. Survival differences keep the
far-tail mass that CDF differences round to zero. depth_probabilities
builds them as array code, one row per fit.

Because the p_d sum to 1, the i terms cancel and E[t_{i+1}] >= t_i is
exactly

    sum_{d<d_min} p_d * (2**(d_min+1) - 2**(d+1)) <= 2:

the expected tree saving of one more probe against its cost of 2 nodes.
saving_stops decides that form, which has no cancellation at any depth, so
the verdict never depends on i.

One survival value bounds the saving. The p_d are non-negative and
telescope to S = (1 - p0) * tail survival at G/(d_min-1), and every factor
2**(d_min+1) - 2**(d+1) with 1 <= d < d_min lies in [2**d_min,
2**(d_min+1) - 4], so

    2**d_min * S <= saving <= (2**(d_min+1) - 4) * S.

prob_stops is the one verdict of the solver's rule and the campaign engine,
over an array of rows: depth 1 stops without a fit (no reveal can shrink the
tree, so continuing costs t_i + 2), a row its caller marks ready gets
saving_stops' verdict up to abstract_tree.MAX_FINAL_DEPTH, the deepest tree
that can be priced, and every other row continues. The bounds settle most
ready rows; only the rows between them are priced over every depth.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .abstract_tree import MAX_FINAL_DEPTH, UNBOUNDED, svb_depth, svb_tree_size
from .distributions import (
    STOPPING_FAMILIES,
    DegenerateFitError,
    GainAccumulator,
    MixedGainDistribution,
    cdf,
    tail_survival,
)
from .gains import is_zero_gain

# perfbench's tracer wraps this name on this module; nothing here calls it
from .distributions import survival  # noqa: F401

# Decision reasons, stable strings for logs and tests.
CONTINUE = "continue"
LOOKAHEAD_EXHAUSTED = "lookahead_exhausted"
BUDGET_EXHAUSTED = "budget_exhausted"
NO_EXPECTED_IMPROVEMENT = "no_expected_improvement"
CANDIDATES_EXHAUSTED = "candidates_exhausted"

# share of the streak cap L_max before a solver scan's expected-size test
PHI = 0.6
# (row, depth) entries priced per array call, which bounds the temporaries
# of prob_stops' groups and of the campaign engine's windows of reveals
ENTRY_BUDGET = 1 << 13
# relative margin by which a row's bounds must clear the probe's 2 nodes
# before they decide it; see _tested_stops
_BOUND_MARGIN = 1e-9


class Decision(NamedTuple):
    stop: bool
    reason: str


def check_int(name: str, value) -> int:
    """value as an int, or ValueError when it is not one (NaN, 2.0 and "3")."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


@dataclass(frozen=True)
class FixedLookaheadConfig:
    """Hard working limits: no-improvement cap L and simplex budget K."""

    L: int = 9
    K: int = 10**6

    def __post_init__(self) -> None:
        if check_int("L", self.L) < 1:
            raise ValueError(f"L must be >= 1, got {self.L!r}")
        if check_int("K", self.K) < 0:
            raise ValueError(f"K must be >= 0, got {self.K!r}")


@dataclass(frozen=True)
class ProbLookaheadConfig:
    """Warm-up and family for the expected-tree-size test."""

    min_nonzero_samples: int = 5
    family: str = "pareto"

    def __post_init__(self) -> None:
        if check_int("min_nonzero_samples", self.min_nonzero_samples) < 1:
            raise ValueError("min_nonzero_samples must be >= 1")
        if self.family not in STOPPING_FAMILIES:
            raise ValueError(
                f"family must be one of {', '.join(STOPPING_FAMILIES)}, got {self.family!r}"
            )


@dataclass
class SbSession:
    """State of one strong-branching scan at one node.

    Only the mini solver opens sessions. It charges each evaluated
    candidate its SB child LPs' simplex iterations, so budget_used and
    node_cost are in iterations, and it measures node_cost and
    uninit_fraction. gap is None for a scan that no expected-size test
    reads; d_min then stays UNBOUNDED.
    """

    gap: float | None
    iteration: int = 0
    d_min: float = UNBOUNDED
    best_gain: float = 0.0
    samples: GainAccumulator = field(default_factory=GainAccumulator)
    no_improvement_streak: int = 0
    node_cost: float = 0.0
    uninit_fraction: float = 0.0
    budget_used: float = 0.0

    def observe(self, gain: float, cost: float) -> bool:
        """Record one evaluated candidate; True iff it improved the best.

        Improvement is a strictly larger gain (equivalently a depth no
        worse, with ties not counting as progress), which resets the
        no-improvement streak.
        """
        self.samples.add(gain)
        self.iteration += 1
        self.budget_used += cost
        if not is_zero_gain(gain) and gain > self.best_gain:
            self.best_gain = gain
            if self.gap is not None:
                self.d_min = svb_depth(self.gap, gain)
            self.no_improvement_streak = 0
            return True
        self.no_improvement_streak += 1
        return False


def depth_probabilities(gap, top, p0, family: str, theta) -> np.ndarray:
    """p_d for d = 1..max(top)-1, one row per fit.

    Row r is the fit (p0[r], theta[k][r] for each k) of a scan whose best
    depth is top[r]. With S_d = (1 - p0) * tail_survival at G/d, p_1 = S_1
    and p_d = S_d - S_{d-1}, clamped at 0 against last-ulp dips. Entries at
    d >= top[r] are not masked; saving_stops ignores them.
    """
    g = gap / np.arange(1.0, int(np.max(top)))
    surv = (1.0 - p0)[:, None] * tail_survival(family, tuple(t[:, None] for t in theta), g)
    return np.concatenate((surv[:, :1], np.maximum(surv[:, 1:] - surv[:, :-1], 0.0)), axis=1)


def improvement_probabilities(
    dist: MixedGainDistribution, gap: float, d_min: int
) -> list[float]:
    """P[next-sample depth = d] for d = 1..d_min, last bucket absorbing.

    The first d_min - 1 entries are depth_probabilities' one row for dist;
    the last bucket is the CDF at G/(d_min-1), so the vector telescopes
    to 1.
    """
    if not gap > 0:
        raise ValueError(f"gap must be positive, got {gap!r}")
    if d_min == UNBOUNDED or int(d_min) < 2:
        raise ValueError(f"d_min must be a finite integer >= 2, got {d_min!r}")
    if dist.degenerate:
        raise DegenerateFitError("degenerate tail queried above zero")
    d_min = int(d_min)
    ps = depth_probabilities(
        gap, d_min, np.array([dist.p0]), dist.family, [np.array([t]) for t in dist.theta]
    )[0].tolist()
    ps.append(cdf(dist, gap / (d_min - 1)))
    return ps


def saving_stops(ps, d_min) -> np.ndarray:
    """Verdicts of the expected-size test, one per row of ps.

    Row r holds p_d for d = 1, 2, ...; entries at d >= d_min[r] are
    ignored. A row stops iff the expected tree saving of one more probe,
    sum_{d<d_min} p_d * (2**(d_min+1) - 2**(d+1)), is at most the probe's
    2 nodes, which is E[t_{i+1}] >= t_i with the i terms cancelled.
    Each row is summed in order, so the ignored entries add exact zeros
    and a row's verdict does not depend on how wide ps is.
    """
    ps = np.asarray(ps, dtype=float)
    top = np.asarray(d_min, dtype=np.int64)[:, None]
    d = np.arange(1, ps.shape[1] + 1)
    saving = np.ldexp(1.0, top + 1) - np.ldexp(1.0, d + 1)
    return np.cumsum(np.where(d < top, ps * saving, 0.0), axis=1)[:, -1] <= 2.0


def expected_nodes_if_continue(session: SbSession, dist: MixedGainDistribution) -> float:
    """Eq.-style expectation of total nodes after exactly one more reveal."""
    ps = improvement_probabilities(dist, session.gap, session.d_min)
    expected_final = sum(
        float(svb_tree_size(d)) * p for d, p in enumerate(ps, start=1)
    )
    return expected_final + 2.0 * (session.iteration + 1)


def _tested_stops(gap, depth, p0, family: str, theta) -> np.ndarray:
    """Verdicts of tested rows: ready rows at integer depth 2..MAX_FINAL_DEPTH.

    A row continues when its least saving, 2**D * S, exceeds 2 * (1 +
    _BOUND_MARGIN), and stops when its greatest, (2**(D+1) - 4) * S, times
    (1 + _BOUND_MARGIN) is below 2. S is the expression and the division of
    depth_probabilities' column D - 1. The rows between the bounds, rows
    whose bounds are not finite and rows with a NaN in their fit are
    stable-sorted by depth and priced by saving_stops in groups of at most
    ENTRY_BUDGET (row, depth) entries, so rows of like depth share a call.

    For a fit of the family (p0 in [0, 1], a survival that does not rise
    with the gain), infinite parameters included, the bounds give
    saving_stops' verdicts bit for bit. Its computed sum (clamped
    differences, products, an in-order cumsum) is within (D + 2) * 2**-53
    <= 1.2e-13 relative of the exact sum of its p_d for D <= 1022; the
    clamps add only last-ulp dips of a survival that rises with d, and
    entries below the normal range add under 2**-41 in all. The two
    evaluations of S differ by a few ulps at most (say, between SIMD and
    scalar pow). Both errors lie far inside the margin. A row's verdict
    does not depend on the other rows: the bounds are per row, and
    saving_stops sums each row in order.
    """
    s = (1.0 - p0) * tail_survival(family, theta, gap / (depth - 1.0))
    with np.errstate(over="ignore", invalid="ignore"):  # such rows are priced
        least = np.ldexp(s, depth)
        most = (2.0 * least - 4.0 * s) * (1.0 + _BOUND_MARGIN)
    stop = most < 2.0
    band = ~(stop | (least > 2.0 * (1.0 + _BOUND_MARGIN))) | ~np.isfinite(most)
    for v in (p0, *theta):  # a NaN parameter can leave S finite: pow(1, nan) is 1
        band |= np.isnan(v)
    priced = np.flatnonzero(band)
    depths = depth[priced]
    by_depth = np.argsort(depths, kind="stable")
    priced, depths = priced[by_depth], depths[by_depth]
    start = 0
    while start < priced.size:
        # k rows from start span k * depths[start + k - 1] entries, rising in k
        head = depths[start : start + ENTRY_BUDGET // 2]
        k = max(1, int(np.searchsorted(np.arange(1, head.size + 1) * head, ENTRY_BUDGET, "right")))
        rows, d = priced[start : start + k], depths[start : start + k]
        ps = depth_probabilities(gap, d, p0[rows], family, tuple(t[rows] for t in theta))
        stop[rows] = saving_stops(ps, d)
        start += k
    return stop


def prob_stops(gap, depth, ready, p0, family: str, theta) -> np.ndarray:
    """Verdicts for scans at best depth depth[r] (a float, inf before any
    nonzero gain) with fits (p0[r], theta[k][r] for each k) of family.

    Depth 1 stops; a ready row at depth 2..MAX_FINAL_DEPTH, a tested row,
    stops iff saving_stops does, which _tested_stops decides from two
    bounds on one survival value wherever they settle it; other rows' fits
    are unread.
    """
    stop = depth == 1
    if not ready.any():  # nothing to price, as in most of a solver scan's calls
        return stop
    tested = np.flatnonzero(ready & (depth >= 2) & (depth <= MAX_FINAL_DEPTH))
    # depths up to MAX_FINAL_DEPTH fit int16, which numpy sorts stably by radix
    stop[tested] = _tested_stops(
        gap, depth[tested].astype(np.int16), p0[tested], family, tuple(t[tested] for t in theta)
    )
    return stop


def should_continue(
    session: SbSession,
    fixed: FixedLookaheadConfig,
    prob: ProbLookaheadConfig | None = None,
    dist: MixedGainDistribution | None = None,
) -> Decision:
    """Decide whether the scan keeps evaluating candidates.

    Hard caps come first in both modes (they mirror the fixed rule's break
    conditions): the streak cap L_max = (1 + session.uninit_fraction) * L
    and the budget session.node_cost + K. With prob set and enough nonzero
    samples, the session is then one row of prob_stops: it stops at
    d_min = 1, where one branching on the best candidate finishes the node
    and each further reveal buys two SB LPs for a tree that cannot get
    smaller, and it is ready for the expected-size test once dist is a
    usable fit and the streak reaches PHI * L_max. A missing or degenerate
    distribution silently disables that test but not the d_min = 1 stop.
    """
    lmax = (1.0 + session.uninit_fraction) * fixed.L
    if session.no_improvement_streak >= lmax:
        return Decision(True, LOOKAHEAD_EXHAUSTED)
    if session.budget_used >= session.node_cost + fixed.K:
        return Decision(True, BUDGET_EXHAUSTED)
    if prob is None or session.samples.n_nonzero < prob.min_nonzero_samples:
        return Decision(False, CONTINUE)
    ready = dist is not None and not dist.degenerate and session.no_improvement_streak >= PHI * lmax
    p0, family, theta = (dist.p0, dist.family, dist.theta) if ready else (0.0, prob.family, ())
    stop = prob_stops(
        session.gap, np.array([float(session.d_min)]), np.array([ready]),
        np.array([p0]), family, [np.array([t]) for t in theta],
    )[0]
    return Decision(True, NO_EXPECTED_IMPROVEMENT) if stop else Decision(False, CONTINUE)
