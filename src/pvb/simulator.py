"""Monte-Carlo harness comparing stopping strategies on abstract instances.

A trial reveals pool gains in a uniform random permutation until the
strategy stops; its cost is the perfect tree of the best depth found plus
two nodes per reveal. run_trial prices a trial with array code rather
than a reveal-by-reveal loop:

- `full` reveals the whole pool, so it has a closed form: every gain
  revealed and depth ceil(G / largest gain). No permutation is drawn.
- `fixed` finds the improvements from a running maximum of the permuted
  gains and the first streak or budget stop from prefix counts.
- The probabilistic strategies take the running sums a GainAccumulator
  would hold after every prefix, derive each prefix's fit with the same
  float operations as GainAccumulator.fit, and evaluate the
  expected-tree-size test for all prefixes at once as a prefixes x depth
  array, 64 reveals at first and wider only while no stop falls inside.

Every decision is the per-reveal rule's: a prefix whose array E[t_{i+1}]
lies within a relative 1e-9 of t_i, or whose best depth exceeds 52, is
re-decided by the scalar expected_nodes_if_continue.

The probabilistic strategies apply the expected-tree-size test after every
reveal with no streak cap: in the abstract model the criterion is free to
run SB longer than the fixed rule whenever more scanning is expected to
pay for itself, which is exactly how it escapes the fixed rule's blowup at
large gaps. The phi-gated variant with hard caps is
lookahead.should_continue, which the solver's branching rule calls.

Tree sizes come from abstract_tree.svb_tree_size: the weight table of the
array test, its stop totals, and every trial's final tree.

Campaigns aggregate means per (gap, strategy) cell with one rng stream per
trial index, so results do not depend on execution order or worker count.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .abstract_tree import CapacityError, PvbInstance, svb_depth, svb_tree_size
from .distributions import GainAccumulator
from .lookahead import (
    BUDGET_EXHAUSTED,
    CANDIDATES_EXHAUSTED,
    LOOKAHEAD_EXHAUSTED,
    MAX_EVAL_DEPTH,
    NO_EXPECTED_IMPROVEMENT,
    FixedLookaheadConfig,
    ProbLookaheadConfig,
    SbSession,
    expected_nodes_if_continue,
    iteration_budget,
    max_lookahead,
    nodes_if_stop,
    should_continue,  # noqa: F401 - perfbench's tracer wraps simulator.should_continue
)

STRATEGIES = ("fixed", "full", "prob-exp", "prob-mixed-exp", "prob-mixed-pareto")

# tail family and mass point of each probabilistic strategy's fit
_PROB_FITS = {
    "prob-exp": ("exponential", False),
    "prob-mixed-exp": ("exponential", True),
    "prob-mixed-pareto": ("pareto", True),
}

_MASK64 = 0xFFFFFFFFFFFFFFFF

# Above this depth a float64 2**(d+1) absorbs the -1 + 2i that the scalar
# test adds to t_i as an exact integer, so the array test never decides there.
_EXACT_FLOAT_DEPTH = 52

# Relative distance of E[t_{i+1}] from t_i under which the array test defers
# to the scalar one; the two differ by well under 1e-12 relative.
_SCALAR_MARGIN = 1e-9

_FIRST_WINDOW = 64

_DEPTHS = np.arange(1, MAX_EVAL_DEPTH + 1, dtype=float)
_WEIGHTS = np.array([float(svb_tree_size(d)) for d in range(1, MAX_EVAL_DEPTH + 1)])


class UnclosableError(RuntimeError):
    """The pool has no nonzero gain, so no finite tree can close the gap."""


@dataclass(frozen=True)
class TrialResult:
    """One trial's cost: the final tree plus 2 SB nodes per reveal."""

    strategy: str
    gap: float
    reveals: int
    stop_reason: str
    final_tree_nodes: int

    @property
    def sb_nodes(self) -> int:
        return 2 * self.reveals

    @property
    def total_nodes(self) -> int:
        return self.final_tree_nodes + self.sb_nodes


@dataclass(frozen=True)
class CampaignSpec:
    instance: PvbInstance
    gaps: tuple
    trials: int = 1000
    seed: int = 0
    strategies: tuple = STRATEGIES

    def __post_init__(self) -> None:
        object.__setattr__(self, "gaps", tuple(float(g) for g in self.gaps))
        object.__setattr__(self, "strategies", tuple(self.strategies))
        if not self.gaps:
            raise ValueError("at least one gap is required")
        if any(not g > 0 for g in self.gaps):
            raise ValueError("gaps must be positive")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if not self.strategies:
            raise ValueError("at least one strategy is required")
        for s in self.strategies:
            if s not in STRATEGIES:
                raise ValueError(f"unknown strategy {s!r}")


@dataclass(frozen=True)
class CampaignRow:
    gap: float
    strategy: str
    mean_total_nodes: float
    mean_sb_nodes: float


def _prefix_windows(n: int):
    """Prefix lengths to evaluate: [0, 64), then four times wider up to n."""
    lo, hi = 0, min(_FIRST_WINDOW, n)
    while True:
        yield lo, hi
        if hi == n:
            return
        lo, hi = hi, min(4 * hi, n)


def _fixed_trial(gains: np.ndarray, order: np.ndarray, fixed: FixedLookaheadConfig):
    """(reveals, reason, best gain) of the fixed rule on one permutation."""
    lmax = max_lookahead(fixed)
    budget = iteration_budget(0.0, fixed.K)
    stop = None
    for lo, hi in _prefix_windows(len(order)):
        v = gains[order[:hi]]
        best = np.maximum.accumulate(v)
        if stop is None:
            i = np.arange(1, hi + 1)
            improved = v > np.concatenate(([0.0], best[:-1]))
            streak = i - np.maximum.accumulate(np.where(improved, i, 0))
            hits = np.flatnonzero(((streak >= lmax) | (2.0 * i >= budget))[lo:])
            if hits.size:
                stop = lo + int(hits[0])
                reason = LOOKAHEAD_EXHAUSTED if streak[stop] >= lmax else BUDGET_EXHAUSTED
        if stop is not None:
            # a stop with no nonzero gain yet waits for the first one
            usable = np.flatnonzero(best[stop:] > 0.0)
            if usable.size:
                k = stop + int(usable[0])
                return k + 1, reason, float(best[k])
    return len(order), CANDIDATES_EXHAUSTED, float(best[-1])


def _expected_next_totals(gap, reveals, depth, p0, family, theta):
    """Array E[t_{i+1}] for prefixes with 2 <= depth <= MAX_EVAL_DEPTH.

    The terms of lookahead.expected_nodes_if_continue, one row per prefix,
    written with tail survivals S_k at G/k: P[depth 1] = (1-p0) S_1,
    P[depth k] = (1-p0)(S_k - S_{k-1}) for 1 < k < d_min, and the last
    bucket takes P[G <= G/(d_min-1)]. Rounding differs from the scalar sum.
    """
    top = int(depth.max())
    g = gap / _DEPTHS[: top - 1]
    if family == "exponential":
        tail = np.exp(-theta[0][:, None] * g)
    else:
        xm, alpha = theta
        tail = np.minimum(xm[:, None] / g, 1.0) ** alpha[:, None]
    steps = np.maximum(tail[:, 1:] - tail[:, :-1], 0.0)
    steps[_DEPTHS[1 : top - 1] >= depth[:, None]] = 0.0
    q = 1.0 - p0
    last = p0 + q * (1.0 - tail[np.arange(len(depth)), depth - 2])
    return (
        q * (_WEIGHTS[0] * np.maximum(tail[:, 0], 5e-324) + steps @ _WEIGHTS[1 : top - 1])
        + _WEIGHTS[depth - 1] * last
        + 2.0 * (reveals + 1)
    )


def _scalar_stops(gap, reveals, depth, zero_count, nonzero_sum, sum_logs, nonzero_min,
                  family, mass_point) -> bool:
    """The scalar expected-size test for one prefix, rebuilt from its sums."""
    samples = GainAccumulator(
        count=reveals,
        zero_count=zero_count,
        nonzero_sum=nonzero_sum,
        sum_logs=sum_logs,
        nonzero_min=nonzero_min,
    )
    session = SbSession(gap=gap, iteration=reveals, d_min=depth, samples=samples)
    dist = samples.fit(family, mass_point=mass_point)
    return expected_nodes_if_continue(session, dist) >= nodes_if_stop(session)


def _prob_trial(gains, logs, order, gap, family, mass_point, min_nonzero):
    """(reveals, reason, best gain) of a probabilistic strategy on one permutation.

    Applies the rule's gates in order to every prefix: no nonzero gain yet
    (continue), depth 1 (stop), too few nonzero samples, depth past
    MAX_EVAL_DEPTH or a degenerate fit (continue); then stop once
    E[t_{i+1}] >= t_i.
    """
    for lo, hi in _prefix_windows(len(order)):
        idx = order[:hi]
        v, lg = gains[idx], logs[idx]
        i = np.arange(1, hi + 1)  # reveals so far, the accumulator's count
        nonzero = v > 0.0
        n1 = np.cumsum(nonzero)
        best = np.maximum.accumulate(v)
        lowest = np.minimum.accumulate(np.where(nonzero, v, np.inf))
        sums = np.cumsum(v)  # zeros add 0.0, so these are the running sums
        sum_logs = np.cumsum(lg)
        with np.errstate(all="ignore"):
            depth = np.ceil(gap / best)  # inf before the first nonzero gain
            if not mass_point:
                p0, theta, fitted = np.zeros(hi), (i / sums,), True
            elif family == "pareto":
                # log of the running minimum, taken from the entry that set it
                at_min = np.maximum.accumulate(np.where(nonzero & (v == lowest), i - 1, 0))
                log_ratio_sum = sum_logs - n1 * lg[at_min]
                p0, theta = (i - n1) / i, (lowest, n1 / log_ratio_sum)
                fitted = (n1 >= 2) & (log_ratio_sum > 0.0)
            else:
                p0, theta, fitted = (i - n1) / i, (n1 / sums,), True
            test = (depth >= 2) & (depth <= MAX_EVAL_DEPTH) & (n1 >= min_nonzero) & fitted
            stop = depth[lo:] == 1
            rescan = np.zeros(hi - lo, dtype=bool)
            rows = lo + np.flatnonzero(test[lo:])
            if rows.size:
                d = depth[rows].astype(np.int64)
                th = tuple(t[rows] for t in theta)
                expected = _expected_next_totals(gap, i[rows], d, p0[rows], family, th)
                stop_total = _WEIGHTS[d - 1] + 2.0 * i[rows]
                clear = np.abs(expected - stop_total) > _SCALAR_MARGIN * stop_total
                exact = clear & (d <= _EXACT_FLOAT_DEPTH) & np.isfinite(th[-1])
                stop[rows - lo] = exact & (expected >= stop_total)
                rescan[rows - lo] = ~exact
        for k in np.flatnonzero(stop | rescan):
            r = lo + int(k)
            if stop[k] or _scalar_stops(
                gap, r + 1, int(depth[r]), int(r + 1 - n1[r]), float(sums[r]),
                float(sum_logs[r]), float(lowest[r]), family, mass_point,
            ):
                return r + 1, NO_EXPECTED_IMPROVEMENT, float(best[r])
    return len(order), CANDIDATES_EXHAUSTED, float(best[-1])


def run_trial(
    instance: PvbInstance,
    gap: float,
    strategy: str,
    rng: np.random.Generator | None,
    fixed: FixedLookaheadConfig | None = None,
    prob: ProbLookaheadConfig | None = None,
) -> TrialResult:
    """Reveal pool gains in a random permutation until the strategy stops.

    A stop with no usable candidate yet is deferred: reveals continue until
    some nonzero gain makes a tree buildable. The gap argument overrides
    the instance's base gap so one pool serves a whole gap grid. `full`
    draws nothing from rng, which may then be None; every other strategy
    draws one permutation.
    Raises svb_tree_size's CapacityError when the final depth exceeds
    abstract_tree.MAX_FINAL_DEPTH.
    """
    if not (math.isfinite(gap) and gap > 0):
        raise ValueError(f"gap must be positive and finite, got {gap!r}")
    gains, logs = instance.reveal_arrays
    if not gains.any():
        raise UnclosableError("every pool gain is zero; the gap cannot be closed")
    if strategy == "full":
        reveals, reason, best = len(gains), CANDIDATES_EXHAUSTED, float(gains.max())
    elif strategy == "fixed":
        reveals, reason, best = _fixed_trial(
            gains, rng.permutation(len(gains)), fixed or FixedLookaheadConfig()
        )
    elif strategy in _PROB_FITS:
        family, mass_point = _PROB_FITS[strategy]
        reveals, reason, best = _prob_trial(
            gains, logs, rng.permutation(len(gains)), gap, family, mass_point,
            (prob or ProbLookaheadConfig()).min_nonzero_samples,
        )
    else:
        raise ValueError(f"unknown strategy {strategy!r}")
    try:
        final = svb_tree_size(svb_depth(gap, best))
    except CapacityError as exc:
        raise CapacityError(f"gap {gap!r}: best {exc}") from None
    return TrialResult(strategy, gap, reveals, reason, final)


def _cell_sums(args):
    instance, gap, strategy, seed, start, stop, fixed, prob = args
    total = sb = 0
    for t in range(start, stop):
        # `full` draws no permutation, so it needs no stream
        rng = None if strategy == "full" else np.random.default_rng((seed ^ t) & _MASK64)
        result = run_trial(instance, gap, strategy, rng, fixed=fixed, prob=prob)
        total += result.total_nodes
        sb += result.sb_nodes
    return total, sb


def run_campaign(
    spec: CampaignSpec,
    workers: int = 1,
    fixed: FixedLookaheadConfig | None = None,
    prob: ProbLookaheadConfig | None = None,
) -> list[CampaignRow]:
    """Mean total and SB nodes per (gap, strategy) cell over seeded trials.

    Trial t always uses the rng stream seeded by seed xor t, so every
    strategy and gap sees the same permutation in trial t and the table is
    reproducible for any worker count.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    cells = [(gap, strategy) for gap in spec.gaps for strategy in spec.strategies]
    jobs = []
    for gap, strategy in cells:
        if workers == 1:
            jobs.append([(spec.instance, gap, strategy, spec.seed, 0, spec.trials, fixed, prob)])
        else:
            step = max(1, -(-spec.trials // (workers * 4)))
            jobs.append(
                [
                    (spec.instance, gap, strategy, spec.seed, lo, min(lo + step, spec.trials), fixed, prob)
                    for lo in range(0, spec.trials, step)
                ]
            )
    flat = [chunk for job in jobs for chunk in job]
    if workers == 1:
        sums = [_cell_sums(chunk) for chunk in flat]
    else:
        with ProcessPoolExecutor(max_workers=workers) as executor:
            sums = list(executor.map(_cell_sums, flat))
    rows = []
    pos = 0
    for (gap, strategy), job in zip(cells, jobs):
        total = sb = 0
        for _ in job:
            t, s = sums[pos]
            total += t
            sb += s
            pos += 1
        rows.append(
            CampaignRow(
                gap=gap,
                strategy=strategy,
                mean_total_nodes=total / spec.trials,
                mean_sb_nodes=sb / spec.trials,
            )
        )
    return rows
