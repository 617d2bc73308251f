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
  float operations as GainAccumulator.fit, and hand the fits to
  lookahead.depth_probabilities, which builds every prefix's depth
  probabilities as one prefixes x depth array, 64 reveals at first and
  wider only while no stop falls inside. lookahead.saving_stops decides
  every row, the same saving form the solver's rule uses, so no prefix
  needs a second, scalar decision. `prob-exp` fits without a mass point:
  p0 = 0 and an exponential rate over every reveal, zeros included.

The probabilistic strategies apply the expected-tree-size test after every
reveal with no streak cap: in the abstract model the criterion is free to
run SB longer than the fixed rule whenever more scanning is expected to
pay for itself, which is exactly how it escapes the fixed rule's blowup at
large gaps. The phi-gated variant with hard caps is
lookahead.should_continue, which the solver's branching rule calls.

Every trial's final tree comes from abstract_tree.svb_tree_size.

Campaigns aggregate means per (gap, strategy) cell with one rng stream per
trial index, so results do not depend on execution order or worker count.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .abstract_tree import MAX_FINAL_DEPTH, CapacityError, PvbInstance, svb_depth, svb_tree_size
from .lookahead import (
    BUDGET_EXHAUSTED,
    CANDIDATES_EXHAUSTED,
    LOOKAHEAD_EXHAUSTED,
    NO_EXPECTED_IMPROVEMENT,
    FixedLookaheadConfig,
    ProbLookaheadConfig,
    depth_probabilities,
    iteration_budget,
    max_lookahead,
    saving_stops,
)

# perfbench's tracer wraps these two names on this module
from .lookahead import expected_nodes_if_continue, should_continue  # noqa: F401

STRATEGIES = ("fixed", "full", "prob-exp", "prob-mixed-exp", "prob-mixed-pareto")

# tail family and mass point of each probabilistic strategy's fit
_PROB_FITS = {
    "prob-exp": ("exponential", False),
    "prob-mixed-exp": ("exponential", True),
    "prob-mixed-pareto": ("pareto", True),
}

_MASK64 = 0xFFFFFFFFFFFFFFFF

_FIRST_WINDOW = 64


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
        for g in self.gaps:
            if not (math.isfinite(g) and g > 0):
                raise ValueError(f"gaps must be positive and finite, got {g!r}")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if not self.strategies:
            raise ValueError("at least one strategy is required")
        for s in self.strategies:
            if s not in STRATEGIES:
                raise ValueError(f"unknown strategy {s!r} (known: {', '.join(STRATEGIES)})")
        if len(set(self.strategies)) != len(self.strategies):
            raise ValueError("duplicate strategies")


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


def _prob_trial(gains, logs, order, gap, family, mass_point, min_nonzero):
    """(reveals, reason, best gain) of a probabilistic strategy on one permutation.

    Applies the rule's gates in order to every prefix: no nonzero gain yet
    (continue), depth 1 (stop), too few nonzero samples, depth past
    MAX_FINAL_DEPTH or a degenerate fit (continue); then stop once the
    expected saving of one more probe is at most its 2 nodes.
    """
    for lo, hi in _prefix_windows(len(order)):
        idx = order[:hi]
        v, lg = gains[idx], logs[idx]
        i = np.arange(1, hi + 1)  # reveals so far, the accumulator's count
        nonzero = v > 0.0
        n1 = np.cumsum(nonzero)
        best = np.maximum.accumulate(v)
        sums = np.cumsum(v)  # zeros add 0.0, so these are the running sums
        with np.errstate(all="ignore"):
            depth = np.ceil(gap / best)  # inf before the first nonzero gain
            if not mass_point:
                p0, theta, fitted = np.zeros(hi), (i / sums,), True
            elif family == "pareto":
                # log of the running minimum, taken from the entry that set it
                lowest = np.minimum.accumulate(np.where(nonzero, v, np.inf))
                at_min = np.maximum.accumulate(np.where(nonzero & (v == lowest), i - 1, 0))
                log_ratio_sum = np.cumsum(lg) - n1 * lg[at_min]
                p0, theta = (i - n1) / i, (lowest, n1 / log_ratio_sum)
                fitted = (n1 >= 2) & (log_ratio_sum > 0.0)
            else:
                p0, theta, fitted = (i - n1) / i, (n1 / sums,), True
            test = (depth >= 2) & (depth <= MAX_FINAL_DEPTH) & (n1 >= min_nonzero) & fitted
            stop = depth[lo:] == 1
            rows = lo + np.flatnonzero(test[lo:])
            if rows.size:
                d = depth[rows].astype(np.int64)
                ps = depth_probabilities(gap, d, p0[rows], family, tuple(t[rows] for t in theta))
                stop[rows - lo] = saving_stops(ps, d)
        hits = np.flatnonzero(stop)
        if hits.size:
            r = lo + int(hits[0])
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
    reproducible for any worker count. Every cell is cut into the same
    chunks of ceil(trials / (4 * workers)) trials; the chunk sums are
    exact ints, so the means do not depend on the cut.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    cells = [(gap, strategy) for gap in spec.gaps for strategy in spec.strategies]
    step = -(-spec.trials // (workers * 4))
    starts = range(0, spec.trials, step)
    chunks = [
        (spec.instance, gap, strategy, spec.seed, lo, min(lo + step, spec.trials), fixed, prob)
        for gap, strategy in cells
        for lo in starts
    ]
    if workers == 1:
        sums = list(map(_cell_sums, chunks))
    else:
        with ProcessPoolExecutor(max_workers=workers) as executor:
            sums = list(executor.map(_cell_sums, chunks))
    rows = []
    for k, (gap, strategy) in enumerate(cells):
        cell = sums[k * len(starts) : (k + 1) * len(starts)]
        rows.append(
            CampaignRow(
                gap=gap,
                strategy=strategy,
                mean_total_nodes=sum(t for t, _ in cell) / spec.trials,
                mean_sb_nodes=sum(s for _, s in cell) / spec.trials,
            )
        )
    return rows
