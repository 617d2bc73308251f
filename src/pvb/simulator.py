"""Monte-Carlo harness comparing stopping strategies on abstract instances.

A trial reveals pool gains in a uniform random permutation until the
strategy stops; its cost is the perfect tree (abstract_tree.svb_tree_size)
of the best depth found plus two nodes per reveal. The engine prices a
block of trials as arrays, one permutation per row; run_trial is its
one-row case. `full` reveals every gain, in any order, in closed form.
Every other strategy is a step function of one driver, which advances the
trials still running a window of reveals at a time, as wide as
lookahead.ENTRY_BUDGET allows for their number, so no strategy's
temporaries pass that many entries. A step carries its rule's state as
one column per trial, takes each running value as an accumulate over the
carried column and the window (the per-reveal update's float operations
in its order; a maximum, minimum, logical or or count, which is exact in
any order, folds the carried column into the window's accumulate), and
marks the (trial, reveal) entries that stop; a trial stops at its first
stopping entry and leaves. Stop reasons are built only for run_trial.
`fixed` carries the running best, the reveal of the last improvement and
whether a streak or budget cap was hit, and for a reason which was hit
first; a hit before any nonzero gain waits for the first one. A probabilistic step carries the
running sums of a GainAccumulator that its family's fit reads, fits as
GainAccumulator.fit does, and decides a window in one lookahead.prob_stops
call. `prob-exp` fits without a mass point: p0 = 0 and an exponential rate
over every reveal, zeros included.

Campaigns cut the trials, not the cells, into chunks: every trial in one
chunk with one worker and four chunks per worker with more, each capped
so its order block stays within 1 MB. Trial t reveals in a uniform random
permutation drawn from the SplitMix64 stream keyed by seed xor t, so it
depends on (seed, t, n) alone; the swap index at each of its first 64
positions p is uniform up to a relative (n - p) / 2**32 bias. A chunk's
_Orders settles each row only as deep as a cell reads it, drawing a read's
swap indices per group of entries; a window ends at position 64, so only
trials that reveal past it are sorted. Every (gap, strategy) cell of the
chunk reads and extends the same rows; one run_trial call prices a `full`
cell's chunk, which draws nothing. Each distinct depth of a cell's best
gains is priced into its tree once.
Chunk sums are exact ints, so the means do not depend on execution order
or worker count.
"""

from __future__ import annotations

import math
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from itertools import pairwise, product

import numpy as np

from .abstract_tree import CapacityError, PvbInstance, svb_tree_size
from .lookahead import (
    BUDGET_EXHAUSTED,
    CANDIDATES_EXHAUSTED,
    ENTRY_BUDGET,
    LOOKAHEAD_EXHAUSTED,
    NO_EXPECTED_IMPROVEMENT,
    FixedLookaheadConfig,
    ProbLookaheadConfig,
    check_int,
    prob_stops,
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

# bytes of a chunk's order block, at its dtype
_BLOCK_BYTES = 1 << 20

# an order's positions drawn one Fisher-Yates swap at a time; a row read
# past them is settled whole
_SWAPS = 64

# SplitMix64's increment and finalizer, as uint64 scalars so that every
# step is uint64 array arithmetic on numpy 1.x and 2.x alike
_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX1, _MIX2 = np.uint64(0xBF58476D1CE4E5B9), np.uint64(0x94D049BB133111EB)
_R27, _R30, _R31, _R32 = np.uint64([27, 30, 31, 32])


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
        if check_int("trials", self.trials) < 1:
            raise ValueError("trials must be >= 1")
        if not self.strategies:
            raise ValueError("at least one strategy is required")
        for s in self.strategies:
            if s not in STRATEGIES:
                raise ValueError(f"unknown strategy {s!r} (known: {', '.join(STRATEGIES)})")
        if len(set(self.gaps)) != len(self.gaps):
            raise ValueError("duplicate gaps")
        if len(set(self.strategies)) != len(self.strategies):
            raise ValueError("duplicate strategies")
        if not 0 <= check_int("seed", self.seed) < 2**64:
            raise ValueError(f"seed must be in [0, 2**64), got {self.seed!r}")


@dataclass(frozen=True)
class CampaignRow:
    gap: float
    strategy: str
    mean_total_nodes: float
    mean_sb_nodes: float


def _running(ufunc, carried, window):
    """ufunc's running value along each row of the window, from the carried column."""
    return ufunc.accumulate(np.hstack((carried, window)), axis=1)[:, 1:]


def _folded(ufunc, carried, window):
    """_running for a ufunc whose value does not depend on the order of its
    operands (maximum, minimum, logical_or, a count): the window's
    accumulate, in the carried column's dtype, with the carried column
    folded in by one call."""
    out = ufunc.accumulate(window, axis=1, dtype=carried.dtype)
    return ufunc(out, carried, out=out)


def _advance(orders, step, state, reveals, best_out, reasons):
    """Write each trial's first stopping entry into the outputs, and its
    stop reason into reasons unless that is None.

    The running trials advance a window of reveals at a time, as wide as
    ENTRY_BUDGET allows for their number and ending at _SWAPS, so only the
    trials that go on past it read their orders past it. step(idx, i,
    state) reads the window's pool indices, its reveal counts i and state,
    one column per trial; it returns the stopping entries, every entry's
    running best, the stop reason (one, one per trial, or None when
    reasons is None) and the new state, whose last column the trials that
    go on carry into the next window.
    """
    alive, done, n = np.arange(len(orders)), 0, orders.shape[1]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        while alive.size and done < n:
            width = min(n - done, max(1, ENTRY_BUDGET // alive.size))
            if done < _SWAPS < done + width:
                width = _SWAPS - done
            i = np.arange(done + 1, done + width + 1)
            stop, best, reason, state = step(orders[alive, done : done + width], i, state)
            first, hit = stop.argmax(axis=1), stop.any(axis=1)
            at, keep = alive[hit], ~hit
            reveals[at], best_out[at] = done + first[hit] + 1, best[hit, first[hit]]
            if reasons is not None:
                reasons[at] = np.broadcast_to(reason, hit.shape)[hit]
            alive, done = alive[keep], done + width
            state = tuple(x[keep, -1:] for x in state)


def _fixed_step(gains, fixed, rows, reasons):
    """The fixed rule's step and start state: L_max = L, gamma_max = K.

    A trial carries its running best, the reveal of its last improvement
    and whether a streak or budget cap has been hit; with reasons, also
    whether that first hit was the streak cap. A hit stops the trial at
    its first nonzero gain, with the first hit's reason.
    """

    def step(idx, i, state):
        top, last, hit, *capped = state
        v = gains[idx]
        best = _folded(np.maximum, top, v)
        last = _folded(np.maximum, last, np.where(v > np.hstack((top, best[:, :-1])), i, 0))
        streak = i - last >= fixed.L
        hits = streak | (2.0 * i >= fixed.K)
        reason = None
        if reasons:
            first = np.take_along_axis(streak, hits.argmax(axis=1)[:, None], 1)
            capped = [np.where(hit, capped[0], first)]
            reason = np.where(capped[0][:, 0], LOOKAHEAD_EXHAUSTED, BUDGET_EXHAUSTED)
        hit = _folded(np.logical_or, hit, hits)
        return hit & (best > 0.0), best, reason, (best, last, hit, *capped)

    flags = np.zeros((1 + bool(reasons), rows, 1), bool)
    return step, (np.zeros((rows, 1)), np.zeros((rows, 1), int), *flags)


def _prob_step(gains, logs, gap, strategy, prob, rows):
    """A probabilistic strategy's step and start state.

    After every reveal each running trial is a row of prob_stops, ready
    with min_nonzero_samples nonzero gains and a usable fit. No streak cap
    applies: the model may scan longer than the fixed rule whenever that
    is expected to pay, which is how it escapes the fixed rule's blowup at
    large gaps. The solver's variant with hard caps is should_continue.

    A trial carries its best, nonzero count and tail statistics: the log
    sum, the lowest and the lowest log (the log of the lowest, as math.log
    is monotone) for pareto, the gain sum (a zero adds 0.0) for exponential.
    """
    family, mass_point = _PROB_FITS[strategy]
    pareto = family == "pareto"

    def step(idx, i, state):
        best, n1, *tail = state
        v = gains[idx]
        nonzero = v > 0.0
        best, n1 = _folded(np.maximum, best, v), _folded(np.add, n1, nonzero)
        depth = np.ceil(gap / best)  # inf before the first nonzero gain or on overflow
        p0 = (i - n1) / i if mass_point else np.zeros(v.shape)
        if pareto:
            lg, (log_sum, lowest, log_lowest) = logs[idx], tail
            log_sum = _running(np.add, log_sum, lg)
            lowest = _folded(np.minimum, lowest, np.where(nonzero, v, np.inf))
            log_lowest = _folded(np.minimum, log_lowest, np.where(nonzero, lg, np.inf))
            tail = log_sum, lowest, log_lowest
            log_ratio_sum = log_sum - n1 * log_lowest
            theta = (lowest, n1 / log_ratio_sum)
            # spread in the nonzero gains (so at least 2), as GainAccumulator.fit
            fitted = (best > lowest) & (log_ratio_sum > 0.0)
        else:
            tail = (_running(np.add, tail[0], v),)
            theta = ((n1 if mass_point else i) / tail[0],)
            # an overflowing sum leaves no rate, as GainAccumulator.fit
            fitted = np.isfinite(tail[0])
        ready = (n1 >= prob.min_nonzero_samples) & fitted
        theta = tuple(t.ravel() for t in theta)
        stop = prob_stops(gap, depth.ravel(), ready.ravel(), p0.ravel(), family, theta)
        return stop.reshape(v.shape), best, NO_EXPECTED_IMPROVEMENT, (best, n1, *tail)

    zeros, inf = np.zeros((rows, 1)), np.full((rows, 1), np.inf)
    return step, (zeros, zeros, *((zeros, inf, inf) if pareto else (zeros,)))


def _closable_arrays(instance: PvbInstance):
    """The instance's reveal_arrays, or UnclosableError if no gain is nonzero."""
    gains, logs = instance.reveal_arrays
    if not gains.any():
        raise UnclosableError("every pool gain is zero; the gap cannot be closed")
    return gains, logs


def _price(instance: PvbInstance, gap, strategy, orders, fixed, prob, reasons=True):
    """Reveals, best gains and stop reasons (None unless reasons) of trials
    revealing in the orders' rows."""
    gains, logs = _closable_arrays(instance)
    rows = len(orders)
    # a trial that never stops reveals every gain and ends with the largest
    stops = np.full(rows, CANDIDATES_EXHAUSTED, dtype=object) if reasons else None
    out = np.full(rows, orders.shape[1]), np.full(rows, gains.max()), stops
    if strategy == "fixed":
        fixed = fixed or FixedLookaheadConfig()
        _advance(orders, *_fixed_step(gains, fixed, rows, reasons), *out)
    elif strategy in _PROB_FITS:
        prob = prob or ProbLookaheadConfig()
        _advance(orders, *_prob_step(gains, logs, gap, strategy, prob, rows), *out)
    return out


def _tree_nodes(gap, best) -> int:
    """Summed final trees of trials with these best gains, or the first CapacityError.

    A best is a nonzero gain of reveal_arrays, never classified zero, so
    its svb_depth is ceil(gap / best), inf when that overflows; each
    distinct depth is priced once. A Counter keeps its keys in the order
    of their first trials, so the error raised is the first failing trial's.
    """
    with np.errstate(over="ignore"):
        depths = Counter(np.ceil(gap / best).tolist())
    try:
        # an int depth, as svb_depth returns, is what the error names
        return sum(
            svb_tree_size(int(d) if math.isfinite(d) else d) * count
            for d, count in depths.items()
        )
    except CapacityError as exc:
        raise CapacityError(f"gap {gap!r}: best {exc}") from None


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
    draws rng.permutation(n), and a None rng is a ValueError.
    Raises svb_tree_size's CapacityError when the final depth exceeds
    abstract_tree.MAX_FINAL_DEPTH.
    """
    if not (math.isfinite(gap) and gap > 0):
        raise ValueError(f"gap must be positive and finite, got {gap!r}")
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}")
    if rng is None and strategy != "full":
        raise ValueError(f"strategy {strategy!r} needs an rng to draw its order")
    n = len(instance.pool)
    order = np.arange(n) if strategy == "full" else rng.permutation(n)
    reveals, best, reasons = _price(instance, gap, strategy, order[None], fixed, prob)
    return TrialResult(strategy, gap, int(reveals[0]), reasons[0], _tree_nodes(gap, best))


def _mix64(z):
    """SplitMix64's output function of a uint64 array."""
    z = (z ^ (z >> _R30)) * _MIX1
    z = (z ^ (z >> _R27)) * _MIX2
    return z ^ (z >> _R31)


class _Orders:
    """Trial t's reveal order as row t - start, t in start..stop-1, settled
    only as deep as it is read: orders[rows, lo:hi] settles the rows to hi.

    Trial t's stream is u_k = mix64(mix64(seed ^ t) + (k + 1) * gamma),
    SplitMix64 keyed by seed ^ t. Position p < _SWAPS swaps in the element
    at p + ((u_p >> 32) * (n - p) >> 32), a partial Fisher-Yates shuffle
    whose swap index has each value's probability within a relative
    (n - p) / 2**32 of uniform. A read draws the outputs of all its swaps
    in one mix64 call per group of at most ENTRY_BUDGET, so only the swaps
    themselves run position by position. A row read past _SWAPS gets all
    its other positions at once: its remaining elements, sorted by the
    outputs at counters _SWAPS + element, in groups of rows of at most
    ENTRY_BUDGET entries; _advance ends a window at _SWAPS, so only rows
    of trials that reveal past it are sorted. mix64 is a bijection, so a
    row's keys are distinct and every sort is the stable one. A row is so
    a uniform random permutation of range(n) that depends on (seed, t, n)
    alone, whatever windows read it.
    """

    def __init__(self, seed, start, stop, n):
        self.states = _mix64(np.arange(start, stop, dtype=np.uint64) ^ np.uint64(seed))
        self.steps = np.arange(1, _SWAPS + n + 1, dtype=np.uint64) * _GAMMA
        row = np.arange(n, dtype=np.min_scalar_type(n))
        self.block = np.broadcast_to(row, (stop - start, n)).copy()
        self.depth, self.shape = np.zeros(stop - start, dtype=int), self.block.shape

    def __len__(self):
        return len(self.block)

    def __getitem__(self, index):
        block, flat, n = self.block, self.block.reshape(-1), self.shape[1]
        depth, rows = index[1].indices(n)[1], np.arange(len(self))[index[0]]
        rows = rows[self.depth[rows] < depth]
        # rows by depth, so that swap position p settles the first settled[p]
        rows = rows[np.argsort(self.depth[rows], kind="stable")]
        settled = np.searchsorted(self.depth[rows], np.arange(min(depth, _SWAPS)), "right")
        ends = settled.cumsum()
        # the read's (position, row) swaps, position-major, a group at a time
        for lo in range(0, int(settled.sum()), ENTRY_BUDGET):
            e = np.arange(lo, min(lo + ENTRY_BUDGET, ends[-1]))
            p = np.searchsorted(ends, e, "right")
            r = rows[e - ends[p] + settled[p]]
            u = _mix64(self.states[r] + self.steps[p])
            here = r * n + p
            there = here + ((u >> _R32) * (n - p).astype(np.uint64) >> _R32).astype(int)
            # position by position: a swap may move what an earlier one placed
            for a, b in pairwise([0, *(np.flatnonzero(np.diff(p)) + 1).tolist(), p.size]):
                h, t = here[a:b], there[a:b]
                flat[h], flat[t] = flat[t], flat[h]
        if depth > _SWAPS:
            group = max(1, ENTRY_BUDGET // (n - _SWAPS))
            for g in (rows[lo : lo + group] for lo in range(0, rows.size, group)):
                rest = block[g, _SWAPS:]
                keys = _mix64(self.states[g, None] + self.steps[_SWAPS:][rest])
                block[g, _SWAPS:] = np.take_along_axis(rest, keys.argsort(1), 1)
            depth = n
        self.depth[rows] = depth
        return block[index]


def _chunk_sums(args):
    """Exact (total, SB) node sums, or the CapacityError raised, of trials
    start..stop-1 in every cell of the spec."""
    spec, start, stop, fixed, prob = args
    count = stop - start
    if set(spec.strategies) != {"full"}:
        orders = _Orders(spec.seed, start, stop, len(spec.instance.pool))
    sums = []
    for gap, strategy in product(spec.gaps, spec.strategies):
        try:
            if strategy == "full":
                # one trial prices the chunk; the benchmark wraps run_trial here
                r = run_trial(spec.instance, gap, strategy, None, fixed, prob)
                sums.append((r.total_nodes * count, r.sb_nodes * count))
            else:
                reveals, best, _ = _price(
                    spec.instance, gap, strategy, orders, fixed, prob, reasons=False
                )
                sb = 2 * int(reveals.sum())
                sums.append((_tree_nodes(gap, best) + sb, sb))
        except CapacityError as exc:
            sums.append(exc)
    return sums


def run_campaign(
    spec: CampaignSpec,
    workers: int = 1,
    fixed: FixedLookaheadConfig | None = None,
    prob: ProbLookaheadConfig | None = None,
) -> list[CampaignRow]:
    """Mean total and SB nodes per (gap, strategy) cell over seeded trials.

    Trial t always reveals in the order of _Orders' SplitMix64 stream
    keyed by seed xor t, a seed in [0, 2**64): a uniform random
    permutation, up to a relative (n - p) / 2**32 bias in the swap index
    at each position p < _SWAPS, so every strategy and gap sees the same
    permutation in trial t, whatever the workers, chunks and cells. With
    one worker a chunk holds every trial, and with more
    ceil(trials / (4 * workers)), which balances the load; either way
    fewer if the chunk's order block would pass _BLOCK_BYTES. A pool
    with no nonzero gain, an empty one included, raises UnclosableError
    before any chunk is cut. A tree too deep to price raises the
    CapacityError of the first such trial in the first such cell.
    """
    if check_int("workers", workers) < 1:
        raise ValueError("workers must be >= 1")
    n = len(_closable_arrays(spec.instance)[0])
    per_chunk = spec.trials if workers == 1 else -(-spec.trials // (workers * 4))
    step = max(1, min(per_chunk, _BLOCK_BYTES // (n * np.min_scalar_type(n).itemsize)))
    starts = range(0, spec.trials, step)
    chunks = [(spec, lo, min(lo + step, spec.trials), fixed, prob) for lo in starts]
    if workers == 1 or len(chunks) == 1:
        sums = list(map(_chunk_sums, chunks))
    else:
        with ProcessPoolExecutor(max_workers=min(workers, len(chunks))) as executor:
            sums = list(executor.map(_chunk_sums, chunks))
    rows = []
    for (gap, strategy), cell in zip(product(spec.gaps, spec.strategies), zip(*sums)):
        for s in cell:
            if isinstance(s, CapacityError):
                raise s
        total, sb = map(sum, zip(*cell))
        rows.append(CampaignRow(gap, strategy, total / spec.trials, sb / spec.trials))
    return rows
