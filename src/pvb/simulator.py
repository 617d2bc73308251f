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
in its order), and marks the (trial, reveal) entries that stop; a trial
stops at its first stopping entry and leaves.
`fixed` carries the running best, the reveal of the last improvement and
whether, and why, a streak or budget cap was first hit; a hit before any
nonzero gain waits for the first one. A probabilistic step carries the
running sums of a GainAccumulator that its family's fit reads, fits as
GainAccumulator.fit does, and decides a window in one lookahead.prob_stops
call. `prob-exp` fits without a mass point: p0 = 0 and an exponential rate
over every reveal, zeros included.

Campaigns cut the trials, not the cells, into chunks: every trial in one
chunk with one worker and four chunks per worker with more, each capped
so its permutation block stays within 1 MB. A chunk draws trial t's permutation
from the rng stream seeded by seed xor t once and prices every (gap,
strategy) cell on that block; one run_trial call prices a `full` cell's
chunk. The chunk seeds its streams as arrays: numpy's SeedSequence hash of
every seed in uint32 arithmetic, then PCG64's seeding step per trial on one
reused generator, which shuffles one reused arange buffer into the trial's
row; the chunk's first row is checked against default_rng. Each distinct
best gain of a cell is priced into its tree once.
Chunk sums are exact ints, so the means do not depend on execution order
or worker count.
"""

from __future__ import annotations

import math
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from itertools import product

import numpy as np

from .abstract_tree import CapacityError, PvbInstance, svb_depth, svb_tree_size
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

# bytes of a chunk's permutation block, at its dtype
_BLOCK_BYTES = 1 << 20

# numpy's SeedSequence hash (numpy/random/bit_generator.pyx) and PCG64 seeding
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_XSHIFT = np.uint32(16)
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1


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


def _advance(orders, step, state, reveals, best_out, reasons):
    """Write each trial's first stopping entry into the outputs.

    The running trials advance a window of reveals at a time, as wide as
    ENTRY_BUDGET allows for their number. step(idx, i, state) reads the
    window's pool indices, its reveal counts i and state, one column per
    trial; it returns the stopping entries, every entry's running best,
    the stop reason (one, or one per trial) and the new state, whose last
    column the trials that go on carry into the next window.
    """
    alive, done, n = np.arange(len(orders)), 0, orders.shape[1]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        while alive.size and done < n:
            width = min(n - done, max(1, ENTRY_BUDGET // alive.size))
            i = np.arange(done + 1, done + width + 1)
            stop, best, reason, state = step(orders[alive, done : done + width], i, state)
            first, hit = stop.argmax(axis=1), stop.any(axis=1)
            at, keep = alive[hit], ~hit
            reveals[at], best_out[at] = done + first[hit] + 1, best[hit, first[hit]]
            reasons[at] = np.broadcast_to(reason, hit.shape)[hit]
            alive, done = alive[keep], done + width
            state = tuple(x[keep, -1:] for x in state)


def _fixed_step(gains, fixed, rows):
    """The fixed rule's step and start state: L_max = L, gamma_max = K.

    A trial carries its running best, the reveal of its last improvement,
    whether a streak or budget cap has been hit and whether that first
    hit was the streak cap. A hit stops the trial at its first nonzero
    gain, with the first hit's reason.
    """

    def step(idx, i, state):
        top, last, hit, capped = state
        v = gains[idx]
        best = _running(np.maximum, top, v)
        last = _running(np.maximum, last, np.where(v > np.hstack((top, best[:, :-1])), i, 0))
        streak = i - last >= fixed.L
        hits = streak | (2.0 * i >= fixed.K)
        capped = np.where(hit, capped, np.take_along_axis(streak, hits.argmax(axis=1)[:, None], 1))
        hit = _running(np.logical_or, hit, hits)
        reason = np.where(capped[:, 0], LOOKAHEAD_EXHAUSTED, BUDGET_EXHAUSTED)
        return hit & (best > 0.0), best, reason, (best, last, hit, capped)

    return step, (np.zeros((rows, 1)), np.zeros((rows, 1), int), *np.zeros((2, rows, 1), bool))


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
        best, n1 = _running(np.maximum, best, v), _running(np.add, n1, nonzero)
        depth = np.ceil(gap / best)  # inf before the first nonzero gain or on overflow
        p0 = (i - n1) / i if mass_point else np.zeros(v.shape)
        if pareto:
            lg, (log_sum, lowest, log_lowest) = logs[idx], tail
            log_sum = _running(np.add, log_sum, lg)
            lowest = _running(np.minimum, lowest, np.where(nonzero, v, np.inf))
            log_lowest = _running(np.minimum, log_lowest, np.where(nonzero, lg, np.inf))
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


def _price(instance: PvbInstance, gap, strategy, orders, fixed, prob):
    """Reveals, best gains and stop reasons of trials revealing in the orders' rows."""
    gains, logs = _closable_arrays(instance)
    # a trial that never stops reveals every gain and ends with the largest
    reasons = np.full(len(orders), CANDIDATES_EXHAUSTED, dtype=object)
    out = np.full(len(orders), orders.shape[1]), np.full(len(orders), gains.max()), reasons
    if strategy == "fixed":
        _advance(orders, *_fixed_step(gains, fixed or FixedLookaheadConfig(), len(orders)), *out)
    elif strategy in _PROB_FITS:
        prob = prob or ProbLookaheadConfig()
        _advance(orders, *_prob_step(gains, logs, gap, strategy, prob, len(orders)), *out)
    return out


def _tree_nodes(gap, best) -> int:
    """Summed final trees of trials with these best gains, or the first CapacityError.

    Each distinct best is priced once. A Counter keeps its keys in the
    order of their first trials, so the error raised is the first failing
    trial's.
    """
    try:
        return sum(
            svb_tree_size(svb_depth(gap, b)) * count
            for b, count in Counter(best.tolist()).items()
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
    draws one permutation.
    Raises svb_tree_size's CapacityError when the final depth exceeds
    abstract_tree.MAX_FINAL_DEPTH.
    """
    if not (math.isfinite(gap) and gap > 0):
        raise ValueError(f"gap must be positive and finite, got {gap!r}")
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}")
    n = len(instance.pool)
    order = np.arange(n) if strategy == "full" else rng.permutation(n)
    reveals, best, reasons = _price(instance, gap, strategy, order[None], fixed, prob)
    return TrialResult(strategy, gap, int(reveals[0]), reasons[0], _tree_nodes(gap, best))


def _hasher(init, mult):
    """SeedSequence's hashmix: xor the constant, step it, multiply, fold."""
    const = init

    def hashmix(value):
        nonlocal const
        value = value ^ np.uint32(const)
        const = const * mult & 0xFFFFFFFF
        value = value * np.uint32(const)
        return value ^ (value >> _XSHIFT)

    return hashmix


def _seed_words(seeds):
    """SeedSequence(s).generate_state(4, np.uint64) for each uint64 s, one row each.

    The entropy is s's low and high uint32 word, zero-padded to the pool of
    4 (so a seed below 2**32, one word, hashes the same); every pool word
    is mixed into every other, and the pool is hashed cyclically into 8
    output words, read in little-endian pairs.
    """
    hashmix = _hasher(_INIT_A, _MULT_A)
    zero = np.zeros(len(seeds), dtype=np.uint32)
    low, high = seeds & np.uint64(0xFFFFFFFF), seeds >> np.uint64(32)
    pool = [hashmix(w.astype(np.uint32)) for w in (low, high, zero, zero)]
    for src, dst in product(range(4), repeat=2):
        if src != dst:
            mixed = _MIX_MULT_L * pool[dst] - _MIX_MULT_R * hashmix(pool[src])
            pool[dst] = mixed ^ (mixed >> _XSHIFT)
    hashmix = _hasher(_INIT_B, _MULT_B)
    out = np.stack([hashmix(pool[i % 4]) for i in range(8)], axis=1).astype(np.uint64)
    return out[:, 0::2] | (out[:, 1::2] << np.uint64(32))


def _draw_orders(seed, start, stop, n):
    """Rows t - start of default_rng(seed ^ t).permutation(n) for t in start..stop-1.

    permutation(n) is shuffle(arange(n)), so each row is drawn by one reused
    generator shuffling one reused buffer reset from arange(n). Shuffling
    the narrower row in place draws the same order, but numpy swaps
    elements of any width but its index type's more slowly.
    """
    orders = np.empty((stop - start, n), dtype=np.min_scalar_type(n))
    bits = np.random.PCG64()
    shuffle = np.random.Generator(bits).shuffle
    pcg = {"state": 0, "inc": 0}
    state = {"bit_generator": "PCG64", "state": pcg, "has_uint32": 0, "uinteger": 0}
    identity, perm = np.arange(n), np.arange(n)
    words = _seed_words(np.arange(start, stop, dtype=np.uint64) ^ np.uint64(seed))
    for row, (s_hi, s_lo, i_hi, i_lo) in zip(orders, words.tolist()):
        # pcg64_set_seed: one step from 0, add the initial state, one more step
        inc = ((i_hi << 64 | i_lo) << 1 | 1) & _MASK128
        pcg["state"] = ((inc + (s_hi << 64 | s_lo)) * _PCG_MULT + inc) & _MASK128
        pcg["inc"] = inc
        bits.state = state
        perm[:] = identity
        shuffle(perm)
        row[:] = perm
    if not np.array_equal(orders[0], np.random.default_rng(seed ^ start).permutation(n)):
        raise RuntimeError("numpy's default_rng no longer seeds as this module derives it")
    return orders


def _chunk_sums(args):
    """Exact (total, SB) node sums, or the CapacityError raised, of trials
    start..stop-1 in every cell of the spec."""
    spec, start, stop, fixed, prob = args
    count = stop - start
    if set(spec.strategies) != {"full"}:
        orders = _draw_orders(spec.seed, start, stop, len(spec.instance.pool))
    sums = []
    for gap, strategy in product(spec.gaps, spec.strategies):
        try:
            if strategy == "full":
                # one trial prices the chunk; the benchmark wraps run_trial here
                r = run_trial(spec.instance, gap, strategy, None, fixed, prob)
                sums.append((r.total_nodes * count, r.sb_nodes * count))
            else:
                reveals, best, _ = _price(spec.instance, gap, strategy, orders, fixed, prob)
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

    Trial t always uses the rng stream seeded by seed xor t, a seed in
    [0, 2**64), so every strategy and gap sees the same permutation in
    trial t. With one worker a chunk holds every trial, and with more
    ceil(trials / (4 * workers)), which balances the load; either way
    fewer if the chunk's permutation block would pass _BLOCK_BYTES. A pool
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
    if workers == 1:
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
