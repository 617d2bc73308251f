"""Reliability strong branching inside a best-bound branch and bound.

Variable selection scans the unreliable fractional candidates in
descending pseudocost-predicted score (ties to the lower column index),
paying two child LPs per candidate, updating pseudocosts and the shared
gain sample as it goes. Every scan stop other than a cutoff or running
out of candidates comes from lookahead.should_continue: the
no-improvement streak cap, the simplex-iteration budget, or (dynamic
mode, once warmed up) the best gain closing the gap outright or the
expected-tree-size test. The solver holds no stop policy of its own; its
SbSession carries the node LP's iterations and unreliable share.
The branching choice is then the best score overall, measured
geometric-mean gains for scanned candidates against predicted ones for
reliable candidates. The scan hands back the chosen column's SbEval (None
for a choice from pseudocosts alone), whose bounds and kept child LPs
queue the two children.

Node selection is best bound so that node counts compare branching
quality rather than incumbent luck. Bounds that agree to a relative
1e-9 count as equal and go in queue order, so the rounding of the LP
engine does not decide which of two equal nodes comes first. An SB
child LP that proves infeasible doubles as a cutoff certificate: that
child is never queued.
The LP is one LpSystem per MIP, built once by solve; every node and SB
child LP is solved over it under its own column bounds. Every LP below
the root, SB child or queued node, starts warm from its parent node's
optimal basis over that system. A queued child of the branching column
whose SB child LP finished optimal within the per-candidate iteration
limit is not solved again: that LP result serves as the node's LP, since
the node solve would repeat the same pivots from the same basis.

An LP is therefore fixed by its node's path, the (column, side)
branchings from the root: the path sets the column bounds, the parent's
result the warm start, and the LP engine is deterministic. A SolveCache
keeps one MIP's LpSystem, up to CACHE_NODES node LP results by path and
SbEvals by path and column, so solves of the same MIP under other
configurations (a sweep's cells) reuse them: each gets the MipResult it
gets without the cache and solves only the LPs that no earlier solve
through the cache has solved.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ..distributions import GainAccumulator
from ..gains import shifted_geomean
from ..lookahead import (
    CANDIDATES_EXHAUSTED,
    FixedLookaheadConfig,
    ProbLookaheadConfig,
    SbSession,
    check_int,
    should_continue,
)
from .mip import MiniMip
from .simplex import (
    INFEASIBLE,
    ITERATION_LIMIT,
    OPTIMAL,
    UNBOUNDED,
    Basis,
    LpResult,
    LpSystem,
    SolverError,
    lp_system,
    solve_bounded_lp,
)

NODE_LIMIT = "node_limit"

# scan outcomes beyond the shared stopping vocabulary
CUTOFF_FOUND = "cutoff_found"
PSEUDOCOST_ONLY = "pseudocost"

# the side of a branching in a node's path
DOWN, UP = 0, 1

_PRUNE_TOL = 1e-9
# heap bounds within this relative distance (of max(1, |bound|)) of the
# minimum tie, so LP rounding noise cannot reorder nodes that are equal
# in exact arithmetic
_BOUND_TIE_TOL = 1e-9
# a column is integral within this distance of an integer
_INTEGRALITY_TOL = 1e-6
# simplex iterations per SB child LP before it reports ITERATION_LIMIT
_CHILD_ITERATION_LIMIT = 500
# unreliable candidates strong branched per node at most; a vertex has at
# most one fractional basic column per row, so no corpus node reaches it
MAX_SB_CANDIDATES = 100
# node LP results a SolveCache holds at most: about 6.3 KB each on a 20x12
# corpus instance (tracemalloc), so about 100 MB
CACHE_NODES = 16_000
_MODES = ("fixed", "dynamic")


class Pseudocost:
    """Per-variable running averages of per-unit dual gains.

    Gains enter divided by the fractional distance to the branching
    bound, the usual normalization that makes histories comparable
    across fractionalities. A variable counts as reliable once both
    directions have at least `threshold` recorded observations.
    """

    def __init__(self, n_cols: int, threshold: int = 2) -> None:
        if n_cols < 0:
            raise ValueError(f"n_cols must be >= 0, got {n_cols!r}")
        if threshold < 0:
            raise ValueError(f"threshold must be >= 0, got {threshold!r}")
        self.threshold = threshold
        self.down_sum = np.zeros(n_cols)
        self.down_count = np.zeros(n_cols, dtype=np.int64)
        self.up_sum = np.zeros(n_cols)
        self.up_count = np.zeros(n_cols, dtype=np.int64)

    def update(
        self,
        j: int,
        down_per_unit: float | None,
        up_per_unit: float | None,
    ) -> None:
        """Record per-unit gains; None skips a side (infeasible child)."""
        for value, sums, counts in (
            (down_per_unit, self.down_sum, self.down_count),
            (up_per_unit, self.up_sum, self.up_count),
        ):
            if value is None:
                continue
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(f"invalid per-unit gain {value!r}")
            sums[j] += value
            counts[j] += 1

    def reliable(self, j: int) -> bool:
        return min(self.down_count[j], self.up_count[j]) >= self.threshold

    def _mean(self, j: int, sums: np.ndarray, counts: np.ndarray) -> float:
        if counts[j] > 0:
            return float(sums[j] / counts[j])
        total = int(counts.sum())
        if total > 0:
            return float(sums.sum() / total)
        return 1.0

    def predicted_gains(self, j: int, frac: float) -> tuple[float, float]:
        """(down, up) gain estimates for branching at fractionality frac.

        A direction with no history for j falls back to the direction's
        average over all variables, and to a neutral 1.0 per unit before
        any observation exists at all.
        """
        down = self._mean(j, self.down_sum, self.down_count) * frac
        up = self._mean(j, self.up_sum, self.up_count) * (1.0 - frac)
        return down, up

    def predicted_score(self, j: int, frac: float) -> float:
        return _score(*self.predicted_gains(j, frac))


def _score(down: float, up: float) -> float:
    """shifted_geomean of a gain pair; SolverError past the float range."""
    try:
        return shifted_geomean(down, up)
    except ValueError as exc:
        raise SolverError(str(exc)) from None


@dataclass(frozen=True)
class SolverConfig:
    """Borrowed lookahead settings plus the solver's own knobs. SB gains
    collapse at gains.DEFAULT_EPSILON, the shift gain files are read with."""

    mode: str = "fixed"
    fixed: FixedLookaheadConfig = FixedLookaheadConfig()
    prob: ProbLookaheadConfig = ProbLookaheadConfig()
    reliability_threshold: int = 2
    node_limit: int = 1_000_000

    def __post_init__(self) -> None:
        if self.mode not in _MODES:
            raise ValueError(f"mode must be one of {_MODES}, got {self.mode!r}")
        if check_int("node_limit", self.node_limit) < 1:
            raise ValueError("node_limit must be >= 1")
        if check_int("reliability_threshold", self.reliability_threshold) < 0:
            raise ValueError("reliability_threshold must be >= 0")


class SbEval(NamedTuple):
    """One candidate's strong-branching measurement.

    children holds the (down, up) child LP results that can serve as
    node LPs, None for a side that is not optimal or reached the limit.
    """

    down_gain: float
    up_gain: float
    down_bound: float
    up_bound: float
    iterations: int
    children: tuple[LpResult | None, LpResult | None]


class ScanOutcome(NamedTuple):
    """select_branching_variable's answer plus its accounting.

    chosen is the chosen column's SbEval, None when pseudocosts alone
    chose the column.
    """

    column: int
    reason: str
    reveals: int
    sb_iterations: int
    chosen: SbEval | None = None

    @property
    def sb_lp_solves(self) -> int:
        return 2 * self.reveals


class BranchDecision(NamedTuple):
    """Trace row: what one node's scan did and chose."""

    node: int
    column: int
    reveals: int
    reason: str
    sb_iterations: int
    node_iterations: int


@dataclass(frozen=True)
class MipResult:
    status: str
    objective: float | None
    x: tuple | None
    bound: float
    nodes: int
    decisions: tuple[BranchDecision, ...]

    @property
    def sb_lp_solves(self) -> int:
        return sum(2 * d.reveals for d in self.decisions)

    @property
    def sb_iterations(self) -> int:
        return sum(d.sb_iterations for d in self.decisions)


class SolveCache:
    """LP results shared by the solves of one MiniMip.

    A node is known by its path, the (column, side) branchings from the
    root, side DOWN or UP. ids numbers the paths: it maps a queued node's
    (parent number, column, side) to its number, the root's being 0, so
    a path costs one entry however deep the tree. nodes maps a popped
    node's number to its LpResult, and evals maps a number to the SbEvals
    measured at that node by column, without their child LPs (a popped
    child is in nodes). So the cache grows with the explored nodes, not
    with the SB LPs, and only up to CACHE_NODES nodes: once nodes holds
    that many, no new path is numbered and no new node stored, and later
    solves solve such nodes' LPs themselves. Only completed LPs enter
    nodes and evals; an exception leaves no result behind.
    """

    def __init__(self, mip: MiniMip) -> None:
        self.mip = mip
        self.system = lp_system(mip.objective, mip.matrix, mip.senses, mip.rhs)
        self.ids: dict[tuple[int, int, int], int] = {}
        self.nodes: dict[int, LpResult] = {}
        self.evals: dict[int, dict[int, SbEval]] = {}


def _children(lo, hi, j: int, xj: float) -> tuple[tuple, tuple]:
    """The (side, lo, hi) bounds of the down and up child of branching
    x_j at the value xj: x_j <= floor(xj), then x_j >= ceil(xj). The
    bound a side keeps is the node's own array, which nothing mutates."""
    down_hi = np.array(hi, dtype=float)
    down_hi[j] = math.floor(xj)
    up_lo = np.array(lo, dtype=float)
    up_lo[j] = math.ceil(xj)
    return (DOWN, lo, down_hi), (UP, up_lo, hi)


def strong_branch_candidate(system: LpSystem, lo, hi, j: int, node: LpResult) -> SbEval:
    """Solve both child LPs for rounding x_j of the node's LP down and up.

    Gains are child-objective increases clamped at zero; an infeasible
    child reports an infinite gain, which doubles as a cutoff
    certificate for that side. A child stopped by the per-candidate
    iteration limit (_CHILD_ITERATION_LIMIT) still contributes its
    reached objective to the gain but certifies no bound beyond the
    node's own. node is the node's LpResult over system; its basis, when
    it has one, restarts both children from the node's vertex. A child
    that is optimal in fewer pivots than the limit hit no cap, so its
    result is the one a node solve would compute and is kept in children:
    its bounds are the ones solve queues the child with (_children).
    """
    xj, node_objective = float(node.x[j]), node.objective
    frac = xj - math.floor(xj)
    if min(frac, 1.0 - frac) <= 1e-9:
        raise ValueError(f"candidate {j} is integral at {xj!r}")
    gains, bounds, kept, iters = [], [], [], 0
    limit = _CHILD_ITERATION_LIMIT
    for _, lo2, hi2 in _children(lo, hi, j, xj):
        res = solve_bounded_lp(system, lo2, hi2, iteration_limit=limit, warm_start=node.basis)
        iters += res.iterations
        kept.append(res if res.status == OPTIMAL and res.iterations < limit else None)
        if res.status == INFEASIBLE:
            gains.append(math.inf)
            bounds.append(math.inf)
        elif res.status == OPTIMAL:
            gains.append(max(res.objective - node_objective, 0.0))
            bounds.append(max(res.objective, node_objective))
        elif res.status == ITERATION_LIMIT:
            gains.append(max(res.objective - node_objective, 0.0))
            bounds.append(node_objective)
        else:
            raise SolverError("child LP unbounded under a bounded parent")
    return SbEval(gains[0], gains[1], bounds[0], bounds[1], iters, tuple(kept))


def select_branching_variable(
    system: LpSystem, lo, hi, node: LpResult, candidates, pseudocost: Pseudocost,
    samples: GainAccumulator, config: SolverConfig, gap: float | None = None,
    known: dict[int, SbEval] | None = None,
) -> ScanOutcome:
    """Pick the branching column among the fractional candidates.

    Unreliable candidates are strong branched, at most MAX_SB_CANDIDATES,
    in descending predicted-score order; reliable ones are scored from
    pseudocosts alone. An infeasible SB child short-circuits the scan:
    branching there prunes a whole side immediately. The final choice is
    the highest score over both groups, ties to the lowest column index.

    gap is the objective distance this node's subtree is expected to
    close; a positive value arms the expected-tree-size stop in dynamic
    mode, None or nonpositive leaves only the hard caps. node is the node's
    optimal LpResult over system; its basis warm-starts every SB child.

    known holds SbEvals measured at this node before, by column; a
    candidate found there is not solved again, and each new measurement
    is added to it without its child LPs.
    """
    x = node.x
    if known is None:
        known = {}
    candidates = list(candidates)
    if not candidates:
        raise ValueError("no fractional candidates to select from")
    fracs = {j: float(x[j]) - math.floor(float(x[j])) for j in candidates}
    scores = {
        j: pseudocost.predicted_score(j, fracs[j]) for j in candidates
    }
    # only unreliable columns are evaluated, and only evaluated columns
    # change their counts, so the reliable set is final before the scan
    final = {j: scores[j] for j in candidates if pseudocost.reliable(j)}
    unreliable = [j for j in candidates if j not in final]

    order = sorted(unreliable, key=lambda j: (-scores[j], j))[:MAX_SB_CANDIDATES]
    armed = config.mode == "dynamic" and gap is not None and gap > 0.0
    prob = config.prob if armed else None
    session = SbSession(
        gap=gap if armed else None, node_cost=float(node.iterations),
        uninit_fraction=len(unreliable) / len(candidates), samples=samples,
    )

    evaluated: dict[int, SbEval] = {}
    reason = CANDIDATES_EXHAUSTED if unreliable else PSEUDOCOST_ONLY
    best = None
    for j in order:
        ev = known.get(j)
        if ev is None:
            ev = strong_branch_candidate(system, lo, hi, j, node)
            known[j] = ev._replace(children=(None, None))
        evaluated[j] = ev
        down = None if math.isinf(ev.down_gain) else ev.down_gain / fracs[j]
        up = None if math.isinf(ev.up_gain) else ev.up_gain / (1.0 - fracs[j])
        if math.inf in (down, up):
            raise SolverError(f"per-unit gain of column {j} overflows")
        if down is not None or up is not None:
            pseudocost.update(j, down, up)
        if down is None or up is None:
            best, reason = j, CUTOFF_FOUND
            break
        g = _score(ev.down_gain, ev.up_gain)
        final[j] = g
        session.observe(g, cost=float(ev.iterations))
        dist = None
        if prob is not None and samples.n_nonzero >= prob.min_nonzero_samples:
            dist = samples.fit(prob.family)
        decision = should_continue(session, config.fixed, prob, dist)
        if decision.stop:
            reason = decision.reason
            break

    sb_iterations = sum(ev.iterations for ev in evaluated.values())
    if best is None:
        best = min(final, key=lambda j: (-final[j], j))
    return ScanOutcome(best, reason, len(evaluated), sb_iterations, evaluated.get(best))


def _pop_best(heap: list) -> tuple:
    """Pop the lowest-bound entry; among the entries whose bounds tie with
    the minimum (within _BOUND_TIE_TOL), the one queued first."""
    best = heapq.heappop(heap)
    if not math.isfinite(best[0]):
        return best
    limit = best[0] + _BOUND_TIE_TOL * max(1.0, abs(best[0]))
    tied = [best]
    while heap and heap[0][0] <= limit:
        tied.append(heapq.heappop(heap))
    first = min(tied, key=lambda entry: entry[1])
    for entry in tied:
        if entry is not first:
            heapq.heappush(heap, entry)
    return first


def solve(
    mip: MiniMip, config: SolverConfig = SolverConfig(), cache: SolveCache | None = None,
) -> MipResult:
    """Best-bound branch and bound over a MiniMip.

    Returns the proven optimum (status optimal), a proven-empty verdict
    (infeasible), unbounded when the root relaxation already is, or
    node_limit with the best bound found when the cap bites. Node count
    is the number of LP-solved nodes; SB accounting is kept separate.

    The gap handed to the probabilistic rule is the distance from the
    node objective to a target bound: the incumbent once one exists, and
    before that a best-projection estimate seeded at the first branched
    node (its objective plus the sum, over its fractional candidates, of
    the geometric mean of each one's predicted side gains).

    cache, a SolveCache of this very mip (ValueError otherwise), serves
    the node LPs and SB measurements it holds and keeps the new ones.
    """
    if cache is None:
        system = lp_system(mip.objective, mip.matrix, mip.senses, mip.rhs)
    elif cache.mip is not mip:
        raise ValueError("the SolveCache belongs to another MiniMip")
    else:
        system = cache.system
    lo0, hi0 = np.array(mip.lower, dtype=float), np.array(mip.upper, dtype=float)
    int_cols = np.flatnonzero(mip.integer)
    pseudocost = Pseudocost(mip.n_cols, config.reliability_threshold)
    samples = GainAccumulator()

    incumbent_obj: float | None = None
    incumbent_x: np.ndarray | None = None
    estimate: float | None = None
    # entries carry the parent's optimal basis (the root starts cold), the
    # node's path number in the cache (None without one) and the node's
    # own LP result when its SB child LP already is one
    heap: list[
        tuple[float, int, np.ndarray, np.ndarray, Basis | None, int | None, LpResult | None]
    ] = [(-math.inf, 0, lo0, hi0, None, None if cache is None else 0, None)]
    seq = 0
    nodes = 0
    decisions: list[BranchDecision] = []
    status: str | None = None

    while heap:
        if nodes >= config.node_limit:
            status = NODE_LIMIT
            break
        if incumbent_obj is not None and heap[0][0] >= incumbent_obj - _PRUNE_TOL:
            # best-bound order: every remaining node is at least as bad
            heap.clear()
            break
        parent_bound, _, lo, hi, warm_start, node_id, res = _pop_best(heap)
        if incumbent_obj is not None and parent_bound >= incumbent_obj - _PRUNE_TOL:
            # a tie with the minimum bound can sit at the cutoff
            continue
        if res is None and node_id is not None:
            res = cache.nodes.get(node_id)
        if res is None:
            res = solve_bounded_lp(system, lo, hi, warm_start=warm_start)
        if node_id is not None and len(cache.nodes) < CACHE_NODES:
            cache.nodes[node_id] = res
        nodes += 1
        if res.status == INFEASIBLE:
            continue
        if res.status == UNBOUNDED:
            if nodes == 1:
                status = UNBOUNDED
                break
            raise SolverError("child LP unbounded under a bounded root")
        obj, x = res.objective, res.x
        if incumbent_obj is not None and obj >= incumbent_obj - _PRUNE_TOL:
            continue
        xi = x[int_cols]
        fractional = int_cols[
            np.minimum(xi - np.floor(xi), np.ceil(xi) - xi) > _INTEGRALITY_TOL
        ].tolist()
        if not fractional:
            incumbent_obj = obj
            snapped = x.copy()
            for j in int_cols:
                snapped[j] = round(snapped[j])
            incumbent_x = snapped
            continue
        targets = [t for t in (incumbent_obj, estimate) if t is not None]
        gap = min(targets) - obj if targets else None
        known = cache.evals.setdefault(node_id, {}) if node_id is not None else None
        outcome = select_branching_variable(
            system, lo, hi, res, fractional, pseudocost, samples, config, gap, known
        )
        if estimate is None:
            # First branched node seeds the bound-to-prove estimate: one
            # geometric-mean side gain per fractional candidate, the
            # projection that every one of them still has to move.
            total = 0.0
            for j in fractional:
                down, up = pseudocost.predicted_gains(
                    j, float(x[j]) - math.floor(float(x[j]))
                )
                total += math.sqrt(down * up)
            estimate = obj + total
            if not math.isfinite(estimate):
                raise SolverError(f"bound-to-prove estimate overflows: {estimate!r}")
        decisions.append(
            BranchDecision(
                nodes, outcome.column, outcome.reveals, outcome.reason,
                outcome.sb_iterations, res.iterations,
            )
        )
        j = outcome.column
        # a column chosen from pseudocosts alone bounds both sides at obj
        ev = outcome.chosen or SbEval(0.0, 0.0, obj, obj, 0, (None, None))
        for (side, lo2, hi2), child_bound, child in zip(
            _children(lo, hi, j, float(x[j])), (ev.down_bound, ev.up_bound), ev.children
        ):
            # an infeasible side (an SB child's cutoff) queues nothing
            if math.isinf(child_bound):
                continue
            if incumbent_obj is not None and child_bound >= incumbent_obj - _PRUNE_TOL:
                continue
            seq += 1
            # a child of an unnumbered node, or a new path in a full cache, has no number
            key, child_id = (node_id, j, side), None
            if node_id is not None and (key in cache.ids or len(cache.nodes) < CACHE_NODES):
                child_id = cache.ids.setdefault(key, len(cache.ids) + 1)
            heapq.heappush(heap, (child_bound, seq, lo2, hi2, res.basis, child_id, child))

    if status is None:
        status = OPTIMAL if incumbent_obj is not None else INFEASIBLE

    if status == OPTIMAL:
        bound = incumbent_obj
    elif status == INFEASIBLE:
        bound = math.inf
    elif status == UNBOUNDED:
        bound = -math.inf
    else:
        open_bounds = [entry[0] for entry in heap]
        if incumbent_obj is not None:
            open_bounds.append(incumbent_obj)
        bound = min(open_bounds) if open_bounds else math.inf

    return MipResult(
        status=status,
        objective=incumbent_obj,
        x=tuple(float(v) for v in incumbent_x) if incumbent_x is not None else None,
        bound=float(bound),
        nodes=nodes,
        decisions=tuple(decisions),
    )
