"""Bounded-variable primal and dual simplex for small dense LPs.

Rows become equalities with one ranged slack each (the slack's bounds
encode the sense), so the core works on M z = b with box bounds per
column. Phase 1 installs signed artificial columns only on rows whose
slack cannot absorb the initial residual and minimizes their sum; phase 2
fixes the artificials to zero and optimizes the real objective from the
phase-1 basis. Pricing is Dantzig until the objective stalls, then
Bland's rule for guaranteed termination.

An LP's objective and rows are one LpSystem, converted and checked once
by lp_system; each solve over it checks only its column bounds.

The engine works on a dense tableau: B^-1 M over every column, stacked
over the reduced costs, plus the basic values. Since the slack columns
of M are the identity, the slack block of the tableau is B^-1; the dual
simplex forms its pivot row from it afresh, because exact zeros in B^-1
keep exact ties between columns that a carried row would break by
rounding. The tableau is rebuilt from M with one linear solve when the
pivot element is below _REFACTOR_PIVOT_TOL or after _REFACTOR_INTERVAL
updates. A singular basis, an exhausted safety cap or an overflow in the
arithmetic raises SolverError instead of returning a silently wrong answer.

At the sizes the solver meets (12 rows, 32 columns with the slacks),
numpy's call overhead of about 1 us, not arithmetic, sets the cost of
a pivot. So numpy keeps the work that is O(rows x columns) and the
reductions: the pivot row, the outer-product update of the whole stack,
the refactor, the refined optimum and the rows' slacks. The scans run
on Python floats, one list per vector: the dual's search for the most
violated row and its ratio test over the columns, the basic values and
bounds, the nonbasic values, and the final check of the slacks against
their bounds. These scans use only
elementwise arithmetic, comparisons and first-maximum selection, which
give the same doubles and the same ties in Python as in numpy, so every
pivot is the one numpy's argmax and min would choose; a NaN counts as
the largest violation and as the minimum step bound, as it does there.
No tolerance test lets a NaN through: a NaN violation that no column
can fix restarts cold rather than proving infeasibility, and a NaN row
fails the final 1e-6 check. A Python scan costs O(columns) interpreted
steps: the ratio test alone takes 8 us in Python against 16 us in numpy
at 32 columns, breaks even near 64 and is 6x slower at 512 (2-core Xeon
at 2.1 GHz, numpy 2.4), so a model much wider than the solver's corpus
would want the numpy scans back.

A solve may instead start warm from the optimal basis of a parent LP
over the same LpSystem that differs only in its column bounds; a basis
over another system is refused. The basis carries the stacked tableau
its solve finished with, which each child copies, its values and update
count. What every child of one parent needs besides is derived once, on
the first child, from the parent's own arrays (Basis.start): as lists
the parent's nonbasic and basic values and each column's direction,
plus one finiteness test. A child starts warm only from the parent's
vertex: the solver branches on fractional columns, which are basic in
the parent, so a child's bounds leave every nonbasic value where it was
and the child takes the parent's basic values as they are. The child's
basis stays dual feasible, so a bounded dual simplex restores primal
feasibility (or proves the child infeasible when a dual ratio test finds
no entering column) and ends with the primal loop's first optimality
test, run on Python floats; it normally holds from the carried reduced
costs, and the primal loop runs only when it does not. Any other start solves cold with the two-phase
method: a child whose bounds move a nonbasic value, a parent with a free
column or a value, tableau entry or reduced cost that is not finite. So
does a warm start that fails on the way (a singular refactor, a dual
phase that reaches the iteration cap, or a violation too small to
certify infeasibility, or NaN, that no column can fix), and the pivots
of both attempts are counted.

Replaying the 5,640 LPs of one pass of the solve-sb benchmark workload
with each phase timed (2-core Xeon at 2.1 GHz, Python 3.11, numpy 2.4),
a warm LP spends about a third of its time outside the dual loop: in
the child's start, the optimality test, the refined optimum and the
argument and row checks. The dual loop takes the rest, at about 3.5
pivots per LP.
"""

from __future__ import annotations

import math
from bisect import insort
from dataclasses import dataclass
from functools import cached_property
from itertools import compress, count
from operator import ge, itemgetter, le, mul
from typing import NamedTuple

import numpy as np

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"
ITERATION_LIMIT = "iteration_limit"

_COST_TOL = 1e-9
_FEAS_TOL = 1e-9
_PHASE1_TOL = 1e-7
_PIVOT_TOL = 1e-10
_STALL_LIMIT = 60
_REFACTOR_PIVOT_TOL = 1e-7
_REFACTOR_INTERVAL = 20

_BASIC, _AT_LOWER, _AT_UPPER, _FREE = 0, 1, 2, 3
# by state: the way a nonbasic column may move, +1 up from its lower
# bound and -1 down from its upper; 0 for basic and free columns
_DIRECTION = np.array([0.0, 1.0, -1.0, 0.0])


class SolverError(RuntimeError):
    """Numerical failure: singular basis, lost feasibility, or a blown cap."""


@dataclass(frozen=True, eq=False)
class LpSystem:
    """min objective @ x s.t. matrix x (senses) rhs as checked float
    arrays, plus M = [matrix | I] with one ranged slack per row, the costs
    c over M's columns, and the slacks' bounds as lists of floats. Built
    once per constraint set by lp_system; a system equals only itself."""

    objective: np.ndarray
    matrix: np.ndarray
    rhs: np.ndarray
    M: np.ndarray
    c: np.ndarray
    slack_lo: list
    slack_hi: list


class _ChildStart(NamedTuple):
    """What every warm child of one basis starts from (Basis.start).

    pick maps a child's bound list lo + hi + [0.0] to its nonbasic values:
    the upper bound at _AT_UPPER, 0 at a basic column, else the lower
    bound. nonbasic holds the basis's values with 0 at the basic columns
    and basic the basic values row by row, both as lists. side is every
    column's direction, _DIRECTION[state], as a list and movers the
    columns where it is not 0. free tells whether a column is free, and
    finite whether the values and the basis's stack are all finite.
    """

    pick: object
    nonbasic: list
    basic: list
    side: list
    movers: list
    free: bool
    finite: bool


def _gather(index):
    """A function of a list that returns its items at index, as a tuple
    (itemgetter returns a single item bare and takes no empty index)."""
    if len(index) > 1:
        return itemgetter(*index)
    return lambda items: tuple(map(items.__getitem__, index))


class _BasisArrays(NamedTuple):
    """Basis's fields; a subclass of a NamedTuple has an instance dict,
    where Basis caches its start."""

    system: LpSystem
    columns: np.ndarray
    state: np.ndarray
    stack: np.ndarray
    values: np.ndarray
    updates: int


class Basis(_BasisArrays):
    """An optimal basis over an extended system, for warm starts.

    columns holds the basic column of each row and state the status of
    every structural and slack column (basic, at lower, at upper, free).
    stack is the tableau its solve finished with: B^-1 M for
    B = M[:, columns], reached by updates pivots since it was last rebuilt
    from M, over one last row of reduced costs c - c_B B^-1 M for the
    system's costs. values holds every column's value at the optimum.
    None of the arrays is ever mutated; each child copies stack.

    start is what every child started from this basis shares: the lists
    of _ChildStart, derived once, on the first child, from this basis's
    own arrays. A basis made by _replace starts with none and derives its
    own.
    """

    @property
    def inverse(self) -> np.ndarray:
        """B^-1, the tableau's slack block (the slacks' columns of M are I)."""
        # counted from the left: with no rows, [:, -0:] would be every column
        return self.stack[:-1, self.stack.shape[1] - len(self.columns):]

    @cached_property
    def start(self) -> _ChildStart:
        states = self.state.tolist()
        width = len(states)
        nonbasic = self.values.tolist()
        finite = all(map(math.isfinite, nonbasic)) and bool(np.isfinite(self.stack).all())
        basic = []
        for k in self.columns.tolist():
            basic.append(nonbasic[k])
            nonbasic[k] = 0.0
        side = _DIRECTION[self.state].tolist()
        return _ChildStart(
            _gather([
                2 * width if s == _BASIC else width + j if s == _AT_UPPER else j
                for j, s in enumerate(states)
            ]),
            nonbasic,
            basic,
            side,
            list(compress(count(), side)),
            _FREE in states,
            finite,
        )


@dataclass
class LpResult:
    status: str
    x: np.ndarray | None
    objective: float | None
    iterations: int
    basis: Basis | None = None


class _ColdRestart(Exception):
    """The warm start cannot be used; solve from scratch instead."""


def _cold_start(lo: float, hi: float) -> tuple[float, int]:
    """A column's value and state at the cold start."""
    if math.isfinite(lo):
        return lo, _AT_LOWER
    if math.isfinite(hi):
        return hi, _AT_UPPER
    return 0.0, _FREE


def _leaving_row(xb, lb, ub) -> tuple[int, float]:
    """The dual's leaving row and its violation max(lb - x, x - ub): the
    most violated row, the first on ties, and the first NaN violation
    before any number, as numpy's argmax takes them."""
    r, worst = 0, -math.inf
    for i, x, lo, hi in zip(count(), xb, lb, ub):
        below = lo - x
        above = x - hi
        if above > below:
            v = above
        elif below >= above:
            v = below
        else:
            return i, math.nan
        if v > worst:
            r, worst = i, v
    return r, worst


def _entering_column(movers, side, g, d) -> int | None:
    """The dual's entering column by the Harris two-pass ratio test, or
    None when no column qualifies.

    movers lists, in increasing order, the columns j whose side_j, the
    way they may move, is +1 or -1 (it is 0 for basic and fixed columns).
    Column j qualifies when side_j * g_j > _PIVOT_TOL. Its dual step is
    max(d_j / g_j, 0); the column entering is the one with the largest
    |g_j| among steps within the smallest step relaxed by _COST_TOL /
    |g_j|, the first on ties. A NaN relaxed step makes the bound NaN, so
    no step is within it and the first candidate enters, as with numpy's
    min and argmax.
    """
    cand = []
    bound = math.inf
    for j in movers:
        gj = g[j]
        size = side[j] * gj  # |g_j| for a candidate
        if size > _PIVOT_TOL:
            step = d[j] / gj
            if step < 0.0:
                step = 0.0
            key = step + _COST_TOL / size
            if key < bound or key != key:
                bound = key
            cand.append((j, step, size))
    if not cand:
        return None
    q, best = cand[0][0], -1.0
    for j, step, size in cand:
        if step <= bound and size > best:
            q, best = j, size
    return q


class _Tableau:
    """Mutable simplex state over the extended column system.

    T stacks the dense tableau B^-1 M for B = M[:, basis], one row per
    basic column, over the reduced costs d = c - c_B B^-1 M of the cost
    vector c, so one row operation carries both across a pivot; d is a
    view of T's last row. xb holds the basic values row by row and lb/ub
    their bounds, lo/hi the bounds of every column and z the value of
    every nonbasic column and 0 at the basic ones, all as Python lists.
    certified is set once the dual has found the basis optimal.
    updates counts the pivots applied to T since it was last rebuilt
    from M.
    """

    def __init__(self, M, b, lo, hi, basis, state, z, xb, c, T=None, updates=0):
        self.M = M
        self.b = b
        self.basis = basis
        self.state = state
        self.z = z
        self.xb = xb
        self.lo = lo
        self.hi = hi
        rows = basis.tolist()
        self.lb = list(map(lo.__getitem__, rows))
        self.ub = list(map(hi.__getitem__, rows))
        self.c = c
        self.iterations = 0
        self.updates = updates
        self.certified = False
        if T is None:
            T = np.empty((len(basis) + 1, M.shape[1]))
            T[:-1] = np.linalg.solve(M[:, basis], M)
            T[-1] = c - c[basis] @ T[:-1]
        self.T = T
        self.d = T[-1]

    def price(self, c):
        """Make c the cost vector, with its reduced costs computed afresh."""
        self.c = c
        self.d[:] = c - c[self.basis].dot(self.T[:-1])

    def refactor(self):
        """Rebuild T and xb from M; raises LinAlgError if B is singular."""
        rest = self.b - self.M.dot(np.array(self.z))
        solved = np.linalg.solve(
            self.M[:, self.basis], np.concatenate((self.M, rest[:, None]), axis=1)
        )
        self.T[:-1] = solved[:, :-1]
        self.xb = solved[:, -1].tolist()
        self.price(self.c)
        self.updates = 0

    def values(self) -> np.ndarray:
        """Every column's value."""
        z = np.array(self.z)
        z[self.basis] = self.xb
        return z

    def pivot(self, r, q, step, leave_state, row=None):
        """Move column q by step from its nonbasic value and make it basic
        in row r; the leaving column rests at the bound leave_state names.
        row is row r of the tableau when the caller has it afresh.

        One row operation carries T (and with it d) over the basis change,
        and xb moves along column q, unless the pivot element is below
        _REFACTOR_PIVOT_TOL or enough updates have accumulated; then T, d
        and xb are rebuilt from M (LinAlgError if singular).
        """
        T, z, basis = self.T, self.z, self.basis
        col = T[:, q].copy()
        out = basis[r]
        self.xb = [x - step * w for x, w in zip(self.xb, col.tolist())]
        self.xb[r] = z[q] + step
        z[q] = 0.0
        z[out] = self.lo[out] if leave_state == _AT_LOWER else self.hi[out]
        self.state[out] = leave_state
        self.state[q] = _BASIC
        basis[r] = q
        self.lb[r] = self.lo[q]
        self.ub[r] = self.hi[q]
        if row is None:
            row = T[r]
        pivot = row[q]
        if self.updates >= _REFACTOR_INTERVAL or abs(pivot) < _REFACTOR_PIVOT_TOL:
            self.refactor()
            return
        np.divide(row, pivot, out=T[r])
        col[r] = 0.0
        T -= col[:, None] * T[r]
        self.updates += 1

    def run(self, cap, bland=False):
        """Optimize c @ z in place; returns OPTIMAL/UNBOUNDED/ITERATION_LIMIT."""
        lo, hi, state, z = self.lo, self.hi, self.state, self.z
        # the objective's rate of change along each column's allowed move
        # is direction * d; a free column may move either way
        direction = _DIRECTION[state]
        (free,) = (state == _FREE).nonzero()
        stall = 0
        while True:
            if self.iterations >= cap:
                return ITERATION_LIMIT
            d = self.d
            slope = direction * d
            if free.size:
                slope[free] = -np.abs(d[free])
            # Bland's scan also serves a system with no column, where argmin has none
            if bland or not slope.size:
                (eligible,) = (slope < -_COST_TOL).nonzero()
                if not eligible.size:
                    return OPTIMAL
                j = int(eligible[0])
            else:
                j = int(slope.argmin())
                if slope[j] >= -_COST_TOL:
                    return OPTIMAL
            sigma = 1.0 if d[j] < 0.0 else -1.0
            rate = -float(slope[j])

            # basics move as xb - t*sigma*T[:, j]; find the blocking bound:
            # the smallest step within 1e-12, ties to the lowest basic column
            sw = sigma * self.T[:-1, j]
            bound = np.where(sw > 0.0, self.lb, self.ub)
            (rows,) = ((np.abs(sw) > _PIVOT_TOL) & np.isfinite(bound)).nonzero()
            t_best = math.inf
            if rows.size:
                steps = (np.take(self.xb, rows) - bound[rows]) / sw[rows]
                steps[steps < -_FEAS_TOL] = 0.0
                # <= keeps the minimum itself when 1e-12 is below its ulp
                (near,) = (steps <= steps.min() + 1e-12).nonzero()
                k = near[np.argmin(self.basis[rows[near]])]
                leave, t_best = int(rows[k]), float(steps[k])
            flip = hi[j] - lo[j]  # +inf unless both bounds are finite
            if t_best == math.inf and not math.isfinite(flip):
                return UNBOUNDED
            self.iterations += 1
            if math.isfinite(flip) and flip <= t_best:
                # entering variable runs to its other bound; basis unchanged
                t = flip
                self.xb = [x - flip * w for x, w in zip(self.xb, sw.tolist())]
                z[j] = hi[j] if sigma > 0 else lo[j]
                state[j] = _AT_UPPER if sigma > 0 else _AT_LOWER
                direction[j] = -sigma
            else:
                t = max(t_best, 0.0)
                out = self.basis[leave]
                to_lower = bool(sw[leave] > 0.0)
                try:
                    self.pivot(leave, j, sigma * t, _AT_LOWER if to_lower else _AT_UPPER)
                except np.linalg.LinAlgError as exc:
                    raise SolverError("singular working basis") from exc
                direction[j] = 0.0
                direction[out] = 1.0 if to_lower else -1.0
                if free.size:
                    free = free[free != j]
            # the step lowers the objective by rate * t
            if rate * t > 1e-12:
                stall = 0
            else:
                stall += 1
                if stall >= _STALL_LIMIT:
                    bland = True

    def dual(self, cap, side, movers):
        """Bounded dual simplex until the basis is primal feasible.

        side is the list of every column's direction, _DIRECTION[state],
        and movers the columns where it is not 0, in increasing order; the
        dual changes both.

        Returns True once every basic value is within its bounds, and sets
        certified when run(cap) would return OPTIMAL at once, so the
        caller runs the primal loop only when it is not; returns False
        when the most violated row has no entering column, which proves
        the LP infeasible. Raises _ColdRestart on a singular refactor, on
        reaching cap, or when a violation too small to certify
        infeasibility, or a NaN one, is stuck.
        """
        lo, hi, state, basis = self.lo, self.hi, self.state, self.basis
        lb, ub = self.lb, self.ub
        # a fixed column cannot move, so it never enters; bounds are never
        # NaN, so l >= h is not l < h
        fixed = list(compress(count(), map(ge, lo, hi)))
        for j in fixed:
            if side[j]:
                side[j] = 0.0
                movers.remove(j)
        m = len(lb)
        while True:
            r, worst = _leaving_row(self.xb, lb, ub)
            if worst <= _FEAS_TOL:
                # park each fixed nonbasic column on the side its reduced
                # cost calls for, so the primal run need not flip it
                d = self.d.tolist()
                for j in fixed:
                    if state[j] != _BASIC:
                        state[j] = _AT_UPPER if d[j] < 0.0 else _AT_LOWER
                # run(cap)'s first test on Python floats: every slope,
                # direction * d, at least -_COST_TOL and none NaN. side is
                # each column's direction (no column of a warm start is
                # free), but 0 at a parked fixed column, whose slope |d_j|
                # cannot fail the test. If every d_j is finite (their sum
                # is), no slope is NaN and the smallest decides, as run's
                # argmin does; otherwise run decides
                self.certified = (
                    self.iterations < cap
                    and math.isfinite(sum(d))
                    and min(map(mul, side, d), default=0.0) >= -_COST_TOL
                )
                return True
            if self.iterations >= cap:
                raise _ColdRestart
            x = self.xb[r]
            to_lower = lb[r] - x > x - ub[r]
            # row r afresh from its slack block, B^-1[r]: a carried row
            # breaks ties between columns that B^-1's exact zeros keep exact;
            # ndarray.dot forms the same BLAS product as @, with less dispatch
            row = self.T[r, -m:].dot(self.M)
            # g_j > 0: raising x_j moves the leaving variable toward its bound
            g = (-row if to_lower else row).tolist()
            q = _entering_column(movers, side, g, self.d.tolist())
            if q is None:
                # NaN is never small enough to blame on tolerances
                if not worst > _PHASE1_TOL:
                    raise _ColdRestart
                return False
            self.iterations += 1
            out = int(basis[r])
            # q moves until the leaving column reaches the bound it violates
            theta = (x - (lo[out] if to_lower else hi[out])) / (-g[q] if to_lower else g[q])
            side[q] = 0.0
            movers.remove(q)
            if lo[out] < hi[out]:
                side[out] = 1.0 if to_lower else -1.0
                insort(movers, out)
            try:
                self.pivot(r, q, theta, _AT_LOWER if to_lower else _AT_UPPER, row)
            except np.linalg.LinAlgError:
                raise _ColdRestart from None

    def warm_basis(self, system: LpSystem) -> Basis:
        """This optimal basis over the columns of system; the tableau is
        not used afterwards, so the basis takes its arrays over.

        A basic artificial is pinned at zero and parallel to its row's
        slack, which a nonsingular basis therefore keeps nonbasic; the
        slack takes its place without changing the reduced costs. The
        artificial is s*e_row and the slack e_row for a sign s, so the
        swap multiplies the matching tableau row by s. The basic values
        are then computed afresh from B^-1 and refined once against the
        row residual, so the rounding of the row updates does not reach
        the optimum.
        """
        width = system.M.shape[1]
        columns, state, T, z = self.basis, self.state, self.T, self.z
        if len(z) > width:
            z = z[:width]
            state, T = state[:width].copy(), T[:, :width].copy()
            for i in np.flatnonzero(columns >= width):
                k = columns[i]
                row = int(np.flatnonzero(self.M[:, k])[0])
                T[i] *= self.M[row, k]
                columns[i] = width - len(columns) + row
                state[columns[i]] = _BASIC
        # z is 0 at the basic columns
        values = np.array(z)
        basis = Basis(system, columns, state, T, values, self.updates)
        # B xb = b - N z_N, solved with B^-1 and refined once
        inverse = basis.inverse
        rest = self.b - system.M.dot(values)
        xb = inverse @ rest
        # M.T.take(...).T is M[:, columns] in the same memory order, so
        # the product rounds alike, and take gathers in a third the time
        xb += inverse @ (rest - system.M.T.take(columns, axis=0).T @ xb)
        values[columns] = xb
        return basis


def lp_system(objective, matrix, senses, rhs) -> LpSystem:
    """The LpSystem of min objective @ x s.t. matrix x (senses) rhs; raises
    ValueError for a non-finite entry, an unknown sense, or a matrix or rhs
    whose size does not match the objective and the senses."""
    objective = np.asarray(objective, dtype=float)
    m = len(senses)
    matrix = np.asarray(matrix, dtype=float).reshape(m, len(objective))
    rhs = np.asarray(rhs, dtype=float).reshape(m)
    if not np.isfinite(objective).all():
        raise ValueError("objective must be finite")
    if not np.isfinite(matrix).all():
        raise ValueError("matrix must be finite")
    if not all(map(math.isfinite, rhs.tolist())):
        raise ValueError("rhs must be finite")
    slack_lo = [0.0] * m
    slack_hi = [0.0] * m
    for i, sense in enumerate(senses):
        if sense == "<=":
            slack_hi[i] = math.inf
        elif sense == ">=":
            slack_lo[i] = -math.inf
        elif sense != "=":
            raise ValueError(f"unknown row sense {sense!r}")
    M = np.hstack([matrix, np.eye(m)])
    c = np.concatenate([objective, np.zeros(m)])
    return LpSystem(objective, matrix, rhs, M, c, slack_lo, slack_hi)


def _warm_tableau(warm: Basis, lo, hi) -> _Tableau:
    """A tableau on warm's basis at the parent's vertex, for a child whose
    nonbasic values are the parent's. Raises _ColdRestart when a nonbasic
    value moves, when the parent has a free column, and when a value, a
    tableau entry or a reduced cost of the parent is not finite."""
    start = warm.start
    bounds = lo + hi
    bounds.append(0.0)
    z = list(start.pick(bounds))
    if start.free or not start.finite or z != start.nonbasic:
        raise _ColdRestart
    system = warm.system
    return _Tableau(
        system.M, system.rhs, lo, hi, warm.columns.copy(), warm.state.copy(), z,
        start.basic.copy(), system.c, warm.stack.copy(), warm.updates,
    )


def _cold_tableau(system: LpSystem, lo, hi, cap) -> tuple[_Tableau, bool]:
    """Phase 1 from the slack basis; returns the tableau, priced for the
    system's costs, and whether the LP is feasible. On success the
    artificials are pinned at zero."""
    M, c, rhs = system.M, system.c, system.rhs
    m = M.shape[0]
    n = M.shape[1] - m
    starts = list(map(_cold_start, lo, hi))
    z = [value for value, _ in starts]
    zn = np.array(z[:n])
    state = np.array([state for _, state in starts], dtype=np.int8)

    # seat the slacks; rows whose slack cannot hold the residual get a
    # signed artificial column instead
    basis = np.empty(m, dtype=np.int64)
    xb = np.empty(m)
    art_cols = []
    for i in range(m):
        target = rhs[i] - M[i, :n] @ zn
        s = n + i
        if lo[s] - _FEAS_TOL <= target <= hi[s] + _FEAS_TOL:
            xb[i] = min(max(target, lo[s]), hi[s])
            z[s] = 0.0
            state[s] = _BASIC
            basis[i] = s
        else:
            z[s] = lo[s] if target < lo[s] else hi[s]
            state[s] = _AT_LOWER if target < lo[s] else _AT_UPPER
            resid = target - z[s]
            col = np.zeros(m)
            col[i] = math.copysign(1.0, resid)
            art_cols.append(col)
            xb[i] = abs(resid)
            basis[i] = n + m + len(art_cols) - 1
    n_art = len(art_cols)
    xb = xb.tolist()
    if not n_art:
        return _Tableau(M, rhs, lo, hi, basis, state, z, xb, c), True

    M = np.hstack([M, np.column_stack(art_cols)])
    lo = lo + [0.0] * n_art
    hi = hi + [math.inf] * n_art
    z = z + [0.0] * n_art
    state = np.concatenate([state, np.full(n_art, _BASIC, dtype=np.int8)])
    c1 = np.zeros(n + m + n_art)
    c1[n + m :] = 1.0
    tab = _Tableau(M, rhs, lo, hi, basis, state, z, xb, c1)
    status = tab.run(cap)
    if status == ITERATION_LIMIT:
        raise SolverError("iteration cap exhausted before certifying feasibility")
    if status == UNBOUNDED:
        raise SolverError("phase 1 reported unbounded; artificial costs are >= 0")
    if float(c1 @ tab.values()) > _PHASE1_TOL:
        return tab, False
    # artificials are pinned at zero for the real objective
    tab.lo[n + m :] = tab.hi[n + m :] = [0.0] * n_art
    tab.lb = [tab.lo[k] for k in tab.basis.tolist()]
    tab.ub = [tab.hi[k] for k in tab.basis.tolist()]
    tab.price(np.concatenate([c, np.zeros(n_art)]))
    return tab, True


def solve_bounded_lp(
    system: LpSystem, lower, upper, iteration_limit: int | None = None,
    warm_start: Basis | None = None,
) -> LpResult:
    """Minimize system's objective @ x subject to its rows and lower <= x <= upper.

    iteration_limit caps total simplex iterations across both phases; when
    it bites after feasibility is established, the result carries the best
    feasible objective so far with status iteration_limit. Running out
    during phase 1 is a SolverError since nothing is certified yet.

    warm_start is the basis of an optimal result over the same system
    under other column bounds. When those bounds leave each of its
    nonbasic columns at its value, the solve starts from it with the dual
    simplex; otherwise it solves cold. An optimal result carries its basis.

    Raises ValueError for a warm start whose basis belongs to another
    system, for bounds that are not one per column, for a NaN bound, and
    for a lower bound of +inf or an upper bound of -inf; SolverError when
    the arithmetic overflows.
    """
    if warm_start is not None and warm_start.system is not system:
        raise ValueError("warm start belongs to another LpSystem")
    try:
        return _solve(system, lower, upper, iteration_limit, warm_start)
    except FloatingPointError as exc:
        raise SolverError(f"LP arithmetic overflows: {exc}") from None


# one errstate per LP call: an overflow anywhere in the arithmetic would
# otherwise pass as inf or NaN into a pivot or an "optimal" answer; the
# decorator form enters it at about half the cost of a with statement
@np.errstate(over="raise")
def _solve(system, lower, upper, iteration_limit, warm_start):
    m, n = system.matrix.shape
    lo = np.asarray(lower, dtype=float).tolist()
    hi = np.asarray(upper, dtype=float).tolist()
    if len(lo) != n or len(hi) != n:
        raise ValueError(f"lower and upper must have one entry per column ({n})")
    if math.inf in lo or -math.inf in hi:
        raise ValueError("no lower bound may be +inf and no upper bound -inf")
    # NaN bounds fail lower <= upper too; they are an input fault, not an empty box
    if not all(map(le, lo, hi)):
        if any(map(math.isnan, lo)) or any(map(math.isnan, hi)):
            raise ValueError("lower and upper bounds must not be NaN")
        return LpResult(INFEASIBLE, None, None, 0)

    lo += system.slack_lo
    hi += system.slack_hi
    cap = iteration_limit if iteration_limit is not None else 200 * (n + m) + 2000

    spent = 0
    tab = None
    if warm_start is not None:
        try:
            tab = _warm_tableau(warm_start, lo, hi)
            start = warm_start.start
            if not tab.dual(cap, start.side.copy(), start.movers.copy()):
                return LpResult(INFEASIBLE, None, None, tab.iterations)
        except _ColdRestart:
            spent = tab.iterations if tab is not None else 0
            tab = None
    if tab is None:
        tab, feasible = _cold_tableau(system, lo, hi, cap)
        if not feasible:
            return LpResult(INFEASIBLE, None, None, spent + tab.iterations)

    status = OPTIMAL if tab.certified else tab.run(cap)
    iterations = spent + tab.iterations
    if status == UNBOUNDED:
        return LpResult(UNBOUNDED, None, None, iterations)
    if status == ITERATION_LIMIT:
        if iteration_limit is None:
            raise SolverError("simplex failed to converge within the safety cap")
        x = tab.values()[:n]
        return LpResult(ITERATION_LIMIT, x, float(system.objective @ x), iterations)
    basis = tab.warm_basis(system)
    x = basis.values[:n].copy()
    slack = (system.rhs - system.matrix @ x).tolist()
    for i, s, l, h in zip(count(), slack, system.slack_lo, system.slack_hi):
        # a NaN violation is not within the tolerance either
        if not (l - s <= 1e-6 and s - h <= 1e-6):
            raise SolverError(f"optimal point violates row {i}")
    return LpResult(OPTIMAL, x, float(system.objective @ x), iterations, basis)
