"""Bounded-variable primal simplex for small dense LPs.

Rows become equalities with one ranged slack each (the slack's bounds
encode the sense), so the core works on M z = b with box bounds per
column. Phase 1 installs signed artificial columns only on rows whose
slack cannot absorb the initial residual and minimizes their sum; phase 2
fixes the artificials to zero and optimizes the real objective from the
phase-1 basis. Pricing is Dantzig until the objective stalls, then
Bland's rule for guaranteed termination.

The tableau keeps the basis inverse explicitly. Each basis change
applies a rank-1 (product-form) update to it; the engine factorizes it
afresh only when the pivot element is below _REFACTOR_PIVOT_TOL or
after _REFACTOR_INTERVAL updates have accumulated since the last
factorization. A singular basis or an exhausted safety cap raises
instead of returning a silently wrong answer.

A solve may instead start warm from the optimal basis of a parent LP
that differs only in its column bounds. The basis carries its inverse
and its update count, so the child starts without factorizing. That
basis stays dual feasible, so a bounded dual simplex restores primal
feasibility (or proves the child infeasible when a dual ratio test finds
no entering column) and the primal loop then certifies optimality,
normally without a pivot. A warm start that cannot be used (a singular
refactor, a nonbasic column at an infinite bound, a dual phase that
reaches the iteration cap, or a violation too small to certify
infeasibility that no column can fix) falls back to the cold two-phase
solve, and the pivots of both attempts are counted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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


class SolverError(RuntimeError):
    """Numerical failure: singular basis, lost feasibility, or a blown cap."""


class ExtendedSystem(NamedTuple):
    """[A | I] with one ranged slack per row, built once per constraint set."""

    M: np.ndarray
    c: np.ndarray
    slack_lo: np.ndarray
    slack_hi: np.ndarray


class Basis(NamedTuple):
    """An optimal basis over an extended system, for warm starts.

    columns holds the basic column of each row and state the status of
    every structural and slack column (basic, at lower, at upper, free).
    inverse is the inverse of M[:, columns], reached by updates rank-1
    updates since its last factorization. Neither array is ever mutated.
    """

    system: ExtendedSystem
    columns: np.ndarray
    state: np.ndarray
    inverse: np.ndarray
    updates: int


@dataclass
class LpResult:
    status: str
    x: np.ndarray | None
    objective: float | None
    iterations: int
    basis: Basis | None = None


class _ColdRestart(Exception):
    """The warm start cannot be used; solve from scratch instead."""


def _start_value(lo: float, hi: float) -> float:
    if math.isfinite(lo):
        return lo
    if math.isfinite(hi):
        return hi
    return 0.0


def _start_state(lo: float, hi: float) -> int:
    if math.isfinite(lo):
        return _AT_LOWER
    if math.isfinite(hi):
        return _AT_UPPER
    return _FREE


class _Tableau:
    """Mutable simplex state over the extended column system.

    inverse is B^-1 for B = M[:, basis]; updates counts the rank-1
    updates applied to it since it was last factorized.
    """

    def __init__(self, M, lo, hi, basis, state, z, inverse=None, updates=0):
        self.M = M
        self.lo = lo
        self.hi = hi
        self.basis = basis
        self.state = state
        self.z = z
        self.iterations = 0
        self.inverse = inverse
        self.updates = updates
        if inverse is None:
            self.refactor()

    def refactor(self):
        """Factorize B^-1 afresh; raises LinAlgError if B is singular."""
        self.inverse = np.linalg.inv(self.M[:, self.basis])
        self.updates = 0

    def replace(self, r, q, w):
        """Make column q basic in row r, where w = B^-1 M[:, q].

        A product-form update carries B^-1 over the basis change unless
        the pivot w[r] is too small or enough updates have accumulated,
        in which case B^-1 is factorized again (LinAlgError if singular).
        """
        self.basis[r] = q
        pivot = w[r]
        if self.updates >= _REFACTOR_INTERVAL or abs(pivot) < _REFACTOR_PIVOT_TOL:
            self.refactor()
            return
        inv = self.inverse
        row = inv[r] / pivot
        inv -= w[:, None] * row
        inv[r] = row
        self.updates += 1

    def run(self, c, cap, bland=False):
        """Optimize c @ z in place; returns OPTIMAL/UNBOUNDED/ITERATION_LIMIT."""
        M, lo, hi, state, z, basis = self.M, self.lo, self.hi, self.state, self.z, self.basis
        stall = 0
        last_obj = math.inf
        while True:
            if self.iterations >= cap:
                return ITERATION_LIMIT
            d = c - (c[basis] @ self.inverse) @ M
            can_inc = ((state == _AT_LOWER) | (state == _FREE)) & (d < -_COST_TOL)
            can_dec = ((state == _AT_UPPER) | (state == _FREE)) & (d > _COST_TOL)
            eligible = can_inc | can_dec
            if not eligible.any():
                return OPTIMAL
            if bland:
                j = int(np.flatnonzero(eligible)[0])
            else:
                j = int(np.where(eligible, np.abs(d), -1.0).argmax())
            sigma = 1.0 if can_inc[j] else -1.0

            w = self.inverse @ M[:, j]
            # basics move as z_B - t*sigma*w; find the blocking bound: the
            # smallest step within 1e-12, ties to the lowest basic column
            sw = sigma * w
            bound = np.where(sw > 0.0, lo[basis], hi[basis])
            (rows,) = ((np.abs(sw) > _PIVOT_TOL) & np.isfinite(bound)).nonzero()
            t_best = math.inf
            if rows.size:
                steps = (z[basis[rows]] - bound[rows]) / sw[rows]
                steps[steps < -_FEAS_TOL] = 0.0
                # <= keeps the minimum itself when 1e-12 is below its ulp
                (near,) = (steps <= steps.min() + 1e-12).nonzero()
                k = near[np.argmin(basis[rows[near]])]
                leave, t_best = int(rows[k]), float(steps[k])
            flip = hi[j] - lo[j]  # +inf unless both bounds are finite
            if t_best == math.inf and not math.isfinite(flip):
                return UNBOUNDED
            self.iterations += 1
            if math.isfinite(flip) and flip <= t_best:
                # entering variable runs to its other bound; basis unchanged
                z[basis] -= flip * sigma * w
                z[j] = hi[j] if sigma > 0 else lo[j]
                state[j] = _AT_UPPER if sigma > 0 else _AT_LOWER
            else:
                t = max(t_best, 0.0)
                enter_value = z[j] + sigma * t
                z[basis] -= t * sigma * w
                out = basis[leave]
                if sw[leave] > 0.0:
                    z[out], state[out] = lo[out], _AT_LOWER
                else:
                    z[out], state[out] = hi[out], _AT_UPPER
                state[j] = _BASIC
                z[j] = enter_value
                try:
                    self.replace(leave, j, w)
                except np.linalg.LinAlgError as exc:
                    raise SolverError("singular working basis") from exc
            obj = float(c @ z)
            if obj < last_obj - 1e-12:
                stall = 0
            else:
                stall += 1
                if stall >= _STALL_LIMIT:
                    bland = True
            last_obj = obj

    def dual(self, b, c, cap):
        """Bounded dual simplex until the basis is primal feasible.

        Returns True once every basic value is within its bounds (the
        caller's primal run then certifies optimality) and False when the
        most violated row has no entering column, which proves the LP
        infeasible. Raises _ColdRestart on a singular refactor, on
        reaching cap, or when a violation too small to certify
        infeasibility is stuck.
        """
        M, lo, hi, state, z = self.M, self.lo, self.hi, self.state, self.z
        basis = self.basis
        # a fixed column cannot move, so it never enters
        movable = lo < hi
        at_lower = (state == _AT_LOWER) & movable
        at_upper = (state == _AT_UPPER) & movable
        while True:
            inv = self.inverse
            z[basis] = 0.0
            zb = inv @ (b - M @ z)
            z[basis] = zb
            below = lo[basis] - zb
            above = zb - hi[basis]
            violation = np.maximum(below, above)
            r = int(violation.argmax())
            y = c[basis] @ inv
            if violation[r] <= _FEAS_TOL:
                # park each fixed nonbasic column on the side its reduced
                # cost calls for, so the primal run need not flip it
                d = c - y @ M
                parked = ~movable & (state != _BASIC)
                state[parked & (d < 0.0)] = _AT_UPPER
                state[parked & (d >= 0.0)] = _AT_LOWER
                return True
            if self.iterations >= cap:
                raise _ColdRestart
            to_lower = below[r] > above[r]
            # g_j > 0: raising x_j moves the leaving variable toward its bound
            g = inv[r] @ M
            if to_lower:
                g = -g
            eligible = (at_lower & (g > _PIVOT_TOL)) | (at_upper & (g < -_PIVOT_TOL))
            (cand,) = eligible.nonzero()
            if not cand.size:
                if violation[r] <= _PHASE1_TOL:
                    raise _ColdRestart
                return False
            # dual step each candidate allows; Harris two-pass ratio test:
            # the largest |g| among steps within the tolerance-relaxed minimum
            gc = g[cand]
            step = np.maximum((c[cand] - y @ M[:, cand]) / gc, 0.0)
            size = np.abs(gc)
            bound = (step + _COST_TOL / size).min()
            q = int(cand[np.where(step <= bound, size, -1.0).argmax()])
            self.iterations += 1
            out = basis[r]
            if to_lower:
                z[out], state[out] = lo[out], _AT_LOWER
            else:
                z[out], state[out] = hi[out], _AT_UPPER
            at_lower[out] = to_lower and movable[out]
            at_upper[out] = not to_lower and movable[out]
            state[q] = _BASIC
            at_lower[q] = at_upper[q] = False
            try:
                self.replace(r, q, inv @ M[:, q])
            except np.linalg.LinAlgError:
                raise _ColdRestart from None

    def warm_basis(self, system: ExtendedSystem) -> Basis:
        """This optimal basis over the columns of system.

        A basic artificial is pinned at zero and parallel to its row's
        slack, which a nonsingular basis therefore keeps nonbasic; the
        slack takes its place without changing the duals. The artificial
        is +-e_row and the slack e_row, so the swap flips the sign of the
        matching row of B^-1 when the artificial was negative.
        """
        width = system.M.shape[1]
        columns = self.basis.copy()
        state = self.state[:width].copy()
        inverse = self.inverse.copy()
        for i, k in enumerate(columns):
            if k >= width:
                row = int(np.flatnonzero(self.M[:, k])[0])
                inverse[i] *= self.M[row, k]
                columns[i] = width - self.M.shape[0] + row
                state[columns[i]] = _BASIC
        return Basis(system, columns, state, inverse, self.updates)


def _extend(objective, matrix, senses) -> ExtendedSystem:
    """Append one ranged slack per row; returns the equality system."""
    m, n = matrix.shape
    slack_lo = np.zeros(m)
    slack_hi = np.zeros(m)
    for i, sense in enumerate(senses):
        if sense == "<=":
            slack_hi[i] = math.inf
        elif sense == ">=":
            slack_lo[i] = -math.inf
        elif sense != "=":
            raise ValueError(f"unknown row sense {sense!r}")
    M = np.hstack([matrix, np.eye(m)])
    c = np.concatenate([objective, np.zeros(m)])
    return ExtendedSystem(M, c, slack_lo, slack_hi)


def _warm_tableau(warm: Basis, lo, hi) -> _Tableau:
    """A tableau on warm's basis with the nonbasic columns at the new bounds."""
    state = warm.state.copy()
    z = np.where(state == _AT_LOWER, lo, np.where(state == _AT_UPPER, hi, 0.0))
    nonbasic = state != _BASIC
    if (state[nonbasic] == _FREE).any() or not np.isfinite(z[nonbasic]).all():
        raise _ColdRestart
    return _Tableau(
        warm.system.M, lo, hi, warm.columns.copy(), state, z,
        warm.inverse.copy(), warm.updates,
    )


def _cold_tableau(system: ExtendedSystem, rhs, lo, hi, cap) -> tuple[_Tableau, bool]:
    """Phase 1 from the slack basis; returns the tableau and whether the LP
    is feasible. On success the artificials are pinned at zero."""
    M, c = system.M, system.c
    m = M.shape[0]
    n = M.shape[1] - m
    z = np.array([_start_value(lo[j], hi[j]) for j in range(n + m)])
    state = np.array([_start_state(lo[j], hi[j]) for j in range(n + m)], dtype=np.int8)

    # seat the slacks; rows whose slack cannot hold the residual get a
    # signed artificial column instead
    basis = np.empty(m, dtype=np.int64)
    art_cols = []
    art_rows = []
    for i in range(m):
        target = rhs[i] - M[i, :n] @ z[:n]
        s = n + i
        if lo[s] - _FEAS_TOL <= target <= hi[s] + _FEAS_TOL:
            z[s] = min(max(target, lo[s]), hi[s])
            state[s] = _BASIC
            basis[i] = s
        else:
            z[s] = lo[s] if target < lo[s] else hi[s]
            state[s] = _AT_LOWER if target < lo[s] else _AT_UPPER
            resid = target - z[s]
            col = np.zeros(m)
            col[i] = math.copysign(1.0, resid)
            art_cols.append(col)
            art_rows.append((i, abs(resid)))
    n_art = len(art_cols)
    if n_art:
        M = np.hstack([M, np.column_stack(art_cols)])
        lo = np.concatenate([lo, np.zeros(n_art)])
        hi = np.concatenate([hi, np.full(n_art, math.inf)])
        z = np.concatenate([z, np.array([v for _, v in art_rows])])
        state = np.concatenate([state, np.full(n_art, _BASIC, dtype=np.int8)])
        for k, (i, _) in enumerate(art_rows):
            basis[i] = n + m + k

    tab = _Tableau(M, lo, hi, basis, state, z)
    if n_art:
        c1 = np.zeros(n + m + n_art)
        c1[n + m :] = 1.0
        status = tab.run(c1, cap)
        if status == ITERATION_LIMIT:
            raise SolverError("iteration cap exhausted before certifying feasibility")
        if status == UNBOUNDED:
            raise SolverError("phase 1 reported unbounded; artificial costs are >= 0")
        if float(c1 @ tab.z) > _PHASE1_TOL:
            return tab, False
        # artificials are pinned at zero for the real objective
        tab.lo[n + m :] = 0.0
        tab.hi[n + m :] = 0.0
    return tab, True


def solve_bounded_lp(
    objective,
    matrix,
    senses,
    rhs,
    lower,
    upper,
    iteration_limit: int | None = None,
    warm_start: Basis | None = None,
) -> LpResult:
    """Minimize objective @ x subject to matrix x (senses) rhs, lower <= x <= upper.

    iteration_limit caps total simplex iterations across both phases; when
    it bites after feasibility is established, the result carries the best
    feasible objective so far with status iteration_limit. Running out
    during phase 1 is a SolverError since nothing is certified yet.

    warm_start is the basis of an optimal result for the same objective
    and rows under other column bounds; the solve then starts from it
    with the dual simplex. An optimal result carries its basis.
    """
    objective = np.asarray(objective, dtype=float)
    matrix = np.asarray(matrix, dtype=float).reshape(len(senses), len(objective))
    rhs = np.asarray(rhs, dtype=float)
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)
    m, n = matrix.shape
    if np.any(lower > upper):
        return LpResult(INFEASIBLE, None, None, 0)

    if warm_start is None:
        system = _extend(objective, matrix, senses)
    else:
        system = warm_start.system
        if system.M.shape != (m, n + m):
            raise ValueError("warm start belongs to a system of another shape")
    lo = np.concatenate([lower, system.slack_lo])
    hi = np.concatenate([upper, system.slack_hi])
    cap = iteration_limit if iteration_limit is not None else 200 * (n + m) + 2000

    spent = 0
    tab = None
    if warm_start is not None:
        try:
            tab = _warm_tableau(warm_start, lo, hi)
            if not tab.dual(rhs, system.c, cap):
                return LpResult(INFEASIBLE, None, None, tab.iterations)
        except _ColdRestart:
            spent = tab.iterations if tab is not None else 0
            tab = None
    if tab is None:
        tab, feasible = _cold_tableau(system, rhs, lo, hi, cap)
        if not feasible:
            return LpResult(INFEASIBLE, None, None, spent + tab.iterations)

    c = np.concatenate([system.c, np.zeros(len(tab.z) - n - m)])
    status = tab.run(c, cap)
    iterations = spent + tab.iterations
    x = tab.z[:n].copy()
    obj = float(objective @ x)
    if status == UNBOUNDED:
        return LpResult(UNBOUNDED, None, None, iterations)
    if status == ITERATION_LIMIT:
        if iteration_limit is None:
            raise SolverError("simplex failed to converge within the safety cap")
        return LpResult(ITERATION_LIMIT, x, obj, iterations)
    slack = rhs - matrix @ x
    (bad,) = np.nonzero((slack < system.slack_lo - 1e-6) | (slack > system.slack_hi + 1e-6))
    if bad.size:
        raise SolverError(f"optimal point violates row {bad[0]}")
    return LpResult(OPTIMAL, x, obj, iterations, tab.warm_basis(system))
