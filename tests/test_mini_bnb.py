"""Solver stack tests: simplex, MPS files, branching, full solves.

Correctness leans on three independent referees: scipy's HiGHS wrapper
for LP statuses and objectives, explicit 0/1 enumeration for MIP optima,
and child re-solves through scipy for strong-branching gains. Hand
cases pin the small contracts (cutoffs, budgets, bound certificates)
where a referee would just re-run the same arithmetic.
"""

import dataclasses
import hashlib
import heapq
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from pvb import lookahead
from pvb.distributions import GainAccumulator
from pvb.lookahead import (
    BUDGET_EXHAUSTED,
    CANDIDATES_EXHAUSTED,
    LOOKAHEAD_EXHAUSTED,
    NO_EXPECTED_IMPROVEMENT,
    FixedLookaheadConfig,
    ProbLookaheadConfig,
)
from pvb.mini_bnb import (
    CUTOFF_FOUND,
    INFEASIBLE,
    ITERATION_LIMIT,
    NODE_LIMIT,
    OPTIMAL,
    PSEUDOCOST_ONLY,
    UNBOUNDED,
    MiniMip,
    MpsError,
    Pseudocost,
    SolveCache,
    SolverConfig,
    SolverError,
    load_mps,
    lp_system,
    save_mps,
    select_branching_variable,
    solve,
    solve_bounded_lp,
    sparse_multiknapsack,
    strong_branch_candidate,
)
from pvb.mini_bnb import simplex, solver
from pvb.mini_bnb.simplex import (
    _AT_LOWER,
    _AT_UPPER,
    _BASIC,
    _COST_TOL,
    _DIRECTION,
    _PIVOT_TOL,
    _REFACTOR_INTERVAL,
    _STALL_LIMIT,
    _ColdRestart,
    _Tableau,
    _entering_column,
    _leaving_row,
)
from helpers import dense, multiknapsack, random_binary_mip, toy_corpus
from oracles import enumerate_binary_mip, linprog_lp

GEO_SHIFT_NODES = 100.0
GEO_SHIFT_LPS = 1.0


def build(objective, rows, lower=0.0, upper=math.inf, integer=False, name="t"):
    """Ad-hoc MiniMip: rows as (coefficients, sense, rhs) triples."""
    n = len(objective)

    def spread(v):
        if isinstance(v, (bool, int, float)):
            return (float(v),) * n
        return tuple(float(u) for u in v)

    flags = (bool(integer),) * n if isinstance(integer, (bool, int)) else tuple(integer)
    return MiniMip(
        name=name,
        col_names=tuple(f"x{j}" for j in range(n)),
        objective=tuple(float(v) for v in objective),
        row_names=tuple(f"r{i}" for i in range(len(rows))),
        senses=tuple(s for _, s, _ in rows),
        matrix=tuple(tuple(float(v) for v in coefs) for coefs, _, _ in rows),
        rhs=tuple(float(b) for _, _, b in rows),
        lower=spread(lower),
        upper=spread(upper),
        integer=flags,
    )


class RecordingPseudocost(Pseudocost):
    """Pseudocost that keeps every update call, so a test can replay them."""

    def __init__(self, n_cols, threshold=2):
        super().__init__(n_cols, threshold)
        self.calls = []

    def update(self, j, down_per_unit, up_per_unit):
        super().update(j, down_per_unit, up_per_unit)
        self.calls.append((j, down_per_unit, up_per_unit))


def geomean(values, shift):
    return math.exp(
        sum(math.log(v + shift) for v in values) / len(values)
    ) - shift


@st.composite
def feasible_lps(draw):
    """A feasible LP around a point x0 inside the box.

    Rows pass through x0, most of them exactly, so x0 is feasible and
    usually a degenerate vertex; rows are scaled by powers of ten, and
    columns are boxed, bounded below only, or free.
    """

    def vec(elements, size):
        return np.array(draw(st.lists(elements, min_size=size, max_size=size)), float)

    n = draw(st.integers(2, 7))
    m = draw(st.integers(1, 5))
    a = vec(st.integers(-5, 6), m * n).reshape(m, n)
    c = vec(st.integers(-9, 9), n)
    lower = vec(st.sampled_from([0.0, 0.0, 0.0, -4.0, -math.inf]), n)
    upper = np.where(lower == 0.0, 5.0, math.inf)
    x0 = vec(st.integers(0, 5), n)
    senses = draw(st.lists(st.sampled_from(["<=", "<=", ">=", "="]), min_size=m, max_size=m))
    sign = np.array([{"<=": 1.0, ">=": -1.0, "=": 0.0}[sense] for sense in senses])
    b = a @ x0 + sign * vec(st.sampled_from([0, 0, 0, 1, 3]), m)
    scale = vec(st.sampled_from([1e-2, 1.0, 1.0, 1e2]), m)
    return c, a * scale[:, None], senses, b * scale, lower, upper


@st.composite
def parent_and_child_lps(draw):
    """A feasible LP, plus which bound of which column its child moves."""
    c, a, senses, b, lower, upper = draw(feasible_lps())
    j = draw(st.integers(0, len(c) - 1))
    side = draw(st.sampled_from(["down", "up", "fix"]))
    shift = draw(st.integers(0, 6))
    return c, a, senses, b, lower, upper, j, side, shift


@st.composite
def chained_cuts(draw):
    """A boxed LP with room around x0, plus a chain of (column, side) cuts.

    Rows keep x0 feasible, most with slack to spare and some exactly
    through it, and are scaled by powers of ten; every column is boxed
    with width 40, so a chain of cuts stays feasible for many steps.
    """

    def vec(elements, size):
        return np.array(draw(st.lists(elements, min_size=size, max_size=size)), float)

    n = draw(st.integers(6, 14))
    m = draw(st.integers(3, 8))
    a = vec(st.integers(-3, 9), m * n).reshape(m, n)
    c = vec(st.integers(-9, 3), n)
    lower = vec(st.sampled_from([0.0, -20.0]), n)
    x0 = lower + vec(st.integers(0, 40), n)
    senses = draw(st.lists(st.sampled_from(["<=", ">="]), min_size=m, max_size=m))
    sign = np.array([1.0 if sense == "<=" else -1.0 for sense in senses])
    b = a @ x0 + sign * vec(st.sampled_from([0, 5, 20, 60]), m)
    scale = vec(st.sampled_from([1e-2, 1.0, 1.0, 1e2]), m)
    cut = st.tuples(st.integers(0, n - 1), st.sampled_from(["down", "up"]))
    cuts = draw(st.lists(cut, min_size=30, max_size=60))
    return c, a * scale[:, None], senses, b * scale, lower, lower + 40.0, cuts


def cut(x, lower, upper, j, side):
    """Bounds that move column j at least one integer step off x_j, toward
    side when the box allows it and the other way when not; None when
    neither fits."""
    other = "up" if side == "down" else "down"
    for direction in (side, other):
        lo2, hi2 = lower.copy(), upper.copy()
        if direction == "down":
            hi2[j] = math.ceil(x[j]) - 1.0
        else:
            lo2[j] = math.floor(x[j]) + 1.0
        if lo2[j] <= hi2[j]:
            return lo2, hi2
    return None


def assert_basis_is_current(res, b):
    """The carried basis matches a fresh factorization of its columns: no
    more updates than the engine allows between refactors, B^-1 inverts B,
    the tableau is B^-1 M, the reduced costs are c - c_B T, and the values
    are the returned x with the row slacks b - A x."""
    basis = res.basis
    M, c = basis.system.M, basis.system.c
    B = M[:, basis.columns]
    n = len(res.x)
    assert basis.updates <= _REFACTOR_INTERVAL
    np.testing.assert_allclose(basis.inverse @ B, np.eye(len(basis.columns)), atol=1e-9)
    tableau, reduced_costs = basis.stack[:-1], basis.stack[-1]
    np.testing.assert_allclose(tableau, np.linalg.solve(B, M), rtol=1e-9, atol=1e-9)
    np.testing.assert_allclose(reduced_costs, c - c[basis.columns] @ tableau, atol=1e-9)
    np.testing.assert_array_equal(basis.values[:n], res.x)
    np.testing.assert_allclose(
        basis.values[n:], b - M[:, :n] @ res.x, atol=1e-9 * max(1.0, np.abs(b).max())
    )


def permute(mip, seed):
    """mip with its columns, then its rows, reordered by
    np.random.default_rng(seed)."""
    rng = np.random.default_rng(seed)
    cols = rng.permutation(mip.n_cols)
    rows = rng.permutation(mip.n_rows)

    def pick(values, order):
        return tuple(values[k] for k in order)

    return MiniMip(
        name=mip.name,
        col_names=pick(mip.col_names, cols),
        objective=pick(mip.objective, cols),
        row_names=pick(mip.row_names, rows),
        senses=pick(mip.senses, rows),
        matrix=tuple(pick(mip.matrix[i], cols) for i in rows),
        rhs=pick(mip.rhs, rows),
        lower=pick(mip.lower, cols),
        upper=pick(mip.upper, cols),
        integer=pick(mip.integer, cols),
    )


def tighten(x, lower, upper, j, side, shift):
    """Child bounds: cut column j below or above x_j by shift more steps,
    or fix it near x_j; large shifts often leave no feasible point."""
    lo2, hi2 = lower.copy(), upper.copy()
    if side == "down":
        hi2[j] = min(upper[j], math.floor(x[j]) - shift)
    elif side == "up":
        lo2[j] = max(lower[j], math.ceil(x[j]) + shift)
    else:
        lo2[j] = hi2[j] = math.floor(x[j]) + shift - 3
    return lo2, hi2


class TestSimplex:
    def test_face_optimum(self):
        res = solve_bounded_lp(
            lp_system([-1.0, -1.0], [[1.0, 1.0]], ["<="], [5.0]), [0.0, 0.0],
            [math.inf, math.inf],
        )
        assert res.status == OPTIMAL
        assert res.objective == pytest.approx(-5.0)
        assert res.x.sum() == pytest.approx(5.0)

    def test_bounded_vertex(self):
        # optimum sits at x0 capped, remainder on x1: obj -2*3 - 2 = -8
        res = solve_bounded_lp(
            lp_system([-2.0, -1.0], [[1.0, 1.0]], ["<="], [5.0]), [0.0, 0.0], [3.0, 3.0]
        )
        assert res.status == OPTIMAL
        assert res.objective == pytest.approx(-8.0)
        assert res.x == pytest.approx([3.0, 2.0])

    def test_equality_row(self):
        res = solve_bounded_lp(
            lp_system([1.0, 0.0], [[1.0, 1.0]], ["="], [4.0]), [0.0, 0.0], [3.0, 3.0]
        )
        assert res.status == OPTIMAL
        assert res.objective == pytest.approx(1.0)

    def test_negative_lower_bound(self):
        res = solve_bounded_lp(lp_system([1.0], [[1.0]], [">="], [-2.0]), [-5.0], [math.inf])
        assert res.status == OPTIMAL
        assert res.objective == pytest.approx(-2.0)

    def test_infeasible(self):
        res = solve_bounded_lp(
            lp_system([-1.0, -1.0], [[1.0, 1.0]], ["<="], [-1.0]), [0.0, 0.0],
            [math.inf, math.inf],
        )
        assert res.status == INFEASIBLE
        assert res.objective is None and res.x is None

    def test_unbounded(self):
        res = solve_bounded_lp(
            lp_system([-1.0, 0.0], [[0.0, 1.0]], ["<="], [1.0]), [0.0, 0.0],
            [math.inf, math.inf],
        )
        assert res.status == UNBOUNDED

    def test_lp_without_rows_puts_each_column_at_its_cheaper_bound(self):
        # once a matmul shape error in warm_basis, which gives the optimum
        # a basis with no rows. Every column is nonbasic there, so the
        # child that moves x1's value solves cold, and the one that only
        # tightens x0's upper bound, with x0 at its lower, starts warm
        system = lp_system([2.0, -3.0, 0.0], np.zeros((0, 3)), [], [])
        res = solve_bounded_lp(system, [-1.0, -2.0, -5.0], [4.0, 6.0, 5.0])
        assert res.status == OPTIMAL
        assert res.x.tolist() == [-1.0, 6.0, -5.0] and res.objective == -20.0
        child = solve_bounded_lp(
            system, [-1.0, -2.0, -5.0], [4.0, 2.5, 5.0], warm_start=res.basis
        )
        assert child.status == OPTIMAL
        assert child.x.tolist() == [-1.0, 2.5, -5.0] and child.objective == -9.5
        child = solve_bounded_lp(
            system, [-1.0, -2.0, -5.0], [3.0, 6.0, 5.0], warm_start=res.basis
        )
        assert child.status == OPTIMAL and child.iterations == 0
        assert child.x.tolist() == [-1.0, 6.0, -5.0] and child.objective == -20.0
        for cost, lower, upper in (([-1.0], [0.0], [math.inf]), ([1.0], [-math.inf], [3.0])):
            res = solve_bounded_lp(lp_system(cost, np.zeros((0, 1)), [], []), lower, upper)
            assert res.status == UNBOUNDED

    @pytest.mark.parametrize("m, n", [(0, 0), (0, 3), (1, 0), (3, 0)])
    def test_an_empty_shape_is_optimal_cold_and_warm_from_its_own_basis(self, m, n):
        # 0 x 0 once failed in numpy's argmin of the primal loop's empty
        # slopes, and its warm start in the gather and the optimality test
        system = lp_system([1.0] * n, np.zeros((m, n)), ["<="] * m, [2.0] * m)
        cold = solve_bounded_lp(system, [-1.0] * n, [4.0] * n)
        warm = solve_bounded_lp(system, [-1.0] * n, [4.0] * n, warm_start=cold.basis)
        for res in (cold, warm):
            assert res.status == OPTIMAL and res.basis is not None
            assert res.x.tolist() == [-1.0] * n and res.objective == -float(n)
        assert warm.iterations == 0

    def test_iteration_limit_keeps_feasible_point(self):
        # slacks seat the all-zero start, so the single allowed pivot
        # lands on a feasible but suboptimal vertex
        res = solve_bounded_lp(
            lp_system([-1.0, -1.0], [[1.0, 1.0]], ["<="], [5.0]), [0.0, 0.0],
            [3.0, 3.0], iteration_limit=1,
        )
        assert res.status == ITERATION_LIMIT
        assert res.objective is not None and -5.0 < res.objective <= 0.0
        assert res.x.sum() <= 5.0 + 1e-9

    def test_phase1_cap_raises(self):
        with pytest.raises(SolverError):
            solve_bounded_lp(
                lp_system([1.0, 1.0], [[1.0, 1.0]], ["="], [5.0]), [0.0, 0.0],
                [3.0, 3.0], iteration_limit=1,
            )

    def test_cycling_lp_is_solved_by_the_switch_to_bland(self):
        # Beale's example cycles under Dantzig pricing with these ties;
        # only the stall switch to Bland's rule reaches the optimum
        c = [-0.75, 20.0, -0.5, 6.0]
        a = [[0.25, -8.0, -1.0, 9.0], [0.5, -12.0, -0.5, 3.0], [0.0, 0.0, 1.0, 0.0]]
        res = solve_bounded_lp(
            lp_system(c, a, ["<="] * 3, [0.0, 0.0, 1.0]), [0.0] * 4, [math.inf] * 4
        )
        assert res.status == OPTIMAL
        assert res.objective == pytest.approx(-1.25)
        assert res.iterations > _STALL_LIMIT

    def test_unbounded_lp_that_highs_presolve_calls_infeasible(self):
        # HiGHS with presolve answers status 2 (infeasible) here; the
        # oracle's re-solve without presolve agrees with pvb
        c = [-2.0, 2.0, 7.0]
        a = [[100.0, -500.0, 400.0], [0.05, -0.05, 0.06], [600.0, 0.0, 0.0], [0.05, 0.0, 0.0]]
        senses = ["<=", ">=", ">=", ">="]
        b = [1400.0, 0.14, 900.0, -0.03]
        lower, upper = [-math.inf, 0.0, -math.inf], [math.inf, 6.0, math.inf]
        assert linprog_lp(c, a, senses, b, lower, upper) == ("unbounded", None)
        assert solve_bounded_lp(lp_system(c, a, senses, b), lower, upper).status == UNBOUNDED

    @pytest.mark.parametrize("seed", range(150))
    def test_fuzz_against_highs(self, seed):
        rng = np.random.default_rng(20_000 + seed)
        n = int(rng.integers(3, 9))
        m = int(rng.integers(2, 6))
        a = rng.integers(-5, 7, size=(m, n)).astype(float)
        a[rng.random((m, n)) < 0.2] = 0.0
        c = rng.integers(-10, 11, size=n).astype(float)
        senses = [str(rng.choice(["<=", ">=", "="], p=[0.6, 0.3, 0.1])) for _ in range(m)]
        b = rng.integers(-8, 15, size=m).astype(float)
        lower = np.where(rng.random(n) < 0.7, 0.0, -3.0)
        upper = np.where(rng.random(n) < 0.6, 6.0, math.inf)
        res = solve_bounded_lp(lp_system(c, a, senses, b), lower, upper)
        ref_status, ref_obj = linprog_lp(c, a, senses, b, lower, upper)
        assert res.status == ref_status
        if ref_status == "optimal":
            assert res.objective == pytest.approx(ref_obj, abs=1e-6)


class TestWarmStart:
    @settings(
        max_examples=600, deadline=None, derandomize=True, database=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(parent_and_child_lps())
    def test_fuzz_child_matches_cold_and_highs(self, case):
        c, a, senses, b, lower, upper, j, side, shift = case
        system = lp_system(c, a, senses, b)
        parent = solve_bounded_lp(system, lower, upper)
        if parent.status != OPTIMAL:
            return
        lo2, hi2 = tighten(parent.x, lower, upper, j, side, shift)
        warm = solve_bounded_lp(system, lo2, hi2, warm_start=parent.basis)
        cold = solve_bounded_lp(system, lo2, hi2)
        ref_status, ref_obj = linprog_lp(c, a, senses, b, lo2, hi2)
        assert warm.status == cold.status == ref_status
        if ref_status == OPTIMAL:
            assert warm.objective == pytest.approx(cold.objective, abs=1e-6)
            assert warm.objective == pytest.approx(ref_obj, abs=1e-6)
            assert warm.basis is not None

    @settings(
        max_examples=60, deadline=None, derandomize=True, database=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(chained_cuts())
    def test_chained_warm_starts_match_cold_and_highs(self, case):
        # each LP starts from the previous optimum's basis, so the tableau
        # it carries accumulates updates along the chain
        c, a, senses, b, lo, hi, cuts = case
        system = lp_system(c, a, senses, b)
        res = solve_bounded_lp(system, lo, hi)
        for k, side in cuts:
            if res.status != OPTIMAL:
                break
            assert_basis_is_current(res, b)
            # cut a basic (interior) column when there is one
            (inside,) = np.nonzero((res.x > lo + 1e-6) & (res.x < hi - 1e-6))
            j = int(inside[k % inside.size]) if inside.size else k
            bounds = cut(res.x, lo, hi, j, side)
            if bounds is None:
                continue
            lo, hi = bounds
            warm = solve_bounded_lp(system, lo, hi, warm_start=res.basis)
            cold = solve_bounded_lp(system, lo, hi)
            ref_status, ref_obj = linprog_lp(c, a, senses, b, lo, hi)
            assert warm.status == cold.status == ref_status
            if ref_status == OPTIMAL:
                assert warm.objective == pytest.approx(cold.objective, abs=1e-6)
                assert warm.objective == pytest.approx(ref_obj, abs=1e-6)
            res = warm

    def test_dive_crosses_the_refactor_interval(self):
        # a dive that rounds fractional columns needs several times the
        # refactor interval in dual pivots, all on one carried tableau
        mip = sparse_multiknapsack(20, 12, 22)
        c, a, senses, b, lo, hi = dense(mip)
        system = lp_system(c, a, senses, b)
        res = solve_bounded_lp(system, lo, hi)
        pivots = 0
        while True:
            assert_basis_is_current(res, b)
            fractional = [
                j for j in range(mip.n_cols)
                if min(res.x[j] % 1.0, 1.0 - res.x[j] % 1.0) > 1e-6
            ]
            if not fractional:
                break
            j = fractional[pivots % len(fractional)]
            lo, hi = cut(res.x, lo, hi, j, "down" if j % 2 else "up")
            child = solve_bounded_lp(system, lo, hi, warm_start=res.basis)
            if child.status != OPTIMAL:
                break
            pivots += child.iterations
            res = child
        assert pivots > 2 * _REFACTOR_INTERVAL

    def test_children_need_half_the_pivots(self):
        # guards the warm start itself: SB children restarted from the
        # root basis against the same children solved from scratch
        mip = sparse_multiknapsack(20, 12, 1)
        *rows, lo, hi = dense(mip)
        system = lp_system(*rows)
        root = solve_bounded_lp(system, lo, hi)
        fractional = [
            j for j in range(mip.n_cols)
            if min(root.x[j] % 1.0, 1.0 - root.x[j] % 1.0) > 1e-6
        ]
        assert len(fractional) >= 4
        warm_iters = cold_iters = 0
        # the same node without its basis starts both children cold
        basisless = dataclasses.replace(root, basis=None)
        for j in fractional:
            warm = strong_branch_candidate(system, lo, hi, j, root)
            cold = strong_branch_candidate(system, lo, hi, j, basisless)
            assert warm.down_gain == pytest.approx(cold.down_gain, abs=1e-9)
            assert warm.up_gain == pytest.approx(cold.up_gain, abs=1e-9)
            warm_iters += warm.iterations
            cold_iters += cold.iterations
        assert warm_iters <= cold_iters / 2

    def test_infeasible_child_is_certified_by_the_dual(self):
        # x0 + x1 >= 3 with both capped at 2: the parent puts x0 at 2 and
        # x1 basic at 1; fixing the basic x1 at 0 leaves x0 short
        system = lp_system([1.0, 1.0], [[1.0, 1.0]], [">="], [3.0])
        parent = solve_bounded_lp(system, [0.0, 0.0], [2.0, 2.0])
        assert parent.status == OPTIMAL
        assert parent.x.tolist() == [2.0, 1.0] and parent.basis.columns.tolist() == [1]
        child = solve_bounded_lp(system, [0.0, 0.0], [2.0, 0.0], warm_start=parent.basis)
        assert child.status == INFEASIBLE
        assert child.iterations == 0

    def test_free_nonbasic_column_falls_back_to_cold(self):
        # the free x1 has zero cost and sits nonbasic at 0 in the parent
        system = lp_system([-1.0, 0.0], [[1.0, 0.0]], ["<="], [4.0])
        lower, upper = [0.0, -math.inf], [math.inf, math.inf]
        parent = solve_bounded_lp(system, lower, upper)
        assert parent.status == OPTIMAL
        child = solve_bounded_lp(system, lower, [2.0, math.inf], warm_start=parent.basis)
        cold = solve_bounded_lp(system, lower, [2.0, math.inf])
        assert child.status == OPTIMAL
        assert child.objective == pytest.approx(-2.0)
        assert child.iterations == cold.iterations

    def test_capped_dual_phase_falls_back_and_counts_both(self):
        mip = sparse_multiknapsack(20, 12, 1)
        *rows, lo, hi = dense(mip)
        system = lp_system(*rows)
        root = solve_bounded_lp(system, lo, hi)
        j = next(
            j for j in range(mip.n_cols)
            if min(root.x[j] % 1.0, 1.0 - root.x[j] % 1.0) > 1e-6
        )
        lo2 = lo.copy()
        lo2[j] = 1.0
        warm = solve_bounded_lp(system, lo2, hi, warm_start=root.basis)
        assert warm.status == OPTIMAL and warm.iterations >= 2
        # one pivot short of the warm solve, so the dual phase cannot finish
        cap = warm.iterations - 1
        capped = solve_bounded_lp(system, lo2, hi, iteration_limit=cap, warm_start=root.basis)
        cold = solve_bounded_lp(system, lo2, hi, iteration_limit=cap)
        assert capped.status == cold.status
        assert capped.objective == pytest.approx(cold.objective)
        assert capped.iterations == cap + cold.iterations

    def test_solve_warm_starts_every_lp_below_the_root(self, monkeypatch):
        from pvb.mini_bnb import solver

        starts = []
        original = solver.solve_bounded_lp

        def recording(*args, warm_start=None, **kwargs):
            starts.append(warm_start)
            return original(*args, warm_start=warm_start, **kwargs)

        popped = []

        def recording_pop(heap):
            popped.append(heapq.heappop(heap))
            return popped[-1]

        monkeypatch.setattr(solver, "solve_bounded_lp", recording)
        monkeypatch.setattr(
            solver, "heapq", SimpleNamespace(heappush=heapq.heappush, heappop=recording_pop)
        )
        res = solve(sparse_multiknapsack(20, 12, 1), FIXED)
        assert res.status == OPTIMAL and res.sb_lp_solves > 0
        # the first `nodes` pops are the solved nodes (one more pop may be
        # pruned by its bound); an entry's last field is its kept SB child
        served = sum(entry[-1] is not None for entry in popped[: res.nodes])
        assert served > 0
        assert len(starts) == res.nodes + res.sb_lp_solves - served
        assert starts[0] is None
        assert all(basis is not None for basis in starts[1:])

    @pytest.mark.parametrize("threshold", [2, 12])
    @pytest.mark.parametrize("mode", ["fixed", "dynamic"])
    def test_served_children_reproduce_the_node_solves(self, monkeypatch, mode, threshold):
        from pvb.mini_bnb import solver

        config = SolverConfig(mode=mode, reliability_threshold=threshold)
        mips = toy_corpus(4)
        calls = []
        original_lp = solver.solve_bounded_lp

        def counting(*args, **kwargs):
            calls.append(1)
            return original_lp(*args, **kwargs)

        monkeypatch.setattr(solver, "solve_bounded_lp", counting)
        served = [solve(mip, config) for mip in mips]
        served_calls = len(calls)

        original_sb = solver.strong_branch_candidate

        def stripped(*args, **kwargs):
            return original_sb(*args, **kwargs)._replace(children=(None, None))

        monkeypatch.setattr(solver, "strong_branch_candidate", stripped)
        calls.clear()
        resolved = [solve(mip, config) for mip in mips]
        assert len(calls) == sum(r.nodes + r.sb_lp_solves for r in resolved)
        assert served_calls < len(calls)
        assert served == resolved

    @pytest.mark.parametrize("where", ["values", "tableau"])
    def test_nan_in_the_warm_start_falls_back_to_cold(self, monkeypatch, where):
        # NaN compares false, so a test written as "violation <= tol" lets
        # a NaN row through as a certificate of infeasibility
        system = lp_system(
            [-3.0, -2.0, -4.0], [[1.0, 1.0, 2.0], [2.0, 0.0, 3.0]], ["<=", "<="], [4.0, 5.0]
        )
        lower, upper = [0.0, 0.0, 0.0], [10.0, 10.0, 1.0]
        parent = solve_bounded_lp(system, lower, [10.0, 10.0, 10.0])
        assert parent.status == OPTIMAL
        if where == "values":
            values = parent.basis.values.copy()
            values[parent.basis.columns[0]] = math.nan
            broken = parent.basis._replace(values=values)
        else:
            stack = parent.basis.stack.copy()
            stack[0, 0] = math.nan
            broken = parent.basis._replace(stack=stack)
        cold_starts = []
        original = simplex._cold_tableau

        def recording(*args):
            cold_starts.append(args)
            return original(*args)

        monkeypatch.setattr(simplex, "_cold_tableau", recording)
        child = solve_bounded_lp(system, lower, upper, warm_start=broken)
        assert len(cold_starts) == 1
        assert child.status == OPTIMAL
        assert child.objective == pytest.approx(-10.5)

    def test_nan_optimum_is_not_within_the_row_tolerance(self, monkeypatch):
        # the final row check must refuse a NaN point, not pass it
        def nan_values(tab, system):
            basis = original(tab, system)
            basis.values[0] = math.nan
            return basis

        original = _Tableau.warm_basis
        monkeypatch.setattr(_Tableau, "warm_basis", nan_values)
        with pytest.raises(SolverError, match="violates row 0"):
            solve_bounded_lp(lp_system([-1.0], [[1.0]], ["<="], [4.0]), [0.0], [10.0])

    @pytest.mark.parametrize(
        "field, value, match, warm",
        [
            ("objective", [math.nan], "objective must be finite", False),
            ("matrix", [[math.nan]], "matrix must be finite", False),
            ("matrix", [[-math.inf]], "matrix must be finite", False),
            *(
                (field, [math.nan], match, warm)
                for field, match in (
                    ("rhs", "rhs must be finite"),
                    ("lower", "bounds must not be NaN"),
                    ("upper", "bounds must not be NaN"),
                )
                for warm in (False, True)
            ),
            # no finite value lies at a lower bound of +inf or an upper
            # bound of -inf
            *(
                (field, [value], r"no lower bound may be \+inf and no upper bound -inf", warm)
                for field, value in (("lower", math.inf), ("upper", -math.inf))
                for warm in (False, True)
            ),
            # rows of another size or an unknown sense
            ("senses", ["<"], "unknown row sense '<'", False),
            ("matrix", [[1.0, 2.0]], "cannot reshape", False),
            ("rhs", [4.0, 5.0], "cannot reshape", False),
            # once read the extra lower bound as the slack's and returned
            # infeasible; bounds are one per column, cold or warm
            *(
                (field, [0.0, 5.0], r"one entry per column \(1\)", warm)
                for field in ("lower", "upper")
                for warm in (False, True)
            ),
        ],
    )
    def test_nan_input_is_rejected(self, field, value, match, warm):
        # once returned optimal -4.0 for a NaN lower bound, optimal NaN for a
        # NaN objective, and numpy's empty-argmin error for a NaN rhs. The
        # rows are checked once, by lp_system, so no solve, cold or warm,
        # can see a bad one; the bounds are checked by every solve
        rows = dict(objective=[-1.0], matrix=[[1.0]], senses=["<="], rhs=[4.0])
        box = dict(lower=[0.0], upper=[10.0])
        system = lp_system(**rows)
        start = solve_bounded_lp(system, **box).basis if warm else None
        with pytest.raises(ValueError, match=match):
            if field in rows:
                lp_system(**{**rows, field: value})
            else:
                solve_bounded_lp(system, **{**box, field: value}, warm_start=start)

    @pytest.mark.parametrize("warm", [False, True])
    @pytest.mark.parametrize("bound", [math.inf, -math.inf])
    def test_infinite_bound_pair_is_rejected(self, bound, warm):
        # [inf, inf] once returned optimal -4.0 at x = [4], outside its box
        system = lp_system([-1.0], [[1.0]], ["<="], [4.0])
        start = solve_bounded_lp(system, [0.0], [10.0]).basis if warm else None
        with pytest.raises(ValueError, match="no lower bound may be"):
            solve_bounded_lp(system, [bound], [bound], warm_start=start)

    @pytest.mark.parametrize("where", ["values", "tableau"])
    def test_replaced_basis_derives_its_own_start(self, monkeypatch, where):
        # the parent starts a child first, so its derived start exists
        # before the NaN copy is made; the copy must not inherit it
        system = lp_system(
            [-3.0, -2.0, -4.0], [[1.0, 1.0, 2.0], [2.0, 0.0, 3.0]], ["<=", "<="], [4.0, 5.0]
        )
        lower, upper = [0.0, 0.0, 0.0], [10.0, 10.0, 1.0]
        parent = solve_bounded_lp(system, lower, [10.0, 10.0, 10.0])
        first = solve_bounded_lp(system, lower, upper, warm_start=parent.basis)
        assert first.status == OPTIMAL
        if where == "values":
            values = parent.basis.values.copy()
            values[parent.basis.columns[0]] = math.nan
            broken = parent.basis._replace(values=values)
        else:
            stack = parent.basis.stack.copy()
            stack[0, 0] = math.nan
            broken = parent.basis._replace(stack=stack)
        assert not broken.start.finite and parent.basis.start.finite
        cold_starts = []
        original = simplex._cold_tableau

        def recording(*args):
            cold_starts.append(args)
            return original(*args)

        monkeypatch.setattr(simplex, "_cold_tableau", recording)
        child = solve_bounded_lp(system, lower, upper, warm_start=broken)
        assert len(cold_starts) == 1
        assert child.status == OPTIMAL
        assert child.objective == first.objective == pytest.approx(-10.5)

    def test_warm_start_from_another_system_is_rejected(self):
        # min -x0 over x0 + x1 <= 1 in [0, 1]^2; a warm start from that
        # optimum once solved min -x1 over the same rows as "optimal" 0.0,
        # carrying the first system's costs, where the optimum is -1.0
        a, senses, b, box = [[1.0, 1.0]], ["<="], [1.0], ([0.0, 0.0], [1.0, 1.0])
        parent = solve_bounded_lp(lp_system([-1.0, 0.0], a, senses, b), *box)
        other = lp_system([0.0, -1.0], a, senses, b)
        with pytest.raises(ValueError, match="another LpSystem"):
            solve_bounded_lp(other, *box, warm_start=parent.basis)
        # an equal system built anew is another system too
        with pytest.raises(ValueError, match="another LpSystem"):
            solve_bounded_lp(lp_system([-1.0, 0.0], a, senses, b), *box, warm_start=parent.basis)
        assert solve_bounded_lp(other, *box).objective == -1.0


def slack_tableau(a, b, c):
    """A tableau on the slack basis of a x <= b, x >= 0, with x at 0; the
    slacks take the values b, which may violate their lower bound 0."""
    a = np.asarray(a, dtype=float)
    m, n = a.shape
    return _Tableau(
        np.hstack([a, np.eye(m)]), np.asarray(b, dtype=float),
        [0.0] * (n + m), [math.inf] * (n + m), np.arange(n, n + m),
        np.array([_AT_LOWER] * n + [_BASIC] * m, dtype=np.int8), [0.0] * (n + m),
        np.asarray(b, dtype=float).tolist(), np.concatenate([c, np.zeros(m)]),
    )


def dual(tab, cap):
    """tab.dual with the directions of tab's own states."""
    side = _DIRECTION[tab.state].tolist()
    return tab.dual(cap, side, [j for j, s in enumerate(side) if s])


def numpy_leaving_row(xb, lb, ub):
    """Reference: the dual's leaving row as numpy's argmax picks it."""
    with np.errstate(invalid="ignore"):
        violation = np.maximum(np.array(lb) - xb, np.array(xb) - ub)
    r = int(violation.argmax())
    return r, float(violation[r])


def numpy_entering_column(side, g, d):
    """Reference: the Harris two-pass ratio test as numpy arrays compute it."""
    side, g, d = np.array(side), np.array(g), np.array(d)
    with np.errstate(invalid="ignore"):
        (cand,) = (side * g > _PIVOT_TOL).nonzero()
        if not cand.size:
            return None
        gc = g[cand]
        step = np.maximum(d[cand] / gc, 0.0)
        size = np.abs(gc)
        bound = (step + _COST_TOL / size).min()
    return int(cand[np.where(step <= bound, size, -1.0).argmax()])


# few distinct values, so exact ties are common; NaN and infinities too
TIE_VALUES = st.sampled_from(
    [0.0, -0.0, 1e-11, 0.25, -0.25, 1.0, -1.0, 2.0, math.inf, -math.inf, math.nan]
)


@st.composite
def scan_rows(draw):
    m = draw(st.integers(1, 8))
    row = st.lists(TIE_VALUES, min_size=m, max_size=m)
    return draw(row), draw(row), draw(row)


@st.composite
def scan_columns(draw):
    n = draw(st.integers(1, 12))
    side = draw(st.lists(st.sampled_from([0.0, 1.0, -1.0]), min_size=n, max_size=n))
    g = draw(st.lists(TIE_VALUES, min_size=n, max_size=n))
    d = draw(st.lists(TIE_VALUES, min_size=n, max_size=n))
    return side, g, d


class TestDualScans:
    """Tie and NaN rules of the dual's row scan and ratio test, which
    follow numpy's first-maximum argmax and NaN-propagating min."""

    @settings(max_examples=500, deadline=None, derandomize=True, database=None)
    @given(scan_rows())
    def test_leaving_row_matches_numpy(self, case):
        xb, lb, ub = case
        r, worst = _leaving_row(xb, lb, ub)
        ref_r, ref_worst = numpy_leaving_row(xb, lb, ub)
        assert r == ref_r
        assert worst == ref_worst or (math.isnan(worst) and math.isnan(ref_worst))

    @settings(max_examples=500, deadline=None, derandomize=True, database=None)
    @given(scan_columns())
    def test_entering_column_matches_numpy(self, case):
        side = case[0]
        movers = [j for j, s in enumerate(side) if s]
        assert _entering_column(movers, *case) == numpy_entering_column(*case)

    def test_equally_violated_rows_leave_first_row_first(self):
        # s_i = x_i - 1 for both rows, so both slacks sit exactly 1 below 0
        tab = slack_tableau([[-1.0, 0.0], [0.0, -1.0]], [-1.0, -1.0], [1.0, 1.0])
        with pytest.raises(_ColdRestart):
            dual(tab, 1)
        assert tab.basis.tolist() == [0, 3]

    def test_exact_harris_tie_enters_the_lower_column(self):
        # duplicate columns: equal dual steps and equal pivot sizes
        tab = slack_tableau([[-1.0, -1.0]], [-1.0], [1.0, 1.0])
        assert dual(tab, 10)
        assert tab.basis.tolist() == [0]
        assert tab.iterations == 1

    def test_nan_row_is_taken_as_the_most_violated(self):
        # row 1 is feasible, so skipping the NaN row would certify a
        # corrupt basis as primal feasible
        tab = slack_tableau([[-1.0, 0.0], [0.0, -1.0]], [-1.0, 0.5], [1.0, 1.0])
        tab.xb[0] = math.nan
        with pytest.raises(_ColdRestart):
            dual(tab, 50)


FIXTURE = """* hand-written instance covering every supported record
NAME          FIX1
ROWS
 N  COST
 L  CAP
 G  FLOOR
 E  LINK
COLUMNS
    MARKER                 'MARKER'                 'INTORG'
    X0        COST             2.0   CAP              1.0
    X0        LINK             1.0
    X1        CAP              3.0   FLOOR            1.0
    MARKER                 'MARKER'                 'INTEND'
    Y0        COST            -1.5   LINK            -1.0
RHS
    RHS       CAP              7.0   FLOOR            1.0
    RHS       LINK             0.0
BOUNDS
 UP BND       X0               4.0
 BV BND       X1
 MI BND       Y0
ENDATA
"""


class TestMps:
    def test_fixture_fields(self, tmp_path):
        path = tmp_path / "fix1.mps"
        path.write_text(FIXTURE)
        mip = load_mps(path)
        assert mip.name == "FIX1"
        assert mip.col_names == ("X0", "X1", "Y0")
        assert mip.row_names == ("CAP", "FLOOR", "LINK")
        assert mip.senses == ("<=", ">=", "=")
        assert mip.objective == (2.0, 0.0, -1.5)
        assert mip.matrix == ((1.0, 3.0, 0.0), (0.0, 1.0, 0.0), (1.0, 0.0, -1.0))
        assert mip.rhs == (7.0, 1.0, 0.0)
        assert mip.lower == (0.0, 0.0, -math.inf)
        assert mip.upper == (4.0, 1.0, math.inf)
        assert mip.integer == (True, True, False)

    @pytest.mark.parametrize(
        "mutation, match",
        [
            ("RANGES\n", "RANGES section is not supported"),
            ("GARBAGE\n", "unknown section"),
            (" X  BADROW\n", "unknown row type"),
            (" N  COST2\n", "multiple objective rows"),
            (" L  CAP\n", "duplicate row"),
        ],
    )
    def test_rows_section_errors(self, tmp_path, mutation, match):
        text = FIXTURE.replace(" E  LINK\n", " E  LINK\n" + mutation)
        path = tmp_path / "bad.mps"
        path.write_text(text)
        with pytest.raises(MpsError, match=match):
            load_mps(path)

    @pytest.mark.parametrize(
        "old, new, match",
        [
            ("    X0        LINK             1.0\n",
             "    X0        LINK             abc\n", "bad number"),
            ("    X0        LINK             1.0\n",
             "    X0        NOPE             1.0\n", "unknown row"),
            ("    X0        LINK             1.0\n",
             "    X0        LINK             1.0\n    X0        LINK   2.0\n",
             "duplicate entry"),
            ("    RHS       LINK             0.0\n",
             "    RHS       COST             5.0\n",
             "objective constants are not supported"),
            (" UP BND       X0               4.0\n",
             " UP BND       NOPE             4.0\n", "unknown column"),
            (" UP BND       X0               4.0\n",
             " UP BND       X0\n", "UP bound needs a value"),
            (" MI BND       Y0\n", " MI BND       Y0    3.0\n",
             "MI bound takes no value"),
            (" MI BND       Y0\n", " XX BND       Y0    3.0\n",
             "unknown bound type"),
        ],
    )
    def test_record_errors(self, tmp_path, old, new, match):
        path = tmp_path / "bad.mps"
        path.write_text(FIXTURE.replace(old, new))
        with pytest.raises(MpsError, match=match):
            load_mps(path)

    def test_error_carries_line_number(self, tmp_path):
        path = tmp_path / "bad.mps"
        path.write_text(FIXTURE.replace(" L  CAP\n", " X  CAP\n"))
        with pytest.raises(MpsError, match=rf"{path}:5: "):
            load_mps(path)

    def test_missing_endata(self, tmp_path):
        path = tmp_path / "bad.mps"
        path.write_text(FIXTURE.replace("ENDATA\n", ""))
        with pytest.raises(MpsError, match="missing ENDATA"):
            load_mps(path)

    def test_missing_objective_row(self, tmp_path):
        path = tmp_path / "bad.mps"
        path.write_text("NAME X\nROWS\n L  CAP\nCOLUMNS\nRHS\nENDATA\n")
        with pytest.raises(MpsError, match="no objective"):
            load_mps(path)

    def test_data_before_section(self, tmp_path):
        path = tmp_path / "bad.mps"
        path.write_text(" N  COST\nENDATA\n")
        with pytest.raises(MpsError, match="data before a section header"):
            load_mps(path)

    def test_non_utf8_file(self, tmp_path):
        path = tmp_path / "bad.mps"
        path.write_bytes(FIXTURE.encode().replace(b"COST", b"CO\xffT", 1))
        with pytest.raises(MpsError, match="not UTF-8 text"):
            load_mps(path)

    @pytest.mark.parametrize(
        "mip",
        [random_binary_mip(s) for s in range(1, 16)]
        + [sparse_multiknapsack(20, 12, s) for s in range(1, 11)]
        + [multiknapsack(12, 3, s) for s in range(1, 6)],
        ids=lambda m: m.name,
    )
    def test_roundtrip(self, tmp_path, mip):
        path = tmp_path / "rt.mps"
        save_mps(mip, path)
        assert load_mps(path) == mip

    def test_roundtrip_continuous_and_free(self, tmp_path):
        mip = build(
            [1.25, -3.5, 0.0, 7.0],
            [([1.0, 1.0, 1.0, 1.0], "<=", 10.0), ([1.0, 0.0, -2.0, 0.0], ">=", -4.0)],
            lower=(-math.inf, -2.0, 0.0, 1.5),
            upper=(math.inf, 2.0, 0.0, math.inf),
            integer=(False, True, False, True),
            name="MIXED",
        )
        path = tmp_path / "rt.mps"
        save_mps(mip, path)
        assert load_mps(path) == mip


class TestStrongBranching:
    def test_gains_match_child_resolve(self):
        mip = sparse_multiknapsack(20, 12, 1)
        c, a, senses, b, lo, hi = dense(mip)
        system = lp_system(c, a, senses, b)
        root = solve_bounded_lp(system, lo, hi)
        assert root.status == OPTIMAL
        fractional = [
            j for j in range(mip.n_cols)
            if min(root.x[j] % 1.0, 1.0 - root.x[j] % 1.0) > 1e-6
        ]
        assert len(fractional) >= 4
        for j in fractional[:4]:
            xj = float(root.x[j])
            ev = strong_branch_candidate(system, lo, hi, j, root)
            for side, new_lo, new_hi in (
                ("down", None, math.floor(xj)),
                ("up", math.ceil(xj), None),
            ):
                lo2, hi2 = lo.copy(), hi.copy()
                if new_hi is not None:
                    hi2[j] = new_hi
                if new_lo is not None:
                    lo2[j] = new_lo
                status, obj = linprog_lp(c, a, senses, b, lo2, hi2)
                gain = getattr(ev, f"{side}_gain")
                if status == "infeasible":
                    assert math.isinf(gain)
                else:
                    assert gain == pytest.approx(
                        max(obj - root.objective, 0.0), abs=1e-6
                    )

    def test_infeasible_side_reports_infinite_gain(self):
        # up child needs x0 >= 1 against the row 2 x0 <= 1
        system = lp_system([-1.0], [[2.0]], ["<="], [1.0])
        node = solve_bounded_lp(system, [0.0], [1.0])
        assert node.x.tolist() == [0.5] and node.objective == -0.5
        ev = strong_branch_candidate(system, [0.0], [1.0], 0, node)
        assert ev.down_gain == pytest.approx(0.5)
        assert ev.down_bound == pytest.approx(0.0)
        assert math.isinf(ev.up_gain) and math.isinf(ev.up_bound)

    def test_integral_candidate_rejected(self):
        system = lp_system([-1.0], [[2.0]], ["<="], [2.0])
        node = solve_bounded_lp(system, [0.0], [1.0])
        assert node.x.tolist() == [1.0]
        with pytest.raises(ValueError, match="integral"):
            strong_branch_candidate(system, [0.0], [1.0], 0, node)

    def test_capped_children_certify_no_bound(self, monkeypatch):
        monkeypatch.setattr(solver, "_CHILD_ITERATION_LIMIT", 1)
        mip = multiknapsack(12, 3, 1)
        *rows, lo, hi = dense(mip)
        system = lp_system(*rows)
        root = solve_bounded_lp(system, lo, hi)
        j = next(
            j for j in range(mip.n_cols)
            if min(root.x[j] % 1.0, 1.0 - root.x[j] % 1.0) > 1e-6
        )
        # children started cold, which one pivot cannot finish
        ev = strong_branch_candidate(system, lo, hi, j, dataclasses.replace(root, basis=None))
        assert ev.down_bound == pytest.approx(root.objective)
        assert ev.up_bound == pytest.approx(root.objective)
        assert math.isfinite(ev.down_gain) and ev.down_gain >= 0.0
        assert math.isfinite(ev.up_gain) and ev.up_gain >= 0.0


class TestPseudocost:
    def test_means_and_reliability(self):
        pc = Pseudocost(2, threshold=2)
        pc.update(0, 2.0, 4.0)
        pc.update(0, 4.0, None)
        assert not pc.reliable(0)
        pc.update(0, None, 4.0)
        assert pc.reliable(0)
        assert pc.predicted_gains(0, 0.25) == pytest.approx((0.75, 3.0))
        assert pc.predicted_score(0, 0.25) == pytest.approx(1.5, rel=1e-5)

    def test_fallback_chain(self):
        pc = Pseudocost(2)
        assert pc.predicted_gains(1, 0.5) == pytest.approx((0.5, 0.5))
        pc.update(0, 2.0, 6.0)
        assert pc.predicted_gains(1, 0.5) == pytest.approx((1.0, 3.0))

    def test_log_replays_to_same_averages(self):
        rng = np.random.default_rng(5)
        pc = RecordingPseudocost(4, threshold=3)
        for _ in range(30):
            j = int(rng.integers(0, 4))
            down = float(rng.random()) if rng.random() < 0.8 else None
            up = float(rng.random()) if rng.random() < 0.8 else None
            pc.update(j, down, up)
        replay = Pseudocost(4, threshold=3)
        for j, down, up in pc.calls:
            replay.update(j, down, up)
        assert np.array_equal(replay.down_sum, pc.down_sum)
        assert np.array_equal(replay.up_sum, pc.up_sum)
        assert np.array_equal(replay.down_count, pc.down_count)
        assert np.array_equal(replay.up_count, pc.up_count)

    def test_rejects_bad_gains(self):
        pc = Pseudocost(1)
        with pytest.raises(ValueError):
            pc.update(0, -0.1, None)
        with pytest.raises(ValueError):
            pc.update(0, None, math.inf)


def run_select(mip, pseudocost=None, config=None, candidates=None, gap=None):
    *rows, lo, hi = dense(mip)
    system = lp_system(*rows)
    res = solve_bounded_lp(system, lo, hi)
    assert res.status == OPTIMAL
    pseudocost = pseudocost or Pseudocost(mip.n_cols, threshold=2)
    config = config or SolverConfig()
    if candidates is None:
        candidates = [
            j for j, flag in enumerate(mip.integer)
            if flag and min(res.x[j] % 1.0, 1.0 - res.x[j] % 1.0) > 1e-6
        ]
    outcome = select_branching_variable(
        system, lo, hi, res, candidates, pseudocost, GainAccumulator(), config, gap
    )
    return outcome, pseudocost, res


class TestSelect:
    def test_all_reliable_uses_pseudocosts_only(self):
        mip = build([-3.0, -2.0], [([1.0, 1.0], "<=", 1.0)], upper=0.5, integer=True)
        pc = Pseudocost(2, threshold=2)
        for _ in range(2):
            pc.update(0, 4.0, 4.0)
            pc.update(1, 1.0, 1.0)
        outcome, _, _ = run_select(mip, pseudocost=pc, candidates=[0, 1])
        assert outcome.reason == PSEUDOCOST_ONLY
        assert outcome.column == 0
        assert outcome.reveals == 0 and outcome.sb_lp_solves == 0

    def test_single_candidate_scan(self):
        mip = build([-1.0, -1.0], [([2.0, 0.0], "<=", 1.0)], upper=1.0, integer=(True, False))
        outcome, pc, res = run_select(mip, pseudocost=RecordingPseudocost(2))
        assert outcome.column == 0
        assert outcome.reason == CUTOFF_FOUND  # up child is infeasible
        assert outcome.reveals == 1 and outcome.sb_lp_solves == 2
        # the chosen SbEval: a finite down gain, the up side cut off
        assert outcome.chosen.down_gain == pytest.approx(0.5)
        assert math.isinf(outcome.chosen.up_gain)
        assert pc.calls == [(0, pytest.approx(1.0), None)]

    def test_a_per_unit_gain_past_the_float_range_is_a_solver_error(self, monkeypatch):
        # x0 = 0.5, so a down gain of 1e308 is 2e308 per unit
        mip = build([-1.0, -1.0], [([2.0, 0.0], "<=", 1.0)], upper=1.0, integer=(True, False))
        huge = solver.SbEval(1e308, 1.0, 0.0, 0.0, 1, (None, None))
        monkeypatch.setattr(solver, "strong_branch_candidate", lambda *args, **kwargs: huge)
        with pytest.raises(SolverError, match="per-unit gain of column 0 overflows"):
            run_select(mip)

    def test_cutoff_both_sides_marks_node_infeasible(self, monkeypatch):
        mip = build([-1.0], [([2.0], "=", 1.0)], upper=1.0, integer=True)
        outcome, pc, _ = run_select(mip, pseudocost=RecordingPseudocost(1))
        assert outcome.reason == CUTOFF_FOUND
        assert math.isinf(outcome.chosen.down_gain) and math.isinf(outcome.chosen.up_gain)
        assert pc.calls == []
        # both sides are infinite bounds, so the solve queues no child
        pushed = []

        def push(heap, entry):
            pushed.append(entry)

        monkeypatch.setattr(
            solver, "heapq", SimpleNamespace(heappush=push, heappop=heapq.heappop)
        )
        res = solve(mip)
        assert res.status == INFEASIBLE and res.nodes == 1 and pushed == []
        assert [d.reason for d in res.decisions] == [CUTOFF_FOUND]

    def test_only_an_armed_scan_gives_its_session_a_gap(self, monkeypatch):
        """A fixed-mode scan, and a dynamic one before any target bound
        exists, opens its SbSession with gap None, so d_min stays
        unbounded; an armed scan tracks d_min from its positive gap."""
        sessions = []

        def recording(**kwargs):
            sessions.append(lookahead.SbSession(**kwargs))
            return sessions[-1]

        monkeypatch.setattr(solver, "SbSession", recording)
        mip = sparse_multiknapsack(20, 12, 3)
        for mode in ("fixed", "dynamic"):
            sessions.clear()
            solve(mip, SolverConfig(mode=mode))
            armed = [s for s in sessions if s.gap is not None]
            assert sessions and all(math.isinf(s.d_min) for s in sessions if s.gap is None)
            assert all(s.gap > 0 for s in armed)
            assert (mode == "dynamic") == any(math.isfinite(s.d_min) for s in armed)

    def test_budget_stop(self):
        mip = sparse_multiknapsack(20, 12, 3)
        config = SolverConfig(fixed=FixedLookaheadConfig(K=0))
        *rows, lo, hi = dense(mip)
        system = lp_system(*rows)
        res = solve_bounded_lp(system, lo, hi)
        candidates = [
            j for j in range(mip.n_cols)
            if min(res.x[j] % 1.0, 1.0 - res.x[j] % 1.0) > 1e-6
        ]
        assert len(candidates) >= 2
        outcome = select_branching_variable(
            system, lo, hi, dataclasses.replace(res, iterations=0),
            candidates, Pseudocost(mip.n_cols), GainAccumulator(), config,
        )
        assert outcome.reason == BUDGET_EXHAUSTED
        assert outcome.reveals == 1

    def test_max_scan_excludes_unscanned(self, monkeypatch):
        from pvb.mini_bnb import solver

        monkeypatch.setattr(solver, "MAX_SB_CANDIDATES", 1)
        mip = build(
            [-1.0, -1.0, -1.0],
            [([2.0, 2.0, 2.0], "<=", 3.0)],
            upper=0.6,
            integer=True,
        )
        outcome, _, _ = run_select(mip)
        assert outcome.reveals == 1
        assert outcome.column == 0

    def test_candidates_exhausted_is_default(self):
        mip = sparse_multiknapsack(20, 12, 4)
        outcome, _, _ = run_select(mip)
        assert outcome.reason == CANDIDATES_EXHAUSTED
        assert outcome.reveals >= 2


def assert_matches_enumeration(mip, config):
    res = solve(mip, config)
    c, a, senses, b, _, _ = dense(mip)
    best = enumerate_binary_mip(c, a, senses, b)
    if best is None:
        assert res.status == "infeasible"
        assert res.objective is None and math.isinf(res.bound)
    else:
        assert res.status == "optimal"
        assert res.objective == pytest.approx(best, abs=1e-6)
        assert res.x is not None
        lhs = a @ np.asarray(res.x)
        for i, s in enumerate(senses):
            if s == "<=":
                assert lhs[i] <= b[i] + 1e-6
            elif s == ">=":
                assert lhs[i] >= b[i] - 1e-6
            else:
                assert lhs[i] == pytest.approx(b[i], abs=1e-6)
    return res


FIXED = SolverConfig(mode="fixed")
DYNAMIC = SolverConfig(mode="dynamic")


@pytest.mark.parametrize("epsilon", [0.0, -1e-6, math.nan, math.inf])
def test_solver_config_rejects_a_nonpositive_or_infinite_epsilon(epsilon):
    # the shift is gains.DEFAULT_EPSILON, the one gain files are read
    # with, so no epsilon is a field any more
    with pytest.raises(TypeError, match="epsilon"):
        SolverConfig(epsilon=epsilon)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"reliability_threshold": math.nan},
        {"reliability_threshold": 2.5},
        {"node_limit": math.nan},
        {"node_limit": 10.0},
    ],
)
def test_solver_config_refuses_non_integer_counts(kwargs):
    with pytest.raises(ValueError, match="must be an integer"):
        SolverConfig(**kwargs)


@pytest.mark.parametrize("mode", ["fixed", "dynamic"])
def test_the_scan_asks_should_continue_through_its_module_global(monkeypatch, mode):
    """A stand-in for solver.should_continue taking exactly (session, fixed,
    prob, dist), positionally, sees every scan decision: the config's own
    limits, prob only where the dynamic rule is armed, and the node's share
    of unreliable candidates on the session."""
    config = SolverConfig(mode=mode)
    decide, select = solver.should_continue, solver.select_branching_variable
    scans, asked = [], []

    def opening(*args):
        candidates, pseudocost, gap = args[4], args[5], args[8]
        unreliable = sum(not pseudocost.reliable(j) for j in candidates)
        scans.append((unreliable / len(candidates), gap))
        return select(*args)

    def spy(session, fixed, prob, dist, /):
        share, gap = scans[-1]
        armed = mode == "dynamic" and gap is not None and gap > 0.0
        assert fixed is config.fixed
        assert prob is (config.prob if armed else None)
        assert session.uninit_fraction == share
        asked.append(armed)
        return decide(session, fixed, prob, dist)

    monkeypatch.setattr(solver, "select_branching_variable", opening)
    monkeypatch.setattr(solver, "should_continue", spy)
    res = solve(toy_corpus(1)[0], config)
    # every reveal but a cutoff's is asked about
    cutoffs = sum(d.reason == CUTOFF_FOUND for d in res.decisions)
    assert res.status == OPTIMAL and len(asked) == res.sb_lp_solves // 2 - cutoffs
    assert any(asked) == (mode == "dynamic")


class TestSolve:
    def test_pure_lp_is_one_node(self):
        mip = build([-1.0, -1.0], [([1.0, 1.0], "<=", 5.0)], integer=False)
        res = solve(mip)
        assert res.status == "optimal"
        assert res.objective == pytest.approx(-5.0)
        assert res.nodes == 1 and res.sb_lp_solves == 0
        assert res.decisions == ()
        # the shapes of an MPS file with no column or no constraint row;
        # the 0 x 0 model once ended in an internal error of the LP engine
        for objective, rows, optimum in (
            ([], [], 0.0),
            ([], [([], "<=", 1.0), ([], ">=", -1.0)], 0.0),
            ([-1.0, 2.0], [], -4.0),
        ):
            for mode in ("fixed", "dynamic"):
                mip = build(objective, rows, upper=4.0, integer=False)
                res = solve(mip, SolverConfig(mode=mode))
                assert res.status == "optimal"
                assert res.objective == optimum and res.bound == optimum
                assert res.nodes == 1 and res.sb_lp_solves == 0
                assert res.decisions == ()

    def test_parity_instance_is_infeasible(self):
        mip = build(
            [-1.0, -1.0, -1.0], [([2.0, 2.0, 2.0], "=", 3.0)], upper=1.0,
            integer=True,
        )
        res = solve(mip)
        assert res.status == "infeasible"
        assert res.objective is None and res.x is None
        assert math.isinf(res.bound) and res.bound > 0

    def test_unbounded_root(self):
        mip = build([-1.0, 0.0], [([0.0, 1.0], "<=", 1.0)], integer=True)
        res = solve(mip)
        assert res.status == "unbounded"
        assert res.bound == -math.inf and res.objective is None

    def test_node_limit(self):
        mip = sparse_multiknapsack(20, 12, 1)
        full = solve(mip, FIXED)
        capped = solve(
            mip,
            SolverConfig(node_limit=3),
        )
        assert full.status == "optimal"
        assert capped.status == NODE_LIMIT
        assert capped.nodes <= 3
        assert capped.bound <= full.objective + 1e-9

    @pytest.mark.parametrize("seed", range(1, 6))
    def test_knapsack_matches_enumeration(self, seed):
        mip = multiknapsack(12, 3, seed)
        for config in (FIXED, DYNAMIC):
            assert_matches_enumeration(mip, config)

    @pytest.mark.parametrize("seed", range(1000, 1060))
    def test_random_mips_match_enumeration(self, seed):
        mip = random_binary_mip(seed)
        for config in (FIXED, DYNAMIC):
            assert_matches_enumeration(mip, config)

    def test_streak_cap_binds_at_tiny_lookahead(self):
        config = SolverConfig(
            fixed=FixedLookaheadConfig(L=1), reliability_threshold=12
        )
        res = solve(sparse_multiknapsack(20, 12, 1), config)
        assert any(d.reason == LOOKAHEAD_EXHAUSTED for d in res.decisions)

    def test_gated_dynamic_is_decision_identical_to_fixed(self):
        gated = SolverConfig(
            mode="dynamic",
            prob=ProbLookaheadConfig(min_nonzero_samples=10**9),
        )
        for seed in (1, 5, 9):
            mip = sparse_multiknapsack(20, 12, seed)
            rf = solve(mip, FIXED)
            rd = solve(mip, gated)
            assert rf.decisions == rd.decisions
            assert rf.nodes == rd.nodes
            assert rf.sb_lp_solves == rd.sb_lp_solves
            assert rf.objective == rd.objective

    def test_dynamic_saves_sb_lps_on_corpus_prefix(self):
        fixed_cfg = SolverConfig(mode="fixed", reliability_threshold=12)
        dyn_cfg = SolverConfig(mode="dynamic", reliability_threshold=12)
        fixed_sb, dyn_sb, fires = [], [], 0
        for mip in toy_corpus(12):
            rf = solve(mip, fixed_cfg)
            rd = solve(mip, dyn_cfg)
            assert rf.objective == pytest.approx(rd.objective, abs=1e-6)
            fixed_sb.append(rf.sb_lp_solves)
            dyn_sb.append(rd.sb_lp_solves)
            fires += sum(
                1 for d in rd.decisions if d.reason == NO_EXPECTED_IMPROVEMENT
            )
        assert fires > 0
        assert geomean(dyn_sb, GEO_SHIFT_LPS) < geomean(fixed_sb, GEO_SHIFT_LPS)

    @pytest.mark.parametrize("seed", [3, 17, 19])
    def test_node_count_ignores_row_and_column_order(self, seed):
        # after a permutation, node bounds that are equal in exact
        # arithmetic differ in the last ulp; the tolerant best-bound order
        # still takes them in queue order
        mip = sparse_multiknapsack(20, 12, 1, density=0.5)
        config = SolverConfig(mode="dynamic", reliability_threshold=12)
        for instance in (mip, permute(mip, seed)):
            res = solve(instance, config)
            assert res.nodes == 250
            assert res.objective == pytest.approx(-552.0, abs=1e-9)

    def test_mps_pipeline_preserves_solve(self, tmp_path):
        mip = sparse_multiknapsack(20, 12, 2)
        path = tmp_path / "inst.mps"
        save_mps(mip, path)
        direct = solve(mip, FIXED)
        loaded = solve(load_mps(path), FIXED)
        assert loaded == direct

    @pytest.mark.parametrize("mode", ["fixed", "dynamic"])
    def test_overflowing_pivot_is_a_solver_error(self, mode):
        # objective coefficients near the float limit overflow a tableau
        # update, and HiGHS reports a numerical failure on this instance,
        # so an "optimal" answer here would be a wrong one
        mip = random_binary_mip(206)
        scale = 10.0 ** np.random.default_rng(206).uniform(140, 307, mip.n_cols)
        objective = np.asarray(mip.objective) * scale
        assert np.isfinite(objective).all()
        mip = dataclasses.replace(mip, objective=tuple(objective.tolist()))
        with pytest.raises(SolverError, match="LP arithmetic overflows"):
            solve(mip, SolverConfig(mode=mode))


class TestSolveCache:
    """Cells of a sweep solve one MIP through one SolveCache: each gets the
    MipResult it gets alone, and the LPs it shares with the cells before it
    are not solved again."""

    CELLS = [
        (mode, FixedLookaheadConfig(L=L)) for mode in ("fixed", "dynamic") for L in (7, 9)
    ]

    @pytest.fixture
    def counted(self, monkeypatch):
        """Count solve_bounded_lp and strong_branch_candidate calls."""
        calls = {"lp": 0, "sb": 0}
        originals = solver.solve_bounded_lp, solver.strong_branch_candidate

        def counting(key, original):
            def wrapper(*args, **kwargs):
                calls[key] += 1
                return original(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(solver, "solve_bounded_lp", counting("lp", originals[0]))
        monkeypatch.setattr(solver, "strong_branch_candidate", counting("sb", originals[1]))
        return calls

    @pytest.mark.parametrize("threshold", [2, 12])
    def test_cells_through_one_cache_match_their_uncached_solves(self, counted, threshold):
        configs = [
            SolverConfig(mode=mode, fixed=fixed, reliability_threshold=threshold)
            for mode, fixed in self.CELLS
        ]
        for mip in toy_corpus(4):
            cache = SolveCache(mip)
            for i, config in enumerate(configs):
                counted.update(lp=0, sb=0)
                alone = solve(mip, config)
                uncached = dict(counted)
                counted.update(lp=0, sb=0)
                assert solve(mip, config, cache) == alone, (mip.name, config)
                if i == 0:
                    # an empty cache serves nothing
                    assert counted == uncached
                else:
                    assert counted["lp"] < uncached["lp"]
                    assert counted["sb"] < uncached["sb"]

    @pytest.mark.parametrize("bound", [1, 6])
    def test_a_full_cache_holds_no_more_nodes_and_changes_no_result(self, monkeypatch, bound):
        """With the bound at a handful of nodes, a fixed and a dynamic cell
        through one cache return their uncached MipResults; the cache stops
        storing nodes at the bound and numbering new paths there, and a
        node without a number keeps its measurements to itself."""
        monkeypatch.setattr(solver, "CACHE_NODES", bound)

        class Bounded(dict):
            def __setitem__(self, key, value):
                assert key in self or len(self) < bound
                super().__setitem__(key, value)

        configs = [SolverConfig(mode=mode) for mode in ("fixed", "dynamic")]
        for mip in toy_corpus(3):
            cache = SolveCache(mip)
            cache.nodes = Bounded()
            for config in configs:
                assert solve(mip, config, cache) == solve(mip, config), (mip.name, config)
            assert len(cache.nodes) == bound
            assert len(cache.ids) <= 2 * bound
            assert None not in cache.evals

    def test_a_cache_serves_only_its_own_mip(self):
        mip = sparse_multiknapsack(14, 8, 1)
        twin = sparse_multiknapsack(14, 8, 1)
        with pytest.raises(ValueError, match="another MiniMip"):
            solve(twin, SolverConfig(), SolveCache(mip))


class TestSolveGolden:
    """Pinned results of solve() on the first eight corpus instances, both
    modes: status, objective, x, node and SB counts and every branching
    decision with its SB and node pivot counts.

    The digests were taken before the dual simplex scanned rows and ratio
    tested columns on Python floats; any change to a pivot, an objective
    bit or a branching decision moves them. They also depend on the
    rounding of the BLAS matrix-vector product that forms the dual's
    pivot row.
    """

    GOLDEN = {
        2: "545c9393c0faadce19c9e516cce31af1fed6b66c1873275646cdf984de712b36",
        12: "6b6ac12e01bc7f3d9d1cf4ad69a90bb35411a6eeeb2c1e1d74c130d697cb6e12",
    }

    @pytest.mark.parametrize("threshold", list(GOLDEN))
    def test_results_match_pinned_digest(self, threshold):
        rows = []
        for mip in toy_corpus(8):
            for mode in ("fixed", "dynamic"):
                res = solve(mip, SolverConfig(mode=mode, reliability_threshold=threshold))
                rows.append((
                    res.status, repr(res.objective), res.x, res.nodes,
                    res.sb_lp_solves, res.sb_iterations, res.decisions,
                ))
        assert hashlib.sha256(repr(rows).encode()).hexdigest() == self.GOLDEN[threshold]

    def test_a_dynamic_solve_that_runs_the_expected_size_test(self, monkeypatch):
        """No corpus solve above passes the streak gate of the dynamic
        rule, so none reaches the expected-size test. This one tests six
        rows and stops two of its scans there."""
        tested = []
        verdict = lookahead._tested_stops

        def spy(gap, depth, p0, family, theta):
            stops = verdict(gap, depth, p0, family, theta)
            tested.extend(stops.tolist())
            return stops

        monkeypatch.setattr(lookahead, "_tested_stops", spy)
        config = SolverConfig(mode="dynamic", reliability_threshold=12, node_limit=100)
        res = solve(sparse_multiknapsack(60, 30, 1), config)
        assert (res.status, res.nodes, res.sb_lp_solves) == (NODE_LIMIT, 100, 846)
        assert (len(tested), sum(tested)) == (6, 2)
        row = (
            res.status, repr(res.objective), res.x, res.nodes,
            res.sb_lp_solves, res.sb_iterations, res.decisions,
        )
        assert hashlib.sha256(repr(row).encode()).hexdigest() == (
            "741008e5dfcb6c68515061812e65384cc37740bc2b6a82fb7284f99caabf6843"
        )


def lp_row(res):
    """Status, objective bits, point bits, pivots and basic columns of one
    LP result."""
    return (
        res.status, repr(res.objective), None if res.x is None else res.x.tobytes(),
        res.iterations, None if res.basis is None else res.basis.columns.tobytes(),
    )


def api_warm_starts():
    """Warm starts from the root of each of toy_corpus(4): bounds that move
    one nonbasic column to its other bound, several, every one, none, a
    basic column, and a basic column with nonbasic ones. A start that
    moves a nonbasic value solves cold."""
    for mip in toy_corpus(4):
        *rows, lo, hi = dense(mip)
        system = lp_system(*rows)
        root = solve_bounded_lp(system, lo, hi)
        state = root.basis.state[: mip.n_cols]
        nonbasic = np.flatnonzero(state != _BASIC).tolist()
        basic = np.flatnonzero(state == _BASIC).tolist()
        moves = [
            *([j] for j in nonbasic[:4]), nonbasic[:2], nonbasic[:5], nonbasic, [],
            *([j] for j in basic[:3]), basic[:1] + nonbasic[:2],
        ]
        for cols in moves:
            lo2, hi2 = lo.copy(), hi.copy()
            for j in cols:
                if state[j] == _AT_LOWER:
                    lo2[j] = hi[j]
                elif state[j] == _AT_UPPER:
                    hi2[j] = lo[j]
                else:
                    hi2[j] = math.floor(root.x[j])
            yield system, lo2, hi2, root.basis


class TestWarmLpGolden:
    """Pinned results of single LPs, bit for bit: every solve_bounded_lp
    call that solve() makes on the first eight corpus instances, both
    modes, and warm starts through the API whose bound changes move
    nonbasic columns (the child then solves cold) or only basic ones (it
    starts from the parent's vertex). Like TestSolveGolden, the digests
    depend on the BLAS rounding of the products the engine forms.
    """

    GOLDEN = {
        2: "a1865cafa5c17b49fcea106b30f9908094e8e3a91fbec1f60b0e15931f832a97",
        12: "e790bee2661f3ffe41f2bfd6ccf205103ab8187c910b84ce99b29f9662636996",
        "api": "9d16cef52903659efb4d006b22ff2b5cec198479cd628de18d211a50504fae58",
    }

    @pytest.mark.parametrize("threshold", [2, 12])
    def test_solver_lps_match_pinned_digest(self, monkeypatch, threshold):
        from pvb.mini_bnb import solver

        digest = hashlib.sha256()
        original = solver.solve_bounded_lp

        def recording(*args, **kwargs):
            res = original(*args, **kwargs)
            digest.update(repr(lp_row(res)).encode())
            return res

        monkeypatch.setattr(solver, "solve_bounded_lp", recording)
        for mip in toy_corpus(8):
            for mode in ("fixed", "dynamic"):
                solve(mip, SolverConfig(mode=mode, reliability_threshold=threshold))
        assert digest.hexdigest() == self.GOLDEN[threshold]

    def test_api_warm_starts_match_pinned_digest(self):
        rows = []
        moved = 0
        for system, lo, hi, basis in api_warm_starts():
            row = lp_row(solve_bounded_lp(system, lo, hi, warm_start=basis))
            n = len(lo)
            state, values = basis.state[:n], basis.values[:n]
            nonbasic = state != _BASIC
            at = np.where(state == _AT_UPPER, hi, lo)
            if (at[nonbasic] != values[nonbasic]).any():
                moved += 1
                assert row == lp_row(solve_bounded_lp(system, lo, hi))
            rows.append(row)
        assert 0 < moved < len(rows)
        assert hashlib.sha256(repr(rows).encode()).hexdigest() == self.GOLDEN["api"]


class TestCorpus:
    def test_toy_corpus_shape(self):
        corpus = toy_corpus()
        assert len(corpus) == 50
        assert len({m.name for m in corpus}) == 50
        assert corpus == toy_corpus()
        sample = corpus[0]
        assert all(sample.integer)
        assert all(s == "<=" for s in sample.senses)

    def test_generator_validation(self):
        with pytest.raises(ValueError):
            multiknapsack(0, 3, 1)
        with pytest.raises(ValueError):
            multiknapsack(5, 3, 1, tightness=1.0)
        with pytest.raises(ValueError):
            sparse_multiknapsack(5, 3, 1, density=0.0)
        with pytest.raises(ValueError):
            random_binary_mip(1, max_items=1)
        with pytest.raises(ValueError):
            toy_corpus(0)
