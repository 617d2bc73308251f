"""Whole MIP solves against HiGHS, with pvb's answer checked on its own.

Each drawn MIP has at most 6 columns and 5 rows. Columns are general
integer or continuous, and boxed, negative (bounded above only), bounded
below or free; rows include equalities, and some are scaled by 1e-2 or
1e2. Most MIPs are built around an integer point, so they are feasible;
the rest take random right-hand sides and are often infeasible.

Every MIP is solved in both modes at reliability thresholds 2 and 12,
alone and through one SolveCache shared by the four cells, and each
result is held to scipy.optimize.milp's verdict. An optimal incumbent is
also checked against the rows, bounds and integrality by
oracles.mip_point_violation, which does not import pvb.

Branch and bound need not end when the LP region leaves an integer
column unbounded, so every solve has a node limit; a result that reaches
it must still report a bound no solution beats.
"""

import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from pvb.mini_bnb import SolveCache, SolverConfig, solve

from oracles import linprog_lp, milp_mip, mip_point_violation
from test_mini_bnb import build

KINDS = ("boxed", "negative", "below", "free")
NODE_LIMIT = 20_000


def column_bounds(kind, draw):
    if kind == "boxed":
        lo = draw(st.integers(-4, 2))
        return float(lo), float(lo + draw(st.integers(0, 5)))
    if kind == "negative":
        return -math.inf, float(draw(st.integers(-3, 0)))
    if kind == "below":
        return float(draw(st.integers(-3, 2))), math.inf
    return -math.inf, math.inf


@st.composite
def small_mips(draw):
    n = draw(st.integers(1, 6))
    m = draw(st.integers(1, 5))
    kinds = [draw(st.sampled_from(KINDS)) for _ in range(n)]
    lower, upper = zip(*(column_bounds(kind, draw) for kind in kinds))
    integer = [draw(st.booleans()) for _ in range(n)]
    # an integer point in the box: a draw from [-4, 4] moved into it
    x0 = [min(max(float(draw(st.integers(-4, 4))), lo), hi) for lo, hi in zip(lower, upper)]
    around_point = draw(st.integers(0, 4)) > 0
    a, senses, rhs = [], [], []
    for _ in range(m):
        row = [float(draw(st.sampled_from((0, 0, -4, -3, -2, -1, 1, 2, 3, 4)))) for _ in range(n)]
        sense = draw(st.sampled_from(("<=", "<=", ">=", "=")))
        if around_point:
            b = math.fsum(v * x for v, x in zip(row, x0))
            slack = float(draw(st.integers(0, 3)))
            b += slack if sense == "<=" else -slack if sense == ">=" else 0.0
        else:
            b = float(draw(st.integers(-6, 6)))
        scale = draw(st.sampled_from((1.0, 1.0, 1e-2, 1e2)))
        a.append([v * scale for v in row])
        senses.append(sense)
        rhs.append(b * scale)
    # a cost that pushes a one-sided column against its bound, so that
    # most LPs are bounded
    c = []
    for kind in kinds:
        cost = float(draw(st.integers(-5, 5)))
        c.append(abs(cost) if kind == "below" else -abs(cost) if kind == "negative" else cost)
    return c, a, senses, rhs, list(lower), list(upper), integer


def check_result(result, reference, case):
    c, a, senses, rhs, lower, upper, integer = case
    if reference is None:
        # the LP relaxation is unbounded, which the root LP reports
        assert result.status == "unbounded"
        return
    ref_status, ref_objective = reference
    assert result.status in ("optimal", "infeasible", "node_limit"), result.status
    if result.x is not None:
        violation = mip_point_violation(result.x, a, senses, rhs, lower, upper, integer)
        assert violation is None, violation
        assert result.objective == pytest.approx(
            math.fsum(v * x for v, x in zip(c, result.x)), rel=1e-6, abs=1e-6
        )
    if result.status == "node_limit":
        # the bound is one no solution beats, and the incumbent a solution
        if ref_status == "optimal":
            assert result.bound <= ref_objective + 1e-6 * max(1.0, abs(ref_objective))
            if result.objective is not None:
                assert result.objective >= ref_objective - 1e-6 * max(1.0, abs(ref_objective))
        else:
            assert result.objective is None
        return
    assert result.status == ref_status
    if ref_status == "optimal":
        assert result.objective == pytest.approx(ref_objective, rel=1e-6, abs=1e-6)


@pytest.mark.parametrize("mode", ["fixed", "dynamic"])
def test_a_tree_that_cannot_close_reports_a_valid_bound(mode):
    # min z s.t. 2x - 2y + z = 1, x and y free integers, z in [0, 1]: the
    # optimum is z = 1 at x = y, but every node's LP reaches z = 0 by
    # moving x and y together, so the tree never closes
    case = (
        [0.0, 0.0, 1.0], [[2.0, -2.0, 1.0]], ["="], [1.0],
        [-math.inf, -math.inf, 0.0], [math.inf, math.inf, 1.0], [True, True, False],
    )
    c, a, senses, rhs, lower, upper, integer = case
    assert milp_mip(*case) == ("optimal", 1.0)
    mip = build(c, list(zip(a, senses, rhs)), lower, upper, integer)
    result = solve(mip, SolverConfig(mode=mode, node_limit=2000))
    assert result.status == "node_limit" and result.nodes == 2000
    check_result(result, ("optimal", 1.0), case)


@pytest.mark.parametrize(
    "case, objective",
    [
        (
            (
                [2.0, -2.0, 2.0],
                [
                    [400.0, -400.0, 200.0], [0.04, -0.01, 0.04], [4.0, 2.0, -3.0],
                    [-300.0, -200.0, -400.0], [400.0, 100.0, -400.0],
                ],
                ["=", "<=", ">=", "<=", "<="], [200.0, 0.02, 7.0, 100.0, 1000.0],
                [1.0, 0.0, -2.0], [math.inf, 2.0, math.inf], [True, True, False],
            ),
            0.0,
        ),
        (
            (
                [4.0, 0.0, 1.0, -5.0, 2.0, 2.0], [[4.0, 3.0, -4.0, 3.0, -3.0, 0.0]], ["="], [-20.0],
                [-3.0, -math.inf, 0.0, -math.inf, -3.0, -3.0],
                [-2.0, math.inf, 5.0, -1.0, math.inf, math.inf],
                [False, True, True, False, False, False],
            ),
            -18.0,
        ),
    ],
    ids=["presolve-infeasible", "presolve-infeasible-or-unbounded"],
)
def test_a_presolve_verdict_is_checked_without_presolve(case, objective):
    """Two feasible small_mips draws (random.Random seeds 7433 and 2082 of
    0..9999 fed to its draws) that HiGHS presolve in scipy 1.17 calls
    infeasible (milp status 2) and infeasible or unbounded (status 4).
    oracles.milp_mip re-solves both without presolve and finds the
    optimum, which pvb reaches at a point mip_point_violation accepts."""
    assert milp_mip(*case) == ("optimal", objective)
    c, a, senses, rhs, lower, upper, integer = case
    mip = build(c, list(zip(a, senses, rhs)), lower, upper, integer)
    for mode in ("fixed", "dynamic"):
        result = solve(mip, SolverConfig(mode=mode, node_limit=NODE_LIMIT))
        assert result.status == "optimal"
        check_result(result, ("optimal", objective), case)


@settings(
    max_examples=400, deadline=None, derandomize=True, database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(small_mips())
def test_mip_solves_match_highs(case):
    c, a, senses, rhs, lower, upper, integer = case
    mip = build(c, list(zip(a, senses, rhs)), lower, upper, integer)
    if linprog_lp(c, a, senses, rhs, lower, upper)[0] == "unbounded":
        reference = None
    else:
        reference = milp_mip(c, a, senses, rhs, lower, upper, integer)
    cache = SolveCache(mip)
    for mode in ("fixed", "dynamic"):
        for threshold in (2, 12):
            config = SolverConfig(
                mode=mode, reliability_threshold=threshold, node_limit=NODE_LIMIT
            )
            result = solve(mip, config)
            assert solve(mip, config, cache) == result, (mode, threshold)
            check_result(result, reference, case)
