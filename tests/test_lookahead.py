"""Stopping-rule tests.

Covers the working-limit formulas, the stop/continue cost comparison
against Monte-Carlo estimates, the saving form of the expected-size test
against an exact-arithmetic oracle, and the gating logic of
should_continue.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pvb import lookahead
from pvb.abstract_tree import MAX_FINAL_DEPTH, UNBOUNDED, svb_depth
from pvb.distributions import (
    FAMILIES,
    STOPPING_FAMILIES,
    DegenerateFitError,
    GainAccumulator,
    MixedGainDistribution,
    survival,
    tail_survival,
)
from pvb.lookahead import (
    BUDGET_EXHAUSTED,
    CANDIDATES_EXHAUSTED,
    CONTINUE,
    ENTRY_BUDGET,
    LOOKAHEAD_EXHAUSTED,
    NO_EXPECTED_IMPROVEMENT,
    PHI,
    FixedLookaheadConfig,
    ProbLookaheadConfig,
    SbSession,
    depth_probabilities,
    expected_nodes_if_continue,
    improvement_probabilities,
    prob_stops,
    saving_stops,
    should_continue,
)

from helpers import NoUsableCandidateError, nodes_if_stop
from oracles import (
    build_svb_tree,
    mc_depth_probabilities,
    mc_expected_next_total,
    probe_saving_stops_exact,
)


def walk(gap, gains, cost=2.0):
    """Drive a fresh session through a reveal sequence."""
    session = SbSession(gap=gap)
    for g in gains:
        session.observe(g, cost=cost)
    return session


# ---------------------------------------------------------------- formulas


def test_unreliable_share_stretches_the_streak_cap():
    """L_max = (1 + session.uninit_fraction) * L: 9, 13.5 and 18 at L = 9."""
    for share, first_stop in ((0.0, 9), (0.5, 14), (1.0, 18)):
        for streak in (first_stop - 1, first_stop):
            s = SbSession(gap=10.0, uninit_fraction=share, no_improvement_streak=streak)
            want = (True, LOOKAHEAD_EXHAUSTED) if streak == first_stop else (False, CONTINUE)
            assert should_continue(s, FIXED) == want, (share, streak)


def test_config_validation():
    with pytest.raises(ValueError):
        FixedLookaheadConfig(L=0)
    with pytest.raises(ValueError):
        FixedLookaheadConfig(K=-1)
    with pytest.raises(TypeError):  # measured per node: SbSession's field
        FixedLookaheadConfig(uninit_fraction=0.5)
    with pytest.raises(TypeError):  # the streak gate is the constant PHI
        ProbLookaheadConfig(phi=0.6)
    with pytest.raises(ValueError):
        ProbLookaheadConfig(min_nonzero_samples=0)


@pytest.mark.parametrize("family", FAMILIES)
def test_prob_config_takes_only_stopping_families(family):
    # uniform's bounded support and normal's negative support have no
    # depth tail for the expected-size test
    if family in STOPPING_FAMILIES:
        assert ProbLookaheadConfig(family=family).family == family
    else:
        with pytest.raises(ValueError, match="family must be one of"):
            ProbLookaheadConfig(family=family)


def test_budget_is_the_node_cost_plus_K():
    """gamma_max = gamma_node + K, with gamma_node the session's node cost."""
    for node_cost, K, spent, want in (
        (1000.0, 10**6, 1_000_999.0, (False, CONTINUE)),
        (1000.0, 10**6, 1_001_000.0, (True, BUDGET_EXHAUSTED)),
        (0.0, 0, 0.0, (True, BUDGET_EXHAUSTED)),
    ):
        s = SbSession(gap=10.0, node_cost=node_cost, budget_used=spent)
        assert should_continue(s, FixedLookaheadConfig(K=K)) == want


def test_default_budget_is_a_million_extra_iterations():
    assert FixedLookaheadConfig().K == 10**6
    s = SbSession(gap=10.0, node_cost=777.0, budget_used=777.0 + 10**6 - 1)
    assert should_continue(s, FixedLookaheadConfig()) == (False, CONTINUE)
    s.budget_used += 1
    assert should_continue(s, FixedLookaheadConfig()) == (True, BUDGET_EXHAUSTED)


@pytest.mark.parametrize(
    "kwargs", [{"L": math.nan}, {"K": math.nan}, {"L": 2.5}, {"K": 7.0}, {"L": "9"}]
)
def test_fixed_config_refuses_non_integer_limits(kwargs):
    # L = NaN would silently switch the streak cap off
    with pytest.raises(ValueError, match="must be an integer"):
        FixedLookaheadConfig(**kwargs)


@pytest.mark.parametrize("value", [math.nan, 5.0, 2.5])
def test_prob_config_refuses_a_non_integer_sample_count(value):
    with pytest.raises(ValueError, match="min_nonzero_samples must be an integer"):
        ProbLookaheadConfig(min_nonzero_samples=value)


# ----------------------------------------------------------- nodes_if_stop


def test_nodes_if_stop_examples():
    # depth 3 best after 5 reveals: 15 tree nodes + 10 SB nodes
    s = walk(10.0, [4.0, 0.5, 0.5, 0.5, 0.5])
    assert s.d_min == 3 and s.iteration == 5
    assert nodes_if_stop(s) == 15 + 10

    # perfect depth-1 tree, no SB spend
    assert nodes_if_stop(SbSession(gap=4.0, d_min=1)) == 3

    # depth 4 after 32 reveals; tree size cross-checked against the
    # oracle tree builder
    s = walk(10.0, [3.0] + [0.5] * 31)
    assert s.d_min == 4 and s.iteration == 32
    assert nodes_if_stop(s) == 95
    assert nodes_if_stop(s) - 2 * s.iteration == build_svb_tree(10.0, 3.0, 3.0) == 31


def test_nodes_if_stop_needs_a_nonzero_gain():
    with pytest.raises(NoUsableCandidateError):
        nodes_if_stop(SbSession(gap=5.0))
    with pytest.raises(NoUsableCandidateError):
        nodes_if_stop(walk(5.0, [0.0, 0.0, 0.0]))


# ----------------------------------------------------------------- session


def test_observe_resets_streak_only_on_strict_improvement():
    s = SbSession(gap=10.0)
    assert s.observe(2.0, cost=2.0)
    assert s.no_improvement_streak == 0
    assert not s.observe(2.0, cost=2.0)  # tie is not progress
    assert s.no_improvement_streak == 1
    assert not s.observe(1.0, cost=2.0)
    assert s.no_improvement_streak == 2
    assert s.observe(5.0, cost=2.0)
    assert (s.best_gain, s.no_improvement_streak) == (5.0, 0)
    assert s.d_min == 2


def test_observe_zero_gains_extend_streak_and_leave_dmin_unbounded():
    s = walk(8.0, [0.0, 0.0])
    assert s.d_min == UNBOUNDED
    assert s.no_improvement_streak == 2
    assert s.samples.n_nonzero == 0
    assert s.samples.count == 2


def test_observe_tracks_budget_with_custom_cost():
    s = SbSession(gap=3.0, node_cost=40.0)
    s.observe(1.0, cost=17.0)
    s.observe(0.0, cost=5.0)
    assert s.budget_used == 22.0
    assert s.iteration == 2


def test_dmin_matches_minimum_depth_over_reveals():
    rng = np.random.default_rng(47)
    for _ in range(20):
        gap = float(rng.uniform(1.0, 50.0))
        gains = np.where(
            rng.random(30) < 0.3, 0.0, rng.lognormal(0.0, 1.0, size=30)
        )
        s = walk(gap, gains.tolist())
        nonzero = [g for g in gains if g >= 1e-9]
        if not nonzero:
            assert s.d_min == UNBOUNDED
        else:
            assert s.d_min == min(svb_depth(gap, g) for g in nonzero)


# ---------------------------------------------------- depth probabilities


def test_probabilities_all_mass_at_zero():
    dist = MixedGainDistribution(1.0, "exponential", (1.0,))
    ps = improvement_probabilities(dist, 4.0, 5)
    assert ps == [0.0, 0.0, 0.0, 0.0, 1.0]


def test_probabilities_exponential_survival_head():
    dist = MixedGainDistribution(0.0, "exponential", (0.7,))
    ps = improvement_probabilities(dist, 3.0, 4)
    assert ps[0] == pytest.approx(math.exp(-0.7 * 3.0), rel=1e-14)
    assert sum(ps) == pytest.approx(1.0, abs=1e-12)


def test_probabilities_keep_far_tail_mass():
    """Survival differences keep a p_d of 1e-20 that CDF differences,
    both within 1e-16 of 1, would round to 0.0."""
    lam = 40.0 * math.log(10.0)  # survival 1e-40 at G = 1 and 1e-20 at G/2
    dist = MixedGainDistribution(0.0, "exponential", (lam,))
    ps = improvement_probabilities(dist, 1.0, 4)
    want = math.exp(-lam / 2.0) - math.exp(-lam)
    assert ps[1] == pytest.approx(want, rel=1e-12, abs=0.0)
    assert 1e-21 < ps[1] < 1e-19
    assert abs(math.fsum(ps) - 1.0) <= 1e-10


def test_probabilities_validation():
    dist = MixedGainDistribution(0.2, "exponential", (1.0,))
    with pytest.raises(ValueError):
        improvement_probabilities(dist, 4.0, 1)
    with pytest.raises(ValueError):
        improvement_probabilities(dist, 4.0, UNBOUNDED)
    with pytest.raises(ValueError):
        improvement_probabilities(dist, 0.0, 3)
    degenerate = MixedGainDistribution(1.0, "exponential", None)
    with pytest.raises(DegenerateFitError):
        improvement_probabilities(degenerate, 4.0, 3)


def test_probabilities_match_monte_carlo():
    """10^7 sampled gains bucketed by depth agree within 3 SE per entry."""
    dist = MixedGainDistribution(0.3, "exponential", (1.0,))
    ps = improvement_probabilities(dist, 4.0, 4)
    rng = np.random.default_rng(307)
    est, ses = mc_depth_probabilities(rng, 0.3, "exponential", (1.0,), 4.0, 4, 10**7)
    for p, e, se in zip(ps, est, ses):
        assert abs(p - e) <= 3.0 * se + 1e-9


def _random_dist(rng):
    family = ("exponential", "pareto", "lognormal")[rng.integers(3)]
    p0 = float(rng.uniform(0.0, 0.95))
    if family == "exponential":
        theta = (float(rng.uniform(0.05, 5.0)),)
    elif family == "pareto":
        theta = (float(rng.uniform(0.1, 3.0)), float(rng.uniform(0.5, 4.0)))
    else:
        theta = (float(rng.uniform(-1.5, 2.0)), float(rng.uniform(0.2, 2.0)))
    return MixedGainDistribution(p0, family, theta)


def test_probability_closure_over_random_configurations():
    """p vectors are nonnegative and telescope to 1 within 1e-10."""
    rng = np.random.default_rng(311)
    for _ in range(10_000):
        dist = _random_dist(rng)
        gap = float(rng.uniform(0.01, 200.0))
        d_min = int(rng.integers(2, 63))
        ps = improvement_probabilities(dist, gap, d_min)
        assert len(ps) == d_min
        assert min(ps) >= 0.0
        assert abs(sum(ps) - 1.0) <= 1e-10


def _random_fit(rng, family):
    """A fit of family to 5-60 random gains, a third of them zero."""
    while True:
        acc = GainAccumulator()
        n = int(rng.integers(5, 60))
        scale = 10.0 ** rng.uniform(-3, 2)
        gains = rng.pareto(rng.uniform(0.5, 4.0), size=n) * scale + scale
        acc.extend(np.where(rng.random(n) < 1 / 3, 0.0, gains))
        dist = acc.fit(family)
        if not dist.degenerate:
            return dist


@pytest.mark.parametrize("family", STOPPING_FAMILIES)
def test_one_fit_is_the_batched_row_bitwise(family):
    """improvement_probabilities' head is, bit for bit, the fit's row of one
    batched depth_probabilities call, the call the campaign engine makes."""
    rng = np.random.default_rng(331)
    for gap in (0.05, 3.0, 400.0, 1e5):
        dists = [_random_fit(rng, family) for _ in range(25)]
        tops = rng.integers(2, 90, size=len(dists))
        tops[0] = MAX_FINAL_DEPTH
        p0 = np.array([d.p0 for d in dists])
        theta = tuple(np.array(col) for col in zip(*(d.theta for d in dists)))
        batch = depth_probabilities(gap, tops, p0, family, theta)
        assert batch.shape == (len(dists), MAX_FINAL_DEPTH - 1)
        for dist, top, row in zip(dists, tops.tolist(), batch):
            head = improvement_probabilities(dist, gap, top)[:-1]
            assert np.array_equal(np.array(head).view(np.uint64), row[: top - 1].view(np.uint64))


def test_depth_probabilities_clamp_a_last_ulp_dip(monkeypatch):
    """Survival at G/d rises with d in exact arithmetic, but a rounded
    tail may dip by one ulp; that p_d is 0, not a negative probability."""
    from pvb import lookahead

    dip = np.nextafter(0.5, 0.0)
    row = np.array([0.25, 0.5, dip, 0.75])
    monkeypatch.setattr(lookahead, "tail_survival", lambda family, theta, g: row[None, : g.size])
    ps = depth_probabilities(10.0, np.array([5]), np.array([0.0]), "exponential", (np.ones(1),))
    assert ps.shape == (1, 4)
    assert (ps >= 0.0).all()
    assert ps[0, 2] == 0.0
    assert ps[0].tolist() == [0.25, 0.25, 0.0, 0.75 - dip]


# ------------------------------------------------------- expected nodes


def test_expected_nodes_when_no_improvement_is_possible():
    # a surely-zero next sample wastes exactly one SB evaluation
    s = walk(10.0, [4.0, 0.5, 0.5, 0.5, 0.5])
    dist = MixedGainDistribution(1.0, "pareto", (1.0, 2.0))
    expected = expected_nodes_if_continue(s, dist)
    assert expected == nodes_if_stop(s) + 2


def test_expected_nodes_two_term_expansion():
    rng = np.random.default_rng(313)
    for _ in range(50):
        gap = float(rng.uniform(0.5, 20.0))
        # depth-2 best: gain in [gap/2, gap)
        g = float(rng.uniform(gap / 2, gap * 0.999))
        extra = [float(rng.uniform(1e-6, g / 2))] * int(rng.integers(0, 4))
        s = walk(gap, [g] + extra)
        assert s.d_min == 2
        dist = _random_dist(rng)
        q = survival(dist, gap)
        want = 3.0 * q + 7.0 * (1.0 - q) + 2.0 * (s.iteration + 1)
        assert expected_nodes_if_continue(s, dist) == pytest.approx(want, rel=1e-12)


def test_expected_nodes_matches_monte_carlo():
    """Eq-style expectation vs the empirical mean of priced draws."""
    s = SbSession(gap=6.0, iteration=4, d_min=3)
    dist = MixedGainDistribution(0.2, "exponential", (0.5,))
    value = expected_nodes_if_continue(s, dist)
    rng = np.random.default_rng(317)
    mean, se = mc_expected_next_total(rng, 0.2, "exponential", (0.5,), 6.0, 3, 4, 10**7)
    assert abs(value - mean) <= 3.0 * se


def test_expected_nodes_floor():
    # cheapest outcome is a depth-1 tree plus the extra reveal
    rng = np.random.default_rng(331)
    for _ in range(2000):
        dist = _random_dist(rng)
        gap = float(rng.uniform(0.01, 100.0))
        d_min = int(rng.integers(2, 40))
        i = int(rng.integers(0, 50))
        s = SbSession(gap=gap, iteration=i, d_min=d_min)
        assert expected_nodes_if_continue(s, dist) >= 2 * (i + 1) + 3 - 1e-12


def test_stochastically_larger_tails_never_cost_more():
    """Scaling a tail upward (FOSD) weakly decreases the expectation."""
    rng = np.random.default_rng(337)
    for _ in range(300):
        gap = float(rng.uniform(0.5, 50.0))
        d_min = int(rng.integers(2, 30))
        i = int(rng.integers(0, 20))
        s = SbSession(gap=gap, iteration=i, d_min=d_min)
        p0 = float(rng.uniform(0.0, 0.9))
        c = float(rng.uniform(1.1, 4.0))
        lam = float(rng.uniform(0.1, 4.0))
        pairs = [
            (
                MixedGainDistribution(p0, "exponential", (lam,)),
                MixedGainDistribution(p0, "exponential", (lam / c,)),
            ),
            (
                MixedGainDistribution(p0, "pareto", (0.5, 2.5)),
                MixedGainDistribution(p0, "pareto", (0.5 * c, 2.5)),
            ),
            (
                MixedGainDistribution(p0, "lognormal", (0.3, 0.8)),
                MixedGainDistribution(p0, "lognormal", (0.3 + math.log(c), 0.8)),
            ),
            (
                MixedGainDistribution(p0, "exponential", (lam,)),
                MixedGainDistribution(p0 * 0.5, "exponential", (lam,)),
            ),
        ]
        for smaller, larger in pairs:
            lo = expected_nodes_if_continue(s, larger)
            hi = expected_nodes_if_continue(s, smaller)
            assert lo <= hi + 1e-9


# ------------------------------------------------------- the saving form


def test_saving_form_by_hand():
    # at d_min 2 a probe saves 8 - 4 nodes with probability p_1, so it is
    # worth its 2 nodes only when p_1 > 1/2
    assert saving_stops([[0.5, 0.5]], [2]).tolist() == [True]
    assert saving_stops([[0.5 + 2**-52, 0.5]], [2]).tolist() == [False]
    # entries at d >= d_min are ignored, so rows of one array may differ
    # in depth: 0.1 * 12 + 0.2 * 8 = 2.8 > 2, 0.2 * 4 = 0.8, and
    # 2**-30 * 60 + 2**-40 * 56 + 2**-10 * 32 < 2**-4
    rows = [[0.1, 0.2, 0.3, 0.4], [0.2, 0.9, 0.9, 0.9], [2**-30, 2**-40, 0.0, 2**-10]]
    assert saving_stops(rows, [3, 2, 5]).tolist() == [False, True, True]


def test_a_rows_verdict_does_not_depend_on_the_width_of_its_array():
    # at d_min 5 the terms are 2, 0, 2**-52 and 2**-52, a sum that sits on
    # the verdict's edge: in order each tiny term is half an ulp of 2 and
    # rounds away, while a pairwise sum over 8 or more entries adds the two
    # first and lands above 2; the campaign prices rows of every depth in
    # one array, so the width must not pick the verdict
    row = [2.0 / 60, 0.0, 2.0**-52 / 48, 2.0**-52 / 32]
    verdicts = {saving_stops([row], [5])[0]}
    for width in (5, 8, 16, 200):
        padded = row + [0.5] * (width - len(row))
        verdicts.add(saving_stops([padded], [5])[0])
        verdicts.add(saving_stops([padded, [0.0] * width], [5, width])[0])
    assert len(verdicts) == 1


def test_saving_form_is_the_expectation_comparison_with_i_cancelled():
    """In exact arithmetic, with p_{d_min} = 1 minus the other p_d,
    E[t_{i+1}] >= t_i gives the saving form's verdict at every i."""
    rng = np.random.default_rng(347)
    stops = 0
    for _ in range(300):
        dist = _random_dist(rng)
        d_min = int(rng.integers(2, 40))
        gap = float(rng.uniform(0.01, 5.0)) * d_min
        ps = improvement_probabilities(dist, gap, d_min)[:-1]
        head = [Fraction(p) for p in ps]
        outcomes = head + [1 - sum(head)]
        expected_final = sum((2 ** (d + 1) - 1) * p for d, p in enumerate(outcomes, start=1))
        verdict = probe_saving_stops_exact(ps, d_min)
        assert saving_stops([ps], [d_min])[0] == verdict
        for i in (0, 7, 10**9):
            assert (expected_final + 2 * (i + 1) >= 2 ** (d_min + 1) - 1 + 2 * i) == verdict
        stops += verdict
    assert 0 < stops < 300


@st.composite
def deep_scans(draw):
    """A best depth in 2..1022 and a tail whose survival at the improving
    gain G/(d_min-1) is near 2**-d_min, where both verdicts are common."""
    d_min = draw(st.integers(2, MAX_FINAL_DEPTH))
    gap = draw(st.floats(0.5, 1e3))
    x = gap / (d_min - 1)
    bits = d_min * draw(st.floats(0.5, 1.5))  # -log2 of the survival at x
    p0 = draw(st.sampled_from([0.0, 0.0, 0.3, 0.9]))
    family = draw(st.sampled_from(["exponential", "pareto", "lognormal"]))
    if family == "exponential":
        theta = (bits * math.log(2.0) / x,)
    elif family == "pareto":
        spread = draw(st.floats(1.0, 30.0))  # log2 of x / xm
        theta = (x * 2.0**-spread, bits / spread)
    else:
        sigma = draw(st.floats(0.1, 2.0))
        theta = (math.log(x) - sigma * math.sqrt(2.0 * bits * math.log(2.0)), sigma)
    return gap, d_min, MixedGainDistribution(p0, family, theta)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(deep_scans(), st.integers(0, 100), st.integers(10**3, 10**12))
@example((59.0, 60, MixedGainDistribution(0.0, "exponential", (39.1,))), 10, 200)
def test_expected_size_verdict_does_not_depend_on_the_iteration(scan, early, late):
    """i cancels in the model, so a scan at reveal 10 and one at reveal 200
    with the same best depth and fit must decide alike, and as the exact
    oracle does on the same p_d."""
    gap, d_min, dist = scan
    fixed, prob = FixedLookaheadConfig(L=10), ProbLookaheadConfig()
    verdicts = []
    for iteration in (early, late):
        s = SbSession(
            gap=gap, iteration=iteration, d_min=d_min,
            samples=GainAccumulator(count=10), no_improvement_streak=9,
        )
        verdicts.append(should_continue(s, fixed, prob, dist))
    exact = probe_saving_stops_exact(improvement_probabilities(dist, gap, d_min), d_min)
    want = (True, NO_EXPECTED_IMPROVEMENT) if exact else (False, CONTINUE)
    assert verdicts == [want, want]


# ------------------------------------------------------------ the verdict


def _verdict_rows(seed, n, gap):
    """Rows at every kind of depth, ready or not, with fits where both
    verdicts are common: a survival of about 2**-d at the improving gain
    G/(d-1) (see deep_scans)."""
    rng = np.random.default_rng(seed)
    depth = rng.integers(1, 60, size=n).astype(float)
    depth[rng.random(n) < 0.1] = math.inf
    depth[rng.random(n) < 0.05] = MAX_FINAL_DEPTH + 1
    ready = rng.random(n) < 0.9
    x = gap / np.maximum(depth - 1, 1.0)
    spread = rng.uniform(1.0, 30.0, size=n)
    theta = (x * 2.0**-spread, depth * rng.uniform(0.5, 1.5, size=n) / spread)
    p0 = rng.choice([0.0, 0.3, 0.9], size=n)
    return depth, ready, p0, theta


def _band_rows(seed, n, gap):
    """Rows at every kind of depth, ready or not, whose fits at depth d =
    3..59 put 2**d * S strictly between the bounds that settle a row,
    1 / (1 - 2**(1-d)) and 2 (see lookahead._tested_stops), so saving_stops
    prices every tested row. S = (1 - p0) * 2**-bits with a Pareto tail of
    2**-bits at the improving gain G/(d-1)."""
    rng = np.random.default_rng(seed)
    depth = rng.integers(3, 60, size=n).astype(float)
    depth[rng.random(n) < 0.05] = 1.0
    depth[rng.random(n) < 0.1] = math.inf
    depth[rng.random(n) < 0.05] = MAX_FINAL_DEPTH + 1
    ready = rng.random(n) < 0.9
    d = np.where(np.isfinite(depth) & (depth >= 3), depth, 3.0)
    lower = 1.0 / (1.0 - 2.0 ** (1.0 - d))
    ratio = lower + (2.0 - lower) * rng.uniform(0.05, 0.95, size=n)
    p0 = rng.choice([0.0, 0.3], size=n)
    bits = d - np.log2(ratio) + np.log2(1.0 - p0)
    spread = rng.uniform(1.0, 30.0, size=n)
    theta = (gap / (d - 1.0) * 2.0**-spread, bits / spread)
    return depth, ready, p0, theta


def test_the_verdict_of_several_row_groups_is_the_per_row_verdicts(monkeypatch):
    """Rows over more than two groups of the entry budget: the array's
    verdicts are each row's verdict alone, and those are the rule spelled
    out row by row."""
    n, gap = 2000, 30.0
    depth, ready, p0, theta = _band_rows(419, n, gap)
    groups = []
    verdict = saving_stops

    def counted(ps, d_min):
        groups.append(ps.shape)
        return verdict(ps, d_min)

    monkeypatch.setattr(lookahead, "saving_stops", counted)
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        stops = prob_stops(gap, depth, ready, p0, "pareto", theta)
    tested = ready & (depth >= 2) & (depth <= MAX_FINAL_DEPTH)
    assert sum(rows for rows, _ in groups) == tested.sum()
    assert len(groups) > 2
    assert all(rows * width <= ENTRY_BUDGET for rows, width in groups)
    want = []
    for r in range(n):
        row = slice(r, r + 1)
        alone = prob_stops(gap, depth[row], ready[row], p0[row], "pareto", [t[row] for t in theta])
        assert alone.tolist() == [stops[r]], r
        d = depth[r]
        if d == 1:
            want.append(True)
        elif ready[r] and 2 <= d <= MAX_FINAL_DEPTH:
            ps = depth_probabilities(gap, int(d), p0[row], "pareto", [t[row] for t in theta])
            want.append(bool(verdict(ps, [int(d)])[0]))
        else:
            want.append(False)
    assert stops.tolist() == want
    assert 0 < sum(want) < n
    assert 0 < stops[tested].sum() < tested.sum()


def test_shuffled_rows_get_their_verdicts_shuffled():
    """A row's verdict does not depend on where it sits among the rows
    that share its group."""
    gap = 30.0
    depth, ready, p0, theta = _verdict_rows(5, 3000, gap)
    stops = prob_stops(gap, depth, ready, p0, "pareto", theta)
    assert 0 < stops.sum() < stops.size
    for seed in range(3):
        perm = np.random.default_rng(seed).permutation(depth.size)
        shuffled = prob_stops(
            gap, depth[perm], ready[perm], p0[perm], "pareto", [t[perm] for t in theta]
        )
        assert np.array_equal(shuffled, stops[perm])


def test_the_verdict_masks_depths_and_readiness():
    """Every row has a fit that stops a tested row, yet only a ready row at
    depth 2..MAX_FINAL_DEPTH is tested: depth 1 stops without being ready,
    and an unready depth 3, a ready depth past MAX_FINAL_DEPTH and an
    infinite depth continue. Untested rows' fits are not read, so NaN
    fits there give the same verdicts, and no row past MAX_FINAL_DEPTH is
    priced into an overflow."""
    depth = np.array([1.0, 3.0, 3.0, MAX_FINAL_DEPTH + 1.0, math.inf, 1.0])
    ready = np.array([False, False, True, True, True, True])
    want = [True, False, True, False, False, True]
    nan = math.nan
    for p0, rate in (
        ([0.0] * 6, [50.0] * 6),
        ([nan, nan, 0.0, nan, nan, nan], [nan, nan, 50.0, nan, nan, nan]),
    ):
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            stops = prob_stops(20.0, depth, ready, np.array(p0), "exponential", (np.array(rate),))
        assert stops.tolist() == want
    # with no row ready nothing is priced, and depth 1 still stops
    none_ready = np.zeros(depth.size, dtype=bool)
    unread = (np.full(depth.size, nan),)
    stops = prob_stops(20.0, depth, none_ready, unread[0], "exponential", unread)
    assert stops.tolist() == (depth == 1).tolist()


def _edge_fits(family, gap, depth, p0, target, shape):
    """theta of family, one row per depth, whose S = (1 - p0) * tail
    survival at G/(d-1) is the float nearest target that one parameter
    reaches: a bisection over the rate (exponential), xm (pareto, at the
    exponent shape sets) or mu (lognormal, at the sigma shape sets)."""
    x = gap / (depth - 1.0)
    if family == "exponential":
        make, lo, hi = (lambda rate: (rate,)), 2.0**-60 / x, 800.0 / x
    elif family == "pareto":
        # xm / x stays above 2**-1000 at the deepest target
        alpha = np.maximum(2.0 ** (4.0 * shape - 3.0), -np.log2(target) / 1000.0)
        make, lo, hi = (lambda xm: (xm, alpha)), x * 2.0**-1010, x
    else:
        sigma = 10.0 ** (4.0 * shape - 4.0)
        make, lo, hi = (lambda mu: (mu, sigma)), np.log(x) - 40.0 * sigma, np.log(x) + 40.0 * sigma
    rises = family != "exponential"
    for _ in range(200):
        # geometric midpoints for the positive parameters, which span decades
        mid = 0.5 * (lo + hi) if family == "lognormal" else lo * np.sqrt(hi / lo)
        low = ((1.0 - p0) * tail_survival(family, make(mid), x) < target) == rises
        lo, hi = np.where(low, mid, lo), np.where(low, hi, mid)
    s_lo, s_hi = ((1.0 - p0) * tail_survival(family, make(k), x) for k in (lo, hi))
    return make(np.where(abs(s_lo - target) <= abs(s_hi - target), lo, hi))


@st.composite
def rows_at_the_bounds(draw):
    """One family and rows whose survival S lies a few ulps off an edge
    of the band that _tested_stops prices: 2**d * S at 2 * (1 + 1e-9),
    where a row starts to continue unpriced, or at 1 / ((1 - 2**(1-d)) *
    (1 + 1e-9)), where it starts to stop, or at either edge without the
    margin. S lands within 2 ulps of that target for pareto, and within
    the step of the fitted parameter for the others (hundreds of ulps for
    exponential, up to about 1e5 for a steep lognormal). Some rows get a
    NaN or infinite parameter."""
    family = draw(st.sampled_from(["exponential", "pareto", "lognormal"]))
    n = draw(st.integers(1, 6))
    depth = np.array(draw(st.lists(
        st.one_of(st.integers(2, MAX_FINAL_DEPTH), st.sampled_from([2, 3, MAX_FINAL_DEPTH])),
        min_size=n, max_size=n,
    )), dtype=float)
    p0 = np.array(draw(st.lists(st.sampled_from([0.0, 0.3, 1.0]), min_size=n, max_size=n)))
    margin = np.array(draw(st.lists(st.sampled_from([1.0, 1.0 + 1e-9]), min_size=n, max_size=n)))
    upper = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    ulps = np.array(draw(st.lists(st.integers(-4, 4), min_size=n, max_size=n)))
    shape = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n)))
    gap = draw(st.floats(0.5, 1e3))
    ratio = np.where(upper, 2.0 * margin, 1.0 / ((1.0 - 2.0 ** (1.0 - depth)) * margin))
    target = np.ldexp(ratio, -depth.astype(int)) * (1.0 + ulps * 2.0**-52)
    theta = _edge_fits(family, gap, depth, p0, target, shape)
    bad = draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, len(theta) - 1),
                  st.sampled_from([math.nan, math.inf]), st.booleans()),
        max_size=2,
    ))
    theta = [t.copy() for t in theta]
    for row, k, value, top in bad:
        # an infinite xm or sigma meets another infinity in the tail formula
        theta[k][row] = math.nan if (family, k) in (("pareto", 0), ("lognormal", 1)) else value
        if family == "pareto" and k == 1 and top:
            # xm at G/(d-1) makes S's power pow(1, alpha), which is 1 at a NaN alpha
            theta[0][row] = gap / (depth[row] - 1.0)
    return family, gap, depth, p0, tuple(theta)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(rows_at_the_bounds())
@example(("pareto", 1.0, np.array([3.0]), np.array([1.0]), (np.array([0.5]), np.array([math.nan]))))
def test_the_bounds_give_the_verdicts_of_the_priced_rule(rows):
    """Rows whose survival sits at the edges of the bounds' band get the
    verdicts of the rule without the bounds: depth_probabilities and
    saving_stops on every tested row."""
    family, gap, depth, p0, theta = rows
    ready = np.ones(depth.size, dtype=bool)
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        stops = prob_stops(gap, depth, ready, p0, family, theta)
        want = []
        for r, d in enumerate(depth.astype(int)):
            row = slice(r, r + 1)
            ps = depth_probabilities(gap, d, p0[row], family, [t[row] for t in theta])
            want.append(bool(saving_stops(ps, [d])[0]))
    assert stops.tolist() == want


def test_the_margin_covers_a_few_ulps_between_two_evaluations_of_s(monkeypatch):
    """At depth 2 the saving is 4 * S exactly, with S = xm = 0.5 + 2**-53,
    so the priced rule continues by 2**-51. When the bounds' evaluation
    of S comes out 2 ulps lower (a SIMD against a scalar pow can differ
    so), both bounds read 2 - 2**-52: without the margin they would stop
    the row, with it the row is priced and continues."""
    s = 0.5 + 2.0**-53
    low = np.nextafter(np.nextafter(s, 0.0), 0.0)
    assert 4.0 * s == 2.0 + 2.0**-51 and 4.0 * low == 2.0 - 2.0**-52
    theta = (np.array([s]), np.array([1.0]))
    survival_of = lookahead.tail_survival

    def lowered(family, theta, g):
        got = survival_of(family, theta, g)
        # the bounds pass theta as rows, depth_probabilities as columns
        return np.nextafter(np.nextafter(got, 0.0), 0.0) if np.ndim(theta[0]) == 1 else got

    monkeypatch.setattr(lookahead, "tail_survival", lowered)
    assert lowered("pareto", theta, np.array([1.0])).tolist() == [low]
    ps = depth_probabilities(1.0, np.array([2]), np.zeros(1), "pareto", theta)
    assert ps.tolist() == [[s]]
    priced = saving_stops(ps, [2]).tolist()
    assert priced == [False]
    stops = prob_stops(1.0, np.array([2.0]), np.array([True]), np.zeros(1), "pareto", theta)
    assert stops.tolist() == priced


# ----------------------------------------------------------- the decision


FIXED = FixedLookaheadConfig()
PROB = ProbLookaheadConfig()


def test_fixed_mode_hard_caps():
    s = walk(10.0, [5.0] + [0.1] * 9)  # streak 9
    assert should_continue(s, FIXED) == (True, LOOKAHEAD_EXHAUSTED)

    s = walk(10.0, [5.0, 0.1])
    assert should_continue(s, FIXED) == (False, CONTINUE)

    tight = FixedLookaheadConfig(K=3)
    s = walk(10.0, [5.0, 0.1])  # budget_used 4 >= 0 + 3
    assert should_continue(s, tight) == (True, BUDGET_EXHAUSTED)


def test_lookahead_cap_reported_before_budget():
    s = walk(10.0, [5.0] + [0.1] * 9)
    assert should_continue(s, FixedLookaheadConfig(K=1)).reason == LOOKAHEAD_EXHAUSTED


def test_uninit_fraction_stretches_the_cap():
    s = walk(10.0, [5.0] + [0.1] * 9)
    s.uninit_fraction = 0.5  # cap 13.5
    assert should_continue(s, FIXED) == (False, CONTINUE)


def _stop_heavy_dist():
    # essentially all tail mass below any useful gain
    return MixedGainDistribution(0.0, "exponential", (50.0,))


def _stop_light_dist():
    # nearly all tail mass above any gap in play
    return MixedGainDistribution(0.0, "exponential", (1e-7,))


def test_probabilistic_stop_after_phi_gate():
    """Streak 6 of 9, ten nonzero samples, fitted tail says stop."""
    gains = [0.01, 0.01, 0.01, 2.5] + [0.01] * 6
    s = walk(20.0, gains)
    assert s.no_improvement_streak == 6
    assert s.samples.n_nonzero == 10
    assert s.d_min == 8
    dist = s.samples.fit("exponential")
    assert expected_nodes_if_continue(s, dist) >= nodes_if_stop(s)
    assert should_continue(s, FIXED, PROB, dist) == (True, NO_EXPECTED_IMPROVEMENT)
    # same session in fixed mode keeps scanning
    assert should_continue(s, FIXED) == (False, CONTINUE)


def test_probabilistic_branch_waits_for_the_phi_gate():
    gains = [0.01, 0.01, 0.01, 0.01, 2.5] + [0.01] * 5
    s = walk(20.0, gains)
    assert s.no_improvement_streak == 5  # below 0.6 * 9
    assert should_continue(s, FIXED, PROB, _stop_heavy_dist()) == (False, CONTINUE)


def test_probabilistic_branch_needs_nonzero_samples():
    s = walk(20.0, [2.5, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0])  # 1 nonzero, streak 6
    assert s.samples.n_nonzero < PROB.min_nonzero_samples
    assert should_continue(s, FIXED, PROB, _stop_heavy_dist()) == (False, CONTINUE)


def test_depth_one_stops_without_the_phi_gate_or_a_fit():
    # best gain closes the gap outright: no reveal can shrink the tree
    s = walk(4.0, [5.0] + [5.0] * 6)
    assert s.d_min == 1 and s.no_improvement_streak == 6
    assert should_continue(s, FIXED, PROB, _stop_heavy_dist()) == (
        True, NO_EXPECTED_IMPROVEMENT,
    )
    s = walk(4.0, [0.5] * 4 + [5.0])
    assert s.d_min == 1 and s.no_improvement_streak < PHI * FIXED.L
    assert s.samples.n_nonzero == PROB.min_nonzero_samples
    assert should_continue(s, FIXED, PROB, None) == (True, NO_EXPECTED_IMPROVEMENT)


def test_depth_one_waits_for_enough_nonzero_samples():
    s = walk(4.0, [0.0] * 4 + [5.0, 5.0])
    assert s.d_min == 1 and s.samples.n_nonzero < PROB.min_nonzero_samples
    assert should_continue(s, FIXED, PROB, None) == (False, CONTINUE)


def test_depth_one_stop_comes_after_the_hard_caps():
    s = walk(4.0, [5.0] + [5.0] * 9)
    assert s.d_min == 1 and s.no_improvement_streak == FIXED.L
    assert should_continue(s, FIXED, PROB, None) == (True, LOOKAHEAD_EXHAUSTED)


def test_depth_one_stop_needs_the_probabilistic_rule():
    s = walk(4.0, [5.0] * 7)
    assert s.d_min == 1
    assert should_continue(s, FIXED, None, _stop_heavy_dist()) == (False, CONTINUE)


def test_probabilistic_branch_continues_when_improvement_is_likely():
    gains = [0.01, 0.01, 0.01, 2.2] + [0.01] * 6
    s = walk(10.0, gains)
    assert s.d_min == 5 and s.no_improvement_streak == 6
    assert should_continue(s, FIXED, PROB, _stop_light_dist()) == (False, CONTINUE)


def test_degenerate_distribution_disables_the_probabilistic_branch():
    gains = [0.01, 0.01, 0.01, 2.5] + [0.01] * 6
    s = walk(20.0, gains)
    degenerate = MixedGainDistribution(1.0, "pareto", None)
    assert should_continue(s, FIXED, PROB, degenerate) == (False, CONTINUE)
    assert should_continue(s, FIXED, PROB, None) == (False, CONTINUE)


def test_fixed_mode_ignores_any_supplied_distribution():
    """Without a ProbLookaheadConfig the decision never consults the tail."""
    rng = np.random.default_rng(53)
    for _ in range(50):
        gap = float(rng.uniform(1.0, 40.0))
        dist = _random_dist(rng)
        s = SbSession(gap=gap)
        for _ in range(30):
            g = 0.0 if rng.random() < 0.3 else float(rng.lognormal(0.0, 1.2))
            s.observe(g, cost=2.0)
            bare = should_continue(s, FIXED)
            assert bare == should_continue(s, FIXED, None, dist)
            assert bare == should_continue(s, FIXED, None, None)
            if bare.stop:
                break


def test_stop_decisions_are_consistent_with_the_raw_costs():
    rng = np.random.default_rng(59)
    stops = depth_one_stops = 0
    for _ in range(200):
        gap = float(rng.uniform(2.0, 80.0))
        s = SbSession(gap=gap)
        for _ in range(25):
            g = 0.0 if rng.random() < 0.25 else float(rng.lognormal(-1.0, 1.0))
            s.observe(g, cost=2.0)
            if s.samples.n_nonzero < 2:
                continue
            dist = s.samples.fit("exponential")
            decision = should_continue(s, FIXED, PROB, dist)
            if decision.reason == NO_EXPECTED_IMPROVEMENT:
                stops += 1
                if s.d_min == 1:
                    # no next gain can shrink a depth-1 tree: continuing
                    # costs exactly t_i + 2
                    depth_one_stops += 1
                    assert nodes_if_stop(s) == 3 + 2 * s.iteration
                else:
                    assert nodes_if_stop(s) <= expected_nodes_if_continue(s, dist)
            if decision.stop:
                break
    assert stops > depth_one_stops  # the corpus must exercise the expected-size test


def test_reason_vocabulary_is_stable():
    assert {CONTINUE, LOOKAHEAD_EXHAUSTED, BUDGET_EXHAUSTED,
            NO_EXPECTED_IMPROVEMENT, CANDIDATES_EXHAUSTED} == {
        "continue", "lookahead_exhausted", "budget_exhausted",
        "no_expected_improvement", "candidates_exhausted",
    }
