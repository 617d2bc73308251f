"""Trial and campaign harness tests.

The exact-value cases drive trials with preset permutations so every
arithmetic step is checkable by hand; the fuzz cases hold the array engine,
trial by trial and summed over campaign cells, to the per-reveal reference
walk in tests/oracles.py; the order cases hold every row of a chunk's
order source to the Python-int SplitMix64 walk in tests/oracles.py, to
one eager read and to uniform frequencies, and the chunk cases one
worker's chunks to two workers'; the trend case reproduces the
qualitative strategy ordering on a synthetic Pareto pool.
"""

import hashlib
import itertools
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pvb
from pvb import lookahead, simulator
from pvb.abstract_tree import (
    MAX_FINAL_DEPTH,
    CapacityError,
    PvbInstance,
    svb_depth,
    svb_tree_size,
)
from pvb.distributions import GainAccumulator
from pvb.gains import is_zero_gain
from pvb.lookahead import (
    BUDGET_EXHAUSTED,
    CANDIDATES_EXHAUSTED,
    ENTRY_BUDGET,
    LOOKAHEAD_EXHAUSTED,
    NO_EXPECTED_IMPROVEMENT,
    Decision,
    FixedLookaheadConfig,
    ProbLookaheadConfig,
)
from pvb.simulator import (
    STRATEGIES,
    CampaignSpec,
    UnclosableError,
    run_campaign,
    run_trial,
)

from oracles import reference_trial, splitmix_order


class PresetPermutation:
    """Stands in for a Generator when the reveal order must be exact."""

    def __init__(self, order):
        self.order = np.asarray(order)

    def permutation(self, n):
        assert n == len(self.order)
        return self.order


def campaign_rng(seed, t, n):
    """A Generator stand-in that draws trial t's campaign order."""
    return PresetPermutation(splitmix_order(seed, t, n, simulator._SWAPS))


def make_instance(pool):
    return PvbInstance(gap=1.0, pool=tuple(float(g) for g in pool))


def test_single_candidate_pool_costs_seventeen_for_every_strategy():
    # one gain with depth 3: tree 15 plus one reveal
    inst = make_instance([4.0])
    for strategy in STRATEGIES:
        r = run_trial(inst, 10.0, strategy, np.random.default_rng(1))
        assert r.total_nodes == 17
        assert r.reveals == 1
        assert r.sb_nodes == 2
        assert r.stop_reason == CANDIDATES_EXHAUSTED
    # and through the campaign, which sizes its chunks by the pool; at gap
    # 1e3 the depth is 250, a tree of 2**251 - 1 nodes
    spec = CampaignSpec(inst, (10.0, 1e3), trials=3, strategies=STRATEGIES)
    for workers in (1, 2):
        for row in run_campaign(spec, workers=workers):
            total = 17.0 if row.gap == 10.0 else 2.0**251 - 1 + 2
            assert (row.mean_total_nodes, row.mean_sb_nodes) == (total, 2.0)


def test_all_zero_pool_is_unclosable():
    inst = make_instance([0.0, 0.0, 0.0])
    with pytest.raises(UnclosableError):
        run_trial(inst, 5.0, "fixed", np.random.default_rng(2))


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("strategy", ["fixed", "full"])
def test_an_empty_pool_is_unclosable_before_any_chunk(strategy, workers):
    spec = CampaignSpec(make_instance([]), (5.0,), trials=3, strategies=(strategy,))
    with pytest.raises(UnclosableError):
        run_campaign(spec, workers=workers)


def test_full_sb_always_reveals_the_entire_pool():
    rng = np.random.default_rng(61)
    for _ in range(25):
        size = int(rng.integers(1, 40))
        pool = np.where(rng.random(size) < 0.3, 0.0, rng.pareto(2.0, size) + 1.0)
        if all(is_zero_gain(g) for g in pool):
            continue
        inst = make_instance(pool)
        r = run_trial(inst, 12.0, "full", np.random.default_rng(rng.integers(2**32)))
        assert r.reveals == size
        assert r.sb_nodes == 2 * size
        assert r.stop_reason == CANDIDATES_EXHAUSTED
        best = min(svb_depth(12.0, g) for g in pool if not is_zero_gain(g))
        assert r.final_tree_nodes == (1 << (best + 1)) - 1


def test_a_stop_with_no_usable_candidate_defers_until_one_appears():
    # streak cap of 1 trips on the first zero, but the trial must keep
    # revealing until a tree is buildable
    inst = make_instance([0.0, 0.0, 0.0, 5.0])
    r = run_trial(
        inst, 10.0, "fixed", PresetPermutation([0, 1, 2, 3]),
        fixed=FixedLookaheadConfig(L=1),
    )
    assert r.stop_reason == LOOKAHEAD_EXHAUSTED
    assert r.reveals == 4
    assert r.final_tree_nodes == 7  # depth 2 from the gain of 5
    assert r.total_nodes == 15


def test_an_overflowing_gain_sum_leaves_the_exponential_fit_unusable():
    """Two gains of 1e308 overflow the sum, so the exponential rate is
    GainAccumulator.fit's None, not n1 / inf = 0, and no later reveal
    is ready: the trial reveals all 10 gains, as the reference does."""
    pool = [0.0] * 8 + [1e308, 1e308]
    order = [8, 9, *range(8)]
    prob = ProbLookaheadConfig(min_nonzero_samples=2)
    acc = GainAccumulator()
    for g in pool[8:]:
        acc.add(g)
    assert acc.fit("exponential").theta is None
    for strategy in ("prob-exp", "prob-mixed-exp"):
        r = run_trial(make_instance(pool), 1.5e308, strategy, PresetPermutation(order), prob=prob)
        assert (r.reveals, r.stop_reason) == (10, CANDIDATES_EXHAUSTED), strategy
        want = reference_trial(pool, 1.5e308, strategy, PresetPermutation(order), prob=prob)
        assert (want["reveals"], want["stop_reason"]) == (10, CANDIDATES_EXHAUSTED)


def test_stop_after_first_reveal_matches_permutation_enumeration():
    """Mean over all 120 orders equals the first-reveal expectation."""
    pool = [4.0, 2.0, 7.0, 1.0, 3.0]
    inst = make_instance(pool)

    def greedy(session):
        return Decision(True, "first_reveal")

    totals = []
    for order in itertools.permutations(range(5)):
        r = reference_trial(inst.pool, 10.0, greedy, PresetPermutation(order))
        assert r["reveals"] == 1
        totals.append(r["total_nodes"])
    # each gain leads 24 of the 120 orders; expectation has 2^(d+1)+1 terms
    by_first = [(1 << (svb_depth(10.0, g) + 1)) + 1 for g in pool]
    assert sum(totals) == 24 * sum(by_first)
    assert sum(totals) == 52152


def test_callable_and_unknown_strategies_are_refused():
    inst = make_instance([1.0, 2.0])
    for strategy in ("sb-magic", lambda session: Decision(True, "first_reveal")):
        with pytest.raises(ValueError, match="unknown strategy"):
            run_trial(inst, 4.0, strategy, np.random.default_rng(3))


def test_bad_gaps_are_refused():
    inst = make_instance([1.0, 2.0])
    for gap in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValueError):
            run_trial(inst, gap, "fixed", np.random.default_rng(4))


def test_tree_beyond_the_float_range_raises_before_it_is_built():
    # a gain just above the zero tolerance at gap 1e3 asks for depth ~1e12
    inst = make_instance([0.0, 1.5e-9])
    for strategy in STRATEGIES:
        with pytest.raises(CapacityError, match="exceeds 1022"):
            run_trial(inst, 1e3, strategy, np.random.default_rng(5))
    # the deepest tree that is still allowed
    r = run_trial(make_instance([1.0]), float(MAX_FINAL_DEPTH), "full", None)
    assert r.final_tree_nodes == 2 ** (MAX_FINAL_DEPTH + 1) - 1


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_a_gap_gain_ratio_beyond_the_float_range_is_a_capacity_error(strategy):
    # 1e300 / 2e-9 overflows to inf; the campaign refuses that depth like any
    # other past MAX_FINAL_DEPTH, and the array engine warns about nothing
    spec = CampaignSpec(
        make_instance([2e-9, 3e-9, 0.0]), (1e300,), trials=3, seed=1, strategies=(strategy,)
    )
    with pytest.raises(CapacityError, match=r"gap 1e\+300: best depth inf exceeds 1022"):
        run_campaign(spec)


def test_full_sb_is_priced_without_drawing_a_permutation():
    r = run_trial(make_instance([0.0, 2.0, 3.0, 0.5]), 7.0, "full", None)
    assert (r.reveals, r.final_tree_nodes, r.total_nodes) == (4, 15, 23)


_TRIAL_FIELDS = (
    "strategy", "gap", "reveals", "stop_reason", "final_tree_nodes", "sb_nodes", "total_nodes",
)

_log_gain = st.floats(-6.0, 1.0).map(lambda e: 10.0**e)


@st.composite
def trial_cases(draw):
    """Pools, gaps and knobs where the array engine is easiest to get wrong.

    Gains from 1e-6 (depth 1e9 at the largest gap) to 10, zero runs longer
    than a block's first window of reveals, all-equal nonzeros (a degenerate
    Pareto fit), pools with one nonzero gain, and gaps up to 1e3 where
    best depths run past 52, where float64 loses the reveal term, and
    past the 1022 guard.
    """
    size = draw(st.one_of(st.integers(1, 64), st.integers(65, 300)))
    shape = draw(st.sampled_from(["mixed", "mixed", "equal", "single"]))
    zero_share = draw(st.sampled_from([0.0, 0.3, 0.6, 0.95]))
    zero = st.floats(0.0, 1.0).map(lambda u: u < zero_share)
    zeros = draw(st.lists(zero, min_size=size, max_size=size))
    if shape == "mixed":
        pool = [0.0 if z else draw(_log_gain) for z in zeros]
    elif shape == "equal":
        value = draw(_log_gain)
        pool = [0.0 if z else value for z in zeros]
    else:
        pool = [0.0] * size
    if not any(pool):
        pool[draw(st.integers(0, size - 1))] = draw(_log_gain)
    gap = 10.0 ** draw(st.floats(-1.0, 3.0))
    fixed = FixedLookaheadConfig(
        L=draw(st.integers(1, 12)),
        K=draw(st.sampled_from([10**6, 10**6, 0, 7, 40, 150])),
    )
    prob = ProbLookaheadConfig(min_nonzero_samples=draw(st.integers(1, 8)))
    return pool, gap, fixed, prob, draw(st.integers(0, 2**64 - 1))


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(trial_cases())
def test_array_engine_matches_the_per_reveal_reference(case):
    pool, gap, fixed, prob, seed = case
    inst = make_instance(pool)
    for strategy in STRATEGIES:
        want = reference_trial(pool, gap, strategy, np.random.default_rng(seed), fixed, prob)
        if want["final_tree_nodes"] is None:
            with pytest.raises(CapacityError):
                run_trial(inst, gap, strategy, np.random.default_rng(seed), fixed, prob)
            continue
        got = run_trial(inst, gap, strategy, np.random.default_rng(seed), fixed, prob)
        for name in _TRIAL_FIELDS:
            assert getattr(got, name) == want[name], (strategy, name)


@st.composite
def campaign_cases(draw):
    """A trial_cases pool with a second, other gap and a handful of trials."""
    pool, gap, fixed, prob, seed = draw(trial_cases())
    gaps = (gap, 10.0 ** draw(st.floats(-1.0, 3.0).filter(lambda e: 10.0**e != gap)))
    return pool, gaps, fixed, prob, seed, draw(st.integers(1, 9))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(campaign_cases(), st.integers(1, 2))
def test_campaign_sums_match_the_per_reveal_reference(case, workers):
    """Every cell's sums are those of the reference walk over trial t's
    SplitMix64 order, and a tree past the 1022 guard raises as a trial
    would."""
    pool, gaps, fixed, prob, seed, trials = case
    spec = CampaignSpec(make_instance(pool), gaps, trials=trials, seed=seed)
    want, too_deep = [], False
    for gap in spec.gaps:
        for strategy in STRATEGIES:
            total = sb = 0
            for t in range(trials):
                rng = campaign_rng(seed, t, len(pool))
                r = reference_trial(pool, gap, strategy, rng, fixed, prob)
                too_deep |= r["final_tree_nodes"] is None
                total += r["total_nodes"] or 0
                sb += r["sb_nodes"]
            want.append((gap, strategy, total / trials, sb / trials))
    if too_deep:
        with pytest.raises(CapacityError, match="exceeds 1022"):
            run_campaign(spec, workers, fixed, prob)
        return
    rows = run_campaign(spec, workers, fixed, prob)
    assert [(r.gap, r.strategy, r.mean_total_nodes, r.mean_sb_nodes) for r in rows] == want


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(trial_cases())
def test_a_trial_does_not_depend_on_the_trials_in_its_block(case):
    """Trial t priced alone by run_trial, and in blocks of 1, 7 and 250
    permutations that hold it, gives one result."""
    pool, gap, fixed, prob, seed = case
    inst = make_instance(pool)
    orders = np.array([np.random.default_rng(seed + t).permutation(len(pool)) for t in range(250)])
    for strategy in ("fixed", "prob-exp", "prob-mixed-exp", "prob-mixed-pareto"):
        whole = simulator._price(inst, gap, strategy, orders, fixed, prob)
        for t in (0, 3, 121, 249):
            lo = min(t, 243)
            seen = {tuple(x[t] for x in whole)}
            for rows in (slice(t, t + 1), slice(lo, lo + 7)):
                part = simulator._price(inst, gap, strategy, orders[rows], fixed, prob)
                seen.add(tuple(x[t - rows.start] for x in part))
            assert len(seen) == 1
            ((reveals, best, reason),) = seen
            rng = np.random.default_rng(seed + t)
            if svb_depth(gap, best) > MAX_FINAL_DEPTH:
                with pytest.raises(CapacityError):
                    run_trial(inst, gap, strategy, rng, fixed, prob)
                continue
            alone = run_trial(inst, gap, strategy, rng, fixed, prob)
            assert (alone.reveals, alone.stop_reason) == (reveals, reason)
            assert alone.final_tree_nodes == 2 ** (svb_depth(gap, best) + 1) - 1


@pytest.mark.parametrize("budget", [1, 2, 3])
@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(case=trial_cases())
def test_windows_a_few_reveals_wide_price_as_the_reference(budget, case):
    """With ENTRY_BUDGET at 1, 2 and 3 the windows are one to three reveals
    wide, so every step's carried state crosses window edges. Each trial of
    a block of four, priced with its block and alone, is the reference
    walk's."""
    pool, gap, fixed, prob, seed = case
    inst = make_instance(pool)
    orders = np.array([np.random.default_rng(seed + t).permutation(len(pool)) for t in range(4)])
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(simulator, "ENTRY_BUDGET", budget)
        for strategy in ("fixed", "prob-exp", "prob-mixed-exp", "prob-mixed-pareto"):
            whole = simulator._price(inst, gap, strategy, orders, fixed, prob)
            for t, order in enumerate(orders):
                alone = simulator._price(inst, gap, strategy, orders[t : t + 1], fixed, prob)
                assert [x[0] for x in alone] == [x[t] for x in whole], (strategy, t)
                want = reference_trial(pool, gap, strategy, PresetPermutation(order), fixed, prob)
                assert (whole[0][t], svb_depth(gap, whole[1][t]), whole[2][t]) == (
                    want["reveals"], want["depth"], want["stop_reason"]
                ), (strategy, t)


@pytest.mark.parametrize("budget", [1, 2, 3])
@pytest.mark.parametrize(
    "L, K, order, want",
    [
        # the streak cap hits at reveal 1, the budget at 4, the first gain at 5
        (1, 8, range(7), (5, 5.0, LOOKAHEAD_EXHAUSTED)),
        # the budget hits at reveal 1, the first gain at 5
        (2, 2, range(7), (5, 5.0, BUDGET_EXHAUSTED)),
        # improvements at reveals 1 and 3, then a streak of 2 at 5
        (2, 10**6, [5, 0, 6, 1, 2, 3, 4], (5, 2.0, LOOKAHEAD_EXHAUSTED)),
    ],
    ids=["streak-first", "budget-first", "last-improvement"],
)
def test_fixed_carries_its_state_across_window_edges(monkeypatch, budget, L, K, order, want):
    """Windows of one to three reveals split what the fixed step carries:
    the reveal of the last improvement, and the first hit's reason through
    a stop deferred to the first nonzero gain."""
    monkeypatch.setattr(simulator, "ENTRY_BUDGET", budget)
    inst = make_instance([0.0, 0.0, 0.0, 0.0, 5.0, 1.0, 2.0])
    orders = np.array([list(order), [4, 5, 6, 0, 1, 2, 3], [6, 0, 1, 2, 3, 4, 5]])
    fixed = FixedLookaheadConfig(L=L, K=K)
    for block in (orders, orders[:1]):
        got = simulator._price(inst, 7.0, "fixed", block, fixed, None)
        assert tuple(x[0] for x in got) == want


def test_a_straggler_is_priced_across_windows_as_it_is_alone():
    """A block of 250 trials in which 249 stop inside the first window of
    reveals and one reveals the five smallest gains, every zero and then
    the other gains in ascending order, so each reveal improves its best
    and the expected-size test lets it run for 200 reveals and more:
    priced with its block and alone, the straggler carries its running
    statistics across the windows, and every trial is the reference walk's."""
    rng = np.random.default_rng(3)
    pool = np.concatenate([np.zeros(60), np.exp(rng.normal(0.0, 1.5, 240))])
    rng.shuffle(pool)
    inst, gap, late = make_instance(pool), 8.0, 137
    orders = np.array([rng.permutation(len(pool)) for _ in range(250)])
    nonzero = np.flatnonzero(pool)[np.argsort(pool[pool > 0.0])]
    orders[late] = np.concatenate([nonzero[:5], np.flatnonzero(pool == 0.0), nonzero[5:]])
    for strategy in ("prob-exp", "prob-mixed-exp", "prob-mixed-pareto"):
        whole = simulator._price(inst, gap, strategy, orders, None, None)
        reveals = whole[0]
        assert np.delete(reveals, late).max() <= ENTRY_BUDGET // len(orders)
        assert reveals[late] >= 200
        alone = simulator._price(inst, gap, strategy, orders[late : late + 1], None, None)
        assert [x[0] for x in alone] == [x[late] for x in whole]
        for t, (n, best, reason) in enumerate(zip(*whole)):
            want = reference_trial(pool.tolist(), gap, strategy, PresetPermutation(orders[t]))
            assert (n, svb_depth(gap, best), reason) == (
                want["reveals"], want["depth"], want["stop_reason"]
            ), (strategy, t)


@pytest.mark.parametrize("budget", [1, 2, 3, ENTRY_BUDGET])
@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(case=trial_cases())
def test_pricing_without_reasons_gives_the_same_reveals_and_bests(budget, case):
    """A campaign cell prices without stop reasons, so the fixed step
    carries no first-hit flag. In windows of one to three reveals and at
    the full budget, every trial of a block of eight reveals as often and
    ends with the same best as when its reasons are built."""
    pool, gap, fixed, prob, seed = case
    inst = make_instance(pool)
    orders = np.array([np.random.default_rng(seed + t).permutation(len(pool)) for t in range(8)])
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(simulator, "ENTRY_BUDGET", budget)
        for strategy in ("fixed", "prob-exp", "prob-mixed-exp", "prob-mixed-pareto"):
            reveals, best, reasons = simulator._price(inst, gap, strategy, orders, fixed, prob)
            bare = simulator._price(inst, gap, strategy, orders, fixed, prob, reasons=False)
            assert reasons.shape == (8,) and bare[2] is None
            assert bare[0].tobytes() == reveals.tobytes(), strategy
            assert bare[1].tobytes() == best.tobytes(), strategy


@pytest.mark.parametrize(
    "ufunc, carried, window",
    [
        (np.maximum, [0.0, 1.5, 3.0, np.inf], [0.0, 0.0, 1.5, 1.5, 3.0, np.inf]),
        (np.minimum, [0.0, 1.5, np.inf], [0.0, 1.5, 1.5, 3.0, np.inf, np.inf]),
        (np.maximum, [0, 4, 9], [0, 0, 4, 4, 9]),
        (np.logical_or, [False, True], [False, False, True]),
        (np.add, [0.0, 1.0, 7.0], [False, True]),
    ],
    ids=["best", "lowest", "last-improvement", "hit", "nonzero-count"],
)
def test_the_folded_accumulate_is_the_hstack_accumulate(ufunc, carried, window):
    """_folded, the window's accumulate with the carried column folded in
    afterwards, is _running's accumulate over the hstacked carried column
    bit for bit, dtype included, for each running value it serves, on
    windows that hold ties, zeros and inf."""
    rng = np.random.default_rng(5)
    for rows, width in ((1, 1), (3, 1), (1, 7), (40, 5), (200, 41)):
        c = rng.choice(np.array(carried), (rows, 1))
        w = rng.choice(np.array(window), (rows, width))
        want = simulator._running(ufunc, c, w)
        got = simulator._folded(ufunc, c, w)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), (rows, width)


def _tree_nodes_by_best(gap, best):
    """The summed trees priced once per distinct best through svb_depth."""
    try:
        counts = Counter(best.tolist())
        return sum(svb_tree_size(svb_depth(gap, b)) * count for b, count in counts.items())
    except CapacityError as exc:
        raise CapacityError(f"gap {gap!r}: best {exc}") from None


def test_pricing_by_depth_is_pricing_by_best():
    """Blocks of bests at depths 1021 to 1023, and past the float range (a
    gap of 1e300 over 2e-9, a gain a pool keeps nonzero), sum to the same
    trees, or raise the same first CapacityError, priced once per distinct
    depth as once per distinct best."""

    def outcome(tree_nodes, best):
        try:
            return tree_nodes(1e300, best)
        except CapacityError as exc:
            return str(exc)

    rng = np.random.default_rng(17)
    seen = Counter()
    for _ in range(400):
        size = int(rng.integers(1, 16))
        depth = rng.uniform(rng.choice([1.0, 1019.5, 1020.0]), 1023.0, size)
        best = np.where(rng.random(size) < 0.1, 2e-9, 1e300 / depth)
        got = outcome(simulator._tree_nodes, best)
        assert got == outcome(_tree_nodes_by_best, best), best
        seen[got.split(" exceeds")[0] if isinstance(got, str) else "sum"] += 1
    assert set(seen) == {"sum", "gap 1e+300: best depth 1023", "gap 1e+300: best depth inf"}


def test_expected_size_test_runs_past_depth_512_up_to_the_one_guard():
    # best depth 600 from the first gain; every later gain is tiny, so the
    # fitted tail's mass past G/599 falls like exp(-k) after k reveals and
    # the probe stops paying for itself near k = 600 ln 2
    pool = [1.0] + [1e-6] * 499
    order = PresetPermutation(range(500))
    for strategy in ("prob-exp", "prob-mixed-exp", "prob-mixed-pareto"):
        got = run_trial(make_instance(pool), 599.5, strategy, order)
        want = reference_trial(pool, 599.5, strategy, order)
        assert want["depth"] == 600
        assert (got.reveals, got.stop_reason) == (416, NO_EXPECTED_IMPROVEMENT)
        for name in _TRIAL_FIELDS:
            assert getattr(got, name) == want[name], (strategy, name)


def test_the_pareto_stop_tests_exactly_the_prefixes_the_accumulator_fits(monkeypatch):
    # equal nonzero gains leave rounding residue in the running log sums
    # (six gains of 0.113 once fitted alpha 3.4e15); neither the campaign
    # nor GainAccumulator.fit may read that residue as spread
    pool = [0.113] * 6 + [0.0, 0.25, 0.25, 0.113, 0.0, 0.4]
    tested = []

    def never_stop(gap, depth, p0, family, theta):
        tested.append(len(depth))
        return np.zeros(len(depth), dtype=bool)

    monkeypatch.setattr(lookahead, "_tested_stops", never_stop)
    prob = ProbLookaheadConfig(min_nonzero_samples=1)
    # at gap 1 every prefix has a best depth of 3 to 9, so the expected-size
    # test runs after reveal k exactly when the campaign fits the prefix;
    # one call may price several prefixes, so the tested rows are counted
    fitted, acc = [], GainAccumulator()
    for k in range(1, len(pool) + 1):
        tested.clear()
        order = PresetPermutation(range(k))
        run_trial(make_instance(pool[:k]), 1.0, "prob-mixed-pareto", order, prob=prob)
        fitted.append(sum(tested) - sum(fitted))
        acc.add(pool[k - 1])
        assert fitted[-1] == (not acc.fit("pareto").degenerate), k
    assert fitted == [0] * 7 + [1] * 5


def test_no_strategy_beats_the_omniscient_tree():
    rng = np.random.default_rng(67)
    for _ in range(10):
        size = int(rng.integers(3, 30))
        pool = np.where(rng.random(size) < 0.25, 0.0, rng.pareto(2.0, size) + 0.5)
        if all(is_zero_gain(g) for g in pool):
            continue
        inst = make_instance(pool)
        gap = float(rng.uniform(2.0, 25.0))
        best = min(svb_depth(gap, g) for g in pool if not is_zero_gain(g))
        floor = (1 << (best + 1)) - 1
        reveal_counts = {}
        for strategy in STRATEGIES:
            r = run_trial(inst, gap, strategy, np.random.default_rng(9000 + size))
            assert r.final_tree_nodes >= floor
            assert r.reveals <= size
            reveal_counts[strategy] = r.reveals
        assert reveal_counts["full"] == max(reveal_counts.values())


def _pareto_pool(seed, zeros, tail):
    rng = np.random.default_rng(seed)
    pool = np.concatenate([np.zeros(zeros), rng.pareto(2.0, tail) + 1.0])
    rng.shuffle(pool)
    return make_instance(pool)


def test_campaign_is_deterministic():
    spec = CampaignSpec(
        instance=_pareto_pool(71, 10, 26),
        gaps=(5.0, 12.0),
        trials=60,
        seed=33,
        strategies=("fixed", "prob-mixed-exp"),
    )
    assert run_campaign(spec) == run_campaign(spec)


def test_campaign_means_do_not_depend_on_worker_count():
    spec = CampaignSpec(
        instance=_pareto_pool(73, 8, 22),
        gaps=(6.0, 14.0),
        trials=40,
        seed=5151,
        strategies=("fixed", "prob-exp", "full"),
    )
    assert run_campaign(spec, workers=1) == run_campaign(spec, workers=2)


@pytest.fixture
def pool_sizes(monkeypatch):
    """The max_workers of every process pool run_campaign asks for, through
    a stand-in that starts no process."""
    asked = []

    class Recording:
        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(pvb, "ProcessPoolExecutor", Recording)
    return asked


def test_the_pool_is_capped_at_the_number_of_chunks(pool_sizes):
    # a fork pool starts every worker it is asked for, so workers past the
    # chunk count would only sit idle
    spec = CampaignSpec(_pareto_pool(73, 8, 22), (6.0, 14.0), trials=3, seed=5151)
    assert run_campaign(spec, workers=8) == run_campaign(spec, workers=1)
    assert pool_sizes == [3]


def test_a_single_chunk_runs_in_process(pool_sizes):
    """One trial is one chunk, so two workers ask for no pool and price it
    as one worker does."""
    spec = CampaignSpec(_pareto_pool(73, 8, 22), (6.0, 14.0), trials=1, seed=5151)
    assert run_campaign(spec, workers=2) == run_campaign(spec, workers=1)
    assert pool_sizes == []


def test_strategy_ordering_on_a_synthetic_pareto_pool():
    """Shape of the published comparison: the fixed rule blows up with the
    gap while the probabilistic rule pays for longer scans with far
    smaller trees; full SB's scan cost never moves."""
    spec = CampaignSpec(
        instance=_pareto_pool(71, 36, 84),
        gaps=(8.0, 16.0, 28.0),
        trials=150,
        seed=99,
        strategies=("fixed", "prob-mixed-pareto", "full"),
    )
    rows = {(r.gap, r.strategy): r for r in run_campaign(spec)}
    for gap in spec.gaps:
        assert rows[(gap, "full")].mean_sb_nodes == 2 * 120

    # the fixed rule's scan length is gap-independent: improvements depend
    # only on the gain ordering, so identical trial streams stop alike
    fixed_sb = {rows[(gap, "fixed")].mean_sb_nodes for gap in spec.gaps}
    assert len(fixed_sb) == 1

    fixed = [rows[(gap, "fixed")].mean_total_nodes for gap in spec.gaps]
    prob = [rows[(gap, "prob-mixed-pareto")].mean_total_nodes for gap in spec.gaps]
    assert fixed[-1] > fixed[0]
    assert prob[-1] <= fixed[-1]
    sb = [rows[(gap, "prob-mixed-pareto")].mean_sb_nodes for gap in spec.gaps]
    assert sb[-1] > sb[0]  # longer scans at larger gaps


def test_campaign_spec_validation():
    inst = make_instance([1.0, 2.0])
    with pytest.raises(ValueError):
        CampaignSpec(instance=inst, gaps=(), trials=10)
    with pytest.raises(ValueError):
        CampaignSpec(instance=inst, gaps=(0.0,), trials=10)
    with pytest.raises(ValueError, match="finite"):
        CampaignSpec(instance=inst, gaps=(1.0, math.inf), trials=10)
    with pytest.raises(ValueError):
        CampaignSpec(instance=inst, gaps=(1.0,), trials=0)
    with pytest.raises(ValueError):
        CampaignSpec(instance=inst, gaps=(1.0,), strategies=("sb-magic",))
    with pytest.raises(ValueError, match="duplicate strategies"):
        CampaignSpec(instance=inst, gaps=(1.0,), strategies=("fixed", "full", "fixed"))
    with pytest.raises(ValueError, match="duplicate gaps"):
        CampaignSpec(instance=inst, gaps=(8.0, 16.0, 8))
    with pytest.raises(ValueError):
        run_campaign(CampaignSpec(instance=inst, gaps=(1.0,)), workers=0)


@pytest.mark.parametrize(
    "field, spec_args, workers",
    [("seed", {"seed": 1.5}, 1), ("trials", {"trials": 2.5}, 1), ("workers", {}, 1.5)],
    ids=["seed", "trials", "workers"],
)
def test_non_integer_counts_are_refused(field, spec_args, workers):
    """A float count is a ValueError naming it, not a TypeError mid-run."""
    with pytest.raises(ValueError, match=f"{field} must be an integer"):
        spec = CampaignSpec(make_instance([1.0, 2.0]), (4.0,), **{"trials": 5, **spec_args})
        run_campaign(spec, workers=workers)


@pytest.mark.parametrize("seed", [-1, 2**64, 2**64 + 5])
def test_seeds_outside_64_bits_are_refused(seed):
    """seed xor t is one uint64 stream per trial, so a seed past 64 bits
    would run the streams of another seed."""
    with pytest.raises(ValueError, match="seed"):
        CampaignSpec(instance=make_instance([1.0, 2.0]), gaps=(1.0,), seed=seed)


@pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 424242 + (9 << 32), 2**64 - 1])
@pytest.mark.parametrize("n", [1, 2, 64, 65, 255, 256, 500, 65536])
def test_drawn_blocks_are_the_default_rng_streams(seed, n):
    """Every row of a chunk's block, read whole, is trial t's SplitMix64
    order as the Python-int walk in tests/oracles.py draws it, for seeds
    that fill the low, the high and both words, for n at and past
    _SWAPS, for uint8, uint16 and uint32 blocks, and for chunks that do
    not start at 0. (The rows were default_rng(seed ^ t) permutations
    when the test was named.)"""
    for start, stop in ((0, 3), (1, 4), (997, 1000), (2**32 - 1, 2**32 + 1)):
        orders = simulator._Orders(seed, start, stop, n)
        block = orders[:, 0:n]
        assert block.dtype == np.min_scalar_type(n)
        for row, t in zip(block, range(start, stop)):
            assert row.tolist() == splitmix_order(seed, t, n, simulator._SWAPS), (start, t)


# trials 0..2 at seed 424242: at n = 12 every position is a swap, at
# n = 70 the last 6 positions come from the sort
_GOLDEN_ORDERS = {
    12: [
        [3, 10, 0, 9, 11, 2, 5, 1, 4, 6, 7, 8],
        [10, 3, 11, 8, 0, 1, 4, 9, 5, 2, 7, 6],
        [2, 5, 11, 9, 3, 10, 1, 8, 0, 6, 7, 4],
    ],
    70: [
        [19, 58, 9, 49, 66, 42, 41, 3, 4, 0, 21, 61, 35, 15, 54, 17, 13, 37, 56, 25, 10, 52,
         69, 28, 48, 7, 22, 23, 27, 11, 68, 5, 2, 8, 18, 59, 51, 64, 24, 63, 31, 67, 14, 50,
         40, 62, 53, 45, 33, 6, 46, 55, 34, 26, 30, 36, 38, 65, 29, 16, 1, 60, 12, 39, 44,
         43, 32, 47, 57, 20],
        [62, 17, 63, 40, 59, 36, 51, 3, 19, 66, 6, 39, 42, 9, 43, 57, 16, 18, 37, 52, 46,
         25, 34, 23, 14, 47, 27, 24, 2, 48, 38, 12, 65, 33, 22, 26, 68, 67, 30, 41, 55, 5,
         13, 21, 56, 1, 0, 44, 49, 45, 54, 50, 4, 69, 60, 29, 7, 35, 8, 20, 64, 58, 10, 61,
         11, 28, 53, 15, 32, 31],
        [14, 31, 68, 51, 52, 4, 56, 28, 6, 44, 46, 48, 30, 10, 57, 61, 13, 7, 53, 65, 54,
         63, 58, 66, 33, 39, 21, 11, 38, 36, 67, 37, 40, 19, 1, 15, 55, 17, 50, 59, 8, 32,
         45, 0, 47, 49, 41, 43, 2, 26, 9, 29, 69, 60, 3, 62, 24, 27, 34, 20, 12, 25, 42, 22,
         35, 5, 23, 18, 16, 64],
    ],
}


def test_orders_match_a_literal_golden():
    """A few rows for n below and above _SWAPS, as literals, so that the
    stream cannot move with numpy's version or SIMD targets unseen."""
    for n, rows in _GOLDEN_ORDERS.items():
        assert simulator._Orders(424242, 0, 3, n)[:, 0:n].tolist() == rows, n


@pytest.mark.parametrize("n", [5, 64, 65, 130, 500])
def test_rows_are_permutations_and_windows_read_one_order(n):
    """Reads of random rows in random windows, shrinking as _advance's do,
    see the one eager read of the whole block, and every row is a
    permutation of range(n)."""
    rng = np.random.default_rng(n)
    eager = simulator._Orders(11, 40, 340, n)[:, 0:n]
    assert (np.sort(eager, axis=1) == np.arange(n)).all()
    for _ in range(5):
        orders, alive, done = simulator._Orders(11, 40, 340, n), np.arange(300), 0
        while alive.size and done < n:
            width = int(rng.integers(1, max(2, n // 3)))
            window = orders[alive, done : done + width]
            assert np.array_equal(window, eager[alive, done : done + width])
            alive, done = alive[rng.random(alive.size) < 0.8], done + width


@pytest.mark.parametrize("n", [9, 200])
def test_a_sub_block_holds_the_rows_of_a_larger_block(n):
    whole = simulator._Orders(2**63 + 5, 100, 400, n)[:, 0:n]
    for start, stop in ((100, 101), (150, 157), (399, 400)):
        part = simulator._Orders(2**63 + 5, start, stop, n)
        assert np.array_equal(part[:, 0:n], whole[start - 100 : stop - 100])


def test_the_cells_of_a_chunk_read_one_order(monkeypatch):
    """The cells of one chunk stop at different depths and extend the same
    rows; every window any cell reads is that of one eager read."""
    reads = []
    getitem = simulator._Orders.__getitem__

    def recorded(self, index):
        window = getitem(self, index)
        reads.append((self, index, window.copy()))
        return window

    monkeypatch.setattr(simulator._Orders, "__getitem__", recorded)
    spec = CampaignSpec(
        _pareto_pool(71, 60, 140), (4.0, 30.0), trials=400, seed=8,
        strategies=("fixed", "prob-mixed-pareto", "prob-exp"),
    )
    run_campaign(spec)
    monkeypatch.undo()
    assert len({id(orders) for orders, _, _ in reads}) == 1
    depths = {index[1].stop for _, index, _ in reads}
    assert min(depths) < simulator._SWAPS < max(depths)
    n = len(spec.instance.pool)
    eager = simulator._Orders(8, 0, 400, n)[:, 0:n]
    for _, index, window in reads:
        assert np.array_equal(window, eager[index])


# (rows, lo, hi) of successive reads of a 12-row chunk: each read but the
# last settles rows that earlier reads left at different depths below
# _SWAPS, and the last crosses it on every row
_MIXED_READS = [
    ([0, 3, 6, 9], 0, 5),
    ([1, 2, 3, 4, 9], 2, 17),
    ([0, 1, 2, 3, 4, 5], 10, 40),
    ([7, 8], 0, 63),
    ([2, 8, 10], 30, 64),
    ([1, 3, 4, 6, 11], 20, 41),
    (list(range(12)), 60, None),
]


@pytest.mark.parametrize("budget", [None, 1, 2, 3])
@pytest.mark.parametrize("n", [70, 300])
def test_rows_read_at_mixed_depths_settle_one_order(monkeypatch, budget, n):
    """Each window of reads that find their rows at mixed depths is the
    Python-int walk's order and one eager read's. A read draws its swap
    indices in groups of at most ENTRY_BUDGET entries, so with the budget
    at 1 to 3 the draw splits at every edge: no draw holds more entries,
    and a read takes as many draws as its entries fill."""
    if budget is not None:
        monkeypatch.setattr(simulator, "ENTRY_BUDGET", budget)
    budget = simulator.ENTRY_BUDGET
    seed, start = 2**40 + 9, 500
    eager = simulator._Orders(seed, start, start + 12, n)[:, 0:n]
    orders, depth = simulator._Orders(seed, start, start + 12, n), np.zeros(12, int)
    draws, mix64 = [], simulator._mix64

    def counted(z):
        if z.ndim == 1:  # a swap draw; the sort's keys are 2-d
            draws.append(z.size)
        return mix64(z)

    monkeypatch.setattr(simulator, "_mix64", counted)
    for rows, lo, hi in _MIXED_READS:
        hi = n if hi is None else hi
        entries = np.clip(min(hi, simulator._SWAPS) - depth[rows], 0, None).sum()
        del draws[:]
        window = orders[np.array(rows), lo:hi]
        assert sum(draws) == entries and len(draws) == -(-entries // budget)
        assert max(draws, default=0) <= budget
        assert np.array_equal(window, eager[rows, lo:hi]), (rows, lo, hi)
        for row, got in zip(rows, window.tolist()):
            assert got == splitmix_order(seed, start + row, n, simulator._SWAPS)[lo:hi]
        depth[rows] = np.maximum(depth[rows], hi)
    assert (orders.depth == n).all()


def test_only_trials_revealing_past_the_swaps_are_sorted():
    """A window ends at _SWAPS, so after a fixed cell and a
    prob-mixed-pareto cell read one fresh chunk, exactly the rows of the
    trials that reveal past _SWAPS in either cell are settled whole; the
    others stay at or above their reveals and at or below _SWAPS."""
    rng = np.random.default_rng(97)
    pool = np.concatenate([np.zeros(150), rng.pareto(2.0, size=350) + 1.0])
    rng.shuffle(pool)
    inst, n = make_instance(pool), len(pool)
    for gap in (16.0, 48.0):
        orders = simulator._Orders(424242, 0, 1000, n)
        fixed = simulator._price(inst, gap, "fixed", orders, None, None)[0]
        prob = simulator._price(inst, gap, "prob-mixed-pareto", orders, None, None)[0]
        late = np.maximum(fixed, prob)
        assert 0 < (late > simulator._SWAPS).sum() < 1000, gap
        assert np.array_equal(orders.depth == n, late > simulator._SWAPS), gap
        early = late <= simulator._SWAPS
        assert (orders.depth[early] >= late[early]).all()
        assert (orders.depth[early] <= simulator._SWAPS).all()


def _chi2_p(counts):
    """Upper tail of a chi-squared statistic for uniform counts, by the
    Wilson-Hilferty cube-root normal approximation."""
    counts = np.asarray(counts, dtype=float).ravel()
    k, expected = counts.size - 1, counts.mean()
    stat = float(((counts - expected) ** 2).sum() / expected)
    z = ((stat / k) ** (1 / 3) - (1 - 2 / (9 * k))) / math.sqrt(2 / (9 * k))
    return 0.5 * math.erfc(z / math.sqrt(2))


@pytest.mark.parametrize("n", [50, 80])
def test_orders_are_uniform_by_position_and_by_leading_pair(n):
    """Over 200k trials, the element at each position and the (position 0,
    position 1) pair are uniform by chi-squared; at n = 80 positions 64..79
    come from the sort."""
    block = simulator._Orders(20260, 0, 200_000, n)[:, 0:n]
    p_values = [_chi2_p(np.bincount(block[:, p], minlength=n)) for p in range(n)]
    assert min(p_values) > 1e-4, min(p_values)
    pairs = np.bincount(block[:, 0].astype(int) * n + block[:, 1], minlength=n * n)
    off_diagonal = np.delete(pairs, np.arange(n) * (n + 1))
    assert pairs[np.arange(n) * (n + 1)].sum() == 0
    assert _chi2_p(off_diagonal) > 1e-4


def test_a_trial_without_an_rng_is_refused_unless_full():
    inst = make_instance([0.0, 2.0, 3.0])
    for strategy in set(STRATEGIES) - {"full"}:
        with pytest.raises(ValueError, match=f"strategy {strategy!r}"):
            run_trial(inst, 7.0, strategy, None)


def test_a_campaign_draws_no_block_for_full_alone(monkeypatch):
    def refuse(*args):
        raise AssertionError("a `full` cell drew a permutation block")

    monkeypatch.setattr(simulator, "_Orders", refuse)
    spec = CampaignSpec(
        _pareto_pool(73, 8, 22), (6.0, 14.0), trials=30, seed=3, strategies=("full",)
    )
    assert [r.mean_sb_nodes for r in run_campaign(spec)] == [60.0, 60.0]


@pytest.mark.parametrize("trials", [1, 999, 1000, 1001, 2500])
def test_one_worker_chunks_match_two_workers(monkeypatch, trials):
    """With one worker a cell is one chunk until its block passes 1 MB
    (1048 rows of uint16 at n = 500); the rows equal those of the four
    chunks per worker that two workers price."""
    spec = CampaignSpec(
        _pareto_pool(71, 150, 350), (8.0, 40.0), trials=trials, seed=424242 + (3 << 32),
        strategies=("fixed", "prob-mixed-pareto", "full"),
    )
    two = run_campaign(spec, workers=2)
    chunks = []
    price = simulator._chunk_sums

    def recorded(args):
        chunks.append(args[1:3])
        return price(args)

    monkeypatch.setattr(simulator, "_chunk_sums", recorded)
    assert run_campaign(spec, workers=1) == two
    step = min(trials, 1048)
    assert chunks == [(lo, min(lo + step, trials)) for lo in range(0, trials, step)]


@pytest.mark.parametrize("workers", [1, 2])
def test_the_first_capacity_error_is_the_first_trials_in_the_first_cell(workers):
    """At gap 8 a few `fixed` trials stop on a gain below 8/1022; the
    first of them, past the first chunk of two workers, raises, though
    `full` comes first in each gap and gap 9 fails in other trials."""
    rng = np.random.default_rng(5)
    pool = np.concatenate([np.zeros(300), rng.uniform(0.004, 0.03, 200)])
    rng.shuffle(pool)
    spec = CampaignSpec(
        make_instance(pool), (8.0, 9.0), trials=2500, seed=77, strategies=("full", "fixed")
    )
    first = None
    for t in range(spec.trials):
        try:
            run_trial(spec.instance, 8.0, "fixed", campaign_rng(77, t, len(pool)))
        except CapacityError as exc:
            first = t, str(exc)
            break
    assert first is not None and first[0] >= -(-spec.trials // 8)
    with pytest.raises(CapacityError) as exc:
        run_campaign(spec, workers)
    assert str(exc.value) == first[1]


@pytest.mark.parametrize("workers", [1, 2])
def test_a_fault_in_run_trial_fails_the_campaign(monkeypatch, workers):
    """The benchmark's --break-program makes run_trial raise for `full`;
    the campaign must look it up per call and let the fault through."""
    original = simulator.run_trial

    def faulty(instance, gap, strategy, *args, **kwargs):
        if strategy == "full":
            raise RuntimeError("fault injected")
        return original(instance, gap, strategy, *args, **kwargs)

    monkeypatch.setattr(simulator, "run_trial", faulty)
    spec = CampaignSpec(_pareto_pool(73, 8, 22), (6.0,), trials=20, seed=3)
    with pytest.raises(RuntimeError, match="fault injected"):
        run_campaign(spec, workers=workers)


class TestCampaignGolden:
    """Pinned rows of the criterion-5 campaign: the zero-inflated Pareto
    pool of rng 97, gaps 8..48, 1000 trials at seed 424242, with `fixed`,
    `prob-mixed-pareto` and `full`.

    The digest was taken before the campaign priced its trials as one
    block of permutations per chunk, and re-pinned once when trial orders
    moved from default_rng to the SplitMix64 stream; any change to a
    decision, a count, a mean or a trial's order moves it.
    """

    DIGEST = "0e897e506cab2fbee98eeb3db86fa48fbd52201134b680514b003a5d3cc37ff8"

    @staticmethod
    def spec(strategies):
        rng = np.random.default_rng(97)
        tail = rng.pareto(2.0, size=350) + 1.0
        pool = np.concatenate([np.zeros(150), tail])
        rng.shuffle(pool)
        gaps = (8.0, 16.0, 24.0, 32.0, 40.0, 48.0)
        return CampaignSpec(
            instance=PvbInstance(gap=gaps[0], pool=tuple(pool)),
            gaps=gaps,
            trials=1000,
            seed=424242,
            strategies=strategies,
        )

    def test_rows_match_pinned_digest(self):
        rows = run_campaign(self.spec(("fixed", "prob-mixed-pareto", "full")))
        assert hashlib.sha256(repr(rows).encode()).hexdigest() == self.DIGEST

    def test_the_bounds_settle_most_tested_rows(self, monkeypatch):
        """Of the rows that the six prob-mixed-pareto cells test, fewer than
        a tenth reach saving_stops; the rest are settled by the two bounds
        on their survival S (12,977 of 192,261, or 6.7%, when this test was
        written)."""
        tested, priced = [], []
        screen, verdict = lookahead._tested_stops, lookahead.saving_stops

        def count_tested(gap, depth, *fit):
            tested.append(len(depth))
            return screen(gap, depth, *fit)

        def count_priced(ps, d_min):
            priced.append(len(d_min))
            return verdict(ps, d_min)

        monkeypatch.setattr(lookahead, "_tested_stops", count_tested)
        monkeypatch.setattr(lookahead, "saving_stops", count_priced)
        run_campaign(self.spec(("prob-mixed-pareto",)))
        assert 0 < 10 * sum(priced) < sum(tested)
