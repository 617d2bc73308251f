import dataclasses
import math

import numpy as np
import pytest

from pvb.abstract_tree import (
    MAX_FINAL_DEPTH,
    UNBOUNDED,
    CapacityError,
    PvbInstance,
    svb_depth,
    svb_tree_size,
)
from pvb.lookahead import SbSession

from helpers import nodes_if_stop
from oracles import TreeBudgetError, brute_tree_count, build_svb_tree


class TestSvbDepth:
    def test_examples(self):
        assert svb_depth(10, 3) == 4
        assert svb_depth(10, 10) == 1
        assert svb_depth(10, 0) == UNBOUNDED

    def test_zero_classified_gain(self):
        assert svb_depth(5, 5e-10) == UNBOUNDED

    def test_ratio_beyond_the_float_range_is_unbounded(self):
        # 1e300 / 2e-9 overflows to inf, which has no integer ceiling
        assert svb_depth(1e300, 2e-9) == UNBOUNDED
        with pytest.raises(CapacityError, match="depth inf exceeds 1022"):
            svb_tree_size(svb_depth(1e300, 2e-9))

    def test_bad_gap(self):
        with pytest.raises(ValueError):
            svb_depth(0, 1)


class TestSvbTreeSize:
    def test_values(self):
        assert svb_tree_size(1) == 3
        assert svb_tree_size(4) == 31
        assert svb_tree_size(62) == 2**63 - 1
        assert svb_tree_size(MAX_FINAL_DEPTH) == 2**1023 - 1

    def test_capacity_guard(self):
        with pytest.raises(CapacityError, match="exceeds 1022"):
            svb_tree_size(1023)
        with pytest.raises(CapacityError):
            svb_tree_size(UNBOUNDED)

    def test_bad_depth(self):
        with pytest.raises(ValueError):
            svb_tree_size(0)

    def test_float_value_is_the_float_formula(self):
        # the float form the expectation sums used to spell out
        for d in range(1, MAX_FINAL_DEPTH + 1):
            assert float(svb_tree_size(d)) == 2.0 ** (d + 1) - 1.0

    def test_proposition_identity(self):
        # after i reveals and stopping at depth d: total = 2^(d+1) - 1 + 2i
        rng = np.random.default_rng(41)
        for _ in range(100):
            d = int(rng.integers(1, 30))
            i = int(rng.integers(0, 100))
            t = nodes_if_stop(SbSession(gap=1.0, iteration=i, d_min=d))
            assert t == svb_tree_size(d) + 2 * i == 2 ** (d + 1) - 1 + 2 * i


class TestBuildSvbTree:
    """The memoized oracle builder in tests/oracles.py against the brute
    expansion and against svb_tree_size."""

    def test_symmetric_example(self):
        assert build_svb_tree(10, 3, 3) == 31

    def test_asymmetric_example(self):
        # frozen from the independent brute-force builder (stack expansion,
        # no memoization): root 0 -> {1,2}, 1 -> {2,3}, each 2 -> {3,4}
        # gives 4 internal + 5 leaf nodes
        assert brute_tree_count(3, 1, 2) == 9
        assert build_svb_tree(3, 1, 2) == 9

    def test_one_branching_closes(self):
        assert build_svb_tree(1, 5, 7) == 3

    def test_matches_brute_force_on_random_gains(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            l, r = rng.uniform(0.5, 5.0, size=2)
            gap = rng.uniform(0.5, 12.0)
            assert build_svb_tree(gap, l, r) == brute_tree_count(gap, l, r)

    def test_a1_literal(self):
        # symmetric gains reproduce the closed-form size exactly
        for g in (0.5, 1.0, 2.7, 10.0):
            for gap in (1.0, 10.0, 100.0):
                if gap / g > 20:
                    continue
                d = svb_depth(gap, g)
                assert build_svb_tree(gap, g, g) == svb_tree_size(d)

    def test_asymmetric_lower_bound(self):
        rng = np.random.default_rng(37)
        for _ in range(60):
            l, r = rng.uniform(0.3, 4.0, size=2)
            gap = rng.uniform(1.0, 10.0)
            size = build_svb_tree(gap, l, r)
            assert size >= svb_tree_size(svb_depth(gap, max(l, r)))

    def test_capacity_guard(self):
        with pytest.raises(TreeBudgetError):
            build_svb_tree(30.0, 1.0, 1.0)  # depth 30
        with pytest.raises(TreeBudgetError):
            build_svb_tree(1e6, 1e-4, 1e6)  # long thin path

    def test_requires_positive_gains(self):
        with pytest.raises(ValueError):
            build_svb_tree(5, 0.0, 2.0)


class TestPvbInstance:
    def test_is_frozen(self):
        inst = PvbInstance(5.0, (2, 5, 1))
        assert inst.pool == (2.0, 5.0, 1.0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            inst.pool = (1.0,)

    def test_reveal_arrays(self):
        inst = PvbInstance(5.0, (2.0, 0.0, 5e-10, 1e-9, 3.5))
        gains, logs = inst.reveal_arrays
        assert gains.tolist() == [2.0, 0.0, 0.0, 1e-9, 3.5]
        assert logs.tolist() == [math.log(2.0), 0.0, 0.0, math.log(1e-9), math.log(3.5)]
        assert inst.reveal_arrays is inst.reveal_arrays
        assert PvbInstance(5.0, ()).reveal_arrays[0].shape == (0,)

    def test_validation(self):
        with pytest.raises(ValueError):
            PvbInstance(0.0, (1, 2))
        with pytest.raises(ValueError):
            PvbInstance(1.0, (-1.0,))
