import dataclasses
import math

import numpy as np
import pytest

from pvb.abstract_tree import (
    UNBOUNDED,
    AbstractVariable,
    CapacityError,
    PvbInstance,
    TreeCost,
    build_svb_tree,
    load_pool,
    node_gap,
    save_pool,
    svb_depth,
    svb_tree_size,
)

from oracles import brute_tree_count


class TestNodeGap:
    def test_root_left(self):
        assert node_gap(0.0, AbstractVariable("x", 2, 3), "left") == 2

    def test_right(self):
        assert node_gap(5.0, AbstractVariable("x", 2, 3), "right") == 8

    def test_chained(self):
        v = AbstractVariable("x", 2, 3)
        g = node_gap(node_gap(node_gap(0, v, "left"), v, "left"), v, "right")
        assert g == 7

    def test_additivity_over_random_paths(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            v = AbstractVariable("x", rng.uniform(0, 5), rng.uniform(0, 5))
            sides = rng.choice(["left", "right"], size=rng.integers(1, 21))
            g = 0.0
            for s in sides:
                g = node_gap(g, v, s)
            expected = sum(v.left_gain if s == "left" else v.right_gain for s in sides)
            assert g == pytest.approx(expected, rel=1e-12)

    def test_bad_side(self):
        with pytest.raises(ValueError):
            node_gap(0, AbstractVariable("x", 1, 1), "up")


class TestSvbDepth:
    def test_examples(self):
        assert svb_depth(10, 3) == 4
        assert svb_depth(10, 10) == 1
        assert svb_depth(10, 0) == UNBOUNDED

    def test_zero_classified_gain(self):
        assert svb_depth(5, 5e-10) == UNBOUNDED

    def test_bad_gap(self):
        with pytest.raises(ValueError):
            svb_depth(0, 1)


class TestSvbTreeSize:
    def test_values(self):
        assert svb_tree_size(1) == 3
        assert svb_tree_size(4) == 31
        assert svb_tree_size(62) == 2**63 - 1

    def test_capacity_guard(self):
        with pytest.raises(CapacityError):
            svb_tree_size(63)
        with pytest.raises(CapacityError):
            svb_tree_size(UNBOUNDED)

    def test_bad_depth(self):
        with pytest.raises(ValueError):
            svb_tree_size(0)


class TestBuildSvbTree:
    def test_symmetric_example(self):
        assert build_svb_tree(10, AbstractVariable("x", 3, 3)) == 31

    def test_asymmetric_example(self):
        # frozen from the independent brute-force builder (stack expansion,
        # no memoization): root 0 -> {1,2}, 1 -> {2,3}, each 2 -> {3,4}
        # gives 4 internal + 5 leaf nodes
        assert brute_tree_count(3, 1, 2) == 9
        assert build_svb_tree(3, AbstractVariable("x", 1, 2)) == 9

    def test_one_branching_closes(self):
        assert build_svb_tree(1, AbstractVariable("x", 5, 7)) == 3

    def test_matches_brute_force_on_random_gains(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            l, r = rng.uniform(0.5, 5.0, size=2)
            gap = rng.uniform(0.5, 12.0)
            v = AbstractVariable("x", l, r)
            assert build_svb_tree(gap, v) == brute_tree_count(gap, l, r)

    def test_a1_literal(self):
        # symmetric gains reproduce the closed-form size exactly
        for g in (0.5, 1.0, 2.7, 10.0):
            for gap in (1.0, 10.0, 100.0):
                if gap / g > 20:
                    continue
                var = AbstractVariable("x", g, g)
                d = svb_depth(gap, g)
                assert build_svb_tree(gap, var) == svb_tree_size(d)

    def test_asymmetric_lower_bound(self):
        rng = np.random.default_rng(37)
        for _ in range(60):
            l, r = rng.uniform(0.3, 4.0, size=2)
            gap = rng.uniform(1.0, 10.0)
            size = build_svb_tree(gap, AbstractVariable("x", l, r))
            assert size >= svb_tree_size(svb_depth(gap, max(l, r)))

    def test_capacity_guard(self):
        with pytest.raises(CapacityError):
            build_svb_tree(30.0, AbstractVariable("x", 1.0, 1.0))  # depth 30
        with pytest.raises(CapacityError):
            build_svb_tree(1e6, AbstractVariable("x", 1e-4, 1e6))  # long thin path

    def test_requires_positive_gains(self):
        with pytest.raises(ValueError):
            build_svb_tree(5, AbstractVariable("x", 0.0, 2.0))


class TestTreeCost:
    def test_after_reveals(self):
        c = TreeCost.after_reveals(15, 5)
        assert (c.final_tree_nodes, c.sb_nodes, c.total) == (15, 10, 25)

    def test_proposition_identity(self):
        # after i reveals and stopping at depth d: total = 2^(d+1) - 1 + 2i
        rng = np.random.default_rng(41)
        for _ in range(100):
            d = int(rng.integers(1, 30))
            i = int(rng.integers(0, 100))
            c = TreeCost.after_reveals(svb_tree_size(d), i)
            assert c.total == 2 ** (d + 1) - 1 + 2 * i

    def test_validation(self):
        with pytest.raises(ValueError):
            TreeCost(3, 3, 6)  # odd sb_nodes
        with pytest.raises(ValueError):
            TreeCost(3, 2, 6)  # total mismatch


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


class TestPoolFile:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(43)
        gains = tuple(float(g) for g in rng.uniform(0, 100, size=40))
        p = tmp_path / "pool.csv"
        save_pool(str(p), gains)
        assert load_pool(str(p)) == gains

    def test_bad_header(self, tmp_path):
        p = tmp_path / "pool.csv"
        p.write_text("gain\n1.0\n")
        with pytest.raises(ValueError, match="geomean_gain"):
            load_pool(str(p))

    def test_bad_value_names_line(self, tmp_path):
        p = tmp_path / "pool.csv"
        p.write_text("geomean_gain\n1.0\n-3\n")
        with pytest.raises(ValueError, match=":3:"):
            load_pool(str(p))
