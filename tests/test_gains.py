import math

import numpy as np
import pytest

from pvb.gains import (
    DEFAULT_EPSILON,
    GainFileError,
    GainPair,
    GainSeries,
    is_zero_gain,
    load_gain_series,
    shifted_geomean,
)

from helpers import save_gain_series
from oracles import shifted_geomean_mp


def test_symmetric_pair_is_exact():
    # sqrt((4+eps)^2) - eps == 4 up to the stated 1e-9
    g = shifted_geomean(4.0, 4.0)
    assert abs(g - 4.0) <= 1e-9


def test_zero_pair_is_exactly_zero():
    assert shifted_geomean(0.0, 0.0) == 0.0


def test_one_sided_pair_matches_extended_precision():
    # frozen from the 60-digit oracle: sqrt(1e-6 * 9.000001) - 1e-6
    expected = 0.002999000166666662
    assert shifted_geomean_mp(0.0, 9.0, DEFAULT_EPSILON) == pytest.approx(expected, abs=1e-18)
    g = shifted_geomean(0.0, 9.0)
    assert g == pytest.approx(expected, rel=1e-12)


def test_symmetric_pairs_exact_to_4_ulp():
    rng = np.random.default_rng(7)
    for g in rng.uniform(1e-9, 1e6, size=500):
        got = shifted_geomean(g, g)
        assert abs(got - g) <= 4 * math.ulp(g)


def test_matches_extended_precision_and_plain_geomean():
    rng = np.random.default_rng(11)
    pairs = rng.uniform(0.01, 100.0, size=(200, 2))
    for d, u in pairs:
        got = shifted_geomean(d, u)
        assert got == pytest.approx(shifted_geomean_mp(d, u, DEFAULT_EPSILON), rel=1e-12)
        # the shift is small: the plain geometric mean, to within 1e-5
        assert abs(got - math.sqrt(d * u)) <= 1e-5


def test_monotone_and_symmetric():
    rng = np.random.default_rng(3)
    for _ in range(200):
        d, u, bump = rng.uniform(0.0, 50.0, size=3)
        base = shifted_geomean(d, u)
        assert shifted_geomean(u, d) == base
        assert shifted_geomean(d + bump, u) >= base
        assert shifted_geomean(d, u + bump) >= base


def test_gain_pair_rejects_bad_values():
    with pytest.raises(ValueError):
        GainPair(-1.0, 2.0)
    with pytest.raises(ValueError):
        GainPair(1.0, float("nan"))
    with pytest.raises(ValueError):
        GainPair(float("inf"), 1.0)
    with pytest.raises(ValueError, match="overflows"):
        shifted_geomean(1e200, 1e200)


def test_zero_classification():
    assert is_zero_gain(0.0)
    assert is_zero_gain(9.9e-10)
    assert not is_zero_gain(1.1e-9)


class TestGainSeries:
    def test_zero_count(self):
        s = GainSeries("n0", (("x1", GainPair(1.0, 4.0)), ("x2", GainPair(0.0, 0.0))))
        assert len(s.geomeans) == 2
        assert sum(map(is_zero_gain, s.geomeans)) == 1

    def test_duplicate_variable_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            GainSeries("n0", (("x1", GainPair(1, 1)), ("x1", GainPair(2, 2))))


class TestGainFile:
    HEADER = "node_id,variable_id,downgain,upgain\n"

    def test_basic_load(self, tmp_path):
        p = tmp_path / "g.csv"
        p.write_text(self.HEADER + "n0,x1,1.0,4.0\nn0,x2,0,0\n")
        series = load_gain_series(str(p))
        assert len(series) == 1
        assert series[0].node_id == "n0"
        assert len(series[0].geomeans) == 2
        assert sum(map(is_zero_gain, series[0].geomeans)) == 1

    def test_multiple_nodes_preserve_order(self, tmp_path):
        p = tmp_path / "g.csv"
        p.write_text(self.HEADER + "b,x1,1,1\na,x1,2,2\nb,x2,3,3\n")
        series = load_gain_series(str(p))
        assert [s.node_id for s in series] == ["b", "a"]
        assert [v for v, _ in series[0].entries] == ["x1", "x2"]

    def test_empty_file(self, tmp_path):
        p = tmp_path / "g.csv"
        p.write_text("")
        assert load_gain_series(str(p)) == []
        p.write_text(self.HEADER)
        assert load_gain_series(str(p)) == []

    def test_negative_gain_names_line(self, tmp_path):
        p = tmp_path / "g.csv"
        p.write_text(self.HEADER + "n0,x1,1,2\nn0,x2,-1,2\n")
        with pytest.raises(GainFileError, match=":3:"):
            load_gain_series(str(p))

    def test_overflowing_geometric_mean_names_line(self, tmp_path):
        p = tmp_path / "g.csv"
        p.write_text(self.HEADER + "n0,x1,1e200,1e200\n")
        with pytest.raises(GainFileError, match=":2:.*overflows"):
            load_gain_series(str(p))

    def test_duplicate_key_names_line(self, tmp_path):
        p = tmp_path / "g.csv"
        p.write_text(self.HEADER + "n0,x1,1,2\nn0,x1,3,4\n")
        with pytest.raises(GainFileError, match=":3:"):
            load_gain_series(str(p))

    def test_malformed_row(self, tmp_path):
        p = tmp_path / "g.csv"
        p.write_text(self.HEADER + "n0,x1,oops,2\n")
        with pytest.raises(GainFileError, match=":2:"):
            load_gain_series(str(p))
        p.write_text(self.HEADER + "n0,x1,1\n")
        with pytest.raises(GainFileError, match="4 fields"):
            load_gain_series(str(p))

    def test_bad_header(self, tmp_path):
        p = tmp_path / "g.csv"
        p.write_text("node,var,down,up\nn0,x1,1,2\n")
        with pytest.raises(GainFileError, match=":1:"):
            load_gain_series(str(p))

    def test_non_utf8_file(self, tmp_path):
        p = tmp_path / "g.csv"
        p.write_bytes((self.HEADER + "n0,x1,1,2\n").encode() + b"n\xff,x2,1,2\n")
        with pytest.raises(GainFileError, match="not UTF-8 text"):
            load_gain_series(str(p))

    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(19)
        entries = tuple(
            (f"x{i}", GainPair(float(d), float(u)))
            for i, (d, u) in enumerate(rng.uniform(0, 1e3, size=(50, 2)))
        )
        original = [GainSeries("n0", entries)]
        p = tmp_path / "g.csv"
        save_gain_series(str(p), original)
        loaded = load_gain_series(str(p))
        assert len(loaded[0].entries) == 50
        for (v0, p0), (v1, p1) in zip(original[0].entries, loaded[0].entries):
            assert v0 == v1
            assert (p0.down, p0.up) == (p1.down, p1.up)
