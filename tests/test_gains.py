import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pvb.gains import (
    DEFAULT_EPSILON,
    GainFileError,
    is_zero_gain,
    load_gain_series,
    shifted_geomean,
)

from helpers import save_gain_series
from oracles import shifted_geomean_mp

HEADER = "node_id,variable_id,downgain,upgain\n"


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


def test_gain_pair_rejects_bad_values(tmp_path):
    # each side of a row is checked where the row is read, and named
    p = tmp_path / "g.csv"
    for down, up, message in (
        ("-1.0", "2.0", "negative downgain: -1.0"),
        ("1.0", "nan", "non-finite upgain: nan"),
        ("inf", "1.0", "non-finite downgain: inf"),
        ("1e200", "1e200", "geometric-mean gain overflows: inf"),
    ):
        p.write_text(f"{HEADER}n0,x1,{down},{up}\n")
        with pytest.raises(GainFileError) as caught:
            load_gain_series(str(p))
        assert str(caught.value) == f"{p}:2: {message}"
    with pytest.raises(ValueError, match="overflows"):
        shifted_geomean(1e200, 1e200)


def test_zero_classification():
    assert is_zero_gain(0.0)
    assert is_zero_gain(9.9e-10)
    assert not is_zero_gain(1.1e-9)


class TestGainFile:
    def test_basic_load(self, tmp_path):
        p = tmp_path / "g.csv"
        p.write_text(HEADER + "n0,x1,1.0,4.0\nn0,x2,0,0\n")
        pools = load_gain_series(str(p))
        assert list(pools) == ["n0"]
        assert len(pools["n0"]) == 2
        assert sum(map(is_zero_gain, pools["n0"])) == 1

    def test_multiple_nodes_preserve_order(self, tmp_path):
        p = tmp_path / "g.csv"
        p.write_text(HEADER + "b,x1,1,1\na,x1,2,2\nb,x2,3,3\n")
        pools = load_gain_series(str(p))
        assert list(pools) == ["b", "a"]
        assert pools["b"] == (shifted_geomean(1.0, 1.0), shifted_geomean(3.0, 3.0))

    def test_empty_file(self, tmp_path):
        # no data row, so nothing to fit or simulate: the reader refuses it
        p = tmp_path / "g.csv"
        for text in ("", HEADER, HEADER + "\n\n"):
            p.write_text(text)
            with pytest.raises(GainFileError) as caught:
                load_gain_series(str(p))
            assert str(caught.value) == f"{p}: no gain rows"

    def test_negative_gain_names_line(self, tmp_path):
        p = tmp_path / "g.csv"
        p.write_text(HEADER + "n0,x1,1,2\nn0,x2,-1,2\n")
        with pytest.raises(GainFileError, match=":3:"):
            load_gain_series(str(p))

    def test_overflowing_geometric_mean_names_line(self, tmp_path):
        p = tmp_path / "g.csv"
        p.write_text(HEADER + "n0,x1,1e200,1e200\n")
        with pytest.raises(GainFileError, match=":2:.*overflows"):
            load_gain_series(str(p))

    def test_duplicate_key_names_line(self, tmp_path):
        p = tmp_path / "g.csv"
        p.write_text(HEADER + "n0,x1,1,2\nn0,x1,3,4\n")
        with pytest.raises(GainFileError, match=":3:"):
            load_gain_series(str(p))

    def test_malformed_row(self, tmp_path):
        p = tmp_path / "g.csv"
        p.write_text(HEADER + "n0,x1,oops,2\n")
        with pytest.raises(GainFileError, match=":2:"):
            load_gain_series(str(p))
        p.write_text(HEADER + "n0,x1,1\n")
        with pytest.raises(GainFileError, match="4 fields"):
            load_gain_series(str(p))

    def test_bad_header(self, tmp_path):
        p = tmp_path / "g.csv"
        p.write_text("node,var,down,up\nn0,x1,1,2\n")
        with pytest.raises(GainFileError, match=":1:"):
            load_gain_series(str(p))

    def test_non_utf8_file(self, tmp_path):
        p = tmp_path / "g.csv"
        p.write_bytes((HEADER + "n0,x1,1,2\n").encode() + b"n\xff,x2,1,2\n")
        with pytest.raises(GainFileError, match="not UTF-8 text"):
            load_gain_series(str(p))

    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(19)
        pairs = [(float(d), float(u)) for d, u in rng.uniform(0, 1e3, size=(50, 2))]
        p = tmp_path / "g.csv"
        save_gain_series(str(p), [("n0", f"x{i}", d, u) for i, (d, u) in enumerate(pairs)])
        pool = load_gain_series(str(p))["n0"]
        assert [g.hex() for g in pool] == [shifted_geomean(d, u).hex() for d, u in pairs]


# ------------------------------------------------- the reader, by property

GAINS = st.one_of(
    # zeros, gains on either side of the zero tolerance, the smallest
    # normal scale, and sides near 1e154, whose product nears the float
    # limit without passing it; a sampled value repeats across rows
    st.sampled_from((0.0, 0.0, 1e-300, 5e-324, 1e-9, 1.0, 2.5, 1e154, 1.3e154)),
    st.floats(0.0, 1e6),
    st.floats(1e150, 1.3e154),
)
ROWS = st.lists(st.tuples(st.sampled_from("abc"), GAINS, GAINS), min_size=1, max_size=40)
BAD_ROWS = {
    "nan": ("nan", "1", "non-finite downgain: nan"),
    "inf": ("1", "inf", "non-finite upgain: inf"),
    "negative": ("2", "-0.5", "negative upgain: -0.5"),
    "overflow": ("1e200", "1e200", "geometric-mean gain overflows: inf"),
}
READER = settings(max_examples=200, deadline=None, derandomize=True, database=None)


@pytest.fixture(scope="module")
def gain_path(tmp_path_factory):
    return tmp_path_factory.mktemp("reader") / "gains.csv"


def file_rows(rows):
    return [(node, f"v{i}", down, up) for i, (node, down, up) in enumerate(rows)]


@READER
@given(rows=ROWS)
def test_rows_read_back_to_their_collapsed_pools(gain_path, rows):
    save_gain_series(str(gain_path), file_rows(rows))
    want = {}
    for node, down, up in rows:
        want.setdefault(node, []).append(shifted_geomean(down, up).hex())
    pools = load_gain_series(str(gain_path))
    assert list(pools) == list(want)
    assert {node: [g.hex() for g in pool] for node, pool in pools.items()} == want


@READER
@given(rows=ROWS, data=st.data())
def test_one_bad_row_among_good_ones_is_refused_with_its_line(gain_path, rows, data):
    kind = data.draw(st.sampled_from((*BAD_ROWS, "repeated key")))
    lines = [",".join((n, v, f"{d:.17g}", f"{u:.17g}")) for n, v, d, u in file_rows(rows)]
    at = data.draw(st.integers(1 if kind == "repeated key" else 0, len(lines)))
    if kind == "repeated key":
        node, var = lines[data.draw(st.integers(0, at - 1))].split(",")[:2]
        bad, message = f"{node},{var},1,1", f"duplicate entry {(node, var)!r}"
    else:
        down, up, message = BAD_ROWS[kind]
        bad = f"{data.draw(st.sampled_from('abc'))},bad,{down},{up}"
    lines.insert(at, bad)
    gain_path.write_text(HEADER + "\n".join(lines) + "\n")
    with pytest.raises(GainFileError) as caught:
        load_gain_series(str(gain_path))
    assert str(caught.value) == f"{gain_path}:{at + 2}: {message}"
