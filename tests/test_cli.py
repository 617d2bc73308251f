"""Command line contract tests.

Every command runs in process through main(argv) so exit codes, stdout
tables, and written CSVs are all observable; only the closed-stdout cases
run `python -m pvb.cli`, since they need a real pipe. Determinism cases
compare raw output bytes; statistical cases reuse the seeded corpus and
pools.
"""

import argparse
import csv
import hashlib
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import pvb
from pvb import InputError, cli, read_csv
from pvb.cli import main, render_table, shifted_geomean_stat
from pvb.gains import GainFileError, load_gain_series
from pvb.mini_bnb import MpsError, load_mps, save_mps, solve, sparse_multiknapsack

from helpers import save_gain_series, toy_corpus

EXAMPLES = Path(__file__).resolve().parent.parent / "instances"

# an MPS file with an objective row and nothing else
EMPTY_MODEL = "NAME X\nROWS\n N COST\nENDATA\n"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_scaled_knapsack(path, exponent):
    """tiny-knapsack.mps with every objective coefficient times 10**exponent."""
    text = (EXAMPLES / "tiny-knapsack.mps").read_text()
    scaled = re.sub(r"(COST +-\d+\.\d+)", rf"\1e{exponent}", text)
    assert scaled.count(f"e{exponent}") == 6
    path.write_text(scaled)
    return path


def write_non_utf8(path, source):
    """source's bytes with a 0xff byte, which no UTF-8 text holds, in the first line."""
    data = source.read_bytes()
    path.write_bytes(data[:1] + b"\xff" + data[1:])
    return path


def assert_refused_before_work(code, stdout, stderr, out):
    """The command exited 2 on its --out path, with an error line and no table."""
    assert code == 2 and stdout == ""
    assert stderr.startswith("error: cannot write") and str(out) in stderr
    assert "internal error" not in stderr


def no_work(*args, **kwargs):
    raise AssertionError("the command did its work before checking --out")


def write_pool(path, seed, n=300, zero_frac=0.3, tail="pareto", node="root"):
    rng = np.random.default_rng(seed)
    rows = []
    for i in range(n):
        if rng.random() < zero_frac:
            value = 0.0
        elif tail == "pareto":
            value = float(rng.pareto(2.0) + 1.0)
        else:
            value = float(rng.exponential(0.5))
        rows.append((node, f"v{i}", value, value))
    save_gain_series(path, rows)
    return path


class TestHelpers:
    def test_shifted_geomean_hand_value(self):
        # sqrt(200 * 500) - 100
        assert shifted_geomean_stat((100.0, 400.0), 100.0) == pytest.approx(
            216.2277660168379, abs=1e-9
        )

    def test_shifted_geomean_single_value_is_identity(self):
        assert shifted_geomean_stat([37.0], 100.0) == pytest.approx(37.0)

    def test_render_table_alignment(self):
        text = render_table(("a", "bb"), [("x", "1"), ("longer", "22")])
        lines = text.splitlines()
        assert lines[0] == "a       bb"
        assert lines[1] == "x        1"
        assert lines[2] == "longer  22"


@pytest.mark.parametrize(
    "command, text, message",
    [
        ("report", "a,b\n\n1,2\n\n3\n", "5: expected 2 columns, got 1"),
        ("report", 'a,b\n"two\nlines",1\n3\n', "4: expected 2 columns, got 1"),
        ("report", 'a,b\n1,2\n"two\nlines"\n', "3: expected 2 columns, got 1"),
        ("fit", "node_id,variable_id,downgain,upgain\n\nn0,x1,1,1\n\nn0,x2,-1,1\n",
         "5: negative downgain: -1.0"),
        ("fit", 'node_id,variable_id,downgain,upgain\nn0,"x\n1",1,1\nn0,x2,inf,1\n',
         "4: non-finite downgain: inf"),
    ],
    ids=["report-blank-lines", "report-two-line-field", "report-two-line-row",
         "fit-blank-lines", "fit-two-line-field"],
)
def test_a_row_error_names_the_row_s_first_line(tmp_path, capsys, command, text, message):
    """Blank lines and a quoted field over two lines count as the lines they
    are: a faulty row is named by the first physical line it starts on."""
    path = tmp_path / "t.csv"
    path.write_text(text)
    argv = {
        "report": ("report", str(path)),
        "fit": ("fit", str(path), "--out", str(tmp_path / "o.csv")),
    }[command]
    assert run(capsys, *argv) == (2, "", f"error: {path}:{message}\n")


class TestFit:
    def test_rows_are_series_times_families(self, tmp_path, capsys):
        pool = write_pool(tmp_path / "pool.csv", 3)
        out = tmp_path / "fit.csv"
        code, stdout, _ = run(
            capsys, "fit", str(pool), "--out", str(out),
            "--families", "exponential,pareto",
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "node_id,family,p0,theta1,theta2,ks_D,ks_p,verdict"
        assert len(lines) == 1 + 1 * 2
        assert stdout.startswith("node_id")

    def test_missing_file_exits_2_and_names_path(self, tmp_path, capsys):
        missing = tmp_path / "nope.csv"
        code, _, stderr = run(capsys, "fit", str(missing), "--out", str(tmp_path / "o.csv"))
        assert code == 2
        assert str(missing) in stderr

    def test_exponential_tail_is_not_rejected(self, tmp_path, capsys):
        pool = write_pool(tmp_path / "pool.csv", 42, n=400, tail="exponential")
        out = tmp_path / "fit.csv"
        code, _, _ = run(
            capsys, "fit", str(pool), "--out", str(out), "--families", "exponential"
        )
        assert code == 0
        row = out.read_text().splitlines()[1].split(",")
        assert row[1] == "exponential"
        assert row[7] == "not-rejected"

    def test_missing_out_directory_exits_2_before_fitting(self, tmp_path, capsys, monkeypatch):
        pool = write_pool(tmp_path / "pool.csv", 3)
        monkeypatch.setattr(cli, "fit_report", no_work)
        out = tmp_path / "missing" / "fit.csv"
        code, stdout, stderr = run(capsys, "fit", str(pool), "--out", str(out))
        assert_refused_before_work(code, stdout, stderr, out)

    def test_unwritable_out_exits_2(self, tmp_path, capsys, monkeypatch):
        # the directory exists, but --out names a directory, not a file
        pool = write_pool(tmp_path / "pool.csv", 3)
        monkeypatch.setattr(cli, "fit_report", no_work)
        code, stdout, stderr = run(capsys, "fit", str(pool), "--out", str(tmp_path))
        assert_refused_before_work(code, stdout, stderr, tmp_path)

    def test_bad_alpha(self, tmp_path, capsys):
        pool = write_pool(tmp_path / "pool.csv", 3)
        code, _, stderr = run(
            capsys, "fit", str(pool), "--out", str(tmp_path / "o.csv"), "--alpha", "1.5"
        )
        assert code == 2 and "alpha" in stderr

    def test_unknown_family(self, tmp_path, capsys):
        pool = write_pool(tmp_path / "pool.csv", 3)
        code, _, stderr = run(
            capsys, "fit", str(pool), "--out", str(tmp_path / "o.csv"),
            "--families", "weibull",
        )
        assert code == 2 and "weibull" in stderr


class TestSimulate:
    def simulate(self, capsys, pool, out, *extra):
        return run(
            capsys, "simulate", "--instance", str(pool), "--gaps", "8,16",
            "--trials", "25", "--seed", "7", "--out", str(out), *extra,
        )

    def test_deterministic_across_runs(self, tmp_path, capsys):
        pool = write_pool(tmp_path / "pool.csv", 5)
        blobs, tables = [], []
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            code, stdout, _ = self.simulate(capsys, pool, out)
            assert code == 0
            blobs.append(out.read_bytes())
            tables.append(stdout)
        assert blobs[0] == blobs[1]
        assert tables[0] == tables[1]

    def test_deterministic_across_workers(self, tmp_path, capsys):
        pool = write_pool(tmp_path / "pool.csv", 5)
        blobs = []
        for name, workers in (("w1.csv", "1"), ("w2.csv", "2")):
            out = tmp_path / name
            code, _, _ = self.simulate(capsys, pool, out, "--workers", workers)
            assert code == 0
            blobs.append(out.read_bytes())
        assert blobs[0] == blobs[1]

    def test_full_sb_cost_is_constant_across_gaps(self, tmp_path, capsys):
        pool = write_pool(tmp_path / "pool.csv", 5, n=80)
        out = tmp_path / "full.csv"
        code, _, _ = self.simulate(capsys, pool, out, "--strategies", "full")
        assert code == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        sb = {row[3] for row in rows}
        assert len(rows) == 2 and len(sb) == 1
        assert float(sb.pop()) == pytest.approx(160.0)

    def test_multi_series_needs_node_flag(self, tmp_path, capsys):
        path = tmp_path / "two.csv"
        save_gain_series(path, [("n1", "v0", 1.0, 1.0), ("n2", "v0", 2.0, 2.0)])
        code, _, stderr = self.simulate(capsys, path, tmp_path / "o.csv")
        assert code == 2 and "n1" in stderr and "n2" in stderr
        code, _, _ = self.simulate(capsys, path, tmp_path / "o.csv", "--node", "n2")
        assert code == 0

    def test_all_zero_pool_rejected(self, tmp_path, capsys):
        # a gain below 1e-9 counts as zero, as everywhere in the engine
        for gains in ((0.0, 0.0), (1e-10, 0.0)):
            path = tmp_path / "zero.csv"
            save_gain_series(path, [("root", f"v{i}", g, g) for i, g in enumerate(gains)])
            code, _, stderr = self.simulate(capsys, path, tmp_path / "o.csv")
            assert code == 2
            assert f"{path}: node 'root': every pool gain is zero" in stderr

    def test_tree_too_deep_for_a_float_mean_exits_2(self, tmp_path, capsys):
        path = tmp_path / "deep.csv"
        save_gain_series(
            path, [("root", f"v{i}", g, g) for i, g in enumerate((0.5, 0.0, 1.0))]
        )
        code, _, stderr = run(
            capsys, "simulate", "--instance", str(path), "--gaps", "2000",
            "--trials", "3", "--seed", "1", "--out", str(tmp_path / "o.csv"),
        )
        assert code == 2
        assert "exceeds 1022" in stderr and "internal error" not in stderr

    def test_gap_gain_ratio_beyond_the_float_range_exits_2(self, tmp_path, capsys):
        path = tmp_path / "tiny.csv"
        path.write_text(
            "node_id,variable_id,downgain,upgain\nr,a,2e-9,2e-9\nr,b,3e-9,3e-9\nr,c,0,0\n"
        )
        for strategy in ("fixed", "full", "prob-mixed-pareto"):
            code, _, stderr = run(
                capsys, "simulate", "--instance", str(path), "--gaps", "1e300",
                "--trials", "3", "--seed", "1", "--strategies", strategy,
                "--out", str(tmp_path / "o.csv"),
            )
            assert code == 2 and "internal error" not in stderr
            assert f"{path}: node 'r': gap 1e+300: best depth inf exceeds 1022" in stderr

    @pytest.mark.parametrize(
        "gap, shown",
        [
            ("3466", "1733"),
            ("1999999999999998", "999999999999999"),
            ("2e15", "1e+15"),
            ("1e308", "5e+307"),
        ],
    )
    def test_a_depth_past_1e15_is_named_to_six_figures(self, tmp_path, capsys, gap, shown):
        # the best gain is 2, so the depth is gap / 2: exact below 1e15, and
        # from there in .6g form, not as an int of up to 309 digits
        path = tmp_path / "two.csv"
        path.write_text("node_id,variable_id,downgain,upgain\nr,a,2,2\nr,b,0,0\n")
        code, stdout, stderr = run(
            capsys, "simulate", "--instance", str(path), "--gaps", gap,
            "--trials", "2", "--seed", "1", "--out", str(tmp_path / "o.csv"),
        )
        assert code == 2 and stdout == ""
        assert stderr == (
            f"error: {path}: node 'r': gap {float(gap)!r}: best depth {shown} exceeds"
            " 1022: a tree of 2**(depth+1) - 1 nodes has no float mean\n"
        )

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--gaps", "8,16,8.0", "duplicate gaps"),
            ("--strategies", "full,full", "duplicate strategies"),
        ],
    )
    def test_a_repeated_gap_or_strategy_exits_2(self, tmp_path, capsys, flag, value, message):
        # a repeated gap would price each of its cells twice and print each row twice
        pool = write_pool(tmp_path / "pool.csv", 5)
        out = tmp_path / "o.csv"
        code, stdout, stderr = self.simulate(capsys, pool, out, flag, value)
        assert code == 2 and message in stderr and "internal error" not in stderr
        assert stdout == "" and not out.exists()

    def test_unknown_strategy(self, tmp_path, capsys):
        pool = write_pool(tmp_path / "pool.csv", 5)
        code, _, stderr = self.simulate(
            capsys, pool, tmp_path / "o.csv", "--strategies", "psychic"
        )
        assert code == 2 and "psychic" in stderr

    @pytest.mark.parametrize(
        "flag, value", [("--phi", "0.1"), ("--family", "lognormal"), ("--epsilon", "0.5")]
    )
    def test_settings_the_campaign_does_not_read_are_refused(
        self, tmp_path, capsys, flag, value
    ):
        pool = write_pool(tmp_path / "pool.csv", 5)
        out = tmp_path / "o.csv"
        with pytest.raises(SystemExit) as exc:
            self.simulate(capsys, pool, out, flag, value)
        assert exc.value.code == 2
        assert flag in capsys.readouterr().err and not out.exists()

    def test_overflowing_gain_row_exits_2_and_names_line(self, tmp_path, capsys):
        path = tmp_path / "big.csv"
        path.write_text("node_id,variable_id,downgain,upgain\nroot,a,1e200,1e200\n")
        code, _, stderr = self.simulate(capsys, path, tmp_path / "o.csv")
        assert code == 2 and f"{path}:2:" in stderr and "internal error" not in stderr
        code, _, stderr = run(capsys, "fit", str(path), "--out", str(tmp_path / "f.csv"))
        assert code == 2 and f"{path}:2:" in stderr and "internal error" not in stderr

    def test_missing_out_directory_exits_2_before_the_campaign(
        self, tmp_path, capsys, monkeypatch
    ):
        # once ran every trial, then failed to open --out with exit code 1
        pool = write_pool(tmp_path / "pool.csv", 5)
        monkeypatch.setattr(cli, "run_campaign", no_work)
        out = tmp_path / "missing" / "x.csv"
        code, stdout, stderr = self.simulate(capsys, pool, out)
        assert_refused_before_work(code, stdout, stderr, out)

    @pytest.mark.parametrize("seed", ["-1", str(2**64)])
    def test_seed_outside_64_bits_exits_2(self, tmp_path, capsys, seed):
        pool = write_pool(tmp_path / "pool.csv", 5)
        out = tmp_path / "o.csv"
        code, _, stderr = self.simulate(capsys, pool, out, f"--seed={seed}")
        assert code == 2 and "seed must be in [0, 2**64)" in stderr
        assert "internal error" not in stderr and not out.exists()

    def test_seed_is_mandatory(self, tmp_path, capsys):
        pool = write_pool(tmp_path / "pool.csv", 5)
        with pytest.raises(SystemExit) as exc:
            main([
                "simulate", "--instance", str(pool), "--gaps", "8",
                "--out", str(tmp_path / "o.csv"),
            ])
        assert exc.value.code == 2
        capsys.readouterr()


class TestSimulateGolden:
    """Pinned bytes of `pvb simulate` on a fixed pool, grid and seed.

    The digests were taken before the campaign engine became array code
    and re-pinned once when trial orders moved from default_rng to the
    SplitMix64 stream; any change to a decision, a count, a trial's order
    or the formatting moves them. The
    pool reaches best depths above 52 (gains 0.03 to 0.46 at gaps 24 and
    30), where the expected-size test compares against exact integers.
    """

    GOLDEN = {
        (): (
            "0c9f8051569ba98563c586705a270aa36104a9071dfb0d23b0023c7fc914eb7a",
            "3f716b1a8a549a867c24c871ba562dd6c6ba2ef8beb882558d7c12135f44f59b",
        ),
        ("--L", "3", "--K", "40", "--min-nonzero-samples", "2"): (
            "bede7f5a82da6df9847a938dc16cf5d1280cc1f467d3fa4f0d54d96280015db3",
            "5de53f411022ba45be133673e23d15c9bb4b6707072df1ed5dba0e2389c62c6c",
        ),
    }

    @staticmethod
    def pool():
        values = [0.0 if i % 3 == 0 else 0.05 + ((i * 37) % 61) / 6.0 for i in range(60)]
        values[7] = 0.03
        return values

    @pytest.mark.parametrize("extra", list(GOLDEN))
    def test_csv_and_stdout_match_pinned_digests(self, tmp_path, capsys, extra):
        path = tmp_path / "pool.gains"
        save_gain_series(path, [("root", f"v{i}", v, v) for i, v in enumerate(self.pool())])
        out = tmp_path / "golden.csv"
        code, stdout, stderr = run(
            capsys, "simulate", "--instance", str(path), "--gaps", "1.5,6,24,30",
            "--trials", "40", "--seed", "5", "--out", str(out), *extra,
        )
        assert code == 0, stderr
        digests = (
            hashlib.sha256(out.read_bytes()).hexdigest(),
            hashlib.sha256(stdout.encode()).hexdigest(),
        )
        assert digests == self.GOLDEN[extra]


class TestFitGolden:
    """Pinned bytes of `pvb fit` on one gain file whose nodes reach every verdict.

    `zero` is all zero, `one` has a single nonzero gain and `equal` four
    equal ones, so their undefined fits are `degenerate`; `small` is
    `insufficient`; `large` holds 90 gains on Pareto quantiles and 30
    zeros, where pareto is `not-rejected` and the other families are
    `rejected`. The digests were taken while an undefined fit still
    raised inside GainAccumulator.fit.
    """

    GOLDEN = (
        "934ba1e8794cbfd9a375518b561c1e98b056f974456e4a5a887313ef0e5e7afc",
        "2eaf13d6ea006e50f7a7d42631417f1cd8cbd572343f17f89d5661aa13873f31",
    )

    @staticmethod
    def write_gains(path):
        rows = [("zero", 0.0)] * 3
        rows += [("one", 0.0), ("one", 0.0), ("one", 1.5)]
        rows += [("equal", 2.0)] * 4
        rows += [("small", 0.4 + 0.3 * i * i) for i in range(6)]
        n = 120
        rows += [
            ("large", 0.0 if i % 4 == 0 else (1.0 - (i + 0.5) / n) ** -0.5) for i in range(n)
        ]
        lines = ["node_id,variable_id,downgain,upgain"]
        lines += [f"{node},v{i},{g!r},{g!r}" for i, (node, g) in enumerate(rows)]
        path.write_text("\n".join(lines) + "\n")
        return path

    def test_csv_and_stdout_match_pinned_digests(self, tmp_path, capsys):
        out = tmp_path / "golden.csv"
        code, stdout, stderr = run(
            capsys, "fit", str(self.write_gains(tmp_path / "gains.csv")), "--out", str(out)
        )
        assert code == 0, stderr
        verdicts = {line.split(",")[7] for line in out.read_text().splitlines()[1:]}
        assert verdicts == {"degenerate", "insufficient", "rejected", "not-rejected"}
        digests = (
            hashlib.sha256(out.read_bytes()).hexdigest(),
            hashlib.sha256(stdout.encode()).hexdigest(),
        )
        assert digests == self.GOLDEN

    def test_variance_beyond_the_float_range_is_degenerate(self, tmp_path, capsys):
        # the normal fit's sum of squares overflows; the other families fit
        path = tmp_path / "huge.csv"
        path.write_text(
            "node_id,variable_id,downgain,upgain\n"
            "r,a,1e154,1e154\nr,b,1.2e154,1.2e154\nr,c,0.9e154,0.9e154\n"
        )
        out = tmp_path / "fit.csv"
        code, stdout, stderr = run(capsys, "fit", str(path), "--out", str(out))
        assert code == 0, stderr
        verdicts = dict(line.split(",")[1::6] for line in out.read_text().splitlines()[1:])
        assert verdicts == {
            "exponential": "insufficient",
            "pareto": "insufficient",
            "lognormal": "insufficient",
            "uniform": "insufficient",
            "normal": "degenerate",
        }
        assert re.search(r"^r +normal .* degenerate$", stdout, re.MULTILINE)


class TestSweepGolden:
    """Pinned bytes of `pvb sweep` over the example instances plus the
    first six toy-corpus instances saved as MPS, both modes.

    The digests were taken before the simplex engine carried its basis
    inverse across pivots and before SB children served as node LPs;
    any change to a node or SB-LP count, or to the formatting, moves them.
    """

    GOLDEN = {
        "2": (
            "9bbb2891b82cdb511627f7c87b0b8c4f7a3d8f14c63ab020ebd22e413873d9ec",
            "e4c41a8243281946c8ca7e3a4b6b1d64eadd13a39aa47fe1105d1744ca3b538e",
        ),
        "12": (
            "5e5011b8516b9dd0a0b74ed82826312c8b013d6a3fa4d68ca5870f7c094e066c",
            "33e624b65654217e5a75dea45fbd14d108677ae4ba9f7dcbfcb8b1a6905e54ae",
        ),
    }

    @pytest.fixture(scope="class")
    def sweep_dir(self, tmp_path_factory):
        directory = tmp_path_factory.mktemp("sweep-golden")
        for path in sorted(EXAMPLES.glob("*.mps")):
            (directory / path.name).write_bytes(path.read_bytes())
        for mip in toy_corpus(6):
            save_mps(mip, directory / f"{mip.name}.mps")
        return directory

    @pytest.mark.parametrize("threshold", list(GOLDEN))
    def test_csv_and_stdout_match_pinned_digests(self, sweep_dir, tmp_path, capsys, threshold):
        out = tmp_path / "golden.csv"
        code, stdout, stderr = run(
            capsys, "sweep", str(sweep_dir), "--seed", "1",
            "--reliability-threshold", threshold, "--out", str(out),
        )
        assert code == 0, stderr
        digests = (
            hashlib.sha256(out.read_bytes()).hexdigest(),
            hashlib.sha256(stdout.encode()).hexdigest(),
        )
        assert digests == self.GOLDEN[threshold]


class TestConfigFile:
    def test_unknown_key_rejected(self, tmp_path, capsys):
        pool = write_pool(tmp_path / "pool.csv", 5)
        cfg = tmp_path / "cfg"
        cfg.write_text("L = 3\nturbo = on\n")
        code, _, stderr = run(
            capsys, "simulate", "--instance", str(pool), "--gaps", "8",
            "--trials", "5", "--seed", "1", "--out", str(tmp_path / "o.csv"),
            "--config", str(cfg),
        )
        assert code == 2 and "turbo" in stderr and "2" in stderr

    def test_bad_value_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "cfg"
        cfg.write_text("L = often\n")
        pool = write_pool(tmp_path / "pool.csv", 5)
        code, _, stderr = run(
            capsys, "simulate", "--instance", str(pool), "--gaps", "8",
            "--trials", "5", "--seed", "1", "--out", str(tmp_path / "o.csv"),
            "--config", str(cfg),
        )
        assert code == 2 and "often" in stderr

    @pytest.mark.parametrize("line", ["phi = 0.1", "family = lognormal", "epsilon = 0.5"])
    def test_simulate_refuses_keys_the_campaign_does_not_read(self, tmp_path, capsys, line):
        cfg = tmp_path / "cfg"
        cfg.write_text(f"L = 3\n{line}\n")
        pool = write_pool(tmp_path / "pool.csv", 5)
        out = tmp_path / "o.csv"
        code, _, stderr = run(
            capsys, "simulate", "--instance", str(pool), "--gaps", "8",
            "--trials", "5", "--seed", "1", "--out", str(out), "--config", str(cfg),
        )
        key = line.split()[0]
        assert code == 2 and f"{cfg}:2: unknown key {key!r}" in stderr
        assert not out.exists()

    @pytest.mark.parametrize("line", ["L = 1", "K = 3"])
    def test_sweep_refuses_lookahead_keys_its_grids_set(self, tmp_path, capsys, line):
        directory = tmp_path / "insts"
        directory.mkdir()
        save_mps(sparse_multiknapsack(14, 8, 1), directory / "one.mps")
        cfg = tmp_path / "cfg"
        cfg.write_text(f"family = pareto\n{line}\n")
        out = tmp_path / "sweep.csv"
        code, stdout, stderr = run(
            capsys, "sweep", str(directory), "--seed", "1", "--out", str(out),
            "--config", str(cfg),
        )
        assert code == 2 and f"{cfg}:2: unknown key {line[0]!r}" in stderr
        assert stdout == "" and not out.exists()

    def test_duplicate_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "cfg"
        cfg.write_text("L = 3\nL = 4\n")
        pool = write_pool(tmp_path / "pool.csv", 5)
        code, _, stderr = run(
            capsys, "simulate", "--instance", str(pool), "--gaps", "8",
            "--trials", "5", "--seed", "1", "--out", str(tmp_path / "o.csv"),
            "--config", str(cfg),
        )
        assert code == 2 and "duplicate" in stderr

    def test_flags_override_config_file(self, tmp_path, capsys):
        pool = write_pool(tmp_path / "pool.csv", 5)
        cfg = tmp_path / "cfg"
        cfg.write_text("# fixed stops after one non-improver\nL = 1\n")
        outputs = {}
        cases = {
            "file": ("--config", str(cfg)),
            "override": ("--config", str(cfg), "--L", "9"),
            "flag": ("--L", "9"),
        }
        for label, extra in cases.items():
            out = tmp_path / f"{label}.csv"
            code, _, _ = run(
                capsys, "simulate", "--instance", str(pool), "--gaps", "40",
                "--trials", "40", "--seed", "3", "--strategies", "fixed",
                "--out", str(out), *extra,
            )
            assert code == 0
            outputs[label] = out.read_bytes()
        assert outputs["override"] == outputs["flag"]
        assert outputs["file"] != outputs["flag"]


class TestSolve:
    def test_example_knapsack(self, capsys):
        code, stdout, _ = run(capsys, "solve", str(EXAMPLES / "tiny-knapsack.mps"))
        assert code == 0
        assert "optimal" in stdout and "-132" in stdout

    def test_example_mixed(self, capsys):
        code, stdout, _ = run(capsys, "solve", str(EXAMPLES / "mixed-example.mps"))
        assert code == 0
        assert "optimal" in stdout and "-9.5" in stdout

    def test_infeasible_instance_is_a_result(self, tmp_path, capsys):
        from test_mini_bnb import build

        mip = build(
            [-1.0, -1.0, -1.0], [([2.0, 2.0, 2.0], "=", 3.0)], upper=1.0,
            integer=True, name="PARITY",
        )
        path = tmp_path / "parity.mps"
        save_mps(mip, path)
        code, stdout, _ = run(capsys, "solve", str(path), "--mode", "dynamic")
        assert code == 0 and "infeasible" in stdout

    @pytest.mark.parametrize("family", ["uniform", "normal", "weibull"])
    def test_family_outside_the_stopping_families_exits_2(self, capsys, family):
        code, stdout, stderr = run(
            capsys, "solve", str(EXAMPLES / "tiny-knapsack.mps"), "--mode", "dynamic",
            "--family", family,
        )
        assert code == 2 and stdout == ""
        assert "family must be one of" in stderr and family in stderr

    @pytest.mark.parametrize("command", ["solve", "sweep"])
    @pytest.mark.parametrize("flag", ["--phi", "--epsilon"])
    def test_phi_and_epsilon_are_constants_not_settings(self, tmp_path, capsys, command, flag):
        # the streak gate is lookahead.PHI and the gain shift is
        # gains.DEFAULT_EPSILON, the shift gain files are read with
        out = tmp_path / "sweep.csv"
        target = {
            "solve": ("solve", str(EXAMPLES / "tiny-knapsack.mps")),
            "sweep": ("sweep", str(EXAMPLES), "--seed", "1", "--out", str(out)),
        }[command]
        with pytest.raises(SystemExit) as exc:
            run(capsys, *target, flag, "0.5")
        assert exc.value.code == 2
        assert flag in capsys.readouterr().err and not out.exists()
        cfg = tmp_path / "cfg"
        cfg.write_text(f"family = pareto\n{flag[2:]} = 0.5\n")
        code, stdout, stderr = run(capsys, *target, "--config", str(cfg))
        assert code == 2 and stdout == "" and not out.exists()
        assert f"{cfg}:2: unknown key {flag[2:]!r}" in stderr

    def test_a_tree_that_cannot_close_ends_at_the_node_limit(self, tmp_path, capsys):
        # min 0 s.t. 2x - 2y = 1 over free integers: the LP is feasible
        # but no integer point exists, so without a limit the tree grows
        # forever
        from test_mini_bnb import build

        mip = build(
            [0.0, 0.0], [([2.0, -2.0], "=", 1.0)], lower=-math.inf, upper=math.inf,
            integer=True, name="HALF",
        )
        path = tmp_path / "half.mps"
        save_mps(mip, path)
        code, stdout, stderr = run(capsys, "solve", str(path), "--node-limit", "2000")
        assert code == 0, stderr
        assert "node_limit" in stdout and "2000" in stdout

    @pytest.mark.parametrize(
        "command", [["solve", "x.mps"], ["sweep", "d", "--seed", "1", "--out", "o.csv"]]
    )
    def test_the_node_limit_defaults_to_a_million(self, command):
        # 57x the largest tree a shipped instance or test builds:
        # 17,479 nodes for sparse_multiknapsack(60, 30, 1); a library
        # solve() stops there too
        limit = cli.build_parser().parse_args(command).node_limit
        assert limit == cli.SolverConfig().node_limit == 1_000_000

    def test_instance_without_rows_is_solved(self, tmp_path, capsys):
        # once an internal error (exit 1) from the LP engine
        path = tmp_path / "norows.mps"
        path.write_text(
            "NAME NOROWS\nROWS\n N COST\nCOLUMNS\n"
            "    MARKER 'MARKER' 'INTORG'\n    X1 COST -3.0\n    X2 COST 2.0\n"
            "    MARKER 'MARKER' 'INTEND'\n    X3 COST -1.0\n"
            "BOUNDS\n UP BND X1 2.5\n UP BND X2 4.0\n UP BND X3 1.5\nENDATA\n"
        )
        for mode in ("fixed", "dynamic"):
            code, stdout, stderr = run(capsys, "solve", str(path), "--mode", mode)
            assert code == 0, stderr
            assert "optimal" in stdout and "-7.5" in stdout

    @pytest.mark.parametrize("mode", ["fixed", "dynamic"])
    def test_an_empty_model_is_optimal_at_one_node(self, tmp_path, capsys, mode):
        # once an internal error (exit 1): argmin of the LP engine's empty slopes
        path = tmp_path / "empty.mps"
        path.write_text(EMPTY_MODEL)
        code, stdout, stderr = run(capsys, "solve", str(path), "--mode", mode)
        assert code == 0, stderr
        assert stdout.splitlines()[1].split() == ["X", mode, "optimal", "0", "0", "1", "0", "0"]

    def test_broken_mps_exits_2(self, tmp_path, capsys):
        path = tmp_path / "broken.mps"
        path.write_text("NAME X\nROWS\n N OBJ\n")
        code, _, stderr = run(capsys, "solve", str(path))
        assert code == 2 and "ENDATA" in stderr

    @pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
    def test_non_finite_matrix_entry_exits_2(self, tmp_path, capsys, value):
        path = tmp_path / "coef.mps"
        text = (EXAMPLES / "tiny-knapsack.mps").read_text()
        path.write_text(text.replace("CAP1            13.0", f"CAP1            {value}"))
        code, stdout, stderr = run(capsys, "solve", str(path))
        assert code == 2 and stdout == ""
        assert "internal error" not in stderr
        assert str(path) in stderr and "matrix entries must be finite" in stderr

    @pytest.mark.parametrize("value", ["inf", "-inf"])
    def test_infinite_fixed_bound_exits_2(self, tmp_path, capsys, value):
        # FX at inf once solved to optimal -82 with X1 = 1 and exited 0
        path = tmp_path / "bound.mps"
        text = (EXAMPLES / "tiny-knapsack.mps").read_text()
        path.write_text(text.replace(" UP BND       X1               1.0", f" FX BND X1 {value}"))
        code, stdout, stderr = run(capsys, "solve", str(path))
        assert code == 2 and stdout == ""
        assert "internal error" not in stderr
        assert str(path) in stderr and f"bound pair ({value}, {value}) is empty" in stderr

    @pytest.mark.parametrize("mode", ["fixed", "dynamic"])
    @pytest.mark.parametrize("exponent", [155, 160, 300])
    def test_gain_overflow_exits_2(self, tmp_path, capsys, mode, exponent):
        # the SB gains' geometric mean overflows; it once escaped as an
        # internal error with exit 1
        path = write_scaled_knapsack(tmp_path / "huge.mps", exponent)
        code, stdout, stderr = run(capsys, "solve", str(path), "--mode", mode)
        assert code == 2 and stdout == ""
        assert "internal error" not in stderr
        assert str(path) in stderr and "geometric-mean gain overflows" in stderr

    def test_solver_error_exits_2_and_names_instance(self, capsys, monkeypatch):
        import pvb.cli as cli
        from pvb.mini_bnb import SolverError

        def failing(*args, **kwargs):
            raise SolverError("singular working basis")

        monkeypatch.setattr(cli, "solve", failing)
        path = str(EXAMPLES / "tiny-knapsack.mps")
        code, stdout, stderr = run(capsys, "solve", path)
        assert code == 2 and stdout == ""
        assert "internal error" not in stderr
        assert path in stderr and "singular working basis" in stderr

    def test_internal_failure_exits_1(self, tmp_path, capsys, monkeypatch):
        import pvb.cli as cli

        monkeypatch.setattr(cli, "solve", lambda *a, **k: 1 / 0)
        code, _, stderr = run(capsys, "solve", str(EXAMPLES / "tiny-knapsack.mps"))
        assert code == 1 and "internal error" in stderr


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("corpus")
    for mip in toy_corpus(10):
        save_mps(mip, directory / f"{mip.name}.mps")
    return directory


class TestSweep:
    def test_single_cell_single_instance(self, tmp_path, capsys):
        directory = tmp_path / "insts"
        directory.mkdir()
        mip = sparse_multiknapsack(14, 8, 1)
        save_mps(mip, directory / "one.mps")
        out = tmp_path / "sweep.csv"
        code, _, _ = run(
            capsys, "sweep", str(directory), "--modes", "fixed", "--seed", "1",
            "--out", str(out),
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "mode,L,K,solved,failed,geo_nodes,geo_sb_lps"
        assert len(lines) == 2
        direct = solve(load_mps(directory / "one.mps"))
        cells = lines[1].split(",")
        assert cells[:5] == ["fixed", "9", "1000000", "1", "0"]
        assert float(cells[5]) == pytest.approx(direct.nodes)
        assert float(cells[6]) == pytest.approx(direct.sb_lp_solves)

    def test_missing_out_directory_exits_2_before_solving(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "solve", no_work)
        out = tmp_path / "missing" / "x.csv"
        code, stdout, stderr = run(
            capsys, "sweep", str(EXAMPLES), "--seed", "1", "--out", str(out)
        )
        assert_refused_before_work(code, stdout, stderr, out)

    def test_internal_fault_in_a_solve_exits_1(self, tmp_path, capsys, monkeypatch):
        # a ValueError inside solve is a bug in pvb, not a failed instance
        directory = tmp_path / "insts"
        directory.mkdir()
        save_mps(sparse_multiknapsack(14, 8, 1), directory / "one.mps")

        def broken(mip, config, cache=None):
            raise ValueError("broken invariant")

        monkeypatch.setattr(cli, "solve", broken)
        out = tmp_path / "sweep.csv"
        code, _, stderr = run(
            capsys, "sweep", str(directory), "--modes", "fixed", "--seed", "1",
            "--workers", "1", "--out", str(out),
        )
        assert code == 1
        assert "internal error: broken invariant" in stderr
        assert not out.exists()

    def test_gain_overflow_is_a_failed_instance(self, tmp_path, capsys):
        directory = tmp_path / "insts"
        directory.mkdir()
        save_mps(sparse_multiknapsack(14, 8, 2), directory / "good.mps")
        write_scaled_knapsack(directory / "huge.mps", 160)
        out = tmp_path / "sweep.csv"
        code, _, stderr = run(
            capsys, "sweep", str(directory), "--modes", "fixed,dynamic", "--seed", "1",
            "--workers", "1", "--out", str(out),
        )
        assert code == 0
        assert "internal error" not in stderr
        assert stderr.count("failed huge.mps") == 2 and "gain overflows" in stderr
        rows = out.read_text().splitlines()[1:]
        assert len(rows) == 2
        for row in rows:
            cells = row.split(",")
            assert cells[3] == "1" and cells[4] == "1"

    def test_parse_failure_is_recorded_and_sweep_continues(self, tmp_path, capsys):
        directory = tmp_path / "insts"
        directory.mkdir()
        save_mps(sparse_multiknapsack(14, 8, 2), directory / "good.mps")
        (directory / "bad.mps").write_text("NAME X\n")
        out = tmp_path / "sweep.csv"
        code, _, stderr = run(
            capsys, "sweep", str(directory), "--modes", "fixed", "--seed", "1",
            "--out", str(out),
        )
        assert code == 0
        assert "bad.mps" in stderr
        cells = out.read_text().splitlines()[1].split(",")
        assert cells[3] == "1" and cells[4] == "1"

    def test_non_finite_matrix_entry_is_a_parse_failure(self, tmp_path, capsys):
        directory = tmp_path / "insts"
        directory.mkdir()
        save_mps(sparse_multiknapsack(14, 8, 2), directory / "good.mps")
        text = (EXAMPLES / "tiny-knapsack.mps").read_text()
        (directory / "nan.mps").write_text(text.replace("CAP1            13.0", "CAP1 nan"))
        out = tmp_path / "sweep.csv"
        code, _, stderr = run(
            capsys, "sweep", str(directory), "--modes", "fixed", "--seed", "1",
            "--out", str(out),
        )
        assert code == 0
        assert "failed nan.mps" in stderr and "matrix entries must be finite" in stderr
        assert "internal error" not in stderr
        cells = out.read_text().splitlines()[1].split(",")
        assert cells[3] == "1" and cells[4] == "1"

    def test_infinite_fixed_bound_is_a_parse_failure(self, tmp_path, capsys):
        directory = tmp_path / "insts"
        directory.mkdir()
        save_mps(sparse_multiknapsack(14, 8, 2), directory / "good.mps")
        text = (EXAMPLES / "tiny-knapsack.mps").read_text()
        (directory / "inf.mps").write_text(
            text.replace(" UP BND       X1               1.0", " FX BND X1 inf")
        )
        out = tmp_path / "sweep.csv"
        code, _, stderr = run(
            capsys, "sweep", str(directory), "--modes", "fixed", "--seed", "1",
            "--out", str(out),
        )
        assert code == 0
        assert "failed inf.mps" in stderr and "bound pair (inf, inf) is empty" in stderr
        assert "internal error" not in stderr
        cells = out.read_text().splitlines()[1].split(",")
        assert cells[3] == "1" and cells[4] == "1"

    def test_empty_directory_exits_2(self, tmp_path, capsys):
        directory = tmp_path / "insts"
        directory.mkdir()
        code, _, stderr = run(
            capsys, "sweep", str(directory), "--seed", "1", "--out", str(tmp_path / "o.csv")
        )
        assert code == 2 and "no .mps files" in stderr

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--L-grid", "0", "L must be >= 1"),
            ("--K-grid", "-5", "K must be >= 0"),
            ("--reliability-threshold", "-1", "reliability_threshold must be >= 0"),
            ("--node-limit", "0", "node_limit must be >= 1"),
        ],
    )
    def test_invalid_cell_config_exits_2_before_any_solve(
        self, tmp_path, capsys, flag, value, message
    ):
        directory = tmp_path / "insts"
        directory.mkdir()
        save_mps(sparse_multiknapsack(14, 8, 1), directory / "one.mps")
        out = tmp_path / "sweep.csv"
        code, stdout, stderr = run(
            capsys, "sweep", str(directory), "--seed", "1", "--out", str(out),
            flag, value,
        )
        assert code == 2
        assert message in stderr and "failed" not in stderr
        assert stdout == "" and not out.exists()

    def test_deterministic_across_workers(self, tmp_path, capsys):
        directory = tmp_path / "insts"
        directory.mkdir()
        for seed in (1, 2):
            save_mps(sparse_multiknapsack(14, 8, seed), directory / f"i{seed}.mps")
        blobs = []
        for name, workers in (("w1.csv", "1"), ("w2.csv", "2")):
            out = tmp_path / name
            code, _, _ = run(
                capsys, "sweep", str(directory), "--seed", "1", "--workers", workers,
                "--out", str(out),
            )
            assert code == 0
            blobs.append(out.read_bytes())
        assert blobs[0] == blobs[1]

    def test_pool_is_capped_at_the_number_of_instances(self, tmp_path, capsys, monkeypatch):
        # a fork pool starts every worker at once, so workers past the
        # instance count would only sit idle
        directory = tmp_path / "insts"
        directory.mkdir()
        for seed in (1, 2):
            save_mps(sparse_multiknapsack(14, 8, seed), directory / f"i{seed}.mps")
        asked = []
        real = pvb.ProcessPoolExecutor

        def recording(max_workers):
            asked.append(max_workers)
            return real(max_workers=max_workers)

        monkeypatch.setattr(pvb, "ProcessPoolExecutor", recording)
        code, _, stderr = run(
            capsys, "sweep", str(directory), "--seed", "1", "--workers", "8",
            "--out", str(tmp_path / "sweep.csv"),
        )
        assert code == 0, stderr
        assert asked == [2]

    def test_solver_error_in_one_cell_leaves_the_other_cells_alone(
        self, corpus_dir, tmp_path, capsys, monkeypatch
    ):
        # the cells of an instance share one SolveCache; a cell that fails
        # midway must neither poison it nor cost the later cells their solves
        from pvb.mini_bnb import SolverError, solver

        argv = [
            "sweep", str(corpus_dir), "--modes", "fixed,dynamic", "--L-grid", "7,9",
            "--seed", "1", "--workers", "1",
        ]
        code, _, _ = run(capsys, *argv, "--out", str(tmp_path / "clean.csv"))
        assert code == 0
        clean = (tmp_path / "clean.csv").read_text().splitlines()

        real_solve, real_scan = cli.solve, solver.select_branching_variable

        def failing_fixed_l9(mip, config, cache=None):
            if (config.mode, config.fixed.L) != ("fixed", 9):
                return real_solve(mip, config, cache)
            scans = []

            def scan_then_fail(*args, **kwargs):
                # every corpus instance branches at more than 10 nodes
                outcome = real_scan(*args, **kwargs)
                scans.append(outcome)
                if len(scans) == 10:
                    raise SolverError("injected")
                return outcome

            monkeypatch.setattr(solver, "select_branching_variable", scan_then_fail)
            try:
                return real_solve(mip, config, cache)
            finally:
                monkeypatch.setattr(solver, "select_branching_variable", real_scan)

        monkeypatch.setattr(cli, "solve", failing_fixed_l9)
        out = tmp_path / "faulty.csv"
        code, _, stderr = run(capsys, *argv, "--out", str(out))
        assert code == 0, stderr
        assert stderr.count("failed ") == 10
        assert stderr.count("[fixed L=9 K=1000000]: injected") == 10
        faulty = out.read_text().splitlines()
        assert faulty[2] == "fixed,9,1000000,0,10,,"
        assert faulty[:2] + faulty[3:] == clean[:2] + clean[3:]

    def test_an_empty_model_is_a_solved_instance(self, tmp_path, capsys):
        directory = tmp_path / "insts"
        directory.mkdir()
        (directory / "empty.mps").write_text(EMPTY_MODEL)
        out = tmp_path / "sweep.csv"
        code, _, stderr = run(capsys, "sweep", str(directory), "--seed", "1", "--out", str(out))
        assert code == 0 and stderr == ""
        assert out.read_text().splitlines()[1:] == [
            "fixed,9,1000000,1,0,1,0", "dynamic,9,1000000,1,0,1,0",
        ]

    def test_undecodable_or_unreadable_mps_is_a_parse_failure(self, tmp_path, capsys):
        directory = tmp_path / "insts"
        directory.mkdir()
        save_mps(sparse_multiknapsack(14, 8, 2), directory / "good.mps")
        write_non_utf8(directory / "bad.mps", EXAMPLES / "tiny-knapsack.mps")
        (directory / "x.mps").mkdir()
        out = tmp_path / "sweep.csv"
        code, _, stderr = run(
            capsys, "sweep", str(directory), "--modes", "fixed", "--seed", "1",
            "--out", str(out),
        )
        assert code == 0, stderr
        assert "failed bad.mps" in stderr and "not UTF-8 text" in stderr
        assert "failed x.mps: cannot read" in stderr
        assert "internal error" not in stderr
        cells = out.read_text().splitlines()[1].split(",")
        assert cells[3] == "1" and cells[4] == "2"

    def test_grid_dynamic_no_worse_in_nodes_at_default_lookahead(self, corpus_dir, tmp_path, capsys):
        out = tmp_path / "grid.csv"
        code, _, _ = run(
            capsys, "sweep", str(corpus_dir), "--modes", "fixed,dynamic",
            "--L-grid", "7,9,11", "--seed", "1", "--reliability-threshold", "12",
            "--out", str(out),
        )
        assert code == 0
        cells = {}
        for line in out.read_text().splitlines()[1:]:
            mode, L, _, solved, failed, geo_nodes, geo_sb = line.split(",")
            assert failed == "0" and solved == "10"
            cells[(mode, L)] = (float(geo_nodes), float(geo_sb))
        assert len(cells) == 6
        assert cells[("dynamic", "9")][0] <= cells[("fixed", "9")][0]
        assert cells[("dynamic", "9")][1] < cells[("fixed", "9")][1]


@pytest.mark.parametrize("command", ["simulate", "sweep"])
def test_an_out_that_is_a_directory_exits_2_before_any_work(
    tmp_path, capsys, monkeypatch, command
):
    # a sweep once ran every solve and only then failed to open --out;
    # TestFit.test_unwritable_out_exits_2 covers fit
    pool = write_pool(tmp_path / "pool.csv", 3)
    for name in ("run_campaign", "load_mps", "solve"):
        monkeypatch.setattr(cli, name, no_work)
    argv = {
        "simulate": ("simulate", "--instance", str(pool), "--gaps", "8", "--seed", "1"),
        "sweep": ("sweep", str(EXAMPLES), "--seed", "1"),
    }[command]
    code, stdout, stderr = run(capsys, *argv, "--out", str(tmp_path))
    assert_refused_before_work(code, stdout, stderr, tmp_path)
    assert "it is a directory" in stderr


def out_argv(command, tmp_path):
    """A quick run of command without its --out."""
    if command == "sweep":
        return ("sweep", str(EXAMPLES), "--seed", "1")
    pool = write_pool(tmp_path / "pool.csv", 3)
    if command == "fit":
        return ("fit", str(pool))
    return (
        "simulate", "--instance", str(pool), "--gaps", "8", "--trials", "5", "--seed", "1",
    )


class TestOutRewrittenInPlace:
    """--out is rewritten in place, never through a truncating open, which
    blocks for tens of milliseconds on ext4 mounted with `discard`."""

    @pytest.mark.parametrize("command", ["fit", "simulate", "sweep"])
    def test_a_longer_old_file_ends_as_a_fresh_run_and_keeps_its_inode(
        self, tmp_path, capsys, command
    ):
        argv = out_argv(command, tmp_path)
        fresh = tmp_path / "fresh.csv"
        code, fresh_stdout, stderr = run(capsys, *argv, "--out", str(fresh))
        assert code == 0, stderr
        old = tmp_path / "old.csv"
        old.write_bytes(b"stale,row\n" * (3 * len(fresh.read_bytes())))
        inode = old.stat().st_ino
        code, stdout, stderr = run(capsys, *argv, "--out", str(old))
        assert code == 0, stderr
        assert old.read_bytes() == fresh.read_bytes()
        assert stdout == fresh_stdout
        assert old.stat().st_ino == inode

    def test_the_writer_opens_without_o_trunc(self, tmp_path, capsys, monkeypatch):
        out = tmp_path / "fit.csv"
        out.write_text("old\n")
        flags = []
        real_open = os.open

        def spy(path, flag, *args, **kwargs):
            if str(path) == str(out):
                flags.append(flag)
            return real_open(path, flag, *args, **kwargs)

        monkeypatch.setattr(os, "open", spy)
        code, _, stderr = run(capsys, *out_argv("fit", tmp_path), "--out", str(out))
        assert code == 0, stderr
        assert len(flags) == 1 and not flags[0] & os.O_TRUNC

    @pytest.mark.skipif(not os.path.exists("/dev/null"), reason="no /dev/null")
    def test_dev_null_exits_0_and_still_prints_the_table(self, tmp_path, capsys):
        # /dev/null cannot be truncated, so the writer only writes to it
        argv = out_argv("sweep", tmp_path)
        code, fresh_stdout, stderr = run(capsys, *argv, "--out", str(tmp_path / "s.csv"))
        assert code == 0, stderr
        code, stdout, stderr = run(capsys, *argv, "--out", "/dev/null")
        assert code == 0, stderr
        assert stdout == fresh_stdout and stdout.startswith("mode")


class TestReport:
    def test_renders_csv(self, tmp_path, capsys):
        path = tmp_path / "t.csv"
        path.write_text("gap,strategy,nodes\n8,fixed,112\n16,full,966\n")
        code, stdout, _ = run(capsys, "report", str(path))
        assert code == 0
        lines = stdout.splitlines()
        assert lines[0].split() == ["gap", "strategy", "nodes"]
        assert len(lines) == 3

    def test_empty_csv_exits_2(self, tmp_path, capsys):
        path = tmp_path / "t.csv"
        path.write_text("")
        code, _, stderr = run(capsys, "report", str(path))
        assert code == 2 and "empty" in stderr

    def test_ragged_csv_exits_2(self, tmp_path, capsys):
        path = tmp_path / "t.csv"
        path.write_text("a,b\n1\n")
        code, _, stderr = run(capsys, "report", str(path))
        assert code == 2 and "columns" in stderr

    def test_missing_file_exits_2(self, tmp_path, capsys):
        code, _, stderr = run(capsys, "report", str(tmp_path / "nope.csv"))
        assert code == 2 and "nope.csv" in stderr


@pytest.mark.parametrize("command", ["solve", "fit", "simulate", "report"])
def test_non_utf8_input_exits_2_and_names_the_file(tmp_path, capsys, command):
    if command == "solve":
        source = EXAMPLES / "tiny-knapsack.mps"
    else:
        source = write_pool(tmp_path / "pool.csv", 5)
    bad = write_non_utf8(tmp_path / "bad", source)
    out = str(tmp_path / "o.csv")
    argv = {
        "solve": ("solve", str(bad)),
        "fit": ("fit", str(bad), "--out", out),
        "simulate": (
            "simulate", "--instance", str(bad), "--gaps", "8", "--trials", "5",
            "--seed", "1", "--out", out,
        ),
        "report": ("report", str(bad)),
    }[command]
    code, stdout, stderr = run(capsys, *argv)
    assert code == 2, stderr
    assert f"{bad}: not UTF-8 text" in stderr and "internal error" not in stderr
    assert stdout == ""


def test_non_utf8_config_file_exits_2_and_names_the_file(tmp_path, capsys):
    cfg = tmp_path / "cfg"
    cfg.write_bytes(b"L = 3\n\xff\n")
    code, stdout, stderr = run(
        capsys, "solve", str(EXAMPLES / "tiny-knapsack.mps"), "--config", str(cfg)
    )
    assert code == 2, stderr
    assert f"{cfg}: not UTF-8 text" in stderr and "internal error" not in stderr
    assert stdout == ""


@pytest.mark.parametrize("command", ["solve", "fit", "config", "report"])
def test_a_leading_utf8_bom_is_accepted(tmp_path, capsys, command):
    # editors on some platforms save UTF-8 with a byte-order mark; a 0xff
    # byte is still not UTF-8 (test_non_utf8_input_exits_2_and_names_the_file)
    if command == "solve":
        source = EXAMPLES / "tiny-knapsack.mps"
    elif command == "fit":
        source = write_pool(tmp_path / "pool.csv", 5)
    elif command == "config":
        source = tmp_path / "cfg"
        source.write_text("L = 3\nmin_nonzero_samples = 2\n")
    else:
        source = tmp_path / "t.csv"
        source.write_text("gap,strategy,nodes\n8,fixed,112\n")

    def argv(path):
        return {
            "solve": ("solve", str(path)),
            "fit": ("fit", str(path), "--out", str(tmp_path / "o.csv")),
            "config": ("solve", str(EXAMPLES / "tiny-knapsack.mps"), "--config", str(path)),
            "report": ("report", str(path)),
        }[command]

    code, plain_stdout, stderr = run(capsys, *argv(source))
    assert code == 0, stderr
    marked = tmp_path / "marked"
    marked.write_bytes(b"\xef\xbb\xbf" + source.read_bytes())
    code, stdout, stderr = run(capsys, *argv(marked))
    assert code == 0, stderr
    assert stdout == plain_stdout


def unreadable(tmp_path, fault, source):
    """A path that cannot be read as UTF-8 text: missing, a directory, or
    source's bytes with a 0xff byte."""
    path = tmp_path / "input"
    if fault == "directory":
        path.mkdir()
    elif fault == "not-utf8":
        write_non_utf8(path, source)
    return path


READERS = {
    # reader: (a call that reads a path, its error type, the argv that reads it)
    "mps": (load_mps, MpsError, lambda p: ("solve", p)),
    "gains": (load_gain_series, GainFileError, lambda p: ("fit", p, "--out", p + ".csv")),
    "config": (
        lambda p: cli._load_config_file(p, ("L",)),
        InputError,
        lambda p: ("solve", str(EXAMPLES / "tiny-knapsack.mps"), "--config", p),
    ),
    "report": (
        lambda p: cli.cmd_report(argparse.Namespace(csvfile=p)),
        InputError,
        lambda p: ("report", p),
    ),
}


@pytest.mark.parametrize("fault", ["missing", "directory", "not-utf8"])
@pytest.mark.parametrize("reader", list(READERS))
def test_every_reader_reports_an_unreadable_file_as_its_input_error(
    tmp_path, capsys, reader, fault
):
    read, error, argv = READERS[reader]
    path = str(unreadable(tmp_path, fault, EXAMPLES / "tiny-knapsack.mps"))
    with pytest.raises(error) as caught:
        read(path)
    assert isinstance(caught.value, InputError)
    message = str(caught.value)
    assert message.startswith(f"cannot read {path}: " if fault != "not-utf8" else f"{path}: ")
    code, stdout, stderr = run(capsys, *argv(path))
    assert code == 2 and stdout == ""
    assert stderr == f"error: {message}\n"


@pytest.mark.parametrize("command", ["fit", "simulate", "solve", "report"])
def test_a_plain_value_error_in_an_engine_is_still_internal(
    tmp_path, capsys, monkeypatch, command
):
    # InputError is a ValueError, so main must catch InputError alone;
    # TestSweep.test_internal_fault_in_a_solve_exits_1 covers sweep
    def broken(*args, **kwargs):
        raise ValueError("broken invariant")

    pool = str(write_pool(tmp_path / "pool.csv", 5))
    out = str(tmp_path / "o.csv")
    engine, argv = {
        "fit": ("fit_report", ("fit", pool, "--out", out)),
        "simulate": (
            "run_campaign",
            ("simulate", "--instance", pool, "--gaps", "8", "--seed", "1", "--out", out),
        ),
        "solve": ("solve", ("solve", str(EXAMPLES / "tiny-knapsack.mps"))),
        "report": ("render_table", ("report", pool)),
    }[command]
    monkeypatch.setattr(cli, engine, broken)
    code, _, stderr = run(capsys, *argv)
    assert code == 1 and stderr == "internal error: broken invariant\n"


def csv_refuses_nul():
    """Whether this Python's csv.reader raises on a NUL byte (3.10 does)."""
    try:
        list(csv.reader(["a\0b\n"]))
    except csv.Error:
        return True
    return False


@pytest.mark.parametrize("fault", ["long-field", "nul-byte"])
@pytest.mark.parametrize("command", ["fit", "simulate", "report"])
def test_a_row_that_csv_cannot_parse_is_an_input_fault(tmp_path, capsys, command, fault):
    """A field past csv's 131,072-character limit, and on Python 3.10 a
    NUL byte, makes csv.reader raise csv.Error; the gain file and report
    readers raise their InputError with path:line, and main exits 2."""
    path = tmp_path / "pool.csv"
    lines = write_pool(path, 5, n=4).read_text().splitlines(keepends=True)
    lines.insert(3, "root,{},1,1\n".format("x" * 140_000 if fault == "long-field" else "v\0"))
    path.write_text("".join(lines))
    out = str(tmp_path / "o.csv")
    argv = {
        "fit": ("fit", str(path), "--out", out),
        "simulate": (
            "simulate", "--instance", str(path), "--gaps", "8", "--trials", "2",
            "--seed", "1", "--out", out,
        ),
        "report": ("report", str(path)),
    }[command]
    code, stdout, stderr = run(capsys, *argv)
    if fault == "nul-byte" and not csv_refuses_nul():
        assert code == 0, stderr
        return
    read = load_gain_series if command != "report" else read_csv
    with pytest.raises(InputError) as caught:
        read(str(path))
    message = str(caught.value)
    assert message.startswith(f"{path}:4: ")
    assert "field larger than field limit" in message or "NUL" in message
    assert isinstance(caught.value, GainFileError) == (command != "report")
    assert code == 2 and stdout == ""
    assert stderr == f"error: {message}\n"


LIST_FLAGS = {
    # flag: (the command's argv without it, the name its errors use)
    "--families": (lambda d: ("fit", str(d / "pool.csv")), "families"),
    "--gaps": (
        lambda d: ("simulate", "--instance", str(d / "pool.csv"), "--seed", "1"),
        "gaps",
    ),
    "--strategies": (
        lambda d: ("simulate", "--instance", str(d / "pool.csv"), "--gaps", "8", "--seed", "1"),
        "strategies",
    ),
    "--modes": (lambda d: ("sweep", str(EXAMPLES), "--seed", "1"), "modes"),
    "--L-grid": (lambda d: ("sweep", str(EXAMPLES), "--seed", "1"), "L grid"),
    "--K-grid": (lambda d: ("sweep", str(EXAMPLES), "--seed", "1"), "K grid"),
}
REPEATED = {
    "--families": "pareto,exponential,pareto",
    "--gaps": "4, 4",
    "--strategies": "fixed,full,fixed",
    "--modes": "fixed,fixed",
    "--L-grid": "9, 9",
    "--K-grid": "5,05",
}


@pytest.mark.parametrize("entries", ["empty", "blank", "repeated"])
@pytest.mark.parametrize("flag", list(LIST_FLAGS))
def test_a_list_flag_with_no_entry_or_a_repeated_one_exits_2(tmp_path, capsys, flag, entries):
    # "" once meant every family or strategy, and a repeated family, mode
    # or grid value once printed its rows twice
    argv, what = LIST_FLAGS[flag]
    write_pool(tmp_path / "pool.csv", 5)
    value = {"empty": "", "blank": " , ", "repeated": REPEATED[flag]}[entries]
    out = tmp_path / "o.csv"
    code, stdout, stderr = run(capsys, *argv(tmp_path), flag, value, "--out", str(out))
    message = f"duplicate {what}" if entries == "repeated" else f"{what} must name at least one entry"
    assert (code, stdout, stderr) == (2, "", f"error: {message}\n")
    assert not out.exists()


class TestClosedStdout:
    """A reader that closes stdout early (`pvb ... | head`) ends the command
    as SIGPIPE would end a writer: exit 141, nothing on stderr, and every
    --out file complete. The pipe's read end is closed before the command
    starts, so its first write to stdout fails: inside print when stdout is
    unbuffered, and at the final flush of a buffered table."""

    @staticmethod
    def run_into_closed_pipe(argv, unbuffered):
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, (str(Path(pvb.__file__).parent.parent), env.get("PYTHONPATH")))
        )
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            done = subprocess.run(
                [sys.executable, "-m", "pvb.cli", *argv],
                stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=120,
            )
        finally:
            os.close(write_end)
        return done.returncode, done.stderr.decode()

    @pytest.mark.parametrize("unbuffered", [True, False])
    def test_solve_exits_141_quietly(self, unbuffered):
        argv = ("solve", str(EXAMPLES / "tiny-knapsack.mps"))
        assert self.run_into_closed_pipe(argv, unbuffered) == (141, "")

    @pytest.mark.parametrize("unbuffered", [True, False])
    def test_sweep_writes_its_whole_csv_first(self, tmp_path, capsys, unbuffered):
        argv = ("sweep", str(EXAMPLES), "--seed", "1", "--L-grid", "7,8", "--modes", "fixed")
        want = tmp_path / "want.csv"
        assert run(capsys, *argv, "--out", str(want))[0] == 0
        out = tmp_path / "x.csv"
        assert self.run_into_closed_pipe((*argv, "--out", str(out)), unbuffered) == (141, "")
        assert out.read_bytes() == want.read_bytes()
