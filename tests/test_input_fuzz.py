"""Mutated input files through main: every exit is 0 or 2, never 1.

Exit code 1 is reserved for a fault in pvb, so no input file may reach
it. Each draw takes one of the files every reader reads (the shipped MPS
instances, a gain CSV, a config file and a report CSV) and applies one
to three line mutations: a token replaced by one of the format's
keywords or an edge number, a line deleted, a line duplicated, or two
lines swapped. The mutated file then goes through solve, sweep, fit,
simulate or report in process, with a small node limit and few trials,
because a mutated MIP may have a tree that never closes. The draws are
derandomized, so every run sees the same 1,003 files: 1,000 drawn and
three explicit examples of a model with no column.
"""

import contextlib
import io
import re
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from pvb.cli import main

EXAMPLES = Path(__file__).resolve().parent.parent / "instances"
MPS_FILES = sorted(EXAMPLES.glob("*.mps"))
EDGES = ("nan", "inf", "-inf", "1e309", "-1e309", "5e-324", "0", "-1", "")
MPS_TOKENS = EDGES + (
    "NAME", "ROWS", "COLUMNS", "RHS", "RANGES", "BOUNDS", "ENDATA", "N", "L", "G",
    "E", "'MARKER'", "'INTORG'", "'INTEND'", "UP", "LO", "FX", "FR", "MI", "PL",
    "BV", "UI", "LI", "COST", "RHS", "BND", "*",
)
GAINS = (
    "node_id,variable_id,downgain,upgain\n"
    + "".join(f"root,v{i},{0.25 * i},{1.5 + i}\n" for i in range(8))
)
GAIN_TOKENS = EDGES + ("node_id", "variable_id", "downgain", "upgain", "root", "v1", '"')
CONFIG = "# lookahead\nL = 3\nK = 5\nmin_nonzero_samples = 2\nfamily = pareto\n"
CONFIG_TOKENS = EDGES + ("L", "K", "min_nonzero_samples", "family", "pareto", "normal", "#", "=")
REPORT = "gap,strategy,mean_total_nodes,mean_sb_nodes\n8,fixed,112,9\n16,full,966,27\n"
REPORT_TOKENS = EDGES + ("gap", "strategy", '"', ",")
# a token is a run of characters between whitespace, commas and equals signs
SEPARATORS = re.compile(r"([\s,=]+)")
FUZZ = settings(
    derandomize=True,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def mutated(draw, text, tokens):
    """text after one to three line mutations."""
    lines = text.splitlines(keepends=True)
    for _ in range(draw(st.integers(1, 3))):
        if not lines:
            break
        kind = draw(st.sampled_from(("token", "delete", "duplicate", "swap")))
        i = draw(st.integers(0, len(lines) - 1))
        if kind == "token":
            parts = SEPARATORS.split(lines[i])
            k = draw(st.integers(0, len(parts) - 1))
            parts[k] = draw(st.sampled_from(tokens))
            lines[i] = "".join(parts)
        elif kind == "delete":
            del lines[i]
        elif kind == "duplicate":
            lines.insert(i, lines[i])
        else:
            j = draw(st.integers(0, len(lines) - 1))
            lines[i], lines[j] = lines[j], lines[i]
    return "".join(lines)


def mps_texts():
    return st.sampled_from(MPS_FILES).flatmap(
        lambda path: mutated(path.read_text(encoding="utf-8"), MPS_TOKENS)
    )


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def exits_0_or_2(*argv):
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main([str(a) for a in argv])
    assert code in (0, 2), stderr.getvalue()


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return path


# the empty model (no column, no constraint row) and one with no column
EMPTY_MODELS = (
    "NAME X\nROWS\n N COST\nENDATA\n",
    "NAME X\nROWS\n N COST\n L CAP\nRHS\n RHS CAP 1.0\nENDATA\n",
)


@settings(FUZZ, max_examples=450)
@given(text=mps_texts(), mode=st.sampled_from(("fixed", "dynamic")))
@example(text=EMPTY_MODELS[0], mode="fixed")
@example(text=EMPTY_MODELS[1], mode="dynamic")
def test_solve_on_a_mutated_mps_file(workdir, text, mode):
    path = write(workdir / "solve.mps", text)
    exits_0_or_2("solve", path, "--mode", mode, "--node-limit", "200")


@settings(FUZZ, max_examples=80)
@given(text=mps_texts())
@example(text=EMPTY_MODELS[0])
def test_sweep_over_a_mutated_mps_file(workdir, text):
    directory = workdir / "sweep"
    directory.mkdir(exist_ok=True)
    write(directory / "x.mps", text)
    exits_0_or_2(
        "sweep", directory, "--seed", "1", "--node-limit", "200", "--out",
        workdir / "sweep.csv",
    )


@settings(FUZZ, max_examples=120)
@given(text=mutated(GAINS, GAIN_TOKENS))
def test_fit_on_a_mutated_gain_file(workdir, text):
    path = write(workdir / "fit.csv", text)
    exits_0_or_2("fit", path, "--out", workdir / "fit-out.csv")


@settings(FUZZ, max_examples=120)
@given(text=mutated(GAINS, GAIN_TOKENS))
def test_simulate_on_a_mutated_gain_file(workdir, text):
    path = write(workdir / "pool.csv", text)
    exits_0_or_2(
        "simulate", "--instance", path, "--gaps", "8,1e3", "--trials", "4", "--seed",
        "1", "--out", workdir / "simulate.csv",
    )


@settings(FUZZ, max_examples=100)
@given(text=mutated(CONFIG, CONFIG_TOKENS))
def test_solve_with_a_mutated_config_file(workdir, text):
    path = write(workdir / "config", text)
    exits_0_or_2(
        "solve", EXAMPLES / "tiny-knapsack.mps", "--config", path, "--mode", "dynamic",
        "--node-limit", "200",
    )


@settings(FUZZ, max_examples=130)
@given(text=mutated(REPORT, REPORT_TOKENS))
def test_report_on_a_mutated_csv(workdir, text):
    path = write(workdir / "report.csv", text)
    exits_0_or_2("report", path)
