"""The call structure the benchmark's tracer wraps by name.

perfbench/tracer.py counts an LP as an SB child LP when it runs inside
the span of solver.strong_branch_candidate, and a scan as one span of
solver.select_branching_variable. A refactor that solves SB child LPs
outside that span, or scans without that name, would skew the traced
metrics silently; here it fails against the solve's own accounting.
"""

import importlib.util
from pathlib import Path

import pytest

from pvb.mini_bnb import SolverConfig, solver, sparse_multiknapsack

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("mode", ["fixed", "dynamic"])
def test_traced_spans_match_the_solve_accounting(mode):
    tracer_module = load_tracer()
    tracer = tracer_module.Tracer()
    tracer_module.install(tracer)
    try:
        result = solver.solve(
            sparse_multiknapsack(20, 12, 1), SolverConfig(mode=mode, reliability_threshold=12)
        )
    finally:
        tracer.unwrap_all()
    spans = tracer.per_name()
    assert result.sb_lp_solves > 0
    assert spans["simplex.sb_lp"][0] == result.sb_lp_solves
    assert tracer.counters["simplex.sb_lp.pivots"] == result.sb_iterations
    assert spans["solver.scan"][0] == len(result.decisions)
