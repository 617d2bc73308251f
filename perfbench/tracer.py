"""Span tracer for the benchmark's traced runs, and a reader for its files.

The tracer wraps pvb's public entry points from outside: it replaces the
module attribute through which each caller looks a name up (solver.py
imports solve_bounded_lp directly, lookahead.py imports cdf and survival,
simulator.py imports expected_nodes_if_continue), so nothing under src/
changes. Each call records one span (name, start, end, parent, run id) in
flat arrays kept in memory, plus counts taken from its arguments and
result. Self time is a span's duration minus its children's durations.

Spans are stored as JSON lines, each line one batch (see Tracer.batch)
of whole top-level span trees. Processes forked from a traced process
(the `pvb sweep` worker pool) start with empty buffers and append each
finished top-level span tree to spans-<pid>.jsonl in the flush directory,
because pool workers never return to the code that started them. run.py
merges those files and saves the whole trace in the same format.

Read a trace file written by run.py with:

    python3 perfbench/tracer.py .bench_out/trace-<workload>-s<seed>.jsonl
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from array import array
from collections import Counter
from pathlib import Path

SB_CANDIDATE = "solver.sb_candidate"
STOP_REASONS = (
    "candidates_exhausted",
    "lookahead_exhausted",
    "budget_exhausted",
    "no_expected_improvement",
    "cutoff_found",
    "pseudocost",
)
STRATEGIES = ("fixed", "prob-mixed-pareto", "full")


class Tracer:
    """In-memory spans and counters for one process."""

    def __init__(self, flush_dir: Path | None = None) -> None:
        self.flush_dir = flush_dir
        self.pid = os.getpid()
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.counters: Counter = Counter()
        self._patches: list = []
        self._clear()
        os.register_at_fork(after_in_child=self._clear)

    def _clear(self) -> None:
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.run = array("q")
        self.stack: list[int] = []
        self.counters.clear()

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name: str) -> int:
        i = len(self.name)
        stack = self.stack
        self.name.append(self._id(name))
        self.parent.append(stack[-1] if stack else -1)
        self.run.append(stack[0] if stack else i)
        self.end.append(0.0)
        stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def close(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        self.stack.pop()
        if not self.stack and self.flush_dir is not None and os.getpid() != self.pid:
            self.flush()

    def parent_name(self) -> str | None:
        return self.names[self.name[self.stack[-1]]] if self.stack else None

    def duration(self, i: int) -> float:
        return self.end[i] - self.start[i]

    def wrap(self, owner, attr: str, name, hook=None) -> None:
        """Trace calls of owner.attr; name may depend on the parent span name."""
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            span_name = name(tracer.parent_name()) if callable(name) else name
            i = tracer.open(span_name)
            try:
                result = original(*args, **kwargs)
            except Exception:
                tracer.counters[f"{span_name}.errors"] += 1
                raise
            finally:
                tracer.close(i)
            if hook is not None:
                hook(tracer, i, span_name, args, kwargs, result)
            return result

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def unwrap_all(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # ------------------------------------------------------------ files

    def batch(self, lo: int = 0, hi: int | None = None, counters: bool = True) -> dict:
        """Spans lo..hi (whole top-level trees) as [name, start, end, parent,
        run] rows whose parent and run indices count from lo."""
        hi = len(self.name) if hi is None else hi
        return {
            "names": self.names,
            "spans": [
                [self.name[i], self.start[i], self.end[i],
                 self.parent[i] - lo if self.parent[i] >= 0 else -1, self.run[i] - lo]
                for i in range(lo, hi)
            ],
            "counters": dict(self.counters) if counters else {},
        }

    def flush(self) -> None:
        """Append this process's finished spans to its JSON-lines file."""
        path = self.flush_dir / f"spans-{os.getpid()}.jsonl"
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(self.batch()) + "\n")
        self._clear()

    def absorb(self, batch: dict) -> None:
        """Append spans and counters recorded by another process."""
        offset = len(self.name)
        remap = [self._id(n) for n in batch["names"]]
        for name, start, end, parent, run in batch["spans"]:
            self.name.append(remap[name])
            self.start.append(start)
            self.end.append(end)
            self.parent.append(parent + offset if parent >= 0 else -1)
            self.run.append(run + offset)
        self.counters.update(batch["counters"])

    def absorb_file(self, path: Path) -> None:
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                self.absorb(json.loads(line))

    def absorb_dir(self, directory: Path) -> None:
        for path in sorted(directory.glob("spans-*.jsonl")):
            self.absorb_file(path)

    def save(self, path: Path, spans_per_line: int = 50_000) -> None:
        """Write every span as batches of whole top-level trees, one per line;
        the counters go with the first line."""
        with open(path, "w", encoding="utf-8") as fh:
            lo = 0
            while True:
                hi = min(lo + spans_per_line, len(self.name))
                while hi < len(self.name) and self.run[hi] != hi:
                    hi += 1  # end the line at the start of a top-level span
                fh.write(json.dumps(self.batch(lo, hi, counters=lo == 0)) + "\n")
                if hi == len(self.name):
                    return
                lo = hi

    # ---------------------------------------------------------- summary

    def per_name(self) -> dict[str, tuple[int, float, float]]:
        """name -> (calls, busy seconds, self seconds)."""
        import numpy as np

        if not self.name:
            return {}
        name = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        dur = np.frombuffer(self.end, dtype=np.float64) - np.frombuffer(
            self.start, dtype=np.float64
        )
        has_parent = parent >= 0
        child = np.bincount(
            parent[has_parent], weights=dur[has_parent], minlength=len(dur)
        )
        self_time = dur - child
        k = len(self.names)
        calls = np.bincount(name, minlength=k)
        busy = np.bincount(name, weights=dur, minlength=k)
        own = np.bincount(name, weights=self_time, minlength=k)
        return {
            n: (int(calls[j]), float(busy[j]), float(own[j]))
            for j, n in enumerate(self.names)
            if calls[j]
        }


def _lp_name(parent: str | None) -> str:
    return "simplex.sb_lp" if parent == SB_CANDIDATE else "simplex.node_lp"


def _lp_hook(tracer, i, name, args, kwargs, result) -> None:
    tracer.counters[f"{name}.pivots"] += result.iterations
    if result.status == "infeasible":
        tracer.counters["simplex.infeasible"] += 1
    elif result.status == "iteration_limit":
        tracer.counters[f"{name}.iter_limited"] += 1


def _solve_hook(tracer, i, name, args, kwargs, result) -> None:
    tracer.counters["solver.nodes"] += result.nodes


def _scan_hook(tracer, i, name, args, kwargs, result) -> None:
    tracer.counters[f"solver.stop.{result.reason}"] += 1
    tracer.counters["solver.sb_lps"] += result.sb_lp_solves
    tracer.counters["solver.reveals"] += result.reveals


def _expected_hook(tracer, i, name, args, kwargs, result) -> None:
    tracer.counters["lookahead.depth_terms"] += int(args[0].d_min)


def _trial_hook(tracer, i, name, args, kwargs, result) -> None:
    strategy = args[2] if len(args) > 2 else kwargs["strategy"]
    tracer.counters[f"simulator.trials.{strategy}"] += 1
    tracer.counters[f"simulator.reveals.{strategy}"] += result.reveals
    tracer.counters[f"simulator.trial_s.{strategy}"] += tracer.duration(i)


def install(tracer: Tracer) -> None:
    """Wrap every traced entry point where its caller looks it up."""
    from pvb import cli, distributions, lookahead, simulator
    from pvb.mini_bnb import solver

    tracer.wrap(solver, "solve", "solver.solve", _solve_hook)
    tracer.wrap(cli, "solve", "solver.solve", _solve_hook)
    tracer.wrap(solver, "select_branching_variable", "solver.scan", _scan_hook)
    tracer.wrap(solver, "strong_branch_candidate", SB_CANDIDATE)
    tracer.wrap(solver, "solve_bounded_lp", _lp_name, _lp_hook)
    tracer.wrap(solver, "should_continue", "lookahead.should_continue")
    tracer.wrap(simulator, "should_continue", "lookahead.should_continue")
    tracer.wrap(lookahead, "expected_nodes_if_continue", "lookahead.expected", _expected_hook)
    tracer.wrap(simulator, "expected_nodes_if_continue", "lookahead.expected", _expected_hook)
    tracer.wrap(distributions.GainAccumulator, "fit", "distributions.fit")
    tracer.wrap(lookahead, "cdf", "distributions.cdf")
    tracer.wrap(lookahead, "survival", "distributions.cdf")
    tracer.wrap(simulator, "run_trial", "simulator.run_trial", _trial_hook)
    tracer.wrap(cli, "load_mps", "mip.load_mps")
    tracer.wrap(cli, "cmd_sweep", "cli.sweep")
    tracer.wrap(cli, "_sweep_solve", "cli.sweep_job")


def layer_metrics(tracer: Tracer, passes: int, workers: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics per pass of the workload: name -> (value, unit)."""
    stats = tracer.per_name()
    cnt = tracer.counters

    def calls(n):
        return stats.get(n, (0, 0.0, 0.0))[0]

    def busy(n):
        return stats.get(n, (0, 0.0, 0.0))[1]

    def mean(n, scale):
        return busy(n) / calls(n) * scale if calls(n) else 0.0

    solve_busy = busy("solver.solve")
    m: dict[str, tuple[float, str]] = {}
    for kind in ("node_lp", "sb_lp"):
        n = f"simplex.{kind}"
        m[f"{n}.calls"] = (calls(n) / passes, "count")
        m[f"{n}.busy_s"] = (busy(n) / passes, "s")
        m[f"{n}.pivots"] = (cnt[f"{n}.pivots"] / passes, "count")
        m[f"{n}.ms"] = (mean(n, 1e3), "ms")
        m[f"{n}.share"] = (100.0 * busy(n) / solve_busy if solve_busy else 0.0, "%")
    m["simplex.sb_lp.iter_limited"] = (cnt["simplex.sb_lp.iter_limited"] / passes, "count")
    pivots = cnt["simplex.node_lp.pivots"] + cnt["simplex.sb_lp.pivots"]
    lp_busy = busy("simplex.node_lp") + busy("simplex.sb_lp")
    m["simplex.pivot_us"] = (lp_busy / pivots * 1e6 if pivots else 0.0, "us")
    m["simplex.infeasible"] = (cnt["simplex.infeasible"] / passes, "count")
    errors = cnt["simplex.node_lp.errors"] + cnt["simplex.sb_lp.errors"]
    m["simplex.errors"] = (errors / passes, "count")

    m["solver.nodes"] = (cnt["solver.nodes"] / passes, "count")
    m["solver.sb_candidate.calls"] = (calls(SB_CANDIDATE) / passes, "count")
    m["solver.sb_candidate.ms"] = (mean(SB_CANDIDATE, 1e3), "ms")
    m["solver.scan.calls"] = (calls("solver.scan") / passes, "count")
    m["solver.scan.self_s"] = (stats.get("solver.scan", (0, 0.0, 0.0))[2] / passes, "s")
    scans = calls("solver.scan")
    m["solver.sb_lps_per_branch"] = (cnt["solver.sb_lps"] / scans if scans else 0.0, "lps/branch")
    for reason in STOP_REASONS:
        m[f"solver.stop.{reason}"] = (cnt[f"solver.stop.{reason}"] / passes, "count")

    for n in (
        "lookahead.should_continue",
        "lookahead.expected",
        "distributions.fit",
        "distributions.cdf",
    ):
        m[f"{n}.calls"] = (calls(n) / passes, "count")
        m[f"{n}.us"] = (mean(n, 1e6), "us")
    m["lookahead.depth_terms"] = (cnt["lookahead.depth_terms"] / passes, "count")

    for s in STRATEGIES:
        trials = cnt[f"simulator.trials.{s}"]
        m[f"simulator.run_trial.us.{s}"] = (
            cnt[f"simulator.trial_s.{s}"] / trials * 1e6 if trials else 0.0, "us"
        )
        m[f"simulator.reveals_per_trial.{s}"] = (
            cnt[f"simulator.reveals.{s}"] / trials if trials else 0.0, "reveals/trial"
        )

    m["mip.load_mps.calls"] = (calls("mip.load_mps") / passes, "count")
    m["mip.load_mps.ms"] = (mean("mip.load_mps", 1e3), "ms")
    sweep = busy("cli.sweep")
    m["cli.pool_efficiency"] = (
        busy("cli.sweep_job") / (workers * sweep) if sweep else 0.0, "ratio"
    )
    m["trace.spans"] = (len(tracer.name) / passes, "count")
    return m


def _print_trace(path: str) -> None:
    tracer = Tracer()
    tracer.absorb_file(Path(path))
    print(f"{len(tracer.name)} spans, {len(set(tracer.run))} runs")
    print(f"{'span':32} {'calls':>10} {'busy_s':>10} {'self_s':>10} {'mean_us':>10}")
    for name, (calls, busy, own) in sorted(
        tracer.per_name().items(), key=lambda kv: -kv[1][2]
    ):
        print(f"{name:32} {calls:10d} {busy:10.4f} {own:10.4f} {busy / calls * 1e6:10.1f}")
    print("counters:", json.dumps(dict(tracer.counters), sort_keys=True))


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit("usage: python3 perfbench/tracer.py TRACE.jsonl")
    _print_trace(sys.argv[1])
