"""pvb benchmark: one command per workload, end-to-end or traced.

    python3 perfbench/run.py --workload solve-nodelp --seed 0 --seconds 20 --trace 0

Run it from the root of a source checkout; it imports pvb from src/ and
fails with exit code 2 when src/ is missing. Workloads: solve-nodelp,
solve-sb, campaign, sweep-cli (see perfbench/NOTES.md for what each one
stresses and why). Seed 0 reproduces the acceptance-gate inputs.

--trace 0 reports the end-to-end metrics of BENCHMARK.json; --trace 1
runs one untraced pass, then traced passes, and reports the per-layer
metrics and writes the spans to .bench_out/trace-<workload>-s<seed>.jsonl.
The last line of standard output is the result object; the lines before
it give the context (machine, versions, BLAS threads), the exact work
counts and the correctness problems, if any. Exit code 1 means a
correctness check failed.

--smoke shrinks every workload to a few instances, trials and cells;
--corrupt-reference shifts the reference that the checks compare against,
and --break-program injects a fault into the program under test (a solve
that raises, a campaign that raises, a sweep that exits with code 2), so a
run with either must report correct: false. perfbench/smoke.py uses all three.
"""

from __future__ import annotations

import os

# Set before numpy loads, and inherited by the `pvb sweep` subprocess and its
# two workers, which then stay within two cores.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

WORKLOADS = ("solve-nodelp", "solve-sb", "campaign", "sweep-cli")
# setup_s is the median of SETUP_SAMPLES samples, each the mean of a batch of
# setups sized so that one sample takes about 0.1 s
SETUP_SAMPLES = 15
SETUP_BATCH = {"solve-nodelp": 40, "solve-sb": 60, "campaign": 500, "sweep-cli": 25}
# (normal, smoke) sizes of one pass
SOLVE_NODELP_INSTANCES = (12, 2)
SOLVE_SB_INSTANCES = (8, 2)
# campaign trials per cell: the gate's 1000 for the two rules whose counts
# are end-to-end metrics, fewer for `full`, whose SB count is fixed and whose
# trials are the slowest
CAMPAIGN_TRIALS = (
    {"fixed": 1000, "prob-mixed-pareto": 1000, "full": 250},
    {"fixed": 20, "prob-mixed-pareto": 20, "full": 20},
)
SWEEP_FILES = (10, 2)

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "geo_nodes.dynamic": "count",
    "geo_sb_lps.fixed": "count",
    "geo_sb_lps.dynamic": "count",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="a few instances, trials and cells")
    p.add_argument("--corrupt-reference", action="store_true",
                   help="shift the checks' reference; the run must then fail")
    p.add_argument("--break-program", action="store_true",
                   help="inject a fault into pvb; the run must then fail")
    p.add_argument("--instances", type=int, help="solve-*: corpus instances per pass")
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds positive")
    return args


def import_pvb() -> str | None:
    """Put the checkout's src/ first on the path; an error message if pvb is not there."""
    if not (SRC / "pvb" / "__init__.py").is_file():
        return f"{SRC}/pvb not found; run from the root of a pvb checkout"
    sys.path.insert(0, str(SRC))
    import pvb

    if Path(pvb.__file__).resolve().parent != SRC / "pvb":
        return f"imported pvb from {pvb.__file__}, not from {SRC}"
    return None


def context() -> dict:
    import numpy as np

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    src = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        src.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "cpu_model": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "commit": commit,
        "src_sha256": src.hexdigest()[:16],
        "blas_threads": {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        "platform": platform.platform(),
    }


def make_workload(args):
    import workloads

    small = 1 if args.smoke else 0
    if args.workload == "solve-nodelp":
        return workloads.SolveWorkload(
            args.seed, threshold=2, instances=args.instances or SOLVE_NODELP_INSTANCES[small]
        )
    if args.workload == "solve-sb":
        return workloads.SolveWorkload(
            args.seed, threshold=12, instances=args.instances or SOLVE_SB_INSTANCES[small]
        )
    if args.workload == "campaign":
        return workloads.CampaignWorkload(args.seed, trials=CAMPAIGN_TRIALS[small])
    return workloads.SweepWorkload(args.seed, root=ROOT, out=OUT, files=SWEEP_FILES[small])


def one_pass(wl, clock):
    """One pass; a pass that raises comes back as a Pass with its error."""
    import workloads

    try:
        return wl.run_pass(clock)
    except Exception as exc:  # reported as failed operations, not as a crash
        return workloads.Pass(error=f"{type(exc).__name__}: {exc}")


def timed_passes(wl, clock, seconds: float) -> list:
    """Closed loop: repeat the pass while another one fits in the budget.

    The loop stops after a pass that raised."""
    passes = []
    t0 = time.perf_counter()
    while True:
        t = time.perf_counter()
        passes.append(one_pass(wl, clock))
        last = time.perf_counter() - t
        if passes[-1].error is not None or time.perf_counter() - t0 + last > seconds:
            return passes


def check(wl, passes: list, corrupt: bool):
    """The workload's checks over the passes that ran to the end, plus one
    failed operation per operation of each pass that raised."""
    checked = wl.check([p for p in passes if p.error is None], corrupt)
    for k, p in enumerate(passes):
        if p.error is not None:
            checked.attempted += wl.ops_per_pass
            checked.failed += wl.ops_per_pass
            checked.problems.append(f"pass {k} raised {p.error}")
    return checked


def median_or_zero(values) -> float:
    """Median, or 0.0 when no pass ran to the end (the run has then failed)."""
    values = list(values)
    return statistics.median(values) if values else 0.0


def peak_rss_mb() -> float:
    kib = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return kib / 1024.0


def percentile(values, q: float) -> float:
    import numpy as np

    return float(np.percentile(values, q)) if len(values) else 0.0


def traced_run(wl, clock, seconds: float):
    """One untraced pass, then traced passes.

    Returns the untraced pass, the traced passes, the per-layer metrics
    and the tracer."""
    import tracer as tracing
    import workloads

    untraced = one_pass(wl, clock)
    first_cal = len(clock.cal_ms)
    tracer = tracing.Tracer()
    sweep = isinstance(wl, workloads.SweepWorkload)
    if sweep:
        wl.flush_dir = wl.dir / "spans"
        wl.flush_dir.mkdir(exist_ok=True)
    else:
        tracing.install(tracer)
    try:
        budget = max(seconds - untraced.raw_wall_s, 0.0)
        passes = timed_passes(wl, clock, budget) if untraced.error is None else []
    finally:
        tracer.unwrap_all()
    if sweep:
        tracer.absorb_dir(wl.flush_dir)
    # per-layer times are scaled by one factor: the traced passes' median kernel time
    scale = workloads.CAL_REF_MS / statistics.median(clock.cal_ms[first_cal:] or clock.cal_ms)
    ok = [p for p in passes if p.error is None]
    layer = tracing.layer_metrics(tracer, max(len(ok), 1), workloads.SWEEP_WORKERS)
    for name, (value, unit) in layer.items():
        if unit in ("s", "ms", "us"):
            layer[name] = (value * scale, unit)
    overhead = statistics.median(p.wall_s for p in ok) - untraced.wall_s if ok else 0.0
    layer["trace.overhead_s"] = (overhead, "s")
    return untraced, passes, layer, tracer


def run(args) -> int:
    import workloads

    OUT.mkdir(exist_ok=True)
    wl = make_workload(args)
    clock = workloads.Clock()
    batch = SETUP_BATCH[args.workload]

    def setup_batch():
        for _ in range(batch):
            wl.setup()

    untraced = []
    try:
        try:
            setup_ms = [clock.call(setup_batch)[1] / batch for _ in range(SETUP_SAMPLES)]
            wl.warm()
        except Exception as exc:  # pvb code runs in set-up too
            failed = workloads.Checked(1, 1, [f"set-up raised {type(exc).__name__}: {exc}"])
            return emit(args, failed, zero_metrics(args), {"workload": args.workload})
        if args.break_program:
            wl.break_program()
        if args.trace:
            first, passes, layer, tracer = traced_run(wl, clock, args.seconds)
            untraced = [first]
        else:
            passes = timed_passes(wl, clock, args.seconds)
        rss = peak_rss_mb()
        checked = check(wl, untraced + passes, args.corrupt_reference)
    finally:
        wl.cleanup()

    # metrics come from the passes that ran to the end; a run in which none
    # did reports zeros, and its checks have failed
    passes = [p for p in passes if p.error is None]
    geo, work = wl.counts(passes[0]) if passes else ({}, {})
    calls = [ms for p in passes for ms in p.calls_ms]
    raw_calls = [ms for p in passes for ms in p.raw_calls_ms]
    walls = [p.wall_s for p in passes]
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "context": context(),
        "inputs": wl.describe(),
        "passes": len(passes),
        "call": wl.call,
        "call_samples": len(calls),
        "call_ms.p50": percentile(calls, 50),
        "call_ms.p90": percentile(calls, 90),
        "unit": wl.unit,
        "work_per_pass": work,
        "pass_wall_s": walls,
        "raw": {
            "pass_wall_s": [p.raw_wall_s for p in passes],
            "wall_s": median_or_zero(p.raw_wall_s for p in passes),
            "call_ms.p50": percentile(raw_calls, 50),
            "call_ms.p90": percentile(raw_calls, 90),
            "cal_ms.p50": statistics.median(clock.cal_ms),
            "cal_ms.min": min(clock.cal_ms),
            "cal_ms.max": max(clock.cal_ms),
        },
    }
    # figures without a bound in BENCHMARK.json, printed and recorded alongside
    extra = {
        "fail_rate": (checked.failed / max(checked.attempted, 1), "ratio"),
        "geo_nodes.fixed": (geo.get("geo_nodes.fixed", 0.0), "count"),
    }
    if isinstance(wl, workloads.SolveWorkload):
        extra["solve_ms.p50"] = (percentile(calls, 50), "ms")
        extra["solve_ms.p90"] = (percentile(calls, 90), "ms")
    if isinstance(wl, workloads.CampaignWorkload):
        for strategy, rate in wl.strategy_rates(passes).items():
            extra[f"trials_per_s.{strategy}"] = (rate, "1/s")
    record["extra_metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in extra.items()}

    if args.trace:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in layer.items()}
        record["untraced_wall_s"] = untraced[0].wall_s
        n = max(len(passes), 1)
        record["work_per_pass"]["traced"] = {
            "node_pivots": tracer.counters["simplex.node_lp.pivots"] / n,
            "sb_pivots": tracer.counters["simplex.sb_lp.pivots"] / n,
            "reveals": (tracer.counters["solver.reveals"]
                        + sum(v for k, v in tracer.counters.items()
                              if k.startswith("simulator.reveals."))) / n,
            "fits": layer["distributions.fit.calls"][0],
        }
        trace_path = OUT / f"trace-{args.workload}-s{args.seed}.jsonl"
        tracer.save(trace_path)
        record["trace_file"] = str(trace_path.relative_to(ROOT))
    else:
        values = {
            "setup_s": statistics.median(setup_ms) / 1e3,
            "wall_s": median_or_zero(walls),
            "peak_rss_mb": rss,
            **geo,
        }
        metrics = {
            k: {"value": values.get(k, 0.0), "unit": u} for k, u in END_TO_END_UNITS.items()
        }

    return emit(args, checked, metrics, record)


def zero_metrics(args) -> dict:
    """The metrics of this mode, all 0, for a run that failed before any pass."""
    if not args.trace:
        return {k: {"value": 0.0, "unit": u} for k, u in END_TO_END_UNITS.items()}
    import tracer as tracing
    import workloads

    layer = tracing.layer_metrics(tracing.Tracer(), 1, workloads.SWEEP_WORKERS)
    layer["trace.overhead_s"] = (0.0, "s")
    return {k: {"value": v, "unit": u} for k, (v, u) in layer.items()}


def emit(args, checked, metrics: dict, record: dict) -> int:
    """Print the problems, the metric table, the record line and, last, the
    result object; save the record. Exit code 1 when a check failed."""
    correct = checked.failed == 0
    for problem in checked.problems[:20]:
        print(f"check failed: {problem}")
    for name, m in [*metrics.items(), *record.get("extra_metrics", {}).items()]:
        print(f"{name:44} {m['value']:>16.6g} {m['unit']}")
    print(json.dumps({"record": record}))
    name = f"result-{args.workload}-s{args.seed}-t{args.trace}.json"
    (OUT / name).write_text(json.dumps({"record": record, "metrics": metrics}, indent=1))
    print(json.dumps({
        "correct": correct,
        "attempted": checked.attempted,
        "failed": checked.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    error = import_pvb()
    if error is not None:
        print(f"error: {error}", file=sys.stderr)
        return 2
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
