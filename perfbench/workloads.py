"""The benchmark's four workloads.

Each workload builds its inputs from the workload seed in setup(), runs
one fixed unit of work per run_pass() in a closed loop from one process,
and checks every pass outside the timed region in check(). Seed 0 gives
the acceptance-gate inputs exactly. Any other seed keeps the gate's
instance data and varies the run's randomness instead: solve-* and
sweep-cli permute the rows and columns of each corpus instance (the
standard performance-variability probe for MIP solvers), and campaign
draws other trial permutation streams over the gate pool. Fresh instances
per seed would make the run-to-run spread of every metric a property of
which instances were drawn, not of the code; NOTES.md gives the numbers.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from pvb import simulator
from pvb.abstract_tree import PvbInstance
from pvb.cli import LP_GEO_SHIFT, NODE_GEO_SHIFT, shifted_geomean_stat
from pvb.mini_bnb import MiniMip, SolverConfig, SolverError, save_mps, solver
from pvb.mini_bnb import sparse_multiknapsack

from referee import milp_objective

OBJ_TOL = 1e-6

GATE_POOL_SEED = 97
GATE_TRIAL_SEED = 424242
GAPS = (8.0, 16.0, 24.0, 32.0, 40.0, 48.0)
CAMPAIGN_STRATEGIES = ("fixed", "prob-mixed-pareto", "full")
# the abstract model's "dynamic" arm is the paper's probabilistic stop
DYNAMIC_STRATEGY = "prob-mixed-pareto"
SWEEP_WORKERS = 2
SWEEP_TIMEOUT_S = 150
# Normalised times are in seconds of a machine on which one calibration
# kernel run takes exactly this long; it takes about that long on the
# 2-core Xeon (2.1 GHz) the bounds were set on, when the host is quiet.
CAL_REF_MS = 1.0


def geomean(values, shift: float) -> float:
    """The statistic `pvb sweep` prints; 0.0 when no solve succeeded, which
    happens only in a run whose checks have failed."""
    values = list(values)
    return shifted_geomean_stat(values, shift) if values else 0.0


def permuted(mip: MiniMip, seed: int) -> MiniMip:
    """The same MIP with rows and columns reordered by seed.

    Seed 0 sorts its permutations back into the identity order, so it
    gives the gate instance itself with the same set-up work as any other
    seed."""
    rng = np.random.default_rng(seed)
    cols = rng.permutation(mip.n_cols)
    rows = rng.permutation(mip.n_rows)
    if seed == 0:
        cols.sort()
        rows.sort()

    def pick(values, order):
        return tuple(values[k] for k in order)

    return MiniMip(
        name=mip.name,
        col_names=pick(mip.col_names, cols),
        objective=pick(mip.objective, cols),
        row_names=pick(mip.row_names, rows),
        senses=pick(mip.senses, rows),
        matrix=tuple(pick(mip.matrix[i], cols) for i in rows),
        rhs=pick(mip.rhs, rows),
        lower=pick(mip.lower, cols),
        upper=pick(mip.upper, cols),
        integer=pick(mip.integer, cols),
    )


def corpus(n: int, seed: int) -> list[MiniMip]:
    """The first n toy_corpus instances, permuted by seed."""
    return [
        permuted(sparse_multiknapsack(20, 12, s, density=0.5), seed)
        for s in range(1, n + 1)
    ]


class Clock:
    """Times calls and normalises each by a calibration kernel run around it.

    On a shared 2-core VM the host's speed drifted by up to 1.7x in phases
    lasting from seconds to minutes. The drift slowed this fixed
    interpreter loop about as much as it slowed pvb (a log-log slope of
    0.96 against solve() times, where a small-numpy kernel gave 0.59). Each call's time is scaled by
    CAL_REF_MS over the mean kernel time measured just before and just
    after it, which removes most of the drift; raw times are kept too.
    """

    def __init__(self) -> None:
        self.cal_ms: list[float] = []
        self._last = self.calibrate()

    @staticmethod
    def _kernel() -> float:
        acc = 0.0
        steps = list(range(40))
        slots = {}
        for i in range(520):
            for j in steps:
                acc += j * 0.5
            slots[i % 7] = acc
        return acc

    def _median_kernel_ms(self) -> float:
        samples = []
        for _ in range(3):
            t = time.perf_counter()
            self._kernel()
            samples.append((time.perf_counter() - t) * 1e3)
        return statistics.median(samples)

    def calibrate(self, all_cpus: bool = False) -> float:
        """Median of three kernel runs in ms; with all_cpus, the mean over
        every CPU this process may use, measured pinned to each in turn."""
        if not all_cpus:
            cal = self._median_kernel_ms()
        else:
            allowed = os.sched_getaffinity(0)
            per_cpu = []
            try:
                for cpu in sorted(allowed):
                    os.sched_setaffinity(0, {cpu})
                    per_cpu.append(self._median_kernel_ms())
            finally:
                os.sched_setaffinity(0, allowed)
            cal = statistics.fmean(per_cpu)
        self.cal_ms.append(cal)
        return cal

    def call(self, fn, *args, all_cpus: bool = False):
        """Run fn(*args); return (result, normalised ms, raw ms).

        all_cpus is for work spread over several processes (the sweep's
        worker pool), since each CPU drifts on its own.
        """
        before = self.calibrate(all_cpus) if all_cpus else self._last
        t = time.perf_counter()
        try:
            result = fn(*args)
        finally:
            raw = (time.perf_counter() - t) * 1e3
            self._last = self.calibrate(all_cpus)
        return result, raw * CAL_REF_MS * 2.0 / (before + self._last), raw


@dataclass
class Pass:
    """One timed unit of work and what it produced.

    wall_s is the sum of the normalised call times, raw_wall_s of the raw ones.
    error is set when the pass raised; it then holds no outcome.
    """

    calls_ms: list = field(default_factory=list)
    raw_calls_ms: list = field(default_factory=list)
    units: int = 0
    outcome: list = field(default_factory=list)
    error: str | None = None

    def add(self, normalised_ms: float, raw_ms: float, units: int) -> None:
        self.calls_ms.append(normalised_ms)
        self.raw_calls_ms.append(raw_ms)
        self.units += units

    @property
    def wall_s(self) -> float:
        return sum(self.calls_ms) / 1e3

    @property
    def raw_wall_s(self) -> float:
        return sum(self.raw_calls_ms) / 1e3


@dataclass
class Checked:
    attempted: int
    failed: int
    problems: list


def _digest(obj) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()[:16]


class Workload:
    """Shared defaults: nothing to warm up and nothing to remove afterwards.

    ops_per_pass is the number of checked operations in one pass, counted
    as attempted and failed for a pass that raised."""

    def warm(self) -> None:
        pass

    def cleanup(self) -> None:
        pass


class SolveWorkload(Workload):
    """solve() in-process on corpus instances, fixed and dynamic mode."""

    unit = "solve() calls"
    call = "one solve() call"

    def __init__(self, seed: int, threshold: int, instances: int) -> None:
        self.seed = seed
        self.threshold = threshold
        self.n = instances
        self.configs = {
            mode: SolverConfig(mode=mode, reliability_threshold=threshold)
            for mode in ("fixed", "dynamic")
        }
        self.ops_per_pass = 2 * instances

    def setup(self) -> None:
        self.mips = corpus(self.n, self.seed)

    def warm(self) -> None:
        solver.solve(sparse_multiknapsack(8, 4, 0), self.configs["fixed"])

    def break_program(self) -> None:
        """Make every dynamic-mode solve raise SolverError, from inside solve()."""
        original = solver.should_continue

        def faulty(session, fixed, prob, dist):
            if prob is not None:
                raise SolverError("fault injected by --break-program")
            return original(session, fixed, prob, dist)

        solver.should_continue = faulty

    def run_pass(self, clock: Clock) -> Pass:
        p = Pass()
        for mip in self.mips:
            for mode, config in self.configs.items():
                try:
                    r, ms, raw = clock.call(solver.solve, mip, config)
                except Exception as exc:  # any exception from solve() is a failed solve
                    p.outcome.append((mip.name, mode, "error", f"{type(exc).__name__}: {exc}"))
                    continue
                p.add(ms, raw, 1)
                p.outcome.append(
                    (
                        mip.name, mode, r.status, r.objective, r.nodes,
                        r.sb_lp_solves, r.sb_iterations,
                        sum(d.reveals for d in r.decisions),
                    )
                )
        return p

    def check(self, passes: list[Pass], corrupt: bool) -> Checked:
        reference = {
            mip.name: milp_objective(
                mip.objective, mip.matrix, mip.senses, mip.rhs,
                mip.lower, mip.upper, mip.integer,
            ) + (1.0 if corrupt else 0.0)
            for mip in self.mips
        }
        attempted = failed = 0
        problems = []
        for k, p in enumerate(passes):
            attempted += len(p.outcome)
            objective = {}
            for j, row in enumerate(p.outcome):
                name, mode, status = row[:3]
                bad = None
                if status != "optimal":
                    bad = f"status {status}" + (f" ({row[3]})" if status == "error" else "")
                elif abs(row[3] - reference[name]) > OBJ_TOL:
                    bad = f"objective {row[3]} vs referee {reference[name]}"
                elif row != passes[0].outcome[j]:
                    bad = "differs from the first pass"
                objective[(name, mode)] = row[3] if status == "optimal" else None
                if bad is None and mode == "dynamic":
                    fixed = objective.get((name, "fixed"))
                    if fixed is None or abs(row[3] - fixed) > OBJ_TOL:
                        bad = f"dynamic objective {row[3]} vs fixed {fixed}"
                if bad is not None:
                    failed += 1
                    problems.append(f"pass {k} {name} {mode}: {bad}")
        return Checked(attempted, failed, problems)

    def counts(self, p: Pass) -> tuple[dict, dict]:
        by_mode = {m: [r for r in p.outcome if r[1] == m and r[2] == "optimal"] for m in self.configs}
        geo = {}
        work = {}
        for mode, rows in by_mode.items():
            geo[f"geo_nodes.{mode}"] = geomean([r[4] for r in rows], NODE_GEO_SHIFT)
            geo[f"geo_sb_lps.{mode}"] = geomean([r[5] for r in rows], LP_GEO_SHIFT)
            work[mode] = {
                "instances": len(rows),
                "nodes": sum(r[4] for r in rows),
                "sb_lps": sum(r[5] for r in rows),
                "sb_pivots": sum(r[6] for r in rows),
                "reveals": sum(r[7] for r in rows),
            }
        return geo, work

    def describe(self) -> dict:
        return {
            "instances": f"sparse_multiknapsack(20, 12, s, density=0.5) for s in 1..{self.n}",
            "permutation_seed": self.seed,
            "modes": list(self.configs),
            "reliability_threshold": self.threshold,
        }


class CampaignWorkload(Workload):
    """run_campaign with workers=1 on the criterion-5 pool, one cell per call."""

    unit = "trials"
    call = "one run_campaign call for one (gap, strategy) cell"

    def __init__(self, seed: int, trials: dict[str, int]) -> None:
        self.seed = seed
        self.trials = trials
        self.trial_seed = GATE_TRIAL_SEED + (seed << 32)
        self.ops_per_pass = len(GAPS) * len(CAMPAIGN_STRATEGIES)

    def setup(self) -> None:
        rng = np.random.default_rng(GATE_POOL_SEED)
        tail = rng.pareto(2.0, size=350) + 1.0
        pool = np.concatenate([np.zeros(150), tail])
        rng.shuffle(pool)
        self.pool = tuple(float(g) for g in pool)
        instance = PvbInstance(gap=GAPS[0], pool=self.pool)
        self.specs = [
            simulator.CampaignSpec(
                instance=instance, gaps=(gap,), trials=self.trials[strategy],
                seed=self.trial_seed, strategies=(strategy,),
            )
            for gap in GAPS
            for strategy in CAMPAIGN_STRATEGIES
        ]

    def warm(self) -> None:
        spec = self.specs[0]
        simulator.run_campaign(
            simulator.CampaignSpec(spec.instance, GAPS[:1], trials=5, seed=1,
                                   strategies=CAMPAIGN_STRATEGIES)
        )

    def break_program(self) -> None:
        """Make every trial of the `full` strategy raise inside run_campaign."""
        original = simulator.run_trial

        def faulty(instance, gap, strategy, *args, **kwargs):
            if strategy == "full":
                raise RuntimeError("fault injected by --break-program")
            return original(instance, gap, strategy, *args, **kwargs)

        simulator.run_trial = faulty

    def run_pass(self, clock: Clock) -> Pass:
        p = Pass()
        for spec in self.specs:
            rows, ms, raw = clock.call(simulator.run_campaign, spec, 1)
            p.add(ms, raw, spec.trials)
            p.outcome.extend(
                (r.gap, r.strategy, r.mean_total_nodes, r.mean_sb_nodes) for r in rows
            )
        return p

    def check(self, passes: list[Pass], corrupt: bool) -> Checked:
        full_sb = 2.0 * len(self.pool) + (2.0 if corrupt else 0.0)
        attempted = failed = 0
        problems = []
        for k, p in enumerate(passes):
            attempted += len(p.outcome)
            for j, row in enumerate(p.outcome):
                bad = None
                if row[1] == "full" and row[3] != full_sb:
                    bad = f"full mean_sb_nodes {row[3]} != {full_sb}"
                elif row != passes[0].outcome[j]:
                    bad = "differs from the first pass"
                if bad is not None:
                    failed += 1
                    problems.append(f"pass {k} gap {row[0]} {row[1]}: {bad}")
        return Checked(attempted, failed, problems)

    def counts(self, p: Pass) -> tuple[dict, dict]:
        rows = {s: [r for r in p.outcome if r[1] == s] for s in CAMPAIGN_STRATEGIES}
        geo = {
            "geo_nodes.dynamic": geomean([r[2] for r in rows[DYNAMIC_STRATEGY]], NODE_GEO_SHIFT),
            "geo_sb_lps.fixed": geomean([r[3] for r in rows["fixed"]], LP_GEO_SHIFT),
            "geo_sb_lps.dynamic": geomean([r[3] for r in rows[DYNAMIC_STRATEGY]], LP_GEO_SHIFT),
        }
        geo["geo_nodes.fixed"] = geomean([r[2] for r in rows["fixed"]], NODE_GEO_SHIFT)
        work = {
            s: {
                "trials": self.trials[s] * len(rs),
                "reveals": round(sum(r[3] for r in rs) * self.trials[s] / 2),
            }
            for s, rs in rows.items()
        }
        work["rows_digest"] = _digest(p.outcome)
        return geo, work

    def strategy_rates(self, passes: list[Pass]) -> dict:
        """Trials per second per strategy, from the cell call times.

        Cells run gap by gap, cycling through the strategies in order."""
        per = len(CAMPAIGN_STRATEGIES)
        rates = {}
        for j, strategy in enumerate(CAMPAIGN_STRATEGIES):
            seconds = sum(ms for p in passes for ms in p.calls_ms[j::per]) / 1e3
            trials = self.trials[strategy] * len(GAPS) * len(passes)
            rates[strategy] = trials / seconds if seconds else 0.0
        return rates

    def describe(self) -> dict:
        return {
            "pool": f"150 zeros + 350 Pareto(2)+1 gains, rng seed {GATE_POOL_SEED}",
            "gaps": list(GAPS),
            "strategies": list(CAMPAIGN_STRATEGIES),
            "trials_per_cell": self.trials,
            "trial_seed": self.trial_seed,
        }


class SweepWorkload(Workload):
    """`pvb sweep` as a subprocess over a written instance directory."""

    unit = "(instance, mode) solves"
    call = "one `pvb sweep` process"

    def __init__(self, seed: int, root: Path, out: Path, files: int) -> None:
        self.seed = seed
        self.root = root
        self.files = files
        self.dir = out / f"sweep-{seed}-{os.getpid()}"
        self.mps_dir = self.dir / "mps"
        self.flush_dir: Path | None = None
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.modes = "fixed,dynamic"

    def setup(self) -> None:
        shutil.rmtree(self.mps_dir, ignore_errors=True)
        self.mps_dir.mkdir(parents=True)
        for path in sorted((self.root / "instances").glob("*.mps")):
            shutil.copyfile(path, self.mps_dir / path.name)
        for mip in corpus(self.files, self.seed):
            save_mps(mip, self.mps_dir / f"{mip.name}.mps")
        self.n_instances = len(list(self.mps_dir.glob("*.mps")))
        self.ops_per_pass = 2 * self.n_instances

    def break_program(self) -> None:
        """Ask for a mode the sweep rejects, so it exits with code 2."""
        self.modes = "fixed,broken"

    def argv(self) -> list[str]:
        args = [
            "sweep", str(self.mps_dir), "--workers", str(SWEEP_WORKERS),
            "--modes", self.modes, "--L-grid", "9", "--K-grid", "1000000",
            "--seed", str(self.seed), "--out", str(self.dir / "sweep.csv"),
        ]
        if self.flush_dir is None:
            return [sys.executable, "-m", "pvb.cli", *args]
        launcher = Path(__file__).resolve().parent / "sweep_traced.py"
        return [sys.executable, str(launcher), str(self.flush_dir), *args]

    def _sweep(self) -> subprocess.CompletedProcess:
        """Run the sweep in its own session; on timeout kill it and its workers."""
        argv = self.argv()
        with subprocess.Popen(
            argv, env=self.env, cwd=self.root, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True, start_new_session=True,
        ) as proc:
            try:
                out, err = proc.communicate(timeout=SWEEP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.communicate()
                raise
        return subprocess.CompletedProcess(argv, proc.returncode, out, err)

    def run_pass(self, clock: Clock) -> Pass:
        proc, ms, raw = clock.call(self._sweep, all_cpus=True)
        csv_text = (self.dir / "sweep.csv").read_text() if proc.returncode == 0 else ""
        p = Pass()
        p.add(ms, raw, 2 * self.n_instances)
        p.outcome = [proc.returncode, csv_text, proc.stdout, proc.stderr]
        return p

    def _rows(self, p: Pass) -> list[list[str]]:
        return [line.split(",") for line in p.outcome[1].splitlines()[1:]]

    def check(self, passes: list[Pass], corrupt: bool) -> Checked:
        expected = self.n_instances + (1 if corrupt else 0)
        attempted = failed = 0
        problems = []
        for k, p in enumerate(passes):
            attempted += p.units
            rc, csv_text, stdout, stderr = p.outcome
            if rc != 0:
                failed += p.units
                problems.append(f"pass {k}: exit code {rc}: {stderr.strip()[-300:]}")
                continue
            rows = self._rows(p)
            for mode, _, _, solved, cell_failed, *_ in rows:
                bad = int(cell_failed) + max(expected - int(solved), 0)
                if bad:
                    failed += bad
                    problems.append(f"pass {k} {mode}: solved {solved}, failed {cell_failed}")
            if (csv_text, stdout) != tuple(passes[0].outcome[1:3]):
                failed += p.units
                problems.append(f"pass {k}: output differs from the first pass")
        return Checked(attempted, failed, problems)

    def counts(self, p: Pass) -> tuple[dict, dict]:
        geo = {}
        work = {}
        for mode, _, _, solved, cell_failed, geo_nodes, geo_sb in self._rows(p):
            # a cell in which every instance failed prints empty means
            geo[f"geo_nodes.{mode}"] = float(geo_nodes) if geo_nodes else 0.0
            geo[f"geo_sb_lps.{mode}"] = float(geo_sb) if geo_sb else 0.0
            work[mode] = {"solved": int(solved), "failed": int(cell_failed)}
        work["csv_digest"] = _digest(p.outcome[1])
        return geo, work

    def cleanup(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)

    def describe(self) -> dict:
        return {
            "instances": f"instances/*.mps + permuted sparse_multiknapsack(20, 12, s) for s in 1..{self.files}",
            "permutation_seed": self.seed,
            "command": "python3 -m pvb.cli " + " ".join(self.argv()[3:]),
            "workers": SWEEP_WORKERS,
        }
