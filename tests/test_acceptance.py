"""End-to-end acceptance gate.

Eight checks, each printing one "criterion N: PASS/FAIL" line on the
real stdout so the verdicts stay visible under pytest's capture. Every
check pins its own seeds and tolerances: exact tree formulas against
brute-force expansion, the one-more-reveal expectation against heavy
Monte Carlo, closure of the depth probabilities, the fitting stack
(MLE consistency, KS brute-force equality, KS calibration), campaign
trends on a zero-inflated Pareto pool, solver agreement with exhaustive
enumeration, the paired fixed-vs-dynamic corpus comparison, and byte
determinism of the CLI outputs.
"""

import math
import sys
import time
from statistics import NormalDist

import numpy as np

from helpers import dense, nodes_if_stop, random_binary_mip, save_gain_series, toy_corpus
from oracles import (
    brute_tree_count,
    build_svb_tree,
    enumerate_binary_mip,
    ks_brute,
    mc_expected_next_total,
    sample_mixed,
    sample_tail,
    tail_cdf_mp,
)
from pvb.abstract_tree import PvbInstance, svb_depth, svb_tree_size
from pvb.cli import main, shifted_geomean_stat
from pvb.distributions import GainAccumulator, MixedGainDistribution, ks_test
from pvb.lookahead import (
    ProbLookaheadConfig,
    SbSession,
    expected_nodes_if_continue,
    improvement_probabilities,
)
from pvb.mini_bnb import SolverConfig, save_mps, solve, sparse_multiknapsack
from pvb.simulator import CampaignSpec, run_campaign


# One line per check, echoed by the conftest terminal-summary hook so
# the verdicts survive output capture.
VERDICT_LINES: list[str] = []


def _verdict(num: int, ok: bool, detail: str) -> None:
    line = f"criterion {num}: {'PASS' if ok else 'FAIL'} ({detail})"
    VERDICT_LINES.append(line)
    print(line, file=sys.__stdout__, flush=True)
    assert ok, line


def test_criterion_1_tree_formulas_match_brute_force():
    t0 = time.perf_counter()
    checked = 0
    exact = True
    for g in (0.5, 1.0, 2.7, 10.0):
        for gap in (1.0, 10.0, 100.0):
            if gap / g > 20:
                continue
            checked += 1
            d = svb_depth(gap, g)
            formula = svb_tree_size(int(d))
            built = build_svb_tree(gap, g, g)
            brute = brute_tree_count(gap, g, g)
            session = SbSession(gap=gap)
            session.observe(g, cost=2.0)
            exact = exact and formula == built == brute
            exact = exact and session.d_min == d and session.iteration == 1
            exact = exact and nodes_if_stop(session) == formula + 2
    elapsed = time.perf_counter() - t0
    ok = exact and checked == 9 and elapsed < 1.0
    _verdict(1, ok, f"{checked} gain/gap pairs exact in {elapsed:.2f}s")


def test_criterion_2_continue_expectation_matches_monte_carlo():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20240777)
    worst = 0.0
    ok = True
    for k in range(20):
        family = ("exponential", "pareto", "lognormal")[k % 3]
        # Anchor the gap to a tail quantile so a nonzero share of draws
        # covers it outright; otherwise one bucket can swallow all 1e7
        # draws and the comparison loses its standard error.
        q1 = rng.uniform(0.05, 0.6)
        if family == "exponential":
            theta = (rng.uniform(0.5, 3.0),)
            gap = -math.log(q1) / theta[0]
        elif family == "pareto":
            theta = (rng.uniform(0.3, 1.5), rng.uniform(1.6, 4.0))
            gap = theta[0] * q1 ** (-1.0 / theta[1])
        else:
            theta = (rng.uniform(-0.5, 1.0), rng.uniform(0.3, 1.2))
            gap = math.exp(theta[0] + theta[1] * NormalDist().inv_cdf(1.0 - q1))
        p0 = rng.uniform(0.0, 0.6)
        d_min = int(rng.integers(2, 13))
        reveals = int(rng.integers(1, 31))

        session = SbSession(gap=gap)
        # Nudge the best gain below gap/d_min so its depth rounds up to
        # exactly d_min; the zero reveals only advance the iteration count.
        session.observe(gap / d_min * (1.0 + 1e-9), cost=2.0)
        for _ in range(reveals - 1):
            session.observe(0.0, cost=2.0)
        assert session.d_min == d_min and session.iteration == reveals

        dist = MixedGainDistribution(p0, family, theta)
        analytic = expected_nodes_if_continue(session, dist)
        mc_rng = np.random.default_rng(510_000 + k)
        mean, se = mc_expected_next_total(
            mc_rng, p0, family, theta, gap, d_min, reveals, 10**7
        )
        pull = abs(analytic - mean) / se
        worst = max(worst, pull)
        ok = ok and pull <= 3.0
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 120.0
    _verdict(2, ok, f"20 configs, worst gap {worst:.2f} SE at 1e7 draws, {elapsed:.0f}s")


def test_criterion_3_depth_probabilities_are_a_distribution():
    rng = np.random.default_rng(20240888)
    families = ("exponential", "pareto", "lognormal", "uniform", "normal")
    worst_dev = 0.0
    min_p = math.inf
    sized = True
    for _ in range(10_000):
        family = families[int(rng.integers(0, 5))]
        if family == "exponential":
            theta = (rng.uniform(0.05, 5.0),)
        elif family == "pareto":
            theta = (rng.uniform(0.05, 3.0), rng.uniform(1.05, 6.0))
        elif family == "lognormal":
            theta = (rng.uniform(-2.0, 2.0), rng.uniform(0.1, 2.0))
        elif family == "uniform":
            theta = (rng.uniform(0.1, 10.0),)
        else:
            theta = (rng.uniform(-1.0, 3.0), rng.uniform(0.1, 2.0))
        dist = MixedGainDistribution(rng.uniform(0.0, 0.95), family, theta)
        gap = rng.uniform(0.05, 200.0)
        d_min = int(rng.integers(2, 41))
        ps = improvement_probabilities(dist, gap, d_min)
        sized = sized and len(ps) == d_min
        worst_dev = max(worst_dev, abs(math.fsum(ps) - 1.0))
        min_p = min(min_p, min(ps))
    ok = sized and worst_dev <= 1e-10 and min_p >= 0.0
    _verdict(
        3, ok, f"10000 configs, max |sum p_d - 1| = {worst_dev:.1e}, min p_d = {min_p:.1e}"
    )


def _accumulate(values) -> GainAccumulator:
    acc = GainAccumulator()
    for v in values:
        acc.add(v)
    return acc


def test_criterion_4_fitting_stack():
    # MLE self-consistency: refit 1e5 mixed draws per family and demand
    # every recovered parameter lands within 5 asymptotic SEs (order
    # statistics get the matching exponential-tail bound instead).
    true_params = {
        "exponential": (1.7,),
        "pareto": (0.8, 2.5),
        "lognormal": (0.4, 0.9),
        "uniform": (2.2,),
        "normal": (5.0, 0.8),
    }
    n = 10**5
    p0 = 0.3
    worst_pull = 0.0
    mle_ok = True
    for idx, (family, theta) in enumerate(sorted(true_params.items())):
        rng = np.random.default_rng(4001 + idx)
        samples = sample_mixed(rng, p0, family, theta, n)
        dist = _accumulate(samples).fit(family)
        n1 = int((samples > 0).sum())
        pulls = [abs(dist.p0 - p0) / math.sqrt(p0 * (1 - p0) / n)]
        if family == "exponential":
            (lam,) = theta
            pulls.append(abs(dist.theta[0] - lam) / (lam / math.sqrt(n1)))
        elif family == "pareto":
            xm, alpha = theta
            xm_hat, alpha_hat = dist.theta
            mle_ok = mle_ok and xm - 1e-12 <= xm_hat <= xm * (1 + 12 / (alpha * n1))
            pulls.append(abs(alpha_hat - alpha) / (alpha / math.sqrt(n1)))
        elif family == "lognormal":
            mu, sigma = theta
            pulls.append(abs(dist.theta[0] - mu) / (sigma / math.sqrt(n1)))
            pulls.append(abs(dist.theta[1] - sigma) / (sigma / math.sqrt(2 * n1)))
        elif family == "uniform":
            (b,) = theta
            mle_ok = mle_ok and b * (1 - 12 / n1) <= dist.theta[0] <= b * (1 + 1e-12)
        else:
            mean, std = theta
            pulls.append(abs(dist.theta[0] - mean) / (std / math.sqrt(n1)))
            pulls.append(abs(dist.theta[1] - std) / (std / math.sqrt(2 * n1)))
        worst_pull = max(worst_pull, max(pulls))
        mle_ok = mle_ok and max(pulls) <= 5.0

    # KS statistic equals the O(n^2) rescan oracle exactly.
    worst_ks_dev = 0.0
    for size, family, theta, seed in (
        (5, "exponential", (1.3,), 4105),
        (37, "exponential", (1.3,), 4137),
        (200, "exponential", (1.3,), 4200),
        (200, "pareto", (1.0, 2.2), 4300),
    ):
        xs = sample_tail(np.random.default_rng(seed), family, theta, size)
        d_pkg, _ = ks_test(xs, MixedGainDistribution(0.0, family, theta))
        d_brt = ks_brute(xs, lambda v, f=family, t=theta: tail_cdf_mp(f, t, v))
        worst_ks_dev = max(worst_ks_dev, abs(d_pkg - d_brt))
    ks_ok = worst_ks_dev <= 1e-12

    # Calibration: fitting the true family should rarely be rejected.
    calib_theta = {
        "exponential": (1.0,),
        "pareto": (1.0, 2.2),
        "lognormal": (0.0, 0.8),
    }
    rejected = 0
    for t in range(200):
        family = ("exponential", "pareto", "lognormal")[t % 3]
        rng = np.random.default_rng(600_000 + t)
        samples = sample_mixed(rng, 0.25, family, calib_theta[family], 400)
        dist = _accumulate(samples).fit(family)
        _, p_value = ks_test(samples[samples > 0], dist)
        rejected += p_value < 0.05
    non_rejection = 1.0 - rejected / 200
    calib_ok = non_rejection >= 0.93

    ok = mle_ok and ks_ok and calib_ok
    _verdict(
        4,
        ok,
        f"MLE worst pull {worst_pull:.2f} SE, KS dev {worst_ks_dev:.1e}, "
        f"calibration {non_rejection:.1%} non-rejected",
    )


def test_criterion_5_campaign_trends_on_zero_inflated_pool():
    t0 = time.perf_counter()
    rng = np.random.default_rng(97)
    tail = rng.pareto(2.0, size=350) + 1.0
    pool = np.concatenate([np.zeros(150), tail])
    rng.shuffle(pool)
    gaps = (8.0, 16.0, 24.0, 32.0, 40.0, 48.0)
    spec = CampaignSpec(
        instance=PvbInstance(gap=gaps[0], pool=tuple(pool)),
        gaps=gaps,
        trials=1000,
        seed=424242,
        strategies=("fixed", "prob-mixed-pareto", "full"),
    )
    rows = {(r.gap, r.strategy): r for r in run_campaign(spec)}
    full_constant = all(
        rows[(g, "full")].mean_sb_nodes == 2.0 * len(pool) for g in gaps
    )
    prob_wins_large = all(
        rows[(g, "prob-mixed-pareto")].mean_total_nodes
        <= rows[(g, "fixed")].mean_total_nodes
        for g in gaps[-2:]
    )
    ratios = [
        rows[(g, "fixed")].mean_total_nodes
        / rows[(g, "prob-mixed-pareto")].mean_total_nodes
        for g in gaps
    ]
    monotone = all(b >= a - 1e-9 for a, b in zip(ratios, ratios[1:]))
    elapsed = time.perf_counter() - t0
    ok = full_constant and prob_wins_large and monotone and elapsed < 300.0
    _verdict(
        5,
        ok,
        f"fixed/prob ratio {ratios[0]:.3f} -> {ratios[-1]:.3f} over 6 gaps, "
        f"full SB constant at {2 * len(pool)}, {elapsed:.0f}s",
    )


def test_criterion_6_solver_matches_exhaustive_enumeration():
    gated = SolverConfig(
        mode="dynamic", prob=ProbLookaheadConfig(min_nonzero_samples=10**9)
    )
    mismatches = 0
    identical = 0
    for seed in range(1, 201):
        mip = random_binary_mip(seed)
        c, a, senses, b, _, _ = dense(mip)
        best = enumerate_binary_mip(c, a, senses, b)
        res_fixed = solve(mip, SolverConfig(mode="fixed"))
        res_dyn = solve(mip, SolverConfig(mode="dynamic"))
        for res in (res_fixed, res_dyn):
            if best is None:
                mismatches += res.status != "infeasible"
            elif res.status != "optimal" or abs(res.objective - best) > 1e-6:
                mismatches += 1
        res_gate = solve(mip, gated)
        identical += (
            res_gate.status == res_fixed.status
            and res_gate.objective == res_fixed.objective
            and res_gate.nodes == res_fixed.nodes
            and res_gate.sb_lp_solves == res_fixed.sb_lp_solves
            and res_gate.decisions == res_fixed.decisions
        )
    ok = mismatches == 0 and identical == 200
    _verdict(
        6,
        ok,
        f"200 instances, {mismatches} enumeration mismatches, "
        f"gate-off dynamic identical to fixed on {identical}/200",
    )


def test_criterion_7_dynamic_saves_lps_on_paired_corpus():
    t0 = time.perf_counter()
    corpus = toy_corpus()
    results = {}
    for mode in ("fixed", "dynamic"):
        cfg = SolverConfig(mode=mode, reliability_threshold=12)
        results[mode] = [solve(mip, cfg) for mip in corpus]
        assert all(r.status == "optimal" for r in results[mode])
    mismatches = sum(
        abs(rf.objective - rd.objective) > 1e-6
        for rf, rd in zip(results["fixed"], results["dynamic"])
    )
    geo_sb = {
        m: shifted_geomean_stat([r.sb_lp_solves for r in results[m]], 1.0)
        for m in results
    }
    geo_nodes = {
        m: shifted_geomean_stat([r.nodes for r in results[m]], 100.0)
        for m in results
    }
    elapsed = time.perf_counter() - t0
    ok = (
        mismatches == 0
        and geo_sb["dynamic"] < geo_sb["fixed"]
        and geo_nodes["dynamic"] <= 1.02 * geo_nodes["fixed"]
    )
    _verdict(
        7,
        ok,
        f"50 instances, SB LPs {geo_sb['dynamic']:.1f} vs {geo_sb['fixed']:.1f}, "
        f"nodes {geo_nodes['dynamic']:.1f} vs {geo_nodes['fixed']:.1f}, "
        f"{mismatches} objective mismatches, {elapsed:.0f}s",
    )


def test_criterion_8_cli_outputs_are_byte_deterministic(tmp_path, capsys):
    def run_cli(*argv: str) -> str:
        code = main(list(argv))
        captured = capsys.readouterr()
        assert code == 0, captured.err
        return captured.out

    pool_rng = np.random.default_rng(2024)
    values = pool_rng.pareto(2.0, size=250) + 1.0
    values[pool_rng.random(250) < 0.3] = 0.0
    gainfile = tmp_path / "pool.gains"
    save_gain_series(str(gainfile), [("root", f"g{i}", v, v) for i, v in enumerate(values)])

    sim_csv, sim_stdout = set(), set()
    for tag, workers in (("a", 1), ("b", 1), ("c", 8)):
        out = tmp_path / f"sim-{tag}.csv"
        sim_stdout.add(
            run_cli(
                "simulate", "--instance", str(gainfile),
                "--gaps", "8,16", "--trials", "120", "--seed", "31",
                "--strategies", "fixed,prob-mixed-pareto,full",
                "--workers", str(workers), "--out", str(out),
            )
        )
        sim_csv.add(out.read_bytes())
    sim_ok = len(sim_csv) == 1 and len(sim_stdout) == 1

    inst_dir = tmp_path / "instances"
    inst_dir.mkdir()
    for seed in (1, 2, 3):
        mip = sparse_multiknapsack(14, 8, seed)
        save_mps(mip, inst_dir / f"{mip.name}.mps")
    sweep_csv, sweep_stdout = set(), set()
    for tag, workers in (("a", 1), ("b", 1), ("c", 8)):
        out = tmp_path / f"sweep-{tag}.csv"
        sweep_stdout.add(
            run_cli(
                "sweep", str(inst_dir), "--modes", "fixed,dynamic",
                "--L-grid", "9", "--K-grid", "1000000", "--seed", "5",
                "--workers", str(workers), "--out", str(out),
            )
        )
        sweep_csv.add(out.read_bytes())
    sweep_ok = len(sweep_csv) == 1 and len(sweep_stdout) == 1

    ok = sim_ok and sweep_ok
    _verdict(
        8, ok, "simulate and sweep byte-stable across repeat runs and workers 1 vs 8"
    )
