"""Command line front end: fit, simulate, solve, sweep, report.

Every command validates its whole configuration before doing any work
and is deterministic given its arguments, input files, and seed. Exit
codes are a stable scripting contract: 0 success, 1 internal failure,
2 user or input error, which is an InputError (MpsError and GainFileError
among them) by the time it reaches main. Numeric output always goes through one
formatter so CSV files and the aligned stdout tables stay byte-stable
across runs and worker counts.

Settings take one path from the command line to the engines. SETTINGS
gives each setting's type; a command registers a flag and a --config
key only for the settings its engine reads (simulate: L, K,
min_nonzero_samples; solve: all four; sweep: min_nonzero_samples and
family, with L and K from its grids); lookahead.PHI and
gains.DEFAULT_EPSILON are constants. The CLI builds FixedLookaheadConfig,
ProbLookaheadConfig, SolverConfig and CampaignSpec from them directly,
and a ValueError from those types' own checks exits with code 2.
"""

from __future__ import annotations

import argparse
import csv
import math
import os
import stat
import sys
from contextlib import contextmanager
from dataclasses import fields
from pathlib import Path

from . import InputError, pool_map, read_csv, read_lines
from .abstract_tree import CapacityError, PvbInstance
from .distributions import FAMILIES, fit_report
from .gains import load_gain_series
from .lookahead import FixedLookaheadConfig, ProbLookaheadConfig
from .mini_bnb import MpsError, SolveCache, SolverConfig, SolverError, load_mps, solve
from .simulator import STRATEGIES, CampaignSpec, UnclosableError, run_campaign

NODE_GEO_SHIFT = 100.0
LP_GEO_SHIFT = 1.0


def _num(value) -> str:
    if value is None:
        return ""
    return format(float(value), ".10g")


def shifted_geomean_stat(values, shift: float) -> float:
    """exp(mean(log(v + shift))) - shift over a nonempty sequence."""
    vals = list(values)
    if not vals:
        raise ValueError("need at least one value")
    return math.exp(sum(math.log(v + shift) for v in vals) / len(vals)) - shift


def render_table(header, rows) -> str:
    """Aligned text table; first column left, the rest right-justified."""
    table = [list(header)] + [list(r) for r in rows]
    widths = [max(len(row[i]) for row in table) for i in range(len(header))]
    lines = []
    for row in table:
        cells = [row[0].ljust(widths[0])]
        cells += [cell.rjust(w) for cell, w in zip(row[1:], widths[1:])]
        lines.append("  ".join(cells).rstrip())
    return "\n".join(lines)


def _write_csv(path, header, rows) -> None:
    """Rewrite path in place, then cut a regular file at the new end.

    No open truncates: on ext4 mounted with `discard`, truncating an
    existing file on open blocks for tens of milliseconds. /dev/null and
    FIFOs cannot be truncated and are only written."""
    try:
        fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
        with open(fd, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(header)
            writer.writerows(rows)
            if stat.S_ISREG(os.fstat(fd).st_mode):
                fh.truncate()
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc.strerror or exc}") from None


def _parse_list(text: str, kind, what: str) -> tuple:
    items = [t.strip() for t in text.split(",") if t.strip()]
    if not items:
        raise InputError(f"{what} must name at least one entry")
    try:
        return tuple(kind(t) for t in items)
    except ValueError as exc:
        raise InputError(f"bad {what} {text!r}: {exc}") from None


# Every setting a command may take: key -> (type, help). The same key
# names the --flag (underscores as dashes) and the --config line, and
# each command lists the keys its engine reads.
SETTINGS = {
    "L": (int, "lookahead streak limit"),
    "K": (int, "extra simplex iteration budget"),
    "min_nonzero_samples": (int, "nonzero gains required before the test may fire"),
    "family": (str, "tail family fitted by the dynamic mode's expected-size test"),
}


def _load_config_file(path, keys) -> dict:
    """key=value lines; # starts a comment; a key not in keys is refused."""
    values = {}
    for lineno, raw in enumerate(read_lines(path), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise InputError(f"{path}:{lineno}: expected key=value, got {raw.strip()!r}")
        key, text = (part.strip() for part in line.split("=", 1))
        if key not in keys:
            raise InputError(
                f"{path}:{lineno}: unknown key {key!r} (known: {', '.join(keys)})"
            )
        if key in values:
            raise InputError(f"{path}:{lineno}: duplicate key {key!r}")
        try:
            values[key] = SETTINGS[key][0](text)
        except ValueError:
            raise InputError(f"{path}:{lineno}: bad value {text!r} for {key}") from None
    return values


def _settings(args) -> dict:
    """The command's settings from --config, overridden by explicit flags."""
    merged = _load_config_file(args.config, args.settings) if args.config else {}
    for key in args.settings:
        value = getattr(args, key)
        if value is not None:
            merged[key] = value
    return merged


def _fields(cls, settings: dict) -> dict:
    """The settings that are fields of the config type cls."""
    return {f.name: settings[f.name] for f in fields(cls) if f.name in settings}


@contextmanager
def _checked():
    """Report a config type's own ValueError as an input error (exit 2)."""
    try:
        yield
    except ValueError as exc:
        raise InputError(str(exc)) from None


# ---------------------------------------------------------------- fit


def cmd_fit(args) -> int:
    all_series = load_gain_series(args.gainfile)
    if not all_series:
        raise InputError(f"{args.gainfile}: no gain rows")
    families = (
        _parse_list(args.families, str, "families") if args.families else FAMILIES
    )
    for family in families:
        if family not in FAMILIES:
            raise InputError(f"unknown family {family!r} (known: {', '.join(FAMILIES)})")
    if not 0.0 < args.alpha < 1.0:
        raise InputError(f"alpha must be in (0,1), got {args.alpha!r}")
    rows = []
    for series in all_series:
        for report in fit_report(series, families, alpha=args.alpha):
            theta = report.distribution.theta or ()
            rows.append(
                (
                    series.node_id,
                    report.distribution.family,
                    _num(report.distribution.p0),
                    _num(theta[0]) if len(theta) > 0 else "",
                    _num(theta[1]) if len(theta) > 1 else "",
                    _num(report.ks_statistic),
                    _num(report.ks_p_value),
                    report.verdict,
                )
            )
    header = ("node_id", "family", "p0", "theta1", "theta2", "ks_D", "ks_p", "verdict")
    _write_csv(args.out, header, rows)
    print(render_table(header, rows))
    return 0


# ----------------------------------------------------------- simulate


def _pick_series(args):
    all_series = load_gain_series(args.instance)
    if not all_series:
        raise InputError(f"{args.instance}: no gain rows")
    by_node = {s.node_id: s for s in all_series}
    if args.node is not None:
        try:
            return by_node[args.node]
        except KeyError:
            raise InputError(
                f"{args.instance}: no node {args.node!r}"
                f" (has: {', '.join(sorted(by_node))})"
            ) from None
    if len(all_series) == 1:
        return all_series[0]
    raise InputError(
        f"{args.instance}: {len(all_series)} node series; pick one with"
        f" --node (has: {', '.join(sorted(by_node))})"
    )


def cmd_simulate(args) -> int:
    settings = _settings(args)
    series = _pick_series(args)
    gaps = _parse_list(args.gaps, float, "gaps")
    strategies = (
        _parse_list(args.strategies, str, "strategies") if args.strategies else STRATEGIES
    )
    if args.workers < 1:
        raise InputError(f"workers must be >= 1, got {args.workers!r}")
    with _checked():
        spec = CampaignSpec(
            instance=PvbInstance(gap=gaps[0], pool=series.geomeans),
            gaps=gaps,
            trials=args.trials,
            seed=args.seed,
            strategies=strategies,
        )
        fixed = FixedLookaheadConfig(**_fields(FixedLookaheadConfig, settings))
        prob = ProbLookaheadConfig(**_fields(ProbLookaheadConfig, settings))
    try:
        table = run_campaign(spec, workers=args.workers, fixed=fixed, prob=prob)
    except (UnclosableError, CapacityError) as exc:
        raise InputError(f"{args.instance}: node {series.node_id!r}: {exc}") from None
    header = ("gap", "strategy", "mean_total_nodes", "mean_sb_nodes")
    rows = [
        (_num(r.gap), r.strategy, _num(r.mean_total_nodes), _num(r.mean_sb_nodes))
        for r in table
    ]
    _write_csv(args.out, header, rows)
    print(render_table(header, rows))
    return 0


# -------------------------------------------------------- solve/sweep


def _solver_config(mode: str, settings: dict, args) -> SolverConfig:
    with _checked():
        return SolverConfig(
            mode=mode,
            fixed=FixedLookaheadConfig(**_fields(FixedLookaheadConfig, settings)),
            prob=ProbLookaheadConfig(**_fields(ProbLookaheadConfig, settings)),
            reliability_threshold=args.reliability_threshold,
            node_limit=args.node_limit,
        )


def cmd_solve(args) -> int:
    settings = _settings(args)
    mip = load_mps(args.instance)
    config = _solver_config(args.mode, settings, args)
    try:
        result = solve(mip, config)
    except SolverError as exc:
        raise InputError(f"{args.instance}: solver failed: {exc}") from None
    header = (
        "instance", "mode", "status", "objective", "bound",
        "nodes", "sb_lps", "sb_iters",
    )
    row = (
        mip.name or Path(args.instance).stem,
        args.mode,
        result.status,
        _num(result.objective),
        _num(result.bound),
        str(result.nodes),
        str(result.sb_lp_solves),
        str(result.sb_iterations),
    )
    print(render_table(header, [row]))
    return 0


def _sweep_solve(job):
    """One instance's solves in a worker, one outcome per config, in order.

    The solves share one SolveCache, so a cell solves only the LPs that
    the cells before it did not. A numerical failure of the LP engine
    counts as a failed instance in its cell, and any other exception is a
    fault in pvb that reaches main."""
    name, mip, configs = job
    cache = SolveCache(mip)
    outcomes = []
    for config in configs:
        try:
            result = solve(mip, config, cache)
        except SolverError as exc:
            outcomes.append((name, "error", str(exc)))
            continue
        if result.status == "node_limit":
            outcomes.append((name, "error", "node limit reached"))
        else:
            outcomes.append((name, "ok", (result.nodes, result.sb_lp_solves)))
    return outcomes


def cmd_sweep(args) -> int:
    paths = sorted(Path(args.instance_dir).glob("*.mps"))
    if not paths:
        raise InputError(f"no .mps files in {args.instance_dir}")
    modes = _parse_list(args.modes, str, "modes")
    l_grid = _parse_list(args.L_grid, int, "L grid")
    k_grid = _parse_list(args.K_grid, int, "K grid")
    if args.workers < 1:
        raise InputError(f"workers must be >= 1, got {args.workers!r}")
    settings = _settings(args)
    cells = [(mode, L, K) for mode in modes for L in l_grid for K in k_grid]
    configs = [
        _solver_config(mode, {**settings, "L": L, "K": K}, args) for mode, L, K in cells
    ]

    mips = []
    parse_failures = []
    for path in paths:
        try:
            mips.append((path.name, load_mps(path)))
        except MpsError as exc:  # unreadable or malformed: failed in every cell
            parse_failures.append((path.name, str(exc)))
    # one job per instance, so its cells share their LPs; outcomes[i][c]
    # is instance i in cell c
    jobs = [(name, mip, configs) for name, mip in mips]
    # perfbench's tracer wraps _sweep_solve on this module, so it is looked up here
    outcomes = pool_map(_sweep_solve, jobs, args.workers)

    for name, message in parse_failures:
        print(f"failed {name}: {message}", file=sys.stderr)
    header = ("mode", "L", "K", "solved", "failed", "geo_nodes", "geo_sb_lps")
    rows = []
    for c, (mode, L, K) in enumerate(cells):
        nodes, sb_lps, failed = [], [], len(parse_failures)
        for instance in outcomes:
            name, status, payload = instance[c]
            if status == "ok":
                n, s = payload
                nodes.append(n)
                sb_lps.append(s)
            else:
                failed += 1
                print(f"failed {name} [{mode} L={L} K={K}]: {payload}", file=sys.stderr)
        rows.append(
            (
                mode,
                str(L),
                str(K),
                str(len(nodes)),
                str(failed),
                _num(shifted_geomean_stat(nodes, NODE_GEO_SHIFT)) if nodes else "",
                _num(shifted_geomean_stat(sb_lps, LP_GEO_SHIFT)) if sb_lps else "",
            )
        )
    _write_csv(args.out, header, rows)
    print(render_table(header, rows))
    return 0


# -------------------------------------------------------------- report


def cmd_report(args) -> int:
    table = [row for row in read_csv(args.csvfile) if row]
    if not table:
        raise InputError(f"{args.csvfile}: empty CSV")
    width = len(table[0])
    for lineno, row in enumerate(table, start=1):
        if len(row) != width:
            raise InputError(
                f"{args.csvfile}:{lineno}: expected {width} columns, got {len(row)}"
            )
    print(render_table(table[0], table[1:]))
    return 0


# ---------------------------------------------------------------- main


def _add_setting_flags(parser, keys) -> None:
    """A --config option and one flag per key, all from SETTINGS."""
    parser.add_argument("--config", help=f"key=value file; keys: {', '.join(keys)}")
    for key in keys:
        kind, text = SETTINGS[key]
        parser.add_argument("--" + key.replace("_", "-"), dest=key, type=kind, help=text)
    parser.set_defaults(settings=keys)


def _add_solver_flags(parser, with_mode: bool = True) -> None:
    if with_mode:
        parser.add_argument("--mode", choices=("fixed", "dynamic"), default="fixed")
    parser.add_argument(
        "--reliability-threshold", dest="reliability_threshold", type=int, default=2,
        help="branchings per direction before pseudocosts are trusted",
    )
    parser.add_argument(
        "--node-limit", dest="node_limit", type=int, default=SolverConfig.node_limit,
        help="stop with status node_limit after this many nodes; a tree may never close",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pvb",
        description="Branching-gain distribution fitting, abstract tree simulation, and a toy MIP solver.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fit", help="fit gain distributions and screen them with KS")
    p.add_argument("gainfile", help="gain CSV: node_id,variable_id,downgain,upgain")
    p.add_argument("--out", required=True, help="report CSV path")
    p.add_argument("--families", help="comma list; default: all families")
    p.add_argument("--alpha", type=float, default=0.05)
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("simulate", help="Monte-Carlo campaign on one gain pool")
    p.add_argument("--instance", required=True, help="gain CSV holding the pool")
    p.add_argument("--node", help="node_id to use when the file has several")
    p.add_argument("--gaps", required=True, help="comma list of gap targets")
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--strategies", help=f"comma list; default: {','.join(STRATEGIES)}")
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--out", required=True, help="campaign CSV path")
    _add_setting_flags(p, ("L", "K", "min_nonzero_samples"))
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("solve", help="run the toy solver on one MPS instance")
    p.add_argument("instance", help="MPS file")
    _add_solver_flags(p)
    _add_setting_flags(p, tuple(SETTINGS))
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("sweep", help="grid of (mode, L, K) over an instance directory")
    p.add_argument("instance_dir", help="directory of .mps files")
    p.add_argument("--modes", default="fixed,dynamic")
    p.add_argument("--L-grid", dest="L_grid", default="9")
    p.add_argument("--K-grid", dest="K_grid", default="1000000")
    p.add_argument("--seed", type=int, required=True,
                   help="recorded for reproducibility; solves are deterministic")
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--out", required=True, help="per-cell CSV path")
    _add_solver_flags(p, with_mode=False)
    _add_setting_flags(p, ("min_nonzero_samples", "family"))
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("report", help="render a result CSV as an aligned table")
    p.add_argument("csvfile")
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # fit, simulate and sweep refuse an --out they cannot write before any work
        out = getattr(args, "out", None)
        if out is not None:
            if not Path(out).parent.is_dir():
                raise InputError(f"cannot write {out}: no directory {Path(out).parent}")
            if Path(out).is_dir():
                raise InputError(f"cannot write {out}: it is a directory")
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - the 0/1/2 contract needs a catch-all
        print(f"internal error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
