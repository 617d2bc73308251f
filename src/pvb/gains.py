"""Dual-gain ingestion and the epsilon-shifted geometric mean.

Raw strong-branching observations arrive as (downgain, upgain) pairs per
candidate. Everything downstream consumes them collapsed to one number

    g = sqrt((down + eps) * (up + eps)) - eps

which tends to the plain geometric mean as eps -> 0 and stays informative
when one side is zero. The gain-file reader checks and collapses each row
once, as it reads it, into its node's pool: a tuple of these floats. A
collapsed gain below ZERO_TOL is classified as an exact zero everywhere
(mass-point bookkeeping, depth formulas): the shift arithmetic cannot be
trusted past that resolution.
"""

from __future__ import annotations

import math

from . import InputError, read_csv

DEFAULT_EPSILON = 1e-6
ZERO_TOL = 1e-9

GAIN_FILE_HEADER = ("node_id", "variable_id", "downgain", "upgain")


class GainFileError(InputError):
    """Unreadable or malformed gain file; the message names it (and the line)."""


def is_zero_gain(value: float) -> bool:
    """Classification used for the zero mass point p0."""
    return value < ZERO_TOL


def shifted_geomean(down: float, up: float) -> float:
    """Collapse a gain pair to g = sqrt((down+eps)(up+eps)) - eps at
    eps = DEFAULT_EPSILON.

    down and up are gains >= 0 (load_gain_series checks a gain file's rows).
    Symmetric in (down, up), monotone in each argument, and exact for
    down == up (sqrt of a perfect square rounds back to its root).
    Raises ValueError when the product overflows to inf.
    """
    eps = DEFAULT_EPSILON
    value = math.sqrt((down + eps) * (up + eps)) - eps
    if not math.isfinite(value):
        raise ValueError(f"geometric-mean gain overflows: {value!r}")
    # Guard the subtraction against a last-ulp dip below zero.
    return max(value, 0.0)


def load_gain_series(path: str) -> dict[str, tuple[float, ...]]:
    """Read a gain-file CSV into {node_id: pool}, nodes in file order.

    A pool is the node's rows collapsed by shifted_geomean, in file order.
    A row is refused where it is read: a side that is not a finite gain
    >= 0, a pair whose geometric mean overflows, or a (node_id,
    variable_id) seen before. Raises GainFileError, carrying the 1-based
    number of the offending row's first line, also for a file it cannot open,
    decode or parse as CSV, and for one without a gain row.
    """
    pools: dict[str, list[float]] = {}
    seen_keys: set[tuple[str, str]] = set()
    rows = read_csv(path, GainFileError)
    if rows and tuple(cell.strip() for cell in rows[0][1]) != GAIN_FILE_HEADER:
        raise GainFileError(
            f"{path}:1: expected header {','.join(GAIN_FILE_HEADER)!r}, "
            f"got {','.join(rows[0][1])!r}"
        )
    for lineno, row in rows[1:]:
        if not row:
            continue
        if len(row) != 4:
            raise GainFileError(f"{path}:{lineno}: expected 4 fields, got {len(row)}")
        node_id, var_id = row[0].strip(), row[1].strip()
        try:
            down, up = float(row[2]), float(row[3])
        except ValueError:
            raise GainFileError(f"{path}:{lineno}: unparseable gain value") from None
        key = (node_id, var_id)
        if key in seen_keys:
            raise GainFileError(f"{path}:{lineno}: duplicate entry {key!r}")
        seen_keys.add(key)
        for side, v in (("down", down), ("up", up)):
            if not math.isfinite(v):
                raise GainFileError(f"{path}:{lineno}: non-finite {side}gain: {v!r}")
            if v < 0:
                raise GainFileError(f"{path}:{lineno}: negative {side}gain: {v!r}")
        try:
            gain = shifted_geomean(down, up)
        except ValueError as exc:
            raise GainFileError(f"{path}:{lineno}: {exc}") from None
        pools.setdefault(node_id, []).append(gain)
    if not pools:
        raise GainFileError(f"{path}: no gain rows")
    return {node_id: tuple(pool) for node_id, pool in pools.items()}
