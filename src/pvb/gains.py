"""Dual-gain ingestion and the epsilon-shifted geometric mean.

Raw strong-branching observations arrive as (downgain, upgain) pairs per
candidate. Everything downstream consumes them collapsed to one number

    g = sqrt((down + eps) * (up + eps)) - eps

which tends to the plain geometric mean as eps -> 0 and stays informative
when one side is zero. A collapsed gain below ZERO_TOL is classified as an
exact zero everywhere (mass-point bookkeeping, depth formulas): the shift
arithmetic cannot be trusted past that resolution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

from . import InputError, read_csv

DEFAULT_EPSILON = 1e-6
ZERO_TOL = 1e-9

GAIN_FILE_HEADER = ("node_id", "variable_id", "downgain", "upgain")


class GainFileError(InputError):
    """Unreadable or malformed gain file; the message names it (and the line)."""


def is_zero_gain(value: float) -> bool:
    """Classification used for the zero mass point p0."""
    return value < ZERO_TOL


@dataclass(frozen=True)
class GainPair:
    """One candidate's (downgain, upgain) observation, objective units."""

    down: float
    up: float

    def __post_init__(self) -> None:
        for side, v in (("down", self.down), ("up", self.up)):
            if not math.isfinite(v):
                raise ValueError(f"non-finite {side}gain: {v!r}")
            if v < 0:
                raise ValueError(f"negative {side}gain: {v!r}")


def shifted_geomean(down: float, up: float) -> float:
    """Collapse a gain pair to g = sqrt((down+eps)(up+eps)) - eps at
    eps = DEFAULT_EPSILON.

    down and up are gains >= 0 (GainPair checks a gain file's rows).
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


@dataclass(frozen=True)
class GainSeries:
    """All candidate evaluations collected at one node of one instance."""

    node_id: str
    entries: tuple[tuple[str, GainPair], ...]

    def __post_init__(self) -> None:
        seen = set()
        for var_id, _ in self.entries:
            if var_id in seen:
                raise ValueError(
                    f"duplicate variable_id {var_id!r} in series {self.node_id!r}"
                )
            seen.add(var_id)

    @cached_property
    def geomeans(self) -> tuple[float, ...]:
        return tuple(shifted_geomean(p.down, p.up) for _, p in self.entries)


def load_gain_series(path: str) -> list[GainSeries]:
    """Read a gain-file CSV into one GainSeries per distinct node_id.

    Entry order within a series follows file order. Each row is collapsed
    as it is read, so a pair whose geometric mean overflows is refused
    with its line rather than on first use of GainSeries.geomeans. Raises
    GainFileError, carrying the 1-based line number of the offending row,
    also for a file it cannot open, decode or parse as CSV.
    """
    by_node: dict[str, list[tuple[str, GainPair]]] = {}
    seen_keys: set[tuple[str, str]] = set()
    rows = read_csv(path, GainFileError)
    if not rows:
        return []
    header = rows[0]
    if tuple(cell.strip() for cell in header) != GAIN_FILE_HEADER:
        raise GainFileError(
            f"{path}:1: expected header {','.join(GAIN_FILE_HEADER)!r}, "
            f"got {','.join(header)!r}"
        )
    for lineno, row in enumerate(rows[1:], start=2):
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
        try:
            pair = GainPair(down, up)
            shifted_geomean(down, up)
        except ValueError as exc:
            raise GainFileError(f"{path}:{lineno}: {exc}") from None
        by_node.setdefault(node_id, []).append((var_id, pair))
    return [GainSeries(node_id, tuple(entries)) for node_id, entries in by_node.items()]
