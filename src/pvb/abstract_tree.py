"""Abstract branch-and-bound model: SVB tree depth and size, hidden pools.

The model strips BnB down to gap bookkeeping. A node inherits its parent's
dual gap plus the branching variable's side gain; a subtree is closed once
its gap reaches the target G. Branching a single variable everywhere yields
the SVB tree, whose depth for a gain g is ceil(G / g) and whose size is
2**(depth+1) - 1. svb_tree_size is the one place that size is computed;
the stopping rules and the campaign engine all price trees through it. A
PvbInstance hides a pool of geometric-mean gains that are revealed one at
a time; each reveal costs 2 nodes (the strong-branching probe, discarded
by a restart).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .gains import is_zero_gain

# Depth reported when a gain is classified zero, where no number of
# branchings on that variable alone can close a positive gap, and when
# gap/gain overflows the float range.
UNBOUNDED = math.inf

# Deepest tree svb_tree_size prices: 2**1023 - 1 nodes is the largest size
# that still converts to a float, so a campaign mean over it stays finite.
MAX_FINAL_DEPTH = 1022


class CapacityError(RuntimeError):
    """Gap/gain ratio too extreme for a tree size with a float value."""


@dataclass(frozen=True)
class PvbInstance:
    """A gap target plus a pool of hidden geometric-mean gains."""

    gap: float
    pool: tuple[float, ...]

    def __post_init__(self) -> None:
        if not (math.isfinite(self.gap) and self.gap > 0):
            raise ValueError(f"gap must be positive, got {self.gap!r}")
        object.__setattr__(self, "pool", tuple(float(g) for g in self.pool))
        for g in self.pool:
            if not (math.isfinite(g) and g >= 0):
                raise ValueError(f"invalid pool gain: {g!r}")

    @cached_property
    def reveal_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """The pool as float64 with zero-classified gains set to 0.0, and
        math.log of each nonzero gain (0.0 for zeros). Built on first use."""
        gains = [0.0 if is_zero_gain(g) else g for g in self.pool]
        logs = [math.log(g) if g else 0.0 for g in gains]
        return np.array(gains, dtype=float), np.array(logs, dtype=float)


def svb_depth(gap: float, gain: float) -> float:
    """Depth ceil(gap/gain) of the single-variable tree, or UNBOUNDED."""
    if not (math.isfinite(gap) and gap > 0):
        raise ValueError(f"gap must be positive, got {gap!r}")
    if is_zero_gain(gain) or gap / gain == UNBOUNDED:
        return UNBOUNDED
    return math.ceil(gap / gain)


def svb_tree_size(depth: int) -> int:
    """Perfect binary tree size 2**(depth+1) - 1, an exact int."""
    if depth > MAX_FINAL_DEPTH:  # UNBOUNDED included
        # a depth may have 309 digits; past 1e15 it is shown to 6 figures
        shown = depth if depth < 1e15 else f"{depth:.6g}"
        raise CapacityError(
            f"depth {shown} exceeds {MAX_FINAL_DEPTH}: a tree of 2**(depth+1) - 1"
            " nodes has no float mean"
        )
    if depth < 1:
        raise ValueError(f"depth must be >= 1, got {depth!r}")
    return (1 << (int(depth) + 1)) - 1
