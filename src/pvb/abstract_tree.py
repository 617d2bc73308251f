"""Abstract branch-and-bound model: tree dual gaps, SVB trees, hidden pools.

The model strips BnB down to gap bookkeeping. A node inherits its parent's
dual gap plus the branching variable's side gain; a subtree is closed once
its gap reaches the target G. Branching a single variable everywhere yields
the SVB tree, whose depth for a gain g is ceil(G / g) and whose size is
2**(depth+1) - 1. A PvbInstance hides a pool of geometric-mean gains that
are revealed one at a time; each reveal costs 2 nodes (the strong-branching
probe, discarded by a restart).
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .gains import GeomGain, is_zero_gain

# Depth reported when a gain is classified zero: no number of branchings
# on that variable alone can close a positive gap.
UNBOUNDED = math.inf

MAX_TREE_DEPTH = 62  # 2**63 - 1 nodes; beyond this exact sizes stop being meaningful
MAX_BUILT_NODES = 10**7


class CapacityError(RuntimeError):
    """Gap/gain ratio too extreme for exact tree enumeration."""


@dataclass(frozen=True)
class AbstractVariable:
    """A variable reduced to its fixed (left_gain, right_gain) pair."""

    id: str
    left_gain: float
    right_gain: float

    def __post_init__(self) -> None:
        for side, v in (("left", self.left_gain), ("right", self.right_gain)):
            if not (math.isfinite(v) and v >= 0):
                raise ValueError(f"invalid {side}_gain: {v!r}")


@dataclass(frozen=True)
class TreeCost:
    """Node accounting: the final tree plus everything discarded by restarts."""

    final_tree_nodes: int
    sb_nodes: int
    total: int

    def __post_init__(self) -> None:
        if self.sb_nodes % 2 != 0:
            raise ValueError("sb_nodes must be even (2 per reveal)")
        if self.total != self.final_tree_nodes + self.sb_nodes:
            raise ValueError("total must equal final_tree_nodes + sb_nodes")

    @classmethod
    def after_reveals(cls, final_tree_nodes: int, reveals: int) -> "TreeCost":
        return cls(final_tree_nodes, 2 * reveals, final_tree_nodes + 2 * reveals)


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


def _gain_value(gain) -> float:
    return gain.value if isinstance(gain, GeomGain) else float(gain)


def node_gap(parent_gap: float, variable: AbstractVariable, side: str) -> float:
    """Child dual gap: parent gap plus the chosen side's gain."""
    if parent_gap < 0:
        raise ValueError(f"parent_gap must be nonnegative, got {parent_gap!r}")
    if side == "left":
        return parent_gap + variable.left_gain
    if side == "right":
        return parent_gap + variable.right_gain
    raise ValueError(f"side must be 'left' or 'right', got {side!r}")


def svb_depth(gap: float, gain) -> float:
    """Depth ceil(gap/gain) of the single-variable tree, or UNBOUNDED."""
    if not (math.isfinite(gap) and gap > 0):
        raise ValueError(f"gap must be positive, got {gap!r}")
    g = _gain_value(gain)
    if is_zero_gain(g):
        return UNBOUNDED
    return math.ceil(gap / g)


def svb_tree_size(depth: int) -> int:
    """Perfect binary tree size 2**(depth+1) - 1."""
    if depth == UNBOUNDED or depth > MAX_TREE_DEPTH:
        raise CapacityError(f"depth {depth} exceeds the {MAX_TREE_DEPTH} guard")
    if depth < 1:
        raise ValueError(f"depth must be >= 1, got {depth!r}")
    return (1 << (int(depth) + 1)) - 1


def build_svb_tree(gap: float, variable: AbstractVariable) -> int:
    """Exact node count of the minimal tree branching only on `variable`.

    Counts via T(gamma) = 1 if gamma >= gap else 1 + T(gamma+l) + T(gamma+r),
    memoized on the (left steps, right steps) lattice so equal-gap states
    reached in different orders coincide. Guarded: raises CapacityError
    rather than enumerating more than MAX_BUILT_NODES nodes.
    """
    if not (math.isfinite(gap) and gap > 0):
        raise ValueError(f"gap must be positive, got {gap!r}")
    l, r = variable.left_gain, variable.right_gain
    if min(l, r) <= 0:
        raise ValueError("build_svb_tree requires strictly positive gains")

    # Cheap pre-guards. The shallowest possible leaf is at depth
    # ceil(gap/max) and the single-gain path is ceil(gap/min) long; either
    # bound alone can certify the tree is over budget.
    min_depth = math.ceil(gap / max(l, r))
    if (1 << (min_depth + 1)) - 1 > MAX_BUILT_NODES:
        raise CapacityError(f"tree is at least 2^{min_depth + 1} - 1 nodes")
    if 2 * math.ceil(gap / min(l, r)) + 1 > MAX_BUILT_NODES:
        raise CapacityError("single-gain path alone exceeds the node budget")

    memo: dict[tuple[int, int], int] = {}
    stack = [(0, 0)]
    while stack:
        i, j = stack[-1]
        if (i, j) in memo:
            stack.pop()
            continue
        children = []
        ready = True
        for ci, cj in ((i + 1, j), (i, j + 1)):
            if ci * l + cj * r >= gap:
                children.append(1)
            elif (ci, cj) in memo:
                children.append(memo[(ci, cj)])
            else:
                stack.append((ci, cj))
                ready = False
        if ready:
            stack.pop()
            memo[(i, j)] = 1 + children[0] + children[1]
            if len(memo) > MAX_BUILT_NODES:
                raise CapacityError("tree exceeds the node budget")
    total = memo[(0, 0)]
    if total > MAX_BUILT_NODES:
        raise CapacityError(f"tree has {total} nodes, over the {MAX_BUILT_NODES} guard")
    return total


def load_pool(path: str) -> tuple[float, ...]:
    """Read a PVB instance file: CSV with header `geomean_gain`."""
    gains: list[float] = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty instance file") from None
        if [c.strip() for c in header] != ["geomean_gain"]:
            raise ValueError(f"{path}:1: expected header 'geomean_gain'")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            try:
                g = float(row[0])
            except ValueError:
                raise ValueError(f"{path}:{lineno}: unparseable gain") from None
            if not (math.isfinite(g) and g >= 0):
                raise ValueError(f"{path}:{lineno}: invalid gain {g!r}")
            gains.append(g)
    return tuple(gains)


def save_pool(path: str, gains) -> None:
    """Write a PVB instance file (17 significant digits)."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["geomean_gain"])
        for g in gains:
            writer.writerow([f"{float(g):.17g}"])
