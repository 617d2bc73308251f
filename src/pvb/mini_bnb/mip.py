"""Small dense MIP container and a fixed-layout MPS subset.

Supported sections: NAME, ROWS (one N row plus L/G/E), COLUMNS with
INTORG/INTEND marker pairs, RHS, BOUNDS (UP LO FX FR MI PL BV UI LI),
ENDATA. Lines starting with * are comments. Tokens are whitespace
separated. Defaults are lower 0 and upper +inf for every variable,
integer columns included; integrality comes from the marker pairs (BV,
UI and LI also imply it). RANGES and objective constants are rejected
rather than misread.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .. import InputError, read_lines

SENSES = ("<=", "=", ">=")

_ROW_TYPES = {"L": "<=", "E": "=", "G": ">="}


class MpsError(InputError):
    """Unreadable, malformed or unsupported MPS file; the message names the
    path, and path:line for a fault in the content."""


@dataclass(frozen=True)
class MiniMip:
    """Minimize objective @ x subject to row senses, bounds, integrality."""

    name: str
    col_names: tuple
    objective: tuple
    row_names: tuple
    senses: tuple
    matrix: tuple
    rhs: tuple
    lower: tuple
    upper: tuple
    integer: tuple

    def __post_init__(self) -> None:
        n, m = len(self.col_names), len(self.row_names)
        if len(set(self.col_names)) != n:
            raise ValueError("duplicate column names")
        if len(set(self.row_names)) != m:
            raise ValueError("duplicate row names")
        if len(self.objective) != n or len(self.lower) != n or len(self.upper) != n:
            raise ValueError("objective/bounds length must match column count")
        if len(self.integer) != n:
            raise ValueError("integrality mask length must match column count")
        if len(self.senses) != m or len(self.rhs) != m or len(self.matrix) != m:
            raise ValueError("senses/rhs/matrix length must match row count")
        for sense in self.senses:
            if sense not in SENSES:
                raise ValueError(f"unknown sense {sense!r}")
        for row in self.matrix:
            if len(row) != n:
                raise ValueError("matrix rows must match column count")
            if not all(map(math.isfinite, row)):
                raise ValueError("matrix entries must be finite")
        for v in self.rhs:
            if not math.isfinite(v):
                raise ValueError("rhs must be finite")
        for c in self.objective:
            if not math.isfinite(c):
                raise ValueError("objective must be finite")
        for lo, hi in zip(self.lower, self.upper):
            # NaN fails lo <= hi; no finite value lies at +inf or -inf
            if not (lo <= hi and lo < math.inf and hi > -math.inf):
                raise ValueError(f"bound pair ({lo!r}, {hi!r}) is empty")

    @property
    def n_cols(self) -> int:
        return len(self.col_names)

    @property
    def n_rows(self) -> int:
        return len(self.row_names)


def _tokens(line: str):
    return line.split()


def load_mps(path) -> MiniMip:
    """Parse the MPS subset. Every complaint is an MpsError, also for a
    file that cannot be opened or decoded."""
    name = ""
    section = None
    obj_row = None
    row_order = []
    row_sense = {}
    col_order = []
    col_integer = {}
    entries = {}
    rhs = {}
    bounds = {}
    in_integer = False
    saw_end = False

    def fail(lineno, msg):
        raise MpsError(f"{path}:{lineno}: {msg}")

    for lineno, raw in enumerate(read_lines(path, MpsError), start=1):
        if saw_end:
            break
        line = raw.rstrip("\r\n")
        if not line.strip() or line.lstrip().startswith("*"):
            continue
        if line[0] not in (" ", "\t"):
            head = _tokens(line)
            section = head[0].upper()
            if section == "NAME":
                name = head[1] if len(head) > 1 else ""
            elif section == "ENDATA":
                saw_end = True
            elif section == "RANGES":
                fail(lineno, "RANGES section is not supported")
            elif section not in ("ROWS", "COLUMNS", "RHS", "BOUNDS"):
                fail(lineno, f"unknown section {section!r}")
            continue
        toks = _tokens(line)
        if section == "ROWS":
            if len(toks) != 2:
                fail(lineno, "expected '<type> <row>'")
            rtype, rname = toks[0].upper(), toks[1]
            if rname in row_sense or rname == obj_row:
                fail(lineno, f"duplicate row {rname!r}")
            if rtype == "N":
                if obj_row is not None:
                    fail(lineno, "multiple objective rows")
                obj_row = rname
            elif rtype in _ROW_TYPES:
                row_order.append(rname)
                row_sense[rname] = _ROW_TYPES[rtype]
            else:
                fail(lineno, f"unknown row type {rtype!r}")
        elif section == "COLUMNS":
            if len(toks) >= 3 and toks[1] == "'MARKER'":
                marker = toks[2]
                if marker == "'INTORG'":
                    in_integer = True
                elif marker == "'INTEND'":
                    in_integer = False
                else:
                    fail(lineno, f"unknown marker {marker!r}")
                continue
            if len(toks) not in (3, 5):
                fail(lineno, "expected '<col> <row> <value>' pairs")
            col = toks[0]
            if col not in col_integer:
                col_order.append(col)
                col_integer[col] = in_integer
            for k in range(1, len(toks), 2):
                rname, text = toks[k], toks[k + 1]
                if rname != obj_row and rname not in row_sense:
                    fail(lineno, f"unknown row {rname!r}")
                try:
                    value = float(text)
                except ValueError:
                    fail(lineno, f"bad number {text!r}")
                key = (col, rname)
                if key in entries:
                    fail(lineno, f"duplicate entry for {col!r} in {rname!r}")
                entries[key] = value
        elif section == "RHS":
            if len(toks) not in (3, 5):
                fail(lineno, "expected '<set> <row> <value>' pairs")
            for k in range(1, len(toks), 2):
                rname, text = toks[k], toks[k + 1]
                if rname == obj_row:
                    fail(lineno, "objective constants are not supported")
                if rname not in row_sense:
                    fail(lineno, f"unknown row {rname!r}")
                if rname in rhs:
                    fail(lineno, f"duplicate rhs for {rname!r}")
                try:
                    rhs[rname] = float(text)
                except ValueError:
                    fail(lineno, f"bad number {text!r}")
        elif section == "BOUNDS":
            if len(toks) not in (3, 4):
                fail(lineno, "expected '<type> <set> <col> [value]'")
            btype, col = toks[0].upper(), toks[2]
            if btype not in ("UP", "LO", "FX", "FR", "MI", "PL", "BV", "UI", "LI"):
                fail(lineno, f"unknown bound type {btype!r}")
            if col not in col_integer:
                fail(lineno, f"unknown column {col!r}")
            needs_value = btype in ("UP", "LO", "FX", "UI", "LI")
            if needs_value and len(toks) != 4:
                fail(lineno, f"{btype} bound needs a value")
            if not needs_value and len(toks) != 3:
                fail(lineno, f"{btype} bound takes no value")
            value = None
            if needs_value:
                try:
                    value = float(toks[3])
                except ValueError:
                    fail(lineno, f"bad number {toks[3]!r}")
            lo, hi = bounds.get(col, (0.0, math.inf))
            if btype == "UP":
                hi = value
            elif btype == "LO":
                lo = value
            elif btype == "FX":
                lo = hi = value
            elif btype == "FR":
                lo, hi = -math.inf, math.inf
            elif btype == "MI":
                lo = -math.inf
            elif btype == "PL":
                hi = math.inf
            elif btype == "BV":
                lo, hi = 0.0, 1.0
                col_integer[col] = True
            elif btype == "UI":
                hi = value
                col_integer[col] = True
            else:
                lo = value
                col_integer[col] = True
            bounds[col] = (lo, hi)
        elif section in ("NAME", None):
            fail(lineno, "data before a section header")
    if not saw_end:
        raise MpsError(f"{path}: missing ENDATA")
    if obj_row is None:
        raise MpsError(f"{path}: no objective (N) row")

    lower = [bounds.get(c, (0.0, math.inf))[0] for c in col_order]
    upper = [bounds.get(c, (0.0, math.inf))[1] for c in col_order]
    matrix = tuple(
        tuple(entries.get((c, r), 0.0) for c in col_order) for r in row_order
    )
    try:
        return MiniMip(
            name=name,
            col_names=tuple(col_order),
            objective=tuple(entries.get((c, obj_row), 0.0) for c in col_order),
            row_names=tuple(row_order),
            senses=tuple(row_sense[r] for r in row_order),
            matrix=matrix,
            rhs=tuple(rhs.get(r, 0.0) for r in row_order),
            lower=tuple(lower),
            upper=tuple(upper),
            integer=tuple(bool(col_integer[c]) for c in col_order),
        )
    except ValueError as exc:
        raise MpsError(f"{path}: {exc}") from exc


def _fmt(value: float) -> str:
    return f"{value:.17g}"


def save_mps(mip: MiniMip, path) -> None:
    """Write the subset layout; integrality via INTORG/INTEND markers."""
    lines = [f"NAME {mip.name}".rstrip(), "ROWS", " N OBJ"]
    type_of = {"<=": "L", "=": "E", ">=": "G"}
    for rname, sense in zip(mip.row_names, mip.senses):
        lines.append(f" {type_of[sense]} {rname}")
    lines.append("COLUMNS")
    marker_open = False
    for j, col in enumerate(mip.col_names):
        if mip.integer[j] and not marker_open:
            lines.append(" MARK 'MARKER' 'INTORG'")
            marker_open = True
        if not mip.integer[j] and marker_open:
            lines.append(" MARK 'MARKER' 'INTEND'")
            marker_open = False
        wrote = False
        if mip.objective[j] != 0.0:
            lines.append(f" {col} OBJ {_fmt(mip.objective[j])}")
            wrote = True
        for i, rname in enumerate(mip.row_names):
            if mip.matrix[i][j] != 0.0:
                lines.append(f" {col} {rname} {_fmt(mip.matrix[i][j])}")
                wrote = True
        if not wrote:
            # register the empty column so a reader still sees it
            lines.append(f" {col} OBJ 0")
    if marker_open:
        lines.append(" MARK 'MARKER' 'INTEND'")
    lines.append("RHS")
    for i, rname in enumerate(mip.row_names):
        if mip.rhs[i] != 0.0:
            lines.append(f" RHS {rname} {_fmt(mip.rhs[i])}")
    lines.append("BOUNDS")
    for j, col in enumerate(mip.col_names):
        lo, hi = mip.lower[j], mip.upper[j]
        if lo == hi:
            lines.append(f" FX BND {col} {_fmt(lo)}")
            continue
        if lo == -math.inf and hi == math.inf:
            lines.append(f" FR BND {col}")
            continue
        if lo == -math.inf:
            lines.append(f" MI BND {col}")
        elif lo != 0.0:
            lines.append(f" LO BND {col} {_fmt(lo)}")
        if hi != math.inf:
            lines.append(f" UP BND {col} {_fmt(hi)}")
    lines.append("ENDATA")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")
