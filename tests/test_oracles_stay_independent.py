"""The oracles in tests/oracles.py must not call into pvb.

Agreement between pvb and an oracle is evidence only while the oracle
recomputes its quantity by its own route, so oracles.py may import the
standard library, numpy, scipy and mpmath but nothing from pvb.
"""

import ast
from pathlib import Path

ORACLES = Path(__file__).resolve().parent / "oracles.py"


def _imported_modules(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            yield "." * node.level + (node.module or "")


def test_oracles_import_nothing_from_pvb():
    tree = ast.parse(ORACLES.read_text(encoding="utf-8"), filename=str(ORACLES))
    modules = list(_imported_modules(tree))
    assert "numpy" in modules  # the walk does see the file's imports
    offending = [
        m for m in modules if m.startswith(".") or m.split(".")[0] == "pvb"
    ]
    assert offending == []
