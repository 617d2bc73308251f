"""Every private module-level name under src/pvb is read somewhere in src/pvb.

A constant, function or class that a refactor leaves behind is dead code
that still reads as part of the design. A private module-level name is
one that a module body binds (by assignment, def or class) and that
starts with a single underscore; it counts as read when some src/pvb
module loads it as a name or an attribute, or imports it.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "pvb"


def private_definitions(tree):
    """The private names a module body binds, with their lines."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            targets = [ast.Name(node.name)]
        elif isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            targets = [node.target]
        else:
            continue
        for target in targets:
            for name in ast.walk(target):
                if isinstance(name, ast.Name) and name.id.startswith("_"):
                    if not name.id.startswith("__"):
                        yield name.id, node.lineno


def read_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.ImportFrom):
            yield from (alias.name for alias in node.names)


def orphaned(sources):
    """'path:line: name' for each private module-level name in sources (a
    dict of relative path -> source) that no source reads."""
    trees = {path: ast.parse(source) for path, source in sources.items()}
    read = {name for tree in trees.values() for name in read_names(tree)}
    return [
        f"{path}:{line}: {name}"
        for path, tree in sorted(trees.items())
        for name, line in private_definitions(tree)
        if name not in read
    ]


def test_the_check_sees_an_orphaned_name():
    sources = {
        "a.py": "_LIMIT = 3\n_A, _B = 1, 2\n_C: int = 4\n\n"
        "def _used():\n    return _A\n\ndef _left():\n    pass\n\nclass _Box:\n    pass\n",
        "b.py": "from a import _used\nimport a\n_used(a._C)\n__all__ = []\n",
    }
    assert orphaned(sources) == [
        "a.py:1: _LIMIT", "a.py:2: _B", "a.py:8: _left", "a.py:11: _Box",
    ]


def test_every_private_module_level_name_under_src_is_read():
    sources = {
        str(path.relative_to(SRC)): path.read_text(encoding="utf-8")
        for path in sorted(SRC.rglob("*.py"))
    }
    assert "simulator.py" in sources
    assert orphaned(sources) == []
