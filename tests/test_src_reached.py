"""Every public function, class and method under src/pvb has a caller
outside the tests.

A name counts as reached when it occurs as a name or an attribute in some
src/pvb module other than a package __init__.py (re-exports reach
nothing), or anywhere in perfbench/*.py, where string constants count
too because the tracer wraps names given as strings. The console entry
pvb.cli:main is reached by the installed script. A helper that only tests
call belongs in tests/helpers.py.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "pvb"
PERFBENCH = ROOT / "perfbench"
CONSOLE_ENTRY = ("cli.py", "main")


def public_definitions(tree):
    """Names of the public functions and classes of a module body, and of
    the public methods of its classes, recursively."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if not node.name.startswith("_"):
                yield node.name
            if isinstance(node, ast.ClassDef):
                yield from public_definitions(node)


def used_names(tree, strings=False):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value


def unreached(src_files, perfbench_files, entries=()):
    """'path: name' for each public definition in src_files (a dict of
    relative path -> source) that nothing reaches."""
    trees = {path: ast.parse(source) for path, source in src_files.items()}
    reached = set()
    for path, tree in trees.items():
        if Path(path).name != "__init__.py":
            reached.update(used_names(tree))
    for source in perfbench_files:
        reached.update(used_names(ast.parse(source), strings=True))
    return [
        f"{path}: {name}"
        for path, tree in sorted(trees.items())
        for name in public_definitions(tree)
        if name not in reached and (path, name) not in entries
    ]


def test_the_check_sees_an_unreached_name():
    src = {
        "a.py": "def used():\n    pass\n\nclass Box:\n    def open(self):\n        pass\n"
        "    def _private(self):\n        pass\n\ndef unused():\n    pass\n",
        "b.py": "from a import Box, used\nused()\nBox().open()\n",
        "pkg/__init__.py": "from a import unused\n__all__ = ['unused']\n",
    }
    assert unreached(src, []) == ["a.py: unused"]
    assert unreached(src, ["wrap(a, 'unused')\n"]) == []
    assert unreached(src, [], entries={("a.py", "unused")}) == []


def test_console_entry_is_pvb_cli_main():
    assert 'pvb = "pvb.cli:main"' in (ROOT / "pyproject.toml").read_text(encoding="utf-8")


def test_every_public_name_under_src_is_reached():
    src = {
        str(path.relative_to(SRC)): path.read_text(encoding="utf-8")
        for path in sorted(SRC.rglob("*.py"))
    }
    perfbench = [path.read_text(encoding="utf-8") for path in sorted(PERFBENCH.glob("*.py"))]
    assert "lookahead.py" in src and perfbench
    assert unreached(src, perfbench, entries={CONSOLE_ENTRY}) == []
