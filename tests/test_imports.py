"""Every top-level import in src/ and tests/ is used.

A static check over the syntax tree, standing in for a linter: a name bound
by a module-level import must be read somewhere in that module or be listed
in its __all__ (a re-export).  `from __future__` imports and star imports
bind no checkable name and are skipped.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _exported(tree: ast.Module) -> set:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return {elt.value for elt in node.value.elts if isinstance(elt, ast.Constant)}
    return set()


def unused_imports(source: str) -> list:
    """(line, name) of each module-level import binding that is never read."""
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound.append((node.lineno, alias.asname or alias.name.split(".")[0]))
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    bound.append((node.lineno, alias.asname or alias.name))
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)} | _exported(tree)
    return [(line, name) for line, name in bound if name not in read]


def test_detector_flags_only_unread_names():
    source = (
        "from __future__ import annotations\n"
        "import math\n"
        "import os.path\n"
        "from pathlib import Path as P\n"
        "from json import dumps, loads\n"
        "__all__ = ['loads']\n"
        "print(os.path.sep, dumps)\n"
    )
    assert unused_imports(source) == [(2, "math"), (4, "P")]


def test_no_unused_imports():
    found = []
    for top in ("src", "tests"):
        for path in sorted((ROOT / top).rglob("*.py")):
            for line, name in unused_imports(path.read_text()):
                found.append(f"{path.relative_to(ROOT)}:{line}: {name}")
    assert not found, "unused imports:\n" + "\n".join(found)
