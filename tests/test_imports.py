"""Every top-level import in src/ and tests/ is used, and src/ imports
only at module level.

A static check over the syntax tree, standing in for a linter: a name bound
by a module-level import must be read somewhere in that module or be listed
in its __all__ (a re-export).  `from __future__` imports and star imports
bind no checkable name and are skipped.  Inside src/, no function body may
import: every dependency of a module is stated at its top.  Only the sieve
sees a prime table: no public function takes a `table`, and no other module
names LambdaTable or table_for.  Only lfunc names its Euler-Maclaurin chunk
budget _EM_CHUNK_ELEMENTS: other modules size their own work.  lfunc passes
its Euler-Maclaurin points as a column: it neither calls np.broadcast_to nor
reads .strides.  zeros owns
the one path from characters to zero sets: no module but zeros and store
calls conjugate_pair, and cli calls neither conductor_and_inducer nor
load_or_scan.  Every private module-level name in src/ (a def, class or
assignment named _x) is read somewhere in src/, so a refactor leaves no
helper behind.  numpy is the only third-party package the command line
loads: importing zeropair.cli in a fresh interpreter loads no scipy module.
cli defines each flag once, in its flag table: no add_argument call names a
flag with a string literal.
"""

import ast
import os
import subprocess
import sys
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


def function_imports(source: str) -> list:
    """(line, function name) of each import inside a function, once per enclosing function."""
    found = []
    for fn in ast.walk(ast.parse(source)):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(fn):
                if isinstance(node, (ast.Import, ast.ImportFrom)):
                    found.append((node.lineno, fn.name))
    return sorted(found)


def test_detector_flags_only_function_imports():
    source = (
        "import math\n"
        "from os import path\n"
        "def f():\n"
        "    import json\n"
        "    return json\n"
        "class C:\n"
        "    def m(self):\n"
        "        if True:\n"
        "            from json import dumps\n"
        "    def n(self):\n"
        "        return math.pi\n"
        "def outer():\n"
        "    def inner():\n"
        "        import re\n"
    )
    assert function_imports(source) == [(4, "f"), (9, "m"), (14, "inner"), (14, "outer")]


def test_no_function_imports_in_src():
    found = []
    for path in sorted((ROOT / "src").rglob("*.py")):
        for line, name in function_imports(path.read_text()):
            found.append(f"{path.relative_to(ROOT)}:{line}: inside {name}()")
    assert not found, "imports inside functions:\n" + "\n".join(found)


_TABLE_NAMES = {"LambdaTable", "table_for"}


def _name(node: ast.AST) -> str | None:
    """The name a Name, Attribute or import alias node refers to, else None."""
    return (node.id if isinstance(node, ast.Name)
            else node.attr if isinstance(node, ast.Attribute)
            else node.name if isinstance(node, ast.alias) else None)


def table_leaks(source: str, module: str) -> list:
    """(line, what) of each place outside the sieve's own internals that sees a
    prime table: a `table` parameter on a function (a private sieve helper
    may take one), or, in a module other than sieve, a LambdaTable or
    table_for name, attribute or import."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            a = node.args
            names = {arg.arg for arg in a.posonlyargs + a.args + a.kwonlyargs}
            if "table" in names and (module != "sieve" or not node.name.startswith("_")):
                found.append((node.lineno, f"{node.name}(table)"))
        elif module != "sieve" and _name(node) in _TABLE_NAMES:
            found.append((getattr(node, "lineno", 0), _name(node)))
    return sorted(found)


def test_detector_flags_table_leaks():
    source = (
        "from zeropair.sieve import LambdaTable, psi\n"
        "from zeropair import sieve\n"
        "def f(x, table=None):\n"
        "    return psi(x)\n"
        "def g(x):\n"
        "    return sieve.table_for(x)\n"
        "def _h(x, *, table):\n"
        "    return x\n"
        "def k(x, tables):\n"
        "    return x\n"
    )
    assert table_leaks(source, "paircorr") == [
        (1, "LambdaTable"), (3, "f(table)"), (6, "table_for"), (7, "_h(table)"),
    ]
    assert table_leaks(source, "sieve") == [(3, "f(table)")]


def test_only_the_sieve_sees_a_table():
    found = []
    for path in sorted((ROOT / "src" / "zeropair").glob("*.py")):
        for line, what in table_leaks(path.read_text(), path.stem):
            found.append(f"{path.relative_to(ROOT)}:{line}: {what}")
    assert not found, "prime tables outside the sieve:\n" + "\n".join(found)


def sharing_calls(source: str, module: str) -> list:
    """(line, name) of each call that would open a second path from
    characters to zero sets: conjugate_pair outside zeros and store, and
    conductor_and_inducer or load_or_scan in cli."""
    banned = set() if module in ("zeros", "store") else {"conjugate_pair"}
    if module == "cli":
        banned |= {"conductor_and_inducer", "load_or_scan"}
    return sorted((node.lineno, _name(node.func)) for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Call) and _name(node.func) in banned)


def test_detector_flags_sharing_calls():
    source = (
        "from zeropair.zeros import conjugate_pair\n"
        "from zeropair import characters\n"
        "pair = conjugate_pair(chi)\n"
        "_, ind = characters.conductor_and_inducer(chi)\n"
        "sets = cache.load_or_scan(ind, 10.0)\n"
        "f = conjugate_pair\n"
    )
    assert sharing_calls(source, "cli") == [
        (3, "conjugate_pair"), (4, "conductor_and_inducer"), (5, "load_or_scan"),
    ]
    assert sharing_calls(source, "explicit") == [(3, "conjugate_pair")]
    assert sharing_calls(source, "zeros") == sharing_calls(source, "store") == []


def test_zeros_owns_the_path_from_characters_to_zero_sets():
    found = [f"{path.relative_to(ROOT)}:{line}: {name}"
             for path in sorted((ROOT / "src" / "zeropair").glob("*.py"))
             for line, name in sharing_calls(path.read_text(), path.stem)]
    assert not found, "a second sharing path:\n" + "\n".join(found)


def chunk_budget_uses(source: str) -> list:
    """Lines of each _EM_CHUNK_ELEMENTS name, attribute or import."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if _name(node) == "_EM_CHUNK_ELEMENTS")


def test_detector_flags_chunk_budget_uses():
    source = (
        "from zeropair.lfunc import _EM_CHUNK_ELEMENTS\n"
        "from zeropair import lfunc\n"
        "step = lfunc._EM_CHUNK_ELEMENTS // 16\n"
        "_EM_CHUNK = 1\n"
    )
    assert chunk_budget_uses(source) == [1, 3]


def test_only_lfunc_names_its_chunk_budget():
    found = [f"{path.relative_to(ROOT)}:{line}"
             for path in sorted((ROOT / "src" / "zeropair").glob("*.py")) if path.stem != "lfunc"
             for line in chunk_budget_uses(path.read_text())]
    assert not found, "_EM_CHUNK_ELEMENTS outside lfunc:\n" + "\n".join(found)


def layout_workarounds(source: str) -> list:
    """(line, name) of each broadcast_to or strides name, attribute or import."""
    return sorted((getattr(node, "lineno", 0), _name(node)) for node in ast.walk(ast.parse(source))
                  if _name(node) in ("broadcast_to", "strides"))


def test_detector_flags_layout_workarounds():
    source = (
        "import numpy as np\n"
        "from numpy import broadcast_to\n"
        "s = np.broadcast_to(block, (rows, k))\n"
        "t = broadcast_to(block, (rows, k))\n"
        "u = s[tuple(slice(0, 1) if st == 0 else slice(None) for st in s.strides)]\n"
        "v = block[:, None] + np.broadcast(block, k).size\n"
    )
    assert layout_workarounds(source) == [
        (2, "broadcast_to"), (3, "broadcast_to"), (4, "broadcast_to"), (5, "strides"),
    ]


def test_lfunc_passes_its_points_as_a_column():
    path = ROOT / "src" / "zeropair" / "lfunc.py"
    found = [f"{path.relative_to(ROOT)}:{line}: {name}"
             for line, name in layout_workarounds(path.read_text())]
    assert not found, "broadcast layouts in lfunc:\n" + "\n".join(found)


def _private_bindings(stmt: ast.stmt) -> list:
    """(line, name) of each private name a module-level statement binds."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        names = [stmt.name]
    elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
        targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
        names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    else:
        names = []
    return [(stmt.lineno, n) for n in names if n.startswith("_") and not n.startswith("__")]


def _reads(node: ast.AST) -> set:
    """Names read under node: loaded names, attributes and imported names."""
    return {n.id if isinstance(n, ast.Name) else n.attr if isinstance(n, ast.Attribute)
            else n.name for n in ast.walk(node)
            if (isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load))
            or isinstance(n, (ast.Attribute, ast.alias))}


def unread_private(sources: dict) -> tuple[list, int]:
    """(module, line, name) of each private module-level binding that no
    statement but its own reads in any of sources (module name -> source),
    and the number of bindings checked.  A recursive helper's call to itself
    does not count as a read."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    bound, reads = [], []
    for module, tree in trees.items():
        for stmt in tree.body:
            mine = _private_bindings(stmt)
            bound.extend((module, line, name) for line, name in mine)
            reads.append(({name for _, name in mine}, _reads(stmt)))
    unread = [(module, line, name) for module, line, name in bound
              if not any(name in names - own for own, names in reads)]
    return unread, len(bound)


def test_detector_flags_only_unread_private_names():
    sources = {
        "a": (
            "import math\n"
            "_USED = 1\n"
            "_LEFT, _RIGHT = 2, 3\n"
            "def _helper():\n"
            "    return _USED + _RIGHT\n"
            "def _recursive(n):\n"
            "    return _recursive(n - 1)\n"
            "class _Orphan:\n"
            "    pass\n"
            "__all__ = []\n"
        ),
        "b": "from a import _helper\nimport a\nprint(a._imported_by_attribute)\n"
             "_imported_by_attribute: int = 4\n",
    }
    unread, checked = unread_private(sources)
    assert unread == [("a", 3, "_LEFT"), ("a", 6, "_recursive"), ("a", 8, "_Orphan")]
    assert checked == 7


def test_every_private_name_in_src_is_read():
    paths = sorted((ROOT / "src").rglob("*.py"))
    unread, checked = unread_private({str(p.relative_to(ROOT)): p.read_text() for p in paths})
    assert checked > 50
    assert not unread, "private names never read:\n" + "\n".join(
        f"{module}:{line}: {name}" for module, line, name in unread)


def literal_flags(source: str) -> list:
    """(line, flag) of each add_argument call that names its flag with a string
    literal, or with an f-string that has no placeholder."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call) and _name(node.func) == "add_argument":
            for arg in node.args:
                parts = arg.values if isinstance(arg, ast.JoinedStr) else [arg]
                if all(isinstance(p, ast.Constant) and isinstance(p.value, str) for p in parts):
                    found.append((node.lineno, "".join(p.value for p in parts)))
    return found


def test_detector_flags_literal_flag_names():
    source = (
        "p.add_argument('--x', type=float)\n"
        "group.add_argument('-q', '--modulus')\n"
        "p.add_argument(f'--T')\n"
        "p.add_argument('--' + name, **kw)\n"
        "p.add_argument(f'--{name}', help='a literal help is fine')\n"
        "p.add_parser('zeros')\n"
    )
    assert literal_flags(source) == [(1, "--x"), (2, "-q"), (2, "--modulus"), (3, "--T")]


def test_cli_defines_each_flag_in_its_table():
    path = ROOT / "src" / "zeropair" / "cli.py"
    found = [f"{path.relative_to(ROOT)}:{line}: {flag}"
             for line, flag in literal_flags(path.read_text())]
    assert not found, "flags named outside the flag table:\n" + "\n".join(found)


def test_cli_loads_no_scipy():
    code = "import sys, zeropair.cli; print([m for m in sys.modules if m.startswith('scipy')])"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True, timeout=60)
    assert run.stdout.strip() == "[]"
