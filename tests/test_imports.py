"""The package's import graph: every relative import at module level, and no cycle.

The modules import each other only relatively (`from .model import ...`).
A re-imported copy of the package leaves nothing of the old copy alive.
The test oracle takes no computation from the modules it checks.  Importing
builds no generated kernel.
"""

import ast
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import intlogic

PACKAGE = Path(intlogic.__file__).parent


def intra_package_imports():
    """`(module, imported module, node, is module level)` for every import of a package module."""
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        top = set(map(id, tree.body))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for target in [node.module] if node.module else [alias.name for alias in node.names]:
                    yield path.stem, target, node, id(node) in top


def test_every_intra_package_import_is_at_module_level():
    nested = [f"{module}.py:{node.lineno} imports {target}"
              for module, target, node, at_top in intra_package_imports() if not at_top]
    assert nested == []


def test_no_import_cycle():
    graph = {}
    for module, target, _, _ in intra_package_imports():
        graph.setdefault(module, set()).add(target)
    done, path = set(), []

    def visit(module):
        assert module not in path, " -> ".join([*path[path.index(module):], module])
        if module in done:
            return
        path.append(module)
        for target in sorted(graph.get(module, ())):
            visit(target)
        path.pop()
        done.add(module)

    for module in sorted(graph):
        visit(module)


def test_no_typing_union():
    """`typing` caches every `Union[...]` it builds, which keeps the module of its members alive
    after a re-import; aliases are written `X | Y`."""
    found = [f"{path.stem}.py:{node.lineno}"
             for path in sorted(PACKAGE.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Subscript)
             and getattr(node.value, "id", getattr(node.value, "attr", None)) == "Union"]
    assert found == []


def test_reimport_frees_the_old_package():
    script = textwrap.dedent("""
        import gc, importlib, sys, weakref
        import intlogic.proofs, intlogic.syntax
        old = [weakref.ref(intlogic.syntax.Atom), weakref.ref(intlogic.proofs.Premise)]
        for name in [n for n in sys.modules if n == "intlogic" or n.startswith("intlogic.")]:
            del sys.modules[name]
        del intlogic
        importlib.import_module("intlogic")
        gc.collect()
        print([ref() is None for ref in old])
    """)
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=60,
                          env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)})
    assert done.stdout.split("\n")[0] == "[True, True]", done.stderr


def test_import_builds_no_kernel():
    """The dissection kernels are generated on first use, never at import."""
    script = "import intlogic.cli\nfrom intlogic.integrals import _kernel\nprint(_kernel.cache_info().currsize)"
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=60,
                          env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)})
    assert done.stdout == "0\n", done.stderr


# the names `tests/oracle.py` may take from the modules it is a reference for: types, no computation
ORACLE_MAY_IMPORT = {
    "intlogic.integrals": set(),
    "intlogic.satisfaction": {"LevelConfig"},
    "intlogic.model": {"FuzzySubset", "WeakProbModel"},
    "intlogic.validate": set(),
    "intlogic.evaluate": set(),
    "intlogic.rational": {"DEFAULT_GRID", "ONE", "ZERO"},
}


def test_oracle_imports_only_types_of_what_it_checks():
    path = Path(__file__).with_name("oracle.py")
    found = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            found += [alias.name for alias in node.names if alias.name in ORACLE_MAY_IMPORT]
        elif isinstance(node, ast.ImportFrom) and node.module == "intlogic":
            found += [f"intlogic.{alias.name}" for alias in node.names
                      if f"intlogic.{alias.name}" in ORACLE_MAY_IMPORT]
        elif isinstance(node, ast.ImportFrom) and node.module in ORACLE_MAY_IMPORT:
            found += [f"{node.module}.{alias.name}" for alias in node.names
                      if alias.name not in ORACLE_MAY_IMPORT[node.module]]
    assert found == []
