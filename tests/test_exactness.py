"""A static guard on exactness: the package computes on integers and `Fraction`s, never on floats.

An `ast` walk over every module of `src/intlogic` finds no true division
(`/`, `/=`), no float or complex literal, no call of `float`, `round` or
`complex`, and no name of `math` but `gcd`, `lcm` and `prod`.  Source that
the package generates at run time passes the same walk, and is closed:
one function that reads no string constant, attribute or name but its
own parameters and locals (`foreign`).
"""

import ast
from pathlib import Path

import pytest

from intlogic.integrals import DISSECTION_MAX_UNIVERSE, _kernel, _source

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "intlogic"
MATH_ALLOWED = {"gcd", "lcm", "prod"}
FLOAT_CALLS = {"float", "round", "complex"}


def inexact(source: str) -> list[str]:
    """`line: what` for every inexact construct of a module's source."""
    found = []
    math_aliases = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
            found.append(f"{node.lineno}: true division")
        elif isinstance(node, ast.Constant) and type(node.value) in (float, complex):
            found.append(f"{node.lineno}: {type(node.value).__name__} literal {node.value!r}")
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id in FLOAT_CALLS:
            found.append(f"{node.lineno}: call of {node.func.id}")
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            found += [f"{node.lineno}: math.{alias.name}" for alias in node.names if alias.name not in MATH_ALLOWED]
        elif isinstance(node, ast.Import):
            math_aliases |= {alias.asname or alias.name for alias in node.names if alias.name == "math"}
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in math_aliases
                and node.attr not in MATH_ALLOWED):
            found.append(f"{node.lineno}: math.{node.attr}")
    return found


def foreign(source: str) -> list[str]:
    """`line: what` for every string constant, attribute and name of one generated function's source that is
    not one of its parameters or locals; a source that is not a single function is one finding."""
    tree = ast.parse(source)
    if len(tree.body) != 1 or not isinstance(tree.body[0], ast.FunctionDef):
        return ["the source is not a single function"]
    bound = {arg.arg for arg in tree.body[0].args.args}
    bound |= {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, (str, bytes)):
            found.append(f"{node.lineno}: string constant {node.value!r}")
        elif isinstance(node, ast.Attribute):
            found.append(f"{node.lineno}: attribute {node.attr}")
        elif isinstance(node, ast.Name) and node.id not in bound:
            found.append(f"{node.lineno}: name {node.id}")
    return found


MODULES = sorted(PACKAGE.glob("*.py"))


def test_modules_found():
    assert len(MODULES) > 10


@pytest.mark.parametrize("module", MODULES, ids=lambda path: path.name)
def test_module_is_exact(module):
    assert inexact(module.read_text()) == []


@pytest.mark.parametrize("snippet, what", [
    ("x = a / b", "1: true division"),
    ("x /= 2", "1: true division"),
    ("x = 0.5", "1: float literal 0.5"),
    ("x = 1j", "1: complex literal 1j"),
    ("x = float(y)", "1: call of float"),
    ("x = round(y, 2)", "1: call of round"),
    ("x = complex(y)", "1: call of complex"),
    ("from math import gcd, sqrt", "1: math.sqrt"),
    ("import math as m\nx = m.floor(y)", "2: math.floor"),
    ("import math\nx = math.isclose(a, b)", "2: math.isclose"),
])
def test_each_inexact_construct_is_found(snippet, what):
    assert inexact(snippet) == [what]


def test_exact_constructs_pass():
    source = "from math import gcd, lcm, prod\nimport math\nx = a // b * math.gcd(a, b)\ny = Fraction(1, 2)"
    assert inexact(source) == []


@pytest.mark.parametrize("n", range(1, DISSECTION_MAX_UNIVERSE + 1))
@pytest.mark.parametrize("scores", [False, True], ids=["dissection", "scores"])
def test_generated_kernel_is_exact_and_closed(n, scores):
    source = _source(n, scores)
    assert inexact(source) == []
    assert foreign(source) == []
    # compiled, it names no global, builtin or attribute
    assert _kernel(n, scores).__code__.co_names == ()


@pytest.mark.parametrize("source, what", [
    ("def kernel(a):\n    return a + b", ["2: name b"]),
    ("def kernel(a):\n    return min(a, 0)", ["2: name min"]),
    ("def kernel(a):\n    return 'a'", ["2: string constant 'a'"]),
    ("def kernel(a):\n    return a.real", ["2: attribute real"]),
    ("x = 1", ["the source is not a single function"]),
])
def test_each_foreign_construct_is_found(source, what):
    assert foreign(source) == what


def test_locals_and_parameters_are_not_foreign():
    assert foreign("def kernel(a, b):\n    c = a + b\n    if c > a: a = c\n    return a") == []
