"""A static guard on exactness: the package computes on integers and `Fraction`s, never on floats.

An `ast` walk over every module of `src/intlogic` finds no true division
(`/`, `/=`), no float or complex literal, no call of `float`, `round` or
`complex`, and no name of `math` but `gcd`, `lcm` and `prod`.
"""

import ast
from pathlib import Path

import pytest

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
