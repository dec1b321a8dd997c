"""No float in the engine.  An int divided by an int with `/` is a float, and
so is a float literal, a call of float or round, or most of the math module;
any of them would silently break exactness.  Exact division is written
Fraction(a, b) and integer division `//`, and math is imported for gcd, lcm
and isqrt only; this scan of the syntax trees of src/wsuper keeps it so."""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).parent.parent / "src" / "wsuper").glob("*.py"))
INEXACT_CALLS = {"float", "complex", "round"}
EXACT_MATH = {"gcd", "lcm", "isqrt"}


def inexact_nodes(tree):
    """(line, what) for every `/` and `/=`, float and complex literal, call
    of float, complex or round, and import of math other than
    `from math import` gcd, lcm and isqrt, in line order."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
            out.append((node.lineno, "/"))
        elif isinstance(node, ast.Constant) and type(node.value) in (float, complex):
            out.append((node.lineno, repr(node.value)))
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id in INEXACT_CALLS):
            out.append((node.lineno, node.func.id + "()"))
        elif isinstance(node, ast.Import):
            out += [(node.lineno, "import math") for a in node.names if a.name == "math"]
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            out += [(node.lineno, "math." + a.name) for a in node.names
                    if a.name not in EXACT_MATH]
    return sorted(out)


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_no_true_division_in_the_engine(path):
    assert inexact_nodes(ast.parse(path.read_text(), str(path))) == []


def test_the_scan_finds_division():
    assert SOURCES
    tree = ast.parse("a = b / c\nd //= e\nf /= g\nh = i // j\n")
    assert inexact_nodes(tree) == [(1, "/"), (3, "/")]


@pytest.mark.parametrize("source, found", [
    ("a = 0.5\nb = 1 // 2\n", [(1, "0.5")]),
    ("a = -1e3\nb = -3\n", [(1, "1000.0")]),
    ("a = 2j\nb = 2\n", [(1, "2j")]),
    ("a = int(b)\nc = float(d)\n", [(2, "float()")]),
    ("a = complex(1, 2)\n", [(1, "complex()")]),
    ("a = round(b)\nc = divmod(b, 2)\n", [(1, "round()")]),
    ("from math import gcd, lcm, isqrt\nfrom math import sqrt\n", [(2, "math.sqrt")]),
    ("from math import gcd, pi\n", [(1, "math.pi")]),
    ("import math\nimport fractions\n", [(1, "import math")]),
    ("from fractions import Fraction\nx = Fraction(1, 3)\n", []),
], ids=["float", "float-exponent", "complex", "float-call", "complex-call", "round",
        "math-from", "math-constant", "math-module", "exact"])
def test_the_scan_finds_each_inexact_form(source, found):
    assert inexact_nodes(ast.parse(source)) == found
