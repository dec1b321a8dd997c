"""No `/` in the engine: an int divided by an int with `/` is a float, which
would silently break exactness.  Exact division is written Fraction(a, b)
and integer division `//`; this scan of the syntax trees of src/wsuper
keeps it so."""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).parent.parent / "src" / "wsuper").glob("*.py"))


def true_divisions(tree):
    """Line numbers of every `/` and `/=` in a syntax tree."""
    return sorted(node.lineno for node in ast.walk(tree)
                  if isinstance(node, (ast.BinOp, ast.AugAssign))
                  and isinstance(node.op, ast.Div))


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_no_true_division_in_the_engine(path):
    assert true_divisions(ast.parse(path.read_text(), str(path))) == []


def test_the_scan_finds_division():
    assert SOURCES
    tree = ast.parse("a = b / c\nd //= e\nf /= g\nh = i // j\n")
    assert true_divisions(tree) == [1, 3]
