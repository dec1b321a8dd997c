"""No dead definitions in the engine.  Every function, method and class
defined in src/wsuper must be named somewhere in src/wsuper: as a name, an
attribute or an import alias.  Dunders are called by the language, so
they are exempt.  This scan of the syntax trees keeps it so."""

import ast
from pathlib import Path

SOURCES = sorted((Path(__file__).parent.parent / "src" / "wsuper").glob("*.py"))

# perfbench/tracer.py still binds these two by name, so they stay until the
# benchmark reads counters from the package instead (ROADMAP item 2)
ALLOWED = {"rref", "letter_bracket"}

DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def unreferenced(trees):
    """Sorted names of the functions, methods and classes defined in trees
    that no ast.Name, ast.Attribute or import alias in trees names."""
    defined, named = set(), set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, DEFINITIONS):
                defined.add(node.name)
            elif isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif isinstance(node, ast.alias):
                named |= {node.name, node.asname}
    return sorted(name for name in defined - named
                  if not (name.startswith("__") and name.endswith("__")))


def test_every_definition_in_the_engine_is_referenced():
    assert SOURCES
    trees = [ast.parse(p.read_text(), str(p)) for p in SOURCES]
    assert set(unreferenced(trees)) == ALLOWED


def test_the_scan_finds_an_unreferenced_definition():
    source = ("from .m import used_alias as other\n"
              "class Kept:\n"
              "    def __init__(self):\n"
              "        self.x = helper()\n"
              "    def method(self):\n"
              "        return 1\n"
              "    def dead_method(self):\n"
              "        return Kept().method()\n"
              "def helper():\n"
              "    return other\n"
              "def dead():\n"
              "    return used_alias\n")
    assert unreferenced([ast.parse(source)]) == ["dead", "dead_method"]
