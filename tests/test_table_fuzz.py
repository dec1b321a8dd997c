"""Property test: a table document with one entry replaced by an arbitrary
JSON value is either imported or rejected with TableError/ValidationError,
never with any other exception."""

import copy

from hypothesis import given, settings, strategies as st

from wsuper.algebra import build_osp, export_table, import_table
from wsuper.errors import TableError, ValidationError

DOC = export_table(build_osp(1, 2))


def _paths(node, prefix=()):
    """Every position in the document, containers included."""
    out = [prefix] if prefix else []
    if isinstance(node, dict):
        for key, child in node.items():
            out += _paths(child, prefix + (key,))
    elif isinstance(node, list):
        for pos, child in enumerate(node):
            out += _paths(child, prefix + (pos,))
    return out


def _role(path):
    """A position with its list indices erased: brackets[3].i -> brackets[].i"""
    return tuple(None if isinstance(key, int) else key for key in path)


ROLES = {}
for _path in _paths(DOC):
    ROLES.setdefault(_role(_path), []).append(_path)

# every role is drawn equally often, then any position of that role
POSITIONS = st.sampled_from(sorted(ROLES, key=repr)).flatmap(
    lambda role: st.sampled_from(ROLES[role]))

EDGES = st.sampled_from(["0", "1", "-1", "1/2", "", 0.5, True, -1, 10 ** 40,
                         10 ** 5000, float("inf"), float("nan")])

JSON = EDGES | st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["i", "j", "k", "num", "den", "terms"])
                      | st.text(max_size=3), inner, max_size=3),
    max_leaves=6)


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(path=POSITIONS, value=JSON)
def test_one_replaced_entry_imports_or_raises_a_table_error(path, value):
    doc = copy.deepcopy(DOC)
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    try:
        import_table(doc)
    except (TableError, ValidationError):
        pass
