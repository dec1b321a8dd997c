import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from wsuper.algebra import subalgebra
from wsuper.catalog import CATALOG_NAMES, _unit_by_name, family_algebra, minimal_setup
from wsuper.grading import build_minimal_setup
from wsuper.relations import SuiteContext

# sl(3|1) at e = E[0,1] + E[0,2]: 8 of its 15 letters are not unit vectors
NONUNIT = "sl(3|1) e=E[0,1]+E[0,2]"

_setups = {}
_contexts = {}


def _nonunit_setup():
    alg, _ = family_algebra("sl", 3, 1)
    e = {**_unit_by_name(alg, "E[0,1]"), **_unit_by_name(alg, "E[0,2]")}
    return build_minimal_setup(alg, e)


def mixed_odd_pairs(*selection):
    """(native setup, algebra, e) for a family selection: the algebra is the
    family algebra on its unit vectors, except that each pair x_i, x_j of
    isotropic odd g(-1) unit vectors with <x_i, x_j> != 0 becomes x_i + x_j,
    x_i - x_j, neither of them isotropic; e is the family's default."""
    alg, e = family_algebra(*selection)
    native = build_minimal_setup(alg, e)
    odd = [v for v in native.grading[-1] if alg.parity_of(v)]
    assert all(len(v) == 1 for v in odd)
    vectors = [{k: 1} for k in range(alg.dim)]
    free = [i for v in odd for i in v if native.pairing({i: 1}, {i: 1}) == 0]
    while free:
        i = free.pop(0)
        j = next(j for j in free if native.pairing({i: 1}, {j: 1}))
        free.remove(j)
        vectors[i], vectors[j] = {i: 1, j: 1}, {i: 1, j: -1}
    return native, subalgebra(alg, vectors, alg.name, alg.basis_names), e


def get_setup(name):
    if name not in _setups:
        _setups[name] = _nonunit_setup() if name == NONUNIT else minimal_setup(name)
    return _setups[name]


def get_ctx(name):
    if name not in _contexts:
        _contexts[name] = SuiteContext(get_setup(name))
    return _contexts[name]


@pytest.fixture(params=CATALOG_NAMES)
def catalog_setup(request):
    return get_setup(request.param)


@pytest.fixture
def psl22():
    return get_setup("psl22")
