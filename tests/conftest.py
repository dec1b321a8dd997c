import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

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
