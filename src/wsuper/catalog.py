"""Catalog of (algebra, minimal nilpotent) pairs used by the suite and CLI.

Each entry builds the algebra and a highest-root-style nilpotent for the
designated simple component of the even part.  Minimality is never
trusted: build_minimal_setup re-verifies dim g(2) = 1 on every load, and
normalizes the self-pairing of a middle odd g(-1) vector there.
"""

from .algebra import (_gl_index, build_gl, build_psl22, build_sl,
                      osp_realization, subalgebra)
from .errors import InputError
from .grading import build_minimal_setup
from .linalg import Span

# catalog name -> family selection, in report order
_CATALOG = {"sl(2|1)": ("sl", 2, 1), "osp(1|2)": ("osp", 1, 2),
            "psl22": ("psl22",), "osp(3|2)": ("osp", 3, 2)}
CATALOG_NAMES = tuple(_CATALOG)


def _unit_by_name(alg, name):
    for i, bname in enumerate(alg.basis_names):
        if bname == name:
            return alg.basis_vector(i)
    raise InputError("no basis vector %s in %s" % (name, alg.name))


def _osp_with_e(m, n):
    """(osp(m|n), e) with e the highest-root vector E[m, m+n-1] of the sp
    block; under the anti-diagonal symplectic form it is a long-root
    vector for every even n (for n = 2 it is E[m, m+1]).  osp(m|0) has
    no sp block: e is None."""
    gl, vectors = osp_realization(m, n)
    names = ["M%d" % i for i in range(len(vectors))]
    span = Span(vectors)
    alg = subalgebra(gl, vectors, "osp(%d|%d)" % (m, n), names, span)
    target = gl.basis_vector(_gl_index(m, n, m, m + n - 1))
    return alg, span.coords(target)


def minimal_setup(name):
    """Build a catalog algebra and its verified minimal setup."""
    selection = _CATALOG.get(name)
    if selection is None:
        raise InputError("unknown catalog entry %r" % (name,))
    return family_setup(*selection)


def family_algebra(family, m=None, n=None):
    """(algebra, default minimal nilpotent) for a family selection: E[0,1]
    for gl, sl and psl22, the sp highest-root vector for osp."""
    if family == "osp":
        return _osp_with_e(m, n)
    if family == "psl22":
        alg = build_psl22()
    elif family == "sl":
        alg = build_sl(m, n)
    elif family == "gl":
        alg = build_gl(m, n)
    else:
        raise InputError("unknown family %r" % (family,))
    return alg, _unit_by_name(alg, "E[0,1]")


def family_setup(family, m=None, n=None):
    """Setup for a family selection at its default minimal nilpotent."""
    alg, e = family_algebra(family, m, n)
    if e is None:
        raise InputError("%s has no default nilpotent: give one with --e" % alg.name)
    return build_minimal_setup(alg, e)
