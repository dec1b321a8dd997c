"""Independent pins of the degree-1 commutator constant c0.

By Premet, the one-dimensional W-module on which every Theta vanishes
corresponds to the Joseph ideal; for sp(2k) that is the annihilator of the
oscillator (Weil) representation, and osp(1|2k) has the analogous
realisation with linear odd elements.  C acts on that module by c0, so c0
is the scalar by which the quadratic Casimir acts in the Weyl algebra.
tests/oracles.py realises the algebras there, checks the realisation on
every bracket pair, and computes the Casimir image without touching the
package's enveloping or Whittaker layers.

The pins show the extraction right and the published closed constant
(c0_formula) short by exactly (s-r)^2/16; that gap is -1/8 of the
within-side contraction chi([X(w1), X(w2)]) per pair, pinned here against
the residues verify_scalar_reduction reports.

Where the oscillator realisation does not reach, one_dim_rep gives a
second route: eps(Theta) = 0, eps(C) = c0 is multiplicative only for the
c0 read off the monomial coordinates of [Theta_wi, Theta_wj], which never
uses the presented degree-1 relation that extract_c0 solves.
"""

from fractions import Fraction
from functools import lru_cache

import pytest

from oracles import (EnvElement, dual_basis, oscillator_images,
                     realisation_failures, weyl_add, weyl_bracket, weyl_casimir,
                     weyl_mul, weyl_scalar, within_side_term)
from wsuper.catalog import family_setup
from wsuper.generators import casimir
from wsuper.relations import extract_c0, one_dim_rep, verify_scalar_reduction
from wsuper.whittaker import WhittakerElement, project

from conftest import CATALOG_NAMES, get_ctx, get_setup

F = Fraction

# (m, n) of osp(m|n): sp(4), sp(6), osp(1|2), osp(1|4)
PINS = {"sp(4)": (0, 4), "sp(6)": (0, 6), "osp(1|2)": (1, 2), "osp(1|4)": (1, 4)}

# c0 by the one-dimensional representation, on algebras the oscillator
# realisation does not reach (s > 0 with s != r, or osp(m|n) with m > 1)
ONE_DIM_PINS = {("sl", 4, 1): F(-3, 2), ("sl", 5, 1): F(-3),
                ("osp", 1, 6): F(-15, 8), ("osp", 5, 2): F(-3, 8)}


@lru_cache(maxsize=None)
def family(kind, m, n):
    return family_setup(kind, m, n)


def test_weyl_oracle_canonical_relations():
    k = 2
    zero = (0,) * k
    q = [{(tuple(int(j == i) for j in range(k)), zero): F(1)} for i in range(k)]
    p = [{(zero, tuple(int(j == i) for j in range(k))): F(1)} for i in range(k)]
    one = {(zero, zero): F(1)}
    for i in range(k):
        for j in range(k):
            # linear elements are odd: check the even commutators directly
            assert weyl_add(weyl_mul(p[i], q[j]), weyl_mul(q[j], p[i]), -1) \
                == (one if i == j else {})
            assert weyl_add(weyl_mul(q[i], q[j]), weyl_mul(q[j], q[i]), -1) == {}
    x = weyl_add(weyl_mul(p[0], p[0]), q[1])
    y = weyl_add(weyl_mul(q[0], p[1]), one, 3)
    z = weyl_mul(q[0], q[0])
    assert weyl_mul(weyl_mul(x, y), z) == weyl_mul(x, weyl_mul(y, z))
    # p^2 q^2 = q^2 p^2 + 4 q p + 2
    assert weyl_mul(weyl_mul(p[0], p[0]), z) == {
        ((2, 0), (2, 0)): F(1), ((1, 0), (1, 0)): F(4), (zero, zero): F(2)}
    assert weyl_scalar(weyl_bracket(p[0], q[0])) is None     # odd: pq + qp


@pytest.mark.parametrize("name", list(PINS))
def test_extract_c0_equals_oscillator_casimir(name):
    m, n = PINS[name]
    k = n // 2
    setup = family("osp", m, n)
    images = oscillator_images(m, n)
    assert realisation_failures(setup.alg, images) == []
    cas = weyl_scalar(weyl_casimir(setup.alg, images))
    assert cas is not None, "Casimir image is not a scalar"
    # the same scalar from highest weights, with the form normalised by (e,f)=1
    assert cas == F(-k * (2 * k + 1) if m == 0 else -k * (2 * k - 1), 8)
    rep, res = extract_c0(setup)
    assert rep.ok and res.consistent
    assert res.value == cas
    s, r = setup.sdim, setup.rdim
    assert res.formula_values and not res.matches_formula
    for _, formula in res.formula_values:
        assert formula - cas == F((s - r) ** 2, 16)


@pytest.mark.parametrize("kind,m,n", list(ONE_DIM_PINS))
def test_one_dim_c0_equals_extract_c0(kind, m, n):
    """Two routes on separate contexts: one_dim reads c0 off the monomial
    coordinates of [Theta_wi, Theta_wj], extract_c0 off B(w1, w2)."""
    setup = family(kind, m, n)
    rep = one_dim_rep(setup)
    crep, res = extract_c0(setup)
    assert rep.ok and crep.ok and res.consistent
    assert rep.detail["c0"] == str(res.value) == str(ONE_DIM_PINS[kind, m, n])


def setup_named(name):
    return family("osp", *PINS[name]) if name in PINS else get_setup(name)


@pytest.mark.parametrize("name", CATALOG_NAMES + ("sp(4)", "sp(6)", "osp(1|4)"))
def test_casimir_constant_term(name):
    """C is the projection of sum (-1)^{|i|} b_i b^i with (b_j, b^i) = delta:
    centrality cannot see a constant shift of C, this can."""
    setup = setup_named(name)
    alg = setup.alg
    total = EnvElement(setup)
    for i, dual in enumerate(dual_basis(alg)):
        prod = EnvElement.from_vector(setup, alg.basis_vector(i)) \
            * EnvElement.from_vector(setup, dual)
        total = total + prod.scale(-1 if alg.parity[i] else 1)
    assert project(total) == casimir(setup).value


@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_scalar_reduction_residue_is_within_side_term(name):
    setup, ctx = get_setup(name), get_ctx(name)
    rep = verify_scalar_reduction(setup, ctx)
    want = {}
    basis = setup.cent[1]
    for i, w1 in enumerate(basis):
        for j, w2 in enumerate(basis):
            term = -F(1, 8) * within_side_term(setup, w1, w2)
            if term != 0:
                want["(w%d,w%d)" % (i, j)] = WhittakerElement.unit(setup, term)
    assert want, "s != r on the catalog, so some residue must be nonzero"
    assert dict(rep.failures) == want


@pytest.mark.parametrize("kind,m,n", [("sl", 3, 1), ("osp", 2, 4)])
def test_scalar_reduction_passes_where_s_equals_r(kind, m, n):
    setup = family(kind, m, n)
    assert setup.sdim == setup.rdim
    assert verify_scalar_reduction(setup).ok
    rep, res = extract_c0(setup)
    assert rep.ok and res.consistent and res.matches_formula


# c0 depends on the superdimension d = m - n of the natural module alone:
# -d(d-1)/4 on sl, gl and psl(2|2) at e = E[0,1], -d(d-1)/16 on osp at its
# default e.  Observed on these selections, not proved; sl(2|0) and
# osp(0|2) are left out, since g^e(1) = 0 there and nothing fixes c0
LAW_SELECTIONS = (
    [("sl", m, n) for m in range(2, 8) for n in range(5) if n < m and (m, n) != (2, 0)]
    + [("osp", m, n) for m in range(8) for n in (2, 4, 6) if (m, n) != (0, 2)]
    + [("gl", 2, 2), ("gl", 3, 1), ("gl", 4, 1), ("gl", 3, 2), ("gl", 2, 3),
       ("sl", 2, 3), ("sl", 2, 4), ("psl22", 2, 2)])


@pytest.mark.parametrize("kind,m,n", LAW_SELECTIONS)
def test_c0_is_a_function_of_the_superdimension(kind, m, n):
    """extract_c0 against the law in d, and the published closed form
    short of it by (s-r)^2/16."""
    setup = family_setup(kind, m, n)
    rep, res = extract_c0(setup)
    assert rep.ok and res.consistent
    d = m - n
    assert res.value == F(-d * (d - 1), 16 if kind == "osp" else 4)
    assert res.value - res.formula_values[0][1] == -F((setup.sdim - setup.rdim) ** 2, 16)
