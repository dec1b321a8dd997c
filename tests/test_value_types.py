"""The engine's one value type: a rational is an int where it is integral and
a Fraction (denominator > 1) where it is not, never a float, a bool or a
Fraction with denominator 1.  Checked on the structure constants and the
form, on every vector of the minimal setup, on the letter tables, and on
what the elimination returns (Span.coords, nullspace, solve, rref), for
the catalog, the sl(3|1) setup with non-unit letters, sl(2|1) on a scaled
basis (denominators 2 and 3), osp(1|2) with x_0 halved at e = x_0/4 (the
rescaled e and f of an odd r are integral there) and the two frontier
algebras."""

from fractions import Fraction
from functools import cache

import pytest
from hypothesis import given, settings, strategies as st

from test_letter_bracket import SCALED, _setup
from wsuper.algebra import (SuperAlgebra, build_osp, build_sl, export_table, import_table,
                            subalgebra)
from wsuper.catalog import CATALOG_NAMES, family_setup
from wsuper.grading import _ad_columns, _kernel, build_minimal_setup
from wsuper.linalg import Echelon, Span, nullspace, rref, solve, transpose
from wsuper.whittaker import product_terms

from conftest import NONUNIT

RESCALED = "osp(1|2) on x0/2 at e = x0/4"


def _rescaled():
    """osp(1|2) on v_0 = x_0 / 2 and the other x_i, at e = x_0 / 4: r is
    odd and the setup rescales e to x_0 / 2 = v_0 and f by 1/4, each from
    a Fraction to an integer coordinate."""
    base = build_osp(1, 2)
    halved = subalgebra(base, [{0: Fraction(1, 2)}] + [{i: 1} for i in range(1, base.dim)],
                        "osp(1|2) halved")
    setup = build_minimal_setup(halved, {0: Fraction(1, 2)})
    assert setup.triple.e == {0: 1}
    return setup


BUILDERS = {RESCALED: _rescaled,
            "osp(7|2)": lambda: family_setup("osp", 7, 2),
            "sl(4|2)": lambda: family_setup("sl", 4, 2)}
SETUPS = CATALOG_NAMES + (NONUNIT, SCALED) + tuple(BUILDERS)


@cache
def _get(name):
    return BUILDERS[name]() if name in BUILDERS else _setup(name)


def exact(c):
    return type(c) is int or (type(c) is Fraction and c.denominator > 1)


def entries(vectors):
    return [c for v in vectors for c in v.values()]


@pytest.mark.parametrize("name", SETUPS)
def test_every_setup_value_is_an_int_or_a_proper_fraction(name):
    s = _get(name)
    alg, t = s.alg, s.triple
    values = entries(alg.brackets.values()) + list(alg.form.values())
    vectors = [t.e, t.h, t.f, *s.zbasis, *s.zdual, *s.dual_a, *s.dual_b, *s.letters]
    vectors += [v for i in s.grading for v in s.grading[i]]
    vectors += [v for i in s.cent for v in s.cent[i]]
    values += entries(vectors)
    values += [c for row in s.bracket_rows for entry in row for _, c in entry]
    assert values and all(exact(c) and c for c in values)
    if name == SCALED:
        assert {type(c) for c in values} == {int, Fraction}


@pytest.mark.parametrize("name", SETUPS)
def test_the_elimination_returns_the_value_type(name):
    s = _get(name)
    alg, t = s.alg, s.triple
    ad_e = _ad_columns(alg, t.e)
    span = Span(s.letters)
    coords = [span.coords({i: 1}) for i in range(alg.dim)]
    coords += [span.coords(alg.bracket(x, y)) for x in s.letters[:6] for y in s.letters]
    kernel = nullspace(transpose(ad_e).values(), alg.dim)
    f = solve(transpose(ad_e), t.h)
    assert len(kernel) == sum(map(len, s.cent.values())) and f is not None
    values = entries(coords + kernel + [f])
    assert values and all(exact(c) and c for c in values)


FRACTIONS = st.fractions(min_value=-4, max_value=4, max_denominator=3)
# ints, integral Fractions among them, and Fractions; zeros allowed
VALUES = st.one_of(st.integers(-3, 3), FRACTIONS,
                   FRACTIONS.map(lambda c: Fraction(round(c))))


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(data=st.data(), ncols=st.integers(1, 5))
def test_elimination_outputs_are_ints_where_integral_on_any_input(data, ncols):
    rows = data.draw(st.lists(st.dictionaries(st.integers(0, ncols - 1), VALUES),
                              max_size=5))
    rhs = data.draw(st.dictionaries(st.integers(0, max(len(rows) - 1, 0)), VALUES))
    echelon = Echelon(rows)
    out = list(echelon.rows.values()) + list(echelon.reduced().rows.values())
    out += nullspace(rows, ncols)
    sol = solve(dict(enumerate(rows)), rhs)
    out += [] if sol is None else [sol]
    independent = list(echelon.rows.values())
    if independent:
        span = Span(independent)
        out += [span.coords({k: c for k, c in v.items() if c}) for v in rows]
    assert all(exact(c) and c for c in entries(out))
    dense, _ = rref([[row.get(j, 0) for j in range(ncols)] for row in rows])
    assert all(exact(c) for r in dense for c in r)


def test_superalgebra_stores_the_value_type_whatever_it_is_given():
    # an imported table reads every entry as a Fraction; a hand-made
    # algebra may hold integral Fractions, ints and bools
    sl21 = build_sl(2, 1)
    imported = import_table(export_table(sl21))
    assert imported.brackets == sl21.brackets and imported.form == sl21.form
    brackets = {(0, 1): {1: Fraction(2)}, (1, 0): {1: Fraction(-4, 2)}, (1, 1): {0: True}}
    made = SuperAlgebra("made", [0, 0], brackets, {(0, 0): Fraction(3), (1, 1): Fraction(1, 2)})
    assert made.brackets == {(0, 1): {1: 2}, (1, 0): {1: -2}, (1, 1): {0: 1}}
    for alg in (imported, made):
        values = entries(alg.brackets.values()) + list(alg.form.values())
        assert all(exact(c) for c in values)


def test_kernel_vectors_are_ints_where_integral():
    # the kernel of v_0 = 2 x_0 -> 2 y, v_1 = x_1 -> y is spanned by
    # -1/2 v_0 + v_1 = -x_0 + x_1, a combination with a Fraction coefficient
    assert _kernel([{0: 2}, {1: 1}], [{0: 2}, {0: 1}]) == [{0: -1, 1: 1}]
    assert all(exact(c) for v in _kernel([{0: 2}, {1: 1}], [{0: 2}, {0: 1}])
               for c in v.values())


def test_product_terms_keep_int_coefficients_int():
    # the scalar is taken as given: int factors multiply to ints, and a
    # proper Fraction anywhere gives a Fraction
    terms = product_terms(-2, {0: 3, 1: -1}, {2: 5})
    assert terms == [((0, 2), -30), ((1, 2), 10)]
    assert all(type(c) is int for _, c in terms)
    halves = product_terms(Fraction(1, 2), {0: 3}, {1: 1})
    assert halves == [((0, 1), Fraction(3, 2))] and all(exact(c) for _, c in halves)
    assert product_terms(0, {0: 1}) == []
