"""Property tests: the sparse structure-constant kernel (SuperAlgebra.bracket,
SuperAlgebra.form_value) and linalg.lin_comb agree with naive dense sums,
and keep no explicit zero in a vector they return."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from oracles import dense, dense_bracket, dense_form_value, sparse
from wsuper.algebra import (build_gl, build_osp, build_psl22, build_sl,
                            export_table, import_table)
from wsuper.linalg import lin_comb

ZERO = Fraction(0)

ALGEBRAS = {
    "gl(2|1)": build_gl(2, 1),
    "sl(3|1)": build_sl(3, 1),
    "osp(3|2)": build_osp(3, 2),
    "psl22": build_psl22(),
    "imported sl(2|1)": import_table(export_table(build_sl(2, 1))),
    "osp(3|2) form * -3/7": build_osp(3, 2).rescaled_form(Fraction(-3, 7)),
}

FRACTIONS = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))


def sparse_vectors(dim):
    """Dict vectors below dim with up to four entries, explicit
    Fraction(0)s drawn among them."""
    return st.dictionaries(st.integers(0, dim - 1), FRACTIONS, max_size=4)


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(data=st.data(), name=st.sampled_from(sorted(ALGEBRAS)))
def test_bracket_and_form_value_match_the_dense_oracle(data, name):
    alg = ALGEBRAS[name]
    x = data.draw(sparse_vectors(alg.dim), label="x")
    y = data.draw(sparse_vectors(alg.dim), label="y")
    n = alg.dim
    got = alg.bracket(x, y)
    assert got == sparse(dense_bracket(alg, dense(x, n), dense(y, n)))
    assert all(type(c) is Fraction and c for c in got.values())
    assert alg.form_value(x, y) == dense_form_value(alg, dense(x, n), dense(y, n))


def naive_lin_comb(coeffs, vectors):
    return tuple(sum((c * v[k] for c, v in zip(coeffs, vectors)), ZERO)
                 for k in range(len(vectors[0])))


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(data=st.data(), n=st.integers(1, 4), dim=st.integers(1, 6))
def test_lin_comb_matches_the_naive_sum(data, n, dim):
    vectors = [data.draw(sparse_vectors(dim)) for _ in range(n)]
    coeffs = data.draw(st.lists(st.one_of(st.just(ZERO), FRACTIONS),
                                min_size=n, max_size=n))
    out = lin_comb(dict(enumerate(coeffs)), vectors)
    assert dense(out, dim) == naive_lin_comb(coeffs, [dense(v, dim) for v in vectors])
    assert all(type(c) is Fraction and c for c in out.values())


@pytest.mark.parametrize("coeffs, vectors", [
    ([ZERO, ZERO], [(Fraction(1), Fraction(2)), (Fraction(3), ZERO)]),
    ([Fraction(2), Fraction(-1)], [(Fraction(1), Fraction(3)), (Fraction(2), Fraction(6))]),
    ([Fraction(5)], [(ZERO, ZERO, ZERO)]),
])
def test_lin_comb_all_zero_results(coeffs, vectors):
    # zero coefficients, cancelling terms and zero vectors give the empty
    # vector, with no explicit zero left in it
    out = lin_comb(dict(enumerate(coeffs)), [sparse(v) for v in vectors])
    assert out == {}
    assert naive_lin_comb(coeffs, vectors) == (ZERO,) * len(vectors[0])
