"""Differential test: check_algebra, which accumulates Jacobi and invariance
over the nonzero products, reports exactly the (axiom, ok, witness) list of
the dense first-failure scans in oracles.dense_axiom_checks, on small
algebras with one structure constant, Gram entry or parity corrupted."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from oracles import dense_axiom_checks
from wsuper.algebra import SuperAlgebra, build_gl, build_osp, build_sl, check_algebra
from wsuper.catalog import family_algebra

BASES = (build_gl(1, 1), build_osp(1, 2), build_sl(2, 1))

# 0 is kept as an explicit stored bracket entry, not deleted; the
# constructor drops a zero Gram entry, which the dense scans read as 0
VALUES = st.sampled_from([0, 1, -1, 2, Fraction(1, 2), Fraction(-3, 2)]).map(Fraction)


@st.composite
def corrupted(draw):
    alg = draw(st.sampled_from(BASES))
    index = st.integers(0, alg.dim - 1)
    brackets = {key: dict(terms) for key, terms in alg.brackets.items()}
    form = dict(alg.form)
    parity = list(alg.parity)
    kind = draw(st.sampled_from(["bracket", "form", "parity"]))
    if kind == "bracket":
        # an entry that is stored, or any position at all
        stored = sorted((i, j, k) for (i, j), terms in alg.brackets.items()
                        for k in terms)
        i, j, k = draw(st.sampled_from(stored) | st.tuples(index, index, index))
        brackets.setdefault((i, j), {})[k] = draw(VALUES)
    elif kind == "form":
        i, j = draw(st.sampled_from(sorted(alg.form)) | st.tuples(index, index))
        form[i, j] = draw(VALUES)
    else:
        i = draw(index)
        parity[i] ^= 1
    return SuperAlgebra("corrupted", parity, brackets, form)


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(alg=corrupted())
def test_one_corruption_gets_the_dense_scans_verdicts_and_witnesses(alg):
    assert check_algebra(alg).checks == dense_axiom_checks(alg)


@pytest.mark.parametrize("family, m, n", [
    ("sl", 2, 1), ("osp", 1, 2), ("psl22", None, None), ("osp", 3, 2), ("sl", 3, 1)])
def test_catalog_algebras_pass_both_scans(family, m, n):
    alg, _ = family_algebra(family, m, n)
    checks = dense_axiom_checks(alg)
    assert all(ok for _, ok, _ in checks)
    assert check_algebra(alg).checks == checks
