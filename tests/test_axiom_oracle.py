"""Differential test: check_algebra, which accumulates Jacobi and invariance
over the nonzero products, reports exactly the (axiom, ok, witness) list of
the dense first-failure scans in oracles.dense_axiom_checks, on small
algebras with one structure constant, Gram entry or parity corrupted.
check_algebra runs its scans on integer numerators over cleared
denominators, so one base and the scaled catalog algebras have constants
and Gram entries whose common denominators are above 1, and the
corruptions include values whose denominators are not powers of 2."""

from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings, strategies as st

from oracles import dense_axiom_checks
from wsuper.algebra import (SuperAlgebra, build_gl, build_osp, build_sl, check_algebra,
                            subalgebra)
from wsuper.catalog import family_algebra


def _scaled(alg):
    """alg on the basis (i+1)/(i+2) x_i: 1/2 x_0, 2/3 x_1, 3/4 x_2, ..."""
    return subalgebra(alg, [{i: Fraction(i + 1, i + 2)} for i in range(alg.dim)],
                      alg.name + " scaled")


SCALED_SL21 = _scaled(build_sl(2, 1))
BASES = (build_gl(1, 1), build_osp(1, 2), build_sl(2, 1), SCALED_SL21)

# 0 is kept as an explicit stored bracket entry, not deleted; the
# constructor drops a zero Gram entry, which the dense scans read as 0
VALUES = st.sampled_from([0, 1, -1, 2, Fraction(1, 2), Fraction(-3, 2),
                          Fraction(1, 3), Fraction(-2, 5)]).map(Fraction)


def test_the_scaled_base_has_common_denominators_above_one():
    assert lcm(*(c.denominator for terms in SCALED_SL21.brackets.values()
                 for c in terms.values())) > 1
    assert lcm(*(g.denominator for g in SCALED_SL21.form.values())) > 1


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


@pytest.mark.parametrize("family, m, n", [
    ("sl", 2, 1), ("osp", 1, 2), ("psl22", None, None), ("osp", 3, 2), ("sl", 3, 1)])
def test_scaled_catalog_algebras_pass_both_scans(family, m, n):
    alg = _scaled(family_algebra(family, m, n)[0])
    checks = dense_axiom_checks(alg)
    assert all(ok for _, ok, _ in checks)
    assert check_algebra(alg).checks == checks
