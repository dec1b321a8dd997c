"""Scrambled bases: c0, s, r, the kw numbers and every verdict are invariants
of (g, e), so a rational change of basis of g must leave them as they are.

The scramble is upper-triangular and parity-preserving: diagonal entries
from {1, 2, -1, 1/3} and about 15% of the same-parity entries above the
diagonal from {1, -1, 1/2, 2}.  The scrambled algebra is the subalgebra of
g on those vectors, so its structure constants and letters carry
denominators 2 and 3 through every layer, from check_algebra to one_dim."""

import random
from fractions import Fraction

import pytest

from wsuper.algebra import subalgebra
from wsuper.catalog import CATALOG_NAMES, _CATALOG, family_algebra
from wsuper.errors import DegeneracyError
from wsuper.grading import build_minimal_setup, kw_numbers
from wsuper.linalg import Span
from wsuper.relations import run_suite

SELECTIONS = {**{name: _CATALOG[name] for name in CATALOG_NAMES},
              "sl(3|1)": ("sl", 3, 1), "gl(2|2)": ("gl", 2, 2), "osp(4|2)": ("osp", 4, 2)}


def scrambled_vectors(alg, seed):
    """Column j of the change of basis: the new basis vector j."""
    rng = random.Random(seed)
    vectors = []
    for j in range(alg.dim):
        v = {j: rng.choice((1, 2, -1, Fraction(1, 3)))}
        for i in range(j):
            if alg.parity[i] == alg.parity[j] and rng.random() < 0.15:
                v[i] = rng.choice((1, -1, Fraction(1, 2), 2))
        vectors.append(v)
    return vectors


def invariants(setup):
    """Each id's status, the extracted c0 values, the formula values and
    the kw numbers."""
    suite = run_suite(setup, fail_fast=False)
    c0 = suite.c0
    return ([(rep.rel_id, rep.ok) for rep in suite.reports],
            {v for _, _, v in c0.pairs if v is not None},
            {v for _, v in c0.formula_values}, kw_numbers(setup))


@pytest.mark.parametrize("seed", (1, 2))
@pytest.mark.parametrize("name", tuple(SELECTIONS))
def test_a_scrambled_basis_gives_the_native_reports(name, seed):
    alg, e = family_algebra(*SELECTIONS[name])
    vectors = scrambled_vectors(alg, seed)
    span = Span(vectors)
    scrambled = subalgebra(alg, vectors, alg.name, None, span)
    native = invariants(build_minimal_setup(alg, e))
    assert native[1]
    assert invariants(build_minimal_setup(scrambled, span.coords(e))) == native
