import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from oracles import dense, oracle_nullity, oracle_rank, sparse
from wsuper.linalg import (Echelon, Span, lin_comb, nullspace, rank, rref, solve,
                           transpose)

F = Fraction


def rand_matrix(rng, nrows, ncols, density=0.6):
    return [[Fraction(rng.randint(-4, 4), rng.randint(1, 3))
             if rng.random() < density else Fraction(0)
             for _ in range(ncols)] for _ in range(nrows)]


def test_rank_matches_oracle():
    rng = random.Random(11)
    for _ in range(60):
        m = rand_matrix(rng, rng.randint(1, 6), rng.randint(1, 6))
        assert rank(map(sparse, m)) == oracle_rank(m)


def test_nullspace_vectors_are_in_kernel():
    rng = random.Random(5)
    for _ in range(40):
        nrows, ncols = rng.randint(1, 5), rng.randint(1, 6)
        m = rand_matrix(rng, nrows, ncols)
        basis = nullspace(map(sparse, m), ncols)
        assert len(basis) == oracle_nullity(m, ncols)
        assert oracle_rank([dense(v, ncols) for v in basis]) == len(basis)
        for v in basis:
            for row in m:
                assert sum(row[j] * c for j, c in v.items()) == 0


def test_solve_exact():
    rng = random.Random(7)
    for _ in range(40):
        nrows, ncols = rng.randint(1, 5), rng.randint(1, 5)
        m = rand_matrix(rng, nrows, ncols)
        x = [Fraction(rng.randint(-3, 3)) for _ in range(ncols)]
        b = [sum(row[j] * x[j] for j in range(ncols)) for row in m]
        got = solve(dict(enumerate(map(sparse, m))), sparse(b))
        assert got is not None
        for row, bi in zip(m, b):
            assert sum(row[j] * c for j, c in got.items()) == bi
        # the particular solution of the reduced form: free variables are 0
        red, pivots = rref([row + [bi] for row, bi in zip(m, b)])
        assert got == {p: red[r][ncols] for r, p in enumerate(pivots) if red[r][ncols]}


def test_solve_inconsistent_returns_none():
    m = {0: {0: Fraction(1)}, 1: {0: Fraction(1)}}
    assert solve(m, {0: Fraction(1), 1: Fraction(2)}) is None
    # an equation with no row and a nonzero right-hand side
    assert solve(m, {0: Fraction(1), 1: Fraction(1), 2: Fraction(1)}) is None
    assert solve(m, {0: Fraction(1), 1: Fraction(1)}) == {0: Fraction(1)}


def test_span_left_inverse_round_trip():
    rng = random.Random(3)
    found = 0
    while found < 10:
        n = rng.randint(1, 5)
        m = rand_matrix(rng, n, n, density=0.9)
        columns = [sparse(m[i][j] for i in range(n)) for j in range(n)]
        if oracle_rank(m) < n:
            with pytest.raises(ValueError):
                Span(columns)
            continue
        found += 1
        span = Span(columns)
        for i in range(n):
            coords = span.coords({i: Fraction(1)})
            assert all(c != 0 for c in coords.values())
            for r in range(n):
                acc = sum(m[r][j] * c for j, c in coords.items())
                assert acc == (1 if r == i else 0)


def test_span_coordinates_and_membership():
    v1 = {0: Fraction(1), 2: Fraction(2)}
    v2 = {1: Fraction(1), 2: Fraction(1)}
    target = {0: Fraction(2), 1: Fraction(3), 2: Fraction(7)}
    assert Span([v1, v2]).coords(target) == {0: Fraction(2), 1: Fraction(3)}
    assert Span([v1]).coords({1: Fraction(1)}) is None
    with pytest.raises(ValueError):
        Span([v1, v2, {0: Fraction(1), 1: Fraction(1), 2: Fraction(3)}])
    # an index above every vector's is outside the span, not a tag
    assert Span([v1, v2]).coords({3: Fraction(1)}) is None
    assert Span([v1, v2]).coords({**target, 4: Fraction(1)}) is None


def test_rref_pivots_deterministic():
    m = [[Fraction(0), Fraction(2)], [Fraction(3), Fraction(1)]]
    red, pivots = rref(m)
    assert pivots == [0, 1]
    assert red[0][:2] == [Fraction(1), Fraction(0)]
    assert red[1][:2] == [Fraction(0), Fraction(1)]


def test_transpose_and_lin_comb_on_dict_vectors():
    cols = [{0: F(2)}, {0: F(1), 2: F(3)}]
    assert transpose(cols) == {0: {0: F(2), 1: F(1)}, 2: {1: F(3)}}
    assert lin_comb({0: F(1), 1: F(-2)}, cols) == {2: F(-6)}
    assert lin_comb({1: F(0)}, cols) == {}


FRACTIONS = st.fractions(min_value=-4, max_value=4, max_denominator=3)


@st.composite
def dependent_rows(draw):
    """Rows of a small matrix, some of them combinations of earlier rows,
    and a target vector drawn the same way."""
    ncols = draw(st.integers(1, 5))
    row = st.lists(st.one_of(st.just(Fraction(0)), FRACTIONS),
                   min_size=ncols, max_size=ncols)
    rows = []
    for _ in range(draw(st.integers(1, 6))):
        if rows and draw(st.booleans()):
            coeffs = draw(st.lists(FRACTIONS, min_size=len(rows),
                                   max_size=len(rows)))
            rows.append([sum((c * r[j] for c, r in zip(coeffs, rows)), Fraction(0))
                         for j in range(ncols)])
        else:
            rows.append(draw(row))
    return rows, draw(row)


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(data=dependent_rows())
def test_echelon_agrees_with_oracle_rank(data):
    rows, target = data
    echelon = Echelon()
    added = [echelon.add({j: c for j, c in enumerate(r)}) for r in rows]
    assert sum(added) == oracle_rank(rows)
    # each row is new exactly when it raises the rank of the rows before it
    assert added == [oracle_rank(rows[:i + 1]) > oracle_rank(rows[:i])
                     for i in range(len(rows))]
    in_span = oracle_rank(rows + [target]) == oracle_rank(rows)
    remainder = echelon.reduce({j: c for j, c in enumerate(target)})
    assert (not remainder) == in_span
    assert all(c != 0 for c in remainder.values())


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(data=dependent_rows())
def test_rref_has_reduced_shape_and_the_same_rows(data):
    # the unique reduced form is what keeps the nullspace and solve bases
    # of the sparse kernel equal to those of dense Gauss-Jordan
    rows, _ = data
    red, pivots = rref(rows)
    assert len(red) == len(rows)
    assert pivots == sorted(set(pivots))
    for r, pc in enumerate(pivots):
        assert all(c == 0 for c in red[r][:pc]) and red[r][pc] == 1
        assert all(red[i][pc] == 0 for i in range(len(red)) if i != r)
    assert all(c == 0 for row in red[len(pivots):] for c in row)
    assert oracle_rank(rows) == len(pivots) == oracle_rank(rows + red)
