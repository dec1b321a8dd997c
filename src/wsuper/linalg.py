"""Exact linear algebra over the rationals.

Everything works on plain lists/tuples of Fraction; no floats anywhere.
Matrices are lists of row lists.  All pivoting is leftmost-column,
topmost-row, so every routine is deterministic.
"""

from fractions import Fraction

ZERO = Fraction(0)
ONE = Fraction(1)


def unit_vec(n, i):
    return tuple(ONE if j == i else ZERO for j in range(n))


def vec_add(x, y):
    return tuple(a + b for a, b in zip(x, y))


def vec_sub(x, y):
    return tuple(a - b for a, b in zip(x, y))


def vec_scale(c, x):
    c = Fraction(c)
    return tuple(c * a for a in x)


def is_zero_vec(x):
    return all(a == 0 for a in x)


def rref(rows):
    """Reduced row echelon form.  Returns (new_rows, pivot_columns)."""
    m = [list(r) for r in rows]
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pr = None
        for i in range(r, nrows):
            if m[i][c] != 0:
                pr = i
                break
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        pv = m[r][c]
        m[r] = [a / pv for a in m[r]]
        for i in range(nrows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return m, pivots


def rank(rows):
    if not rows:
        return 0
    return len(rref(rows)[1])


def nullspace(rows, ncols):
    """Basis of the right kernel of the matrix, one vector per free column.

    Free columns are taken in increasing order and the free variable is
    set to 1, so the result is deterministic.
    """
    if not rows:
        return [unit_vec(ncols, i) for i in range(ncols)]
    red, pivots = rref(rows)
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    for fc in free:
        v = [ZERO] * ncols
        v[fc] = ONE
        for r, pc in enumerate(pivots):
            v[pc] = -red[r][fc]
        basis.append(tuple(v))
    return basis


def solve(rows, rhs):
    """One exact solution of rows * x = rhs, or None if inconsistent.

    Free variables are set to 0 (least-index pivoting), so the particular
    solution is deterministic.
    """
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    aug = [list(rows[i]) + [rhs[i]] for i in range(nrows)]
    red, pivots = rref(aug)
    for r in range(len(pivots)):
        if pivots[r] == ncols:
            return None
    # rows below the last pivot are zero rows; inconsistency is a pivot in
    # the rhs column, handled above
    x = [ZERO] * ncols
    for r, pc in enumerate(pivots):
        if pc < ncols:
            x[pc] = red[r][ncols]
    return tuple(x)


def solve_in_span(vectors, target):
    """Coordinates of target in the span of the given vectors, or None.

    vectors are column vectors of equal length; returns a tuple c with
    sum(c[i] * vectors[i]) == target.
    """
    if not vectors:
        return () if is_zero_vec(target) else None
    n = len(vectors[0])
    rows = [[vectors[j][i] for j in range(len(vectors))] for i in range(n)]
    return solve(rows, list(target))


def inverse(rows):
    """Exact inverse of a square matrix, or None if singular."""
    n = len(rows)
    aug = [list(rows[i]) + list(unit_vec(n, i)) for i in range(n)]
    red, pivots = rref(aug)
    if pivots[:n] != list(range(n)):
        return None
    return [red[i][n:] for i in range(n)]
