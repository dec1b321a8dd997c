"""Exact linear algebra over the rationals.

Everything works on plain lists/tuples of Fraction; no floats anywhere.
Matrices are lists of row lists.  All pivoting is leftmost-column,
topmost-row, so every routine is deterministic.
"""

from fractions import Fraction
from heapq import heappop, heappush

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


class Span:
    """Exact coordinates in the span of linearly independent vectors.

    One RREF of [A | I], A having the k vectors as columns, factors the
    span once.  The top k rows of the right block are a left inverse of A;
    the remaining rows annihilate exactly the span, so coords can both
    test membership and read off the unique coordinates.  Both blocks are
    kept by column, so a sparse vector costs only its nonzero entries.
    """

    def __init__(self, vectors):
        k = len(vectors)
        n = len(vectors[0]) if k else 0
        red, pivots = rref([[v[i] for v in vectors] + list(unit_vec(n, i))
                            for i in range(n)])
        if pivots[:k] != list(range(k)):
            raise ValueError("vectors are linearly dependent")
        self._k = k
        self._cols = [{r: row[k + j] for r, row in enumerate(red) if row[k + j] != 0}
                      for j in range(n)]

    def coords(self, x):
        """{index: nonzero coefficient} with sum c_i v_i == x, or None
        when x lies outside the span."""
        acc = {}
        for j, c in enumerate(x):
            if c != 0:
                for r, p in self._cols[j].items():
                    acc[r] = acc.get(r, ZERO) + c * p
        if any(c != 0 for r, c in acc.items() if r >= self._k):
            return None
        return {r: acc[r] for r in sorted(acc) if acc[r] != 0}


class Echelon:
    """Sparse row echelon over dict vectors {key: coefficient}.

    The pivot of a row is its smallest key and every row is scaled to 1
    there.  Reducing a vector clears its pivot keys in increasing order; a
    row only carries keys above its pivot, so one pass leaves a remainder
    with no pivot key, which is empty exactly when the vector lies in the
    span of the rows.
    """

    def __init__(self):
        self._rows = {}          # pivot key -> row

    def reduce(self, v):
        """The remainder of v modulo the rows, as a new dict."""
        rows = self._rows
        v = {k: c for k, c in v.items() if c != 0}
        heap = [k for k in v if k in rows]
        heap.sort()
        while heap:
            p = heappop(heap)
            c = v.get(p)
            if c is None:
                continue
            for k, a in rows[p].items():
                x = v.get(k)
                if x is None:
                    v[k] = -c * a
                    if k in rows:
                        heappush(heap, k)
                elif x == c * a:
                    del v[k]
                else:
                    v[k] = x - c * a
        return v

    def add(self, v):
        """Add v as a row unless it lies in the span; True when it is new."""
        v = self.reduce(v)
        if not v:
            return False
        p = min(v)
        c = v[p]
        self._rows[p] = {k: a / c for k, a in v.items()}
        return True
