"""Exact linear algebra over the rationals.

Everything works on Fraction entries; no floats anywhere.  Dense
matrices are lists of row lists.  There is one elimination, the sparse
Echelon; rank, rref, nullspace, solve and Span are views of it.  The
pivot of a row is its smallest key, so every result is deterministic,
and reduced() gives the unique reduced row echelon form.
"""

from fractions import Fraction
from heapq import heappop, heappush

ZERO = Fraction(0)
ONE = Fraction(1)


def unit_vec(n, i):
    return tuple(ONE if j == i else ZERO for j in range(n))


def vec_add(x, y):
    return tuple(a + b for a, b in zip(x, y))


def vec_scale(c, x):
    c = Fraction(c)
    return tuple(c * a for a in x)


def is_zero_vec(x):
    return not any(x)


def lin_comb(coeffs, vectors):
    """sum_t coeffs[t] * vectors[t] over the nonzero coefficients and
    entries; vectors is nonempty and its vectors share one length."""
    out = [ZERO] * len(vectors[0])
    for c, v in zip(coeffs, vectors):
        if c:
            for k, a in enumerate(v):
                if a:
                    out[k] += c * a
    return tuple(out)


class Echelon:
    """Sparse row echelon over dict vectors {key: coefficient}.

    The pivot of a row is its smallest key and every row is scaled to 1
    there.  Reducing a vector clears its pivot keys in increasing order; a
    row only carries keys above its pivot, so one pass leaves a remainder
    with no pivot key, which is empty exactly when the vector lies in the
    span of the rows.  rows maps each pivot to its row.
    """

    def __init__(self, vectors=()):
        self.rows = {}
        for v in vectors:
            self.add(v)

    def reduce(self, v):
        """The remainder of v modulo the rows, as a new dict."""
        rows = self.rows
        v = {k: c for k, c in v.items() if c}
        heap = [k for k in v if k in rows]
        heap.sort()
        while heap:
            p = heappop(heap)
            c = v.get(p)
            if c is None:
                continue
            c = -c
            for k, a in rows[p].items():
                x = v.get(k)
                if x is None:
                    v[k] = c * a
                    if k in rows:
                        heappush(heap, k)
                else:
                    x += c * a
                    if x:
                        v[k] = x
                    else:
                        del v[k]
        return v

    def add(self, v):
        """Add v as a row unless it lies in the span; True when it is new."""
        v = self.reduce(v)
        if not v:
            return False
        p = min(v)
        c = v[p]
        self.rows[p] = {k: a / c for k, a in v.items()}
        return True

    def reduced(self):
        """The unique reduced row echelon form of the same span: from the
        largest pivot down, each row is reduced by the rows cleared above it."""
        out = Echelon()
        for p in sorted(self.rows, reverse=True):
            out.rows[p] = out.reduce(self.rows[p])
        return out


def _sparse(v):
    return {j: c for j, c in enumerate(v) if c}


def rref(rows):
    """Reduced row echelon form, (new_rows, pivot_columns): the dense view
    of Echelon.reduced(), with the zero rows last."""
    ncols = len(rows[0]) if rows else 0
    red = Echelon(map(_sparse, rows)).reduced().rows
    pivots = sorted(red)
    m = [[red[p].get(c, ZERO) for c in range(ncols)] for p in pivots]
    return m + [[ZERO] * ncols for _ in range(len(rows) - len(m))], pivots


def rank(rows):
    return len(Echelon(map(_sparse, rows)).rows)


def nullspace(rows, ncols):
    """Basis of the right kernel of the matrix, one vector per free column.

    Free columns are taken in increasing order and the free variable is
    set to 1, so the result is deterministic.
    """
    red = Echelon(map(_sparse, rows)).reduced().rows
    basis = []
    for fc in range(ncols):
        if fc not in red:
            v = [ZERO] * ncols
            v[fc] = ONE
            for pc, row in red.items():
                v[pc] = -row.get(fc, ZERO)
            basis.append(tuple(v))
    return basis


def solve(rows, rhs):
    """One exact solution of rows * x = rhs, or None if inconsistent.

    Free variables are set to 0, so the particular solution is
    deterministic.  The rhs is key ncols of the augmented rows; a pivot
    there means inconsistency.
    """
    ncols = len(rows[0]) if rows else 0
    red = Echelon(_sparse(list(row) + [b]) for row, b in zip(rows, rhs)).reduced().rows
    if ncols in red:
        return None
    return tuple(red[c].get(ncols, ZERO) if c in red else ZERO for c in range(ncols))


class Span:
    """Exact coordinates in the span of linearly independent vectors.

    Vector i of length n enters one Echelon with the tag key n + i, so
    the reduced rows carry a left inverse on the tags: reducing x leaves
    x - sum c_i v_i below n and -c_i on tag n + i.  A sparse vector costs
    only its nonzero entries.
    """

    def __init__(self, vectors):
        n = self._n = len(vectors[0]) if vectors else 0
        echelon = Echelon({**_sparse(v), n + i: ONE} for i, v in enumerate(vectors))
        if any(p >= n for p in echelon.rows):
            raise ValueError("vectors are linearly dependent")
        self._echelon = echelon.reduced()

    def coords(self, x):
        """{index: nonzero coefficient} with sum c_i v_i == x, or None
        when x lies outside the span."""
        n = self._n
        rest = self._echelon.reduce(_sparse(x))
        if any(k < n for k in rest):
            return None
        return {k - n: -c for k, c in sorted(rest.items())}
