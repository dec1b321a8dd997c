"""Exact linear algebra over the rationals.

A rational is an int where integral, else a Fraction (int_if_integral);
no floats, so no `/`: exact division is Fraction(a, b).  A vector is a
dict {index: nonzero rational}, and a matrix is given by its rows, or by
its columns, as such dicts.  There is one elimination, the sparse
Echelon, whose rows keep that type, so on ints it runs on ints; rank,
rref, nullspace, solve and Span are views of it and return that type.
The pivot of a row is its smallest key, so every result is deterministic,
and reduced() gives the unique reduced row echelon form.
"""

from fractions import Fraction
from heapq import heappop, heappush


def int_if_integral(c):
    """c as an int when it is integral, else c: the engine's value type."""
    return c.numerator if c.denominator == 1 else c


def int_entries(v):
    """The vector v with every integral entry an int."""
    return {k: c.numerator if c.denominator == 1 else c for k, c in v.items()}


def vec_scale(c, x):
    return {k: c * a for k, a in x.items()} if c else {}


def lin_comb(coeffs, vectors):
    """sum_t coeffs[t] * vectors[t] over the items t of the dict coeffs."""
    out = {}
    for t, c in coeffs.items():
        if c:
            for k, a in vectors[t].items():
                x = out.pop(k, 0) + c * a
                if x:
                    out[k] = x
    return out


def transpose(cols):
    """{i: row i} of the matrix whose j-th column is the vector cols[j]."""
    rows = {}
    for j, col in enumerate(cols):
        for i, c in col.items():
            rows.setdefault(i, {})[j] = c
    return rows


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
        """The remainder of v modulo the rows, as a new dict of ints where integral."""
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
        return int_entries(v)

    def add(self, v):
        """Add v as a row unless it lies in the span; True when it is new."""
        v = self.reduce(v)
        if not v:
            return False
        p = min(v)
        c = v[p]
        self.rows[p] = v if c == 1 else {k: int_if_integral(Fraction(a, c))
                                         for k, a in v.items()}
        return True

    def reduced(self):
        """The unique reduced row echelon form of the same span: from the
        largest pivot down, each row is reduced by the rows cleared above it."""
        out = Echelon()
        for p in sorted(self.rows, reverse=True):
            out.rows[p] = out.reduce(self.rows[p])
        return out


def _width(vectors):
    """1 + the largest index among the vectors: a key above all of them."""
    return 1 + max((k for v in vectors for k in v), default=-1)


def rref(rows):
    """Reduced row echelon form of dense rows, (new_rows, pivot_columns):
    the dense view of Echelon.reduced(), with the zero rows last."""
    ncols = len(rows[0]) if rows else 0
    red = Echelon({j: c for j, c in enumerate(row) if c}
                  for row in rows).reduced().rows
    pivots = sorted(red)
    m = [[red[p].get(c, 0) for c in range(ncols)] for p in pivots]
    return m + [[0] * ncols for _ in range(len(rows) - len(m))], pivots


def rank(rows):
    return len(Echelon(rows).rows)


def nullspace(rows, ncols):
    """Basis of the right kernel of the matrix, one vector per free column
    below ncols.

    Free columns are taken in increasing order and the free variable is
    set to 1, so the result is deterministic.
    """
    red = Echelon(rows).reduced().rows
    basis = []
    for fc in range(ncols):
        if fc not in red:
            v = {fc: 1}
            for pc, row in red.items():
                if fc in row:
                    v[pc] = -row[fc]
            basis.append(v)
    return basis


def solve(rows, rhs):
    """One exact solution x of rows * x = rhs, or None if inconsistent;
    rows and rhs are keyed by equation.

    Free variables are set to 0, so the particular solution is
    deterministic.  The rhs is the key above every column of the
    augmented rows; a pivot there means inconsistency.
    """
    n = _width(rows.values())
    red = Echelon({**rows.get(i, {}), n: rhs.get(i, 0)}
                  for i in rows.keys() | rhs.keys()).reduced().rows
    if n in red:
        return None
    return {c: row[n] for c, row in sorted(red.items()) if n in row}


class Span:
    """Exact coordinates in the span of linearly independent vectors.

    With n = 1 + the largest index of the vectors, vector i enters one
    Echelon with the tag key n + i, so the reduced rows carry a left
    inverse on the tags: reducing x leaves x - sum c_i v_i below n and
    -c_i on tag n + i.  A vector costs only its nonzero entries.
    """

    def __init__(self, vectors):
        n = self._n = _width(vectors)
        echelon = Echelon({**v, n + i: 1} for i, v in enumerate(vectors))
        if any(p >= n for p in echelon.rows):
            raise ValueError("vectors are linearly dependent")
        self._echelon = echelon.reduced()

    def coords(self, x):
        """{index: nonzero coefficient} with sum c_i v_i == x, or None
        when x lies outside the span."""
        n = self._n
        if any(k >= n for k in x):
            return None
        rest = self._echelon.reduce(x)
        if any(k < n for k in rest):
            return None
        return {k - n: -c for k, c in sorted(rest.items())}
