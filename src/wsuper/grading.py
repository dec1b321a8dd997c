"""Minimal nilpotent setup: sl2-triple, short grading, paired bases of g(-1),
centralizer data, chi, the projection onto the centralizer of the triple, and
Kac-Weisfeiler dimension data.

The setup also fixes the global PBW letter order used by the enveloping
layer: g(0), g(1), then e, then the paired g(-1) basis, then f last.  With
that order the quotient by the left ideal (f - 1) is a suffix operation on
normal monomials.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import count
from math import isqrt

from .algebra import EVEN, normalized_form, pair_products, restricted_form
from .errors import DegeneracyError, InputError, NotMinimalError
from .linalg import (Span, int_entries, int_if_integral, lin_comb, nullspace, solve,
                     transpose, vec_scale)


@dataclass(frozen=True)
class SL2Triple:
    e: dict
    h: dict
    f: dict


def _ad_columns(alg, x):
    """The columns [x, x_j] of ad x, for j < dim."""
    return [alg.bracket(x, {j: 1}) for j in range(alg.dim)]


def _shifted_columns(cols, shift, indices):
    """Columns j in indices of the matrix with columns cols, minus shift*I."""
    return [{k: x for k, x in {**cols[j], j: cols[j].get(j, 0) - shift}.items() if x}
            for j in indices]


def _kernel(vectors, images):
    """Basis of the kernel of the linear map sending vectors[j] to
    images[j], as combinations of the vectors (nullspace order)."""
    rows = transpose(images).values()
    return [int_entries(lin_comb(sol, vectors)) for sol in nullspace(rows, len(vectors))]


def find_sl2_triple(alg, e):
    """Complete a nilpotent e to (e, h, f) with exact arithmetic.

    h is taken as [e, y] for the least-index-pivot solution of
    (ad e)^2 y = -2e; any such h extends to a triple, and f is then the
    unique deterministic solution of [e,f] = h, [h,f] = -2f.
    """
    if not e:
        raise InputError("e must be nonzero")
    if alg.parity_of(e) != 0:
        raise InputError("e must be even and parity-homogeneous")
    ad_e = _ad_columns(alg, e)
    # (ad e)^2 column by column: [e, [e, x_j]]
    y = solve(transpose([alg.bracket(e, col) for col in ad_e]), vec_scale(-2, e))
    if y is None:
        raise NotMinimalError("e is not sl2-embeddable: (ad e)^2 y = -2e has no solution")
    h = int_entries(alg.bracket(e, y))
    # [e, f] = h on equations i < dim, [h, f] + 2f = 0 on equations dim + i
    rows = transpose(ad_e)
    ad_h2 = _shifted_columns(_ad_columns(alg, h), -2, range(alg.dim))
    for i, row in transpose(ad_h2).items():
        rows[alg.dim + i] = row
    f = solve(rows, h)
    if f is None:
        raise NotMinimalError("no f with [e,f]=h and [h,f]=-2f")
    triple = SL2Triple(e=e, h=h, f=f)
    _assert_triple(alg, triple)
    return triple


def _assert_triple(alg, t):
    if alg.bracket(t.e, t.f) != t.h:
        raise NotMinimalError("triple identity [e,f]=h failed")
    if alg.bracket(t.h, t.e) != vec_scale(2, t.e):
        raise NotMinimalError("triple identity [h,e]=2e failed")
    if alg.bracket(t.h, t.f) != vec_scale(-2, t.f):
        raise NotMinimalError("triple identity [h,f]=-2f failed")


class MinimalSetup:
    """Everything derived from (g, e) for a minimal nilpotent e.

    Immutable after construction; all methods are pure.  The setup fixes
    the PBW letter order g(0), g(1), e, z_1..z_{s+r}, f; the letter tables
    (`_basis_letters`, `bracket_rows`) and the nested brackets (`nested`)
    are built on first use.  Letter coordinates are ints where integral,
    else Fractions, as is every vector of the setup; `lbracket` brackets them.
    """

    def __init__(self, alg, triple, grading, zbasis, zdual, cent, dual_a, dual_b):
        self.alg = alg                    # form already normalized: (e,f)=1
        self.triple = triple
        self.grading = grading            # dict i -> list of vectors
        self.zbasis = list(zbasis)        # z_1..z_{s+r}, even block first
        self.zdual = list(zdual)          # z*_alpha, signed permutation of zbasis
        self.cent = cent                  # dict i -> basis of g^e(i), i=0,1,2
        self.dual_a = list(dual_a)        # dual bases of g^e(0): (a_i, b_j) = delta
        self.dual_b = list(dual_b)
        blocks = ((0, grading[0]), (1, grading[1]), (2, [triple.e]),
                  (-1, self.zbasis), (-2, [triple.f]))
        self.letters = [v for _, vs in blocks for v in vs]
        self.letter_parity = tuple(alg.parity_of(v) for v in self.letters)
        self.letter_grade = tuple(i for i, vs in blocks for _ in vs)
        self.dim = alg.dim
        # letter layout: g(>= 0) is letters[:z_start], with e last, then z, then f
        self.idx_e = len(grading[0]) + len(grading[1])
        self.z_start = self.idx_e + 1
        self.idx_f = len(self.letters) - 1
        self.sdim = self.letter_parity[self.z_start:self.idx_f].count(0)
        self.rdim = len(self.zbasis) - self.sdim
        # g(0) and g(1) letters are x1, x2, ... when even, y1, y2, ... when odd
        counters = (count(1), count(1))
        names = ["%s%d" % ("xy"[p], next(counters[p]))
                 for p in self.letter_parity[:self.idx_e]]
        names += ["e"] + ["z%d" % a for a in range(1, len(self.zbasis) + 1)] + ["f"]
        self.letter_names = tuple(names)
        try:
            self._letter_span = Span(self.letters)
        except ValueError:
            raise DegeneracyError("letter system is not a basis") from None
        self._nested = {}

    # -- linear functionals and maps ------------------------------------

    def chi(self, x):
        """chi(x) = (e, x)."""
        return self.alg.form_value(self.triple.e, x)

    def form(self, x, y):
        return self.alg.form_value(x, y)

    def pairing(self, x, y):
        """<x,y> = (e, [x,y]), the symplectic/symmetric pairing on g(-1)."""
        return self.chi(self.alg.bracket(x, y))

    def sharp(self, x):
        """Project g(0) onto g^e(0): x - (h,x)/2 * h."""
        if not self.in_grade(x, 0):
            raise InputError("sharp expects a vector in g(0)")
        c = Fraction(self.form(self.triple.h, x), 2)
        return lin_comb({0: 1, 1: -c}, (x, self.triple.h))

    def in_grade(self, x, i):
        """x lies in g(i): the letters are a basis of ad h eigenvectors, so
        x does exactly when its letters all have grade i."""
        grade = self.letter_grade
        return all(grade[k] == i for k in self.to_letters(x))

    def in_centralizer(self, x):
        return not self.lbracket({self.idx_e: 1}, self.to_letters(x))

    # -- letters ---------------------------------------------------------

    @cached_property
    def _basis_letters(self):
        """Row i: the letter coordinates of the i-th basis vector of g."""
        return [self._letter_span.coords({i: 1}) for i in range(self.dim)]

    @cached_property
    def bracket_rows(self):
        """rows[i][j] = [letter_i, letter_j] in letters, as a sorted tuple of
        (k, c) with c an int when integral, () when zero: the letters'
        pairwise products (`algebra.pair_products`), each expanded in
        letters, so the table costs the nonzeros, not dim^2 brackets."""
        rows = [[()] * self.dim for _ in range(self.dim)]
        for (i, j), product in pair_products(self.alg, self.letters):
            rows[i][j] = tuple(self.to_letters(product).items())
        return rows

    def to_letters(self, vec):
        """Coordinates of an algebra vector in the letter basis, as a sorted
        dict of nonzero ints and Fractions."""
        self.alg._check(vec)
        out = lin_comb(vec, self._basis_letters)
        return {k: int_if_integral(c) for k, c in sorted(out.items())}

    def letter_bracket(self, i, j):
        """[letter_i, letter_j] expanded in letters."""
        return self.bracket_rows[i][j]

    def lbracket(self, x, y):
        """[x, y] for x and y in letter coordinates, in letter coordinates:
        bilinear over bracket_rows, summed over the nonzeros of x and y."""
        rows, out = self.bracket_rows, {}
        for i, a in x.items():
            row = rows[i]
            for j, b in y.items():
                for k, c in row[j]:
                    out[k] = out.get(k, 0) + a * b * c
        return {k: int_if_integral(c) for k, c in sorted(out.items()) if c}

    @cached_property
    def z_letters(self):
        """(zbasis, zdual) in letter coordinates: z_a is the unit letter
        z_start + a, and z*_a a signed unit letter."""
        return ([{self.z_letter(a): 1} for a in range(len(self.zbasis))],
                [self.to_letters(zd) for zd in self.zdual])

    def nested(self, side, w):
        """{(a, b): [z_b, [z_a, w]]} in letter coordinates over the nonzero
        nested brackets, with z the zbasis on side 0 and the zdual on side
        1; memoised per (side, w).  Theta_w reads side 1 and the closed
        double sum of c0 both sides."""
        key = side, frozenset(w.items())
        out = self._nested.get(key)
        if out is None:
            zs, wl, bracket = self.z_letters[side], self.to_letters(w), self.lbracket
            inner = [(a, bracket(za, wl)) for a, za in enumerate(zs)]     # g(0)
            nested = (((a, b), bracket(zb, x)) for a, x in inner if x
                      for b, zb in enumerate(zs))                          # g(-1)
            out = self._nested[key] = {ab: v for ab, v in nested if v}
        return out

    def z_letter(self, alpha):
        """Letter index of z_alpha (alpha is 0-based here)."""
        return self.z_start + alpha

    def summary(self):
        d0, d1, e0, e1 = kw_numbers(self)
        return {
            "algebra": self.alg.name,
            "dim": self.dim,
            "grading_dims": {str(i): len(self.grading[i]) for i in sorted(self.grading)},
            "s": self.sdim,
            "r": self.rdim,
            "d0": d0,
            "d1": d1,
            "bound_exponents": {"p": str(Fraction(d0, 2)), "two": e1},
        }


def _hyperbolic_basis(setup_pairing, vectors):
    """Hyperbolic basis u_1..u_n for a pairing that is alternating (g(-1)
    even) or symmetric (g(-1) odd): <u_i, u_j> = 0 unless i + j = n + 1,
    and <u_{n+1-i}, u_i> = 1 for i <= n/2, so <u_i, u_{n+1-i}> is -1 when
    alternating.  When n is odd the self-paired middle vector keeps its
    self-pairing, which is nonzero: it is left over only when no isotropic
    pivot remains.  Pivot: the lowest-index isotropic vector, else one made
    isotropic by _isotropic_pivot.
    """
    rem = list(vectors)
    left, right = [], []
    middle = []
    while rem:
        ia = next((i for i, x in enumerate(rem) if setup_pairing(x, x) == 0), None)
        if ia is None:
            if len(rem) == 1:
                middle = [rem.pop()]
                break
            ia = _isotropic_pivot(setup_pairing, rem)
        a = rem.pop(ia)
        jb = next((j for j, x in enumerate(rem) if setup_pairing(a, x) != 0), None)
        if jb is None:
            raise DegeneracyError("pairing on g(-1) is degenerate")
        b = rem.pop(jb)
        b = vec_scale(Fraction(1, setup_pairing(b, a)), b)                  # <b,a> = 1
        b = lin_comb({0: 1, 1: Fraction(-setup_pairing(b, b), 2)}, (b, a))  # make b isotropic
        ab = setup_pairing(a, b)
        rem = [lin_comb({0: 1, 1: Fraction(-setup_pairing(x, b), ab), 2: -setup_pairing(x, a)},
                        (x, a, b)) for x in rem]
        left.append(a)
        right.append(b)
    return [int_entries(v) for v in left + middle + right[::-1]]


def _isotropic_pivot(setup_pairing, rem):
    """Index i of rem once rem[i] = a is replaced by an isotropic a + t b,
    b = rem[j], at the first pair i != j in index order where a rational t
    exists.  No vector of rem is isotropic, so the pairing is symmetric
    (an alternating one makes every vector isotropic) and <b,b> != 0: t is
    a root of <b,b> t^2 + 2<a,b> t + <a,a>, rational exactly when the
    discriminant <a,b>^2 - <a,a><b,b> is the square of a rational."""
    for i, a in enumerate(rem):
        for j, b in enumerate(rem):
            if i == j:
                continue
            ab, bb = setup_pairing(a, b), setup_pairing(b, b)
            disc = Fraction(ab * ab - setup_pairing(a, a) * bb)
            num, den = disc.numerator, disc.denominator
            if num >= 0 and isqrt(num) ** 2 == num and isqrt(den) ** 2 == den:
                root = Fraction(isqrt(num), isqrt(den))
                rem[i] = lin_comb({0: 1, 1: Fraction(root - ab, bb)}, (a, b))
                return i
    raise DegeneracyError(
        "pairing on g(-1): no isotropic pivot among %d remaining vectors" % len(rem))


def _zdual(setup_pairing, zbasis, s, r):
    """z*_alpha as the signed permutation fixed by the pairing normal form."""
    dual = []
    for a in range(1, s + 1):
        sign = 1 if a <= s // 2 else -1
        dual.append(vec_scale(sign, zbasis[s - a]))            # a^nat * z_{s+1-a}
    for a in range(1, r + 1):
        dual.append(zbasis[s + r - a])                         # z_{r+1-a+s}
    for a in range(s + r):
        for b in range(s + r):
            if setup_pairing(dual[a], zbasis[b]) != int(a == b):
                raise DegeneracyError(
                    "pairing normal form failed at (%d,%d)" % (a, b))
    return dual


def _paired_neg1(alg, e, even, odd):
    """The pairing <x,y> = (e,[x,y]) and the z-basis of g(-1) paired by it."""
    def pairing(x, y):
        return alg.form_value(e, alg.bracket(x, y))

    return pairing, _hyperbolic_basis(pairing, even) + _hyperbolic_basis(pairing, odd)


def build_minimal_setup(alg, e):
    """Construct the full minimal setup for a nilpotent e; verifies minimality.

    When r is odd the normal form wants <v,v> = 1 on the middle odd vector
    of g(-1).  If its self-pairing is q != 1, e is rescaled once to e/q and
    f to q*f: h, the grading, the normalized form, g^e and the dual bases
    stay, and g(-1) is paired again.  setup.triple.e is the e used.
    """
    e = {k: int_if_integral(Fraction(c)) for k, c in e.items() if c}
    triple = find_sl2_triple(alg, e)
    alg = normalized_form(alg, triple.e, triple.f)
    if alg.form_value(triple.h, triple.h) != 2:
        raise DegeneracyError("(h,h) != 2 after normalization")

    ad_h = _ad_columns(alg, triple.h)
    grading = {i: [] for i in range(-2, 3)}   # each g(i), even vectors first
    for par in (0, 1):
        idx = [j for j in range(alg.dim) if alg.parity[j] == par]
        for i in grading:           # over unit vectors: re-key each solution
            rows = transpose(_shifted_columns(ad_h, i, idx)).values()
            grading[i] += [{idx[j]: c for j, c in sol.items()}
                           for sol in nullspace(rows, len(idx))]
    total = sum(map(len, grading.values()))
    if total != alg.dim:
        raise NotMinimalError(
            "ad h is not diagonalizable with eigenvalues in -2..2 "
            "(%d of %d dimensions found)" % (total, alg.dim))
    if len(grading[2]) != 1:
        raise NotMinimalError("dim g(2) = %d != 1: e is not minimal" % len(grading[2]))
    if len(grading[-2]) != 1:
        raise NotMinimalError("dim g(-2) = %d != 1" % len(grading[-2]))

    neg1 = grading[-1]
    s = sum(alg.parity_of(v) == EVEN for v in neg1)
    neg1_even, neg1_odd, r = neg1[:s], neg1[s:], len(neg1) - s
    if s % 2 != 0:
        raise NotMinimalError("dim g(-1)_even must be even, got %d" % s)
    pairing, zbasis = _paired_neg1(alg, triple.e, neg1_even, neg1_odd)
    if r % 2:
        middle = zbasis[s + r // 2]
        q = pairing(middle, middle)
        if q != 1:
            triple = SL2Triple(e=int_entries(vec_scale(Fraction(1, q), triple.e)),
                               h=triple.h, f=int_entries(vec_scale(q, triple.f)))
            _assert_triple(alg, triple)
            pairing, zbasis = _paired_neg1(alg, triple.e, neg1_even, neg1_odd)
    zdual = _zdual(pairing, zbasis, s, r)

    # ad e keeps parity, so each kernel is even-first like g(i)
    cent = {i: _kernel(grading[i], [alg.bracket(triple.e, v) for v in grading[i]])
            for i in (0, 1, 2)}
    if len(cent[2]) != 1:
        raise NotMinimalError("g^e(2) is not one-dimensional")

    # b_j = sum_k M[k][j] a_k with gram . M = I: column j of M is the
    # coordinate vector of the j-th unit vector over the gram columns,
    # column j of the gram being {k: (a_k, a_j)}
    dual_a = list(cent[0])
    columns = [{} for _ in dual_a]
    for (k, j), g in restricted_form(alg, dual_a).items():
        columns[j][k] = g
    try:
        gram = Span(columns)
    except ValueError:
        raise DegeneracyError("form degenerate on g^e(0)") from None
    dual_b = [int_entries(lin_comb(gram.coords({j: 1}), dual_a)) for j in range(len(dual_a))]

    setup = MinimalSetup(alg, triple, grading, zbasis, zdual, cent, dual_a, dual_b)
    _post_checks(setup)
    return setup


def _post_checks(setup):
    alg, t = setup.alg, setup.triple
    if setup.chi(t.f) != 1:
        raise DegeneracyError("chi(f) != 1")
    n = len(setup.dual_a)
    for i in range(n):
        for j in range(n):
            if alg.form_value(setup.dual_a[i], setup.dual_b[j]) != int(i == j):
                raise DegeneracyError("dual bases of g^e(0) failed at (%d,%d)" % (i, j))
    if alg.bracket(t.e, setup.cent[2][0]):
        raise NotMinimalError("g^e(2) is not centralized by e")


def kw_numbers(setup):
    """(d0, d1, d0/2, ceil(d1/2)): centralizer codimensions and the bound
    exponents, with the ceiling convention for the power of two."""
    alg = setup.alg
    g_even = sum(1 for p in alg.parity if p == 0)
    g_odd = alg.dim - g_even
    ce = sum(len([v for v in setup.cent[i] if alg.parity_of(v) == 0]) for i in (0, 1, 2))
    co = sum(len([v for v in setup.cent[i] if alg.parity_of(v) == 1]) for i in (0, 1, 2))
    d0 = g_even - ce
    d1 = g_odd - co
    return d0, d1, Fraction(d0, 2), (d1 + 1) // 2


def kw_dimensions(setup):
    """Kac-Weisfeiler data; asserts the parity agreement of r and d1."""
    d0, d1, e_p, e_2 = kw_numbers(setup)
    if (setup.rdim - d1) % 2 != 0:
        raise DegeneracyError("parity of r and d1 disagree: r=%d d1=%d"
                              % (setup.rdim, d1))
    return {
        "d0": d0,
        "d1": d1,
        "exponent_p": e_p,
        "exponent_two": e_2,
        "parity_r": "odd" if setup.rdim % 2 else "even",
    }
