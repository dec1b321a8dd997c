"""PBW normal-form arithmetic in U(g) over a minimal setup's letter basis.

A monomial is a tuple of letter indices, non-decreasing in the global
order (g(0), g(1), e, z's, f); odd letters never repeat.  Out-of-order
neighbours a.b rewrite to (-1)^{|a||b|} b.a + [a,b]; an odd square x.x
rewrites to [x,x]/2.  Rewriting scans from the right so the reduction is
a single right-to-left pass for nearly-sorted products.

A product, a commutator or a list of terms is straightened on integer
numerators over one cleared denominator into an integer sink; the caller
divides once per output word, the Whittaker model after dropping f-suffixes.

A supercommutator of two normal words is expanded by the superderivation
rule into words one letter shorter, so the top terms of uv and vu, which
cancel, are never formed.
"""

from fractions import Fraction
from math import lcm

from .errors import InputError
from .linalg import ZERO


def straighten(setup, word, coeff, sink):
    """Reduce one word to normal form, accumulating into the sink dict."""
    par, rows = setup.letter_parity, setup.bracket_rows
    stack = [(tuple(word), coeff)]
    while stack:
        w, c = stack.pop()
        pos = None
        for i in range(len(w) - 2, -1, -1):
            a, b = w[i], w[i + 1]
            if a > b or (a == b and par[a]):
                pos = i
                break
        if pos is None:
            prev = sink.get(w, 0) + c
            if prev == 0:
                sink.pop(w, None)
            else:
                sink[w] = prev
            continue
        a, b = w[pos], w[pos + 1]
        head, tail = w[:pos], w[pos + 2:]
        if a == b:
            for k, ck in rows[a][a]:
                x = c * ck              # halved exactly: an int stays an int
                stack.append((head + (k,) + tail, x // 2 if type(x) is int
                              and not x & 1 else Fraction(x, 2)))
        else:
            stack.append((head + (b, a) + tail, -c if par[a] and par[b] else c))
            for k, ck in rows[a][b]:
                stack.append((head + (k,) + tail, c * ck))


def straighten_commutator(setup, u, v, c, sink):
    """Accumulate c * [u, v] of two normal words into the sink dict.

    ad is a superderivation, so
    [u, v] = sum_{i,j} (-1)^{|v||u_>i| + |u_i||v_<j|} u_<i v_<j [u_i, v_j] v_>j u_>i,
    and each term is straightened on its own.
    """
    par, rows = setup.letter_parity, setup.bracket_rows
    pv = sum(par[b] for b in v) & 1
    tail_par = 0                        # |u_>i|, walking i from the right
    for i in range(len(u) - 1, -1, -1):
        a = u[i]
        head, tail = u[:i], u[i + 1:]
        sign = pv & tail_par
        row = rows[a]
        for j, b in enumerate(v):
            bracket = row[b]
            if bracket:
                cij = -c if sign else c
                left, right = head + v[:j], v[j + 1:] + tail
                for k, ck in bracket:
                    straighten(setup, left + (k,) + right, cij * ck, sink)
            sign ^= par[a] & par[b]
        tail_par ^= par[a]


def _numerators(pairs):
    """(word, numerator) pairs over d, the lcm of the denominators, and d."""
    d = lcm(*(c.denominator for _, c in pairs))
    return [(w, c.numerator * (d // c.denominator)) for w, c in pairs], d


def straighten_product(setup, u, v, c, sink):
    """Accumulate c * uv of two normal words into the sink dict."""
    straighten(setup, u + v, c, sink)


def over_word_pairs(setup, terms1, terms2, kernel):
    """Run kernel(setup, u, v, n1 * n2, sink) over every word pair on integer
    numerators; the integer sink and its one denominator."""
    nums1, d1 = _numerators(terms1.items())
    nums2, d2 = _numerators(terms2.items())
    sink = {}
    for u, n1 in nums1:
        for v, n2 in nums2:
            kernel(setup, u, v, n1 * n2, sink)
    return sink, d1 * d2


def straighten_terms(setup, pairs):
    """sum c * word over (word, c) pairs straightened, the denominators
    cleared over the list first: the integer sink and its one denominator."""
    nums, d = _numerators(pairs)
    sink = {}
    for w, n in nums:
        if len(w) > 1:
            straighten(setup, w, n, sink)
        else:                       # 1 or a letter is normal; zeros may stay
            sink[w] = sink.get(w, 0) + n
    return sink, d


def _divided(sink, d):
    return {w: Fraction(n, d) for w, n in sink.items()}


def commutator_terms(setup, terms1, terms2):
    """Normal form of [x, y] for sparse word maps x and y, word pair by
    word pair, so mixed parity needs no splitting."""
    return _divided(*over_word_pairs(setup, terms1, terms2, straighten_commutator))


def word_parity(setup, word):
    return sum(setup.letter_parity[i] for i in word) & 1


def kazhdan_degree(setup, word):
    """Sum of (grade + 2) over the letters of the monomial."""
    return sum(setup.letter_grade[i] + 2 for i in word)


def weight(setup, word):
    """Grade sum over p-letters minus the g(-1) letter count; f contributes 0."""
    total = 0
    for i in word:
        g = setup.letter_grade[i]
        if g >= 0:
            total += g
        elif g == -1:
            total -= 1
    return total


class EnvElement:
    """Element of U(g) as a sparse map from normal monomials to Fractions."""

    __slots__ = ("setup", "terms")

    def __init__(self, setup, terms=None):
        self.setup = setup
        self.terms = {} if terms is None else terms

    # -- constructors ----------------------------------------------------

    @classmethod
    def unit(cls, setup, c=1):
        c = Fraction(c)
        return cls(setup, {(): c} if c != 0 else {})

    @classmethod
    def from_letter(cls, setup, i, c=1):
        c = Fraction(c)
        return cls(setup, {(i,): c} if c != 0 else {})

    @classmethod
    def from_vector(cls, setup, vec):
        return cls(setup, {(i,): c for i, c in setup.to_letters(vec).items()})

    @classmethod
    def from_word(cls, setup, word, c=1):
        out = {}
        straighten(setup, tuple(word), Fraction(c), out)
        return cls(setup, out)

    # -- ring structure ---------------------------------------------------
    # Results are built as type(self), so a model element stays one.

    def __add__(self, other):
        out = dict(self.terms)
        for w, c in other.terms.items():
            v = out.get(w, ZERO) + c
            if v == 0:
                out.pop(w, None)
            else:
                out[w] = v
        return type(self)(self.setup, out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return type(self)(self.setup, {w: -c for w, c in self.terms.items()})

    def scale(self, c):
        c = Fraction(c)
        if c == 0:
            return type(self)(self.setup)
        return type(self)(self.setup, {w: c * v for w, v in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, EnvElement):
            return EnvElement(self.setup, _divided(*over_word_pairs(
                self.setup, self.terms, other.terms, straighten_product)))
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    def __eq__(self, other):
        return type(other) is type(self) and self.terms == other.terms

    def is_zero(self):
        return not self.terms

    # -- structure --------------------------------------------------------

    def parity(self):
        """0/1 for homogeneous elements, None for 0 or mixed."""
        p = None
        for w in self.terms:
            wp = word_parity(self.setup, w)
            if p is None:
                p = wp
            elif p != wp:
                return None
        return p

    def max_kazhdan_degree(self):
        return max((kazhdan_degree(self.setup, w) for w in self.terms), default=0)

    def report_key(self, word):
        """Sort key of a monomial in rendered reports."""
        return word

    def render(self):
        if not self.terms:
            return "0"
        chunks = []
        for word in sorted(self.terms, key=self.report_key):
            c = self.terms[word]
            body = "·".join(self.setup.letter_names[i] for i in word) if word else "1"
            if c == 1 and word:
                txt = body
            elif c == -1 and word:
                txt = "-" + body
            else:
                txt = "%s·%s" % (c, body) if word else str(c)
            chunks.append(txt)
        out = chunks[0]
        for t in chunks[1:]:
            out += " - " + t[1:] if t.startswith("-") else " + " + t
        return out

    __repr__ = render


def supercommutator(u, v):
    """uv - (-1)^{|u||v|} vu for parity-homogeneous u, v."""
    pu, pv = u.parity(), v.parity()
    if (pu is None and not u.is_zero()) or (pv is None and not v.is_zero()):
        raise InputError("supercommutator needs parity-homogeneous arguments")
    return EnvElement(u.setup, commutator_terms(u.setup, u.terms, v.terms))
