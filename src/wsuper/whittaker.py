"""The Whittaker model: U(g) modulo the left ideal generated by f - 1,
realized on f-free normal words.

With the global letter order of the setup a normal monomial splits as
p-part . z-part . f^k, so projection just evaluates the f-suffix at 1,
and a model element is a sparse map on the normal words that carry no f.
The z-letters generate the Weyl-Clifford algebra attached to the pairing
on g(-1); the product of two model elements straightens the concatenated
words in U(g) and projects, which on ad-n invariants is exactly the
model's associative product.  Commutators, ad-n included, project the
supercommutator of the two elements, expanded letter by letter by the
superderivation rule (enveloping.commute), without forming either
product.  The right operand enters commute as its letter index, which
each element builds once and keeps (WhittakerElement.index).  A right
operand that passed is_w_element is killed by ad z, so the caller that
knows it may have commute skip the z-letters of the left words.

The model owns the coefficients.  An element holds integer numerators
over one positive denominator, divided by their gcd, so equal elements
have equal numerators and denominators.  Products, commutators, term
lists and linear combinations (combine, which +, - and scale also call)
run on those integers: each straightens all its words in one call, or
sums them, into one {word: numerator} dict, and _project drops the
f-suffixes and reduces that dict once.  The Fractions of an element,
`terms`, are built only when a test reads them.
"""

from bisect import bisect_left
from fractions import Fraction
from math import gcd, lcm

from .enveloping import commute, kazhdan_degree, letter_index, straighten, weight
from .errors import InputError


class WhittakerElement:
    """Sparse map f-free normal word -> rational, with the model product:
    nums, {word: nonzero int}, over den, with gcd(den, nums) = 1.  Its
    letter index, read by every commutator with it on the right, is built
    on the first read and kept: nothing writes nums after construction,
    so the index never goes stale."""

    __slots__ = ("setup", "nums", "den", "_index")

    def __init__(self, setup, terms=None, den=1):
        """The element terms / den: terms maps words to ints or Fractions,
        zeros allowed, and den is a positive int."""
        self.setup = setup
        self.nums, self.den = _canonical(terms or {}, den)
        self._index = None

    @property
    def index(self):
        """enveloping.letter_index of the numerators."""
        if self._index is None:
            self._index = letter_index(self.setup, self.nums.items())
        return self._index

    @property
    def terms(self):
        """{word: nonzero Fraction}, built on each read: the view of the
        element that the tests take."""
        d = self.den
        return {w: Fraction(n, d) for w, n in self.nums.items()}

    @classmethod
    def unit(cls, setup, c=1):
        return cls(setup, {(): c})

    @classmethod
    def from_vector(cls, setup, vec):
        """Image of an algebra vector: one letter word per nonzero
        coordinate, with f read as chi(f) = 1."""
        f = setup.idx_f
        return cls(setup, {(i,) if i != f else (): c
                           for i, c in setup.to_letters(vec).items()})

    # -- ring structure ---------------------------------------------------

    def __add__(self, other):
        return combine(self.setup, [(1, self), (1, other)])

    def __sub__(self, other):
        return combine(self.setup, [(1, self), (-1, other)])

    def __neg__(self):
        return WhittakerElement(self.setup, {w: -n for w, n in self.nums.items()}, self.den)

    def scale(self, c):
        return combine(self.setup, [(Fraction(c), self)])

    def __mul__(self, other):
        if isinstance(other, WhittakerElement):
            return multiply_q(self, other)
        return self.scale(other)

    __rmul__ = scale

    def __eq__(self, other):
        return (isinstance(other, WhittakerElement) and self.den == other.den
                and self.nums == other.nums)

    def is_zero(self):
        return not self.nums

    # -- structure --------------------------------------------------------

    def max_kazhdan_degree(self):
        return max((kazhdan_degree(self.setup, w) for w in self.nums), default=0)

    def scalar_part(self):
        """Coefficient of 1 if the element is scalar, else None."""
        if not self.nums:
            return 0
        if len(self.nums) == 1 and () in self.nums:
            return Fraction(self.nums[()], self.den)
        return None

    def leading(self):
        """Sub-element of maximal (Kazhdan degree, weight)."""
        setup = self.setup

        keys = {w: (kazhdan_degree(setup, w), weight(setup, w)) for w in self.nums}
        best = max(keys.values(), default=None)
        return WhittakerElement(setup, {w: n for w, n in self.nums.items()
                                        if keys[w] == best}, self.den)

    def _report_terms(self):
        """(word, Fraction) pairs, the words sorted by (p-part, z-part), the
        split of a model word; x1·z1 comes before x1·x2 here, after it as a
        whole word."""
        z, d = self.setup.z_start, self.den

        def split(word):
            k = bisect_left(word, z)
            return word[:k], word[k:]
        return [(w, Fraction(self.nums[w], d)) for w in sorted(self.nums, key=split)]

    def render(self):
        if not self.nums:
            return "0"
        chunks = []
        for word, c in self._report_terms():
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

    def as_json(self):
        names = self.setup.letter_names
        out = []
        for word, c in self._report_terms():
            out.append({
                "monomial": [names[i] for i in word],
                "coeff": "%d/%d" % (c.numerator, c.denominator),
            })
        return out


def _canonical(sink, d):
    """(nums, den) of sink / d, for d > 0 and a sink of ints, or of
    Fractions where an odd square halved an odd coefficient or a letter
    bracket has one: cleared to ints over one denominator and divided by
    their gcd with it."""
    nums = {w: n for w, n in sink.items() if n}
    dens = [n.denominator for n in nums.values() if type(n) is not int]
    if dens:
        m = lcm(*dens)
        nums = {w: (n * m).numerator for w, n in nums.items()}
        d *= m
    g = gcd(d, *nums.values())
    if g != 1:
        nums = {w: n // g for w, n in nums.items()}
        d //= g
    return nums, d


def _project(setup, sink, d):
    """Image in the model of sink / d: f is the last letter, so the f-run of
    a normal word is a suffix; dropping it evaluates it at chi(f) = 1."""
    idx_f = setup.idx_f
    out = {}
    for word, n in sink.items():
        if word and word[-1] == idx_f:
            word = word[:bisect_left(word, idx_f)]
        out[word] = out.get(word, 0) + n
    return WhittakerElement(setup, out, d)


def project(env):
    """Image in the model of a U(g) element, anything with a setup and a
    {normal word: rational} map of terms."""
    return _project(env.setup, env.terms, 1)


def combine(setup, terms):
    """sum c * q over (c, q) pairs, the numerators of each q put over d,
    the lcm of c.denominator * q.den, and summed.  No word of a model
    element carries an f, so the sum is not projected."""
    parts = [(c, q) for c, q in terms if c and q.nums]
    d = lcm(*(c.denominator * q.den for c, q in parts))
    sink = {}
    for c, q in parts:
        k = c.numerator * (d // (c.denominator * q.den))
        for w, n in q.nums.items():
            sink[w] = sink.get(w, 0) + k * n
    return WhittakerElement(setup, sink, d)


def product_terms(c, *factors):
    """c times the product of factors, each a {letter: coefficient} map, as
    (word, coefficient) pairs; the words are straightened together later."""
    out = [((), c)] if c else []
    for f in factors:
        out = [(w + (i,), x * y) for w, x in out for i, y in f.items()]
    return out


def project_terms(setup, pairs):
    """Image in the model of sum c * word over a list of (word, c) pairs,
    the denominators cleared over the list and its words straightened in
    one call."""
    d = lcm(*(c.denominator for _, c in pairs))
    return _project(setup, straighten(
        setup, ((w, c.numerator * (d // c.denominator)) for w, c in pairs)), d)


def multiply_q(q1, q2):
    """Model product: every word pair uv straightened in U(g) in one call
    and projected.

    Associative on ad-n invariants (and whenever the right factors are
    invariants); that is the only regime the verification suite uses.
    """
    setup = q1.setup
    return _project(setup, straighten(setup, [(u + v, m * n) for u, m in q1.nums.items()
                                              for v, n in q2.nums.items()]),
                    q1.den * q2.den)


def supercommutator_q(q1, q2, invariant=False):
    """[q1, q2]: the projection of the supercommutator of the two
    elements, extended additively over parity components.  invariant
    says that q2 passed is_w_element, so commute walks only the
    p-letters of q1's words."""
    setup = q1.setup
    return _project(setup, commute(setup, q1.nums.items(), q2.index, invariant),
                    q1.den * q2.den)


def ad_act(setup, x_letter, q):
    """Adjoint action of a basis letter of n = g(-1) + Cf on the model."""
    if x_letter not in range(len(setup.letters)) or setup.letter_grade[x_letter] >= 0:
        raise InputError("ad_act expects a letter of n = g(-1) + g(-2)")
    return _project(setup, commute(setup, [((x_letter,), 1)], q.index), q.den)


def is_w_element(q):
    """Membership in the model's ad-n invariants, n = g(-1) + Cf.

    Returns (True, None) or (False, (letter_name, residue)) at the first z
    letter whose ad is nonzero; ad f is applied only when g(-1) = 0.  That
    is exact.  ad x preserves the left ideal U(g)(f - 1) for x in n, since
    [x, f] lies in g(-3) = 0, so ad is an action of n on the model.  With
    (e, f) = 1, [z_a, z_b] = <z_a, z_b> f, and a nondegenerate pairing on
    g(-1) != 0 has a pair with <z_a, z_b> != 0, so
    ad f = (ad z_a ad z_b - (-1)^{|a||b|} ad z_b ad z_a) / <z_a, z_b>
    kills every q that each ad z kills.
    """
    setup = q.setup
    for letter in range(setup.z_start, setup.idx_f) or (setup.idx_f,):
        res = ad_act(setup, letter, q)
        if not res.is_zero():
            return False, (setup.letter_names[letter], res)
    return True, None


def sigma(q):
    """Involution negating monomials of odd Kazhdan degree."""
    setup = q.setup
    return WhittakerElement(setup, {w: -n if kazhdan_degree(setup, w) % 2 else n
                                    for w, n in q.nums.items()}, q.den)
