"""The Whittaker model: U(g) modulo the left ideal generated by f - 1,
realized on f-free normal words.

With the global letter order of the setup a normal monomial splits as
p-part . z-part . f^k, so projection just evaluates the f-suffix at 1,
and a model element is a sparse map on the normal words that carry no f.
The z-letters generate the Weyl-Clifford algebra attached to the pairing
on g(-1); the product of two model elements straightens the concatenated
words in U(g) and projects, which on ad-n invariants is exactly the
model's associative product.  Commutators, ad-n included, project the
supercommutator of the words, expanded letter by letter by the
superderivation rule, without forming either product.

The model owns the coefficients: every element that arithmetic builds is
computed on integer numerators over one cleared denominator.
_numerators clears an operand's denominators over their lcm, the kernel
or the sum runs into an integer sink, and _project drops the f-suffixes
and divides once per output word.  Products, commutators, term lists and
linear combinations (combine, which +, - and scale also call) all take
this route, so a model element gets one Fraction per output word.
"""

from bisect import bisect_left
from fractions import Fraction
from math import lcm

from .enveloping import kazhdan_degree, straighten, straighten_commutator, weight
from .errors import InputError
from .linalg import ONE, ZERO


class WhittakerElement:
    """Sparse map f-free normal word -> Fraction, with the model product."""

    __slots__ = ("setup", "terms")

    def __init__(self, setup, terms=None):
        self.setup = setup
        self.terms = {} if terms is None else terms

    @classmethod
    def unit(cls, setup, c=1):
        c = Fraction(c)
        return cls(setup, {(): c} if c != 0 else {})

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
        return WhittakerElement(self.setup, {w: -c for w, c in self.terms.items()})

    def scale(self, c):
        return combine(self.setup, [(Fraction(c), self)])

    def __mul__(self, other):
        if isinstance(other, WhittakerElement):
            return multiply_q(self, other)
        return self.scale(other)

    __rmul__ = scale

    def __eq__(self, other):
        return isinstance(other, WhittakerElement) and self.terms == other.terms

    def is_zero(self):
        return not self.terms

    # -- structure --------------------------------------------------------

    def max_kazhdan_degree(self):
        return max((kazhdan_degree(self.setup, w) for w in self.terms), default=0)

    def scalar_part(self):
        """Coefficient of 1 if the element is scalar, else None."""
        if not self.terms:
            return ZERO
        if len(self.terms) == 1 and () in self.terms:
            return self.terms[()]
        return None

    def leading(self):
        """Sub-element of maximal (Kazhdan degree, weight)."""
        setup = self.setup

        def key(word):
            return kazhdan_degree(setup, word), weight(setup, word)

        best = max((key(w) for w in self.terms), default=None)
        return WhittakerElement(setup, {w: c for w, c in self.terms.items()
                                        if key(w) == best})

    def _report_order(self):
        """The words sorted by (p-part, z-part), the split of a model word;
        x1·z1 comes before x1·x2 here, after it as a whole word."""
        z = self.setup.z_start

        def split(word):
            k = bisect_left(word, z)
            return word[:k], word[k:]
        return sorted(self.terms, key=split)

    def render(self):
        if not self.terms:
            return "0"
        chunks = []
        for word in self._report_order():
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

    def as_json(self):
        names = self.setup.letter_names
        out = []
        for word in self._report_order():
            c = self.terms[word]
            out.append({
                "monomial": [names[i] for i in word],
                "coeff": "%d/%d" % (c.numerator, c.denominator),
            })
        return out


def _numerators(pairs):
    """(key, numerator) pairs over d, the lcm of the denominators, and d."""
    d = lcm(*(c.denominator for _, c in pairs))
    return [(w, c.numerator * (d // c.denominator)) for w, c in pairs], d


def _project(setup, sink, d):
    """Image in the model of sink / d: f is the last letter, so the f-run of
    a normal word is a suffix; dropping it evaluates it at chi(f) = 1."""
    idx_f = setup.idx_f
    out = {}
    for word, n in sink.items():
        if word and word[-1] == idx_f:
            word = word[:bisect_left(word, idx_f)]
        out[word] = out.get(word, 0) + n
    return WhittakerElement(setup, {w: Fraction(n, d) for w, n in out.items() if n})


def project(env):
    """Image in the model of a U(g) element, anything with a setup and a
    {normal word: Fraction} map of terms (its Fractions over d = 1)."""
    return _project(env.setup, env.terms, 1)


def combine(setup, terms):
    """sum c * q over (c, q) pairs: each q on its numerators over dq, the lcm
    of its denominators, summed over d, the lcm of c.denominator * dq.  No
    word of a model element carries an f, so the sum is not projected
    (ad_act's one-word (f,) operand goes to the kernel, never here)."""
    parts = [(c, *_numerators(q.terms.items())) for c, q in terms if c]
    d = lcm(*(c.denominator * dq for c, _, dq in parts))
    sink = {}
    for c, nums, dq in parts:
        k = c.numerator * (d // (c.denominator * dq))
        for w, n in nums:
            sink[w] = sink.get(w, 0) + k * n
    return WhittakerElement(setup, {w: Fraction(n, d) for w, n in sink.items() if n})


def product_terms(c, *factors):
    """c times the product of factors, each a {letter: coefficient} map, as
    (word, coefficient) pairs; the words are straightened together later."""
    out = [((), Fraction(c))] if c else []
    for f in factors:
        out = [(w + (i,), x * y) for w, x in out for i, y in f.items()]
    return out


def project_terms(setup, pairs):
    """Image in the model of sum c * word over (word, c) pairs, the
    denominators cleared over the list and each word straightened once."""
    nums, d = _numerators(pairs)
    sink = {}
    for w, n in nums:
        if len(w) > 1:
            straighten(setup, w, n, sink)
        else:                       # 1 or a letter is normal; zeros may stay
            sink[w] = sink.get(w, 0) + n
    return _project(setup, sink, d)


def _over_word_pairs(q1, q2, kernel):
    """Image in the model of kernel(setup, u, v, c1 * c2, sink) summed over
    the word pairs of q1 and q2, run on their integer numerators."""
    setup = q1.setup
    nums1, d1 = _numerators(q1.terms.items())
    nums2, d2 = _numerators(q2.terms.items())
    sink = {}
    for u, n1 in nums1:
        for v, n2 in nums2:
            kernel(setup, u, v, n1 * n2, sink)
    return _project(setup, sink, d1 * d2)


def multiply_q(q1, q2):
    """Model product: straighten each word pair uv in U(g), project.

    Associative on ad-n invariants (and whenever the right factors are
    invariants); that is the only regime the verification suite uses.
    """
    return _over_word_pairs(q1, q2, lambda setup, u, v, c, sink:
                            straighten(setup, u + v, c, sink))


def supercommutator_q(q1, q2):
    """[q1, q2]: the projection of the supercommutator of each word pair,
    extended additively over parity components."""
    return _over_word_pairs(q1, q2, straighten_commutator)


def ad_act(setup, x_letter, q):
    """Adjoint action of a basis letter of n = g(-1) + Cf on the model."""
    if x_letter not in range(len(setup.letters)) or setup.letter_grade[x_letter] >= 0:
        raise InputError("ad_act expects a letter of n = g(-1) + g(-2)")
    return _over_word_pairs(WhittakerElement(setup, {(x_letter,): ONE}), q,
                            straighten_commutator)


def is_w_element(q):
    """Membership in the model's ad-n invariants.

    Returns (True, None) or (False, (letter_name, residue)).
    """
    setup = q.setup
    for letter in (*map(setup.z_letter, range(len(setup.zbasis))), setup.idx_f):
        res = ad_act(setup, letter, q)
        if not res.is_zero():
            return False, (setup.letter_names[letter], res)
    return True, None


def sigma(q):
    """Involution negating monomials of odd Kazhdan degree."""
    setup = q.setup
    return WhittakerElement(setup, {w: -c if kazhdan_degree(setup, w) % 2 else c
                                    for w, c in q.terms.items()})
