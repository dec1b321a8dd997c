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

Products, commutators and term lists are projected on the kernel's integer
sink, so a model element gets one Fraction per output word.
"""

from bisect import bisect_left
from fractions import Fraction

from .enveloping import (kazhdan_degree, over_word_pairs, straighten_commutator,
                         straighten_product, straighten_terms, weight)
from .errors import InputError
from .linalg import ZERO


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
        out = dict(self.terms)
        for w, c in other.terms.items():
            v = out.get(w, ZERO) + c
            if v == 0:
                out.pop(w, None)
            else:
                out[w] = v
        return WhittakerElement(self.setup, out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return WhittakerElement(self.setup, {w: -c for w, c in self.terms.items()})

    def scale(self, c):
        c = Fraction(c)
        if c == 0:
            return WhittakerElement(self.setup)
        return WhittakerElement(self.setup, {w: c * v for w, v in self.terms.items()})

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


def product_terms(c, *factors):
    """c times the product of factors, each a {letter: coefficient} map, as
    (word, coefficient) pairs; the words are straightened together later."""
    out = [((), Fraction(c))] if c else []
    for f in factors:
        out = [(w + (i,), x * y) for w, x in out for i, y in f.items()]
    return out


def project_terms(setup, pairs):
    """Image in the model of sum c * word over (word, c) pairs, each word
    straightened once on integer numerators."""
    return _project(setup, *straighten_terms(setup, pairs))


def multiply_q(q1, q2):
    """Model product: straighten each word pair uv in U(g), project.

    Associative on ad-n invariants (and whenever the right factors are
    invariants); that is the only regime the verification suite uses.
    """
    return _project(q1.setup, *over_word_pairs(q1.setup, q1.terms, q2.terms,
                                               straighten_product))


def supercommutator_q(q1, q2):
    """[q1, q2]: the projection of the supercommutator of each word pair,
    extended additively over parity components."""
    return _project(q1.setup, *over_word_pairs(q1.setup, q1.terms, q2.terms,
                                               straighten_commutator))


def ad_act(setup, x_letter, q):
    """Adjoint action of a basis letter of n = g(-1) + Cf on the model."""
    if x_letter not in range(len(setup.letters)) or setup.letter_grade[x_letter] >= 0:
        raise InputError("ad_act expects a letter of n = g(-1) + g(-2)")
    return _project(setup, *over_word_pairs(setup, {(x_letter,): 1}, q.terms,
                                            straighten_commutator))


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
