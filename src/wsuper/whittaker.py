"""The Whittaker model: U(g) modulo the left ideal generated by f - 1,
realized on f-free normal words.

With the global letter order of the setup a normal monomial splits as
p-part . z-part . f^k, so projection just evaluates the f-suffix at 1,
and a model element is an EnvElement whose words carry no f.
The z-letters generate the Weyl-Clifford algebra attached to the pairing
on g(-1); products of model elements are computed by lifting to U(g),
multiplying, and projecting back, which on ad-n invariants is exactly the
model's associative product.  Commutators, ad-n included, project the
supercommutator of the lifts, expanded letter by letter by the
superderivation rule, without forming either product.
"""

from bisect import bisect_left

from .enveloping import EnvElement, commutator_terms, kazhdan_degree, weight
from .errors import InputError
from .linalg import ZERO


class WhittakerElement(EnvElement):
    """Sparse map f-free normal word -> Fraction, with the model product."""

    __slots__ = ()

    def __mul__(self, other):
        if isinstance(other, WhittakerElement):
            return multiply_q(self, other)
        return self.scale(other)

    def report_key(self, word):
        """(p-part, z-part): reports order by the split, which differs from
        the order of whole words: x1·z1 comes before x1·x2 here, after it
        as a word."""
        k = bisect_left(word, self.setup.z_start)
        return word[:k], word[k:]

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

    def as_json(self):
        names = self.setup.letter_names
        out = []
        for word in sorted(self.terms, key=self.report_key):
            c = self.terms[word]
            out.append({
                "monomial": [names[i] for i in word],
                "coeff": "%d/%d" % (c.numerator, c.denominator),
            })
        return out


def project(env):
    """Image in the model: f is the last letter, so the f-run of a normal
    word is a suffix; dropping it evaluates it at chi(f) = 1."""
    idx_f = env.setup.idx_f
    out = {}
    for word, c in env.terms.items():
        key = word[:bisect_left(word, idx_f)]
        v = out.get(key, ZERO) + c
        if v == 0:
            out.pop(key, None)
        else:
            out[key] = v
    return WhittakerElement(env.setup, out)


def lift(q):
    """Canonical f-free preimage in U(g): the same words, already normal."""
    return EnvElement(q.setup, dict(q.terms))


def multiply_q(q1, q2):
    """Model product: lift, multiply in U(g), project.

    Associative on ad-n invariants (and whenever the right factors are
    invariants); that is the only regime the verification suite uses.
    """
    return project(lift(q1) * lift(q2))


def supercommutator_q(q1, q2):
    """[q1, q2]: the projection of the supercommutator of the lifts,
    extended additively over parity components."""
    return project(EnvElement(q1.setup, commutator_terms(q1.setup, q1.terms, q2.terms)))


def ad_act(setup, x_letter, q):
    """Adjoint action of a basis letter of n = g(-1) + Cf on the model."""
    if setup.letter_grade[x_letter] >= 0:
        raise InputError("ad_act expects a letter of n = g(-1) + g(-2)")
    return project(EnvElement(setup, commutator_terms(setup, {(x_letter,): 1}, q.terms)))


def is_w_element(q):
    """Membership in the model's ad-n invariants.

    Returns (True, None) or (False, (letter_name, residue)).
    """
    setup = q.setup
    for alpha in range(len(setup.zbasis)):
        letter = setup.z_letter(alpha)
        res = ad_act(setup, letter, q)
        if not res.is_zero():
            return False, (setup.letter_names[letter], res)
    res = ad_act(setup, setup.idx_f, q)
    if not res.is_zero():
        return False, (setup.letter_names[setup.idx_f], res)
    return True, None


def sigma(q):
    """Involution negating monomials of odd Kazhdan degree."""
    setup = q.setup
    return WhittakerElement(setup, {w: -c if kazhdan_degree(setup, w) % 2 else c
                                    for w, c in q.terms.items()})


def env_from_zvector(setup, vec):
    """A g(-1) vector as a z-letter combination (degree-1 EnvElement)."""
    coords = setup.to_letters(vec)
    bad = [i for i in coords if setup.letter_grade[i] != -1]
    if bad:
        raise InputError("vector is not in g(-1)")
    return EnvElement(setup, {(i,): c for i, c in coords.items()})
