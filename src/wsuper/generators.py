"""Generators of the minimal W-superalgebra inside the Whittaker model.

theta_v and theta_w implement the degree-0 and degree-1 generator formulas;
casimir builds the quadratic Casimir attached to the normalized form.  The
contracted product of the dual-basis generators of degree 0 (ThetaCas) is
summed from the cached generators in relations.SuiteContext.  Every
generator is checked for model membership at construction.
"""

from dataclasses import dataclass
from fractions import Fraction

from .enveloping import EnvElement
from .errors import InputError
from .whittaker import WhittakerElement, is_w_element, project, project_terms

THIRD = Fraction(1, 3)
HALF = Fraction(1, 2)


@dataclass
class WGenerator:
    label: str
    source: dict           # the g^e vector the generator lifts, or e for C
    value: WhittakerElement
    kazhdan_degree: int
    parity: int


def _check_membership(setup, label, value):
    ok, witness = is_w_element(value)
    if not ok:
        raise InputError("%s is not ad-n invariant; ad %s gives %s"
                         % (label, witness[0], witness[1].render()))


def _check_leading(setup, value, source_env, label):
    lead = value.leading()
    want = project(source_env)
    if lead != want:
        raise InputError("%s leading term is %s, expected %s"
                         % (label, lead.render(), want.render()))


def _terms(c, *factors):
    """c times the product of factors, each a {letter: coefficient} map, as
    (word, coefficient) pairs; the words are straightened together later."""
    out = [((), Fraction(c))] if c else []
    for f in factors:
        out = [(w + (i,), x * y) for w, x in out for i, y in f.items()]
    return out


def theta_v(setup, v, check=True):
    """(v - 1/2 sum_a z_a [z*_a, v]) in the model, for v in g^e(0)."""
    if not (setup.in_grade(v, 0) and setup.in_centralizer(v)):
        raise InputError("theta_v expects a vector in g^e(0)")
    terms = _terms(1, setup.to_letters(v))
    for alpha in range(len(setup.zbasis)):
        br = setup.alg.bracket(setup.zdual[alpha], v)     # in g(-1)
        if br:
            terms += _terms(-HALF, {setup.z_letter(alpha): 1}, setup.to_letters(br))
    value = project_terms(setup, terms)
    gen = WGenerator("Theta[%s]" % _vec_label(setup, v), v, value, 2,
                     setup.alg.parity_of(v))
    if check:
        _check_membership(setup, gen.label, value)
        _check_leading(setup, value, EnvElement.from_vector(setup, v), gen.label)
    return gen


def _zz_third(setup, w):
    """D/3 with D = sum_{a,b} z_a z_b [z*_b, [z*_a, w]] in U(g), the part
    both closed forms share, as terms."""
    alg, z = setup.alg, setup.z_letter
    n = len(setup.zbasis)
    terms = []
    for alpha in range(n):
        inner = alg.bracket(setup.zdual[alpha], w)        # in g(0)
        if not inner:
            continue
        for beta in range(n):
            br2 = alg.bracket(setup.zdual[beta], inner)   # in g(-1)
            if br2:
                terms += _terms(THIRD, {z(alpha): 1}, {z(beta): 1},
                                setup.to_letters(br2))
    return terms


def _theta_w_rests(setup, w):
    """Both closed forms of Theta_w without their shared D/3, as terms: the
    correction form w - sum z_a[z*_a,w] - 2/3 [w,f] and the reordered form
    w + sum (-1)^{|a|}[w,z*_a] z_a - (3(s-r)+4)/6 [w,f]."""
    alg, letters = setup.alg, setup.to_letters
    corr = _terms(1, letters(w))
    reord = list(corr)
    for alpha, zd in enumerate(setup.zdual):
        za = {setup.z_letter(alpha): 1}
        br = alg.bracket(zd, w)                           # in g(0)
        if br:
            corr += _terms(-1, za, letters(br))
        br = alg.bracket(w, zd)
        if br:
            sign = -1 if alg.parity_of(setup.zbasis[alpha]) else 1
            reord += _terms(sign, letters(br), za)
    wf = letters(alg.bracket(w, setup.triple.f))          # in g(-1)
    coeff = Fraction(3 * (setup.sdim - setup.rdim) + 4, 6)
    return corr + _terms(-2 * THIRD, wf), reord + _terms(-coeff, wf)


def theta_w(setup, w, check=True):
    """Degree-1 generator; both closed forms are computed and must agree.

    They share D/3 and project is linear, so they agree exactly when the
    rest of each does, and D/3 is straightened once."""
    if not (setup.in_grade(w, 1) and setup.in_centralizer(w)):
        raise InputError("theta_w expects a vector in g^e(1)")
    rest, other = (project_terms(setup, t) for t in _theta_w_rests(setup, w))
    third = project_terms(setup, _zz_third(setup, w))
    value = rest + third
    if rest != other:
        raise InputError("the two generator formulas for %s disagree: %s vs %s"
                         % (_vec_label(setup, w), value.render(),
                            (other + third).render()))
    gen = WGenerator("Theta[%s]" % _vec_label(setup, w), w, value, 3,
                     setup.alg.parity_of(w))
    if check:
        _check_membership(setup, gen.label, value)
        _check_leading(setup, value, EnvElement.from_vector(setup, w), gen.label)
    return gen


def casimir(setup):
    """2e + h^2/2 - (1+(s-r)/2) h + sum (-1)^|i| a_i b_i
    + 2 sum (-1)^|a| [e,z*_a] z_a, as a model element."""
    alg, t, letters = setup.alg, setup.triple, setup.to_letters
    h = letters(t.h)
    terms = _terms(2, letters(t.e)) + _terms(HALF, h, h)
    terms += _terms(-1 - Fraction(setup.sdim - setup.rdim, 2), h)
    for a, b in zip(setup.dual_a, setup.dual_b):
        terms += _terms(-1 if alg.parity_of(a) else 1, letters(a), letters(b))
    for alpha in range(len(setup.zbasis)):
        ez = alg.bracket(t.e, setup.zdual[alpha])         # in g(1)
        if ez:
            sign = -1 if alg.parity_of(setup.zbasis[alpha]) else 1
            terms += _terms(2 * sign, letters(ez), {setup.z_letter(alpha): 1})
    value = project_terms(setup, terms)
    gen = WGenerator("C", t.e, value, 4, 0)
    _check_membership(setup, "C", value)
    return gen


def _vec_label(setup, v):
    coords = setup.to_letters(v)
    if len(coords) == 1:
        (i, c), = coords.items()
        if c == 1:
            return setup.letter_names[i]
    return "+".join("%s%s" % ("" if c == 1 else "%s*" % c, setup.letter_names[i])
                    for i, c in sorted(coords.items()))


def standard_generators(setup):
    """All generators in report order: degree-0 Thetas, degree-1 Thetas, C."""
    gens = []
    for v in setup.cent[0]:
        gens.append(theta_v(setup, v))
    for w in setup.cent[1]:
        gens.append(theta_w(setup, w))
    gens.append(casimir(setup))
    return gens
