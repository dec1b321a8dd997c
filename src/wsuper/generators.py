"""Generators of the minimal W-superalgebra inside the Whittaker model.

theta_v and theta_w implement the degree-0 and degree-1 generator formulas;
casimir builds the quadratic Casimir attached to the normalized form, whose
leading term is 2e.  standard_generators lists them all, Theta of each
vector of the basis cent[0] + cent[1] + [2e] in turn, so C is Theta of 2e;
relations.SuiteContext.gens is that list, and ThetaCas, the contracted
product of the dual-basis generators of degree 0, is summed from it there.
Every generator is checked for model membership at construction.
"""

from dataclasses import dataclass
from fractions import Fraction

from .errors import InputError
from .linalg import vec_scale
from .whittaker import WhittakerElement, is_w_element, product_terms, project_terms

THIRD = Fraction(1, 3)
HALF = Fraction(1, 2)


@dataclass
class WGenerator:
    label: str
    source: dict           # the g^e vector the generator lifts, 2e for C
    value: WhittakerElement
    kazhdan_degree: int
    parity: int


def _check_membership(label, value):
    ok, witness = is_w_element(value)
    if not ok:
        raise InputError("%s is not ad-n invariant; ad %s gives %s"
                         % (label, witness[0], witness[1].render()))


def _generator(setup, source, value, degree, check):
    """Theta of source as a WGenerator; check asks for its model membership
    and for its leading term to be source itself."""
    gen = WGenerator("Theta[%s]" % _vec_label(setup, source), source, value,
                     degree, setup.alg.parity_of(source))
    if check:
        _check_membership(gen.label, value)
        lead = value.leading()
        want = WhittakerElement.from_vector(setup, source)
        if lead != want:
            raise InputError("%s leading term is %s, expected %s"
                             % (gen.label, lead.render(), want.render()))
    return gen


def theta_v(setup, v, check=True):
    """(v - 1/2 sum_a z_a [z*_a, v]) in the model, for v in g^e(0)."""
    if not (setup.in_grade(v, 0) and setup.in_centralizer(v)):
        raise InputError("theta_v expects a vector in g^e(0)")
    vl = setup.to_letters(v)
    terms = product_terms(1, vl)
    for za, zd in zip(*setup.z_letters):
        br = setup.lbracket(zd, vl)                        # in g(-1)
        if br:
            terms += product_terms(-HALF, za, br)
    return _generator(setup, v, project_terms(setup, terms), 2, check)


def _zz_third(setup, w):
    """D/3 with D = sum_{a,b} z_a z_b [z*_b, [z*_a, w]] in U(g), the part
    both closed forms share, as terms; the nested brackets are side 1 of
    the setup's memo, which c0_double_sum reads too."""
    z = setup.z_letters[0]
    return [t for (alpha, beta), br2 in setup.nested(1, w).items()
            for t in product_terms(THIRD, z[alpha], z[beta], br2)]


def _theta_w_rests(setup, w):
    """Both closed forms of Theta_w without their shared D/3, as terms: the
    correction form w - sum z_a[z*_a,w] - 2/3 [w,f] and the reordered form
    w + sum (-1)^{|a|}[w,z*_a] z_a - (3(s-r)+4)/6 [w,f]."""
    bracket, wl = setup.lbracket, setup.to_letters(w)
    corr = product_terms(1, wl)
    reord = list(corr)
    for z, (za, zd) in enumerate(zip(*setup.z_letters), setup.z_start):
        br = bracket(zd, wl)                              # in g(0)
        if br:
            corr += product_terms(-1, za, br)
        br = bracket(wl, zd)
        if br:
            reord += product_terms(-1 if setup.letter_parity[z] else 1, br, za)
    wf = bracket(wl, {setup.idx_f: 1})                    # in g(-1)
    coeff = Fraction(3 * (setup.sdim - setup.rdim) + 4, 6)
    return corr + product_terms(-2 * THIRD, wf), reord + product_terms(-coeff, wf)


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
    return _generator(setup, w, value, 3, check)


def casimir(setup):
    """2e + h^2/2 - (1+(s-r)/2) h + sum (-1)^|i| a_i b_i
    + 2 sum (-1)^|a| [e,z*_a] z_a, as a model element."""
    alg, t, letters = setup.alg, setup.triple, setup.to_letters
    h, e = letters(t.h), {setup.idx_e: 1}
    terms = product_terms(2, e) + product_terms(HALF, h, h)
    terms += product_terms(-1 - Fraction(setup.sdim - setup.rdim, 2), h)
    for a, b in zip(setup.dual_a, setup.dual_b):
        terms += product_terms(-1 if alg.parity_of(a) else 1, letters(a), letters(b))
    for z, (za, zd) in enumerate(zip(*setup.z_letters), setup.z_start):
        ez = setup.lbracket(e, zd)                        # in g(1)
        if ez:
            terms += product_terms(-2 if setup.letter_parity[z] else 2, ez, za)
    value = project_terms(setup, terms)
    _check_membership("C", value)
    return WGenerator("C", vec_scale(2, t.e), value, 4, 0)


def _vec_label(setup, v):
    coords = setup.to_letters(v)
    if len(coords) == 1:
        (i, c), = coords.items()
        if c == 1:
            return setup.letter_names[i]
    return "+".join("%s%s" % ("" if c == 1 else "%s*" % c, setup.letter_names[i])
                    for i, c in sorted(coords.items()))


def standard_generators(setup):
    """All generators in report order, Theta of cent[0] + cent[1] + [2e]:
    degree-0 Thetas, degree-1 Thetas, C."""
    gens = []
    for v in setup.cent[0]:
        gens.append(theta_v(setup, v))
    for w in setup.cent[1]:
        gens.append(theta_w(setup, w))
    gens.append(casimir(setup))
    return gens
