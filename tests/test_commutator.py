"""Property test: the superderivation kernel for [u, v] equals the product
definition uv - (-1)^{|u||v|} vu, and the model commutators built on it
(supercommutator_q, ad_act) equal the projection of the lifted products;
the model's linear combinations (+, -, scale, combine) equal the sums
term by term.  Whatever runs on integer numerators inside, every
coefficient these return is a nonzero Fraction."""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from oracles import (EnvElement, ad_by_projection, commutator_by_projection,
                     commutator_terms, multiply_by_projection, word_parity)
from wsuper.enveloping import straighten_commutator
from wsuper.whittaker import (WhittakerElement, ad_act, combine, multiply_q,
                              project, project_terms, supercommutator_q)

from conftest import get_setup

ALGEBRAS = ("sl(2|1)", "osp(3|2)", "psl22")
# 1/3 and -2/5 make denominators that are not powers of 2: a max of the
# denominators in place of their lcm must fail here
COEFFS = st.sampled_from([Fraction(1), Fraction(-1), Fraction(1, 2),
                          Fraction(-3, 2), Fraction(2), Fraction(1, 3),
                          Fraction(-2, 5)])


def _pool(setup, model):
    """Letters to draw from, weighted towards odd letters, e, f and the z's;
    model words carry no f."""
    pool = list(range(setup.dim))
    pool += [i for i in range(setup.dim) if setup.letter_parity[i]] * 2
    pool += [setup.z_letter(a) for a in range(len(setup.zbasis))] * 2
    pool += [setup.idx_e] * 3 + [setup.idx_f] * 3
    return [i for i in pool if not (model and i == setup.idx_f)]


def _normal(setup, letters):
    """Sorted, with a repeated odd letter kept once: a normal word."""
    word = []
    for i in sorted(letters):
        if not (word and word[-1] == i and setup.letter_parity[i]):
            word.append(i)
    return tuple(word)


@st.composite
def elements(draw, setup, model):
    """A sum of up to three normal words, of mixed parity in general."""
    pool = _pool(setup, model)
    words = draw(st.lists(st.lists(st.sampled_from(pool), max_size=4),
                          min_size=1, max_size=3))
    terms = {}
    for letters in words:
        terms[_normal(setup, letters)] = draw(COEFFS)
    return terms


@st.composite
def cases(draw, model=False):
    setup = get_setup(draw(st.sampled_from(ALGEBRAS)))
    return setup, draw(elements(setup, model)), draw(elements(setup, model))


def _product_commutator(setup, terms1, terms2):
    """sum over word pairs of c1 c2 (u v - (-1)^{|u||v|} v u), by products."""
    out = EnvElement(setup)
    for u, c1 in terms1.items():
        for v, c2 in terms2.items():
            uv = EnvElement.from_word(setup, u + v, c1 * c2)
            vu = EnvElement.from_word(setup, v + u, c1 * c2)
            odd = word_parity(setup, u) and word_parity(setup, v)
            out = out + uv + vu if odd else out + uv - vu
    return out


@settings(derandomize=True, max_examples=150, deadline=None, database=None)
@given(case=cases())
def test_kernel_equals_the_product_definition(case):
    setup, terms1, terms2 = case
    for u, c1 in terms1.items():
        for v, c2 in terms2.items():
            sink = {}
            straighten_commutator(setup, u, v, c1 * c2, sink)
            assert EnvElement(setup, sink) == \
                _product_commutator(setup, {u: c1}, {v: c2}), (u, v)


@settings(derandomize=True, max_examples=150, deadline=None, database=None)
@given(case=cases(model=True))
def test_model_commutators_equal_the_projected_products(case):
    setup, terms1, terms2 = case
    q1, q2 = WhittakerElement(setup, terms1), WhittakerElement(setup, terms2)
    assert supercommutator_q(q1, q2) == \
        project(_product_commutator(setup, terms1, terms2))
    x = setup.z_letter(0)
    for letter in (x, setup.idx_f):
        xq = project(_product_commutator(setup, {(letter,): Fraction(1)}, terms2))
        assert ad_act(setup, letter, q2) == xq
    # on one homogeneous word pair the model product is the other route
    (u, c1), (v, c2) = next(iter(terms1.items())), next(iter(terms2.items()))
    a, b = WhittakerElement(setup, {u: c1}), WhittakerElement(setup, {v: c2})
    sign = -1 if word_parity(setup, u) and word_parity(setup, v) else 1
    assert supercommutator_q(a, b) == \
        multiply_q(a, b) - multiply_q(b, a).scale(sign)


@settings(derandomize=True, max_examples=150, deadline=None, database=None)
@given(case=cases())
def test_model_operations_equal_the_projected_fraction_route(case):
    # words with f-suffixes in and out: the f-runs are dropped on the
    # integer sink, the oracles project EnvElements of Fractions
    setup, terms1, terms2 = case
    q1, q2 = WhittakerElement(setup, terms1), WhittakerElement(setup, terms2)
    assert multiply_q(q1, q2) == multiply_by_projection(q1, q2)
    assert supercommutator_q(q1, q2) == commutator_by_projection(q1, q2)
    for letter in (setup.z_letter(0), setup.idx_f):
        assert ad_act(setup, letter, q2) == ad_by_projection(setup, letter, q2)


@settings(derandomize=True, max_examples=100, deadline=None, database=None)
@given(case=cases())
def test_a_straightened_list_of_terms_equals_the_sum_of_its_words(case):
    # unsorted words, one-letter words and repeats, each term straightened
    # on the list's integer numerators, against a sum of Fraction words
    setup, terms1, terms2 = case
    pairs = [(u[::-1] + v, c1 * c2) for u, c1 in terms1.items()
             for v, c2 in terms2.items()]
    pairs += [(w[:1], -c) for w, c in terms1.items()] * 2
    want = EnvElement(setup)
    for w, c in pairs:
        want = want + EnvElement.from_word(setup, w, c)
    assert project_terms(setup, pairs) == project(want)


def test_model_operations_cancel_to_zero_across_the_f_suffix():
    # x f/2 - x/2 projects to 0: the two words meet only after the f-run
    # is dropped, and a zero numerator must leave no term behind
    setup = get_setup("psl22")
    x, f = setup.z_letter(0), setup.idx_f
    q = WhittakerElement(setup, {(x, f): Fraction(1, 2), (x,): Fraction(-1, 2)})
    one = WhittakerElement.unit(setup)
    assert multiply_q(one, q).terms == {} == multiply_by_projection(one, q).terms
    y = WhittakerElement(setup, {(setup.idx_e,): Fraction(1, 3), (x,): Fraction(2)})
    assert multiply_q(q, y) == multiply_by_projection(q, y)
    assert supercommutator_q(y, q) == commutator_by_projection(y, q)
    assert ad_act(setup, x, q) == ad_by_projection(setup, x, q)
    assert project_terms(setup, [((x,), Fraction(1, 2)), ((x, f), Fraction(-1, 2))]).terms == {}


def _exact(terms):
    return all(type(c) is Fraction and c != 0 for c in terms.values())


@settings(derandomize=True, max_examples=150, deadline=None, database=None)
@given(case=cases(model=True))
def test_every_coefficient_out_of_the_kernel_is_a_nonzero_fraction(case):
    setup, terms1, terms2 = case
    q1, q2 = WhittakerElement(setup, terms1), WhittakerElement(setup, terms2)
    assert _exact((EnvElement(setup, terms1) * EnvElement(setup, terms2)).terms)
    assert _exact(commutator_terms(setup, terms1, terms2))
    assert _exact(multiply_q(q1, q2).terms)
    assert _exact(supercommutator_q(q1, q2).terms)
    for letter in (setup.z_letter(0), setup.idx_f):
        assert _exact(ad_act(setup, letter, q2).terms)


def _fraction_sum(*scaled):
    """sum c * terms over (c, terms) pairs, term by term on Fractions."""
    out = {}
    for c, terms in scaled:
        for w, v in terms.items():
            out[w] = out.get(w, Fraction(0)) + c * v
    return {w: v for w, v in out.items() if v}


@settings(derandomize=True, max_examples=150, deadline=None, database=None)
@given(case=cases(model=True), c1=COEFFS, c2=COEFFS)
def test_linear_combinations_equal_the_fraction_sums(case, c1, c2):
    setup, terms1, terms2 = case
    q1, q2 = WhittakerElement(setup, terms1), WhittakerElement(setup, terms2)
    for got, want in ((q1 + q2, _fraction_sum((1, terms1), (1, terms2))),
                      (q1 - q2, _fraction_sum((1, terms1), (-1, terms2))),
                      (q1.scale(c1), _fraction_sum((c1, terms1))),
                      (combine(setup, [(c1, q1), (c2, q2)]),
                       _fraction_sum((c1, terms1), (c2, terms2)))):
        assert got.terms == want
        assert _exact(got.terms)
    assert (q1 - q1).terms == {}
