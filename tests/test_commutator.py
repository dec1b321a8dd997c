"""Property test: the superderivation kernel for [u, v] equals the product
definition uv - (-1)^{|u||v|} vu, and the model commutators built on it
(supercommutator_q, ad_act) equal the projection of the lifted products;
the model's linear combinations (+, -, scale, combine) equal the sums
term by term; against a membership-checked right operand, the p-letter
walk of commute gives the model element of the full walk.  Whatever runs on integer numerators inside, every
coefficient these return is a nonzero Fraction."""

import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from oracles import (EnvElement, ad_by_projection, commutator_by_projection,
                     commutator_terms, multiply_by_projection, word_parity)
from wsuper import enveloping, relations, whittaker
from wsuper.catalog import family_setup
from wsuper.enveloping import commute, letter_index
from wsuper.relations import SuiteContext, extract_c0, verify_centrality, verify_deg0
from wsuper.whittaker import (WhittakerElement, _project, ad_act, combine,
                              multiply_q, project, project_terms, supercommutator_q)

from conftest import CATALOG_NAMES, NONUNIT, get_ctx, get_setup

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


def _crafted_case():
    """osp(3|2) operands that take every path of the kernel in one call:
    several terms on each side, letter pairs with a zero bracket, the
    words of [x1, x2] and [x2, x1] that cancel, the odd square [y2, y2],
    one-letter words, e and f."""
    setup = get_setup("osp(3|2)")
    rows, par = setup.bracket_rows, setup.letter_parity
    x1, x2, y2, e, f = 0, 1, 5, setup.idx_e, setup.idx_f
    assert not par[x1] and not par[x2] and rows[x1][x2]
    assert par[y2] and rows[y2][y2] and not rows[e][e]
    left = {(x1,): Fraction(1), (x2,): Fraction(1), (y2,): Fraction(1, 3),
            (x1, y2, e): Fraction(-2, 5), (e,): Fraction(2)}
    right = {(x1,): Fraction(1), (x2,): Fraction(1), (y2,): Fraction(-3, 2),
             (setup.z_letter(0), f): Fraction(1, 2), (e,): Fraction(1), (f,): Fraction(-1)}
    return setup, left, right


@settings(derandomize=True, max_examples=150, deadline=None, database=None)
@given(case=cases())
@example(case=_crafted_case())
def test_kernel_equals_the_product_definition(case):
    # word pair by word pair, and the whole operands in one call
    setup, terms1, terms2 = case
    for u, c1 in terms1.items():
        for v, c2 in terms2.items():
            got = commute(setup, [(u, c1)], letter_index(setup, [(v, c2)]))
            assert EnvElement(setup, got) == _product_commutator(setup, {u: c1}, {v: c2}), (u, v)
    got = commute(setup, terms1.items(), letter_index(setup, terms2.items()))
    assert EnvElement(setup, got) == _product_commutator(setup, terms1, terms2)


def test_the_kernel_visits_only_nonzero_letter_brackets(monkeypatch):
    # work counter, not a timing: [Theta_w0, Theta_w1] on osp(5|2) pushes
    # one word per term of each nonzero [u_i, v_j] over the word pairs and
    # letter pairs, onto one list for one straighten, and forms the
    # coefficient c * d only at a letter pair with a nonzero bracket
    ctx = SuiteContext(family_setup("osp", 5, 2))
    setup, (q1, q2) = ctx.setup, [g.value for g in ctx.gens[ctx.n0:ctx.n0 + 2]]
    rows = setup.bracket_rows
    pairs = [(a, b) for u in q1.nums for v in q2.nums for a in u for b in v]
    nonzero = [(a, b) for a, b in pairs if rows[a][b]]
    assert 0 < len(nonzero) < len(pairs)
    products, stacks = [], []

    class Counted(int):
        def __mul__(self, other):
            products.append(other)
            return int(self) * other
    straighten = enveloping.straighten
    monkeypatch.setattr(enveloping, "straighten", lambda setup, stack:
                        stacks.append(len(stack)) or straighten(setup, stack))
    sink = commute(setup, [(u, Counted(n)) for u, n in q1.nums.items()],
                   letter_index(setup, q2.nums.items()))
    assert stacks == [sum(len(rows[a][b]) for a, b in nonzero)]
    assert len(products) == len(nonzero)
    assert _project(setup, sink, q1.den * q2.den) == supercommutator_q(q1, q2)


def test_one_c0_indexes_each_element_at_most_once(monkeypatch):
    # work counter: one osp(7|2) extract_c0, membership tests included;
    # letter_index is called from WhittakerElement.index, whose self is
    # the element, and the kept elements keep their ids distinct.  29
    # indexes serve the 342 commute calls, one per call if none were kept
    built, reads = [], []

    def counted_index(setup, pairs):
        built.append(sys._getframe(1).f_locals["self"])
        return letter_index(setup, pairs)

    def counted_commute(setup, left, index, invariant=False):
        reads.append(index)
        return commute(setup, left, index, invariant)
    monkeypatch.setattr(whittaker, "letter_index", counted_index)
    monkeypatch.setattr(whittaker, "commute", counted_commute)
    rep, result = extract_c0(family_setup("osp", 7, 2))
    assert rep.ok and result.value is not None
    assert all(isinstance(q, WhittakerElement) for q in built)
    assert len({id(q) for q in built}) == len(built)
    assert (len(built), len(reads)) == (29, 342)
    assert {id(index) for index in reads} == {id(q.index) for q in built}


@pytest.mark.parametrize("name", CATALOG_NAMES + (NONUNIT,))
def test_a_kept_index_equals_a_fresh_one_and_the_oracle(name):
    # each generator, copied so that it has no index yet, is the right
    # operand of a commutator with every generator, twice over: its index
    # is built on the first read, and every call reuses it
    setup = get_setup(name)
    gens = [g.value for g in get_ctx(name).gens]
    for r in gens:
        q = WhittakerElement(setup, r.nums, r.den)
        assert q._index is None
        kept = q.index
        for _ in range(2):
            for p in gens:
                got = commute(setup, p.nums.items(), q.index)
                assert got == commute(setup, p.nums.items(), letter_index(setup, q.nums.items()))
                d = p.den * q.den
                assert {w: Fraction(n, d) for w, n in got.items()} == \
                    commutator_terms(setup, p.terms, q.terms)
        assert q.index is kept


@pytest.mark.parametrize("name", CATALOG_NAMES + ("osp(5|2)",))
def test_the_p_letter_walk_equals_the_full_walk_on_checked_generators(name):
    # the lemma of commute: against a right operand that passed
    # is_w_element, the z-letter terms of the left words lie in U(g)(f - 1).
    # Each generator and ThetaCas on the left, each generator on the right;
    # the short walk drops terms that are nonzero in U(g) on some pair
    ctx = SuiteContext(family_setup("osp", 5, 2)) if name == "osp(5|2)" else get_ctx(name)
    setup = ctx.setup
    lefts = [g.value for g in ctx.gens] + [ctx.tcas.value]
    dropped = 0
    for l, r in enumerate(ctx.gens):
        assert ctx.invariant(l)
        for p in lefts:
            short, full = (commute(setup, p.nums.items(), r.value.index, invariant)
                           for invariant in (True, False))
            dropped += short != full
            assert supercommutator_q(p, r.value, True) == supercommutator_q(p, r.value)
    assert dropped


@pytest.mark.parametrize("family", (("psl22",), ("sl", 3, 1)), ids=("psl22", "sl(3|1)"))
def test_the_p_letter_walk_needs_a_checked_right_operand(monkeypatch, family):
    # negative control: a sign-flipped Theta_v is not ad-n invariant, and
    # against it the short walk gives a wrong commutator on some pair; the
    # suite takes the full walk for every such operand
    ctx = SuiteContext(family_setup(*family), corrupt="theta-v-sign")
    lefts = [g.value for g in ctx.gens] + [ctx.tcas.value]
    corrupted = [g.value for k, g in enumerate(ctx.gens) if not ctx.invariant(k)]
    assert len(corrupted) == ctx.n0
    assert all(not whittaker.is_w_element(r)[0] for r in corrupted)
    assert any(supercommutator_q(p, r, True) != supercommutator_q(p, r)
               for p in lefts for r in corrupted)
    calls = []
    monkeypatch.setattr(relations, "supercommutator_q",
                        lambda *args: calls.append(args) or supercommutator_q(*args))
    verify_deg0(ctx.setup, ctx)
    verify_centrality(ctx.setup, ctx)
    against = [args for args in calls if any(args[1] is r for r in corrupted)]
    assert against and not any(args[2] for args in against)


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


@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_the_casimir_supercommutes_with_itself(name):
    # C is even, so [C, C] = CC - CC = 0 in any associative superalgebra:
    # the check tests the signs of supercommutator_q alone, so it lives
    # here and not in the relation suite's `central`
    cas = get_ctx(name).gens[-1]
    assert cas.parity == 0 and not cas.value.is_zero()
    assert supercommutator_q(cas.value, cas.value).is_zero()
