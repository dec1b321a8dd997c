import random
from fractions import Fraction

import pytest

from oracles import EnvElement, letter_coords, naive_reduce, supercommutator
from wsuper.algebra import SuperAlgebra
from wsuper.catalog import CATALOG_NAMES
from wsuper.enveloping import kazhdan_degree, straighten, weight
from wsuper.errors import InputError
from wsuper.generators import theta_w
from wsuper.linalg import Echelon
from wsuper.whittaker import project, project_terms, supercommutator_q

from conftest import NONUNIT, get_setup


def letters_by_name(setup):
    return {name: i for i, name in enumerate(setup.letter_names)}


def test_f_times_e_straightens_to_ef_minus_h(psl22):
    s = psl22
    fe = EnvElement.from_word(s, (s.idx_f, s.idx_e))
    ef = EnvElement.from_word(s, (s.idx_e, s.idx_f))
    h = EnvElement.from_vector(s, s.triple.h)
    assert fe == ef - h


def test_odd_square_rewrites_to_half_bracket():
    s = get_setup("psl22")
    z1 = s.z_letter(0)
    assert EnvElement.from_word(s, (z1, z1)).is_zero()   # <z1,z1> = 0 here
    so = get_setup("osp(1|2)")
    zz = EnvElement.from_word(so, (so.z_letter(0), so.z_letter(0)))
    # <z,z> = 1, so z^2 = f/2
    assert zz == EnvElement.from_letter(so, so.idx_f).scale(Fraction(1, 2))


@pytest.mark.parametrize("name", CATALOG_NAMES + (NONUNIT,))
def test_letter_bracket_is_an_int_exactly_when_integral(name):
    s = get_setup(name)
    coords = letter_coords(s)
    for i in range(s.dim):
        for j in range(s.dim):
            expanded = coords(s.alg.bracket(s.letters[i], s.letters[j]))
            assert dict(s.letter_bracket(i, j)) == expanded
            for _, c in s.letter_bracket(i, j):
                assert type(c) is (int if c.denominator == 1 else Fraction)


@pytest.mark.parametrize("name", CATALOG_NAMES + (NONUNIT,))
def test_to_letters_equals_the_elimination_route(name):
    s = get_setup(name)
    coords = letter_coords(s)
    rng = random.Random(7)
    vectors = [{i: Fraction(1)} for i in range(s.dim)] + s.letters
    vectors += [{i: Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                 for i in rng.sample(range(s.dim), 3)} for _ in range(20)]
    for vec in vectors:
        got = s.to_letters(vec)
        assert got == coords(vec)
        assert list(got) == sorted(got)
        assert all(c and type(c) is (int if c.denominator == 1 else Fraction)
                   for c in got.values())


def test_to_letters_rejects_an_index_outside_the_algebra():
    s = get_setup("sl(2|1)")
    for bad in ({s.dim: Fraction(1)}, {-1: Fraction(1)}, {0: Fraction(1), 99: Fraction(2)}):
        with pytest.raises(InputError, match="outside range"):
            s.to_letters(bad)


@pytest.mark.parametrize("name", ("osp(3|2)", "psl22", NONUNIT))
def test_a_commutator_reads_the_tables_without_bracketing(name, monkeypatch):
    # once the tables exist, the kernel neither brackets in g nor eliminates
    s = get_setup(name)
    thetas = [theta_w(s, w).value for w in s.cent[1][:3]]
    calls = {"bracket": 0, "reduce": 0}

    def counted(key, fn):
        def wrapper(*args):
            calls[key] += 1
            return fn(*args)
        return wrapper
    monkeypatch.setattr(SuperAlgebra, "bracket", counted("bracket", SuperAlgebra.bracket))
    monkeypatch.setattr(Echelon, "reduce", counted("reduce", Echelon.reduce))
    values = [supercommutator_q(x, y) for x in thetas for y in thetas]
    assert calls == {"bracket": 0, "reduce": 0}
    assert any(not v.is_zero() for v in values)


def test_odd_squares_halve_exactly_on_ints_and_fractions():
    # osp(3|2): the odd squares have constants 1 and -4, so an integer
    # coefficient halves by // (even) and by Fraction (odd); constants 1/2
    # elsewhere keep the Fraction fallback running too
    s = get_setup("osp(3|2)")
    odd = [i for i in range(s.dim) if s.letter_parity[i]]
    square_constants = {ck for a in odd for _, ck in s.letter_bracket(a, a)}
    assert {1, -4} <= square_constants
    assert all(type(ck) is int for ck in square_constants)
    halved = set()
    for a in odd:
        for c in (1, 2, 3):
            sink = straighten(s, [((a, a), c)])
            assert sink == naive_reduce(s, (a, a), coeff=Fraction(c))
            for (k,), v in sink.items():
                ck = dict(s.letter_bracket(a, a))[k]
                assert type(v) is (int if c * ck % 2 == 0 else Fraction)
                halved.add(type(v))
    assert halved == {int, Fraction}
    x = [EnvElement.from_letter(s, i) for i in range(s.dim)]
    for a in range(s.dim):
        for b in odd:
            prod = (x[a].scale(3) * x[b]).terms
            assert prod == naive_reduce(s, (a, b), coeff=Fraction(3))
            assert all(type(c) is Fraction for c in prod.values())


def _kernel_stack(s, rng):
    """(word, coefficient) pairs that take every path of straighten: words
    up to length 5 with f inside, each repeated; a pair that cancels
    outright; an odd square inside a word; a word whose terms cancel
    after rewriting; int and Fraction coefficients."""
    odd = [i for i in range(s.dim) if s.letter_parity[i]]
    coeffs = [1, -2, 3, Fraction(1, 2), Fraction(-3, 4)]
    stack = []
    for _ in range(12):
        word = [rng.randrange(s.dim) for _ in range(rng.randint(0, 4))]
        word.insert(rng.randint(0, len(word)), s.idx_f)
        c = rng.choice(coeffs)
        stack += [(tuple(word), c)] * 2
        a, b = rng.choice(odd), rng.randrange(s.dim)
        stack += [((b, a, a), c), ((a, b), c), ((a, b), -c)]
    # a.b = (-1)^{|a||b|} b.a + [a, b] for the letters a > b of a descent
    a, b = max(range(s.dim), key=lambda i: len(s.letter_bracket(i, 0))), 0
    assert s.letter_bracket(a, b)
    sign = -1 if s.letter_parity[a] and s.letter_parity[b] else 1
    stack += [((a, b), 1), ((b, a), -sign)] + [((k,), -ck) for k, ck in s.letter_bracket(a, b)]
    rng.shuffle(stack)
    return stack


@pytest.mark.parametrize("name", CATALOG_NAMES + (NONUNIT,))
def test_straighten_equals_the_sum_of_the_naive_rewrites(name):
    # the pairs are read once and left as they are, passed as the list
    # itself, as a tuple or as a generator
    s = get_setup(name)
    rng = random.Random(53)
    for read in (list, tuple, list, lambda pairs: (p for p in pairs)):
        stack = _kernel_stack(s, rng)
        kept = list(stack)
        expected = {}
        for w, c in stack:
            naive_reduce(s, w, expected, Fraction(c))
        sink = straighten(s, stack if read is list else read(stack))
        assert stack == kept and sink == expected
        assert all(sink.values())


@pytest.mark.parametrize("name", CATALOG_NAMES + (NONUNIT,))
def test_project_terms_sends_short_words_through_the_kernel(name):
    # the empty word, every letter (f alone included), zero coefficients,
    # equal short words that cancel, Fraction coefficients, and a length-2
    # word whose bracket term cancels a single letter
    s = get_setup(name)
    a = max(range(s.dim), key=lambda i: len(s.letter_bracket(i, 0)))
    (k, ck), *_ = s.letter_bracket(a, 0)
    pairs = [((), Fraction(2)), ((), Fraction(-1, 3)), ((s.idx_f,), Fraction(0)),
             ((a, 0), Fraction(0)), ((0,), Fraction(0)), ((a, 0), Fraction(1, 3)),
             ((k,), -Fraction(ck, 3))]
    pairs += [((i,), Fraction(i + 1, 2)) for i in range(s.dim)]
    pairs += [((i,), Fraction(-i - 1, 2)) for i in range(0, s.dim, 2)]
    expected = {}
    for w, c in pairs:
        naive_reduce(s, w, expected, c)
    assert project_terms(s, pairs) == project(EnvElement(s, expected))


def test_random_words_match_naive_rewriter(catalog_setup):
    s = catalog_setup
    rng = random.Random(13)
    for _ in range(150):
        word = tuple(rng.randrange(s.dim) for _ in range(rng.randint(0, 4)))
        assert EnvElement.from_word(s, word).terms == naive_reduce(s, word)


def test_multiplication_is_associative():
    s = get_setup("psl22")
    rng = random.Random(29)
    for _ in range(25):
        elems = []
        for _ in range(3):
            word = tuple(rng.randrange(s.dim) for _ in range(rng.randint(0, 3)))
            elems.append(EnvElement.from_word(s, word, rng.randint(1, 3)))
        a, b, c = elems
        assert ((a * b) * c).terms == (a * (b * c)).terms


def test_normal_form_is_idempotent():
    s = get_setup("sl(2|1)")
    rng = random.Random(31)
    for _ in range(50):
        word = tuple(rng.randrange(s.dim) for _ in range(rng.randint(0, 4)))
        elem = EnvElement.from_word(s, word)
        for w, c in elem.terms.items():
            assert EnvElement.from_word(s, w, c).terms == {w: c}


def test_supercommutator_examples(psl22):
    s = psl22
    e = EnvElement.from_letter(s, s.idx_e)
    f = EnvElement.from_letter(s, s.idx_f)
    h = EnvElement.from_vector(s, s.triple.h)
    assert supercommutator(e, f) == h
    assert supercommutator(e, e).is_zero()


def test_supercommutator_matches_structure_constants(catalog_setup):
    s = catalog_setup
    for i in range(s.dim):
        for j in range(s.dim):
            lhs = supercommutator(EnvElement.from_letter(s, i),
                                  EnvElement.from_letter(s, j))
            rhs_vec = s.alg.bracket(s.letters[i], s.letters[j])
            assert lhs == EnvElement.from_vector(s, rhs_vec)


def test_supercommutator_rejects_mixed_parity(psl22):
    s = psl22
    mixed = EnvElement.from_letter(s, s.idx_e) + \
        EnvElement.from_letter(s, s.z_letter(0))
    with pytest.raises(InputError):
        supercommutator(mixed, mixed)


def test_degree_and_weight_values(psl22):
    s = psl22
    assert kazhdan_degree(s, (s.idx_e,)) == 4
    assert kazhdan_degree(s, (s.z_letter(0),)) == 1
    assert weight(s, (s.z_letter(0),)) == -1
    assert kazhdan_degree(s, ()) == 0 and weight(s, ()) == 0
    assert weight(s, (s.idx_e,)) == 2
    assert weight(s, (s.idx_f,)) == 0


def test_degree_subadditive_and_commutator_bounded():
    s = get_setup("psl22")
    rng = random.Random(41)
    for _ in range(40):
        w1 = tuple(rng.randrange(s.dim) for _ in range(rng.randint(1, 3)))
        w2 = tuple(rng.randrange(s.dim) for _ in range(rng.randint(1, 3)))
        a = EnvElement.from_word(s, w1)
        b = EnvElement.from_word(s, w2)
        bound = a.max_kazhdan_degree() + b.max_kazhdan_degree()
        if not (a * b).is_zero():
            assert (a * b).max_kazhdan_degree() <= bound
        pa, pb = a.parity(), b.parity()
        if pa is not None and pb is not None:
            comm = supercommutator(a, b)
            if not comm.is_zero():
                assert comm.max_kazhdan_degree() <= bound


def test_odd_letters_never_repeat_in_normal_form():
    s = get_setup("osp(3|2)")
    rng = random.Random(43)
    for _ in range(60):
        word = tuple(rng.randrange(s.dim) for _ in range(rng.randint(0, 5)))
        for w in EnvElement.from_word(s, word).terms:
            for letter in w:
                if s.letter_parity[letter]:
                    assert w.count(letter) == 1


def test_rendering_format(psl22):
    s = psl22
    elem = EnvElement.from_letter(s, s.idx_e).scale(Fraction(3, 2)) \
        - EnvElement.from_word(s, (s.z_letter(0), s.z_letter(1)))
    assert project(elem).render() == "-z1·z2 + 3/2·e"
