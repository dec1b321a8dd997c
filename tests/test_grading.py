from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from oracles import dense, oracle_nullity, oracle_rank
from wsuper import grading
from wsuper.algebra import build_gl, build_sl
from wsuper.catalog import _unit_by_name, family_algebra
from wsuper.errors import DegeneracyError, InputError, NotMinimalError
from wsuper.grading import (build_minimal_setup, find_sl2_triple, kw_dimensions,
                            kw_numbers)
from wsuper.linalg import lin_comb, vec_scale
from wsuper.relations import run_suite

from conftest import get_setup, mixed_odd_pairs

ONE = Fraction(1)


def test_triple_identities_hold_exactly(catalog_setup):
    s = catalog_setup
    t = s.triple
    assert s.alg.bracket(t.e, t.f) == t.h
    assert s.alg.bracket(t.h, t.e) == vec_scale(2, t.e)
    assert s.alg.bracket(t.h, t.f) == vec_scale(-2, t.f)


def test_grading_is_short_and_exhaustive(catalog_setup):
    s = catalog_setup
    assert sum(len(v) for v in s.grading.values()) == s.dim
    assert len(s.grading[2]) == 1 and len(s.grading[-2]) == 1
    # [g(i), g(j)] c= g(i+j), exhaustively
    for i in range(-2, 3):
        for j in range(-2, 3):
            for x in s.grading[i]:
                for y in s.grading[j]:
                    w = s.alg.bracket(x, y)
                    if not w:
                        continue
                    hw = s.alg.bracket(s.triple.h, w)
                    assert hw == vec_scale(i + j, w)


def test_known_s_and_r_for_psl22(psl22):
    assert psl22.sdim == 0
    assert psl22.rdim == 4


def test_derived_s_and_r(catalog_setup):
    want = {"sl(2|1)": (0, 2), "osp(1|2)": (0, 1),
            "psl22": (0, 4), "osp(3|2)": (0, 3)}
    assert (catalog_setup.sdim, catalog_setup.rdim) == want[catalog_setup.alg.name
            if catalog_setup.alg.name != "psl(2|2)" else "psl22"]


def test_pairing_normal_form(catalog_setup):
    s = catalog_setup
    n = len(s.zbasis)
    for a in range(n):
        for b in range(n):
            want = Fraction(1 if a == b else 0)
            assert s.pairing(s.zdual[a], s.zbasis[b]) == want
    # even part alternating, odd part symmetric
    for a in range(n):
        for b in range(n):
            pa = s.alg.parity_of(s.zbasis[a])
            pb = s.alg.parity_of(s.zbasis[b])
            if pa == pb == 0:
                assert s.pairing(s.zbasis[a], s.zbasis[b]) == \
                    -s.pairing(s.zbasis[b], s.zbasis[a])
            if pa == pb == 1:
                assert s.pairing(s.zbasis[a], s.zbasis[b]) == \
                    s.pairing(s.zbasis[b], s.zbasis[a])


def test_odd_middle_vector_is_self_dual_with_unit_pairing():
    for name in ("osp(1|2)", "osp(3|2)"):
        s = get_setup(name)
        r = s.rdim
        assert r % 2 == 1
        mid = s.sdim + (r + 1) // 2 - 1
        assert s.zdual[mid] == s.zbasis[mid]
        assert s.pairing(s.zbasis[mid], s.zbasis[mid]) == 1


def test_chi_values(catalog_setup):
    s = catalog_setup
    assert s.chi(s.triple.f) == 1
    assert s.chi(s.triple.h) == 0
    for z in s.zbasis:
        assert s.chi(z) == 0


def test_sharp_map(psl22):
    s = psl22
    assert s.sharp(s.triple.h) == {}
    # (h, e_12) = 0 by the supertrace oracle, so sharp fixes e_12
    v = _unit_by_name(s.alg, "E[2,3]")
    assert s.form(s.triple.h, v) == 0
    assert s.sharp(v) == v
    with pytest.raises(InputError):
        s.sharp(s.triple.e)


def test_sharp_image_spans_centralizer_zero(catalog_setup):
    s = catalog_setup
    image = [s.sharp(x) for x in s.grading[0]]
    image = [dense(v, s.dim) for v in image if v]
    cent = [dense(v, s.dim) for v in s.cent[0]]
    if not cent:
        assert not image
        return
    assert oracle_rank(image) == len(cent)
    assert oracle_rank(image + cent) == len(cent)


def test_centralizer_g2_is_spanned_by_e(catalog_setup):
    s = catalog_setup
    coords = s.to_letters(s.cent[2][0])
    assert list(coords) == [s.idx_e]


def test_dual_bases_of_centralizer_zero(catalog_setup):
    s = catalog_setup
    n = len(s.dual_a)
    for i in range(n):
        for j in range(n):
            assert s.form(s.dual_a[i], s.dual_b[j]) == (1 if i == j else 0)


def _dual_failure_by_scan(s):
    """The least (i, j) in row order with (a_i, b_j) != delta_ij, by one
    form_value per entry."""
    n = len(s.dual_a)
    return next(((i, j) for i in range(n) for j in range(n)
                 if s.alg.form_value(s.dual_a[i], s.dual_b[j]) != int(i == j)), None)


# b_1 doubled, b_1 + b_0, b_1 zero (an entry missing from the cross Gram)
# and b_0 + b_2 (a failure in a later row than the first nonzero)
@pytest.mark.parametrize("k, new, want", ((1, lambda b: vec_scale(2, b[1]), (1, 1)),
                                          (1, lambda b: lin_comb({0: 1, 1: 1}, b), (0, 1)),
                                          (1, lambda b: {}, (1, 1)),
                                          (0, lambda b: lin_comb({0: 1, 2: 1}, b), (2, 0))),
                         ids=("scaled", "added", "zero", "later-row"))
def test_perturbed_dual_bases_fail_at_the_least_entry(monkeypatch, k, new, want):
    s = get_setup("psl22")
    dual_b = list(s.dual_b)
    dual_b[k] = new(s.dual_b)
    monkeypatch.setattr(s, "dual_b", dual_b)
    assert _dual_failure_by_scan(s) == want
    with pytest.raises(DegeneracyError) as err:
        grading._post_checks(s)
    assert str(err.value) == "dual bases of g^e(0) failed at (%d,%d)" % want


def test_sl21_centralizer_dims_via_nullspace_oracle():
    s = get_setup("sl(2|1)")
    ad_e_rows = []
    for i in range(s.dim):
        row = []
        for j in range(s.dim):
            row.append(s.alg.bracket(s.triple.e, s.alg.basis_vector(j)).get(i, 0))
        ad_e_rows.append(row)
    assert oracle_nullity(ad_e_rows, s.dim) == sum(len(v) for v in s.cent.values())
    d = kw_dimensions(s)
    assert (d["d0"], d["d1"]) == (2, 2)


def test_kw_parities_and_bound(catalog_setup):
    s = catalog_setup
    d = kw_dimensions(s)
    assert (s.rdim - d["d1"]) % 2 == 0
    assert d["d0"] % 2 == 0
    assert d["exponent_p"] == Fraction(d["d0"], 2)
    assert d["exponent_two"] == (d["d1"] + 1) // 2   # ceiling convention
    assert d["parity_r"] == ("odd" if s.rdim % 2 else "even")


def test_osp12_parity_is_odd():
    d = kw_dimensions(get_setup("osp(1|2)"))
    assert d["d1"] % 2 == 1 and d["parity_r"] == "odd"


def test_non_minimal_nilpotent_is_rejected():
    alg = build_sl(3, 0)
    e01 = _unit_by_name(alg, "E[0,1]")
    e12 = _unit_by_name(alg, "E[1,2]")
    regular = {**e01, **e12}
    with pytest.raises(NotMinimalError, match="diagonalizable|g\\(2\\)"):
        build_minimal_setup(alg, regular)


def test_non_embeddable_choice_is_rejected():
    alg = build_sl(2, 1)
    e = _unit_by_name(alg, "E[0,1]")
    f = _unit_by_name(alg, "E[1,0]")
    h = alg.bracket(e, f)
    with pytest.raises(NotMinimalError, match="sl2-embeddable"):
        build_minimal_setup(alg, h)


def test_odd_or_zero_e_is_rejected():
    alg = build_sl(2, 1)
    with pytest.raises(InputError):
        build_minimal_setup(alg, _unit_by_name(alg, "E[0,2]"))
    with pytest.raises(InputError):
        build_minimal_setup(alg, dict.fromkeys(range(alg.dim), Fraction(0)))
    with pytest.raises(InputError):
        build_minimal_setup(alg, {})


def test_summary_export_shape(psl22):
    summary = psl22.summary()
    assert summary["s"] == 0 and summary["r"] == 4
    assert summary["d0"] == 2 and summary["d1"] == 4
    assert summary["grading_dims"] == {"-2": 1, "-1": 4, "0": 4, "1": 4, "2": 1}
    assert summary["bound_exponents"] == {"p": "1", "two": 2}


def test_gl_setup_with_equal_blocks_supported():
    # gl(2|2) keeps a nondegenerate supertrace form even at m = n
    alg = build_gl(2, 2)
    s = build_minimal_setup(alg, _unit_by_name(alg, "E[0,1]"))
    assert s.sdim == 0 and s.rdim == 4
    assert kw_numbers(s)[0] % 2 == 0


@pytest.mark.parametrize("m, n", [(1, 2), (3, 2), (5, 2), (7, 2), (3, 4)],
                         ids=["osp(1|2)", "osp(3|2)", "osp(5|2)", "osp(7|2)",
                              "osp(3|4)"])
def test_middle_rescale_in_place_equals_the_rebuild(monkeypatch, m, n):
    # r is odd: the middle odd g(-1) vector of the unscaled default e has
    # self-pairing q != 1, so e becomes e/q inside the one build; building
    # again from that e/q must reproduce every field of the setup
    alg, e0 = family_algebra("osp", m, n)
    calls = []
    monkeypatch.setattr(grading, "find_sl2_triple",
                        lambda *args: calls.append(1) or find_sl2_triple(*args))
    s = build_minimal_setup(alg, e0)
    assert len(calls) == 1 and s.rdim % 2 == 1
    ratios = {s.triple.e.get(k, 0) / b for k, b in e0.items()}
    assert len(ratios) == 1 and ratios != {1}
    assert s.triple.e.keys() <= e0.keys()
    mid = s.zbasis[s.sdim + s.rdim // 2]
    assert s.pairing(mid, mid) == 1
    again = build_minimal_setup(alg, s.triple.e)
    assert len(calls) == 2
    assert again.alg.form == s.alg.form
    for name in ("triple", "grading", "zbasis", "zdual", "cent", "dual_a",
                 "dual_b", "letters", "letter_parity", "letter_grade",
                 "letter_names"):
        assert getattr(again, name) == getattr(s, name), name


def _gram_pairing(gram):
    # <x, y> = sum x_i gram[i][j] y_j on dict vectors
    return lambda x, y: sum((c * gram[i][j] * d for i, c in x.items()
                             for j, d in y.items()), Fraction(0))


_UNITS = [{i: Fraction(1)} for i in range(4)]


@pytest.mark.parametrize("sign", [-1, 1], ids=["alternating", "symmetric"])
def test_one_hyperbolic_pass_serves_both_parities(sign):
    # x0 pairs with x2 and x1 with x3; when symmetric, x0 is not isotropic,
    # so the first pivot is x1 and x0 must be made isotropic against x2
    gram = [[0, 0, 1, 0], [0, 0, 0, 1], [sign, 0, 0, 0], [0, sign, 0, 0]]
    if sign == 1:
        gram[0][0] = 2
    pairing = _gram_pairing(gram)
    u = grading._hyperbolic_basis(pairing, _UNITS)
    for i in range(4):
        for j in range(4):
            want = 0 if i + j != 3 else (1 if i >= 2 or sign == 1 else -1)
            assert pairing(u[i], u[j]) == want, (i, j)


def test_hyperbolic_pass_refuses_a_zero_pairing():
    with pytest.raises(DegeneracyError, match="degenerate"):
        grading._hyperbolic_basis(lambda x, y: Fraction(0), _UNITS[:2])


def test_hyperbolic_pass_refuses_a_pairing_without_isotropic_vectors():
    # <x,x> = <y,y> = 1, <x,y> = 0: x^2 + y^2 = 0 has no rational solution;
    # nor has x^2 - 2 y^2 = 0: neither discriminant, -1 or 2, is a square
    for gram in ([[1, 0], [0, 1]], [[1, 0], [0, -2]]):
        with pytest.raises(DegeneracyError, match="no isotropic pivot among 2"):
            grading._hyperbolic_basis(_gram_pairing(gram), _UNITS[:2])


@pytest.mark.parametrize("gram", [
    [[1, 0], [0, -1]],                           # x0 - x1
    [[1, 0], [0, Fraction(-4, 9)]],              # x0 - 3/2 x1: a square of 2/3
    [[1, 0, 0], [0, 1, 0], [0, 0, -1]],          # (0,1) has none; x0 - x2, x1 middle
], ids=["integral", "rational", "second-pair"])
def test_hyperbolic_pass_makes_an_isotropic_pivot_from_a_pair(gram):
    # no unit vector is isotropic, but some x_i + t x_j is, t rational
    n = len(gram)
    pairing = _gram_pairing(gram)
    u = grading._hyperbolic_basis(pairing, _UNITS[:n])
    for i in range(n):
        for j in range(n):
            assert pairing(u[i], u[j]) == int(i + j == n - 1), (i, j)


@pytest.mark.xfail(strict=True, raises=DegeneracyError,
                   reason="x0 + x1 + x2 is isotropic over Q, but no pair has a square "
                          "discriminant (-1, 2, 2), and the pivot looks only at pairs")
def test_hyperbolic_pass_finds_an_isotropic_vector_through_three_vectors():
    gram = [[1, 0, 0], [0, 1, 0], [0, 0, -2]]
    pairing = _gram_pairing(gram)
    u = grading._hyperbolic_basis(pairing, _UNITS[:3])
    for i in range(3):
        for j in range(3):
            if i + j != 2:
                assert pairing(u[i], u[j]) == 0, (i, j)
            elif i != j:
                assert pairing(u[i], u[j]) == 1, (i, j)
            else:                       # the middle vector keeps its nonzero square
                assert pairing(u[i], u[j]) != 0


@pytest.mark.parametrize("selection", [("sl", 3, 1), ("psl22",), ("osp", 3, 2),
                                       ("osp", 5, 2)], ids=str)
def test_setup_builds_on_a_g_minus_1_basis_without_isotropic_vectors(selection):
    # the odd g(-1) pairs of the unit basis replaced by sum and difference:
    # no basis vector of odd g(-1) is isotropic, and the setup must still
    # give the native s, r, Kac-Weisfeiler numbers, c0 and verdicts
    native, alg, e = mixed_odd_pairs(*selection)
    s = build_minimal_setup(alg, e)
    assert all(s.pairing(v, v) for v in s.grading[-1] if alg.parity_of(v))
    assert (s.sdim, s.rdim, kw_numbers(s)) == (native.sdim, native.rdim, kw_numbers(native))
    got, want = (run_suite(x, fail_fast=False) for x in (s, native))
    assert [r.ok for r in got.reports] == [r.ok for r in want.reports]
    assert got.c0.value == want.c0.value


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(data=st.data())
def test_shifted_columns_subtract_the_shift_on_the_diagonal(data):
    # the values overlap, so a diagonal entry often cancels against the shift
    n = data.draw(st.integers(1, 6))
    value = st.sampled_from([1, -1, 2, Fraction(1, 2), Fraction(-2, 3)]).map(Fraction)
    cols = data.draw(st.lists(st.dictionaries(st.integers(0, n - 1), value),
                              min_size=n, max_size=n))
    shift = data.draw(st.sampled_from([0, 1, -2, 2, Fraction(1, 2)]).map(Fraction))
    indices = data.draw(st.lists(st.integers(0, n - 1), unique=True))
    before = [dict(col) for col in cols]
    out = grading._shifted_columns(cols, shift, indices)
    assert out == [lin_comb({0: ONE, 1: -shift}, (cols[j], {j: ONE})) for j in indices]
    assert all(type(x) is Fraction and x for col in out for x in col.values())
    assert cols == before
