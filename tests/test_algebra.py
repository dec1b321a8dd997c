from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from oracles import (dense, dense_form, gl_vector_to_matrix, mat_parity,
                     oracle_rank, super_bracket, supertrace, munit)
from wsuper.algebra import (build_gl, build_osp, build_psl22, build_sl,
                            _sl_vectors, check_algebra, normalized_form,
                            osp_realization, pair_products, subalgebra)
from wsuper.catalog import family_algebra
from wsuper.errors import DegeneracyError, InputError, ValidationError


def test_gl11_dimensions():
    alg = build_gl(1, 1)
    assert alg.dim == 4
    assert sum(alg.parity) == 2


def test_psl22_dimension_via_quotient_oracle():
    # rank of sl(2|2) inside gl(2|2) is 15, the identity lies in it,
    # so the quotient has dimension 16 - 1 - 1 = 14
    gl = build_gl(2, 2)
    vectors = []
    for a in range(4):
        for b in range(4):
            if a != b:
                vectors.append(dense(gl.basis_vector(a * 4 + b), 16))
    h = [0] * 16; h[0], h[5] = 1, -1
    h1 = [0] * 16; h1[5], h1[10] = 1, 1
    h2 = [0] * 16; h2[10], h2[15] = 1, -1
    ident = [0] * 16
    for i in (0, 5, 10, 15):
        ident[i] = 1
    sl_span = vectors + [tuple(h), tuple(h1), tuple(h2)]
    assert oracle_rank(sl_span) == 15
    assert oracle_rank(sl_span + [tuple(ident)]) == 15  # I is inside sl(2|2)
    alg = build_psl22()
    assert alg.dim == 14
    assert sum(1 for p in alg.parity if p == 1) == 8


def test_osp12_dimensions_via_matrix_realization_oracle():
    gl, vectors = osp_realization(1, 2)
    # every spanning matrix satisfies the defining equation of the form
    B = ((1, 0, 0), (0, 0, 1), (0, -1, 0))
    for v in vectors:
        A = gl_vector_to_matrix(gl, v, 1, 2)
        p = mat_parity(A, 1)
        for vv in range(3):
            for ww in range(3):
                lhs = sum(A[u][vv] * B[u][ww] for u in range(3))
                sign = -1 if (p and vv >= 1) else 1
                rhs = sum(B[vv][u] * A[u][ww] for u in range(3))
                assert lhs + sign * rhs == 0
    assert oracle_rank([dense(v, gl.dim) for v in vectors]) == 5
    alg = build_osp(1, 2)
    assert alg.dim == 5
    assert sum(1 for p in alg.parity if p == 0) == 3
    assert sum(alg.parity) == 2


def test_all_families_satisfy_axioms():
    for alg in (build_gl(1, 1), build_sl(2, 1), build_sl(3, 1),
                build_psl22(), build_osp(1, 2), build_osp(3, 2)):
        report = check_algebra(alg)
        assert report.ok, (alg.name, report.first_failure())


def test_psl22_minimal_bracket_is_h():
    alg = build_psl22()
    e = alg.basis_vector(alg.basis_names.index("E[0,1]"))
    f = alg.basis_vector(alg.basis_names.index("E[1,0]"))
    h = alg.basis_vector(alg.basis_names.index("h"))
    assert alg.bracket(e, f) == h


def test_even_bracket_with_itself_vanishes():
    alg = build_sl(2, 1)
    for i in range(alg.dim):
        if alg.parity[i] == 0:
            x = alg.basis_vector(i)
            assert alg.bracket(x, x) == {}


def test_gl22_odd_anticommutator_matches_matrix_oracle():
    # [e_{bar1 1}, e_{1 bar1}] = e_{bar1 bar1} + e_{11}
    alg = build_gl(2, 2)
    x = alg.basis_vector(alg.basis_names.index("E[0,2]"))
    y = alg.basis_vector(alg.basis_names.index("E[2,0]"))
    got = alg.bracket(x, y)
    want = super_bracket(munit(4, 0, 2), munit(4, 2, 0), 2)
    assert gl_vector_to_matrix(alg, got, 2, 2) == want
    assert want == tuple(tuple({(0, 0): 1, (2, 2): 1}.get((i, j), 0)
                               for j in range(4)) for i in range(4))


@pytest.mark.parametrize("m,n", [(2, 1), (1, 2), (2, 2), (3, 0), (0, 2)])
def test_gl_brackets_match_the_matrix_supercommutator(m, n):
    # every ordered pair of elementary matrices, zero products included
    alg = build_gl(m, n)
    N = m + n
    for i in range(alg.dim):
        a, b = divmod(i, N)
        for j in range(alg.dim):
            c, d = divmod(j, N)
            got = gl_vector_to_matrix(alg, alg.brackets.get((i, j), {}), m, n)
            assert got == super_bracket(munit(N, a, b), munit(N, c, d), m), (i, j)


def test_bracket_dimension_mismatch():
    # a vector index outside range(dim) is an input error on either side
    alg = build_gl(1, 1)
    for index in (alg.dim, -1):
        with pytest.raises(InputError):
            alg.bracket({index: Fraction(1)}, alg.basis_vector(0))
        with pytest.raises(InputError):
            alg.bracket(alg.basis_vector(0), {index: Fraction(1)})


@pytest.mark.parametrize("short", ["x", "y"])
def test_form_value_dimension_mismatch(short):
    # an index outside range(dim) is an input error, not a sum that skips
    # it or an IndexError
    alg = build_gl(1, 1)
    x = y = alg.basis_vector(0)
    assert alg.form_value(x, y) == dense_form(alg)[0][0] != 0
    if short == "x":
        x = {**x, alg.dim: Fraction(1)}
    else:
        y = {**y, alg.dim: Fraction(1)}
    with pytest.raises(InputError):
        alg.form_value(x, y)


def test_subalgebra_rejects_dependent_vectors():
    # the diagonal of gl(2|0) is bracket-closed, so only the dependence of
    # the third vector on the first two is wrong here
    gl = build_gl(2, 0)
    d0, d1 = gl.basis_vector(0), gl.basis_vector(3)
    with pytest.raises(ValidationError, match="dependent"):
        subalgebra(gl, [d0, d1, {**d0, **d1}], "diag")


def test_subalgebra_names_the_first_pair_that_leaves_the_span():
    # [E01, E01] = 0 lies in the span, [E01, E10] = E00 - E11 does not
    gl = build_gl(2, 0)
    with pytest.raises(ValidationError, match=r"not closed under bracket at pair \(0,1\)"):
        subalgebra(gl, [gl.basis_vector(1), gl.basis_vector(2)], "open")


def test_subalgebra_rejects_an_index_outside_the_ambient():
    gl = build_gl(2, 0)
    with pytest.raises(InputError):
        subalgebra(gl, [gl.basis_vector(0), {gl.dim: Fraction(1)}], "outside")


SCALE_BASES = (build_sl(2, 1), build_osp(1, 2), build_psl22(), build_osp(3, 2))
# an ambient whose constants are not all integers: sl(2|1) on x_i / (i + 2)
SCALE_BASES += (subalgebra(SCALE_BASES[0], [{i: Fraction(1, i + 2)} for i in range(8)], "s"),)
SCALES = st.sampled_from([1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3),
                          Fraction(3, 4), Fraction(5, 7), Fraction(-7, 6)]).map(Fraction)


def _exact(x):
    """An int when integral, else a Fraction with denominator > 1: never a
    float, a bool or a Fraction with denominator 1."""
    return type(x) is int or (type(x) is Fraction and x.denominator > 1)


def _assert_scaled_copy(alg, c):
    # on v_i = c_i x_i: c'_ij^k = c_i c_j / c_k c_ij^k and (v_i, v_j) = c_i c_j g_ij,
    # each nonzero and of the engine's value type; returns the values
    sub = subalgebra(alg, [{i: ci} for i, ci in enumerate(c)], "scaled")
    assert sub.brackets == {(i, j): {k: c[i] * c[j] / c[k] * x for k, x in terms.items()}
                            for (i, j), terms in alg.brackets.items()}
    assert sub.form == {(i, j): c[i] * c[j] * g for (i, j), g in alg.form.items()}
    values = [x for terms in sub.brackets.values() for x in terms.values()]
    values += sub.form.values()
    assert all(_exact(x) and x for x in values)
    return values


@pytest.mark.parametrize("alg", SCALE_BASES,
                         ids=["sl21", "osp12", "psl22", "osp32", "sl21_scaled"])
@settings(derandomize=True, max_examples=15, deadline=None, database=None)
@given(data=st.data())
def test_subalgebra_on_scaled_basis_vectors_scales_the_constants(alg, data):
    _assert_scaled_copy(alg, data.draw(st.lists(SCALES, min_size=alg.dim,
                                                max_size=alg.dim)))


@pytest.mark.parametrize("alg", SCALE_BASES[:2], ids=["sl21", "osp12"])
def test_subalgebra_on_integer_scalings_stores_ints_where_integral(alg):
    # integral constants are stored as ints; integer scalings divide by c_k,
    # so the scaled copy holds ints where integral and Fractions elsewhere
    assert all(type(x) is int for terms in alg.brackets.values() for x in terms.values())
    values = _assert_scaled_copy(alg, [Fraction(1 + i % 3) * (-1) ** i
                                       for i in range(alg.dim)])
    assert {type(x) for x in values} == {int, Fraction}


def _ambient_products(selection):
    """(ambient, vectors) that family_algebra hands to subalgebra."""
    if selection[0] == "osp":
        return osp_realization(*selection[1:])
    if selection[0] == "psl22":
        gl, vectors, _ = _sl_vectors(2, 2)
        return gl, vectors[:2] + vectors[3:]
    gl, vectors, _ = _sl_vectors(*selection[1:])
    return gl, vectors


@pytest.mark.parametrize("selection,extra", [(("osp", 7, 2), 1), (("sl", 4, 2), 0),
                                             (("psl22",), 0)],
                         ids=["osp72", "sl42", "psl22"])
def test_construction_costs_the_nonzero_products(monkeypatch, selection, extra):
    # no SuperAlgebra.bracket call, and one Span.coords call per basis pair
    # whose ambient product is nonzero (plus the one that finds e in osp)
    from wsuper.algebra import SuperAlgebra
    from wsuper.linalg import Span
    calls = {"bracket": 0, "coords": 0}
    bracket, coords = SuperAlgebra.bracket, Span.coords

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper
    monkeypatch.setattr(SuperAlgebra, "bracket", counted("bracket", bracket))
    monkeypatch.setattr(Span, "coords", counted("coords", coords))
    alg, _ = family_algebra(*selection)
    monkeypatch.undo()
    amb, vectors = _ambient_products(selection)
    assert len(vectors) == alg.dim
    nonzero = sum(1 for u in vectors for v in vectors if amb.bracket(u, v))
    assert nonzero < alg.dim ** 2
    assert calls == {"bracket": 0, "coords": nonzero + extra}


def _fraction_products():
    """gl(2|1) with the vectors of sl(2|1) scaled by (i + 2)/3 and
    negated at odd i: Fraction entries, some of them integral."""
    gl, vectors, _ = _sl_vectors(2, 1)
    return gl, [{k: Fraction((i + 2) * (-1) ** i, 3) * c for k, c in v.items()}
                for i, v in enumerate(vectors)]


@pytest.mark.parametrize("selection", [("osp", 7, 2), ("sl", 4, 2), ("psl22",), None],
                         ids=["osp72", "sl42", "psl22", "fractions"])
def test_pair_products_yields_the_nonzero_brackets_in_sorted_order(selection):
    amb, vectors = _ambient_products(selection) if selection else _fraction_products()
    expected = [((i, j), amb.bracket(u, v)) for i, u in enumerate(vectors)
                for j, v in enumerate(vectors) if amb.bracket(u, v)]
    assert expected
    assert list(pair_products(amb, vectors)) == expected


def _break_antisymmetry(br, form):
    br[(0, 1)] = {1: Fraction(2)}              # [E00, E01] = 2 E01, [E01, E00] = -E01


def _break_parity(br, form):
    br[(0, 0)] = {1: Fraction(1)}              # even-even bracket hits odd E01


def _break_jacobi(br, form):
    # antisymmetric and parity-preserving, but [E00, E11] = E00 is no derivation
    br[(0, 3)] = {0: Fraction(1)}
    br[(3, 0)] = {0: Fraction(-1)}


def _break_form_even(br, form):
    form[0, 1] = form[1, 0] = Fraction(1)       # pairs even E00 with odd E01


def _break_form_supersymmetry(br, form):
    form[0, 3] = Fraction(2)                    # (E00, E11) != (E11, E00)


def _break_form_invariance(br, form):
    form[0, 0] = Fraction(2)                    # still even and symmetric


def _break_form_nondegeneracy(br, form):
    form[3, 3] = Fraction(0)


# witnesses recorded from the dense check over basis vectors that the
# structure-constant scan replaced; every failing axiom is pinned, not only
# the one an edit aims at
@pytest.mark.parametrize("edit, failed", [
    (_break_antisymmetry, {"super_antisymmetry": (0, 1, 1), "jacobi": (0, 0, 1),
                           "form_invariant": (0, 1, 2)}),
    (_break_parity, {"super_antisymmetry": (0, 0, 1), "parity_additivity": (0, 0, 1),
                     "jacobi": (0, 0, 0), "form_invariant": (0, 0, 2)}),
    (_break_jacobi, {"jacobi": (0, 1, 2), "form_invariant": (0, 0, 3)}),
    (_break_form_even, {"form_even": (0, 1), "form_invariant": (0, 0, 1)}),
    (_break_form_supersymmetry, {"form_supersymmetric": (0, 3),
                                 "form_invariant": (0, 1, 2)}),
    (_break_form_invariance, {"form_invariant": (0, 1, 2)}),
    (_break_form_nondegeneracy, {"form_invariant": (1, 2, 3),
                                 "form_nondegenerate": "gram rank < dim"}),
], ids=["super_antisymmetry", "parity_additivity", "jacobi", "form_even",
        "form_supersymmetric", "form_invariant", "form_nondegenerate"])
def test_check_algebra_flags_violation_with_witness(edit, failed):
    # gl(1|1): E00, E11 even; E01, E10 odd; supertrace form
    from wsuper.algebra import SuperAlgebra
    alg = build_gl(1, 1)
    bad = {k: dict(v) for k, v in alg.brackets.items()}
    form = dict(alg.form)
    edit(bad, form)
    report = check_algebra(SuperAlgebra("broken", alg.parity, bad, form))
    assert not report.ok
    assert [name for name, _, _ in report.checks] == [
        "super_antisymmetry", "parity_additivity", "jacobi", "form_even",
        "form_supersymmetric", "form_invariant", "form_nondegenerate"]
    assert {name: witness for name, ok, witness in report.checks
            if not ok} == failed
    assert all(witness is None for _, ok, witness in report.checks if ok)


def test_parity_scan_skips_an_explicit_zero_term():
    # a hand-made SuperAlgebra keeps a stored 0: here c_00^2 = 0 on x_2 =
    # E10, which is odd while [E00, E00] is even; a zero term has no parity
    from oracles import dense_axiom_checks
    from wsuper.algebra import SuperAlgebra
    alg = build_gl(1, 1)
    brackets = {k: dict(v) for k, v in alg.brackets.items()}
    assert (0, 0) not in brackets and alg.parity[2] != alg.parity[0]
    brackets[0, 0] = {2: 0}
    made = SuperAlgebra("explicit zero", alg.parity, brackets, alg.form)
    assert made.brackets[0, 0] == {2: 0}
    checks = check_algebra(made).checks
    assert ("parity_additivity", True, None) in checks
    assert checks == check_algebra(alg).checks == dense_axiom_checks(made)


def test_check_algebra_reads_the_structure_constants(monkeypatch):
    # every axiom is decided on alg.brackets and alg.form alone, never by
    # bracketing dense basis vectors
    from wsuper.algebra import SuperAlgebra
    alg = build_psl22()

    def forbidden(*args):
        raise AssertionError("check_algebra re-derived a structure constant")
    monkeypatch.setattr(SuperAlgebra, "bracket", forbidden)
    monkeypatch.setattr(SuperAlgebra, "basis_vector", forbidden)
    assert check_algebra(alg).ok


def test_normalized_form_conditions():
    alg = build_sl(2, 1)
    e = alg.basis_vector(alg.basis_names.index("E[0,1]"))
    f = alg.basis_vector(alg.basis_names.index("E[1,0]"))
    h = alg.bracket(e, f)
    scaled = normalized_form(alg, e, f)
    assert scaled.form_value(e, f) == 1
    assert scaled.form_value(h, h) == 2
    form = dense_form(scaled)
    for i in range(alg.dim):
        for j in range(alg.dim):
            if alg.parity[i] != alg.parity[j]:
                assert form[i][j] == 0
    with pytest.raises(DegeneracyError):
        normalized_form(alg, e, e)


def test_psl22_gram_determinant_nonzero_by_oracle():
    alg = build_psl22()
    assert oracle_rank(dense_form(alg)) == alg.dim


def test_supertrace_oracle_agrees_on_gl():
    alg = build_gl(2, 2)
    x = alg.basis_vector(alg.basis_names.index("E[0,1]"))
    y = alg.basis_vector(alg.basis_names.index("E[1,0]"))
    prod = gl_vector_to_matrix(alg, x, 2, 2), gl_vector_to_matrix(alg, y, 2, 2)
    from oracles import mat_mul
    assert alg.form_value(x, y) == supertrace(mat_mul(*prod), 2)


def test_family_algebra_spec_interface():
    assert family_algebra("sl", 2, 1)[0].dim == 8
    assert family_algebra("psl22")[0].dim == 14
    with pytest.raises(InputError):
        family_algebra("sl", 2, 2)
    with pytest.raises(InputError):
        family_algebra("osp", 1, 3)
    with pytest.raises(InputError):
        family_algebra("nope")
