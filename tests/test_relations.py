import json
from fractions import Fraction
from itertools import combinations_with_replacement

import pytest
from hypothesis import example, given, settings, strategies as st

from oracles import b_table_by_fractions, bw_element
from wsuper import linalg, relations, whittaker
from wsuper.algebra import SuperAlgebra
from wsuper.catalog import CATALOG_NAMES, family_setup
from wsuper.grading import MinimalSetup
from wsuper.relations import (RELATION_IDS, SuiteContext, c0_double_sum,
                              c0_formula, extract_c0, generator_checks,
                              identities_suite, one_dim_rep, run_suite,
                              verify_scalar_reduction, verify_b_invariance,
                              verify_centrality, verify_deg0, verify_deg01,
                              w_pbw_check)
from wsuper.errors import InputError
from wsuper.whittaker import WhittakerElement

from conftest import get_ctx, get_setup

F = Fraction

# engine-derived constants; the closed double-sum formula values differ by
# exactly (s-r)^2/16 (see the acceptance suite and the project notes)
EXTRACTED_C0 = {"sl(2|1)": F(0), "osp(1|2)": F(-1, 8),
                "psl22": F(0), "osp(3|2)": F(0)}
FORMULA_C0 = {"sl(2|1)": F(1, 4), "osp(1|2)": F(-1, 16),
              "psl22": F(1), "osp(3|2)": F(9, 16)}


def ctx_for(setup):
    return get_ctx("psl22" if setup.alg.name == "psl(2|2)" else setup.alg.name)


def test_identities_suite_passes(catalog_setup):
    assert identities_suite(catalog_setup).ok


def test_deg0_relation(catalog_setup):
    rep = verify_deg0(catalog_setup, ctx_for(catalog_setup))
    assert rep.ok
    assert rep.detail["pairs"] == len(catalog_setup.cent[0]) ** 2


def test_deg0_has_nine_pairs_on_psl22(psl22):
    rep = verify_deg0(psl22, ctx_for(psl22))
    assert rep.detail["pairs"] == 9


def test_deg01_relation(catalog_setup):
    assert verify_deg01(catalog_setup, ctx_for(catalog_setup)).ok


def test_centrality(catalog_setup):
    assert verify_centrality(catalog_setup, ctx_for(catalog_setup)).ok


def test_seeded_corruption_fails_with_residue(psl22):
    ctx = SuiteContext(psl22, corrupt="theta-v-sign")
    rep = verify_deg0(psl22, ctx)
    assert not rep.ok
    assert any(res is not None and not res.is_zero() for _, res in rep.failures)


def test_extract_c0_values(catalog_setup):
    s = catalog_setup
    name = "psl22" if s.alg.name == "psl(2|2)" else s.alg.name
    rep, res = extract_c0(s, ctx_for(s))
    assert rep.ok                      # scalar residues, pair-consistent
    assert res.consistent
    assert res.value == EXTRACTED_C0[name]
    assert not res.matches_formula     # the measured (s-r)^2/16 gap
    formulas = {v for _, v in res.formula_values}
    assert formulas == {FORMULA_C0[name]}


def test_zero_pairing_pairs_have_zero_residue(psl22):
    s = psl22
    ctx = ctx_for(s)
    w = s.cent[1][0]
    B, pair = bw_element(s, ctx, w, w)
    assert pair == 0
    assert B.is_zero()


def test_c0_formula_double_sum_psl22(psl22):
    # the worked-example value: double sum = 4([w1,w2],f) on every pair
    s = psl22
    ctx = ctx_for(s)
    seen = 0
    for w1 in s.cent[1]:
        for w2 in s.cent[1]:
            pair = ctx.pair_value(w1, w2)
            ds = c0_double_sum(s, w1, w2)
            assert ds == 4 * pair
            if pair != 0:
                seen += 1
                assert c0_formula(s, w1, w2) == 1
    assert seen == 4
    with pytest.raises(InputError):
        c0_formula(s, s.cent[1][0], s.cent[1][0])   # zero pairing


def test_extraction_minus_formula_obeys_the_square_law(catalog_setup):
    s = catalog_setup
    name = "psl22" if s.alg.name == "psl(2|2)" else s.alg.name
    gap = EXTRACTED_C0[name] - FORMULA_C0[name]
    assert gap == -F((s.sdim - s.rdim) ** 2, 16)


def test_verify_scalar_reduction_reports_the_measured_gap(catalog_setup):
    # the closed scalar reduction fails by exactly (s-r)^2/32 * ([w1,w2],f)
    s = catalog_setup
    ctx = ctx_for(s)
    rep = verify_scalar_reduction(s, ctx)
    assert not rep.ok
    gap = F((s.sdim - s.rdim) ** 2, 32)
    for witness, residue in rep.failures:
        scalar = residue.scalar_part()
        assert scalar is not None
        i, j = (int(t) for t in witness.strip("(w)").replace("w", "").split(","))
        pair = ctx.pair_value(s.cent[1][i], s.cent[1][j])
        assert scalar == gap * pair


def test_b_invariance(catalog_setup):
    assert verify_b_invariance(catalog_setup, ctx_for(catalog_setup)).ok


def test_b_invariance_fails_on_a_perturbed_table():
    # b vanishes on osp(3|2), so a zero entry is replaced rather than scaled;
    # (w0,w1) has zero pairing and both vectors are odd, so only the
    # invariance identity can catch it
    s = get_setup("osp(3|2)")
    ctx = SuiteContext(s)
    B, pair = ctx.b_table[0][1]
    assert B.is_zero() and pair == 0
    ctx.b_table[0][1] = (WhittakerElement.unit(s, 1), pair)
    rep = verify_b_invariance(s, ctx)
    assert not rep.ok
    assert all(w.startswith("invariance at") for w, _ in rep.failures)


def test_one_dim_rep(catalog_setup):
    s = catalog_setup
    name = "psl22" if s.alg.name == "psl(2|2)" else s.alg.name
    rep = one_dim_rep(s, ctx_for(s))
    assert rep.ok
    gens = rep.detail["ideal_generators"]
    assert gens[-1].startswith("C - ")
    n_thetas = len(catalog_setup.cent[0]) + len(catalog_setup.cent[1])
    assert len(gens) == n_thetas + 1
    assert rep.detail["c0"] == str(EXTRACTED_C0[name])
    assert gens[-1] == "C - %s" % EXTRACTED_C0[name]


def test_one_dim_fails_outside_the_monomial_span():
    # flipping the z-corrections of every Theta_v changes the quadratic
    # monomials, so the true [Theta_wi, Theta_wj] leaves their span
    result = run_suite(family_setup("sl", 3, 1), which=["one_dim"],
                       corrupt="theta-v-sign")
    rep = result.reports[0]
    assert not rep.ok
    assert [w for w, _ in rep.failures] == [
        "(w%d,w%d) outside the monomial span" % p
        for p in ((0, 1), (0, 3), (1, 0), (1, 2), (2, 1), (2, 3), (3, 0), (3, 2))]
    assert all(not r.is_zero() and r.scalar_part() is None for _, r in rep.failures)
    # the pairs left in the span all have a_C = 0: c0 is not determined,
    # so no c0 = 0 and no C - 0 is reported
    assert rep.detail["note"] == "no pair has a_C != 0; c0 not determined"
    assert "c0" not in rep.detail
    assert not any(g.startswith("C - ") for g in rep.detail["ideal_generators"])


def test_one_dim_fails_where_eps_is_not_multiplicative():
    # (w0,w0) has zero pairing, so its commutator has no C term: a constant
    # added to it admits no c0 at all
    s = get_setup("psl22")
    ctx = SuiteContext(s)
    n0 = len(s.cent[0])
    ctx._commutators[(n0, n0)] = ctx.commutator(n0, n0) + WhittakerElement.unit(s, 1)
    rep = one_dim_rep(s, ctx)
    assert rep.failures == [("a_1 + c0 a_C != 0 at (w0,w0)", WhittakerElement.unit(s, 1))]
    assert rep.detail["c0"] == "0"


def test_w_pbw_check_psl22(psl22):
    rep = w_pbw_check(psl22, 4, ctx_for(psl22))
    assert rep.ok
    assert rep.detail["monomials"] == 15
    assert rep.detail["rank"] == 15
    assert rep.detail["symalg_count"] == 15


def test_w_pbw_check_osp12_small():
    s = get_setup("osp(1|2)")
    rep = w_pbw_check(s, 4, ctx_for(s))
    assert rep.ok
    assert rep.detail["monomials"] == 3     # 1, Theta_w, C
    assert rep.detail["rank"] == 3


def test_w_pbw_check_rejects_small_degree(psl22):
    with pytest.raises(InputError):
        w_pbw_check(psl22, 1)


def test_run_suite_full(catalog_setup):
    result = run_suite(catalog_setup, fail_fast=False)
    status = {r.rel_id: r.ok for r in result.reports}
    for rel in RELATION_IDS:
        if rel == "scalar_reduction":
            assert not status[rel]
        else:
            assert status[rel], rel
    assert not result.ok


def test_run_suite_selection_and_fail_fast(psl22):
    ok_subset = [r for r in RELATION_IDS if r != "scalar_reduction"]
    result = run_suite(psl22, which=ok_subset)
    assert result.ok
    result = run_suite(psl22)          # fail-fast stops at scalar_reduction
    assert result.reports[-1].rel_id == "scalar_reduction"
    assert not result.ok
    with pytest.raises(InputError):
        run_suite(psl22, which=["nope"])


def test_square_law_on_larger_osp():
    # osp(5|2): dim 23, r = 5 odd with a self-dual middle vector, ten-dim
    # g^e(0); extraction stays pair-consistent over 25 pairs and the gap to
    # the closed formula is again exactly -(s-r)^2/16
    s = family_setup("osp", 5, 2)
    assert (s.sdim, s.rdim) == (0, 5)
    ctx = SuiteContext(s)
    rep, res = extract_c0(s, ctx)
    assert rep.ok and res.consistent
    assert res.value == F(-3, 8)
    assert res.formula_values[0][1] == F(19, 16)
    assert res.value - res.formula_values[0][1] == -F(25, 16)


def test_generator_renders_appear_in_report(psl22):
    result = run_suite(psl22, which=["generators"])
    assert result.ok
    gens = result.reports[0].detail["generators"]
    labels = [g["label"] for g in gens]
    assert "C" in labels and "ThetaCas" in labels
    assert len(gens) == len(psl22.cent[0]) + len(psl22.cent[1]) + 2
    by_label = {g["label"]: g for g in gens}
    assert by_label["Theta[x3]"]["value"] == "z2·z4 + x3"
    text = "\n".join(result.lines())
    assert "Theta[x3] (deg 2) = z2·z4 + x3" in text


def test_full_suite_green_when_s_equals_r():
    # the square law predicts a vanishing gap at s = r; sl(3|1) has s = r = 2
    # and indeed passes everything, scalar reduction included
    from wsuper.algebra import build_sl
    from wsuper.catalog import _unit_by_name
    from wsuper.grading import build_minimal_setup
    alg = build_sl(3, 1)
    setup = build_minimal_setup(alg, _unit_by_name(alg, "E[0,1]"))
    assert (setup.sdim, setup.rdim) == (2, 2)
    result = run_suite(setup, fail_fast=False)
    assert result.ok
    assert result.c0.value == F(-1, 2)
    assert result.c0.matches_formula


def test_suite_report_json_schema_and_determinism(psl22):
    a = json.dumps(run_suite(psl22, which=["identities", "deg0", "c0"]).as_json(),
                   indent=2)
    b = json.dumps(run_suite(psl22, which=["identities", "deg0", "c0"]).as_json(),
                   indent=2)
    assert a == b
    obj = json.loads(a)
    assert obj["algebra"] == "psl(2|2)"
    assert obj["setup"] == {"s": 0, "r": 4, "d0": 2, "d1": 4}
    assert [r["id"] for r in obj["relations"]] == ["identities", "deg0", "c0"]
    assert all(r["status"] == "pass" for r in obj["relations"])
    assert obj["c0"]["consistent"] is True
    assert obj["c0"]["matches_formula"] is False
    assert obj["c0"]["formula"] == "1"
    extracted = {p["c0"] for p in obj["c0"]["pairs"] if p["c0"] is not None}
    assert extracted == {"0"}


def test_failure_report_carries_residue_terms(psl22):
    result = run_suite(psl22, which=["scalar_reduction"], fail_fast=False)
    obj = result.as_json()
    rel = obj["relations"][0]
    assert rel["status"] == "fail"
    assert rel["residue"]
    first = rel["residue"][0]
    assert first["terms"][0]["coeff"] == "1/2"
    assert first["terms"][0]["monomial"] == []


B_TABLE_ALGEBRAS = {"psl22": ("psl22",), "sl(3|1)": ("sl", 3, 1),
                    "osp(5|2)": ("osp", 5, 2), "sl(4|1)": ("sl", 4, 1),
                    "osp(1|4)": ("osp", 1, 4)}


@pytest.mark.parametrize("corrupt", [None, "theta-v-sign"])
@pytest.mark.parametrize("name", sorted(B_TABLE_ALGEBRAS))
def test_b_table_equals_the_definition(name, corrupt):
    # the table is assembled bilinearly from factored data; bw_element is
    # the per-pair definition, run here on a context that has built no table
    setup = family_setup(*B_TABLE_ALGEBRAS[name])
    table = SuiteContext(setup, corrupt=corrupt).b_table
    fresh = SuiteContext(setup, corrupt=corrupt)
    basis = setup.cent[1]
    assert basis
    for i, w1 in enumerate(basis):
        for j, w2 in enumerate(basis):
            assert table[i][j] == bw_element(setup, fresh, w1, w2), (i, j)


@pytest.mark.parametrize("selection", [("osp", 1, 2), ("osp", 3, 2), ("sl", 3, 1),
                                       ("psl22",), ("gl", 2, 2)])
def test_b_table_equals_its_fraction_assembly(selection):
    # one denominator per entry against the Fraction sum term by term; the
    # selections have odd-odd pairs and zero-pairing pairs
    ctx = SuiteContext(family_setup(*selection))
    assert ctx.b_table == b_table_by_fractions(ctx)


def _warmed_osp52():
    setup = family_setup("osp", 5, 2)
    ctx = SuiteContext(setup)
    _ = ctx.gens, ctx.tcas, ctx.coords(setup.cent[0][0])
    return setup, ctx


def test_b_table_takes_each_sharp_once(monkeypatch):
    # work counter, not a timing: one sharp per (w, z) and per (z*, w)
    setup, ctx = _warmed_osp52()
    calls = []
    sharp = MinimalSetup.sharp
    monkeypatch.setattr(MinimalSetup, "sharp",
                        lambda self, x: calls.append(x) or sharp(self, x))
    _ = ctx.b_table
    assert len(calls) <= 2 * len(setup.cent[1]) * len(setup.zbasis) == 50


def _count(monkeypatch, name, modules):
    """Record the calls of the function name as bound in each module."""
    calls = []
    fn = getattr(modules[0], name)

    def counted(*args):
        calls.append(args)
        return fn(*args)
    for module in modules:
        monkeypatch.setattr(module, name, counted)
    return calls


def test_scalar_reduction_brackets_each_side_once(monkeypatch):
    # work counter, not a timing: the nested letter brackets [z_b,[z_a,w1]]
    # and [z*_b,[z*_a,w2]] are taken once per basis vector, not once per
    # pair (a per-pair double sum makes 1293 brackets here), and the
    # Theta_w have filled side 1 of the setup's memo already, so only side
    # 0 is bracketed here; the verdict is the published scalar's, which
    # fails on osp(5|2) where s != r.  No bracket is taken in g.
    setup, ctx = _warmed_osp52()
    _ = ctx.b_table
    calls, in_g = [], []
    bracket, lbracket = SuperAlgebra.bracket, MinimalSetup.lbracket
    monkeypatch.setattr(SuperAlgebra, "bracket",
                        lambda self, x, y: in_g.append(x) or bracket(self, x, y))
    monkeypatch.setattr(MinimalSetup, "lbracket",
                        lambda self, x, y: calls.append(x) or lbracket(self, x, y))
    rep = verify_scalar_reduction(setup, ctx)
    assert not rep.ok and rep.detail["pairs"] == 25
    assert len(calls) == 283          # side 0: 130, the final brackets: 153
    calls.clear()
    assert verify_scalar_reduction(setup, ctx).as_json() == rep.as_json()
    assert len(calls) == 153          # one final bracket per matched (a, b)
    assert in_g == []
    fresh, basis = family_setup("osp", 5, 2), setup.cent[1]
    assert all(c0_double_sum(setup, w1, w2) == c0_double_sum(fresh, w1, w2)
               for w1 in basis for w2 in basis)


def test_deg0_computes_each_commutator_once(monkeypatch):
    # work counters: no model product at all, and one commutator per
    # unordered (v, v') pair; the other order is read from the memo
    setup, ctx = _warmed_osp52()
    products = _count(monkeypatch, "multiply_q", (whittaker, relations))
    commutators = _count(monkeypatch, "supercommutator_q", (whittaker, relations))
    assert verify_deg0(setup, ctx).ok
    n0 = len(setup.cent[0])
    assert products == []
    assert len(commutators) == n0 * (n0 + 1) // 2 == 55


def test_warmed_context_computes_each_commutator_pair_once(monkeypatch):
    setup, ctx = _warmed_osp52()
    commutators = _count(monkeypatch, "supercommutator_q", (whittaker, relations))
    n = len(ctx.basis)
    for _ in range(2):
        for k in range(n):
            for l in range(n):
                ctx.commutator(k, l)
    assert len(commutators) == n * (n + 1) // 2
    assert verify_deg0(setup, ctx).ok and verify_deg01(setup, ctx).ok
    assert w_pbw_check(setup, 4, ctx).ok
    assert len(commutators) == n * (n + 1) // 2
    # [C, Theta] comes from the memo too; only [C, ThetaCas] and
    # [ThetaCas, Theta_v] are formed outside it
    assert verify_centrality(setup, ctx).ok
    assert len(commutators) == n * (n + 1) // 2 + 1 + len(setup.cent[0])


def test_centrality_and_membership_make_no_model_product(monkeypatch):
    # commutators come from the superderivation kernel, not from uv and vu
    setup, ctx = _warmed_osp52()
    products = _count(monkeypatch, "multiply_q", (whittaker, relations))
    assert verify_centrality(setup, ctx).ok
    for gen in ctx.gens[:-1]:
        assert whittaker.is_w_element(gen.value) == (True, None)
    assert products == []


@pytest.mark.parametrize("name", ["psl22", "osp(5|2)"])
def test_b_table_leaves_the_commutator_memo_intact(name):
    # b_table adds its structural terms to a copy of each memoised
    # commutator; the memo must still hold the commutators themselves
    setup = family_setup(*B_TABLE_ALGEBRAS[name])
    ctx = SuiteContext(setup)
    _ = ctx.b_table
    fresh = SuiteContext(setup)
    n = len(ctx.basis)
    assert ctx._commutators
    for k in range(n):
        for l in range(n):
            assert ctx.commutator(k, l) == fresh.commutator(k, l), (k, l)


def test_pbw_on_a_warmed_context_runs_no_dense_elimination(monkeypatch):
    setup, ctx = _warmed_osp52()
    calls = []
    rref = linalg.rref
    monkeypatch.setattr(linalg, "rref", lambda rows: calls.append(rows) or rref(rows))
    assert w_pbw_check(setup, 4, ctx).ok
    assert calls == []


def test_one_dim_reads_the_pbw_monomials(monkeypatch):
    # work counter: pbw factors the monomials once on the context; one_dim
    # reduces the memoised commutators on that echelon, with no product
    setup, ctx = _warmed_osp52()
    pbw = w_pbw_check(setup, 4, ctx)
    assert pbw.ok and pbw.detail["rank"] == pbw.detail["monomials"]
    products = _count(monkeypatch, "multiply_q", (whittaker, relations))
    commutators = _count(monkeypatch, "supercommutator_q", (whittaker, relations))
    rep = one_dim_rep(setup, ctx)
    assert rep.ok and rep.detail["c0"] == "-3/8"
    assert products == [] and commutators == []
    assert ctx.monomials(4) is ctx.monomials(4)


def test_pairing_invariance_can_fail(monkeypatch):
    # x0 y0 added to the pairing, with x0 the z1-coordinate, keeps it
    # bilinear but not g^e(0)-invariant; no other identity reads the pairing
    setup = family_setup("psl22")
    pairing = setup.pairing

    def z1(x):
        return setup.to_letters(x).get(setup.z_start, F(0))
    monkeypatch.setattr(setup, "pairing", lambda x, y: pairing(x, y) + z1(x) * z1(y))
    rep = identities_suite(setup)
    assert rep.failures
    assert all(w.startswith("pairing invariance v#") and r is None
               for w, r in rep.failures)


def test_w_pbw_check_fails_on_a_duplicated_generator(psl22):
    ctx = SuiteContext(psl22)
    ctx.gens[1] = ctx.gens[0]
    rep = w_pbw_check(psl22, 4, ctx)
    n = rep.detail["monomials"]
    assert rep.detail["rank"] < n
    assert "monomials dependent: rank %d of %d" % (rep.detail["rank"], n) \
        in [w for w, _ in rep.failures]


def test_w_pbw_check_filtration_bound_can_fail(psl22):
    # adding a term of Kazhdan degree 4 to every Theta_[Yi,Yj] puts it in
    # the top part of each pair with bound <= 3.  The lone letter e is not
    # a quadratic polynomial in the degree-0 generators, so pbw must fail;
    # the product Theta_v0 Theta_v1 is one, so pbw must still pass.
    for extra, fails in (
            (WhittakerElement(psl22, {(psl22.idx_e,): F(1)}), True),
            (get_ctx("psl22").product(0, 1), False)):
        ctx = SuiteContext(psl22)
        _ = ctx.tcas        # ThetaCas in B is summed before Theta is patched
        theta_of = ctx.theta_of         # Theta_[Yi,Yj] is summed from coordinates
        ctx.theta_of = lambda coords: theta_of(coords) + extra
        rep = w_pbw_check(psl22, 4, ctx)
        bounds = [w for w, _ in rep.failures if w.startswith("filtration bound")]
        assert bool(bounds) == fails
        assert rep.failures == [(w, None) for w in bounds]


# ---------------------------------------------------------------------------
# every check can fail: each branch forced once on a fresh context


def _plus_one(ctx, i, j):
    """Add 1 to B(w_i, w_j) in the basis-pair table."""
    B, pair = ctx.b_table[i][j]
    ctx.b_table[i][j] = (B + WhittakerElement.unit(ctx.setup, 1), pair)
    return pair


def test_extract_c0_fails_on_a_residue_at_a_zero_pairing_pair():
    s = family_setup("psl22")
    ctx = SuiteContext(s)
    assert _plus_one(ctx, 0, 0) == 0
    rep, result = extract_c0(s, ctx)
    assert rep.failures == [("zero-pairing pair (w0,w0) has residue",
                             WhittakerElement.unit(s, 1))]
    assert result.consistent and result.value == 0


def test_extract_c0_fails_when_the_pairs_disagree():
    # (w1,w1) has pairing -4, so B + 1 moves its c0 from 0 to 1/2
    s = family_setup("osp", 3, 2)
    ctx = SuiteContext(s)
    assert _plus_one(ctx, 1, 1) == -4
    rep, result = extract_c0(s, ctx)
    assert rep.failures == [("c0 at (w0,w2) is 0, at (w1,w1) is 1/2", None)]
    assert not result.consistent and result.value == 0


@pytest.mark.parametrize("selection", [("sl", 2, 0), ("gl", 2, 0),
                                       ("osp", 0, 2), ("sl", 0, 2)])
def test_extract_c0_notes_an_empty_g_e_1(selection):
    s = family_setup(*selection)
    assert s.cent[1] == []
    result = run_suite(s, fail_fast=False)
    assert result.ok
    c0 = next(r for r in result.reports if r.rel_id == "c0")
    assert c0.detail == {"note": "g^e(1) = 0; nothing to extract"}
    assert result.c0.pairs == [] and result.c0.value is None
    # no pair determines c0 in one_dim either: a note, and no C - c0
    one_dim = next(r for r in result.reports if r.rel_id == "one_dim")
    assert one_dim.detail == {
        "ideal_generators": ["Theta[x1+x2]"] if selection == ("gl", 2, 0) else [],
        "note": "no pair has a_C != 0; c0 not determined"}


def test_one_dim_fails_where_no_pair_determines_c0():
    # osp(1|2) has one g^e(1) pair; its commutator replaced by 1 has
    # a_C = 0 and a_1 = 1, so c0 is not determined and no c0 gives eps
    s = get_setup("osp(1|2)")
    ctx = SuiteContext(s)
    assert len(ctx.basis) == 2
    ctx._commutators[(0, 0)] = WhittakerElement.unit(s, 1)
    rep = one_dim_rep(s, ctx)
    assert rep.failures == [("a_1 + c0 a_C != 0 at (w0,w0)", WhittakerElement.unit(s, 1))]
    assert rep.detail == {"ideal_generators": ["Theta[y1]"],
                          "note": "no pair has a_C != 0; c0 not determined"}


def test_b_invariance_fails_on_an_odd_b():
    # w0 is even and w2 odd on sl(3|1), so b(w0, w2) must vanish
    s = family_setup("sl", 3, 1)
    ctx = SuiteContext(s)
    assert _plus_one(ctx, 0, 2) == 0
    rep = verify_b_invariance(s, ctx)
    assert rep.failures == [("b not even at (w0,w2)", None),
                            ("invariance at v0,(w0,w2): -3/2 != 1/2", None),
                            ("invariance at v1,(w0,w2): 1 != -1", None)]


def test_b_invariance_fails_off_proportionality():
    s = family_setup("osp", 3, 2)
    ctx = SuiteContext(s)
    _plus_one(ctx, 1, 1)
    rep = verify_b_invariance(s, ctx)
    assert rep.failures[0] == ("b not proportional to ([.,.],f): ratios "
                               "['-1/4', '0']", None)
    assert all(w.startswith("invariance at") for w, _ in rep.failures[1:])


@pytest.mark.parametrize("grade, expected", [
    (0, ["degree of Theta[1/2*x1+x2] > 2", "membership Theta[1/2*x1+x2] at ad z1",
         "linearity of Theta on g^e(0)"]),
    (1, ["sigma negates Theta[y1]", "degree of Theta[y1] > 3",
         "membership Theta[y1] at ad z1", "linearity of Theta on g^e(1)"])])
def test_generator_checks_fail_above_the_degree_bound(grade, expected):
    # the lone letter e has Kazhdan degree 4
    s = family_setup("psl22")
    ctx = SuiteContext(s)
    gen = ctx.gens[(0, ctx.n0)[grade]]
    gen.value = gen.value + WhittakerElement(s, {(s.idx_e,): F(1)})
    rep = generator_checks(s, ctx)
    assert [w for w, _ in rep.failures] == expected
    assert dict(rep.failures)[expected[grade]] == gen.value


@pytest.mark.parametrize("corrupt", (None, "theta-v-sign"))
def test_generator_checks_prove_membership_only_of_replaced_values(monkeypatch, corrupt):
    # work counter: standard_generators checked every value it built, so
    # generator_checks runs is_w_element only on the values the control
    # replaced, the n0 Theta_v, and reports the same verdict
    s = family_setup("osp", 3, 2)
    ctx = SuiteContext(s, corrupt=corrupt)
    gens = ctx.gens                     # builds and checks every generator
    seen = []
    check = relations.is_w_element
    monkeypatch.setattr(relations, "is_w_element", lambda q: seen.append(q) or check(q))
    rep = generator_checks(s, ctx)
    assert seen == ([g.value for g in gens[:ctx.n0]] if corrupt else [])
    assert rep.ok is (corrupt is None)


def test_generator_checks_fail_above_the_degree_of_c():
    s = family_setup("psl22")
    ctx = SuiteContext(s)
    cas = ctx.gens[-1]
    cas.value = cas.value + WhittakerElement(s, {(s.idx_e, s.idx_e): F(1)})
    assert generator_checks(s, ctx).failures == [("degree of C > 4", cas.value)]


def test_w_pbw_check_fails_on_the_graded_count(monkeypatch, psl22):
    count = relations._symalg_count
    monkeypatch.setattr(relations, "_symalg_count", lambda *args: count(*args) + 1)
    rep = w_pbw_check(psl22, 4, SuiteContext(psl22))
    assert rep.failures == [("graded count 15 != supersymmetric-algebra count 16", None)]
    assert rep.detail == {"monomials": 15, "rank": 15, "symalg_count": 16}


def test_the_suite_basis_ends_in_2e_whatever_g_e_2_basis_the_setup_holds():
    # the suite reads no setup.cent[2]: a tampered one changes nothing
    s = family_setup("psl22")
    s.cent = {**s.cent, 2: [linalg.lin_comb({0: F(1), 1: F(1)}, [s.triple.e, s.triple.h])]}
    ctx = SuiteContext(s)
    assert ctx.basis[-1] == linalg.vec_scale(2, s.triple.e)
    assert verify_centrality(s, ctx).ok


@pytest.mark.parametrize("selection, cent2", [
    (("sl", 2, 1), 1), (("sl", 3, 1), 1), (("psl22",), 1), (("osp", 3, 2), 2)])
def test_theta_of_the_last_basis_vector_is_c(selection, cent2):
    # the setup's g^e(2) vector is cent2 * e; the suite's is 2e either
    # way, so the product memo's C entry is Theta_k C and Theta(e) is C/2
    s = family_setup(*selection)
    assert s.cent[2] == [linalg.vec_scale(cent2, s.triple.e)]
    ctx = SuiteContext(s)
    last = len(ctx.basis) - 1
    assert ctx.product(0, last) == whittaker.multiply_q(ctx.gens[0].value, ctx.gens[-1].value)
    assert ctx.theta(s.triple.e) == ctx.gens[-1].value.scale(F(1, 2))


# ---------------------------------------------------------------------------
# pbw: the monomials, their count and the filtration bound's work


@pytest.mark.parametrize("name, max_deg, count", [
    ("psl22", 2, 4), ("psl22", 3, 8), ("psl22", 5, 27), ("psl22", 6, 46),
    ("sl(2|1)", 2, 2), ("sl(2|1)", 3, 4), ("sl(2|1)", 5, 8), ("sl(2|1)", 6, 11),
    ("osp(3|2)", 2, 4), ("osp(3|2)", 3, 7), ("osp(3|2)", 5, 23), ("osp(3|2)", 6, 39)])
def test_w_pbw_check_below_and_above_degree_4(name, max_deg, count):
    # above degree 4 a monomial of three or more generators is a model
    # product of its prefix and its last generator
    s = get_setup(name)
    rep = w_pbw_check(s, max_deg, SuiteContext(s))
    assert rep.ok
    assert rep.detail == {"monomials": count, "rank": count, "symalg_count": count}


@pytest.mark.parametrize("name, echelons", [("psl22", 1), ("osp(5|2)", 1)])
def test_pbw_makes_no_product_of_a_g_e_0_pair_out_of_order(monkeypatch, name, echelons):
    # work counter: Theta_l Theta_k is read from Theta_k Theta_l and the
    # commutator memo, so no product for k > l is made or memoised.  One
    # echelon holds the monomials; the bound reads the residues, B on the
    # g^e(1) pairs, which have no top part, so no echelon of the g^e(0)
    # quadratics is built
    setup = family_setup(*B_TABLE_ALGEBRAS[name])
    ctx = SuiteContext(setup)
    products = _count(monkeypatch, "multiply_q", (whittaker, relations))
    built = []
    echelon = relations.Echelon
    monkeypatch.setattr(relations, "Echelon", lambda *rows: built.append(1) or echelon(*rows))
    assert w_pbw_check(setup, 4, ctx).ok
    assert len(built) == echelons
    n0 = len(setup.cent[0])
    index = {id(g.value): k for k, g in enumerate(ctx.gens[:n0])}
    pairs = [(index.get(id(a)), index.get(id(b))) for a, b in products]
    assert not [(k, l) for k, l in pairs if None not in (k, l) and k > l]
    assert set(ctx._products) == {(k, l) for k in range(n0) for l in range(k, n0)}


@pytest.mark.parametrize("name", ["psl22", "osp(5|2)"])
def test_pbw_and_c0_catch_a_residue_fault_at_one_g_e_1_pair(name):
    # the residue memo entry of (w0, w1) plus the lone letter e, of Kazhdan
    # degree 4, is not a quadratic polynomial in the g^e(0) generators;
    # plus Theta_0 Theta_1 it is one.  B is non-scalar either way
    setup = family_setup(*B_TABLE_ALGEBRAS[name])
    n0 = len(setup.cent[0])
    for extra, fails in ((WhittakerElement(setup, {(setup.idx_e,): F(1)}), True),
                         (SuiteContext(setup).product(0, 1), False)):
        ctx = SuiteContext(setup)
        ctx._residues[(n0, n0 + 1)] = ctx.residue(n0, n0 + 1) + extra
        pbw = w_pbw_check(setup, 4, ctx)
        assert pbw.failures == [
            ("filtration bound at (%d,%d): top part not a quadratic polynomial in "
             "the generators" % (n0, n0 + 1), None)] * fails
        rep, _ = extract_c0(setup, ctx)
        assert [w for w, _ in rep.failures] == ["non-scalar residue at (w0,w1)",
                                                "non-scalar residue at (w1,w0)"]


@pytest.mark.parametrize("selection", [("psl22",), ("osp", 5, 2), ("sl", 4, 2)])
def test_a_full_suite_makes_no_product_out_of_order(monkeypatch, selection):
    # work counter: B's terms Theta_k Theta_l with k > l are read from the
    # product with k < l and the commutator memo
    contexts = []
    context = relations.SuiteContext
    monkeypatch.setattr(relations, "SuiteContext",
                        lambda *args, **kw: contexts.append(context(*args, **kw)) or contexts[-1])
    run_suite(family_setup(*selection), fail_fast=False)
    (ctx,) = contexts
    assert ctx._products and [(k, l) for k, l in ctx._products if k > l] == []


@pytest.mark.parametrize("name", CATALOG_NAMES + ("osp(5|2)",))
def test_pbw_on_a_fresh_context_builds_one_echelon(monkeypatch, name):
    # work counter: the monomials' echelon only; no residue of a passing
    # run has a part above its bound
    setup = family_setup("osp", 5, 2) if name == "osp(5|2)" else get_setup(name)
    built = []
    echelon = relations.Echelon
    monkeypatch.setattr(relations, "Echelon", lambda *rows: built.append(1) or echelon(*rows))
    assert w_pbw_check(setup, 4, SuiteContext(setup)).ok
    assert len(built) == 1


def test_filtration_bound_spans_the_commutators(psl22):
    # [Theta_0, Theta_1] added to every Theta_[Yi,Yj] puts it in the top
    # part of each g^e(0) pair, whose bound is 1.  The ordered products
    # span it, as Theta_0 Theta_1 - (-1)^{|0||1|} Theta_1 Theta_0, so pbw
    # must pass although no product with k > l is formed
    extra = get_ctx("psl22").commutator(0, 1)
    ctx = SuiteContext(psl22)
    theta = ctx.theta
    ctx.theta = lambda x: theta(x) + extra
    assert w_pbw_check(psl22, 4, ctx).ok


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(st.lists(st.tuples(st.integers(1, 5), st.integers(0, 1)), max_size=6),
       st.integers(0, 9))
@example([(2, 0), (3, 1), (4, 0)], 1)
def test_symalg_count_counts_supersymmetric_monomials(gens, max_deg):
    # brute force: multisets of generators, no odd one twice, total degree
    # <= max_deg; max_deg may lie below every degree
    degrees, parities = [d for d, _ in gens], [p for _, p in gens]
    count = 0
    for size in range(max_deg + 1):
        for idxs in combinations_with_replacement(range(len(gens)), size):
            odd = [i for i in idxs if parities[i]]
            if len(set(odd)) == len(odd) and sum(degrees[i] for i in idxs) <= max_deg:
                count += 1
    assert relations._symalg_count(degrees, parities, max_deg) == count
