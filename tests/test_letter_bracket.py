"""The letter bracket MinimalSetup.lbracket against the bracket in g, the
value type of letter coordinates, and the work of one c0 extraction, which
brackets in letters only."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from test_axiom_oracle import SCALED_SL21
from wsuper import enveloping, whittaker
from wsuper.algebra import SuperAlgebra, build_sl
from wsuper.catalog import CATALOG_NAMES, _unit_by_name, family_setup
from wsuper.grading import MinimalSetup, build_minimal_setup
from wsuper.linalg import lin_comb
from wsuper.relations import SuiteContext, extract_c0

from conftest import NONUNIT, get_setup

# sl(2|1) on the basis (i+1)/(i+2) x_i: its letters are not unit vectors
# and its letter brackets have denominators 2 and 3 among others
SCALED = "sl(2|1) scaled"
SETUPS = CATALOG_NAMES + (NONUNIT, SCALED)
_scaled = []


def _setup(name):
    if name != SCALED:
        return get_setup(name)
    if not _scaled:     # E[0,1] of the base is (i+2)/(i+1) times x_i here
        (i, _), = _unit_by_name(build_sl(2, 1), "E[0,1]").items()
        _scaled.append(build_minimal_setup(SCALED_SL21, {i: Fraction(i + 2, i + 1)}))
    return _scaled[0]


def _exact(c):
    """An int when integral, else a Fraction: never a float, never a
    Fraction with denominator 1."""
    return type(c) is int or (type(c) is Fraction and c.denominator > 1)


COEFFS = st.sampled_from([1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3), Fraction(5, 4)])


@pytest.mark.parametrize("name", SETUPS)
@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(data=st.data())
def test_lbracket_equals_the_bracket_in_g(name, data):
    s = _setup(name)
    vectors = st.dictionaries(st.integers(0, s.dim - 1), COEFFS, max_size=4)
    x, y = data.draw(vectors), data.draw(vectors)
    got = s.lbracket(x, y)
    assert got == s.to_letters(s.alg.bracket(lin_comb(x, s.letters),
                                             lin_comb(y, s.letters)))
    assert list(got) == sorted(got)
    assert all(c and _exact(c) for c in got.values())


@pytest.mark.parametrize("name", SETUPS)
def test_letter_coordinates_are_ints_or_fractions(name):
    s = _setup(name)
    values = [c for row in s._basis_letters for c in row.values()]
    values += [c for row in s.bracket_rows for entry in row for _, c in entry]
    values += [c for x in s.letters for c in s.to_letters(x).values()]
    values += [c for zs in s.z_letters for z in zs for c in z.values()]
    values += [c for w in s.cent[1] for side in (0, 1)
               for v in s.nested(side, w).values() for c in v.values()]
    assert values and all(_exact(c) for c in values)
    if name == SCALED:
        assert any(type(c) is Fraction for row in s._basis_letters for c in row.values())
        dens = {c.denominator for row in s.bracket_rows for entry in row for _, c in entry}
        assert {2, 3} <= dens


class _CountingRow(list):
    """A row of bracket_rows that counts the letter brackets read from it."""
    reads = 0

    def __getitem__(self, j):
        _CountingRow.reads += 1
        return list.__getitem__(self, j)


@pytest.mark.parametrize("family, rewrites, straightens",
                         ((("osp", 7, 2), 2131, 526), (("sl", 4, 2), 5544, 449)),
                         ids=("osp(7|2)", "sl(4|2)"))
def test_one_c0_brackets_only_in_letters(monkeypatch, family, rewrites, straightens):
    # work counters, not timings: one extract_c0 on a fresh setup takes no
    # bracket in g; the model work is that of the route through
    # SuperAlgebra.bracket: the straighten calls, and the letter brackets
    # they read, one per rewrite step (a swap or an odd square)
    setup = family_setup(*family)
    calls = {"bracket": 0, "straighten": 0}
    bracket, straighten = SuperAlgebra.bracket, enveloping.straighten

    def counted_bracket(self, x, y):
        calls["bracket"] += 1
        return bracket(self, x, y)

    def counted_straighten(setup, pairs):
        calls["straighten"] += 1
        rows = setup.bracket_rows
        setup.bracket_rows = [_CountingRow(row) for row in rows]
        try:
            return straighten(setup, pairs)
        finally:
            setup.bracket_rows = rows
    monkeypatch.setattr(SuperAlgebra, "bracket", counted_bracket)
    for module in (enveloping, whittaker):
        monkeypatch.setattr(module, "straighten", counted_straighten)
    _CountingRow.reads = 0
    rep, result = extract_c0(setup)
    assert rep.ok and result.value is not None
    assert calls == {"bracket": 0, "straighten": straightens}
    assert _CountingRow.reads == rewrites


@pytest.mark.parametrize("family, to_letters, formulas",
                         ((("osp", 7, 2), 826, 7), (("sl", 4, 2), 698, 8)),
                         ids=("osp(7|2)", "sl(4|2)"))
def test_one_c0_reads_the_pairing_off_the_basis_letters(monkeypatch, family, to_letters,
                                                        formulas):
    # work counters: B and its table read ([w_i, w_j], f) from the letters
    # of the basis, and the formula value at each pair with a nonzero
    # pairing takes that pairing from the table: no vector goes through
    # pair_value
    setup = family_setup(*family)
    calls = {"to_letters": 0, "pair_value": 0}
    convert, pair_value = MinimalSetup.to_letters, SuiteContext.pair_value

    def counted_to_letters(self, vec):
        calls["to_letters"] += 1
        return convert(self, vec)

    def counted_pair_value(self, w1, w2):
        calls["pair_value"] += 1
        return pair_value(self, w1, w2)
    monkeypatch.setattr(MinimalSetup, "to_letters", counted_to_letters)
    monkeypatch.setattr(SuiteContext, "pair_value", counted_pair_value)
    rep, result = extract_c0(setup)
    assert rep.ok
    assert calls == {"to_letters": to_letters, "pair_value": 0}
    assert len(result.formula_values) == formulas
