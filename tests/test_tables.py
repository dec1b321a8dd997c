import json
import tracemalloc

import pytest

from wsuper.algebra import build_osp, export_table, import_table
from wsuper.errors import TableError, ValidationError


def canonical(doc):
    return json.dumps(doc, sort_keys=True)


def test_round_trip_is_identity():
    alg = build_osp(1, 2)
    doc = export_table(alg)
    again = export_table(import_table(doc))
    assert canonical(doc) == canonical(again)


def test_import_matches_builtin_constructor():
    alg = build_osp(1, 2)
    back = import_table(export_table(alg))
    assert back.dim == alg.dim
    assert back.parity == alg.parity
    assert back.brackets == alg.brackets
    assert back.form == alg.form


def test_import_missing_form_is_an_error():
    doc = export_table(build_osp(1, 2))
    doc["form"] = []
    with pytest.raises(TableError, match="form"):
        import_table(doc)


def test_import_reports_location_of_malformed_entry():
    doc = export_table(build_osp(1, 2))
    doc["brackets"][2]["terms"][0]["den"] = "0"
    with pytest.raises(TableError, match=r"brackets\[2\]"):
        import_table(doc)


def _terms_not_a_list(doc):
    doc["brackets"][1]["terms"] = "x"
    return doc


def _form_entry_not_an_object(doc):
    doc["form"][0] = "x"
    return doc


def _bracket_index_not_a_number(doc):
    doc["brackets"][0]["i"] = [0]
    return doc


def _document_not_an_object(doc):
    return [doc]


def _bracket_index_fractional(doc):
    doc["brackets"][0]["i"] = 0.5
    return doc


def _form_index_a_string(doc):
    doc["form"][1]["j"] = "3"
    return doc


def _term_index_a_bool(doc):
    doc["brackets"][2]["terms"][0]["k"] = True
    return doc


def _name_not_a_string(doc):
    doc["name"] = 10 ** 5000          # str() of it raises ValueError
    return doc


def _dim_too_large_to_print(doc):
    doc["dim"] = 10 ** 5000
    return doc


def _parity_as_booleans(doc):
    doc["parity"] = [bool(p) for p in doc["parity"]]
    return doc


def _bracket_repeated(doc):
    first = doc["brackets"][0]
    doc["brackets"].insert(0, {**first, "terms": [
        {**t, "num": str(-int(t["num"]))} for t in first["terms"]]})
    return doc


def _term_repeated(doc):
    doc["brackets"][2]["terms"].append(dict(doc["brackets"][2]["terms"][0]))
    return doc


def _form_repeated(doc):
    doc["form"].append(dict(doc["form"][1]))
    return doc


@pytest.mark.parametrize("corrupt, where", [
    (_terms_not_a_list, r"brackets\[1\]\.terms"),
    (_form_entry_not_an_object, r"form\[0\]"),
    (_bracket_index_not_a_number, r"brackets\[0\]"),
    (_document_not_an_object, "document"),
    (_bracket_index_fractional, r"brackets\[0\]: i must be an integer"),
    (_form_index_a_string, r"form\[1\]: j must be an integer"),
    (_term_index_a_bool, r"brackets\[2\]\.terms\[0\]: k must be an integer"),
    (_name_not_a_string, "name"),
    (_dim_too_large_to_print, "parity"),
    (_parity_as_booleans, r"parity\[0\]: expected int"),
    (_bracket_repeated, r"brackets\[1\]: repeats the key of brackets\[0\]"),
    (_term_repeated, r"brackets\[2\]\.terms\[\d+\]: repeats the key of brackets\[2\]\.terms\[0\]"),
    (_form_repeated, r"form\[\d+\]: repeats the key of form\[1\]"),
], ids=["terms", "form-entry", "bracket-index", "document", "bracket-index-float",
        "form-index-str", "term-index-bool", "name", "huge-dim", "parity-bool",
        "bracket-repeated", "term-repeated", "form-repeated"])
def test_import_reports_location_of_wrongly_typed_entry(corrupt, where):
    doc = corrupt(export_table(build_osp(1, 2)))
    with pytest.raises(TableError, match=where):
        import_table(doc)


def test_import_rejects_out_of_range_index():
    doc = export_table(build_osp(1, 2))
    doc["form"].append({"i": 99, "j": 0, "num": "1", "den": "1"})
    with pytest.raises(TableError, match=r"form\["):
        import_table(doc)


def test_import_validates_axioms_and_names_the_first_violation():
    doc = export_table(build_osp(1, 2))
    # corrupt one structure constant so super-antisymmetry breaks
    doc["brackets"][0]["terms"][0]["num"] = str(
        int(doc["brackets"][0]["terms"][0]["num"]) + 1)
    with pytest.raises(ValidationError, match="antisymmetry|jacobi|invariant"):
        import_table(doc)


def test_arbitrary_precision_integers_survive():
    alg = build_osp(1, 2)
    doc = export_table(alg)
    big = 10 ** 40
    doc["form"] = [{"i": e["i"], "j": e["j"],
                    "num": str(int(e["num"]) * big), "den": str(big)}
                   for e in doc["form"]]
    back = import_table(doc)
    assert back.form == alg.form


def test_import_cost_follows_the_nonzero_entries():
    # a diagonal abelian table of dim 1000 has 1000 form entries and no
    # bracket: a dense 10^6-entry Gram matrix would not fit under the bound
    dim = 1000
    doc = {"name": "diag", "dim": dim, "parity": [0] * dim, "brackets": [],
           "form": [{"i": i, "j": i, "num": "1", "den": "1"} for i in range(dim)]}
    tracemalloc.start()
    try:
        alg = import_table(doc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2 ** 20, peak
    assert alg.form == {(i, i): 1 for i in range(dim)}
    assert alg.report.ok
