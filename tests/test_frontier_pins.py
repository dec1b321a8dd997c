"""The frontier c0 reports, byte for byte.

osp(7|2) (dim 38) and sl(4|2) (dim 35) are the largest algebras of the
benchmark.  Their library c0 reports are built here as the benchmark's
library jobs build them (JSON, indent 2, a trailing newline) and checked
against the digests and c0 values pinned in perfbench/expected.json, so a
wrong byte at this size fails Tier-1 and not only the benchmark gate.
"""

import hashlib
import json
from pathlib import Path

import pytest

from wsuper.catalog import family_setup
from wsuper.relations import extract_c0

EXPECTED = Path(__file__).resolve().parents[1] / "perfbench" / "expected.json"


@pytest.mark.parametrize("label, family", [
    ("osp(7|2) c0", ("osp", 7, 2)),
    ("sl(4|2) c0", ("sl", 4, 2)),
])
def test_frontier_c0_report_matches_the_pinned_digest(label, family):
    want = json.loads(EXPECTED.read_text())[label]
    setup = family_setup(*family)
    rep, res = extract_c0(setup)
    obj = {"algebra": setup.alg.name, "c0": res.as_json(),
           "status": "pass" if rep.ok else "fail"}
    payload = (json.dumps(obj, indent=2) + "\n").encode()
    assert (0 if rep.ok else 1) == want["exit"]
    values = {p["c0"] for p in obj["c0"]["pairs"] if p["c0"] is not None}
    assert values == {want["c0"]}
    assert obj["c0"]["matches_formula"] == want["matches_formula"]
    assert hashlib.sha256(payload).hexdigest() == want["sha256"]
