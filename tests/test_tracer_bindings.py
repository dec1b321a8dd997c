"""The benchmark's tracer rebinds engine functions by name; a rename in
src/ must fail here, not only when the benchmark runs."""

import sys
from pathlib import Path

import wsuper.cli  # noqa: F401  (loads every wsuper module the tracer patches)
from wsuper import enveloping, relations, whittaker

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import tracer  # noqa: E402

from conftest import get_ctx, get_setup  # noqa: E402


def test_tracer_binds_every_name_and_restores_it():
    t = tracer.Tracer()
    try:
        tracer.install_layers(t)
        tracer.install_setup(t)
        patches = list(t._patches)
        for owner, attr, old in patches:
            assert getattr(owner, attr) is not old, (owner, attr)
    finally:
        t.close()
    attrs = {attr for _, attr, _ in patches}
    want = {attr for _, attr in tracer.SETUP_CALLS}
    want |= {attr for _, attr in tracer.RELATION_FUNCTIONS}
    want |= {"cmd_" + cmd for cmd in tracer.CLI_COMMANDS}
    want |= {"family_algebra", "check_algebra", "import_table", "export_table",
             "bracket", "rref", "build_minimal_setup", "to_letters",
             "letter_bracket", "theta_v", "theta_w", "multiply_q", "project",
             "is_w_element", "straighten"}
    assert attrs == want
    assert t._patches == []
    # the first patch of each binding saved the original: it is back
    seen = set()
    for owner, attr, old in patches:
        if (id(owner), attr) not in seen:
            seen.add((id(owner), attr))
            assert getattr(owner, attr) is old, (owner, attr)


def test_run_suite_calls_each_traced_relation_function_once(monkeypatch):
    # the tracer rebinds relations.<fn>; run_suite must look each name up
    # when it runs, or a traced pass would time none of the relation ids
    calls = []
    for rel_id, attr in tracer.RELATION_FUNCTIONS:
        def recorder(*args, _id=rel_id, _fn=getattr(relations, attr)):
            calls.append(_id)
            return _fn(*args)
        monkeypatch.setattr(relations, attr, recorder)
    result = relations.run_suite(get_setup("sl(2|1)"), fail_fast=False)
    assert calls == [rel_id for rel_id, _ in tracer.RELATION_FUNCTIONS]
    assert [r.rel_id for r in result.reports] == list(relations.RELATION_IDS) == calls


def test_traced_model_operations_count_every_straighten_call():
    # straighten is called from whittaker as well as from inside enveloping;
    # a profile hook on its code object sees every call, whatever binding
    # it went through, so the traced count must equal the hook's
    ctx = get_ctx("osp(3|2)")
    setup, q = ctx.setup, ctx.gens[ctx.n0].value
    pairs = [(w[::-1], c) for w, c in q.terms.items()]
    code, seen = enveloping.straighten.__code__, []

    def hook(frame, event, arg):
        if event == "call" and frame.f_code is code:
            seen.append(event)
    t = tracer.Tracer()
    tracer.install_layers(t)
    old = sys.getprofile()
    sys.setprofile(hook)
    try:
        whittaker.multiply_q(q, q)
        whittaker.project_terms(setup, pairs)
    finally:
        sys.setprofile(old)
        t.close()
    assert len(seen) == t.stat("enveloping.straighten").calls > 0
