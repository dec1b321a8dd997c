"""The benchmark's workloads: jobs of operations, and how to run and check them.

An operation is one in-process CLI command (``wsuper.cli.main``) or one
library verify call.  A job is a list of operations on one algebra, run in
order; a workload is a list of jobs whose order the seed permutes.  The
program receives only the command lists and call arguments built here.

Every operation's report is serialised as JSON and checked against
``expected.json``: exit code, each relation's pass/fail, the c0 value,
``matches_formula`` and the SHA-256 of the report bytes.
"""

import hashlib
import json
import os

VERIFY_FIRST = "identities,generators,deg0,deg01,central,c0,scalar_reduction"
VERIFY_REST = "b_invariance,pbw,one_dim"

# (name, CLI algebra selection, e of the exported table for --table runs)
CATALOG = (
    ("sl(2|1)", ("--family", "sl", "--m", "2", "--n", "1"),
     "0,0,1,0,0,0,0,0"),
    ("osp(1|2)", ("--family", "osp", "--m", "1", "--n", "2"),
     "1/2,0,0,0,0"),
    ("psl22", ("--family", "psl22"),
     "0,0,1,0,0,0,0,0,0,0,0,0,0,0"),
    ("osp(3|2)", ("--family", "osp", "--m", "3", "--n", "2"),
     "0,0,0,1/2,0,0,0,0,0,0,0,0"),
    ("sl(3|1)", ("--family", "sl", "--m", "3", "--n", "1"),
     "0,0,0,1,0,0,0,0,0,0,0,0,0,0,0"),
)

TABLE = "{table}"        # replaced by the job's exported table file


class Op:
    """One operation: a CLI argv (kind 'cli') or a library call ('suite'
    or 'c0' on family_setup(family, m, n))."""

    def __init__(self, label, kind, argv=None, family=None, writes_table=False):
        self.label = label
        self.kind = kind
        self.argv = argv
        self.family = family
        self.writes_table = writes_table


class Job:
    def __init__(self, name, ops):
        self.name = name
        self.ops = ops


def _catalog_job(name, sel, e):
    js = ("--format", "json")
    return Job(name, [
        Op(name + " info", "cli", ("info",) + sel + js),
        Op(name + " verify-first", "cli",
           ("verify",) + sel + ("--suite", VERIFY_FIRST) + js),
        Op(name + " verify-rest", "cli",
           ("verify",) + sel + ("--suite", VERIFY_REST) + js),
        Op(name + " c0", "cli", ("c0",) + sel + js),
        Op(name + " export", "cli", ("export",) + sel + js, writes_table=True),
        Op(name + " verify-table", "cli",
           ("verify", "--table", TABLE, "--e", e, "--suite", "c0") + js),
    ])


def workload_jobs(name):
    if name == "catalog-cli":
        return [_catalog_job(*entry) for entry in CATALOG]
    if name == "osp52-suite":
        return [Job("osp(5|2)", [Op("osp(5|2) suite", "suite",
                                    family=("osp", 5, 2))])]
    if name == "frontier-c0":
        return [Job("osp(7|2)", [Op("osp(7|2) c0", "c0", family=("osp", 7, 2))]),
                Job("sl(4|2)", [Op("sl(4|2) c0", "c0", family=("sl", 4, 2))])]
    raise KeyError(name)


WORKLOADS = ("catalog-cli", "osp52-suite", "frontier-c0")


def load_expected():
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        "expected.json")
    with open(path) as fh:
        return json.load(fh)


# -- running -------------------------------------------------------------

def _run_cli(op, out, table):
    from wsuper import cli
    argv = [table if a == TABLE else a for a in op.argv]
    target = table if op.writes_table else out
    if os.path.exists(target):
        os.remove(target)
    code = cli.main(argv + ["--out", target])
    with open(target, "rb") as fh:
        return code, fh.read()


def _run_library(op):
    from wsuper import catalog, relations
    setup = catalog.family_setup(*op.family)
    if op.kind == "suite":
        result = relations.run_suite(setup, fail_fast=False)
        obj = result.as_json()
        code = 0 if result.ok else 1
    else:
        rep, res = relations.extract_c0(setup)
        obj = {"algebra": setup.alg.name, "c0": res.as_json(),
               "status": "pass" if rep.ok else "fail"}
        code = 0 if rep.ok else 1
    return code, (json.dumps(obj, indent=2) + "\n").encode()


def run_op(op, out, table):
    """(exit code, report bytes) of one operation; a CLI operation writes
    its report to out, or to table when it exports one."""
    if op.kind == "cli":
        return _run_cli(op, out, table)
    return _run_library(op)


def summarize(code, payload):
    """The checked facts of one report."""
    facts = {"exit": code, "sha256": hashlib.sha256(payload).hexdigest()}
    doc = json.loads(payload)
    if "relations" in doc:
        facts["relations"] = {r["id"]: r["status"] for r in doc["relations"]}
        for r in doc["relations"]:
            if r["id"] == "pbw":
                facts["pbw_monomials"] = r["detail"]["monomials"]
    c0 = doc.get("c0")
    if isinstance(c0, dict):
        values = sorted({p["c0"] for p in c0["pairs"] if p["c0"] is not None})
        facts["c0"] = values[0] if len(values) == 1 else values
        facts["matches_formula"] = c0["matches_formula"]
    return facts


def check_op(op, out, table, expected):
    """(facts or None, deviation message or None) for one operation.

    Any exception or exit of the program counts as a deviation.
    """
    try:
        code, payload = run_op(op, out, table)
        facts = summarize(code, payload)
    except (Exception, SystemExit) as exc:      # the gate records, never stops
        return None, "%s: raised %s: %s" % (op.label, type(exc).__name__, exc)
    want = expected.get(op.label)
    if want is None:
        return facts, "%s: no pinned expectation" % op.label
    diff = sorted(k for k in set(want) | set(facts) if want.get(k) != facts.get(k))
    if diff:
        return facts, "%s: %s differ (expected %s, got %s)" % (
            op.label, ",".join(diff), {k: want.get(k) for k in diff},
            {k: facts.get(k) for k in diff})
    return facts, None

