"""Call counting and timing for the wsuper benchmark, applied from outside.

Nothing in ``src/`` knows about this module.  A ``Tracer`` rebinds a
function in every ``wsuper.*`` module that imported it by name (so
``multiply_q`` is caught in ``relations``, ``generators`` and
``whittaker`` alike) and wraps methods on their class.  ``close()`` puts
every original back, so one process can alternate traced and untraced
passes.

Each wrapped call records its count, its self time (duration minus the
time of wrapped calls made inside it) and, per group, the inclusive time
of the outermost call of that group, so a relation id that calls another
relation id, or a Θ that builds another Θ, is not counted twice.  Coarse
calls (``span=True``) also become spans, nested by cause, which
``span_tree`` aggregates by path.
"""

import sys
import time
import weakref


class Stat:
    __slots__ = ("calls", "incl", "self_s")

    def __init__(self):
        self.calls = 0
        self.incl = 0.0
        self.self_s = 0.0


class Tracer:
    """Wraps named call sites.  Not thread-safe: the engine is
    single-threaded and so is every pass of the benchmark."""

    def __init__(self):
        self.stats = {}
        self.counters = {}        # argument-derived counts, see install_layers
        self.spans = []           # (span_id, parent_id, name, start, end)
        self._frames = []         # child-time accumulators of open calls
        self._span_stack = [None]
        self._depth = {}
        self._patches = []

    def stat(self, name):
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = Stat()
        return st

    def wrap(self, name, fn, group=None, span=False, on_call=None):
        """A traced version of fn, accounted under name.

        on_call(args) runs before each call, for counters that look at
        the arguments (matrix sizes, cache keys).
        """
        st = self.stat(name)
        group = group or name
        depth = self._depth
        depth.setdefault(group, 0)
        frames = self._frames
        spans = self.spans
        span_stack = self._span_stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if on_call is not None:
                on_call(args)
            frame = [0.0]
            frames.append(frame)
            depth[group] += 1
            if span:
                sid = len(spans)
                parent = span_stack[-1]
                span_stack.append(sid)
                spans.append(None)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                dur = t1 - t0
                frames.pop()
                depth[group] -= 1
                if frames:
                    frames[-1][0] += dur
                st.calls += 1
                st.self_s += dur - frame[0]
                if not depth[group]:
                    st.incl += dur
                if span:
                    span_stack.pop()
                    spans[sid] = (sid, parent, name, t0, t1)

        return traced

    def run_span(self, name, fn, *args):
        """Call fn(*args) inside a span the benchmark opens itself."""
        return self.wrap(name, fn, span=True)(*args)

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self, module, attr, name, **kw):
        """Wrap module.attr in every wsuper module that binds it by name."""
        orig = getattr(sys.modules[module], attr)
        traced = self.wrap(name, orig, **kw)
        for modname, mod in list(sys.modules.items()):
            if (modname == "wsuper" or modname.startswith("wsuper.")) \
                    and vars(mod).get(attr) is orig:
                self._patch(mod, attr, traced)

    def install_at(self, module, attr, name, **kw):
        """Wrap module.attr only in that module's namespace."""
        mod = sys.modules[module]
        self._patch(mod, attr, self.wrap(name, getattr(mod, attr), **kw))

    def install_method(self, cls, attr, name, **kw):
        self._patch(cls, attr, self.wrap(name, vars(cls)[attr], **kw))

    def close(self):
        while self._patches:
            owner, attr, old = self._patches.pop()
            setattr(owner, attr, old)

    def span_tree(self):
        """{path: [count, inclusive s, self s]}, path like 'job > setup'."""
        child = [0.0] * len(self.spans)
        for _, parent, _, t0, t1 in self.spans:
            if parent is not None:
                child[parent] += t1 - t0
        paths, out = {}, {}
        for sid, parent, name, t0, t1 in self.spans:
            path = name if parent is None else paths[parent] + " > " + name
            paths[sid] = path
            agg = out.setdefault(path, [0, 0.0, 0.0])
            agg[0] += 1
            agg[1] += t1 - t0
            agg[2] += t1 - t0 - child[sid]
        return out


# The coarse calls that make up a job's set-up: building the algebra,
# validating or importing it, and the minimal setup.  Bound where the CLI
# and the benchmark's own library jobs call them, so the time of their
# inner calls is not counted twice.
SETUP_CALLS = (
    ("wsuper.cli", "family_setup"),
    ("wsuper.cli", "family_algebra"),
    ("wsuper.cli", "check_algebra"),
    ("wsuper.cli", "import_table"),
    ("wsuper.cli", "build_minimal_setup"),
    ("wsuper.catalog", "family_setup"),
)


def install_setup(tracer):
    """Record set-up as spans of the group 'setup' in a traced pass."""
    for module, attr in SETUP_CALLS:
        tracer.install_at(module, attr, "setup", group="setup", span=True)


RELATION_FUNCTIONS = (
    ("identities", "identities_suite"),
    ("generators", "generator_checks"),
    ("deg0", "verify_deg0"),
    ("deg01", "verify_deg01"),
    ("central", "verify_centrality"),
    ("c0", "extract_c0"),
    ("scalar_reduction", "verify_scalar_reduction"),
    ("b_invariance", "verify_b_invariance"),
    ("pbw", "w_pbw_check"),
    ("one_dim", "one_dim_rep"),
)

CLI_COMMANDS = ("info", "verify", "c0", "export")


def install_layers(tracer):
    """Wrap the public calls of every layer under its per-layer name.

    Call before install_setup, which wraps some of the same call sites.
    """
    from wsuper import algebra, grading

    counters = tracer.counters
    for key in ("linalg.rref_entries", "grading.letter_bracket_hits",
                "generators.basis"):
        counters[key] = 0

    tracer.install("wsuper.catalog", "family_algebra", "algebra.build",
                   span=True)
    tracer.install("wsuper.algebra", "check_algebra", "algebra.check",
                   span=True)
    tracer.install("wsuper.algebra", "import_table", "algebra.table",
                   span=True)
    tracer.install("wsuper.algebra", "export_table", "algebra.table",
                   span=True)
    tracer.install_method(algebra.SuperAlgebra, "bracket", "algebra.bracket")

    def rref_entries(args):
        rows = args[0]
        counters["linalg.rref_entries"] += len(rows) * (len(rows[0]) if rows else 0)
    tracer.install("wsuper.linalg", "rref", "linalg.rref", on_call=rref_entries)

    tracer.install("wsuper.grading", "build_minimal_setup", "grading.setup",
                   span=True)
    tracer.install_method(grading.MinimalSetup, "to_letters",
                          "grading.to_letters")
    # MinimalSetup caches letter brackets per setup: a repeated key is a hit
    seen = weakref.WeakKeyDictionary()

    def letter_bracket_hits(args):
        setup, i, j = args
        keys = seen.setdefault(setup, set())
        if (i, j) in keys:
            counters["grading.letter_bracket_hits"] += 1
        else:
            keys.add((i, j))
    tracer.install_method(grading.MinimalSetup, "letter_bracket",
                          "grading.letter_bracket", on_call=letter_bracket_hits)

    # basis generators: dim g^e(0) + dim g^e(1) of each setup Θ is built on
    bases = weakref.WeakSet()

    def basis_size(args):
        setup = args[0]
        if setup not in bases:
            bases.add(setup)
            counters["generators.basis"] += len(setup.cent[0]) + len(setup.cent[1])
    for attr in ("theta_v", "theta_w"):
        tracer.install("wsuper.generators", attr, "generators." + attr,
                       group="theta", on_call=basis_size)

    tracer.install("wsuper.whittaker", "multiply_q", "whittaker.multiply_q")
    tracer.install("wsuper.whittaker", "project", "whittaker.project")
    tracer.install("wsuper.whittaker", "is_w_element", "whittaker.membership")
    tracer.install("wsuper.enveloping", "straighten", "enveloping.straighten")

    for rel_id, attr in RELATION_FUNCTIONS:
        tracer.install("wsuper.relations", attr, "relations." + rel_id,
                       group="relations", span=True)
    for cmd in CLI_COMMANDS:
        tracer.install_at("wsuper.cli", "cmd_" + cmd, "cli." + cmd, span=True)


def layer_metrics(tracer, pbw_monomials):
    """The per-layer metrics of one traced pass, by name: (value, unit)."""
    st = tracer.stat
    c = tracer.counters
    theta_calls = st("generators.theta_v").calls + st("generators.theta_w").calls
    lb_calls = st("grading.letter_bracket").calls
    out = {
        "algebra.build_s": (st("algebra.build").incl, "s"),
        "algebra.check_s": (st("algebra.check").incl, "s"),
        "algebra.table_s": (st("algebra.table").incl, "s"),
        "algebra.bracket_calls": (st("algebra.bracket").calls, "count"),
        "algebra.bracket_s": (st("algebra.bracket").self_s, "s"),
        "linalg.rref_calls": (st("linalg.rref").calls, "count"),
        "linalg.rref_entries": (c["linalg.rref_entries"], "count"),
        "linalg.rref_s": (st("linalg.rref").self_s, "s"),
        "grading.setup_s": (st("grading.setup").incl, "s"),
        "grading.to_letters_calls": (st("grading.to_letters").calls, "count"),
        "grading.to_letters_s": (st("grading.to_letters").self_s, "s"),
        "grading.letter_bracket_calls": (lb_calls, "count"),
        "grading.letter_bracket_s": (st("grading.letter_bracket").self_s, "s"),
        "grading.letter_bracket_hit_ratio": (
            c["grading.letter_bracket_hits"] / lb_calls if lb_calls else 0.0,
            "ratio"),
        "generators.theta_v_calls": (st("generators.theta_v").calls, "count"),
        "generators.theta_w_calls": (st("generators.theta_w").calls, "count"),
        "generators.theta_s": (st("generators.theta_v").incl
                               + st("generators.theta_w").incl, "s"),
        "generators.basis_reuse_ratio": (
            c["generators.basis"] / theta_calls if theta_calls else 0.0,
            "ratio"),
        "whittaker.multiply_q_calls": (st("whittaker.multiply_q").calls, "count"),
        "whittaker.multiply_q_s": (st("whittaker.multiply_q").self_s, "s"),
        "whittaker.project_calls": (st("whittaker.project").calls, "count"),
        "whittaker.project_s": (st("whittaker.project").self_s, "s"),
        "whittaker.membership_s": (st("whittaker.membership").incl, "s"),
        "enveloping.straighten_calls": (st("enveloping.straighten").calls, "count"),
        "enveloping.straighten_s": (st("enveloping.straighten").self_s, "s"),
    }
    for rel_id, _ in RELATION_FUNCTIONS:
        out["relations.%s_s" % rel_id] = (st("relations." + rel_id).incl, "s")
    out["relations.pbw_monomials"] = (pbw_monomials, "count")
    for cmd in CLI_COMMANDS:
        out["cli.%s_s" % cmd] = (st("cli." + cmd).incl, "s")
    return out
