"""Benchmark for wsuper: end-to-end and per-layer metrics on three workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload osp52-suite --seed 1 --seconds 55 --trace 0
    python3 perfbench/run.py --self-test

It imports the engine from ``src/`` of the checkout (stdlib only, no
install), runs whole passes over the workload's jobs in this process on
one thread until the next pass would overrun ``--seconds`` (at least one
pass), checks every report against ``expected.json`` and prints, as the
last line of standard output, one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.

--trace 0 reports the end-to-end metrics, each the median over passes.
--trace 1 alternates untraced and traced passes and reports the per-layer
metrics of the traced ones (see README.md for what each should move).
"""

import argparse
import gc
import json
import os
import platform
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from fractions import Fraction

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import tracer as tracing          # noqa: E402  (the benchmark's own modules)
import workloads                  # noqa: E402

END_TO_END = (
    ("total_s", "s"),
    ("setup_s", "s"),
    ("verify_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mib", "MiB"),
)


class EngineMissing(Exception):
    pass


def load_engine():
    """Import wsuper from this checkout's src/, never from elsewhere."""
    init = os.path.join(SRC, "wsuper", "__init__.py")
    if not os.path.isfile(init):
        raise EngineMissing("no engine sources at src/wsuper in %s" % ROOT)
    sys.path.insert(0, SRC)
    import wsuper
    import wsuper.cli   # noqa: F401  (binds every module the tracer rewires)
    if os.path.realpath(wsuper.__file__) != os.path.realpath(init):
        raise EngineMissing("wsuper imported from %s, not %s" % (wsuper.__file__, init))


def fraction_loop(iterations):
    """Seconds for a fixed loop of Fraction arithmetic, the engine's staple."""
    t = time.perf_counter()
    acc = Fraction(0)
    for k in range(1, iterations + 1):
        acc += Fraction(k % 13, k % 17 + 1) * Fraction(k % 5 + 1, 7)
    assert acc > 0
    return time.perf_counter() - t


def calibrate():
    """The run record's host speed at the start and end: not a metric."""
    return fraction_loop(30000)


# The probe HostClock runs at every cut, how often it cuts, and the time
# the probe takes on the reference host the end-to-end times are scaled to.
PROBE_ITERATIONS = 2500
CUT_INTERVAL_S = 0.5
REFERENCE_PROBE_S = 0.015


class HostClock:
    """Times a pass in reference seconds, cancelling the host's speed.

    On a shared host the speed of the same code drifts by up to 2x within
    minutes.  A probing clock cuts the pass into segments of about
    CUT_INTERVAL_S: a SIGALRM timer interrupts the program between two
    bytecodes and runs the probe loop, outside any segment.  A segment's
    wall and CPU times, and the part of it spent inside the set-up calls
    (SETUP_CALLS of tracer.py, wrapped here), are scaled by REFERENCE_PROBE_S
    over the mean of the probes at its two ends.  A host that runs all
    Python code k times slower for a while so leaves the figures
    unchanged, while a program that does its work faster reads faster.

    A clock that does not probe (for traced passes, whose per-layer times
    must not contain probes) probes only at its start and stop.
    """

    active = None           # the probing clock SIGALRM is meant for

    def __init__(self, probing):
        self.probing = probing
        self.total = self.setup = self.cpu = 0.0   # reference seconds
        self.raw_total = 0.0        # wall seconds of the segments
        self.probes = []
        self._segments = []         # (start, end, cpu s, mean probe s)
        self._setup_spans = []      # (start, end) of outermost set-up calls
        self._depth = 0
        self._patches = []
        self._in_cut = False

    def start(self):
        if self.probing:
            for module, attr in tracing.SETUP_CALLS:
                mod = sys.modules[module]
                fn = getattr(mod, attr)
                self._patches.append((mod, attr, fn))
                setattr(mod, attr, self._timed_setup(fn))
        self.probes.append(fraction_loop(PROBE_ITERATIONS))
        self._t0, self._c0 = time.perf_counter(), time.process_time()
        if self.probing:
            HostClock.active = self
            signal.setitimer(signal.ITIMER_REAL, CUT_INTERVAL_S, CUT_INTERVAL_S)

    def stop(self):
        if self.probing:
            HostClock.active = None
            signal.setitimer(signal.ITIMER_REAL, 0)
        self._cut()
        while self._patches:
            mod, attr, fn = self._patches.pop()
            setattr(mod, attr, fn)
        for t0, t1, cpu, probe in self._segments:
            scale = REFERENCE_PROBE_S / probe
            self.raw_total += t1 - t0
            self.total += (t1 - t0) * scale
            self.cpu += cpu * scale
            self.setup += scale * sum(max(0.0, min(t1, s1) - max(t0, s0))
                                      for s0, s1 in self._setup_spans)

    @staticmethod
    def on_alarm(signum, frame):
        clock = HostClock.active
        if clock is not None and not clock._in_cut:
            clock._cut()

    def _cut(self):
        self._in_cut = True
        t1, c1 = time.perf_counter(), time.process_time()
        self.probes.append(fraction_loop(PROBE_ITERATIONS))
        self._segments.append((self._t0, t1, c1 - self._c0,
                               (self.probes[-2] + self.probes[-1]) / 2))
        self._t0, self._c0 = time.perf_counter(), time.process_time()
        self._in_cut = False

    def _timed_setup(self, fn):
        # the alarm may interrupt anywhere here: it only appends segments
        def timed(*args, **kwargs):
            self._depth += 1
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                self._depth -= 1
                if not self._depth:
                    self._setup_spans.append((t0, t1))
        return timed


signal.signal(signal.SIGALRM, HostClock.on_alarm)


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


class Pass:
    """Timings, outcomes and (when traced) the tracer of one pass."""

    def __init__(self, clock, outcomes, tracer):
        self.total = clock.total
        self.setup = clock.setup
        self.cpu = clock.cpu
        self.raw_total = clock.raw_total
        self.probe = statistics.median(clock.probes)
        self.outcomes = outcomes      # (label, facts, deviation or None)
        self.tracer = tracer

    @property
    def failed(self):
        return sum(1 for _, _, dev in self.outcomes if dev is not None)

    def pbw_monomials(self):
        return sum(f.get("pbw_monomials", 0) for _, f, _ in self.outcomes if f)


def run_pass(jobs, workdir, expected, traced):
    """One pass over jobs.  An untraced pass is timed by a probing
    HostClock; a traced one wraps every layer and records spans."""
    tracer = tracing.Tracer()
    if traced:
        tracing.install_layers(tracer)
        tracing.install_setup(tracer)
    clock = HostClock(probing=not traced)
    outcomes = []

    def run_job(j, job):
        table = os.path.join(workdir, "job%d-table.json" % j)
        for k, op in enumerate(job.ops):
            out = os.path.join(workdir, "job%d-op%d.json" % (j, k))
            facts, dev = workloads.check_op(op, out, table, expected)
            outcomes.append((op.label, facts, dev))

    gc.collect()
    clock.start()
    try:
        for j, job in enumerate(jobs):
            tracer.run_span("job " + job.name, run_job, j, job)
    finally:
        clock.stop()
        tracer.close()
    return Pass(clock, outcomes, tracer)


def run_workload(name, seed, seconds, traced, expected, workdir):
    """Run passes until the next one would overrun; returns the passes.

    Untraced: every pass is a measured pass.  Traced: units of one
    untraced and one traced pass, so tracing overhead is measured on the
    same host state.
    """
    jobs = workloads.workload_jobs(name)
    rng = random.Random(seed)
    untraced, traced_passes = [], []
    start = time.perf_counter()
    units = 0
    while True:
        order = list(jobs)
        rng.shuffle(order)
        untraced.append(run_pass(order, workdir, expected, False))
        if traced:
            traced_passes.append(run_pass(order, workdir, expected, True))
        units += 1
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / units > seconds:
            return untraced, traced_passes


def end_to_end_metrics(passes):
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    values = {
        "total_s": statistics.median(p.total for p in passes),
        "setup_s": statistics.median(p.setup for p in passes),
        "verify_s": statistics.median(p.total - p.setup for p in passes),
        "cpu_s": statistics.median(p.cpu for p in passes),
        "peak_rss_mib": rss_kib / 1024.0,
    }
    return {k: (values[k], unit) for k, unit in END_TO_END}


COUNT_UNITS = ("count", "ratio")


def per_layer_metrics(untraced, traced):
    """Counts of the first traced pass (they must repeat exactly on every
    traced pass), median times over traced passes, and the overhead."""
    layers = [tracing.layer_metrics(p.tracer, p.pbw_monomials()) for p in traced]
    first = layers[0]
    unsteady = sorted(k for k, (v, unit) in first.items() if unit in COUNT_UNITS
                      and any(other[k][0] != v for other in layers[1:]))
    out = {}
    for k, (v, unit) in first.items():
        if unit not in COUNT_UNITS:
            v = statistics.median(layer[k][0] for layer in layers)
        out[k] = (v, unit)
    out["trace.overhead_ratio"] = (
        statistics.median(p.raw_total for p in traced)
        / statistics.median(p.raw_total for p in untraced),
        "ratio")
    return out, unsteady


def fmt(value):
    return ("%d" % value) if isinstance(value, int) else ("%.6g" % value)


def print_span_tree(tracer):
    print("spans of the last traced pass (count, inclusive s, self s):")
    for path, (n, incl, self_s) in sorted(tracer.span_tree().items()):
        print("  %-60s %5d %10.4f %10.4f" % (path, n, incl, self_s))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS + ("all",),
                    help="'all' runs each workload in a fresh process")
    ap.add_argument("--seed", type=int, default=0,
                    help="permutes job order only; reports do not depend on it")
    ap.add_argument("--seconds", type=float, default=55.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true",
                    help="run the negative control and the tracing check")
    args = ap.parse_args(argv)
    if not args.self_test and args.workload is None:
        ap.error("--workload is required")
    if args.workload == "all":
        return run_all(args)

    try:
        load_engine()
    except EngineMissing as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    expected = workloads.load_expected()
    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        if args.self_test:
            return self_test(expected, workdir)
        return run(args, expected, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run(args, expected, workdir):
    calib_start = calibrate()
    untraced, traced = run_workload(args.workload, args.seed, args.seconds,
                                    bool(args.trace), expected, workdir)
    calib_end = calibrate()
    passes = untraced + traced
    attempted = sum(len(p.outcomes) for p in passes)
    failed = sum(p.failed for p in passes)
    deviations = [dev for p in passes for _, _, dev in p.outcomes if dev]

    print("run: %s" % json.dumps({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu_model(),
        "calibration_start_s": round(calib_start, 4),
        "calibration_end_s": round(calib_end, 4),
        "pass_wall_s": [round(p.raw_total, 4) for p in untraced],
        "pass_total_s": [round(p.total, 4) for p in untraced],
        "pass_probe_s": [round(p.probe, 4) for p in untraced],
        "traced_pass_wall_s": [round(p.raw_total, 4) for p in traced],
        "traced_pass_total_s": [round(p.total, 4) for p in traced],
        "operations_per_pass": attempted // len(passes),
    }, sort_keys=True))
    for dev in deviations[:10]:
        print("deviation: %s" % dev)

    correct = failed == 0
    if args.trace:
        metrics, unsteady = per_layer_metrics(untraced, traced)
        for k in unsteady:
            print("deviation: %s differs between traced passes" % k)
        correct = correct and not unsteady
        print_span_tree(traced[-1].tracer)
    else:
        metrics = end_to_end_metrics(untraced)
    print("metrics (times are medians of %d %spasses):"
          % (len(traced or untraced), "traced " if traced else ""))
    for k, (v, unit) in metrics.items():
        print("%-36s %14s %s" % (k, fmt(v), unit))
    print("%-36s %14s (%d of %d operations)" % (
        "failed_frac", fmt(failed / attempted), failed, attempted))
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": unit} for k, (v, unit) in metrics.items()},
    }))
    return 0


def run_all(args):
    """Every workload in its own process, so each peak_rss_mib is its own;
    the last line merges their results with metrics named workload/metric."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            print("error: workload %s exited with %d" % (name, proc.returncode),
                  file=sys.stderr)
            return proc.returncode or 1
        print("== %s" % name)
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for k, v in result["metrics"].items():
            merged["metrics"]["%s/%s" % (name, k)] = v
    print(json.dumps(merged))
    return 0


def self_test(expected, workdir):
    """Negative controls and the tracing check, on the small sl(2|1) job.

    The gate must report failed_frac > 0 for a corrupted generator and for
    a mutated digest; traced and untraced reports must be byte-identical;
    the traced counts must repeat exactly; and the metric names must be
    those BENCHMARK.json lists.  Exit code 0 only if all hold.
    """
    job = workloads.workload_jobs("catalog-cli")[0]
    problems = []

    verify = next(op for op in job.ops if op.label.endswith("verify-first"))
    corrupt = workloads.Op(verify.label, "cli",
                           verify.argv + ("--corrupt", "theta-v-sign"))
    mutated = dict(expected)
    info = job.ops[0]
    digest = mutated[info.label]["sha256"]
    mutated[info.label] = dict(mutated[info.label],
                               sha256=("0" if digest[0] != "0" else "1") + digest[1:])
    out = os.path.join(workdir, "control.json")
    table = os.path.join(workdir, "control-table.json")
    for what, op, pins in (("--corrupt theta-v-sign", corrupt, expected),
                           ("mutated digest", info, mutated)):
        _, dev = workloads.check_op(op, out, table, pins)
        print("negative control (%s): failed_frac %d/1: %s" % (what, dev is not None, dev))
        if dev is None:
            problems.append("negative control %s was not detected" % what)

    plain = run_pass([job], workdir, expected, False)
    traced = [run_pass([job], workdir, expected, True) for _ in range(2)]
    for p in [plain] + traced:
        problems += [dev for _, _, dev in p.outcomes if dev]
    digests = [[facts and facts["sha256"] for _, facts, _ in p.outcomes]
               for p in [plain] + traced]
    if any(d != digests[0] for d in digests[1:]):
        problems.append("traced reports differ from untraced ones")
    metrics, unsteady = per_layer_metrics([plain], traced)
    problems += ["%s differs between traced passes" % k for k in unsteady]
    print("tracing check: %d reports byte-identical across 1 untraced and 2 traced "
          "passes; %d counts repeat" % (
              len(digests[0]),
              sum(1 for v, u in metrics.values() if u in COUNT_UNITS) - len(unsteady)))

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if os.path.isfile(spec_path):
        with open(spec_path) as fh:
            spec = json.load(fh)
        names = [[m["name"] for m in spec[key]] for key in ("end_to_end", "per_layer")]
        if names[0] != [k for k, _ in END_TO_END]:
            problems.append("BENCHMARK.json end_to_end names differ from the code's")
        if names[1] != list(metrics):
            problems.append("BENCHMARK.json per_layer names differ from the code's")
        if not {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS):
            problems.append("BENCHMARK.json names a workload the code lacks")

    for p in problems:
        print("self-test: FAIL: %s" % p)
    print("self-test: %s" % ("ok" if not problems else "FAILED"))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
