"""Command-line front end.

Subcommands: info, verify, c0, kw, export.  Exit codes: 0 on success,
1 on verification failure, 2 on usage or input errors.  Reports are
deterministic: the same configuration produces byte-identical JSON.
"""

import argparse
import json
import re
import sys
from fractions import Fraction
from functools import cache
from math import isqrt

from . import __version__
from .algebra import check_algebra, export_table, import_table
from .catalog import family_algebra, family_setup
from .errors import InputError
from .grading import build_minimal_setup, kw_dimensions
from .relations import RELATION_IDS, extract_c0, run_suite

EXIT_OK, EXIT_FAIL, EXIT_USAGE = 0, 1, 2


@cache
def _parser():
    """The argument parser, built once per process: parse_args keeps no
    state between calls."""
    p = argparse.ArgumentParser(
        prog="wsuper",
        description="Exact verification of minimal W-superalgebra structure.")
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)
    for name, doc in (
            ("info", "algebra and grading diagnostics"),
            ("verify", "run the relation suite"),
            ("c0", "extract the degree-1 commutator constant"),
            ("kw", "dimension-bound exponents"),
            ("export", "write the structure-constant table")):
        sp = sub.add_parser(name, help=doc)
        sp.add_argument("--family", choices=("gl", "sl", "osp", "psl22"))
        sp.add_argument("--m", type=int)
        sp.add_argument("--n", type=int)
        sp.add_argument("--table", help="structure-constant JSON document")
        sp.add_argument("--e", help="explicit nilpotent, comma-separated rationals")
        sp.add_argument("--format", choices=("text", "json"), default="text")
        sp.add_argument("--out", help="write the report here instead of stdout")
        if name == "verify":
            sp.add_argument("--suite", help="comma-separated relation ids (%s)"
                            % ",".join(RELATION_IDS))
            sp.add_argument("--max-deg", type=int, default=4)
            sp.add_argument("--corrupt", choices=("theta-v-sign",),
                            help="negative control: corrupt a generator on purpose")
        if name == "kw":
            sp.add_argument("--prime", type=int)
    return p


def _load_algebra(args):
    if args.table and args.family:
        raise InputError("give either --family or --table, not both")
    if args.table:
        with open(args.table) as fh:
            try:
                doc = json.load(fh)
            except RecursionError:
                raise InputError("--table: JSON nested too deeply") from None
        return import_table(doc), None
    if not args.family:
        raise InputError("one algebra source required: --family or --table")
    if args.family in ("gl", "sl", "osp") and (args.m is None or args.n is None):
        raise InputError("--family %s needs --m and --n" % args.family)
    return None, args.family


def _parse_e(text, dim):
    """The comma list of dim rationals as a {index: nonzero entry} vector."""
    parts = [t.strip() for t in text.split(",")]
    if len(parts) != dim:
        raise InputError("--e needs %d comma-separated entries" % dim)
    try:
        entries = [Fraction(t) for t in parts]
    except (ValueError, ZeroDivisionError):
        raise InputError("--e entries must be rationals p/q with q != 0") from None
    return {i: c for i, c in enumerate(entries) if c}


def _setup_from_args(args, loaded=None):
    """The minimal setup of the loaded (alg, family), or of _load_algebra's."""
    alg, family = _load_algebra(args) if loaded is None else loaded
    if not args.e:
        if family is None:
            raise InputError("--table requires --e (no catalog nilpotent for imports)")
        return family_setup(family, args.m, args.n)
    if family is not None:
        alg, _ = family_algebra(family, args.m, args.n)
    return build_minimal_setup(alg, _parse_e(args.e, alg.dim))


def _emit(args, text_lines, json_obj):
    if args.format == "json":
        _write(args, json.dumps(json_obj, indent=2) + "\n")
    else:
        _write(args, "\n".join(text_lines) + "\n")


def _write(args, payload):
    """Write the report as UTF-8 bytes, whatever the locale's codec; a
    stdout with no byte buffer (a StringIO) takes the text."""
    data = payload.encode("utf-8")
    if args.out:
        with open(args.out, "wb") as fh:
            fh.write(data)
    elif hasattr(sys.stdout, "buffer"):
        sys.stdout.flush()
        sys.stdout.buffer.write(data)
    else:
        sys.stdout.write(payload)


def cmd_info(args):
    alg, family = _load_algebra(args)
    # import_table has validated a table; rescaling its form keeps the verdict
    report = alg.report if family is None else None
    if family is None and not args.e:
        # table without a nilpotent: report the validation verdict only
        obj = {
            "algebra": alg.name,
            "dim": alg.dim,
            "parity": list(alg.parity),
            "form_checks": {name: ok for name, ok, _ in report.checks},
            "valid": report.ok,
        }
        lines = ["%s: dim %d" % (alg.name, alg.dim)] + report.lines()
        _emit(args, lines, obj)
        return EXIT_OK if report.ok else EXIT_FAIL
    setup = _setup_from_args(args, (alg, family))
    report = report or check_algebra(setup.alg)
    summary = setup.summary()
    summary["form_checks"] = {name: ok for name, ok, _ in report.checks}
    lines = ["%s: dim %d" % (setup.alg.name, setup.dim)]
    lines += report.lines()
    lines.append("grading dims: " + " ".join(
        "g(%s)=%d" % (i, len(setup.grading[i])) for i in sorted(setup.grading)))
    lines.append("s=%d r=%d" % (setup.sdim, setup.rdim))
    bound = summary["bound_exponents"]
    lines.append("d0=%d d1=%d" % (summary["d0"], summary["d1"]))
    lines.append("bound exponents: p^%s * 2^%d (ceiling convention)"
                 % (bound["p"], bound["two"]))
    _emit(args, lines, summary)
    return EXIT_OK


def cmd_verify(args):
    setup = _setup_from_args(args)
    which = None
    if args.suite is not None:
        which = [t.strip() for t in args.suite.split(",") if t.strip()]
    result = run_suite(setup, which=which, corrupt=args.corrupt,
                       max_deg=args.max_deg)
    _emit(args, result.lines(), result.as_json())
    return EXIT_OK if result.ok else EXIT_FAIL


def cmd_c0(args):
    setup = _setup_from_args(args)
    rep, res = extract_c0(setup)
    obj = {"algebra": setup.alg.name, "c0": res.as_json(),
           "status": "pass" if rep.ok else "fail"}
    lines = rep.lines()
    if res.value is not None:
        lines.append("c0 = %s" % res.value)
    _emit(args, lines, obj)
    return EXIT_OK if rep.ok else EXIT_FAIL


def _check_prime(p):
    """Trial division, so p is bounded: at most 10^6 steps."""
    if not (2 <= p < 10 ** 12 and all(p % d for d in range(2, isqrt(p) + 1))):
        raise InputError("--prime must be a prime with 2 <= p < 10^12, got %d" % p)


def cmd_kw(args):
    if args.prime is not None:
        _check_prime(args.prime)
    setup = _setup_from_args(args)
    data = kw_dimensions(setup)
    obj = {"algebra": setup.alg.name, **data, "exponent_p": str(data["exponent_p"])}
    lines = ["%s: d0=%d d1=%d" % (setup.alg.name, data["d0"], data["d1"]),
             "bound = p^%s * 2^%d (ceiling convention for the power of two)"
             % (data["exponent_p"], data["exponent_two"])]
    if args.prime is not None:
        p = args.prime
        if p <= 2 or (args.family == "sl" and (args.m - args.n) % p == 0):
            lines.append("warning: p=%d violates the family restriction; "
                         "computing anyway" % p)
            obj["warning"] = "p violates family restriction"
        exp_p = data["exponent_p"]
        if exp_p.denominator != 1:
            raise InputError("d0 is odd; the bound is not an integer for this setup")
        value = p ** int(exp_p) * 2 ** data["exponent_two"]
        obj["prime"] = p
        obj["value"] = str(value)
        lines.append("value at p=%d: %d" % (p, value))
    _emit(args, lines, obj)
    return EXIT_OK


def cmd_export(args):
    alg, family = _load_algebra(args)
    if family is not None:
        alg = _setup_from_args(args, (alg, family)).alg
    doc = export_table(alg)
    _write(args, json.dumps(doc, indent=2) + "\n")     # in either format
    return EXIT_OK


def _glue_e_value(argv):
    """argparse takes a spaced value such as `--e -1,0,0` for an option;
    glue it to its `--e` so it parses like `--e=-1,0,0`."""
    out = []
    for tok in argv:
        if out and out[-1] == "--e" and re.match(r"-[\d./]", tok):
            out[-1] = "--e=" + tok
        else:
            out.append(tok)
    return out


def main(argv=None):
    args = _parser().parse_args(_glue_e_value(sys.argv[1:] if argv is None else argv))
    handler = {
        "info": cmd_info,
        "verify": cmd_verify,
        "c0": cmd_c0,
        "kw": cmd_kw,
        "export": cmd_export,
    }[args.command]
    try:
        return handler(args)
    except (InputError, OSError, ValueError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
