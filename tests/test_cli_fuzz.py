"""Property test: an argument list drawn over the subcommands and flags of
the CLI exits 0, 1 or 2, never with a traceback; exit 2 prints an error."""

import contextlib
import io

from hypothesis import given, settings, strategies as st

from wsuper.cli import main
from wsuper.relations import RELATION_IDS

ENTRIES = st.sampled_from(["0", "1", "-1", "1/2", "2", "1/0", "x", ""])
SUITES = st.lists(st.sampled_from(list(RELATION_IDS) + ["nope", ""]),
                  min_size=1, max_size=3).map(",".join)
SIZES = st.sampled_from([(m, n) for m in range(-1, 5) for n in range(-1, 5)
                         if m + n <= 4])
OWN_FLAGS = {
    "verify": [("--suite", SUITES), ("--max-deg", st.integers(-2, 6)),
               ("--corrupt", st.just("theta-v-sign"))],
    "kw": [("--prime", st.integers(-3, 12))],
}
FOREIGN = [flag for flags in OWN_FLAGS.values() for flag in flags]


def _optional(draw, flag, values, weight=3):
    """[flag, value] in weight of four draws, else []."""
    if draw(st.sampled_from(range(4))) < weight:
        return [flag, str(draw(values))]
    return []


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(["info", "verify", "c0", "kw", "export"]))
    argv = [command]
    # "so" is no family; m + n <= 4 keeps each run short
    argv += _optional(draw, "--family", st.sampled_from(
        ["gl", "sl", "osp", "psl22"] * 3 + ["so"]))
    m, n = draw(SIZES)
    argv += _optional(draw, "--m", st.just(m))
    argv += _optional(draw, "--n", st.just(n))
    argv += _optional(draw, "--e", st.lists(ENTRIES, max_size=16).map(",".join), 1)
    for flag, values in OWN_FLAGS.get(command, []):
        argv += _optional(draw, flag, values, 2)
    argv += _optional(draw, *draw(st.sampled_from(FOREIGN)), 1)
    argv += _optional(draw, "--format", st.sampled_from(["text", "json"] * 3 + ["xml"]))
    return argv


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(argv=argvs())
def test_cli_exits_0_1_or_2_without_a_traceback(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:        # argparse rejects the arguments
            code = exc.code
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in err.getvalue()
    if code == 2:
        assert "error:" in err.getvalue(), argv
