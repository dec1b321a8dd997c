import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from wsuper import algebra, catalog, cli
from wsuper.algebra import build_psl22, export_table
from wsuper.catalog import family_algebra

from conftest import mixed_odd_pairs

OK_SUITE = "identities,generators,deg0,deg01,central,c0,b_invariance,pbw,one_dim"


# the child imports wsuper from the same source tree as this process,
# whether or not PYTHONPATH names it
SRC = str(Path(algebra.__file__).resolve().parents[1])


def run_cli(*args, env=None, **kwargs):
    env = dict(os.environ if env is None else env)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "wsuper.cli", *args], env=env,
                          capture_output=True, text=True, timeout=600, **kwargs)


def test_info_psl22_reports_grading_dimensions():
    out = run_cli("info", "--family", "psl22")
    assert out.returncode == 0
    assert "s=0 r=4" in out.stdout
    assert "ceiling convention" in out.stdout


def test_reports_are_utf8_bytes_under_an_ascii_locale(tmp_path):
    # the text report holds a middle dot; under LC_ALL=C with UTF-8 mode
    # off it is written as the same UTF-8 bytes, to stdout and to --out
    def run(utf8, *extra):
        env = {k: v for k, v in os.environ.items() if k != "PYTHONIOENCODING"}
        env.update(PYTHONPATH=SRC, LC_ALL="C.UTF-8" if utf8 else "C")
        return subprocess.run(
            [sys.executable, "-X", "utf8=%d" % utf8, "-m", "wsuper.cli", "verify",
             "--family", "sl", "--m", "3", "--n", "1", *extra],
            env=env, capture_output=True, timeout=600)

    want = run(1)
    assert want.returncode == 0 and "\u00b7".encode() in want.stdout
    got = run(0)
    assert got.returncode == 0 and got.stdout == want.stdout, got.stderr
    out = tmp_path / "report.txt"
    got = run(0, "--out", str(out))
    assert got.returncode == 0 and got.stdout == b"", got.stderr
    assert out.read_bytes() == want.stdout


def test_info_sl21_dimension():
    out = run_cli("info", "--family", "sl", "--m", "2", "--n", "1")
    assert out.returncode == 0
    assert "dim 8" in out.stdout


def test_info_json_summary():
    out = run_cli("info", "--family", "psl22", "--format", "json")
    obj = json.loads(out.stdout)
    assert obj["s"] == 0 and obj["r"] == 4
    assert obj["d0"] == 2 and obj["d1"] == 4
    assert obj["bound_exponents"] == {"p": "1", "two": 2}


def test_info_and_c0_osp14_use_the_long_root_nilpotent():
    # the default e is the highest-root vector of the sp(4) block; a
    # short-root choice gives no minimal grading
    out = run_cli("info", "--family", "osp", "--m", "1", "--n", "4")
    assert out.returncode == 0, out.stdout + out.stderr
    assert "dim 14" in out.stdout and "s=2 r=1" in out.stdout
    out = run_cli("c0", "--family", "osp", "--m", "1", "--n", "4",
                  "--format", "json")
    assert out.returncode == 0, out.stdout + out.stderr
    obj = json.loads(out.stdout)
    assert obj["c0"]["consistent"] is True
    assert {p["c0"] for p in obj["c0"]["pairs"] if p["c0"] is not None} == {"-3/4"}


def test_usage_errors_exit_2():
    assert run_cli("info", "--family", "sl", "--m", "2", "--n", "2").returncode == 2
    assert run_cli("info", "--family", "sl", "--m", "2").returncode == 2
    assert run_cli("info").returncode == 2
    assert run_cli("verify", "--family", "osp", "--m", "1", "--n", "3").returncode == 2


@pytest.mark.parametrize("family, e, code", [
    (("sl", "--m", "2", "--n", "1"), "-1,0,0,0,0,0,0,0", 2),  # not sl2-embeddable
    (("osp", "--m", "1", "--n", "2"), "-1/2,0,0,0,0", 0),     # -e, rescaled by -1
    (("sl", "--m", "2", "--n", "1"), "-0,0,1,0,0,0,0,0", 0),  # the default e
])
def test_negative_e_parses_spaced_and_with_equals_alike(family, e, code):
    # argparse alone takes a spaced value that starts with "-" for an option
    spaced = run_cli("info", "--family", *family, "--e", e, "--format", "json")
    glued = run_cli("info", "--family", *family, "--e=" + e, "--format", "json")
    assert "expected one argument" not in spaced.stderr
    assert (spaced.returncode, spaced.stdout, spaced.stderr) == \
        (glued.returncode, glued.stdout, glued.stderr)
    assert spaced.returncode == code, spaced.stderr


def _report(path, *args):
    code = cli.main([*args, "--format", "json", "--out", str(path)])
    return code, path.read_bytes()


OSP12 = ("--family", "osp", "--m", "1", "--n", "2")
OSP32 = ("--family", "osp", "--m", "3", "--n", "2")


@pytest.mark.parametrize("sel, e", [
    (OSP12, "-1/2,0,0,0,0"),                       # minus the rescaled default
    (OSP12, "1,0,0,0,0"),                          # the unscaled default
    (OSP32, "0,0,0,1,0,0,0,0,0,0,0,0"),            # the unscaled default
], ids=["osp(1|2)-minus", "osp(1|2)-unscaled", "osp(3|2)-unscaled"])
def test_explicit_e_on_odd_r_family_is_rescaled_like_the_default(tmp_path, sel, e):
    # r is odd: the middle odd g(-1) vector must have self-pairing 1, and an
    # explicit e is rescaled to get it exactly as the default e is
    out = tmp_path / "report.json"
    for cmd in (("info",), ("verify", "--suite", "c0")):
        want = _report(out, *cmd, *sel)
        assert want[0] == 0
        assert _report(out, *cmd, *sel, "--e", e) == want


def test_explicit_e_builds_the_family_algebra_once(tmp_path, monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return family_algebra(*args)
    monkeypatch.setattr(cli, "family_algebra", counted)
    monkeypatch.setattr(catalog, "family_algebra", counted)
    code, _ = _report(tmp_path / "info.json", "info", "--family", "sl",
                      "--m", "2", "--n", "1", "--e", "0,0,1,0,0,0,0,0")
    assert code == 0
    assert len(calls) == 1


OSP50 = ("--family", "osp", "--m", "5", "--n", "0")


def test_explicit_e_reaches_osp_without_an_sp_block(tmp_path, capsys):
    # osp(5|0) = so(5) has no sp block, so no default nilpotent; an explicit
    # e must build, and without one the error must say why
    code, report = _report(tmp_path / "info.json", "info", *OSP50,
                           "--e", "1,0,0,0,0,0,0,0,0,0")
    assert code == 0
    obj = json.loads(report)
    assert (obj["algebra"], obj["s"], obj["r"]) == ("osp(5|0)", 2, 0)
    code, _ = _report(tmp_path / "table.json", "export", *OSP50,
                      "--e", "1,0,0,0,0,0,0,0,0,0")
    assert code == 0
    capsys.readouterr()
    for cmd in ("info", "export"):
        assert cli.main([cmd, *OSP50]) == 2
        assert capsys.readouterr().err == \
            "error: osp(5|0) has no default nilpotent: give one with --e\n"


def test_c0_on_a_table_without_isotropic_odd_g_minus_1_basis_vectors(tmp_path):
    # sl(3|1) with its odd z pair replaced by sum and difference: a valid
    # table on which the pairing has no isotropic basis vector; its c0
    # report must be the family's, byte for byte
    _, alg, e = mixed_odd_pairs("sl", 3, 1)
    table = tmp_path / "table.json"
    table.write_text(json.dumps(export_table(alg)))
    evec = ",".join(str(e.get(k, 0)) for k in range(alg.dim))
    by_table = _report(tmp_path / "t.json", "c0", "--table", str(table), "--e", evec)
    by_family = _report(tmp_path / "f.json", "c0", "--family", "sl", "--m", "3", "--n", "1")
    assert by_table == by_family
    assert by_table[0] == 0 and json.loads(by_table[1])["c0"]["consistent"]


def test_info_on_a_table_imports_and_checks_it_no_more_than_needed(tmp_path, monkeypatch):
    # one import, whose validation the report reuses: the normalised
    # algebra differs only by a nonzero rescaling of the form
    alg, e = family_algebra("sl", 2, 1)
    table = tmp_path / "sl21.json"
    table.write_text(json.dumps(export_table(alg)))
    evec = ",".join(str(e.get(i, 0)) for i in range(alg.dim))
    by_family = _report(tmp_path / "family.json", "info", "--family", "sl",
                        "--m", "2", "--n", "1", "--e", evec)
    imports, checks = [], []

    def counted(calls, fn):
        def wrapper(*args):
            calls.append(args)
            return fn(*args)
        return wrapper
    monkeypatch.setattr(cli, "import_table", counted(imports, cli.import_table))
    monkeypatch.setattr(cli, "check_algebra", counted(checks, cli.check_algebra))
    monkeypatch.setattr(algebra, "check_algebra", counted(checks, algebra.check_algebra))
    by_table = _report(tmp_path / "table.json", "info", "--table", str(table),
                       "--e", evec)
    assert len(imports) == 1
    assert len(checks) == 1
    assert by_table == by_family
    assert by_table[0] == 0


def test_verify_subset_passes_and_full_suite_is_honest():
    out = run_cli("verify", "--family", "psl22", "--suite", OK_SUITE)
    assert out.returncode == 0, out.stdout + out.stderr
    assert "c0 = 0" in out.stdout
    full = run_cli("verify", "--family", "psl22")
    assert full.returncode == 1
    assert "scalar_reduction" in full.stdout and "FAIL" in full.stdout


def test_verify_full_default_suite_green_at_s_equals_r():
    out = run_cli("verify", "--family", "sl", "--m", "3", "--n", "1")
    assert out.returncode == 0, out.stdout + out.stderr
    assert "c0 = -1/2" in out.stdout
    assert "all pass" in out.stdout


@pytest.mark.parametrize("suite", [",", "", "nope"],
                         ids=["only-commas", "empty", "unknown-id"])
def test_verify_suite_selecting_no_known_id_is_input_error(suite):
    # an empty selection would check nothing and still print "all pass"
    out = run_cli("verify", "--family", "psl22", "--suite", suite)
    assert out.returncode == 2, out.stdout + out.stderr
    assert "all pass" not in out.stdout
    assert any(line.startswith("error:") for line in out.stderr.splitlines())


@pytest.mark.parametrize("suite", [("--suite", "c0"), (), ("--suite", "pbw")],
                         ids=["c0", "default", "pbw"])
@pytest.mark.parametrize("max_deg", ["-1", "1"])
def test_verify_max_deg_below_two_is_input_error(suite, max_deg):
    # rejected before any relation runs, whether or not pbw is selected
    out = run_cli("verify", "--family", "sl", "--m", "2", "--n", "1",
                  "--max-deg=" + max_deg, *suite)
    assert out.returncode == 2, out.stdout + out.stderr
    assert out.stdout == ""
    assert "max_deg must be >= 2, got %s" % max_deg in out.stderr


def test_verify_corrupt_negative_control():
    out = run_cli("verify", "--family", "psl22", "--corrupt", "theta-v-sign")
    assert out.returncode == 1
    assert "FAIL" in out.stdout


def test_c0_command_json():
    out = run_cli("c0", "--family", "psl22", "--format", "json")
    assert out.returncode == 0
    obj = json.loads(out.stdout)
    assert obj["status"] == "pass"
    assert obj["c0"]["formula"] == "1"
    assert obj["c0"]["consistent"] is True
    values = {p["c0"] for p in obj["c0"]["pairs"] if p["c0"] is not None}
    assert values == {"0"}


def test_kw_command_with_prime():
    out = run_cli("kw", "--family", "psl22", "--prime", "7", "--format", "json")
    obj = json.loads(out.stdout)
    assert obj["exponent_p"] == "1" and obj["exponent_two"] == 2
    assert obj["value"] == "28"          # 7^1 * 2^2
    assert "warning" not in obj


def test_kw_warns_on_restricted_prime_but_computes():
    out = run_cli("kw", "--family", "sl", "--m", "2", "--n", "1",
                  "--prime", "2", "--format", "json")
    obj = json.loads(out.stdout)
    assert obj["warning"]
    assert obj["value"] == "4"           # 2^1 * 2^1


@pytest.mark.parametrize("prime", ["0", "1", "-7", "4"])
def test_kw_rejects_a_prime_that_is_not_prime(prime):
    # 0 used to be dropped silently, and 1, -7, 4 computed a value
    out = run_cli("kw", "--family", "sl", "--m", "2", "--n", "1",
                  "--prime", prime)
    assert out.returncode == 2, out.stdout + out.stderr
    assert out.stdout == ""
    assert [line for line in out.stderr.splitlines() if line] == \
        ["error: --prime must be a prime with 2 <= p < 10^12, got %s" % prime]


def test_export_reimport_identical_verification(tmp_path):
    table = tmp_path / "psl22.json"
    out = run_cli("export", "--family", "psl22", "--format", "json",
                  "--out", str(table))
    assert out.returncode == 0
    alg = build_psl22()
    e = ["0"] * alg.dim
    e[alg.basis_names.index("E[0,1]")] = "1"
    evec = ",".join(e)
    by_family = run_cli("verify", "--family", "psl22", "--suite",
                        "identities,c0", "--format", "json")
    by_table = run_cli("verify", "--table", str(table), "--e", evec,
                       "--suite", "identities,c0", "--format", "json")
    assert by_family.returncode == 0 and by_table.returncode == 0
    assert by_family.stdout == by_table.stdout


def test_json_reports_are_byte_identical_across_runs():
    a = run_cli("verify", "--family", "osp", "--m", "1", "--n", "2",
                "--suite", "identities,deg0,c0", "--format", "json")
    b = run_cli("verify", "--family", "osp", "--m", "1", "--n", "2",
                "--suite", "identities,deg0,c0", "--format", "json")
    assert a.returncode == 0
    assert a.stdout == b.stdout


def test_table_with_missing_form_is_input_error(tmp_path):
    doc = export_table(build_psl22())
    doc["form"] = []
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    e = ",".join(["0"] * 14)
    out = run_cli("verify", "--table", str(bad), "--e", e)
    assert out.returncode == 2
    assert "form" in out.stderr


def test_json_report_is_independent_of_hash_seed():
    runs = [run_cli("verify", "--family", "psl22", "--format", "json",
                    env=dict(os.environ, PYTHONHASHSEED=seed))
            for seed in ("0", "12345")]
    assert runs[0].returncode in (0, 1), runs[0].stderr
    assert runs[0].returncode == runs[1].returncode
    assert runs[0].stdout == runs[1].stdout


@pytest.mark.parametrize("e, table_patch", [
    ("1/0,0,1,0,0,0,0,0", None),             # zero denominator in --e
    (None, ("parity", 5)),                   # parity not a list
    (None, ("form", "x")),                   # form not a list of entries
    (None, "[" * 200000 + "]" * 200000),     # too deep for the JSON parser
], ids=["e-zero-denominator", "parity-not-a-list", "form-not-a-list",
        "nested-200000-deep"])
def test_malformed_input_exits_2_without_traceback(tmp_path, e, table_patch):
    if table_patch is None:
        args = ("c0", "--family", "sl", "--m", "2", "--n", "1", "--e", e)
    else:
        if isinstance(table_patch, str):
            text = table_patch
        else:
            doc = export_table(build_psl22())
            doc[table_patch[0]] = table_patch[1]
            text = json.dumps(doc)
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        args = ("verify", "--table", str(bad), "--e", ",".join(["0"] * 14))
    out = run_cli(*args)
    assert out.returncode == 2, out.stderr
    assert any(line.startswith("error:") for line in out.stderr.splitlines())
    assert "Traceback" not in out.stderr


@pytest.mark.parametrize("family, m, n, message", [
    ("osp", -1, 2, "osp(m|n) needs m, n >= 0"),
    ("sl", -1, 3, "sl(m|n) needs m, n >= 0"),
    ("gl", 2, -1, "gl(m|n) needs m, n >= 0"),
    ("gl", 0, 0, "gl(m|n) needs m+n >= 1"),
    ("sl", 1, 0, "sl(m|n) needs m+n >= 2"),
], ids=["osp-negative-m", "sl-negative-m", "gl-negative-n", "gl-empty", "sl-too-small"])
def test_size_error_names_the_violated_condition(capsys, family, m, n, message):
    assert cli.main(["info", "--family", family, "--m", str(m), "--n", str(n)]) == 2
    assert capsys.readouterr().err == "error: %s\n" % message


_PIN_FAMILIES = {
    "psl22": ["--family", "psl22"],
    "osp32": ["--family", "osp", "--m", "3", "--n", "2"],
    "osp14": ["--family", "osp", "--m", "1", "--n", "4"],
    "sl21": ["--family", "sl", "--m", "2", "--n", "1"],
    "sl41": ["--family", "sl", "--m", "4", "--n", "1"],
}

# (command, family, format, --prime) -> sha256 of "exit code, stdout,
# stderr"; p = 2 on sl(2|1) and p = 3 on sl(4|1) break the family
# restriction and carry its warning
INFO_KW_DIGESTS = {
    ("info", "psl22", "text", None): "40353c694277eae2900b44c8b1b715224f1af81f90c8c8648c1367a55b45e8ab",
    ("kw", "psl22", "text", None): "5bcc20803e9ffebd94d34e97c08fa50e7c9dd2d0432eb5103023201db442c280",
    ("kw", "psl22", "text", 7): "f9c5dfaf0ac87412f757b0c833f35aca60f8aa310c6b62085d5c932f9d15c0a0",
    ("info", "psl22", "json", None): "7c7b02a237fe6cc05ccb0d71ee1b060ff7cb6fb4b7ff581fb488aa881cf05c66",
    ("kw", "psl22", "json", None): "41663c83986f6daaa8dc2788c79c00daaec56052ca63c43443c2132e097aecc8",
    ("kw", "psl22", "json", 7): "1123c1c05a70c80f8073b8b8584d56ccc069f05ba85b69c3459fcae7750a55cd",
    ("info", "osp32", "text", None): "aeee70a9082757dd0beaeb9d0ef3f808c8190e8cd6b432bfcdf04003b23903b4",
    ("kw", "osp32", "text", None): "b6b8c358d2d23197d43deec0f7c54ab367109b3e34a4036c5f4fe6d59ea138cf",
    ("kw", "osp32", "text", 7): "212d793c0e9a9f80af614c67c87130f8d7c224a0e7f0f51d2ef6466c50172115",
    ("info", "osp32", "json", None): "45205f7600ac9d0b714b2557a90a9aa61ffa20fab7c0ace4176619d3fbe1f381",
    ("kw", "osp32", "json", None): "8ae986c9bce78e01fb2c759e777857d89b12876ff1ba845766452b0c6777cc1d",
    ("kw", "osp32", "json", 7): "ccedeff7ae7a4d1c335df513831b8822a83c538ea014ea7c8a87ae7b4fa60ca5",
    ("info", "sl21", "text", None): "0bb8d5a591785bc001a056196a1ecb56a842d8cc0ddfc668419ff4db32db94c1",
    ("kw", "sl21", "text", None): "2fd3c38e521b76c3288dee4a1a5cc3ede94d3facd2c109effaaf7fc75e67283e",
    ("kw", "sl21", "text", 7): "fc860b9ac37ea2dd431b15f000ed69657999ccd0d152d1f324b0299f5e116fe6",
    ("info", "sl21", "json", None): "4492a6fc36fbaa0810f8fe529fc8856d2b12a8bbe51ea54b9fcb10e54a74e0d4",
    ("kw", "sl21", "json", None): "8b6cab6e780c367c0e8609cb483b43519396c18d267cd40a4a0c9d1cdfbe8ea2",
    ("kw", "sl21", "json", 7): "444483c8ffea4344de869f1e88629c281298063fec9edd5c7b2f07acca136f23",
    ("info", "osp14", "text", None): "d6bf93cfe34548884f449641b6416eb7132b96c2ee5dd5afaa36f96efee468ae",
    ("kw", "osp14", "text", None): "69bec56e80d89e0b3913ab45ad283fe5d8ec1e0d0c17f5fea512ef76a88265be",
    ("kw", "osp14", "text", 7): "8427d552c0846a7fd3cd5eebfab82f6bf4916c5e49ee2037ccb3f5e35a44c464",
    ("info", "osp14", "json", None): "cb0869c415fbfbb7a8e6f5755e2239e2cf9ea133322246d45fd57a6e072053fe",
    ("kw", "osp14", "json", None): "974b66763f19c80ee4a01c2128ac16f2d95f93356a1c8ebff8d3475d6e335ef3",
    ("kw", "osp14", "json", 7): "e5e388ba72fb4d2f19439a3714afafa2d60168741316c36ec153da64432e3246",
    ("kw", "sl21", "text", 2): "35afbb5a897b358ab370a8bcf7e9097a515da83f28d0716a8bd31326b4091fa4",
    ("kw", "sl41", "text", 3): "87bf24f59c22f97d2d12b504ec33c4f107e680884f5e9b0279309f0194f3fe51",
    ("kw", "sl21", "json", 2): "bfb88967cd25309c685b49a8ff6ea380843dda5c7ad39c89709113eadea47f38",
    ("kw", "sl41", "json", 3): "89a48c42114d5335ea8b3f3a7ed8f66f1cae20a6fcbe9b279066cde978e47663",
}


@pytest.mark.parametrize("case", sorted(INFO_KW_DIGESTS, key=str),
                         ids=lambda c: "-".join(map(str, c)))
def test_info_and_kw_outputs_are_pinned(capsys, case):
    command, family, fmt, prime = case
    argv = [command, *_PIN_FAMILIES[family], "--format", fmt]
    if prime is not None:
        argv += ["--prime", str(prime)]
    code = cli.main(argv)
    out = capsys.readouterr()
    text = "%d\n%s\n%s" % (code, out.out, out.err)
    assert hashlib.sha256(text.encode()).hexdigest() == INFO_KW_DIGESTS[case]
