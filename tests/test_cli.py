import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from braidsys import BraidSystem, BraidWord, braids_equal, cli, refsuite
from braidsys.braids import MAX_DEGREE, parse_word
from braidsys.cli import load_system, main
from braidsys.invariants import BraidInvariantReport, SystemInvariantReport
from braidsys.orbit import OrbitLimits


@pytest.fixture
def system_files(tmp_path):
    paths = {}
    for name, degree, comps in [
        ("intro_b", 4, ["1,2,-3", "3", "-2", "-1"]),
        ("intro_bp", 4, ["1,-2,3", "-3", "2", "-1"]),
        ("fused_c", 4, ["1,-2,3", "-3,2,-1"]),
        ("pair", 2, ["1", "1"]),
        # INTRO_B after H 1 + / H 3 -
        ("intro_b_moved", 4, ["3", "-1,-2,-3,-1,-2,-1,2,1,3,2,1,1,2", "-1,-2,-3,-1,3,2,2", "-2"]),
        # conjugated transpositions linking all 8 points: monodromy S_8
        ("full_s8", 8, ["1", "-1,2,1", "3", "2,-4,-2", "5", "-6,5,6", "7"]),
        # full_s8 after H 3 +
        ("full_s8_moved", 8,
         ["1", "-1,2,1", "2,-4,-2", "2,4,-2,3,2,-4,-2", "5", "-6,5,6", "7"]),
        # its E has an integer root and a quartic without one; monodromy S_5
        ("deg5", 5, ["-4,3,1,2", "1"]),
        # degrees above 5, where the comb runs on image tuples, not int codes
        ("deg6", 6, ["1,-2,3", "4,-5", "-3,2", "5,1"]),
        # deg6 after H 1 + / H 3 - / H 2 +
        ("deg6_moved", 6,
         ["4,-5", "-1,-2,-3,-4,-5,-1,-2,-3,-4,-1,4,3,2,1,5,4,3,2,2,1,3,5",
          "-1,-2,-3,-4,-5,-1,-2,-3,-4,-1,-2,-3,-1,-2,-1,-1,-2,-3,-4,-5,-1,-2,-3,-4,-1,-2,-3,-1,"
          "-2,-1,2,1,3,4,3,5,4,3,2,1,1,2,1,3,2,4,5,4,2,1,3,2,4,3,2,2,3,2,1,4,3",
          "-3,2"]),
        ("deg7", 7, ["1,2,-3", "-4,5", "6,-1", "3"]),
    ]:
        p = tmp_path / f"{name}.json"
        p.write_text(json.dumps({"degree": degree, "components": comps}))
        paths[name] = str(p)
    script = tmp_path / "script.txt"
    script.write_text("# a comment line\n\nH 1 +\nFUSE 1 1\n")
    paths["script"] = str(script)
    return paths


def test_invariants_word_mode(capsys):
    assert main(["invariants", "--degree", "5", "--word", "3,-1,4"]) == 0
    out = capsys.readouterr().out
    assert "determinant: -144" in out
    assert "(x+2)^2" in out
    assert "x^5 - 21x^3 - 16x^2 + 108x + 144" in out


def test_invariants_empty_word(capsys):
    assert main(["invariants", "--degree", "4", "--word", ""]) == 0
    out = capsys.readouterr().out
    assert "rank: 0" in out and "x^4" in out


def test_invariants_system_mode(capsys, system_files):
    assert main(["invariants", "--system", system_files["intro_bp"]]) == 0
    out = capsys.readouterr().out
    assert "E = {-3}" in out
    assert "P = x^6 (x+1)^3 (x-1)^6 (x+3)" in out


def test_invariants_json_roundtrip(capsys, system_files):
    assert main(["invariants", "--degree", "4", "--word", "1,2,-3", "--json"]) == 0
    rep = BraidInvariantReport.from_json(json.loads(capsys.readouterr().out))
    assert rep.determinant == 1
    assert main(["invariants", "--system", system_files["intro_b"], "--json"]) == 0
    sys_rep = SystemInvariantReport.from_json(json.loads(capsys.readouterr().out))
    assert sys_rep.perm_monodromy_order == 24


def test_invariants_usage_errors(capsys):
    assert main(["invariants", "--degree", "4"]) == 1
    assert main(["invariants", "--degree", "4", "--word", "9"]) == 1
    assert main(["invariants", "--system", "/nonexistent.json"]) == 1


@pytest.mark.parametrize("extra", [["--degree", "3"], ["--word", "1"], ["--degree", "4", "--word", "1"]])
def test_invariants_system_rejects_degree_and_word(capsys, system_files, extra):
    # a degree-4 file with --degree 3 must not print the degree-4 report
    assert main(["invariants", "--system", system_files["intro_b"], *extra]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "cannot be combined" in captured.err


def test_compare_distinguished(capsys, system_files):
    rc = main(["compare", system_files["intro_b"], system_files["intro_bp"], "--json"])
    assert rc == 2
    result = json.loads(capsys.readouterr().out)
    assert result["verdict"] == "distinguished_by:charpoly_product"
    by_name = {e["name"]: e for e in result["invariants"]}
    assert by_name["trace_product"]["equal"] is True
    assert by_name["perm_monodromy_order"]["equal"] is True
    assert by_name["exponent_sum_multiset"]["equal"] is True
    assert by_name["charpoly_multiset"]["equal"] is False


def test_compare_euler_necessary(capsys, system_files):
    rc = main(["compare", system_files["intro_bp"], system_files["fused_c"], "--json"])
    assert rc == 2
    result = json.loads(capsys.readouterr().out)
    assert result["verdict"] == "euler_necessary"
    assert not result["same_shape"]


def test_compare_self(capsys, system_files):
    rc = main(["compare", system_files["intro_b"], system_files["intro_b"]])
    assert rc == 0
    assert "indistinguishable_by_invariants" in capsys.readouterr().out


def test_apply_fusion_script(capsys, system_files, tmp_path):
    script = tmp_path / "fuse.txt"
    script.write_text("FUSE 2 1\nFUSE 2 1\n")
    rc = main(["apply", "--system", system_files["intro_bp"], "--script", str(script), "--json"])
    assert rc == 0
    result = json.loads(capsys.readouterr().out)
    assert all(step["tau_check"] for step in result["steps"])
    final = BraidSystem.from_json(result["final"])
    target = load_system(system_files["fused_c"])
    assert all(braids_equal(a, b) for a, b in zip(final.components, target.components))


def test_apply_roundtrip_scripts(capsys, system_files):
    rc = main(["apply", "--system", system_files["intro_b"], "--steps", "H 1 + / H 1 -", "--json"])
    assert rc == 0
    result = json.loads(capsys.readouterr().out)
    final = BraidSystem.from_json(result["final"])
    original = load_system(system_files["intro_b"])
    assert all(braids_equal(a, b) for a, b in zip(final.components, original.components))

    rc = main(["apply", "--system", system_files["intro_b"], "--steps", "STAB / DESTAB", "--json"])
    assert rc == 0
    result = json.loads(capsys.readouterr().out)
    final = BraidSystem.from_json(result["final"])
    assert all(braids_equal(a, b) for a, b in zip(final.components, original.components))


def test_apply_global_conjugation_roundtrip(capsys, system_files):
    rc = main(["apply", "--system", system_files["intro_b"], "--steps", "GC 1,-2 / GC 2,-1", "--json"])
    assert rc == 0
    result = json.loads(capsys.readouterr().out)
    final = BraidSystem.from_json(result["final"])
    original = load_system(system_files["intro_b"])
    assert all(braids_equal(a, b) for a, b in zip(final.components, original.components))


def test_orbit_target_witness(capsys, system_files, tmp_path):
    moved = tmp_path / "moved.json"
    original = load_system(system_files["intro_b"])
    from braidsys import HurwitzMove, hurwitz_move

    moved.write_text(json.dumps(hurwitz_move(original, HurwitzMove(2)).to_json()))
    rc = main(["orbit", "--system", system_files["intro_b"], "--target", str(moved), "--json"])
    assert rc == 0
    result = json.loads(capsys.readouterr().out)
    assert result["status"] == "target_found"
    assert result["witness"] == [{"index": 2, "inverse": False}]


def test_apply_reports_bad_step(capsys, system_files):
    rc = main(["apply", "--system", system_files["intro_b"], "--steps", "H 1 + / FUSE 9 9"])
    assert rc == 1
    assert "step 2" in capsys.readouterr().err


def test_apply_labels_each_step_as_parsed(capsys, system_files):
    steps = "H 1 + / GC / gc 1  -2 / FUSE 01 1 / stab / destab"
    assert main(["apply", "--system", system_files["intro_b"], "--steps", steps, "--json"]) == 0
    labels = [step["move"] for step in json.loads(capsys.readouterr().out)["steps"]]
    assert labels == ["H 1 +", "GC ", "GC 1 -2", "FUSE 1 1", "STAB", "DESTAB"]
    assert main(["apply", "--system", system_files["intro_b"], "--steps", "H 1 + / GC 9"]) == 1
    assert capsys.readouterr().err == (
        "error: step 2 (GC 9): generator token '9' out of range for degree 4\n")


def test_apply_rejects_malformed_script(capsys, system_files):
    assert main(["apply", "--system", system_files["intro_b"], "--steps", "WIGGLE 3"]) == 1


def test_apply_script_file_errors_name_the_file(capsys, system_files, tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"\xffH 1 +\n")
    assert main(["apply", "--system", system_files["intro_b"], "--script", str(bad)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}: malformed script file (") and "0xff" in err
    missing = tmp_path / "missing.txt"
    assert main(["apply", "--system", system_files["intro_b"], "--script", str(missing)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(missing) in err


def test_apply_needs_a_script_or_steps(capsys, system_files):
    assert main(["apply", "--system", system_files["intro_b"]]) == 1
    assert capsys.readouterr().err == "error: need --script FILE or --steps TEXT\n"


def test_orbit_defaults_are_the_library_limits():
    args = cli.build_parser().parse_args(["orbit", "--system", "s.json"])
    limits = (args.max_states, args.max_depth, args.max_canonical_length)
    assert OrbitLimits(*limits) == OrbitLimits()


def test_orbit_command(capsys, system_files):
    rc = main(["orbit", "--system", system_files["pair"], "--json"])
    assert rc == 0
    result = json.loads(capsys.readouterr().out)
    assert result["status"] == "complete" and result["states_visited"] == 1

    rc = main(["orbit", "--system", system_files["intro_b"], "--max-states", "100", "--json"])
    assert rc == 0
    assert json.loads(capsys.readouterr().out)["status"] == "truncated"

    rc = main(["orbit", "--system", system_files["pair"], "--target", system_files["pair"]])
    assert rc == 0
    assert "target_found" in capsys.readouterr().out


def test_papersuite(capsys):
    assert main(["papersuite", "--json"]) == 0
    result = json.loads(capsys.readouterr().out)
    assert result["all_pass"] and len(result["rows"]) > 30


@pytest.mark.parametrize("flipped", [False, True])
def test_papersuite_rows_json_roundtrip(flipped):
    rows, ok = refsuite.run(flipped=flipped)
    assert ok and len(rows) == 38
    assert all(refsuite.Row.from_json(r.to_json()) == r for r in rows)
    result = refsuite.SuiteResult(tuple(rows), ok)
    assert refsuite.SuiteResult.from_json(result.to_json()) == result


def test_suite_result_all_pass_must_match_its_rows():
    rows = (refsuite.Row("a", "", "1", "1", True), refsuite.Row("b", "", "1", "2", False))
    assert not refsuite.SuiteResult(rows, False).all_pass
    for bad in ((rows, True), (rows[:1], False)):
        with pytest.raises(ValueError):
            refsuite.SuiteResult(*bad)


@pytest.mark.parametrize("expected, computed, ok", [("1", "2", True), ("1", "1", False)])
def test_row_ok_must_match_its_values(expected, computed, ok):
    data = {"id": "r", "description": "", "expected": expected, "computed": computed, "ok": ok}
    with pytest.raises(ValueError):
        refsuite.Row.from_json(data)


def test_papersuite_flipped_convention(capsys):
    # pure-power rows are symmetric, so the whole table passes either way
    assert main(["papersuite", "--flipped-convention", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["all_pass"]


def test_one_parser_serves_every_call(capsys, monkeypatch, system_files):
    # the process-wide parser answers a run of calls, usage errors and
    # --help among them, exactly as a parser built afresh for each call
    calls = [["compare", "--no-such-flag"], ["--help"],
             ["compare", system_files["intro_b"], system_files["intro_b_moved"], "--json"],
             ["papersuite", "--flipped-convention", "--json"]]

    def run_all():
        out = []
        for argv in calls:
            code = main(argv)
            out.append((code, capsys.readouterr().out))
        return out

    shared = run_all()
    assert cli._parser() is cli._parser()
    monkeypatch.setattr(cli, "_parser", cli.build_parser)
    fresh = run_all()
    assert [code for code, _ in shared] == [1, 0, 0, 0]
    assert shared == fresh


def test_usage_error_exit_code():
    assert main(["nonsense"]) == 1
    assert main([]) == 1


def test_malformed_system_file(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"degree": 3}))
    assert main(["invariants", "--system", str(bad)]) == 1


@pytest.mark.parametrize("data, field", [
    ({"components": ["1"]}, "degree"),
    ({"degree": 3}, "components"),
    ([{"degree": 3, "components": ["1"]}], "BraidSystem"),
    # raw text: json.load gives up on it with a RecursionError
    pytest.param("[" * 100_000 + "]" * 100_000, "nested too deeply", id="nested-100000-deep"),
    pytest.param('{"degree": 3,\n "components": ["1"]', "Expecting ',' delimiter", id="truncated"),
    # raw bytes: not UTF-8
    pytest.param(b"\xff{}", "can't decode byte 0xff", id="not-utf-8"),
    ({"degree": 3, "components": ["1"], "x": 1}, "x: unknown key in BraidSystem"),
    ({"degree": MAX_DEGREE + 1, "components": ["1"]}, f"degree must be <= {MAX_DEGREE}, got"),
    ({"degree": 3, "components": ["1", "2"], "name": 5}, "name: expected a string, got int"),
])
def test_malformed_system_file_names_the_field(tmp_path, capsys, data, field):
    bad = tmp_path / "bad.json"
    if isinstance(data, bytes):
        bad.write_bytes(data)
    else:
        bad.write_text(data if isinstance(data, str) else json.dumps(data))
    assert main(["invariants", "--system", str(bad)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}: malformed system file (") and field in err


def test_system_file_components_must_be_a_list(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"degree": 4, "components": "1,2"}))
    assert main(["invariants", "--system", str(bad)]) == 1
    assert "malformed system file" in capsys.readouterr().err


@pytest.mark.parametrize("degree", [4.7, "4", True, None])
def test_system_file_degree_must_be_an_integer(tmp_path, capsys, degree):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"degree": degree, "components": ["3"]}))
    assert main(["invariants", "--system", str(bad)]) == 1
    assert "malformed system file" in capsys.readouterr().err


def test_system_file_may_carry_a_name(tmp_path):
    named = tmp_path / "named.json"
    named.write_text(json.dumps({"degree": 3, "components": ["1"], "name": "one"}))
    assert load_system(str(named)) == BraidSystem.from_texts(3, ["1"])


@pytest.mark.parametrize("degree", [MAX_DEGREE + 1, 99_999_999_999])
def test_degree_above_the_bound_is_a_usage_error(capsys, degree):
    # at 99,999,999,999 the report's matrices used to run out of memory
    assert main(["invariants", "--degree", str(degree), "--word", "1"]) == 1
    assert capsys.readouterr().err == f"error: degree must be <= {MAX_DEGREE}, got {degree}\n"
    assert parse_word("1", MAX_DEGREE) == BraidWord(MAX_DEGREE, (1,))


# --- in-process fuzzing of the command line ---------------------------------

# Small degrees keep every report cheap, and both sides of the degree bound
# are tried.  Most cases are well formed, so that the commands run past
# their parsing; sampled_from shrinks towards its first entries.
_DEGREES = st.sampled_from([4, 5, 4, 5, 3, 2, 1, 0, -1, MAX_DEGREE + 1, 10**11])
_WORDS = st.lists(st.sampled_from([1, -1, 2, -2, 3, -3]), max_size=4).map(lambda ks: ",".join(map(str, ks)))
_JUNK_WORDS = st.sampled_from(["", "x", "1,,2", "1.5", "--1", "0", "7"])
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)


@st.composite
def _files(draw):
    """The bytes of a system file: mostly a system of small degree, at
    times with a bad word, an extra key or no component, and at times
    other JSON, text or bytes."""
    kind = draw(st.integers(0, 9))
    if kind == 9:
        return draw(st.binary(max_size=12))
    if kind == 8:
        return draw(st.text(max_size=12)).encode()
    if kind == 7:
        return json.dumps(draw(_JSON)).encode()
    components = draw(st.lists(_WORDS, min_size=kind != 6, max_size=3))
    if kind == 5:
        components.append(draw(_JUNK_WORDS))
    system = {"degree": draw(_DEGREES), "components": components}
    if kind == 4:
        system[draw(st.sampled_from(["name", "x"]))] = draw(st.text(max_size=3))
    return json.dumps(system).encode()


_STEPS = st.lists(st.sampled_from(
    ["H 1 +", "H 2 -", "H 0 +", "H 1 ?", "GC 1,-2", "GC 9", "STAB", "DESTAB",
     "FUSE 1 1", "FUSE 1 0", "FUSE 2 5", "bogus"]), max_size=3).map(" / ".join)
_LIMITS = st.sampled_from([12, 3, 1, 30, 2, 0, -1]).map(str)


# argv that argparse rejects: it prints its usage, then one error line
_REJECTED = [
    ["bogus"],
    [],
    ["apply", "--steps=H 1 +"],
    ["invariants", "--degree=x", "--word=1"],
    ["compare", "FILE1"],
    ["orbit", "--system", "FILE1", "--max-states=many"],
    ["papersuite", "--bogus"],
]


@st.composite
def _argv(draw):
    """argv for every command, at times one that argparse rejects;
    `FILE1` and `FILE2` stand for the two generated system files."""
    command = draw(st.sampled_from(["invariants-word", "invariants-system", "compare", "apply", "orbit",
                                    "papersuite", "rejected"]))
    if command == "rejected":
        return draw(st.sampled_from(_REJECTED))
    if command == "papersuite":
        argv = ["papersuite"] + draw(st.sampled_from([[], ["--flipped-convention"]]))
    elif command == "invariants-word":
        argv = ["invariants", f"--degree={draw(_DEGREES)}", f"--word={draw(_WORDS | _JUNK_WORDS)}"]
    elif command == "invariants-system":
        argv = ["invariants", "--system", "FILE1"]
    elif command == "compare":
        argv = ["compare", "FILE1", "FILE2"]
    elif command == "apply":
        argv = ["apply", "--system", "FILE1", f"--steps={draw(_STEPS)}"]
    else:
        argv = ["orbit", "--system", "FILE1", f"--max-states={draw(_LIMITS)}",
                f"--max-depth={draw(_LIMITS)}", f"--max-canonical-length={draw(_LIMITS)}"]
        if draw(st.booleans()):
            argv += ["--target", "FILE2"]
    return argv + draw(st.sampled_from([[], ["--json"]]))


@settings(max_examples=200, deadline=2000)
@given(argv=_argv(), first=_files(), second=_files())
def test_cli_fuzz_fails_cleanly(argv, first, second):
    with tempfile.TemporaryDirectory() as tmp:
        files = {"FILE1": Path(tmp) / "first.json", "FILE2": Path(tmp) / "second.json"}
        files["FILE1"].write_bytes(first)
        files["FILE2"].write_bytes(second)
        rejected = argv in _REJECTED
        argv = [str(files.get(arg, arg)) for arg in argv]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    err = err.getvalue()
    assert code in ((1,) if rejected else (0, 1, 2, 3))
    assert "internal error" not in err
    if code == 1:
        lines = err.splitlines()
        assert lines and "error: " in lines[-1], err
        # argparse prints its usage before the error line, a command the error alone
        assert (len(lines) > 1) == rejected, err
    else:
        assert not err


GOLDEN = Path(__file__).parent / "golden"


PINNED = [
    ("invariants_word.json", ["invariants", "--degree", "4", "--word", "1,2,-3", "--json"], 0),
    ("invariants_system.json", ["invariants", "--system", "{intro_b}", "--json"], 0),
    ("apply_steps.json",
     ["apply", "--system", "{intro_b}", "--steps", "H 1 + / STAB / DESTAB / FUSE 1 2", "--json"],
     0),
    ("orbit_truncated.json", ["orbit", "--system", "{intro_b}", "--max-states", "40", "--json"],
     0),
    ("orbit_target.json",
     ["orbit", "--system", "{intro_b}", "--target", "{intro_b_moved}", "--max-states", "200",
      "--json"], 0),
    ("compare_intro_b.json", ["compare", "{intro_b}", "{intro_b_moved}", "--json"], 0),
    ("compare_full_s8.json", ["compare", "{full_s8}", "{full_s8_moved}", "--json"], 0),
    ("papersuite.json", ["papersuite", "--json"], 0),
    # every row is symmetric in the over-strand rule, so the bytes are the same
    ("papersuite.json", ["papersuite", "--flipped-convention", "--json"], 0),
    # degree 24, where normal_form groups far-commuting letters into pieces
    ("invariants_word_m24.json",
     ["invariants", "--degree", "24", "--word",
      "23,19,6,-22,-23,-5,-10,1,21,17,-16,-15,-16,-3,-9,-6,10,21,-2,11,3,-8,-5,-16,"
      "-9,-9,-3,-5,11,-22,5,-9,8,8,5,21,8,10,16,11,-6,14,-8,2,-15,15,3,-11", "--json"], 0),
    ("compare_distinguished.json", ["compare", "{intro_b}", "{intro_bp}", "--json"], 2),
    # the Hurwitz checks are skipped: every one of them is null
    ("compare_shape_mismatch.json", ["compare", "{intro_bp}", "{fused_c}", "--json"], 2),
    ("orbit_deg6_target.json",
     ["orbit", "--system", "{deg6}", "--target", "{deg6_moved}", "--max-states", "200", "--json"],
     0),
    ("orbit_deg7_truncated.json", ["orbit", "--system", "{deg7}", "--max-depth", "4", "--json"], 0),
    # degree 64, where `braids._lw_fix` takes its dual path: 128 random letters,
    # drawn as benchmarks/workloads.py::rand_word does with seed 7; "--word="
    # since the first letter is negative
    ("invariants_word_m64.json",
     ["invariants", "--degree", "64",
      "--word=-61,26,5,24,59,3,28,-5,6,-4,61,41,37,-4,3,19,-10,37,-36,7,24,36,37,40,32,-50,"
      "-30,-24,-16,45,6,-34,-57,-47,-19,8,-11,-10,-27,62,49,-22,-39,-38,-5,61,-31,4,-42,"
      "-19,-57,-2,-23,40,32,14,-9,26,-59,-6,29,-36,-57,53,-56,-46,-23,-62,10,12,15,1,-54,"
      "17,-1,27,-40,-61,45,30,-26,-26,31,-4,5,29,8,-39,7,37,35,61,-40,5,40,-10,-62,-39,-31,"
      "8,-63,-31,-20,10,48,-48,-31,34,14,-10,49,-63,45,-34,-59,23,35,-41,40,52,53,-48,13,"
      "-23,2,-31,-13,-29", "--json"], 0),
]


# an id names the golden and its argv index, not the exit code
@pytest.mark.parametrize("golden, argv, code", PINNED,
                         ids=[f"{golden}-argv{i}" for i, (golden, _, _) in enumerate(PINNED)])
def test_json_output_is_pinned(capsys, system_files, golden, argv, code):
    # the exact bytes, key names and key order of the --json reports
    assert main([a.format(**system_files) for a in argv]) == code
    assert capsys.readouterr().out == (GOLDEN / golden).read_text()


TEXT_PINNED = [
    # multisets print as Python lists: ['x^4 - x^2', ...], never as tuples
    pytest.param("compare_distinguished.txt", ["compare", "{intro_b}", "{intro_bp}"], 2,
                 id="compare_distinguished.txt-intro_b-intro_bp"),
    pytest.param("compare_shape_mismatch.txt", ["compare", "{intro_bp}", "{fused_c}"], 2,
                 id="compare_shape_mismatch.txt-intro_bp-fused_c"),
    pytest.param("invariants_system_deg5.txt", ["invariants", "--system", "{deg5}"], 0,
                 id="invariants_system_deg5.txt-deg5"),
    # the comment and the blank line are skipped; FUSE prints its tau note
    pytest.param("apply_script_deg5.txt",
                 ["apply", "--system", "{deg5}", "--script", "{script}"], 0,
                 id="apply_script_deg5.txt-deg5-script"),
    pytest.param("orbit_pair.txt", ["orbit", "--system", "{pair}"], 0, id="orbit_pair.txt-pair"),
]


@pytest.mark.parametrize("golden, argv, code", TEXT_PINNED)
def test_compare_text_is_pinned(capsys, system_files, golden, argv, code):
    # the exact text reports, as the --json goldens pin the JSON ones
    assert main([a.format(**system_files) for a in argv]) == code
    assert capsys.readouterr().out == (GOLDEN / golden).read_text()
