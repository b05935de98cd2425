import json
from pathlib import Path

import pytest

from braidsys import BraidSystem, braids_equal, refsuite
from braidsys.cli import load_system, main
from braidsys.invariants import BraidInvariantReport, SystemInvariantReport


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
    ]:
        p = tmp_path / f"{name}.json"
        p.write_text(json.dumps({"degree": degree, "components": comps}))
        paths[name] = str(p)
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


def test_apply_rejects_malformed_script(capsys, system_files):
    assert main(["apply", "--system", system_files["intro_b"], "--steps", "WIGGLE 3"]) == 1


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


def test_papersuite_flipped_convention(capsys):
    # pure-power rows are symmetric, so the whole table passes either way
    assert main(["papersuite", "--flipped-convention", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["all_pass"]


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
])
def test_malformed_system_file_names_the_field(tmp_path, capsys, data, field):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    assert main(["invariants", "--system", str(bad)]) == 1
    err = capsys.readouterr().err
    assert "malformed system file" in err and field in err


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
]


# an id names the golden and its argv index, not the exit code
@pytest.mark.parametrize("golden, argv, code", PINNED,
                         ids=[f"{golden}-argv{i}" for i, (golden, _, _) in enumerate(PINNED)])
def test_json_output_is_pinned(capsys, system_files, golden, argv, code):
    # the exact bytes, key names and key order of the --json reports
    assert main([a.format(**system_files) for a in argv]) == code
    assert capsys.readouterr().out == (GOLDEN / golden).read_text()


@pytest.mark.parametrize("golden, left, right", [
    ("compare_distinguished.txt", "intro_b", "intro_bp"),
    ("compare_shape_mismatch.txt", "intro_bp", "fused_c"),
])
def test_compare_text_is_pinned(capsys, system_files, golden, left, right):
    # multisets print as Python lists: ['x^4 - x^2', ...], never as tuples
    assert main(["compare", system_files[left], system_files[right]]) == 2
    assert capsys.readouterr().out == (GOLDEN / golden).read_text()
