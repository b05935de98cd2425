"""Tests of the benchmark harness itself, not of braidsys.

The traced run must repeat every count exactly for a seed, and every
checker must flag a deliberately wrong expected value.
"""

import dataclasses
import gzip
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
if str(HERE.parent / "src") not in sys.path:
    sys.path.insert(0, str(HERE.parent / "src"))
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

TINY = {
    # a 2-move target lies within 1 + 6 + 26 states of its start
    "orbit": ({"max_states": 60, "target_moves": 2}, 1),
    "invariants": ({"round": [8, 16, 24]}, 1),
    "audit": ({}, 1),
}
COUNT_SUFFIXES = (".calls", ".letters_in", ".letters_out", ".states_visited", ".elements",
                  "_hit_rate", ".new_state_ratio", ".json_bytes_out", ".ops")


def tiny_ops(name, tmp_path, seed=7):
    params, rounds = TINY[name]
    wl = WORKLOADS[name](**params)
    return wl, wl.generate(seed, rounds, tmp_path / name)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_counts_repeat_for_a_seed(name, tmp_path):
    wl, ops = tiny_ops(name, tmp_path)
    spans = tmp_path / "spans.csv.gz"
    first, attempted, failures = run.per_layer(wl, ops, spans)
    second, _, _ = run.per_layer(wl, ops)
    memory_ops = min(len(ops), run.MEMORY_ROUNDS[name] * len(wl.params["round"]))
    assert not failures and attempted == 2 * len(ops) + memory_ops
    counts = [k for k in run.per_layer_units() if k.endswith(COUNT_SUFFIXES)]
    assert {k: first[k] for k in counts} == {k: second[k] for k in counts}
    assert set(first) == set(run.per_layer_units())
    layer = {"orbit": "orbit.states_visited", "invariants": "crossing.crossing_matrix.calls",
             "audit": "cli.json_bytes_out"}[name]
    assert first[layer] > 0
    assert first["mem.peak_mb"] > 0
    with gzip.open(spans, "rt") as fh:
        rows = [line.split(",") for line in fh.read().splitlines()]
    assert rows[0] == ["index", "name", "parent", "start_s", "end_s"]
    assert sum(r[1] == "op" and r[2] == "-1" for r in rows[1:]) == len(ops)


def test_orbit_checker_flags_wrong_expectations(tmp_path):
    wl, ops = tiny_ops("orbit", tmp_path)
    results = [(op, wl.run(op)) for op in ops]
    assert all(wl.check(op, res) is None for op, res in results)
    found = [(op, res) for op, res in results if res.status == "target_found" and res.witness]
    assert found
    op, res = found[0]
    wrong_target = dataclasses.replace(op, data={**op.data, "target": op.data["start"]})
    assert "does not reach" in wl.check(wrong_target, res)
    budget_op, budget_res = next((o, r) for o, r in results if r.status == "truncated")
    assert "budget" in WORKLOADS["orbit"](max_states=61).check(budget_op, budget_res)
    assert all(res.status == "target_found" for op, res in results if op.data["target"])
    missed = dataclasses.replace(res, status="truncated", witness=None,
                                 states_visited=wl.params["max_states"])
    assert "without reaching the target" in wl.check(op, missed)


def test_invariants_checker_flags_wrong_expectations(tmp_path):
    wl, ops = tiny_ops("invariants", tmp_path)
    op = ops[0]
    rep, rendered = wl.run(op)
    assert wl.check(op, (rep, rendered)) is None
    wrong_r = dataclasses.replace(op, data={**op.data, "r": op.data["r"] + 1})
    assert "permutation order" in wl.check(wrong_r, (rep, rendered))
    bad_det = dataclasses.replace(rep, determinant=rep.determinant + 1)
    assert "determinant" in wl.check(op, (bad_det, rendered))
    bad_poly = dataclasses.replace(rep, charpoly=rep.charpoly * rep.charpoly)
    assert "charpoly" in wl.check(op, (bad_poly, rendered))


def test_audit_checker_flags_wrong_expectations(tmp_path):
    wl, ops = tiny_ops("audit", tmp_path)
    apply_op = next(op for op in ops if op.kind.startswith("apply"))
    compare_op = next(op for op in ops if op.kind.startswith("compare"))
    applied, compared = wl.run(apply_op), wl.run(compare_op)
    assert wl.check(apply_op, applied) is None and wl.check(compare_op, compared) is None

    def wrong(op, **data):
        return dataclasses.replace(op, data={**op.data, **data})

    assert "steps" in wl.check(wrong(apply_op, steps=apply_op.data["steps"] + 1), applied)
    degree, length = apply_op.data["final"]
    assert "final shape" in wl.check(wrong(apply_op, final=(degree, length + 1)), applied)
    assert "exited" in wl.check(wrong(compare_op, code=2), compared)
    assert "exited" in wl.check(apply_op, (1, ""))


def test_gate_flags_a_wrong_row_count(monkeypatch):
    assert run.gate() is None
    monkeypatch.setattr(run, "REFSUITE_ROWS", run.REFSUITE_ROWS + 1)
    assert "refsuite" in run.gate()


def test_failed_ops_give_a_nonzero_exit(monkeypatch, capsys):
    monkeypatch.setattr(workloads.OrbitWorkload, "check", lambda self, op, result: "wrong")
    code = run.main(["--workload", "orbit", "--seed", "1", "--seconds", "0.2", "--trace", "0"])
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert code == 1
    assert not result["correct"] and result["failed"] == result["attempted"] > 0
    assert result["metrics"]["ok_op_frac"]["value"] == 0


def test_fails_without_braidsys_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "benchmarks", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "orbit", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
