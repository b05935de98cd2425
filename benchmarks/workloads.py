"""The three benchmark workloads: input generation, the timed op and its check.

Every input is generated here from the workload seed; braidsys receives
only these inputs.  Braid words are built as plain integer tuples (and
Hurwitz moves applied to them literally) so that generating an input
never runs the code under test.

A workload's inputs are a list of ops ordered in rounds: each round holds
one op of every kind in the mix, so that a run of whole rounds always has
the same mix whatever its length.  `run(op)` is the timed call; `check(op,
output)` runs outside the timed span and returns an error message or None.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

from braidsys import braids, cli, crossing, intlinalg, invariants, orbit, refsuite


# --- plain-tuple braid words -------------------------------------------------

def rand_word(rng: random.Random, m: int, length: int) -> tuple[int, ...]:
    return tuple(rng.choice((1, -1)) * rng.randint(1, m - 1) for _ in range(length))


def free_reduce(w) -> tuple[int, ...]:
    out: list[int] = []
    for k in w:
        if out and out[-1] == -k:
            out.pop()
        else:
            out.append(k)
    return tuple(out)


def inv(w) -> tuple[int, ...]:
    return tuple(-k for k in reversed(w))


def conj(b, a) -> tuple[int, ...]:
    """a^-1 b a, freely reduced."""
    return free_reduce(inv(a) + tuple(b) + tuple(a))


def hurwitz(comps: list, index: int, inverse: bool) -> list:
    """The elementary Hurwitz move on a list of words (1-based index)."""
    out = list(comps)
    a, b = comps[index - 1], comps[index]
    if inverse:
        out[index - 1], out[index] = conj(b, inv(a)), a
    else:
        out[index - 1], out[index] = b, conj(a, b)
    return out


def perm_images(m: int, w) -> list[int]:
    """Upper endpoint position -> lower endpoint position."""
    pos = list(range(1, m + 1))
    for k in w:
        i = abs(k)
        pos[i - 1], pos[i] = pos[i], pos[i - 1]
    images = [0] * m
    for p, strand in enumerate(pos, start=1):
        images[strand - 1] = p
    return images


def perm_order(m: int, w) -> int:
    images = perm_images(m, w)
    seen, order = set(), 1
    for start in range(1, m + 1):
        length, k = 0, start
        while k not in seen:
            seen.add(k)
            k = images[k - 1]
            length += 1
        if length:
            order = math.lcm(order, length)
    return order


def text(w) -> str:
    return ",".join(str(k) for k in w)


# --- workloads ---------------------------------------------------------------

@dataclass
class Op:
    kind: str
    data: dict


class Workload:
    name = ""
    params: dict = {}

    def __init__(self, **overrides):
        self.params = {**type(self).params, **overrides}

    def generate(self, seed: int, rounds: int, workdir: Path) -> list[Op]:
        raise NotImplementedError

    def run(self, op: Op):
        raise NotImplementedError

    def check(self, op: Op, output) -> str | None:
        raise NotImplementedError

    def counts(self, output) -> dict[str, int]:
        """Work counts read off one op's output, summed over a pass."""
        return {}


class OrbitWorkload(Workload):
    """Bounded hurwitz_orbit searches on 4-strand systems; one op is one search."""

    name = "orbit"
    params = {
        "degree": 4,
        "max_states": 600,
        # non-backtracking walks of at most 4 moves from INTRO_B or INTRO_BP
        # end at 469 distinct word tuples, within the budget, so every
        # target search must end at its target; 4 moves still give 363
        # distinct targets per start
        "target_moves": 4,
        # five words of length 3 keep the BFS shallow at this budget, so one
        # random system costs within about 30% of another
        "random_components": 5,
        "random_word_length": 3,
        "round": ["intro_b_target", "intro_bp_target", "random_budget",
                  "random_budget", "random_budget"],
    }

    def _random_system(self, rng):
        return [rand_word(rng, self.params["degree"], self.params["random_word_length"])
                for _ in range(self.params["random_components"])]

    def _target(self, rng, start):
        # a reduced sequence of random moves: never a move followed by its undo
        comps, last = list(start), None
        for _ in range(self.params["target_moves"]):
            while True:
                move = (rng.randint(1, len(comps) - 1), rng.random() < 0.5)
                if last is None or move != (last[0], not last[1]):
                    break
            comps, last = hurwitz(comps, *move), move
        return comps

    def generate(self, seed, rounds, workdir):
        rng = random.Random(seed)
        m = self.params["degree"]
        refs = {
            "intro_b": [braids.parse_word(t, m).letters for t in refsuite.INTRO_B],
            "intro_bp": [braids.parse_word(t, m).letters for t in refsuite.INTRO_BP],
        }
        ops, seen, repeats = [], set(), 0
        while len(ops) < rounds * len(self.params["round"]):
            kind = self.params["round"][len(ops) % len(self.params["round"])]
            src, mode = kind.rsplit("_", 1)
            start = refs[src] if src in refs else self._random_system(rng)
            target = self._target(rng, start) if mode == "target" else None
            key = (tuple(start), tuple(target) if target else None)
            if key in seen:
                repeats += 1
                if repeats > 1000 * rounds:
                    raise ValueError(f"fewer than {rounds} distinct {kind} searches")
                continue
            seen.add(key)
            ops.append(Op(kind, {
                "start": invariants.BraidSystem(m, tuple(braids.BraidWord(m, w) for w in start)),
                "target": None if target is None else
                invariants.BraidSystem(m, tuple(braids.BraidWord(m, w) for w in target)),
            }))
        return ops

    def limits(self):
        return orbit.OrbitLimits(max_states=self.params["max_states"])

    def run(self, op):
        return orbit.hurwitz_orbit(op.data["start"], self.limits(), target=op.data["target"])

    def counts(self, result):
        return {"orbit.states_visited": result.states_visited}

    def check(self, op, result):
        budget = self.params["max_states"]
        if op.data["target"] is not None and result.status != "target_found":
            return f"{result.status} after {result.states_visited} states without reaching the target"
        if result.status == "target_found":
            if op.data["target"] is None:
                return "target_found without a target"
            if len(result.witness) > self.params["target_moves"]:
                return f"witness of {len(result.witness)} moves is longer than the walk"
            end = orbit.replay_witness(op.data["start"], result.witness)
            if end.normal_forms() != op.data["target"].normal_forms():
                return "replayed witness does not reach the target"
        elif result.status == "truncated":
            if result.states_visited != budget:
                return f"truncated after {result.states_visited} states, budget {budget}"
        elif result.status != "complete" or result.states_visited > budget:
            return f"unexpected result {result}"
        return None


class InvariantsWorkload(Workload):
    """braid_invariants plus factored_str on random words; one op is one braid."""

    name = "invariants"
    params = {
        "round": [8, 16, 24, 24, 32],  # degrees
        "letters_per_strand": 2,
        # words are drawn with permutation order r at most this (about the
        # 90th percentile at m=32); see the README on the r * |nf word| cost
        "max_perm_order": 210,
    }

    def generate(self, seed, rounds, workdir):
        rng = random.Random(seed)
        ops, seen = [], set()
        degrees = self.params["round"]
        while len(ops) < rounds * len(degrees):
            m = degrees[len(ops) % len(degrees)]
            w = rand_word(rng, m, self.params["letters_per_strand"] * m)
            r = perm_order(m, w)
            if (m, w) in seen or r > self.params["max_perm_order"]:
                continue
            seen.add((m, w))
            ops.append(Op(f"m{m}", {"word": braids.BraidWord(m, w), "r": r}))
        return ops

    def run(self, op):
        rep = invariants.braid_invariants(op.data["word"])
        return rep, intlinalg.factored_str(rep.charpoly)

    def check(self, op, output):
        rep, rendered = output
        word, r = op.data["word"], op.data["r"]
        if rep.r != r:
            return f"permutation order {rep.r}, expected {r}"
        M = crossing.crossing_matrix(braids.power(word, r))
        if intlinalg.charpoly(M) != rep.charpoly:
            return "charpoly differs from the input word's pure-power matrix"
        if intlinalg.determinant(M) != rep.determinant:
            return "determinant differs from the input word's pure-power matrix"
        if not rendered:
            return "empty factored_str"
        return None


class AuditWorkload(Workload):
    """In-process `apply --json` and `compare --json` CLI calls; one op is one call."""

    name = "audit"
    params = {
        "components": 4,
        "word_length": 3,
        "script_steps": 4,
        "full_sym_steps": 1,
        "compare_moves": 3,
        "gc_length": [1, 2],
        # STAB only below this degree: a random degree-7 system stabilizes
        # to full S_8 monodromy, whose group order would swamp the mix
        "stab_below": 7,
        # long enough that two systems rarely share a generating set, which
        # would turn an S_8 group order into a cache hit
        "full_conjugator_length": [2, 4],
        # <mode>_<m>: a random-word system of degree m; <mode>_full_<m>: its
        # words are conjugated generators whose transpositions generate all
        # of S_m.  The three compare_6 hold the p50, the two full-S_8
        # applies the p90.
        "round": ["compare_4", "compare_5", "compare_6", "compare_6", "compare_6", "apply_4",
                  "apply_5", "apply_6", "apply_7", "apply_full_8", "apply_full_8"],
    }

    def _system(self, rng, m: int, full: bool):
        if not full:
            return [rand_word(rng, m, self.params["word_length"])
                    for _ in range(self.params["components"])]
        while True:
            comps, edges = [], []
            for i in rng.sample(range(1, m), m - 1):
                a = rand_word(rng, m, rng.randint(*self.params["full_conjugator_length"]))
                comps.append(conj((i * rng.choice((1, -1)),), a))
                images = perm_images(m, comps[-1])
                edges.append([k + 1 for k in range(m) if images[k] != k + 1])
            if _connected(m, edges):
                return comps

    def _script(self, rng, m: int, n: int, steps: int, full: bool):
        """A legal step list, with the (degree, length) it ends at."""
        out = []
        while len(out) < steps:
            # a full-monodromy system only takes Hurwitz moves, which keep
            # its group S_m, so each of its steps costs one group order
            kind = "H" if full else rng.choice(("H", "H", "GC", "FUSE", "STAB"))
            if kind == "FUSE" and n >= 3:
                q = rng.randint(1, min(2, n - 2))
                out.append(f"FUSE {rng.randint(1, n - q)} {q}")
                n -= q
            elif kind == "STAB" and m < self.params["stab_below"] and steps - len(out) >= 2:
                out += ["STAB", "DESTAB"]
            elif kind == "GC":
                out.append(f"GC {text(rand_word(rng, m, rng.randint(*self.params['gc_length'])))}")
            else:
                out.append(f"H {rng.randint(1, n - 1)} {rng.choice('+-')}")
        return out, (m, n)

    def generate(self, seed, rounds, workdir):
        rng = random.Random(seed)
        workdir.mkdir(parents=True, exist_ok=True)
        ops = []
        kinds = self.params["round"]
        for idx in range(rounds * len(kinds)):
            kind = kinds[idx % len(kinds)]
            mode, *full, m = kind.split("_")
            m, full = int(m), bool(full)
            comps = self._system(rng, m, full)
            sys_path = workdir / f"{idx}-a.json"
            sys_path.write_text(json.dumps({"degree": m, "components": [text(c) for c in comps]}))
            if mode == "apply":
                steps = self.params["full_sym_steps" if full else "script_steps"]
                script, final = self._script(rng, m, len(comps), steps, full)
                script_path = workdir / f"{idx}-script.txt"
                script_path.write_text("\n".join(script) + "\n")
                ops.append(Op(kind, {
                    "argv": ["apply", "--system", str(sys_path), "--script", str(script_path), "--json"],
                    "steps": len(script), "final": final,
                    "fuses": sum(s.startswith("FUSE") for s in script),
                }))
            else:
                moved = list(comps)
                for _ in range(self.params["compare_moves"]):
                    moved = hurwitz(moved, rng.randint(1, len(moved) - 1), rng.random() < 0.5)
                other = workdir / f"{idx}-b.json"
                other.write_text(json.dumps({"degree": m, "components": [text(c) for c in moved]}))
                ops.append(Op(kind, {"argv": ["compare", str(sys_path), str(other), "--json"],
                                     "code": 0}))
        return ops

    def run(self, op):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(op.data["argv"])
        return code, buf.getvalue()

    def counts(self, output):
        return {"cli.json_bytes_out": len(output[1].encode())}

    def check(self, op, output):
        code, out = output
        if op.kind.startswith("apply"):
            if code != 0:
                return f"apply exited {code}"
            data = json.loads(out)
            if len(data["steps"]) != op.data["steps"]:
                return f"{len(data['steps'])} audit entries for {op.data['steps']} steps"
            final = data["final"]
            if (final["degree"], len(final["components"])) != tuple(op.data["final"]):
                return f"final shape {final['degree']}/{len(final['components'])}, expected {op.data['final']}"
            if sum("tau_check" in s for s in data["steps"]) != op.data["fuses"]:
                return "tau checks do not match the FUSE steps"
            return None
        if code != op.data["code"]:
            return f"compare exited {code}, expected {op.data['code']}"
        verdict = json.loads(out)["verdict"]
        if (verdict == "indistinguishable_by_invariants") != (code == 0):
            return f"verdict {verdict} disagrees with exit code {code}"
        return None


def _connected(m: int, edges) -> bool:
    """Whether transpositions on these point pairs link all of 1..m."""
    parent = list(range(m + 1))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for e in edges:
        if len(e) != 2:
            return False
        parent[find(e[0])] = find(e[1])
    return len({find(k) for k in range(1, m + 1)}) == 1


WORKLOADS = {w.name: w for w in (OrbitWorkload, InvariantsWorkload, AuditWorkload)}
