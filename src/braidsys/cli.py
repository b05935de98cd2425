"""
Command-line surface.

Commands: invariants, compare, apply, orbit, papersuite.  Input files are
JSON ({"degree": m, "components": ["1,2,-3", ...], "name": optional});
words use the signed-integer token syntax everywhere.

Exit codes: 0 success, 1 usage or parse error, 2 compare found a
difference, 3 internal failure (including reference-suite mismatches).
"""

from __future__ import annotations

import argparse
import json
import sys

from . import refsuite
from .braids import BraidWord, parse_word
from .intlinalg import factored_str, split_integer_roots
from .invariants import BraidSystem, braid_invariants, compare_systems, system_invariants
from .moves import (
    HurwitzMove,
    destabilize,
    euler_fuse,
    global_conjugate,
    hurwitz_move,
    stabilize,
)
from .orbit import OrbitLimits, hurwitz_orbit


def load_system(path: str) -> BraidSystem:
    with open(path) as fh:
        data = json.load(fh)
    try:
        return BraidSystem.from_json(data)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{path}: malformed system file ({exc})") from None


def essential_text(report) -> str:
    roots, rest = split_integer_roots(report.essential.core)
    body = "{" + ", ".join(str(root) for root, mult in roots for _ in range(mult)) + "}"
    if rest.degree > 0:
        body += f" plus roots of ({rest})"
    return body


def _print_braid_report(rep, word: BraidWord, as_json: bool) -> None:
    if as_json:
        print(json.dumps(rep.to_json()))
        return
    print(f"degree: {rep.degree}")
    print(f"word: {word.to_text() or '<empty>'}")
    print(f"permutation order: {rep.r}")
    print(f"charpoly: {factored_str(rep.charpoly)}   [{rep.charpoly}]")
    print(f"determinant: {rep.determinant}")
    print(f"rank: {rep.rank}")
    print(f"entry multiset: {list(rep.S)}")
    print(f"row multisets: {[list(r) for r in rep.S_rows]}")
    print(f"column multisets: {[list(c) for c in rep.S_cols]}")
    print(f"integer eigenvalues: {[f'{r}^{m}' for r, m in rep.integer_eigenvalues]}")


def _print_system_report(rep, as_json: bool) -> None:
    if as_json:
        print(json.dumps(rep.to_json()))
        return
    print(f"degree: {rep.degree}, length: {rep.length}")
    print(f"P = {factored_str(rep.charpoly_product)}")
    print(f"E = {essential_text(rep)}")
    print(f"charpoly multiset: {[str(p) for p in rep.charpoly_multiset]}")
    print(f"trace is identity: {rep.trace_is_identity}")
    print(f"permutation monodromy order: {rep.perm_monodromy_order}")
    print(f"exponent sums: {list(rep.exponent_sums)}")
    print(f"(degree + length) mod 3: {rep.degree_plus_length_mod3}")


def cmd_invariants(args) -> int:
    if args.system:
        rep = system_invariants(load_system(args.system))
        _print_system_report(rep, args.json)
        return 0
    if args.word is None or args.degree is None:
        raise ValueError("need either --system FILE or both --degree and --word")
    word = parse_word(args.word, args.degree)
    _print_braid_report(braid_invariants(word), word, args.json)
    return 0


def cmd_compare(args) -> int:
    result = compare_systems(load_system(args.system1), load_system(args.system2))
    if args.json:
        print(json.dumps(result.to_json()))
    else:
        # the JSON form, so that multisets print as lists
        for check in result.to_json()["invariants"]:
            status = {True: "equal", False: "DIFFERENT", None: "skipped (shape mismatch)"}[
                check["equal"]
            ]
            print(f"{check['name']}: {status}")
            if check["equal"] is False:
                print(f"  left:  {check['left']}")
                print(f"  right: {check['right']}")
        print(f"verdict: {result.verdict}")
    return 0 if result.verdict == "indistinguishable_by_invariants" else 2


def parse_script(text: str) -> list[tuple]:
    """Parse move-script steps: H i +|-, GC <word>, STAB, DESTAB, FUSE l q."""
    steps = []
    raw = [chunk.strip() for line in text.splitlines() for chunk in line.split("/")]
    for chunk in raw:
        if not chunk or chunk.startswith("#"):
            continue
        parts = chunk.split()
        op = parts[0].upper()
        try:
            if op == "H" and len(parts) == 3 and parts[2] in ("+", "-"):
                steps.append(("H", int(parts[1]), parts[2] == "-"))
            elif op == "GC":
                steps.append(("GC", " ".join(parts[1:])))
            elif op == "STAB" and len(parts) == 1:
                steps.append(("STAB",))
            elif op == "DESTAB" and len(parts) == 1:
                steps.append(("DESTAB",))
            elif op == "FUSE" and len(parts) == 3:
                steps.append(("FUSE", int(parts[1]), int(parts[2])))
            else:
                raise ValueError("unrecognized step")
        except ValueError:
            raise ValueError(f"bad script step: {chunk!r}") from None
    return steps


def format_step(step: tuple) -> str:
    if step[0] == "H":
        return f"H {step[1]} {'-' if step[2] else '+'}"
    return " ".join(str(p) for p in step)


def apply_step(s: BraidSystem, step: tuple) -> tuple[BraidSystem, bool | None]:
    if step[0] == "H":
        return hurwitz_move(s, HurwitzMove(step[1], step[2]), simplify=True), None
    if step[0] == "GC":
        return global_conjugate(s, parse_word(step[1], s.degree), simplify=True), None
    if step[0] == "STAB":
        return stabilize(s), None
    if step[0] == "DESTAB":
        return destabilize(s), None
    if step[0] == "FUSE":
        return euler_fuse(s, step[1], step[2])
    raise ValueError(f"unknown step {step}")


def cmd_apply(args) -> int:
    system = load_system(args.system)
    if args.script:
        with open(args.script) as fh:
            text = fh.read()
    elif args.steps is not None:
        text = args.steps
    else:
        raise ValueError("need --script FILE or --steps TEXT")
    steps = parse_script(text)
    audit = []
    for num, step in enumerate(steps, start=1):
        try:
            system, tau_check = apply_step(system, step)
        except ValueError as exc:
            raise ValueError(f"step {num} ({format_step(step)}): {exc}") from None
        rep = system_invariants(system)
        entry = {
            "step": num,
            "move": format_step(step),
            "system": system.to_json(),
            "invariants": rep.to_json(),
        }
        if tau_check is not None:
            entry["tau_check"] = tau_check
        audit.append(entry)
        if not args.json:
            tau_note = "" if tau_check is None else f"  [tau check: {tau_check}]"
            print(f"step {num}: {entry['move']}{tau_note}")
            print(f"  system: {[c.to_text() or '<empty>' for c in system.components]}")
            print(f"  P = {factored_str(rep.charpoly_product)}; E = {essential_text(rep)}")
    if args.json:
        print(json.dumps({"steps": audit, "final": system.to_json()}))
    else:
        print(f"final: {json.dumps(system.to_json())}")
    return 0


def cmd_orbit(args) -> int:
    system = load_system(args.system)
    target = load_system(args.target) if args.target else None
    limits = OrbitLimits(
        max_states=args.max_states,
        max_depth=args.max_depth,
        max_component_canonical_length=args.max_canonical_length,
    )
    result = hurwitz_orbit(system, limits, target=target)
    if args.json:
        print(json.dumps(result.to_json()))
    else:
        print(f"status: {result.status}")
        print(f"states visited: {result.states_visited}")
        if result.witness is not None:
            print(f"witness: {' / '.join(str(mv) for mv in result.witness) or '<empty>'}")
        if result.frontier_exhausted_at_depth is not None:
            print(f"frontier exhausted at depth: {result.frontier_exhausted_at_depth}")
    return 0


def cmd_papersuite(args) -> int:
    rows, ok = refsuite.run(flipped=args.flipped_convention)
    if args.json:
        print(json.dumps({"rows": [r.to_json() for r in rows], "all_pass": ok}))
    else:
        width = max(len(r.row_id) for r in rows)
        for r in rows:
            mark = "pass" if r.ok else "FAIL"
            print(f"{r.row_id:<{width}}  {mark}  {r.description}")
            if not r.ok:
                print(f"{'':<{width}}  expected: {r.expected}")
                print(f"{'':<{width}}  computed: {r.computed}")
        print(f"{sum(r.ok for r in rows)}/{len(rows)} rows pass")
    return 0 if ok else 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="braidsys",
        description="Exact crossing-matrix invariants of braids and braid systems",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="emit machine-readable JSON")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("invariants", parents=[common],
                       help="invariant report for a braid word or a system file")
    p.add_argument("--degree", type=int)
    p.add_argument("--word")
    p.add_argument("--system", help="system JSON file")
    p.set_defaults(func=cmd_invariants)

    p = sub.add_parser("compare", parents=[common],
                       help="compare two systems by every computed invariant")
    p.add_argument("system1")
    p.add_argument("system2")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("apply", parents=[common], help="run a move script against a system")
    p.add_argument("--system", required=True)
    p.add_argument("--script", help="script file; steps separated by newlines or '/'")
    p.add_argument("--steps", help="inline script text")
    p.set_defaults(func=cmd_apply)

    p = sub.add_parser("orbit", parents=[common], help="bounded orbit search")
    p.add_argument("--system", required=True)
    p.add_argument("--target")
    p.add_argument("--max-states", type=int, default=100_000)
    p.add_argument("--max-depth", type=int, default=32)
    p.add_argument("--max-canonical-length", type=int, default=64)
    p.set_defaults(func=cmd_orbit)

    p = sub.add_parser("papersuite", parents=[common],
                       help="run the bundled reference-value regression suite")
    p.add_argument("--flipped-convention", action="store_true",
                   help="recompute crossing matrices with the opposite over-strand rule")
    p.set_defaults(func=cmd_papersuite)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        return args.func(args)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {exc!r}", file=sys.stderr)
        return 3


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
