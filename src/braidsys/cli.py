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
import functools
import json
import sys

from . import refsuite
from .braids import MAX_DEGREE, BraidWord, _integer, parse_word
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


def read_user_file(path: str, kind: str, parse=str):
    """parse(the text of the file), raising ValueError that names the file
    for bad content; a file that cannot be opened raises OSError, which
    names it too."""
    with open(path) as fh:
        try:
            return parse(fh.read())
        except RecursionError:
            raise ValueError(f"{path}: malformed {kind} file (nested too deeply)") from None
        except (TypeError, ValueError) as exc:  # bad JSON and undecodable bytes included
            raise ValueError(f"{path}: malformed {kind} file ({exc})") from None


def load_system(path: str) -> BraidSystem:
    return read_user_file(path, "system", lambda text: BraidSystem.from_json(json.loads(text)))


def essential_text(report) -> str:
    # the essential core is the product with every factor x, x - 1 and x + 1
    # divided out, so its split is the product's kept one without 0 and +-1
    roots, rest = split_integer_roots(report.charpoly_product)
    body = "{" + ", ".join(str(root) for root, mult in roots if abs(root) > 1 for _ in range(mult)) + "}"
    if rest.degree > 0:
        body += f" plus roots of ({rest})"
    return body


def _print_braid_report(rep, word: BraidWord, as_json: bool) -> None:
    if as_json:
        print(json.dumps(rep.to_json()))
        return
    print(f"degree: {rep.degree}")
    print(f"word: {word}")
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
        if args.degree is not None or args.word is not None:
            raise ValueError("--system FILE cannot be combined with --degree or --word")
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


def _parse_step(op: str, args: list[str]):
    """(label, move) of one script step; the move maps a system to
    (system, tau check or None)."""
    if op == "H" and len(args) == 2 and args[1] in ("+", "-"):
        mv = HurwitzMove(_integer(args[0]), args[1] == "-")
        return str(mv), lambda s: (hurwitz_move(s, mv), None)
    if op == "GC":
        word = " ".join(args)
        return f"GC {word}", lambda s: (global_conjugate(s, parse_word(word, s.degree)), None)
    if op == "STAB" and not args:
        return op, lambda s: (stabilize(s), None)
    if op == "DESTAB" and not args:
        return op, lambda s: (destabilize(s), None)
    if op == "FUSE" and len(args) == 2:
        l, q = map(_integer, args)
        return f"FUSE {l} {q}", lambda s: euler_fuse(s, l, q)
    raise ValueError("unrecognized step")


def parse_script(text: str) -> list[tuple]:
    """Parse move-script steps (H i +|-, GC <word>, STAB, DESTAB, FUSE l q)
    into (label, move) pairs."""
    steps = []
    raw = [chunk.strip() for line in text.splitlines() for chunk in line.split("/")]
    for chunk in raw:
        if not chunk or chunk.startswith("#"):
            continue
        parts = chunk.split()
        try:
            steps.append(_parse_step(parts[0].upper(), parts[1:]))
        except ValueError:
            raise ValueError(f"bad script step: {chunk!r}") from None
    return steps


def cmd_apply(args) -> int:
    system = load_system(args.system)
    if args.script:
        text = read_user_file(args.script, "script")
    elif args.steps is not None:
        text = args.steps
    else:
        raise ValueError("need --script FILE or --steps TEXT")
    steps = parse_script(text)
    audit = []
    for num, (label, move) in enumerate(steps, start=1):
        try:
            system, tau_check = move(system)
        except ValueError as exc:
            raise ValueError(f"step {num} ({label}): {exc}") from None
        rep = system_invariants(system)
        entry = {
            "step": num,
            "move": label,
            "system": system.to_json(),
            "invariants": rep.to_json(),
        }
        if tau_check is not None:
            entry["tau_check"] = tau_check
        audit.append(entry)
        if not args.json:
            tau_note = "" if tau_check is None else f"  [tau check: {tau_check}]"
            print(f"step {num}: {entry['move']}{tau_note}")
            print(f"  system: {[text or '<empty>' for text in entry['system']['components']]}")
            print(f"  P = {factored_str(rep.charpoly_product)}; E = {essential_text(rep)}")
    final = audit[-1]["system"] if audit else system.to_json()  # the last step encoded it
    if args.json:
        print(json.dumps({"steps": audit, "final": final}))
    else:
        print(f"final: {json.dumps(final)}")
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
        print(json.dumps(refsuite.SuiteResult(tuple(rows), ok).to_json()))
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
    p.add_argument("--degree", type=_integer, help=f"number of strands, 1 to {MAX_DEGREE}")
    p.add_argument("--word", help="signed letters such as 3,-1,4; its normal form takes "
                                  "O(L^2) time in its length L")
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
    p.add_argument("--max-states", type=_integer, default=OrbitLimits.max_states)
    p.add_argument("--max-depth", type=_integer, default=OrbitLimits.max_depth)
    p.add_argument("--max-canonical-length", type=_integer,
                   default=OrbitLimits.max_component_canonical_length)
    p.set_defaults(func=cmd_orbit)

    p = sub.add_parser("papersuite", parents=[common],
                       help="run the bundled reference-value regression suite")
    p.add_argument("--flipped-convention", action="store_true",
                   help="use the opposite over-strand rule, which transposes every crossing "
                        "matrix; pure-power matrices are symmetric, so only the perm-3 row, "
                        "the matrix of the asymmetric word 1,1,-2, expects another value")
    p.set_defaults(func=cmd_papersuite)
    return parser


_parser = functools.cache(build_parser)  # built once: parse_args does not change it


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:  # json.JSONDecodeError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:
        print(f"internal error: {exc!r}", file=sys.stderr)
        return 3


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
