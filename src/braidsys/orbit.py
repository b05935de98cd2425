"""
Bounded breadth-first exploration of Hurwitz orbits.

A state is the tuple of component normal forms, so words that only
differ by braid relations collapse to one state.  Inside one search each
distinct normal form is interned to an int and a state packs those ids
into one int; the search runs one depth at a time on the codebook forms
(infimum, codes) of `braids._book`, and builds NormalForm tuples only
for the states it returns.  The search is the brute-force oracle behind
the invariance suites and a best-effort equivalence certifier: a
`complete` status with no target found means the explored orbit is
closed under all elementary moves, which is a genuine non-equivalence
certificate; `truncated` promises nothing.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass

from . import braids
from .braids import BraidWord
from .codec import JsonCodec
from .invariants import BraidSystem, _compare_reports, system_invariants
from .moves import (
    HurwitzMove,
    destabilize,
    global_conjugate,
    hurwitz_move,
    hurwitz_move_codes,
    stabilize,
)


@dataclass(frozen=True)
class OrbitLimits:
    max_states: int = 100_000
    max_depth: int = 32
    max_component_canonical_length: int = 64

    def __post_init__(self):
        if min(self.max_states, self.max_depth, self.max_component_canonical_length) < 1:
            raise ValueError("all orbit limits must be positive")


@dataclass(frozen=True)
class OrbitResult(JsonCodec):
    status: str  # complete | truncated | target_found
    states_visited: int
    witness: tuple[HurwitzMove, ...] | None = None
    frontier_exhausted_at_depth: int | None = None


class _Interner:
    """The distinct component forms of one search, numbered in the order
    they are first met: for each its codebook form (infimum, codes),
    whether it is within the canonical-length limit, and its inverse's
    form once a move has needed it.  A state of n components packs
    component j's number into bits [j*width, (j+1)*width).  The start and
    the target take at most 2n numbers, and each of the at most 2(n-1)
    moves computed for each of at most max_states expanded states at most
    two more, so every number is below 2n + 4(n-1)*max_states < 2**width."""

    def __init__(self, s: BraidSystem, limits: OrbitLimits):
        self.book = braids._book(s.degree)
        self.ids: dict = {}
        self.forms: list = []
        self.short: list[bool] = []
        self.inverses: list = []
        self.max_length = limits.max_component_canonical_length
        n = len(s)
        self.width = (2 * n + 4 * (n - 1) * limits.max_states).bit_length()
        self.shifts = range(0, n * self.width, self.width)

    def __call__(self, form) -> int:
        k = self.ids.get(form)
        if k is None:
            k = self.ids[form] = len(self.forms)
            self.forms.append(form)
            self.short.append(len(form[1]) <= self.max_length)
            self.inverses.append(None)
        return k

    def inverse(self, k: int):
        inv = self.inverses[k]
        if inv is None:
            inv = self.inverses[k] = self.book.inverse(self.forms[k])
        return inv

    def ids_of(self, state: int) -> list[int]:
        mask = (1 << self.width) - 1
        return [(state >> shift) & mask for shift in self.shifts]

    def pack(self, normal_forms) -> int:
        return sum(self(self.book.form(nf)) << shift for shift, nf in zip(self.shifts, normal_forms))

    def unpack(self, state: int) -> tuple:
        return tuple(self.book.normal_form(self.forms[k]) for k in self.ids_of(state))


def _bfs(s: BraidSystem, limits: OrbitLimits, intern: _Interner, target: int | None = None):
    """The breadth-first search behind hurwitz_orbit and orbit_states.

    States and `target` are ints packed by `intern`.  The search expands
    one depth's frontier list at a time and records each state it
    discovers, the start first, with its (parent, move) in `parents`
    (None for the start), so the dict holds the states in discovery
    order.  No state is recorded beyond max_states; once `parents` is
    full, moves are computed only until one leads to an unrecorded state,
    so an orbit that closes at exactly max_states is still complete.
    Returns (parents, status, depth), where depth is that of the last state
    found if the search is complete and None otherwise.

    A move changes only the pair it acts on, and normal forms are
    canonical, so each (pair, direction) is computed at most once per
    search, by `hurwitz_move_codes` on the pair's codebook forms with the
    inverses `intern` memoises; (a, b) -> (c, d) also records the
    opposite move (c, d) -> (a, b), which undoes it.  The memo, keyed by
    2*pair + inverse, holds the change to the packed pair and whether
    both new forms are within the canonical-length limit.  The start is
    never cut by that limit, so if it holds a longer form every new state
    is checked whole.  The memo dies with the search.
    """
    start = intern.pack(s.normal_forms())
    parents: dict = {start: None}
    if start == target:
        return parents, "target_found", None
    width, short = intern.width, intern.short
    mask2 = (1 << 2 * width) - 1
    moves = [(width * (i - 1), inv, HurwitzMove(i, inv)) for i in range(1, len(s)) for inv in (False, True)]
    start_short = all(map(short.__getitem__, intern.ids_of(start)))
    book, forms = intern.book, intern.forms
    moved: dict = {}  # 2*pair + inverse -> (change to the pair, both new forms short)
    frontier, depth, truncated = [start], 0, False
    while frontier:
        if depth >= limits.max_depth:
            return parents, "truncated", None
        found = []
        for state in frontier:
            for shift, inv, move in moves:
                pair = (state >> shift) & mask2
                hit = moved.get(2 * pair + inv)
                if hit is None:
                    b, a = divmod(pair, 1 << width)
                    c, d = hurwitz_move_codes(book, forms[a], forms[b], inv, intern.inverse(a if inv else b))
                    c, d = intern(c), intern(d)
                    new = c | (d << width)
                    hit = moved[2 * pair + inv] = (new - pair, short[c] and short[d])
                    moved.setdefault(2 * new + (not inv), (pair - new, short[a] and short[b]))
                delta, ok = hit
                nxt = state + (delta << shift)
                if nxt in parents:
                    continue
                if len(parents) >= limits.max_states:
                    return parents, "truncated", None
                if not (ok and (start_short or all(map(short.__getitem__, intern.ids_of(nxt))))):
                    truncated = True
                    continue
                parents[nxt] = (state, move)
                if nxt == target:
                    return parents, "target_found", None
                found.append(nxt)
        frontier = found
        depth += 1
    return (parents, "truncated", None) if truncated else (parents, "complete", depth - 1)


def _witness(parents: dict, key) -> tuple[HurwitzMove, ...]:
    path = []
    while parents[key] is not None:
        key, move = parents[key]
        path.append(move)
    return tuple(reversed(path))


def hurwitz_orbit(
    s: BraidSystem,
    limits: OrbitLimits = OrbitLimits(),
    target: BraidSystem | None = None,
) -> OrbitResult:
    """BFS over the elementary Hurwitz moves, deduplicated by normal form."""
    if target is not None and (target.degree != s.degree or len(target) != len(s)):
        raise ValueError("target must have the same degree and length as the source")
    intern = _Interner(s, limits)
    target_key = intern.pack(target.normal_forms()) if target is not None else None
    parents, status, depth = _bfs(s, limits, intern, target_key)
    return OrbitResult(status, len(parents),
                       witness=_witness(parents, target_key) if status == "target_found" else None,
                       frontier_exhausted_at_depth=depth)


def orbit_states(s: BraidSystem, limits: OrbitLimits = OrbitLimits()):
    """Yield the visited normal-form state tuples of the bounded BFS."""
    intern = _Interner(s, limits)
    for state in _bfs(s, limits, intern)[0]:
        yield intern.unpack(state)


def replay_witness(s: BraidSystem, witness) -> BraidSystem:
    for move in witness:
        s = hurwitz_move(s, move, simplify=True)
    return s


def find_conjugator(b: BraidWord, target: BraidWord, max_length: int = 4) -> BraidWord | None:
    """Breadth-first search for a short word a with a^{-1} b a = target."""
    braids.check_same_degree(b.degree, target.degree)
    target_nf = braids.normal_form(target)
    gens = [k for i in range(1, b.degree) for k in (i, -i)]
    b_nf = braids.normal_form(b)
    if b_nf == target_nf:
        return BraidWord(b.degree)
    seen = {b_nf}
    queue = deque([BraidWord(b.degree)])
    while queue:
        a = queue.popleft()
        if len(a) >= max_length:
            continue
        for k in gens:
            a2 = BraidWord(b.degree, a.letters + (k,))
            nf = braids.normal_form(braids.conjugate(b, a2))
            if nf == target_nf:
                return a2
            if nf not in seen:
                seen.add(nf)
                queue.append(a2)
    return None


@dataclass(frozen=True)
class InvarianceReport:
    trials: int
    moves_applied: int
    seed: int
    failures: tuple[str, ...] = ()

    @property
    def passed(self) -> bool:
        return not self.failures


def verify_invariance(s: BraidSystem, trials: int, seed: int) -> InvarianceReport:
    """Hammer a system with random move sequences and check every invariant.

    Each move is checked by `compare_systems` of the systems before and
    after it; the report of the system before is kept from the move that
    made it, so no system report is built twice.  A Hurwitz move must
    keep the shape and every check; global conjugation the shape and
    every check but the trace, which must follow a^-1 T a instead; a
    stabilization must change the shape, so only the Euler checks are
    compared, and it must keep them and be undone componentwise by
    destabilize.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = random.Random(seed)
    base_trace, base_rep = braids.normal_form(s.trace_product()), system_invariants(s)
    failures: list[str] = []
    moves_applied = 0

    for trial in range(trials):
        current, current_rep = s, base_rep
        expected_trace = base_trace  # conjugation moves the trace with it
        history: list[str] = []
        for _ in range(rng.randint(1, 8)):
            kind = rng.choice(["hurwitz", "hurwitz", "hurwitz", "conj", "stab"])
            before_rep = current_rep
            if kind == "hurwitz" and len(current) >= 2:
                move = HurwitzMove(rng.randint(1, len(current) - 1), rng.random() < 0.5)
                history.append(str(move))
                after = current = hurwitz_move(current, move, simplify=True)
                keeps_shape, dropped = True, ()
            elif kind == "conj":
                gens = [k for i in range(1, current.degree) for k in (i, -i)]
                if not gens:
                    continue
                a = BraidWord(current.degree, tuple(rng.choice(gens) for _ in range(rng.randint(1, 4))))
                history.append(f"GC {a.to_text()}")
                after = current = global_conjugate(current, a, simplify=True)
                keeps_shape, dropped = True, ("trace_product",)
                nf_a = braids.normal_form(a)
                expected_trace = nf_a.inverse() * expected_trace * nf_a
                if braids.normal_form(current.trace_product()) != expected_trace:
                    failures.append(f"trial {trial}: trace did not follow conjugation after {history}")
            else:
                history.append("STAB/DESTAB")
                after = stabilize(current)  # checked, then undone
                keeps_shape, dropped = False, ()
                if destabilize(after).normal_forms() != current.normal_forms():
                    failures.append(f"trial {trial}: stabilize round trip broke after {history}")
            after_rep = system_invariants(after)
            if after is current:
                current_rep = after_rep
            comparison = _compare_reports(before_rep, after_rep)
            broken = [c.name for c in comparison.invariants if c.equal is False and c.name not in dropped]
            if comparison.same_shape != keeps_shape:
                broken.insert(0, "same_shape")
            if broken:
                failures.append(f"trial {trial}: {', '.join(broken)} broke after {history}")
            moves_applied += 1
    return InvarianceReport(trials, moves_applied, seed, tuple(failures))
