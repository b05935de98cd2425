"""
Bounded breadth-first exploration of Hurwitz orbits.

A state is the tuple of component normal forms, so words that only
differ by braid relations collapse to one state.  Inside one search each
distinct normal form is interned to an int and a state is the tuple of
those ids; the search runs on the codebook forms (infimum, codes) of
`braids._book` from start to end, and builds NormalForm tuples only for
the states it returns.  The search is the brute-force oracle behind the
invariance suites and a best-effort equivalence certifier: a `complete`
status with no target found means the explored orbit is closed under
all elementary moves, which is a genuine non-equivalence certificate;
`truncated` promises nothing.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass, field

from . import braids
from .braids import BraidWord
from .codec import JsonCodec
from .invariants import BraidSystem, system_invariants
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
    they are first met.  For each number it keeps the codebook form
    (infimum, codes), whether it is within the canonical-length limit,
    and its inverse's form once a move has needed it."""

    def __init__(self, degree: int, max_length: int):
        self.book = braids._book(degree)
        self.ids: dict = {}
        self.forms: list = []
        self.short: list[bool] = []
        self.inverses: list = []
        self.max_length = max_length

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

    def key(self, normal_forms) -> tuple[int, ...]:
        return tuple(self(self.book.form(nf)) for nf in normal_forms)

    def state(self, key) -> tuple:
        return tuple(self.book.normal_form(self.forms[k]) for k in key)


def _bfs(s: BraidSystem, limits: OrbitLimits, parents: dict, intern: _Interner):
    """The breadth-first search behind hurwitz_orbit and orbit_states.

    Inside the search a state is the tuple of the ids that `intern` gives
    its component normal forms; callers turn ids back into NormalForm
    tuples with `intern.state`.  Yields (state, depth) for every state as
    it is discovered, the start first, and records its (parent, move) in
    `parents` (None for the start).  No state is recorded beyond
    max_states; once `parents` is full, moves are computed only until one
    leads to an unrecorded state, so an orbit that closes at exactly
    max_states is still complete.  Returns True if a limit cut the search
    short.

    A move changes only the pair it acts on, and normal forms are
    canonical, so each (pair, direction) is computed at most once per
    search, by `hurwitz_move_codes` on the pair's codebook forms with the
    inverses `intern` memoises; (a, b) -> (c, d) also records the
    opposite move (c, d) -> (a, b), which undoes it.  The memos die with
    the search.  Whether a form is within the canonical-length limit is
    read off `intern.short`.
    """
    start = intern.key(s.normal_forms())
    moves = [(i, inv, HurwitzMove(i, inv)) for i in range(1, len(s)) for inv in (False, True)]
    book, forms, short = intern.book, intern.forms, intern.short
    moved: dict = {}  # (a, b, inverse) -> the pair of ids the move puts in their place
    parents[start] = None
    yield start, 0
    queue = deque([(start, 0)])
    truncated = False
    while queue:
        state, depth = queue.popleft()
        if depth >= limits.max_depth:
            truncated = True
            continue
        for i, inv, move in moves:
            a, b = state[i - 1], state[i]
            pair = moved.get((a, b, inv))
            if pair is None:
                c, d = hurwitz_move_codes(book, forms[a], forms[b], inv, intern.inverse(a if inv else b))
                pair = moved[a, b, inv] = (intern(c), intern(d))
                moved.setdefault(pair + (not inv,), (a, b))
            nxt = state[: i - 1] + pair + state[i + 1 :]
            if nxt in parents:
                continue
            if len(parents) >= limits.max_states:
                return True
            if not all(map(short.__getitem__, nxt)):
                truncated = True
                continue
            parents[nxt] = (state, move)
            yield nxt, depth + 1
            queue.append((nxt, depth + 1))
    return truncated


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
    intern = _Interner(s.degree, limits.max_component_canonical_length)
    target_key = intern.key(target.normal_forms()) if target is not None else None
    parents: dict = {}
    search = _bfs(s, limits, parents, intern)
    try:
        while True:
            state, depth = next(search)
            if state == target_key:
                return OrbitResult("target_found", len(parents), witness=_witness(parents, state))
    except StopIteration as stop:
        if stop.value:
            return OrbitResult("truncated", len(parents))
        return OrbitResult("complete", len(parents), frontier_exhausted_at_depth=depth)


def orbit_states(s: BraidSystem, limits: OrbitLimits = OrbitLimits()):
    """Yield the visited normal-form state tuples of the bounded BFS."""
    intern = _Interner(s.degree, limits.max_component_canonical_length)
    for state, _ in _bfs(s, limits, {}, intern):
        yield intern.state(state)


def replay_witness(s: BraidSystem, witness) -> BraidSystem:
    for move in witness:
        s = hurwitz_move(s, move, simplify=True)
    return s


def find_conjugator(b: BraidWord, target: BraidWord, max_length: int = 4) -> BraidWord | None:
    """Breadth-first search for a short word a with a^{-1} b a = target."""
    if b.degree != target.degree:
        raise ValueError(f"degree mismatch: {b.degree} vs {target.degree}")
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


@dataclass
class InvarianceReport:
    trials: int
    moves_applied: int
    seed: int
    failures: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures


def verify_invariance(s: BraidSystem, trials: int, seed: int) -> InvarianceReport:
    """Hammer a system with random move sequences and check every invariant.

    Hurwitz moves must preserve the full Hurwitz field set and the trace
    product; global conjugation everything but the trace; a stabilize +
    destabilize pair must return the system componentwise and preserve
    the essential core and mod-3 class across the stabilized step.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = random.Random(seed)
    base = system_invariants(s)
    base_trace = braids.normal_form(s.trace_product())
    report = InvarianceReport(trials=trials, moves_applied=0, seed=seed)

    for trial in range(trials):
        current = s
        expected_trace = base_trace  # conjugation moves the trace with it
        history: list[str] = []
        for _ in range(rng.randint(1, 8)):
            kind = rng.choice(["hurwitz", "hurwitz", "hurwitz", "conj", "stab"])
            if kind == "hurwitz" and len(current) >= 2:
                move = HurwitzMove(rng.randint(1, len(current) - 1), rng.random() < 0.5)
                history.append(str(move))
                current = hurwitz_move(current, move, simplify=True)
                rep = system_invariants(current)
                if rep.hurwitz_fields() != base.hurwitz_fields():
                    report.failures.append(f"trial {trial}: hurwitz fields broke after {history}")
                if braids.normal_form(current.trace_product()) != expected_trace:
                    report.failures.append(f"trial {trial}: trace broke after {history}")
            elif kind == "conj":
                gens = [k for i in range(1, current.degree) for k in (i, -i)]
                if not gens:
                    continue
                a = BraidWord(current.degree, tuple(rng.choice(gens) for _ in range(rng.randint(1, 4))))
                history.append(f"GC {a.to_text()}")
                current = global_conjugate(current, a, simplify=True)
                nf_a = braids.normal_form(a)
                expected_trace = nf_a.inverse() * expected_trace * nf_a
                rep = system_invariants(current)
                if rep.hurwitz_fields() != base.hurwitz_fields():
                    report.failures.append(f"trial {trial}: conjugation broke a field after {history}")
                if braids.normal_form(current.trace_product()) != expected_trace:
                    report.failures.append(f"trial {trial}: trace did not follow conjugation after {history}")
            else:
                history.append("STAB/DESTAB")
                up = stabilize(current)
                rep = system_invariants(up)
                # stabilizing shifts the 0/+-1 multiplicities; the core is the invariant
                if rep.essential.core != base.essential.core:
                    report.failures.append(f"trial {trial}: essential core broke under stabilize after {history}")
                if rep.degree_plus_length_mod3 != base.degree_plus_length_mod3:
                    report.failures.append(f"trial {trial}: mod-3 class broke under stabilize after {history}")
                down = destabilize(up)
                if not all(
                    braids.braids_equal(a0, b0)
                    for a0, b0 in zip(current.components, down.components)
                ):
                    report.failures.append(f"trial {trial}: stabilize round trip broke after {history}")
            report.moves_applied += 1
    return report
