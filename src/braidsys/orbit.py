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
from dataclasses import dataclass, fields

from . import braids
from .braids import BraidWord, NormalForm
from .codec import JsonCodec
from .invariants import BraidSystem, _compare_reports, system_invariants
from .moves import (
    HurwitzMove,
    destabilize,
    global_conjugate,
    hurwitz_move,
    hurwitz_move_codes,
    replay_witness,  # kept as orbit.replay_witness, which checks a witness
    stabilize,
)


@dataclass(frozen=True)
class OrbitLimits:
    max_states: int = 100_000
    max_depth: int = 32
    max_component_canonical_length: int = 64

    def __post_init__(self):
        for f in fields(self):
            v = getattr(self, f.name)
            if type(v) is not int:  # a bool is none, as in IntPolynomial
                raise TypeError(f"orbit limit {f.name} is {v!r}, a {type(v).__name__}, not an int")
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
    moves computed for each of at most max_states expanded states one
    more, the one form the move made, so every number is below
    2n + 2(n-1)*max_states < 2**width."""

    def __init__(self, s: BraidSystem, limits: OrbitLimits):
        self.book = braids._book(s.degree)
        self.ids: dict = {}
        self.forms: list = []
        self.short: list[bool] = []
        self.inverses: list = []
        self.max_length = limits.max_component_canonical_length
        n = len(s)
        self.width = (2 * n + 2 * (n - 1) * limits.max_states).bit_length()
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

    def pack(self, s: BraidSystem) -> int:
        """The state of a system, each component interned from the codebook
        form of its word, with no `NormalForm` built."""
        return sum(self(braids._word_form(c)) << shift for shift, c in zip(self.shifts, s.components))

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
    search, by `hurwitz_move_codes` with `_Codebook.mul` on the pair's
    codebook forms, its product and the inverses `intern` memoises.  One
    of the two new forms is a form of the pair, so only the other is
    interned.  The memo is keyed by the packed pair, one dict lookup per
    pair of an expanded state, and holds [forward, undo, xy]: for each
    direction the change to the packed pair and whether both new forms
    are within the canonical-length limit, None until computed, and the
    codebook form of the pair's product.  (a, b) -> (c, d) also fills the
    opposite slot of (c, d)'s entry, the move back to (a, b), if it is
    empty; for equal components (c, d) is (a, b), so that is the other
    slot of the same entry, and for commuting ones it is (b, a)'s entry.
    A move keeps its pair's product, so a new entry made that way gets
    the product of (a, b) too: a product is computed only for a pair
    first met in an expanded state, once, and each move is one product of
    two forms, y^{-1} (x y) or (x y) x^{-1}.  The start is never cut by
    the canonical-length limit, so if it holds a longer form every new
    state is checked whole.  The memo dies with the search.
    """
    start = intern.pack(s)
    parents: dict = {start: None}
    if start == target:
        return parents, "target_found", None
    width, short, forms, inverse = intern.width, intern.short, intern.forms, intern.inverse
    low, mask2, max_states = (1 << width) - 1, (1 << 2 * width) - 1, limits.max_states
    pairs = [(width * (i - 1), ((False, HurwitzMove(i, False)), (True, HurwitzMove(i, True))))
             for i in range(1, len(s))]
    start_short = all(map(short.__getitem__, intern.ids_of(start)))
    mul = intern.book.mul
    # packed pair -> [forward, undo, xy]: each direction (change to the pair,
    # both new forms short), and the form of the pair's product
    moved: dict = {}
    frontier, depth, truncated = [start], 0, False
    while frontier:
        if depth >= limits.max_depth:
            return parents, "truncated", None
        found = []
        for state in frontier:
            for shift, directions in pairs:
                pair = (state >> shift) & mask2
                entry = moved.get(pair)
                if entry is None:
                    entry = moved[pair] = [None, None, None]
                for inv, move in directions:
                    hit = entry[inv]
                    if hit is None:
                        a, b = pair & low, pair >> width
                        x, y, xy = forms[a], forms[b], entry[2]
                        if xy is None:
                            xy = entry[2] = mul(x, y)
                        c, d = hurwitz_move_codes(mul, x, y, (xy,), inv, inverse(a if inv else b))
                        c, d = (intern(c), a) if inv else (b, intern(d))
                        new = c | (d << width)
                        hit = entry[inv] = (new - pair, short[c] and short[d])
                        back = moved.get(new)  # entry itself when new == pair
                        if back is None:
                            back = moved[new] = [None, None, xy]
                        if back[not inv] is None:
                            back[not inv] = (pair - new, short[a] and short[b])
                    delta, ok = hit
                    nxt = state + (delta << shift)
                    if nxt in parents:
                        continue
                    if len(parents) >= max_states:
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


def _witness(parents: dict, key) -> tuple:
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
    target_key = intern.pack(target) if target is not None else None
    parents, status, depth = _bfs(s, limits, intern, target_key)
    return OrbitResult(status, len(parents),
                       witness=_witness(parents, target_key) if status == "target_found" else None,
                       frontier_exhausted_at_depth=depth)


def orbit_states(s: BraidSystem, limits: OrbitLimits = OrbitLimits()):
    """Yield the visited normal-form state tuples of the bounded BFS."""
    intern = _Interner(s, limits)
    for state in _bfs(s, limits, intern)[0]:
        yield intern.unpack(state)


def _conjugacy_type(nf: NormalForm) -> tuple[int, list[int]]:
    """(exponent sum, cycle type of the permutation): equal for conjugates."""
    return nf.exponent_sum(), sorted(map(len, nf.permutation().cycles()))


def find_conjugator(b: BraidWord, target: BraidWord, max_length: int = 4) -> BraidWord | None:
    """Breadth-first search for a short word a with a^{-1} b a = target.

    Conjugate braids have the same exponent sum and permutations of the
    same cycle type, so a pair that differs in either returns None before
    the search; a conjugate pair runs the same search as without the check.

    The search has the shape of `_bfs`: a state is the codebook form of
    a^{-1} b a, one frontier list per depth, up to max_length depths, with
    the letters tried in the order 1, -1, 2, -2, ...  Each node costs one
    product of three forms, k^{-1} c k for letter k, two of them single
    letters, and there are at most (2(m - 1))^L nodes at depth L.  `parents` records each new form
    with (its parent form, the letter), so `_witness` spells the first word
    found, the same witness as a word-by-word BFS that dedups by normal form.
    A max_length that is not an int raises TypeError, a negative one
    ValueError: neither may read as a search that found nothing.
    """
    braids._check_int("max_length", max_length)  # True would run one depth
    if max_length < 0:
        raise ValueError(f"max_length must be >= 0, got {max_length}")
    braids.check_same_degree(b.degree, target.degree)
    m = b.degree
    b_nf, target_nf = braids.normal_form(b), braids.normal_form(target)
    if b_nf == target_nf:
        return BraidWord(m)
    if _conjugacy_type(b_nf) != _conjugacy_type(target_nf):
        return None
    book = braids._book(m)
    forms = {k: book.form(braids.normal_form(braids.generator(m, i, k))) for i in range(1, m) for k in (i, -i)}
    letters = [(k, forms[-k], form) for k, form in forms.items()]
    start, goal = book.form(b_nf), book.form(target_nf)
    parents: dict = {start: None}
    frontier = [start]
    for _ in range(max_length):
        found = []
        for c in frontier:
            for k, k_inv, k_form in letters:
                nxt = book.mul(k_inv, c, k_form)
                if nxt in parents:
                    continue
                parents[nxt] = (c, k)
                if nxt == goal:
                    return BraidWord(m, _witness(parents, nxt))
                found.append(nxt)
        frontier = found
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
    keep the shape and every check; global conjugation by a the shape and
    every check but the trace, which must be a^-1 T a for the trace T of
    the system before it, both read off the reports; a stabilization must
    change the shape, so only the Euler checks are compared, and it must
    keep them and be undone componentwise by destabilize.  A one-component
    system has no Hurwitz move, so its Hurwitz draws become stabilizations.
    """
    braids._check_int("trials", trials)  # True would run one trial
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = random.Random(seed)
    base_rep = system_invariants(s)
    failures: list[str] = []
    moves_applied = 0

    for trial in range(trials):
        current, current_rep = s, base_rep
        history: list[str] = []
        for _ in range(rng.randint(1, 8)):
            kind = rng.choice(["hurwitz", "hurwitz", "hurwitz", "conj", "stab"])
            if kind == "hurwitz" and len(current) >= 2:
                move = HurwitzMove(rng.randint(1, len(current) - 1), rng.random() < 0.5)
                history.append(str(move))
                after, keeps_shape, dropped = hurwitz_move(current, move), True, ()
            elif kind == "conj":
                gens = [k for i in range(1, current.degree) for k in (i, -i)]
                if not gens:
                    continue
                a = BraidWord(current.degree, tuple(rng.choice(gens) for _ in range(rng.randint(1, 4))))
                history.append(f"GC {a.to_text()}")
                after = global_conjugate(current, a)
                keeps_shape, dropped, nf_a = True, ("trace_product",), braids.normal_form(a)
                traced = braids._nf_product(nf_a.inverse(), current_rep._trace_form, nf_a)  # a^-1 T a
            else:
                history.append("STAB/DESTAB")
                after, keeps_shape, dropped = stabilize(current), False, ()  # checked, then undone
                if destabilize(after).normal_forms() != current_rep.normal_forms:
                    failures.append(f"trial {trial}: stabilize round trip broke after {history}")
            after_rep = system_invariants(after)
            if kind == "conj" and after_rep._trace_form != traced:
                failures.append(f"trial {trial}: trace did not follow conjugation after {history}")
            comparison = _compare_reports(current_rep, after_rep)
            broken = [c.name for c in comparison.invariants if c.equal is False and c.name not in dropped]
            if comparison.same_shape != keeps_shape:
                broken.insert(0, "same_shape")
            if broken:
                failures.append(f"trial {trial}: {', '.join(broken)} broke after {history}")
            if keeps_shape:
                current, current_rep = after, after_rep
            moves_applied += 1
    return InvarianceReport(trials, moves_applied, seed, tuple(failures))
