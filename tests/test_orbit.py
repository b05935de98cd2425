import dataclasses
import json
import math
import random
import re
from pathlib import Path

import pytest

import braidsys.orbit
from braidsys import braids
from braidsys import (
    BraidSystem,
    BraidWord,
    HurwitzMove,
    OrbitLimits,
    braids_equal,
    conjugate,
    find_conjugator,
    hurwitz_move,
    hurwitz_move_nf,
    hurwitz_orbit,
    normal_form,
    orbit_states,
    parse_word,
    power,
    replay_witness,
    system_invariants,
    system_invariants_from_normal_forms,
    verify_invariance,
)
from braidsys.moves import hurwitz_move_codes

import oracles
from oracles import orbit_bfs_plain, random_word

INTRO_B = BraidSystem.from_texts(4, ["1,2,-3", "3", "-2", "-1"])
GOLDEN = Path(__file__).parent / "golden"


def test_limits_validation():
    with pytest.raises(ValueError):
        OrbitLimits(max_states=0)


@pytest.mark.parametrize("field, value", [
    ("max_states", 2.5), ("max_states", "10"), ("max_depth", True),
    ("max_component_canonical_length", None),
])
def test_limits_must_be_ints(field, value):
    # a float, a string or a bool used to pass the check and fail later
    with pytest.raises(TypeError, match=rf"^orbit limit {field} is {re.escape(repr(value))}, a "):
        OrbitLimits(**{field: value})


def test_two_equal_generators_close_immediately():
    s = BraidSystem.from_texts(2, ["1", "1"])
    res = hurwitz_orbit(s)
    assert res.status == "complete"
    assert res.states_visited == 1
    assert res.frontier_exhausted_at_depth == 0


def test_generator_and_inverse_orbit():
    s = BraidSystem.from_texts(2, ["1", "-1"])
    res = hurwitz_orbit(s)
    assert res.status == "complete" and res.states_visited == 2
    base = system_invariants(s).charpoly_multiset
    for state in orbit_states(s):
        assert system_invariants_from_normal_forms(2, state).charpoly_multiset == base


def test_target_is_source():
    s = BraidSystem.from_texts(2, ["1", "1"])
    res = hurwitz_orbit(s, target=s)
    assert res.status == "target_found" and res.witness == ()


def test_target_shape_mismatch():
    s = BraidSystem.from_texts(2, ["1", "1"])
    with pytest.raises(ValueError):
        hurwitz_orbit(s, target=BraidSystem.from_texts(2, ["1"]))


def test_witness_replays_to_target():
    rng = random.Random(51)
    for _ in range(10):
        m = rng.randint(2, 3)
        src = BraidSystem(m, tuple(random_word(rng, m, 3, min_len=1) for _ in range(3)))
        tgt = src
        for _ in range(rng.randint(1, 4)):
            tgt = hurwitz_move(tgt, HurwitzMove(rng.randint(1, 2), rng.random() < 0.5))
        res = hurwitz_orbit(src, OrbitLimits(max_states=4000, max_depth=8), target=tgt)
        if res.status == "target_found":
            replayed = replay_witness(src, res.witness)
            assert all(braids_equal(a, b) for a, b in zip(replayed.components, tgt.components))
    # at least the last one must have been found within generous limits
    assert res.status in ("target_found", "truncated")


def test_truncation_by_max_states():
    bvec = BraidSystem.from_texts(4, ["1,2,-3", "3", "-2", "-1"])
    res = hurwitz_orbit(bvec, OrbitLimits(max_states=50, max_depth=32))
    assert res.status == "truncated"
    assert res.states_visited == 50


@pytest.mark.parametrize("max_states", [1, 2, 50])
def test_state_budget_is_never_exceeded(max_states):
    lims = OrbitLimits(max_states=max_states)
    res = hurwitz_orbit(INTRO_B, lims)
    assert res.status == "truncated"
    assert res.states_visited <= max_states
    assert res.states_visited == len(list(orbit_states(INTRO_B, lims)))


@pytest.mark.parametrize("degree, texts, size", [
    (2, ["1", "-1"], 2), (3, ["1", "2"], 3), (3, ["1", "2", "1"], 8),
])
def test_orbit_closing_at_the_budget_is_complete(degree, texts, size):
    s = BraidSystem.from_texts(degree, texts)
    res = hurwitz_orbit(s, OrbitLimits(max_states=size))
    assert res == hurwitz_orbit(s) and res.status == "complete" and res.states_visited == size
    assert hurwitz_orbit(s, OrbitLimits(max_states=size - 1)).status == "truncated"


def test_orbit_result_json_roundtrip():
    for res in [hurwitz_orbit(INTRO_B, OrbitLimits(max_states=20)),
                hurwitz_orbit(BraidSystem.from_texts(2, ["1", "-1"])),
                hurwitz_orbit(INTRO_B, target=hurwitz_move(INTRO_B, HurwitzMove(2, True)))]:
        assert braidsys.orbit.OrbitResult.from_json(res.to_json()) == res


def _recording(keys, degree):
    """A spy on the move on codebook forms of a search at this degree; it
    records each computed (pair, direction) as (normal form, normal form,
    inverse)."""
    book = braids._book(degree)

    def recorded(mul, x, y, xy, inverse, inv):
        keys.append((book.normal_form(x), book.normal_form(y), inverse))
        return hurwitz_move_codes(mul, x, y, xy, inverse, inv)

    return recorded


def test_orbit_states_computes_the_moves_hurwitz_orbit_computes(monkeypatch):
    calls = []
    # every name the orbit module binds to the move function
    for name, value in list(vars(braidsys.orbit).items()):
        if value is hurwitz_move_codes:
            monkeypatch.setattr(braidsys.orbit, name, _recording(calls, INTRO_B.degree))
    for lims in [OrbitLimits(max_states=300), OrbitLimits(max_states=300, max_depth=3),
                 OrbitLimits(max_states=300, max_component_canonical_length=3),
                 OrbitLimits(max_states=1)]:
        calls.clear()
        hurwitz_orbit(INTRO_B, lims)
        searched = list(calls)
        calls.clear()
        list(orbit_states(INTRO_B, lims))
        assert calls == searched, lims
        assert searched or lims.max_states == 1


def test_orbit_computes_each_move_once_per_pair(monkeypatch):
    computed, tried = [], []
    monkeypatch.setattr(braidsys.orbit, "hurwitz_move_codes", _recording(computed, INTRO_B.degree))

    def tried_move(state, move):
        i = move.index
        tried.append((state[i - 1], state[i], move.inverse))
        return hurwitz_move_nf(state, move)

    monkeypatch.setattr(oracles, "hurwitz_move_nf", tried_move)
    lims = OrbitLimits(max_states=300)
    assert hurwitz_orbit(INTRO_B, lims) == orbit_bfs_plain(INTRO_B, lims)[0]
    # each (pair, direction) is computed once, and fewer are computed than
    # tried, or than distinct ones tried: the rest are memo hits
    assert len(set(computed)) == len(computed) < len(set(tried)) < len(tried)
    # every tried (pair, direction) was computed or is the opposite move of
    # a computed one, which undoes it
    undone = {hurwitz_move_nf((a, b), HurwitzMove(1, inv)) + (not inv,) for a, b, inv in computed}
    assert set(tried) <= set(computed) | undone
    # a second search computes everything again: no memo outlives a search
    first = list(computed)
    computed.clear()
    hurwitz_orbit(INTRO_B, lims)
    assert computed == first


MEMO_EDGE_SYSTEMS = [
    (4, ["1", "1", "1"]),
    (4, ["1", "1", "2"]),
    (4, ["2", "2", "-2"]),
    (4, ["1", "3", "1", "3"]),
    (4, ["1", "3", "3", "1"]),
    # one component at several positions: one entry serves several pairs
    (4, ["1,2", "3", "1,2", "3", "1,2"]),
    (4, ["-1", "2", "-1", "2", "-1"]),
    # other degrees: the spy decodes the forms with their own codebook
    (3, ["1", "2", "1", "-2"]),
    (5, ["1,2", "4", "1,2", "-3,4"]),
]
MEMO_EDGE_LIMITS = [
    OrbitLimits(max_states=300), OrbitLimits(max_states=6), OrbitLimits(max_states=40),
    OrbitLimits(max_depth=2), OrbitLimits(max_states=300, max_component_canonical_length=1),
]


def _moved_target(s):
    for move in (HurwitzMove(1), HurwitzMove(len(s) - 1, True), HurwitzMove(1)):
        s = hurwitz_move(s, move)
    return s


def test_orbit_memo_edge_cases_match_unmemoised_oracle(monkeypatch):
    # the memo holds [forward, undo, xy] per packed pair, whatever its position
    x, y = normal_form(parse_word("1", 4)), normal_form(parse_word("3", 4))
    for inverse in (False, True):
        # equal components: the move maps the pair to itself, so its undo
        # lands in the other slot of its own entry
        assert hurwitz_move_nf((x, x), HurwitzMove(1, inverse)) == (x, x)
        # commuting components: the move swaps the pair
        assert hurwitz_move_nf((x, y), HurwitzMove(1, inverse)) == (y, x)
    computed = []
    statuses = set()
    for m, texts in MEMO_EDGE_SYSTEMS:
        monkeypatch.setattr(braidsys.orbit, "hurwitz_move_codes", _recording(computed, m))
        s = BraidSystem.from_texts(m, texts)
        target = _moved_target(s)
        for lims in MEMO_EDGE_LIMITS:
            states = orbit_bfs_plain(s, lims)[1]
            for tgt in (None, target):
                computed.clear()
                res = orbit_bfs_plain(s, lims, tgt)[0]
                assert hurwitz_orbit(s, lims, tgt) == res, (texts, lims, tgt)
                # each (pair, direction) is computed once, at whatever position
                assert len(set(computed)) == len(computed), (texts, lims, tgt)
                statuses.add(res.status)
            assert list(orbit_states(s, lims)) == states, (texts, lims)
    assert statuses == {"complete", "truncated", "target_found"}


def _searched_products(monkeypatch, s, lims, target=None):
    """hurwitz_orbit of s, and the codebook products its search computes,
    in order: ("pair", (x, y)) for the product of a pair (x, y) and
    ("move", (x, y), made) for a move of (x, y) to the pair `made`, all
    forms decoded to normal forms.  Products that pack the start and the
    target, and the one inside each move, are not listed."""
    book = braids._book(s.degree)
    events, quiet = [], []
    real_mul, real_pack = braids._Codebook.mul, braidsys.orbit._Interner.pack

    def mul(self, *forms):
        if not quiet:
            events.append(("pair", tuple(map(book.normal_form, forms))))
        return real_mul(self, *forms)

    def move(mul, x, y, xy, inverse, inv):
        quiet.append(move)
        made = hurwitz_move_codes(mul, x, y, xy, inverse, inv)
        quiet.pop()
        events.append(("move", tuple(map(book.normal_form, (x, y))), tuple(map(book.normal_form, made))))
        return made

    def pack(self, system):
        quiet.append(pack)
        try:
            return real_pack(self, system)
        finally:
            quiet.pop()

    with monkeypatch.context() as patch:
        patch.setattr(braids._Codebook, "mul", mul)
        patch.setattr(braidsys.orbit, "hurwitz_move_codes", move)
        patch.setattr(braidsys.orbit._Interner, "pack", pack)
        res = hurwitz_orbit(s, lims, target)
    return res, events


def test_orbit_computes_each_pair_product_once_and_none_for_a_made_pair(monkeypatch):
    searches = [(INTRO_B, OrbitLimits(max_states=300), None)]
    for m, texts in MEMO_EDGE_SYSTEMS:
        s = BraidSystem.from_texts(m, texts)
        searches += [(s, lims, tgt) for lims in MEMO_EDGE_LIMITS for tgt in (None, _moved_target(s))]
    pair_total = move_total = 0
    for s, lims, target in searches:
        expected = orbit_bfs_plain(s, lims, target)[0]
        res, events = _searched_products(monkeypatch, s, lims, target)
        assert res == expected, (s, lims, target)
        # a pair's product is computed once, and never once a move made the
        # pair: the move handed it the product of the pair it moved
        with_product = set()
        for event in events:
            if event[0] == "pair":
                assert len(event[1]) == 2 and event[1] not in with_product, (s, lims, target, event)
                with_product.add(event[1])
            else:
                assert event[1] in with_product, (s, lims, target, event)
                with_product.add(event[2])
        pairs = sum(event[0] == "pair" for event in events)
        moves = len(events) - pairs
        if s is INTRO_B:
            assert 0 < pairs < moves
        pair_total, move_total = pair_total + pairs, move_total + moves
    assert 0 < pair_total < move_total


def _random_search(rng, m=None):
    if m is None:
        m = rng.randint(2, 5)
    s = BraidSystem(m, tuple(random_word(rng, m, 4, min_len=1) for _ in range(rng.randint(2, 6))))
    lims = OrbitLimits(
        max_states=rng.randint(1, 150),
        max_depth=rng.choice([32, rng.randint(1, 4)]),
        max_component_canonical_length=rng.choice([64, rng.randint(1, 4)]),
    )
    kind = rng.randrange(3)
    if kind == 0:
        return s, lims, None
    if kind == 1:
        return s, lims, BraidSystem(m, tuple(random_word(rng, m, 4, min_len=1) for _ in s.components))
    target = s
    for _ in range(rng.randint(1, 4)):
        target = hurwitz_move(target, HurwitzMove(rng.randint(1, len(s) - 1), rng.random() < 0.5))
    return s, lims, target


def test_orbit_matches_unmemoised_oracle():
    rng = random.Random(83)
    statuses = set()
    for _ in range(150):
        s, lims, target = _random_search(rng)
        res, states = orbit_bfs_plain(s, lims, target)
        assert hurwitz_orbit(s, lims, target) == res, (s, lims, target)
        if target is not None:
            states = orbit_bfs_plain(s, lims)[1]
        assert list(orbit_states(s, lims)) == states, (s, lims)
        statuses.add(res.status)
    assert statuses == {"complete", "truncated", "target_found"}


def test_intro_b_10k_search_is_pinned():
    # far past the random oracle searches: the result and the first and
    # last five states, pinned from the search keyed by NormalForm tuples
    lims = OrbitLimits(max_states=10_000)
    states = list(orbit_states(INTRO_B, lims))
    doc = {
        "result": hurwitz_orbit(INTRO_B, lims).to_json(),
        "first_states": [[nf.to_json() for nf in st] for st in states[:5]],
        "last_states": [[nf.to_json() for nf in st] for st in states[-5:]],
    }
    assert len(states) == 10_000
    assert json.dumps(doc) + "\n" == (GOLDEN / "orbit_intro_b_10k.json").read_text()


def test_start_state_is_not_cut_by_canonical_length():
    # the start's first component exceeds the cut; every state reached from
    # it carries a component past the cut too, so nothing else is recorded
    s = BraidSystem.from_texts(4, ["1,2,3,-1,2,-3,1,2,-1,3", "3", "-2", "-1"])
    res = hurwitz_orbit(s, OrbitLimits(max_states=400, max_component_canonical_length=2))
    assert res.status == "truncated" and res.states_visited == 1


def test_long_start_component_is_carried_only_into_checked_states():
    # the start's first component has canonical length 2, past the cut of 1;
    # moves that leave it in place give two short new forms, so the search
    # must check such states whole rather than trust the two new forms
    s = BraidSystem.from_texts(4, ["1,2,3,1,2,3", "1", "3"])
    lims = OrbitLimits(max_states=400, max_component_canonical_length=1)
    res, states = orbit_bfs_plain(s, lims)
    assert res.status == "truncated" and res.states_visited == 4
    assert hurwitz_orbit(s, lims) == res
    assert list(orbit_states(s, lims)) == states


def test_interned_forms_fit_the_packed_field_width(monkeypatch):
    interners = []

    class Spy(braidsys.orbit._Interner):
        def __init__(self, *args):
            super().__init__(*args)
            interners.append(self)

    monkeypatch.setattr(braidsys.orbit, "_Interner", Spy)
    rng = random.Random(83)
    searches = [_random_search(rng) for _ in range(150)]
    searches.append((INTRO_B, OrbitLimits(max_states=10_000), None))
    for s, lims, target in searches:
        interners.clear()
        hurwitz_orbit(s, lims, target)
        (intern,) = interners
        n = len(s)
        assert len(intern.forms) <= 2 * n + 2 * (n - 1) * lims.max_states < 2 ** intern.width


def test_bfs_is_deterministic():
    bvec = BraidSystem.from_texts(4, ["1,2,-3", "3", "-2", "-1"])
    lims = OrbitLimits(max_states=200, max_depth=6)
    assert hurwitz_orbit(bvec, lims) == hurwitz_orbit(bvec, lims)


def test_single_component_orbit():
    s = BraidSystem.from_texts(3, ["1,2"])
    res = hurwitz_orbit(s)
    assert res.status == "complete" and res.states_visited == 1


def test_orbit_states_share_invariants():
    bvec = BraidSystem.from_texts(4, ["1,2,-3", "3", "-2", "-1"])
    base = system_invariants(bvec).hurwitz_fields()
    count = 0
    for state in orbit_states(bvec, OrbitLimits(max_states=300, max_depth=32)):
        assert system_invariants_from_normal_forms(4, state).hurwitz_fields() == base
        count += 1
    assert count == 300


def test_find_conjugator_reference_pair():
    b = parse_word("3,-1,4", 5)
    bp = parse_word("4,3,-1", 5)
    a = find_conjugator(b, bp, max_length=3)
    assert a is not None
    assert braids_equal(conjugate(b, a), bp)
    assert find_conjugator(b, b, max_length=2) is not None
    # distinct conjugacy invariants mean no conjugator can exist
    assert find_conjugator(parse_word("1,2,-3", 4), parse_word("1,-2,3", 4), max_length=3) is None
    with pytest.raises(ValueError, match=r"^degree mismatch: 3 vs 4$"):
        find_conjugator(parse_word("1", 3), parse_word("1", 4))


@pytest.mark.parametrize("max_length, error, message", [
    # a negative bound used to return None, "not found within the bound",
    # and True ran one depth
    (-1, ValueError, "max_length must be >= 0, got -1"),
    (True, TypeError, "max_length True is a bool, not an int"),
    (2.0, TypeError, "max_length 2.0 is a float, not an int"),
    (None, TypeError, "max_length None is a NoneType, not an int"),
])
def test_find_conjugator_checks_its_bound(max_length, error, message):
    b, target = parse_word("1", 3), parse_word("2", 3)
    with pytest.raises(error, match=rf"^{re.escape(message)}$"):
        find_conjugator(b, target, max_length)
    assert find_conjugator(b, target, 0) is None  # a zero bound searches no depth
    assert find_conjugator(b, b, 0) == BraidWord(3)


def test_find_conjugator_returns_none_on_differing_conjugacy_types(monkeypatch):
    # cycle types (a 4-cycle against a transposition) or exponent sums
    # (2 against 0, both a 3-cycle) differ, so the search never starts:
    # its first step builds the generators' forms
    calls = []
    real = braids.generator
    monkeypatch.setattr(braids, "generator", lambda *args: calls.append(args) or real(*args))
    for m in (4, 6):
        assert find_conjugator(parse_word("1,2,-3", m), parse_word("1,1,-3", m), max_length=5) is None
    assert find_conjugator(parse_word("1,2", 4), parse_word("1,-2", 4), max_length=5) is None
    assert calls == []
    # a conjugate pair still searches
    assert find_conjugator(parse_word("1", 3), parse_word("2", 3), max_length=2) is not None
    assert calls


def test_find_conjugator_finds_random_conjugates():
    rng = random.Random(43)
    for _ in range(60):
        m = rng.randint(2, 5)
        b, a = random_word(rng, m, 5), random_word(rng, m, 3, min_len=1)
        target = conjugate(b, a)
        w = find_conjugator(b, target, max_length=len(a))
        assert w is not None and len(w) <= len(a)
        assert normal_form(conjugate(b, w)) == normal_form(target)


def test_find_conjugator_matches_the_word_bfs():
    # the search over codebook forms finds the word-by-word BFS's witness,
    # letter for letter, or fails where it fails
    rng = random.Random(97)
    for _ in range(600):
        m = rng.randint(1, 6)
        b = random_word(rng, m, 6, min_len=1)
        target = conjugate(b, random_word(rng, m, 3, min_len=1)) if rng.random() < 0.7 else random_word(rng, m, 6)
        max_length = rng.randint(-1, 4)
        if max_length < 0:  # a negative bound is an error, not a search that found nothing
            with pytest.raises(ValueError, match=r"^max_length must be >= 0, got -1$"):
                find_conjugator(b, target, max_length)
            continue
        got, want = (f(b, target, max_length) for f in (find_conjugator, oracles.find_conjugator_words))
        assert (got is None, got and got.letters) == (want is None, want and want.letters), (b, target, max_length)


def test_verify_invariance_reference_system():
    bvec = BraidSystem.from_texts(4, ["1,2,-3", "3", "-2", "-1"])
    rep = verify_invariance(bvec, trials=100, seed=7)
    assert rep.passed, rep.failures
    assert rep.moves_applied > 0


def test_verify_invariance_deterministic():
    s = BraidSystem.from_texts(3, ["1,2", "-1"])
    a = verify_invariance(s, trials=10, seed=3)
    b = verify_invariance(s, trials=10, seed=3)
    assert a.failures == b.failures and a.moves_applied == b.moves_applied


def test_verify_invariance_single_component():
    solo = BraidSystem.from_texts(3, ["1,2"])
    assert verify_invariance(solo, trials=5, seed=0).passed


def test_verify_invariance_degree_one():
    # one strand has no generator, so every global-conjugation draw is
    # skipped; the Hurwitz moves and stabilizations still run and pass
    rep = verify_invariance(BraidSystem.from_texts(1, ["", ""]), trials=30, seed=5)
    assert rep.passed, rep.failures
    assert rep.moves_applied == 109


def test_verify_invariance_rejects_bad_trials():
    with pytest.raises(ValueError):
        verify_invariance(BraidSystem.from_texts(2, ["1"]), trials=0, seed=0)


def test_invariance_report_is_frozen():
    rep = verify_invariance(INTRO_B, trials=2, seed=0)
    assert isinstance(rep.failures, tuple)
    for name, value in (("moves_applied", 0), ("failures", ("x",))):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(rep, name, value)


def _square_first(s):
    return BraidSystem(s.degree, (power(s.components[0], 2),) + s.components[1:])


def _identity_first(s):
    return BraidSystem(s.degree, (BraidWord(s.degree),) + s.components)


@pytest.mark.parametrize("name, breaks, broken", [
    ("hurwitz_move", _square_first, "exponent_sum_multiset"),
    ("global_conjugate", _identity_first, "same_shape"),
    # a stabilization keeps only the Euler checks: here the mod-3 class breaks
    ("stabilize", _identity_first, "degree_plus_length_mod3"),
    # one component short of a round trip
    ("destabilize", lambda s: BraidSystem(s.degree, s.components[:-1]), "stabilize round trip"),
])
def test_verify_invariance_reports_a_move_that_breaks_what_it_keeps(monkeypatch, name, breaks, broken):
    move = getattr(braidsys.orbit, name)
    monkeypatch.setattr(braidsys.orbit, name, lambda *args, **kwargs: breaks(move(*args, **kwargs)))
    rep = verify_invariance(INTRO_B, trials=20, seed=7)
    assert not rep.passed
    assert any(broken in f for f in rep.failures), rep.failures


def test_verify_invariance_reports_a_trace_that_does_not_follow_conjugation(monkeypatch):
    # conjugating once more by sigma_1 keeps the shape and every other
    # check, and moves this system's trace (INTRO_B's is the identity)
    conj = braidsys.orbit.global_conjugate
    sigma1 = parse_word("1", 4)
    monkeypatch.setattr(braidsys.orbit, "global_conjugate",
                        lambda s, a, **kwargs: conj(conj(s, a, **kwargs), sigma1, **kwargs))
    rep = verify_invariance(BraidSystem.from_texts(4, ["1,2", "-3", "2"]), trials=20, seed=7)
    assert not rep.passed
    assert all("trace did not follow conjugation" in f for f in rep.failures), rep.failures


def test_verify_invariance_builds_each_system_report_once(monkeypatch):
    # the report of the system before a move is the one the previous move
    # built for the system after it; only a stabilized system, checked and
    # undone, is not kept
    built = []
    report = braidsys.orbit.system_invariants
    monkeypatch.setattr(braidsys.orbit, "system_invariants", lambda s: built.append(s) or report(s))
    rep = verify_invariance(INTRO_B, trials=20, seed=7)
    assert rep.passed and len(built) == rep.moves_applied + 1
    assert len(set(map(id, built))) == len(built)


@pytest.mark.parametrize("m", [1, 6, 7])
def test_orbit_matches_unmemoised_oracle_beyond_the_code_tables(m):
    # degree 1: the identity is the half twist, one code for both;
    # degrees 6 and 7: the image tuples are the codes
    rng = random.Random(89 + m)
    for _ in range(30):
        s, lims, target = _random_search(rng, m)
        res, states = orbit_bfs_plain(s, lims, target)
        assert hurwitz_orbit(s, lims, target) == res, (s, lims, target)
        if target is not None:
            states = orbit_bfs_plain(s, lims)[1]
        assert list(orbit_states(s, lims)) == states, (s, lims)


def test_codebooks_hold_codes_only_up_to_degree_5():
    rng = random.Random(97)
    s8 = BraidSystem(8, tuple(random_word(rng, 8, 4, min_len=1) for _ in range(4)))
    assert hurwitz_orbit(s8, OrbitLimits(max_states=200)).states_visited > 1
    assert normal_form(random_word(rng, 32, 80, min_len=60)).degree == 32
    for m in range(1, 6):
        book = braids._book(m)
        assert len(book.images) == len(book.codes) <= math.factorial(m)
        assert len(book.table) == math.factorial(m) ** 2
    for m in (8, 32):
        book = braids._book(m)
        assert book.images == [] and book.codes == {} and book.table is None
        assert (book.fix, book.flip, book.complement) == (
            braids._lw_fix, braids._tup_flip, braids._tup_left_complement)


def test_pair_fix_table_fills_only_the_slots_a_comb_reads(monkeypatch):
    # a full degree-5 table is 14,400 pair fixes; building it eagerly would
    # cost every cleared cache more than a short search does
    braids._book.cache_clear()
    book = braids._book(5)
    assert len(book.table) == 120 ** 2
    assert all(slot is braids._UNFILLED for slot in book.table)
    reads = set()

    class Recording(list):
        def __getitem__(self, k):
            reads.add(k)
            return super().__getitem__(k)

    monkeypatch.setattr(book, "table", Recording(book.table))
    rng = random.Random(98)
    normal_form(random_word(rng, 5, 30, min_len=20))
    s = BraidSystem(5, tuple(random_word(rng, 5, 4, min_len=1) for _ in range(3)))
    hurwitz_orbit(s, OrbitLimits(max_states=300))
    filled = {k for k, slot in enumerate(book.table) if slot is not braids._UNFILLED}
    assert filled == reads
    assert 0 < len(filled) < 120 ** 2 // 4
