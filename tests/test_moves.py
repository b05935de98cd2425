import functools
import random
import re

import pytest
from hypothesis import example, given, settings, strategies as st

from braidsys import (
    BraidSystem,
    BraidWord,
    HurwitzMove,
    braids_equal,
    canonical_word,
    conjugate,
    destabilize,
    euler_fission_check,
    euler_fuse,
    euler_necessity,
    exponent_sum,
    free_reduce,
    generator,
    global_conjugate,
    hurwitz_act,
    hurwitz_move,
    inverse,
    is_identity,
    normal_form,
    parse_word,
    product,
    stabilize,
    system_invariants,
    tau,
)

from braidsys import braids, cli
from braidsys.moves import hurwitz_move_codes
from oracles import bubble_normal_form, delta_power_word, random_word


def components_equal(s1, s2):
    return len(s1) == len(s2) and all(
        braids_equal(a, b) for a, b in zip(s1.components, s2.components)
    )


@pytest.fixture
def bvec():
    return BraidSystem.from_texts(4, ["1,2,-3", "3", "-2", "-1"])


@pytest.fixture
def bpvec():
    return BraidSystem.from_texts(4, ["1,-2,3", "-3", "2", "-1"])


def test_hurwitz_move_definition(bvec):
    # the conjugated component is stored as the canonical word of the
    # literal conjugation word, another word of the same braid
    moved = hurwitz_move(bvec, HurwitzMove(2))
    assert moved.components[1].letters == (-2,)
    assert moved.components[2].letters == (-3, 2, 3)
    assert normal_form(moved.components[2]) == normal_form(parse_word("2,3,-2", 4))  # b_3^-1 b_2 b_3
    undone = hurwitz_move(moved, HurwitzMove(2, inverse=True))
    assert undone == bvec
    back = hurwitz_move(bvec, HurwitzMove(2, inverse=True))
    assert back.components[1].letters == (-2, -3, 2)
    assert normal_form(back.components[1]) == normal_form(parse_word("3,-2,-3", 4))  # b_2 b_3 b_2^-1
    assert back.components[2].letters == (3,)


def test_hurwitz_move_index_bounds(bvec):
    with pytest.raises(ValueError, match=r"^move index 0 out of range for length 4$"):
        hurwitz_move(bvec, HurwitzMove(0))
    with pytest.raises(ValueError):
        hurwitz_move(bvec, HurwitzMove(4))


@pytest.mark.parametrize("args, message", [
    # True used to move pair 1, and 1.0 failed inside hurwitz_move
    ((True,), "move index True is a bool, not an int"),
    ((1.0,), "move index 1.0 is a float, not an int"),
    (("1",), "move index '1' is a str, not an int"),
    ((1, 1), "move inverse 1 is not a bool"),
    ((1, None), "move inverse None is not a bool"),
])
def test_hurwitz_move_fields_are_checked_by_type(args, message):
    with pytest.raises(TypeError, match=rf"^{re.escape(message)}$"):
        HurwitzMove(*args)
    assert HurwitzMove(1, True).inverse is True and HurwitzMove(2).inverse is False


def test_exponent_shadow_single_move(bvec, bpvec):
    moved = hurwitz_move(bvec, HurwitzMove(2))
    assert [exponent_sum(c) for c in moved.components] == [
        exponent_sum(c) for c in bpvec.components
    ]


def test_nf_move_agrees_with_word_move():
    from braidsys import hurwitz_move_nf

    rng = random.Random(40)
    for _ in range(40):
        m, n = rng.randint(2, 5), rng.randint(2, 4)
        s = BraidSystem(m, tuple(random_word(rng, m, 6) for _ in range(n)))
        move = HurwitzMove(rng.randint(1, n - 1), rng.random() < 0.5)
        # the forms of fresh systems of the moved words: a moved system holds
        # forms that `hurwitz_move_nf` computed
        via_words = BraidSystem(m, hurwitz_move(s, move).components).normal_forms()
        via_nf = hurwitz_move_nf(s.normal_forms(), move)
        assert via_words == via_nf
    with pytest.raises(ValueError):
        hurwitz_move_nf(s.normal_forms(), HurwitzMove(n))
    mixed = (normal_form(parse_word("1", 3)), normal_form(parse_word("1", 4)))
    with pytest.raises(ValueError, match=r"^degree mismatch: 3 vs 4$"):
        hurwitz_move_nf(mixed, HurwitzMove(1))


@pytest.mark.parametrize("m", [1, 6, 7])
def test_nf_move_agrees_with_word_move_beyond_the_code_tables(m):
    from braidsys import hurwitz_move_nf

    rng = random.Random(42 + m)
    for _ in range(30):
        n = rng.randint(2, 4)
        s = BraidSystem(m, tuple(random_word(rng, m, 6) for _ in range(n)))
        move = HurwitzMove(rng.randint(1, n - 1), rng.random() < 0.5)
        via_nf = hurwitz_move_nf(s.normal_forms(), move)
        assert BraidSystem(m, hurwitz_move(s, move).components).normal_forms() == via_nf


@st.composite
def move_pairs(draw):
    """Two words Delta^d w of one degree in 2..8, d in -3..3 and w short."""
    m = draw(st.integers(2, 8))
    letters = st.lists(st.sampled_from([k for i in range(1, m) for k in (i, -i)]), max_size=8)
    return tuple(delta_power_word(m, draw(st.integers(-3, 3)), tuple(draw(letters))) for _ in range(2))


def _words_mul(*words):
    return free_reduce(functools.reduce(product, words))


@settings(max_examples=150, deadline=None)
@given(move_pairs())
@example((BraidWord(4), BraidWord(4)))  # the identity
@example((BraidWord(5), parse_word("2,-4", 5)))
@example((delta_power_word(5, 2), delta_power_word(5, -3)))  # half twist powers
@example((delta_power_word(6, 1), parse_word("1,2,-5", 6)))
@example((parse_word("1,-3,2", 8), parse_word("-1,2", 8)))
@example((parse_word("-1,2,-1", 3), parse_word("2,-1,2", 3)))  # equal components, two spellings
@example((parse_word("1,2", 6), parse_word("4,-5", 6)))  # commuting components
def test_move_given_the_pair_product_is_the_move_given_the_pair(pair):
    # hurwitz_move_codes with xy the pair's product as one value gives what it
    # gives with the two factors, on words (freely reduced), on normal forms
    # and on codebook forms, in both directions
    x, y = pair
    book = braids._book(x.degree)
    fx, fy = normal_form(x), normal_form(y)
    kinds = [(_words_mul, x, y, inverse, normal_form),
             (braids._nf_product, fx, fy, lambda nf: nf.inverse(), lambda nf: nf),
             (book.mul, book.form(fx), book.form(fy), book.inverse, book.normal_form)]
    for undo in (False, True):
        made = set()
        for mul, a, b, inv_of, decode in kinds:
            inv = inv_of(a if undo else b)
            by_factors = hurwitz_move_codes(mul, a, b, (a, b), undo, inv)
            assert hurwitz_move_codes(mul, a, b, (mul(a, b),), undo, inv) == by_factors, (mul, undo)
            made.add(tuple(map(decode, by_factors)))
        # and the three kinds move the pair to one pair of braids
        assert len(made) == 1


def _word_step(s, op, arg):
    """The step's literal words, built by words alone: the conjugation
    words of a Hurwitz move and a global conjugation, the concatenation of
    a fusion."""
    if op == "H":
        a, b = s.components[arg.index - 1 : arg.index + 1]
        pair = hurwitz_move_codes(lambda *ws: functools.reduce(product, ws), a, b, (a, b),
                                  arg.inverse, inverse(a if arg.inverse else b))
        return s.components[: arg.index - 1] + pair + s.components[arg.index + 1 :]
    if op == "GC":
        return tuple(conjugate(c, arg) for c in s.components)
    l, q = arg
    return s.components[: l - 1] + (functools.reduce(product, s.components[l - 1 : l + q]),) \
        + s.components[l + q :]


def _random_step(rng, s):
    """(op, arg) of a random step that s can take."""
    m, n = s.degree, len(s)
    ops = ["GC"] + ["H", "H", "FUSE"] * (n >= 2) + ["STAB"] * (m < 8 and n < 8) + ["DESTAB"] * (n >= 3)
    op = rng.choice(ops)
    if op == "H":
        return op, HurwitzMove(rng.randint(1, n - 1), rng.random() < 0.5)
    if op == "GC":
        return op, random_word(rng, m, 3)
    if op == "FUSE":
        l = rng.randint(1, n - 1)
        return op, (l, rng.randint(1, n - l))
    return op, None


def _take_step(s, op, arg):
    if op == "H":
        return hurwitz_move(s, arg)
    if op == "GC":
        return global_conjugate(s, arg)
    if op == "FUSE":
        return euler_fuse(s, *arg)[0]
    return stabilize(s) if op == "STAB" else destabilize(s)


@pytest.mark.parametrize("held", [False, True])
def test_carried_forms_match_fresh_forms_and_the_bubble_oracle(held):
    # the forms a moved system holds are those of a fresh system of its
    # words, those of the literal words built by words alone, and at degree
    # <= 4 those of the bubble-sort oracle; a Hurwitz move and a global
    # conjugation store the canonical words of the literal words, a fusion
    # their concatenation, whether or not the input held its forms (held
    # makes every step's input hold them, else none does)
    rng = random.Random(410 + held)
    taken = {}
    for _ in range(60):
        m = rng.randint(1, 8)
        s = BraidSystem(m, tuple(random_word(rng, m, 4) for _ in range(rng.randint(1, 5))))
        for _ in range(8):
            op, arg = _random_step(rng, s)
            lazy = BraidSystem(s.degree, s.components)
            if held:
                s.normal_forms()
            else:
                s = lazy
            try:
                t = _take_step(s, op, arg)
            except ValueError:  # a DESTAB that the components block
                assert op == "DESTAB"
                continue
            taken[op] = taken.get(op, 0) + 1
            if op in ("H", "GC", "FUSE"):
                # H and GC always carry forms; FUSE only those its input held
                assert ("_forms" in vars(t)) == (held or op in ("H", "GC"))
                literal = _word_step(s, op, arg)
                assert t.normal_forms() == tuple(map(normal_form, literal)), (op, arg)
                spelled = list(literal)
                if op == "GC":
                    spelled = list(map(canonical_word, literal))
                elif op == "H":  # the conjugated component of the pair
                    j = arg.index - arg.inverse
                    spelled[j] = canonical_word(literal[j])
                assert t.components == tuple(spelled), (op, arg)
            from_lazy = _take_step(lazy, op, arg)
            assert from_lazy == t
            if op in ("H", "GC", "FUSE"):
                assert ("_forms" in vars(from_lazy)) == (op in ("H", "GC"))
            fresh = BraidSystem(t.degree, t.components).normal_forms()
            assert t.normal_forms() == fresh, (op, arg)
            if t.degree <= 4:
                assert fresh == tuple(map(bubble_normal_form, t.components))
            s = t
    assert set(taken) == {"H", "GC", "FUSE", "STAB", "DESTAB"}, taken


def _count_normal_form_calls(monkeypatch):
    calls = []

    def counted(b):
        calls.append(b)
        return real(b)

    real = braids.normal_form
    monkeypatch.setattr(braids, "normal_form", counted)
    return calls


def test_moves_on_held_forms_normalise_only_a_conjugator(monkeypatch, bvec):
    bvec.normal_forms()
    calls = _count_normal_form_calls(monkeypatch)
    moved = hurwitz_move(bvec, HurwitzMove(2, True))
    moved = hurwitz_move(moved, HurwitzMove(1))
    fused, _ = euler_fuse(moved, 2, 2)
    system_invariants(moved)
    system_invariants(fused)
    assert calls == []
    a = parse_word("1,-2", 4)
    system_invariants(global_conjugate(moved, a))
    assert calls == [a]


def test_apply_normalises_each_loaded_component_once(monkeypatch, tmp_path):
    # the loaded system's forms, then none: each H step carries them on and
    # its report reads them
    path = tmp_path / "system.json"
    path.write_text('{"degree": 4, "components": ["1,2,-3", "3", "-2", "-1"]}')
    calls = _count_normal_form_calls(monkeypatch)
    assert cli.main(["apply", "--system", str(path), "--steps", "H 1 + / H 3 - / H 2 +", "--json"]) == 0
    assert [c.to_text() for c in calls] == ["1,2,-3", "3", "-2", "-1"]


def test_trace_preserved_by_moves():
    rng = random.Random(41)
    for _ in range(25):
        m, n = rng.randint(2, 4), rng.randint(2, 4)
        s = BraidSystem(m, tuple(random_word(rng, m, 6) for _ in range(n)))
        trace = normal_form(s.trace_product())
        move = HurwitzMove(rng.randint(1, n - 1), rng.random() < 0.5)
        assert normal_form(hurwitz_move(s, move).trace_product()) == trace
    for m, n in ((3, 1), (5, 12)):  # the trace is the components' product, in order
        s = BraidSystem(m, tuple(random_word(rng, m, 6) for _ in range(n)))
        assert s.trace_product() == functools.reduce(product, s.components)


def test_hurwitz_act_well_defined():
    rng = random.Random(42)
    for _ in range(15):
        m = rng.randint(2, 4)
        s = BraidSystem(m, tuple(random_word(rng, m, 5) for _ in range(3)))
        lhs = hurwitz_act(s, parse_word("1,2,1", 3))
        rhs = hurwitz_act(s, parse_word("2,1,2", 3))
        assert components_equal(lhs, rhs)
        cancel = hurwitz_act(s, parse_word("1,-1", 3))
        assert components_equal(cancel, s)
    assert components_equal(hurwitz_act(s, BraidWord(3)), s)


def test_hurwitz_act_distant_commutation():
    rng = random.Random(45)
    for _ in range(10):
        m = rng.randint(2, 4)
        s = BraidSystem(m, tuple(random_word(rng, m, 4) for _ in range(4)))
        lhs = hurwitz_act(s, parse_word("1,3", 4))
        rhs = hurwitz_act(s, parse_word("3,1", 4))
        assert components_equal(lhs, rhs)


def test_permutation_shadow_follows_the_action():
    # the componentwise permutations transform by the same move recipe
    from braidsys import permutation

    rng = random.Random(46)
    for _ in range(30):
        m, n = rng.randint(2, 5), rng.randint(2, 4)
        s = BraidSystem(m, tuple(random_word(rng, m, 6) for _ in range(n)))
        i = rng.randint(1, n - 1)
        shadow = [permutation(c) for c in s.components]
        moved_shadow = [permutation(c) for c in hurwitz_move(s, HurwitzMove(i)).components]
        expected = list(shadow)
        expected[i - 1] = shadow[i]
        expected[i] = shadow[i].inverse().then(shadow[i - 1]).then(shadow[i])
        assert moved_shadow == expected


def test_hurwitz_act_length_mismatch(bvec):
    with pytest.raises(ValueError):
        hurwitz_act(bvec, BraidWord(3, (1,)))


def test_global_conjugate(bvec):
    same = global_conjugate(bvec, BraidWord(4))
    assert components_equal(same, bvec)
    a = parse_word("2,-1", 4)
    moved = global_conjugate(bvec, a)
    assert components_equal(
        moved, BraidSystem(4, tuple(conjugate(c, a) for c in bvec.components))
    )
    rep = system_invariants(moved)
    base = system_invariants(bvec)
    assert rep.essential == base.essential
    assert rep.charpoly_multiset == base.charpoly_multiset
    # trace maps to its conjugate
    assert braids_equal(moved.trace_product(), conjugate(bvec.trace_product(), a))
    with pytest.raises(ValueError, match=r"^degree mismatch: 4 vs 3$"):
        global_conjugate(bvec, BraidWord(3, (1,)))


def test_stabilize_shape_and_roundtrip(bvec):
    up = stabilize(bvec)
    assert up.degree == 5 and len(up) == 6
    assert up.components[-2].letters == (4,) and up.components[-1].letters == (-4,)
    back = destabilize(up)
    assert components_equal(back, bvec)
    rep, base = system_invariants(up), system_invariants(bvec)
    assert rep.essential.core == base.essential.core
    assert rep.degree_plus_length_mod3 == base.degree_plus_length_mod3


def test_destabilize_errors(bvec):
    with pytest.raises(ValueError, match=r"^cannot destabilize a degree-1 system$"):
        destabilize(BraidSystem(1, (BraidWord(1),) * 3))
    with pytest.raises(ValueError, match="length"):
        destabilize(BraidSystem.from_texts(3, ["1", "-1"]))
    bad_next_to_last = BraidSystem.from_texts(4, ["1", "2", "-3"])
    with pytest.raises(ValueError, match=r"^component 2 is not the generator 3$"):
        destabilize(bad_next_to_last)
    bad_tail = BraidSystem.from_texts(4, ["1", "3", "3"])
    with pytest.raises(ValueError, match="component 3"):
        destabilize(bad_tail)
    # a middle component using the last strand blocks, with its index named
    blocked = BraidSystem.from_texts(4, ["3", "3", "-3"])
    with pytest.raises(ValueError, match="component 1"):
        destabilize(blocked)
    # words that only spuriously mention the last strand reduce away and pass
    spurious = BraidSystem.from_texts(4, ["3,-3,1", "3", "-3"])
    down = destabilize(spurious)
    assert down.degree == 3 and down.components[0].letters == (1,)


def test_tau_values():
    assert tau(BraidWord(5)) == 0
    assert tau(generator(6, 2)) == 1
    assert tau(parse_word("-3,2,-1", 4)) == 3


def test_euler_fuse_reference_path(bpvec):
    cvec = BraidSystem.from_texts(4, ["1,-2,3", "-3,2,-1"])
    f1, chk1 = euler_fuse(bpvec, 2, 1)
    f2, chk2 = euler_fuse(f1, 2, 1)
    assert chk1 and chk2
    assert components_equal(f2, cvec)
    single, chk = euler_fuse(bpvec, 2, 2)
    assert chk and components_equal(single, cvec)


def test_euler_fuse_whole_system_with_identity_trace(bvec):
    fused, _ = euler_fuse(bvec, 1, len(bvec) - 1)
    assert len(fused) == 1
    assert is_identity(fused.components[0])


def test_euler_fuse_tau_check_false():
    s = BraidSystem.from_texts(3, ["1", "-1"])
    fused, check = euler_fuse(s, 1, 1)
    assert not check
    assert is_identity(fused.components[0])


def test_euler_fuse_bounds(bvec):
    with pytest.raises(ValueError):
        euler_fuse(bvec, 1, 0)
    with pytest.raises(ValueError):
        euler_fuse(bvec, 4, 1)


def test_euler_fission_check():
    whole = parse_word("-3,2,-1", 4)
    pieces = [parse_word("-3", 4), parse_word("2", 4), parse_word("-1", 4)]
    assert euler_fission_check(whole, pieces)
    assert not euler_fission_check(BraidWord(4), [parse_word("1", 4), parse_word("-1", 4)])
    assert not euler_fission_check(whole, [parse_word("2", 4), parse_word("-3,-1", 4)])
    # the pieces multiply to the whole and their tau values add up, but an
    # identity piece is no fission
    identity_piece = [parse_word("1", 3), parse_word("2,-2", 3)]
    assert tau(parse_word("1", 3)) == sum(tau(p) for p in identity_piece)
    assert not euler_fission_check(parse_word("1", 3), identity_piece)
    with pytest.raises(ValueError):
        euler_fission_check(whole, [whole])
    # a piece, or every piece, of another degree than the whole
    for pieces in ([parse_word("1", 4), parse_word("1", 3)], [parse_word("1", 3)] * 2):
        with pytest.raises(ValueError, match="degree"):
            euler_fission_check(whole, pieces)


def test_fuse_then_fission_check_roundtrip():
    rng = random.Random(43)
    for _ in range(25):
        m = rng.randint(2, 4)
        n = rng.randint(3, 5)
        s = BraidSystem(m, tuple(random_word(rng, m, 4, min_len=1) for _ in range(n)))
        l = rng.randint(1, n - 1)
        q = rng.randint(1, n - l)
        fused, check = euler_fuse(s, l, q)
        pieces = s.components[l - 1 : l + q]
        if check and not any(is_identity(p) for p in pieces):
            assert euler_fission_check(fused.components[l - 1], pieces)


def test_euler_necessity(bvec, bpvec):
    cvec = BraidSystem.from_texts(4, ["1,-2,3", "-3,2,-1"])
    assert euler_necessity(bpvec, cvec) == "necessary"
    # the cores differ (1 and x + 3), though the verdict names charpoly_product
    assert euler_necessity(bvec, bpvec) == "necessary"
    # equal cores, (degree + length) mod 3 is 2 against 0
    assert euler_necessity(bvec, BraidSystem.from_texts(4, ["1", "-1"])) == "necessary"
    assert euler_necessity(bvec, bvec) == "unknown"
    assert euler_necessity(bvec, stabilize(bvec)) == "unknown"


def test_moves_keep_conjugates_of_generators_nontrivial():
    # components conjugate to generators stay non-identity under any moves
    rng = random.Random(44)
    for _ in range(15):
        m = rng.randint(3, 5)
        comps = []
        for _ in range(3):
            a = random_word(rng, m, 4)
            comps.append(conjugate(generator(m, rng.randint(1, m - 1), rng.choice((1, -1))), a))
        s = BraidSystem(m, tuple(comps))
        for _ in range(rng.randint(1, 8)):
            s = hurwitz_move(s, HurwitzMove(rng.randint(1, 2), rng.random() < 0.5))
        assert not any(is_identity(c) for c in s.components)


def test_mod3_class_is_stable_under_moves(bvec):
    base = system_invariants(bvec).degree_plus_length_mod3
    s = hurwitz_move(bvec, HurwitzMove(1))
    s = global_conjugate(s, parse_word("1", 4))
    s = stabilize(s)
    assert system_invariants(s).degree_plus_length_mod3 == base
