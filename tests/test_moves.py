import functools
import random

import pytest

from braidsys import (
    BraidSystem,
    BraidWord,
    HurwitzMove,
    braids_equal,
    conjugate,
    destabilize,
    euler_fission_check,
    euler_fuse,
    euler_necessity,
    exponent_sum,
    generator,
    global_conjugate,
    hurwitz_act,
    hurwitz_move,
    is_identity,
    normal_form,
    parse_word,
    product,
    stabilize,
    system_invariants,
    tau,
)

from oracles import random_word


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
    moved = hurwitz_move(bvec, HurwitzMove(2))
    assert moved.components[1].letters == (-2,)
    assert moved.components[2].letters == (2, 3, -2)  # literal conjugation word
    undone = hurwitz_move(moved, HurwitzMove(2, inverse=True))
    assert components_equal(undone, bvec)
    back = hurwitz_move(bvec, HurwitzMove(2, inverse=True))
    assert back.components[1].letters == (3, -2, -3)  # literal word b_2 b_3 b_2^-1
    assert back.components[2].letters == (3,)


def test_hurwitz_move_index_bounds(bvec):
    with pytest.raises(ValueError, match=r"^move index 0 out of range for length 4$"):
        hurwitz_move(bvec, HurwitzMove(0))
    with pytest.raises(ValueError):
        hurwitz_move(bvec, HurwitzMove(4))


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
        via_words = hurwitz_move(s, move).normal_forms()
        via_nf = hurwitz_move_nf(s.normal_forms(), move)
        assert via_words == via_nf == hurwitz_move(s, move, simplify=True).normal_forms()
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
        assert hurwitz_move(s, move).normal_forms() == via_nf
        assert hurwitz_move(s, move, simplify=True).normal_forms() == via_nf


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
        lhs = hurwitz_act(s, parse_word("1,2,1", 3), simplify=True)
        rhs = hurwitz_act(s, parse_word("2,1,2", 3), simplify=True)
        assert components_equal(lhs, rhs)
        cancel = hurwitz_act(s, parse_word("1,-1", 3), simplify=True)
        assert components_equal(cancel, s)
    assert components_equal(hurwitz_act(s, BraidWord(3)), s)


def test_hurwitz_act_distant_commutation():
    rng = random.Random(45)
    for _ in range(10):
        m = rng.randint(2, 4)
        s = BraidSystem(m, tuple(random_word(rng, m, 4) for _ in range(4)))
        lhs = hurwitz_act(s, parse_word("1,3", 4), simplify=True)
        rhs = hurwitz_act(s, parse_word("3,1", 4), simplify=True)
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
            s = hurwitz_move(s, HurwitzMove(rng.randint(1, 2), rng.random() < 0.5), simplify=True)
        assert not any(is_identity(c) for c in s.components)


def test_mod3_class_is_stable_under_moves(bvec):
    base = system_invariants(bvec).degree_plus_length_mod3
    s = hurwitz_move(bvec, HurwitzMove(1))
    s = global_conjugate(s, parse_word("1", 4))
    s = stabilize(s)
    assert system_invariants(s).degree_plus_length_mod3 == base
