import math
import random

import pytest

from braidsys import (
    BraidInvariantReport,
    BraidSystem,
    IntPolynomial,
    SystemComparison,
    SystemInvariantReport,
    braid_invariants,
    braids_equal,
    compare_systems,
    conjugate,
    determinant,
    exponent_sum,
    family_bm,
    family_bm_charpoly,
    family_bmk,
    family_bmk_charpoly,
    family_weaving,
    generator,
    iota,
    parse_word,
    permutation,
    permutation_group_order,
    pure3_charpoly_oracle,
    pure_power_matrix,
    rank,
    system_invariants,
)
from braidsys.braids import BraidWord, Permutation

from oracles import group_order_bfs, random_word


def sigma_poly(m):
    return IntPolynomial.x_power(m - 2) * IntPolynomial((-1, 0, 1))


def test_generator_reports():
    for m in range(2, 9):
        for i in range(1, m):
            rep = braid_invariants(generator(m, i))
            assert rep.charpoly == sigma_poly(m)
            assert rep.r == 2
            assert rep.rank == 2
            expected_eigs = ((-1, 1), (0, m - 2), (1, 1)) if m > 2 else ((-1, 1), (1, 1))
            assert rep.integer_eigenvalues == expected_eigs


def test_empty_word_report():
    rep = braid_invariants(BraidWord(3))
    assert rep.charpoly == IntPolynomial.x_power(3)
    assert rep.rank == 0 and rep.determinant == 0
    assert rep.S == (0,) * 9


def test_report_for_example_braid():
    rep = braid_invariants(parse_word("1,2,-3", 4))
    assert rep.charpoly == IntPolynomial((1, 0, -2, 0, 1))
    assert rep.S == (0,) * 12 + (1,) * 4
    assert rep.S_rows == ((0, 0, 0, 1),) * 4
    assert rep.S_cols == ((0, 0, 0, 1),) * 4
    assert rep.charpoly.coefficient(3) == 0


def test_report_determinant_and_rank_match_elimination():
    # the report reads det and rank off the charpoly, which is sound only
    # because the pure-power matrix is symmetric
    rng = random.Random(37)
    for _ in range(200):
        w = random_word(rng, rng.randint(1, 16), 24)
        rep = braid_invariants(w)
        _, M = pure_power_matrix(w)
        assert M.is_symmetric()
        assert (rep.determinant, rep.rank) == (determinant(M), rank(M))


def test_conjugation_invariance_of_reports():
    rng = random.Random(31)
    for _ in range(40):
        m = rng.randint(2, 6)
        b = random_word(rng, m, 10)
        a = random_word(rng, m, 6)
        rb = braid_invariants(b)
        rc = braid_invariants(conjugate(b, a))
        assert rb.conjugacy_fields() == rc.conjugacy_fields()


def test_iota_multiplies_charpoly_by_x():
    rng = random.Random(32)
    for _ in range(30):
        b = random_word(rng, rng.randint(2, 5), 8)
        assert braid_invariants(iota(b)).charpoly == braid_invariants(b).charpoly * IntPolynomial((0, 1))


def test_weaving_family():
    for m in (3, 5, 7):
        w = family_weaving(m)
        assert w.letters == tuple(i if i % 2 == 1 else -i for i in range(1, m))
        assert braid_invariants(w).charpoly == IntPolynomial.x_power(m)
        assert braid_invariants(iota(w)).charpoly == IntPolynomial.x_power(m + 1)
    with pytest.raises(ValueError):
        family_weaving(4)
    with pytest.raises(ValueError):
        family_weaving(1)


def test_bm_family():
    assert family_bm(5).letters == (1, 2, 3, 4, 4, 3, 2, 1)
    for m in range(3, 9):
        b = family_bm(m)
        assert permutation(b).is_identity()
        assert braid_invariants(b).charpoly == family_bm_charpoly(m)
    assert braid_invariants(family_bm(5)).charpoly == IntPolynomial((0, 0, 0, -4, 0, 1))
    with pytest.raises(ValueError):
        family_bm(2)


def test_bmk_family():
    for m in range(3, 7):
        for k in range(0, 4):
            assert braid_invariants(family_bmk(m, k)).charpoly == family_bmk_charpoly(m, k)
    assert family_bmk_charpoly(4, 2) == IntPolynomial((0, 0, -11, 0, 1))
    with pytest.raises(ValueError):
        family_bmk(3, -1)


def test_pure3_oracle():
    assert pure3_charpoly_oracle(parse_word("1,1", 3)) == IntPolynomial((0, -1, 0, 1))
    ft = parse_word("1,2,1,2,1,2", 3)
    assert pure3_charpoly_oracle(ft) == IntPolynomial((-2, -3, 0, 1))
    assert braid_invariants(ft).charpoly == pure3_charpoly_oracle(ft)
    with pytest.raises(ValueError):
        pure3_charpoly_oracle(parse_word("1,-1", 3))  # not positive
    with pytest.raises(ValueError):
        pure3_charpoly_oracle(parse_word("1", 3))  # not pure
    with pytest.raises(ValueError):
        pure3_charpoly_oracle(parse_word("1,1", 4))  # wrong degree


def test_pure3_oracle_random_agreement():
    rng = random.Random(33)
    from braidsys import permutation_order, power

    count = 0
    while count < 30:
        seed_word = BraidWord(3, tuple(rng.choice([1, 2]) for _ in range(rng.randint(1, 5))))
        b = power(seed_word, permutation_order(seed_word))
        assert permutation(b).is_identity()
        assert braid_invariants(b).charpoly == pure3_charpoly_oracle(b)
        count += 1


def test_pure3_constant_term_iff_all_pairs_cross():
    # the family word on 3 strands never crosses strands 2 and 3 twice
    assert pure3_charpoly_oracle(family_bm(3)).coefficient(0) == 0
    ft = parse_word("1,2,1,2,1,2", 3)
    assert pure3_charpoly_oracle(ft).coefficient(0) != 0


def test_braid_system_validation():
    with pytest.raises(ValueError):
        BraidSystem(3, ())
    with pytest.raises(ValueError):
        BraidSystem(3, (BraidWord(4, (1,)),))


def test_system_invariants_reference_pair():
    bvec = BraidSystem.from_texts(4, ["1,2,-3", "3", "-2", "-1"])
    rep = system_invariants(bvec)
    assert [str(p) for p in rep.charpoly_multiset] == [
        "x^4 - x^2", "x^4 - x^2", "x^4 - x^2", "x^4 - 2x^2 + 1"]
    assert rep.charpoly_product.coeffs == (0, 0, 0, 0, 0, 0, -1, 0, 5, 0, -10, 0, 10, 0, -5, 0, 1)
    assert rep.trace_is_identity
    assert rep.perm_monodromy_order == 24
    assert rep.exponent_sums == (-1, -1, 1, 1)
    assert rep.charpoly_product.coefficient(15) == 0
    assert rep.degree_plus_length_mod3 == 2


def test_system_essential_cores():
    bpvec = BraidSystem.from_texts(4, ["1,-2,3", "-3", "2", "-1"])
    cvec = BraidSystem.from_texts(4, ["1,-2,3", "-3,2,-1"])
    assert system_invariants(bpvec).essential.core == IntPolynomial((3, 1))
    assert system_invariants(cvec).essential.core == IntPolynomial((-9, 0, 1))


def test_product_top_coefficient_vanishes():
    rng = random.Random(34)
    for _ in range(20):
        m = rng.randint(2, 5)
        n = rng.randint(1, 4)
        s = BraidSystem(m, tuple(random_word(rng, m, 6) for _ in range(n)))
        rep = system_invariants(s)
        assert rep.charpoly_product.degree == m * n
        assert rep.charpoly_product.coefficient(m * n - 1) == 0


def test_permutation_group_order():
    assert permutation_group_order([]) == 1
    assert permutation_group_order([Permutation((2, 1, 3))]) == 2
    gens = [permutation(parse_word(t, 4)) for t in ("1", "2", "3")]
    assert permutation_group_order(gens) == 24


def test_permutation_group_order_rejects_mixed_degrees():
    with pytest.raises(ValueError, match="one degree"):
        permutation_group_order([Permutation((2, 1)), Permutation((1, 3, 2))])


def _random_generating_set(rng: random.Random) -> list[Permutation]:
    """Generators of degree 2..7, drawn so that small, intransitive and
    imprimitive groups are common, with repeats and the identity mixed in."""
    m = rng.randint(2, 7)
    kind = rng.randrange(3)
    if kind == 0:  # random permutations: mostly S_m or A_m
        n = rng.randint(1, 2)
        gens = [rng.sample(range(1, m + 1), m) for _ in range(n)]
    elif kind == 1:  # intransitive (blocks of any size kept) or imprimitive (equal blocks moved)
        points = rng.sample(range(1, m + 1), m)
        if rng.random() < 0.5:
            cuts = sorted(rng.sample(range(1, m), rng.randint(0, m // 2)))
            blocks = [points[a:b] for a, b in zip([0] + cuts, cuts + [m])]
        else:
            size = rng.choice([d for d in range(1, m + 1) if m % d == 0])
            blocks = [points[i : i + size] for i in range(0, m, size)]
        same_size = len(set(map(len, blocks))) == 1
        gens = []
        for _ in range(rng.randint(1, 3)):
            targets = rng.sample(blocks, len(blocks)) if same_size else blocks
            img = [0] * m
            for block, target in zip(blocks, targets):
                for src, dst in zip(block, rng.sample(target, len(target))):
                    img[src - 1] = dst
            gens.append(img)
    else:  # powers of one permutation: a cyclic group
        g = Permutation(tuple(rng.sample(range(1, m + 1), m)))
        gens, p = [], g
        for _ in range(rng.randint(1, 3)):
            p = p.then(g) if rng.random() < 0.5 else p
            gens.append(list(p.images))
    gens = [Permutation(tuple(g)) for g in gens]
    if rng.random() < 0.3:
        gens.append(Permutation(tuple(range(1, m + 1))))
    if rng.random() < 0.3:
        gens.append(rng.choice(gens))
    rng.shuffle(gens)
    return gens


def test_permutation_group_order_matches_bfs_oracle():
    rng = random.Random(4)
    for _ in range(400):
        gens = _random_generating_set(rng)
        assert permutation_group_order(gens) == group_order_bfs([g.images for g in gens]), gens


def _cycle(m, points):
    img = list(range(1, m + 1))
    for a, b in zip(points, points[1:] + points[:1]):
        img[a - 1] = b
    return Permutation(tuple(img))


@pytest.mark.parametrize("m", range(1, 17))
def test_permutation_group_order_closed_forms(m):
    identity = Permutation(tuple(range(1, m + 1)))
    rotation = _cycle(m, list(range(1, m + 1)))
    assert permutation_group_order([identity]) == 1
    assert permutation_group_order([rotation]) == m  # C_m
    if m >= 2:
        swap = _cycle(m, [1, 2])
        assert permutation_group_order([swap, rotation]) == math.factorial(m)
        adjacent = [_cycle(m, [i, i + 1]) for i in range(1, m)]
        assert permutation_group_order(adjacent) == math.factorial(m)
    if m >= 3:
        three_cycles = [_cycle(m, [1, 2, k]) for k in range(3, m + 1)]
        assert permutation_group_order(three_cycles) == math.factorial(m) // 2  # A_m
        reflection = Permutation(tuple(range(m, 0, -1)))
        assert permutation_group_order([rotation, reflection]) == 2 * m  # D_m


def test_system_invariants_full_symmetric_monodromy_at_degree_12():
    # the 11 Artin generators: monodromy S_12, far past what listing the group allows
    s = BraidSystem.from_texts(12, [str(i) for i in range(1, 12)])
    assert system_invariants(s).perm_monodromy_order == 479001600


def test_report_json_roundtrips():
    rep = braid_invariants(parse_word("1,2,-3", 4))
    assert BraidInvariantReport.from_json(rep.to_json()) == rep
    sys_rep = system_invariants(BraidSystem.from_texts(3, ["1,2", "-1"]))
    assert SystemInvariantReport.from_json(sys_rep.to_json()) == sys_rep


@pytest.mark.parametrize("left, right, verdict", [
    # the second is the first after H 1 + / H 3 -
    (["1,2,-3", "3", "-2", "-1"],
     ["3", "-1,-2,-3,-1,-2,-1,2,1,3,2,1,1,2", "-1,-2,-3,-1,3,2,2", "-2"],
     "indistinguishable_by_invariants"),
    (["1,2,-3", "3", "-2", "-1"], ["1,-2,3", "-3", "2", "-1"],
     "distinguished_by:charpoly_product"),
    (["1,-2,3", "-3", "2", "-1"], ["1,-2,3", "-3,2,-1"], "euler_necessary"),
])
def test_comparison_json_roundtrips(left, right, verdict):
    c = compare_systems(BraidSystem.from_texts(4, left), BraidSystem.from_texts(4, right))
    assert c.verdict == verdict
    assert SystemComparison.from_json(c.to_json()) == c


def test_system_from_texts_and_json():
    s = BraidSystem.from_texts(4, ["1,2,-3", "3"])
    back = BraidSystem.from_json(s.to_json())
    assert all(braids_equal(a, b) for a, b in zip(s.components, back.components))
    assert [exponent_sum(c) for c in s.components] == [1, 1]
