import math
import random
import re

import pytest
from hypothesis import example, given, settings

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
    integer_roots,
    iota,
    normal_form,
    parse_word,
    permutation,
    permutation_group_order,
    pure3_charpoly_oracle,
    pure_power_matrix,
    rank,
    system_invariants,
    system_invariants_from_normal_forms,
)
from braidsys import intlinalg, invariants
from braidsys.braids import BraidWord, NormalForm, Permutation, inverse
from braidsys.crossing import _pure_power_blocks
from braidsys.intlinalg import factored_str, split_integer_roots
from braidsys.invariants import _trace

from oracles import (
    charpoly_berkowitz,
    delta_power_word,
    group_order_bfs,
    half_twist_words,
    integer_roots_scan,
    odd_infimum_word,
    pure_power_matrix_literal,
    random_word,
)


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


@settings(max_examples=60, deadline=None)
@given(half_twist_words())
@example(delta_power_word(8, -1))
@example(delta_power_word(8, 3, (2, 4, 6)))
def test_report_fields_match_the_literal_power(w):
    # every field, from the matrix of the literal r-fold word
    r, M = pure_power_matrix_literal(w)
    cp = charpoly_berkowitz(M)
    rep = braid_invariants(w)
    assert (rep.degree, rep.r, rep.charpoly) == (w.degree, r, cp)
    assert (rep.determinant, rep.rank) == (determinant(M), rank(M))
    assert (rep.S, rep.S_rows, rep.S_cols) == (M.entry_multiset(), M.row_multisets(),
                                               M.col_multisets())
    assert rep.integer_eigenvalues == integer_roots(cp)
    assert rep.normal_form == normal_form(w)


def test_conjugation_invariance_of_reports():
    rng = random.Random(31)
    for _ in range(40):
        m = rng.randint(2, 6)
        b = random_word(rng, m, 10)
        a = random_word(rng, m, 6)
        rb = braid_invariants(b)
        rc = braid_invariants(conjugate(b, a))
        assert rb.conjugacy_fields() == rc.conjugacy_fields()


def test_field_tuples_are_every_field_but_the_forms():
    rb = braid_invariants(parse_word("1,2,-3,2", 4))
    assert rb.conjugacy_fields() == (rb.degree, rb.r, rb.charpoly, rb.determinant, rb.rank,
                                     rb.S, rb.S_rows, rb.S_cols, rb.integer_eigenvalues)
    rs = system_invariants(BraidSystem.from_texts(4, ["1,2,-3", "3", "-2", "-1"]))
    assert rs.hurwitz_fields() == (rs.degree, rs.length, rs.charpoly_product, rs.charpoly_multiset,
                                   rs.essential, rs.trace_is_identity, rs.perm_monodromy_order,
                                   rs.exponent_sums, rs.degree_plus_length_mod3)


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


@pytest.mark.parametrize("m, k, message", [
    (2, 0, "family needs m > 2, got 2"),
    (1, 0, "family needs m > 2, got 1"),
    (0, 0, "family needs m > 2, got 0"),
    (-3, 0, "family needs m > 2, got -3"),
    (2, 3, "family needs m > 2, got 2"),
    (4, -1, "k must be >= 0, got -1"),
    (3, -2, "k must be >= 0, got -2"),
    (2, -1, "k must be >= 0, got -1"),  # k is checked first
    (0, -5, "k must be >= 0, got -5"),
])
def test_bmk_family_and_its_closed_form_reject_the_same_arguments(m, k, message):
    for family in (family_bmk, family_bmk_charpoly):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            family(m, k)
    if k == 0:
        for family in (family_bm, family_bm_charpoly):
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                family(m)


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


def test_trace_matches_the_normal_form_of_the_trace_product():
    # 1 to 12 components; degrees 2 to 5 comb int codes, 6 to 9 image
    # tuples; every third system ends in the inverse of the product before
    # it, so its trace is the identity
    rng = random.Random(83)
    identities = 0
    for t in range(300):
        m, closed = rng.randint(2, 9), t % 3 == 0
        words = [random_word(rng, m, 2 * m) for _ in range(rng.randint(1, 12) - closed)]
        if closed:
            words.append(inverse(BraidWord(m, tuple(k for w in words for k in w.letters))))
        s = BraidSystem(m, tuple(words))
        trace = _trace(m, s.normal_forms())
        assert trace == normal_form(s.trace_product())
        identities += trace.is_identity()
    assert 100 <= identities < 200


@pytest.mark.parametrize("degree, nf", [
    (4, NormalForm(3, 1, ())),
    (4, normal_form(parse_word("1,-2", 3))),
    (6, normal_form(parse_word("1,-2,5", 7))),
    (7, NormalForm(6, -1, ())),
], ids=["half-twist", "codes", "tuples", "tuple-half-twist"])
def test_system_invariants_reject_a_form_of_another_degree(degree, nf):
    nfs = (normal_form(parse_word("1", degree)), nf, nf.inverse())
    with pytest.raises(ValueError, match=rf"^degree mismatch: {degree} vs {nf.degree}$"):
        system_invariants_from_normal_forms(degree, nfs)


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


@pytest.mark.parametrize("m", [*range(1, 17), 17, 19, 23, 24, 29, 31, 32])
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
    pairs = [_cycle(2 * m, [i, i + 1]) for i in range(1, 2 * m, 2)]
    assert permutation_group_order(pairs) == 2**m  # m disjoint transpositions
    if m % 2 == 0:
        k = m // 2
        # (1 2), the block cycle (1 3 .. m-1)(2 4 .. m) and the block swap (1 3)(2 4)
        wreath = [_cycle(m, [1, 2]),
                  _cycle(m, list(range(1, m, 2))).then(_cycle(m, list(range(2, m + 1, 2))))]
        if k > 1:
            wreath.append(_cycle(m, [1, 3]).then(_cycle(m, [2, 4])))
        assert permutation_group_order(wreath) == 2**k * math.factorial(k)  # S_2 wr S_k
    if m > 1 and all(m % d for d in range(2, m)):
        # AGL(1, p): x -> x + 1 and every x -> a x on the points 0..p-1
        scalings = [Permutation(tuple(a * x % m + 1 for x in range(m))) for a in range(1, m)]
        assert permutation_group_order([rotation, *scalings]) == m * (m - 1)


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


def test_compare_combs_each_system_trace_once(monkeypatch):
    combed = []
    trace = invariants._trace
    monkeypatch.setattr(invariants, "_trace", lambda m, nfs: combed.append(m) or trace(m, nfs))
    s1 = BraidSystem.from_texts(4, ["1,2,-3", "3", "-2", "1"])
    s2 = BraidSystem.from_texts(4, ["1,-2,3", "-3", "2", "-1"])
    c = compare_systems(s1, s2)
    assert len(combed) == 2
    assert c.invariants[0].left == normal_form(s1.trace_product()).to_word().to_text()
    # a report decoded from JSON combs its trace when it is first asked for
    rep = system_invariants(s1)
    back = SystemInvariantReport.from_json(rep.to_json())
    assert back == rep and back._trace_form == rep._trace_form


def test_one_report_splits_each_block_once_and_its_rendering_none(monkeypatch):
    # the report splits each nonzero block of its pure-power matrix once,
    # divided by the gcd of its entries, and keeps the joined split with the
    # charpoly; the integer eigenvalues, the factored rendering, the cofactor
    # and the roots all read it
    split = []
    split_roots = intlinalg._split_roots
    monkeypatch.setattr(intlinalg, "_split_roots", lambda p: split.append(p) or split_roots(p))
    invariants._report_for_normal_form.cache_clear()
    rep = braid_invariants(parse_word("1,1,-3,-3,-3,-3,5", 7))
    # three 2x2 blocks (entries 2, -4 and 1) and the zero block of strand 7
    assert [len(b) for b in _pure_power_blocks(rep.normal_form)[1]] == [2, 2, 2, 1]
    assert [p.coeffs for p in split] == [(-1, 0, 1)] * 3
    text = factored_str(rep.charpoly)
    assert split_integer_roots(rep.charpoly)[0] == integer_roots(rep.charpoly) == rep.integer_eigenvalues
    assert len(split) == 3 and text == "x (x+1) (x-1) (x+4) (x+2) (x-2) (x-4)"
    assert text == factored_str(IntPolynomial(rep.charpoly.coeffs))


@settings(max_examples=30, deadline=None)
@given(half_twist_words(max_degree=64))
@example(BraidWord(1))
@example(delta_power_word(9, 3, (2, 4, -6)))  # infimum d > 0
@example(delta_power_word(12, -3, (5,)))  # -d > k: half twists left over
@example(odd_infimum_word(random.Random(5), 40, 80))
@example(odd_infimum_word(random.Random(6), 64, 16))
def test_block_route_matches_the_dense_route(w):
    # the report reads its blocks, multisets and split off the orbits; the
    # dense route builds the whole matrix, takes its Berkowitz charpoly and
    # scans for roots within the largest absolute row sum, which bounds
    # every eigenvalue
    nf = normal_form(w)
    rep = invariants._report_for_normal_form(nf)
    r, M = pure_power_matrix(nf)
    cp = charpoly_berkowitz(M)
    roots, rest = integer_roots_scan(cp, max(sum(map(abs, row)) for row in M.entries))
    assert (rep.r, rep.charpoly) == (r, cp)
    assert (rep.S, rep.S_rows, rep.S_cols) == (M.entry_multiset(), M.row_multisets(),
                                               M.col_multisets())
    assert rep.integer_eigenvalues == roots and split_integer_roots(rep.charpoly) == (roots, rest)
    assert factored_str(rep.charpoly) == factored_str(IntPolynomial(cp.coeffs))


def test_degree_512_report_splits_its_charpoly_exactly():
    # the seed-7 word of README, "CLI", drawn as the `invariants` benchmark
    # draws its words: each block's entries share a large factor, which the
    # split divides out before its divisor scan
    rng = random.Random(7)
    m = 512
    rep = braid_invariants(BraidWord(m, tuple(rng.choice((1, -1)) * rng.randint(1, m - 1)
                                              for _ in range(2 * m))))
    roots, rest = split_integer_roots(rep.charpoly)
    assert rep.r == 360360 and roots == rep.integer_eigenvalues and rest.degree > 0
    assert IntPolynomial.from_roots([r for r, k in roots for _ in range(k)]) * rest == rep.charpoly
    assert all(rep.charpoly(r) == 0 for r, _ in roots)
    assert factored_str(rep.charpoly).startswith("x^88 (x+720720)^2 (x+540540) ")


def test_system_from_texts_and_json():
    s = BraidSystem.from_texts(4, ["1,2,-3", "3"])
    back = BraidSystem.from_json(s.to_json())
    assert all(braids_equal(a, b) for a, b in zip(s.components, back.components))
    assert [exponent_sum(c) for c in s.components] == [1, 1]
