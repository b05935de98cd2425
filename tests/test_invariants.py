import dataclasses
import hashlib
import json
import math
import random
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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
from braidsys import braids, cli, crossing, intlinalg, invariants
from braidsys.braids import BraidWord, NormalForm, Permutation, _nf_product, inverse
from braidsys.crossing import _pure_power_orbits
from braidsys.intlinalg import factored_str, split_integer_roots

from oracles import (
    charpoly_berkowitz,
    cycle_type_words,
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


@settings(max_examples=80, deadline=None)
@given(cycle_type_words(max_degree=20), st.integers(-3, 3))
@example(BraidWord(16, tuple(range(1, 16))), 0)  # one 16-cycle: phi(16) = 8
@example(BraidWord(16, tuple(range(1, 9)) + (10, 11, 12, 13, 14, 15) + (9, 9)), -2)  # cycles of 9 and 7
@example(BraidWord(20, tuple(range(1, 12)) + tuple(range(13, 20)) + (-12, -12)), 3)  # 12 and 8
def test_report_fields_match_the_literal_power_on_long_cycles(w, shift):
    # every report field, from the orbits of the form with its infimum
    # shifted, against the matrix of the literal power of that form's word:
    # its Berkowitz charpoly, Bareiss determinant and rank, multisets, and
    # the roots of a scan within its largest absolute row sum
    nf = normal_form(w)
    form = NormalForm(w.degree, nf.infimum + shift, nf.factors)
    r, M = pure_power_matrix_literal(form.to_word())
    cp = charpoly_berkowitz(M)
    roots, _ = integer_roots_scan(cp, max(sum(map(abs, row)) for row in M.entries))
    assert invariants._report_for_normal_form(form) == BraidInvariantReport(
        degree=w.degree, r=r, charpoly=cp, determinant=determinant(M), rank=rank(M),
        S=M.entry_multiset(), S_rows=M.row_multisets(), S_cols=M.col_multisets(),
        integer_eigenvalues=roots, normal_form=form,
    )


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


def test_braid_system_holds_immutable_typed_values():
    w = BraidWord(4, (1, -3))
    # any iterable is stored as a tuple: the system cannot change under its
    # forms, and it hashes
    listed = [w, w]
    s = BraidSystem(4, listed)
    listed.append(BraidWord(4, (2,)))
    assert s.components == (w, w) and s == BraidSystem(4, (w, w))
    assert hash(s) == hash(BraidSystem(4, iter((w, w))))
    for degree in (4.0, True, "4", None):
        with pytest.raises(TypeError, match=rf"^system degree {re.escape(repr(degree))} is a "
                                            rf"{type(degree).__name__}, not an int$"):
            BraidSystem(degree, (BraidWord(1),))
    for comp in ("1,2", (1, 2), normal_form(w)):
        with pytest.raises(TypeError, match=rf"^component {re.escape(repr(comp))} is a "
                                            rf"{type(comp).__name__}, not a BraidWord$"):
            BraidSystem(4, (w, comp))
    with pytest.raises(TypeError, match=r"^component '1' is a str, not a BraidWord$"):
        BraidSystem(4, "1,2")


def test_braid_system_forms_are_computed_once_and_are_no_field(monkeypatch):
    s = BraidSystem.from_texts(4, ["1,2,-3", "3", "-3,2,3"])
    calls = []
    real = braids.normal_form
    monkeypatch.setattr(braids, "normal_form", lambda b: calls.append(b) or real(b))
    forms = s.normal_forms()
    assert s.normal_forms() is forms and calls == list(s.components)
    assert forms == tuple(map(real, s.components))
    # equality, hashing, repr and the JSON encoding read the words alone
    fresh = BraidSystem(s.degree, s.components)
    assert fresh == s and hash(fresh) == hash(s) and repr(fresh) == repr(s)
    assert fresh.to_json() == s.to_json()
    assert [f.name for f in dataclasses.fields(BraidSystem)] == ["degree", "components"]


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
        trace = _nf_product(NormalForm(m, 0, ()), *s.normal_forms())
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


def test_system_invariants_reject_an_empty_system():
    with pytest.raises(ValueError, match="^a braid system needs at least one component$"):
        system_invariants_from_normal_forms(4, ())


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
    # the trivial group on no points and on one point
    assert permutation_group_order([Permutation(())]) == 1 == Permutation(()).order()
    assert permutation_group_order([Permutation((1,))]) == 1
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


def _order_by_recognition(perms) -> int:
    """The uncached `_group_order_cached`: recognition, then Schreier-Sims."""
    return invariants._group_order_cached.__wrapped__(tuple(sorted({p.images for p in perms})))


def _order_by_schreier_sims(perms) -> int:
    return invariants._schreier_sims_order([tuple(v - 1 for v in p.images) for p in perms])


def _recognised(perms) -> bool:
    return invariants._symmetric_order([tuple(v - 1 for v in p.images) for p in perms]) is not None


def _full_or_transpositions(rng: random.Random, m: int) -> list[Permutation]:
    """1-4 generators of degree m, each a random permutation or a product
    of 1-4 random transpositions."""
    gens = []
    for _ in range(rng.randint(1, 4)):
        if m < 2 or rng.random() < 0.5:
            gens.append(Permutation(tuple(rng.sample(range(1, m + 1), m))))
        else:
            g = Permutation(tuple(range(1, m + 1)))
            for _ in range(rng.randint(1, 4)):
                g = g.then(_cycle(m, rng.sample(range(1, m + 1), 2)))
            gens.append(g)
    return gens


def _check_recognition(rng: random.Random, sets: int, degrees: range, oracle) -> tuple[int, int]:
    """Checks that orders of random `_full_or_transpositions` sets equal the
    oracle's; returns how many sets generate S_n or A_n, and how many are
    recognised."""
    full = recognised = 0
    for _ in range(sets):
        m = rng.choice(degrees)
        gens = _full_or_transpositions(rng, m)
        order = oracle(gens)
        assert _order_by_recognition(gens) == order, gens
        full += order in (math.factorial(m), math.factorial(m) // 2)
        recognised += _recognised(gens)
    return full, recognised


def test_recognition_matches_schreier_sims_at_degrees_9_to_40():
    full, recognised = _check_recognition(random.Random(39), 80, range(9, 41), _order_by_schreier_sims)
    assert recognised >= 0.8 * full >= 24


def test_recognition_matches_the_bfs_oracle_at_degrees_1_to_7():
    # below degree 8 a lone 5- or 7-cycle is too long for Jordan's theorem
    full, recognised = _check_recognition(random.Random(40), 300, range(1, 8),
                                          lambda gens: group_order_bfs([g.images for g in gens]))
    assert recognised >= 0.6 * full >= 90


@pytest.mark.parametrize("images, order, recognised", [
    ([(1,)], 1, False),
    ([(1, 2)], 1, False),
    ([(2, 1)], 2, True),  # S_2: one 2-cycle
    ([(1, 2, 3)], 1, False),
    ([(2, 1, 3)], 2, False),  # intransitive
    ([(2, 3, 1)], 3, True),  # A_3: one 3-cycle
    ([(2, 3, 1), (2, 1, 3)], 6, True),
    ([(3, 2, 1), (1, 3, 2)], 6, True),
])
def test_recognition_at_degrees_1_to_3(images, order, recognised):
    gens = [Permutation(p) for p in images]
    assert _order_by_recognition(gens) == group_order_bfs(images) == order
    assert _recognised(gens) == recognised


def _three_letter_system(m: int) -> BraidSystem:
    """2m random 3-letter words of degree m, seed 5: full S_m monodromy."""
    rng = random.Random(5)
    words = [",".join(str(rng.choice((1, -1)) * rng.randint(1, m - 1)) for _ in range(3))
             for _ in range(2 * m)]
    return BraidSystem.from_texts(m, words)


def test_schreier_sims_runs_only_when_recognition_fails(monkeypatch):
    runs = []
    schreier_sims = invariants._schreier_sims_order
    monkeypatch.setattr(invariants, "_schreier_sims_order", lambda gens: runs.append(gens) or schreier_sims(gens))
    artin = [_cycle(12, [i, i + 1]) for i in range(1, 12)]
    # each component is three transpositions, so odd, and the group is S_64
    system = [permutation(c) for c in _three_letter_system(64).components]
    three_cycles = [_cycle(9, [1, 2, k]) for k in range(3, 10)]
    assert _order_by_recognition(artin) == math.factorial(12)
    assert _order_by_recognition(system) == math.factorial(64)
    assert _order_by_recognition(three_cycles) == math.factorial(9) // 2
    assert runs == []
    # each breaks one condition: S_2 wr S_4 holds (1 2) but keeps the blocks
    # {1, 2}, {3, 4}, ...; AGL(1, 7) is primitive, but its only lone prime
    # cycle is a 7-cycle, and 7 > 7 - 3; (1 2) with (4 5 6) is intransitive;
    # D_8 has no lone prime cycle
    wreath = [_cycle(8, [1, 2]), _cycle(8, [1, 3, 5, 7]).then(_cycle(8, [2, 4, 6, 8])),
              _cycle(8, [1, 3]).then(_cycle(8, [2, 4]))]
    agl = [_cycle(7, list(range(1, 8)))] + [
        Permutation(tuple(a * x % 7 + 1 for x in range(7))) for a in range(2, 7)]
    intransitive = [_cycle(6, [1, 2]), _cycle(6, [4, 5, 6])]
    dihedral = [_cycle(8, list(range(1, 9))), Permutation(tuple(range(8, 0, -1)))]
    for gens, order in ((wreath, 2**4 * 24), (agl, 42), (intransitive, 6), (dihedral, 16)):
        runs.clear()
        assert _order_by_recognition(gens) == order
        assert len(runs) == 1


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
    product = braids._nf_product
    monkeypatch.setattr(braids, "_nf_product", lambda *nfs: combed.append(nfs) or product(*nfs))
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
    # the report splits each factor of each nonzero block of its pure-power
    # matrix once, divided by the gcd of the block's entries, and keeps the
    # joined split with the charpoly; the integer eigenvalues, the factored
    # rendering, the cofactor and the roots all read it.  Linear and
    # quadratic factors need no divisor scan
    split, scanned = [], []
    split_factor, split_roots = intlinalg._split_factor, intlinalg._split_roots
    monkeypatch.setattr(intlinalg, "_split_factor", lambda c: split.append(list(c)) or split_factor(c))
    monkeypatch.setattr(intlinalg, "_split_roots", lambda p: scanned.append(p) or split_roots(p))
    invariants._report_for_normal_form.cache_clear()
    rep = braid_invariants(parse_word("1,1,-3,-3,-3,-3,5", 7))
    # three 2x2 blocks (entries 2, -4 and 1) and the zero block of strand 7:
    # the fixed strands 1, 2 and 3, 4 give A_1 = [[0, +-1], [+-1, 0]] and
    # x^2 - 1, the 2-cycle of strands 5, 6 gives x - 1 at d = 1 and x + 1 at d = 2
    _, cycles, orbits, _, _ = _pure_power_orbits(rep.normal_form)
    blocks = intlinalg._orbit_blocks(list(map(len, cycles)), orbits)
    assert [sum(lengths) for _, lengths, _ in blocks] == [2, 2, 2, 1]
    assert split == [[-1, 0, 1], [-1, 0, 1], [-1, 1], [1, 1]] and scanned == []
    text = factored_str(rep.charpoly)
    assert split_integer_roots(rep.charpoly)[0] == integer_roots(rep.charpoly) == rep.integer_eigenvalues
    assert len(split) == 4 and scanned == [] and text == "x (x+1) (x-1) (x+4) (x+2) (x-2) (x-4)"
    assert text == factored_str(IntPolynomial(rep.charpoly.coeffs))


def _pinned_report_words():
    """1,000 seeded words of degree 1-64: a third random words of up to 2m
    letters, the rest Delta^d times a random word, d in -3..3 but not 0, of
    up to m letters or of up to 3, so that many forms have d > 0 or -d > k."""
    rng = random.Random(36)
    words = []
    for i in range(1000):
        m = rng.randint(1, 64)
        if m < 2 or i % 3 == 0:
            words.append(random_word(rng, m, 2 * m))
        else:
            d = rng.choice((-3, -2, -1, 1, 2, 3))
            words.append(delta_power_word(m, d, random_word(rng, m, m if i % 3 == 1 else 3).letters))
    return words


def _report_digest(reports) -> tuple[dict[str, int], str]:
    """(how many forms have d > 0 and -d > k, one sha256 over every report's
    JSON and factored charpoly): any change to a report's bytes, of any
    field, changes it."""
    digest = hashlib.sha256()
    kinds = {"d > 0": 0, "-d > k": 0}
    for rep in reports:
        nf = rep.normal_form
        kinds["d > 0"] += nf.infimum > 0
        kinds["-d > k"] += -nf.infimum > len(nf.factors)
        digest.update(json.dumps(rep.to_json(), sort_keys=True).encode())
        digest.update(factored_str(rep.charpoly).encode())
    return kinds, digest.hexdigest()


# Taken before the charpoly was split factor by factor, the crossing counts
# kept sparse and a word's report read off the word; each left every byte alone
_PINNED_DIGEST = ({"d > 0": 222, "-d > k": 234},
                  "9a9010e15f5829a9f13fd8ed4399236b80ef563edf912137016598294ad26510")


def test_report_digest_is_pinned():
    # the reports of the words, each swept as it is
    invariants._report_for_normal_form.cache_clear()
    assert _report_digest(map(braid_invariants, _pinned_report_words())) == _PINNED_DIGEST


def test_form_report_digest_is_pinned():
    # the reports of the same words' normal forms, with no word to sweep:
    # the short mixed word and the closed form of the half twists left over
    forms = [normal_form(w) for w in _pinned_report_words()]
    invariants._report_for_normal_form.cache_clear()
    assert _report_digest(map(invariants._report_for_normal_form, forms)) == _PINNED_DIGEST


def _pinned_systems():
    """131 seeded systems: one of each degree 1-16 and length 1-8, then three
    of degree 32 and length 64.  A component is a random word of up to m
    letters or, one time in three, Delta^d times one of up to 3, d in -2..2,
    so that roots recur within a component and across components."""
    rng = random.Random(38)

    def component(m):
        if m < 2 or rng.randrange(3):
            return random_word(rng, m, m)
        return delta_power_word(m, rng.randint(-2, 2), random_word(rng, m, 3).letters)

    shapes = [(m, k) for m in range(1, 17) for k in range(1, 9)] + [(32, 64)] * 3
    return [BraidSystem(m, tuple(component(m) for _ in range(k))) for m, k in shapes]


# Taken before a system's charpoly product was multiplied out from its
# components' splits alone
_PINNED_SYSTEM_DIGEST = "ab977662a49b3ebb4d4365efb26e02851b99f61410e34e7d86a0be4a5a94de12"


def test_system_digest_is_pinned():
    # one sha256 over every system report's JSON, its factored charpoly
    # product and its essential roots as the CLI prints them
    invariants._report_for_normal_form.cache_clear()
    digest = hashlib.sha256()
    for s in _pinned_systems():
        rep = system_invariants(s)
        digest.update(json.dumps(rep.to_json(), sort_keys=True).encode())
        digest.update(factored_str(rep.charpoly_product).encode())
        digest.update(cli.essential_text(rep).encode())
    assert digest.hexdigest() == _PINNED_SYSTEM_DIGEST


@settings(max_examples=80, deadline=None)
@given(half_twist_words(max_degree=48))
@example(BraidWord(1))
@example(delta_power_word(9, 3, (2, 4, -6)))  # infimum d > 0
@example(delta_power_word(12, -3, (5,)))  # -d > k: half twists left over
def test_word_and_form_routes_give_equal_reports(w):
    # C(b) is a braid invariant, so a report built from a sweep of the word
    # equals one built from the normal form, field by field; both are built
    # afresh, past the cache
    nf = normal_form(w)
    build = invariants._report_for_normal_form.__wrapped__
    by_word, by_form = build(nf, w), build(nf)
    for f in dataclasses.fields(BraidInvariantReport):
        assert getattr(by_word, f.name) == getattr(by_form, f.name), f.name


def test_word_reports_reach_no_form_sweep_and_no_garside_inverse(monkeypatch):
    # braid_invariants and system_invariants read the crossing counts off the
    # words they are given: the form's mixed word and the Garside inverse
    # that spells it are left to reports of forms alone.  That inverse is the
    # codebook's of a prefix with a negative infimum; a word's normal form
    # inverts only single negative pieces, at infimum 0
    calls = {"_normal_form_entries": 0, "inverse": 0}

    def counted(name, fn, counts=lambda *args: True):
        def call(*args):
            calls[name] += counts(*args)
            return fn(*args)
        return call

    monkeypatch.setattr(crossing, "_normal_form_entries",
                        counted("_normal_form_entries", crossing._normal_form_entries))
    monkeypatch.setattr(braids._Codebook, "inverse",
                        counted("inverse", braids._Codebook.inverse, lambda book, x: x[0] < 0))
    rng = random.Random(37)
    words = [random_word(rng, 12, 24) for _ in range(20)]
    words += [delta_power_word(12, d, random_word(rng, 12, 3).letters) for d in (-3, -1, 2)]
    forms = [normal_form(w) for w in words]
    assert any(nf.infimum < 0 for nf in forms) and any(nf.infimum > 0 for nf in forms)
    report = invariants._report_for_normal_form
    for build in (lambda: [braid_invariants(w) for w in words],
                  lambda: system_invariants(BraidSystem(12, tuple(words)))):
        report.cache_clear()
        build()
        assert report.cache_info().misses == len(set(forms))
        assert calls == {"_normal_form_entries": 0, "inverse": 0}
    # the counters count on the form route
    report.cache_clear()
    system_invariants_from_normal_forms(12, tuple(forms))
    assert calls["_normal_form_entries"] == len(set(forms)) and calls["inverse"] > 0


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


def test_degree_512_system_renders_its_product_with_no_divisor_scan(monkeypatch):
    # the system of the seed-7 word of README, "CLI", and the word 1: its
    # product carries the components' kept splits joined, so neither P nor
    # E scans it for roots (each scan of the whole product took about 12 s)
    rng = random.Random(7)
    m = 512
    word = BraidWord(m, tuple(rng.choice((1, -1)) * rng.randint(1, m - 1) for _ in range(2 * m)))
    rep = system_invariants(BraidSystem(m, (word, BraidWord(m, (1,)))))
    split = []
    split_roots = intlinalg._split_roots
    monkeypatch.setattr(intlinalg, "_split_roots", lambda p: split.append(p) or split_roots(p))
    product, essential = factored_str(rep.charpoly_product), cli.essential_text(rep)
    assert split == []
    assert product.startswith("x^598 (x+1) (x-1) (x+720720)^2 (x+540540) ")
    assert essential.startswith("{-720720, -720720, -540540, ") and " plus roots of (x^216 - " in essential
    roots, rest = split_integer_roots(rep.charpoly_product)
    assert all(rep.charpoly_product(r) == 0 for r, _ in roots) and rest.degree == 216


def _essential_text_of_the_core(rep) -> str:
    # the rendering of E from a divisor scan of the essential core itself
    roots, rest = split_integer_roots(IntPolynomial(rep.essential.core.coeffs))
    body = "{" + ", ".join(str(root) for root, mult in roots for _ in range(mult)) + "}"
    return body + (f" plus roots of ({rest})" if rest.degree > 0 else "")


@st.composite
def small_systems(draw):
    """(m, component forms) for m <= 16: random words, each form's
    infimum shifted by up to three half twists."""
    m = draw(st.integers(1, 16))
    letters = st.lists(st.integers(1 - m, m - 1).filter(bool), max_size=2 * m if m > 1 else 0)
    nfs = []
    for _ in range(draw(st.integers(1, 4))):
        nf = normal_form(BraidWord(m, tuple(draw(letters))))
        shift = draw(st.integers(-3, 3)) if m > 1 else 0
        nfs.append(NormalForm(m, nf.infimum + shift, nf.factors))
    return m, tuple(nfs)


@settings(max_examples=60, deadline=None)
@given(small_systems())
@example((1, (NormalForm(1, 0, ()),)))
@example((4, tuple(map(normal_form, BraidSystem.from_texts(4, ["1,2,-3", "3", "-2", "-1"]).components))))
@example((4, tuple(map(normal_form, BraidSystem.from_texts(4, ["1,-2,3", "-3,2,-1"]).components))))
@example((6, (NormalForm(6, 2, ()), normal_form(parse_word("1,1,1,3,-5,-5", 6)))))
def test_system_product_split_is_its_divisor_scan(system):
    # the product's kept split, joined from the components' splits, against
    # a fresh scan of the product, and E against a scan of the core
    m, nfs = system
    rep = system_invariants_from_normal_forms(m, nfs)
    prod = rep.charpoly_product
    roots, rest = intlinalg._split_roots(IntPolynomial(prod.coeffs))
    assert split_integer_roots(prod) == (roots, IntPolynomial(tuple(rest)))
    assert cli.essential_text(rep) == _essential_text_of_the_core(rep)


def test_system_from_texts_and_json():
    s = BraidSystem.from_texts(4, ["1,2,-3", "3"])
    back = BraidSystem.from_json(s.to_json())
    assert all(braids_equal(a, b) for a, b in zip(s.components, back.components))
    assert [exponent_sum(c) for c in s.components] == [1, 1]
