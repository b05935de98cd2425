import itertools
import random

import pytest
from hypothesis import example, given, settings

from braidsys import (
    BraidWord,
    CrossingMatrix,
    conjugate,
    crossing_matrix,
    normal_form,
    parse_word,
    permutation_equivalent,
    power,
    pure_power_matrix,
)
from braidsys import braids, crossing
from braidsys.braids import _book
from braidsys.crossing import _normal_form_entries
from braidsys.invariants import family_weaving

from oracles import (
    bubble_normal_form,
    delta_power_word,
    half_twist_words,
    opposite_convention_matrix,
    permutation_equivalent_brute,
    pure_power_matrix_literal,
    random_word,
)


def test_empty_word_gives_zero_matrix():
    M = crossing_matrix(BraidWord(4))
    assert all(v == 0 for row in M.entries for v in row)


def test_example_pure_power_matrices():
    _, M = pure_power_matrix(parse_word("1,2,-3", 4))
    assert M.entries == ((0, 0, 1, 0), (0, 0, 0, 1), (1, 0, 0, 0), (0, 1, 0, 0))
    _, N = pure_power_matrix(parse_word("1,-2,3", 4))
    assert N.entries == ((0, 1, -1, 1), (1, 0, 1, -1), (-1, 1, 0, 1), (1, -1, 1, 0))
    assert permutation_equivalent(M, N) is None


def test_single_generator_pure_power():
    for m in (2, 4, 6):
        for i in range(1, m):
            r, M = pure_power_matrix(BraidWord(m, (i,)))
            assert r == 2
            expected = [[0] * m for _ in range(m)]
            expected[i - 1][i] = expected[i][i - 1] = 1
            assert M.entries == tuple(tuple(row) for row in expected)


def test_empty_word_pure_power():
    r, M = pure_power_matrix(BraidWord(3))
    assert r == 1
    assert all(v == 0 for row in M.entries for v in row)


def test_pure_power_matrix_matches_literal_power():
    rng = random.Random(21)
    # the empty word, and pure words (r = 1) on which the pair orbits are points
    words = [BraidWord(1), BraidWord(5), parse_word("1,1,-2,-2", 3), parse_word("1,2,2,1,3,3", 5)]
    words += [random_word(rng, rng.randint(1, 12), 24) for _ in range(300)]
    assert any(pure_power_matrix_literal(w)[0] == 1 for w in words[4:])
    for w in words:
        got = pure_power_matrix(w)
        # a pure power's matrix is symmetric: either convention gives it
        assert got[1].is_symmetric()
        for flipped in (False, True):
            assert got == pure_power_matrix_literal(w, flipped=flipped)


@settings(max_examples=150, deadline=None)
@given(half_twist_words())
# the identity, and each sign and parity of the infimum, alone and with letters
@example(BraidWord(7))
@example(delta_power_word(32, 1))
@example(delta_power_word(9, 2, (3, 5, 1)))
@example(delta_power_word(4, 3, (1, 2)))
@example(delta_power_word(6, -1))
@example(delta_power_word(12, -2))
@example(delta_power_word(24, -2, (7, 7, -20)))
@example(delta_power_word(5, -3, (-1, -2, 4)))
def test_normal_form_matrices_match_the_word_sweep(w):
    # Delta^d W: the closed form of the half twists plus the sweep of W,
    # against the sweep of the word itself and the literal power
    nf = normal_form(w)
    C = _normal_form_entries(nf)
    assert CrossingMatrix(w.degree, tuple(map(tuple, C))) == crossing_matrix(w)
    got = pure_power_matrix(nf)
    assert got[1].is_symmetric()
    for flipped in (False, True):
        assert got == pure_power_matrix_literal(w, flipped=flipped)


def test_normal_form_pure_powers_of_negative_infima():
    # Delta^d A_1 ... A_k with d < 0 sweeps the inverted complements of the
    # first t = min(-d, k) factors, each flipped or not by the parity of
    # t - j, then the rest; both cases of t occur with t >= 2, so with
    # both parities, and the half twists left over when k < -d
    rng = random.Random(45)
    seen = set()
    for _ in range(300):
        m = rng.randint(2, 10)
        w = delta_power_word(m, -rng.randint(1, 4), random_word(rng, m, 4 * m).letters)
        nf = normal_form(w)
        d, k = nf.infimum, nf.canonical_length
        if d < 0 and min(-d, k) >= 2:
            seen.add("t = k < -d" if k < -d else "t = -d <= k")
        C = _normal_form_entries(nf)
        assert CrossingMatrix(m, tuple(map(tuple, C))) == crossing_matrix(w)
        assert pure_power_matrix(nf) == pure_power_matrix_literal(w)
    assert seen == {"t = k < -d", "t = -d <= k"}


def test_every_garside_inverse_goes_through_the_codebook(monkeypatch):
    # The codebooks are built first and keep their own flip and complement;
    # past that, the word's negative pieces and the complements swept for a
    # negative infimum must come from _Codebook.inverse, not a second spelling.
    for m in range(1, 10):
        _book(m)

    def stub(*args):
        raise AssertionError("a Garside inverse spelled outside _Codebook.inverse")

    for module in (braids, crossing):
        for name in ("_tup_left_complement", "_tup_flip"):
            monkeypatch.setattr(module, name, stub, raising=False)
    rng = random.Random(24)
    negative = 0
    for _ in range(200):
        w = random_word(rng, rng.randint(2, 9), 12, min_len=1)
        nf = normal_form(w)
        assert nf == bubble_normal_form(w)
        assert pure_power_matrix(nf) == pure_power_matrix_literal(w)
        negative += nf.infimum < 0
    assert negative > 50


@pytest.mark.parametrize("w", [
    BraidWord(6),  # the identity: r = 1, no crossing
    parse_word("1,1,-3,-3,2,2", 5),  # pure: r = 1
    delta_power_word(7, 2),  # the full twist: identity permutation, every pair crossed twice
    delta_power_word(6, -2, (1, 1)),
    BraidWord(32, tuple(range(1, 32))),  # one 32-cycle: a single long orbit per pair
    BraidWord(31, tuple(k if k % 2 else -k for k in range(30, 0, -1))),
    delta_power_word(9, -1, tuple(range(8, 0, -1))),
])
def test_pure_power_matrix_at_extreme_cycle_types(w):
    want = pure_power_matrix_literal(w)
    assert pure_power_matrix(w) == pure_power_matrix(normal_form(w)) == want


def test_weaving_power_is_flat():
    for m in (3, 5, 7):
        M = crossing_matrix(power(family_weaving(m), m))
        assert all(v == 0 for row in M.entries for v in row)


def test_crossing_matrix_invariant_under_rewrites():
    rng = random.Random(11)
    for _ in range(80):
        m = rng.randint(2, 6)
        w = random_word(rng, m, 10)
        M = crossing_matrix(w)
        # free insertion
        pos = rng.randint(0, len(w.letters))
        g = rng.randint(1, m - 1)
        assert crossing_matrix(BraidWord(m, w.letters[:pos] + (g, -g) + w.letters[pos:])) == M
        # adjacent braid relation appended both ways cancels out
        if m >= 3:
            i = rng.randint(1, m - 2)
            lhs = BraidWord(m, w.letters + (i, i + 1, i, -i, -(i + 1), -i))
            assert crossing_matrix(lhs) == M


def test_equal_braids_equal_matrices():
    rng = random.Random(12)
    for _ in range(30):
        m = rng.randint(2, 5)
        w = random_word(rng, m, 8)
        from braidsys import canonical_word

        assert crossing_matrix(canonical_word(w)) == crossing_matrix(w)


def test_entry_sum_equals_exponent_sum():
    # each letter contributes its sign to exactly one entry
    from braidsys import exponent_sum

    rng = random.Random(17)
    for _ in range(60):
        w = random_word(rng, rng.randint(2, 6), 12)
        M = crossing_matrix(w)
        assert sum(v for row in M.entries for v in row) == exponent_sum(w)


def test_embedding_pads_with_zeros():
    from braidsys import iota

    rng = random.Random(18)
    for _ in range(30):
        w = random_word(rng, rng.randint(2, 5), 8)
        M = crossing_matrix(w)
        up = crossing_matrix(iota(w))
        assert up.size == M.size + 1
        assert all(up.entries[i][: M.size] == M.entries[i] for i in range(M.size))
        assert all(up.entries[i][M.size] == 0 for i in range(up.size))
        assert all(v == 0 for v in up.entries[M.size])


def test_pure_power_symmetry():
    rng = random.Random(13)
    for _ in range(60):
        _, M = pure_power_matrix(random_word(rng, rng.randint(2, 6), 10))
        assert M.is_symmetric()


def test_conjugation_gives_permutation_equivalent_matrices():
    rng = random.Random(14)
    for _ in range(40):
        m = rng.randint(2, 5)
        b = random_word(rng, m, 8, min_len=1)
        a = random_word(rng, m, 5)
        _, M = pure_power_matrix(b)
        _, N = pure_power_matrix(conjugate(b, a))
        assert permutation_equivalent(M, N) is not None


def test_permutation_equivalent_witness_examples():
    w = permutation_equivalent([[1, 2, 3], [4, 5, 6], [7, 8, 9]],
                               [[5, 4, 6], [2, 1, 3], [8, 7, 9]])
    assert w is not None and w.images == (2, 1, 3)
    M = [[0, 2], [1, 0]]
    ident = permutation_equivalent(M, M)
    assert ident is not None and ident.is_identity()


def test_permutation_equivalent_is_symmetric():
    rng = random.Random(15)
    for _ in range(40):
        n = rng.randint(2, 4)
        rows = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
        perm = list(range(n))
        rng.shuffle(perm)
        shuffled = [[rows[perm[i]][perm[j]] for j in range(n)] for i in range(n)]
        w = permutation_equivalent(rows, shuffled)
        assert w is not None
        back = permutation_equivalent(shuffled, rows)
        assert back is not None


def test_permutation_equivalent_matches_brute_force():
    # symmetric 0/1 matrices share signatures often, so the backtracking
    # search decides; half of the pairs are shuffled copies, which it must find
    rng = random.Random(16)

    def graph(n):
        rows = [[0] * n for _ in range(n)]
        for i, j in itertools.combinations(range(n), 2):
            rows[i][j] = rows[j][i] = rng.randint(0, 1)
        return rows

    for k in range(600):
        n = rng.randint(4, 7)
        M = graph(n)
        if k % 2:
            perm = rng.sample(range(n), n)
            N = [[M[perm[i]][perm[j]] for j in range(n)] for i in range(n)]
        else:
            N = graph(n)
        w = permutation_equivalent(M, N)
        assert (w is not None) == permutation_equivalent_brute(M, N), (M, N)
        if w is not None:
            p = [v - 1 for v in w.images]
            assert all(N[i][j] == M[p[i]][p[j]] for i in range(n) for j in range(n))


def test_prism_is_not_equivalent_to_k33():
    # both 3-regular on 6 vertices: every signature matches, and only the
    # search tells the triangular prism C_3 x K_2 from the bipartite K_3,3
    prism = [[int(i != j and (i // 3 == j // 3 or (i - j) % 3 == 0)) for j in range(6)]
             for i in range(6)]
    k33 = [[int(i // 3 != j // 3) for j in range(6)] for i in range(6)]
    assert all(sum(row) == 3 for row in prism + k33)
    assert permutation_equivalent(prism, k33) is None
    assert not permutation_equivalent_brute(prism, k33)


def test_permutation_equivalent_errors():
    with pytest.raises(ValueError):
        permutation_equivalent([[0]], [[0, 1], [1, 0]])


def test_flipped_convention_transposes():
    # the opposite over-strand rule, swept on its own, gives the transpose
    rng = random.Random(16)
    for _ in range(30):
        w = random_word(rng, rng.randint(2, 5), 8)
        assert opposite_convention_matrix(w) == crossing_matrix(w).transpose().entries
    # an asymmetric example actually differs between conventions
    b = parse_word("1,1,-2", 3)
    assert crossing_matrix(b).entries != opposite_convention_matrix(b)
    assert not crossing_matrix(b).is_symmetric()


def test_crossing_matrix_type_invariants():
    with pytest.raises(ValueError):
        CrossingMatrix(2, ((1, 0), (0, 0)))
    with pytest.raises(ValueError):
        CrossingMatrix(2, ((0, 0),))


@pytest.mark.parametrize("ij", [(0, 1), (1, 0), (-1, 2), (2, -1), (4, 1), (1, 4)])
def test_crossing_matrix_rejects_an_index_outside_1_to_size(ij):
    M = crossing_matrix(parse_word("1,1,-2", 3))
    assert [M[i, j] for i in (1, 2, 3) for j in (1, 2, 3)] == [v for row in M.entries for v in row]
    with pytest.raises(IndexError, match=r"^index \(-?\d, -?\d\) out of range 1\.\.3$"):
        M[ij]


def test_multiset_accessors():
    M = crossing_matrix(parse_word("1,1,-2", 3))
    assert M.entry_multiset() == (-1, 0, 0, 0, 0, 0, 0, 1, 1)
    assert M.row_multisets() == ((-1, 0, 0), (0, 0, 1), (0, 0, 1))
