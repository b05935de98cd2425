import ast
import functools
import itertools
import random
import re
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from braidsys import (
    BraidSystem,
    BraidWord,
    HurwitzMove,
    InvariantCheck,
    ReducedPolynomial,
    braids_equal,
    canonical_word,
    conjugate,
    exponent_sum,
    free_reduce,
    inverse,
    iota,
    is_identity,
    normal_form,
    parse_word,
    permutation,
    permutation_order,
    power,
    product,
    pure_power_matrix,
    system_invariants_from_normal_forms,
)
from braidsys import braids
from braidsys.braids import (
    NormalForm,
    Permutation,
    _UNFILLED,
    _Codebook,
    _book,
    _lw_fix,
    _lw_fix_dual,
    _permutation_letters,
    _tup_flip,
    _tup_left_complement,
)

from oracles import (
    _delta_letters,
    _pair_fix,
    bubble_form,
    bubble_normal_form,
    bubble_normalize,
    delta_power_word,
    flip_by_conjugation,
    half_twist_words,
    normal_form_letterwise,
    odd_infimum_word,
    permutation_letters_restart,
    random_word,
)


def test_parse_word_basics():
    w = parse_word("1, 1, -2", 3)
    assert w.letters == (1, 1, -2)
    assert parse_word("", 3).letters == ()
    assert parse_word("1, -2, 3", 4).letters == (1, -2, 3)
    assert parse_word("+3, 01 -02", 4).letters == (3, 1, -2)


@pytest.mark.parametrize("text", ["0", "3", "-3", "1, x"])
def test_parse_word_rejects_bad_tokens(text):
    with pytest.raises(ValueError):
        parse_word(text, 3)


@pytest.mark.parametrize("text", ["1_2", "\u0661", "1\u0662", "+-1", "1.0"])
def test_a_generator_token_is_ascii_digits_with_an_optional_sign(text):
    # int() alone reads "1_2" as 12, a typo for 1,2, and the Arabic-Indic "\u0661" as 1
    with pytest.raises(ValueError, match=f"^bad generator token {re.escape(repr(text))}$"):
        parse_word(text, 16)


def test_braid_word_validation():
    with pytest.raises(ValueError):
        BraidWord(0)
    with pytest.raises(ValueError):
        BraidWord(3, (3,))
    assert BraidWord(1).letters == ()


@pytest.mark.parametrize("degree, letters, message", [
    (4, (1, 0, 2), "letter 0 out of range for degree 4"),
    (4, (1, -2, 4), "letter 4 out of range for degree 4"),
    (4, (-4, 9), "letter -4 out of range for degree 4"),  # the first bad letter is named
    (1, (1,), "letter 1 out of range for degree 1"),
    (512, (511, -511, 512), "letter 512 out of range for degree 512"),
])
def test_braid_word_names_the_first_letter_out_of_range(degree, letters, message):
    with pytest.raises(ValueError, match=rf"^{message}$"):
        BraidWord(degree, letters)


@pytest.mark.parametrize("degree, letters, message", [
    # a float or a bool used to pass the check: the float failed deep in
    # `permutation`, and True stood for the letter or degree 1
    (4, (1.0,), "letter 1.0 is a float, not an int"),
    (4, (1, -2, True), "letter True is a bool, not an int"),
    (4, (2, "1"), "letter '1' is a str, not an int"),
    (4, (0, 1.5), "letter 0 out of range for degree 4"),  # the first bad letter is named
    (True, (), "degree True is a bool, not an int"),
    (4.0, (1,), "degree 4.0 is a float, not an int"),
    ("4", (), "degree '4' is a str, not an int"),
])
def test_braid_word_letters_and_degree_must_be_ints(degree, letters, message):
    error = ValueError if "range" in message else TypeError
    with pytest.raises(error, match=rf"^{re.escape(message)}$"):
        BraidWord(degree, letters)


@pytest.mark.parametrize("word, text", [(BraidWord(3), "<empty>"), (BraidWord(3, (1, -2)), "1,-2")])
def test_braid_word_str(word, text):
    assert str(word) == text


def test_permutation_examples():
    assert permutation(parse_word("1,1,-2", 3)).images == (1, 3, 2)
    assert permutation(parse_word("", 5)).is_identity()
    assert permutation(parse_word("1,2,-3", 4)).images == (4, 1, 2, 3)


@pytest.mark.parametrize("k", [0, -1, 4])
def test_permutation_rejects_a_point_outside_1_to_size(k):
    p = Permutation((2, 3, 1))
    assert [p(1), p(2), p(3)] == [2, 3, 1]
    with pytest.raises(IndexError, match=rf"^point {k} out of range 1\.\.3$"):
        p(k)


def test_permutation_is_homomorphism():
    rng = random.Random(5)
    for _ in range(50):
        m = rng.randint(2, 6)
        a, b = random_word(rng, m, 8), random_word(rng, m, 8)
        assert permutation(product(a, b)) == permutation(a).then(permutation(b))
    assert permutation(parse_word("2", 4)).images == (1, 3, 2, 4)


def test_permutation_order_examples():
    assert permutation_order(parse_word("1", 5)) == 2
    assert permutation_order(parse_word("1,2,-3", 4)) == 4
    assert permutation_order(parse_word("3,-1,4", 5)) == 6
    assert permutation_order(parse_word("", 3)) == 1


def test_one_cycle_walk_serves_both_bases():
    # each cycle from its least point, following the images, the cycles in
    # the order of those points; 1-based images give the same 0-based
    # cycles as their 0-based copy, and Permutation reads them back 1-based
    rng = random.Random(45)
    for m in [0, 1, 2, 3, *range(4, 40, 5)]:
        images = list(range(1, m + 1))
        rng.shuffle(images)
        p = Permutation(tuple(images))
        cycles = braids._tup_cycles(p.images)
        assert cycles == braids._tup_cycles(tuple(v - 1 for v in images), 0)
        assert sorted(k for c in cycles for k in c) == list(range(m))
        assert [c[0] for c in cycles] == sorted(min(c) for c in cycles)
        assert all(p(c[s] + 1) == c[(s + 1) % len(c)] + 1 for c in cycles for s in range(len(c)))
        assert p.cycles() == [[k + 1 for k in c] for c in cycles]
        assert p.cycle_count() == len(cycles)
        power, order = p, 1
        while not power.is_identity():
            power, order = power.then(p), order + 1
        assert p.order() == order


def test_group_operations():
    a = parse_word("1", 2)
    assert is_identity(product(a, inverse(a)))
    b = parse_word("1,2,-3", 4)
    p4 = power(b, 4)
    assert len(p4) == 12
    assert permutation(p4).is_identity()
    assert power(b, -2).letters == inverse(b).letters * 2


def test_conjugate_is_literal():
    b = parse_word("3,-1,4", 5)
    a = parse_word("2,2", 5)
    assert conjugate(b, a).letters == (-2, -2, 3, -1, 4, 2, 2)
    with pytest.raises(ValueError):
        conjugate(b, parse_word("1", 3))


def test_conjugate_example_pair():
    # the documented conjugate pair; a one-letter conjugator relates them
    b = parse_word("3,-1,4", 5)
    bp = parse_word("4,3,-1", 5)
    assert braids_equal(conjugate(b, parse_word("-4", 5)), bp)


def test_iota():
    w = parse_word("1,1,-2", 3)
    up = iota(w)
    assert up.degree == 4 and up.letters == w.letters
    assert iota(BraidWord(2)).degree == 3
    rng = random.Random(9)
    for _ in range(20):
        b = random_word(rng, rng.randint(2, 5), 8)
        assert permutation(iota(b))(b.degree + 1) == b.degree + 1


def test_braid_relations():
    assert braids_equal(parse_word("1,2,1", 3), parse_word("2,1,2", 3))
    assert braids_equal(parse_word("1,3", 4), parse_word("3,1", 4))
    assert is_identity(parse_word("1,-1", 3))
    assert not braids_equal(parse_word("1", 3), parse_word("2", 3))


def test_exponent_sum():
    assert exponent_sum(parse_word("1,2,-3", 4)) == 1
    assert exponent_sum(parse_word("", 4)) == 0
    assert exponent_sum(parse_word("-3,2,-1", 4)) == -1
    rng = random.Random(3)
    for _ in range(30):
        m = rng.randint(2, 5)
        a, b = random_word(rng, m, 8), random_word(rng, m, 8)
        assert exponent_sum(product(a, b)) == exponent_sum(a) + exponent_sum(b)
        assert exponent_sum(conjugate(a, b)) == exponent_sum(a)


def test_normal_form_exponent_sum_matches_the_word():
    # each factor counts its inversions; the half twists count m(m-1)/2 each
    rng = random.Random(44)
    signs = set()
    for _ in range(300):
        m = rng.randint(1, 12)
        w = delta_power_word(m, rng.randint(-3, 3), random_word(rng, m, 3 * m).letters)
        nf = normal_form(w)
        signs.add((nf.infimum > 0) - (nf.infimum < 0))
        assert nf.exponent_sum() == exponent_sum(w)
    assert signs == {-1, 0, 1}


def test_exponent_sum_counts_each_factor_without_spelling_it(monkeypatch):
    # a factor's length is the inversion count of its bisect pass, which is
    # the length of its spelling; the count spells no factor
    rng = random.Random(46)
    forms = []
    for m in range(1, 33):
        for _ in range(4):
            p = tuple(rng.sample(range(1, m + 1), m))
            assert braids._permutation_length(p) == len(_permutation_letters(p))
            w = delta_power_word(m, rng.randint(-2, 2), random_word(rng, m, 2 * m).letters)
            nf = normal_form(w)
            lengths = [len(_permutation_letters(f)) for f in nf.factors]
            assert list(map(braids._permutation_length, nf.factors)) == lengths
            forms.append((nf, w))
    monkeypatch.setattr(braids, "_permutation_letters", lambda p: pytest.fail("spelled a factor"))
    assert all(nf.exponent_sum() == exponent_sum(w) for nf, w in forms)


def test_normal_form_group_laws():
    rng = random.Random(0)
    for _ in range(150):
        m = rng.randint(1, 6)
        w = random_word(rng, m, 12)
        nf = normal_form(w)
        assert (nf * nf.inverse()).is_identity()
        assert normal_form(nf.to_word()) == nf
        assert nf.permutation() == permutation(w)
        v = random_word(rng, m, 10)
        assert normal_form(product(w, v)) == normal_form(w) * normal_form(v)
        k = rng.randint(-3, 3)
        assert normal_form(power(w, k)) == nf.power(k)


def test_to_word_spells_the_half_twist_only_when_half_twists_are_left_over(monkeypatch):
    # Delta^d A_1 ... A_k is spelled Delta^e w: for d < 0 the first
    # t = min(-d, k) half twists are spent on the first t factors, so
    # e = d + t is nonzero only when d > 0 or -d > k
    spelled = []
    spell = braids._permutation_letters
    monkeypatch.setattr(braids, "_permutation_letters", lambda p: spelled.append(p) or spell(p))
    rng = random.Random(54)
    cases = set()
    for _ in range(300):
        m = rng.randint(1, 10)
        w = random_word(rng, m, 3 * m)
        nf = normal_form(delta_power_word(m, rng.randint(-6, 2), w.letters))
        d, k = nf.infimum, len(nf.factors)
        cases.add((d > 0) - (d < 0) - (-d > k))
        spelled.clear()
        word = nf.to_word()
        assert (tuple(range(m, 0, -1)) in spelled) == (d > 0 or -d > k)
        assert normal_form(word) == nf
    assert cases == {1, 0, -1, -2}  # d > 0, d = 0, -k <= d < 0 and -d > k


def _delta_block_word(nf):
    """The long spelling of a normal form: |d| half-twist blocks, then the
    positive word of each factor by the restarting scan."""
    letters = [k for f in nf.factors for k in permutation_letters_restart(f)]
    return delta_power_word(nf.degree, nf.infimum, tuple(letters))


@pytest.mark.parametrize("m", [3, 4, 7, 12, 24, 64])
def test_to_word_is_the_braid_of_the_form_and_sweeps_as_the_form(m):
    # on forms with every infimum from d = -k - 3 to d = 2, so that half
    # twists are left over on both sides: the short spelling round-trips,
    # is the braid of the delta-block spelling, and its pure-power matrix
    # is the form's
    rng = random.Random(3100 + m)
    infima = set()
    for _ in range(3 if m == 64 else 6):
        factors = normal_form(random_word(rng, m, 2 * m, 2 * m)).factors
        k = len(factors)
        for d in sorted({-k - 3, -k - 1, -k, -k // 2, -1, 0, 1, 2}):
            nf = NormalForm(m, d, factors)
            infima.add((d > 0) - (d < 0) - (-d > k))
            word = nf.to_word()
            assert normal_form(word) == nf
            if m <= 24 or d in (-k - 1, -1, 1):  # the long spelling normalises slowly at m = 64
                assert braids_equal(word, _delta_block_word(nf))
            assert pure_power_matrix(nf) == pure_power_matrix(word)
    assert infima == {1, 0, -1, -2}


def test_free_insertion_does_not_change_normal_form():
    rng = random.Random(1)
    for _ in range(100):
        m = rng.randint(2, 6)
        w = random_word(rng, m, 10)
        pos = rng.randint(0, len(w.letters))
        g = rng.randint(1, m - 1)
        padded = BraidWord(m, w.letters[:pos] + (g, -g) + w.letters[pos:])
        assert normal_form(padded) == normal_form(w)


def test_braid_relation_rewrites_preserve_normal_form():
    rng = random.Random(2)
    for _ in range(100):
        m = rng.randint(3, 6)
        w = random_word(rng, m, 8)
        i = rng.randint(1, m - 2)
        left = BraidWord(m, w.letters + (i, i + 1, i))
        right = BraidWord(m, w.letters + (i + 1, i, i + 1))
        assert normal_form(left) == normal_form(right)


def test_normal_form_factors_are_left_weighted():
    # no factor is trivial or the half twist, and each pair is left-greedy
    from braidsys.braids import _tup_inverse

    rng = random.Random(4)
    for _ in range(80):
        m = rng.randint(2, 6)
        nf = normal_form(random_word(rng, m, 12))
        w0, ident = tuple(range(m, 0, -1)), tuple(range(1, m + 1))
        for f in nf.factors:
            assert f != ident and f != w0
        for a, bm in zip(nf.factors, nf.factors[1:]):
            ai = _tup_inverse(a)
            assert not any(
                bm[i - 1] > bm[i] and ai[i - 1] < ai[i] for i in range(1, m)
            )


def _combed(m, facs, strip_only=False):
    """(half-twist shift, image tuples) of the codebook's comb of an image
    tuple list, or of its strip alone: its leading half twists counted and
    its trailing identities dropped."""
    if strip_only:
        lo, hi = 0, len(facs)
        while lo < hi and facs[lo] == tuple(range(m, 0, -1)):
            lo += 1
        while lo < hi and facs[hi - 1] == tuple(range(1, m + 1)):
            hi -= 1
        return lo, tuple(facs[lo:hi])
    book = _book(m)
    nf = book.normal_form(book.mul((0, ()), (0, book.encode(facs))))
    return nf.infimum, nf.factors


def test_incremental_normalization_matches_bubble_fixpoint():
    rng = random.Random(6)
    cases = []  # (degree, factor list, (half-twist shift, factors) computed from it)
    # degrees up to 5 comb int codes, 6 to 12 image tuples
    for t in range(1000):
        m = rng.randint(2, 6) if t < 800 else rng.randint(6, 12)
        facs = []
        for _ in range(rng.randint(0, 7)):
            im = list(range(1, m + 1))
            rng.shuffle(im)
            facs.append(tuple(im))
        cases.append((m, facs, _combed(m, facs)))
    # a * b combs only b's factors onto a's (flipped when b.infimum is odd);
    # from t = 600 on, b cancels all of a but a short tail, so the comb
    # runs into the identities the cancellation leaves behind
    for t in range(800):
        m = rng.randint(2, 9)
        wa = random_word(rng, m, 16)
        a = normal_form(wa)
        if t < 600:
            b = normal_form(random_word(rng, m, 16))
            b = NormalForm(m, t % 2 + 2 * rng.randint(-2, 1), b.factors)
        else:
            b = normal_form(product(inverse(wa), random_word(rng, m, 3)))
        ab = a * b
        left = [_tup_flip(f) for f in a.factors] if b.infimum % 2 else list(a.factors)
        cases.append((m, left + list(b.factors), (ab.infimum - a.infimum - b.infimum, ab.factors)))
    for m, facs, fast in cases:
        slow = list(facs)
        bubble_normalize(slow)
        assert fast == _combed(m, slow, strip_only=True)


@st.composite
def word_pairs(draw, degrees=st.integers(1, 8)):
    m = draw(degrees)
    gens = [k for i in range(1, m) for k in (i, -i)]
    letters = st.lists(st.sampled_from(gens), max_size=14) if gens else st.just([])
    return BraidWord(m, tuple(draw(letters))), BraidWord(m, tuple(draw(letters)))


@settings(max_examples=200, deadline=None)
@given(word_pairs())
def test_garside_kernel_matches_bubble_oracle(pair):
    u, v = pair
    nf = normal_form(u)
    assert nf == bubble_normal_form(u)
    assert nf * normal_form(v) == bubble_normal_form(product(u, v))
    assert nf.inverse() == bubble_normal_form(inverse(u))


@settings(max_examples=100, deadline=None)
@given(word_pairs(st.sampled_from([1, *range(9, 17)])))
def test_inverse_matches_bubble_oracle_at_degree_1_and_beyond_8(pair):
    for u in pair:
        assert normal_form(u).inverse() == bubble_normal_form(inverse(u))


@pytest.mark.parametrize("m", [3, 4, 5, 6, 9])
def test_codebook_inverse_runs_no_pair_fix(m):
    # the inverse is read off the form; only the products below comb.  The
    # codebook is fresh, so at degree <= 5 each pair the comb reads fills
    # its table slot with one `fix` call
    book = _Codebook(m)
    rng = random.Random(60 + m)
    forms = [book.form(normal_form(random_word(rng, m, 24))) for _ in range(40)]
    fixes = []

    def counting(a, b, fix=book.fix):
        fixes.append((a, b))
        return fix(a, b)

    book.fix = counting
    inverses = [book.inverse(x) for x in forms]
    assert fixes == [] and _filled(book) == 0
    assert {x[0] % 2 for x in forms if len(x[1]) >= 2} == {0, 1}
    for x, y in zip(forms, inverses):
        assert book.mul(x, y) == book.mul(y, x) == (0, ())
    assert fixes
    assert _filled(book) == (len(fixes) if m <= 5 else 0)


def _filled(book):
    """How many slots of the codebook's pair-fix table are filled."""
    return sum(slot is not _UNFILLED for slot in book.table or ())


def test_variadic_product_matches_the_two_step_product_and_the_word():
    rng = random.Random(61)
    for m in range(3, 10):
        book = _book(m)
        for n in range(1, 6):
            for t in range(2 ** (n + 1)):
                # bit j of t is the parity of form j's infimum, so the infima
                # take every parity pattern; in the upper half of t each form
                # is a power of Delta (the identity at power 0) half the time
                nfs = []
                for j in range(n):
                    factors = normal_form(random_word(rng, m, 5)).factors
                    if t >> n and rng.random() < 0.5:
                        factors = ()
                    nfs.append(NormalForm(m, (t >> j & 1) * rng.choice((1, -1)), factors))
                forms = list(map(book.form, nfs))
                got = book.mul(*forms)
                assert got == functools.reduce(book.mul, forms)
                if m <= 6 or n <= 3:  # the bubble oracle is slow on longer words beyond degree 6
                    word = BraidWord(m, tuple(k for nf in nfs for k in nf.to_word().letters))
                    assert book.normal_form(got) == bubble_normal_form(word)


def test_power_squares_and_multiplies(monkeypatch):
    # one product of |k| copies combs each copy back through the whole list:
    # 800 against 5 ms at k = 4,000 (ROADMAP, measured dead ends)
    nf = normal_form(parse_word("3,2,-3", 4))
    up = down = NormalForm(4, 0, ())
    for k in range(21):
        assert nf.power(k) == up and nf.power(-k) == down
        up, down = up * nf, down * nf.inverse()
    combed = []
    nf_product = braids._nf_product
    monkeypatch.setattr(braids, "_nf_product", lambda *nfs: combed.append(len(nfs) - 1) or nf_product(*nfs))
    for k in (4000, -4000):
        combed.clear()
        nf.power(k)
        assert sum(combed) <= 2 * k.bit_length()


@pytest.mark.parametrize("names, owners", [
    # the codebook's forms (infimum, codes) hold int codes at degree <= 5 and
    # image tuples above; every other module works on NormalForm values
    (("_book", "_Codebook"), {"braids.py", "orbit.py"}),
    # only intlinalg splits a matrix into diagonal blocks: crossing hands a
    # pure-power matrix over as its cycles and orbit entries
    (("_orbit_blocks",), {"intlinalg.py"}),
], ids=["codebook", "block-split"])
def test_only_braids_and_orbit_reach_the_codebook(names, owners):
    reached = set()
    for path in Path(braids.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            match node:
                case ast.Name(id=name) | ast.Attribute(attr=name) | ast.alias(name=name):
                    if name in names:
                        reached.add(path.name)
    assert reached == owners


@pytest.mark.parametrize("op", [
    lambda a, b: normal_form(a) * normal_form(b), product, braids_equal, conjugate,
], ids=["nf_mul", "product", "braids_equal", "conjugate"])
def test_operations_reject_a_degree_mismatch(op):
    with pytest.raises(ValueError, match=r"^degree mismatch: 3 vs 4$"):
        op(parse_word("1", 3), parse_word("1", 4))


@st.composite
def far_commuting_words(draw, min_degree, max_degree):
    """Words of length at most 2m whose letters mostly come from a few
    generators, which are usually two or more apart, with random signs:
    letters that commute past each other and sign changes are common."""
    m = draw(st.integers(min_degree, max_degree))
    if m < 2:
        return BraidWord(m)
    pool = draw(st.lists(st.integers(1, m - 1), min_size=1, max_size=5))
    index = st.one_of(st.sampled_from(pool), st.integers(1, m - 1))
    letter = st.builds(lambda i, sign: i * sign, index, st.sampled_from((1, -1)))
    return BraidWord(m, tuple(draw(st.lists(letter, max_size=2 * m))))


@settings(max_examples=150, deadline=None)
@given(far_commuting_words(9, 32))
def test_normal_form_matches_letterwise_comb(w):
    assert normal_form(w) == normal_form_letterwise(w)


@settings(max_examples=150, deadline=None)
@given(far_commuting_words(1, 12))
def test_normal_form_of_far_commuting_words_matches_bubble_oracle(w):
    assert normal_form(w) == bubble_normal_form(w)


@st.composite
def cancelling_words(draw, min_degree, max_degree):
    """Words in which letters meet their inverses past letters they commute
    with: random letters with sigma_i^e, a few letters two or more from i,
    sigma_i^-e inserted among them, or u v u^{-1} for random u and v."""
    m = draw(st.integers(min_degree, max_degree))
    if m < 2:
        return BraidWord(m)
    sign = st.sampled_from((1, -1))

    def letters(indices, max_size):
        return draw(st.lists(st.builds(lambda i, e: i * e, indices, sign), max_size=max_size))

    anywhere = st.integers(1, m - 1)
    if draw(st.booleans()):
        u = letters(anywhere, m)
        return BraidWord(m, (*u, *letters(anywhere, m), *(-k for k in reversed(u))))
    word = []
    for _ in range(draw(st.integers(0, 8))):
        i, e = draw(anywhere), draw(sign)
        far = [j for j in range(1, m) if abs(j - i) >= 2]
        between = letters(st.sampled_from(far), 4) if far else []
        word += [*letters(anywhere, 3), e * i, *between, -e * i]
    return BraidWord(m, tuple(word))


@settings(max_examples=150, deadline=None)
@given(cancelling_words(9, 32))
@example(BraidWord(9, (1, 2, 1, -5, 7, -2, 3)))  # sigma_1 sigma_2 sigma_1 sigma_7 loses its sigma_2
def test_normal_form_of_cancelling_words_matches_letterwise_comb(w):
    assert normal_form(w) == normal_form_letterwise(w)


@settings(max_examples=150, deadline=None)
@given(cancelling_words(1, 12))
@example(BraidWord(6, (-2, -1, 4, 1, 2)))  # both letters cancel: sigma_4 is left
def test_normal_form_of_cancelling_words_matches_bubble_oracle(w):
    assert normal_form(w) == bubble_normal_form(w)


@settings(max_examples=100, deadline=None)
@given(st.one_of(far_commuting_words(1, 32), cancelling_words(1, 32)))
def test_a_word_times_its_inverse_is_the_identity(w):
    assert normal_form(product(w, inverse(w))).is_identity()


@pytest.mark.parametrize("m", [16, 64, 128])
def test_normal_form_of_a_re_expanded_form_is_the_form(m):
    rng = random.Random(m)
    for _ in range(3):
        nf = normal_form(random_word(rng, m, 2 * m, 2 * m))
        assert normal_form(nf.to_word()) == nf


@pytest.fixture
def comb_inputs(monkeypatch):
    """The piece count each normal_form call hands the comb: the number of
    forms after the leading identity form in its `_Codebook.mul` call."""
    counts = []
    mul = _Codebook.mul

    def counting(self, x, *rest):
        counts.append(len(rest))
        return mul(self, x, *rest)

    monkeypatch.setattr(_Codebook, "mul", counting)
    return counts


@pytest.mark.parametrize("degree, letters, pieces", [
    (1, (), 0),
    (2, (), 0),
    (2, (1,), 1),
    (2, (-1,), 1),
    (2, (1, 1), 2),  # sigma_1 sigma_1 is not simple
    (2, (1, -1), 1),  # sigma_1^{-1} cancels against the sigma_1 piece
    (2, (1, -1, 1), 1),  # ... which the last sigma_1 joins again
    (4, (2, 2), 2),
    (4, (2, -2), 1),
    (6, (1, -2, 1), 3),  # sigma_2^{-1} holds a neighbour of sigma_1: blocked
    (6, (1, -5, 1), 3),  # reaches the sigma_1 piece, but sigma_1 sigma_1 is not simple
    (6, (1, -5, 3), 2),  # slides past sigma_5^{-1} and joins the sigma_1 piece
    (6, (-1, 5, -3), 2),
    (6, (1, 2, 1), 1),
    (6, (-1, -2, -1), 1),
    (6, (1, 3, 5, -2, -4), 2),
    (6, (1, -5, -1), 2),  # slides past sigma_5^{-1} and cancels against the sigma_1 piece
    (6, (-1, 5, 1), 2),
    (6, (1, -2, -1), 2),  # blocked by sigma_2^{-1}, which holds a neighbour of sigma_1
    (6, (1, 2, 1, -2), 1),  # sigma_2 is a right descent of sigma_1 sigma_2 sigma_1
    (6, (2, 1, -2), 2),  # sigma_2 is not a right descent of sigma_2 sigma_1
])
def test_normal_form_pieces(comb_inputs, degree, letters, pieces):
    w = BraidWord(degree, letters)
    nf = normal_form(w)
    assert comb_inputs == [pieces]
    assert nf == normal_form_letterwise(w) == bubble_normal_form(w)


@pytest.mark.parametrize("m", [4, 9, 24])
def test_half_twist_words_reach_the_comb_whole(comb_inputs, m):
    delta = BraidWord(m, tuple(_delta_letters(m)))
    assert normal_form(delta) == NormalForm(m, 1, ())
    assert normal_form(inverse(delta)) == NormalForm(m, -1, ())
    assert normal_form(power(delta, -2)) == NormalForm(m, -2, ())
    assert comb_inputs == [1, 1, 2]


@settings(max_examples=40, deadline=None)
@given(half_twist_words(max_degree=12).filter(lambda w: w.degree > 5))
@example(delta_power_word(6, 2, (1, -5, 3)))
@example(delta_power_word(12, -3, (4, 4)))
@example(BraidWord(9, (2, -7, 3) + tuple(_delta_letters(9)) + (5,)))  # a factor before the twist
def test_half_twists_in_the_tuple_comb_match_the_bubble_oracle(w):
    # above degree 5 the comb meets Delta whole: the pieces of a spelled-out
    # half twist make one factor.  The bubble oracle sweeps one factor per
    # letter, which takes seconds per half twist at degree 16 and up, so the
    # words stop at degree 12; the factor lists below reach degree 40
    assert normal_form(w) == bubble_normal_form(w)


@st.composite
def half_twist_factor_lists(draw, max_degree: int = 40):
    """(m, factors): 6 <= m <= max_degree and up to six permutation braids
    as image tuples, each the half twist, a random one or a generator."""
    m = draw(st.integers(6, max_degree))
    delta, ident = tuple(range(m, 0, -1)), tuple(range(1, m + 1))
    factor = st.one_of(
        st.just(delta),
        st.permutations(ident).map(tuple),
        st.integers(1, m - 1).map(lambda i: ident[: i - 1] + (i + 1, i) + ident[i + 1 :]),
    )
    return m, draw(st.lists(factor, max_size=6))


@settings(max_examples=60, deadline=None)
@given(half_twist_factor_lists())
@example((40, [tuple(range(40, 0, -1))] * 2))
@example((7, [(2, 1, 3, 4, 5, 6, 7), tuple(range(7, 0, -1)), (1, 3, 2, 4, 5, 6, 7)]))
def test_tuple_comb_takes_half_twists_without_a_pair_fix(m_facs):
    # the comb of the factors, the half twist among them whole, against the
    # bubble fixpoint of the same list; no pair with a half twist in it
    # reaches the pair fix: (Delta, b) is left-weighted and (a, Delta) is
    # (Delta, tau(a))
    m, facs = m_facs
    book = _Codebook(m)
    delta = book.delta
    fixed = []

    def recording(a, b, fix=book.fix):
        fixed.append((a, b))
        return fix(a, b)

    book.fix = recording
    form = book.mul((0, ()), *[(0, (f,)) for f in facs])
    assert book.normal_form(form) == bubble_form(m, 0, facs)
    assert not any(delta in pair for pair in fixed)
    a = tuple(range(2, m + 1)) + (1,)
    assert book.mul((0, (a,)), (0, (delta,))) == (1, (_tup_flip(a),))
    assert book.mul((0, (delta,)), (0, (a,))) == (1, (a,))


def test_permutation_letters_match_the_restarting_scan():
    for m in range(1, 8):
        for p in itertools.permutations(range(1, m + 1)):
            assert _permutation_letters(p) == permutation_letters_restart(p)
    rng = random.Random(11)
    for m in [32] * 50 + [rng.randint(33, 64) for _ in range(50)]:
        p = list(range(1, m + 1))
        rng.shuffle(p)
        assert _permutation_letters(tuple(p)) == permutation_letters_restart(tuple(p))


def test_pair_fix_matches_the_rescanning_oracle_at_small_degree():
    # every slot of a fresh table, once filled, against both pair fixes
    for m in range(1, 6):
        book = _Codebook(m)
        n = len(book.images)
        for k in range(n * n):
            book.fill(k)
        for (ca, a), (cb, b) in itertools.product(enumerate(book.images), repeat=2):
            want = _pair_fix(a, b)
            x, y, moved = _lw_fix(a, b)
            assert (x, y, moved) == (*want, want != (a, b))
            assert book.table[ca * n + cb] == ((book.codes[x], book.codes[y]) if moved else None)


@st.composite
def permutation_pairs(draw):
    m = draw(st.integers(6, 40))
    return tuple(tuple(draw(st.permutations(range(1, m + 1)))) for _ in range(2))


@settings(max_examples=200, deadline=None)
@given(permutation_pairs())
def test_pair_fix_matches_the_rescanning_oracle(pair):
    a, b = pair
    want = _pair_fix(a, b)
    assert _lw_fix(a, b) == (*want, want != (a, b))


def test_pair_fix_returns_a_left_weighted_pair_unchanged():
    a, b = (2, 1, 4, 3), (1, 2, 4, 3)  # sigma_1 sigma_3, then sigma_3: a sigma_3 is not simple
    for fix in (_lw_fix, _lw_fix_dual):
        got = fix(a, b)
        assert got == (a, b, False) and got[0] is a and got[1] is b


def test_dual_pair_fix_matches_the_rescanning_oracle_at_small_degree():
    # every pair of every degree <= 5, whatever its shape
    for m in range(1, 6):
        for a, b in itertools.product(itertools.permutations(range(1, m + 1)), repeat=2):
            want = _pair_fix(a, b)
            got = _lw_fix_dual(a, b)
            assert got == (*want, want != (a, b))
            if want == (a, b):
                assert got[0] is a and got[1] is b


@st.composite
def near_delta_pairs(draw):
    # a few letters in a, and b = Delta with a few letters taken off its
    # front: the pairs whose insertion pass moves nearly every crossing
    m = draw(st.integers(9, 64))
    letters = st.lists(st.integers(1, m - 1), max_size=6)
    a = permutation(BraidWord(m, tuple(draw(letters)))).images
    b = _tup_left_complement(permutation(BraidWord(m, tuple(draw(letters)))).images)
    return a, b


@settings(max_examples=200, deadline=None)
@given(near_delta_pairs())
def test_dual_pair_fix_matches_the_rescanning_oracle_near_delta(pair):
    a, b = pair
    fixed = _pair_fix(a, b)
    assert _lw_fix_dual(a, b) == _lw_fix(a, b) == (*fixed, fixed != (a, b))


@pytest.mark.parametrize("m, by_oracle", [(128, 6), (192, 1), (256, 0)])
def test_dual_pair_fix_matches_the_insertion_pass_on_combed_pairs(monkeypatch, m, by_oracle):
    # the pairs the comb fixes for a random 3m-letter word: the same form
    # whichever path runs, and the same fix on every pair of the dual shape.
    # The rescanning oracle takes 0.1 s a pair at degree 128, so it checks
    # only the first few
    book = _Codebook(m)
    pairs = []

    def recording(a, b, fix=book.fix):
        pairs.append((a, b))
        return fix(a, b)

    book.fix = recording
    monkeypatch.setattr(braids, "_book", lambda degree: book)
    word = random_word(random.Random(m), m, 3 * m, 3 * m)
    nf = normal_form(word)
    combed = [(a, b) for a, b in pairs if b[0] > b[-1] and a[0] < a[-1]]
    with monkeypatch.context() as insertion_only:
        insertion_only.setattr(braids, "_DUAL_FIX_ABOVE", braids.MAX_DEGREE)
        assert normal_form(word) == nf
        want = [_lw_fix(a, b) for a, b in combed]
    assert len(combed) >= 30
    assert [_lw_fix_dual(a, b) for a, b in combed] == want
    assert [_pair_fix(a, b) for a, b in combed[:by_oracle]] == [w[:2] for w in want[:by_oracle]]


@pytest.mark.parametrize("m, dual", [(6, 0), (12, 0), (13, 1), (64, 1)])
def test_pair_fix_takes_the_dual_path_above_degree_12(monkeypatch, m, dual):
    # a pair of the dual shape (b = Delta, a = sigma_1), on each side of the
    # degree bound; a pair of any other shape never takes it
    calls = []

    def counting(a, b, fix=_lw_fix_dual):
        calls.append((a, b))
        return fix(a, b)

    monkeypatch.setattr(braids, "_lw_fix_dual", counting)
    sigma_1, delta = (2, 1, *range(3, m + 1)), tuple(range(m, 0, -1))
    assert _lw_fix(sigma_1, delta) == (delta, _tup_flip(sigma_1), True)
    assert len(calls) == dual
    _lw_fix(delta[::-1], sigma_1)
    _lw_fix(sigma_1[::-1], delta)
    assert len(calls) == dual


def test_flip_table_matches_the_conjugated_word():
    for m in range(2, 6):
        book = _book(m)
        for p in itertools.permutations(range(1, m + 1)):
            assert book.images[book.flip(book.codes[p])] == _tup_flip(p) == flip_by_conjugation(p)
    # past the tables, random permutations of degree 6-64
    rng = random.Random(38)
    for m in range(6, 65):
        for _ in range(2):
            p = tuple(rng.sample(range(1, m + 1), m))
            assert _tup_flip(p) == flip_by_conjugation(p)


def test_complement_table_completes_the_half_twist():
    # the left complement c of a: c a = Delta, read as words
    for m in range(1, 6):
        book = _book(m)
        delta = normal_form(BraidWord(m, tuple(_delta_letters(m))))
        for a, p in enumerate(book.images):
            c = book.images[book.complement(a)]
            assert normal_form(BraidWord(m, tuple(_permutation_letters(c) + _permutation_letters(p)))) == delta


def test_products_by_an_odd_infimum_match_the_concatenated_word():
    # degrees 4 and 5 flip by code, degree 6 through _tup_flip
    rng = random.Random(29)
    flipped = 0
    for _ in range(300):
        m = rng.randint(4, 6)
        a, b = random_word(rng, m, 12), odd_infimum_word(rng, m, 12)
        assert normal_form(b).infimum % 2
        assert normal_form(a) * normal_form(b) == normal_form(product(a, b))
        flipped += bool(normal_form(a).factors)
    assert flipped > 250


def test_pure_power_has_trivial_permutation():
    rng = random.Random(7)
    for _ in range(40):
        b = random_word(rng, rng.randint(2, 6), 10)
        assert permutation(power(b, permutation_order(b))).is_identity()


def test_free_reduce():
    assert free_reduce(parse_word("1,2,-2,-1", 3)).letters == ()
    assert free_reduce(parse_word("1,-2,2,1", 3)).letters == (1, 1)


def test_canonical_word_represents_same_braid():
    rng = random.Random(8)
    for _ in range(40):
        w = random_word(rng, rng.randint(2, 5), 10)
        assert braids_equal(canonical_word(w), w)


def test_degree_one_group_is_trivial():
    w = BraidWord(1)
    assert is_identity(w)
    assert normal_form(w) == NormalForm(1, 0, ())
    assert permutation(w).images == (1,)
    assert tuple(power(w, 5).letters) == ()


def test_normal_form_json_roundtrip():
    nf = normal_form(parse_word("1,-2,3,3", 4))
    assert NormalForm.from_json(nf.to_json()) == nf


def test_normal_form_hash_is_the_dataclass_hash_kept_once():
    # the value the generated dataclass hash gives, so no dict or set order
    # changes; the kept hash is no field, so JSON, repr and equality ignore it
    rng = random.Random(13)
    for _ in range(100):
        m = rng.randint(1, 12)
        nf = normal_form(random_word(rng, m, 3 * m))
        assert hash(nf) == hash((nf.degree, nf.infimum, nf.factors))
        twin = NormalForm(nf.degree, nf.infimum, tuple(map(tuple, map(list, nf.factors))))
        assert twin == nf and hash(twin) == hash(nf) and {nf: 1}[twin] == 1
        assert list(nf.to_json()) == ["degree", "infimum", "factors"]
        assert NormalForm.from_json(nf.to_json()).__dict__ == nf.__dict__
        assert "_hash" not in repr(nf)


def test_normal_form_from_json_rejects_a_non_bijective_factor():
    with pytest.raises(ValueError):
        NormalForm.from_json({"degree": 3, "infimum": 0, "factors": [[1, 1, 3]]})


def test_normal_form_from_json_roundtrips_random_forms():
    rng = random.Random(12)
    for _ in range(100):
        m = rng.randint(1, 6)
        nf = normal_form(random_word(rng, m, 12))
        assert NormalForm.from_json(nf.to_json()) == nf


@pytest.mark.parametrize("factors", [[[2, 1]], [[2, 1, 3, 4]]])
def test_normal_form_from_json_rejects_a_factor_of_another_degree(factors):
    with pytest.raises(ValueError, match="degree 3"):
        NormalForm.from_json({"degree": 3, "infimum": 0, "factors": factors})


def test_normal_form_from_json_rejects_an_identity_factor():
    for factors in ([[1, 2, 3]], [[2, 1, 3], [1, 2, 3]]):
        with pytest.raises(ValueError, match="not a left normal form"):
            NormalForm.from_json({"degree": 3, "infimum": 0, "factors": factors})


@pytest.mark.parametrize("degree", [0, -3])
def test_normal_form_from_json_rejects_a_degree_below_one(degree):
    # as BraidWord does, rather than decoding a form that to_word cannot expand
    for factors in ([], [[2, 1, 3]]):
        with pytest.raises(ValueError, match="degree must be >= 1"):
            NormalForm.from_json({"degree": degree, "infimum": 1, "factors": factors})


@pytest.mark.parametrize("infimum", [3, -1])
def test_normal_form_from_json_rejects_a_nonzero_infimum_at_degree_one(infimum):
    # the half twist of B_1 is the identity, whose one form has infimum 0
    with pytest.raises(ValueError, match=f"infimum {infimum}"):
        NormalForm.from_json({"degree": 1, "infimum": infimum, "factors": []})


@pytest.mark.parametrize("infimum", [3, -1])
def test_normal_form_rejects_a_nonzero_infimum_at_degree_one(infimum):
    # refused where the form is made, so no product or report holds one:
    # NormalForm(1, 3, ()) * NormalForm(1, 0, ()) used to keep infimum 3,
    # and a system report of it read trace_is_identity False
    with pytest.raises(ValueError, match=f"infimum {infimum}"):
        NormalForm(1, infimum, ()) * NormalForm(1, 0, ())
    with pytest.raises(ValueError, match=f"infimum {infimum}"):
        system_invariants_from_normal_forms(1, (NormalForm(1, infimum, ()),))
    identity = NormalForm(1, 0, ())
    assert (identity * identity).is_identity()
    assert system_invariants_from_normal_forms(1, (identity,)).trace_is_identity


def test_normal_form_from_json_accepts_the_degree_one_identity():
    nf = NormalForm.from_json({"degree": 1, "infimum": 0, "factors": []})
    assert nf.is_identity() and nf == normal_form(nf.to_word())


def test_normal_form_from_json_rejects_a_half_twist_factor():
    # Delta belongs in the infimum
    with pytest.raises(ValueError, match="not a left normal form"):
        NormalForm.from_json({"degree": 3, "infimum": 0, "factors": [[3, 2, 1], [2, 1, 3]]})


def test_normal_form_from_json_rejects_a_pair_that_is_not_left_weighted():
    # sigma_1 sigma_2 is one permutation braid, not two factors
    with pytest.raises(ValueError, match="not a left normal form"):
        NormalForm.from_json({"degree": 3, "infimum": 0, "factors": [[2, 1, 3], [1, 3, 2]]})


@pytest.mark.parametrize("load, data, field", [
    (NormalForm.from_json, {"degree": 3.5, "infimum": 0, "factors": []}, "degree"),
    (NormalForm.from_json, {"degree": 3, "infimum": 0.9, "factors": []}, "infimum"),
    (NormalForm.from_json, {"degree": 3, "infimum": "2", "factors": []}, "infimum"),
    (NormalForm.from_json, {"degree": 3, "infimum": 0, "factors": [["2", "1", "3"]]}, "factors"),
    (NormalForm.from_json, {"degree": None, "infimum": 0, "factors": []}, "degree"),
    (NormalForm.from_json, {"degree": 3, "infimum": 0, "factors": "213"}, "factors"),
    (HurwitzMove.from_json, {"index": 2.7, "inverse": False}, "index"),
    (HurwitzMove.from_json, {"index": 2, "inverse": "no"}, "inverse"),
    (HurwitzMove.from_json, {"index": 2, "inverse": 0}, "inverse"),
    (HurwitzMove.from_json, {"index": True, "inverse": False}, "index"),
    # a check value may be an int, a str, a list of either or null, and nothing else
    (InvariantCheck.from_json, {"name": "r", "left": 2.5, "right": 2, "equal": False}, "left"),
    (InvariantCheck.from_json, {"name": "r", "left": 2, "right": 2, "equal": "yes"}, "equal"),
    (BraidSystem.from_json, {"degree": 4, "components": [3, -1]}, "components"),
    (ReducedPolynomial.from_json,
     {"x_mult": 0, "x_minus_1_mult": 0, "x_plus_1_mult": 0, "core": None}, "core"),
    (NormalForm.from_json, [1, 2], "NormalForm"),
    (NormalForm.from_json, {"degree": 3, "infimum": 0}, "factors"),
    (ReducedPolynomial.from_json, {"x_mult": 0, "x_plus_1_mult": 0, "core": {"coeffs": [1]}},
     "x_minus_1_mult"),
    (BraidSystem.from_json, {"components": ["1"]}, "degree"),
    (BraidSystem.from_json, {"degree": 3}, "components"),
    (BraidSystem.from_json, [1, 2], "BraidSystem"),
])
def test_from_json_coerces_nothing(load, data, field):
    # an int field takes only a JSON integer, a bool field only true/false,
    # an object field only an object; a missing key is a ValueError
    if isinstance(data, dict) and field not in data:
        with pytest.raises(ValueError, match=f"^{field}: missing"):
            load(data)
    else:
        with pytest.raises(TypeError, match=f"^{field}: expected"):
            load(data)


def test_permutation_validation():
    with pytest.raises(ValueError):
        Permutation((1, 1, 3))
