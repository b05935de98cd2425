import itertools
import math
import os
from fractions import Fraction
import random
import subprocess
import sys
import threading

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from braidsys import (
    CrossingMatrix,
    IntPolynomial,
    ReducedPolynomial,
    charpoly,
    determinant,
    factored_str,
    integer_roots,
    normal_form,
    parse_word,
    permutation_equivalent,
    pure_power_matrix,
    rank,
    reduce_poly,
)
from braidsys import intlinalg
from braidsys.intlinalg import matrix_rows
from braidsys.intlinalg import split_integer_roots

from oracles import (
    charpoly_berkowitz,
    charpoly_cofactor,
    convolve,
    det_fraction,
    integer_roots_scan,
    is_prime_mr,
    matrix_components,
    random_word,
    rank_fraction,
    split_product_chain,
)


def test_poly_arithmetic():
    p = IntPolynomial((1, 0, -2, 0, 1))  # x^4 - 2x^2 + 1
    one = IntPolynomial((1,))
    assert p * one == p
    assert p == IntPolynomial((1, 0, -2, 0, 1, 0))
    assert str(p) == "x^4 - 2x^2 + 1"
    assert p(2) == 9
    assert p.degree == 4 and p.is_monic()


@pytest.mark.parametrize("coeffs", [
    (2.5, 1), ("3", True), (True,), (1, False), (1.0,), (Fraction(2), 1), (None,), (1, [2])])
def test_poly_rejects_coefficients_that_are_not_ints(coeffs):
    with pytest.raises(TypeError):
        IntPolynomial(coeffs)


def test_poly_strips_trailing_zeros_without_coercion():
    p = IntPolynomial([3, -1, 0, 0])
    assert p.coeffs == (3, -1) and all(type(v) is int for v in p.coeffs)
    assert IntPolynomial((0, 0)).coeffs == () and not IntPolynomial(())


def test_poly_mul_reference_products():
    p1 = IntPolynomial((1, 0, -2, 0, 1))
    psig = IntPolynomial((0, 0, -1, 0, 1))  # x^4 - x^2
    prod = p1 * psig * psig * psig
    assert prod.coeffs == (0, 0, 0, 0, 0, 0, -1, 0, 5, 0, -10, 0, 10, 0, -5, 0, 1)
    p2 = IntPolynomial((-3, 8, -6, 0, 1))
    prod2 = p2 * psig * psig * psig
    expected = {16: 1, 14: -9, 13: 8, 12: 18, 11: -24, 10: -10, 9: 24, 8: -3, 7: -8, 6: 3}
    assert prod2 == IntPolynomial(tuple(expected.get(k, 0) for k in range(17)))


def test_charpoly_known_values():
    assert charpoly([[0, 0, 0], [0, 0, 0], [0, 0, 0]]) == IntPolynomial((0, 0, 0, 1))
    _, M = pure_power_matrix(parse_word("3,-1,4", 5))
    assert str(charpoly(M)) == "x^5 - 21x^3 - 16x^2 + 108x + 144"
    _, A = pure_power_matrix(parse_word("1,2,-3", 4))
    _, B = pure_power_matrix(parse_word("1,-2,3", 4))
    assert charpoly(A) == IntPolynomial((1, 0, -2, 0, 1))
    assert charpoly(B) == IntPolynomial((-3, 8, -6, 0, 1))


def test_charpoly_against_cofactor_oracle():
    rng = random.Random(21)
    for _ in range(200):
        n = rng.randint(1, 4)
        rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        assert charpoly(rows) == charpoly_cofactor(rows)


@st.composite
def integer_matrices(draw):
    """Square matrices of size 0-12 with entries up to 10^30: general,
    symmetric, singular (the last row a combination of earlier ones) or zero."""
    n = draw(st.integers(0, 12))
    top = draw(st.sampled_from([1, 10, 10**6, 10**30]))
    rows = [[draw(st.integers(-top, top)) for _ in range(n)] for _ in range(n)]
    shape = draw(st.sampled_from(["general", "symmetric", "singular", "zero"]))
    if shape == "symmetric":
        rows = [[rows[min(i, j)][max(i, j)] for j in range(n)] for i in range(n)]
    elif shape == "singular" and n:
        a, b = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
        i = (n - 1) // 2  # an earlier row when n > 1
        rows[-1] = [a * u + b * v for u, v in zip(rows[0], rows[i])] if n > 1 else [0]
    elif shape == "zero":
        rows = [[0] * n for _ in range(n)]
    return rows


@settings(max_examples=200, deadline=None)
@given(integer_matrices())
def test_charpoly_matches_berkowitz(rows):
    assert charpoly(rows) == charpoly_berkowitz(rows)


@pytest.mark.parametrize("sign", [1, -1])
def test_charpoly_at_the_coefficient_bound(sign):
    # for +-rho I every |c_k| equals C(n,k) rho^k, the bound the moduli
    # must cover, so the symmetric lift is exercised at its edge
    rho, n = 10**30, 32
    rows = [[sign * rho if i == j else 0 for j in range(n)] for i in range(n)]
    assert charpoly(rows) == IntPolynomial.from_roots([sign * rho] * n)


def test_charpoly_lift_at_the_edges_of_the_moduli():
    # a constant term of half a product of moduli, rounded either way, is
    # lifted right only if the product of the moduli used exceeds 2|a| + 1
    for k in (1, 2, 3):
        q = math.prod(intlinalg._prime_root(i, 1)[0] for i in range(k))
        for a in ((q - 1) // 2, (q + 1) // 2):
            assert charpoly([[a]]) == IntPolynomial((-a, 1))
            assert charpoly([[-a]]) == IntPolynomial((a, 1))


def test_charpoly_of_size_zero_and_one():
    assert charpoly([]) == IntPolynomial((1,))
    for a in (0, 1, -7, 10**40, -(10**40)):
        assert charpoly([[a]]) == IntPolynomial((-a, 1))


def test_charpoly_of_a_pure_power_matrix_at_degree_32():
    rng = random.Random(26)
    _, M = pure_power_matrix(random_word(rng, 32, 64, min_len=64))
    assert charpoly(M) == charpoly_berkowitz(M)


@st.composite
def hidden_block_matrices(draw):
    """Block-diagonal matrices of 0-6 blocks of size 1-5, with entries up
    to 10^30, hidden by a random simultaneous permutation of rows and
    columns; some pairs of consecutive blocks are linked one way only,
    M[i][j] != 0 = M[j][i], which makes them one block."""
    top = draw(st.sampled_from([1, 10, 10**30]))
    sizes = draw(st.lists(st.integers(1, 5), max_size=6))
    n = sum(sizes)
    rows = [[0] * n for _ in range(n)]
    starts = list(itertools.accumulate([0] + sizes))
    for a, b in zip(starts, starts[1:]):
        for i in range(a, b):
            for j in range(a, b):
                rows[i][j] = draw(st.integers(-top, top))
    for a, b, c in zip(starts, starts[1:], starts[2:]):
        if draw(st.booleans()):
            i, j = draw(st.integers(a, b - 1)), draw(st.integers(b, c - 1))
            if draw(st.booleans()):
                i, j = j, i
            rows[i][j], rows[j][i] = draw(st.integers(1, top)), 0
    order = draw(st.permutations(range(n)))
    return [[rows[i][j] for j in order] for i in order]


@settings(max_examples=200, deadline=None)
@given(hidden_block_matrices())
@example([])
@example([[0] * 5 for _ in range(5)])
@example([[7 if i == j else 0 for j in range(4)] for i in range(4)])  # 1x1 blocks
@example([[0, 3, 0], [0, 0, 0], [0, 0, 5]])  # a one-way link
def test_charpoly_of_hidden_blocks_matches_berkowitz(rows):
    entries = [(i, j, 0, v) for i, row in enumerate(rows) for j, v in enumerate(row) if v]
    groups = [group for group, _, _ in intlinalg._orbit_blocks([1] * len(rows), entries)]
    assert groups == matrix_components(rows)
    assert charpoly(rows) == charpoly_berkowitz(rows)


def _orbit_rows(lengths, orbits):
    """The dense rows of the orbit entries (I, J, delta, v), written as
    `pure_power_matrix` writes them: v at place s of cycle I and place
    s + delta of cycle J for every s, the cycles in turn, each from place 0."""
    firsts = list(itertools.accumulate(lengths, initial=0))
    rows = [[0] * firsts[-1] for _ in range(firsts[-1])]
    for i, j, delta, v in orbits:
        a, b = lengths[i], lengths[j]
        for s in range(math.lcm(a, b)):
            rows[firsts[i] + s % a][firsts[j] + (s + delta) % b] = v
    return rows


@st.composite
def orbit_lists(draw):
    """(cycle lengths 1-6, distinct nonzero orbit entries (I, J, delta, v) in
    a random order): few enough to leave several blocks, and each orbit
    drawn alone, so most link their two cycles one way only."""
    lengths = draw(st.lists(st.integers(1, 6), min_size=1, max_size=7))
    keys = [(i, j, delta) for i, a in enumerate(lengths) for j, b in enumerate(lengths)
            for delta in range(math.gcd(a, b))]
    chosen = draw(st.lists(st.sampled_from(keys), unique=True, max_size=len(lengths) + 2))
    values = st.integers(-10**6, 10**6).filter(bool)
    return lengths, [(i, j, delta, draw(values)) for i, j, delta in chosen]


@settings(max_examples=200, deadline=None)
@given(orbit_lists())
@example(([3, 1, 2, 3], [(3, 0, 1, 5), (0, 3, 2, 5), (2, 2, 1, -1)]))  # a mirrored pair
@example(([4, 2], [(1, 0, 1, 7)]))  # one link, one way
def test_orbit_blocks_split_the_written_rows(lengths_orbits):
    lengths, orbits = lengths_orbits
    rows = _orbit_rows(lengths, orbits)
    blocks = intlinalg._orbit_blocks(lengths, orbits)
    firsts = list(itertools.accumulate(lengths, initial=0))
    strands_of = [list(range(firsts[c], firsts[c + 1])) for c in range(len(lengths))]
    # whole cycles: the blocks partition the cycles, and each block's strands
    # are those of its cycles, so no cycle is split between two blocks
    assert sorted(c for group, _, _ in blocks for c in group) == list(range(len(lengths)))
    block_of = {}
    for b, (group, _, _) in enumerate(blocks):
        block_of.update((i, b) for c in group for i in strands_of[c])
    # no nonzero entry links two blocks
    assert all(block_of[i] == block_of[j] for i, row in enumerate(rows) for j, v in enumerate(row) if v)
    # and the blocks are the finest such: the components of the cycles that an entry links
    links = [[int(any(rows[i][j] for i in strands_of[c] for j in strands_of[e])) for e in range(len(lengths))]
             for c in range(len(lengths))]
    assert [group for group, _, _ in blocks] == matrix_components(links)
    # each block's renumbered orbits rewrite exactly its rows
    for group, block_lengths, block_orbits in blocks:
        assert block_lengths == [lengths[c] for c in group]
        strands = [i for c in group for i in strands_of[c]]
        assert _orbit_rows(block_lengths, block_orbits) == [[rows[i][j] for j in strands] for i in strands]


def _record_moduli(monkeypatch):
    """The moduli of every _charpoly_mod call from here on, in call order."""
    moduli, real = [], intlinalg._charpoly_mod

    def recorded(rows, p):
        moduli.append(p)
        return real(rows, p)

    monkeypatch.setattr(intlinalg, "_charpoly_mod", recorded)
    return moduli


def _frobenius_modulus_bound(rows) -> int:
    """2 max_k C(n,k) s^k + 1, s = ceil(sqrt(ceil(F^2 / n))): every modulus
    of a block of n rows must exceed it."""
    n = len(rows)
    q = -(-sum(v * v for r in rows for v in r) // n)
    s = math.isqrt(q) + (math.isqrt(q) ** 2 < q)
    return 2 * max(math.comb(n, k) * s**k for k in range(n + 1)) + 1


@pytest.mark.parametrize("m, seed", [(24, 31), (24, 32), (32, 33)])
def test_charpoly_of_normal_form_pure_powers(monkeypatch, m, seed):
    # the report's matrices: pure powers read off the normal form, which
    # split into blocks; each block of three or more rows takes one
    # Hessenberg pass, modulo a product of primes above its own bound, and
    # a block of one or two rows none (x - v, x^2 - (tr A) x + det A)
    rng = random.Random(seed)
    _, M = pure_power_matrix(normal_form(random_word(rng, m, 2 * m, min_len=2 * m)))
    calls, real = [], intlinalg._charpoly_mod

    def recorded(rows, p):
        calls.append(([list(r) for r in rows], p))
        return real(rows, p)

    monkeypatch.setattr(intlinalg, "_charpoly_mod", recorded)
    assert charpoly(M) == charpoly_berkowitz(M)
    rows = M.entries
    components = matrix_components(rows)
    blocks = [[[rows[i][j] for j in b] for i in b] for b in components if len(b) > 2]
    assert len(blocks) > 1 and any(len(b) == 2 for b in components)  # the matrix does split
    assert [sub for sub, _ in calls] == blocks
    assert all(p > _frobenius_modulus_bound(sub) for sub, p in calls)


def test_charpoly_splits_the_modulus_at_a_zero_divisor_pivot(monkeypatch):
    # every pivot candidate of the first column is a nonzero multiple of the
    # first prime, so modulo N (several primes: the entries are large) the
    # first pivot is a zero divisor, and N splits into that prime and the rest
    p0, p1 = intlinalg._prime_root(0, 1)[0], intlinalg._prime_root(1, 1)[0]
    rng = random.Random(36)
    n = 6
    rows = [[rng.randint(-10**20, 10**20) for _ in range(n)] for _ in range(n)]
    for i in range(1, n):
        rows[i][0] = p0 * rng.choice([-1, 1]) * rng.randint(1, 10**6)
    real = intlinalg._charpoly_mod
    moduli = _record_moduli(monkeypatch)
    want = charpoly_berkowitz(rows)
    assert charpoly(rows) == want
    N = moduli[0]
    assert N % (p0 * p1) == 0 and moduli == [N, p0, N // p0]
    # the same split at the smallest such modulus, against Berkowitz mod p0 p1
    assert real(rows, p0 * p1) == [c % (p0 * p1) for c in want.coeffs]


@st.composite
def zero_divisor_matrices(draw):
    """Square matrices of size 1-12 with entries up to 10^30, whose chosen
    columns (often the first, where the first pivot is taken) hold only
    multiples of one of the first two primes, so that modulo a product of
    primes a pivot is often a zero divisor."""
    n = draw(st.integers(1, 12))
    top = 10**30
    rows = [[draw(st.integers(-top, top)) for _ in range(n)] for _ in range(n)]
    columns = draw(st.lists(st.integers(0, n - 1), max_size=3))
    for j in columns + [0] * draw(st.booleans()):
        p = intlinalg._prime_root(draw(st.integers(0, 1)), 1)[0]
        for r in rows:
            r[j] = p * draw(st.integers(-(top // p), top // p))
    return rows


@settings(max_examples=100, deadline=None)
@given(zero_divisor_matrices())
def test_charpoly_with_zero_divisor_pivots_matches_berkowitz(rows):
    assert charpoly(rows) == charpoly_berkowitz(rows)


@pytest.mark.parametrize("n, s", [(1, 5), (7, -3), (24, 1), (32, 10**12), (32, -7)])
def test_charpoly_of_scaled_all_ones(n, s):
    # s J has the eigenvalue n s once and 0 n - 1 times
    rows = [[s] * n for _ in range(n)]
    assert charpoly(rows) == IntPolynomial.x_power(n - 1) * IntPolynomial((-n * s, 1))
    assert charpoly(rows) == charpoly_berkowitz(rows)


def test_charpoly_of_rank_one_matrices():
    # u v^T has the eigenvalue v.u once and 0 n - 1 times
    rng = random.Random(34)
    for n in (2, 5, 12, 24):
        top = rng.choice([3, 10**9])
        u = [rng.randint(-top, top) for _ in range(n)]
        v = [rng.randint(-top, top) for _ in range(n)]
        rows = [[a * b for b in v] for a in u]
        dot = sum(a * b for a, b in zip(u, v))
        assert charpoly(rows) == IntPolynomial.x_power(n - 1) * IntPolynomial((-dot, 1))
        assert charpoly(rows) == charpoly_berkowitz(rows)


def test_charpoly_coefficients_within_the_frobenius_bound():
    # |c_{n-k}| <= C(n,k) s^k, s = ceil(sqrt(ceil(F^2 / n))), on non-symmetric
    # matrices, and the bound is never weaker than the row-sum one
    rng = random.Random(35)
    for _ in range(150):
        n = rng.randint(1, 10)
        top = rng.choice([1, 4, 50, 10**8])
        rows = [[rng.randint(-top, top) for _ in range(n)] for _ in range(n)]
        if rng.random() < 0.3:  # upper triangular: the diagonal holds the eigenvalues
            rows = [[v if j > i else (rng.randint(-top, top) if i == j else 0)
                     for j, v in enumerate(r)] for i, r in enumerate(rows)]
        f2 = sum(v * v for r in rows for v in r)
        q = -(-f2 // n)
        s = math.isqrt(q) + (math.isqrt(q) ** 2 < q)
        cp = charpoly_berkowitz(rows)
        assert charpoly(rows) == cp
        for k in range(n + 1):
            assert abs(cp.coefficient(n - k)) <= math.comb(n, k) * s**k
        rho = max(sum(map(abs, r)) for r in rows)
        bound = max(math.comb(n, k) * s**k for k in range(n + 1))
        assert intlinalg._coefficient_bound(n, f2) == bound
        assert bound <= max(math.comb(n, k) * rho**k for k in range(n + 1))


def test_moduli_are_distinct_primes_below_2_62():
    # one block: the diagonal rho plus a path of 1s that links every row
    rho, n = 10**30, 32
    charpoly([[rho if i == j else int(abs(i - j) == 1) for j in range(n)] for i in range(n)])
    bound = 2 * max(math.comb(n, k) * rho**k for k in range(n + 1)) + 1
    used = [p for p, _ in intlinalg._PRIME_ROOTS[2]]  # dense blocks read the list of d <= 2
    assert math.prod(used) > bound  # that call needed 52 of them
    assert len(set(used)) == len(used)
    assert all(2**61 < p < 2**62 and is_prime_mr(p) for p in used)


def test_prime_roots_are_primes_1_mod_d_with_roots_of_order_d():
    # the DFT moduli of every order d up to 64 and of the longest cycles:
    # distinct primes below 2^62, largest first, each with a root whose
    # powers below the d-th, checked one by one, are not 1
    for d in [*range(1, 65), 512, 1024, 2048]:
        pairs = [intlinalg._prime_root(i, d) for i in range(3)]
        primes = [p for p, _ in pairs]
        kept = intlinalg._PRIME_ROOTS[max(d, 2)][:3]  # d = 1 reads the primes of d = 2
        assert primes == sorted(set(primes), reverse=True) and [p for p, _ in kept] == primes
        assert d == 1 or kept == pairs
        for p, w in pairs:
            assert p < 2**62 and (p - 1) % d == 0 and is_prime_mr(p)
            assert pow(w, d, p) == 1 and all(pow(w, e, p) != 1 for e in range(1, d) if d % e == 0)


def test_prime_roots_are_the_largest_primes_1_mod_d_in_order():
    # the i-th entry of `_PRIME_ROOTS[d]` is the i-th prime p = 1 (mod d)
    # below 2^62 met by a scan down from 2^62 - 1 that tests every integer;
    # d = 1 serves every dense block and walks the primes of d = 2, which
    # are kept once, with the order-2 root p - 1
    for d in (1, 2, 3, 4, 6, 1024):
        want, n = [], 2**62 - 1
        while len(want) < 3:
            if (n - 1) % d == 0 and is_prime_mr(n):
                want.append(n)
            n -= 1
        assert [intlinalg._prime_root(i, d)[0] for i in range(3)] == want
    n = len(intlinalg._PRIME_ROOTS[2]) + 2
    assert [intlinalg._prime_root(i, 1) for i in range(n)] == [(p, 1) for p, _ in intlinalg._PRIME_ROOTS[2]]
    assert all(w == p - 1 for p, w in intlinalg._PRIME_ROOTS[2]) and 1 not in intlinalg._PRIME_ROOTS


def test_concurrent_first_use_keeps_each_prime_once(monkeypatch):
    # four threads meet the moduli of one dense matrix in a fresh table at
    # once; without a lock on its growth a prime was appended twice, and
    # Chinese remaindering over the repeated prime later raised
    rng = random.Random(47)
    n = 10
    M = [[rng.randint(10**30 - 10**6, 10**30) for _ in range(n)] for _ in range(n)]
    want = charpoly(M)
    monkeypatch.setattr(intlinalg, "_PRIME_ROOTS", {})
    got, errors = [], []

    def work():
        try:
            got.append(charpoly(M))
        except Exception as exc:
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    primes = [p for p, _ in intlinalg._PRIME_ROOTS[2]]
    assert len(set(primes)) == len(primes) and primes == sorted(primes, reverse=True)
    assert not errors and got == [want] * 4
    assert charpoly(M) == want


def test_is_prime_matches_trial_division_from_2():
    # the one primality test serves the prime search near 2^62, the prime
    # factors of a root order d and the cycle lengths of Jordan's test,
    # so it must be exact on small and even n too
    for n in range(2, 10_001):
        assert intlinalg._is_prime(n) == all(n % f for f in range(2, math.isqrt(n) + 1)), n


def test_import_computes_no_moduli():
    code = "import braidsys; from braidsys import intlinalg; print(len(intlinalg._PRIME_ROOTS))"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in sys.path if p))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, timeout=60, check=True).stdout
    assert out.strip() == "0"


def test_charpoly_trace_coefficient_vanishes():
    # zero-diagonal input makes the x^{m-1} coefficient vanish
    rng = random.Random(22)
    for _ in range(50):
        n = rng.randint(2, 5)
        rows = [[0 if i == j else rng.randint(-3, 3) for j in range(n)] for i in range(n)]
        assert charpoly(rows).coefficient(n - 1) == 0


def test_determinant_and_rank_known_values():
    _, M = pure_power_matrix(parse_word("3,-1,4", 5))
    _, N = pure_power_matrix(parse_word("4,3,-1", 5))
    assert determinant(M) == determinant(N) == -144
    _, A = pure_power_matrix(parse_word("1,2,-3", 4))
    _, B = pure_power_matrix(parse_word("1,-2,3", 4))
    assert determinant(A) == 1 and determinant(B) == -3
    zero = [[0, 0], [0, 0]]
    assert determinant(zero) == 0 and rank(zero) == 0


matrix_kernels = pytest.mark.parametrize("kernel", [
    charpoly, determinant, rank, lambda M: permutation_equivalent(M, M)])


@matrix_kernels
@pytest.mark.parametrize("entry", [0.5, 1.0, True, False, "1", None])
def test_matrix_kernels_reject_entries_that_are_not_ints(kernel, entry):
    with pytest.raises(TypeError):
        kernel([[0, entry], [1, 0]])
    with pytest.raises(TypeError):
        kernel(((0, 1, 2), (1, 0, 3), (entry, 1, 0)))
    with pytest.raises(TypeError):
        kernel(CrossingMatrix(2, ((0, entry), (1, 0))))


@matrix_kernels
@pytest.mark.parametrize("rows", [[[0, 1], [1]], [[0, 1, 2], [1, 0, 3]], [[0, 1]], [[0], [1, 0]]])
def test_matrix_kernels_reject_ragged_rows(kernel, rows):
    with pytest.raises(ValueError, match="^matrix is not square$"):
        kernel(rows)


def test_matrix_rows_keeps_tuple_rows_and_converts_lists():
    rows = ((0, 2), (3, 0))
    got = matrix_rows(CrossingMatrix(2, rows))
    assert got == rows and all(g is r for g, r in zip(got, rows))
    assert matrix_rows([[0, 2], [3, 0]]) == rows


def test_determinant_matches_charpoly_constant():
    rng = random.Random(23)
    for _ in range(80):
        n = rng.randint(1, 5)
        rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        cp = charpoly(rows)
        assert determinant(rows) == (-1) ** n * cp.coefficient(0)


def test_elimination_against_fraction_oracle():
    rng = random.Random(24)
    cases = [[]]  # n = 0: determinant 1, rank 0
    for _ in range(200):
        n = rng.randint(1, 5)
        rows = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
        if rng.random() < 0.4:  # encourage rank deficiency
            rows[rng.randrange(n)] = rows[rng.randrange(n)][:]
        cases.append(rows)
    for n in range(1, 8):
        for _ in range(20):
            rows = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
            # a zero first column makes the elimination skip it
            cases.append([[0] + r[1:] for r in rows])
            if n > 1:  # the first pivot lies below the top row: one swap
                rows[0][0], rows[-1][0] = 0, rng.choice((-2, -1, 1, 3))
                cases.append(rows)
    for rows in cases:
        assert determinant(rows) == det_fraction(rows)
        assert rank(rows) == rank_fraction(rows)


def test_integer_roots_known_values():
    p = IntPolynomial((144, 108, -16, -21, 0, 1))
    assert integer_roots(p) == ((-3, 1), (-2, 2), (3, 1), (4, 1))
    q = IntPolynomial((-3, 8, -6, 0, 1))
    assert integer_roots(q) == ((-3, 1), (1, 3))
    assert integer_roots(IntPolynomial.x_power(5)) == ((0, 5),)
    # constant cores: the root bound is 0, so no candidate is tried
    p = IntPolynomial((5,)) * IntPolynomial.x_power(2) * IntPolynomial.from_roots([1, -1, -1, -1])
    assert split_integer_roots(p) == (((-1, 3), (0, 2), (1, 1)), IntPolynomial((5,)))
    assert split_integer_roots(IntPolynomial((-7,))) == ((), IntPolynomial((-7,)))


def test_integer_roots_reconstruction():
    # a fresh copy of the product, so that its roots come from the scan and
    # not from the split `from_roots` keeps
    rng = random.Random(25)
    for _ in range(150):
        roots = [rng.randint(-8, 8) for _ in range(rng.randint(0, 5))]
        p = IntPolynomial(IntPolynomial.from_roots(roots).coeffs)
        got = dict(integer_roots(p))
        want: dict[int, int] = {}
        for r in roots:
            want[r] = want.get(r, 0) + 1
        assert got == want
        # every reported root really evaluates to zero
        for r, _mult in integer_roots(p):
            assert p(r) == 0


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(-8, 8) | st.sampled_from([-1, 0, 1]) | st.integers(-10**20, 10**20), max_size=12))
@example([])
@example([0, 0, 1, -1, -1, -1, 5, 5])
@example([10**20] * 12)
def test_from_roots_keeps_its_split(roots):
    # the product of x - r, as the factors multiply out, with the multiset
    # of the roots kept: integer_roots of it makes no scan
    want = IntPolynomial((1,))
    for r in roots:
        want = want * IntPolynomial((-r, 1))
    calls = []
    real = intlinalg._split_roots
    intlinalg._split_roots = lambda p: calls.append(p) or real(p)
    try:
        p = IntPolynomial.from_roots(roots)
        got = integer_roots(p)
    finally:
        intlinalg._split_roots = real
    assert p == want and not calls
    assert got == tuple(sorted((r, roots.count(r)) for r in set(roots)))
    assert split_integer_roots(p)[1] == IntPolynomial((1,))


def test_integer_roots_ignores_non_integer_content():
    p = IntPolynomial.from_roots([2, -2]) * IntPolynomial((1, 0, 1))  # (x^2+1) factor
    assert integer_roots(p) == ((-2, 1), (2, 1))


@st.composite
def split_polynomials(draw):
    """Products of linear factors (roots repeating, 0 and +-1 among them),
    irreducible quadratics and an integer content, kept to a Cauchy bound
    of at most 3000 so that the scan oracle stays fast."""
    roots = draw(st.lists(st.integers(-8, 8), max_size=4))
    roots += draw(st.lists(st.sampled_from([-1, 0, 1]), max_size=2))
    p = IntPolynomial((draw(st.sampled_from([1, 1, -1, 2, -3])),))
    for r in roots:
        p = p * IntPolynomial((-r, 1))
    for _ in range(draw(st.integers(0, 2))):
        b, c = draw(st.integers(-3, 3)), draw(st.integers(-6, 6))
        disc = b * b - 4 * c
        if disc >= 0 and math.isqrt(disc) ** 2 == disc:
            c = b * b or 1  # x^2 + bx + b^2 has the discriminant -3 b^2 < 0
        p = p * IntPolynomial((c, b, 1))
    assume(max(map(abs, p.coeffs)) <= 3000 * abs(p.coeffs[-1]))
    return p


@settings(max_examples=200, deadline=None)
@given(split_polynomials())
def test_integer_roots_match_the_scan_oracle(p):
    roots, rest = integer_roots_scan(p)
    assert integer_roots(p) == roots
    assert split_integer_roots(p) == (roots, rest)
    back = rest
    for r, mult in roots:
        back = back * IntPolynomial.from_roots([r] * mult)
    assert back == p


@settings(max_examples=200, deadline=None)
@given(split_polynomials())
def test_the_kept_split_matches_the_scan_oracle_and_leaves_the_value_alone(p):
    fresh, plain = IntPolynomial(p.coeffs), IntPolynomial(p.coeffs)
    assert p._root_split == integer_roots_scan(p) == split_integer_roots(fresh)
    assert "_root_split" in vars(p) and "_root_split" not in vars(plain)
    assert p == plain and hash(p) == hash(plain)
    assert (repr(p), str(p), p.to_json()) == (repr(plain), str(plain), plain.to_json())


def test_split_roots_searches_divisors_only_on_the_core(monkeypatch):
    # q(1) = q(-1) = 0 would let every divisor of 720720 within the root
    # bound through the (r -+ 1) | q(+-1) filter, one deflation each
    deflations = []
    deflate = intlinalg._deflate
    monkeypatch.setattr(intlinalg, "_deflate", lambda c, r: deflations.append(r) or deflate(c, r))
    p = IntPolynomial.from_roots([1, -1]) * IntPolynomial((720720, 0, 1))
    assert intlinalg._split_roots(p) == (((-1, 1), (1, 1)), [720720, 0, 1])
    assert len(deflations) <= 4


def _as_orbits(rows):
    """A matrix in the form `_split_charpoly` reads, for the identity
    permutation: every strand its own cycle of length 1, and every nonzero
    entry its own orbit (I, J, 0, entry)."""
    return [1] * len(rows), [(i, j, 0, v) for i, row in enumerate(rows) for j, v in enumerate(row) if v]


def _factor_product(factors):
    """The product of `_dft_charpoly`'s (ascending coefficients,
    multiplicity) factors, each to its multiplicity."""
    p = IntPolynomial((1,))
    for c, mult in factors:
        for _ in range(mult):
            p = p * IntPolynomial(tuple(c))
    return p


@st.composite
def symmetric_orbit_blocks(draw):
    """(a block as `_dft_charpoly` reads it, its dense rows): cycles
    of drawn lengths, among them lengths d with phi(d) > 2, and for each
    orbit (I, J, delta) an entry up to 10^30 or none, the same for its
    mirror (J, I, -delta), so the rows are symmetric."""
    lengths = draw(st.lists(st.sampled_from([1, 2, 3, 4, 5, 6, 8, 12, 16]), min_size=1, max_size=3)
                   .filter(lambda ls: sum(ls) <= 16))
    top = draw(st.sampled_from([1, 10**6, 10**30]))
    entries = {}
    for i, a in enumerate(lengths):
        for j in range(i, len(lengths)):
            g = math.gcd(a, lengths[j])
            for delta in range(g):
                if (j, i, -delta % g) not in entries and (v := draw(st.integers(-top, top))):
                    entries[i, j, delta] = entries[j, i, -delta % g] = v
    orbits = [(i, j, delta, v) for (i, j, delta), v in entries.items()]
    return (lengths, orbits), _orbit_rows(lengths, orbits)


@settings(max_examples=100, deadline=None)
@given(symmetric_orbit_blocks())
@example((([16], [(0, 0, 1, 10**30), (0, 0, 15, 10**30), (0, 0, 3, -7), (0, 0, 13, -7)]),
          [[10**30 if (j - i) % 16 in (1, 15) else -7 if (j - i) % 16 in (3, 13) else 0
            for j in range(16)] for i in range(16)]))
def test_dft_charpoly_matches_berkowitz(block_rows):
    # the DFT factors, each in closed form or modulo primes 1 mod d above
    # its own bound, monic, squared for d > 2, and their product against
    # the Berkowitz charpoly of the dense block (no root split:
    # entries near 10^30 with no common factor make a long divisor scan)
    block, rows = block_rows
    assert rows == [list(col) for col in zip(*rows)]
    factors = intlinalg._dft_charpoly(*block)
    assert all(c[-1] == 1 and mult in (1, 2) for c, mult in factors)
    assert _factor_product(factors) == charpoly_berkowitz(rows)


def _block_diagonal(blocks):
    n = sum(map(len, blocks))
    rows, at = [[0] * n for _ in range(n)], 0
    for block in blocks:
        for i, row in enumerate(block):
            rows[at + i][at : at + len(row)] = row
        at += len(block)
    return rows


_G = 1009  # a common factor larger than every root of the divided block


@pytest.mark.parametrize("blocks", [
    # divided by 1009: x^3 - 6x - 4 = (x + 2)(x^2 - 2x - 2)
    [[[0, _G, 2 * _G], [_G, 0, _G], [2 * _G, _G, 0]]],
    [[[0, 0], [0, 0]], [[0]]],
    [[[5]], [[-3]], [[0]], [[5]]],
    [[[0, 2, 3], [2, 0, 5], [3, 5, 0]]],
    [[[0, 6], [6, 0]], [[0, 0], [0, 0]], [[7]], [[0, 2, 3], [2, 0, 5], [3, 5, 0]], [[0, -4], [-4, 0]]],
], ids=["common-factor", "all-zero", "1x1", "g-is-1", "mixed"])
def test_split_block_charpoly_matches_berkowitz_and_the_scan(blocks):
    # the product of the blocks' polynomials, each block divided by the gcd
    # of its entries and scaled back, against the block-diagonal matrix's
    # Berkowitz charpoly and a scan within its largest absolute row sum
    rows = _block_diagonal(blocks)
    p = intlinalg._split_charpoly(*_as_orbits(rows))
    cp = charpoly_berkowitz(rows)
    assert p == cp and "_root_split" in vars(p)
    bound = max(sum(map(abs, row)) for row in rows)
    assert split_integer_roots(p) == integer_roots_scan(cp, bound)
    assert factored_str(p) == factored_str(IntPolynomial(cp.coeffs))


def test_split_block_charpoly_splits_the_divided_block(monkeypatch):
    # entries near 10^12: the divided block's polynomial has the roots -2 and
    # 1 +- sqrt(3), so its split is found at once and scaled back
    split = []
    split_roots = intlinalg._split_roots
    monkeypatch.setattr(intlinalg, "_split_roots", lambda p: split.append(p.coeffs) or split_roots(p))
    g = 10**12 + 39
    p = intlinalg._split_charpoly(*_as_orbits([[0, g, 2 * g], [g, 0, g], [2 * g, g, 0]]))
    assert split == [(-4, -6, 0, 1)]
    assert p == IntPolynomial((-4 * g**3, -6 * g**2, 0, 1))
    assert split_integer_roots(p) == (((-2 * g, 1),), IntPolynomial((-2 * g * g, -2 * g, 1)))


def _split(roots, cofactor):
    """(ascending coefficients, roots, cofactor) of the cofactor times
    (x - r)^k for each (r, k) in roots."""
    c = list(cofactor)
    for r, k in roots:
        for _ in range(k):
            c = convolve(c, [-r, 1])
    return c, tuple(roots), list(cofactor)


@st.composite
def root_splits(draw):
    """One to six splits as `split_product_chain` takes them.  The roots
    come from one pool of up to four, around 0 or all of one sign near
    +-10^6, and 0 may join them, so that a root recurs within and across
    splits, with multiplicities 1-6.  A cofactor is 1 or a product of one
    to three quadratics x^2 + a x + b with b > a^2 / 4, which have no real
    root; with |a| up to 10^15 its coefficients reach about 10^30."""
    center = draw(st.sampled_from([0, 10**6, -10**6]))
    pool = [center + d for d in draw(st.lists(st.integers(-3, 3), min_size=1, max_size=4, unique=True))]
    pool += [0] if draw(st.booleans()) else []
    size = draw(st.sampled_from([10, 10**15]))
    splits = []
    for _ in range(draw(st.integers(1, 6))):
        roots = draw(st.lists(st.tuples(st.sampled_from(pool), st.integers(1, 6)), max_size=3))
        cofactor = [1]
        for _ in range(draw(st.integers(0, 3))):
            a = draw(st.integers(-size, size))
            cofactor = convolve(cofactor, [a * a // 4 + draw(st.integers(1, size * size)), a, 1])
        splits.append(_split(roots, cofactor))
    return splits


@settings(max_examples=200, deadline=None)
@given(root_splits())
@example([])
@example([_split((), [1])])
@example([_split(((0, 3),), [1]), _split(((0, 1), (2, 1)), [1])])  # zero roots alone, then shifted
# the same root with k = 1 and k >= 2 across splits, on a short and a long product
@example([_split(((2, 1),), [1]), _split(((2, 3), (-1, 1)), [1])])
@example([_split(((-1, 1),), [5, 4, 3, 2, 1]), _split(((-1, 4), (3, 6)), [1])])
# same-sign roots near 10^6 with the largest binomials, and near -10^6
@example([_split(((10**6, 6), (10**6 - 1, 6)), [1]), _split(((10**6, 6),), [1])])
@example([_split(((-10**6, 6), (-10**6 + 3, 1)), [1]), _split(((-10**6 + 3, 5),), [1])])
# a dense cofactor near 10^30, then roots of multiplicity below and above its length
@example([_split(((7, 2),), convolve([10**30 + 1, 10**15, 1], [10**30 + 7, -10**15, 1])),
          _split(((7, 1), (-5, 9)), [3, 1, 1])])
def test_split_product_matches_the_two_chain_oracle(splits):
    # the product built from the splits alone, its coefficients and its kept
    # split, against the product of the full coefficients
    p = intlinalg._split_product([(roots, cofactor) for _, roots, cofactor in splits])
    q = split_product_chain(splits)
    assert p.coeffs == q.coeffs
    assert p._root_split == q._root_split


@st.composite
def scaled_symmetric_blocks(draw):
    """(cycle lengths, orbit entries, dense rows) of a symmetric matrix
    that is constant on the orbits of e x e: one to four cycles of lengths
    1-12, at most 24 strands, and small entries, the same for each orbit
    (I, J, delta) and its mirror (J, I, -delta), all times one drawn common
    factor.  Small entries make linear and quadratic factors with integer
    roots."""
    lengths = draw(st.lists(st.integers(1, 12), min_size=1, max_size=4).filter(lambda ls: sum(ls) <= 24))
    g = draw(st.sampled_from([1, 2, 3, 7, 60]))  # the scan below grows with g
    entries = {}
    for i, a in enumerate(lengths):
        for j in range(i, len(lengths)):
            h = math.gcd(a, lengths[j])
            for delta in range(h):
                if (j, i, -delta % h) not in entries and (v := draw(st.integers(-3, 3))):
                    entries[i, j, delta] = entries[j, i, -delta % h] = g * v
    return _with_rows(lengths, entries)


def _with_rows(lengths, entries):
    """(lengths, orbits, dense rows) of the orbit entries {(I, J, delta): v}."""
    orbits = [(i, j, delta, v) for (i, j, delta), v in entries.items()]
    return lengths, orbits, _orbit_rows(lengths, orbits)


@settings(max_examples=150, deadline=None)
@given(scaled_symmetric_blocks())
# a 6-cycle and a 4-cycle: linear factors at d = 1, 2, 3, 6 and d = 1, 2, 4
@example(_with_rows([6], {(0, 0, 1): 7, (0, 0, 5): 7, (0, 0, 2): -14, (0, 0, 4): -14, (0, 0, 3): 21}))
@example(_with_rows([4], {(0, 0, 1): 2, (0, 0, 3): 2, (0, 0, 2): 5}))
# a (1, 2) block: A_1 of two rows, x^2 - x - 2 = (x - 2)(x + 1), and x + 1 at d = 2
@example(_with_rows([1, 2], {(0, 1, 0): 1, (1, 0, 0): 1, (1, 1, 1): 1}))
# quadratic factors: x^2 - 2x - 3 = (x - 3)(x + 1), x^2 - x - 1 (no integer root),
# and x^2 - 1 of the block divided by 63
@example(_with_rows([1, 1], {(0, 0, 0): 1, (0, 1, 0): 2, (1, 0, 0): 2, (1, 1, 0): 1}))
@example(_with_rows([1, 1], {(0, 1, 0): 1, (1, 0, 0): 1, (1, 1, 0): 1}))
@example(_with_rows([1, 1], {(0, 1, 0): 63, (1, 0, 0): 63}))
def test_split_charpoly_closed_forms_match_berkowitz_and_the_scan(block):
    # the polynomial, its integer roots and its cofactor, from the closed
    # forms, the discriminant and the divisor scan factor by factor, against
    # the dense rows' Berkowitz charpoly and a scan within the largest
    # absolute row sum, which bounds every eigenvalue
    lengths, orbits, rows = block
    p = intlinalg._split_charpoly(lengths, orbits)
    cp = charpoly_berkowitz(rows)
    assert p == cp
    bound = max(sum(map(abs, row)) for row in rows)
    assert split_integer_roots(p) == integer_roots_scan(cp, bound)


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 3).flatmap(lambda n: st.lists(
    st.lists(st.integers(-10**20, 10**20), min_size=n, max_size=n), min_size=n, max_size=n)))
@example([[1, 2], [3, 4]])
@example([[0, 0], [5, 0]])  # one link, one way: x^2
@example([[2, -1, 0], [7, 0, 3], [0, 0, 1]])
@example([[0, 4, 0], [0, 0, 0], [0, 0, -2]])  # a 2 x 2 block and a 1 x 1 block
def test_charpoly_of_small_dense_matrices_matches_berkowitz(rows):
    # not symmetric: A_1 of one or two rows in closed form, of three rows
    # by the modular pass
    assert charpoly(rows) == charpoly_berkowitz(rows)


def test_reduce_poly_known_values():
    prod = IntPolynomial((1,))
    for root, mult in ((0, 6), (-1, 3), (1, 6), (-3, 1)):
        for _ in range(mult):
            prod = prod * IntPolynomial((-root, 1))
    red = reduce_poly(prod)
    assert (red.zero_mult, red.one_mult, red.neg_one_mult) == (6, 6, 3)
    assert red.core == IntPolynomial((3, 1))

    prod2 = IntPolynomial((1,))
    for root, mult in ((-1, 3), (1, 3), (-3, 1), (3, 1)):
        for _ in range(mult):
            prod2 = prod2 * IntPolynomial((-root, 1))
    red2 = reduce_poly(prod2)
    assert (red2.zero_mult, red2.one_mult, red2.neg_one_mult) == (0, 3, 3)
    assert red2.core == IntPolynomial((-9, 0, 1))

    red3 = reduce_poly(IntPolynomial.x_power(4))
    assert red3.zero_mult == 4 and red3.core == IntPolynomial((1,))


def test_reduce_poly_divides_at_plus_minus_one_only_at_a_root(monkeypatch):
    deflations = []
    deflate = intlinalg._deflate
    monkeypatch.setattr(intlinalg, "_deflate", lambda c, r: deflations.append(r) or deflate(c, r))
    rng = random.Random(27)
    for one_mult, neg_one_mult in itertools.product(range(4), repeat=2):
        for _ in range(8):
            core = [rng.randint(-9, 9) for _ in range(rng.randint(0, 4))] + [rng.choice((1, -1, 2))]
            p = IntPolynomial(tuple(core)) * IntPolynomial.from_roots(
                [1] * one_mult + [-1] * neg_one_mult + [0] * rng.randint(0, 1))
            roots, rest = integer_roots_scan(p)
            deflations.clear()
            red = reduce_poly(p)
            assert red.reassemble() == p
            found = dict(roots)
            assert (red.zero_mult, red.one_mult, red.neg_one_mult) == (
                found.get(0, 0), found.get(1, 0), found.get(-1, 0))
            assert (1 in deflations, -1 in deflations) == (red.one_mult > 0, red.neg_one_mult > 0)
            assert split_integer_roots(p) == (roots, rest)


def test_reduce_poly_roundtrip():
    rng = random.Random(26)
    for _ in range(100):
        roots = [rng.choice([-2, -1, 0, 0, 1, 2, 3]) for _ in range(rng.randint(1, 6))]
        p = IntPolynomial.from_roots(roots)
        red = reduce_poly(p)
        assert red.reassemble() == p
        for x in (0, 1, -1):
            assert red.core(x) != 0


def test_factored_rendering():
    prod = IntPolynomial((1,))
    for root, mult in ((0, 6), (-1, 3), (1, 6), (-3, 1)):
        for _ in range(mult):
            prod = prod * IntPolynomial((-root, 1))
    assert factored_str(prod) == "x^6 (x+1)^3 (x-1)^6 (x+3)"
    assert factored_str(IntPolynomial((1,))) == "1"
    assert factored_str(IntPolynomial((5, 0, 1))) == "x^2 + 5"
    assert factored_str(IntPolynomial(())) == str(IntPolynomial((0,))) == "0"


def render_from_scan(p: IntPolynomial) -> str:
    """factored_str spelled out from the scan oracle's roots and cofactor."""
    roots, rest = integer_roots_scan(p)
    mult = dict(roots)
    parts = [(base, mult.pop(r)) for r, base in ((0, "x"), (-1, "(x+1)"), (1, "(x-1)")) if r in mult]
    parts += [(f"(x-{r})" if r > 0 else f"(x+{-r})", k) for r, k in sorted(mult.items())]
    if rest != IntPolynomial((1,)) or not parts:
        parts.append((f"({rest})" if parts else str(rest), 1))
    return " ".join(base if k == 1 else f"{base}^{k}" for base, k in parts)


@settings(max_examples=200, deadline=None)
@given(split_polynomials())
@example(IntPolynomial((1,)))
@example(IntPolynomial((-7,)))
@example(IntPolynomial((2, -2)))  # -2 (x - 1)
@example(IntPolynomial((0, 6, -3, -3)))  # -3 x (x - 1) (x + 2)
@example(IntPolynomial((-4, 0, 2, 0)) * IntPolynomial.from_roots([0, 1, -1, 5]))
def test_factored_str_matches_the_scan_oracle(p):
    assert factored_str(p) == render_from_scan(p)


def test_polynomial_json_roundtrip():
    p = IntPolynomial((144, 108, -16, -21, 0, 1))
    assert IntPolynomial.from_json(p.to_json()) == p
    red = reduce_poly(p * IntPolynomial.x_power(2))
    back = ReducedPolynomial.from_json(red.to_json())
    assert back == red
    assert red.to_json()["x_mult"] == 2


def test_reduce_rejects_zero():
    with pytest.raises(ValueError):
        reduce_poly(IntPolynomial(()))
    with pytest.raises(ValueError):
        integer_roots(IntPolynomial(()))
