import math
import os
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from braidsys import (
    IntPolynomial,
    ReducedPolynomial,
    charpoly,
    determinant,
    factored_str,
    integer_roots,
    parse_word,
    pure_power_matrix,
    rank,
    reduce_poly,
)
from braidsys import intlinalg

from oracles import (
    charpoly_berkowitz,
    charpoly_cofactor,
    det_fraction,
    is_prime_mr,
    random_word,
    rank_fraction,
)


def test_poly_arithmetic():
    p = IntPolynomial((1, 0, -2, 0, 1))  # x^4 - 2x^2 + 1
    one = IntPolynomial((1,))
    assert p * one == p
    assert p == IntPolynomial((1, 0, -2, 0, 1, 0))
    assert str(p) == "x^4 - 2x^2 + 1"
    assert p(2) == 9
    assert p.degree == 4 and p.is_monic()


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
        q = math.prod(intlinalg._modulus(i) for i in range(k))
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


def test_moduli_are_distinct_primes_below_2_62():
    rho, n = 10**30, 32
    charpoly([[rho if i == j else 0 for j in range(n)] for i in range(n)])
    bound = 2 * max(math.comb(n, k) * rho**k for k in range(n + 1)) + 1
    used = intlinalg._PRIMES
    assert math.prod(used) > bound  # that call needed about 27 of them
    assert len(set(used)) == len(used)
    assert all(2**61 < p < 2**62 and is_prime_mr(p) for p in used)


def test_import_computes_no_moduli():
    code = "import braidsys; from braidsys import intlinalg; print(len(intlinalg._PRIMES))"
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


def test_determinant_matches_charpoly_constant():
    rng = random.Random(23)
    for _ in range(80):
        n = rng.randint(1, 5)
        rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        cp = charpoly(rows)
        assert determinant(rows) == (-1) ** n * cp.coefficient(0)


def test_elimination_against_fraction_oracle():
    rng = random.Random(24)
    for _ in range(200):
        n = rng.randint(1, 5)
        rows = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
        if rng.random() < 0.4:  # encourage rank deficiency
            rows[rng.randrange(n)] = rows[rng.randrange(n)][:]
        assert determinant(rows) == det_fraction(rows)
        assert rank(rows) == rank_fraction(rows)


def test_integer_roots_known_values():
    p = IntPolynomial((144, 108, -16, -21, 0, 1))
    assert integer_roots(p) == ((-3, 1), (-2, 2), (3, 1), (4, 1))
    q = IntPolynomial((-3, 8, -6, 0, 1))
    assert integer_roots(q) == ((-3, 1), (1, 3))
    assert integer_roots(IntPolynomial.x_power(5)) == ((0, 5),)


def test_integer_roots_reconstruction():
    rng = random.Random(25)
    for _ in range(150):
        roots = [rng.randint(-8, 8) for _ in range(rng.randint(0, 5))]
        p = IntPolynomial.from_roots(roots)
        got = dict(integer_roots(p))
        want: dict[int, int] = {}
        for r in roots:
            want[r] = want.get(r, 0) + 1
        assert got == want
        # every reported root really evaluates to zero
        for r, _mult in integer_roots(p):
            assert p(r) == 0


def test_integer_roots_ignores_non_integer_content():
    p = IntPolynomial.from_roots([2, -2]) * IntPolynomial((1, 0, 1))  # (x^2+1) factor
    assert integer_roots(p) == ((-2, 1), (2, 1))


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
