"""
Exact integer linear algebra and polynomial arithmetic.

Characteristic polynomials are computed modulo primes just below 2^62,
each by Hessenberg reduction over F_p in O(n^3), and recovered exactly by
Chinese remaindering once the product of the primes exceeds
2 max_k C(n,k) rho^k + 1, rho being the largest absolute row sum: no
coefficient can be larger in absolute value than half of that.
Determinants and ranks use fraction-free Bareiss elimination, so every
value stays an exact Python integer.  Polynomials are monic
integer polynomials stored as ascending coefficient tuples; "essential"
root content is represented exactly by stripping the factors x, x-1 and
x+1 off a polynomial and keeping the remaining core.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field

from .codec import JsonCodec
from .crossing import matrix_rows


@dataclass(frozen=True)
class IntPolynomial(JsonCodec):
    """Integer polynomial; coeffs[i] is the coefficient of x^i."""

    coeffs: tuple[int, ...]

    def __post_init__(self):
        c = tuple(int(v) for v in self.coeffs)
        while c and c[-1] == 0:
            c = c[:-1]
        object.__setattr__(self, "coeffs", c)

    @staticmethod
    def from_roots(roots) -> "IntPolynomial":
        p = IntPolynomial((1,))
        for r in roots:
            p = p * IntPolynomial((-r, 1))
        return p

    @staticmethod
    def x_power(k: int) -> "IntPolynomial":
        return IntPolynomial((0,) * k + (1,))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __call__(self, x: int) -> int:
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __add__(self, other: "IntPolynomial") -> "IntPolynomial":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        return IntPolynomial(tuple(a[i] + (b[i] if i < len(b) else 0) for i in range(len(a))))

    def __neg__(self) -> "IntPolynomial":
        return IntPolynomial(tuple(-c for c in self.coeffs))

    def __sub__(self, other: "IntPolynomial") -> "IntPolynomial":
        return self + (-other)

    def __mul__(self, other: "IntPolynomial") -> "IntPolynomial":
        if not self.coeffs or not other.coeffs:
            return IntPolynomial(())
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return IntPolynomial(tuple(out))

    def coefficient(self, k: int) -> int:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else 0

    def deflate(self, root: int) -> tuple["IntPolynomial", int]:
        """Synthetic division by (x - root); returns (quotient, remainder)."""
        if not self.coeffs:
            return self, 0
        quot = [0] * (len(self.coeffs) - 1)
        acc = 0
        for i in range(len(self.coeffs) - 1, 0, -1):
            acc = acc * root + self.coeffs[i]
            quot[i - 1] = acc
        rem = acc * root + self.coeffs[0]
        return IntPolynomial(tuple(quot)), rem

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        terms = []
        for k in range(self.degree, -1, -1):
            c = self.coeffs[k]
            if c == 0:
                continue
            sign = "-" if c < 0 else "+"
            mag = abs(c)
            if k == 0:
                body = str(mag)
            else:
                xs = "x" if k == 1 else f"x^{k}"
                body = xs if mag == 1 else f"{mag}{xs}"
            terms.append((sign, body))
        head_sign, head = terms[0]
        out = ("-" if head_sign == "-" else "") + head
        for sign, body in terms[1:]:
            out += f" {sign} {body}"
        return out


_PRIMES: list[int] = []  # the moduli found so far, largest first


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for odd n in (2, 2^64): Sinclair's seven
    bases admit no strong pseudoprime in that range."""
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in (2, 325, 9375, 28178, 450775, 9780504, 1795265022):
        a %= n
        if a == 0:  # n divides the base, which proves nothing
            continue
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _modulus(i: int) -> int:
    """The i-th largest prime below 2^62 (from 0), searched for on first use."""
    while len(_PRIMES) <= i:
        q = _PRIMES[-1] - 2 if _PRIMES else (1 << 62) - 1
        while not _is_prime(q):
            q -= 2
        _PRIMES.append(q)
    return _PRIMES[i]


def _charpoly_mod(rows, p: int) -> list[int]:
    """Ascending coefficients of det(xI - M) mod p.

    M is brought to upper Hessenberg form H by elimination similarities
    over F_p, and the polynomial is read off H by the recurrence
    p_m = (x - h_mm) p_{m-1} - sum_{i<m} h_im (h_{i+1,i} ... h_{m,m-1}) p_{i-1}
    (Cohen, *A Course in Computational Algebraic Number Theory*, 2.2.4).
    """
    n = len(rows)
    H = [[v % p for v in r] for r in rows]
    for m in range(1, n - 1):
        piv = next((i for i in range(m, n) if H[i][m - 1]), None)
        if piv is None:
            continue
        if piv != m:  # swap rows and columns m and piv
            H[m], H[piv] = H[piv], H[m]
            for r in H:
                r[m], r[piv] = r[piv], r[m]
        hm = H[m][m:]
        inv = pow(H[m][m - 1], -1, p)
        us = []
        for i in range(m + 1, n):  # row i -= u_i row m clears H[i][m-1] ...
            ri = H[i]
            u = ri[m - 1] * inv % p
            us.append(u)
            if u:
                ri[m - 1] = 0
                ri[m:] = [(a - u * b) % p for a, b in zip(ri[m:], hm)]
        if any(us):  # ... and column m += sum_i u_i column i undoes it on the right
            for r in H:
                r[m] = (r[m] + sum(map(operator.mul, us, r[m + 1 :]))) % p
    polys = [[1]]
    for m in range(n):
        prev = polys[-1]
        new = [0] + prev
        h = H[m][m]
        for k, v in enumerate(prev):
            new[k] -= h * v
        t = 1
        for i in range(m - 1, -1, -1):
            t = t * H[i + 1][i] % p
            if not t:
                break
            c = t * H[i][m] % p
            if c:
                q = polys[i]
                new[: len(q)] = [a - c * v for a, v in zip(new, q)]
        polys.append([v % p for v in new])
    return polys[-1]


def charpoly(M) -> IntPolynomial:
    """det(xI - M), exactly, from its residues modulo primes below 2^62.

    Every eigenvalue is at most the largest absolute row sum rho in
    absolute value, so the coefficient of x^(n-k) is at most C(n,k) rho^k.
    Moduli are added until their product exceeds twice the largest such
    bound plus one; Chinese remaindering then gives each coefficient in
    the symmetric range, where it is unique.
    """
    rows = matrix_rows(M)
    n = len(rows)
    rho = max((sum(map(abs, r)) for r in rows), default=0)
    term = largest = 1
    for k in range(n):  # term = C(n, k+1) rho^(k+1), an exact division
        term = term * (n - k) * rho // (k + 1)
        largest = max(largest, term)
    bound = 2 * largest + 1
    coeffs, modulus, i = [0] * (n + 1), 1, 0
    while modulus <= bound:
        p = _modulus(i)
        i += 1
        inv = pow(modulus % p, -1, p)
        coeffs = [
            c + modulus * ((r - c) * inv % p) for c, r in zip(coeffs, _charpoly_mod(rows, p))
        ]
        modulus *= p
    half = modulus // 2
    return IntPolynomial(tuple(c - modulus if c > half else c for c in coeffs))


def _exact_div(a: int, b: int) -> int:
    q, r = divmod(a, b)
    if r:
        raise ArithmeticError("fraction-free elimination produced a non-exact division")
    return q


def determinant(M) -> int:
    """Exact determinant by fraction-free Bareiss elimination."""
    rows = [list(r) for r in matrix_rows(M)]
    n = len(rows)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if rows[k][k] == 0:
            for i in range(k + 1, n):
                if rows[i][k] != 0:
                    rows[k], rows[i] = rows[i], rows[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                rows[i][j] = _exact_div(rows[k][k] * rows[i][j] - rows[i][k] * rows[k][j], prev)
            rows[i][k] = 0
        prev = rows[k][k]
    return sign * rows[n - 1][n - 1]


def rank(M) -> int:
    """Rank over the rationals, by the same elimination with column skipping."""
    rows = [list(r) for r in matrix_rows(M)]
    n = len(rows)
    r = 0
    prev = 1
    for col in range(n):
        piv = next((i for i in range(r, n) if rows[i][col] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        for i in range(r + 1, n):
            for j in range(col + 1, n):
                rows[i][j] = _exact_div(rows[r][col] * rows[i][j] - rows[i][col] * rows[r][j], prev)
            rows[i][col] = 0
        prev = rows[r][col]
        r += 1
    return r


def _iroot(value: int, k: int) -> int:
    """Smallest t with t^k >= value (value >= 0); pure integer bisection."""
    if value <= 1 or k == 1:
        return value
    lo, hi = 1, 1 << -(-value.bit_length() // k)  # hi^k >= 2^bits > value
    while lo < hi:
        mid = (lo + hi) // 2
        if mid**k >= value:
            hi = mid
        else:
            lo = mid + 1
    return lo


def _root_bound(p: IntPolynomial) -> int:
    # Fujiwara: every root r satisfies |r| <= 2 max_k |c_{n-k}/c_n|^{1/k}
    n = p.degree
    lead = abs(p.coeffs[-1])
    bound = 0
    for k in range(1, n + 1):
        c = abs(p.coefficient(n - k))
        if c:
            # over-approximate the k-th root; safe for a candidate bound
            bound = max(bound, 2 * _iroot(-(-c // lead), k))
    return bound


def integer_roots(p: IntPolynomial) -> tuple[tuple[int, int], ...]:
    """All integer roots with multiplicities, as a sorted (root, mult) tuple.

    Candidates are the divisors of the constant term after stripping x
    factors, cut down by a root-magnitude bound before trial division.
    """
    if not p:
        raise ValueError("zero polynomial has no well-defined root multiset")
    found = []
    q = p
    zero_mult = 0
    while q.coefficient(0) == 0 and q.degree > 0:
        q = IntPolynomial(q.coeffs[1:])
        zero_mult += 1
    if zero_mult:
        found.append((0, zero_mult))
    if q.degree == 0:
        return tuple(sorted(found))
    c0 = abs(q.coefficient(0))
    bound = _root_bound(q)
    cands: set[int] = set()
    d = 1
    lim = min(math.isqrt(c0), bound)
    while d <= lim:
        if c0 % d == 0:
            for cand in (d, -d, c0 // d, -(c0 // d)):
                if abs(cand) <= bound:
                    cands.add(cand)
        d += 1
    for r in sorted(cands):
        mult = 0
        while q.degree > 0:
            quot, rem = q.deflate(r)
            if rem != 0:
                break
            q = quot
            mult += 1
        if mult:
            found.append((r, mult))
    return tuple(sorted(found))


def split_integer_roots(p: IntPolynomial) -> tuple[tuple[tuple[int, int], ...], IntPolynomial]:
    """(integer_roots(p), the cofactor of p left once those roots are divided out)."""
    roots = integer_roots(p)
    for root, mult in roots:
        for _ in range(mult):
            p, _ = p.deflate(root)
    return roots, p


@dataclass(frozen=True)
class ReducedPolynomial(JsonCodec):
    """p = x^zero_mult (x-1)^one_mult (x+1)^neg_one_mult * core.

    The core has no root at 0, 1 or -1, so equality of cores decides
    equality of root multisets with 0 and +-1 removed.
    """

    zero_mult: int = field(metadata={"json": "x_mult"})
    one_mult: int = field(metadata={"json": "x_minus_1_mult"})
    neg_one_mult: int = field(metadata={"json": "x_plus_1_mult"})
    core: IntPolynomial

    def reassemble(self) -> IntPolynomial:
        p = self.core
        p = p * IntPolynomial.x_power(self.zero_mult)
        for _ in range(self.one_mult):
            p = p * IntPolynomial((-1, 1))
        for _ in range(self.neg_one_mult):
            p = p * IntPolynomial((1, 1))
        return p


def reduce_poly(p: IntPolynomial) -> ReducedPolynomial:
    """Strip all factors x, x-1 and x+1 off p."""
    if not p:
        raise ValueError("cannot reduce the zero polynomial")
    a = 0
    while p.coefficient(0) == 0 and p.degree > 0:
        p = IntPolynomial(p.coeffs[1:])
        a += 1
    b = 0
    while p.degree > 0 and p(1) == 0:
        p, _ = p.deflate(1)
        b += 1
    c = 0
    while p.degree > 0 and p(-1) == 0:
        p, _ = p.deflate(-1)
        c += 1
    return ReducedPolynomial(a, b, c, p)


def factored_str(p: IntPolynomial) -> str:
    """Render with x, x+1, x-1 and integer-root factors extracted.

    Whatever does not split over the integers is printed as one dense
    parenthesized factor at the end.
    """
    if not p:
        return "0"
    red = reduce_poly(p)
    parts = []
    if red.zero_mult:
        parts.append(("x", red.zero_mult))
    if red.neg_one_mult:
        parts.append(("(x+1)", red.neg_one_mult))
    if red.one_mult:
        parts.append(("(x-1)", red.one_mult))
    roots, rest = split_integer_roots(red.core)
    parts += [(f"(x{-root:+d})", mult) for root, mult in roots]
    if rest.coeffs != (1,) or not parts:
        parts.append((f"({rest})" if parts else str(rest), 1))
    return " ".join(base if mult == 1 else f"{base}^{mult}" for base, mult in parts)
