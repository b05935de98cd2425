"""
Exact integer linear algebra and polynomial arithmetic.

Characteristic polynomials are computed with the division-free Berkowitz
algorithm, determinants and ranks with fraction-free Bareiss elimination,
so every value stays an exact Python integer.  Polynomials are monic
integer polynomials stored as ascending coefficient tuples; "essential"
root content is represented exactly by stripping the factors x, x-1 and
x+1 off a polynomial and keeping the remaining core.
"""

from __future__ import annotations

import math
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


ONE = IntPolynomial((1,))
X = IntPolynomial((0, 1))


def poly_mul(p: IntPolynomial, q: IntPolynomial) -> IntPolynomial:
    return p * q


def poly_equal(p: IntPolynomial, q: IntPolynomial) -> bool:
    return p.coeffs == q.coeffs


def charpoly(M) -> IntPolynomial:
    """det(xI - M) by the division-free Berkowitz algorithm."""
    rows = matrix_rows(M)
    n = len(rows)
    if n == 0:
        return ONE
    # descending coefficients of the trailing principal submatrices,
    # grown one row/column at a time via Toeplitz products
    p = [1, -rows[n - 1][n - 1]]
    for j in range(n - 2, -1, -1):
        s = n - j
        a = rows[j][j]
        R = [rows[j][t] for t in range(j + 1, n)]
        C = [rows[t][j] for t in range(j + 1, n)]
        B = [[rows[s0][t] for t in range(j + 1, n)] for s0 in range(j + 1, n)]
        v = [1, -a]
        w = C
        for _ in range(s - 1):
            v.append(-sum(r * c for r, c in zip(R, w)))
            w = [sum(B[i][t] * w[t] for t in range(len(w))) for i in range(len(w))]
        new = [0] * (s + 1)
        for i in range(s + 1):
            new[i] = sum(v[i - k] * p[k] for k in range(max(0, i - s), min(i, s - 1) + 1))
        p = new
    return IntPolynomial(tuple(reversed(p)))


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
