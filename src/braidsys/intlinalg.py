"""
Exact integer linear algebra and polynomial arithmetic.

A characteristic polynomial is the product of those of the diagonal
blocks, the connected components of the nonzero pattern.  Each block of
n > 1 rows takes one Hessenberg reduction in O(n^3) modulo N, a product of
primes just below 2^62 that exceeds 2 max_k C(n,k) s^k + 1, where
s = ceil(sqrt(ceil(F^2 / n))) and F^2 is the sum of the block's squared
entries: no coefficient is larger in absolute value than half of that (see
`charpoly`), so each is its symmetric residue mod N.
Determinants and ranks use fraction-free Bareiss elimination, so every
value stays an exact Python integer.  Polynomials are integer
polynomials stored as ascending coefficient tuples; "essential" root
content is represented exactly by stripping the factors x, x-1 and x+1
off a polynomial (`reduce_poly`) and keeping the remaining core.  Root
finding strips them first and searches only the core for other roots,
deflating plain coefficient lists; it builds a polynomial only for its
result.  Each polynomial object computes that split once, on first use,
and keeps it, so its integer roots, its cofactor and its factored
rendering all read the same pass.  The charpoly of a braid report comes
with its split already kept, made block by block on blocks divided by
the gcd of their entries (`_split_block_charpoly`).
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass, field
from itertools import chain, compress

from .codec import JsonCodec


@dataclass(frozen=True)
class IntPolynomial(JsonCodec):
    """Integer polynomial; coeffs[i] is the coefficient of x^i.

    Every coefficient must be an int (a bool is none); nothing is coerced.
    """

    coeffs: tuple[int, ...]

    def __post_init__(self):
        c = tuple(self.coeffs)
        for v in c:
            if type(v) is not int:
                raise TypeError(f"coefficient {v!r} is a {type(v).__name__}, not an int")
        end = len(c)
        while end and c[end - 1] == 0:
            end -= 1
        object.__setattr__(self, "coeffs", c[:end])

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
        return IntPolynomial(tuple(_mul_coeffs(self.coeffs, other.coeffs)))

    def coefficient(self, k: int) -> int:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else 0

    @functools.cached_property
    def _root_split(self) -> tuple[tuple[tuple[int, int], ...], "IntPolynomial"]:
        # One `_split_roots` pass per polynomial object.  cached_property
        # writes the instance __dict__ directly, so the frozen dataclass
        # accepts it, and eq, hash, repr and to_json read fields only.
        roots, rest = _split_roots(self)
        return roots, IntPolynomial(tuple(rest))

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


def _mul_coeffs(a, b) -> list[int]:
    """Ascending coefficients of the product of two nonempty ascending
    coefficient sequences, by schoolbook multiplication: the longer one,
    times each coefficient of the shorter, is added in at its offset."""
    if len(a) < len(b):
        a, b = b, a
    n = len(a)
    out = [0] * (n + len(b) - 1)
    for j, y in enumerate(b):
        if y:
            out[j : j + n] = [u + y * x for u, x in zip(out[j : j + n], a)]
    return out


def _deflate(c, root: int) -> tuple[list[int], int]:
    """Synthetic division of the ascending coefficients c (len(c) >= 1) by
    (x - root); returns (quotient coefficients, remainder)."""
    quot = [0] * (len(c) - 1)
    acc = 0
    for i in range(len(c) - 1, 0, -1):
        acc = acc * root + c[i]
        quot[i - 1] = acc
    return quot, acc * root + c[0]


def _divide_out(c: list[int], root: int) -> tuple[list[int], int]:
    """(c with every factor x - root divided out, how many there were)."""
    mult = 0
    while len(c) > 1:
        quot, rem = _deflate(c, root)
        if rem:
            break
        c, mult = quot, mult + 1
    return c, mult


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


def _crt(a: list[int], p: int, b: list[int], q: int) -> list[int]:
    """The residues mod p q of the pairs (a_k mod p, b_k mod q), p and q coprime."""
    inv = pow(p, -1, q)
    return [x + p * ((y - x) * inv % q) for x, y in zip(a, b)]


def matrix_rows(M) -> tuple[tuple[int, ...], ...]:
    """Entries of a CrossingMatrix or of any square nested sequence.

    Every entry must be an int (a bool is none); nothing is coerced.
    """
    rows = tuple(map(tuple, getattr(M, "entries", M)))
    if set(map(type, chain.from_iterable(rows))) - {int}:
        v = next(v for v in chain.from_iterable(rows) if type(v) is not int)
        raise TypeError(f"matrix entry {v!r} is a {type(v).__name__}, not an int")
    if any(len(r) != len(rows) for r in rows):
        raise ValueError("matrix is not square")
    return rows


def _charpoly_mod(rows, p: int) -> list[int]:
    """Ascending coefficients of det(xI - M) mod p, for a squarefree p > 1.

    M is brought to upper Hessenberg form H = P M P^-1 over Z/pZ by
    similarities that divide only by a unit pivot, the first nonzero entry
    of its column under the diagonal; the polynomial is read off H by
    p_m = (x - h_mm) p_{m-1} - sum_{i<m} h_im (h_{i+1,i} ... h_{m,m-1}) p_{i-1}
    (Cohen, *A Course in Computational Algebraic Number Theory*, 2.2.4).
    A pivot with g = gcd(pivot, p) > 1 (never, for a prime p) splits p into
    the coprime g and p / g, whose results are joined by Chinese remaindering.
    """
    n = len(rows)
    H = [[v % p for v in r] for r in rows]
    for m in range(1, n - 1):
        piv = next((i for i in range(m, n) if H[i][m - 1]), None)
        if piv is None:
            continue
        if (g := math.gcd(H[piv][m - 1], p)) > 1:
            return _crt(_charpoly_mod(rows, g), g, _charpoly_mod(rows, p // g), p // g)
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


def _coefficient_bound(rows) -> int:
    """max over k of C(n,k) s^k, s = ceil(sqrt(ceil(F^2 / n))) (1 when n = 0)."""
    n = len(rows)
    s = _iroot(-(-sum(v * v for r in rows for v in r) // n), 2) if n else 0
    term = largest = 1
    for k in range(n):  # term = C(n, k+1) s^(k+1), an exact division
        term = term * (n - k) * s // (k + 1)
        largest = max(largest, term)
    return largest


def _components(links) -> list[list[int]]:
    """The connected components of the graph on 0..n-1 in which links[i]
    lists the neighbours of i, every edge in the lists of both its ends:
    each an ascending list of indices, in the order of their least index."""
    seen = [False] * len(links)
    blocks = []
    for start in range(len(links)):
        if seen[start]:
            continue
        seen[start] = True
        block = [start]
        for i in block:  # the list grows while it is walked
            for j in links[i]:
                if not seen[j]:
                    seen[j] = True
                    block.append(j)
        blocks.append(sorted(block))
    return blocks


def _blocks(rows) -> list[list[int]]:
    """The connected components of the links i - j with M[i][j] != 0 or
    M[j][i] != 0, each an ascending list of indices.  No entry of M links
    two components, so listing them in turn permutes M to block-diagonal
    form."""
    n = len(rows)
    links = [list(compress(range(n), row)) for row in rows]
    back: list[list[int]] = [[] for _ in range(n)]
    for i, js in enumerate(links):
        for j in js:
            back[j].append(i)
    return _components([js + bs for js, bs in zip(links, back)])


def _block_charpoly(rows) -> list[int]:
    """Ascending coefficients of det(xI - B) for one diagonal block B (see
    `charpoly`): x - v for B = [v], else one `_charpoly_mod` pass modulo
    the product N of the fewest primes below 2^62 with
    N > 2 max_k C(n,k) s^k + 1 for this block's n and s, each coefficient
    lifted to its symmetric residue."""
    if len(rows) == 1:
        return [-rows[0][0], 1]
    bound = 2 * _coefficient_bound(rows) + 1
    modulus, i = 1, 0
    while modulus <= bound:
        modulus, i = modulus * _modulus(i), i + 1
    return [c - modulus if 2 * c > modulus else c for c in _charpoly_mod(rows, modulus)]


def charpoly(M) -> IntPolynomial:
    """det(xI - M), exactly: the product of the polynomials of the diagonal
    blocks of M, each from its residue modulo a product of primes below 2^62.

    A simultaneous permutation of rows and columns, which keeps
    det(xI - M), brings any square matrix to block-diagonal form with one
    block per connected component of its nonzero pattern (`_blocks`).  A
    pure-power matrix at m = 32 splits into about ten such blocks, the
    largest of about ten rows, so most of the O(n^3) pass is never run.

    Within a block of size n, the coefficient of x^(n-k) is
    (-1)^k e_k(lambda), e_k the k-th elementary symmetric function of the
    eigenvalues lambda_i, so

        |c_{n-k}| <= e_k(|lambda|) <= C(n,k) (sum |lambda_i| / n)^k
                  <= C(n,k) (sum |lambda_i|^2 / n)^(k/2)
                  <= C(n,k) (F^2 / n)^(k/2) <= C(n,k) s^k,

    by Maclaurin's inequality for the non-negative |lambda_i|, then
    Cauchy-Schwarz, then Schur's inequality sum |lambda_i|^2 <= F^2
    (F the Frobenius norm); s = ceil(sqrt(ceil(F^2 / n))).  This holds
    for any square integer matrix, and +-s I attains it.  Since
    F^2 <= n rho^2 for rho the largest absolute row sum, s <= rho, so the
    bound is never weaker than the row-sum bound C(n,k) rho^k.  Primes
    are multiplied until their product N exceeds twice the largest C(n,k) s^k
    plus one; one `_charpoly_mod` pass per block of two or more rows then
    gives each coefficient mod N, unique in the symmetric range.
    """
    rows = matrix_rows(M)
    coeffs = [1]
    for block in _blocks(rows):
        coeffs = _mul_coeffs(coeffs, _block_charpoly([[rows[i][j] for j in block] for i in block]))
    return IntPolynomial(tuple(coeffs))


def _scaled(c, g: int) -> list[int]:
    """Ascending coefficients of g^n q(x / g), for q = c of degree n: c_k g^(n-k)."""
    n = len(c) - 1
    return [v * g ** (n - k) for k, v in enumerate(c)]


def _split_block_charpoly(blocks) -> IntPolynomial:
    """det(xI - M) for the block-diagonal M with these diagonal blocks, with
    its integer-root split already kept, so `integer_roots`,
    `split_integer_roots` and `factored_str` of it make no further pass.

    An all-zero block of n rows adds the factor x^n.  Each other block B
    is divided by the gcd g of its entries, and `_block_charpoly` and
    `_split_roots` run on B' = B / g.
    det(xI - g B') = g^n det((x / g) I - B'), so the coefficient of x^k is
    g^(n-k) times that of B', and each eigenvalue is g times one of B'.
    An integer root of B's polynomial is g times a rational root of the
    monic integer polynomial of B', hence g times an integer root, with the
    same multiplicity; so the split of B is that of B' with each root
    times g and the cofactor scaled as the polynomial is.  The product of
    the monic cofactors has no integer root, so it is the cofactor of the
    product.

    Each entry of a pure-power matrix is its orbit's total times r / L
    (`crossing.pure_power_matrix`), so dividing out the gcd leaves small
    roots and a short divisor scan: the degree-512 report of README, "CLI",
    splits in well under a second, where a scan of the whole product made
    6.7 million trial divisions.  A block whose entries share no large
    factor is scanned as it is.
    """
    zeros, coeffs, rest, found = 0, [1], [1], {}
    for rows in blocks:
        g = math.gcd(*chain.from_iterable(rows))
        if not g:
            zeros += len(rows)
            continue
        cp = _block_charpoly([[v // g for v in row] for row in rows])
        roots, cofactor = _split_roots(IntPolynomial(tuple(cp)))
        coeffs = _mul_coeffs(coeffs, _scaled(cp, g))
        rest = _mul_coeffs(rest, _scaled(cofactor, g))
        for root, mult in roots:
            found[g * root] = found.get(g * root, 0) + mult
    if zeros:
        found[0] = found.get(0, 0) + zeros
    p = IntPolynomial((0,) * zeros + tuple(coeffs))
    object.__setattr__(p, "_root_split", (tuple(sorted(found.items())), IntPolynomial(tuple(rest))))
    return p


def _exact_div(a: int, b: int) -> int:
    q, r = divmod(a, b)
    if r:
        raise ArithmeticError("fraction-free elimination produced a non-exact division")
    return q


def _bareiss(rows) -> tuple[int, int, int]:
    """(rank, sign of the row swaps, last pivot) of fraction-free Bareiss
    elimination on square integer rows, skipping columns with no pivot."""
    rows = [list(r) for r in rows]
    n = len(rows)
    r, sign, prev = 0, 1, 1
    for col in range(n):
        piv = next((i for i in range(r, n) if rows[i][col] != 0), None)
        if piv is None:
            continue
        if piv != r:
            rows[r], rows[piv] = rows[piv], rows[r]
            sign = -sign
        for i in range(r + 1, n):
            for j in range(col + 1, n):
                rows[i][j] = _exact_div(rows[r][col] * rows[i][j] - rows[i][col] * rows[r][j], prev)
            rows[i][col] = 0
        prev = rows[r][col]
        r += 1
    return r, sign, prev


def determinant(M) -> int:
    """Exact determinant: at full rank, the swap sign times the last pivot."""
    rows = matrix_rows(M)
    r, sign, pivot = _bareiss(rows)
    return sign * pivot if r == len(rows) else 0


def rank(M) -> int:
    """Rank over the rationals."""
    return _bareiss(matrix_rows(M))[0]


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


def _root_bound(c) -> int:
    # Fujiwara: every root r satisfies |r| <= 2 max_k |c_{n-k}/c_n|^{1/k}
    n = len(c) - 1
    lead = abs(c[-1])
    bound = 0
    for k in range(1, n + 1):
        v = abs(c[n - k])
        if v:
            # over-approximate the k-th root; safe for a candidate bound
            bound = max(bound, 2 * _iroot(-(-v // lead), k))
    return bound


def _divides(a: int, b: int) -> bool:
    return b % a == 0 if a else b == 0


def _split_roots(p: IntPolynomial) -> tuple[tuple[tuple[int, int], ...], list[int]]:
    """(sorted (root, mult) pairs, ascending coefficients of the cofactor).

    `reduce_poly` divides out x, x - 1 and x + 1 first; the other
    candidates are the divisors of the core's constant term within a
    root-magnitude bound.  A candidate r is deflated only if (r - 1)
    divides q(1) and (r + 1) divides q(-1), both nonzero on the core, so
    +-1 never pass (0 divides only 0): a root r has q(r) = 0, and r - t
    divides q(r) - q(t) for every integer t, so both tests are necessary.
    """
    if not p:
        raise ValueError("zero polynomial has no well-defined root multiset")
    red = reduce_poly(p)
    found = [(r, m) for r, m in ((-1, red.neg_one_mult), (0, red.zero_mult), (1, red.one_mult)) if m]
    q = list(red.core.coeffs)
    if len(q) == 1:
        return tuple(found), q
    at_one, at_minus_one = sum(q), sum(q[0::2]) - sum(q[1::2])
    c0 = abs(q[0])
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
        if _divides(r - 1, at_one) and _divides(r + 1, at_minus_one):
            q, mult = _divide_out(q, r)
            if mult:
                found.append((r, mult))
    return tuple(sorted(found)), q


def integer_roots(p: IntPolynomial) -> tuple[tuple[int, int], ...]:
    """All integer roots with multiplicities, as a sorted (root, mult) tuple.

    The split is computed once per polynomial object and kept with it, so
    `split_integer_roots` and `factored_str` of the same object reuse it.
    A braid report's charpoly arrives with its split, made on each block
    of the pure-power matrix divided by the gcd of its entries, so the
    divisor scans are short: the degree-512 report of README, "CLI", takes
    about 0.2 s in all.  Any other polynomial is scanned here, with up to
    min(isqrt(|c0|), root bound) trial divisions of its core's constant
    term c0: x - c with c near 10^14 takes about a second.  A report
    block whose entries share no large factor is scanned the same way: a
    degree-32 form times 10^6 full twists makes one block of gcd 1 with
    entries near 1.8 * 10^8, and its scan did not finish in 30 s."""
    return p._root_split[0]


def split_integer_roots(p: IntPolynomial) -> tuple[tuple[tuple[int, int], ...], IntPolynomial]:
    """(integer_roots(p), the cofactor of p left once those roots are divided out),
    from the one split kept with p; `integer_roots` states what its divisor
    scan costs: none for the charpoly of a braid report, whose split comes
    with it, and up to min(isqrt(|c0|), root bound) trial divisions of the
    core's constant term c0 for any other polynomial."""
    return p._root_split


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
        roots = [0] * self.zero_mult + [1] * self.one_mult + [-1] * self.neg_one_mult
        return IntPolynomial.from_roots(roots) * self.core


def reduce_poly(p: IntPolynomial) -> ReducedPolynomial:
    """Strip all factors x, x-1 and x+1 off p."""
    if not p:
        raise ValueError("cannot reduce the zero polynomial")
    a = next(k for k, v in enumerate(p.coeffs) if v)
    q = list(p.coeffs[a:])
    # a division by x -+ 1 is tried only at a root: q(1) and q(-1) are sums
    q, b = _divide_out(q, 1) if sum(q) == 0 else (q, 0)
    q, c = _divide_out(q, -1) if sum(q[0::2]) == sum(q[1::2]) else (q, 0)
    return ReducedPolynomial(a, b, c, IntPolynomial(tuple(q)))


def factored_str(p: IntPolynomial) -> str:
    """Render with the integer-root factors of one `split_integer_roots`
    pass extracted: x, (x+1), (x-1), then the other roots in ascending order.

    Whatever does not split over the integers is printed as one dense
    parenthesized factor at the end.  The charpoly of a braid report comes
    with its split, so rendering it makes no scan (README, "CLI", for
    degree 512); any other polynomial is scanned once, with up to
    min(isqrt(|c0|), root bound) trial divisions of its core's constant
    term c0 (`integer_roots`).
    """
    if not p:
        return "0"
    roots, rest = split_integer_roots(p)
    roots = sorted(roots, key=lambda rm: ((0, -1, 1, rm[0]).index(rm[0]), rm[0]))
    parts = [("x" if r == 0 else f"(x{-r:+d})", mult) for r, mult in roots]
    if rest.coeffs != (1,) or not parts:
        parts.append((f"({rest})" if parts else str(rest), 1))
    return " ".join(base if mult == 1 else f"{base}^{mult}" for base, mult in parts)
