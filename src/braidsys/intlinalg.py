"""
Exact integer linear algebra and polynomial arithmetic.

A characteristic polynomial takes one route, a discrete Fourier
transform over the cycles of a permutation e whose permutation matrix
commutes with the matrix (`_dft_charpoly`).  Such a matrix is constant on
the orbits of e x e, so it is block-circulant over e's cycles (Davis,
*Circulant Matrices*, 1979), and it is given by its nonzero orbit entries
(I, J, delta, v), v the entry at place s of cycle I and place s + delta
of cycle J, for every s.  A braid report's matrix, the crossing matrix M
of a pure power b^r, is one for e the permutation of b: `crossing` hands
it over as e's cycle lengths and its orbit entries, and it is never
written.  Any square matrix is one for e the identity: each index is its
own cycle of length 1 and each nonzero entry its own orbit (`charpoly`).
The polynomial is the product of those of the diagonal blocks, the
connected components of the cycles that an entry links
(`_orbit_blocks`).

For a root of unity omega of order d, the vectors x_J, omega^s at place s
of a cycle J with d | |J| and 0 elsewhere, span a subspace that a block
maps into itself, by the k_d x k_d matrix A_omega over those cycles with
entries (|J| / gcd(|I|, |J|)) sum over delta < gcd(|I|, |J|) of
v_IJ(delta) omega^delta.  These subspaces, one per omega of order
dividing a cycle length, add up to the whole space, so det(xI - B) of a
block B is the product over d of F_d = prod over omega of order d of
det(xI - A_omega): a one-cycle block of length a becomes a linear
factors, a block of k cycles matrices of at most k rows, and a block of
1-cycles its own rows, at d = 1.  For d <= 2, omega = +-1 and A_omega is
an integer matrix.  For d > 2, the block must be symmetric, as every
pure-power block is: then A_omega is self-adjoint for the weights |J|
and has real eigenvalues, those of A_(omega^-1) too, so F_d = G_d^2, G_d
the product over one omega of each pair omega, omega^-1.  The Galois
group of Q(omega) permutes those pairs, so G_d is an integer polynomial,
of degree phi(d) k_d / 2.

So each F_d for d <= 2 and each G_d is an integer polynomial of some
degree n whose roots are a sub-multiset of B's eigenvalues, and the
proof of `charpoly` bounds its coefficients by C(n, k) s^k, with
s = ceil(sqrt(ceil(F^2 / n))) and F^2 the sum of B's squared entries
(sum |lambda|^2 over a sub-multiset is at most that over all).
`_dft_charpoly` returns them as factors, each G_d twice, each by one of
three routes.  One cycle alone at an order d in 1, 2, 3, 4 and 6, where
2 cos(2 pi / d) is an integer, gives x - lambda with 2 lambda the sum of
c 2 cos(2 pi delta / d) (A_omega is real, as B is symmetric or d <= 2).
For d <= 2, A_omega of two rows gives x^2 - (tr A) x + det A.  Every
other det(xI - A_omega) is one Hessenberg reduction in O(k^3) modulo a
product N of primes p = 1 (mod d) below 2^62 that exceeds
2 max_k C(n, k) s^k + 1, with a root of order d mod each (`_prime_root`),
and each coefficient is lifted to its symmetric residue mod N.

Determinants and ranks use fraction-free Bareiss elimination, so every
value stays an exact Python integer.  Polynomials are integer
polynomials stored as ascending coefficient tuples; "essential" root
content is represented exactly by stripping the factors x, x-1 and x+1
off a polynomial (`reduce_poly`) and keeping the remaining core.  Root
finding strips them first and searches only the core for other roots,
deflating plain coefficient lists; it builds a polynomial only for its
result.  Each polynomial object computes that split once, on first use,
and keeps it, so its integer roots, its cofactor and its factored
rendering all read the same pass.  A product of polynomials whose splits
are known is multiplied out once, from those splits alone, and keeps its
own (`_split_product`): the multiplicities of each root are added, the
cofactors multiplied, and that cofactor times the linear factor of each
root, to its multiplicity, is the product.  Three products are built so:
the charpoly of a braid report, from the splits of the DFT factors of
each block divided by the gcd of its entries, a linear factor its own
root and a quadratic one split by its discriminant (`_split_charpoly`),
a system's charpoly product, from its components' kept splits, and
`IntPolynomial.from_roots`, from its roots.
"""

from __future__ import annotations

import functools
import math
import operator
import threading
from dataclasses import dataclass, field
from itertools import chain

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
        """The product of x - r over the integers r, with its split kept."""
        return _split_product([([(r, 1) for r in roots], [1])])

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


# d -> the primes p = 1 (mod d) found so far, largest first, each with a
# root of order d mod p (`_prime_root`); d = 1, which serves every dense
# block, and d = 2 walk the same odd primes, kept once under 2.  The lists
# grow under the lock, so that threads meeting a bound at once append each
# prime once; a lookup of a prime already found takes no lock.
_PRIME_ROOTS: dict[int, list[tuple[int, int]]] = {}
_PRIME_ROOTS_LOCK = threading.Lock()


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for 2 <= n < 2^64: Sinclair's seven bases
    admit no strong pseudoprime in that range.  An even n > 2 fails at the
    base 2, whose powers mod n are even and so neither 1 nor n - 1."""
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


def _prime_root(i: int, d: int) -> tuple[int, int]:
    """(p, w): the i-th largest prime p = 1 (mod d) below 2^62 (from 0)
    and w, a root of exact order d mod p, searched for on first use and
    kept in `_PRIME_ROOTS[max(d, 2)]`.  w = a^((p-1)/d) for the least
    a >= 2 with w^(d/q) != 1 for each prime q dividing d, so w^d = 1 and
    no smaller power is.  Every odd prime is 1 (mod 2), so d = 1 reads the
    primes of d = 2, kept with their order-2 root p - 1, and takes the
    root 1."""
    key = max(d, 2)
    found = _PRIME_ROOTS.setdefault(key, [])
    step = key if key % 2 == 0 else 2 * key  # p is odd, so p = 1 (mod 2d) for odd d
    if len(found) <= i:
        with _PRIME_ROOTS_LOCK:
            while len(found) <= i:
                p = found[-1][0] - step if found else ((1 << 62) - 2) // step * step + 1
                while not _is_prime(p):
                    p -= step
                qs = [q for q in range(2, key + 1) if key % q == 0 and _is_prime(q)]
                for a in range(2, p):
                    w = pow(a, (p - 1) // key, p)
                    if all(pow(w, key // q, p) != 1 for q in qs):
                        break
                found.append((p, w))
    return found[i] if d > 1 else (found[i][0], 1)


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


def _coefficient_bound(n: int, f2: int) -> int:
    """max over k of C(n,k) s^k, s = ceil(sqrt(ceil(f2 / n))) (1 when n = 0)."""
    q = -(-f2 // n) if n else 0
    s = math.isqrt(q - 1) + 1 if q else 0
    term = largest = 1
    for k in range(n):  # term = C(n, k+1) s^(k+1), an exact division
        term = term * (n - k) * s // (k + 1)
        largest = max(largest, term)
    return largest


def _orbit_blocks(lengths, orbits) -> list[tuple[list[int], list[int], list[tuple[int, int, int, int]]]]:
    """The diagonal blocks of a matrix that is constant on the orbits of
    e x e, e a permutation with cycles of these lengths, given by its
    nonzero orbit entries (I, J, delta, v) (see `_dft_charpoly`): the
    connected components of the cycles that an orbit links, either way,
    in the order of their least cycle, each as (its cycles, ascending,
    their lengths, its orbits with I and J renumbered within it).  No
    entry links two blocks, so listing them in turn permutes the matrix to
    block-diagonal form."""
    n = len(lengths)
    links: list[list[int]] = [[] for _ in range(n)]
    for i, j, _, _ in orbits:
        links[i].append(j)
        links[j].append(i)
    seen, at, into, blocks = [False] * n, [0] * n, [None] * n, []
    for start in range(n):
        if seen[start]:
            continue
        seen[start], group = True, [start]
        for c in group:  # the list grows while it is walked
            for j in links[c]:
                if not seen[j]:
                    seen[j] = True
                    group.append(j)
        group.sort()
        blocks.append((group, [lengths[c] for c in group], []))
        for k, c in enumerate(group):  # each cycle's index in its block, and the block's orbit list
            at[c], into[c] = k, blocks[-1][2]
    for i, j, delta, v in orbits:
        into[i].append((at[i], at[j], delta, v))
    return blocks


def charpoly(M) -> IntPolynomial:
    """det(xI - M), exactly: the product of the polynomials of the diagonal
    blocks of M, each from its residue modulo a product of primes below 2^62.

    A simultaneous permutation of rows and columns, which keeps
    det(xI - M), brings any square matrix to block-diagonal form with one
    block per connected component of its nonzero pattern: `_orbit_blocks`
    of the nonzero entries, each index its own cycle of length 1, so each
    entry (i, j) is the orbit (i, j, 0, M[i][j]).  `_dft_charpoly` then
    meets only d = 1, where A_1 is the block's own rows: x - v for a block
    [v], x^2 - (tr A) x + det A for a block A of two rows, and one
    Hessenberg pass for a larger one.  A pure-power matrix at m = 32
    splits into about ten such blocks, the largest of about ten rows, so
    most of the O(n^3) pass is never run.

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
    plus one; one `_charpoly_mod` pass per block of three or more rows
    then gives each coefficient mod N, unique in the symmetric range.
    """
    rows = matrix_rows(M)
    entries = [(i, j, 0, v) for i, row in enumerate(rows) for j, v in enumerate(row) if v]
    coeffs = [1]
    for _, lengths, orbits in _orbit_blocks([1] * len(rows), entries):
        for c, _ in _dft_charpoly(lengths, orbits):  # a block of 1-cycles has one factor
            coeffs = _mul_coeffs(coeffs, c)
    return IntPolynomial(tuple(coeffs))


def _scaled(c, g: int) -> list[int]:
    """Ascending coefficients of g^n q(x / g), for q = c of degree n: c_k g^(n-k)."""
    n = len(c) - 1
    return [v * g ** (n - k) for k, v in enumerate(c)]


def _split_product(splits) -> IntPolynomial:
    """The product of monic polynomials given by their splits alone, each
    as ((root, mult) pairs, cofactor coefficients), with its own split
    kept.  The multiplicities of each root are added, and the non-constant
    cofactors multiplied into the product's cofactor: a product of
    polynomials with no integer root has none.  The product itself is
    that cofactor times (x - r)^k for each nonzero root r of multiplicity
    k, then shifted up by the multiplicity of the root 0.  A factor
    (x - r)^k is k synthetic steps, one pass each over the product so
    far, while k is less than that product's length n; otherwise its
    closed form, coefficients C(k, j) (-r)^(k-j), is multiplied in by
    `_mul_coeffs` in n passes.  The steps multiply by r alone, where each
    closed-form coefficient is a full-size binomial."""
    rest, found = [1], {}
    for roots, cofactor in splits:
        if len(cofactor) > 1:  # a monic cofactor of degree 0 is 1
            rest = _mul_coeffs(rest, cofactor)
        for root, mult in roots:
            found[root] = found.get(root, 0) + mult
    roots = tuple(sorted(found.items()))
    coeffs = rest
    for r, k in roots:
        if not r:
            continue
        if k < len(coeffs):
            for _ in range(k):
                coeffs = [p - r * q for p, q in zip([0] + coeffs, coeffs + [0])]
        else:
            coeffs = _mul_coeffs(coeffs, [math.comb(k, j) * (-r) ** (k - j) for j in range(k + 1)])
    p = IntPolynomial((0,) * found.get(0, 0) + tuple(coeffs))
    object.__setattr__(p, "_root_split", (roots, IntPolynomial(tuple(rest))))
    return p


# 2 cos(2 pi e / d) at each e < d, for the root orders d at which it is an integer
_TWICE_COS = {1: (2,), 2: (2, -2), 3: (2, -1, -1), 4: (2, 0, -2, 0), 6: (2, 1, -1, -2, -1, 1)}


def _dft_charpoly(lengths, orbits) -> list[tuple[list[int], int]]:
    """det(xI - B) as factors (ascending coefficients, multiplicity), for a
    block B that is constant on the orbits of e x e, e a permutation with
    cycles of these lengths, given by its nonzero orbit entries
    (I, J, delta, v) (module docstring).  B must be symmetric if a cycle is
    longer than 2; a block of 1-cycles, a dense matrix's, need not be.

    One factor per d dividing a cycle length (module docstring): F_d,
    multiplicity 1, for d <= 2, and G_d, multiplicity 2, for d > 2, F_d
    and G_d the product of det(xI - A_omega) over omega = W^u, u <= d / 2 a
    unit mod d (u = 1 for d <= 2, as +-1 each pair with themselves).  A
    block of 1-cycles meets only d = 1, where A_1 is its own rows.  Each
    factor takes one of three routes.  For a block's only cycle whose
    length d divides, at d in 1, 2, 3, 4 and 6, A_omega = sum of
    c omega^delta is the real lambda, 2 lambda = sum of
    c 2 cos(2 pi delta / d), an integer: x - lambda.  For d <= 2 A_omega
    is an integer matrix, and one of two rows gives x^2 - (tr A) x + det A.
    Every other factor is one `_charpoly_mod` pass per u, modulo the
    product N of the fewest primes p = 1 (mod d) below 2^62 with
    N > 2 max_k C(n, k) s^k + 1, n its degree and s from B's F^2, and W a
    root of order d mod each of them (W = 1 at d = 1 and W = -1 at d = 2);
    each coefficient is lifted to its symmetric residue.
    """
    f2, scaled = 0, []  # B's F^2, and each orbit with its entry times |J| / gcd(|I|, |J|)
    for i, j, delta, v in orbits:
        g = math.gcd(a := lengths[i], b := lengths[j])
        f2 += v * v * (a // g * b)
        scaled.append((i, j, delta, v * (b // g)))
    factors = []
    for d in sorted({d for a in set(lengths) for d in range(1, a + 1) if a % d == 0}):
        at, k = [None] * len(lengths), 0  # the row of A of each cycle whose length d divides
        for c, a in enumerate(lengths):
            if a % d == 0:
                at[c], k = k, k + 1
        terms = [(at[i], at[j], delta % d, c) for i, j, delta, c in scaled
                 if at[i] is not None and at[j] is not None]
        mult = 2 if d > 2 else 1
        if k == 1 and d in _TWICE_COS:  # x - lambda
            twice = _TWICE_COS[d]
            factors.append(([-sum(c * twice[e] for *_, e, c in terms) // 2, 1], mult))
            continue
        if k == 2 and d <= 2:  # x^2 - (tr A) x + det A, A an integer matrix
            A = [[0, 0], [0, 0]]
            for a, b, e, c in terms:
                A[a][b] += -c if e else c
            (p, q), (r, t) = A
            factors.append(([p * t - q * r, -p - t, 1], 1))
            continue
        units = [1] if d <= 2 else [u for u in range(1, d // 2 + 1) if math.gcd(u, d) == 1]
        bound = 2 * _coefficient_bound(len(units) * k, f2) + 1
        N, W, i = 1, 0, 0
        while N <= bound:
            p, w = _prime_root(i, d)
            W, N, i = _crt([W], N, [w], p)[0], N * p, i + 1
        powers = [1] * d
        for e in range(1, d):
            powers[e] = powers[e - 1] * W % N
        factor = [1]
        for u in units:
            A = [[0] * k for _ in range(k)]
            for a, b, e, c in terms:
                A[a][b] += c * powers[u * e % d]
            cp = _charpoly_mod(A, N)
            factor = cp if u == 1 else [v % N for v in _mul_coeffs(factor, cp)]
        factors.append(([c - N if 2 * c > N else c for c in factor], mult))
    return factors


def _split_factor(c) -> tuple[tuple[tuple[int, int], ...], list[int]]:
    """(roots, cofactor) of the monic polynomial with ascending coefficients
    c, as `_split_roots` gives them, but a double root listed twice, once
    per factor, which `_split_product` adds up: x + c0 is its own root, and
    x^2 + bx + c0 has the integer roots (-b +- s) / 2 when its
    discriminant is a square s^2 (s = b mod 2, since b^2 - 4 c0 = b^2
    mod 4), else none."""
    if len(c) == 2:
        return ((-c[0], 1),), [1]
    if len(c) == 3:
        disc = c[1] * c[1] - 4 * c[0]
        s = math.isqrt(disc) if disc >= 0 else -1
        if s * s != disc:
            return (), c
        return (((-c[1] - s) // 2, 1), ((-c[1] + s) // 2, 1)), [1]
    return _split_roots(IntPolynomial(tuple(c)))


def _split_charpoly(lengths, orbits) -> IntPolynomial:
    """det(xI - M) for a symmetric M that is constant on the orbits of
    e x e, e a permutation with cycles of these lengths, given by its
    nonzero orbit entries (I, J, delta, v), with its integer-root split
    kept: `_split_product` of the splits of its diagonal blocks' factors,
    the blocks of `_orbit_blocks` in their order.  No row is written, and
    no factor is kept past its split: each block's factors are
    `_dft_charpoly`'s, and the polynomial is multiplied out from the splits.

    A block with no nonzero entry adds the factor x^n.  Each other block B
    is divided by the gcd g of its entries, and `_dft_charpoly` runs on
    B' = B / g.  det(xI - g B') = g^n det((x / g) I - B'), so the
    coefficient of x^k is g^(n-k) times that of B', and each eigenvalue is
    g times one of B'.  An integer root of B's polynomial is g times a
    rational root of the monic integer polynomial of B', hence g times an
    integer root, with the same multiplicity; so the split of B is that of
    B' with each root times g and the cofactor, if it is not 1, scaled as
    the polynomial is.  B' is split one factor at a time
    (`_split_factor`): a linear factor is its own root, a quadratic one
    splits by its discriminant, and only a factor of degree three or more
    is scanned by `_split_roots`.
    A polynomial with no integer root times another has none, so the
    factors' cofactors multiply to the block's.

    Each entry of a pure-power matrix is its orbit's total times r / L
    (`crossing._pure_power_orbits`), so dividing out the gcd leaves small
    roots and a short divisor scan (README, "CLI", at degree 512).  A block
    whose entries share no large factor is scanned as it is.
    """
    zeros, splits = 0, []
    for _, block_lengths, block_orbits in _orbit_blocks(lengths, orbits):
        g = math.gcd(*(v for *_, v in block_orbits))
        if not g:
            zeros += sum(block_lengths)
            continue
        for c, mult in _dft_charpoly(block_lengths, [(i, j, delta, v // g) for i, j, delta, v in block_orbits]):
            roots, cofactor = _split_factor(c)
            if g > 1:
                roots = [(g * root, m) for root, m in roots]
                if len(cofactor) > 1:
                    cofactor = _scaled(cofactor, g)
            splits += [(roots, cofactor)] * mult
    if zeros:
        splits.append((((0, zeros),), [1]))
    return _split_product(splits)


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
    of the pure-power matrix divided by the gcd of its entries, and a
    system's charpoly product with its components' splits joined
    (`_split_product`): the degree-512 report of README, "CLI", takes
    0.15-0.19 s in all, and its system with the word 1 about 0.2 s.  Any
    other polynomial is scanned here, with up to min(isqrt(|c0|), root
    bound) trial divisions of its core's constant term c0: x - c with c
    near 10^14 takes about a second.  A report block whose entries share
    no large factor is scanned the same way: a degree-32 form times 10^6
    full twists makes one block of gcd 1 with entries near 1.8 * 10^8,
    and its scan did not finish in 30 s."""
    return p._root_split[0]


def split_integer_roots(p: IntPolynomial) -> tuple[tuple[tuple[int, int], ...], IntPolynomial]:
    """(integer_roots(p), the cofactor of p left once those roots are divided out),
    from the one split kept with p: none to make for the charpoly of a
    report or of a system, which come with theirs (`integer_roots`)."""
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
    parenthesized factor at the end.  The charpoly of a braid report and
    the charpoly product of a system come with their splits, so rendering
    them makes no scan; any other polynomial is scanned once
    (`integer_roots`).
    """
    if not p:
        return "0"
    roots, rest = split_integer_roots(p)
    roots = sorted(roots, key=lambda rm: ((0, -1, 1, rm[0]).index(rm[0]), rm[0]))
    parts = [("x" if r == 0 else f"(x{-r:+d})", mult) for r, mult in roots]
    if rest.coeffs != (1,) or not parts:
        parts.append((f"({rest})" if parts else str(rest), 1))
    return " ".join(base if mult == 1 else f"{base}^{mult}" for base, mult in parts)
