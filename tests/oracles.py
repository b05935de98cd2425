"""Independent brute-force oracles the real implementations are checked against."""

from fractions import Fraction
import random

from braidsys import BraidWord, IntPolynomial
from braidsys.braids import _lw_fix


def charpoly_cofactor(rows):
    """det(xI - M) by literal cofactor expansion over polynomial entries."""
    n = len(rows)
    mat = [
        [
            IntPolynomial((-rows[i][j], 1)) if i == j else IntPolynomial((-rows[i][j],))
            for j in range(n)
        ]
        for i in range(n)
    ]

    def det(m):
        if len(m) == 1:
            return m[0][0]
        acc = IntPolynomial(())
        for j in range(len(m)):
            minor = [row[:j] + row[j + 1 :] for row in m[1:]]
            term = m[0][j] * det(minor)
            acc = acc + term if j % 2 == 0 else acc - term
        return acc

    return det(mat) if n else IntPolynomial((1,))


def det_fraction(rows):
    n = len(rows)
    a = [[Fraction(v) for v in r] for r in rows]
    det = Fraction(1)
    for k in range(n):
        piv = next((i for i in range(k, n) if a[i][k] != 0), None)
        if piv is None:
            return 0
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            det = -det
        det *= a[k][k]
        for i in range(k + 1, n):
            f = a[i][k] / a[k][k]
            for j in range(k, n):
                a[i][j] -= f * a[k][j]
    return int(det)


def rank_fraction(rows):
    n = len(rows)
    a = [[Fraction(v) for v in r] for r in rows]
    rk = 0
    for col in range(n):
        piv = next((i for i in range(rk, n) if a[i][col] != 0), None)
        if piv is None:
            continue
        a[rk], a[piv] = a[piv], a[rk]
        for i in range(rk + 1, n):
            f = a[i][col] / a[rk][col]
            for j in range(col, n):
                a[i][j] -= f * a[rk][j]
        rk += 1
    return rk


def random_word(rng: random.Random, degree: int, max_len: int, min_len: int = 0) -> BraidWord:
    if degree < 2:
        return BraidWord(degree)
    gens = [k for i in range(1, degree) for k in (i, -i)]
    n = rng.randint(min_len, max_len)
    return BraidWord(degree, tuple(rng.choice(gens) for _ in range(n)))


def group_order_bfs(gens) -> int:
    """Order of the group generated by 1-based image tuples of one degree,
    by listing every element: factorial time, fine up to degree 8."""
    identity = tuple(range(1, len(gens[0]) + 1))
    seen = {identity}
    frontier = [identity]
    while frontier:
        nxt = []
        for p in frontier:
            for g in gens:
                q = tuple(g[v - 1] for v in p)
                if q not in seen:
                    seen.add(q)
                    nxt.append(q)
        frontier = nxt
    return len(seen)


def bubble_normalize(facs: list) -> None:
    """Left-weight a list of permutation-braid factors in place by full
    sweeps of the pair fix until no pair changes: transfers preserve the
    product, so the fixpoint is the left-weighted spelling."""
    while True:
        changed = False
        for i in range(len(facs) - 1):
            a, b, ch = _lw_fix(facs[i], facs[i + 1])
            if ch:
                facs[i], facs[i + 1] = a, b
                changed = True
        if not changed:
            return
