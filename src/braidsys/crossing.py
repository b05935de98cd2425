"""
Crossing matrices of braids and permutation equivalence of integer matrices.

The (i, j) entry of the crossing matrix counts, with sign, the crossings
in which strand i passes over strand j.  Strands are identified by their
upper endpoint position, not by their current position, so the matrix is
computed with a strand-tracking sweep over the word.  The count is
invariant under the braid relations, hence well defined on braids.

Over/under convention: in a positive letter the strand entering at the
left position of the crossing passes over; in a negative letter the
strand entering at the right position passes over.  The opposite
convention swaps over and under in every crossing, so its matrix is
`CrossingMatrix.transpose()`.  Every pure-power matrix is symmetric and
so the same under either convention.

A braid given by its normal form Delta^d A_1 ... A_k is not re-expanded
into a word: the half twists of a negative infimum are spent on the
first factors, turning each into the inverse of its short complement,
and the half twists left over have a closed-form matrix, so only a short
mixed word is swept (see `_normal_form_entries`).  The pure-power matrix
is read off that matrix's nonzero entries, one orbit total each (see
`pure_power_matrix`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import compress

from .braids import (
    BraidWord,
    NormalForm,
    Permutation,
    _permutation_letters,
    _tup_flip,
    _tup_left_complement,
    permutation,
)
from .intlinalg import matrix_rows


@dataclass(frozen=True)
class CrossingMatrix:
    """Square integer matrix with zero diagonal, indexed by strand number."""

    size: int
    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if len(self.entries) != self.size or any(len(r) != self.size for r in self.entries):
            raise ValueError("entries shape does not match size")
        if any(self.entries[i][i] != 0 for i in range(self.size)):
            raise ValueError("diagonal entries must be zero")

    def __getitem__(self, ij: tuple[int, int]) -> int:
        i, j = ij
        return self.entries[i - 1][j - 1]

    def is_symmetric(self) -> bool:
        return all(
            self.entries[i][j] == self.entries[j][i]
            for i in range(self.size)
            for j in range(i + 1, self.size)
        )

    def transpose(self) -> "CrossingMatrix":
        return CrossingMatrix(self.size, tuple(zip(*self.entries)))

    def entry_multiset(self) -> tuple[int, ...]:
        return tuple(sorted(v for row in self.entries for v in row))

    def row_multisets(self) -> tuple[tuple[int, ...], ...]:
        return tuple(sorted(tuple(sorted(row)) for row in self.entries))

    def col_multisets(self) -> tuple[tuple[int, ...], ...]:
        return self.transpose().row_multisets()


def crossing_matrix(b: BraidWord) -> CrossingMatrix:
    """Signed over-crossing counts between all strand pairs of the word."""
    m = b.degree
    entries = [[0] * m for _ in range(m)]
    pos = list(range(1, m + 1))  # strand currently at each position
    for k in b.letters:
        i = abs(k)
        u, v = pos[i - 1], pos[i]
        if k > 0:
            over, under, sign = u, v, 1
        else:
            over, under, sign = v, u, -1
        entries[over - 1][under - 1] += sign
        pos[i - 1], pos[i] = pos[i], pos[i - 1]
    return CrossingMatrix(m, tuple(tuple(row) for row in entries))


def _normal_form_entries(nf: NormalForm) -> tuple[tuple[int, ...], ...] | list[list[int]]:
    """Crossing matrix rows of the normal form Delta^d A_1 ... A_k, from a
    sweep of a short mixed word.

    For d < 0 and t = min(-d, k), Delta^-t A_1 ... A_t is the product over
    j = 1..t of (D tau^(t-j)(A_j))^-1, where tau is the flip and
    D A = A^-1 Delta the left complement of tau(A) (El-Rifai and Morton
    1994; Epstein et al., *Word Processing in Groups*, ch. 9).  So the
    word swept is the inverted words of those t complements, then the
    positive words of A_(t+1) ... A_k: D tau^(t-j)(A_j) is the left
    complement of A_j when t - j is odd and of tau(A_j) when it is even.
    A factor near Delta has a short complement, and the factors of a
    negative infimum are mostly such: for random words of 64 letters at
    m = 32 the word swept has 90 letters on average, where the positive
    word of the factors has 1,538.

    What is left is Delta^e, e = d + t, nonzero only when d > 0 or -d > k.
    Every pair of strands crosses once in Delta, and Delta reverses the
    positions, so the strand on the left alternates from one half twist
    to the next.  It passes over in Delta; in Delta^-1 the strand on the
    right passes over, with sign -1.  So for i < j, Delta^e adds ceil(e/2)
    to C[i][j] and floor(e/2) to C[j][i], for e of either sign.  The
    strand that starts at i enters the swept word at position i, or at
    m+1-i when e is odd.
    """
    m, d, factors = nf.degree, nf.infimum, nf.factors
    t = min(-d, len(factors)) if d < 0 else 0
    letters: list[int] = []
    for j, a in enumerate(factors[:t], start=1):
        c = _tup_left_complement(a if (t - j) % 2 else _tup_flip(a))
        letters += [-k for k in reversed(_permutation_letters(c))]
    for a in factors[t:]:
        letters += _permutation_letters(a)
    W = crossing_matrix(BraidWord(m, tuple(letters))).entries
    e = d + t
    if not e:
        return W
    if e % 2:
        W = [row[::-1] for row in W[::-1]]
    upper, lower = -(-e // 2), e // 2
    return [
        [v + lower for v in row[:i]] + [0] + [v + upper for v in row[i + 1 :]]
        for i, row in enumerate(W)
    ]


def pure_power_matrix(b: BraidWord | NormalForm) -> tuple[int, CrossingMatrix]:
    """(r, crossing matrix of b^r) where r is the braid permutation order.

    b^r is a pure braid, so the returned matrix is symmetric: the same in
    either over-strand convention.  It is read off the matrix C of b
    alone, with no power word built: one sweep of a word, or, for a normal
    form, one sweep of a short mixed word plus the closed form of the half
    twists left over (see `_normal_form_entries`).  With e the permutation
    of b, the strands that enter the t-th copy of b at positions e^t(i)
    and e^t(j) started at i and j, so

        C(b^r)[i][j] = sum over t < r of C(b)[e^t(i)][e^t(j)].

    The terms repeat along the orbit of (i, j) under e x e, whose length
    L = lcm(a, b) divides r, for a and b the lengths of the cycles of e
    through i and j.  The orbit is named by those two cycles and by
    (pos j - pos i) mod gcd(a, b), pos the place in the cycle, since one
    step of e adds 1 to both places.  So only the nonzero entries of C
    are read, each added to its orbit's total, and only the orbits with
    a nonzero total are written, each with its total times r / L.

    A word is swept as it is, not through its normal form: the sweep is
    linear in the word, while `normal_form` of a long word is not.  At
    m = 32 a random word of 2,000 letters took 1.7 ms by the sweep and
    0.34-0.53 s through `normal_form`, and one of 20,000 letters 7 ms
    against 33 s (2-core VM, Python 3.11).
    """
    if isinstance(b, NormalForm):
        perm, C = b.permutation(), _normal_form_entries(b)
    else:
        perm, C = permutation(b), crossing_matrix(b).entries
    m, cycles = perm.degree, perm.cycles()
    cycle_of, place = [0] * m, [0] * m
    for c, cycle in enumerate(cycles):
        for p, i in enumerate(cycle):
            cycle_of[i - 1], place[i - 1] = c, p
    lengths = list(map(len, cycles))
    r = math.lcm(*lengths)
    totals: dict[tuple[int, int, int], int] = {}
    for i, row in enumerate(C):
        ci, pi = cycle_of[i], place[i]
        for j in compress(range(m), row):
            cj = cycle_of[j]
            key = (ci, cj, (place[j] - pi) % math.gcd(lengths[ci], lengths[cj]))
            totals[key] = totals.get(key, 0) + row[j]
    entries = [[0] * m for _ in range(m)]
    for (ci, cj, delta), total in totals.items():
        if not total:
            continue
        I, J, li, lj = cycles[ci], cycles[cj], lengths[ci], lengths[cj]
        L = math.lcm(li, lj)
        v = total * (r // L)
        for s in range(L):
            entries[I[s % li] - 1][J[(s + delta) % lj] - 1] = v
    return r, CrossingMatrix(m, tuple(tuple(row) for row in entries))


def _signature(rows, i: int) -> tuple:
    row = tuple(sorted(rows[i]))
    col = tuple(sorted(r[i] for r in rows))
    return (rows[i][i], row, col)


def permutation_equivalent(M, N) -> Permutation | None:
    """A witness p with N[i][j] = M[p(i)][p(j)] for all i, j, or None.

    Works on any square integer matrices, not only crossing matrices.
    Backtracking over partial assignments, pruning candidates by the
    multiset signature (diagonal, row multiset, column multiset) of each
    index.  Every returned witness is re-verified entry by entry.
    """
    rm, rn = matrix_rows(M), matrix_rows(N)
    if len(rm) != len(rn):
        raise ValueError(f"size mismatch: {len(rm)} vs {len(rn)}")
    n = len(rm)
    sig_m = [_signature(rm, i) for i in range(n)]
    sig_n = [_signature(rn, i) for i in range(n)]
    if sorted(sig_m) != sorted(sig_n):
        return None
    candidates = [[k for k in range(n) if sig_m[k] == sig_n[i]] for i in range(n)]

    assign: list[int] = []
    used = [False] * n

    def extend() -> bool:
        i = len(assign)
        if i == n:
            return True
        for k in candidates[i]:
            if used[k]:
                continue
            if any(
                rn[i][j] != rm[k][assign[j]] or rn[j][i] != rm[assign[j]][k]
                for j in range(i)
            ):
                continue
            assign.append(k)
            used[k] = True
            if extend():
                return True
            assign.pop()
            used[k] = False
        return False

    if not extend():
        return None
    witness = Permutation(tuple(k + 1 for k in assign))
    if not all(rn[i][j] == rm[assign[i]][assign[j]] for i in range(n) for j in range(n)):
        raise RuntimeError("witness failed exhaustive re-verification")
    return witness
