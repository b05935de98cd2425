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
read off by `_Codebook.inverse`, and the half twists left over have a
closed-form matrix, so only a short mixed word is swept (see
`_normal_form_entries`).  The pure-power matrix is read off that
matrix's nonzero entries, one orbit total each (see
`pure_power_matrix`).  A braid report reads the same orbits block by
block and never builds the m x m matrix (see `_pure_power_blocks`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain, compress

from .braids import (
    BraidWord,
    NormalForm,
    Permutation,
    _book,
    _permutation_letters,
    permutation,
)
from .intlinalg import _components, matrix_rows


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
        if not (1 <= i <= self.size and 1 <= j <= self.size):
            raise IndexError(f"index {ij} out of range 1..{self.size}")
        return self.entries[i - 1][j - 1]

    def is_symmetric(self) -> bool:
        return self.transpose() == self

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

    For d < 0 and t = min(-d, k), `_Codebook.inverse` reads the inverse of
    Delta^-t A_1 ... A_t off as Delta^0 B_t ... B_1, B_j the left complement
    of A_j, flipped when t - j is even (El-Rifai and Morton 1994; Epstein
    et al., *Word Processing in Groups*, ch. 9).  So Delta^-t A_1 ... A_t
    = B_1^-1 ... B_t^-1, and the word swept is the inverted words of
    B_1 ... B_t, then the positive words of A_(t+1) ... A_k.
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
    if t:
        book = _book(m)
        complements = book.normal_form(book.inverse((-t, book.encode(factors[:t])))).factors
        for c in reversed(complements):
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


def _pure_power_orbits(b: BraidWord | NormalForm) -> tuple[int, list[list[int]], dict[tuple[int, int, int], int]]:
    """(r, the cycles of the braid permutation as lists of 0-based strands,
    the entry of each orbit of strand pairs that is nonzero in the crossing
    matrix of b^r), the orbits keyed as `pure_power_matrix` names them:
    (cycle of i, cycle of j, (pos j - pos i) mod gcd of the cycle lengths),
    cycles by their index."""
    if isinstance(b, NormalForm):
        perm, C = b.permutation(), _normal_form_entries(b)
    else:
        perm, C = permutation(b), crossing_matrix(b).entries
    m, cycles = perm.degree, [[i - 1 for i in c] for c in perm.cycles()]
    cycle_of, place = [0] * m, [0] * m
    for c, cycle in enumerate(cycles):
        for p, i in enumerate(cycle):
            cycle_of[i], place[i] = c, p
    lengths = list(map(len, cycles))
    r = math.lcm(*lengths)
    totals: dict[tuple[int, int, int], int] = {}
    for i, row in enumerate(C):
        ci, pi = cycle_of[i], place[i]
        for j in compress(range(m), row):
            cj = cycle_of[j]
            key = (ci, cj, (place[j] - pi) % math.gcd(lengths[ci], lengths[cj]))
            totals[key] = totals.get(key, 0) + row[j]
    return r, cycles, {
        key: total * (r // math.lcm(lengths[key[0]], lengths[key[1]]))
        for key, total in totals.items()
        if total
    }


def _write_orbit(rows, I, J, delta: int, v: int) -> None:
    """rows[I[s]][J[s + delta]] = v for every s, places taken mod the
    lengths of I and J: one orbit's entries, its strands numbered as the
    rows are."""
    li, lj = len(I), len(J)
    for s in range(math.lcm(li, lj)):
        rows[I[s % li]][J[(s + delta) % lj]] = v


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
    a nonzero total are written, each with its total times r / L
    (`_pure_power_orbits`, which the braid reports read directly).

    A word is swept as it is, not through its normal form: the sweep is
    linear in the word, while `normal_form` of a long word is not.  At
    m = 32 a random word of 2,000 letters took 1.7 ms by the sweep and
    0.34-0.53 s through `normal_form`, and one of 20,000 letters 7 ms
    against 33 s (2-core VM, Python 3.11).
    """
    r, cycles, orbits = _pure_power_orbits(b)
    m = sum(map(len, cycles))
    entries = [[0] * m for _ in range(m)]
    for (ci, cj, delta), v in orbits.items():
        _write_orbit(entries, cycles[ci], cycles[cj], delta, v)
    return r, CrossingMatrix(m, tuple(tuple(row) for row in entries))


def _multiset(counts: dict[int, int], n: int) -> tuple[int, ...]:
    """n values, sorted: each key of `counts` (all nonzero) as often as it
    says, and zeros for the rest."""
    low: list[int] = []
    high: list[int] = []
    for v in sorted(counts):
        (low if v < 0 else high).extend([v] * counts[v])
    return tuple(low) + (0,) * (n - len(low) - len(high)) + tuple(high)


def _pure_power_blocks(b: BraidWord | NormalForm) -> tuple[
    int, list[list[list[int]]], tuple[int, ...], tuple[tuple[int, ...], ...]
]:
    """(r, the diagonal blocks, the entry multiset and the row multisets of
    the crossing matrix M of b^r), read off the orbits of
    `_pure_power_orbits` with no m x m matrix built.

    The cycles that a nonzero orbit links are joined into one block
    (`_components` of the cycles), so no entry of M links two blocks, and
    listing the strands block by block permutes M to block-diagonal form.
    A block is a union of whole cycles, which may hold more than one
    connected component of M's pattern.  An orbit (I, J, delta) writes its entry in lcm(a, b)
    places, b / gcd(a, b) in each row of I, for a = |I| and b = |J|; so
    every row of one cycle holds the same multiset, and the multisets are
    counted, not sorted from m^2 entries.
    """
    r, cycles, orbits = _pure_power_orbits(b)
    m, n = sum(map(len, cycles)), len(cycles)
    links: list[list[int]] = [[] for _ in range(n)]  # M is symmetric, so links go both ways
    row_counts: list[dict[int, int]] = [{} for _ in range(n)]  # of one row of each cycle
    counts: dict[int, int] = {}  # of M
    for (ci, cj, _), v in orbits.items():
        links[ci].append(cj)
        li, lj = len(cycles[ci]), len(cycles[cj])
        row_counts[ci][v] = row_counts[ci].get(v, 0) + lj // math.gcd(li, lj)
        counts[v] = counts.get(v, 0) + math.lcm(li, lj)
    blocks, block_of, local = [], [None] * n, [0] * m  # block_of: each cycle's block rows
    for group in _components(links):
        strands = [i for c in group for i in cycles[c]]
        for k, i in enumerate(strands):
            local[i] = k
        rows = [[0] * len(strands) for _ in strands]
        blocks.append(rows)
        for c in group:
            block_of[c] = rows
    at = [[local[i] for i in cycle] for cycle in cycles]  # the strands' indices in their block
    for (ci, cj, delta), v in orbits.items():
        _write_orbit(block_of[ci], at[ci], at[cj], delta, v)
    shapes = sorted((_multiset(rc, m), len(c)) for rc, c in zip(row_counts, cycles))
    S_rows = tuple(chain.from_iterable([row] * k for row, k in shapes))
    return r, blocks, _multiset(counts, m * m), S_rows


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

    The worst case is exponential in the size n: on regular graphs the
    signature prunes nothing.  A shuffled prism C_k x K_2 against a
    shuffled Moebius ladder, worst of 5 shuffles, returned None in 0.55 s
    at n = 16, 3.9 s at n = 18 and 66 s at n = 20 (2-core VM, Python
    3.11.7).  ROADMAP item 11 plans colour refinement.
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
