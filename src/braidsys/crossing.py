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

A word is swept as it is.  The matrix is the same on every word of a
braid, so a report of a word sweeps that word, not its normal form
(`invariants.braid_invariants`).  A braid given by its normal form
Delta^d A_1 ... A_k alone is not re-expanded into a word: the half
twists of a negative infimum are spent on the first factors, turning
each into the inverse of its short complement, read off by
`NormalForm.inverse`, and the half twists left over have a closed-form
matrix, added orbit by orbit, so only a short mixed word is swept (see
`_normal_form_entries`).  A sweep keeps its matrix's nonzero entries as
a dict (`crossing_matrix`); one pass over them sums each orbit of strand
pairs (`_pure_power_orbits`), and the
pure-power matrix is handed over as the cycles of the braid permutation
and those orbit entries: the shape in which `intlinalg.charpoly` takes
any matrix, and which `intlinalg` alone splits into diagonal blocks.  A
braid report reads the orbit entries and never writes a row;
`pure_power_matrix` writes each orbit back at its strands.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain, product

from .braids import (
    BraidWord,
    NormalForm,
    Permutation,
    _permutation_letters,
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
    """Signed over-crossing counts between all strand pairs of the word.

    The matrix keeps its nonzero entries as the dict `_counts`, {(i, j):
    entry} with 0-based strands, outside its fields (as an `IntPolynomial`
    keeps its `_root_split`): `_pure_power_orbits` sums them rather than
    scanning m rows."""
    m = b.degree
    entries = [[0] * m for _ in range(m)]
    crossed = set()  # (over, under) of every crossing, at most m(m - 1) pairs
    pos = list(range(m))  # strand currently at each position, 0-based
    for k in b.letters:
        i = abs(k)
        u, v = pos[i - 1], pos[i]
        if k > 0:
            entries[u][v] += 1
            crossed.add((u, v))
        else:
            entries[v][u] -= 1
            crossed.add((v, u))
        pos[i - 1], pos[i] = v, u
    M = CrossingMatrix(m, tuple(map(tuple, entries)))
    object.__setattr__(M, "_counts", {(i, j): x for i, j in crossed if (x := entries[i][j])})
    return M


def _normal_form_entries(nf: NormalForm) -> tuple[dict[tuple[int, int], int], int]:
    """(the nonzero entries {(i, j): entry}, 0-based, of the crossing matrix
    of a short mixed word, e): the crossing matrix of the normal form
    Delta^d A_1 ... A_k is that of Delta^e plus those entries.

    For d < 0 and t = min(-d, k), `NormalForm.inverse` reads the inverse of
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
    to C[i][j] and floor(e/2) to C[j][i], for e of either sign: e to the
    two together.  The strand that starts at i enters the swept word at
    position i, or at m+1-i when e is odd, so the entries returned are
    reindexed by that reversal.  `_pure_power_orbits` adds the closed form
    orbit by orbit; written out, nearly every entry would be nonzero.
    """
    m, d, factors = nf.degree, nf.infimum, nf.factors
    t = min(-d, len(factors)) if d < 0 else 0
    letters: list[int] = []
    complements = NormalForm(m, -t, factors[:t]).inverse().factors if t else ()
    for c in reversed(complements):
        letters += [-k for k in reversed(_permutation_letters(c))]
    for a in factors[t:]:
        letters += _permutation_letters(a)
    counts = crossing_matrix(BraidWord(m, tuple(letters)))._counts
    e = d + t
    if e % 2:
        counts = {(m - 1 - i, m - 1 - j): v for (i, j), v in counts.items()}
    return counts, e


def pure_power_matrix(b: BraidWord | NormalForm) -> tuple[int, CrossingMatrix]:
    """(r, crossing matrix of b^r) where r is the braid permutation order.

    b^r is a pure braid, so the returned matrix is symmetric: the same in
    either over-strand convention.  It is read off the matrix C of b
    alone, with no power word built (see `_pure_power_orbits`): each
    orbit (I, J, delta, v) writes v at the strands in place s of cycle I
    and place s + delta of cycle J, for every s < lcm(|I|, |J|).

    A word is swept as it is, not through its normal form: the sweep is
    linear in the word, while `normal_form` of a long word is not.  At
    m = 32 a random word of 2,000 letters took 1.7 ms by the sweep and
    0.34-0.53 s through `normal_form`, and one of 20,000 letters 7 ms
    against 33 s (2-core VM, Python 3.11).
    """
    r, cycles, orbits, _, _ = _pure_power_orbits(b)
    m = b.degree
    entries = [[0] * m for _ in range(m)]
    for ci, cj, delta, v in orbits:
        si, sj = cycles[ci], cycles[cj]
        li, lj = len(si), len(sj)
        for s in range(math.lcm(li, lj)):
            entries[si[s % li]][sj[(s + delta) % lj]] = v
    return r, CrossingMatrix(m, tuple(tuple(row) for row in entries))


def _multiset(counts: dict[int, int], n: int) -> tuple[int, ...]:
    """n values, sorted: each key of `counts` (all nonzero) as often as it
    says, and zeros for the rest."""
    low: list[int] = []
    high: list[int] = []
    for v in sorted(counts):
        (low if v < 0 else high).extend([v] * counts[v])
    return tuple(low) + (0,) * (n - len(low) - len(high)) + tuple(high)


def _pure_power_orbits(b: BraidWord | NormalForm) -> tuple[
    int,
    list[list[int]],
    list[tuple[int, int, int, int]],
    tuple[int, ...],
    tuple[tuple[int, ...], ...],
]:
    """(r, the cycles of the permutation of b as 0-based strands, each from
    place 0, the nonzero orbit entries (I, J, delta, v) of the crossing
    matrix M of b^r, I and J indices of cycles, the entry multiset and the
    row multisets of M), read off the nonzero entries of the matrix C of
    b, with no m x m matrix of b^r built: those that one sweep of a word
    keeps with its matrix (`crossing_matrix`), or, for a normal form, those
    of one sweep of a short mixed word, to which the closed form of the
    half twists left over is added orbit by orbit (`_normal_form_entries`,
    `_add_half_twists`).  So the pass below reads only swept entries.

    With e the permutation of b, the strands that enter the t-th copy of b
    at positions e^t(i) and e^t(j) started at i and j, so

        M[i][j] = sum over t < r of C[e^t(i)][e^t(j)].

    The terms repeat along the orbit of (i, j) under e x e, whose length
    L = lcm(a, b) divides r, for a and b the lengths of the cycles of e
    through i and j.  The orbit is named by those two cycles and by
    (pos j - pos i) mod gcd(a, b), pos the place in the cycle, since one
    step of e adds 1 to both places.  So only the nonzero entries of C
    are read, each added to its orbit's total, and only the orbits with
    a nonzero total are kept, each with its total times r / L.  No rows
    are written (`pure_power_matrix` writes them, and a report's charpoly
    reads the cycle lengths and the orbits, `intlinalg._split_charpoly`).
    An orbit (I, J, delta) writes its entry in lcm(a, b) places,
    b / gcd(a, b) in each row of I; so every row of one cycle holds the
    same multiset, and the multisets are counted, not sorted from m^2
    entries.
    """
    if isinstance(b, NormalForm):
        perm, (C, e) = b.permutation(), _normal_form_entries(b)
    else:
        perm, C, e = permutation(b), crossing_matrix(b)._counts, 0
    m, cycles = perm.degree, [[i - 1 for i in c] for c in perm.cycles()]
    cycle_of, place = [0] * m, [0] * m
    for c, cycle in enumerate(cycles):
        for p, i in enumerate(cycle):
            cycle_of[i], place[i] = c, p
    lengths = list(map(len, cycles))
    r = math.lcm(*lengths)
    totals: dict[tuple[int, int, int], int] = {}
    for (i, j), v in C.items():
        ci, cj = cycle_of[i], cycle_of[j]
        key = (ci, cj, (place[j] - place[i]) % math.gcd(lengths[ci], lengths[cj]))
        totals[key] = totals.get(key, 0) + v
    if e:
        totals = _add_half_twists(totals, lengths, e)
    orbits = []  # (cycle of i, cycle of j, delta, entry) of each nonzero orbit
    row_counts: list[dict[int, int]] = [{} for _ in cycles]  # of one row of each cycle
    counts: dict[int, int] = {}  # of M
    for (ci, cj, delta), total in totals.items():
        if not total:
            continue
        li, lj = lengths[ci], lengths[cj]
        span = math.lcm(li, lj)
        v = total * (r // span)
        orbits.append((ci, cj, delta, v))
        row_counts[ci][v] = row_counts[ci].get(v, 0) + lj // math.gcd(li, lj)
        counts[v] = counts.get(v, 0) + span
    shapes = sorted((_multiset(rc, m), k) for rc, k in zip(row_counts, lengths))
    S_rows = tuple(chain.from_iterable([row] * k for row, k in shapes))
    return r, cycles, orbits, _multiset(counts, m * m), S_rows


def _add_half_twists(
    swept: dict[tuple[int, int, int], int], lengths: list[int], e: int
) -> dict[tuple[int, int, int], int]:
    """The orbit totals of C + H, keyed (I, J, delta) as in
    `_pure_power_orbits`, from `swept`, those of C, where H is the crossing
    matrix of Delta^e and the cycles have these lengths.

    Every orbit O of pairs of distinct strands gets a total, but none is
    summed entry by entry.  M is symmetric, so O and its transpose O^T
    have equal totals, and H[i][j] + H[j][i] = e for i != j; so, for O of
    length L, T(O) = (S(O) + S(O^T) + e L) / 2 with S the swept totals,
    and e L / 2 where neither was swept.  The transpose of (I, J, delta) is
    (J, I, -delta mod gcd(|I|, |J|)).
    """
    by_length: dict[int, list[int]] = {}
    for c, length in enumerate(lengths):
        by_length.setdefault(length, []).append(c)
    totals: dict[tuple[int, int, int], int] = {}
    for a, I in by_length.items():
        for b, J in by_length.items():
            g = math.gcd(a, b)
            totals.update(dict.fromkeys(product(I, J, range(g)), e * (a // g * b) // 2))
    for c in range(len(lengths)):
        del totals[c, c, 0]  # the diagonal
    for (ci, cj, delta), s in swept.items():
        li, lj = lengths[ci], lengths[cj]
        g = math.gcd(li, lj)
        back = (cj, ci, -delta % g)
        totals[ci, cj, delta] = totals[back] = (s + swept.get(back, 0) + e * (li // g * lj)) // 2
    return totals


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
    3.11.7).  The ROADMAP item "`permutation_equivalent` by colour
    refinement" plans the fix.
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
