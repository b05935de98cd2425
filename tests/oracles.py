"""Independent brute-force oracles the real implementations are checked against."""

from collections import deque
from fractions import Fraction
import itertools
import random

from hypothesis import strategies as st

from braidsys import (
    BraidWord,
    HurwitzMove,
    IntPolynomial,
    braids,
    crossing_matrix,
    hurwitz_move_nf,
    normal_form,
    permutation,
    permutation_order,
    power,
)
from braidsys.braids import NormalForm, _book, _tup_left_complement
from braidsys.intlinalg import matrix_rows
from braidsys.orbit import OrbitResult, _conjugacy_type


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


def charpoly_berkowitz(M):
    """det(xI - M) by the division-free Berkowitz algorithm, O(n^4)."""
    rows = matrix_rows(M)
    n = len(rows)
    if n == 0:
        return IntPolynomial((1,))
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


def is_prime_mr(n: int) -> bool:
    """Miller-Rabin with the first twelve primes as bases, 2 to 37: no
    strong pseudoprime to all of them exists below 3.18 * 10^23
    (Sorenson and Webster 2015), so the answer is exact there."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    if n < 2:
        return False
    if n in bases:
        return True
    if any(n % b == 0 for b in bases):
        return False
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in bases:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = pow(x, 2, n)
            if x == n - 1:
                break
        else:
            return False
    return True


def matrix_components(rows):
    """The index sets of a square matrix linked by a nonzero entry either
    way, M[i][j] != 0 or M[j][i] != 0, each an ascending list, ordered by
    their least index: merged pair by pair over all n^2 cells."""
    n = len(rows)
    comp = [{i} for i in range(n)]
    for i in range(n):
        for j in range(n):
            if (rows[i][j] or rows[j][i]) and comp[i] is not comp[j]:
                merged = comp[i] | comp[j]
                for k in merged:
                    comp[k] = merged
    return [list(c) for c in sorted({tuple(sorted(c)) for c in comp})]


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


def permutation_equivalent_brute(M, N) -> bool:
    """Whether some p has N[i][j] = M[p(i)][p(j)] for all i, j, by trying
    all n! permutations: fine up to n = 7."""
    n = len(M)
    return any(
        all(N[i][j] == M[p[i]][p[j]] for i in range(n) for j in range(n))
        for p in itertools.permutations(range(n))
    )


def integer_roots_scan(p: IntPolynomial, bound: int | None = None):
    """(sorted (root, mult) pairs, cofactor) of a nonzero polynomial, by
    evaluating every integer within `bound` (by default the Cauchy bound
    1 + max|c_k / c_n|) and dividing each root out by exact long division
    while it divides.  A smaller bound must still hold every root, such as
    the largest absolute row sum of a matrix whose charpoly p is."""
    c = list(p.coeffs)
    if bound is None:
        bound = 1 + max(abs(v) for v in c[:-1]) // abs(c[-1]) if len(c) > 1 else 0
    roots = [r for r in range(-bound, bound + 1) if p(r) == 0]
    found = []
    for r in roots:
        mult = 0
        while len(c) > 1:
            # c = (x - r) q + rem, q found from the top coefficient down
            q = [0] * (len(c) - 1)
            carry = 0
            for k in range(len(c) - 1, 0, -1):
                q[k - 1] = c[k] + carry
                carry = q[k - 1] * r
            if c[0] + carry != 0:
                break
            c, mult = q, mult + 1
        found.append((r, mult))
    return tuple(found), IntPolynomial(tuple(c))


def opposite_convention_matrix(b: BraidWord) -> tuple[tuple[int, ...], ...]:
    """Crossing matrix rows under the opposite over-strand rule, swept
    independently: in a positive letter the strand entering at the right
    position passes over, in a negative letter the one at the left."""
    m = b.degree
    entries = [[0] * m for _ in range(m)]
    at = list(range(m))  # strand at each position
    for k in b.letters:
        left, right = at[abs(k) - 1], at[abs(k)]
        if k > 0:
            entries[right][left] += 1
        else:
            entries[left][right] -= 1
        at[abs(k) - 1], at[abs(k)] = right, left
    return tuple(map(tuple, entries))


def pure_power_matrix_literal(b: BraidWord, flipped: bool = False):
    """(r, crossing matrix of b^r) by sweeping the literal r-fold word;
    flipped takes the opposite over-strand convention, the transpose."""
    r = permutation_order(b)
    M = crossing_matrix(power(b, r))
    return r, M.transpose() if flipped else M


def _pair_fix(a: tuple, b: tuple) -> tuple:
    """Left-weight one pair of permutation-braid factors: while b has a
    descent at some i where a's inverse has none, move sigma_i from b to
    a, rescanning from i = 1 after every transfer."""
    m = len(a)
    al, bl = list(a), list(b)
    while True:
        ai = [0] * m
        for k, v in enumerate(al, start=1):
            ai[v - 1] = k
        i = next((i for i in range(1, m) if bl[i - 1] > bl[i] and ai[i - 1] < ai[i]), 0)
        if not i:
            return tuple(al), tuple(bl)
        al[ai[i - 1] - 1], al[ai[i] - 1] = i + 1, i
        bl[i - 1], bl[i] = bl[i], bl[i - 1]


def bubble_normalize(facs: list) -> None:
    """Left-weight a list of permutation-braid factors in place by full
    sweeps of the pair fix until no pair changes: transfers preserve the
    product, so the fixpoint is the left-weighted spelling."""
    while True:
        changed = False
        for i in range(len(facs) - 1):
            pair = _pair_fix(facs[i], facs[i + 1])
            if pair != (facs[i], facs[i + 1]):
                facs[i], facs[i + 1] = pair
                changed = True
        if not changed:
            return


def bubble_normal_form(b: BraidWord) -> NormalForm:
    """Left normal form of a word from the bubble fixpoint.  Each letter is
    a permutation braid, sigma_i^{-1} being Delta^{-1} times the complement
    of sigma_i; every Delta^{-1} is moved to the front, which conjugates
    the factors before it by the half twist.  Leading half twists of the
    fixpoint join the infimum and trailing identities are dropped."""
    m = b.degree
    w0, ident = tuple(range(m, 0, -1)), tuple(range(1, m + 1))
    infimum, facs = 0, []
    for k in b.letters:
        i = abs(k)
        s = ident[: i - 1] + (i + 1, i) + ident[i + 1 :]
        if k > 0:
            facs.append(s)
        else:
            facs = [tuple(m + 1 - f[m - j] for j in range(1, m + 1)) for f in facs]
            facs.append(tuple(s[m - j] for j in range(1, m + 1)))  # c with c s = Delta
            infimum -= 1
    bubble_normalize(facs)
    while facs and facs[0] == w0:
        facs.pop(0)
        infimum += 1
    while facs and facs[-1] == ident:
        facs.pop()
    return NormalForm(m, infimum, tuple(facs))


def normal_form_letterwise(b: BraidWord) -> NormalForm:
    """Left normal form with one comb form per letter: Delta^0 sigma_i, or
    Delta^{-1} times the left complement of sigma_i for its inverse."""
    m = b.degree
    book = _book(m)
    ident = tuple(range(1, m + 1))
    forms = []
    for k in b.letters:
        i = abs(k)
        t = ident[: i - 1] + (i + 1, i) + ident[i + 1 :]
        if k > 0:
            forms.append((0, book.encode([t])))
        else:
            forms.append((-1, book.encode([_tup_left_complement(t)])))
    return book.normal_form(book.mul((0, ()), *forms))


def _delta_letters(m: int) -> list:
    """The half twist spelled sigma_1 ... sigma_{m-1} sigma_1 ...
    sigma_{m-2} ... sigma_1."""
    return [i for j in range(m - 1, 0, -1) for i in range(1, j + 1)]


def flip_by_conjugation(p: tuple) -> tuple:
    """Delta^{-1} p Delta for a permutation braid p, as the permutation
    of the literal word, with p spelled by the restarting scan.  A
    conjugate of a permutation braid by Delta is one again, so its
    permutation names it."""
    delta = _delta_letters(len(p))
    letters = [-i for i in reversed(delta)] + permutation_letters_restart(p) + delta
    return permutation(BraidWord(len(p), tuple(letters))).images


@st.composite
def half_twist_words(draw, max_degree: int = 32):
    """Delta^d w for d in -3..3 and a short positive, negative or mixed w,
    on 2..max_degree strands: infima of both signs and parities, the half
    twist powers alone (w empty) and the identity (d = 0 too)."""
    m = draw(st.integers(2, max_degree))
    d = draw(st.integers(-3, 3))
    sign = draw(st.sampled_from([(1,), (-1,), (1, -1)]))
    body = draw(st.lists(st.integers(1, m - 1), max_size=min(2 * m, 16)))
    signs = draw(st.lists(st.sampled_from(sign), min_size=len(body), max_size=len(body)))
    return delta_power_word(m, d, tuple(s * i for s, i in zip(signs, body)))


@st.composite
def cycle_type_words(draw, max_degree: int = 20):
    """A word whose permutation has cycles of drawn lengths, among them
    lengths d with phi(d) > 2 (5, 7, 8, 9, 12, 16), often several of
    different lengths: a run of signed letters i, i+1, ... on each cycle's
    strands, pure letter pairs k, k at the boundaries of the runs and
    anywhere else to link the cycles, and the whole conjugated by a short
    word, which keeps the cycle type."""
    lengths = draw(st.lists(st.sampled_from([1, 2, 3, 4, 5, 7, 8, 9, 12, 16]), min_size=1, max_size=4)
                   .filter(lambda ls: 2 <= sum(ls) <= max_degree))
    m = sum(lengths)
    letters, at = [], 0
    for a in lengths:
        letters += [draw(st.sampled_from((1, -1))) * i for i in range(at + 1, at + a)]
        at += a
    # after the runs, a pair at the boundary of two runs links their cycles
    bounds = list(itertools.accumulate(lengths[:-1]))
    for k in draw(st.lists(st.sampled_from(bounds), max_size=3)) if bounds else ():
        letters += [k, k]
    for _ in range(draw(st.integers(0, 6))):
        k = draw(st.sampled_from((1, -1))) * draw(st.integers(1, m - 1))
        at = draw(st.integers(0, len(letters)))
        letters[at:at] = [k, k]
    conj = draw(st.lists(st.integers(1, m - 1), max_size=3))
    return BraidWord(m, tuple(-k for k in reversed(conj)) + tuple(letters) + tuple(conj))


def delta_power_word(m: int, d: int, letters: tuple = ()) -> BraidWord:
    """The literal word Delta^d followed by `letters`."""
    delta = _delta_letters(m)
    twist = delta * d if d >= 0 else [-i for i in reversed(delta)] * -d
    return BraidWord(m, tuple(twist) + tuple(letters))


def odd_infimum_word(rng: random.Random, degree: int, max_len: int) -> BraidWord:
    """A random word whose normal form has an odd infimum: a random word,
    followed by the half twist when its infimum is even."""
    w = random_word(rng, degree, max_len)
    if normal_form(w).infimum % 2:
        return w
    return BraidWord(degree, w.letters + tuple(_delta_letters(degree)))


def permutation_letters_restart(p: tuple) -> list:
    """A reduced positive word for a permutation braid: swap the first
    descent, rescanning from position 1 after every swap."""
    im = list(p)
    letters = []
    while True:
        for i in range(len(im) - 1):
            if im[i] > im[i + 1]:
                letters.append(i + 1)
                im[i], im[i + 1] = im[i + 1], im[i]
                break
        else:
            return letters


def orbit_bfs_plain(s, limits, target=None):
    """hurwitz_orbit by the unmemoised BFS: one hurwitz_move_nf call for
    every move tried.  Returns the OrbitResult and the states in discovery
    order, which end at the target when the search finds it."""
    start = s.normal_forms()
    target_key = target.normal_forms() if target is not None else None
    moves = [HurwitzMove(i, inv) for i in range(1, len(s)) for inv in (False, True)]
    parents = {start: None}
    states = [start]
    if start == target_key:
        return OrbitResult("target_found", 1, witness=()), states
    queue = deque([(start, 0)])
    truncated = False
    last_depth = 0
    while queue:
        state, depth = queue.popleft()
        if depth >= limits.max_depth:
            truncated = True
            continue
        for move in moves:
            nxt = hurwitz_move_nf(state, move)
            if nxt in parents:
                continue
            if len(parents) >= limits.max_states:
                return OrbitResult("truncated", len(parents)), states
            if any(nf.canonical_length > limits.max_component_canonical_length for nf in nxt):
                truncated = True
                continue
            parents[nxt] = (state, move)
            states.append(nxt)
            last_depth = depth + 1
            if nxt == target_key:
                path, key = [], nxt
                while parents[key] is not None:
                    key, step = parents[key]
                    path.append(step)
                return OrbitResult("target_found", len(parents), witness=tuple(reversed(path))), states
            queue.append((nxt, depth + 1))
    if truncated:
        return OrbitResult("truncated", len(parents)), states
    return OrbitResult("complete", len(parents), frontier_exhausted_at_depth=last_depth), states


def find_conjugator_words(b: BraidWord, target: BraidWord, max_length: int = 4) -> BraidWord | None:
    """find_conjugator by a BFS over words: a queue of words a, and for each
    letter the normal form of the literal conjugate word (a k)^-1 b (a k),
    deduplicated by that normal form."""
    braids.check_same_degree(b.degree, target.degree)
    target_nf = braids.normal_form(target)
    gens = [k for i in range(1, b.degree) for k in (i, -i)]
    b_nf = braids.normal_form(b)
    if b_nf == target_nf:
        return BraidWord(b.degree)
    if _conjugacy_type(b_nf) != _conjugacy_type(target_nf):
        return None
    seen = {b_nf}
    queue = deque([BraidWord(b.degree)])
    while queue:
        a = queue.popleft()
        if len(a) >= max_length:
            continue
        for k in gens:
            a2 = BraidWord(b.degree, a.letters + (k,))
            nf = braids.normal_form(braids.conjugate(b, a2))
            if nf == target_nf:
                return a2
            if nf not in seen:
                seen.add(nf)
                queue.append(a2)
    return None
