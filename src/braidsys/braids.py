"""
Braid words, braid permutations, and an exact word-problem solver.

Conventions used across the whole package:

- A braid word on m strands is a sequence of signed generator indices:
  the integer k > 0 stands for the elementary crossing at positions
  (k, k+1) with the strand entering at position k passing over, and
  k < 0 for its inverse.  Positions and strands are numbered 1..m.
- Braids compose left to right, i.e. top to bottom in a diagram: in the
  product a*b the word a is performed first.
- The permutation of a braid sends the upper endpoint position of each
  strand to its lower endpoint position.  Accordingly the permutation of
  a product is "first a, then b".

Equality of braids is decided through the left Garside normal form
Delta^p A_1 ... A_k, where each A_i is a permutation braid (a positive
braid in which any two strands cross at most once, identified with its
permutation) and each consecutive pair is left-weighted.  The normal
form is computed directly on permutations, so it works for any number of
strands without tabulating symmetric groups.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
import re
import threading
from collections import OrderedDict, namedtuple
from dataclasses import dataclass

from .codec import JsonCodec


@dataclass(frozen=True)
class Permutation:
    """A permutation of {1..m}; images[k-1] is the image of k."""

    images: tuple[int, ...]

    def __post_init__(self):
        if sorted(self.images) != list(range(1, len(self.images) + 1)):
            raise ValueError(f"not a bijection of 1..{len(self.images)}: {self.images}")

    @property
    def degree(self) -> int:
        return len(self.images)

    def __call__(self, k: int) -> int:
        if not 1 <= k <= len(self.images):
            raise IndexError(f"point {k} out of range 1..{len(self.images)}")
        return self.images[k - 1]

    def then(self, other: "Permutation") -> "Permutation":
        """Composition in diagram order: (self.then(other))(k) = other(self(k))."""
        return Permutation(_tup_then(self.images, other.images))

    def inverse(self) -> "Permutation":
        return Permutation(tuple(_tup_inverse(self.images)))

    def is_identity(self) -> bool:
        return all(v == k for k, v in enumerate(self.images, start=1))

    def cycles(self) -> list[list[int]]:
        return [[k + 1 for k in cyc] for cyc in _tup_cycles(self.images)]

    def cycle_count(self) -> int:
        return len(_tup_cycles(self.images))

    def order(self) -> int:
        return math.lcm(*map(len, _tup_cycles(self.images)))


def _tup_cycles(a, base: int = 1) -> list[list[int]]:
    """The cycles of the permutation k -> a[k] - base of 0..len(a)-1, each
    as its 0-based points from its least one, in the order of those: base 1
    reads 1-based images, as a Permutation holds them, and base 0 0-based ones."""
    seen = [False] * len(a)
    out = []
    for start in range(len(a)):
        if not seen[start]:
            cyc, k = [], start
            while not seen[k]:
                seen[k] = True
                cyc.append(k)
                k = a[k] - base
            out.append(cyc)
    return out


def _tup_then(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(b[v - 1] for v in a)


def _tup_inverse(a, base: int = 1) -> list[int]:
    """The inverse of the permutation a of base..len(a) - 1 + base, whose
    image of k is a[k - base], as a list of the same base: base 1 reads
    1-based images, as a Permutation holds them, and base 0 the 0-based
    ones that Schreier-Sims stores."""
    inv = [0] * len(a)
    for k, v in enumerate(a, start=base):
        inv[v - base] = k
    return inv


def _tup_flip(a: tuple[int, ...]) -> tuple[int, ...]:
    # conjugation by the half twist; an involution on permutation braids
    return tuple(map((len(a) + 1).__sub__, reversed(a)))


def _tup_left_complement(a: tuple[int, ...]) -> tuple[int, ...]:
    # c with braid(c) braid(a) = Delta, i.e. braid(a)^{-1} = Delta^{-1} braid(c)
    return tuple(_tup_inverse(a)[::-1])


# `_lw_fix` takes the dual path only above this degree.  On the pairs of its
# shape that `braid_invariants` combs for random 2m-letter words (median of 41
# alternating timings, Python 3.11, 2-core VM), the dual path took 1.8x the
# insertion pass's time at degree 6, 1.5x at 8, 1.2x at 10, 0.94-1.05x at
# 12, 0.86x at 13 and 0.75x at 16.
_DUAL_FIX_ABOVE = 12


def _lw_fix(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...], bool]:
    """Slide prefix content of b into a until the pair is left-weighted.

    A transfer of sigma_i exists when b has a descent at i (sigma_i is a
    prefix of b) while a's inverse does not (a sigma_i is still a
    permutation braid), and it swaps positions i and i+1 of both b and
    a's inverse.  So the pass sorts the pairs x = (b[i], a^-1[i]) by one
    insertion pass: each x in turn shifts left past every neighbour y
    with y_b > x_b and y_a < x_a, one transfer per shift.  After x
    stops no transfer is left in front of it: the neighbours it passed
    keep their order, the pair it last crossed has lost its descent, and
    the pair in front of it stopped the shift.  The greedy fix yields
    the same pair in whatever order its transfers run (it is the meet of
    b with the right complement of a), so this equals the first-descent
    rescan.

    The pass takes one step per transfer, nearly m(m-1)/2 of them when a
    has few crossings and b is near Delta.  Such pairs go to
    `_lw_fix_dual`, which builds the same answer by Garside duality from
    the few pairs that keep their order.  The test reads the input alone:
    b[0] > b[-1] and a[0] < a[-1], and the degree is above
    `_DUAL_FIX_ABOVE`, below which the dual path is slower (its comment
    gives the timings).  Of the 22,470 fixes that the seed-201 `invariants`
    benchmark makes at degrees 8-32, the 6,173 of that shape made 97% of
    the 1.74 million transfers, 273 each.
    """
    if len(b) > _DUAL_FIX_ABOVE and b[0] > b[-1] and a[0] < a[-1]:
        return _lw_fix_dual(a, b)
    ai = _tup_inverse(a)
    bl = list(b)
    moved = False
    for i in range(1, len(bl)):
        xb, xa = bl[i], ai[i]
        j = i
        while j and bl[j - 1] > xb and ai[j - 1] < xa:
            bl[j], ai[j] = bl[j - 1], ai[j - 1]
            j -= 1
        if j != i:
            bl[j], ai[j] = xb, xa
            moved = True
    if not moved:
        return a, b, False
    return tuple(_tup_inverse(ai)), tuple(bl), True


def _lw_fix_dual(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...], bool]:
    """`_lw_fix` from the dual side: the same result, at a cost that grows
    with the crossings the fix does not move rather than those it does.

    The transfers make up the meet M of b with the right complement of a.
    By Garside duality the complement of M is the left lcm of a and of b's
    left complement (El-Rifai and Morton, Algorithms for positive braids,
    1994; Epstein et al., Word Processing in Groups, ch. 9), and the
    crossings of an lcm of simple elements are the transitive closure of
    theirs.  So of the middle positions k < j, the pairs that keep their
    order are the transitive closure of {b[k] < b[j]} and
    {a^-1[k] > a^-1[j]}; every other pair swaps.  `order` holds the
    positions in the reverse of their final order.  Each j that keeps
    its order with some k < j (a running min of b and max of a^-1 tell)
    moves to just before the leftmost such k in `order`; the positions
    before that k keep no order with j.  The scan for those k runs back
    from j only while the prefix min of b or max of a^-1 still admits one.
    """
    m = len(b)
    ai = _tup_inverse(a)
    order = list(range(m))
    lows, highs = [], []  # prefix min of b and prefix max of a^-1
    low, high = m + 1, 0
    for j in range(m):
        x, y = b[j], ai[j]
        if low < x or high > y:
            at = k = j
            while k and (lows[k - 1] < x or highs[k - 1] > y):
                k -= 1
                if b[k] < x or ai[k] > y:
                    at = min(at, order.index(k))
            del order[j]
            order.insert(at, j)
        if x < low:
            low = x
        if y > high:
            high = y
        lows.append(low)
        highs.append(high)
    order.reverse()
    if order == list(range(m)):
        return a, b, False
    return tuple(_tup_inverse([ai[k] for k in order])), tuple([b[k] for k in order]), True


# A slot of `_Codebook.table` that no product has read yet.
_UNFILLED = object()


class _Codebook:
    """The simple elements of one degree as codes, and the Garside kernel
    on forms (infimum, tuple of codes) of left normal forms.

    At degree <= 5 a code is an int naming one of the n = m! permutation
    braids (0 the identity, n - 1 the half twist), and flip and left
    complement are tables by number.  The pair fixes live in one flat list
    of n**2 slots: slot a*n + b holds None when the pair (a, b) is
    left-weighted already, else the fixed pair of codes.  `mul` walks the
    table itself, reading a slot inline and filling it from `fix` the
    first time it reads it.  The table is not filled eagerly: a full
    degree-5 table is 14,400 pair fixes, the cost of many short orbit
    searches, and every cache clear starts it over.  Above degree 5 pairs
    rarely repeat, so the image tuple is its own code and `comb` calls
    `fix` on it directly; nothing is numbered or memoised.  `fix` is the
    pair fix on image tuples at every degree.  `_book` builds one codebook
    per degree on first use, so emptying its cache empties the tables too.

    Every product of forms is one `mul` call: a word's pieces, the check
    that a JSON form is a normal form, the orbit search's moves and
    conjugates, and `_nf_product`, the one product of `NormalForm`s (its
    `*`, a system's trace, `hurwitz_move_nf`).  Only this module and the
    orbit search hold forms; every other module works on `NormalForm`s.
    The inverse needs no comb: (Delta^p A_1 ... A_k)^{-1} is
    Delta^{-p-k} B_k ... B_1, B_j the left complement of A_j flipped when
    p + j - 1 is odd, a left normal form already (El-Rifai and Morton,
    Algorithms for positive braids, 1994; Epstein et al., Word Processing
    in Groups, ch. 9).
    """

    def __init__(self, m: int):
        self.degree = m
        self.ident, self.delta = tuple(range(1, m + 1)), tuple(range(m, 0, -1))
        self.fix = _lw_fix
        # code -> image tuple and image tuple -> code, both empty above degree 5
        self.images = images = list(itertools.permutations(self.ident)) if m <= 5 else []
        self.codes = codes = {p: c for c, p in enumerate(images)}
        if m > 5:
            self.table, self.flip, self.complement = None, _tup_flip, _tup_left_complement
            return
        self.ident, self.delta = 0, len(images) - 1
        self.table = [_UNFILLED] * len(images) ** 2
        self.flip = [codes[_tup_flip(p)] for p in images].__getitem__
        self.complement = [codes[_tup_left_complement(p)] for p in images].__getitem__

    def fill(self, k: int) -> tuple[int, int] | None:
        """Compute table slot k, the pair (k // n, k % n), and store it."""
        a, b = divmod(k, len(self.images))
        x, y, moved = self.fix(self.images[a], self.images[b])
        fixed = self.table[k] = (self.codes[x], self.codes[y]) if moved else None
        return fixed

    def encode(self, factors) -> tuple:
        return tuple(map(self.codes.__getitem__, factors)) if self.codes else tuple(factors)

    def form(self, nf: "NormalForm") -> tuple[int, tuple]:
        return nf.infimum, self.encode(nf.factors)

    def decode(self, codes: tuple) -> tuple:
        return tuple(map(self.images.__getitem__, codes)) if self.images else codes

    def normal_form(self, form: tuple[int, tuple]) -> "NormalForm":
        return NormalForm(self.degree, form[0], self.decode(form[1]))

    def comb(self, facs: list, tuples) -> None:
        """Append each image tuple to the left-weighted list `facs`, combing
        it back; the comb above degree 5, where no table holds the fixes.

        After an append only the new last pair can fail to be left-weighted.
        Fixing a pair leaves it left-weighted, and by the domino rule the
        pair to its right stays left-weighted too (Epstein et al., Word
        Processing in Groups, ch. 9; Dehornoy et al., Foundations of Garside
        Theory, ch. III); only the pair to its left can break.  So the comb
        walks right to left and stops at the first pair that needs no
        transfer.  Transfers preserve the product, so the list stays a
        left-weighted spelling of the same braid.

        In a left-weighted list an identity factor is followed only by
        identities, and a factor combed back through them comes out unchanged
        in front of them, so trailing identities are dropped before each
        append (`mul` would strip them anyway).

        A pair with a half twist makes no pair fix: (Delta, b) is
        left-weighted, as Delta is the largest simple element, and (a, Delta)
        becomes (Delta, tau(a)) by one flip, since a Delta = Delta tau(a).
        `fix` of such a pair would give the same, after up to m(m-1)/2
        transfers.
        """
        ident, delta, flip, fix = self.ident, self.delta, self.flip, self.fix
        for y in tuples:
            while facs and facs[-1] == ident:
                facs.pop()
            facs.append(y)
            j = len(facs) - 2
            while j >= 0:
                a, b = facs[j], facs[j + 1]
                if a == delta:  # left-weighted, whatever b is
                    break
                if b == delta:  # a Delta = Delta tau(a)
                    a, b = delta, flip(a)
                else:
                    a, b, moved = fix(a, b)
                    if not moved:
                        break
                facs[j], facs[j + 1] = a, b
                j -= 1

    def mul(self, x: tuple[int, tuple], *rest: tuple[int, tuple]) -> tuple[int, tuple]:
        """The form of the product of x and the forms in `rest`, left to right.

        The one routine that combs forms together.  By Delta^p X Delta^q Y
        = Delta^(p+q) tau^q(X) Y, tau the flip (a Garside automorphism), a
        form's codes are flipped once, when the infima after it sum to an
        odd number.  x's codes start the list, left-weighted already, and
        the later forms' codes are combed on, as `comb` does: at degree <= 5
        by the walk of the pair table below, which reads a slot inline and
        fills it from `fix` the first time it reads it, above degree 5 by
        one `comb` call.  The list is stripped of its leading half twists
        and trailing identities once at the end.
        """
        p, xs = x
        odd = 0
        for q, _ in rest:
            odd ^= q & 1
            p += q
        flip, table = self.flip, self.table
        facs = list(map(flip, xs)) if odd else list(xs)
        if table is None:
            tuples: list = []
            for q, ys in rest:
                odd ^= q & 1
                tuples += map(flip, ys) if odd else ys
            self.comb(facs, tuples)
        else:
            n, fill, unfilled = len(self.images), self.fill, _UNFILLED
            for q, ys in rest:
                odd ^= q & 1
                for y in map(flip, ys) if odd else ys:
                    while facs and not facs[-1]:  # code 0 is the identity
                        facs.pop()
                    # y is the code bound for facs[j + 1], written there once the comb stops
                    j = len(facs) - 1
                    facs.append(y)
                    while j >= 0:
                        k = facs[j] * n + y
                        fixed = table[k]
                        if fixed is None:
                            break
                        if fixed is unfilled:
                            fixed = fill(k)
                            if fixed is None:
                                break
                        y, facs[j + 1] = fixed
                        j -= 1
                    facs[j + 1] = y
        ident, delta = self.ident, self.delta
        lo, hi = 0, len(facs)
        while lo < hi and facs[lo] == delta:
            lo += 1
        while lo < hi and facs[hi - 1] == ident:
            hi -= 1
        return p + lo, tuple(facs[lo:hi])

    def inverse(self, x: tuple[int, tuple]) -> tuple[int, tuple]:
        """The form of x^{-1}: Delta^{-1} c_k ... Delta^{-1} c_1 Delta^{-p} for the left
        complements c_j, each Delta^{-1} moved to the front flipping the c_j it passes."""
        p, xs = x
        facs = list(map(self.complement, xs))
        for j in range(1 - p % 2, len(facs), 2):  # facs[j] is c_{j+1}: flip when p + j is odd
            facs[j] = self.flip(facs[j])
        return -p - len(facs), tuple(reversed(facs))


# One codebook per degree, built on first use and emptied with the other
# caches.  Only degrees <= 5 have a pair-fix table: at most 120**2 = 14,400
# slots, at degree 5.
_book = functools.lru_cache(maxsize=None)(_Codebook)


_CacheInfo = namedtuple("CacheInfo", "hits misses currsize weight")


def _weighted_lru(budget: int, weight):
    """Memoise a function of one hashable argument in a least-recently-used
    cache whose entries weigh `weight(arg)` each and together at most
    `budget`: the least recently used entries are evicted to make room, and
    a result heavier than the whole budget is returned but not kept.

    Further positional arguments are passed on to the function on a miss
    and are no part of the key: they may change how the result is
    computed, never what it is.

    The weights count the ints an entry holds in tuples, plus 128 for its
    fixed part, so that a budget bounds bytes too (README, "Caches").  The
    wrapper is a plain function carrying `cache_info()` and `cache_clear()`,
    as `functools.lru_cache` makes it; the bookkeeping runs under a lock, the
    call itself outside it.
    """
    def decorate(fn):
        entries: OrderedDict = OrderedDict()  # arg -> (result, weight), least recent first
        lock = threading.Lock()
        held = hits = misses = 0

        @functools.wraps(fn)
        def cached(arg, *rest):
            nonlocal held, hits, misses
            with lock:
                entry = entries.get(arg)
                if entry is not None:
                    hits += 1
                    entries.move_to_end(arg)
                    return entry[0]
                misses += 1
            result, w = fn(arg, *rest), weight(arg)
            if w <= budget:
                entry = (result, w)
                with lock:
                    if entries.setdefault(arg, entry) is entry:  # no other thread stored arg
                        held += w
                        while held > budget:
                            held -= entries.popitem(last=False)[1][1]
            return result

        def cache_info() -> _CacheInfo:
            with lock:
                return _CacheInfo(hits, misses, len(entries), held)

        def cache_clear() -> None:
            nonlocal held, hits, misses
            with lock:
                entries.clear()
                held = hits = misses = 0

        cached.cache_info, cached.cache_clear = cache_info, cache_clear
        return cached

    return decorate


@dataclass(frozen=True)
class NormalForm(JsonCodec):
    """Left Garside normal form Delta^infimum A_1 ... A_k.

    Two braid words represent the same element iff their normal forms are
    equal, which makes NormalForm the canonical dictionary key for braids.
    Each factor A_i is held as its permutation's image tuple.  The hash is
    the one the dataclass would generate, computed once: the caches look a
    form up more than once per call, and hashing its factors costs O(mk).
    """

    degree: int
    infimum: int
    factors: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.degree == 1 and self.infimum:
            # the half twist of B_1 is the identity, whose form has infimum 0
            raise ValueError(f"a degree-1 form has infimum 0, got infimum {self.infimum}")
        object.__setattr__(self, "_hash", hash((self.degree, self.infimum, self.factors)))

    def __hash__(self) -> int:
        return self._hash

    @classmethod
    def from_json(cls, data: dict) -> "NormalForm":
        nf = super().from_json(data)
        check_degree(nf.degree)
        for f in nf.factors:
            if len(f) != nf.degree:
                raise ValueError(f"factor {list(f)} does not have degree {nf.degree}")
            Permutation(f)  # raises ValueError unless f is a bijection
        book = _book(nf.degree)
        codes = book.encode(nf.factors)
        if book.mul((0, ()), (0, codes)) != (0, codes):
            raise ValueError("factors are not a left normal form: they hold an identity or "
                             "half-twist factor, or a pair that is not left-weighted")
        return nf

    @property
    def canonical_length(self) -> int:
        return len(self.factors)

    def is_identity(self) -> bool:
        return self.infimum == 0 and not self.factors

    def __mul__(self, other: "NormalForm") -> "NormalForm":
        return _nf_product(self, other)

    def inverse(self) -> "NormalForm":
        return _nf_inverse(self)

    def power(self, k: int) -> "NormalForm":
        _check_int("power", k)  # a bool would read as 0 or 1
        base = self if k >= 0 else self.inverse()
        k = abs(k)
        acc = NormalForm(self.degree, 0, ())
        sq = base
        while k:
            if k & 1:
                acc = acc * sq
            k >>= 1
            sq = sq * sq
        return acc

    def permutation(self) -> Permutation:
        m = self.degree
        p = tuple(range(m, 0, -1)) if self.infimum % 2 else tuple(range(1, m + 1))
        for f in self.factors:
            p = _tup_then(p, f)
        return Permutation(p)

    def exponent_sum(self) -> int:
        """Half-twist power times the twist length plus the factor lengths."""
        m = self.degree
        return self.infimum * m * (m - 1) // 2 + sum(map(_permutation_length, self.factors))

    def to_word(self) -> "BraidWord":
        """The freely reduced word Delta^e w, with (e, w) from `_mixed_letters`
        and the half twist spelled only when e != 0: the one spelling of a
        normal form, which printing and storage read; the sweep of a form
        reads the same w (`crossing._normal_form_entries`)."""
        e, letters = self._mixed_letters()
        if e:
            delta = _permutation_letters(tuple(range(self.degree, 0, -1)))
            letters = (delta * e if e > 0 else [-i for i in reversed(delta)] * -e) + letters
        return free_reduce(BraidWord(self.degree, tuple(letters)))

    def _mixed_letters(self) -> tuple[int, list[int]]:
        """(e, the letters of a short mixed word w): the form is Delta^e w.

        For d < 0 and t = min(-d, k), `_Codebook.inverse` reads the inverse
        of Delta^-t A_1 ... A_t off the codes as Delta^0 B_t ... B_1, B_j the
        left complement of A_j, flipped when t - j is even (El-Rifai and
        Morton 1994; Epstein et al., *Word Processing in Groups*, ch. 9), as
        `_word_form` reads its negative pieces: no `NormalForm` of the prefix
        is built and no cache is touched.  So
        Delta^-t A_1 ... A_t = B_1^-1 ... B_t^-1, w is the inverted words of
        B_1 ... B_t, then the positive words of A_(t+1) ... A_k, and
        e = d + t, nonzero only when d > 0 or -d > k.  A factor near Delta
        has a short complement, and the factors of a negative infimum are
        mostly such: for random words of 64 letters at m = 32, w has 90
        letters on average, where the positive word of the factors has
        1,538.
        """
        d, factors = self.infimum, self.factors
        t = min(-d, len(factors)) if d < 0 else 0
        letters: list[int] = []
        book = _book(self.degree)
        complements = book.decode(book.inverse((-t, book.encode(factors[:t])))[1]) if t else ()
        for c in reversed(complements):
            letters += [-k for k in reversed(_permutation_letters(c))]
        for a in factors[t:]:
            letters += _permutation_letters(a)
        return d + t, letters


def _nf_product(first: NormalForm, *rest: NormalForm) -> NormalForm:
    """The normal form of the product of `first` and the forms in `rest`, left
    to right: one `_Codebook.mul`, encoded once and decoded once.  Each later
    form's degree is checked against `first`'s."""
    for nf in rest:
        check_same_degree(first.degree, nf.degree)
    book = _book(first.degree)
    return book.normal_form(book.mul(book.form(first), *map(book.form, rest)))


# A key and its inverse hold len(factors) factors of degree ints each; 2**16
# bounds the cache under 0.55 MB (README, "Caches").
@_weighted_lru(2**16, lambda nf: 128 + 2 * nf.degree * len(nf.factors))
def _nf_inverse(nf: NormalForm) -> NormalForm:
    book = _book(nf.degree)
    return book.normal_form(book.inverse(book.form(nf)))


def _permutation_letters(p: tuple[int, ...]) -> list[int]:
    """A reduced positive word for a permutation braid: the swaps of an
    insertion sort of its images.  With the prefix before k sorted, p[k]
    sinks from position k to j, the count of smaller images before it,
    giving sigma_k ... sigma_{j+1}; these are the descents that swapping
    the first descent until none is left meets, in the same order."""
    done: list[int] = []
    letters: list[int] = []
    for k, v in enumerate(p):
        j = bisect.bisect(done, v)
        letters += range(k, j, -1)
        done.insert(j, v)
    return letters


def _permutation_length(p: tuple[int, ...]) -> int:
    """len(_permutation_letters(p)), the inversions of p, counted by the
    same bisect pass with no letter written."""
    done: list[int] = []
    count = 0
    for k, v in enumerate(p):
        j = bisect.bisect(done, v)
        count += k - j
        done.insert(j, v)
    return count


# A report builds m x m matrices: about 4.2 million entries at this bound.
MAX_DEGREE = 2048


def check_degree(degree: int) -> None:
    """Raise ValueError unless 1 <= degree <= MAX_DEGREE."""
    if degree < 1:
        raise ValueError(f"degree must be >= 1, got {degree}")
    if degree > MAX_DEGREE:
        raise ValueError(f"degree must be <= {MAX_DEGREE}, got {degree}")


def _check_int(what: str, v) -> None:
    """Raise TypeError naming `what` unless v is an int; a bool is none, as
    in IntPolynomial, since True would read as 1."""
    if type(v) is not int:
        raise TypeError(f"{what} {v!r} is a {type(v).__name__}, not an int")


def check_same_degree(a: int, b: int) -> None:
    """Raise ValueError naming both degrees, in this order, unless a == b."""
    if a != b:
        raise ValueError(f"degree mismatch: {a} vs {b}")


@dataclass(frozen=True)
class BraidWord:
    """A word in the standard generators of the braid group on `degree` strands."""

    degree: int
    letters: tuple[int, ...] = ()

    def __post_init__(self):
        d, letters = self.degree, self.letters
        _check_int("degree", d)
        check_degree(d)
        # one plain loop: min, max, `0 in` and a set of the letters' types over
        # the tuple took 1.4-3.6x its time at 3 to 1,000 letters (Python 3.11)
        for k in letters:
            if type(k) is not int:
                raise TypeError(f"letter {k!r} is a {type(k).__name__}, not an int")
            if k == 0 or abs(k) >= d:
                raise ValueError(f"letter {k} out of range for degree {d}")

    def __len__(self) -> int:
        return len(self.letters)

    def to_text(self) -> str:
        return ",".join(str(k) for k in self.letters)

    def __str__(self) -> str:
        return self.to_text() if self.letters else "<empty>"


def _integer(text: str, what: str = "integer") -> int:
    """The integer that text spells as ASCII digits with an optional sign,
    which is how every integer a user types is read: generator tokens,
    script step indices and the CLI's numeric options.  int() alone also
    takes "1_2" and non-ASCII digits."""
    if not re.fullmatch(r"[+-]?[0-9]+", text):
        raise ValueError(f"bad {what} {text!r}")
    return int(text)


def parse_word(text: str, degree: int) -> BraidWord:
    """Parse a comma or space separated list of signed generator indices.

    A token is ASCII digits with an optional sign (`_integer`); k > 0
    denotes the k-th generator, k < 0 its inverse; empty text is the
    identity braid.
    """
    BraidWord(degree)  # the degree is checked before any token
    tokens = [t for t in text.replace(",", " ").split() if t]
    letters = []
    for tok in tokens:
        k = _integer(tok, "generator token")
        if k == 0 or abs(k) >= degree:
            raise ValueError(f"generator token {tok!r} out of range for degree {degree}")
        letters.append(k)
    return BraidWord(degree, tuple(letters))


def generator(degree: int, i: int, sign: int = 1) -> BraidWord:
    """The braid word of a single generator (or inverse when sign < 0)."""
    return BraidWord(degree, (i if sign > 0 else -i,))


def product(a: BraidWord, b: BraidWord) -> BraidWord:
    check_same_degree(a.degree, b.degree)
    return BraidWord(a.degree, a.letters + b.letters)


def inverse(b: BraidWord) -> BraidWord:
    return BraidWord(b.degree, tuple(-k for k in reversed(b.letters)))


def power(b: BraidWord, k: int) -> BraidWord:
    _check_int("power", k)
    base = b if k >= 0 else inverse(b)
    return BraidWord(b.degree, base.letters * abs(k))


def conjugate(b: BraidWord, a: BraidWord) -> BraidWord:
    """The literal word a^{-1} b a, with no simplification applied."""
    check_same_degree(b.degree, a.degree)
    return BraidWord(b.degree, inverse(a).letters + b.letters + a.letters)


def free_reduce(b: BraidWord) -> BraidWord:
    """Cancel adjacent inverse pairs until none remain."""
    stack: list[int] = []
    for k in b.letters:
        if stack and stack[-1] == -k:
            stack.pop()
        else:
            stack.append(k)
    return BraidWord(b.degree, tuple(stack))


def iota(b: BraidWord) -> BraidWord:
    """The same word read on one more strand; the new strand is uncrossed."""
    return BraidWord(b.degree + 1, b.letters)


def permutation(b: BraidWord) -> Permutation:
    """Upper endpoint position -> lower endpoint position."""
    m = b.degree
    pos = list(range(1, m + 1))  # strand currently at each position
    for k in b.letters:
        i = abs(k)
        pos[i - 1], pos[i] = pos[i], pos[i - 1]
    return Permutation(tuple(_tup_inverse(pos)))


def permutation_order(b: BraidWord) -> int:
    return permutation(b).order()


def exponent_sum(b: BraidWord) -> int:
    return sum(1 if k > 0 else -1 for k in b.letters)


def normal_form(b: BraidWord) -> NormalForm:
    """Left Garside normal form of the braid represented by the word: the
    codebook form of `_word_form`, decoded once.  A word of L letters
    costs O(L^2) pair fixes at a fixed degree."""
    return _book(b.degree).normal_form(_word_form(b))


def _word_form(b: BraidWord) -> tuple[int, tuple]:
    """The codebook form (infimum, codes) of the word's normal form, which
    the orbit search interns without building a `NormalForm`.

    The word is cut into pieces, runs of letters of one sign whose product
    is one permutation braid s, and `_Codebook.mul` gets one form per
    piece: Delta^0 s, or for a piece s^{-1} the inverse of that form,
    Delta^{-1} c with c the left complement of s, read off by
    `_Codebook.inverse`.  Each piece keeps one image list x, s^{-1} for a
    positive piece s and s for a negative piece s^{-1}, so that one pair
    of tests serves both signs.  A letter sigma_i^{+-1} moves left past
    the pieces it commutes with (sigma_i sigma_j = sigma_j sigma_i for
    |i - j| >= 2), i.e. past every piece after the latest one holding
    sigma_{i-1}, sigma_i or sigma_{i+1}, and then:
    - it cancels against h, the latest piece holding sigma_i, iff h has
      the other sign, no later piece holds sigma_{i-1} or sigma_{i+1},
      and h ends in the crossing, x[i-1] > x[i]: for a positive h = s the
      strands ending at positions i, i+1 have crossed, so s = s' sigma_i;
      for a negative h = s^{-1} the strands starting there have, so
      s = sigma_i s' and s^{-1} sigma_i = s'^{-1}.  s' is simple;
    - else it joins the latest piece t of its sign iff no later piece
      holds sigma_{i-1}, sigma_i or sigma_{i+1}, and t stays simple,
      x[i-1] < x[i]: the strands ending at positions i, i+1 of s have not
      crossed (positive), or, since s^{-1} sigma_i^{-1} =
      (sigma_i s)^{-1}, the strands starting there have not (negative);
    - else it opens a new piece.
    Undoing the crossing and adding it both swap x[i-1] and x[i]: the
    inverse of s sigma_i^{+-1} is s^{-1} with those entries swapped, and
    sigma_i^{+-1} s is s with them swapped.  A positive piece's s is read
    once, at the end, by `_tup_inverse`.
    Both steps are sound by far commutation: the letter commutes with
    every letter after h or t, so the pieces spell the same braid, and
    the unique normal form is the one of the letters combed one by one.
    This is the grouping of the Cartier-Foata normal form (Cartier and
    Foata 1969; Epstein et al., Word Processing in Groups, ch. 9),
    extended across signs.  `last[j]` is the latest piece holding
    sigma_j, which makes both tests O(1) per letter; piece p is written
    2p + 1 if positive and 2p if negative, so the sign test is one `&`,
    and in a run of one sign it fails at once.  A cancel leaves `last`
    as it is, so last[j] may name a later piece than the latest one that
    still holds sigma_j.  That only blocks moves the letters would allow,
    since a cancel still needs the crossing in h.
    A factor may comb back through every factor before it, so a word of L
    letters costs O(L^2) pair fixes at a fixed degree.
    """
    m = b.degree
    pieces: list[list[int]] = []  # x of each piece: s^{-1} if positive, s if negative
    signs: list[bool] = []  # whether each piece is positive
    last = [-1] * (m + 1)  # last[j]: latest piece holding sigma_j as 2p + sign, -1 for none
    latest = [-1, -1]  # latest negative and latest positive piece, as in `last`
    for k in b.letters:
        i, pos = abs(k), k > 0
        h = last[i]
        if h & 1 != pos and h >= last[i - 1] and h >= last[i + 1] and h >= 0:
            x = pieces[h >> 1]
            if x[i - 1] > x[i]:
                x[i - 1], x[i] = x[i], x[i - 1]
                continue
        t = latest[pos]
        if t >= 0 and t >= last[i - 1] and t >= h and t >= last[i + 1]:
            x = pieces[t >> 1]
            if x[i - 1] < x[i]:
                x[i - 1], x[i] = x[i], x[i - 1]
                last[i] = t
                continue
        x = list(range(1, m + 1))
        x[i - 1], x[i] = i + 1, i
        latest[pos] = last[i] = 2 * len(pieces) + pos
        pieces.append(x)
        signs.append(pos)
    book = _book(m)
    simples = [tuple(_tup_inverse(x) if pos else x) for x, pos in zip(pieces, signs)]
    forms = [(0, (c,)) if pos else book.inverse((0, (c,))) for c, pos in zip(book.encode(simples), signs)]
    return book.mul((0, ()), *forms)


def is_identity(b: BraidWord) -> bool:
    return normal_form(b).is_identity()


def braids_equal(a: BraidWord, b: BraidWord) -> bool:
    check_same_degree(a.degree, b.degree)
    return normal_form(a) == normal_form(b)


def canonical_word(b: BraidWord) -> BraidWord:
    """A freely reduced word read off the normal form; canonical enough for storage."""
    return normal_form(b).to_word()
