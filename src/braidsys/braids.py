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

import functools
import math
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
        return self.images[k - 1]

    def then(self, other: "Permutation") -> "Permutation":
        """Composition in diagram order: (self.then(other))(k) = other(self(k))."""
        return Permutation(_tup_then(self.images, other.images))

    def inverse(self) -> "Permutation":
        return Permutation(tuple(_tup_inverse(self.images)))

    def is_identity(self) -> bool:
        return all(v == k for k, v in enumerate(self.images, start=1))

    def cycles(self) -> list[list[int]]:
        seen = [False] * len(self.images)
        out = []
        for start in range(1, len(self.images) + 1):
            if seen[start - 1]:
                continue
            cyc = []
            k = start
            while not seen[k - 1]:
                seen[k - 1] = True
                cyc.append(k)
                k = self(k)
            out.append(cyc)
        return out

    def cycle_count(self) -> int:
        return len(self.cycles())

    def order(self) -> int:
        r = 1
        for cyc in self.cycles():
            r = math.lcm(r, len(cyc))
        return r


def _tup_then(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(b[v - 1] for v in a)


def _tup_inverse(a: tuple[int, ...]) -> list[int]:
    inv = [0] * len(a)
    for k, v in enumerate(a, start=1):
        inv[v - 1] = k
    return inv


def _tup_flip(a: tuple[int, ...]) -> tuple[int, ...]:
    # conjugation by the half twist; an involution on permutation braids
    m = len(a)
    return tuple(m + 1 - a[m - k] for k in range(1, m + 1))


def _tup_left_complement(a: tuple[int, ...]) -> tuple[int, ...]:
    # c with braid(c) braid(a) = Delta, i.e. braid(a)^{-1} = Delta^{-1} braid(c)
    inv = _tup_inverse(a)
    return tuple(inv[len(a) - k] for k in range(1, len(a) + 1))


def _lw_fix(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...], bool]:
    """Slide prefix content of b into a until the pair is left-weighted.

    A transfer of index i exists when b has a descent at i (sigma_i is a
    prefix of b) while a's inverse does not (a sigma_i is still a
    permutation braid); both updates are constant-time swaps.  A transfer
    at i changes only positions i-1 and i of b and of a's inverse, so no
    index below i-1 can have gained a transfer: the scan resumes at i-1
    and finds the same transfers, in the same order, as a rescan from 1.
    """
    m = len(a)
    ai = _tup_inverse(a)
    al: list[int] | None = None
    bl: list[int] | None = None
    cur_b: tuple[int, ...] | list[int] = b
    i = 1
    while i < m:
        if not (cur_b[i - 1] > cur_b[i] and ai[i - 1] < ai[i]):
            i += 1
            continue
        if al is None:
            al, bl = list(a), list(b)
            cur_b = bl
        p, q = ai[i - 1] - 1, ai[i] - 1
        al[p], al[q] = i + 1, i
        ai[i - 1], ai[i] = ai[i], ai[i - 1]
        bl[i - 1], bl[i] = bl[i], bl[i - 1]
        if i > 1:
            i -= 1
    if al is None:
        return a, b, False
    return tuple(al), tuple(bl), True


# At degree <= 5 there are at most 120**2 pairs of simple elements, so the
# pair fix is tabled there; at larger degree pairs rarely repeat and a
# table would only grow.
_lw_fix_small = functools.lru_cache(maxsize=None)(_lw_fix)


def _comb_onto(facs: list[tuple[int, ...]], factors) -> None:
    """Append each factor to the left-weighted list `facs`, combing it back.

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
    append (`_strip` would drop them anyway).
    """
    if not factors:
        return
    m = len(factors[0])
    ident = tuple(range(1, m + 1))
    fix = _lw_fix_small if m <= 5 else _lw_fix
    for y in factors:
        while facs and facs[-1] == ident:
            facs.pop()
        facs.append(y)
        j = len(facs) - 2
        while j >= 0:
            a, b, ch = fix(facs[j], facs[j + 1])
            if not ch:
                break
            facs[j], facs[j + 1] = a, b
            j -= 1


def _strip(m: int, facs: list[tuple[int, ...]]) -> tuple[int, tuple[tuple[int, ...], ...]]:
    w0 = tuple(range(m, 0, -1))
    ident = tuple(range(1, m + 1))
    lo, hi = 0, len(facs)
    while lo < hi and facs[lo] == w0:
        lo += 1
    while lo < hi and facs[hi - 1] == ident:
        hi -= 1
    return lo, tuple(facs[lo:hi])


def _normalize_tuples(m: int, factors) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """Left-weight a factor list; returns (extra half-twist power, factors)."""
    facs: list[tuple[int, ...]] = []
    _comb_onto(facs, factors)
    return _strip(m, facs)


def _assemble_tuples(
    m: int, factors: list[tuple[int, ...]], dpows: list[int], trailing: int = 0
) -> "NormalForm":
    """Normal form of Delta^{d_1} f_1 ... Delta^{d_k} f_k Delta^{trailing}."""
    facs = list(factors)
    acc = trailing
    for t in range(len(facs) - 1, -1, -1):
        if acc % 2:
            facs[t] = _tup_flip(facs[t])
        acc += dpows[t]
    shift, norm = _normalize_tuples(m, facs)
    return NormalForm(m, acc + shift, norm)


@dataclass(frozen=True)
class NormalForm(JsonCodec):
    """Left Garside normal form Delta^infimum A_1 ... A_k.

    Two braid words represent the same element iff their normal forms are
    equal, which makes NormalForm the canonical dictionary key for braids.
    Each factor A_i is held as its permutation's image tuple.
    """

    degree: int
    infimum: int
    factors: tuple[tuple[int, ...], ...]

    @classmethod
    def from_json(cls, data: dict) -> "NormalForm":
        nf = super().from_json(data)
        for f in nf.factors:
            if len(f) != nf.degree:
                raise ValueError(f"factor {list(f)} does not have degree {nf.degree}")
            Permutation(f)  # raises ValueError unless f is a bijection
        if _normalize_tuples(nf.degree, nf.factors) != (0, nf.factors):
            raise ValueError("factors are not a left normal form: they hold an identity or "
                             "half-twist factor, or a pair that is not left-weighted")
        return nf

    @property
    def canonical_length(self) -> int:
        return len(self.factors)

    def is_identity(self) -> bool:
        return self.infimum == 0 and not self.factors

    def __mul__(self, other: "NormalForm") -> "NormalForm":
        if self.degree != other.degree:
            raise ValueError(f"degree mismatch: {self.degree} vs {other.degree}")
        # the left operand's factors are left-weighted already, and so are
        # their flips (conjugation by Delta is a Garside automorphism)
        facs = [_tup_flip(f) for f in self.factors] if other.infimum % 2 else list(self.factors)
        _comb_onto(facs, other.factors)
        shift, norm = _strip(self.degree, facs)
        return NormalForm(self.degree, self.infimum + other.infimum + shift, norm)

    def inverse(self) -> "NormalForm":
        return _nf_inverse(self)

    def power(self, k: int) -> "NormalForm":
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
        """Half-twist power times the twist length plus the factor lengths
        (the inversion counts of the factors)."""
        m = self.degree
        pairs = [(i, j) for i in range(m) for j in range(i + 1, m)]
        inversions = sum(f[i] > f[j] for f in self.factors for i, j in pairs)
        return self.infimum * m * (m - 1) // 2 + inversions

    def to_word(self) -> "BraidWord":
        """Re-expand as a freely reduced braid word (half-twist blocks, then
        factor words); this is the one spelling of a normal form."""
        m = self.degree
        delta = _half_twist_letters(m)
        letters: list[int] = []
        if self.infimum >= 0:
            letters += delta * self.infimum
        else:
            letters += [-i for i in reversed(delta)] * (-self.infimum)
        for f in self.factors:
            letters += _permutation_letters(f)
        return free_reduce(BraidWord(m, tuple(letters)))


@functools.lru_cache(maxsize=65536)
def _nf_inverse(nf: NormalForm) -> NormalForm:
    facs = [_tup_left_complement(f) for f in reversed(nf.factors)]
    return _assemble_tuples(nf.degree, facs, [-1] * len(facs), trailing=-nf.infimum)


def _half_twist_letters(m: int) -> list[int]:
    # sigma_1 (sigma_2 sigma_1) ... (sigma_{m-1} ... sigma_1)
    letters = []
    for j in range(1, m):
        letters += list(range(j, 0, -1))
    return letters


def _permutation_letters(p: tuple[int, ...]) -> list[int]:
    """A reduced positive word for a permutation braid: swap the first
    descent until none is left.  A swap at i touches only the adjacent
    pairs at i-1, i and i+1, and no pair below i was a descent, so the
    scan resumes at i-1 and meets the same descents, in the same order,
    as a rescan from the start."""
    im = list(p)
    letters = []
    i, n = 0, len(im) - 1
    while i < n:
        if im[i] > im[i + 1]:
            letters.append(i + 1)
            im[i], im[i + 1] = im[i + 1], im[i]
            if i:
                i -= 1
        else:
            i += 1
    return letters


@dataclass(frozen=True)
class BraidWord:
    """A word in the standard generators of the braid group on `degree` strands."""

    degree: int
    letters: tuple[int, ...] = ()

    def __post_init__(self):
        if self.degree < 1:
            raise ValueError(f"degree must be >= 1, got {self.degree}")
        for k in self.letters:
            if k == 0 or abs(k) > self.degree - 1:
                raise ValueError(f"letter {k} out of range for degree {self.degree}")

    def __len__(self) -> int:
        return len(self.letters)

    def to_text(self) -> str:
        return ",".join(str(k) for k in self.letters)

    def __str__(self) -> str:
        return self.to_text() if self.letters else "<empty>"


def parse_word(text: str, degree: int) -> BraidWord:
    """Parse a comma or space separated list of signed generator indices.

    k > 0 denotes the k-th generator, k < 0 its inverse; empty text is the
    identity braid.
    """
    tokens = [t for t in text.replace(",", " ").split() if t]
    letters = []
    for tok in tokens:
        try:
            k = int(tok)
        except ValueError:
            raise ValueError(f"bad generator token {tok!r}") from None
        if k == 0 or abs(k) >= degree:
            raise ValueError(f"generator token {tok!r} out of range for degree {degree}")
        letters.append(k)
    return BraidWord(degree, tuple(letters))


def generator(degree: int, i: int, sign: int = 1) -> BraidWord:
    """The braid word of a single generator (or inverse when sign < 0)."""
    return BraidWord(degree, (i if sign > 0 else -i,))


def product(a: BraidWord, b: BraidWord) -> BraidWord:
    if a.degree != b.degree:
        raise ValueError(f"degree mismatch: {a.degree} vs {b.degree}")
    return BraidWord(a.degree, a.letters + b.letters)


def inverse(b: BraidWord) -> BraidWord:
    return BraidWord(b.degree, tuple(-k for k in reversed(b.letters)))


def power(b: BraidWord, k: int) -> BraidWord:
    base = b if k >= 0 else inverse(b)
    return BraidWord(b.degree, base.letters * abs(k))


def conjugate(b: BraidWord, a: BraidWord) -> BraidWord:
    """The literal word a^{-1} b a, with no simplification applied."""
    if a.degree != b.degree:
        raise ValueError(f"degree mismatch: {b.degree} vs {a.degree}")
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
    images = [0] * m
    for p, strand in enumerate(pos, start=1):
        images[strand - 1] = p
    return Permutation(tuple(images))


def permutation_order(b: BraidWord) -> int:
    return permutation(b).order()


def exponent_sum(b: BraidWord) -> int:
    return sum(1 if k > 0 else -1 for k in b.letters)


def normal_form(b: BraidWord) -> NormalForm:
    """Left Garside normal form of the braid represented by the word.

    The word is cut into pieces, runs of same-sign letters whose product
    is one permutation braid s, and the comb gets one factor per piece:
    s, or Delta^{-1} times the left complement of s for a piece s^{-1}.
    A letter sigma_i^{+-1} joins the latest piece t of its sign iff no
    later piece holds sigma_{i-1}, sigma_i or sigma_{i+1}, and t stays
    simple: the strands ending at positions i, i+1 of s have not crossed
    (positive), or, since s^{-1} sigma_i^{-1} = (sigma_i s)^{-1}, the
    strands starting there have not, s(i) < s(i+1) (negative).  Else it
    opens a new piece.  The join is sound by far commutation (sigma_i
    sigma_j = sigma_j sigma_i for |i - j| >= 2): the letter commutes with
    every letter after t, so the pieces spell the same braid, and the
    unique normal form is the one of the letters combed one by one.  This
    is the grouping of the Cartier-Foata normal form (Cartier and Foata
    1969; Epstein et al., Word Processing in Groups, ch. 9).  `last[j]`,
    the latest piece holding sigma_j, makes the test O(1) per letter.
    """
    m = b.degree
    pieces: list[list[int]] = []  # s of each piece, as an image list
    invs: list[list[int] | None] = []  # s^{-1} of a positive piece, None for a negative one
    last = [-1] * (m + 1)  # last[j]: latest piece holding sigma_j, -1 for none
    latest = [-1, -1]  # latest negative and latest positive piece
    for k in b.letters:
        i = abs(k)
        t = latest[k > 0]
        if t >= 0 and t >= last[i - 1] and t >= last[i] and t >= last[i + 1]:
            s, si = pieces[t], invs[t]
            if si is None:
                if s[i - 1] < s[i]:
                    s[i - 1], s[i] = s[i], s[i - 1]
                    last[i] = t
                    continue
            elif si[i - 1] < si[i]:
                s[si[i - 1] - 1], s[si[i] - 1] = i + 1, i
                si[i - 1], si[i] = si[i], si[i - 1]
                last[i] = t
                continue
        s = list(range(1, m + 1))
        s[i - 1], s[i] = i + 1, i
        latest[k > 0] = last[i] = len(pieces)
        pieces.append(s)
        invs.append(s[:] if k > 0 else None)
    factors = [tuple(s) if si is not None else _tup_left_complement(tuple(s))
               for s, si in zip(pieces, invs)]
    return _assemble_tuples(m, factors, [0 if si is not None else -1 for si in invs])


def is_identity(b: BraidWord) -> bool:
    return normal_form(b).is_identity()


def braids_equal(a: BraidWord, b: BraidWord) -> bool:
    if a.degree != b.degree:
        raise ValueError(f"degree mismatch: {a.degree} vs {b.degree}")
    return normal_form(a) == normal_form(b)


def canonical_word(b: BraidWord) -> BraidWord:
    """A freely reduced word read off the normal form; canonical enough for storage."""
    return normal_form(b).to_word()
