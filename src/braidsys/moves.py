"""
Moves on braid systems: Hurwitz action, global conjugation,
stabilization/destabilization, and Euler fusion/fission bookkeeping.

All moves return new systems.  A system computes its components' normal
forms at most once (`BraidSystem.normal_forms`).  Every move that keeps
the degree follows one rule: a Hurwitz move, a global conjugation and a
fusion read the forms of their input, compute the forms of the
components they make as products of forms (`braids._nf_product`), and
hand them to the system they return, so a run of such moves normalises
each component once.  A conjugated component is stored as the one
spelling of its form (`NormalForm.to_word`, which is `canonical_word` of
the literal conjugation word), so stored words grow only as the forms
do; a fusion stores the literal concatenation of its pieces.  A fission
check reads forms too.  stabilize and destabilize hand on no forms,
since the half twist of the new degree is another braid.

The Hurwitz move is written once, in `hurwitz_move_codes`, for normal
forms and the orbit search's codebook forms alike.  It takes the pair's
product as factors: (x, y) here, the product's one form in the search,
which keeps it per pair.  A run of moves is written once too, in
`replay_witness`, which `hurwitz_act` and the search's witnesses share.
This module never touches the codebook.  Canonical comparison always
goes through normal forms, never through the stored words.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import braids
from .braids import BraidWord
from .codec import JsonCodec
from .invariants import BraidSystem, _system, compare_systems, euler_move_needed


@dataclass(frozen=True)
class HurwitzMove(JsonCodec):
    """Elementary Hurwitz move at a 1-based index; inverse=True for the undo direction."""

    index: int
    inverse: bool = False

    def __post_init__(self):
        braids._check_int("move index", self.index)  # HurwitzMove(True) would move pair 1
        if type(self.inverse) is not bool:
            raise TypeError(f"move inverse {self.inverse!r} is not a bool")

    def __str__(self) -> str:
        return f"H {self.index} {'-' if self.inverse else '+'}"


def _check_move_index(i: int, length: int) -> None:
    if not 1 <= i <= length - 1:
        raise ValueError(f"move index {i} out of range for length {length}")


def hurwitz_move(s: BraidSystem, move: HurwitzMove) -> BraidSystem:
    """Replace (b_i, b_{i+1}) by (b_{i+1}, b_{i+1}^{-1} b_i b_{i+1}), or undo it.

    The moved pair's forms are `hurwitz_move_nf` of the pair's forms, which
    the system returned holds.  The conjugated component is stored as its
    form's word (`NormalForm.to_word`); the other component of the pair is
    stored as it was.
    """
    i = move.index
    _check_move_index(i, len(s))
    forms = hurwitz_move_nf(s.normal_forms(), move)
    comps = list(s.components)
    if move.inverse:
        comps[i - 1 : i + 1] = forms[i - 1].to_word(), comps[i - 1]
    else:
        comps[i - 1 : i + 1] = comps[i], forms[i].to_word()
    return _system(s.degree, tuple(comps), forms)


def hurwitz_move_nf(state, move: HurwitzMove):
    """The same move on a tuple of component normal forms: the forms of
    the system `hurwitz_move` returns.

    It runs `hurwitz_move_codes` with the product of normal forms,
    `braids._nf_product`, so that no word is normalised.  The pair's
    product is handed over as its factors (a, b), so each move is
    one `_nf_product` of three forms and no product is computed on its own.
    """
    i = move.index
    _check_move_index(i, len(state))
    a, b = state[i - 1], state[i]
    braids.check_same_degree(a.degree, b.degree)
    inv = (a if move.inverse else b).inverse()
    pair = hurwitz_move_codes(braids._nf_product, a, b, (a, b), move.inverse, inv)
    return (*state[: i - 1], *pair, *state[i + 1 :])


def hurwitz_move_codes(mul, x, y, xy: tuple, inverse: bool, inv):
    """The move on the lone pair (x, y): (y, y^{-1} x y), or (x y x^{-1}, x)
    for the undo direction, with `mul` the product of any number of values,
    left to right.  `xy` is the pair's product x y as a tuple of factors,
    and `inv` the one inverse the move needs, y^{-1} or for the undo
    x^{-1}: the new component is mul(inv, *xy) or mul(*xy, inv).

    A move keeps the product of its pair, y (y^{-1} x y) = (x y x^{-1}) x
    = x y (Hurwitz 1891), so every pair a search meets at one position
    shares one product.  `hurwitz_move_nf` runs the move on normal forms
    with xy = (x, y), one product of three forms; the orbit search runs it
    on its codebook forms (infimum, codes) with the codebook's product and
    xy = (the form of x y,), one product of two forms, keeping for each
    pair it meets that form and for each form it interns the inverse."""
    if inverse:
        return mul(*xy, inv), x
    return y, mul(inv, *xy)


def replay_witness(s: BraidSystem, witness) -> BraidSystem:
    """Apply the Hurwitz moves of `witness` in order, by `hurwitz_move`: the
    one run of moves, which `hurwitz_act` and the orbit search's witnesses
    share."""
    for move in witness:
        s = hurwitz_move(s, move)
    return s


def hurwitz_act(s: BraidSystem, beta: BraidWord) -> BraidSystem:
    """Apply the letters of beta (a braid on len(s) strands) as Hurwitz
    moves: sigma_k^{+-1} is HurwitzMove(k) or its undo, run by
    `replay_witness`.

    Each move stores its conjugated component as a normal form's word, so
    words grow as the forms do, and that growth is the group's: from the
    reference system INTRO_B, beta = (sigma_1 sigma_2^-1)^k gave components
    of up to 331 letters at k = 8, 2,263 letters in about 20 ms at k = 10
    and 15,507 letters in 0.53 s at k = 12, and k = 16 gave no result
    within 300 s (2-core VM, Python 3.11).
    """
    if beta.degree != len(s):
        raise ValueError(f"acting braid degree {beta.degree} != system length {len(s)}")
    return replay_witness(s, (HurwitzMove(abs(k), k < 0) for k in beta.letters))


def global_conjugate(s: BraidSystem, a: BraidWord) -> BraidSystem:
    """Conjugate every component by the same braid: b -> a^{-1} b a.

    a is normalised once, and each new form is the product of forms
    a^{-1} f a, which the system returned holds; each component is stored
    as its form's word (`NormalForm.to_word`).
    """
    braids.check_same_degree(s.degree, a.degree)
    fa = braids.normal_form(a)
    fa_inv = fa.inverse()
    forms = tuple(braids._nf_product(fa_inv, f, fa) for f in s.normal_forms())
    return _system(s.degree, tuple(f.to_word() for f in forms), forms)


def stabilize(s: BraidSystem) -> BraidSystem:
    """Embed every component on one more strand and append the new crossing pair."""
    m = s.degree
    comps = tuple(braids.iota(c) for c in s.components)
    return BraidSystem(m + 1, comps + (BraidWord(m + 1, (m,)), BraidWord(m + 1, (-m,))))


def destabilize(s: BraidSystem) -> BraidSystem:
    """Exact inverse of stabilize; raises naming the blocking component."""
    if s.degree < 2:
        raise ValueError("cannot destabilize a degree-1 system")
    if len(s) < 3:
        raise ValueError(f"cannot destabilize a system of length {len(s)}")
    m = s.degree - 1
    tail_plus, tail_minus = s.components[-2], s.components[-1]
    if not braids.braids_equal(tail_plus, BraidWord(s.degree, (m,))):
        raise ValueError(f"component {len(s) - 1} is not the generator {m}")
    if not braids.braids_equal(tail_minus, BraidWord(s.degree, (-m,))):
        raise ValueError(f"component {len(s)} is not the inverse generator {m}")
    comps = []
    for pos, c in enumerate(s.components[:-2], start=1):
        reduced = braids.free_reduce(c)
        if any(abs(k) == m for k in reduced.letters):
            raise ValueError(
                f"component {pos} still uses generator {m} after free reduction; "
                "rewrite it without the last strand before destabilizing"
            )
        comps.append(BraidWord(m, reduced.letters))
    return BraidSystem(m, tuple(comps))


def tau(b: BraidWord) -> int:
    """Strand count minus the number of components of the braid closure."""
    return b.degree - braids.permutation(b).cycle_count()


def euler_fuse(s: BraidSystem, l: int, q: int) -> tuple[BraidSystem, bool]:
    """Fuse components l..l+q into their product, stored as the literal
    concatenation of their words.  Its form is the product of the pieces'
    forms, and the system returned holds the forms; an input that holds
    none computes them first.

    The returned flag reports whether tau of the product equals the sum
    of the tau values of the pieces; only then is the inverse fission a
    legal move.
    """
    braids._check_int("fuse l", l)  # euler_fuse(s, True, 1) would fuse components 1 and 2
    braids._check_int("fuse q", q)
    if q < 1:
        raise ValueError(f"q must be >= 1, got {q}")
    if not 1 <= l or l + q > len(s):
        raise ValueError(f"fuse range [{l}, {l + q}] out of bounds for length {len(s)}")
    pieces = s.components[l - 1 : l + q]
    fused = BraidSystem(s.degree, pieces).trace_product()
    tau_check = tau(fused) == sum(tau(p) for p in pieces)
    comps = s.components[: l - 1] + (fused,) + s.components[l + q :]
    forms = s.normal_forms()
    forms = forms[: l - 1] + (braids._nf_product(*forms[l - 1 : l + q]),) + forms[l + q :]
    return _system(s.degree, comps, forms), tau_check


def euler_fission_check(whole: BraidWord, pieces) -> bool:
    """Whether splitting `whole` into `pieces` is a legal fission: no piece
    is the identity, the pieces multiply to `whole`, and fusing them passes
    the tau check of `euler_fuse` (tau reads only the permutation, so the
    whole and the product have one tau once they are equal).

    It reads forms: each piece is normalised once and the whole at most
    once, the identity pieces are read off the pieces' forms, and the
    product is the form the fusion hands on, so the concatenation is never
    normalised."""
    pieces = tuple(pieces)
    if len(pieces) < 2:
        raise ValueError("a fission needs at least two pieces")
    split = BraidSystem(whole.degree, pieces)  # raises on a degree mismatch
    fused, tau_check = euler_fuse(split, 1, len(pieces) - 1)
    if not tau_check or any(f.is_identity() for f in split.normal_forms()):
        return False
    return braids.normal_form(whole) == fused.normal_forms()[0]


def euler_necessity(s1: BraidSystem, s2: BraidSystem) -> str:
    """One-sided indicator: "necessary" when any relating sequence must
    contain an Euler fusion or fission, else "unknown".

    It reads compare_systems: "necessary" iff one of its Euler checks
    (the essential core and the (degree + length) mod 3 class, both of
    which survive Hurwitz moves, global conjugation and stabilization)
    differs.
    """
    return "necessary" if euler_move_needed(compare_systems(s1, s2).invariants) else "unknown"
