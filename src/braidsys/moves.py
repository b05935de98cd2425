"""
Moves on braid systems: Hurwitz action, global conjugation,
stabilization/destabilization, and Euler fusion/fission bookkeeping.

All moves return new systems.  Conjugation makes stored words grow, so
each move accepts simplify=True to re-expand the changed components from
their normal forms followed by free reduction; no further shortening is
attempted.  Canonical comparison always goes through normal forms, never
through the stored words.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import braids
from .braids import BraidWord
from .codec import JsonCodec
from .invariants import BraidSystem, compare_systems, euler_move_needed


@dataclass(frozen=True)
class HurwitzMove(JsonCodec):
    """Elementary Hurwitz move at a 1-based index; inverse=True for the undo direction."""

    index: int
    inverse: bool = False

    def __str__(self) -> str:
        return f"H {self.index} {'-' if self.inverse else '+'}"


def _maybe_simplify(word: BraidWord, simplify: bool) -> BraidWord:
    return braids.canonical_word(word) if simplify else braids.free_reduce(word)


def _check_move_index(i: int, length: int) -> None:
    if not 1 <= i <= length - 1:
        raise ValueError(f"move index {i} out of range for length {length}")


def hurwitz_move(s: BraidSystem, move: HurwitzMove, simplify: bool = False) -> BraidSystem:
    """Replace (b_i, b_{i+1}) by (b_{i+1}, b_{i+1}^{-1} b_i b_{i+1}), or undo it.

    The conjugated component is stored as the literal conjugation word
    unless simplify is set.
    """
    i = move.index
    _check_move_index(i, len(s))
    comps = list(s.components)
    a, b = comps[i - 1], comps[i]
    if not move.inverse:
        comps[i - 1] = b
        comps[i] = _maybe_simplify(braids.conjugate(a, b), simplify)
    else:
        comps[i - 1] = _maybe_simplify(braids.conjugate(b, braids.inverse(a)), simplify)
        comps[i] = a
    return BraidSystem(s.degree, tuple(comps))


def hurwitz_move_nf(state, move: HurwitzMove):
    """The same move on a tuple of component normal forms.

    Equivalent to hurwitz_move followed by taking normal forms; it runs
    the move on the forms of the codebook (`hurwitz_move_codes`), as the
    orbit search does, so that words never have to be re-expanded.
    """
    i = move.index
    _check_move_index(i, len(state))
    a, b = state[i - 1], state[i]
    braids.check_same_degree(a.degree, b.degree)
    book = braids._book(a.degree)
    x, y = book.form(a), book.form(b)
    pair = hurwitz_move_codes(book, x, y, move.inverse, book.inverse(x if move.inverse else y))
    return (*state[: i - 1], *map(book.normal_form, pair), *state[i + 1 :])


def hurwitz_move_codes(book, x, y, inverse: bool, inv):
    """The move on the lone pair (x, y) of codebook forms: (y, y^{-1} x y),
    or (x y x^{-1}, x) for the undo direction.  `inv` is the form of the
    one inverse the move needs, y^{-1} or for the undo x^{-1}; the orbit
    search memoises it for each form it interns."""
    if inverse:
        return book.mul(x, y, inv), x
    return y, book.mul(inv, x, y)


def hurwitz_act(s: BraidSystem, beta: BraidWord, simplify: bool = False) -> BraidSystem:
    """Apply the letters of beta (a braid on len(s) strands) as Hurwitz moves."""
    if beta.degree != len(s):
        raise ValueError(f"acting braid degree {beta.degree} != system length {len(s)}")
    for k in beta.letters:
        s = hurwitz_move(s, HurwitzMove(abs(k), inverse=k < 0), simplify=simplify)
    return s


def global_conjugate(s: BraidSystem, a: BraidWord, simplify: bool = False) -> BraidSystem:
    """Conjugate every component by the same braid."""
    braids.check_same_degree(s.degree, a.degree)
    return BraidSystem(
        s.degree,
        tuple(_maybe_simplify(braids.conjugate(c, a), simplify) for c in s.components),
    )


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
    """Fuse components l..l+q into their product.

    The returned flag reports whether tau of the product equals the sum
    of the tau values of the pieces; only then is the inverse fission a
    legal move.
    """
    if q < 1:
        raise ValueError(f"q must be >= 1, got {q}")
    if not 1 <= l or l + q > len(s):
        raise ValueError(f"fuse range [{l}, {l + q}] out of bounds for length {len(s)}")
    pieces = s.components[l - 1 : l + q]
    fused = BraidSystem(s.degree, pieces).trace_product()
    tau_check = tau(fused) == sum(tau(p) for p in pieces)
    comps = s.components[: l - 1] + (fused,) + s.components[l + q :]
    return BraidSystem(s.degree, comps), tau_check


def euler_fission_check(whole: BraidWord, pieces) -> bool:
    """Whether splitting `whole` into `pieces` is a legal fission: no piece
    is the identity, the pieces multiply to `whole`, and fusing them passes
    the tau check of `euler_fuse` (tau reads only the permutation, so the
    whole and the product have one tau once they are equal)."""
    pieces = tuple(pieces)
    if len(pieces) < 2:
        raise ValueError("a fission needs at least two pieces")
    # BraidSystem raises on a degree mismatch
    fused, tau_check = euler_fuse(BraidSystem(whole.degree, pieces), 1, len(pieces) - 1)
    if any(braids.is_identity(p) for p in pieces):
        return False
    return tau_check and braids.braids_equal(whole, fused.components[0])


def euler_necessity(s1: BraidSystem, s2: BraidSystem) -> str:
    """One-sided indicator: "necessary" when any relating sequence must
    contain an Euler fusion or fission, else "unknown".

    It reads compare_systems: "necessary" iff one of its Euler checks
    (the essential core and the (degree + length) mod 3 class, both of
    which survive Hurwitz moves, global conjugation and stabilization)
    differs.
    """
    return "necessary" if euler_move_needed(compare_systems(s1, s2).invariants) else "unknown"
