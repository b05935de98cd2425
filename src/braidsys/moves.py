"""
Moves on braid systems: Hurwitz action, global conjugation,
stabilization/destabilization, and Euler fusion/fission bookkeeping.

All moves return new systems.  A system computes its components' normal
forms at most once (`BraidSystem.normal_forms`).  A Hurwitz move, a
global conjugation and a fusion compute the forms of the components they
make as products of forms (`braids._nf_product`) and hand them to the
system they return, so a run of moves normalises each component once.
They do so when simplify is set or the input holds its forms already: a
caller that reads only words normalises nothing more.  stabilize and
destabilize hand on no forms, since the half twist of the new degree is
another braid.

Conjugation makes stored words grow, so hurwitz_move and
global_conjugate accept simplify=True, which stores each conjugated
component as the re-expansion of its normal form (`NormalForm.to_word`,
freely reduced; the form is unique, so this is `canonical_word` of the
literal word); else the literal word is stored, freely reduced.  No
further shortening is attempted.  Canonical comparison always goes
through normal forms, never through the stored words.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from . import braids
from .braids import BraidWord
from .codec import JsonCodec
from .invariants import BraidSystem, _held_forms, _system, compare_systems, euler_move_needed


@dataclass(frozen=True)
class HurwitzMove(JsonCodec):
    """Elementary Hurwitz move at a 1-based index; inverse=True for the undo direction."""

    index: int
    inverse: bool = False

    def __post_init__(self):
        if type(self.index) is not int:  # HurwitzMove(True) would move pair 1
            raise TypeError(f"move index {self.index!r} is a {type(self.index).__name__}, not an int")
        if type(self.inverse) is not bool:
            raise TypeError(f"move inverse {self.inverse!r} is not a bool")

    def __str__(self) -> str:
        return f"H {self.index} {'-' if self.inverse else '+'}"


def _check_move_index(i: int, length: int) -> None:
    if not 1 <= i <= length - 1:
        raise ValueError(f"move index {i} out of range for length {length}")


def hurwitz_move(s: BraidSystem, move: HurwitzMove, simplify: bool = False) -> BraidSystem:
    """Replace (b_i, b_{i+1}) by (b_{i+1}, b_{i+1}^{-1} b_i b_{i+1}), or undo it.

    The moved pair's forms are `hurwitz_move_nf` of the pair's forms, which
    the system returned holds; they are computed when simplify is set or s
    holds its forms.  The conjugated component is stored as its form
    re-expanded when simplify is set, else as the freely reduced
    conjugation word (`hurwitz_move_codes` on words); the other component
    of the pair is stored as it was.
    """
    i = move.index
    _check_move_index(i, len(s))
    forms = s.normal_forms() if simplify else _held_forms(s)
    if forms is not None:
        forms = hurwitz_move_nf(forms, move)
    comps = list(s.components)
    a, b = comps[i - 1], comps[i]
    if simplify:
        comps[i - 1 : i + 1] = (forms[i - 1].to_word(), a) if move.inverse else (b, forms[i].to_word())
    else:
        comps[i - 1 : i + 1] = hurwitz_move_codes(
            lambda *words: braids.free_reduce(functools.reduce(braids.product, words)),
            a, b, move.inverse, braids.inverse(a if move.inverse else b))
    return _system(s.degree, tuple(comps), forms)


def hurwitz_move_nf(state, move: HurwitzMove):
    """The same move on a tuple of component normal forms.

    Equivalent to hurwitz_move followed by taking normal forms; it runs
    `hurwitz_move_codes` with the product of normal forms,
    `braids._nf_product`, so that words never have to be re-expanded.
    """
    i = move.index
    _check_move_index(i, len(state))
    a, b = state[i - 1], state[i]
    braids.check_same_degree(a.degree, b.degree)
    pair = hurwitz_move_codes(braids._nf_product, a, b, move.inverse, (a if move.inverse else b).inverse())
    return (*state[: i - 1], *pair, *state[i + 1 :])


def hurwitz_move_codes(mul, x, y, inverse: bool, inv):
    """The move on the lone pair (x, y): (y, y^{-1} x y), or (x y x^{-1}, x)
    for the undo direction, with `mul` the product of any number of values,
    left to right.  `inv` is the one inverse the move needs, y^{-1} or for
    the undo x^{-1}.  `hurwitz_move` runs it on words, `hurwitz_move_nf`
    on normal forms; the orbit search runs it on its codebook forms
    (infimum, codes) with the codebook's product, and memoises the inverse
    for each form it interns."""
    if inverse:
        return mul(x, y, inv), x
    return y, mul(inv, x, y)


def hurwitz_act(s: BraidSystem, beta: BraidWord, simplify: bool = False) -> BraidSystem:
    """Apply the letters of beta (a braid on len(s) strands) as Hurwitz moves."""
    if beta.degree != len(s):
        raise ValueError(f"acting braid degree {beta.degree} != system length {len(s)}")
    for k in beta.letters:
        s = hurwitz_move(s, HurwitzMove(abs(k), inverse=k < 0), simplify=simplify)
    return s


def global_conjugate(s: BraidSystem, a: BraidWord, simplify: bool = False) -> BraidSystem:
    """Conjugate every component by the same braid: b -> a^{-1} b a.

    When simplify is set or s holds its forms, a is normalised once and
    each new form is the product of forms a^{-1} f a, which the system
    returned holds.  A component is stored as its form re-expanded when
    simplify is set, else as the freely reduced conjugation word.
    """
    braids.check_same_degree(s.degree, a.degree)
    forms = s.normal_forms() if simplify else _held_forms(s)
    if forms is not None:
        fa = braids.normal_form(a)
        fa_inv = fa.inverse()
        forms = tuple(braids._nf_product(fa_inv, f, fa) for f in forms)
    if simplify:
        comps = tuple(f.to_word() for f in forms)
    else:
        comps = tuple(braids.free_reduce(braids.conjugate(c, a)) for c in s.components)
    return _system(s.degree, comps, forms)


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
    concatenation of their words.  When s holds its forms, the fused
    component's form is the product of the pieces' forms, and the system
    returned holds the forms.

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
    forms = _held_forms(s)
    if forms is not None:
        forms = forms[: l - 1] + (braids._nf_product(*forms[l - 1 : l + q]),) + forms[l + q :]
    return _system(s.degree, comps, forms), tau_check


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
