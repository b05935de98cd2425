"""
Conjugacy invariants of braids and Hurwitz invariants of braid systems.

For a braid b with permutation order r, the pure power b^r has a
symmetric crossing matrix; its characteristic polynomial, determinant,
rank, entry multisets and integer eigenvalues are all conjugacy
invariants.  For a braid system the multiset and product of the
component polynomials are invariant under the Hurwitz action, and the
product with the roots 0 and +-1 stripped is additionally invariant
under global conjugation and stabilization.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from . import braids
from .braids import BraidWord, NormalForm
from .codec import JsonCodec, decode, require_keys
from .crossing import crossing_matrix, pure_power_matrix
from .intlinalg import (
    IntPolynomial,
    ReducedPolynomial,
    charpoly,
    integer_roots,
    reduce_poly,
)


@dataclass(frozen=True)
class BraidInvariantReport(JsonCodec):
    """All crossing-matrix conjugacy invariants of one braid."""

    degree: int
    r: int
    charpoly: IntPolynomial
    determinant: int
    rank: int
    S: tuple[int, ...]
    S_rows: tuple[tuple[int, ...], ...]
    S_cols: tuple[tuple[int, ...], ...]
    integer_eigenvalues: tuple[tuple[int, int], ...]
    normal_form: NormalForm

    def conjugacy_fields(self) -> tuple:
        """The fields that conjugation must preserve (everything but the form)."""
        return (
            self.degree,
            self.r,
            self.charpoly,
            self.determinant,
            self.rank,
            self.S,
            self.S_rows,
            self.S_cols,
            self.integer_eigenvalues,
        )


@dataclass(frozen=True)
class BraidSystem:
    """An ordered tuple of braid words sharing one degree."""

    degree: int
    components: tuple[BraidWord, ...]

    def __post_init__(self):
        if not self.components:
            raise ValueError("a braid system needs at least one component")
        for c in self.components:
            if c.degree != self.degree:
                raise ValueError(f"component degree {c.degree} != system degree {self.degree}")

    def __len__(self) -> int:
        return len(self.components)

    def trace_product(self) -> BraidWord:
        word = BraidWord(self.degree)
        for c in self.components:
            word = braids.product(word, c)
        return word

    def normal_forms(self) -> tuple[NormalForm, ...]:
        return tuple(braids.normal_form(c) for c in self.components)

    def to_json(self) -> dict:
        return {"degree": self.degree, "components": [c.to_text() for c in self.components]}

    @staticmethod
    def from_json(data: dict) -> "BraidSystem":
        require_keys("BraidSystem", data, ("degree", "components"))
        degree = decode(int, data["degree"], "degree")
        texts = decode(tuple[str, ...], data["components"], "components")
        return BraidSystem(degree, tuple(braids.parse_word(t, degree) for t in texts))

    @staticmethod
    def from_texts(degree: int, texts) -> "BraidSystem":
        return BraidSystem(degree, tuple(braids.parse_word(t, degree) for t in texts))


def poly_sort_key(p: IntPolynomial) -> tuple:
    return (p.degree, p.coeffs)


@dataclass(frozen=True)
class SystemInvariantReport(JsonCodec):
    """Hurwitz-equivalence invariants of one braid system."""

    degree: int
    length: int
    charpoly_product: IntPolynomial
    charpoly_multiset: tuple[IntPolynomial, ...]
    essential: ReducedPolynomial
    trace_is_identity: bool
    perm_monodromy_order: int
    exponent_sums: tuple[int, ...]
    degree_plus_length_mod3: int
    normal_forms: tuple[NormalForm, ...]

    def hurwitz_fields(self) -> tuple:
        """Fields preserved by the Hurwitz action alone."""
        return (
            self.degree,
            self.length,
            self.charpoly_product,
            self.charpoly_multiset,
            self.essential,
            self.trace_is_identity,
            self.perm_monodromy_order,
            self.exponent_sums,
            self.degree_plus_length_mod3,
        )


@functools.lru_cache(maxsize=65536)
def _report_for_normal_form(nf: NormalForm) -> BraidInvariantReport:
    # any word for the braid yields the same matrix, so the canonical
    # re-expansion is a sound (and cache-friendly) representative
    r, M = pure_power_matrix(nf.to_word())
    cp = charpoly(M)
    # det M = (-1)^n c_0; and M is symmetric, hence diagonalizable, so its
    # rank is n minus the multiplicity of the root 0
    n, zero_mult = cp.degree, next(k for k, c in enumerate(cp.coeffs) if c)
    return BraidInvariantReport(
        degree=nf.degree,
        r=r,
        charpoly=cp,
        determinant=(-1) ** n * cp.coeffs[0],
        rank=n - zero_mult,
        S=M.entry_multiset(),
        S_rows=M.row_multisets(),
        S_cols=M.col_multisets(),
        integer_eigenvalues=integer_roots(cp),
        normal_form=nf,
    )


def braid_invariants(b: BraidWord) -> BraidInvariantReport:
    """Permutation order, pure-power crossing matrix, and everything read off it."""
    return _report_for_normal_form(braids.normal_form(b))


def permutation_group_order(perms) -> int:
    """Order of the subgroup generated by the given permutations."""
    perms = list(perms)
    if not perms:
        return 1
    degrees = {p.degree for p in perms}
    if len(degrees) > 1:
        raise ValueError(f"generators must share one degree, got degrees {sorted(degrees)}")
    return _group_order_cached(tuple(sorted({p.images for p in perms})))


class _Level:
    """One level of a stabiliser chain.

    `gens` are the strong generators that fix every earlier base point;
    `trans` maps each point of the orbit of `point` under them to a pair
    (u, u^-1) with u[point] == that point.  Entries are only ever added,
    so a Schreier generator, once built, never changes.
    """

    def __init__(self, point: int, identity: tuple[int, ...]):
        self.point = point
        self.gens: list[tuple[int, ...]] = []
        self.orbit = [point]
        self.trans = {point: (identity, identity)}
        self.tested: set[tuple[int, int]] = set()  # (orbit point, gen index) pairs sifted

    def add_gen(self, g: tuple[int, ...]) -> None:
        self.gens.append(g)
        for beta in self.orbit:  # the list grows while it is walked
            u = self.trans[beta][0]
            for s in self.gens:
                gamma = s[beta]
                if gamma not in self.trans:
                    v = tuple(s[x] for x in u)  # u then s
                    self.trans[gamma] = (v, _inverse(v))
                    self.orbit.append(gamma)


def _inverse(p: tuple[int, ...]) -> tuple[int, ...]:
    inv = [0] * len(p)
    for x, y in enumerate(p):
        inv[y] = x
    return tuple(inv)


def _moved_point(g: tuple[int, ...]) -> int:
    return next(x for x, y in enumerate(g) if x != y)


def _sift(levels: list[_Level], start: int, h: tuple[int, ...]) -> tuple[tuple[int, ...], int]:
    """Strip h through the levels from `start`; returns the residue and the
    level it stopped at (len(levels) if it passed them all)."""
    for j in range(start, len(levels)):
        lev = levels[j]
        beta = h[lev.point]
        if beta not in lev.trans:
            return h, j
        if beta != lev.point:
            uinv = lev.trans[beta][1]
            h = tuple(uinv[x] for x in h)
    return h, len(levels)


def _new_strong_generator(levels: list[_Level], i: int, identity: tuple[int, ...]):
    """Sift the untested Schreier generators u_b s u_{b^s}^-1 of level i
    through the deeper levels; returns the first residue that is not the
    identity with the level it stopped at, or None."""
    lev = levels[i]
    for beta in lev.orbit:
        u = lev.trans[beta][0]
        for k, s in enumerate(lev.gens):
            if (beta, k) not in lev.tested:
                lev.tested.add((beta, k))
                uinv = lev.trans[s[beta]][1]
                h, j = _sift(levels, i + 1, tuple(uinv[s[x]] for x in u))
                if h != identity:
                    return h, j
    return None


@functools.lru_cache(maxsize=65536)
def _group_order_cached(gens: tuple[tuple[int, ...], ...]) -> int:
    """Deterministic Schreier-Sims (Sims 1970; Seress, *Permutation Group
    Algorithms*, 2003, ch. 4; Knuth 1991).

    Builds a base and a strong generating set level by level, deepest
    level first.  Levels deeper than the current one are always complete,
    so a sift through them decides membership; a Schreier generator that
    does not sift to the identity leaves a residue that joins the strong
    generators of the levels it fixes (and the base, if it fixes every
    base point), and work resumes at the deepest level it joined.  The
    order is the product of the orbit lengths.  Points are 0-based inside;
    `gens` are 1-based image tuples of one degree.
    """
    identity = tuple(range(len(gens[0])))
    levels: list[_Level] = []
    for g in (tuple(v - 1 for v in g) for g in gens):
        if g == identity:
            continue
        if all(g[lev.point] == lev.point for lev in levels):
            levels.append(_Level(_moved_point(g), identity))
        for lev in levels:  # g joins every level up to the first base point it moves
            lev.add_gen(g)
            if g[lev.point] != lev.point:
                break
    i = len(levels) - 1
    while i >= 0:
        found = _new_strong_generator(levels, i, identity)
        if found is None:
            i -= 1
            continue
        h, j = found
        if j == len(levels):
            levels.append(_Level(_moved_point(h), identity))
        for lev in levels[i + 1 : j + 1]:
            lev.add_gen(h)
        i = j
    return math.prod(len(lev.orbit) for lev in levels)


def _trace(degree: int, nfs) -> NormalForm:
    trace = NormalForm(degree, 0, ())
    for nf in nfs:
        trace = trace * nf
    return trace


def system_invariants_from_normal_forms(
    degree: int, nfs: tuple[NormalForm, ...]
) -> SystemInvariantReport:
    """System invariants computed directly on component normal forms.

    The exponent sum is read off the normal form as well, so no
    word-level representative is needed.
    """
    reports = [_report_for_normal_form(nf) for nf in nfs]
    prod = IntPolynomial((1,))
    for rep in reports:
        prod = prod * rep.charpoly
    multiset = tuple(sorted((rep.charpoly for rep in reports), key=poly_sort_key))
    return SystemInvariantReport(
        degree=degree,
        length=len(nfs),
        charpoly_product=prod,
        charpoly_multiset=multiset,
        essential=reduce_poly(prod),
        trace_is_identity=_trace(degree, nfs).is_identity(),
        perm_monodromy_order=permutation_group_order(nf.permutation() for nf in nfs),
        exponent_sums=tuple(sorted(nf.exponent_sum() for nf in nfs)),
        degree_plus_length_mod3=(degree + len(nfs)) % 3,
        normal_forms=tuple(nfs),
    )


def system_invariants(s: BraidSystem) -> SystemInvariantReport:
    return system_invariants_from_normal_forms(s.degree, s.normal_forms())


# The checks of compare_systems, in order, each reading a value off a
# system report as it is shown; no two values render alike, so two values
# are equal iff their renderings are.
_CHECKS = {
    "trace_product":
        lambda rep: _trace(rep.degree, rep.normal_forms).to_word().to_text() or "<identity>",
    "perm_monodromy_order": lambda rep: rep.perm_monodromy_order,
    "exponent_sum_multiset": lambda rep: rep.exponent_sums,
    "charpoly_product": lambda rep: str(rep.charpoly_product),
    "charpoly_multiset": lambda rep: tuple(str(p) for p in rep.charpoly_multiset),
    "essential_core": lambda rep: str(rep.essential.core),
    "degree_plus_length_mod3": lambda rep: rep.degree_plus_length_mod3,
}
# These two survive global conjugation and stabilization too, so they are
# compared across shapes, and if one differs, any sequence of moves relating
# the systems holds an Euler fusion or fission.  The rest need one shape.
EULER_CHECKS = ("essential_core", "degree_plus_length_mod3")

CheckValue = int | str | tuple[int | str, ...] | None


@dataclass(frozen=True)
class InvariantCheck(JsonCodec):
    """One invariant of two systems; all three values are None when the
    check was skipped because the systems differ in shape."""

    name: str
    left: CheckValue
    right: CheckValue
    equal: bool | None


@dataclass(frozen=True)
class SystemComparison(JsonCodec):
    """Every check of compare_systems, in order, and the verdict they give."""

    verdict: str
    same_shape: bool
    invariants: tuple[InvariantCheck, ...]


def euler_move_needed(checks) -> bool:
    """Whether one of EULER_CHECKS differs among these checks."""
    return any(c.equal is False for c in checks if c.name in EULER_CHECKS)


def compare_systems(s1: BraidSystem, s2: BraidSystem) -> SystemComparison:
    """Compare two braid systems by every system invariant.

    The verdict is `distinguished_by:<name>` for the first check outside
    EULER_CHECKS that differs, else `euler_necessary` if an Euler check
    differs, else `indistinguishable_by_invariants`.
    """
    r1, r2 = system_invariants(s1), system_invariants(s2)
    same_shape = (r1.degree, r1.length) == (r2.degree, r2.length)
    checks = []
    for name, read in _CHECKS.items():
        if same_shape or name in EULER_CHECKS:
            left, right = read(r1), read(r2)
            checks.append(InvariantCheck(name, left, right, left == right))
        else:
            checks.append(InvariantCheck(name, None, None, None))
    first = next((c.name for c in checks if c.equal is False and c.name not in EULER_CHECKS), None)
    if first is not None:
        verdict = f"distinguished_by:{first}"
    elif euler_move_needed(checks):
        verdict = "euler_necessary"
    else:
        verdict = "indistinguishable_by_invariants"
    return SystemComparison(verdict, same_shape, tuple(checks))


def family_weaving(m: int) -> BraidWord:
    """The alternating-sign word on m strands (m odd); its polynomial is x^m."""
    if m < 3 or m % 2 == 0:
        raise ValueError(f"weaving family needs odd m >= 3, got {m}")
    return BraidWord(m, tuple(i if i % 2 == 1 else -i for i in range(1, m)))


def family_bm(m: int) -> BraidWord:
    """The positive pure word s1..s_{m-2} s_{m-1}^2 s_{m-2}..s1 on m strands."""
    if m <= 2:
        raise ValueError(f"family needs m > 2, got {m}")
    up = list(range(1, m - 1))
    return BraidWord(m, tuple(up + [m - 1, m - 1] + up[::-1]))


def family_bmk(m: int, k: int) -> BraidWord:
    """family_bm(m) followed by 2k positive crossings of the first two strands."""
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    base = family_bm(m)
    return BraidWord(m, base.letters + (1,) * (2 * k))


def family_bm_charpoly(m: int) -> IntPolynomial:
    """Closed form x^m - (m-1) x^{m-2} for family_bm."""
    return IntPolynomial.x_power(m) - IntPolynomial.x_power(m - 2) * IntPolynomial((m - 1,))


def family_bmk_charpoly(m: int, k: int) -> IntPolynomial:
    """Closed form x^m - (k^2 + 2k + m - 1) x^{m-2} for family_bmk."""
    c = k * k + 2 * k + m - 1
    return IntPolynomial.x_power(m) - IntPolynomial.x_power(m - 2) * IntPolynomial((c,))


def pure3_charpoly_oracle(b: BraidWord) -> IntPolynomial:
    """Independent closed form for positive pure 3-braids.

    With 2k, 2l, 2n crossings between the strand pairs (1,2), (1,3) and
    (2,3), the polynomial is x^3 - (k^2 + l^2 + n^2) x - 2kln.
    """
    if b.degree != 3:
        raise ValueError(f"degree must be 3, got {b.degree}")
    if any(k < 0 for k in b.letters):
        raise ValueError("word must be positive")
    if not braids.permutation(b).is_identity():
        raise ValueError("braid is not pure")
    M = crossing_matrix(b)
    k, l, n = M[1, 2], M[1, 3], M[2, 3]
    return IntPolynomial((-2 * k * l * n, -(k * k + l * l + n * n), 0, 1))
