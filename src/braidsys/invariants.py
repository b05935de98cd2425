"""
Conjugacy invariants of braids and Hurwitz invariants of braid systems.

For a braid b with permutation order r, the pure power b^r has a
symmetric crossing matrix; its characteristic polynomial, determinant,
rank, entry multisets and integer eigenvalues are all conjugacy
invariants.  For a braid system the multiset and product of the
component polynomials are invariant under the Hurwitz action, and the
product with the roots 0 and +-1 stripped is additionally invariant
under global conjugation and stabilization.

Braid reports and group orders are memoised in least-recently-used caches
bounded by the weight of what they hold, not by entry count; the README
("Caches") states each bound in bytes.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, fields

from . import braids
from .braids import BraidWord, NormalForm
from .codec import JsonCodec, decode, require_keys
from .crossing import _pure_power_blocks, crossing_matrix
from .intlinalg import (
    IntPolynomial,
    ReducedPolynomial,
    _split_block_charpoly,
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
        return tuple(getattr(self, f.name) for f in fields(self) if f.name != "normal_form")


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
        return BraidWord(self.degree, tuple(k for c in self.components for k in c.letters))

    def normal_forms(self) -> tuple[NormalForm, ...]:
        return tuple(braids.normal_form(c) for c in self.components)

    def to_json(self) -> dict:
        return {"degree": self.degree, "components": [c.to_text() for c in self.components]}

    @staticmethod
    def from_json(data: dict) -> "BraidSystem":
        require_keys("BraidSystem", data, ("degree", "components"), optional=("name",))
        degree = decode(int, data["degree"], "degree")
        texts = decode(tuple[str, ...], data["components"], "components")
        if "name" in data:
            decode(str, data["name"], "name")
        return BraidSystem.from_texts(degree, texts)

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
        """Fields preserved by the Hurwitz action alone (everything but the forms)."""
        return tuple(getattr(self, f.name) for f in fields(self) if f.name != "normal_forms")

    @functools.cached_property
    def _trace_form(self) -> NormalForm:
        # the combed product of the components; a report built from normal
        # forms keeps the one that its trace_is_identity was read off
        return _trace(self.degree, self.normal_forms)


# A report of degree m holds m**2 ints in each of S and S_rows, and its
# form m per factor.  The budget is nearly two 64-component systems' worth
# of reports at degree 32 (about 110), so that one compare or a run of
# apply steps finds its reports again; it bounds the cache under 2.7 MB, and
# reports of degree >= 362 are not kept (README, "Caches").
@braids._weighted_lru(2**18, lambda nf: 128 + nf.degree * (2 * nf.degree + len(nf.factors)))
def _report_for_normal_form(nf: NormalForm) -> BraidInvariantReport:
    # the pure-power matrix M is read block by block, never built whole
    r, blocks, S, S_rows = _pure_power_blocks(nf)
    cp = _split_block_charpoly(blocks)
    # det M = (-1)^n c_0; and M is symmetric, hence diagonalizable, so its
    # rank is n minus the multiplicity of the root 0
    n, zero_mult = cp.degree, next(k for k, c in enumerate(cp.coeffs) if c)
    return BraidInvariantReport(
        degree=nf.degree,
        r=r,
        charpoly=cp,
        determinant=(-1) ** n * cp.coeffs[0],
        rank=n - zero_mult,
        S=S,
        S_rows=S_rows,
        S_cols=S_rows,  # M is symmetric, so its row multisets are its column multisets
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


def _inverse(p: tuple[int, ...]) -> tuple[int, ...]:
    inv = [0] * len(p)
    for x, y in enumerate(p):
        inv[y] = x
    return tuple(inv)


# A key holds one image tuple per generator.  A miss costs a Schreier-Sims
# run, so the budget keeps every group that a 30-second `audit` benchmark
# run meets again; it bounds the cache under 2.2 MB up to degree 256
# (README, "Caches").
@braids._weighted_lru(2**18, lambda gens: 128 + sum(map(len, gens)))
def _group_order_cached(gens: tuple[tuple[int, ...], ...]) -> int:
    """Deterministic Schreier-Sims on the base 0..n-1, as one worklist
    (Sims 1970; Knuth 1991, "Efficient representation of perm groups";
    Seress, *Permutation Group Algorithms*, 2003, ch. 4).

    Level i holds the strong generators that fix 0..i-1 and a transversal
    mapping each point j of the orbit of i under them to (u, u^-1) with
    u[i] == j.  A work item (start, h) is sifted from level `start`; if h
    stops at level i, it joins the generators of every level from start to
    i, and each of those levels is closed: every product u_b then s either
    adds a point to the orbit or gives a Schreier generator, which is
    pushed with start = level + 1 unless it is the identity or s itself
    (an s that fixes the level's point joined the next level too).  Each
    (point, generator) pair is formed once, by whichever of the two came
    later, and transversal entries never change.  So once the worklist is
    empty, every Schreier generator of a level lies in the group of the
    next, and the order is the product of the transversal sizes.  Points
    are 0-based inside; `gens` are 1-based image tuples of one degree.
    """
    n = len(gens[0])
    identity = tuple(range(n))
    strong: list[list[tuple[int, ...]]] = [[] for _ in range(n)]
    trans = [{i: (identity, identity)} for i in range(n)]
    work = [(0, tuple(v - 1 for v in g)) for g in gens]
    while work:
        start, h = work.pop()
        stop = start
        while stop < n and (beta := h[stop]) in trans[stop]:
            if beta != stop:
                uinv = trans[stop][beta][1]
                h = tuple(uinv[x] for x in h)
            stop += 1
        if stop == n:  # h fixes every point
            continue
        for level in range(start, stop + 1):
            gens_at, t = strong[level], trans[level]
            gens_at.append(h)
            pairs = [(b, h) for b in t]
            for b, s in pairs:  # the list grows while it is walked
                u, c = t[b][0], s[b]
                if c in t:
                    uinv = t[c][1]
                    r = tuple(uinv[s[x]] for x in u)  # u_b, then s, then u_c^-1
                    if r not in (identity, s):
                        work.append((level + 1, r))
                else:
                    v = tuple(s[x] for x in u)
                    t[c] = (v, _inverse(v))
                    pairs.extend((c, g) for g in gens_at)
    return math.prod(map(len, trans))


def _trace(degree: int, nfs) -> NormalForm:
    """The product of the components, combed as one product of forms."""
    for nf in nfs:
        braids.check_same_degree(degree, nf.degree)
    book = braids._book(degree)
    return book.normal_form(book.mul((0, ()), *map(book.form, nfs)))


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
    trace = _trace(degree, nfs)
    report = SystemInvariantReport(
        degree=degree,
        length=len(nfs),
        charpoly_product=prod,
        charpoly_multiset=multiset,
        essential=reduce_poly(prod),
        trace_is_identity=trace.is_identity(),
        perm_monodromy_order=permutation_group_order(nf.permutation() for nf in nfs),
        exponent_sums=tuple(sorted(nf.exponent_sum() for nf in nfs)),
        degree_plus_length_mod3=(degree + len(nfs)) % 3,
        normal_forms=tuple(nfs),
    )
    object.__setattr__(report, "_trace_form", trace)  # compare_systems renders it
    return report


def system_invariants(s: BraidSystem) -> SystemInvariantReport:
    return system_invariants_from_normal_forms(s.degree, s.normal_forms())


# The checks of compare_systems, in order, each reading a value off a
# system report as it is shown; no two values render alike, so two values
# are equal iff their renderings are.
_CHECKS = {
    "trace_product":
        lambda rep: rep._trace_form.to_word().to_text() or "<identity>",
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
    return _compare_reports(system_invariants(s1), system_invariants(s2))


def _compare_reports(r1: SystemInvariantReport, r2: SystemInvariantReport) -> SystemComparison:
    """`compare_systems` of the two systems these are the reports of."""
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
    return family_bmk(m, 0)


def _check_bmk(m: int, k: int) -> None:
    """The arguments that family_bmk and its closed form both accept."""
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    if m <= 2:
        raise ValueError(f"family needs m > 2, got {m}")


def family_bmk(m: int, k: int) -> BraidWord:
    """family_bm(m) followed by 2k positive crossings of the first two strands."""
    _check_bmk(m, k)
    up = list(range(1, m - 1))
    return BraidWord(m, tuple(up + [m - 1, m - 1] + up[::-1] + [1] * (2 * k)))


def family_bm_charpoly(m: int) -> IntPolynomial:
    """Closed form x^m - (m-1) x^{m-2} for family_bm."""
    return family_bmk_charpoly(m, 0)


def family_bmk_charpoly(m: int, k: int) -> IntPolynomial:
    """Closed form x^m - (k^2 + 2k + m - 1) x^{m-2} for family_bmk."""
    _check_bmk(m, k)
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
