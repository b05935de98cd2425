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
from dataclasses import dataclass

from . import braids
from .braids import BraidWord, NormalForm
from .codec import JsonCodec
from .crossing import crossing_matrix, pure_power_matrix
from .intlinalg import (
    IntPolynomial,
    ReducedPolynomial,
    charpoly,
    determinant,
    integer_roots,
    rank,
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
        degree = int(data["degree"])
        comps = tuple(braids.parse_word(str(t), degree) for t in data["components"])
        return BraidSystem(degree, comps)

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
    r, M = pure_power_matrix(braids.free_reduce(nf.to_word()))
    cp = charpoly(M)
    return BraidInvariantReport(
        degree=nf.degree,
        r=r,
        charpoly=cp,
        determinant=determinant(M),
        rank=rank(M),
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
    return _group_order_cached(tuple(sorted({p.images for p in perms})))


@functools.lru_cache(maxsize=65536)
def _group_order_cached(gens: tuple[tuple[int, ...], ...]) -> int:
    m = len(gens[0])
    identity = tuple(range(1, m + 1))
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


def system_invariants_from_normal_forms(
    degree: int, nfs: tuple[NormalForm, ...]
) -> SystemInvariantReport:
    """System invariants computed directly on component normal forms.

    The exponent sum is read off the normal form as well (half-twist
    power times the twist length plus factor inversion counts), so no
    word-level representative is needed.
    """
    reports = [_report_for_normal_form(nf) for nf in nfs]
    prod = IntPolynomial((1,))
    for rep in reports:
        prod = prod * rep.charpoly
    multiset = tuple(sorted((rep.charpoly for rep in reports), key=poly_sort_key))
    trace_nf = NormalForm(degree, 0, ())
    for nf in nfs:
        trace_nf = trace_nf * nf
    twist_length = degree * (degree - 1) // 2
    return SystemInvariantReport(
        degree=degree,
        length=len(nfs),
        charpoly_product=prod,
        charpoly_multiset=multiset,
        essential=reduce_poly(prod),
        trace_is_identity=trace_nf.is_identity(),
        perm_monodromy_order=permutation_group_order(nf.permutation() for nf in nfs),
        exponent_sums=tuple(
            sorted(
                nf.infimum * twist_length + sum(f.inversion_count() for f in nf.factors)
                for nf in nfs
            )
        ),
        degree_plus_length_mod3=(degree + len(nfs)) % 3,
        normal_forms=tuple(nfs),
    )


def system_invariants(s: BraidSystem) -> SystemInvariantReport:
    return system_invariants_from_normal_forms(s.degree, s.normal_forms())


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
