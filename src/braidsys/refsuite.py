"""
Regression suite of documented reference values for example braids and
braid systems.  Every row recomputes a known value from scratch through
the public pipeline and compares exactly; the CLI `papersuite` command
renders the table.

Polynomials are read off the reports users get: `braid_invariants` for
one braid, `system_invariants` for a system.  Under the opposite
over-strand convention (`run(flipped=True)`) every word the suite sweeps
with `crossing_matrix` gets the transpose.  Every pure-power matrix is
symmetric, so of the rows only `perm-3` expects another value: the
crossing matrix of the asymmetric word 1,1,-2, written out for each
convention.  The `cm-weave-*` rows sweep too, but read an all-zero
matrix either way.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import braids
from .braids import parse_word
from .codec import JsonCodec
from .crossing import crossing_matrix, permutation_equivalent, pure_power_matrix
from .intlinalg import IntPolynomial, determinant, factored_str, integer_roots
from .invariants import (
    BraidSystem,
    braid_invariants,
    family_bm,
    family_bm_charpoly,
    family_bmk,
    family_bmk_charpoly,
    family_weaving,
    pure3_charpoly_oracle,
    system_invariants,
)
from .moves import HurwitzMove, euler_fuse, euler_necessity, hurwitz_move
from .orbit import find_conjugator


@dataclass(frozen=True)
class Row(JsonCodec):
    row_id: str = field(metadata={"json": "id"})
    description: str
    expected: str
    computed: str
    ok: bool

    def __post_init__(self):
        if self.ok != (self.expected == self.computed):
            raise ValueError(f"row {self.row_id}: ok={self.ok} but expected "
                             f"{self.expected!r} and computed {self.computed!r}")


@dataclass(frozen=True)
class SuiteResult(JsonCodec):
    """Every row of one run of the suite, and whether all of them pass."""

    rows: tuple[Row, ...]
    all_pass: bool

    def __post_init__(self):
        if self.all_pass != all(row.ok for row in self.rows):
            raise ValueError(f"all_pass={self.all_pass} does not match the rows")


INTRO_B = ["1,2,-3", "3", "-2", "-1"]
INTRO_BP = ["1,-2,3", "-3", "2", "-1"]
FUSED_C = ["1,-2,3", "-3,2,-1"]


def run(flipped: bool = False) -> tuple[list[Row], bool]:
    """Every row, and whether all of them pass; flipped takes the opposite
    over-strand convention."""
    rows: list[Row] = []
    sweep = (lambda w: crossing_matrix(w).transpose()) if flipped else crossing_matrix

    def add(row_id, description, expected, computed):
        expected, computed = str(expected), str(computed)
        rows.append(Row(row_id, description, expected, computed, expected == computed))

    # permutations and orders
    w3 = parse_word("1,1,-2", 3)
    cm3 = ((0, 1, 0), (1, 0, -1), (0, 0, 0)) if flipped else ((0, 1, 0), (1, 0, 0), (0, -1, 0))
    add("perm-3", "permutation and crossing matrix of 1,1,-2 in B3",
        ((1, 3, 2), cm3), (braids.permutation(w3).images, sweep(w3).entries))
    bvec = BraidSystem.from_texts(4, INTRO_B)
    bpvec = BraidSystem.from_texts(4, INTRO_BP)
    add("perm-4tuple", "component permutations of the reference 4-systems",
        [(4, 1, 2, 3), (1, 2, 4, 3), (1, 3, 2, 4), (2, 1, 3, 4)] * 2,
        [braids.permutation(c).images for c in bvec.components]
        + [braids.permutation(c).images for c in bpvec.components])
    add("order-gen", "permutation order of a single generator", 2,
        braids.permutation_order(parse_word("1", 4)))
    add("order-4", "permutation order of 1,2,-3 in B4", 4,
        braids.permutation_order(parse_word("1,2,-3", 4)))
    add("order-5", "permutation order of 3,-1,4 in B5", 6,
        braids.permutation_order(parse_word("3,-1,4", 5)))

    # defining relations through the word problem
    add("rel-adjacent", "s1 s2 s1 = s2 s1 s2 in B3", True,
        braids.braids_equal(parse_word("1,2,1", 3), parse_word("2,1,2", 3)))
    add("rel-distant", "s1 s3 = s3 s1 in B4", True,
        braids.braids_equal(parse_word("1,3", 4), parse_word("3,1", 4)))

    # crossing matrices of the distinguished 4-braid pair
    b4 = parse_word("1,2,-3", 4)
    bp4 = parse_word("1,-2,3", 4)
    _, M = pure_power_matrix(b4)
    _, N = pure_power_matrix(bp4)
    add("cm-b4", "pure-power crossing matrix of 1,2,-3",
        ((0, 0, 1, 0), (0, 0, 0, 1), (1, 0, 0, 0), (0, 1, 0, 0)), M.entries)
    add("cm-bp4", "pure-power crossing matrix of 1,-2,3",
        ((0, 1, -1, 1), (1, 0, 1, -1), (-1, 1, 0, 1), (1, -1, 1, 0)), N.entries)
    add("cm-pair-inequiv", "the pair is not permutation equivalent", None,
        permutation_equivalent(M, N))
    add("pe-witness", "witness for the 3x3 permutation-equivalence example",
        (2, 1, 3),
        permutation_equivalent(
            [[1, 2, 3], [4, 5, 6], [7, 8, 9]], [[5, 4, 6], [2, 1, 3], [8, 7, 9]]
        ).images)

    # weaving words: the pure power has a zero crossing matrix
    for m in (3, 5, 7):
        Mw = sweep(braids.power(family_weaving(m), m))
        add(f"cm-weave-{m}", f"pure power of the alternating word on {m} strands is flat",
            True, all(v == 0 for row in Mw.entries for v in row))

    # conjugate 5-braid pair: determinant, polynomial, explicit conjugator
    b5 = parse_word("3,-1,4", 5)
    bp5 = parse_word("4,3,-1", 5)
    _, M5 = pure_power_matrix(b5)
    _, N5 = pure_power_matrix(bp5)
    add("det-5", "determinants of the conjugate 5-braid pair", (-144, -144),
        (determinant(M5), determinant(N5)))
    quintic = braid_invariants(b5).charpoly
    add("cp-5", "their shared characteristic polynomial",
        "x^5 - 21x^3 - 16x^2 + 108x + 144", quintic)
    add("cp-5-equal", "both braids give the same polynomial", True,
        braid_invariants(bp5).charpoly == quintic)
    add("roots-5", "its integer roots", ((-3, 1), (-2, 2), (3, 1), (4, 1)),
        integer_roots(quintic))
    conj = find_conjugator(b5, bp5, max_length=3)
    add("conj-5", "a short conjugator relating the pair exists and works", True,
        conj is not None and braids.braids_equal(braids.conjugate(b5, conj), bp5))

    # the 4-braid pair: determinants and polynomials
    add("det-4", "determinants of the 4-braid pair", (1, -3),
        (determinant(M), determinant(N)))
    add("cp-4", "their characteristic polynomials",
        ("x^4 - 2x^2 + 1", "x^4 - 6x^2 + 8x - 3"),
        (str(braid_invariants(b4).charpoly), str(braid_invariants(bp4).charpoly)))

    # closed forms
    ok = all(
        braid_invariants(braids.generator(m, i, s)).charpoly
        == IntPolynomial.x_power(m - 2) * IntPolynomial((-1, 0, 1))
        for m in range(2, 9)
        for i in range(1, m)
        for s in (1, -1)
    )
    add("cp-generators", "P of every generator is x^(m-2)(x+1)(x-1), m=2..8", True, ok)
    ok = all(
        braid_invariants(family_weaving(m)).charpoly == IntPolynomial.x_power(m)
        and braid_invariants(braids.iota(family_weaving(m))).charpoly
        == IntPolynomial.x_power(m + 1)
        for m in (3, 5, 7)
    )
    add("cp-weaving", "P of the alternating word is x^m; embedded, x^(m+1)", True, ok)
    ok = all(braid_invariants(family_bm(m)).charpoly == family_bm_charpoly(m) for m in range(3, 9))
    add("cp-family", "P(b_m) = x^m - (m-1)x^(m-2) for m=3..8", True, ok)
    add("cp-family-5", "P of the 5-strand family word", "x^5 - 4x^3",
        braid_invariants(family_bm(5)).charpoly)
    ok = all(
        braid_invariants(family_bmk(m, k)).charpoly == family_bmk_charpoly(m, k)
        for m in range(3, 7)
        for k in range(0, 4)
    )
    add("cp-family-k", "P(b_{m,k}) = x^m - (k^2+2k+m-1)x^(m-2), m=3..6, k=0..3", True, ok)

    # positive pure 3-braids against the independent closed form
    full_twist = parse_word("1,2,1,2,1,2", 3)
    add("pure3-twist", "full twist: pipeline equals the closed form",
        ("x^3 - 3x - 2", "x^3 - 3x - 2"),
        (str(braid_invariants(full_twist).charpoly), str(pure3_charpoly_oracle(full_twist))))
    add("pure3-constant", "constant term is nonzero iff every strand pair crosses",
        (True, True),
        (pure3_charpoly_oracle(full_twist).coefficient(0) != 0,
         pure3_charpoly_oracle(family_bm(3)).coefficient(0) == 0))

    # system products of the distinguished pair
    ri, rj = system_invariants(bvec), system_invariants(bpvec)
    add("sys-product-b", "product polynomial of the first 4-system",
        "x^16 - 5x^14 + 10x^12 - 10x^10 + 5x^8 - x^6", ri.charpoly_product)
    add("sys-product-bp", "product polynomial of the second 4-system",
        "x^16 - 9x^14 + 8x^13 + 18x^12 - 24x^11 - 10x^10 + 24x^9 - 3x^8 - 8x^7 + 3x^6",
        rj.charpoly_product)
    add("sys-multiset", "their polynomial multisets differ as documented",
        (["x^4 - x^2", "x^4 - x^2", "x^4 - x^2", "x^4 - 2x^2 + 1"],
         ["x^4 - 6x^2 + 8x - 3", "x^4 - x^2", "x^4 - x^2", "x^4 - x^2"]),
        ([str(p) for p in ri.charpoly_multiset], [str(p) for p in rj.charpoly_multiset]))

    # classical shadows that fail to distinguish the pair
    add("sys-trace", "both trace products are the identity", (True, True),
        (ri.trace_is_identity, rj.trace_is_identity))
    add("sys-monodromy", "both permutation monodromy groups have order 24", (24, 24),
        (ri.perm_monodromy_order, rj.perm_monodromy_order))
    shadow_b = [braids.exponent_sum(c) for c in bvec.components]
    shadow_bp = [braids.exponent_sum(c) for c in bpvec.components]
    moved = hurwitz_move(bvec, HurwitzMove(2))
    add("sys-expsum", "exponent shadows are one elementary move apart",
        ([1, 1, -1, -1], [1, -1, 1, -1], True),
        (shadow_b, shadow_bp,
         [braids.exponent_sum(c) for c in moved.components] == shadow_bp))

    # fused system: essential cores and the necessity indicator
    cvec = BraidSystem.from_texts(4, FUSED_C)
    rc = system_invariants(cvec)
    add("fused-product", "product polynomial of the fused system",
        "x^6 (x+1)^3 (x-1)^6 (x+3) | (x+1)^3 (x-1)^3 (x+3) (x-3)",
        f"{factored_str(rj.charpoly_product)} | {factored_str(rc.charpoly_product)}")
    add("fused-cores", "essential cores before and after fusing",
        ("x + 3", "x^2 - 9"),
        (str(rj.essential.core), str(rc.essential.core)))
    add("fused-necessity", "the indicator flags a required fusion or fission",
        "necessary", euler_necessity(bpvec, cvec))
    f1, chk1 = euler_fuse(bpvec, 2, 1)
    f2, chk2 = euler_fuse(f1, 2, 1)
    add("fused-moves", "two fusions reach the short system with valid tau checks",
        (True, True, True),
        (chk1, chk2,
         len(f2) == 2
         and all(braids.braids_equal(x, y) for x, y in zip(f2.components, cvec.components))))

    return rows, all(row.ok for row in rows)
