"""
Regression suite of documented reference values for example braids and
braid systems.  Every row recomputes a known value from scratch through
the public pipeline and compares exactly; the CLI `papersuite` command
renders the table.

Rows that involve crossing matrices accept the flipped over-strand
convention.  All matrix-valued rows use pure powers, whose matrices are
symmetric, so they must pass under either convention.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import braids
from .braids import BraidWord, parse_word
from .codec import JsonCodec
from .crossing import crossing_matrix, permutation_equivalent, pure_power_matrix
from .intlinalg import IntPolynomial, charpoly, determinant, factored_str, integer_roots, reduce_poly
from .invariants import (
    BraidSystem,
    family_bm,
    family_bm_charpoly,
    family_bmk,
    family_bmk_charpoly,
    family_weaving,
    poly_sort_key,
    pure3_charpoly_oracle,
    system_invariants,
)
from .moves import HurwitzMove, euler_fuse, euler_necessity, hurwitz_move


@dataclass(frozen=True)
class Row(JsonCodec):
    row_id: str = field(metadata={"json": "id"})
    description: str
    expected: str
    computed: str
    ok: bool


def _pure_charpoly(b: BraidWord, flipped: bool) -> IntPolynomial:
    _, M = pure_power_matrix(b, flipped=flipped)
    return charpoly(M)


def _system_product(s: BraidSystem, flipped: bool) -> IntPolynomial:
    prod = IntPolynomial((1,))
    for c in s.components:
        prod = prod * _pure_charpoly(c, flipped)
    return prod


INTRO_B = ["1,2,-3", "3", "-2", "-1"]
INTRO_BP = ["1,-2,3", "-3", "2", "-1"]
FUSED_C = ["1,-2,3", "-3,2,-1"]


def build_rows(flipped: bool = False) -> list[Row]:
    rows: list[Row] = []

    def add(row_id, description, expected, computed):
        expected, computed = str(expected), str(computed)
        rows.append(Row(row_id, description, expected, computed, expected == computed))

    # permutations and orders
    add("perm-3", "permutation of 1,1,-2 in B3",
        (1, 3, 2), braids.permutation(parse_word("1,1,-2", 3)).images)
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
    _, M = pure_power_matrix(b4, flipped=flipped)
    _, N = pure_power_matrix(bp4, flipped=flipped)
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
        Mw = crossing_matrix(braids.power(family_weaving(m), m), flipped=flipped)
        add(f"cm-weave-{m}", f"pure power of the alternating word on {m} strands is flat",
            True, all(v == 0 for row in Mw.entries for v in row))

    # conjugate 5-braid pair: determinant, polynomial, explicit conjugator
    b5 = parse_word("3,-1,4", 5)
    bp5 = parse_word("4,3,-1", 5)
    _, M5 = pure_power_matrix(b5, flipped=flipped)
    _, N5 = pure_power_matrix(bp5, flipped=flipped)
    add("det-5", "determinants of the conjugate 5-braid pair", (-144, -144),
        (determinant(M5), determinant(N5)))
    quintic = charpoly(M5)
    add("cp-5", "their shared characteristic polynomial",
        "x^5 - 21x^3 - 16x^2 + 108x + 144", quintic)
    add("cp-5-equal", "both braids give the same polynomial", True, charpoly(N5) == quintic)
    add("roots-5", "its integer roots", ((-3, 1), (-2, 2), (3, 1), (4, 1)),
        integer_roots(quintic))
    from .orbit import find_conjugator

    conj = find_conjugator(b5, bp5, max_length=3)
    add("conj-5", "a short conjugator relating the pair exists and works", True,
        conj is not None and braids.braids_equal(braids.conjugate(b5, conj), bp5))

    # the 4-braid pair: determinants and polynomials
    add("det-4", "determinants of the 4-braid pair", (1, -3),
        (determinant(M), determinant(N)))
    add("cp-4", "their characteristic polynomials",
        ("x^4 - 2x^2 + 1", "x^4 - 6x^2 + 8x - 3"),
        (str(charpoly(M)), str(charpoly(N))))

    # closed forms
    ok = all(
        _pure_charpoly(braids.generator(m, i, s), flipped)
        == IntPolynomial.x_power(m - 2) * IntPolynomial((-1, 0, 1))
        for m in range(2, 9)
        for i in range(1, m)
        for s in (1, -1)
    )
    add("cp-generators", "P of every generator is x^(m-2)(x+1)(x-1), m=2..8", True, ok)
    ok = all(
        _pure_charpoly(family_weaving(m), flipped) == IntPolynomial.x_power(m)
        and _pure_charpoly(braids.iota(family_weaving(m)), flipped) == IntPolynomial.x_power(m + 1)
        for m in (3, 5, 7)
    )
    add("cp-weaving", "P of the alternating word is x^m; embedded, x^(m+1)", True, ok)
    ok = all(_pure_charpoly(family_bm(m), flipped) == family_bm_charpoly(m) for m in range(3, 9))
    add("cp-family", "P(b_m) = x^m - (m-1)x^(m-2) for m=3..8", True, ok)
    add("cp-family-5", "P of the 5-strand family word", "x^5 - 4x^3",
        _pure_charpoly(family_bm(5), flipped))
    ok = all(
        _pure_charpoly(family_bmk(m, k), flipped) == family_bmk_charpoly(m, k)
        for m in range(3, 7)
        for k in range(0, 4)
    )
    add("cp-family-k", "P(b_{m,k}) = x^m - (k^2+2k+m-1)x^(m-2), m=3..6, k=0..3", True, ok)

    # positive pure 3-braids against the independent closed form
    full_twist = parse_word("1,2,1,2,1,2", 3)
    add("pure3-twist", "full twist: pipeline equals the closed form",
        ("x^3 - 3x - 2", "x^3 - 3x - 2"),
        (str(_pure_charpoly(full_twist, flipped)), str(pure3_charpoly_oracle(full_twist))))
    add("pure3-constant", "constant term is nonzero iff every strand pair crosses",
        (True, True),
        (pure3_charpoly_oracle(full_twist).coefficient(0) != 0,
         pure3_charpoly_oracle(family_bm(3)).coefficient(0) == 0))

    # system products of the distinguished pair
    prod_b = _system_product(bvec, flipped)
    prod_bp = _system_product(bpvec, flipped)
    add("sys-product-b", "product polynomial of the first 4-system",
        "x^16 - 5x^14 + 10x^12 - 10x^10 + 5x^8 - x^6", prod_b)
    add("sys-product-bp", "product polynomial of the second 4-system",
        "x^16 - 9x^14 + 8x^13 + 18x^12 - 24x^11 - 10x^10 + 24x^9 - 3x^8 - 8x^7 + 3x^6",
        prod_bp)
    mult_b = sorted((_pure_charpoly(c, flipped) for c in bvec.components), key=poly_sort_key)
    mult_bp = sorted((_pure_charpoly(c, flipped) for c in bpvec.components), key=poly_sort_key)
    add("sys-multiset", "their polynomial multisets differ as documented",
        (["x^4 - x^2", "x^4 - x^2", "x^4 - x^2", "x^4 - 2x^2 + 1"],
         ["x^4 - 6x^2 + 8x - 3", "x^4 - x^2", "x^4 - x^2", "x^4 - x^2"]),
        ([str(p) for p in mult_b], [str(p) for p in mult_bp]))

    # classical shadows that fail to distinguish the pair
    ri, rj = system_invariants(bvec), system_invariants(bpvec)
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
    prod_c = _system_product(cvec, flipped)
    add("fused-product", "product polynomial of the fused system",
        "x^6 (x+1)^3 (x-1)^6 (x+3) | (x+1)^3 (x-1)^3 (x+3) (x-3)",
        f"{factored_str(prod_bp)} | {factored_str(prod_c)}")
    add("fused-cores", "essential cores before and after fusing",
        ("x + 3", "x^2 - 9"),
        (str(reduce_poly(prod_bp).core), str(reduce_poly(prod_c).core)))
    add("fused-necessity", "the indicator flags a required fusion or fission",
        "necessary", euler_necessity(bpvec, cvec))
    f1, chk1 = euler_fuse(bpvec, 2, 1)
    f2, chk2 = euler_fuse(f1, 2, 1)
    add("fused-moves", "two fusions reach the short system with valid tau checks",
        (True, True, True),
        (chk1, chk2,
         len(f2) == 2
         and all(braids.braids_equal(x, y) for x, y in zip(f2.components, cvec.components))))

    return rows


def run(flipped: bool = False) -> tuple[list[Row], bool]:
    rows = build_rows(flipped=flipped)
    return rows, all(row.ok for row in rows)
