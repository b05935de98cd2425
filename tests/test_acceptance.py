"""Acceptance suite: one test per criterion, exact equality throughout.

Each test prints a single pass line on success (visible with `pytest -s`);
a failed assertion is the fail line.
"""

import json
import random

from braidsys import (
    BraidSystem,
    IntPolynomial,
    OrbitLimits,
    braid_invariants,
    braids_equal,
    charpoly,
    conjugate,
    family_bm,
    family_bm_charpoly,
    family_bmk,
    family_bmk_charpoly,
    family_weaving,
    find_conjugator,
    generator,
    hurwitz_move,
    hurwitz_orbit,
    integer_roots,
    iota,
    normal_form,
    orbit_states,
    parse_word,
    permutation,
    permutation_equivalent,
    permutation_order,
    power,
    pure3_charpoly_oracle,
    pure_power_matrix,
    system_invariants,
    system_invariants_from_normal_forms,
)
from braidsys.cli import main as cli_main
from braidsys.moves import HurwitzMove, destabilize, euler_necessity, global_conjugate, stabilize

from oracles import charpoly_cofactor, random_word

INTRO_B = BraidSystem.from_texts(4, ["1,2,-3", "3", "-2", "-1"])
INTRO_BP = BraidSystem.from_texts(4, ["1,-2,3", "-3", "2", "-1"])
FUSED_C = BraidSystem.from_texts(4, ["1,-2,3", "-3,2,-1"])


def ok(criterion, text):
    print(f"PASS {criterion}: {text}")


def test_1a_system_products():
    rep_b = system_invariants(INTRO_B)
    rep_bp = system_invariants(INTRO_BP)
    assert rep_b.charpoly_product.coeffs == (
        0, 0, 0, 0, 0, 0, -1, 0, 5, 0, -10, 0, 10, 0, -5, 0, 1)
    expected = {16: 1, 14: -9, 13: 8, 12: 18, 11: -24, 10: -10, 9: 24, 8: -3, 7: -8, 6: 3}
    assert rep_bp.charpoly_product == IntPolynomial(
        tuple(expected.get(k, 0) for k in range(17)))
    ok("1a", "system product polynomials match the documented expansions exactly")


def test_1b_crossing_matrix_pair():
    _, M = pure_power_matrix(parse_word("1,2,-3", 4))
    _, N = pure_power_matrix(parse_word("1,-2,3", 4))
    assert M.entries == ((0, 0, 1, 0), (0, 0, 0, 1), (1, 0, 0, 0), (0, 1, 0, 0))
    assert N.entries == ((0, 1, -1, 1), (1, 0, 1, -1), (-1, 1, 0, 1), (1, -1, 1, 0))
    assert permutation_equivalent(M, N) is None
    ok("1b", "pure-power matrices match entry-for-entry and are not permutation equivalent")


def test_1c_conjugate_pair_invariants_and_witness():
    b = parse_word("3,-1,4", 5)
    bp = parse_word("4,3,-1", 5)
    rb, rbp = braid_invariants(b), braid_invariants(bp)
    assert rb.determinant == rbp.determinant == -144
    quintic = IntPolynomial((144, 108, -16, -21, 0, 1))
    assert rb.charpoly == rbp.charpoly == quintic
    assert integer_roots(quintic) == ((-3, 1), (-2, 2), (3, 1), (4, 1))
    witness = find_conjugator(b, bp, max_length=3)
    assert witness is not None
    assert braids_equal(conjugate(b, witness), bp)
    assert braid_invariants(conjugate(b, witness)).conjugacy_fields() == rb.conjugacy_fields()
    ok("1c", "determinant -144, split quintic, and a short conjugator witness found")


def test_1d_four_braid_pair_values():
    rb = braid_invariants(parse_word("1,2,-3", 4))
    rbp = braid_invariants(parse_word("1,-2,3", 4))
    assert rb.determinant == 1 and rbp.determinant == -3
    assert rb.charpoly == IntPolynomial((1, 0, -2, 0, 1))       # (x+1)^2 (x-1)^2
    assert rbp.charpoly == IntPolynomial((-3, 8, -6, 0, 1))     # (x-1)^3 (x+3)
    assert integer_roots(rb.charpoly) == ((-1, 2), (1, 2))
    assert integer_roots(rbp.charpoly) == ((-3, 1), (1, 3))
    ok("1d", "determinants 1 / -3 and both quartic polynomials exact")


def test_1e_generator_formula():
    for m in range(2, 9):
        expected = IntPolynomial.x_power(m - 2) * IntPolynomial((-1, 0, 1))
        for i in range(1, m):
            assert braid_invariants(generator(m, i)).charpoly == expected
            assert braid_invariants(generator(m, i, -1)).charpoly == expected
    ok("1e", "P(sigma_i) = x^(m-2)(x+1)(x-1) for every generator, m = 2..8")


def test_1f_weaving_formula():
    for m in (3, 5, 7):
        w = family_weaving(m)
        assert braid_invariants(w).charpoly == IntPolynomial.x_power(m)
        assert braid_invariants(iota(w)).charpoly == IntPolynomial.x_power(m + 1)
    ok("1f", "P(W(m,1)) = x^m and P(iota(W(m,1))) = x^(m+1) for m = 3, 5, 7")


def test_1g_family_formulas():
    for m in range(3, 9):
        assert braid_invariants(family_bm(m)).charpoly == family_bm_charpoly(m)
    for m in range(3, 7):
        for k in range(0, 4):
            assert braid_invariants(family_bmk(m, k)).charpoly == family_bmk_charpoly(m, k)
    ok("1g", "both closed-form families reproduced for every m, k in range")


def test_1h_fused_pair(tmp_path, capsys):
    rep_bp = system_invariants(INTRO_BP)
    rep_c = system_invariants(FUSED_C)
    red_bp, red_c = rep_bp.essential, rep_c.essential
    assert (red_bp.zero_mult, red_bp.one_mult, red_bp.neg_one_mult) == (6, 6, 3)
    assert red_bp.core == IntPolynomial((3, 1))
    assert (red_c.zero_mult, red_c.one_mult, red_c.neg_one_mult) == (0, 3, 3)
    assert red_c.core == IntPolynomial((-9, 0, 1))
    assert euler_necessity(INTRO_BP, FUSED_C) == "necessary"

    src = tmp_path / "bp.json"
    src.write_text(json.dumps(INTRO_BP.to_json()))
    script = tmp_path / "fuse.txt"
    script.write_text("FUSE 2 1\nFUSE 2 1\n")
    rc = cli_main(["apply", "--system", str(src), "--script", str(script), "--json"])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert all(step["tau_check"] for step in out["steps"])
    final = BraidSystem.from_json(out["final"])
    assert all(braids_equal(a, b) for a, b in zip(final.components, FUSED_C.components))
    ok("1h", "essential cores x+3 vs x^2-9, necessity flagged, two fusions reach the target")


def test_1i_shadows():
    displayed = [(4, 1, 2, 3), (1, 2, 4, 3), (1, 3, 2, 4), (2, 1, 3, 4)]
    assert [permutation(c).images for c in INTRO_B.components] == displayed
    assert [permutation(c).images for c in INTRO_BP.components] == displayed
    from braidsys import exponent_sum

    shadow_b = [exponent_sum(c) for c in INTRO_B.components]
    shadow_bp = [exponent_sum(c) for c in INTRO_BP.components]
    assert shadow_b == [1, 1, -1, -1] and shadow_bp == [1, -1, 1, -1]
    moved = hurwitz_move(INTRO_B, HurwitzMove(2))
    assert [exponent_sum(c) for c in moved.components] == shadow_bp
    assert system_invariants(INTRO_B).perm_monodromy_order == 24
    assert system_invariants(INTRO_BP).perm_monodromy_order == 24
    ok("1i", "permutation tuple, exponent shadows one move apart, monodromy order 24")


def test_2a_conjugation_invariance():
    rng = random.Random(1001)
    for _ in range(200):
        m = rng.randint(2, 6)
        b = random_word(rng, m, 12)
        base = braid_invariants(b).conjugacy_fields()
        for _ in range(5):
            a = random_word(rng, m, 6)
            assert braid_invariants(conjugate(b, a)).conjugacy_fields() == base
    ok("2a", "200 braids x 5 conjugators: every report field preserved")


def test_2b_hurwitz_invariance():
    # moves chained at the normal-form level (unit tests pin that path to
    # the word-level move); invariants compared after every sequence
    from braidsys import hurwitz_move_nf

    rng = random.Random(1002)
    trace_id = None
    for _ in range(100):
        m = rng.randint(2, 5)
        n = rng.randint(1, 4)
        s = BraidSystem(m, tuple(random_word(rng, m, 6) for _ in range(n)))
        base = system_invariants(s)
        base_trace = normal_form(s.trace_product())
        start = s.normal_forms()
        for _ in range(20):
            current = start
            if n >= 2:
                for _ in range(rng.randint(1, 15)):
                    move = HurwitzMove(rng.randint(1, n - 1), rng.random() < 0.5)
                    current = hurwitz_move_nf(current, move)
            rep = system_invariants_from_normal_forms(m, current)
            assert rep.charpoly_product == base.charpoly_product
            assert rep.charpoly_multiset == base.charpoly_multiset
            assert rep.essential == base.essential
            assert rep.exponent_sums == base.exponent_sums
            trace_id = current[0]
            for nf in current[1:]:
                trace_id = trace_id * nf
            assert trace_id == base_trace
    ok("2b", "100 systems x 20 move sequences: product, multiset, core, trace, sums preserved")


def test_2c_conjugation_and_stabilization_invariance():
    rng = random.Random(1003)
    for _ in range(100):
        m = rng.randint(2, 5)
        n = rng.randint(1, 4)
        s = BraidSystem(m, tuple(random_word(rng, m, 6) for _ in range(n)))
        base = system_invariants(s)
        a = random_word(rng, m, 5)
        conjugated = global_conjugate(s, a)
        rep = system_invariants(conjugated)
        assert rep.essential.core == base.essential.core
        assert rep.degree_plus_length_mod3 == base.degree_plus_length_mod3
        up = stabilize(s)
        rep_up = system_invariants(up)
        assert rep_up.essential.core == base.essential.core
        assert rep_up.degree_plus_length_mod3 == base.degree_plus_length_mod3
        down = destabilize(up)
        assert all(braids_equal(x, y) for x, y in zip(down.components, s.components))
        if n >= 2:
            moved = hurwitz_move(s, HurwitzMove(rng.randint(1, n - 1)))
            assert system_invariants(moved).degree_plus_length_mod3 == base.degree_plus_length_mod3
    ok("2c", "100 systems: essential core and mod-3 class stable under (I)(II)(III)")


def test_2d_structural_coefficients():
    rng = random.Random(1004)
    for _ in range(200):
        m = rng.randint(2, 6)
        b = random_word(rng, m, 10)
        r, M = pure_power_matrix(b)
        assert r == permutation_order(b)
        assert M.is_symmetric()
        assert charpoly(M).coefficient(m - 1) == 0
    for _ in range(50):
        m = rng.randint(2, 4)
        n = rng.randint(1, 4)
        s = BraidSystem(m, tuple(random_word(rng, m, 5) for _ in range(n)))
        assert system_invariants(s).charpoly_product.coefficient(m * n - 1) == 0
    ok("2d", "200 pure powers symmetric; top sub-leading coefficients vanish")


def test_2e_oracle_equivalence():
    rng = random.Random(1005)
    for _ in range(500):
        n = rng.randint(2, 4)
        rows = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                v = rng.randint(-2, 2)
                rows[i][j] = rows[j][i] = v
        assert charpoly(rows) == charpoly_cofactor(rows)
    count = 0
    while count < 50:
        seed_word = parse_word(
            ",".join(str(rng.choice([1, 2])) for _ in range(rng.randint(1, 6))), 3)
        b = power(seed_word, permutation_order(seed_word))
        assert permutation(b).is_identity()
        assert braid_invariants(b).charpoly == pure3_charpoly_oracle(b)
        count += 1
    ok("2e", "500 symmetric matrices match the cofactor oracle; 50 pure 3-braids match the closed form")


def test_2f_orbit_oracle():
    pair = BraidSystem.from_texts(2, ["1", "1"])
    res = hurwitz_orbit(pair)
    assert res.status == "complete" and res.states_visited == 1

    res = hurwitz_orbit(INTRO_B, OrbitLimits(max_states=10_000, max_depth=32))
    assert res.status == "truncated" and res.states_visited == 10_000

    base = system_invariants(INTRO_B).hurwitz_fields()
    count = 0
    for state in orbit_states(INTRO_B, OrbitLimits(max_states=2500, max_depth=32)):
        assert system_invariants_from_normal_forms(4, state).hurwitz_fields() == base
        count += 1
    assert count == 2500
    ok("2f", "closed 1-state orbit; 10^4-state truncation; 2500 orbit states share all invariants")
