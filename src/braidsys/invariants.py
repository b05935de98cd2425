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
from .crossing import _pure_power_orbits, crossing_matrix
from .intlinalg import (
    IntPolynomial,
    ReducedPolynomial,
    _is_prime,
    _split_charpoly,
    _split_product,
    integer_roots,
    reduce_poly,
    split_integer_roots,
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
    """An ordered tuple of braid words sharing one degree.

    The components are stored as a tuple, whatever iterable they come in,
    so a system never changes after it is built.  Their normal forms are
    computed at most once, on the first `normal_forms()`; a move that
    keeps the degree (a Hurwitz move, a global conjugation, a fusion)
    computes the forms of the system it returns and hands them on to it
    through `_system` (see `moves`).  The forms are no field: equality,
    hashing and the JSON encoding read the degree and the words alone.
    """

    degree: int
    components: tuple[BraidWord, ...]

    def __post_init__(self):
        d = self.degree
        braids._check_int("system degree", d)
        object.__setattr__(self, "components", tuple(self.components))
        if not self.components:
            raise ValueError("a braid system needs at least one component")
        for c in self.components:
            if not isinstance(c, BraidWord):
                raise TypeError(f"component {c!r} is a {type(c).__name__}, not a BraidWord")
            if c.degree != d:
                raise ValueError(f"component degree {c.degree} != system degree {d}")

    def __len__(self) -> int:
        return len(self.components)

    def trace_product(self) -> BraidWord:
        return BraidWord(self.degree, tuple(k for c in self.components for k in c.letters))

    @functools.cached_property
    def _forms(self) -> tuple[NormalForm, ...]:
        # set by `_system` on the system a move returns
        return tuple(braids.normal_form(c) for c in self.components)

    def normal_forms(self) -> tuple[NormalForm, ...]:
        return self._forms

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


def _system(degree: int, comps: tuple[BraidWord, ...], forms: tuple[NormalForm, ...]) -> BraidSystem:
    """The system of these words, holding `forms`, their normal forms, as theirs."""
    s = BraidSystem(degree, comps)
    object.__setattr__(s, "_forms", forms)  # as the report keeps its _trace_form
    return s


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
        return braids._nf_product(NormalForm(self.degree, 0, ()), *self.normal_forms)


# A report of degree m holds m**2 ints in each of S and S_rows, and its
# form m per factor.  The budget is nearly two 64-component systems' worth
# of reports at degree 32 (about 110), so that one compare or a run of
# apply steps finds its reports again; it bounds the cache under 2.7 MB, and
# reports of degree >= 362 are not kept (README, "Caches").
@braids._weighted_lru(2**18, lambda nf: 128 + nf.degree * (2 * nf.degree + len(nf.factors)))
def _report_for_normal_form(
    nf: NormalForm, b: BraidWord | NormalForm | None = None
) -> BraidInvariantReport:
    # the pure-power matrix M is read off its cycles and orbits, never
    # written; C(b) is the same on every word of a braid, so a word b of nf,
    # when given, is swept in place of the form, and keys nothing
    r, cycles, orbits, S, S_rows = _pure_power_orbits(nf if b is None else b)
    cp = _split_charpoly(list(map(len, cycles)), orbits)
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
    """Permutation order, pure-power crossing matrix, and everything read off it.

    The report is cached by the normal form of b, and on a miss its
    crossing counts come from one sweep of b itself, with no Garside
    inverse and no factor spelled: 64 letters where the form's mixed word
    (`crossing._normal_form_entries`) has 90, for random words of 2m
    letters at m = 32.
    """
    return _report_for_normal_form(braids.normal_form(b), b)


def permutation_group_order(perms) -> int:
    """Order of the subgroup generated by the given permutations: n! or
    n!/2 when Jordan's theorem recognises S_n or A_n, else by Schreier-Sims
    (`_group_order_cached`)."""
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


# A key holds one image tuple per generator.  A miss costs a recognition
# pass, and a Schreier-Sims run only when recognition fails, so the budget
# keeps every group that a 30-second `audit` benchmark run meets again; it
# bounds the cache under 2.2 MB up to degree 256 (README, "Caches").
@braids._weighted_lru(2**18, lambda gens: 128 + sum(map(len, gens)))
def _group_order_cached(gens: tuple[tuple[int, ...], ...]) -> int:
    """The order of the group G the 1-based image tuples `gens` generate.

    G is first tested for being S_n or A_n by Jordan's theorem (Jordan
    1873; Dixon-Mortimer, *Permutation Groups*, 1996, Thms 3.3A and 3.3E):
    a primitive group of degree n that holds a p-cycle, p prime and either
    p <= 3 or p <= n - 3, contains A_n.  The tests run in this order:
    1. G is transitive;
    2. some generator g has exactly one cycle of a prime length p and all
       its other cycle lengths prime to p, so that g^L is a p-cycle, L the
       lcm of the other lengths (no power is computed);
    3. G is primitive: for every point b, the least block holding 0 and b
       is every point (Atkinson 1975).  The stabiliser of 0 carries that
       block for b to the one for h(b), so one b is tried in each orbit of
       the generators that fix 0.  This costs the most, so it runs last.
    Then |G| is n! if some generator is odd and n!/2 if none is.  Any
    other group is left to `_schreier_sims_order`.
    """
    gens0 = [tuple(v - 1 for v in g) for g in gens]
    return _symmetric_order(gens0) or _schreier_sims_order(gens0)


def _symmetric_order(gens: list[tuple[int, ...]]) -> int | None:
    """n! or n!/2 when Jordan's theorem proves that the 0-based `gens`
    generate S_n or A_n (`_group_order_cached`), else None."""
    n = len(gens[0])
    if n == 0 or len(_orbit(gens, 0)) < n or not any(map(_has_lone_prime_cycle, gens)):
        return None  # on no points G is trivial, and Schreier-Sims counts it as 1
    fixers, seen = [g for g in gens if g[0] == 0], {0}
    for b in range(1, n):
        if b not in seen:
            if not _least_block_is_everything(gens, b):
                return None
            seen |= _orbit(fixers, b)
    odd = any((n - len(braids._tup_cycles(g, 0))) % 2 for g in gens)
    return math.factorial(n) // (1 if odd else 2)


def _orbit(gens: list[tuple[int, ...]], x: int) -> set[int]:
    seen, stack = {x}, [x]
    while stack:
        x = stack.pop()
        for g in gens:
            if g[x] not in seen:
                seen.add(g[x])
                stack.append(g[x])
    return seen


def _has_lone_prime_cycle(g: tuple[int, ...]) -> bool:
    """Whether g has exactly one cycle of some prime length p, with
    p <= 3 or p <= n - 3, and every other cycle length prime to p."""
    n, lengths = len(g), [len(c) for c in braids._tup_cycles(g, 0)]
    return any(
        1 < p and (p <= 3 or p <= n - 3) and _is_prime(p)
        and sum(k % p == 0 for k in lengths) == 1
        for p in set(lengths)
    )


def _least_block_is_everything(gens: list[tuple[int, ...]], b: int) -> bool:
    """Whether the least block of the transitive group of `gens` that holds
    0 and b is every point: the classes of a union-find are merged along
    the images of each merged pair until they are closed, or until one
    class holds every point (Atkinson 1975)."""
    n = len(gens[0])
    parent, size = list(range(n)), [1] * n

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = x = parent[parent[x]]
        return x

    parent[b], size[0] = 0, 2
    pairs = [(0, b)]
    while pairs:
        x, y = pairs.pop()
        for g in gens:
            u, v = find(g[x]), find(g[y])
            if u != v:
                if size[u] < size[v]:
                    u, v = v, u
                parent[v] = u
                size[u] += size[v]
                if size[u] == n:
                    return True
                pairs.append((u, v))
    return size[find(0)] == n


def _schreier_sims_order(gens: list[tuple[int, ...]]) -> int:
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
    next, and the order is the product of the transversal sizes.  `gens`
    are 0-based image tuples of one degree.
    """
    n = len(gens[0])
    identity = tuple(range(n))
    strong: list[list[tuple[int, ...]]] = [[] for _ in range(n)]
    trans = [{i: (identity, identity)} for i in range(n)]
    work = [(0, g) for g in gens]
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


def system_invariants_from_normal_forms(
    degree: int, nfs: tuple[NormalForm, ...]
) -> SystemInvariantReport:
    """System invariants computed directly on component normal forms.

    The exponent sum is read off the normal form as well, so no
    word-level representative is needed.  Each component's charpoly comes
    with its integer-root split kept, and the product is built with theirs
    joined, so rendering it or its essential roots makes no divisor scan.
    """
    return _system_report(degree, nfs, nfs)


def system_invariants(s: BraidSystem) -> SystemInvariantReport:
    """`system_invariants_from_normal_forms` of the components' forms, each
    report built on a miss from a sweep of its component, as
    `braid_invariants` builds it."""
    return _system_report(s.degree, s.normal_forms(), s.components)


def _system_report(
    degree: int, nfs: tuple[NormalForm, ...], swept: tuple[BraidWord | NormalForm, ...]
) -> SystemInvariantReport:
    """The report of the system of these forms, `swept[i]` the braid of
    `nfs[i]` that its report sweeps on a miss: a word of it or the form."""
    if not nfs:
        raise ValueError("a braid system needs at least one component")
    charpolys = [_report_for_normal_form(nf, b).charpoly for nf, b in zip(nfs, swept)]
    prod = _split_product([(roots, rest.coeffs) for roots, rest in map(split_integer_roots, charpolys)])
    multiset = tuple(sorted(charpolys, key=poly_sort_key))
    trace = braids._nf_product(NormalForm(degree, 0, ()), *nfs)
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
