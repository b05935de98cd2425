"""Exact crossing-matrix invariants of braids and braid systems."""

from .braids import (
    BraidWord,
    NormalForm,
    Permutation,
    braids_equal,
    canonical_word,
    conjugate,
    exponent_sum,
    free_reduce,
    generator,
    inverse,
    iota,
    is_identity,
    normal_form,
    parse_word,
    permutation,
    permutation_order,
    power,
    product,
)
from .crossing import CrossingMatrix, crossing_matrix, permutation_equivalent, pure_power_matrix
from .intlinalg import (
    IntPolynomial,
    ReducedPolynomial,
    charpoly,
    determinant,
    factored_str,
    integer_roots,
    rank,
    reduce_poly,
)
from .invariants import (
    BraidInvariantReport,
    BraidSystem,
    InvariantCheck,
    SystemComparison,
    SystemInvariantReport,
    braid_invariants,
    compare_systems,
    family_bm,
    family_bm_charpoly,
    family_bmk,
    family_bmk_charpoly,
    family_weaving,
    permutation_group_order,
    pure3_charpoly_oracle,
    system_invariants,
    system_invariants_from_normal_forms,
)
from .moves import (
    HurwitzMove,
    destabilize,
    euler_fission_check,
    euler_fuse,
    euler_necessity,
    global_conjugate,
    hurwitz_act,
    hurwitz_move,
    hurwitz_move_nf,
    stabilize,
    tau,
)
from .orbit import (
    InvarianceReport,
    OrbitLimits,
    OrbitResult,
    find_conjugator,
    hurwitz_orbit,
    orbit_states,
    replay_witness,
    verify_invariance,
)

__version__ = "0.1.0"
