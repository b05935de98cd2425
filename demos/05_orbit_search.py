"""
Bounded orbit search
====================

The Hurwitz orbit of a system is explored breadth-first, with states
keyed by component normal forms.  A completed search that never reaches
a target certifies non-equivalence; a truncated one promises nothing.
Random move hammering doubles as a brute-force invariance check.
"""

from braidsys import (
    BraidSystem,
    OrbitLimits,
    hurwitz_move,
    HurwitzMove,
    hurwitz_orbit,
    replay_witness,
    verify_invariance,
)

# an orbit that closes immediately: both components equal
pair = BraidSystem.from_texts(2, ["1", "1"])
print("orbit of (s1, s1):", hurwitz_orbit(pair))

# find a path back to a scrambled copy of a small system
src = BraidSystem.from_texts(3, ["1", "2", "1"])
tgt = hurwitz_move(hurwitz_move(src, HurwitzMove(1)), HurwitzMove(2))
res = hurwitz_orbit(src, OrbitLimits(max_states=5000, max_depth=10), target=tgt)
print("\ntarget search:", res.status, "witness:", [str(m) for m in res.witness])
replayed = replay_witness(src, res.witness)
print("witness replays to target:", [c.to_text() for c in replayed.components])

# a big orbit gets truncated at the state cap
bvec = BraidSystem.from_texts(4, ["1,2,-3", "3", "-2", "-1"])
res = hurwitz_orbit(bvec, OrbitLimits(max_states=2000, max_depth=32))
print("\nlarge orbit:", res.status, "after", res.states_visited, "states")

# hammer the system with random moves; every invariant must survive
report = verify_invariance(bvec, trials=30, seed=2024)
print("\ninvariance hammering:", "all passed" if report.passed else report.failures,
      f"({report.moves_applied} moves)")
