"""Reproduce the hand-timed baseline figures of the ROADMAP.

    python3 benchmarks/baseline.py [--repeats 3] [--seed 1] [--out benchmarks/BENCH_baseline.json]

Times, on cleared caches each repetition:
- hurwitz_orbit on INTRO_B with a 10k-state budget;
- braid_invariants (and normal_form alone) on a random word of length 300
  on 32 strands;
- system_invariants on a degree-8 system whose monodromy is all of S_8.

Writes the median, the minimum and the repetition count of each wall time,
the median normalized the way run.py normalizes op times, the Python
version and nproc, as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from braidsys import braids, invariants, orbit, refsuite  # noqa: E402

from run import clear_caches, reference_median, speed  # noqa: E402
from workloads import AuditWorkload, rand_word  # noqa: E402

# The hand-timed ROADMAP figures (2-core x86-64 VM, Python 3.10) reproduced here.
ROADMAP_S = {
    "orbit_intro_b_10k_states": 3.7,
    "braid_invariants_m32_L300": 5.5,
    "normal_form_m32_L300": 5.6,
    "system_invariants_full_s8": 0.5,
}


def timed(fn, repeats: int) -> dict:
    """Wall times, and the same scaled to the benchmark's reference speed."""
    times, scaled = [], []
    for _ in range(repeats):
        clear_caches()
        ref = reference_median()
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
        scaled.append(times[-1] * speed(statistics.median([ref, reference_median()])))
    return {"median_s": statistics.median(times), "min_s": min(times), "n": repeats,
            "normalized_median_s": statistics.median(scaled)}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--repeats", type=int, default=3)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--out", default=str(HERE / "BENCH_baseline.json"))
    args = p.parse_args(argv)

    rng = random.Random(args.seed)
    intro_b = invariants.BraidSystem.from_texts(4, refsuite.INTRO_B)
    word = braids.BraidWord(32, rand_word(rng, 32, 300))
    s8 = AuditWorkload()._system(rng, 8, full=True)
    s8 = invariants.BraidSystem(8, tuple(braids.BraidWord(8, w) for w in s8))
    if invariants.system_invariants(s8).perm_monodromy_order != 40320:
        raise SystemExit("the degree-8 system does not have full S_8 monodromy")

    limits = orbit.OrbitLimits(max_states=10_000)
    results = {
        "orbit_intro_b_10k_states": timed(lambda: orbit.hurwitz_orbit(intro_b, limits), args.repeats),
        "braid_invariants_m32_L300": timed(lambda: invariants.braid_invariants(word), args.repeats),
        "normal_form_m32_L300": timed(lambda: braids.normal_form(word), args.repeats),
        "system_invariants_full_s8": timed(lambda: invariants.system_invariants(s8), args.repeats),
    }
    results["orbit_intro_b_10k_states"]["states_per_s"] = (
        10_000 / results["orbit_intro_b_10k_states"]["median_s"])
    for name, figure in ROADMAP_S.items():
        results[name]["roadmap_s"] = figure

    report = {
        "command": "python3 benchmarks/baseline.py --repeats %d --seed %d" % (args.repeats, args.seed),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "inputs": {
            "braid_word_m32": word.to_text(),
            "system_full_s8": [c.to_text() for c in s8.components],
        },
        "results": results,
    }
    Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
    for name, r in results.items():
        print(f"{name:<28} median {r['median_s']:8.3f} s  min {r['min_s']:8.3f} s  "
              f"normalized {r['normalized_median_s']:8.3f} s  n={r['n']}  (roadmap {r['roadmap_s']} s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
