"""braidsys benchmark: one workload, one seed, one process, one thread.

    python3 benchmarks/run.py --workload orbit --seed 1 --seconds 30 --trace 0

Ops run in a closed loop: the next op starts only after the previous one
returned and was checked.  With --trace 0 the ops run untraced in whole
rounds until --seconds of op time have passed, and the end-to-end metrics
are printed.  With --trace 1 a fixed number of rounds (so that every count
repeats exactly for a seed) runs twice on cleared caches, first untraced
and then traced, and the per-layer metrics are printed together with the
tracing overhead and the peak memory of a short pass under tracemalloc.
Every span of the traced pass is written to
.bench_work/spans-<workload>-<seed>.csv.gz.  Every metric is printed by
name with its unit; the last line of standard output is one JSON object
for machines.  The exit code is 0 only if every op passed its check.

Set-up (input generation and the correctness gate) runs several times on
cleared caches, and setup_s is the import time plus the median set-up.
Every time is scaled to a fixed machine speed by a reference loop timed
next to it (see REFERENCE_S and speed()); memory and counts are not scaled.
The benchmark imports braidsys from the `src/` directory beside its own
directory and nowhere else, and fails with exit code 2 without it.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import tracemalloc
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5
# The speed of a shared machine can change by 2x within a minute, so every
# time is normalized by a fixed reference loop timed next to it: the
# reported times are those of a machine on which reference_seconds() takes
# REFERENCE_S (a calm 2-core x86-64 VM at 2.0 GHz, Python 3.11).  When the
# machine slowed down, op times of all three workloads grew by about the
# 0.7th power of the reference time, not in proportion, so times are
# scaled by that ratio to the power SPEED_EXPONENT.
REFERENCE_S = 0.0023
SPEED_EXPONENT = 0.7
REF_WINDOW = 3
# Rounds of inputs generated per second of --seconds, 2-3x today's rate; a
# run that uses them all stops early and reports the op time it measured.
ROUNDS_PER_SECOND = {"orbit": 4.0, "invariants": 4.0, "audit": 2.0}
TRACE_ROUNDS = {"orbit": 10, "invariants": 10, "audit": 6}
# rounds of the traced run's memory pass, which runs about 3x slower
MEMORY_ROUNDS = {"orbit": 2, "invariants": 2, "audit": 1}
REFSUITE_ROWS = 38

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mb": "MB",
    "ok_op_frac": "ratio",
}


def per_layer_units() -> dict[str, str]:
    units = {}
    for base, fields in [
        ("braids.normal_form", ("calls", "self_s", "letters_in")),
        ("braids.to_word", ("self_s", "letters_out")),
        ("braids.nf_mul", ("calls", "self_s")),
        ("braids.nf_inverse", ("calls", "cache_hit_rate")),
        ("crossing.crossing_matrix", ("calls", "self_s", "letters_in")),
        ("intlinalg.charpoly", ("calls", "self_s")),
        ("intlinalg.determinant", ("calls", "self_s")),
        ("intlinalg.rank", ("calls", "self_s")),
        ("intlinalg.integer_roots", ("calls", "self_s")),
        ("invariants.permutation_group_order", ("calls", "self_s", "elements")),
        ("invariants", ("group_order_cache_hit_rate", "report_cache_hit_rate")),
        ("invariants.braid_invariants", ("self_s",)),
        ("invariants.system_invariants", ("self_s",)),
        ("moves.hurwitz_move_nf", ("calls", "self_s")),
        ("moves.hurwitz_move", ("self_s",)),
        ("moves.global_conjugate", ("self_s",)),
        ("moves.stabilize", ("self_s",)),
        ("moves.destabilize", ("self_s",)),
        ("moves.euler_fuse", ("self_s",)),
        ("orbit.hurwitz_orbit", ("self_s",)),
        ("orbit", ("states_visited", "new_state_ratio", "states_per_s")),
        ("refsuite.run", ("self_s",)),
        ("cli.main", ("self_s",)),
        ("cli", ("json_bytes_out",)),
        ("trace", ("ops", "overhead_frac")),
        ("mem", ("peak_mb",)),
    ]:
        for field in fields:
            unit = "1/s" if field.endswith("_per_s") else "s" if field.endswith("_s") else (
                "MB" if field.endswith("_mb") else
                "ratio" if field.endswith(("_rate", "_ratio", "_frac")) else "count")
            units[f"{base}.{field}"] = unit
    return units


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(ROUNDS_PER_SECOND))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_braidsys() -> float:
    if not (SRC / "braidsys" / "__init__.py").is_file():
        print(f"error: no braidsys sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import braidsys  # noqa: F401
    from braidsys import cli, orbit, refsuite  # noqa: F401

    elapsed = time.perf_counter() - t0
    if Path(braidsys.__file__).resolve().parent != SRC / "braidsys":
        print(f"error: braidsys imported from {braidsys.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)
    return elapsed


def clear_caches() -> None:
    """Empty every lru_cache in braidsys, as in a fresh process."""
    for name, mod in list(sys.modules.items()):
        if name == "braidsys" or name.startswith("braidsys."):
            for value in vars(mod).values():
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


def gate() -> str | None:
    """The reference suite must pass in full in both over-strand conventions."""
    from braidsys import refsuite

    for flipped in (False, True):
        rows, ok = refsuite.run(flipped=flipped)
        if not ok or len(rows) != REFSUITE_ROWS:
            passed = sum(r.ok for r in rows)
            return f"refsuite {passed}/{len(rows)} (flipped={flipped}), expected {REFSUITE_ROWS}/{REFSUITE_ROWS}"
    return None


def _reference_work() -> int:
    """Fixed pure-Python work: a set of 3000 permutation tuples, built by
    composing and reversing 8-tuples.  Among the loops tried, this one
    tracked the slow-downs of all three workloads' ops best."""
    seen = set()
    p, g = tuple(range(1, 9)), (2, 3, 4, 5, 6, 7, 8, 1)
    for i in range(3000):
        p = tuple(g[v - 1] for v in p) if i % 3 else p[::-1]
        seen.add((p, i))
    return len(seen)


def reference_seconds() -> float:
    """Time of _reference_work, with garbage collection off so that the size
    of braidsys's heap cannot change it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        _reference_work()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def normalized(raw: list[float], refs: list[float]) -> list[float]:
    """Scale each time to a machine on which the reference loop takes
    REFERENCE_S, using the median reference time of the nearby ops."""
    out = []
    for i, t in enumerate(raw):
        near = refs[max(0, i - REF_WINDOW): i + REF_WINDOW + 1]
        out.append(t * speed(statistics.median(near)))
    return out


def speed(ref: float) -> float:
    """Factor from this moment's op times to those at the reference speed."""
    return (REFERENCE_S / ref) ** SPEED_EXPONENT


@dataclass
class Pass:
    raw: list[float] = field(default_factory=list)  # wall seconds of each op
    refs: list[float] = field(default_factory=list)  # reference loop just before it
    failures: list[str] = field(default_factory=list)
    counts: Counter = field(default_factory=Counter)  # Workload.counts summed
    peaks: list[int] = field(default_factory=list)  # traced bytes at each op's peak

    @property
    def times(self) -> list[float]:
        return normalized(self.raw, self.refs)


def run_ops(wl, ops, tracer=None, stop_after=None) -> Pass:
    """Run ops in order, checking each outside its timed span.  With
    stop_after, stop at the first round boundary after that much op time."""
    result = Pass()
    per_round = len(wl.params["round"])
    root = tracer.root if tracer is not None else lambda name: contextlib.nullcontext()
    for i, op in enumerate(ops):
        if stop_after is not None and sum(result.raw) >= stop_after and i % per_round == 0:
            break
        result.refs.append(reference_seconds())
        error = None
        with root("op"):
            if tracemalloc.is_tracing():
                tracemalloc.reset_peak()
            t0 = time.perf_counter()
            try:
                out = wl.run(op)
            except Exception as exc:  # an op that raises counts as failed
                out, error = None, f"{type(exc).__name__}: {exc}"
            result.raw.append(time.perf_counter() - t0)
            if tracemalloc.is_tracing():
                result.peaks.append(tracemalloc.get_traced_memory()[1])
        if error is None:
            try:
                error = wl.check(op, out)
                result.counts.update(wl.counts(out))
            except Exception as exc:  # output the check cannot read
                error = f"check: {type(exc).__name__}: {exc}"
        if error is not None:
            result.failures.append(f"op {i} ({op.kind}): {error}")
    return result


def reference_median(n: int = 3) -> float:
    return statistics.median(reference_seconds() for _ in range(n))


def setup(wl, seed: int, rounds: int, workdir: Path):
    """Generate the inputs and pass the gate, SETUP_REPEATS times, each on
    cleared caches; returns the median normalized and raw set-up times."""
    raw, norm, ops, error = [], [], None, None
    for _ in range(SETUP_REPEATS):
        clear_caches()
        ref = reference_median()
        t0 = time.perf_counter()
        ops = wl.generate(seed, rounds, workdir)
        error = gate()
        raw.append(time.perf_counter() - t0)
        norm.append(raw[-1] * speed(statistics.median([ref, reference_median()])))
    return statistics.median(norm), statistics.median(raw), ops, error


def end_to_end(run: Pass, setup_s: float) -> dict[str, float]:
    times = run.times
    n = len(times)
    return {
        "setup_s": setup_s,
        "ops_per_s": n / sum(times),
        "op_p50_ms": 1000 * statistics.median(times),
        "op_p90_ms": 1000 * statistics.quantiles(times, n=10)[-1],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ok_op_frac": (n - len(run.failures)) / n,
    }


def per_layer(wl, ops, spans_path=None):
    """Per-layer metrics of a traced pass, after an untraced pass of the same
    ops for the overhead; returns (metrics, ops attempted, failures).  The
    spans of the traced pass are written to spans_path, if given."""
    from tracing import Tracer, instrument

    clear_caches()
    plain = run_ops(wl, ops)
    clear_caches()
    tracer = Tracer()
    instrument(tracer)
    try:
        with tracer.root("gate"):
            gate_error = gate()
        clear_caches()
        traced = run_ops(wl, ops, tracer=tracer)
    finally:
        tracer.unpatch()
    memory = memory_pass(wl, ops[:MEMORY_ROUNDS[wl.name] * len(wl.params["round"])])
    failures = (plain.failures + traced.failures + memory.failures
                + ([gate_error] if gate_error else []))
    if spans_path:
        spans_path.parent.mkdir(parents=True, exist_ok=True)
        tracer.write_spans(spans_path)

    # span times are scaled by the traced pass's mean speed factor
    scale = sum(traced.times) / sum(traced.raw)
    summary = tracer.summary()
    op_spans, gate_spans = summary.get("op", {}), summary.get("gate", {})
    metrics = {}
    for name in per_layer_units():
        base, kind = name.rsplit(".", 1)
        if kind == "calls":
            metrics[name] = op_spans.get(base, {}).get("calls", 0)
        elif kind == "self_s":
            metrics[name] = scale * op_spans.get(base, {}).get("self_s", 0.0)
    counts = tracer.counts["op"]
    metrics.update({
        "braids.normal_form.letters_in": counts["braids.normal_form.letters_in"],
        "braids.to_word.letters_out": counts["braids.to_word.letters_out"],
        "braids.nf_inverse.cache_hit_rate": tracer.hit_rate("op", "braids.nf_inverse"),
        "crossing.crossing_matrix.letters_in": counts["crossing.crossing_matrix.letters_in"],
        "invariants.permutation_group_order.elements":
            counts["invariants.permutation_group_order.elements"],
        "invariants.group_order_cache_hit_rate": tracer.hit_rate("op", "invariants.group_order"),
        "invariants.report_cache_hit_rate": tracer.hit_rate("op", "invariants.report"),
        "orbit.states_visited": traced.counts["orbit.states_visited"],
        "orbit.new_state_ratio": traced.counts["orbit.states_visited"]
        / max(1, op_spans.get("moves.hurwitz_move_nf", {}).get("calls", 0)),
        "orbit.states_per_s": plain.counts["orbit.states_visited"] / sum(plain.times),
        "refsuite.run.self_s": scale * gate_spans.get("refsuite.run", {}).get("self_s", 0.0),
        "cli.json_bytes_out": traced.counts["cli.json_bytes_out"],
        "trace.ops": len(traced.raw),
        "trace.overhead_frac": sum(traced.times) / sum(plain.times) - 1,
        "mem.peak_mb": max(memory.peaks) / 2**20,
    })
    return metrics, len(plain.raw) + len(traced.raw) + len(memory.raw), failures


def memory_pass(wl, ops) -> Pass:
    """Run ops on cleared caches under tracemalloc; each of the pass's
    `peaks` is the most bytes allocated during one op, counted from the
    start of the pass, so that it holds what earlier ops left behind in
    the caches but not the checks' temporaries."""
    clear_caches()
    gc.collect()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        result = run_ops(wl, ops)
    finally:
        tracemalloc.stop()
    result.peaks = [p - start for p in result.peaks]
    return result


def main(argv=None) -> int:
    args = parse_args(argv)
    t_start = time.perf_counter()
    import_s = import_braidsys()
    import_s *= speed(reference_median())
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload]()
    if args.trace:
        rounds = TRACE_ROUNDS[args.workload]
    else:
        rounds = max(2, int(args.seconds * ROUNDS_PER_SECOND[args.workload]) + 1)
    workdir = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    spans_path = ROOT / ".bench_work" / f"spans-{args.workload}-{args.seed}.csv.gz"
    wall = {}
    try:
        setup_s, wall["setup_s"], ops, gate_error = setup(wl, args.seed, rounds, workdir)
        setup_s += import_s
        setup_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if gate_error is not None:
            metrics, attempted, failures = {}, 1, [gate_error]
        elif args.trace:
            metrics, attempted, failures = per_layer(wl, ops, spans_path)
        else:
            run = run_ops(wl, ops, stop_after=args.seconds)
            metrics = end_to_end(run, setup_s)
            attempted, failures = len(run.raw), run.failures
            wall.update({
                "ops_per_s": len(run.raw) / sum(run.raw),
                "op_p50_ms": 1000 * statistics.median(run.raw),
                "op_p90_ms": 1000 * statistics.quantiles(run.raw, n=10)[-1],
                "speed": speed(statistics.median(run.refs)),
            })
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    units = per_layer_units() if args.trace else END_TO_END_UNITS
    print(f"# braidsys benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print(f"# python={platform.python_version()} nproc={len(os.sched_getaffinity(0))} "
          f"ops={attempted} failed={len(failures)} wall_s={time.perf_counter() - t_start:.1f}")
    print(f"# generator: {json.dumps({'rounds': rounds, **wl.params})}")
    print("# wall clock, not normalized: "
          + " ".join(f"{k}={v:.4g}" for k, v in wall.items()))
    print(f"# peak RSS after set-up, before the first op: {setup_rss_mb:.1f} MB")
    if args.trace and gate_error is None:
        print(f"# spans of the traced pass: {spans_path.relative_to(ROOT)}")
    for failure in failures[:20]:
        print(f"# FAILED {failure}")
    for name, unit in units.items():
        if name in metrics:
            print(f"{name:<46} {metrics[name]:>16.6f} {unit}")
    correct = not failures and gate_error is None
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items() if name in metrics},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
