"""Span tracing of braidsys from outside the package.

`instrument(tracer)` replaces the public functions of each braidsys layer
with timing wrappers until `tracer.unpatch()`.  Modules import
functions by name (`from .crossing import crossing_matrix`), so a function
is replaced at every binding that refers to it, in every braidsys module;
methods are replaced on their class.

Spans are recorded only inside a root span opened by the benchmark
(`with tracer.root("op"):`), so checks and set-up that run between ops
never show up in the per-layer numbers.  Spans are kept in flat arrays
(name, parent, start, end) and reduced to per-name call counts and self
times only when `summary()` is called, after the traced pass;
`write_spans()` writes them all out.
"""

from __future__ import annotations

import gzip
import sys
import time
from array import array
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        # counters, cache hits and cache misses per root span name
        self.counts: dict[str, dict[str, int]] = defaultdict(lambda: defaultdict(int))
        self.cache_hits: dict[str, dict[str, int]] = defaultdict(lambda: defaultdict(int))
        self.cache_misses: dict[str, dict[str, int]] = defaultdict(lambda: defaultdict(int))
        self._root = ""
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._caches: dict[str, object] = {}

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.start.append(time.perf_counter())
        self.end.append(0.0)
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def root(self, name: str):
        """A top-level span; cache lookups inside it are attributed to it."""
        before = {k: c.cache_info() for k, c in self._caches.items()}
        self._root = name
        idx = self._open(self._id(name))
        try:
            yield
        finally:
            self._close(idx)
            for k, c in self._caches.items():
                info = c.cache_info()
                self.cache_hits[name][k] += info.hits - before[k].hits
                self.cache_misses[name][k] += info.misses - before[k].misses

    def watch_cache(self, name: str, cached) -> None:
        """Count hits and misses of an lru_cache inside root spans."""
        self._caches[name] = cached

    def wrap(self, name: str, fn, count=None):
        """A wrapper that records a span inside a root span; count(counters,
        args, result) adds to the counters of that root."""
        nid = self._id(name)
        stack = self._stack

        def traced(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            idx = self._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if count is not None:
                count(self.counts[self._root], args, result)
            return result

        return traced

    def replace(self, module, attr: str, new) -> None:
        """Bind `new` wherever a braidsys module binds the current module.attr."""
        orig = getattr(module, attr)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "braidsys" or mod_name.startswith("braidsys.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is orig:
                    self._patches.append((mod, key, value))
                    setattr(mod, key, new)

    def replace_method(self, cls, attr: str, new) -> None:
        self._patches.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, new)

    def unpatch(self) -> None:
        while self._patches:
            owner, key, value = self._patches.pop()
            setattr(owner, key, value)

    def summary(self) -> dict[str, dict[str, dict[str, float]]]:
        """Per root name, per span name: calls and self_s."""
        n = len(self.start)
        child = [0.0] * n
        root_of = [0] * n
        for i in range(n):
            p = self.parent[i]
            root_of[i] = i if p < 0 else root_of[p]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        out: dict[str, dict[str, dict[str, float]]] = {}
        for i in range(n):
            root = self.names[self.name[root_of[i]]]
            stats = out.setdefault(root, {}).setdefault(
                self.names[self.name[i]], {"calls": 0, "self_s": 0.0}
            )
            stats["calls"] += 1
            stats["self_s"] += self.end[i] - self.start[i] - child[i]
        return out

    def hit_rate(self, root: str, cache: str) -> float:
        hits, misses = self.cache_hits[root][cache], self.cache_misses[root][cache]
        return hits / (hits + misses) if hits + misses else 0.0

    def write_spans(self, path) -> None:
        """Write every span as gzipped CSV: index, name, parent index (-1 for
        a root span), start and end in perf_counter seconds."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("index,name,parent,start_s,end_s\n")
            for i in range(len(self.start)):
                fh.write(
                    f"{i},{self.names[self.name[i]]},{self.parent[i]},"
                    f"{self.start[i]:.9f},{self.end[i]:.9f}\n"
                )


def _add_len(key: str, pick):
    def count(counts, args, result):
        counts[key] += len(pick(args, result).letters)

    return count


def instrument(tracer: Tracer) -> None:
    """Wrap the layer entry points that the per-layer metrics name."""
    from braidsys import braids, cli, crossing, intlinalg, invariants, moves, orbit, refsuite

    def span(module, attr, name, count=None):
        tracer.replace(module, attr, tracer.wrap(name, getattr(module, attr), count))

    nf_cls = braids.NormalForm
    tracer.replace_method(nf_cls, "__mul__", tracer.wrap("braids.nf_mul", nf_cls.__mul__))
    tracer.replace_method(
        nf_cls, "to_word",
        tracer.wrap("braids.to_word", nf_cls.to_word,
                    _add_len("braids.to_word.letters_out", lambda a, r: r)),
    )
    span(braids, "normal_form", "braids.normal_form",
         _add_len("braids.normal_form.letters_in", lambda a, r: a[0]))
    tracer.watch_cache("braids.nf_inverse", braids._nf_inverse)
    span(braids, "_nf_inverse", "braids.nf_inverse")

    span(crossing, "crossing_matrix", "crossing.crossing_matrix",
         _add_len("crossing.crossing_matrix.letters_in", lambda a, r: a[0]))
    for fn in ("charpoly", "determinant", "rank", "integer_roots"):
        span(intlinalg, fn, f"intlinalg.{fn}")

    tracer.watch_cache("invariants.report", invariants._report_for_normal_form)
    tracer.watch_cache("invariants.group_order", invariants._group_order_cached)
    span(invariants, "braid_invariants", "invariants.braid_invariants")
    span(invariants, "system_invariants", "invariants.system_invariants")
    span(invariants, "permutation_group_order", "invariants.permutation_group_order")
    group_order = invariants._group_order_cached

    def counted_group_order(gens):
        # elements of every group computed afresh (the cache missed)
        misses = group_order.cache_info().misses
        order = group_order(gens)
        if tracer._stack and group_order.cache_info().misses != misses:
            tracer.counts[tracer._root]["invariants.permutation_group_order.elements"] += order
        return order

    tracer.replace(invariants, "_group_order_cached", counted_group_order)

    for fn in ("hurwitz_move_nf", "hurwitz_move", "global_conjugate", "stabilize",
               "destabilize", "euler_fuse"):
        span(moves, fn, f"moves.{fn}")
    span(orbit, "hurwitz_orbit", "orbit.hurwitz_orbit")
    span(refsuite, "run", "refsuite.run")
    span(cli, "main", "cli.main")
