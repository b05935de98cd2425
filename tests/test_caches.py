"""The global caches: the weighted least-recently-used cache they share,
the byte bound the README states for the report cache, and the contract
the benchmark relies on."""

import gc
import importlib
import pkgutil
import random
import sys
import threading
import tracemalloc

import pytest

import braidsys
from braidsys import braids, invariants
from braidsys.braids import BraidWord, _weighted_lru, normal_form
from oracles import random_word


def _upper(budget: int, calls: list):
    """A cache of str.upper weighing each key by its length, that logs
    every call it does not answer from the cache."""
    @_weighted_lru(budget, len)
    def upper(key: str) -> str:
        calls.append(key)
        return key.upper()

    return upper


def test_the_least_recently_used_entry_is_evicted():
    calls = []
    upper = _upper(6, calls)
    assert [upper(k) for k in ("ab", "cd", "ab", "ef")] == ["AB", "CD", "AB", "EF"]
    assert upper.cache_info() == (1, 3, 3, 6)  # hits, misses, entries, weight held
    upper("gh")  # "cd" is the least recently used, since "ab" was hit
    upper("ab")
    upper("ef")
    assert calls == ["ab", "cd", "ef", "gh"]
    upper("cd")  # now "gh" is
    upper("gh")
    assert calls == ["ab", "cd", "ef", "gh", "cd", "gh"]
    assert upper.cache_info() == (3, 6, 3, 6)


def test_a_heavy_entry_evicts_as_many_light_ones_as_it_needs():
    calls = []
    upper = _upper(6, calls)
    for k in "abcd":
        upper(k)
    assert upper.cache_info().weight == 4
    upper("wxyz")  # 8 units held: "a" and "b" go
    assert upper.cache_info() == (0, 5, 3, 6)
    upper("c"), upper("d"), upper("wxyz")
    assert upper.cache_info().hits == 3
    upper("a")
    assert calls == ["a", "b", "c", "d", "wxyz", "a"]


def test_an_entry_heavier_than_the_budget_is_returned_but_not_kept():
    calls = []
    upper = _upper(6, calls)
    upper("abc")
    assert upper("abcdefg") == upper("abcdefg") == "ABCDEFG"
    assert calls == ["abc", "abcdefg", "abcdefg"]
    assert upper.cache_info() == (0, 3, 1, 3)
    upper("abc")
    assert upper.cache_info().hits == 1


def test_cache_clear_resets_the_entries_and_the_counts():
    calls = []
    upper = _upper(6, calls)
    upper("ab"), upper("ab")
    upper.cache_clear()
    assert upper.cache_info() == (0, 0, 0, 0)
    upper("ab")
    assert calls == ["ab", "ab"] and upper.cache_info() == (0, 1, 1, 2)


def test_concurrent_callers_lose_no_count_and_keep_the_bound():
    calls = []
    upper = _upper(10, calls)
    keys = ["a", "bb", "ccc", "dddd", "e", "ff", "ggg"]
    n_threads, n_calls = 4, 3000
    wrong = []

    def work(seed):
        rng = random.Random(seed)
        for _ in range(n_calls):
            key = rng.choice(keys)
            if upper(key) != key.upper():
                wrong.append(key)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(seed,)) for seed in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not wrong
    info = upper.cache_info()
    assert info.hits + info.misses == n_threads * n_calls
    assert info.misses == len(calls)
    assert info.currsize <= info.weight <= 10


# The README's bound: the report cache holds at most 2**18 weight units,
# and under 2.7 MB.
REPORT_CACHE_BYTES = 2.7e6


def test_distinct_degree_64_reports_stay_under_the_stated_bytes():
    rng = random.Random(64)
    m = 64
    forms = {normal_form(BraidWord(m, tuple(rng.choice((1, -1)) * rng.randint(1, m - 1)
                                            for _ in range(m))))
             for _ in range(40)}
    report = invariants._report_for_normal_form
    report(next(iter(forms)))  # the codebook of the degree is built outside the count
    report.cache_clear()
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for nf in forms:
            report(nf)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    info = report.cache_info()
    report.cache_clear()
    assert info.misses == len(forms) > info.currsize  # the budget evicted reports
    assert 0.9 * 2**18 < info.weight <= 2**18
    assert held < REPORT_CACHE_BYTES


def test_every_module_level_cache_clear_takes_no_argument():
    # the benchmark empties the caches between passes by calling cache_clear()
    # on every module attribute that has one, classes included
    modules = [braidsys] + [importlib.import_module(f"braidsys.{m.name}")
                            for m in pkgutil.iter_modules(braidsys.__path__)]
    cleared = set()
    for mod in modules:
        for name, value in vars(mod).items():
            if callable(getattr(value, "cache_clear", None)):
                value.cache_clear()
                cleared.add(f"{mod.__name__}.{name}")
    assert cleared == {
        "braidsys.braids._book",
        "braidsys.braids._nf_inverse",
        "braidsys.cli._parser",
        "braidsys.codec._keys",
        "braidsys.invariants._report_for_normal_form",
        "braidsys.invariants._group_order_cached",
    }


_NF = normal_form(BraidWord(4, (1, -2, 3, 1)))


@pytest.mark.parametrize("cached, arg", [
    (braids._nf_inverse, _NF),
    (invariants._report_for_normal_form, _NF),
    (invariants._group_order_cached, ((2, 1, 3, 4), (1, 3, 4, 2))),
], ids=["nf_inverse", "report", "group_order"])
def test_the_traced_caches_count_hits_and_misses(cached, arg):
    # the benchmark's tracer reads these two counts of the three caches
    cached.cache_clear()
    assert cached(arg) == cached(arg)
    info = cached.cache_info()
    assert (info.hits, info.misses, info.currsize) == (1, 1, 1)
    cached.cache_clear()


def test_the_canonical_spelling_touches_no_inverse_cache():
    # to_word and the reports of forms read the complements of a negative
    # infimum's prefix off the codebook, so they leave the inverse cache,
    # which the moves' own inverses fill, as it was
    rng = random.Random(48)
    forms = [normal_form(random_word(rng, m, 6 * m)) for m in (3, 4, 5, 6, 9) for _ in range(4)]
    forms = [nf for nf in forms if nf.infimum < 0 and nf.factors]
    assert len(forms) >= 5 and len({nf.degree for nf in forms}) >= 3
    braids._nf_inverse.cache_clear()
    before = braids._nf_inverse.cache_info()
    for nf in forms:
        nf.to_word()
    assert braids._nf_inverse.cache_info() == before
    invariants._report_for_normal_form.cache_clear()
    for nf in forms:
        invariants.system_invariants_from_normal_forms(nf.degree, (nf, nf))
    assert braids._nf_inverse.cache_info() == before
