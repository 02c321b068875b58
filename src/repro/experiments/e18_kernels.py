"""E18 — vectorized kernels and plan reuse: each fast path against its baseline.

Three groups, one row per (subject, size), each pairing a baseline with
the fast path it is meant to beat:

* ``draw`` (EXPERIMENTS.md E1b, E3b) — large-batch draws on the forced
  scalar loops vs the numpy kernels;
* ``build`` (E1c, E3c) — structure construction on the scalar loops vs
  the flat/packed numpy builders;
* ``plan`` (E3c) — a hot-span workload with the query-plan cache off
  (capacity 0) vs on.

The scalar side runs inside :func:`repro.core.kernels.scalar_loops`, so
both the build and the draws of that sampler take the reference loops.
"""

from __future__ import annotations

import time

from repro.apps.workloads import distinct_uniform_reals, interval_with_selectivity, zipf_weights
from repro.core import kernels
from repro.engine import build
from repro.experiments.runner import ExperimentResult
from repro.substrates.bst import StaticBST

RANGE_SPECS = ("range.treewalk", "range.lemma2", "range.chunked")

BUILDERS = {
    "alias": lambda keys, weights: build("alias", items=keys, weights=weights, rng=2),
    "bst": StaticBST,
    "range.treewalk": lambda k, w: build("range.treewalk", keys=k, weights=w, rng=2),
    "range.lemma2": lambda k, w: build("range.lemma2", keys=k, weights=w, rng=2),
    "range.chunked": lambda k, w: build("range.chunked", keys=k, weights=w, rng=2),
}

#: The E3c plan-reuse workload: (spec, s) pairs over HOT_SPANS spans of
#: |S_q| ≈ 3% of n, PLAN_QUERIES queries per timed round.
PLAN_CASES = (
    ("range.treewalk", 1),
    ("range.treewalk", 4),
    ("range.treewalk", 8),
    ("range.chunked", 1),
    ("range.chunked", 8),
)
HOT_SPANS = 16
PLAN_QUERIES = 160


def _scalar(fn):
    """``fn`` run on the forced scalar loops."""

    def call():
        with kernels.scalar_loops():
            return fn()

    return call


def _timed_row(result, group, subject, n, s, baseline, fast, repeats, per=1) -> None:
    """Add a row timing ``baseline`` against ``fast`` in ms per ``per`` calls'
    worth of work: best of ``repeats`` each, timed alternately so load drift
    on a shared machine hits both sides alike."""
    best = [float("inf"), float("inf")]
    for _ in range(repeats):
        for side, fn in enumerate((baseline, fast)):
            started = time.perf_counter()
            fn()
            best[side] = min(best[side], (time.perf_counter() - started) / per)
    result.add_row(group, subject, n, s, best[0] * 1e3, best[1] * 1e3, best[0] / best[1])


def _draw_rows(result, n, s, repeats) -> None:
    items = list(range(n))
    weights = zipf_weights(n, rng=1)
    with kernels.scalar_loops():
        slow = build("alias", items=items, weights=weights, rng=3)
    fast = build("alias", items=items, weights=weights, rng=3)
    for method in ("sample_many", "sample_indices"):
        baseline = _scalar(lambda: getattr(slow, method)(s))
        batch = lambda: getattr(fast, method)(s)
        baseline(), batch()  # warm lazy kernel caches
        _timed_row(result, "draw", f"alias.{method}", n, s, baseline, batch, repeats)

    keys = distinct_uniform_reals(n, rng=1)
    weights = zipf_weights(n, alpha=0.8, rng=2)
    x, y = interval_with_selectivity(keys, 0.5, rng=3)
    for spec in RANGE_SPECS:
        with kernels.scalar_loops():
            slow = build(spec, keys=keys, weights=weights, rng=6)
        fast = build(spec, keys=keys, weights=weights, rng=6)
        baseline = _scalar(lambda: slow.sample(x, y, s))
        batch = lambda: fast.sample(x, y, s)
        baseline(), batch()  # warm lazy kernel caches
        _timed_row(result, "draw", spec, n, s, baseline, batch, repeats)


def _build_rows(result, sizes, repeats) -> None:
    for n in sizes:
        keys = list(range(n))
        weights = zipf_weights(n, alpha=0.8, rng=1)
        for name, make in BUILDERS.items():
            batch = lambda: make(keys, weights)
            _timed_row(result, "build", name, n, "-", _scalar(batch), batch, repeats)


def _plan_rows(result, n, repeats) -> None:
    keys = distinct_uniform_reals(n, rng=1)
    weights = zipf_weights(n, alpha=0.8, rng=2)
    spans = [interval_with_selectivity(keys, 0.03, rng=10 + i) for i in range(HOT_SPANS)]
    workload = [spans[i % HOT_SPANS] for i in range(PLAN_QUERIES)]
    for spec, s in PLAN_CASES:
        rounds = []
        for cache_size in (0, None):
            sampler = build(spec, keys=keys, weights=weights, rng=8, plan_cache_size=cache_size)

            def round_of_queries(sampler=sampler):
                for x, y in workload:
                    sampler.sample(x, y, s)

            round_of_queries()  # prime the plans (a no-op when disabled)
            rounds.append(round_of_queries)
        _timed_row(result, "plan", spec, n, s, *rounds, repeats, per=PLAN_QUERIES)


def run(quick: bool = False) -> ExperimentResult:
    result = ExperimentResult(
        experiment_id="e18",
        title="Vectorized kernels and plan reuse (E1b, E1c, E3b, E3c)",
        claim="batch draws and builds beat the scalar loops; a warm plan cache beats a cold one",
        columns=["group", "subject", "n", "s", "baseline_ms", "fast_ms", "speedup"],
    )
    if quick:
        _draw_rows(result, n=1 << 12, s=1 << 10, repeats=3)
        _build_rows(result, sizes=[1 << 12], repeats=2)
        _plan_rows(result, n=1 << 12, repeats=3)
    else:
        _draw_rows(result, n=100_000, s=10_000, repeats=5)
        _build_rows(result, sizes=[1 << 14, 1 << 17], repeats=5)
        _plan_rows(result, n=100_000, repeats=5)
    result.add_note(
        "draw/build: baseline = forced scalar loops, fast = numpy dispatch; "
        "draw rows use selectivity 0.5 for the range samplers"
    )
    result.add_note(
        f"plan: baseline = plan cache off, fast = default cache; ms per query over "
        f"{HOT_SPANS} hot spans of |S_q| ≈ 3% of n, {PLAN_QUERIES} queries per round"
    )
    return result
