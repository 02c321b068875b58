"""E19 — design-choice ablations: the knobs DESIGN.md calls out, swept.

* Theorem 3's chunk size (the paper picks Θ(log n): tiny chunks blow up
  the chunk-level cover, huge chunks blow up the partial-chunk scans);
* the EM range sampler's pool size (refill amortisation vs space);
* the fair-NN grid count L (candidate quality vs set-family size);
* the Theorem-8 sketch size k (estimate accuracy vs merge cost).
"""

from __future__ import annotations

from repro.apps.workloads import (
    clustered_points,
    distinct_uniform_reals,
    overlapping_sets,
    zipf_weights,
)
from repro.em.model import EMMachine
from repro.engine import build
from repro.experiments.runner import ExperimentResult, time_per_call


def _us_per_query(fn, queries: int) -> float:
    return time_per_call(fn, repeats=3, inner=queries) * 1e6


def run(quick: bool = False) -> ExperimentResult:
    result = ExperimentResult(
        experiment_id="e19",
        title="Design-choice ablations (chunk size, EM pool, fair-NN grids, sketch k)",
        claim="each knob trades query time against space or accuracy; rows record the time side",
        columns=["knob", "value", "us_per_query"],
    )
    queries = 4 if quick else 100

    n = 1 << 12 if quick else 1 << 15
    keys = distinct_uniform_reals(n, rng=1)
    weights = zipf_weights(n, rng=2)
    x, y = keys[n // 10], keys[9 * n // 10]
    for chunk_size in (2, 15, 120, 1000):
        sampler = build("range.chunked", keys=keys, weights=weights, rng=3, chunk_size=chunk_size)
        us = _us_per_query(lambda: sampler.sample(x, y, 16), queries)
        result.add_row("chunk_size", chunk_size, us)

    values = [float(i) for i in range(1 << 10 if quick else 1 << 12)]
    for pool_blocks in (1, 4, 16):
        machine = EMMachine(block_size=64, memory_blocks=16)
        em = build("range.em", machine=machine, values=values, rng=4, pool_blocks=pool_blocks)
        em.query(values[0], values[-1], 64)  # warm
        us = _us_per_query(lambda: em.query(values[0], values[-1], 64), queries)
        result.add_row("pool_blocks", pool_blocks, us)

    points = clustered_points(1_000 if quick else 5_000, 2, clusters=8, spread=0.05, rng=5)
    for num_grids in (1, 2, 4):
        fair = build("fair_nn", points=points, radius=0.05, num_grids=num_grids, rng=6)
        us = _us_per_query(lambda: fair.sample(points[0]), queries)
        result.add_row("num_grids", num_grids, us)

    family = overlapping_sets(10, 200 if quick else 1000, 600 if quick else 3000, rng=7)
    group = list(range(6))
    for sketch_k in (8, 64, 256):
        union = build("setunion", family=family, rng=8, sketch_k=sketch_k, rebuild_after=0)
        us = _us_per_query(lambda: union.sample(group), queries)
        result.add_row("sketch_k", sketch_k, us)

    result.add_note(f"chunk_size: range.chunked, n = {n}, 80% span, s = 16")
    result.add_note(f"pool_blocks: range.em, B = 64, M/B = 16, n = {len(values)}, full span, s = 64")
    result.add_note(f"num_grids: fair_nn, {len(points)} clustered 2D points, r = 0.05")
    result.add_note("sketch_k: setunion, 10 overlapping sets, union of 6 per query")
    return result
