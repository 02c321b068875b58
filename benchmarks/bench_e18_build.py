"""E18 — PR 2: vectorized structure construction.

Regenerates the construction side of the EXPERIMENTS.md E1c/E3c rows:
how long it takes to *build* each sampling structure, forced scalar loops
vs the flat/packed numpy builders, plus the warm-plan-cache query column
for the repeated-range workload.

Quick mode (the CI benchmark-smoke step) shrinks the instance sizes so
the whole file runs in seconds::

    REPRO_BENCH_QUICK=1 pytest benchmarks/bench_e18_build.py --benchmark-only
"""


import pytest

from repro.apps.workloads import zipf_weights
from repro.engine import build
from repro.substrates.bst import StaticBST
from repro.substrates.env import env_flag

QUICK = env_flag("REPRO_BENCH_QUICK")

#: Quick mode keeps the Lemma-2 build (the heaviest structure: O(n log n)
#: urns) under ~100 ms per round so the CI smoke step stays cheap while
#: still exercising every builder's vectorized path.
SIZES = [1 << 12, 1 << 14] if QUICK else [1 << 14, 1 << 17]

BUILDERS = {
    "alias": lambda keys, weights: build("alias", items=keys, weights=weights, rng=2),
    "bst": lambda keys, weights: StaticBST(keys, weights),
    "treewalk": lambda keys, weights: build(
        "range.treewalk", keys=keys, weights=weights, rng=2
    ),
    "lemma2": lambda keys, weights: build(
        "range.lemma2", keys=keys, weights=weights, rng=2
    ),
    "theorem3": lambda keys, weights: build(
        "range.chunked", keys=keys, weights=weights, rng=2
    ),
}


@pytest.fixture(scope="module")
def datasets():
    return {
        n: (list(range(n)), zipf_weights(n, alpha=0.8, rng=1)) for n in SIZES
    }


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("name", list(BUILDERS))
def bench_build(benchmark, datasets, name, n, batch_mode):
    """Scalar-vs-batch construction for every structure touched by PR 2."""
    keys, weights = datasets[n]
    benchmark.group = f"e18-build-{name}-n{n}"
    benchmark.extra_info["mode"] = batch_mode
    benchmark(lambda: BUILDERS[name](keys, weights))
