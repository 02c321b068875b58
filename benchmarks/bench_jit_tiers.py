"""Dispatch-ladder tier benches: scalar vs numpy vs compiled (jit).

The compiled tier's reason to exist is throughput on the batched hot
loops, so this file records the tier curves for the two draw kernels the
ladder serves (alias draws, BST top-down walks) and enforces the
regression gate the tier was merged under: **jit ≥ 3× numpy on alias
batched draws at n=10⁵, s=10⁴**. Everything jit-specific skips cleanly
when numba is absent — the numpy and scalar rungs are benched everywhere.

``REPRO_BENCH_QUICK=1`` shrinks workloads for smoke runs. The
machine-readable tier × n × s matrix CI uploads (``BENCH_7.json``) is
produced by ``benchmarks/bench7_report.py``, not this file.
"""

import time

import numpy as np
import pytest

from repro.core import kernels, kernels_jit
from repro.substrates.env import env_flag

QUICK = env_flag("REPRO_BENCH_QUICK")

GATE_N = 10_000 if QUICK else 100_000
GATE_S = 2_000 if QUICK else 10_000
GATE_SPEEDUP = 3.0

needs_numba = pytest.mark.skipif(
    not kernels_jit.HAVE_NUMBA, reason="requires the [jit] extra (numba)"
)


def make_alias_tables(n, seed=5):
    gen = np.random.default_rng(seed)
    return kernels.build_alias_tables_batch(gen.random(n) + 0.05)


def best_of(fn, repeats=5):
    """Best wall time of ``repeats`` runs (the standard perf-smoke shape)."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


# -- recorded tier curves ----------------------------------------------


def bench_alias_numpy_tier(benchmark, monkeypatch):
    prob, alias = make_alias_tables(GATE_N)
    gen = np.random.default_rng(1)
    monkeypatch.setattr(kernels, "HAVE_JIT", False)
    benchmark.group = "jit-tier-alias"
    benchmark(lambda: kernels.alias_draw_batch(prob, alias, GATE_S, gen))


@needs_numba
def bench_alias_jit_tier(benchmark, monkeypatch):
    prob, alias = make_alias_tables(GATE_N)
    gen = np.random.default_rng(1)
    monkeypatch.setattr(kernels, "HAVE_JIT", True)
    kernels_jit.warmup()
    benchmark.group = "jit-tier-alias"
    benchmark(lambda: kernels.alias_draw_batch(prob, alias, GATE_S, gen))


def bench_bst_walk_numpy_tier(benchmark, monkeypatch):
    from repro.substrates.bst import StaticBST

    n = 4_096 if QUICK else 32_768
    gen = np.random.default_rng(3)
    tree = StaticBST([float(i) for i in range(n)], (gen.random(n) + 0.1).tolist())
    left, right, node_weight, _ = tree.packed_arrays()
    starts = np.full(GATE_S, tree.root, dtype=np.intp)
    monkeypatch.setattr(kernels, "HAVE_JIT", False)
    benchmark.group = "jit-tier-bst"
    benchmark(
        lambda: kernels.bst_topdown_batch(
            np.asarray(left, dtype=np.intp),
            np.asarray(right, dtype=np.intp),
            np.asarray(node_weight, dtype=np.float64),
            starts,
            np.random.default_rng(1),
        )
    )


@needs_numba
def bench_bst_walk_jit_tier(benchmark, monkeypatch):
    from repro.substrates.bst import StaticBST

    n = 4_096 if QUICK else 32_768
    gen = np.random.default_rng(3)
    tree = StaticBST([float(i) for i in range(n)], (gen.random(n) + 0.1).tolist())
    left, right, node_weight, _ = tree.packed_arrays()
    starts = np.full(GATE_S, tree.root, dtype=np.intp)
    monkeypatch.setattr(kernels, "HAVE_JIT", True)
    kernels_jit.warmup()
    benchmark.group = "jit-tier-bst"
    benchmark(
        lambda: kernels.bst_topdown_batch(
            np.asarray(left, dtype=np.intp),
            np.asarray(right, dtype=np.intp),
            np.asarray(node_weight, dtype=np.float64),
            starts,
            np.random.default_rng(1),
        )
    )


# -- the merge gate ----------------------------------------------------


@needs_numba
def test_jit_gate_alias_3x_over_numpy(monkeypatch):
    """The compiled tier must hold ≥3× over numpy on alias batched draws.

    n=10⁵ urns, s=10⁴ draws per call — the workload from the tier's
    acceptance criteria. Plain assert (not pytest-benchmark) so it runs
    in the default suite wherever numba is installed.
    """
    prob, alias = make_alias_tables(GATE_N)
    gen = np.random.default_rng(1)
    kernels_jit.warmup()
    # One uncounted call per tier: absorbs lazy numba loading artifacts.
    monkeypatch.setattr(kernels, "HAVE_JIT", False)
    kernels.alias_draw_batch(prob, alias, GATE_S, gen)
    numpy_time = best_of(lambda: kernels.alias_draw_batch(prob, alias, GATE_S, gen))
    monkeypatch.setattr(kernels, "HAVE_JIT", True)
    kernels.alias_draw_batch(prob, alias, GATE_S, gen)
    jit_time = best_of(lambda: kernels.alias_draw_batch(prob, alias, GATE_S, gen))
    speedup = numpy_time / jit_time
    assert speedup >= GATE_SPEEDUP, (
        f"jit tier only {speedup:.2f}x over numpy on alias draws "
        f"(n={GATE_N}, s={GATE_S}); the gate is {GATE_SPEEDUP}x"
    )
