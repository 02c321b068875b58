"""Dispatch-ladder tier gate: compiled (jit) vs numpy.

The compiled tier's reason to exist is throughput on the batched hot
loops, so this file enforces the regression gate the tier was merged
under: **jit ≥ 3× numpy on alias batched draws at n=10⁵, s=10⁴**. It
skips cleanly when numba is absent.

The machine-readable tier × n × s matrix CI uploads (``BENCH_7.json``) is
produced by ``benchmarks/bench7_report.py``, not this file.
"""

import time

import numpy as np
import pytest

from repro.core import kernels, kernels_jit

GATE_N = 100_000
GATE_S = 10_000
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


@needs_numba
def test_jit_gate_alias_3x_over_numpy(monkeypatch):
    """The compiled tier must hold ≥3× over numpy on alias batched draws.

    n=10⁵ urns, s=10⁴ draws per call — the workload from the tier's
    acceptance criteria. A plain timed assert, so it runs wherever numba
    is installed.
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
