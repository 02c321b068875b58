"""Shared fixtures for the benchmark suite.

Each bench_eXX file regenerates the timing side of one EXPERIMENTS.md
experiment (the shape/series side lives in ``python -m repro.experiments``).
Run with::

    pytest benchmarks/ --benchmark-only
"""

import os
import sys
from pathlib import Path

import pytest

_SRC = Path(__file__).resolve().parent.parent / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))


def pytest_sessionfinish(session, exitstatus):
    """With metrics on, leave a sidecar JSON of the run's counters.

    The path comes from ``REPRO_METRICS_SIDECAR`` (default
    ``benchmarks/metrics-sidecar.json``); CI uploads it as an artifact so
    per-query cost accounting rides along with the timing numbers.
    """
    from repro import obs

    if not obs.ENABLED:
        return
    default = str(Path(__file__).resolve().parent / "metrics-sidecar.json")
    path = os.environ.get(obs.ENV_SIDECAR, default)
    obs.write_sidecar(
        path,
        obs.snapshot(),
        extra={"suite": "benchmarks", "exitstatus": int(exitstatus)},
    )


@pytest.fixture(params=["scalar", "batch"])
def batch_mode(request, monkeypatch):
    """Run a benchmark under both sampling paths for A/B comparison.

    ``scalar`` raises the kernels' size cutoffs past any input, forcing
    the pure-Python draw and build loops (the seed behaviour); ``batch``
    keeps the size-selected numpy dispatch. EXPERIMENTS.md records the
    measured ratio.
    """
    from repro.core import kernels

    if request.param == "scalar":
        monkeypatch.setattr(kernels, "BATCH_MIN_SIZE", sys.maxsize)
        monkeypatch.setattr(kernels, "BUILD_MIN_SIZE", sys.maxsize)
    return request.param
