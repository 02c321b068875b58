"""Shared pytest fixtures.

Statistical tests in this suite use fixed seeds and a very small
significance level (ALPHA) so they are deterministic and non-flaky: a
correct sampler fails a chi-square check with probability ~1e-6, and under
a fixed seed the outcome never changes between runs anyway.
"""

import random
import sys
from contextlib import ExitStack
from pathlib import Path

import pytest

# Allow running the suite from a source checkout without installation.
_SRC = Path(__file__).resolve().parent.parent / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

from repro import obs  # noqa: E402  (after the sys.path setup above)

ALPHA = 1e-6


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)


@pytest.fixture
def alpha():
    return ALPHA


def _metrics(enabled: bool):
    """Run a test with metrics on or off on a reset registry.

    The prior enablement is restored and the registry reset on both
    sides, so tests never see each other's counts whatever
    ``REPRO_METRICS`` says.
    """
    saved = obs.ENABLED
    (obs.enable if enabled else obs.disable)()
    obs.reset()
    try:
        yield obs
    finally:
        obs.reset()
        (obs.enable if saved else obs.disable)()


@pytest.fixture
def metrics_on():
    yield from _metrics(True)


@pytest.fixture
def metrics_off():
    yield from _metrics(False)


@pytest.fixture
def force_scalar():
    """A callable that sends every later draw and build to the scalar loops.

    It enters :func:`repro.core.kernels.scalar_loops`, which raises the
    kernels' size cutoffs (``BATCH_MIN_SIZE`` for draws, ``BUILD_MIN_SIZE``
    for table builds) past any input, so the paper's reference loops run
    at every size until the test ends. Both cutoffs are read at call
    time, so call it mid-test to compare a sampler's numpy path against
    its scalar path.
    """
    from repro.core import kernels

    with ExitStack() as stack:
        yield lambda: stack.enter_context(kernels.scalar_loops())
