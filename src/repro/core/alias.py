"""The alias method for weighted set sampling (paper §3.1, Theorem 1).

Walker's alias structure stores ``n`` *urns*, each holding one or two
elements, such that (i) every urn carries total probability mass ``1/n``
and (ii) each element's mass summed over the urns it appears in equals its
normalised weight. A sample is drawn by picking a uniformly random urn and
then flipping one biased coin — constant time, and every draw is
independent of all previous draws, which is exactly the IQS guarantee for
the *weighted set sampling* problem.

The construction below is Vose's numerically robust variant of the urn
preparation described in the paper: it runs in ``O(n)`` time by repeatedly
pairing an underfull element (weight ≤ 1/n) with an overfull one.

The module exposes the raw urn tables (:func:`build_alias_tables`,
:func:`alias_draw`) so that structures storing *many* alias structures —
e.g. one per tree node in the alias-augmentation technique of §4 — can keep
plain arrays instead of objects.
"""

from __future__ import annotations

import math
import random
from typing import Generic, List, Optional, Sequence, Tuple, TypeVar

from repro import obs
from repro.core import kernels
from repro.engine.protocol import EngineOp, EngineSampler
from repro.errors import BuildError
from repro.substrates.rng import RNGLike, ensure_rng
from repro.validation import validate_sample_size, validate_weights

T = TypeVar("T")

#: Theorem-1 cost accounting: every alias-table draw is one O(1) unit.
#: Recorded at call granularity (never inside the per-draw loop), so the
#: disabled path stays within noise of uninstrumented code.
_DRAWS = obs.counter("alias.draws", "Alias-structure draws (Theorem 1, O(1) each)")

AliasTables = Tuple[List[float], List[int]]


def build_alias_tables(weights: Sequence[float]) -> AliasTables:
    """Vose's O(n) urn preparation over ``range(len(weights))``.

    Returns ``(prob, alias)``: urn ``i`` keeps element ``i`` with
    probability ``prob[i]`` and otherwise yields ``alias[i]``. Weights must
    be positive and finite (checked by the caller for speed; this function
    is on the hot path of on-the-fly cover sampling, §5).

    The total is accumulated with :func:`math.fsum` (Shewchuk's exact
    summation), so the scale factor — and hence the urn masses — cannot
    drift under catastrophic cancellation even for millions of weights
    spanning many orders of magnitude. The numpy fast path lives in
    :func:`repro.core.kernels.build_alias_tables_batch`; this function is
    the authoritative scalar reference, used below ``BUILD_MIN_SIZE``.
    """
    n = len(weights)
    if n == 0:
        raise BuildError("cannot build alias tables over an empty set")
    scale = n / math.fsum(weights)
    scaled = [w * scale for w in weights]  # mean is exactly 1

    prob = [0.0] * n
    alias = list(range(n))

    small = [i for i, w in enumerate(scaled) if w < 1.0]
    large = [i for i, w in enumerate(scaled) if w >= 1.0]

    while small and large:
        underfull = small.pop()
        overfull = large.pop()
        prob[underfull] = scaled[underfull]
        alias[underfull] = overfull
        # The overfull element donates mass (1 - scaled[underfull]).
        scaled[overfull] -= 1.0 - scaled[underfull]
        if scaled[overfull] < 1.0:
            small.append(overfull)
        else:
            large.append(overfull)

    # Residual urns hold a single element with full mass. Entries left in
    # `small` at this point exist only because of floating-point rounding.
    for queue in (large, small):
        while queue:
            prob[queue.pop()] = 1.0

    return prob, alias


def alias_draw(prob: Sequence[float], alias: Sequence[int], rng: random.Random) -> int:
    """One O(1) draw from pre-built urn tables."""
    n = len(prob)
    urn = int(rng.random() * n)
    if urn == n:  # guard against random() rounding to 1.0
        urn = n - 1
    if rng.random() < prob[urn]:
        return urn
    return alias[urn]


class AliasSampler(EngineSampler, Generic[T]):
    """O(n)-space structure drawing independent weighted samples in O(1).

    Parameters
    ----------
    items:
        The elements of the set ``S``. May be any Python objects.
    weights:
        Positive weights, one per item. ``None`` means uniform weights.
    rng:
        Integer seed or ``random.Random``; defaults to a fixed seed.

    Examples
    --------
    >>> sampler = AliasSampler(["a", "b", "c"], [1.0, 2.0, 7.0], rng=42)
    >>> sampler.sample() in {"a", "b", "c"}
    True
    """

    __slots__ = (
        "_items",
        "_items_view",
        "_prob",
        "_alias",
        "_total_weight",
        "_weights",
        "_rng",
        "_np_tables",
    )

    engine_ops = {
        "sample": EngineOp("sample_many"),
        "sample_indices": EngineOp("sample_indices"),
    }
    engine_thread_safe = True

    def __init__(
        self,
        items: Sequence[T],
        weights: Optional[Sequence[float]] = None,
        rng: RNGLike = None,
    ):
        if len(items) == 0:
            raise BuildError("AliasSampler requires a non-empty item set")
        if weights is None:
            weights = [1.0] * len(items)
        if len(weights) != len(items):
            raise BuildError(f"got {len(items)} items but {len(weights)} weights")
        cleaned = validate_weights(weights, context="AliasSampler")
        self._items: List[T] = list(items)
        self._items_view: Tuple[T, ...] = tuple(self._items)
        self._weights = cleaned
        self._total_weight = float(sum(cleaned))
        self._rng = ensure_rng(rng)
        if kernels.use_batch_build(len(cleaned)):
            np_prob, np_alias = kernels.build_alias_tables_batch(cleaned)
            # Keep the list views for the scalar draw path and the numpy
            # views for the batch path — built once, no lazy re-packing.
            self._prob = np_prob.tolist()
            self._alias = np_alias.tolist()
            self._np_tables = (np_prob, np_alias)
        else:
            self._prob, self._alias = build_alias_tables(cleaned)
            self._np_tables = None  # numpy copy of the urn tables, built lazily

    # ------------------------------------------------------------------
    # sampling
    # ------------------------------------------------------------------

    def sample_index(self) -> int:
        """Draw the index of one weighted sample in O(1)."""
        if obs.ENABLED:
            _DRAWS.inc()
        return alias_draw(self._prob, self._alias, self._rng)

    def sample(self) -> T:
        """Draw one independent weighted sample in O(1) (Theorem 1)."""
        return self._items[self.sample_index()]

    def sample_many(self, s: int, *, rng: RNGLike = None) -> List[T]:
        """Draw ``s`` independent weighted samples in O(s).

        Dispatches to the vectorized alias kernel when ``s`` is large
        enough to amortise the kernel call. ``rng``
        overrides the instance stream for this call (engine batching).
        """
        validate_sample_size(s)
        items = self._items
        if kernels.use_batch(s):
            return [items[i] for i in self._batch_indices(s, rng)]
        if obs.ENABLED:
            _DRAWS.add(s)
        prob, alias = self._prob, self._alias
        rng = self._rng if rng is None else rng
        return [items[alias_draw(prob, alias, rng)] for _ in range(s)]

    def sample_indices(self, s: int, *, rng: RNGLike = None) -> List[int]:
        """Draw ``s`` independent sample indices in O(s)."""
        validate_sample_size(s)
        if kernels.use_batch(s):
            return self._batch_indices(s, rng)
        if obs.ENABLED:
            _DRAWS.add(s)
        prob, alias = self._prob, self._alias
        rng = self._rng if rng is None else rng
        return [alias_draw(prob, alias, rng) for _ in range(s)]

    def _batch_indices(self, s: int, rng: RNGLike = None) -> List[int]:
        if obs.ENABLED:
            _DRAWS.add(s)
        if self._np_tables is None:
            self._np_tables = kernels.as_alias_arrays(self._prob, self._alias)
        prob, alias = self._np_tables
        gen = kernels.batch_generator(self._rng if rng is None else rng)
        return kernels.alias_draw_batch(prob, alias, s, gen).tolist()

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._items)

    @property
    def items(self) -> Sequence[T]:
        """The underlying item set (read-only view, cached at build time)."""
        return self._items_view

    @property
    def total_weight(self) -> float:
        """Sum of all weights, ``W`` in the paper's notation."""
        return self._total_weight

    def probability(self, index: int) -> float:
        """Exact probability that :meth:`sample_index` returns ``index``.

        Recovered from the urn table; used by tests to check condition (2)
        of §3.1 — the per-element urn masses must sum to ``w(e)/W``.
        """
        n = len(self._items)
        mass = self._prob[index] / n
        for urn, partner in enumerate(self._alias):
            if partner == index and self._prob[urn] < 1.0:
                mass += (1.0 - self._prob[urn]) / n
        return mass

    def expected_probability(self, index: int) -> float:
        """Target probability ``w(e)/W`` for the element at ``index``."""
        return self._weights[index] / self._total_weight
