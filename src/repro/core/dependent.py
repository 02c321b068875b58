"""The conventional *dependent* query-sampling baseline (paper §2).

Preprocessing fixes one random permutation of ``S`` and defines each
element's *rank* as its permutation position. A WoR query ``([x, y], s)``
returns the ``s`` elements of ``S_q`` with the lowest ranks — a perfectly
valid random WoR sample of ``S_q`` in isolation, retrievable in
``O(log n + s)``-flavoured time.

What it deliberately lacks is *cross-query* independence: repeating the
same query always returns the same set, and overlapping queries return
correlated samples. The independence diagnostics in
:mod:`repro.stats.independence` flag exactly this structure, and experiment
E11 shows how it breaks the long-run failure-concentration guarantee of
Benefit 1.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import List, Sequence

from repro.core.schemes import wr_from_wor
from repro.engine.protocol import EngineOp, RangeQueryMixin
from repro.errors import BuildError, EmptyQueryError
from repro.substrates.minrank_tree import MinRankTree
from repro.substrates.rng import RNGLike, ensure_rng
from repro.validation import validate_range_bounds, validate_sample_size


class DependentRangeSampler(RangeQueryMixin):
    """Range sampling without cross-query independence (§2)."""

    # The fixed preprocessing permutation is the whole point of this
    # baseline, so there is no per-request stream to thread through —
    # seeded requests swap the conversion randomness only.
    engine_ops = {
        "sample": EngineOp("sample_with_replacement", takes_s=True, pass_rng=False),
        "sample_wor": EngineOp(
            "sample_without_replacement", takes_s=True, pass_rng=False
        ),
    }
    engine_thread_safe = False

    def sample(self, x: float, y: float, s: int) -> List[float]:
        """Alias for :meth:`sample_with_replacement` (protocol entry)."""
        return self.sample_with_replacement(x, y, s)

    def __init__(self, keys: Sequence[float], rng: RNGLike = None):
        if len(keys) == 0:
            raise BuildError("DependentRangeSampler requires at least one key")
        self._rng = ensure_rng(rng)
        ordered = sorted(keys)
        for i in range(1, len(ordered)):
            if not ordered[i - 1] < ordered[i]:
                raise BuildError("keys must be distinct")
        # The one random permutation fixed at preprocessing time.
        ranks = list(range(len(ordered)))
        self._rng.shuffle(ranks)
        self._tree = MinRankTree(ordered, ranks)

    def __len__(self) -> int:
        return len(self._tree)

    @property
    def keys(self) -> List[float]:
        return self._tree.keys

    def sample_without_replacement(self, x: float, y: float, s: int) -> List[float]:
        """A WoR sample of size ``s`` from ``S ∩ [x, y]``.

        Correctly uniform over size-``s`` subsets *per query*, but repeating
        the query reproduces the identical output — the dependence the
        paper's IQS definition (eq. 1) forbids.
        """
        validate_sample_size(s)
        validate_range_bounds(x, y)
        hits = self._tree.lowest_ranked_in_range(x, y, s)
        if not hits:
            raise EmptyQueryError(f"no keys in [{x}, {y}]")
        if len(hits) < s:
            raise EmptyQueryError(
                f"range [{x}, {y}] holds {len(hits)} < s={s} keys (WoR needs s <= |S_q|)"
            )
        keys = self._tree.keys
        return [keys[index] for _, index in hits]

    def sample_with_replacement(self, x: float, y: float, s: int) -> List[float]:
        """A WR sample of size ``s`` via the O(s) WoR→WR conversion (§2).

        The conversion consumes fresh randomness, so two calls differ in
        *pattern*, but they keep drawing from the same low-rank elements —
        still dependent across queries.
        """
        validate_sample_size(s)
        validate_range_bounds(x, y)
        population = self._count(x, y)
        if population == 0:
            raise EmptyQueryError(f"no keys in [{x}, {y}]")
        wor = self._tree.lowest_ranked_in_range(x, y, min(s, population))
        keys = self._tree.keys
        wor_keys = [keys[index] for _, index in wor]
        return wr_from_wor(wor_keys, population, rng=self._rng, size=s)

    def _count(self, x: float, y: float) -> int:
        keys = self._tree.keys
        return bisect_right(keys, y) - bisect_left(keys, x)
