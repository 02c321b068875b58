"""Set union sampling via random permutation (paper §7, Theorem 8).

Problem: ``F`` is a collection of (possibly overlapping) sets over one
domain. Given ``G ⊆ F``, return a uniformly random element of
``∪G``, independently of all previous queries' outputs.

Structure (following Aumüller et al. as refined in the paper):

* randomly permute the distinct elements of ``∪F`` and call an element's
  permutation position its *rank*;
* for each set, index its members by rank (a sorted array standing in for
  the paper's BST — same O(log n + k) rank-range reporting);
* pre-build a KMV sketch for every set of size ≥ log₂ n, so that any
  group's distinct-union size ``U_G`` can be 1.5-approximated by merging
  ``g`` sketches (small sets get on-the-fly sketches).

Query: estimate ``Û_G``, conceptually cut the rank space into ``Û_G``
equal intervals, pick one uniformly, collect the ≤ m = Θ(log n) group
members inside it, then accept the interval with probability
``|∪I|/m`` and output a uniform member. Each accepted output is uniform
over ``∪G`` (the interval length cancels), and Θ(m) repeats are needed in
expectation, for an expected query cost of ``O(g log² n)``.

Per the paper's closing remark, the structure rebuilds itself (fresh
permutation) every ``n`` queries so the failure probability stays bounded
over an unbounded query stream; the amortised rebuild cost is
``O(log n)`` per query.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from typing import Dict, Hashable, List, Optional, Sequence, TypeVar

from repro import obs
from repro.core import kernels
from repro.engine.protocol import EngineOp, EngineSampler
from repro.errors import BuildError, EmptyQueryError, SampleBudgetExceededError
from repro.substrates.rng import RNGLike, ensure_rng
from repro.substrates.sketch import KMVSketch
from repro.validation import validate_sample_size

T = TypeVar("T", bound=Hashable)

# Registry mirrors of the per-instance diagnostics below: the §7 query
# cost is Θ(m)-expected interval attempts per accepted sample, and the
# counters make attempts/query directly assertable.
_SU_QUERIES = obs.counter("set_union.queries", "Set-union samples delivered (§7)")
_SU_ATTEMPTS = obs.counter(
    "set_union.attempts", "Interval-rejection attempts across set-union queries"
)
_SU_CLAMPS = obs.counter(
    "set_union.clamp_events", "Acceptance-cap clamp events (§7 event (4) failures)"
)


class SetUnionSampler(EngineSampler):
    """Theorem 8: O(n) space, O(g log² n) expected query time.

    Parameters
    ----------
    family:
        The collection ``F``; each member is an iterable of hashable
        elements (duplicates within a set are collapsed).
    rng:
        Seed or generator.
    sketch_k:
        Bottom-k size for the distinct-count sketches (k = 64 gives the
        ±50 % accuracy the algorithm needs with large margin).
    cap_constant:
        The ``c`` in ``m = c·log₂ n`` bounding the per-interval member
        count; the acceptance coin uses this ``m``.
    rebuild_after:
        Queries between automatic rebuilds; defaults to ``n`` (the paper's
        standard rebuilding schedule). ``0`` disables rebuilding.
    """

    # Queries advance the rebuild epoch and the attempt counters, so the
    # output depends on request order: not thread-safe (runs in order).
    engine_ops = {
        "sample": EngineOp("sample_many", spawn=True),
    }

    def __init__(
        self,
        family: Sequence[Sequence[T]],
        rng: RNGLike = None,
        sketch_k: int = 64,
        cap_constant: float = 4.0,
        rebuild_after: Optional[int] = None,
    ):
        if len(family) == 0:
            raise BuildError("set family must be non-empty")
        self._family: List[List[T]] = [list(dict.fromkeys(s)) for s in family]
        if all(len(s) == 0 for s in self._family):
            raise BuildError("set family contains only empty sets")
        self._rng = ensure_rng(rng)
        self._sketch_k = sketch_k
        self._cap_constant = cap_constant

        self._total_size = sum(len(s) for s in self._family)  # n in the paper
        if rebuild_after is None:
            rebuild_after = self._total_size
        self._rebuild_after = rebuild_after
        self._queries_since_rebuild = 0

        # Diagnostics exposed for tests and experiment E8.
        self.last_attempts = 0
        self.total_attempts = 0
        self.total_queries = 0
        self.cap_clamp_events = 0
        self.rebuild_count = 0

        self._build()

    # ------------------------------------------------------------------
    # construction / rebuilding
    # ------------------------------------------------------------------

    def _build(self, rng: RNGLike = None) -> None:
        rng = self._rng if rng is None else rng
        universe: List[T] = list(dict.fromkeys(
            element for subset in self._family for element in subset
        ))
        self._universe_size = len(universe)  # U in the paper
        rng.shuffle(universe)
        rank_of: Dict[T, int] = {
            element: position + 1 for position, element in enumerate(universe)
        }
        self._rank_of = rank_of

        # Per set: member ranks sorted ascending, with aligned elements.
        self._set_ranks: List[List[int]] = []
        self._set_items: List[List[T]] = []
        for subset in self._family:
            paired = sorted((rank_of[element], element) for element in subset)
            self._set_ranks.append([rank for rank, _ in paired])
            self._set_items.append([element for _, element in paired])

        n = max(self._total_size, 2)
        self._m_cap = max(1, math.ceil(self._cap_constant * math.log2(n)))
        self._sketch_threshold = max(1.0, math.log2(n))
        self._salt = rng.getrandbits(63)
        self._sketches: List[Optional[KMVSketch]] = []
        for subset in self._family:
            if len(subset) >= self._sketch_threshold:
                self._sketches.append(
                    KMVSketch.from_items(subset, k=self._sketch_k, salt=self._salt)
                )
            else:
                self._sketches.append(None)
        self._queries_since_rebuild = 0

    def rebuild(self, *, rng: RNGLike = None) -> None:
        """Draw a fresh permutation and re-index (the §7 remark)."""
        self.rebuild_count += 1
        self._build(rng)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._family)

    @property
    def total_size(self) -> int:
        """``n``: total size of all the sets."""
        return self._total_size

    @property
    def universe_size(self) -> int:
        """``U``: number of distinct elements in ``∪F``."""
        return self._universe_size

    @property
    def interval_cap(self) -> int:
        """``m = c log₂ n``: per-interval member bound used by the coin."""
        return self._m_cap

    def union_size_estimate(self, group: Sequence[int]) -> float:
        """``Û_G`` from merged sketches, without reading the large sets."""
        merged: Optional[KMVSketch] = None
        for set_index in group:
            sketch = self._sketches[set_index]
            if sketch is None:
                # Small set (size < log₂ n): sketch built on the fly (§7).
                sketch = KMVSketch.from_items(
                    self._family[set_index], k=self._sketch_k, salt=self._salt
                )
            merged = sketch if merged is None else merged.merge(sketch)
        if merged is None:
            raise EmptyQueryError("empty group G")
        return merged.estimate()

    def exact_union_size(self, group: Sequence[int]) -> int:
        """Exact ``U_G`` (reads the sets; for tests and baselines only)."""
        distinct = set()
        for set_index in group:
            distinct.update(self._family[set_index])
        return len(distinct)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    def _members_in_rank_interval(
        self, group: Sequence[int], rank_lo: int, rank_hi: int
    ) -> Dict[int, T]:
        """``∪I``: group members with rank in [rank_lo, rank_hi], deduped.

        The same element appearing in several sets of G carries the same
        rank, so deduplication keys on rank.
        """
        members: Dict[int, T] = {}
        for set_index in group:
            ranks = self._set_ranks[set_index]
            items = self._set_items[set_index]
            lo = bisect_left(ranks, rank_lo)
            hi = bisect_right(ranks, rank_hi)
            for position in range(lo, hi):
                members[ranks[position]] = items[position]
        return members

    def sample(
        self, group: Sequence[int], max_attempts: Optional[int] = None, *, rng: RNGLike = None
    ) -> T:
        """One uniform, independent sample from ``∪G``.

        Raises :class:`EmptyQueryError` if the union is empty and
        :class:`SampleBudgetExceededError` if the Θ(m)-expected-repeats
        loop exceeds its budget (a probability-o(1) event).
        """
        group = list(group)
        if not group:
            raise EmptyQueryError("empty group G")
        for set_index in group:
            if not 0 <= set_index < len(self._family):
                raise IndexError(f"set index {set_index} out of range")
        if all(len(self._family[i]) == 0 for i in group):
            raise EmptyQueryError("union of the queried sets is empty")

        rng = self._rng if rng is None else rng
        if self._rebuild_after and self._queries_since_rebuild >= self._rebuild_after:
            self.rebuild(rng=rng)

        estimate = max(1.0, self.union_size_estimate(group))
        num_intervals = max(1, int(round(estimate)))
        interval_length = self._universe_size / num_intervals
        m = self._m_cap

        budget = max_attempts if max_attempts is not None else 500 * m + 1000
        attempts = 0
        while True:
            attempts += 1
            if attempts > budget:
                self.last_attempts = attempts
                self.total_attempts += attempts
                raise SampleBudgetExceededError(
                    f"set-union sampling exceeded {budget} attempts for G={group!r}"
                )
            j = int(rng.random() * num_intervals)
            if j == num_intervals:
                j -= 1
            rank_lo = int(j * interval_length) + 1
            rank_hi = int((j + 1) * interval_length)
            if rank_hi < rank_lo:
                continue
            members = self._members_in_rank_interval(group, rank_lo, rank_hi)
            if not members:
                continue
            acceptance = len(members) / m
            if acceptance > 1.0:
                # Event (4) of §7 failed for this interval; clamping keeps
                # the output valid with a (bounded, counted) bias.
                self.cap_clamp_events += 1
                if obs.ENABLED:
                    _SU_CLAMPS.inc()
                acceptance = 1.0
            if rng.random() < acceptance:
                ranks = list(members.keys())
                chosen = ranks[int(rng.random() * len(ranks))]
                self.last_attempts = attempts
                self.total_attempts += attempts
                self.total_queries += 1
                self._queries_since_rebuild += 1
                if obs.ENABLED:
                    _SU_QUERIES.inc()
                    _SU_ATTEMPTS.add(attempts)
                return members[chosen]

    def sample_many(self, group: Sequence[int], s: int, *, rng: RNGLike = None) -> List[T]:
        """``s`` independent uniform samples from ``∪G``.

        The batch path runs the same interval-rejection procedure as
        :meth:`sample`, but proposes whole blocks of intervals per numpy
        call: interval choice, rank-range counting (one vectorized binary
        search over the group's merged rank array) and the acceptance
        coins are all batched, and only accepted intervals ever touch
        Python-level code. Rebuild scheduling is preserved by chunking the
        batch at rebuild boundaries.
        """
        validate_sample_size(s)
        rng = self._rng if rng is None else rng
        if not kernels.use_batch(s):
            return [self.sample(group, rng=rng) for _ in range(s)]
        group = list(group)
        if not group:
            raise EmptyQueryError("empty group G")
        for set_index in group:
            if not 0 <= set_index < len(self._family):
                raise IndexError(f"set index {set_index} out of range")
        if all(len(self._family[i]) == 0 for i in group):
            raise EmptyQueryError("union of the queried sets is empty")

        result: List[T] = []
        while len(result) < s:
            if self._rebuild_after and self._queries_since_rebuild >= self._rebuild_after:
                self.rebuild(rng=rng)
            chunk = s - len(result)
            if self._rebuild_after:
                chunk = min(chunk, self._rebuild_after - self._queries_since_rebuild)
            result.extend(self._sample_batch(group, chunk, rng))
        return result

    def _sample_batch(self, group: Sequence[int], count: int, rng: RNGLike) -> List[T]:
        """``count`` batched draws under the current permutation epoch."""
        np = kernels.np
        gen = kernels.batch_generator(rng)

        # Distinct ranks of the group's members under the current
        # permutation (the batched analogue of the per-interval dedup in
        # ``_members_in_rank_interval``), plus one representative element
        # per rank for output materialisation.
        rank_blocks = [
            np.asarray(self._set_ranks[set_index], dtype=np.int64)
            for set_index in group
        ]
        merged, first_seen = np.unique(np.concatenate(rank_blocks), return_index=True)
        all_items: List[T] = []
        for set_index in group:
            all_items.extend(self._set_items[set_index])
        item_by_position = [all_items[j] for j in first_seen.tolist()]

        estimate = max(1.0, self.union_size_estimate(group))
        num_intervals = max(1, int(round(estimate)))
        interval_length = self._universe_size / num_intervals
        m = self._m_cap

        result: List[T] = []
        budget = (500 * m + 1000) * count
        attempts_used = 0
        while len(result) < count:
            if attempts_used >= budget:
                raise SampleBudgetExceededError(
                    f"set-union sampling exceeded {budget} attempts for G={list(group)!r}"
                )
            need = count - len(result)
            block = min(max(64, 2 * need * m), budget - attempts_used, 1 << 17)
            j = np.minimum(
                (gen.random(block) * num_intervals).astype(np.int64), num_intervals - 1
            )
            rank_lo = (j * interval_length).astype(np.int64) + 1
            rank_hi = ((j + 1) * interval_length).astype(np.int64)
            lo_pos = np.searchsorted(merged, rank_lo, side="left")
            hi_pos = np.searchsorted(merged, rank_hi, side="right")
            counts = hi_pos - lo_pos
            occupied = (rank_hi >= rank_lo) & (counts > 0)
            acceptance = counts / m
            clamped = occupied & (acceptance > 1.0)
            coins = gen.random(block)
            accepted = occupied & (coins < np.minimum(acceptance, 1.0))

            # Only attempts up to (and including) the one producing the
            # last needed sample count as "examined" — matching the scalar
            # loop, which stops at the s-th acceptance.
            cumulative = np.cumsum(accepted)
            if cumulative[-1] >= need:
                cutoff = int(np.searchsorted(cumulative, need))
                examined = cutoff + 1
            else:
                cutoff = block - 1
                examined = block
            attempts_used += examined
            self.total_attempts += examined
            clamp_count = int(clamped[: cutoff + 1].sum())
            self.cap_clamp_events += clamp_count
            if obs.ENABLED:
                _SU_ATTEMPTS.add(examined)
                _SU_CLAMPS.add(clamp_count)

            hit = np.nonzero(accepted[: cutoff + 1])[0]
            if len(hit) == 0:
                continue
            picks = gen.random(len(hit))
            positions = lo_pos[hit] + np.minimum(
                (picks * counts[hit]).astype(np.int64), counts[hit] - 1
            )
            result.extend(item_by_position[p] for p in positions.tolist())
            # Batch-path diagnostic: mean attempts per produced sample.
            self.last_attempts = max(1, examined // len(hit))
            self.total_queries += len(hit)
            self._queries_since_rebuild += len(hit)
            if obs.ENABLED:
                _SU_QUERIES.add(len(hit))
        return result
