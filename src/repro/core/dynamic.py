"""Dynamic weighted set sampling (paper §9, Direction 1).

The paper flags dynamization as the first open direction: support
insertions and deletions in the input set while still drawing independent
weighted samples fast. Two classic designs are implemented:

* :class:`FenwickDynamicSampler` — a Fenwick tree over slot weights;
  ``O(log n)`` insert/delete/update and ``O(log n)`` per sample via
  inverse-CDF search. Simple, exact, and the update bound matches what Hu
  et al. [18] achieve for their dynamic WR structure.
* :class:`BucketDynamicSampler` — elements grouped by weight scale
  (``2^j ≤ w < 2^{j+1}``), following the rejection idea behind the optimal
  integer-weight structures the paper cites [16]: pick a group
  proportionally to its total (O(#groups), with #groups =
  O(log(w_max/w_min))), then rejection-sample inside the group with
  acceptance ≥ 1/2. Updates are O(1) amortised.

Every sample consumes fresh randomness, so outputs stay mutually
independent across queries *and* across updates.
"""

from __future__ import annotations

import math
from typing import Dict, Generic, List, Tuple, TypeVar

from repro import obs
from repro.core import kernels
from repro.engine.protocol import EngineOp, EngineSampler
from repro.errors import EmptyQueryError, InvalidWeightError
from repro.substrates.fenwick import FenwickTree
from repro.substrates.rng import RNGLike, ensure_rng
from repro.validation import validate_sample_size

T = TypeVar("T")

_FENWICK_DRAWS = obs.counter(
    "dynamic.fenwick.draws", "Fenwick dynamic-sampler draws (O(log n) each)"
)
_BUCKET_DRAWS = obs.counter(
    "dynamic.bucket.draws", "Bucket dynamic-sampler accepted draws"
)
_BUCKET_REJECTIONS = obs.counter(
    "dynamic.bucket.rejections",
    "Bucket-sampler rejected proposals (acceptance >= 1/2, so expected <= 1/draw)",
)

_TOMBSTONE = object()


def _check_weight(weight: float) -> float:
    value = float(weight)
    if math.isnan(value) or math.isinf(value) or value <= 0:
        raise InvalidWeightError(f"weight must be positive and finite, got {weight!r}")
    return value


class FenwickDynamicSampler(EngineSampler, Generic[T]):
    """O(log n) updates and samples via a Fenwick tree over slot weights."""

    engine_ops = {
        "sample": EngineOp("sample_many", spawn=True),
    }
    # A query writes nothing but the rare exact Fenwick rebuild, which
    # recomputes the same tree from the weights whatever the order.
    engine_thread_safe = True

    def __init__(self, rng: RNGLike = None, initial_capacity: int = 16):
        self._rng = ensure_rng(rng)
        capacity = max(4, initial_capacity)
        self._tree = FenwickTree(size=capacity)
        self._items: List[object] = [_TOMBSTONE] * capacity
        self._weights: List[float] = [0.0] * capacity
        self._free: List[int] = list(range(capacity - 1, -1, -1))
        self._size = 0

    def __len__(self) -> int:
        return self._size

    @property
    def total_weight(self) -> float:
        return self._tree.total

    def insert(self, item: T, weight: float) -> int:
        """Insert an element; returns a handle for later delete/update."""
        value = _check_weight(weight)
        if not self._free:
            self._grow()
        slot = self._free.pop()
        self._items[slot] = item
        self._weights[slot] = value
        self._tree.add(slot, value)
        self._size += 1
        return slot

    def delete(self, handle: int) -> T:
        """Remove the element behind ``handle``; O(log n)."""
        item = self._item_at(handle)
        self._tree.add(handle, -self._weights[handle])
        self._items[handle] = _TOMBSTONE
        self._weights[handle] = 0.0
        self._free.append(handle)
        self._size -= 1
        return item  # type: ignore[return-value]

    def update_weight(self, handle: int, weight: float) -> None:
        """Change an element's weight in place; O(log n)."""
        value = _check_weight(weight)
        self._item_at(handle)
        self._tree.add(handle, value - self._weights[handle])
        self._weights[handle] = value

    def sample(self, *, rng: RNGLike = None) -> T:
        """One independent weighted sample in O(log n)."""
        if self._size == 0:
            raise EmptyQueryError("sampler is empty")
        if obs.ENABLED:
            _FENWICK_DRAWS.inc()
        rng = self._rng if rng is None else rng
        for _ in range(4):
            target = rng.random() * self._tree.total
            slot = self._tree.find_prefix(target)
            if self._items[slot] is not _TOMBSTONE:
                return self._items[slot]  # type: ignore[return-value]
        # Float residue on a freed slot steered the search astray (mass
        # ~1e-16); rebuild the tree exactly and retry.
        self._rebuild_tree()
        target = rng.random() * self._tree.total
        return self._items[self._tree.find_prefix(target)]  # type: ignore[return-value]

    def sample_many(self, s: int, *, rng: RNGLike = None) -> List[T]:
        """``s`` independent weighted samples.

        The batch path replaces ``s`` Fenwick descents with one prefix-sum
        pass plus a vectorized binary search over all targets: O(n + s
        log n) numpy work instead of O(s log n) interpreted work.
        """
        validate_sample_size(s)
        rng = self._rng if rng is None else rng
        if self._size > 0 and kernels.use_batch(s):
            return self._sample_many_batch(s, rng)
        return [self.sample(rng=rng) for _ in range(s)]

    def _sample_many_batch(self, s: int, rng: RNGLike) -> List[T]:
        if obs.ENABLED:
            _FENWICK_DRAWS.add(s)
        np = kernels.np
        gen = kernels.batch_generator(rng)
        cum = np.cumsum(np.asarray(self._weights, dtype=np.float64))
        slots = kernels.inverse_cdf_draw_batch(cum, s, gen)
        items = self._items
        result: List[T] = []
        for slot in slots.tolist():
            value = items[slot]
            if value is _TOMBSTONE:
                # Float-boundary stray onto a zero-weight slot; redraw.
                value = self.sample(rng=rng)
            result.append(value)  # type: ignore[arg-type]
        return result

    def _item_at(self, handle: int) -> T:
        if not 0 <= handle < len(self._items) or self._items[handle] is _TOMBSTONE:
            raise KeyError(f"no live element behind handle {handle}")
        return self._items[handle]  # type: ignore[return-value]

    def _grow(self) -> None:
        old_capacity = len(self._items)
        new_capacity = old_capacity * 2
        self._items.extend([_TOMBSTONE] * old_capacity)
        self._weights.extend([0.0] * old_capacity)
        self._free.extend(range(new_capacity - 1, old_capacity - 1, -1))
        self._rebuild_tree()

    def _rebuild_tree(self) -> None:
        self._tree = FenwickTree(self._weights)


class BucketDynamicSampler(EngineSampler, Generic[T]):
    """Power-of-two weight buckets with in-bucket rejection ([16]-style).

    Expected O(#buckets) per sample, O(1) amortised per update. With
    weights spanning a polynomial range the bucket count is O(log n),
    and the in-bucket rejection accepts with probability ≥ 1/2.
    """

    engine_ops = {
        "sample": EngineOp("sample_many", spawn=True),
    }
    engine_thread_safe = True

    def __init__(self, rng: RNGLike = None):
        self._rng = ensure_rng(rng)
        # bucket exponent j -> parallel (items, weights) lists
        self._bucket_items: Dict[int, List[object]] = {}
        self._bucket_weights: Dict[int, List[float]] = {}
        self._bucket_total: Dict[int, float] = {}
        # handle -> (bucket, index); handles are stable across swap-removals
        self._locator: Dict[int, Tuple[int, int]] = {}
        self._handle_at: Dict[Tuple[int, int], int] = {}
        self._next_handle = 0
        self._size = 0
        self._total = 0.0

    def __len__(self) -> int:
        return self._size

    @property
    def total_weight(self) -> float:
        return self._total

    @property
    def bucket_count(self) -> int:
        return len(self._bucket_items)

    @staticmethod
    def _bucket_of(weight: float) -> int:
        return math.frexp(weight)[1] - 1  # floor(log2 w)

    def insert(self, item: T, weight: float) -> int:
        value = _check_weight(weight)
        bucket = self._bucket_of(value)
        items = self._bucket_items.setdefault(bucket, [])
        weights = self._bucket_weights.setdefault(bucket, [])
        index = len(items)
        items.append(item)
        weights.append(value)
        self._bucket_total[bucket] = self._bucket_total.get(bucket, 0.0) + value
        handle = self._next_handle
        self._next_handle += 1
        self._locator[handle] = (bucket, index)
        self._handle_at[(bucket, index)] = handle
        self._size += 1
        self._total += value
        return handle

    def delete(self, handle: int) -> T:
        if handle not in self._locator:
            raise KeyError(f"no live element behind handle {handle}")
        bucket, index = self._locator.pop(handle)
        items = self._bucket_items[bucket]
        weights = self._bucket_weights[bucket]
        item = items[index]
        weight = weights[index]
        del self._handle_at[(bucket, index)]

        last = len(items) - 1
        if index != last:
            # Swap-remove; re-point the moved element's handle.
            moved_handle = self._handle_at.pop((bucket, last))
            items[index] = items[last]
            weights[index] = weights[last]
            self._locator[moved_handle] = (bucket, index)
            self._handle_at[(bucket, index)] = moved_handle
        items.pop()
        weights.pop()

        if items:
            self._bucket_total[bucket] -= weight
            if self._bucket_total[bucket] < 0:
                self._bucket_total[bucket] = math.fsum(weights)
        else:
            del self._bucket_items[bucket]
            del self._bucket_weights[bucket]
            del self._bucket_total[bucket]
        self._size -= 1
        self._total -= weight
        if self._total < 0:
            self._total = sum(self._bucket_total.values())
        return item  # type: ignore[return-value]

    def update_weight(self, handle: int, weight: float) -> None:
        item = self.delete(handle)
        new_handle = self.insert(item, weight)
        # Keep the caller's handle valid by re-binding it.
        location = self._locator.pop(new_handle)
        self._locator[handle] = location
        self._handle_at[location] = handle
        self._next_handle -= 1

    def sample(self, *, rng: RNGLike = None) -> T:
        """One independent weighted sample; expected O(#buckets) time.

        Buckets are selected proportionally to their *bound mass*
        ``n_j · 2^{j+1}`` (not the exact total): combined with the
        in-bucket acceptance ``w_i / 2^{j+1}`` this makes each element's
        overall probability exactly ``w_i / Σw``, and since every weight
        exceeds half its bucket ceiling the loop accepts with probability
        ≥ 1/2 overall.
        """
        if self._size == 0:
            raise EmptyQueryError("sampler is empty")
        enabled = obs.ENABLED
        proposals = 0
        rng = self._rng if rng is None else rng
        bucket_items = self._bucket_items
        total_bound = 0.0
        for bucket, items in bucket_items.items():
            total_bound += len(items) * math.ldexp(1.0, bucket + 1)
        while True:
            if enabled:
                proposals += 1
            # Pick a bucket proportional to its bound mass (linear scan
            # over the O(log W) active buckets).
            target = rng.random() * total_bound
            chosen_bucket = next(iter(bucket_items))
            for bucket, bucket_members in bucket_items.items():
                mass = len(bucket_members) * math.ldexp(1.0, bucket + 1)
                chosen_bucket = bucket
                if target < mass:
                    break
                target -= mass
            items = self._bucket_items[chosen_bucket]
            weights = self._bucket_weights[chosen_bucket]
            index = int(rng.random() * len(items))
            if index == len(items):
                index -= 1
            # Rejection: accept with probability w / 2^{j+1} ≥ 1/2.
            ceiling = math.ldexp(1.0, chosen_bucket + 1)
            if rng.random() * ceiling < weights[index]:
                if enabled:
                    _BUCKET_DRAWS.inc()
                    _BUCKET_REJECTIONS.add(proposals - 1)
                return items[index]  # type: ignore[return-value]

    def sample_many(self, s: int, *, rng: RNGLike = None) -> List[T]:
        """``s`` independent weighted samples.

        The batch path snapshots the buckets into flat arrays once, then
        runs the bucket-choice / in-bucket-pick / rejection-coin pipeline
        for whole blocks of proposals per numpy call (acceptance ≥ 1/2, so
        a block of ``2·need`` proposals usually finishes the request).
        """
        validate_sample_size(s)
        rng = self._rng if rng is None else rng
        if self._size > 0 and kernels.use_batch(s):
            return self._sample_many_batch(s, rng)
        return [self.sample(rng=rng) for _ in range(s)]

    def _sample_many_batch(self, s: int, rng: RNGLike) -> List[T]:
        np = kernels.np
        gen = kernels.batch_generator(rng)
        flat_items: List[object] = []
        flat_weights: List[float] = []
        offsets: List[int] = []
        lengths: List[int] = []
        ceilings: List[float] = []
        for bucket, members in self._bucket_items.items():
            offsets.append(len(flat_items))
            lengths.append(len(members))
            ceilings.append(math.ldexp(1.0, bucket + 1))
            flat_items.extend(members)
            flat_weights.extend(self._bucket_weights[bucket])
        offsets_arr = np.asarray(offsets, dtype=np.intp)
        lengths_arr = np.asarray(lengths, dtype=np.intp)
        ceilings_arr = np.asarray(ceilings, dtype=np.float64)
        flat_w = np.asarray(flat_weights, dtype=np.float64)
        cum_bound = np.cumsum(lengths_arr * ceilings_arr)
        total_bound = cum_bound[-1]

        result: List[T] = []
        while len(result) < s:
            need = s - len(result)
            block = max(32, 2 * need)
            targets = gen.random(block) * total_bound
            buckets = np.minimum(
                np.searchsorted(cum_bound, targets, side="right"), len(cum_bound) - 1
            )
            picks = np.minimum(
                (gen.random(block) * lengths_arr[buckets]).astype(np.intp),
                lengths_arr[buckets] - 1,
            )
            flat_index = offsets_arr[buckets] + picks
            accepted = gen.random(block) * ceilings_arr[buckets] < flat_w[flat_index]
            if obs.ENABLED:
                # Count proposals only up to the one yielding the last
                # needed sample, matching the scalar rejection loop.
                taken = min(need, int(accepted.sum()))
                if taken:
                    examined = int(np.searchsorted(np.cumsum(accepted), taken)) + 1
                else:
                    examined = block
                _BUCKET_DRAWS.add(taken)
                _BUCKET_REJECTIONS.add(examined - taken)
            for index in flat_index[accepted][:need].tolist():
                result.append(flat_items[index])  # type: ignore[arg-type]
        return result
