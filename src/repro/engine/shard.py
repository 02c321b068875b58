"""Key-space sharding for range samplers: the §4.1 split, scaled out.

A range query over a sorted weighted point set decomposes by key-space
shard exactly the way the paper decomposes it over a canonical cover
(§4.1): the interval ``[x, y]`` meets each contiguous shard in a
(possibly empty) sub-span, one weighted draw lands in shard ``j`` with
probability ``W_j / W`` (``W_j`` = weight of shard ``j``'s sub-span,
``W`` = total), and conditioned on landing there it follows the shard's
own restricted distribution. Splitting the budget ``s`` multinomially
across shards and drawing each quota independently therefore reproduces
the unsharded output distribution *exactly* — the same
distribution-preserving composition argument the GUS sampling algebra
makes for partitioned samples, applied one level up. The merged result
is exchangeable with the serial stream (identical multiset
distribution), not byte-identical to it: the per-draw randomness is
spent in a different order.

:class:`ShardedSampler` is itself a
:class:`~repro.core.range_sampler.RangeSamplerBase`, so it inherits
``sample`` / ``sample_indices`` / ``sample_without_replacement`` and the
engine protocol for free; only ``sample_span`` is reimplemented as
*plan, fan out, merge*. The §4.1 arithmetic — the multinomial split on
``derive_seed(base, 0)``, the per-shard streams ``derive_seed(base,
1 + j)``, and the order-preserving merge — lives in
:mod:`repro.engine.placement` as pure functions of one stateless 64-bit
base drawn from the request's stream; this class only *executes* the
resulting :class:`~repro.engine.protocol.PlacementPlan`. Who executes
it is pluggable: a view always has one runner bound — by default a
:class:`~repro.engine.execution.ThreadShardRunner` fanning the shard
sub-draws out over threads — and an engine can :meth:`bind_runner` any
execution backend from :mod:`repro.engine.execution` — inline, threads,
or shard-resident worker processes — and the merged output stays a pure
function of ``(structure, request seed, K)`` because every task already
carries its derived seed.

This module is imported lazily (by the executor's sharded placement or
by user code), never from ``repro.engine``'s ``__init__`` — importing
:mod:`repro.engine` stays cheap and cycle-free.
"""

from __future__ import annotations

import math
import os
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro import obs
from repro.core import kernels
from repro.core.planner import QueryPlan, plan_scope
from repro.core.range_sampler import RangeSamplerBase
from repro.engine.execution import ShardRunner, ThreadShardRunner
from repro.engine.placement import merge_indices, plan_fan_out
from repro.engine.protocol import ShardTask
from repro.errors import EmptyQueryError
from repro.substrates.rng import RNGLike, ensure_rng, spawn_rng

__all__ = ["ShardedSampler", "run_shard_task", "shard_bounds"]

_SHARDS = obs.counter(
    "engine.shards",
    "Shard sub-queries fanned out by sharded range execution",
)
_PLAN_BUILDS = obs.counter(
    "engine.plan_builds",
    "Sharded fan-out plans built (one cover computation per build)",
)
_PLAN_REUSE = obs.counter(
    "engine.plan_reuse",
    "Sharded fan-out plans served from the plan store (no cover work)",
)


def run_shard_task(
    shards: Sequence[Any], task: ShardTask, plan: Any = None
) -> Tuple[int, List[int]]:
    """Execute one :class:`~repro.engine.protocol.ShardTask` locally.

    The single point where a plan task turns into draws: shard
    ``task.shard`` samples its local span on the task's own stateless
    stream. Every execution backend — inline, thread pool, resident
    worker process — funnels through this function (or its worker-side
    twin), which is what makes the backends byte-identical.

    ``plan`` optionally carries the shard-local
    :class:`~repro.core.planner.QueryPlan` the parent already built —
    then execution goes straight to the shard's ``execute_plan`` and no
    cover is recomputed (byte-identical: ``sample_span`` *is*
    ``plan_span`` + ``execute_plan``, and planning consumes no
    randomness).
    """
    shard = shards[task.shard]
    rng = ensure_rng(task.seed)
    if plan is not None:
        return task.shard, shard.execute_plan(plan, task.quota, rng=rng)
    return task.shard, shard.sample_span(task.lo, task.hi, task.quota, rng=rng)


def shard_bounds(n: int, num_shards: int) -> List[int]:
    """Global sorted-index boundaries of ``num_shards`` contiguous shards.

    Returns ``num_shards + 1`` cut points; shard ``j`` owns the half-open
    index range ``[bounds[j], bounds[j + 1])``. Every shard is non-empty
    when ``num_shards <= n`` (callers clamp).
    """
    return [(j * n) // num_shards for j in range(num_shards + 1)]


class ShardedSampler(RangeSamplerBase):
    """K contiguous key-space shards behind one range-sampler facade.

    Construct through :meth:`from_sampler` (slice an existing structure)
    or :meth:`from_params` (build shards directly from ``keys`` and
    ``weights``). The wrapper keeps the full sorted key and weight
    arrays (for ``span_of`` and the inherited WoR paths) plus a
    prefix-sum array so each shard's weight inside a query span costs
    two array reads.
    """

    plan_kind = "sharded"

    def __init__(
        self,
        shards: Sequence[Any],
        keys: Sequence[float],
        weights: Optional[Sequence[float]] = None,
        rng: RNGLike = None,
        max_workers: Optional[int] = None,
        plan_cache_size: Optional[int] = None,
    ):
        super().__init__(keys, weights)
        if not shards:
            raise ValueError("ShardedSampler needs at least one shard")
        sizes = [len(shard) for shard in shards]
        if sum(sizes) != len(self.keys):
            raise ValueError(
                f"shard sizes {sizes} do not partition {len(self.keys)} keys"
            )
        self.shards: List[Any] = list(shards)
        bounds = [0]
        for size in sizes:
            bounds.append(bounds[-1] + size)
        self._bounds: List[int] = bounds
        if kernels.use_batch_build(len(self.weights)):
            np = kernels.np
            prefix_arr = np.empty(len(self.weights) + 1, dtype=np.float64)
            prefix_arr[0] = 0.0
            np.cumsum(np.asarray(self.weights, dtype=np.float64), out=prefix_arr[1:])
            prefix = prefix_arr.tolist()
        else:
            prefix = [0.0]
            acc = 0.0
            for weight in self.weights:
                acc += weight
                prefix.append(acc)
        self._prefix: List[float] = prefix
        self._rng = ensure_rng(rng)
        workers = max_workers if max_workers is not None else (os.cpu_count() or 1)
        self._runner: ShardRunner = ThreadShardRunner(min(len(self.shards), workers))
        self.plan_cache = plan_scope(self.plan_kind, plan_cache_size)

    # -- construction ------------------------------------------------------

    @staticmethod
    def supports(sampler: Any) -> bool:
        """Whether ``sampler`` can be sharded (sorted-key range structure)."""
        return isinstance(sampler, RangeSamplerBase)

    @classmethod
    def from_sampler(
        cls,
        sampler: Any,
        num_shards: int,
        rng: RNGLike = None,
        max_workers: Optional[int] = None,
    ) -> "ShardedSampler":
        """Partition ``sampler``'s key space into ``num_shards`` shards.

        Each shard is a fresh instance of the *same* structure class over
        its contiguous key slice, so the per-shard query cost keeps the
        structure's own bounds on ``n/K`` keys. ``num_shards`` is clamped
        to the key count (every shard stays non-empty).
        """
        if isinstance(sampler, cls):
            return sampler
        if not cls.supports(sampler):
            raise TypeError(
                f"{type(sampler).__name__} does not support key-space "
                f"sharding; the sharded placement needs a sorted-key range "
                f"structure (e.g. range.chunked, range.treewalk)"
            )
        if not isinstance(num_shards, int) or isinstance(num_shards, bool):
            raise TypeError(f"num_shards must be an int, got {num_shards!r}")
        if num_shards < 1:
            raise ValueError(f"num_shards must be >= 1, got {num_shards}")
        return cls.from_params(
            type(sampler),
            list(sampler.keys),
            list(sampler.weights),
            num_shards,
            rng=rng,
            max_workers=max_workers,
        )

    @classmethod
    def from_params(
        cls,
        shard_cls: type,
        keys: Sequence[float],
        weights: Optional[Sequence[float]],
        num_shards: int,
        rng: RNGLike = None,
        max_workers: Optional[int] = None,
    ) -> "ShardedSampler":
        """Build ``num_shards`` instances of ``shard_cls`` over key slices."""
        n = len(keys)
        count = max(1, min(num_shards, n))
        bounds = shard_bounds(n, count)
        base_rng = ensure_rng(rng)
        weight_list = list(weights) if weights is not None else [1.0] * n
        shards = [
            shard_cls(
                list(keys[bounds[j]:bounds[j + 1]]),
                weights=weight_list[bounds[j]:bounds[j + 1]],
                rng=spawn_rng(base_rng, salt=j),
            )
            for j in range(count)
        ]
        return cls(
            shards, keys, weights=weight_list, rng=base_rng,
            max_workers=max_workers,
        )

    # -- introspection -----------------------------------------------------

    @property
    def num_shards(self) -> int:
        return len(self.shards)

    def shard_sizes(self) -> List[int]:
        return [len(shard) for shard in self.shards]

    def describe(self) -> Dict[str, Any]:
        info = super().describe()
        info["shards"] = self.num_shards
        info["shard_type"] = type(self.shards[0]).__name__
        return info

    def space_words(self) -> int:
        # Wrapper arrays (keys + weights + prefix) on top of the shards.
        return 3 * len(self.keys) + sum(
            shard.space_words() for shard in self.shards
        )

    def bind_runner(self, runner: ShardRunner) -> None:
        """Route plan execution through ``runner`` (an execution backend).

        The bound runner is owned by this view — :meth:`close` closes
        it, and binding a new one closes the previous one.
        """
        previous, self._runner = self._runner, runner
        if previous is not runner:
            previous.close()

    def close(self) -> None:
        """Release the bound runner's pools (idempotent; they reopen lazily)."""
        self._runner.close()

    def __enter__(self) -> "ShardedSampler":
        return self

    def __exit__(self, *exc_info: Any) -> bool:
        self.close()
        return False

    # -- the sharded hot path ----------------------------------------------

    def _span_weight(self, lo: int, hi: int) -> float:
        weight = self._prefix[hi] - self._prefix[lo]
        if weight <= 0.0 and hi > lo:
            # Catastrophic float cancellation in the prefix sums —
            # recompute the rare offender exactly.
            weight = math.fsum(self.weights[lo:hi])
        return weight

    def _active_shards(self, lo: int, hi: int) -> List[Tuple[int, int, int, float]]:
        """``(shard, local_lo, local_hi, weight)`` for intersecting shards."""
        active = []
        bounds = self._bounds
        for j in range(len(self.shards)):
            a = max(lo, bounds[j])
            b = min(hi, bounds[j + 1])
            if a >= b:
                continue
            weight = self._span_weight(a, b)
            if weight <= 0.0:
                continue
            active.append((j, a - bounds[j], b - bounds[j], weight))
        return active

    def sample_span(self, lo: int, hi: int, s: int, rng: RNGLike = None) -> List[int]:
        """Split ``s`` multinomially over shards, fan out, merge.

        The merge concatenates shard results in shard order — a
        deterministic order regardless of which worker finishes first.
        The multiset of returned indices follows exactly the unsharded
        weighted distribution over ``[lo, hi)``. With metrics enabled the
        whole fan-out is bracketed by an ``engine.shard_fanout`` span
        that carries the executing request's trace ID (the engine sets
        the current-trace context before dispatching to this sampler),
        so a per-request timeline shows how many shards a query touched
        and how long the split-draw-merge took.
        """
        if not obs.ENABLED:
            return self._fan_out(lo, hi, s, rng)
        with obs.span("engine.shard_fanout", s=s) as fanout_span:
            return self._fan_out(lo, hi, s, rng, fanout_span)

    def _build_plan(self, lo: int, hi: int, hint: Any = None) -> QueryPlan:
        """Plan once: active-shard table plus each shard's own sub-plan.

        The single cover computation of a sharded request. Each planful
        shard contributes its shard-local
        :class:`~repro.core.planner.QueryPlan` for its sub-span, built
        through the shard's *own* plan scope — so the plan store sees
        exactly one cover walk per distinct span, parent and shards
        alike. Unplanful shards (no ``plan_kind``) get ``None`` and fall
        back to ``sample_span`` at execution.
        """
        active = self._active_shards(lo, hi)
        sub_plans: List[Any] = []
        planful = False
        for j, a, b, _ in active:
            shard = self.shards[j]
            if getattr(shard, "plan_kind", None) is not None:
                sub_plans.append(shard.plan_span(a, b))
                planful = True
            else:
                sub_plans.append(None)
        return QueryPlan(
            self.plan_kind,
            (lo, hi),
            spans=tuple((a, b) for _, a, b, _ in active),
            weights=tuple(weight for _, _, _, weight in active),
            payload=(active, tuple(sub_plans) if planful else None),
        )

    def _fan_out(
        self, lo: int, hi: int, s: int, rng: RNGLike = None, span: Any = None
    ) -> List[int]:
        generator = ensure_rng(rng) if rng is not None else self._rng
        # One stateless base per request: the split and every shard
        # stream derive from it, so concurrency cannot reorder
        # randomness consumption. Drawn *before* planning (which
        # consumes no randomness) to match the pre-plan-layer stream
        # order bit-for-bit.
        base = generator.getrandbits(64)
        enabled = obs.ENABLED
        built = False

        def build(hint: Any) -> QueryPlan:
            nonlocal built
            built = True
            return self._build_plan(lo, hi)

        plan = self.plan_cache.fetch((lo, hi), build)
        active, sub_plans = plan.payload
        if enabled:
            (_PLAN_BUILDS if built else _PLAN_REUSE).inc()
            _SHARDS.add(len(active))
            if span is not None:
                span.set(shards=len(active))
        if not active:
            raise EmptyQueryError(
                f"no keys in index span [{lo}, {hi}) across "
                f"{self.num_shards} shards"
            )
        placement_plan = plan_fan_out(active, s, base, sub_plans=sub_plans)
        partials = self._runner.run_plan(self, placement_plan)
        return merge_indices(partials, self._bounds)
