"""The placement layer: *where a request's draws live* (§4.1, lifted).

The engine used to conflate two orthogonal decisions in one backend
string: **placement** (does a request run against the whole structure,
or split multinomially over contiguous key-space shards?) and
**execution** (do sub-tasks run inline, on threads, or in worker
processes?). This module owns the first axis:

* :class:`LocalPlacement` — the identity placement: one structure, the
  execution backend runs whole requests.
* :class:`ShardedPlacement` — the paper's §4.1 decomposition: the key
  space is cut into ``K`` contiguous shards, each request's budget ``s``
  is split multinomially by in-span shard weight, and every shard draws
  on its own stateless stream. Any execution backend
  (``serial | thread | process``) can run the per-shard sub-draws —
  that composition is the shard-per-process backend.

The §4.1 primitives (:func:`split_budget`, :func:`shard_seed`,
:func:`merge_indices`) live here as pure functions, lifted out of
:class:`~repro.engine.shard.ShardedSampler` so the determinism contract
— merged output is a pure function of ``(structure, request seed, K)``
regardless of worker count or scheduling — is enforced at the placement
layer, once, for every execution backend. ``merge_indices`` dispatches
through the ``scalar → numpy → jit`` kernel ladder
(:func:`repro.core.kernels.offset_concat_batch`).
"""

from __future__ import annotations

import time
from difflib import get_close_matches
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro import obs
from repro.engine.protocol import PlacementPlan, ShardTask
from repro.substrates.rng import derive_seed, ensure_rng

__all__ = [
    "DEFAULT_SHARDS",
    "PLACEMENTS",
    "LocalPlacement",
    "Placement",
    "ShardedPlacement",
    "merge_indices",
    "normalize_backend",
    "plan_fan_out",
    "shard_seed",
    "split_budget",
]

#: Supported placements (the first axis of the backend matrix).
PLACEMENTS = ("local", "sharded")

#: Execution backends runnable under a placement (the second axis).
EXECUTIONS = ("serial", "thread", "process")

#: Default shard count for the sharded placement when none is given.
DEFAULT_SHARDS = 4

_PLACEMENT_SHARDS = obs.counter(
    "engine.placement_shards",
    "Shard sub-tasks dispatched by the sharded placement layer",
)
_MERGE_US = obs.histogram(
    "engine.shard_merge_us",
    "Microseconds spent merging per-shard results into one batch",
)


def _did_you_mean(value: Any, choices: Sequence[str]) -> str:
    close = get_close_matches(str(value), choices, n=3)
    return f" (did you mean {', '.join(repr(c) for c in close)}?)" if close else ""


def normalize_backend(
    backend: str, placement: Optional[str] = None
) -> Tuple[str, str]:
    """Resolve ``(backend, placement)`` into ``(placement, execution)``.

    ``placement=None`` is the local placement. Unknown names raise
    :class:`ValueError` with a did-you-mean hint.
    """
    if placement is None:
        placement = "local"
    elif placement not in PLACEMENTS:
        raise ValueError(
            f"unknown placement {placement!r}{_did_you_mean(placement, PLACEMENTS)}; "
            f"choose from {PLACEMENTS}"
        )
    if backend not in EXECUTIONS:
        raise ValueError(
            f"unknown backend {backend!r}{_did_you_mean(backend, EXECUTIONS)}; "
            f"choose from {EXECUTIONS}"
        )
    return placement, backend


# ----------------------------------------------------------------------
# the §4.1 primitives, as pure functions of the request's stateless base
# ----------------------------------------------------------------------


def split_budget(weights: Sequence[float], s: int, base: int) -> List[int]:
    """Multinomially split ``s`` draws over parts weighted by ``weights``.

    Runs on ``derive_seed(base, 0)`` — the split consumes its own
    dedicated stream so shard draws (``derive_seed(base, 1 + j)``) are
    untouched by how many parts the split saw.
    """
    from repro.core.schemes import multinomial_split

    return multinomial_split(list(weights), s, rng=ensure_rng(derive_seed(base, 0)))


def shard_seed(base: int, shard: int) -> int:
    """Shard ``shard``'s stateless draw seed for a request with ``base``."""
    return derive_seed(base, 1 + shard)


def plan_fan_out(
    active: Sequence[Tuple[int, int, int, float]],
    s: int,
    base: int,
    sub_plans: Optional[Sequence[Any]] = None,
) -> PlacementPlan:
    """The §4.1 plan for one request over its active-shard table.

    ``active`` rows are ``(shard, local_lo, local_hi, weight)``. A single
    active shard takes the whole budget without consuming the split
    stream (matching the pre-refactor fast path bit-for-bit); otherwise
    the budget splits multinomially by weight and zero-quota shards are
    dropped. Every task carries its derived shard seed, so the plan is
    executable by any backend without further randomness decisions.

    ``sub_plans`` optionally aligns one shard-local
    :class:`~repro.core.planner.QueryPlan` (or ``None``) with each
    ``active`` row — the parent's plan-once-ship-everywhere payload.
    Entries for dropped zero-quota shards are dropped with their tasks,
    keeping ``plan.plans`` aligned with ``plan.tasks``.
    """
    if len(active) == 1:
        j, lo, hi, _ = active[0]
        tasks: Tuple[ShardTask, ...] = (
            ShardTask(j, lo, hi, s, shard_seed(base, j)),
        )
        plans: Tuple[Any, ...] = (
            (sub_plans[0],) if sub_plans is not None else ()
        )
    else:
        counts = split_budget([row[3] for row in active], s, base)
        kept = [
            (index, ShardTask(j, lo, hi, quota, shard_seed(base, j)))
            for index, ((j, lo, hi, _), quota) in enumerate(zip(active, counts))
            if quota > 0
        ]
        tasks = tuple(task for _, task in kept)
        plans = (
            tuple(sub_plans[index] for index, _ in kept)
            if sub_plans is not None
            else ()
        )
    if obs.ENABLED:
        _PLACEMENT_SHARDS.add(len(tasks))
    return PlacementPlan(base=base, tasks=tasks, plans=plans)


def merge_indices(
    partials: Sequence[Tuple[int, Sequence[int]]], bounds: Sequence[int]
) -> List[int]:
    """Offset shard-local indices to global ones, in shard order.

    The order-preserving merge of §4.1: partials are sorted by shard id
    (deterministic regardless of which worker finished first) and each
    shard's local indices are shifted by its global base offset.
    Dispatches through the kernel ladder — the scalar extend loop below
    the batch cutoff, :func:`repro.core.kernels.offset_concat_batch`
    (numpy, or the compiled tier for large merges) above it.
    """
    from repro.core import kernels

    enabled = obs.ENABLED
    started = time.perf_counter() if enabled else 0.0
    ordered = sorted(partials, key=lambda pair: pair[0])
    total = sum(len(local) for _, local in ordered)
    if kernels.use_batch(total):
        merged = kernels.offset_concat_batch(
            [local for _, local in ordered],
            [bounds[j] for j, _ in ordered],
        )
    else:
        merged = []
        for j, local in ordered:
            offset = bounds[j]
            merged.extend(offset + index for index in local)
    if enabled:
        _MERGE_US.observe((time.perf_counter() - started) * 1e6)
    return merged


# ----------------------------------------------------------------------
# placement objects (engine-owned, deterministic lifecycle)
# ----------------------------------------------------------------------


class Placement:
    """Where a request's draws run. Owned — and closed — by the engine."""

    name: str = "?"

    def view(self, sampler: Any, engine: Any) -> Any:
        """The sampler (or a placed view of it) requests execute against."""
        raise NotImplementedError

    def close(self) -> None:
        """Release every resource this placement created (idempotent)."""


class LocalPlacement(Placement):
    """Identity placement: requests run against the structure as-is."""

    name = "local"

    def view(self, sampler: Any, engine: Any) -> Any:
        return sampler


class ShardedPlacement(Placement):
    """§4.1 key-space sharding with engine-owned view lifecycle.

    Views (one :class:`~repro.engine.shard.ShardedSampler` per distinct
    ``(sampler, shards, execution geometry)``) are cached *here*, not on
    the wrapped sampler instance — so ``engine.close()`` can shut down
    every shard runner (thread pools, resident worker processes)
    deterministically, and a sampler shared across engines cannot leak
    another engine's pools.
    """

    name = "sharded"

    def __init__(self, shards: int = DEFAULT_SHARDS):
        self.shards = shards
        # id(sampler) -> (sampler, view); the strong sampler ref pins
        # the id for the cache's lifetime.
        self._views: Dict[int, Tuple[Any, Any]] = {}

    def view(self, sampler: Any, engine: Any) -> Any:
        from repro.engine.execution import make_shard_runner
        from repro.engine.shard import ShardedSampler

        if isinstance(sampler, ShardedSampler):
            # Pre-sharded by the caller: respect its geometry and runner.
            return sampler
        memo = self._views.get(id(sampler))
        if memo is not None:
            return memo[1]
        view = ShardedSampler.from_sampler(
            sampler, self.shards, max_workers=engine.max_workers
        )
        view.bind_runner(make_shard_runner(engine, view))
        self._views[id(sampler)] = (sampler, view)
        return view

    def close(self) -> None:
        views, self._views = self._views, {}
        for _, view in views.values():
            view.close()


def make_placement(placement: str, shards: int = DEFAULT_SHARDS) -> Placement:
    """Placement instance for a normalized placement name."""
    if placement == "sharded":
        return ShardedPlacement(shards)
    return LocalPlacement()
