"""The execution layer: *who runs a placement plan's shard tasks*.

The placement layer (:mod:`repro.engine.placement`) decides how a
request decomposes — for the sharded placement, into
:class:`~repro.engine.protocol.ShardTask` sub-draws that each carry
their own derived seed. This module owns the orthogonal decision of
where those tasks execute:

* :class:`ThreadShardRunner` — in process, over the runner's own thread
  pool; profitable when shard draws spend their time in GIL-dropping
  numpy kernels. :class:`SerialShardRunner` is the same runner with one
  worker: every task inline, in plan order — the baseline every other
  runner must match byte-for-byte.
* :class:`ProcessShardRunner` — the composed ``sharded × process``
  backend. Each shard is exported **once** (shared memory when the
  structure has an exporter, raw-array rebuild token otherwise) and
  becomes resident in **exactly one** worker process; per-request
  traffic is then a handful of ints per shard (``lo, hi, quota, seed``)
  — O(log n) pickled bytes — and the draws run GIL-free across cores.

Worker processes — for this runner and for the engine's local ×
process backend alike — are owned by one :class:`ProcessSupervisor`;
the two process backends differ only in its routing policy.

Because every task already carries its stateless seed, all runners
produce byte-identical partials; the runner choice changes only where
the CPU time is spent. Runners are owned by the sharded view they are
bound to (:meth:`~repro.engine.shard.ShardedSampler.bind_runner`),
which the engine's placement owns in turn — ``engine.close()`` tears
the whole stack down deterministically.
"""

from __future__ import annotations

import multiprocessing
import pickle
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor, ThreadPoolExecutor
from typing import Any, Callable, List, Optional, Sequence, Tuple

from repro import obs
from repro.engine.protocol import PlacementPlan
from repro.errors import WorkerCrashedError

__all__ = [
    "ProcessShardRunner",
    "ProcessSupervisor",
    "SerialShardRunner",
    "ShardRunner",
    "ThreadShardRunner",
    "make_shard_runner",
]

_REBUILDS = obs.counter(
    "engine.worker_rebuilds",
    "Sampler rebuilds performed by process-backend workers",
)
_SERIALIZED = obs.counter(
    "engine.serialized_bytes",
    "Build-token bytes pickled to process-backend workers (per chunk)",
)
_HARVESTS = obs.counter(
    "engine.harvested_chunks",
    "Worker metric deltas merged into the parent registry",
)

Partials = List[Tuple[int, List[int]]]

#: One worker submission: ``(route, key, token, items)``. ``route``
#: picks the pool slot, ``key`` is the pickled ``token`` (the resident
#: cache key worker-side), ``items`` the work the entry point executes.
_Call = Tuple[int, bytes, Tuple[Any, ...], List[Any]]


class ProcessSupervisor:
    """The one owner of worker processes for both process backends.

    Routing is **any** (``pinned=False``: one shared pool of ``workers``
    processes, for whole-request chunks) or **pinned** (``workers``
    single-worker pools; route ``j`` always runs on slot
    ``j % workers``, so a shard stays resident in one process). Pools
    are created lazily with ``mp_context``. :meth:`run` drains every
    future and merges each returned envelope exactly once. A dying
    worker breaks only its slot's pool: the slot is recycled and each
    item the pool left unsettled re-runs alone, once, on a fresh pool;
    if that breaks the pool too, the item settles as a
    :class:`~repro.errors.WorkerCrashedError`.
    """

    def __init__(
        self, workers: int, mp_context: Optional[str] = None, pinned: bool = False
    ):
        self._mp_context = mp_context
        self._width = 1 if pinned else workers
        self._pools: List[Optional[ProcessPoolExecutor]] = [None] * (
            workers if pinned else 1
        )

    def _pool(self, slot: int) -> ProcessPoolExecutor:
        pool = self._pools[slot]
        if pool is None:
            pool = self._pools[slot] = ProcessPoolExecutor(
                max_workers=self._width,
                mp_context=multiprocessing.get_context(self._mp_context),
            )
        return pool

    def _recycle(self, slot: int) -> None:
        pool, self._pools[slot] = self._pools[slot], None
        if pool is not None:
            pool.shutdown(wait=False, cancel_futures=True)

    def _submit(
        self, slot: int, entry: Callable, key: bytes, token: Any, items: List[Any]
    ) -> Any:
        enabled = obs.ENABLED
        future = self._pool(slot).submit(entry, key, token, items, harvest=enabled)
        if enabled:
            # The token pickles to `key` and rides along once per call
            # (workers cache the build) — the structure-serialization
            # cost that shm tokens keep O(1) in n.
            _SERIALIZED.add(len(key))
        return future

    @staticmethod
    def _settle(envelope: Tuple[int, List[Any], Optional[dict]]) -> List[Any]:
        """Fold one returned envelope into the parent; its outcomes."""
        rebuilds, outcomes, delta = envelope
        if rebuilds:
            _REBUILDS.add(rebuilds)
        if delta is not None:
            _HARVESTS.inc()
            obs.merge(delta)
        return outcomes

    def run(
        self,
        entry: Callable,
        calls: Sequence[_Call],
        describe: Callable[[int, Any], str],
    ) -> List[Any]:
        """Run ``calls`` through the worker ``entry`` point; one outcome
        per item, flattened in call order. A crashed item's error names
        ``describe(position, item)``."""
        npools = len(self._pools)
        settled: List[Optional[List[Any]]] = [None] * len(calls)
        pending = []
        broken = set()
        for index, (route, key, token, items) in enumerate(calls):
            slot = route % npools
            if slot not in broken:
                try:
                    future = self._submit(slot, entry, key, token, items)
                    pending.append((index, slot, future))
                except BrokenExecutor:
                    broken.add(slot)
        for index, slot, future in pending:
            try:
                settled[index] = self._settle(future.result())
            except BrokenExecutor:
                broken.add(slot)
        for slot in broken:
            self._recycle(slot)
        out: List[Any] = []
        for (route, key, token, items), outcomes in zip(calls, settled):
            if outcomes is not None:
                out.extend(outcomes)
                continue
            # The item's pool broke: re-run it alone, once, on a fresh pool.
            slot = route % npools
            for item in items:
                try:
                    future = self._submit(slot, entry, key, token, [item])
                    out.extend(self._settle(future.result()))
                except BrokenExecutor as exc:
                    self._recycle(slot)
                    out.append(
                        WorkerCrashedError(
                            f"worker process died executing "
                            f"{describe(len(out), item)}; its pool was "
                            f"recycled ({exc!r})"
                        )
                    )
        return out

    def close(self) -> None:
        """Shut every pool down (idempotent; pools reopen lazily)."""
        pools, self._pools = self._pools, [None] * len(self._pools)
        for pool in pools:
            if pool is not None:
                pool.shutdown(wait=True, cancel_futures=True)


class ShardRunner:
    """Executes a :class:`PlacementPlan`'s tasks against a sharded view."""

    name: str = "?"

    def run_plan(self, sharded: Any, plan: PlacementPlan) -> Partials:
        """``(shard, local_indices)`` partials for every task in the plan."""
        raise NotImplementedError

    def close(self) -> None:
        """Release runner-owned resources (idempotent)."""


class ThreadShardRunner(ShardRunner):
    """Fan shard tasks out over this runner's own thread pool.

    The pool is created on the first plan with more than one task and
    ``max_workers > 1``; single-task plans run inline.
    """

    name = "thread"

    def __init__(self, max_workers: int):
        self._max_workers = max(1, max_workers)
        self._pool: Optional[ThreadPoolExecutor] = None

    def run_plan(self, sharded: Any, plan: PlacementPlan) -> Partials:
        from repro.engine.shard import run_shard_task

        shards = sharded.shards
        pairs = zip(plan.tasks, plan.plans or (None,) * len(plan.tasks))
        if len(plan.tasks) > 1 and self._max_workers > 1:
            if self._pool is None:
                self._pool = ThreadPoolExecutor(
                    max_workers=self._max_workers, thread_name_prefix="repro-shard"
                )
            return list(self._pool.map(lambda pair: run_shard_task(shards, *pair), pairs))
        return [run_shard_task(shards, task, sub) for task, sub in pairs]

    def close(self) -> None:
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True)


class SerialShardRunner(ThreadShardRunner):
    """Run every shard task inline, in plan order (one worker)."""

    name = "serial"

    def __init__(self) -> None:
        super().__init__(1)


class ProcessShardRunner(ShardRunner):
    """Shard-resident worker processes: one shard, one worker, no GIL.

    Routes shard ``j`` through a pinned :class:`ProcessSupervisor` of
    ``min(K, engine.max_workers)`` single-worker pools, so a shard is
    rebuilt (or shm-attached) by exactly one resident process no matter
    how many requests run. Tokens prefer the zero-copy shared memory
    path (:meth:`SamplingEngine.share`) and fall back to a raw
    ``("shard", ...)`` array token for structures without an exporter.
    A task lost to a dying worker fails only its own request.
    """

    name = "process"

    def __init__(self, engine: Any, sharded: Any):
        self._engine = engine
        self._sharded = sharded
        self._supervisor = ProcessSupervisor(
            max(1, min(len(sharded.shards), engine.max_workers)),
            engine._mp_context,
            pinned=True,
        )
        self._tokens: List[Optional[Tuple[bytes, Tuple[Any, ...]]]] = [
            None
        ] * len(sharded.shards)

    def _token_for(self, shard: int) -> Tuple[bytes, Tuple[Any, ...]]:
        memo = self._tokens[shard]
        if memo is None:
            from repro.engine.shm import ShmShareError

            structure = self._sharded.shards[shard]
            try:
                token = self._engine.share(structure)
            except ShmShareError:
                cls = type(structure)
                token = (
                    "shard",
                    f"{cls.__module__}:{cls.__qualname__}",
                    tuple(structure.keys),
                    tuple(structure.weights),
                )
            memo = (pickle.dumps(token), token)
            self._tokens[shard] = memo
        return memo

    def run_plan(self, sharded: Any, plan: PlacementPlan) -> Partials:
        from repro.engine.worker import execute_shard_chunk

        trace = obs.current_trace() if obs.ENABLED else None
        calls: List[_Call] = []
        for task, sub in zip(plan.tasks, plan.plans or (None,) * len(plan.tasks)):
            # Ship the parent's shard-local plan as portable data (kind,
            # key, cover hint) — O(log n) ints — so the resident worker
            # skips the cover search and executes the very same plan.
            portable = (
                sub.portable()
                if sub is not None and getattr(sub, "hint", None) is not None
                else None
            )
            draw = (task.shard, task.lo, task.hi, task.quota, task.seed, trace, portable)
            calls.append((task.shard, *self._token_for(task.shard), [draw]))
        outcomes = self._supervisor.run(
            execute_shard_chunk, calls, lambda _, draw: f"shard {draw[0]}"
        )
        # The supervisor drained every future: sibling shards' residents
        # stay warm and their envelopes are merged even when one fails.
        for outcome in outcomes:
            if isinstance(outcome, Exception):
                raise outcome
        return [(task.shard, local) for task, local in zip(plan.tasks, outcomes)]

    def close(self) -> None:
        self._supervisor.close()
        self._tokens = [None] * len(self._tokens)


def make_shard_runner(engine: Any, sharded: Any) -> ShardRunner:
    """The runner matching ``engine.execution`` for a sharded view."""
    execution = engine.execution
    if execution == "serial":
        return SerialShardRunner()
    if execution == "process":
        return ProcessShardRunner(engine, sharded)
    return ThreadShardRunner(min(len(sharded.shards), engine.max_workers))
