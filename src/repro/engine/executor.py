"""Batched query execution with per-request RNG streams and backends.

:class:`SamplingEngine` turns a batch of
:class:`~repro.engine.protocol.QueryRequest` into an order-preserving
list of :class:`~repro.engine.protocol.QueryResult`:

* **Independence by seed-spawning.** Request ``i`` without an explicit
  seed runs on ``derive_seed(engine_seed, i)`` (stateless SplitMix64
  spawning in :mod:`repro.substrates.rng`), so every request draws from
  its own stream, the whole batch is a pure function of the engine seed,
  and backends that preserve per-request streams produce identical
  results. Construct with ``seed=None`` to instead let requests consume
  the sampler's own instance stream serially (the classic single-stream
  behaviour).
* **Composable placement × execution layers.** The engine stacks two
  orthogonal decisions: a **placement**
  (:mod:`repro.engine.placement` — ``"local"`` runs requests against
  the whole structure, ``"sharded"`` splits each request's ``s``
  multinomially over ``shards`` contiguous key-space pieces, §4.1) over
  an **execution** backend (``"serial"`` in submission order;
  ``"thread"`` over a :class:`~concurrent.futures.ThreadPoolExecutor`
  — profitable when queries spend their time in NumPy batch kernels,
  which drop the GIL; ``"process"`` over persistent worker processes,
  :mod:`repro.engine.worker` — for CPU-bound scalar samplers the GIL
  serializes). Both process combinations run on one
  :class:`~repro.engine.execution.ProcessSupervisor` and differ only in
  its routing: under the local placement whole requests go to *any*
  worker of one shared pool, executing against worker-resident
  rebuilds from picklable build tokens; under the sharded placement
  each shard is *pinned* to one resident worker, shipped once via
  shared memory, with per-request traffic a few ints per shard.
  docs/ARCHITECTURE.md has the placement × execution matrix.
* **Batch planning.** Before executing a batch the engine asks the
  sampler for every request's plan in one ``plan_requests`` call (range
  samplers; one batched cover search for the plan-store misses), then
  runs each request with its plan. Planning consumes no randomness, so
  results are byte-identical to planning request by request.
* **Error capture.** Per-request failures (empty interval, bad ``s``, a
  worker process dying mid-batch) are caught into ``result.error``
  instead of poisoning the batch; ``errors="raise"`` restores fail-fast
  behaviour.
* **Zero-copy structure sharing.** :meth:`SamplingEngine.share` exports
  a built structure's arrays into shared memory
  (:mod:`repro.engine.shm`) and returns an ``("shm", manifest)`` token:
  process-backend workers attach read-only instead of rebuilding, and
  :meth:`SamplingEngine.close` unlinks the segments.
* **Observability.** ``engine.batches`` / ``engine.requests`` /
  ``engine.request_errors`` / ``engine.worker_rebuilds`` /
  ``engine.serialized_bytes`` / ``engine.shards`` counters, the
  ``engine.shard_merge_us`` and ``engine.shm_attach_us`` histograms, and
  the ``engine.run`` span feed :mod:`repro.obs` when metrics are
  enabled.
"""

from __future__ import annotations

import math
import multiprocessing
import os
import pickle
from concurrent.futures import ThreadPoolExecutor
from time import perf_counter
from typing import Any, Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro import obs
from repro.engine.execution import ProcessSupervisor
from repro.engine.placement import (
    DEFAULT_SHARDS,
    PLACEMENTS,
    make_placement,
    normalize_backend,
)
from repro.engine.protocol import QueryRequest, QueryResult, Sampler, plan_jobs
from repro.engine.registry import build
from repro.errors import WorkerCrashedError
from repro.substrates.rng import DEFAULT_SEED, derive_seed, ensure_rng

__all__ = ["BACKENDS", "PLACEMENTS", "SamplingEngine", "spec_token"]

#: Accepted execution backends.
BACKENDS = ("serial", "thread", "process")

_BATCHES = obs.counter("engine.batches", "SamplingEngine.run invocations")
_REQUESTS = obs.counter("engine.requests", "Requests executed by the engine")
_ERRORS = obs.counter(
    "engine.request_errors", "Requests whose execution raised (captured)"
)
_REQUEST_US = obs.histogram(
    "engine.request_us",
    "Per-request end-to-end sampler execution latency (microseconds)",
)


def _attach_flight(error: Exception, trace_id: Optional[str]) -> None:
    """Stamp the trace's flight records onto a captured exception."""
    try:
        error.flight_records = obs.RECORDER.for_trace(trace_id)
    except Exception:  # exceptions with __slots__ cannot carry extras
        pass


def spec_token(spec: str, params: Mapping[str, Any]) -> Tuple[Any, ...]:
    """The picklable build token for ``build(spec, **params)``.

    Parameter items are sorted by name so equal dicts yield equal tokens
    — and therefore hit the same worker-resident sampler cache entry.
    """
    return ("spec", spec, tuple(sorted(params.items())))


class SamplingEngine:
    """Executor for batches of sampling requests over protocol samplers.

    Parameters
    ----------
    backend:
        The execution backend: ``"serial"``, ``"thread"``, or
        ``"process"``.
    placement:
        ``"local"`` (default) or ``"sharded"`` — where requests run
        (:mod:`repro.engine.placement`). ``placement="sharded"``
        composes with any execution backend; ``backend="process"``
        under it keeps one shard resident per worker process.
    max_workers:
        Pool width (thread/process execution, shard fan-out); defaults
        to ``min(8, cpu_count)``.
    seed:
        Engine master seed for per-request stream spawning. ``None``
        keeps the default policy seed (:data:`repro.substrates.rng.DEFAULT_SEED`);
        pass ``seed=False`` to disable spawning entirely and let every
        request consume the sampler's instance stream (forces serial
        execution semantics per sampler).
    errors:
        ``"capture"`` (default) stores per-request exceptions on the
        result; ``"raise"`` propagates the first failure (in submission
        order for the fan-out backends).
    shards:
        Shard count for the sharded placement (default
        :data:`~repro.engine.placement.DEFAULT_SHARDS`); clamped to the
        structure's key count at run time.
    mp_context:
        Start method for the process backend's pool (``"fork"``,
        ``"spawn"``, ``"forkserver"``); ``None`` keeps the platform
        default. Shared-memory tokens attach by segment name, so they
        work under every start method.
    """

    def __init__(
        self,
        backend: str = "serial",
        max_workers: Optional[int] = None,
        seed: Any = None,
        errors: str = "capture",
        shards: Optional[int] = None,
        mp_context: Optional[str] = None,
        placement: Optional[str] = None,
    ):
        self.placement, self.execution = normalize_backend(backend, placement)
        if errors not in ("capture", "raise"):
            raise ValueError(f"errors must be 'capture' or 'raise', got {errors!r}")
        if max_workers is not None and max_workers < 1:
            raise ValueError(f"max_workers must be >= 1, got {max_workers}")
        if shards is not None and (
            not isinstance(shards, int) or isinstance(shards, bool) or shards < 1
        ):
            raise ValueError(f"shards must be an int >= 1, got {shards!r}")
        self.backend = backend
        self.max_workers = max_workers or min(8, os.cpu_count() or 1)
        self.shards = shards if shards is not None else DEFAULT_SHARDS
        self._placement = make_placement(self.placement, self.shards)
        if seed is False:
            self._seed: Optional[int] = None
        elif seed is None:
            self._seed = DEFAULT_SEED
        elif isinstance(seed, int):
            self._seed = seed
        else:
            raise TypeError(f"seed must be an int, None, or False, got {seed!r}")
        if mp_context is not None:
            methods = multiprocessing.get_all_start_methods()
            if mp_context not in methods:
                raise ValueError(
                    f"unknown mp_context {mp_context!r}; choose from {methods}"
                )
        self._mp_context = mp_context
        self._errors = errors
        # The local × process route: any worker of one shared pool,
        # created on the first run_token batch.
        self._supervisor = ProcessSupervisor(self.max_workers, mp_context)
        # Shared-memory exports this engine owns: id(sampler) -> (sampler,
        # token) memo (the strong ref pins the id), plus the segments to
        # unlink at close().
        self._shm_tokens: Dict[int, Tuple[Any, Tuple[Any, ...]]] = {}
        self._shm_segments: List[Any] = []

    @property
    def seed(self) -> Optional[int]:
        """The engine master seed (``None`` = instance-stream mode)."""
        return self._seed

    def seeds_for(self, requests: Sequence[QueryRequest]) -> List[Optional[int]]:
        """The effective per-request seed of each request in a batch."""
        return [
            request.seed
            if request.seed is not None
            else (None if self._seed is None else derive_seed(self._seed, index))
            for index, request in enumerate(requests)
        ]

    def trace_ids_for(self, requests: Sequence[QueryRequest]) -> List[str]:
        """The effective trace ID of each request in a batch.

        Explicit ``request.trace_id`` wins; otherwise the ID is a
        stateless hash of the request's seed base and batch index
        (:func:`repro.obs.trace_id_for`) — deterministic, derived from
        the same seed stream as the per-request RNG seeds but
        domain-separated from it, and consuming no randomness, so sample
        streams are byte-identical whether or not anyone looks at the
        trace.
        """
        base = DEFAULT_SEED if self._seed is None else self._seed
        return [
            request.trace_id
            if request.trace_id is not None
            else obs.trace_id_for(
                request.seed if request.seed is not None else base, index
            )
            for index, request in enumerate(requests)
        ]

    def _assign_traces(self, requests: Sequence[QueryRequest]) -> List[str]:
        """Stamp engine-derived trace IDs onto requests lacking one."""
        traces = self.trace_ids_for(requests)
        for request, trace in zip(requests, traces):
            if request.trace_id is None:
                # QueryRequest is frozen for hashing/equality hygiene;
                # the engine is the one sanctioned writer of this field.
                object.__setattr__(request, "trace_id", trace)
        return traces

    # -- lifecycle -----------------------------------------------------

    def close(self) -> None:
        """Shut down the pool and unlink shared segments (idempotent).

        The engine owns every segment created through :meth:`share`;
        unlinking after the pool drains means no segment can leak even
        when workers crashed mid-batch — dead workers' mappings vanish
        with them, and unlink removes the name.
        """
        # Placement first: sharded views own their runners (thread pools,
        # shard-resident worker pools), and those workers must exit before
        # the segments they attached are unlinked.
        self._placement.close()
        self._supervisor.close()
        segments, self._shm_segments = self._shm_segments, []
        self._shm_tokens.clear()
        if segments:
            from repro.engine import shm

            shm.unlink_segments(segments)

    def share(self, sampler: Sampler) -> Tuple[Any, ...]:
        """Export ``sampler``'s structure to shared memory; return its token.

        The returned ``("shm", manifest)`` token is picklable and tiny
        (segment names plus O(log n) metadata) — pass it to
        :meth:`run_token` and process-backend workers mmap-attach the
        parent's arrays read-only instead of rebuilding or unpickling
        them. Repeated calls with the same sampler instance reuse the
        first export. Segments live until :meth:`close`.

        Raises :class:`~repro.engine.shm.ShmShareError` for structures
        without a shared-memory exporter (fall back to spec tokens).
        """
        from repro.engine import shm

        memo = self._shm_tokens.get(id(sampler))
        if memo is not None:
            return memo[1]
        manifest, segments = shm.export_sampler(
            sampler, rng_seed=DEFAULT_SEED if self._seed is None else self._seed
        )
        self._shm_segments.extend(segments)
        token = shm.shm_token(manifest)
        self._shm_tokens[id(sampler)] = (sampler, token)
        return token

    def __enter__(self) -> "SamplingEngine":
        return self

    def __exit__(self, *exc_info: Any) -> bool:
        self.close()
        return False

    def __del__(self) -> None:  # pragma: no cover - interpreter teardown
        try:
            self.close()
        except Exception:
            pass

    # ------------------------------------------------------------------

    def run(
        self, sampler: Sampler, requests: Iterable[QueryRequest]
    ) -> List[QueryResult]:
        """Execute ``requests`` against ``sampler``; results keep order.

        Legal for every placement × execution combination except
        local × process (whole requests cannot ship an already-built
        structure to a worker; use :meth:`run_spec` / :meth:`run_token`
        there). Under sharded × process the structure stays local and
        only shard sub-draws cross the process boundary, so built
        samplers are fine.
        """
        if self.placement == "local" and self.execution == "process":
            raise ValueError(
                "the process backend executes picklable build tokens, not "
                "already-built samplers; use run_spec(spec, params, requests) "
                "or run_token(token, requests) — or compose it with "
                "placement='sharded', which ships shard sub-draws instead"
            )
        return self._run_batch(
            requests, type(sampler).__name__, lambda jobs: self._dispatch(sampler, jobs)
        )

    def run_spec(
        self, spec: str, params: dict, requests: Iterable[QueryRequest]
    ) -> Tuple[Sampler, List[QueryResult]]:
        """Build ``spec`` through the registry, run the batch, return both.

        Under the process backend the batch executes against
        worker-resident rebuilds of ``(spec, params)``; the locally built
        sampler is returned for inspection and is byte-equivalent to the
        workers' copies (registry construction is deterministic).
        """
        sampler = build(spec, **params)
        if self.placement == "local" and self.execution == "process":
            return sampler, self.run_token(spec_token(spec, params), requests)
        return sampler, self.run(sampler, requests)

    def run_token(
        self, token: Tuple[Any, ...], requests: Iterable[QueryRequest]
    ) -> List[QueryResult]:
        """Execute a batch against a build token on the process pool.

        ``token`` is any :mod:`repro.engine.worker` build token —
        normally :func:`spec_token`'s ``("spec", spec, params_items)``.
        The token (and thus every build parameter) must be picklable.
        Only meaningful for the local × process combination.
        """
        if self.placement != "local" or self.execution != "process":
            raise ValueError(
                f"run_token requires backend='process', not {self.backend!r}"
            )
        try:
            key = pickle.dumps(token)
        except Exception as exc:
            raise TypeError(
                f"process-backend build token must be picklable "
                f"(rng must be an int seed, params plain data): {exc}"
            ) from exc
        spec = str(token[1]) if len(token) > 1 else "?"
        return self._run_batch(
            requests, spec, lambda jobs: self._dispatch_process(key, token, jobs, spec)
        )

    def explain(
        self, sampler: Sampler, request: QueryRequest
    ) -> Dict[str, Any]:
        """Plan ``request`` without executing any draws.

        Runs the planning half of the plan → execute split against the
        placement's view of ``sampler`` (so under the sharded placement
        the result describes the fan-out plan, sub-plans included) and
        reports it as plain data: the plan's cover spans and weights,
        whether it came out of the plan store (``"cached"``) or was
        built cold, and — for sharded plans — the deterministic expected
        budget split ``s · w_j / W`` per shard. Planning consumes no
        randomness, so explaining a request leaves every seeded stream
        untouched (the plan store does warm up, exactly as a real
        request would warm it).

        Raises :class:`TypeError` for structures with no planning
        surface and :class:`NotImplementedError` for range samplers
        that opt out of the plan layer.
        """
        view = self._placement.view(sampler, self)
        planner = getattr(view, "plan_request", None)
        if planner is None:
            raise TypeError(
                f"{type(sampler).__name__} has no query-planning surface "
                f"(no plan_request); --explain needs a planful structure"
            )
        scope = getattr(view, "plan_cache", None)
        misses_before = scope.misses if scope is not None else None
        plan = planner(request)
        info = plan.describe()
        info["cached"] = (
            scope is not None and scope.misses == misses_before
        )
        info["placement"] = self.placement
        if getattr(view, "plan_kind", None) == "sharded":
            active, sub_plans = plan.payload
            total = sum(weight for _, _, _, weight in active)
            info["budget_split"] = [
                {
                    "shard": j,
                    "span": (a, b),
                    "weight": weight,
                    "expected_quota": (
                        request.s * weight / total if total > 0 else 0.0
                    ),
                }
                for j, a, b, weight in active
            ]
            info["sub_plans"] = (
                [
                    sub.describe() if sub is not None else None
                    for sub in sub_plans
                ]
                if sub_plans is not None
                else None
            )
        return info

    # ------------------------------------------------------------------

    def _run_batch(
        self,
        requests: Iterable[QueryRequest],
        label: str,
        dispatch: Callable[[List[Tuple[QueryRequest, Optional[int]]]], List[QueryResult]],
    ) -> List[QueryResult]:
        """Seed, trace-stamp and count a batch; ``dispatch`` its jobs."""
        batch = list(requests)
        jobs = list(zip(batch, self.seeds_for(batch)))
        self._assign_traces(batch)
        if not obs.ENABLED:
            return dispatch(jobs)
        _BATCHES.inc()
        _REQUESTS.add(len(batch))
        with obs.span(
            "engine.run", backend=self.backend, requests=len(batch), sampler=label
        ):
            return dispatch(jobs)

    def _dispatch(
        self, sampler: Sampler, jobs: List[Tuple[QueryRequest, Optional[int]]]
    ) -> List[QueryResult]:
        # The placement decides what the requests execute against (the
        # sampler itself, or an engine-owned sharded view with an
        # execution runner bound); under the sharded placement requests
        # run in submission order and the parallelism lives *inside*
        # each request's shard fan-out. A sampler whose queries change
        # its state (engine_thread_safe False) also runs in submission
        # order, so the thread backend returns what serial does.
        sampler = self._placement.view(sampler, self)
        planned = list(zip(jobs, plan_jobs(sampler, jobs)))

        def run(part: List[Tuple[Tuple[QueryRequest, Optional[int]], Any]]) -> List[QueryResult]:
            return [self._execute_one(sampler, *job, plan) for job, plan in part]

        if (
            self.placement == "local"
            and self.execution == "thread"
            and getattr(sampler, "engine_thread_safe", False)
            and len(jobs) > 1
            and self.max_workers > 1
        ):
            # Contiguous chunks, as the process path sends: a pool task
            # per request costs ~20 µs of submit-and-wait overhead, as
            # much as a cold Lemma-2 request's planning.
            size = math.ceil(len(planned) / (self.max_workers * 4))
            parts = [planned[start:start + size] for start in range(0, len(planned), size)]
            with ThreadPoolExecutor(max_workers=self.max_workers) as pool:
                return [result for chunk in pool.map(run, parts) for result in chunk]
        return run(planned)

    def _execute_one(
        self,
        sampler: Sampler,
        request: QueryRequest,
        seed: Optional[int],
        plan: Any = None,
    ) -> QueryResult:
        enabled = obs.ENABLED
        spec = getattr(sampler, "engine_spec", None) or type(sampler).__name__
        trace_token = obs.set_current_trace(request.trace_id) if enabled else None
        try:
            started = perf_counter() if enabled else 0.0
            try:
                rng = None if seed is None else ensure_rng(seed)
                if plan is None:
                    result = sampler.execute(request, rng=rng)
                else:
                    result = sampler.execute(request, rng=rng, plan=plan)
                result.seed = seed
            except Exception as exc:
                if self._errors == "raise":
                    raise
                result = QueryResult(
                    request=request,
                    values=None,
                    seed=seed,
                    error=exc,
                    trace_id=request.trace_id,
                )
                if enabled:
                    _ERRORS.inc()
                    result.elapsed_s = perf_counter() - started
            if enabled:
                self._record_result(result, spec)
            return result
        finally:
            if trace_token is not None:
                obs.reset_current_trace(trace_token)

    def _record_result(self, result: QueryResult, spec: str) -> None:
        """Feed one settled request into the latency histogram and the
        flight recorder; flush matching records onto captured errors."""
        duration_us = (result.elapsed_s or 0.0) * 1e6
        if result.ok:
            _REQUEST_US.observe(duration_us)
        obs.RECORDER.record(
            trace=result.trace_id,
            spec=spec,
            op=result.request.op,
            s=result.request.s,
            backend=self.backend,
            duration_us=duration_us,
            error=type(result.error).__name__ if result.error is not None else None,
        )
        if result.error is not None:
            # A captured failure ships its own diagnostic context: every
            # retained record for this trace (including the one above).
            _attach_flight(result.error, result.trace_id)

    # -- process backend -----------------------------------------------

    def _dispatch_process(
        self,
        key: bytes,
        token: Tuple[Any, ...],
        jobs: List[Tuple[QueryRequest, Optional[int]]],
        spec: str = "?",
    ) -> List[QueryResult]:
        """Order-preserving chunks to any worker of the supervisor's
        shared pool; a request lost to a dying worker (only the crasher)
        settles as a :class:`~repro.errors.WorkerCrashedError`."""
        from repro.engine.worker import execute_chunk

        enabled = obs.ENABLED
        chunk_size = max(1, math.ceil(len(jobs) / (self.max_workers * 4)))
        calls = [
            (0, key, token, jobs[start:start + chunk_size])
            for start in range(0, len(jobs), chunk_size)
        ]
        outcomes = self._supervisor.run(
            execute_chunk,
            calls,
            lambda index, job: f"request {index} (op {job[0].op!r})",
        )
        out: List[QueryResult] = []
        for (request, seed), result in zip(jobs, outcomes):
            if isinstance(result, Exception):
                result = QueryResult(
                    request=request, values=None, seed=seed,
                    trace_id=request.trace_id, error=result,
                )
                if enabled and isinstance(result.error, WorkerCrashedError):
                    # The worker's own record died with it — log the
                    # crash envelope parent-side so the flight recorder
                    # still explains the failure.
                    self._record_result(result, spec)
            if result.error is not None:
                if self._errors == "raise":
                    raise result.error
                if enabled:
                    _ERRORS.inc()
                    _attach_flight(result.error, result.trace_id)
            elif enabled:
                _REQUEST_US.observe((result.elapsed_s or 0.0) * 1e6)
            out.append(result)
        return out
