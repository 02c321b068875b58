"""Worker side of the engine's process backends.

Workers rebuild samplers from picklable *build tokens* once and keep
them resident in a module-level cache, so a batch of R requests costs R
executions plus at most one build per ``(worker, token)`` — not R
builds. This is what lets CPU-bound scalar samplers (whose hot loops the
GIL serializes under the thread backend) scale across cores: the
registry's specs are picklable, so ``(spec, params)`` crosses the
process boundary and the structure itself never does.

Token shapes (first element is the kind):

* ``("spec", spec, params_items)`` — ``build(spec, **dict(params_items))``
  through the sampler registry; ``params_items`` is a sorted tuple of
  ``(name, value)`` pairs so equal parameter dicts produce equal tokens.
* ``("demo", spec, n)`` — ``demo_build(spec, n=n)``, the synthesized CLI
  workload.
* ``("call", "module:attr", params_items)`` — an arbitrary importable
  factory (test fault injection, custom builders).
* ``("shm", manifest)`` — attach a structure the parent exported into
  shared memory (:mod:`repro.engine.shm`, via
  :meth:`SamplingEngine.share`). The "rebuild" is an mmap attach: no
  structure arrays cross the process boundary and no O(n) build runs.
* ``("shard", "module:Class", keys, weights)`` — rebuild one key-space
  shard of a sharded placement from its raw arrays. The fallback path
  for shard-resident workers when the shard's structure has no shm
  exporter; the preferred path ships the shard as an ``("shm", ...)``
  token instead.

Two entry points share one skeleton (resident lookup/build, harvest
bracket, trace context, flight record) and differ only in how one item
executes: :func:`execute_chunk` runs whole ``(request, seed)`` jobs (the
local × process backend), :func:`execute_shard_chunk` runs shard
sub-draws — ``(lo, hi, quota, seed)``, a few ints each — on the one
worker where that shard is resident (the composed ``sharded × process``
backend), so per-request bytes stay O(log n) end to end.

Every execution error is captured *in the worker* into the result
envelope, so one bad request cannot poison the pool; only a worker that
dies outright (``os._exit``, OOM-kill) surfaces as a broken-pool error,
which the parent's :class:`~repro.engine.execution.ProcessSupervisor`
converts into per-item :class:`~repro.errors.WorkerCrashedError`
outcomes.

**Metric harvest** (``harvest=True``, set by the parent iff its metrics
are enabled): the worker enables its own registry, brackets the chunk
with a :func:`repro.obs.harvest.baseline` / ``delta_since`` pair, tags
every execution with the request's trace ID (a ``worker.execute`` span
plus a flight-recorder entry carrying this PID), and returns the delta
as the third envelope element. The parent merges it once per resolved
future — a crashed worker returns no envelope, so its partial counts die
with it and a retried request is never double-counted.
"""

from __future__ import annotations

import importlib
import pickle
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro import obs
from repro.engine.protocol import QueryRequest, QueryResult, plan_jobs
from repro.substrates.rng import ensure_rng

__all__ = ["build_from_token", "execute_chunk", "execute_shard_chunk"]

#: Per-worker-process resident samplers, keyed by the pickled token.
_RESIDENT: Dict[bytes, Any] = {}


def build_from_token(token: Tuple[Any, ...]) -> Any:
    """Construct the sampler a build token describes (registry-shaped)."""
    kind = token[0]
    if kind == "spec":
        from repro.engine.registry import build

        _, spec, params_items = token
        return build(spec, **dict(params_items))
    if kind == "demo":
        from repro.engine.demo import demo_build

        _, spec, n = token
        sampler, _ = demo_build(spec, n=n)
        return sampler
    if kind == "call":
        _, target, params_items = token
        module_name, _, attr = target.partition(":")
        factory = getattr(importlib.import_module(module_name), attr)
        return factory(**dict(params_items))
    if kind == "shm":
        from repro.engine import shm

        _, manifest = token
        return shm.attach_sampler(manifest)
    if kind == "shard":
        _, target, keys, weights = token
        module_name, _, attr = target.partition(":")
        shard_cls = getattr(importlib.import_module(module_name), attr)
        # Construction consumes no instance randomness (builds are
        # deterministic) and every shard draw arrives with an explicit
        # per-task rng, so a fixed rebuild seed keeps the resident shard
        # byte-identical to the parent's copy.
        return shard_cls(list(keys), weights=list(weights), rng=0)
    raise ValueError(f"unknown build token kind {kind!r}")


def _picklable_error(exc: Exception) -> Exception:
    """The exception itself if it round-trips through pickle, else a stand-in."""
    try:
        pickle.loads(pickle.dumps(exc))
        return exc
    except Exception:
        return RuntimeError(f"{type(exc).__name__}: {exc}")


def _serve(
    key: bytes,
    token: Tuple[Any, ...],
    items: List[Any],
    harvest: bool,
    describe: Callable[[Any], Tuple[Optional[str], str, int, str]],
    run_one: Callable[[Any, Any, Any], Any],
    plan_all: Optional[Callable[[Any, List[Any]], List[Any]]] = None,
) -> Tuple[int, List[Any], Optional[dict]]:
    """The skeleton both entry points share: resident lookup/build,
    harvest bracket, per-item trace context and flight record.

    ``describe(item)`` gives ``(trace_id, op, s, spec_suffix)``;
    ``plan_all(sampler, items)``, when given, plans the whole chunk once
    the sampler is resident, and ``run_one(sampler, item, plan)``
    executes one item with its plan (``None`` without ``plan_all``). An
    item that raised has its (picklable) exception as its outcome.
    """
    base: Optional[dict] = None
    if harvest:
        from repro.obs import harvest as harvest_mod

        # The parent may have enabled metrics after this worker forked
        # (or the pool spawned without REPRO_METRICS): the per-chunk flag
        # is authoritative. Enabling is sticky — residency makes this
        # worker serve many chunks, and re-disabling between chunks
        # would only race the next flag.
        obs.enable()
        base = harvest_mod.baseline()
    rebuilds = 0
    sampler = _RESIDENT.get(key)
    plans: Optional[List[Any]] = None
    outcomes: List[Any] = []
    for index, item in enumerate(items):
        trace_id, op, s, suffix = describe(item)
        trace_token = obs.set_current_trace(trace_id) if harvest else None
        started = time.perf_counter()
        error: Optional[Exception] = None
        try:
            if sampler is None:
                with obs.span("worker.build", kind=str(token[0])):
                    sampler = build_from_token(token)
                _RESIDENT[key] = sampler
                rebuilds = 1
            if plans is None:
                plans = plan_all(sampler, items) if plan_all else [None] * len(items)
            outcomes.append(run_one(sampler, item, plans[index]))
        except Exception as exc:
            error = _picklable_error(exc)
            outcomes.append(error)
        finally:
            if trace_token is not None:
                obs.reset_current_trace(trace_token)
        if harvest:
            obs.RECORDER.record(
                trace=trace_id,
                spec=_spec_label(token) + suffix,
                op=op,
                s=s,
                backend="process",
                duration_us=(time.perf_counter() - started) * 1e6,
                error=type(error).__name__ if error is not None else None,
            )
    if harvest:
        return rebuilds, outcomes, harvest_mod.delta_since(base)
    return rebuilds, outcomes, None


def _run_request(
    sampler: Any, job: Tuple[QueryRequest, Optional[int]], plan: Any
) -> QueryResult:
    request, seed = job
    rng = None if seed is None else ensure_rng(seed)
    with obs.span("worker.execute", op=request.op):
        if plan is None:
            result = sampler.execute(request, rng=rng)
        else:
            result = sampler.execute(request, rng=rng, plan=plan)
    result.seed = seed
    return result


def execute_chunk(
    key: bytes,
    token: Tuple[Any, ...],
    jobs: List[Tuple[QueryRequest, Optional[int]]],
    harvest: bool = False,
) -> Tuple[int, List[Any], Optional[dict]]:
    """Execute a chunk of ``(request, seed)`` jobs on the resident sampler.

    The chunk is planned in one ``plan_requests`` call on the resident
    sampler, as the engine plans a local batch. Returns
    ``(rebuilds, outcomes, delta)`` where ``rebuilds`` is 1 when
    this call had to (re)build the sampler — the parent feeds it into the
    ``engine.worker_rebuilds`` counter — and ``delta`` is the harvest
    payload of everything this chunk recorded in the worker registry
    (``None`` unless ``harvest``). Outcomes are order-preserving: a
    :class:`~repro.engine.protocol.QueryResult` per executed request, or
    the captured exception of a request that failed.
    """
    return _serve(
        key,
        token,
        jobs,
        harvest,
        lambda job: (job[0].trace_id, job[0].op, job[0].s, ""),
        _run_request,
        plan_jobs,
    )


def _run_shard_draw(sampler: Any, draw: Tuple[Any, ...], _plan: Any) -> List[int]:
    shard, lo, hi, quota, seed = draw[:5]
    portable = draw[6] if len(draw) > 6 else None
    with obs.span("worker.shard_draw", s=quota, shard=shard):
        if portable is not None and getattr(sampler, "plan_kind", None):
            plan = sampler.plan_span(lo, hi, portable=portable)
            return sampler.execute_plan(plan, quota, rng=ensure_rng(seed))
        return sampler.sample_span(lo, hi, quota, rng=ensure_rng(seed))


def execute_shard_chunk(
    key: bytes,
    token: Tuple[Any, ...],
    draws: List[Tuple[Any, ...]],
    harvest: bool = False,
) -> Tuple[int, List[Any], Optional[dict]]:
    """Execute shard sub-draws on this worker's resident shard.

    ``draws`` entries are ``(shard, lo, hi, quota, seed, trace_id)`` —
    one :class:`~repro.engine.protocol.ShardTask` each, plus the owning
    request's trace for harvest tagging — optionally extended with a
    seventh *portable plan* element, ``(kind, key, hint)`` from
    :meth:`~repro.core.planner.QueryPlan.portable`. When present (and
    the resident shard is planful), the worker rebuilds the parent's
    shard-local plan from the cover hint — skipping the cover search —
    and executes it; planning consumes no randomness, so the draws stay
    byte-identical to the ``sample_span`` path. All entries must target
    the shard this worker's ``token`` rebuilds (the parent routes one
    shard per resident worker). Returns ``(rebuilds, outcomes, delta)``
    where each outcome is the sub-draw's local indices or its captured
    exception — failures are captured per sub-draw so one bad span
    cannot poison the shard's batchmates. With ``harvest`` on,
    each sub-draw lands in the flight recorder tagged with its shard id
    (``spec`` suffix ``#s<j>``), so per-shard timelines fall out of the
    normal obs tail.
    """
    return _serve(
        key,
        token,
        draws,
        harvest,
        lambda draw: (draw[5], "sample_span", draw[3], f"#s{draw[0]}"),
        _run_shard_draw,
    )


def _spec_label(token: Tuple[Any, ...]) -> str:
    """A short human label for the structure a build token describes."""
    kind = token[0]
    if kind in ("spec", "demo", "call") and len(token) > 1:
        return str(token[1])
    if kind == "shm" and len(token) > 1:
        return f"shm:{token[1].get('kind', '?')}"
    if kind == "shard" and len(token) > 1:
        return f"shard:{str(token[1]).rpartition(':')[2]}"
    return str(kind)
