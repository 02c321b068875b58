"""Unified sampler engine: protocol, registry/factory, batched executor.

Every sampler family in this package — alias (P1), tree (P2), the §3.2/§4
range structures (P3), Theorem-5 coverage sampling (P4/P5), set-union
(P6), fair near-neighbor (P7), the dynamic and external-memory
extensions — historically exposed its own constructor signature and
``sample(...)`` entry point. This subpackage is the single seam on top of
them all:

* :class:`~repro.engine.protocol.Sampler` — the structural protocol
  (``build`` / ``sample`` / ``sample_many`` / ``describe``) plus the
  uniform request entry point ``execute(request)`` that every structure
  implements through :class:`~repro.engine.protocol.EngineSampler`.
* :class:`~repro.engine.protocol.QueryRequest` /
  :class:`~repro.engine.protocol.QueryResult` — typed request/response
  dataclasses with shared validation (the one place ``s`` and interval
  sanity are checked).
* :class:`~repro.engine.registry.SamplerRegistry` — string-keyed specs
  (``"range.chunked"``, ``"fair_nn"``, ...) with lazy imports;
  :func:`~repro.engine.registry.build` is the factory every experiment,
  benchmark, and CLI entry point constructs samplers through.
* :class:`~repro.engine.executor.SamplingEngine` — batched executor with
  per-request independent RNG streams (seed-spawning via
  :func:`repro.substrates.rng.derive_seed`) and two composable layers:
  a placement (:mod:`repro.engine.placement` — ``local`` or the §4.1
  ``sharded`` key-space split) over an execution backend (serial /
  thread / process, :mod:`repro.engine.execution`). The local process
  backend ships picklable ``(spec, params)`` build tokens to resident
  pool workers (:mod:`repro.engine.worker`); the sharded placement
  partitions a range structure's key space and splits each request's
  budget multinomially (:class:`~repro.engine.shard.ShardedSampler`,
  re-exported lazily here), and composed with the process backend keeps
  one shard resident per worker. Both process combinations share one
  :class:`~repro.engine.execution.ProcessSupervisor`.

Quickstart::

    from repro.engine import QueryRequest, SamplingEngine, build

    sampler = build("range.chunked", keys=keys, weights=weights, rng=7)
    engine = SamplingEngine(backend="thread", seed=42)
    results = engine.run(
        sampler,
        [QueryRequest(op="sample", args=(x, y), s=64) for x, y in spans],
    )

See docs/ARCHITECTURE.md for the layer diagram and the registry key
table.
"""

from repro.engine.demo import demo_build
from repro.engine.executor import BACKENDS, PLACEMENTS, SamplingEngine, spec_token
from repro.engine.placement import normalize_backend
from repro.engine.protocol import (
    EngineOp,
    EngineSampler,
    PlacementPlan,
    QueryRequest,
    QueryResult,
    Sampler,
    ShardTask,
)
from repro.engine.registry import REGISTRY, SamplerEntry, SamplerRegistry, build

__all__ = [
    "BACKENDS",
    "EngineOp",
    "EngineSampler",
    "PLACEMENTS",
    "PlacementPlan",
    "QueryRequest",
    "QueryResult",
    "REGISTRY",
    "Sampler",
    "SamplerEntry",
    "SamplerRegistry",
    "SamplingEngine",
    "ShardTask",
    "ShardedSampler",
    "ShmShareError",
    "build",
    "demo_build",
    "normalize_backend",
    "spec_token",
]


def __getattr__(name):
    # ShardedSampler pulls in the core range-sampler stack, and the shm
    # module needs numpy, so both are resolved lazily — ``import
    # repro.engine`` stays cheap (the same policy as the registry's
    # dotted-path targets).
    if name == "ShardedSampler":
        from repro.engine.shard import ShardedSampler

        return ShardedSampler
    if name == "ShmShareError":
        from repro.engine.shm import ShmShareError

        return ShmShareError
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
