"""Golden seeded-stream snapshots for every registry spec.

The plan/execute refactor's contract is that it changes *where* the
canonical-cover computation happens, never *what* a seeded query
returns. These tests pin that contract to data: the exact output
streams of every registry spec, captured from the pre-refactor tree and
committed as ``tests/data/golden_streams.json``, must keep reproducing
byte-for-byte — warm cache, cold cache (``REPRO_PLAN_CACHE_SIZE=0``),
and across the serial/thread/sharded backends.

Regenerate (only when a capture leg is deliberately added) with::

    PYTHONPATH=src python tests/engine/test_golden_streams.py --regen

The capture uses only long-stable public entry points (``demo_build``,
``SamplingEngine``, ``QueryRequest``), so the same procedure runs
unchanged before and after the refactor — that is what makes the file a
pre/post byte-identity oracle rather than a self-fulfilling snapshot.

Every capture leg but ``batch`` keeps ``s`` below
``kernels.BATCH_MIN_SIZE``, so the query draws run the scalar reference
loops. The ``batch`` leg repeats the serial leg at ``s = 64``, pinning
the numpy draw paths. Structures whose internal draws cross the cutoff
regardless of the query's ``s`` (the EM sampler's pool refill splits a
full pool multinomially) are pinned on the numpy path those refills take
in every leg.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.engine import QueryRequest, SamplingEngine, demo_build
from repro.engine.registry import REGISTRY

GOLDEN_PATH = Path(__file__).resolve().parent.parent / "data" / "golden_streams.json"

#: Engine master seed for the batched legs (arbitrary, fixed forever).
ENGINE_SEED = 20260807
#: Explicit per-request seed for the standalone-execute leg.
DIRECT_SEED = 7
#: Draws per request — deliberately below kernels.BATCH_MIN_SIZE so the
#: query draws run the scalar reference loops.
BATCH_S = 5
DIRECT_S = 8
#: Draws per request of the ``batch`` leg — at or above
#: kernels.BATCH_MIN_SIZE, so the query draws take the numpy paths.
NUMPY_S = 64
#: Requests per batched leg.
BATCH_REQUESTS = 3
#: Shard counts for the sharded-placement legs (the acceptance K set).
SHARD_COUNTS = (2, 4, 8)


def _normalize(values):
    """Round-trip through JSON so tuples/lists compare canonically."""
    return json.loads(json.dumps(values))


def _batch(template: QueryRequest, s: int = BATCH_S):
    return [
        QueryRequest(op=template.op, args=template.args, s=s)
        for _ in range(BATCH_REQUESTS)
    ]


def _run_serial(spec: str, s: int = BATCH_S):
    sampler, template = demo_build(spec)
    engine = SamplingEngine(backend="serial", seed=ENGINE_SEED)
    try:
        results = engine.run(sampler, _batch(template, s))
        return [_normalize(result.unwrap()) for result in results]
    finally:
        engine.close()


def _run_thread(spec: str):
    sampler, template = demo_build(spec)
    engine = SamplingEngine(backend="thread", seed=ENGINE_SEED, max_workers=4)
    try:
        results = engine.run(sampler, _batch(template))
        return [_normalize(result.unwrap()) for result in results]
    finally:
        engine.close()


def _run_direct(spec: str):
    sampler, template = demo_build(spec)
    request = QueryRequest(
        op=template.op, args=template.args, s=DIRECT_S, seed=DIRECT_SEED
    )
    return _normalize(sampler.execute(request).unwrap())


def _run_sharded(spec: str, shards: int):
    sampler, template = demo_build(spec)
    engine = SamplingEngine(
        backend="serial", placement="sharded", shards=shards, seed=ENGINE_SEED
    )
    try:
        results = engine.run(sampler, _batch(template))
        return [_normalize(result.unwrap()) for result in results]
    finally:
        engine.close()


def capture() -> dict:
    """Capture every leg for every spec (the --regen entry)."""
    from repro.engine.shard import ShardedSampler

    goldens: dict = {}
    for entry in REGISTRY.specs():
        spec = entry.key
        legs = {
            "serial": _run_serial(spec),
            "direct": _run_direct(spec),
            "batch": _run_serial(spec, NUMPY_S),
        }
        probe, _ = demo_build(spec)
        if ShardedSampler.supports(probe):
            for shards in SHARD_COUNTS:
                try:
                    legs[f"sharded{shards}"] = _run_sharded(spec, shards)
                except (TypeError, ValueError):
                    # Structure class without the (keys, weights, rng)
                    # constructor shape sharding rebuilds through.
                    break
        goldens[spec] = legs
    return goldens


def _load_goldens() -> dict:
    if not GOLDEN_PATH.exists():  # pragma: no cover - regen guard
        pytest.fail(
            f"golden stream file missing: {GOLDEN_PATH} "
            f"(regenerate with `python {__file__} --regen`)"
        )
    return json.loads(GOLDEN_PATH.read_text())


GOLDENS = _load_goldens() if GOLDEN_PATH.exists() else {}
SPECS = sorted(spec for spec in GOLDENS)


def test_golden_covers_every_registry_spec():
    assert sorted(entry.key for entry in REGISTRY.specs()) == SPECS


@pytest.mark.parametrize("spec", SPECS)
def test_serial_stream_matches_golden(spec):
    assert _run_serial(spec) == GOLDENS[spec]["serial"]


@pytest.mark.parametrize("spec", SPECS)
def test_direct_execute_matches_golden(spec):
    assert _run_direct(spec) == GOLDENS[spec]["direct"]


@pytest.mark.parametrize("spec", SPECS)
def test_batch_stream_matches_golden(spec):
    assert _run_serial(spec, NUMPY_S) == GOLDENS[spec]["batch"]


@pytest.mark.parametrize("spec", SPECS)
def test_thread_backend_matches_golden(spec):
    # Not a separate stored leg: the thread backend must be
    # byte-identical to serial, so it checks against the same golden.
    assert _run_thread(spec) == GOLDENS[spec]["serial"]


@pytest.mark.parametrize(
    "spec,shards",
    [
        (spec, shards)
        for spec in SPECS
        for shards in SHARD_COUNTS
        if f"sharded{shards}" in GOLDENS.get(spec, {})
    ],
)
def test_sharded_stream_matches_golden(spec, shards):
    assert _run_sharded(spec, shards) == GOLDENS[spec][f"sharded{shards}"]


@pytest.mark.parametrize("spec", SPECS)
def test_cache_disabled_stream_matches_golden(spec, monkeypatch):
    """The cache-off leg: byte-identity must hold without memoization.

    ``REPRO_PLAN_CACHE_SIZE=0`` disables every plan cache consulted at
    sampler construction; rebuilt samplers then recompute each plan per
    query and must still replay the committed streams exactly.
    """
    monkeypatch.setenv("REPRO_PLAN_CACHE_SIZE", "0")
    assert _run_serial(spec) == GOLDENS[spec]["serial"]
    assert _run_direct(spec) == GOLDENS[spec]["direct"]
    for shards in SHARD_COUNTS:
        if f"sharded{shards}" in GOLDENS[spec]:
            assert _run_sharded(spec, shards) == GOLDENS[spec][f"sharded{shards}"]


def main(argv=None) -> int:  # pragma: no cover - maintenance entry
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--regen", action="store_true", help="rewrite the golden stream file"
    )
    args = parser.parse_args(argv)
    if not args.regen:
        parser.error("nothing to do (pass --regen)")
    goldens = capture()
    GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN_PATH.write_text(json.dumps(goldens, indent=1, sort_keys=True) + "\n")
    legs = sum(len(v) for v in goldens.values())
    print(f"wrote {len(goldens)} specs / {legs} legs to {GOLDEN_PATH}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    import sys

    sys.exit(main())
