"""The process-pool supervisor on both of its routes.

``local × process`` routes whole requests to *any* worker of one shared
pool; ``sharded × process`` pins shard ``j`` to single-worker pool
``j % npools``. Both routes run on one
:class:`~repro.engine.execution.ProcessSupervisor`, so the same crash
rule, harvest merge and shutdown hold on each:

* a crashing item settles as :class:`~repro.errors.WorkerCrashedError`
  while its batchmates succeed;
* a crashed chunk's metric harvest is merged exactly once — the
  ``faulty.draws`` probe (:mod:`tests.engine.faulty`) is incremented only
  in worker processes, so every count the parent sees arrived through a
  returned envelope;
* after ``engine.close()`` no worker process and no shared-memory
  segment the engine created is left.
"""

import multiprocessing
from multiprocessing.shared_memory import SharedMemory

import pytest

from repro import obs
from repro.engine import QueryRequest, SamplingEngine, build
from repro.errors import WorkerCrashedError

FAULTY = ("call", "tests.engine.faulty:build_faulty", ())

N = 240
KEYS = [float(i) for i in range(N)]


def faulty_range():
    from tests.engine.faulty import FaultyRangeSampler

    return FaultyRangeSampler(KEYS, rng=1)


def range_request(x, y, s=16):
    return QueryRequest(op="sample", args=(x, y), s=s)


class TestAnyRoute:
    def test_crasher_fails_alone_and_harvest_merges_once(self, metrics_on):
        batch = [QueryRequest(op="sample", args=(b,), s=3) for b in ("ok", "die", "ok", "ok")]
        with SamplingEngine(backend="process", seed=1, max_workers=2) as engine:
            results = engine.run_token(FAULTY, batch)
        assert [r.ok for r in results] == [True, False, True, True]
        assert isinstance(results[1].error, WorkerCrashedError)
        assert "request 1" in str(results[1].error)
        assert obs.value("faulty.draws") == 3


class TestPinnedRoute:
    # Shard 0 of 4 owns keys 0..59, including the poisoned keys below
    # FaultyRangeSampler.DIE_BELOW: its resident dies on first touch,
    # and dies again on the supervisor's one re-run.
    @pytest.mark.parametrize("workers", [4, 2])
    def test_crasher_fails_alone_and_harvest_merges_once(self, metrics_on, workers):
        safe = range_request(80.0, 230.0)
        poisoned = range_request(0.0, 230.0, s=32)
        with SamplingEngine(
            placement="sharded", backend="process", seed=5, shards=4, max_workers=workers
        ) as engine:
            results = engine.run(faulty_range(), [safe, poisoned, safe])
        assert [r.ok for r in results] == [True, False, True]
        assert isinstance(results[1].error, WorkerCrashedError)
        assert "shard 0" in str(results[1].error)
        # Every dispatched shard task drew exactly once, except the
        # poisoned shard-0 task — including, with two pools, the
        # sibling task that shared the broken pool and was re-run.
        assert obs.value("faulty.draws") == obs.value("engine.placement_shards") - 1


@pytest.mark.parametrize("route", ["any", "pinned"])
def test_close_leaves_no_children_and_no_segments(route):
    before = {child.pid for child in multiprocessing.active_children()}
    sampler = build("range.chunked", keys=KEYS, rng=1)
    requests = [range_request(20.0, 200.0) for _ in range(4)]
    if route == "any":
        engine = SamplingEngine(backend="process", seed=1, max_workers=2)
        crashed = engine.run_token(FAULTY, [QueryRequest(op="sample", args=("die",), s=3)])
        assert isinstance(crashed[0].error, WorkerCrashedError)
        results = engine.run_token(engine.share(sampler), requests)
    else:
        engine = SamplingEngine(
            placement="sharded", backend="process", seed=1, shards=4, max_workers=2
        )
        results = engine.run(sampler, requests)
    assert all(r.ok for r in results)
    names = [segment.name for segment in engine._shm_segments]
    assert names, "the route should have exported shared-memory segments"
    assert {child.pid for child in multiprocessing.active_children()} - before
    engine.close()
    assert {child.pid for child in multiprocessing.active_children()} - before == set()
    for name in names:
        with pytest.raises(FileNotFoundError):
            SharedMemory(name=name)
