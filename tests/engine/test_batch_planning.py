"""Batch planning: one ``plan_requests`` call per engine batch.

The engine plans every ``sample``/``sample_indices`` request of a batch
at once (one batched cover walk once at least ``kernels.BATCH_MIN_SIZE``
spans miss the plan store) and then executes each request with its
plan. Planning consumes no randomness, so every request must return
exactly what the same request returns on its own, and the plan store
and cover counters must move exactly as they do when each request plans
itself. The golden streams use batches of 3 and ``s < 16``, so they
never reach this path; these tests do, at n = 4096 and batches of 64.
"""

from __future__ import annotations

import math
import random
from contextlib import nullcontext

import pytest

from repro.core import kernels
from repro.engine import QueryRequest, SamplingEngine
from repro.engine.registry import build

N = 4096
KEYS = [float(3 * i) for i in range(N)]
WEIGHTS = [1.0 + (i * 7919) % 97 for i in range(N)]
SPECS = ("range.lemma2", "range.treewalk")


def spans(count, seed):
    """Random ``(lo, hi)`` key-index pairs; a request asks for ``[KEYS[lo], KEYS[hi]]``."""
    rnd = random.Random(seed)
    out = []
    for _ in range(count):
        lo = rnd.randrange(N)
        out.append((lo, rnd.randrange(lo, min(N, lo + rnd.choice((1, 40, 400, N))))))
    return out


def hostile_requests(s):
    """Requests that fail validation or select no key, one of each kind."""
    return [
        QueryRequest(op="sample", args=(math.nan, KEYS[10]), s=s, seed=1),
        QueryRequest(op="sample_indices", args=(KEYS[50], KEYS[40]), s=s, seed=2),
        QueryRequest(op="sample_indices", args=(KEYS[7] + 1, KEYS[7] + 2), s=s, seed=3),
        QueryRequest(op="sample", args=(KEYS[1],), s=s, seed=4),
    ]


def batch(s, seed):
    """64 requests: both ops over random spans with the hostile ones mixed in."""
    requests = [
        QueryRequest(
            op="sample" if j % 2 else "sample_indices",
            args=(KEYS[lo], KEYS[hi]),
            s=s,
            seed=1000 * seed + j,
        )
        for j, (lo, hi) in enumerate(spans(60, seed))
    ]
    for position, request in zip((0, 17, 33, 63), hostile_requests(s)):
        requests.insert(position, request)
    return requests


def expected(sampler, request):
    """The request on its own: the native call on ``Random(seed)``, or
    the error ``execute`` raises for it."""
    try:
        sampler.validate_request(request)
        method = getattr(sampler, request.op)
        return method(*request.args, request.s, rng=random.Random(request.seed))
    except Exception as exc:  # compared by type below
        return exc


@pytest.mark.parametrize("backend", ["serial", "thread"])
@pytest.mark.parametrize("spec", SPECS)
@pytest.mark.parametrize("s", [1, 15, 16, 1024])
@pytest.mark.parametrize("scalar", [False, True], ids=["numpy", "scalar_loops"])
def test_batch_results_equal_per_request_results(spec, s, backend, scalar):
    with kernels.scalar_loops() if scalar else nullcontext():
        sampler = build(spec, keys=KEYS, weights=WEIGHTS, rng=5)
        requests = batch(s, seed=s)
        with SamplingEngine(backend=backend, max_workers=2) as engine:
            results = engine.run(sampler, requests)
        assert len(results) == 64
        for request, result in zip(requests, results):
            want = expected(sampler, request)
            if isinstance(want, Exception):
                assert type(result.error) is type(want), request
            else:
                assert result.error is None, result.error
                assert result.values == want


def test_batches_take_the_batched_cover_walk(monkeypatch):
    sampler = build("range.lemma2", keys=KEYS, weights=WEIGHTS, rng=5)
    calls = []
    walk = type(sampler._tree).canonical_nodes_batch

    def spy(tree, los, his):
        calls.append(len(los))
        return walk(tree, los, his)

    monkeypatch.setattr(type(sampler._tree), "canonical_nodes_batch", spy)
    with SamplingEngine() as engine:
        engine.run(sampler, batch(16, seed=9))
        engine.run(sampler, batch(16, seed=9))  # every span now hits the store
    assert len(calls) == 1 and calls[0] >= kernels.BATCH_MIN_SIZE


@pytest.mark.parametrize("backend", ["serial", "thread"])
@pytest.mark.parametrize("spec", SPECS)
def test_each_request_is_validated_once(spec, backend, monkeypatch):
    # plan_requests validates what it plans, so execute() validates only
    # the requests it did not plan (here: the sample_wor op).
    sampler = build(spec, keys=KEYS, weights=WEIGHTS, rng=5)
    planned = [
        QueryRequest(op="sample_indices", args=(KEYS[lo], KEYS[hi]), s=4, seed=j)
        for j, (lo, hi) in enumerate(spans(20, seed=3))
    ]
    unplanned = [
        QueryRequest(op="sample_wor", args=(KEYS[1], KEYS[90]), s=2, seed=j)
        for j in range(3)
    ]
    requests = planned[:10] + unplanned + planned[10:]
    calls = []
    validate = type(sampler).validate_request

    def spy(self, request):
        calls.append(id(request))
        return validate(self, request)

    monkeypatch.setattr(type(sampler), "validate_request", spy)
    with SamplingEngine(backend=backend, max_workers=2) as engine:
        results = engine.run(sampler, requests)
    assert all(result.ok for result in results)
    assert sorted(calls) == sorted(id(request) for request in requests)


@pytest.mark.parametrize("spec", SPECS)
def test_batch_moves_the_counters_as_request_by_request_planning(spec, metrics_on):
    warm = spans(5, seed=1)
    fresh = spans(30, seed=2)
    # Repeats of earlier misses and of warm spans, an unplanned op and
    # hostile requests, all in one batch.
    order = fresh[:10] + warm + fresh[10:] + fresh[:3] + warm[:2]
    requests = [
        QueryRequest(op="sample_indices", args=(KEYS[lo], KEYS[hi]), s=4) for lo, hi in order
    ]
    requests.insert(7, QueryRequest(op="sample_wor", args=(KEYS[1], KEYS[90]), s=2))
    requests[20:20] = hostile_requests(4)

    def planned(plan_batch):
        sampler = build(spec, keys=KEYS, weights=WEIGHTS, rng=5)
        for lo, hi in warm:
            sampler.plan_span(lo, hi + 1)
        names = ("bst.covers", "bst.cover_nodes", "plan_cache.hits", "plan_cache.misses")
        before = [metrics_on.value(name) for name in names]
        plans = plan_batch(sampler)
        after = [metrics_on.value(name) for name in names]
        scope = sampler.plan_cache
        return plans, [b - a for a, b in zip(before, after)], (scope.hits, scope.misses)

    def one_by_one(sampler):
        plans = []
        for request in requests:
            try:
                sampler.validate_request(request)
                lo, hi = sampler.span_of(*request.args)
            except ValueError:
                plans.append(None)
                continue
            ok = request.op in ("sample", "sample_indices") and lo < hi
            plans.append(sampler.plan_span(lo, hi) if ok else None)
        return plans

    batch_plans, batch_counts, batch_scope = planned(lambda sampler: sampler.plan_requests(requests))
    single_plans, single_counts, single_scope = planned(one_by_one)
    assert batch_counts == single_counts
    assert batch_scope == single_scope
    assert [p is None for p in batch_plans] == [p is None for p in single_plans]
    for got, want in zip(batch_plans, single_plans):
        if want is not None:
            assert (got.key, got.spans, got.weights, got.hint) == (
                want.key,
                want.spans,
                want.weights,
                want.hint,
            )
