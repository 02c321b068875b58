"""The query-planning layer: QueryPlan values, PlanStore, PlanScope.

Four concerns:

1. **QueryPlan value semantics** — cover/weight accessors, the portable
   (cross-process) form, and the ``--explain`` description payload.
2. **Store sharing** — one engine-scoped ``PlanStore`` serves many
   samplers, keyed by structure fingerprint, without any cross-talk
   between structures; the LRU bound is a shared budget.
3. **Scope/counter agreement** — the per-instance tallies must agree
   with the obs registry's ``plan_cache.*`` counters and their per-kind
   twins whenever metrics are on.
4. **The plan-fetch routine** — ``PlanScope.fetch`` builds once per key,
   passes a matching portable hint to the build, and drops a foreign one.
"""

import random

import pytest

from repro import obs
from repro.core.planner import (
    DEFAULT_CAPACITY,
    ENV_CAPACITY,
    PlanScope,
    PlanStore,
    QueryPlan,
    plan_scope,
    shared_store,
)
from repro.core.range_sampler import ChunkedRangeSampler, TreeWalkRangeSampler


def _plan(kind="treewalk", key=(3, 9), weights=(2.0, 1.0, 3.0)):
    return QueryPlan(
        kind,
        key,
        spans=((3, 5), (5, 6), (6, 9)),
        weights=weights,
        payload=object(),
        hint=(4, 11, 12),
    )


class TestQueryPlan:
    def test_cover_accessors(self):
        plan = _plan()
        assert plan.cover_size == 3
        assert plan.total_weight == pytest.approx(6.0)

    def test_portable_is_plain_data(self):
        plan = _plan()
        kind, key, hint = plan.portable()
        assert kind == "treewalk"
        assert key == (3, 9)
        assert hint == (4, 11, 12)
        # The payload (live tables) never crosses the boundary.
        assert plan.payload not in plan.portable()

    def test_describe_payload(self):
        info = _plan().describe()
        assert info["kind"] == "treewalk"
        assert info["key"] == (3, 9)
        assert info["cover_spans"] == 3
        assert info["total_weight"] == pytest.approx(6.0)
        assert info["spans"] == [(3, 5), (5, 6), (6, 9)]
        assert info["weights"] == [2.0, 1.0, 3.0]

    def test_spanless_plan_describes_without_spans(self):
        plan = QueryPlan("dynamic", (0.0, 1.0), spans=None, weights=(1.0,))
        assert "spans" not in plan.describe()
        assert plan.cover_size == 1


class TestPlanStoreSharing:
    def test_fingerprint_isolation_same_key(self):
        store = PlanStore(8)
        a = PlanScope(store, "treewalk")
        b = PlanScope(store, "treewalk")
        a.put((0, 10), "plan-a")
        b.put((0, 10), "plan-b")
        assert a.get((0, 10)) == "plan-a"
        assert b.get((0, 10)) == "plan-b"
        assert len(a) == 1 and len(b) == 1
        assert len(store) == 2

    def test_shared_lru_budget_and_eviction_attribution(self):
        store = PlanStore(2)
        a = PlanScope(store, "treewalk")
        b = PlanScope(store, "chunked")
        a.put((0, 1), "a0")
        b.put((0, 1), "b0")
        a.put((0, 2), "a1")  # evicts a's (0, 1), the LRU entry
        assert a.get((0, 1)) is None
        assert b.get((0, 1)) == "b0"
        # The eviction is attributed to the scope that lost the entry.
        assert a.evictions == 1
        assert b.evictions == 0

    def test_clear_scope_leaves_other_scopes(self):
        store = PlanStore(8)
        a = PlanScope(store, "treewalk")
        b = PlanScope(store, "treewalk")
        a.put((0, 1), "a")
        b.put((0, 1), "b")
        a.clear()
        assert len(a) == 0
        assert b.get((0, 1)) == "b"

    def test_capacity_zero_is_bypass_for_every_scope(self):
        store = PlanStore(0)
        scope = PlanScope(store, "treewalk")
        scope.put((0, 1), "x")
        assert scope.get((0, 1)) is None
        assert scope.misses == 0 and scope.hits == 0

    def test_plan_scope_default_joins_shared_store(self, monkeypatch):
        monkeypatch.delenv(ENV_CAPACITY, raising=False)
        a = plan_scope("treewalk")
        b = plan_scope("chunked")
        assert a.store is b.store
        assert a.store is shared_store()
        assert a.fingerprint != b.fingerprint

    def test_explicit_capacity_gets_private_store(self):
        scope = plan_scope("treewalk", 3)
        assert scope.store is not shared_store()
        assert scope.capacity == 3

    def test_env_knob_resolves_per_call(self, monkeypatch):
        monkeypatch.delenv(ENV_CAPACITY, raising=False)
        default = shared_store()
        assert default.capacity == DEFAULT_CAPACITY
        monkeypatch.setenv(ENV_CAPACITY, "5")
        assert shared_store().capacity == 5
        assert shared_store() is not default

    def test_samplers_share_the_engine_scoped_store(self, monkeypatch):
        monkeypatch.delenv(ENV_CAPACITY, raising=False)
        rnd = random.Random(7)
        keys = [float(i) for i in range(64)]
        weights = [rnd.random() + 0.1 for _ in range(64)]
        first = TreeWalkRangeSampler(keys, weights, rng=1)
        second = ChunkedRangeSampler(keys, weights, rng=1)
        assert first.plan_cache.store is second.plan_cache.store
        first.sample_span(5, 50, 3)
        second.sample_span(5, 50, 3)
        # Same span, two structures: two distinct entries, zero cross-talk.
        assert first.plan_cache.misses == 1 and first.plan_cache.hits == 0
        assert second.plan_cache.misses == 1 and second.plan_cache.hits == 0
        first.sample_span(5, 50, 3)
        assert first.plan_cache.hits == 1


class TestShimCounterAgreement:
    def test_scope_tallies_agree_with_registry_counters(self):
        saved = obs.ENABLED
        obs.enable()
        obs.reset()
        try:
            store = PlanStore(2)
            tree = PlanScope(store, "treewalk")
            chunk = PlanScope(store, "chunked")
            tree.get((0, 1))  # miss
            tree.put((0, 1), "t0")
            tree.get((0, 1))  # hit
            chunk.get((0, 1))  # miss
            chunk.put((0, 1), "c0")
            tree.put((0, 2), "t1")  # evicts tree's (0, 1)
            assert obs.value("plan_cache.hits") == tree.hits + chunk.hits == 1
            assert obs.value("plan_cache.misses") == tree.misses + chunk.misses == 2
            assert (
                obs.value("plan_cache.evictions")
                == tree.evictions + chunk.evictions
                == 1
            )
            # Per-kind twins split the same events by plan kind.
            assert obs.value("plan_cache.treewalk.hits") == 1
            assert obs.value("plan_cache.treewalk.misses") == 1
            assert obs.value("plan_cache.treewalk.evictions") == 1
            assert obs.value("plan_cache.chunked.misses") == 1
            assert obs.value("plan_cache.chunked.hits") == 0
        finally:
            obs.reset()
            (obs.enable if saved else obs.disable)()

    def test_scope_tallies_record_with_metrics_off(self):
        saved = obs.ENABLED
        obs.disable()
        try:
            scope = PlanScope(PlanStore(4), "treewalk")
            scope.get((0, 1))
            scope.put((0, 1), "x")
            scope.get((0, 1))
            assert scope.hits == 1 and scope.misses == 1
            assert obs.value("plan_cache.hits") == 0
        finally:
            (obs.enable if saved else obs.disable)()


class TestFetch:
    def test_builds_once_then_serves_the_stored_plan(self):
        scope = PlanScope(PlanStore(4), "treewalk")
        hints = []

        def build(hint):
            hints.append(hint)
            return ("plan", len(hints))

        assert scope.fetch((0, 5), build) == ("plan", 1)
        assert scope.fetch((0, 5), build) == ("plan", 1)
        assert hints == [None]
        assert scope.hits == 1 and scope.misses == 1

    def test_matching_hint_reaches_the_build_foreign_hint_does_not(self):
        scope = PlanScope(PlanStore(4), "treewalk")
        seen = []
        scope.fetch((0, 5), seen.append, portable=("treewalk", (0, 5), (1, 2)))
        scope.fetch((1, 5), seen.append, portable=("chunked", (1, 5), (3,)))
        scope.fetch((2, 5), seen.append, portable=("treewalk", (2, 6), (4,)))
        assert seen == [(1, 2), None, None]

    def test_disabled_store_builds_every_time(self):
        scope = PlanScope(PlanStore(0), "treewalk")
        built = []
        for _ in range(3):
            scope.fetch((0, 5), lambda hint: built.append(hint) or "p")
        assert len(built) == 3
        assert scope.misses == 0 and len(scope) == 0

    def test_build_runs_inside_a_plan_build_span(self):
        saved = obs.ENABLED
        obs.enable()
        obs.reset()
        try:
            PlanScope(PlanStore(4), "treewalk").fetch((0, 5), lambda hint: "p")
            hists = obs.REGISTRY.snapshot()["histograms"]
            assert hists["span.plan.build.us"]["count"] == 1
        finally:
            obs.reset()
            (obs.enable if saved else obs.disable)()
