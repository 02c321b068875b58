"""Plan-cache semantics and their integration into the range samplers.

A sampler's ``plan_cache`` is a :class:`~repro.core.planner.PlanScope`
over a :class:`~repro.core.planner.PlanStore`; the mechanics tests use a
scope over a private store of a given capacity.

Three concerns, in order of subtlety:

1. **Cache mechanics** — bounded LRU behaviour, hit/miss/eviction
   counters, the ``REPRO_PLAN_CACHE_SIZE`` environment knob, and the
   capacity-0 kill switch.
2. **Determinism** — a plan is a pure function of the structure and the
   span, so a warm-cache run must be *byte-identical* to a cold-cache
   run under the same seed. This is the property that makes caching safe
   for IQS: it cannot change any query's output, only its latency.
3. **Independence** — repeated hot-range queries served from the cache
   must still produce mutually independent outputs (eq. 1 of the paper),
   checked with the repo's lag-independence diagnostic.
"""

import random

import pytest

from repro.core import kernels
from repro.core.planner import (
    DEFAULT_CAPACITY,
    ENV_CAPACITY,
    PlanScope,
    PlanStore,
    resolve_capacity,
)
from repro.core.range_sampler import (
    AliasAugmentedRangeSampler,
    ChunkedRangeSampler,
    TreeWalkRangeSampler,
)
from repro.stats.independence import (
    lag_independence_pvalue,
    repeat_query_outputs,
)

SAMPLERS = [TreeWalkRangeSampler, AliasAugmentedRangeSampler, ChunkedRangeSampler]


def private_scope(capacity=None):
    """A plan scope over its own store of ``capacity`` plans."""
    return PlanScope(PlanStore(capacity), "test")


class TestCacheMechanics:
    def test_lru_eviction_order(self):
        cache = private_scope(2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # refreshes "a"; "b" is now LRU
        cache.put("c", 3)
        assert cache.get("b") is None
        assert cache.get("a") == 1
        assert cache.get("c") == 3
        assert cache.evictions == 1

    def test_put_refreshes_existing_key(self):
        cache = private_scope(2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("a", 10)  # refresh, not insert: no eviction
        cache.put("c", 3)  # evicts "b", the true LRU
        assert cache.evictions == 1
        assert cache.get("a") == 10
        assert cache.get("b") is None

    def test_counters(self):
        cache = private_scope(4)
        assert cache.get("x") is None
        cache.put("x", 42)
        assert cache.get("x") == 42
        assert cache.hits == 1
        assert cache.misses == 1
        assert cache.evictions == 0
        assert len(cache) == 1
        assert cache.capacity == 4

    def test_clear_keeps_counters(self):
        cache = private_scope(4)
        cache.put("x", 1)
        cache.get("x")
        cache.clear()
        assert len(cache) == 0
        assert cache.hits == 1

    def test_capacity_zero_disables(self):
        cache = private_scope(0)
        assert not cache.enabled
        cache.put("x", 1)
        assert cache.get("x") is None
        assert len(cache) == 0
        # A disabled cache is a bypass, not a 100%-miss cache.
        assert cache.misses == 0

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            private_scope(-1)

    def test_registry_counters_mirror_instance_counters(self):
        from repro import obs

        saved = obs.ENABLED
        obs.enable()
        obs.reset()
        try:
            cache = private_scope(2)
            cache.get("x")  # miss
            cache.put("x", 1)
            cache.get("x")  # hit
            cache.put("y", 2)
            cache.put("z", 3)  # evicts "x"
            assert obs.value("plan_cache.hits") == cache.hits == 1
            assert obs.value("plan_cache.misses") == cache.misses == 1
            assert obs.value("plan_cache.evictions") == cache.evictions == 1
        finally:
            obs.reset()
            (obs.enable if saved else obs.disable)()

    def test_stats_shim_records_without_metrics(self):
        from repro import obs

        saved = obs.ENABLED
        obs.disable()
        try:
            cache = private_scope(2)
            cache.get("x")
            cache.put("x", 1)
            cache.get("x")
            # The per-instance tallies still record with the registry off...
            assert cache.hits == 1
            assert cache.misses == 1
            # ...while the registry stays untouched.
            assert obs.value("plan_cache.hits") == 0
        finally:
            (obs.enable if saved else obs.disable)()


class TestCapacityResolution:
    def test_default(self, monkeypatch):
        monkeypatch.delenv(ENV_CAPACITY, raising=False)
        assert resolve_capacity() == DEFAULT_CAPACITY

    def test_argument_wins_over_env(self, monkeypatch):
        monkeypatch.setenv(ENV_CAPACITY, "7")
        assert resolve_capacity(3) == 3

    def test_env_knob(self, monkeypatch):
        monkeypatch.setenv(ENV_CAPACITY, "7")
        assert resolve_capacity() == 7
        assert private_scope().capacity == 7

    def test_env_zero_disables(self, monkeypatch):
        monkeypatch.setenv(ENV_CAPACITY, "0")
        sampler = TreeWalkRangeSampler([1.0, 2.0, 3.0], rng=1)
        sampler.sample_span(0, 3, 2)
        assert not sampler.plan_cache.enabled
        assert len(sampler.plan_cache) == 0

    def test_blank_env_ignored(self, monkeypatch):
        monkeypatch.setenv(ENV_CAPACITY, "  ")
        assert resolve_capacity() == DEFAULT_CAPACITY

    def test_invalid_env_rejected(self, monkeypatch):
        monkeypatch.setenv(ENV_CAPACITY, "many")
        with pytest.raises(ValueError):
            resolve_capacity()

    def test_negative_env_rejected_not_silent_zero(self, monkeypatch):
        monkeypatch.setenv(ENV_CAPACITY, "-5")
        with pytest.raises(ValueError):
            resolve_capacity()
        with pytest.raises(ValueError):
            private_scope()


@pytest.mark.parametrize("sampler_cls", SAMPLERS)
class TestSamplerIntegration:
    N = 96

    def build(self, sampler_cls, **kwargs):
        rnd = random.Random(23)
        keys = [float(i) for i in range(self.N)]
        weights = [rnd.random() + 0.05 for _ in range(self.N)]
        return sampler_cls(keys, weights, **kwargs)

    def test_counters_advance_on_repeated_spans(self, sampler_cls):
        sampler = self.build(sampler_cls, rng=3)
        for _ in range(5):
            sampler.sample_span(7, 61, 4)
        cache = sampler.plan_cache
        assert cache.misses == 1
        assert cache.hits == 4
        assert len(cache) == 1

    def test_distinct_spans_fill_and_evict(self, sampler_cls):
        sampler = self.build(sampler_cls, rng=4, plan_cache_size=3)
        for lo in range(6):
            sampler.sample_span(lo, lo + 30, 2)
        cache = sampler.plan_cache
        assert cache.misses == 6
        assert len(cache) == 3
        assert cache.evictions == 3

    def test_warm_run_byte_identical_to_cold_run(self, sampler_cls):
        spans = [(3, 77), (10, 40), (3, 77), (50, 96), (3, 77), (10, 40)]
        outputs = {}
        for label, cache_size in (("cold", 0), ("warm", None)):
            sampler = self.build(sampler_cls, rng=99, plan_cache_size=cache_size)
            outputs[label] = [
                sampler.sample_span(lo, hi, 5) for lo, hi in spans for _ in range(3)
            ]
        assert outputs["cold"] == outputs["warm"]
        # and the warm run really was served from the cache:
        sampler = self.build(sampler_cls, rng=99)
        for lo, hi in spans:
            sampler.sample_span(lo, hi, 5)
        assert sampler.plan_cache.hits == len(spans) - 3  # 3 distinct spans

    def test_warm_run_byte_identical_under_scalar_fallback(
        self, sampler_cls, monkeypatch
    ):
        monkeypatch.setattr(kernels, "HAVE_NUMPY", False)
        self.test_warm_run_byte_identical_to_cold_run(sampler_cls)

    def test_warm_cache_outputs_stay_independent(self, sampler_cls):
        sampler = self.build(sampler_cls, rng=31)
        sampler.sample_span(5, 69, 1)  # prime the plan
        outputs = repeat_query_outputs(
            lambda: sampler.sample_span(5, 69, 1)[0], 4000
        )
        assert sampler.plan_cache.hits >= 4000
        assert len(set(outputs)) > 32  # many distinct elements, no sticking
        assert lag_independence_pvalue(outputs) > 1e-6
