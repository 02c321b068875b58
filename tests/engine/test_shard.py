"""Sharded placement on threads: seeded reproducibility, partitioning, edge cases, obs."""

import pytest

from repro.engine import QueryRequest, SamplingEngine, build
from repro.engine.shard import ShardedSampler, shard_bounds

N = 240
KEYS = [float(i) for i in range(N)]
WEIGHTS = [1.0 + (i % 7) for i in range(N)]


def make_sampler(rng=1):
    return build("range.chunked", keys=KEYS, weights=WEIGHTS, rng=rng)


def make_requests(count=24, s=6):
    return [
        QueryRequest(op="sample", args=(float(i % 90), float(i % 90 + 120)), s=s)
        for i in range(count)
    ]


def run_shard(shards, max_workers, seed=17, sampler_rng=1, requests=None):
    engine = SamplingEngine(
        placement="sharded", backend="thread", seed=seed, shards=shards, max_workers=max_workers
    )
    return engine.run(make_sampler(rng=sampler_rng), requests or make_requests())


class TestShardBounds:
    @pytest.mark.parametrize("n,k", [(10, 1), (10, 3), (7, 7), (64, 8), (5, 2)])
    def test_bounds_partition_the_index_space(self, n, k):
        bounds = shard_bounds(n, k)
        assert bounds[0] == 0 and bounds[-1] == n
        sizes = [bounds[j + 1] - bounds[j] for j in range(k)]
        assert all(size >= 1 for size in sizes)
        assert sum(sizes) == n
        assert max(sizes) - min(sizes) <= 1


class TestSeededReproducibility:
    @pytest.mark.parametrize("shards", [1, 2, 4, 8])
    def test_same_engine_seed_same_merged_output(self, shards):
        first = run_shard(shards, max_workers=1, sampler_rng=1)
        second = run_shard(shards, max_workers=1, sampler_rng=2)
        assert all(r.ok for r in first)
        assert [r.values for r in first] == [r.values for r in second]

    @pytest.mark.parametrize("shards", [2, 4, 8])
    def test_worker_count_does_not_change_output(self, shards):
        # The split and every shard stream derive from one stateless
        # base, so thread scheduling cannot reorder randomness.
        lone = run_shard(shards, max_workers=1)
        wide = run_shard(shards, max_workers=4)
        assert [r.values for r in lone] == [r.values for r in wide]

    def test_values_lie_in_the_query_interval(self):
        requests = make_requests(count=12, s=16)
        for result in run_shard(4, max_workers=4, requests=requests):
            x, y = result.request.args
            assert all(x <= value <= y for value in result.unwrap())

    def test_repeated_runs_are_identical(self):
        engine = SamplingEngine(placement="sharded", backend="thread", seed=5, shards=4)
        sampler = make_sampler()
        requests = make_requests(count=8)
        assert [r.values for r in engine.run(sampler, requests)] == [
            r.values for r in engine.run(sampler, requests)
        ]


class TestPartitioning:
    def test_shard_count_clamped_to_key_count(self):
        small = build("range.chunked", keys=[1.0, 2.0, 3.0], rng=1)
        view = ShardedSampler.from_sampler(small, 8)
        assert view.num_shards == 3
        assert view.shard_sizes() == [1, 1, 1]

    def test_query_inside_a_single_shard(self):
        # [0, 30] touches only shard 0 of 8; the other shards contribute
        # an empty sub-span and must be skipped, not sampled.
        view = ShardedSampler.from_sampler(make_sampler(), 8)
        values = view.sample(0.0, 30.0, 10, rng=3)
        assert all(0.0 <= value <= 30.0 for value in values)

    def test_sample_indices_map_to_global_positions(self):
        view = ShardedSampler.from_sampler(make_sampler(), 4)
        indices = view.sample_indices(50.0, 200.0, 20, rng=9)
        assert all(0 <= index < N for index in indices)
        assert all(50.0 <= KEYS[index] <= 200.0 for index in indices)

    def test_without_replacement_draws_distinct_keys(self):
        view = ShardedSampler.from_sampler(make_sampler(), 4)
        values = view.sample_without_replacement(10.0, 220.0, 24, rng=11)
        assert len(values) == len(set(values)) == 24

    def test_describe_reports_sharding(self):
        view = ShardedSampler.from_sampler(make_sampler(), 4)
        info = view.describe()
        assert info["shards"] == 4
        assert info["shard_type"] == "ChunkedRangeSampler"

    def test_wrapping_a_sharded_view_is_a_no_op(self):
        view = ShardedSampler.from_sampler(make_sampler(), 4)
        assert ShardedSampler.from_sampler(view, 2) is view


class TestEdgeCases:
    def test_zero_s_is_captured_like_serial(self):
        bad = [QueryRequest(op="sample", args=(10.0, 100.0), s=0)]
        [serial] = SamplingEngine(backend="serial", seed=1).run(
            make_sampler(), bad
        )
        [sharded] = SamplingEngine(placement="sharded", backend="thread", seed=1, shards=4).run(
            make_sampler(), bad
        )
        assert not serial.ok and not sharded.ok
        assert type(serial.error) is type(sharded.error)

    def test_inverted_interval_is_captured_like_serial(self):
        bad = [QueryRequest(op="sample", args=(100.0, 10.0), s=4)]
        [result] = SamplingEngine(placement="sharded", backend="thread", seed=1, shards=4).run(
            make_sampler(), bad
        )
        assert not result.ok
        assert isinstance(result.error, ValueError)

    def test_unshardable_sampler_raises_type_error(self):
        alias = build(
            "alias", items=[1.0, 2.0, 3.0], weights=[1.0, 1.0, 2.0], rng=1
        )
        engine = SamplingEngine(placement="sharded", backend="thread", seed=1, shards=2)
        with pytest.raises(TypeError, match="does not support key-space"):
            engine.run(alias, [QueryRequest(op="sample", s=2)])

    def test_shard_count_validation(self):
        with pytest.raises(ValueError, match="shards must be"):
            SamplingEngine(placement="sharded", backend="thread", shards=0)
        with pytest.raises(ValueError, match="num_shards must be >= 1"):
            ShardedSampler.from_sampler(make_sampler(), 0)
        with pytest.raises(TypeError, match="num_shards must be an int"):
            ShardedSampler.from_sampler(make_sampler(), 2.5)

    def test_view_is_memoized_on_the_engine_not_the_sampler(self):
        engine = SamplingEngine(placement="sharded", backend="thread", seed=1, shards=4)
        sampler = make_sampler()
        engine.run(sampler, make_requests(count=2))
        views = engine._placement._views
        assert len(views) == 1
        (memo_sampler, view), = views.values()
        assert memo_sampler is sampler
        engine.run(sampler, make_requests(count=2))
        assert engine._placement._views[id(sampler)][1] is view
        # The wrapped sampler stays pristine: nothing is monkey-stashed
        # on the caller's structure, so two engines can't fight over it.
        assert not hasattr(sampler, "_engine_shard_views")

    def test_close_shuts_down_cached_views_deterministically(self):
        engine = SamplingEngine(
            placement="sharded", backend="thread", seed=1, shards=4, max_workers=4
        )
        sampler = make_sampler()
        engine.run(sampler, make_requests(count=2))
        (_, view), = engine._placement._views.values()
        runner = view._runner
        assert runner._pool is not None  # the multi-shard fan-out made it
        engine.close()
        assert engine._placement._views == {}
        assert runner._pool is None  # ShardedSampler.close() ran
        # close is idempotent and the engine stays usable for a new run
        engine.close()
        engine.run(sampler, make_requests(count=1))
        engine.close()


    def test_serial_execution_is_the_thread_runner_with_no_pool(self):
        from repro.engine.execution import SerialShardRunner, ThreadShardRunner

        engine = SamplingEngine(
            placement="sharded", backend="serial", seed=1, shards=4, max_workers=4
        )
        engine.run(make_sampler(), make_requests(count=4))
        (_, view), = engine._placement._views.values()
        assert isinstance(view._runner, SerialShardRunner)
        assert isinstance(view._runner, ThreadShardRunner)
        assert view._runner._pool is None  # every task ran inline
        engine.close()


class TestObservability:
    def test_shard_counters_and_merge_histogram(self, metrics_on):
        SamplingEngine(placement="sharded", backend="thread", seed=1, shards=4).run(
            make_sampler(), make_requests(count=6, s=8)
        )
        snap = metrics_on.snapshot()
        assert snap["counters"]["engine.shards"] > 0
        assert snap["histograms"]["engine.shard_merge_us"]["count"] >= 6
