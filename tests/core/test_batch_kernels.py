"""Correctness harness for the vectorized batch-sampling kernels.

Three layers of defence, per the kernel layer's contract:

1. **Distributional equivalence** — for every sampler whose
   ``sample_many`` dispatches to a kernel, the batch path and the forced
   scalar path are both chi-square-tested against the exact
   target distribution (the same machinery the seed suite uses, so a
   kernel that drifts from its scalar twin fails here, not in prod).
2. **Property tests** — hypothesis drives the kernels through edge cases:
   empty batches, single draws, single-item sets, degenerate weights.
3. **Perf smoke** — the batch path must beat the scalar loop by ≥3× at
   n=10⁵, s=10⁴ (alias and one range sampler), so the speedup that
   motivated the layer cannot silently regress.

The scalar side of every comparison is forced with the ``force_scalar``
fixture (``tests/conftest.py``), which raises the kernels' size cutoffs.
The perf smoke is wall-clock and carries the ``timing`` marker, so the
default run skips it.
"""

import random
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import kernels
from repro.core.alias import AliasSampler, build_alias_tables
from repro.core.dynamic import BucketDynamicSampler, FenwickDynamicSampler
from repro.core.range_sampler import (
    AliasAugmentedRangeSampler,
    ChunkedRangeSampler,
    TreeWalkRangeSampler,
)
from repro.core.schemes import multinomial_split
from repro.core.set_union import SetUnionSampler
from repro.core.tree_sampling import FlatTreeSampler, Tree, TreeSampler
from repro.stats.tests import chi_square_weighted_pvalue
from repro.substrates.bst import StaticBST

ALPHA = 1e-6
BATCH_DRAWS = 30_000
SCALAR_DRAWS = 10_000


def _gen(seed: int = 0) -> "np.random.Generator":
    return np.random.default_rng(seed)


# ----------------------------------------------------------------------
# 1. scalar/batch distributional equivalence, sampler by sampler
# ----------------------------------------------------------------------

WEIGHTS = [0.25, 1.0, 2.5, 4.0, 0.5, 8.0, 1.75, 2.0]
TARGET = {index: weight for index, weight in enumerate(WEIGHTS)}


def both_paths(force_scalar, run):
    """Collect (batch_samples, scalar_samples) from fresh same-seed runs."""
    batch = run(BATCH_DRAWS)
    force_scalar()
    scalar = run(SCALAR_DRAWS)
    return batch, scalar


def assert_both_match_target(force_scalar, run, target):
    batch, scalar = both_paths(force_scalar, run)
    assert chi_square_weighted_pvalue(batch, target) > ALPHA, "batch path drifted"
    assert chi_square_weighted_pvalue(scalar, target) > ALPHA, "scalar path drifted"


class TestAliasEquivalence:
    def test_sample_indices(self, force_scalar):
        def run(draws):
            return AliasSampler(list(range(len(WEIGHTS))), WEIGHTS, rng=11).sample_indices(draws)

        assert_both_match_target(force_scalar, run, TARGET)

    def test_sample_many_maps_items(self):
        items = ["a", "b", "c"]
        sampler = AliasSampler(items, [1.0, 2.0, 3.0], rng=12)
        samples = sampler.sample_many(BATCH_DRAWS)
        assert set(samples) <= set(items)
        assert chi_square_weighted_pvalue(samples, {"a": 1.0, "b": 2.0, "c": 3.0}) > ALPHA


@pytest.mark.parametrize(
    "sampler_cls", [TreeWalkRangeSampler, AliasAugmentedRangeSampler, ChunkedRangeSampler]
)
class TestRangeSamplerEquivalence:
    def test_full_span(self, sampler_cls, force_scalar):
        keys = [float(i) for i in range(len(WEIGHTS))]

        def run(draws):
            sampler = sampler_cls(keys, WEIGHTS, rng=21)
            return sampler.sample_indices(keys[0], keys[-1], draws)

        assert_both_match_target(force_scalar, run, TARGET)

    def test_partial_span(self, sampler_cls, force_scalar):
        n = 64
        keys = [float(i) for i in range(n)]
        weights = [1.0 + (i % 5) for i in range(n)]
        lo, hi = 7, 41  # straddles chunk boundaries for the Theorem-3 structure
        target = {i: weights[i] for i in range(lo, hi)}

        def run(draws):
            sampler = sampler_cls(keys, weights, rng=22)
            return sampler.sample_span(lo, hi, draws)

        assert_both_match_target(force_scalar, run, target)


class TestTreeSamplerEquivalence:
    @staticmethod
    def _tree():
        return Tree.from_nested(
            [("a", 1.0), [("b", 2.0), ("c", 3.0)], [[("d", 1.5), ("e", 0.5)], ("f", 4.0)]]
        )

    def _target(self, tree):
        return {leaf: tree.weight(leaf) for leaf in tree.leaves_in_dfs_order()}

    def test_topdown_walker(self, force_scalar):
        def run(draws):
            tree = self._tree()
            return TreeSampler(tree, rng=31).sample_many(tree.root, draws)

        tree = self._tree()
        assert_both_match_target(force_scalar, run, self._target(tree))

    def test_flat_weighted(self, force_scalar):
        def run(draws):
            tree = self._tree()
            return FlatTreeSampler(tree, rng=32).sample_many(tree.root, draws)

        tree = self._tree()
        assert_both_match_target(force_scalar, run, self._target(tree))

    def test_flat_uniform_fast_path(self, force_scalar):
        def run(draws):
            tree = Tree.from_nested(
                [("a", 1.0), [("b", 1.0), ("c", 1.0)], [("d", 1.0), ("e", 1.0)]]
            )
            sampler = FlatTreeSampler(tree, rng=33)
            assert sampler.is_uniform
            return sampler.sample_many(tree.root, draws)

        tree = Tree.from_nested(
            [("a", 1.0), [("b", 1.0), ("c", 1.0)], [("d", 1.0), ("e", 1.0)]]
        )
        assert_both_match_target(force_scalar, run, self._target(tree))

    def test_subtree_query(self):
        tree = self._tree()
        internal = next(
            node for node in range(len(tree))
            if not tree.is_leaf(node) and node != tree.root
        )
        sampler = TreeSampler(tree, rng=34)
        samples = sampler.sample_many(internal, BATCH_DRAWS)
        lo, hi = FlatTreeSampler(tree, rng=0).leaf_span(internal)
        allowed = set(tree.leaves_in_dfs_order()[lo:hi])
        assert set(samples) <= allowed


class TestDynamicSamplerEquivalence:
    def test_fenwick(self, force_scalar):
        def run(draws):
            sampler = FenwickDynamicSampler(rng=41)
            handles = [sampler.insert(i, w) for i, w in enumerate(WEIGHTS)]
            sampler.delete(handles[3])  # leave a tombstone on the hot path
            return sampler.sample_many(draws)

        target = {i: w for i, w in enumerate(WEIGHTS) if i != 3}
        assert_both_match_target(force_scalar, run, target)

    def test_bucket(self, force_scalar):
        def run(draws):
            sampler = BucketDynamicSampler(rng=42)
            for i, w in enumerate(WEIGHTS):
                sampler.insert(i, w)
            return sampler.sample_many(draws)

        assert_both_match_target(force_scalar, run, TARGET)


class TestSetUnionEquivalence:
    FAMILY = [[1, 2, 3, 4, 5], [4, 5, 6], [5, 6, 7]]

    def test_uniform_over_union(self, force_scalar):
        def run(draws):
            return SetUnionSampler(self.FAMILY, rng=51).sample_many([0, 1, 2], draws)

        target = {element: 1.0 for element in range(1, 8)}
        assert_both_match_target(force_scalar, run, target)

    def test_diagnostics_advance(self):
        sampler = SetUnionSampler(self.FAMILY, rng=52)
        draws = 200
        sampler.sample_many([0, 1, 2], draws)
        assert sampler.total_queries == draws
        assert sampler.total_attempts >= draws
        mean_attempts = sampler.total_attempts / sampler.total_queries
        assert mean_attempts < 20 * sampler.interval_cap

    def test_rebuild_schedule_preserved(self):
        sampler = SetUnionSampler(self.FAMILY, rng=53, rebuild_after=64)
        sampler.sample_many([0, 1, 2], 1000)
        # 1000 samples across epochs of 64 queries each.
        assert sampler.rebuild_count >= 1000 // 64 - 1


class TestMultinomialSplitEquivalence:
    def test_counts_follow_weights(self, force_scalar):
        weights = [1.0, 3.0, 6.0]

        def run(draws):
            rng = random.Random(61)
            totals = [0] * len(weights)
            for _ in range(30):
                for part, count in enumerate(multinomial_split(weights, draws // 30, rng)):
                    totals[part] += count
            return [index for index, total in enumerate(totals) for _ in range(total)]

        target = {index: weight for index, weight in enumerate(weights)}
        assert_both_match_target(force_scalar, run, target)


# ----------------------------------------------------------------------
# 2. kernel edge cases (property tests)
# ----------------------------------------------------------------------

positive_weights = st.lists(
    st.floats(min_value=1e-6, max_value=1e6, allow_nan=False, allow_infinity=False),
    min_size=1,
    max_size=40,
)


class TestKernelProperties:
    def test_empty_batch(self):
        prob, alias = build_alias_tables([1.0, 2.0])
        draws = kernels.alias_draw_batch(prob, alias, 0, _gen())
        assert len(draws) == 0

    def test_single_draw_single_item(self):
        prob, alias = build_alias_tables([7.0])
        draws = kernels.alias_draw_batch(prob, alias, 1, _gen())
        assert draws.tolist() == [0]

    @given(weights=positive_weights)
    @settings(max_examples=50, deadline=None)
    def test_alias_draws_in_range(self, weights):
        prob, alias = build_alias_tables(weights)
        draws = kernels.alias_draw_batch(prob, alias, 64, _gen(1))
        assert ((draws >= 0) & (draws < len(weights))).all()

    @given(weights=positive_weights, zeros=st.sets(st.integers(0, 39), max_size=10))
    @settings(max_examples=50, deadline=None)
    def test_inverse_cdf_skips_zero_weight_slots(self, weights, zeros):
        slot_weights = [
            0.0 if index in zeros else weight for index, weight in enumerate(weights)
        ]
        if not any(slot_weights):
            slot_weights[0] = 1.0
        cum = np.cumsum(np.asarray(slot_weights, dtype=np.float64))
        draws = kernels.inverse_cdf_draw_batch(cum, 256, _gen(2))
        picked = np.asarray(slot_weights)[draws]
        assert (picked > 0).all()

    @given(weights=positive_weights, s=st.integers(min_value=0, max_value=500))
    @settings(max_examples=50, deadline=None)
    def test_multinomial_split_batch_sums(self, weights, s):
        counts = kernels.multinomial_split_batch(weights, s, _gen(3))
        assert len(counts) == len(weights)
        assert sum(counts) == s
        assert all(count >= 0 for count in counts)

    @given(lo=st.integers(0, 100), width=st.integers(1, 100), s=st.integers(0, 200))
    @settings(max_examples=50, deadline=None)
    def test_uniform_index_batch_in_range(self, lo, width, s):
        draws = kernels.uniform_index_batch(lo, lo + width, s, _gen(4))
        assert len(draws) == s
        assert ((draws >= lo) & (draws < lo + width)).all()

    @given(n=st.integers(min_value=1, max_value=200))
    @settings(max_examples=50, deadline=None)
    def test_bst_topdown_lands_on_leaves_in_span(self, n):
        tree = StaticBST([float(i) for i in range(n)], [1.0 + (i % 3) for i in range(n)])
        left, right, node_weight, span_lo = tree.packed_arrays()
        left = np.asarray(left, dtype=np.intp)
        right = np.asarray(right, dtype=np.intp)
        node_weight = np.asarray(node_weight, dtype=np.float64)
        span_lo_arr = np.asarray(span_lo, dtype=np.intp)
        starts = np.full(32, tree.root, dtype=np.intp)
        leaves = kernels.bst_topdown_batch(left, right, node_weight, starts, _gen(5))
        assert (left[leaves] == -1).all()
        positions = span_lo_arr[leaves]
        assert ((positions >= 0) & (positions < n)).all()

    @given(s=st.integers(min_value=1, max_value=12))
    @settings(max_examples=30, deadline=None)
    def test_small_batches_use_scalar_path(self, s):
        # Below BATCH_MIN_SIZE the dispatch must stay on the pure-Python
        # loop (no numpy generator is ever derived).
        sampler = AliasSampler(["x", "y"], [1.0, 3.0], rng=71)
        assert not kernels.use_batch(s)
        sampler.sample_many(s)
        assert not hasattr(sampler._rng, "_repro_batch_generator")

    def test_degenerate_weight_ratio(self):
        # 12 orders of magnitude between weights: the light element must
        # still appear with roughly its target frequency in a huge batch.
        weights = [1e-6, 1e6]
        sampler = AliasSampler([0, 1], weights, rng=72)
        draws = sampler.sample_many(200_000)
        light = draws.count(0)
        # Expected count 0.2; seeing many would mean a broken table.
        assert light <= 10

    def test_single_item_set_batch(self):
        sampler = AliasSampler(["only"], [3.5], rng=73)
        assert sampler.sample_many(1) == ["only"]
        assert sampler.sample_many(1000) == ["only"] * 1000


# ----------------------------------------------------------------------
# 3. perf smoke: the batch path must not silently regress
# ----------------------------------------------------------------------


def _best_of(callable_, repeats=3):
    best = float("inf")
    for _ in range(repeats):
        start = time.process_time()
        callable_()
        best = min(best, time.process_time() - start)
    return best


@pytest.mark.timing
class TestPerfSmoke:
    N = 100_000
    S = 10_000

    def test_alias_batch_at_least_3x(self, force_scalar):
        weights = [1.0 + (i % 97) for i in range(self.N)]
        sampler = AliasSampler(list(range(self.N)), weights, rng=81)
        sampler.sample_many(self.S)  # warm the lazy caches
        batch = _best_of(lambda: sampler.sample_many(self.S))
        force_scalar()
        scalar = _best_of(lambda: sampler.sample_many(self.S))
        assert scalar >= 3.0 * batch, (
            f"alias batch path only {scalar / batch:.2f}x faster "
            f"(scalar {scalar * 1e3:.1f}ms, batch {batch * 1e3:.1f}ms)"
        )

    def test_range_sampler_batch_at_least_3x(self, force_scalar):
        keys = [float(i) for i in range(self.N)]
        weights = [1.0 + (i % 13) for i in range(self.N)]
        sampler = ChunkedRangeSampler(keys, weights, rng=82)
        x, y = keys[self.N // 10], keys[9 * self.N // 10]
        sampler.sample(x, y, self.S)  # warm the lazy caches
        batch = _best_of(lambda: sampler.sample(x, y, self.S))
        force_scalar()
        scalar = _best_of(lambda: sampler.sample(x, y, self.S))
        assert scalar >= 3.0 * batch, (
            f"range batch path only {scalar / batch:.2f}x faster "
            f"(scalar {scalar * 1e3:.1f}ms, batch {batch * 1e3:.1f}ms)"
        )

    def test_aliasaugmented_construction_at_least_2x(self, force_scalar):
        # PR-2 construction guard: the flat segmented Vose builder must
        # keep beating the pure-Python per-node build. Typical measured
        # ratio is ~3x at this size (see EXPERIMENTS.md E3c); the
        # assertion is set at 2x so shared-runner timing noise cannot
        # flake it, while a silent fall-back to the scalar path (ratio
        # ~1x) still fails loudly.
        n = 50_000
        keys = [float(i) for i in range(n)]
        weights = [1.0 + (i % 13) for i in range(n)]
        batch = _best_of(lambda: AliasAugmentedRangeSampler(keys, weights, rng=83))
        force_scalar()
        scalar = _best_of(lambda: AliasAugmentedRangeSampler(keys, weights, rng=83))
        assert scalar >= 2.0 * batch, (
            f"vectorized Lemma-2 construction only {scalar / batch:.2f}x faster "
            f"(scalar {scalar * 1e3:.1f}ms, batch {batch * 1e3:.1f}ms)"
        )
