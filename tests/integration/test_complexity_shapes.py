"""Cheap operation-count checks of the theorems' complexity *shapes*.

Timing is noisy in CI, so these tests count structural work (cover sizes,
attempts, I/Os) rather than wall-clock — ``python -m repro.experiments``
does the timing.
"""

import math

from repro.apps.workloads import uniform_points
from repro.core.approx_coverage import ComplementRangeIndex
from repro.core.coverage import BSTIndex, CoverageSampler
from repro.core.set_union import SetUnionSampler
from repro.em.model import EMMachine
from repro.em.sample_pool import SamplePoolSetSampler
from repro.em.lower_bound import set_sampling_lower_bound
from repro.substrates.kdtree import KDTree


class TestCoverSizes:
    def test_bst_cover_grows_logarithmically(self):
        sizes = {}
        for exponent in (8, 12, 16):
            n = 1 << exponent
            sampler = CoverageSampler(BSTIndex([float(i) for i in range(n)]), rng=1)
            sizes[exponent] = sampler.cover_size((1.0, n - 2.0))
        # Doubling the exponent should roughly double the cover, far from
        # the 256× a linear structure would show.
        assert sizes[16] <= 3 * sizes[8]

    def test_kdtree_cover_grows_like_sqrt(self):
        sizes = {}
        for n in (1 << 8, 1 << 12):
            points = uniform_points(n, 2, rng=2)
            tree = KDTree(points, leaf_size=1)
            sampler = CoverageSampler(tree, rng=3)
            sizes[n] = sampler.cover_size([(0.25, 0.75), (0.25, 0.75)])
        # n grew 16×; √n grows 4×; linear would grow 16×.
        assert sizes[1 << 12] <= 8 * sizes[1 << 8]

    def test_complement_cover_constant(self):
        for exponent in (8, 12, 16):
            n = 1 << exponent
            index = ComplementRangeIndex([float(i) for i in range(n)])
            cover = index.find_approximate_cover((n * 0.25, n * 0.75))
            assert len(cover.spans) <= 2


class TestSetUnionWork:
    def test_attempts_independent_of_union_size(self):
        # Theorem 8: query cost depends on g and log n, not on |∪G|.
        means = {}
        for scale in (200, 2000):
            family = [list(range(i * scale, (i + 1) * scale)) for i in range(4)]
            sampler = SetUnionSampler(family, rng=4)
            sampler.sample_many([0, 1, 2, 3], 30)
            means[scale] = sampler.total_attempts / sampler.total_queries
        # 10× more data must not mean ~10× more attempts; allow log-factor
        # drift plus sampling noise.
        assert means[2000] <= 4 * means[200] + 10


class TestEMBounds:
    def test_pool_matches_lower_bound_shape(self):
        n, B = 4096, 32
        machine = EMMachine(block_size=B, memory_blocks=4)
        sampler = SamplePoolSetSampler(machine, list(range(n)), rng=5)
        machine.drop_cache()
        start = machine.stats.total
        queries, s = 8, 128
        for _ in range(queries):
            sampler.query(s)
        measured_per_query = (machine.stats.total - start) / queries
        lower = set_sampling_lower_bound(s, n, B, machine.M)
        # Measured cost sits between the lower bound and a constant
        # multiple of it — never anywhere near the naive Θ(s).
        assert measured_per_query <= 12 * lower + 8
        assert measured_per_query < s / 2

    def test_naive_violates_pool_bound(self):
        from repro.em.sample_pool import NaiveEMSetSampler

        n, B, s = 4096, 32, 128
        machine = EMMachine(block_size=B, memory_blocks=4)
        naive = NaiveEMSetSampler(machine, list(range(n)), rng=6)
        machine.drop_cache()
        start = machine.stats.total
        naive.query(s)
        assert machine.stats.total - start > 4 * set_sampling_lower_bound(
            s, n, B, machine.M
        )


class TestLogFactors:
    def test_chunk_count_matches_theory(self):
        from repro.core.range_sampler import ChunkedRangeSampler

        for exponent in (10, 14):
            n = 1 << exponent
            sampler = ChunkedRangeSampler([float(i) for i in range(n)])
            expected_chunks = math.ceil(n / int(math.log2(n)))
            assert sampler.num_chunks == expected_chunks
