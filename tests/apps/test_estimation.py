"""Unit tests for query estimation (Benefit 1, §2)."""

import math

import pytest

from repro.apps.estimation import (
    estimate_fraction,
    failure_indicators,
    required_sample_size,
)
from repro.core.dependent import DependentRangeSampler
from repro.core.range_sampler import ChunkedRangeSampler


class TestSampleSize:
    def test_hoeffding_formula(self):
        assert required_sample_size(0.1, 0.05) == math.ceil(
            math.log(2 / 0.05) / (2 * 0.01)
        )
        assert required_sample_size(0.1, 0.01) == 265
        assert required_sample_size(0.05, 0.01) == 1060

    def test_tighter_epsilon_needs_more(self):
        assert required_sample_size(0.01, 0.1) > required_sample_size(0.1, 0.1)

    def test_smaller_delta_needs_more(self):
        assert required_sample_size(0.1, 0.001) > required_sample_size(0.1, 0.1)

    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.5, 2.0])
    def test_bad_epsilon_rejected(self, bad):
        with pytest.raises(ValueError):
            required_sample_size(bad, 0.1)

    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.5])
    def test_bad_delta_rejected(self, bad):
        with pytest.raises(ValueError):
            required_sample_size(0.1, bad)


class TestEstimateFraction:
    def test_estimate_close_to_truth(self):
        keys = [float(i) for i in range(10_000)]
        sampler = ChunkedRangeSampler(keys, rng=1)
        # Within [0, 9999], 30% of keys are below 3000.
        result = estimate_fraction(
            lambda t: sampler.sample(0.0, 9999.0, t),
            lambda value: value < 3000.0,
            epsilon=0.05,
            delta=0.01,
        )
        assert abs(result.value - 0.3) <= 0.05
        assert result.samples_used == required_sample_size(0.05, 0.01)

    def test_extreme_fractions(self):
        keys = [float(i) for i in range(100)]
        sampler = ChunkedRangeSampler(keys, rng=2)
        all_true = estimate_fraction(
            lambda t: sampler.sample(0.0, 99.0, t), lambda v: True, 0.1, 0.1
        )
        assert all_true.value == 1.0
        none_true = estimate_fraction(
            lambda t: sampler.sample(0.0, 99.0, t), lambda v: False, 0.1, 0.1
        )
        assert none_true.value == 0.0


class TestFailureConcentration:
    """The Benefit-1 contrast: IQS failures concentrate, dependent don't."""

    def test_iqs_failures_near_expectation(self):
        keys = [float(i) for i in range(2000)]
        sampler = ChunkedRangeSampler(keys, rng=3)
        true_fraction = 0.5  # keys < 1000 within [0, 1999]
        t = 100  # per-estimate samples; failure prob δ_eff from binomial tail
        failures = failure_indicators(
            lambda count: sampler.sample(0.0, 1999.0, count),
            lambda value: value < 1000.0,
            true_fraction,
            epsilon=0.1,
            repetitions=300,
            samples_per_estimate=t,
        )
        # δ_eff = P[|Bin(100, .5)/100 - .5| > .1] ≈ 0.035; with m = 300
        # estimates the count concentrates around ~10.
        count = sum(failures)
        assert count < 40

    def test_dependent_failures_all_or_nothing(self):
        keys = [float(i) for i in range(2000)]
        sampler = DependentRangeSampler(keys, rng=4)
        failures = failure_indicators(
            lambda count: sampler.sample_without_replacement(0.0, 1999.0, count),
            lambda value: value < 1000.0,
            0.5,
            epsilon=0.01,  # tight bound most WoR draws of size 100 violate
            repetitions=50,
            samples_per_estimate=100,
        )
        # Identical query → identical estimate → identical outcome.
        assert sum(failures) in (0, 50)

    def test_rejects_zero_repetitions(self):
        with pytest.raises(ValueError):
            failure_indicators(lambda t: [], lambda v: True, 0.5, 0.1, 0, 10)
