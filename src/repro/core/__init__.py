"""The paper's primary contribution: generic IQS techniques (§3–§7).

Each module implements one technique with the guarantees stated in the
paper:

* :mod:`repro.core.alias` — Theorem 1 (the alias method, §3.1)
* :mod:`repro.core.tree_sampling` — tree sampling (§3.2, Lemma 4)
* :mod:`repro.core.range_sampler` — alias augmentation (§4, Lemma 2,
  Theorem 3)
* :mod:`repro.core.coverage` — the coverage technique (§5, Theorem 5)
* :mod:`repro.core.approx_coverage` — approximate coverage (§6, Theorem 6,
  Corollary 7)
* :mod:`repro.core.set_union` — random permutation / set-union sampling
  (§7, Theorem 8)
* :mod:`repro.core.dynamic` — dynamised weighted set sampling (§9,
  Direction 1)
* :mod:`repro.core.dependent`, :mod:`repro.core.naive` — the non-IQS
  baselines the paper contrasts against (§1, §2)
* :mod:`repro.core.schemes` — WR / WoR / weighted scheme conversions (§1)
"""

from repro.core.alias import AliasSampler
from repro.core.approximate import ApproximateDynamicSampler
from repro.core.integer_range import IntegerRangeSampler
from repro.core.approx_coverage import (
    ApproximateCover,
    ApproxCoverSampler,
    ComplementRangeIndex,
    PrecomputedCoverSampler,
)
from repro.core.coverage import CoverageSampler
from repro.core.dependent import DependentRangeSampler
from repro.core.dynamic import BucketDynamicSampler, FenwickDynamicSampler
from repro.core.dynamic_range import DynamicRangeSampler
from repro.core.naive import NaiveRangeSampler, NaiveSetUnionSampler
from repro.core.planner import PlanScope, PlanStore, QueryPlan, plan_scope
from repro.core.range_sampler import (
    AliasAugmentedRangeSampler,
    ChunkedRangeSampler,
    TreeWalkRangeSampler,
)
from repro.core.schemes import (
    multinomial_split,
    sample_without_replacement,
    uniform_indices_without_replacement,
    wr_from_wor,
)
from repro.core.set_union import SetUnionSampler
from repro.core.tree_sampling import FlatTreeSampler, Tree, TreeSampler

__all__ = [
    "AliasSampler",
    "ApproximateDynamicSampler",
    "IntegerRangeSampler",
    "ApproximateCover",
    "ApproxCoverSampler",
    "ComplementRangeIndex",
    "PrecomputedCoverSampler",
    "CoverageSampler",
    "DependentRangeSampler",
    "BucketDynamicSampler",
    "FenwickDynamicSampler",
    "DynamicRangeSampler",
    "NaiveRangeSampler",
    "NaiveSetUnionSampler",
    "QueryPlan",
    "PlanScope",
    "PlanStore",
    "plan_scope",
    "AliasAugmentedRangeSampler",
    "ChunkedRangeSampler",
    "TreeWalkRangeSampler",
    "multinomial_split",
    "sample_without_replacement",
    "uniform_indices_without_replacement",
    "wr_from_wor",
    "SetUnionSampler",
    "FlatTreeSampler",
    "Tree",
    "TreeSampler",
]
