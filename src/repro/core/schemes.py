"""Sampling-scheme conversions: WR, WoR, and sample-count splitting (§1–§2).

The paper treats three schemes — sampling with replacement (WR), without
replacement (WoR), and weighted sampling — and uses two folklore
conversions:

* a WoR sample of size ``s`` converts to a WR sample of size ``s`` in
  ``O(s)`` time (§2, citing [19]): :func:`wr_from_wor`;
* ``s`` draws split across ``t`` disjoint parts by drawing ``s`` weighted
  part indices (the "determine how many samples to take from each S(u_i)"
  step of §4.1): :func:`multinomial_split`.

Also provided: Floyd's algorithm for uniform WoR index sampling and a
collision-rejection WoR wrapper usable with any WR sampler.
"""

from __future__ import annotations

import random
from typing import Callable, Hashable, List, Optional, Sequence, Set, TypeVar

from repro import obs
from repro.core import kernels
from repro.core.alias import alias_draw, build_alias_tables
from repro.errors import BuildError, EmptyQueryError, SampleBudgetExceededError
from repro.substrates.rng import RNGLike, ensure_rng
from repro.validation import validate_sample_size, validate_weights

T = TypeVar("T", bound=Hashable)

_ALIAS_DRAWS = obs.counter("alias.draws")


def multinomial_split(weights: Sequence[float], s: int, rng: RNGLike = None) -> List[int]:
    """Split ``s`` draws across parts with the given weights.

    Returns counts ``s_1..s_t`` with ``sum(s_i) == s`` where each of the
    ``s`` draws independently lands in part ``i`` with probability
    ``w_i / sum(w)``. This is the §4.1 step implemented exactly as the
    paper describes: build an alias structure on the parts in ``O(t)`` and
    draw ``s`` part samples in ``O(s)``.
    """
    validate_sample_size(s)
    if len(weights) == 0:
        raise BuildError("multinomial_split needs at least one part")
    cleaned = validate_weights(weights, context="multinomial_split")
    return split_counts(cleaned, s, ensure_rng(rng))


def split_counts(weights: Sequence[float], s: int, rng: random.Random) -> List[int]:
    """:func:`multinomial_split` on weights already checked at build.

    ``weights`` must be non-empty, positive and finite with a finite
    total; nothing is re-checked. Lemma-2 plans call this on their cover
    weights, which the structure validated once when it was built.
    """
    if kernels.use_batch(s):
        return kernels.multinomial_split_batch(weights, s, kernels.batch_generator(rng))
    if kernels.use_batch_build(len(weights)):
        prob, alias = (table.tolist() for table in kernels.build_alias_tables_batch(weights))
    else:
        prob, alias = build_alias_tables(weights)
    if obs.ENABLED:
        _ALIAS_DRAWS.add(s)
    counts = [0] * len(weights)
    for _ in range(s):
        counts[alias_draw(prob, alias, rng)] += 1
    return counts


def uniform_indices_without_replacement(
    lo: int, hi: int, s: int, rng: RNGLike = None
) -> List[int]:
    """Draw ``s`` distinct uniform indices from ``[lo, hi)`` in O(s).

    Implements Robert Floyd's algorithm; the output order is randomised so
    the result is a uniformly random *sequence* of distinct indices.
    """
    validate_sample_size(s)
    population = hi - lo
    if s > population:
        raise EmptyQueryError(
            f"cannot draw {s} distinct indices from a range of size {population}"
        )
    generator = ensure_rng(rng)
    chosen: Set[int] = set()
    for j in range(population - s, population):
        candidate = lo + generator.randint(0, j)
        if candidate in chosen:
            chosen.add(lo + j)
        else:
            chosen.add(candidate)
    result = list(chosen)
    generator.shuffle(result)
    return result


def sample_without_replacement(
    draw: Callable[[], T],
    s: int,
    population_size: int,
    rng: RNGLike = None,
    max_attempts_factor: int = 64,
) -> List[T]:
    """Convert any uniform WR draw function into a WoR sample of size ``s``.

    Repeatedly invokes ``draw`` and discards duplicates. For
    ``s <= population_size / 2`` the expected number of draws is ``O(s)``;
    the attempt budget guards against a broken ``draw`` that cannot produce
    ``s`` distinct values.

    Note: this is distribution-correct only when ``draw`` is *uniform* over
    the population (the WR scheme of §1); for weighted WoR the rejected
    distribution would be the weighted one conditioned on distinctness,
    which is a different (but commonly used, "successive sampling") design.
    """
    validate_sample_size(s)
    if s > population_size:
        raise EmptyQueryError(
            f"cannot draw {s} distinct elements from a population of {population_size}"
        )
    ensure_rng(rng)  # kept for signature symmetry; `draw` owns the randomness
    seen: Set[T] = set()
    ordered: List[T] = []
    budget = max_attempts_factor * max(s, 1) + 16 * population_size
    attempts = 0
    while len(ordered) < s:
        attempts += 1
        if attempts > budget:
            raise SampleBudgetExceededError(
                f"WoR rejection loop exceeded {budget} attempts "
                f"(s={s}, population={population_size})"
            )
        value = draw()
        if value not in seen:
            seen.add(value)
            ordered.append(value)
    return ordered


def wr_from_wor(
    wor_sample: Sequence[T],
    population_size: int,
    rng: RNGLike = None,
    size: Optional[int] = None,
) -> List[T]:
    """Convert a WoR sample into a WR sample of size ``size`` in O(s) (§2).

    ``size`` defaults to ``len(wor_sample)``; it may exceed the WoR sample
    length only when the WoR sample exhausts the population (then extra WR
    slots simply repeat population elements).

    A WR sample of size ``s`` from a population of ``N`` elements is
    distributed as: first draw the *pattern* of coincidences among the
    ``s`` slots (by drawing ``s`` iid slots-to-distinct-value labels), then
    bind the distinct labels to distinct population elements — which is
    exactly what a WoR sample provides. Requires
    ``len(wor_sample) >= number of distinct labels``, which holds since a
    WR sample of size ``s`` has at most ``s`` distinct values.

    Correctness requires ``wor_sample`` to be in *uniformly random order*
    (true of any genuine WoR sample, including rank-ordered ones drawn
    from a random permutation); a deterministically ordered input would
    bias the element-to-label binding.
    """
    generator = ensure_rng(rng)
    s = len(wor_sample) if size is None else size
    if s == 0:
        return []
    if population_size < len(wor_sample):
        raise ValueError("population_size must be at least the WoR sample size")
    if len(wor_sample) < min(s, population_size):
        raise ValueError(
            "WoR sample too small: a WR sample of size "
            f"{s} may contain up to {min(s, population_size)} distinct values"
        )
    # Simulate which of the s iid draws coincide, using a uniform birthday
    # process over `population_size` abstract slots.
    label_of_slot: dict = {}
    labels: List[int] = []
    for _ in range(s):
        slot = generator.randint(0, population_size - 1)
        if slot not in label_of_slot:
            label_of_slot[slot] = len(label_of_slot)
        labels.append(label_of_slot[slot])
    # Bind distinct labels to the first `len(label_of_slot)` WoR elements —
    # a uniformly random distinct assignment because the WoR sample is one.
    return [wor_sample[label] for label in labels]


__all__ = [
    "multinomial_split",
    "uniform_indices_without_replacement",
    "sample_without_replacement",
    "wr_from_wor",
]
