"""Vectorized batch-sampling kernels (numpy-backed).

Every sampler in this package exposes a ``sample_many(s)`` API whose
theoretical cost is O(1) (alias, Theorem 1) or O(log n) per draw — but the
seed implementation paid that cost *per Python function call*, burying the
paper's guarantees under interpreter overhead. This module provides the
batched counterparts: one numpy kernel call draws all ``s`` samples at
once, so a query that wants ``s`` samples pays a single vectorized pass
instead of ``s`` interpreted loop iterations. This mirrors how
Afshani–Phillips and Huang–Wang treat batched draws (``s ≫ 1``) as the
practical unit of work.

numpy is a hard dependency. The scalar loops remain, selected by size:
below :data:`BATCH_MIN_SIZE` draws (or :data:`BUILD_MIN_SIZE` urns for a
table build) a numpy round-trip costs more than it saves, so the
dispatch helpers send the request to the pure-Python reference loops.
Both cutoffs are read at call time; :func:`scalar_loops` raises them to
force the scalar loops at any size, so tests and measurements can compare
them against the kernels.

Determinism: each sampler owns a ``random.Random``. The batch path derives
a ``numpy.random.Generator`` from that generator exactly once (consuming
64 bits of its stream) and caches it on the ``Random`` instance, so two
samplers built with the same seed and driven by the same call sequence
produce identical sample streams — on the scalar *and* the batch path.

Kernels draw from the same distributions as the scalar loops they replace
(verified by the chi-square equivalence harness in
``tests/core/test_batch_kernels.py``), but consume randomness from the
derived numpy stream, so batch and scalar outputs are equal in
distribution, not draw-for-draw identical.
"""

from __future__ import annotations

import random
import sys
from contextlib import contextmanager
from typing import Any, Iterator, List, Sequence, Tuple

import numpy as np

from repro import obs
from repro.core import kernels_jit
from repro.substrates.env import env_flag

#: Always ``True``: numpy is a hard dependency. Kept because the benchmark
#: harness reads it to report the kernel tier.
HAVE_NUMPY = True

#: Whether the compiled (numba) tier is selected by the dispatch ladder:
#: an importable numba and the ``REPRO_DISABLE_JIT`` kill switch unset.
HAVE_JIT = kernels_jit.HAVE_NUMBA and not env_flag("REPRO_DISABLE_JIT")

#: Minimum batch size for which the vectorized path is dispatched. Below
#: this, numpy call overhead can exceed the scalar loop's cost.
BATCH_MIN_SIZE = 16

#: Minimum batch size for which the compiled tier is dispatched. The jit
#: kernels re-derive their randomness per draw (counter-based SplitMix64),
#: which costs a few mixes per element — a win that needs a batch big
#: enough to amortise against numpy's tightly optimised small-batch RNG.
JIT_MIN_SIZE = 256

#: Minimum table size for which the vectorized *construction* path is
#: dispatched. Small tables (multinomial parts, query covers) build faster
#: through the plain stack algorithm than through a numpy round-trip.
BUILD_MIN_SIZE = 64

#: Remaining-urn count below which a vectorized construction finishes with
#: the scalar stack loop instead of another array pass.
_BUILD_SCALAR_CUTOFF = 256

#: Hard cap on array passes; each pass retires at least one urn, and in
#: practice the active set shrinks geometrically, but adversarial weight
#: sets (one giant element, thousands of near-unit ones) can stall the
#: array passes — the scalar finish then completes the remainder exactly.
_BUILD_MAX_PASSES = 64

_GEN_ATTR = "_repro_batch_generator"

# Dispatch-ladder counters (repro.obs). "scalar" counts batch requests
# that fell through to the pure-Python loops; "numpy"/"jit" count batched
# kernel invocations served by each tier.
_DISPATCH_SCALAR = obs.counter(
    "kernels.dispatch.scalar", "Batch requests served by the scalar loops"
)
_DISPATCH_NUMPY = obs.counter(
    "kernels.dispatch.numpy", "Batched kernel calls served by the numpy tier"
)
_DISPATCH_JIT = obs.counter(
    "kernels.dispatch.jit", "Batched kernel calls served by the compiled tier"
)


def use_batch(s: int) -> bool:
    """True when a request for ``s`` draws should take the numpy path,
    i.e. ``s`` reaches the :data:`BATCH_MIN_SIZE` cutoff."""
    if s >= BATCH_MIN_SIZE:
        return True
    if obs.ENABLED:
        _DISPATCH_SCALAR.inc()
    return False


def use_jit(s: int) -> bool:
    """True when a batched kernel call of size ``s`` takes the jit tier.

    The third rung of the dispatch ladder (scalar → numpy → jit):
    :data:`HAVE_JIT` (numba importable, ``REPRO_DISABLE_JIT`` unset) and
    the :data:`JIT_MIN_SIZE` cutoff.
    """
    return HAVE_JIT and s >= JIT_MIN_SIZE


def use_batch_build(n: int) -> bool:
    """True when an ``n``-urn alias table should be built vectorized."""
    return n >= BUILD_MIN_SIZE


@contextmanager
def scalar_loops() -> Iterator[None]:
    """Send every draw and build inside the block to the scalar loops.

    Raises :data:`BATCH_MIN_SIZE` and :data:`BUILD_MIN_SIZE` past any
    input and restores both on exit, exception or not. Processes forked
    inside the block inherit the raised cutoffs.
    """
    global BATCH_MIN_SIZE, BUILD_MIN_SIZE
    saved = BATCH_MIN_SIZE, BUILD_MIN_SIZE
    BATCH_MIN_SIZE = BUILD_MIN_SIZE = sys.maxsize
    try:
        yield
    finally:
        BATCH_MIN_SIZE, BUILD_MIN_SIZE = saved


def batch_generator(rng: random.Random) -> "np.random.Generator":
    """The numpy Generator paired with ``rng``, derived and cached once.

    Seeding from ``rng.getrandbits(64)`` keeps the whole sampler — scalar
    and batch streams together — a pure function of the original seed.
    """
    generator = getattr(rng, _GEN_ATTR, None)
    if generator is None:
        generator = np.random.default_rng(rng.getrandbits(64))
        setattr(rng, _GEN_ATTR, generator)
    return generator


def as_alias_arrays(prob: Sequence[float], alias: Sequence[int]) -> Tuple[Any, Any]:
    """Convert scalar alias tables to the dtype the kernels expect."""
    return (
        np.ascontiguousarray(prob, dtype=np.float64),
        np.ascontiguousarray(alias, dtype=np.intp),
    )


# ----------------------------------------------------------------------
# core draw kernels
# ----------------------------------------------------------------------


def alias_draw_batch(prob: Any, alias: Any, size: int, gen: "np.random.Generator") -> Any:
    """``size`` independent alias-table draws in one vectorized pass.

    The exact batched analogue of :func:`repro.core.alias.alias_draw`:
    pick a uniform urn, flip its biased coin, follow the alias on tails.

    When the compiled tier is available and ``size`` clears
    :data:`JIT_MIN_SIZE`, the call is served by the fused
    :func:`repro.core.kernels_jit.alias_draw` loop instead; the jit
    stream is seeded from ``gen`` (one 64-bit draw), so output remains a
    pure function of the sampler seed, but the tiers' streams differ —
    equivalence across tiers is distributional (chi-square), not
    draw-for-draw.
    """
    prob = np.asarray(prob, dtype=np.float64)
    if use_jit(size):
        if obs.ENABLED:
            _DISPATCH_JIT.inc()
        seed = int(gen.integers(0, 2**64, dtype=np.uint64))
        out = np.empty(size, dtype=np.intp)
        kernels_jit.alias_draw(prob, np.asarray(alias, dtype=np.intp), seed, out)
        return out
    # Any integer dtype gathers as is: converting a 32-bit table to intp
    # would copy the whole table to read ``size`` entries of it.
    alias = np.asarray(alias)
    if obs.ENABLED:
        _DISPATCH_NUMPY.inc()
    n = len(prob)
    urns = gen.integers(0, n, size=size)
    coins = gen.random(size)
    return np.where(coins < prob[urns], urns, alias[urns])


def inverse_cdf_draw_batch(cum_weights: Any, size: int, gen: "np.random.Generator") -> Any:
    """``size`` weighted draws via prefix sums + vectorized binary search.

    ``cum_weights`` holds inclusive prefix sums of the (non-negative) slot
    weights; a slot with zero weight occupies a zero-width interval and is
    never selected (up to float-boundary ties, which callers re-check).
    """
    cum_weights = np.asarray(cum_weights, dtype=np.float64)
    targets = gen.random(size) * cum_weights[-1]
    indices = np.searchsorted(cum_weights, targets, side="right")
    return np.minimum(indices, len(cum_weights) - 1)


def uniform_index_batch(lo: int, hi: int, size: int, gen: "np.random.Generator") -> Any:
    """``size`` uniform draws from ``[lo, hi)`` (Lemma 4's uniform case)."""
    return gen.integers(lo, hi, size=size)


def multinomial_split_batch(
    weights: Sequence[float], s: int, gen: "np.random.Generator"
) -> List[int]:
    """Split ``s`` draws across weighted parts (§4.1) in one kernel call.

    Equal in distribution to drawing ``s`` categorical part indices and
    counting them, which is what the scalar path does.
    """
    w = np.asarray(weights, dtype=np.float64)
    return gen.multinomial(s, w / w.sum()).tolist()


def bst_topdown_batch(
    left: Any,
    right: Any,
    node_weight: Any,
    start_nodes: Any,
    gen: "np.random.Generator",
    no_child: int = -1,
    visit_out: Any = None,
) -> Any:
    """Walk a batch of tokens down a binary tree, weighted at each node.

    ``left``/``right``/``node_weight`` are parallel arrays over node ids
    (``left[u] == no_child`` iff ``u`` is a leaf). Each token at an
    internal node ``u`` steps to the left child with probability
    ``w(left)/w(u)`` — the §3.2 fanout-2 walk — and the loop runs one
    vectorized level per iteration, so total work is O(s · height) numpy
    element-ops with only O(height) interpreter steps.

    ``visit_out``, when given, is a one-element list accumulating the
    number of node-descent steps taken (``repro.obs`` cost accounting:
    one step == one node visit below the start node). The count is
    maintained per level — O(height) adds — so passing it does not
    change the kernel's asymptotics; ``None`` skips it entirely.

    Batches clearing :data:`JIT_MIN_SIZE` are served by the compiled
    per-token walk (:func:`repro.core.kernels_jit.bst_topdown`) when the
    jit tier is on — same visit accounting, counter-based stream seeded
    from ``gen``.
    """
    nodes = np.array(start_nodes, dtype=np.intp, copy=True)
    if use_jit(len(nodes)):
        if obs.ENABLED:
            _DISPATCH_JIT.inc()
        seed = int(gen.integers(0, 2**64, dtype=np.uint64))
        visits = kernels_jit.bst_topdown(
            np.asarray(left, dtype=np.intp),
            np.asarray(right, dtype=np.intp),
            np.asarray(node_weight, dtype=np.float64),
            nodes.copy(),
            seed,
            no_child,
            nodes,
        )
        if visit_out is not None:
            visit_out[0] += visits
        return nodes
    if obs.ENABLED:
        _DISPATCH_NUMPY.inc()
    active = left[nodes] != no_child
    while active.any():
        at = np.nonzero(active)[0]
        if visit_out is not None:
            visit_out[0] += len(at)
        current = nodes[at]
        left_child = left[current]
        coins = gen.random(len(at)) * node_weight[current]
        stepped = np.where(coins < node_weight[left_child], left_child, right[current])
        nodes[at] = stepped
        active[at] = left[stepped] != no_child
    return nodes


def rejection_accept_batch(
    acceptance: Any, gen: "np.random.Generator"
) -> Any:
    """Vector of accept/reject coins for per-attempt acceptance rates.

    The uniforms always come from ``gen`` — on the jit tier only the
    compare loop is compiled — so this kernel is **byte-identical**
    across the numpy and jit tiers (asserted in
    ``tests/core/test_jit_kernels.py``).
    """
    size = len(acceptance)
    if use_jit(size):
        if obs.ENABLED:
            _DISPATCH_JIT.inc()
        out = np.empty(size, dtype=np.bool_)
        kernels_jit.rejection_accept(
            np.asarray(acceptance, dtype=np.float64), gen.random(size), out
        )
        return out
    if obs.ENABLED:
        _DISPATCH_NUMPY.inc()
    return gen.random(size) < acceptance


def offset_concat_batch(
    parts: Sequence[Sequence[int]], offsets: Sequence[int]
) -> List[int]:
    """Concatenate per-shard local index lists, shifted to global indices.

    The §4.1 merge kernel: part ``r`` (a shard's local draw indices) is
    shifted by ``offsets[r]`` (that shard's global base) and the shifted
    parts are concatenated in the order given. One flat add replaces the
    per-element Python loop; merges clearing :data:`JIT_MIN_SIZE` run the
    compiled (parallel) add instead. Both tiers are byte-identical —
    the merge is pure arithmetic, no randomness is consumed.
    """
    lengths = np.fromiter((len(part) for part in parts), dtype=np.intp, count=len(parts))
    total = int(lengths.sum())
    if total == 0:
        return []
    flat = np.concatenate([np.asarray(part, dtype=np.intp) for part in parts])
    offs = np.repeat(np.asarray(offsets, dtype=np.intp), lengths)
    if use_jit(total):
        if obs.ENABLED:
            _DISPATCH_JIT.inc()
        out = np.empty(total, dtype=np.intp)
        kernels_jit.offset_merge(flat, offs, out)
        return out.tolist()
    if obs.ENABLED:
        _DISPATCH_NUMPY.inc()
    return (flat + offs).tolist()


# ----------------------------------------------------------------------
# construction kernels (vectorized Vose)
# ----------------------------------------------------------------------
#
# The scalar Vose construction pairs one underfull urn with one overfull
# urn per interpreted loop iteration — O(n) Python steps. The vectorized
# construction below retires *all* current underfull urns in one array
# pass: lay the overfull urns' spare capacity out on a prefix-sum tape and
# assign each underfull urn's deficit interval to the overfull urn whose
# capacity segment contains the interval's start (a single searchsorted).
# A donor stays positive because the deficits whose intervals start inside
# its segment total at most (excess + 1) < its scaled mass. Donors that
# fall below 1 become the next pass's underfull urns, so each pass runs on
# the previous pass's overfull set only; the leftover tail (or a stalled
# adversarial instance) is finished by the exact scalar stack loop.


def _vose_finish(
    ids: List[int],
    masses: List[float],
    out_idx: List[int],
    out_prob: List[float],
    out_alias: List[int],
    alias_base: int = 0,
) -> None:
    """Scalar Vose stacks over urns ``ids`` with current scaled ``masses``.

    Appends ``(index, prob, alias)`` results to the ``out_*`` lists so the
    caller can scatter them into numpy arrays in one shot — per-element
    numpy ``__setitem__`` calls are ~100x a list append. Alias entries are
    stored relative to ``alias_base`` (0 for a standalone table, the row's
    flat offset for a packed row). Urns left at mass >= 1 keep the
    initialized ``prob = 1`` / self-alias state, so nothing is emitted for
    them.
    """
    small = [k for k, m in enumerate(masses) if m < 1.0]
    large = [k for k, m in enumerate(masses) if m >= 1.0]
    while small and large:
        underfull = small.pop()
        overfull = large[-1]
        out_idx.append(ids[underfull])
        out_prob.append(masses[underfull])
        out_alias.append(ids[overfull] - alias_base)
        masses[overfull] -= 1.0 - masses[underfull]
        if masses[overfull] < 1.0:
            large.pop()
            small.append(overfull)


def _segmented_cumsum(values: Any, segments: Any) -> Any:
    """Per-segment inclusive prefix sums (``segments`` sorted ascending).

    Requires non-negative ``values`` (true of deficits/excesses), which
    makes the global cumsum non-decreasing so segment bases propagate with
    a single ``maximum.accumulate``. On the jit tier the compiled
    sequential loop (:func:`repro.core.kernels_jit.segmented_cumsum`)
    resets exactly at each boundary — same sums up to cumsum rounding
    drift, one pass, no temporaries.
    """
    if HAVE_JIT:
        vals = np.ascontiguousarray(values, dtype=np.float64)
        out = np.empty(len(vals))
        kernels_jit.segmented_cumsum(vals, np.ascontiguousarray(segments), out)
        return out
    running = np.cumsum(values)
    base = np.zeros(len(values))
    starts = np.nonzero(segments[1:] != segments[:-1])[0] + 1
    base[starts] = running[starts - 1]
    return running - np.maximum.accumulate(base)


def build_alias_tables_batch(weights: Sequence[float]) -> Tuple[Any, Any]:
    """Vectorized Vose construction: ``(prob, alias)`` as numpy arrays.

    Builds the same family of urn tables as
    :func:`repro.core.alias.build_alias_tables` (any pairing order yields a
    valid table; the implied per-element masses agree up to float
    rounding) in O(n) numpy element-ops across O(log n) expected passes.
    """
    w = np.ascontiguousarray(weights, dtype=np.float64)
    n = w.size
    if n == 0:
        raise ValueError("cannot build alias tables over an empty set")
    scaled = w * (n / float(w.sum()))
    prob = np.ones(n)
    alias = np.arange(n, dtype=np.intp)
    active = np.arange(n, dtype=np.intp)
    act = scaled
    passes = 0
    while active.size > _BUILD_SCALAR_CUTOFF and passes < _BUILD_MAX_PASSES:
        small_mask = act < 1.0
        retired = int(small_mask.sum())
        if retired == 0 or retired == active.size:
            # All remaining urns sit on one side of 1 while averaging
            # exactly 1, so every one of them is a full urn: the
            # initialized prob = 1 / self-alias state is the answer.
            active = active[:0]
            break
        if retired * 8 < active.size:
            break  # stalling — the scalar finish is cheaper than more passes
        large_mask = ~small_mask
        small = active[small_mask]
        large = active[large_mask]
        deficits = 1.0 - act[small_mask]
        excesses = act[large_mask] - 1.0
        starts = np.cumsum(deficits) - deficits
        donors = np.searchsorted(np.cumsum(excesses), starts, side="right")
        np.minimum(donors, large.size - 1, out=donors)
        prob[small] = act[small_mask]
        alias[small] = large[donors]
        donated = np.bincount(donors, weights=deficits, minlength=large.size)
        act = np.maximum(act[large_mask] - donated, 0.0)
        active = large
        passes += 1
    if active.size:
        if HAVE_JIT:
            # Compiled finish: byte-identical stack discipline, no
            # array->list->array round-trip for the tail.
            idx, fprob, falias = kernels_jit.finish_tail(active, act)
            prob[idx] = fprob
            alias[idx] = falias
        else:
            fin_idx: List[int] = []
            fin_prob: List[float] = []
            fin_alias: List[int] = []
            _vose_finish(active.tolist(), act.tolist(), fin_idx, fin_prob, fin_alias)
            if fin_idx:
                idx = np.asarray(fin_idx, dtype=np.intp)
                prob[idx] = fin_prob
                alias[idx] = fin_alias
    return prob, alias


def build_alias_tables_flat(values: Any, lengths: Any) -> Tuple[Any, Any]:
    """Build alias tables for many *ragged* weight vectors in shared passes.

    ``values`` is the concatenation of every segment's weights; segment
    ``r`` occupies ``lengths[r]`` consecutive entries. Returns flat
    ``(prob, alias)`` arrays of the same length with **segment-local**
    alias indices, so segment ``r``'s table is the slice
    ``[start_r : start_r + lengths[r]]`` of both arrays.

    This is the workhorse behind :func:`build_alias_tables_packed` and the
    Lemma-2 builder: because segments may have different lengths, *every*
    alias table of an entire structure (all BST levels at once, not one
    level at a time) collapses into a single pass loop. That matters for
    throughput — per-pass numpy dispatch overhead is paid once per pass
    over the whole structure instead of once per level.

    Segments are kept independent by aligning every segment's deficit
    tape against the shared global excess tape (one searchsorted for all
    segments) and clamping donor assignments back into the segment's own
    donor range, so float rounding at segment boundaries can never leak
    mass across segments. A segment with non-positive total mass
    degenerates to full urns (``prob = 1``, self-alias).
    """
    vals = np.ascontiguousarray(values, dtype=np.float64)
    sizes = np.ascontiguousarray(lengths, dtype=np.intp)
    total = vals.size
    segs = sizes.size
    if int(sizes.sum()) != total:
        raise ValueError("lengths must sum to the length of values")
    if total == 0:
        return np.ones(0), np.zeros(0, dtype=np.intp)
    # 32-bit index arrays throughout: the builder is memory-bandwidth
    # bound, and every per-pass index array (active set, segment ids,
    # donors' positions) is touched several times per pass.
    idx_t = np.int32 if total < 2**31 else np.intp
    seg_starts = np.cumsum(sizes) - sizes
    seg_ids = np.repeat(np.arange(segs, dtype=idx_t), sizes)
    if segs and sizes.min() > 0:
        # One sequential pass; reduceat needs every segment non-empty
        # (repeated offsets would yield vals[offset], not 0).
        totals = np.add.reduceat(vals, seg_starts)
    else:
        totals = np.bincount(seg_ids, weights=vals, minlength=segs)
    ok = totals > 0.0
    scale = np.where(ok, sizes / np.where(ok, totals, 1.0), 0.0)
    scaled = vals * scale[seg_ids]

    prob = np.ones(total)
    # Alias entries hold *global* flat positions while the builder runs
    # (self-alias initially); one vectorized subtraction at the end
    # rebases them to segment-local indices.
    alias = np.arange(total, dtype=idx_t)
    active = np.arange(total, dtype=idx_t)
    act = scaled
    act_seg = seg_ids
    passes = 0
    while active.size > _BUILD_SCALAR_CUTOFF and passes < _BUILD_MAX_PASSES:
        small_mask = act < 1.0
        small = active[small_mask]
        retired = small.size
        if retired == 0 or retired == active.size:
            # Remaining urns all on one side of 1 with per-segment mean 1:
            # they are full urns, already encoded by the initialization.
            active = active[:0]
            break
        if retired * 8 < active.size and passes >= 4:
            # Stalling (adversarial skew) — scalar-finish the remainder.
            # The pass floor keeps narrow-segment instances, whose cascades
            # retire a small fraction per pass by construction, on the
            # cheap vectorized path instead of a huge Python finish.
            break
        # Urns inside [1, 1 + eps] are *full*: the initialized prob = 1 /
        # self-alias state is their final answer, so they leave the donor
        # set now. Without this, narrow segments' donors — which land at
        # mass exactly 1 after their single donation — would linger
        # through every remaining pass and eventually trip the stall bail
        # with an enormous (but trivial) scalar finish. Mass stranded in
        # a dropped urn is at most eps, repaired by the donor-range clip.
        large_mask = act > 1.0 + 1e-12
        large = active[large_mask]
        if large.size == 0:
            # No urn holds more than rounding noise above 1, so every
            # remaining deviation below 1 is noise too: all full urns,
            # already encoded by the initialization.
            active = active[:0]
            break
        small_segs = act_seg[small_mask]
        large_segs = act_seg[large_mask]
        act_small = act[small_mask]
        act_large = act[large_mask]
        prob[small] = act_small
        # act_small's last read was the scatter above: reuse its buffer.
        deficits = np.subtract(1.0, act_small, out=act_small)
        excesses = act_large - 1.0
        # Shared prefix-sum tapes: every segment's deficits balance its
        # excesses, so the two global tapes stay aligned segment by
        # segment on their own (up to cumsum rounding drift), and one
        # searchsorted positions every deficit interval at once. Donor
        # misassignments *within* a segment are harmless — each underfull
        # urn retires with its exact mass, so mass is conserved under any
        # in-segment pairing and over/under-donated donors re-enter the
        # next pass. Only cross-segment spill (rare: tape drift at a
        # segment boundary) needs the explicit repair below.
        capacity = np.cumsum(excesses, out=excesses)
        starts = np.cumsum(deficits)
        starts -= deficits
        donors = np.searchsorted(capacity, starts, side="right")
        np.minimum(donors, large.size - 1, out=donors)
        bad = large_segs[donors] != small_segs
        no_donor = None
        b = np.nonzero(bad)[0]
        if b.size:
            want = small_segs[b]
            first = np.searchsorted(large_segs, want, side="left")
            last = np.searchsorted(large_segs, want, side="right") - 1
            has = last >= first
            donors[b] = np.minimum(
                np.minimum(np.maximum(donors[b], first), np.maximum(last, first)),
                large.size - 1,
            )
            if not has.all():
                no_donor = b[~has]
        alias[small] = large[donors]
        if no_donor is not None:
            # A segment with underfull urns but no overfull urn: every
            # deviation from 1 in it is rounding noise — finish whole.
            sel = small[no_donor]
            prob[sel] = 1.0
            alias[sel] = sel
            deficits[no_donor] = 0.0
        donated = np.bincount(donors, weights=deficits, minlength=large.size)
        act_large -= donated
        act = np.maximum(act_large, 0.0, out=act_large)
        active = large
        act_seg = large_segs
        passes += 1
    if active.size:
        cuts = np.nonzero(act_seg[1:] != act_seg[:-1])[0] + 1
        bounds = [0, *cuts.tolist(), int(active.size)]
        if HAVE_JIT:
            for lo, hi in zip(bounds, bounds[1:]):
                idx, fprob, falias = kernels_jit.finish_tail(active[lo:hi], act[lo:hi])
                prob[idx] = fprob
                alias[idx] = falias
        else:
            remaining = active.tolist()
            masses = act.tolist()
            fin_idx: List[int] = []
            fin_prob: List[float] = []
            fin_alias: List[int] = []
            for lo, hi in zip(bounds, bounds[1:]):
                _vose_finish(
                    remaining[lo:hi],
                    masses[lo:hi],
                    fin_idx,
                    fin_prob,
                    fin_alias,
                )
            if fin_idx:
                idx = np.asarray(fin_idx, dtype=np.intp)
                prob[idx] = fin_prob
                alias[idx] = fin_alias
    alias -= seg_starts.astype(idx_t)[seg_ids]
    return prob, alias


def build_alias_tables_packed(
    weights_matrix: Any, lengths: Any
) -> Tuple[Any, Any]:
    """Build *all rows'* alias tables in shared array passes.

    ``weights_matrix`` is a ``rows × width`` float matrix; row ``r`` is an
    independent weight vector occupying its first ``lengths[r]`` columns
    (the rest is padding and is ignored). Returns ``(prob, alias)``
    matrices of the same shape with **row-local** alias indices; padded
    columns get ``prob = 1`` and alias themselves, so a draw kernel that
    bounds its urn pick by ``lengths[r]`` never observes them.

    One call builds every alias table of one BST level, or every chunk
    table of the Theorem-3 structure. The actual construction delegates to
    :func:`build_alias_tables_flat` on the valid (non-padding) entries;
    this wrapper only handles the rectangular packing.
    """
    W = np.ascontiguousarray(weights_matrix, dtype=np.float64)
    rows, width = W.shape
    sizes = np.ascontiguousarray(lengths, dtype=np.intp)
    if rows == 1:
        # One row (e.g. a BST's root level): the single-table builder has
        # no row bookkeeping and is strictly cheaper.
        size = int(sizes[0])
        prob = np.ones((1, width))
        alias = np.arange(width, dtype=np.intp).reshape(1, width)
        if size > 0:
            prob[0, :size], alias[0, :size] = build_alias_tables_batch(W[0, :size])
        return prob, alias
    columns = np.arange(width, dtype=np.intp)
    valid = (columns < sizes[:, None]).ravel()
    flat_pos = np.nonzero(valid)[0]
    flat_prob, flat_alias = build_alias_tables_flat(W.ravel()[flat_pos], sizes)
    prob = np.ones(rows * width)
    alias = np.tile(columns, rows)
    prob[flat_pos] = flat_prob
    alias[flat_pos] = flat_alias
    return prob.reshape(rows, width), alias.reshape(rows, width)


__all__ = [
    "HAVE_NUMPY",
    "HAVE_JIT",
    "BATCH_MIN_SIZE",
    "BUILD_MIN_SIZE",
    "JIT_MIN_SIZE",
    "use_batch",
    "use_jit",
    "use_batch_build",
    "scalar_loops",
    "batch_generator",
    "as_alias_arrays",
    "alias_draw_batch",
    "inverse_cdf_draw_batch",
    "uniform_index_batch",
    "multinomial_split_batch",
    "bst_topdown_batch",
    "offset_concat_batch",
    "rejection_accept_batch",
    "build_alias_tables_batch",
    "build_alias_tables_flat",
    "build_alias_tables_packed",
]
