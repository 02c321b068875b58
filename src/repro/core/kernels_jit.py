"""Compiled (numba JIT) tier of the batch-sampling kernels.

:mod:`repro.core.kernels` removed the per-*draw* interpreter cost; this
module removes the per-*batch* numpy dispatch cost that remains. Each hot
inner loop — alias draws (Theorem 1), BST top-down walks (§3.2),
rejection-acceptance loops, and the segmented Vose builder finish — is
re-expressed as a fused ``@njit(cache=True)`` scalar loop, so one batched
call compiles to a single pass over the structure arrays with no
intermediate temporaries, and the draw loops additionally run
``parallel=True`` across cores.

numba is an **optional** dependency (the ``repro[jit]`` extra).
:data:`HAVE_NUMBA` reports whether the compiled tier is actually
available; when numba is missing every public kernel falls back to a
vectorized numpy twin, so this module stays importable (and testable)
everywhere. The dispatch ladder in
:mod:`repro.core.kernels` (``use_jit``) only *selects* this tier when
numba is truly present — the fallbacks here exist so the jit algorithms
themselves can be exercised without a compiler.

Determinism
-----------
The parallel draw loops cannot share one sequential RNG (the iteration
order of a ``prange`` is unspecified), so randomness is **counter-based**:
each draw index ``i`` hashes ``(seed, i)`` through the SplitMix64
finalizer — the same mixer :mod:`repro.substrates.rng` uses for seed
derivation — giving every loop iteration its own statelessly-derived
uniform. Output is therefore a pure function of ``(arrays, seed)``
regardless of thread count or schedule, and the compiled loops and the
numpy reference twins produce **byte-identical** streams (asserted in
``tests/core/test_jit_kernels.py`` when numba is installed).

Because the jit tier consumes randomness differently from the numpy
tier's ``Generator`` calls, jit-vs-numpy equivalence is distributional
(chi-square), not draw-for-draw — except for the kernels that take
pre-drawn uniforms or no randomness at all (:func:`rejection_accept`,
:func:`vose_finish`), which are byte-identical across all tiers.
"""

from __future__ import annotations

from typing import Any, Tuple

import numpy as np

try:  # pragma: no cover - exercised both ways across environments
    from numba import njit, prange

    HAVE_NUMBA = True
except ImportError:  # pragma: no cover
    njit = None  # type: ignore[assignment]
    prange = range
    HAVE_NUMBA = False

# SplitMix64 constants — identical to repro.substrates.rng.derive_seed, so
# the compiled streams come from the same mixer family as every other
# derived stream in the package.
_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
#: 2^-53: top 53 bits of a mixed word -> uniform double in [0, 1).
_INV53 = 1.0 / 9007199254740992.0
#: Per-token counter stride for the BST walk: token i owns counters
#: (i+1) << 32 + step, collision-free for s < 2^32 tokens of depth < 2^32.
_TOKEN_SHIFT = np.uint64(32)
_U64_1 = np.uint64(1)


def _mix64(z: Any) -> Any:
    """SplitMix64 finalizer; elementwise on scalars or uint64 arrays."""
    z = (z ^ (z >> np.uint64(30))) * _MIX1
    z = (z ^ (z >> np.uint64(27))) * _MIX2
    return z ^ (z >> np.uint64(31))


# ----------------------------------------------------------------------
# reference twins (vectorized numpy, always available)
# ----------------------------------------------------------------------
#
# Each *_ref function computes exactly the stream its compiled counterpart
# computes — same counters, same mixer, same comparisons — using array
# ops under errstate (numpy warns on intended uint64 wraparound; the
# compiled loops wrap silently in C semantics).


def alias_draw_ref(prob: Any, alias: Any, seed: int, out: Any) -> None:
    """Fill ``out`` with counter-based alias draws (numpy reference)."""
    n = np.uint64(len(prob))
    s = out.shape[0]
    with np.errstate(over="ignore"):
        k = np.arange(s, dtype=np.uint64) * np.uint64(2)
        z1 = _mix64(np.uint64(seed) + (k + _U64_1) * _GAMMA)
        z2 = _mix64(np.uint64(seed) + (k + np.uint64(2)) * _GAMMA)
        urns = (z1 % n).astype(np.intp)
    coins = (z2 >> np.uint64(11)).astype(np.float64) * _INV53
    np.copyto(out, np.where(coins < prob[urns], urns, alias[urns]))


def bst_topdown_ref(
    left: Any,
    right: Any,
    node_weight: Any,
    start_nodes: Any,
    seed: int,
    no_child: int,
    out: Any,
) -> int:
    """Counter-based §3.2 walk, level-synchronous numpy reference.

    Every active token takes exactly one step per level iteration, so a
    token at iteration ``t`` uses counter ``((i+1) << 32) + t`` — the
    same counter the compiled per-token loop reaches on that token's
    ``t``-th step. Returns the total number of descent steps.
    """
    np.copyto(out, start_nodes)
    s = out.shape[0]
    base = (np.arange(s, dtype=np.uint64) + _U64_1) << _TOKEN_SHIFT
    seed64 = np.uint64(seed)
    active = left[out] != no_child
    visits = 0
    step = 0
    while active.any():
        at = np.nonzero(active)[0]
        step += 1
        visits += len(at)
        current = out[at]
        left_child = left[current]
        with np.errstate(over="ignore"):
            z = _mix64(seed64 + (base[at] + np.uint64(step)) * _GAMMA)
        coins = (z >> np.uint64(11)).astype(np.float64) * _INV53
        coins *= node_weight[current]
        stepped = np.where(
            coins < node_weight[left_child], left_child, right[current]
        )
        out[at] = stepped
        active[at] = left[stepped] != no_child
    return visits


def rejection_accept_ref(acceptance: Any, uniforms: Any, out: Any) -> None:
    """Accept/reject coins from pre-drawn uniforms (numpy reference)."""
    np.less(uniforms, acceptance, out=out)


def vose_finish_ref(
    ids: Any,
    masses: Any,
    out_idx: Any,
    out_prob: Any,
    out_alias: Any,
    alias_base: int,
) -> int:
    """Exact scalar Vose stacks over arrays; returns entries emitted.

    Replicates :func:`repro.core.kernels._vose_finish` — same LIFO small
    stack, same ``large[-1]`` donor choice, same float updates — so the
    emitted ``(index, prob, alias)`` sequence is byte-identical to the
    list-based finish (and to the compiled version).
    """
    n = len(ids)
    small = np.empty(n, dtype=np.intp)
    large = np.empty(n, dtype=np.intp)
    n_small = 0
    n_large = 0
    for k in range(n):
        if masses[k] < 1.0:
            small[n_small] = k
            n_small += 1
        else:
            large[n_large] = k
            n_large += 1
    emitted = 0
    while n_small > 0 and n_large > 0:
        n_small -= 1
        underfull = small[n_small]
        overfull = large[n_large - 1]
        out_idx[emitted] = ids[underfull]
        out_prob[emitted] = masses[underfull]
        out_alias[emitted] = ids[overfull] - alias_base
        emitted += 1
        masses[overfull] -= 1.0 - masses[underfull]
        if masses[overfull] < 1.0:
            n_large -= 1
            small[n_small] = overfull
            n_small += 1
    return emitted


def offset_merge_ref(indices: Any, offsets: Any, out: Any) -> None:
    """Shift shard-local ``indices`` by per-element ``offsets`` (reference).

    The §4.1 merge's arithmetic core: every shard-local sorted-array
    index moves up by its shard's global base offset. Deterministic and
    randomness-free, so — like :func:`rejection_accept` — the compiled
    twin is byte-identical to this reference on every tier.
    """
    np.add(indices, offsets, out=out)


def segmented_cumsum_ref(values: Any, segments: Any, out: Any) -> None:
    """Exact per-segment inclusive prefix sums (sequential reference).

    Unlike the numpy tier's global-cumsum-minus-base formulation, the
    running total resets at each segment boundary, so no rounding drift
    crosses segments; the compiled twin matches this byte-for-byte while
    the numpy tier agrees only to within cumsum rounding.
    """
    total = 0.0
    n = len(values)
    for i in range(n):
        if i > 0 and segments[i] != segments[i - 1]:
            total = 0.0
        total += values[i]
        out[i] = total


# ----------------------------------------------------------------------
# compiled kernels (when numba is importable)
# ----------------------------------------------------------------------

if HAVE_NUMBA:  # pragma: no cover - requires the [jit] extra

    _mix64_c = njit(cache=True, inline="always")(_mix64)

    @njit(cache=True, parallel=True)
    def _alias_draw_compiled(prob, alias, seed, out):
        n = np.uint64(prob.shape[0])
        s = out.shape[0]
        for i in prange(s):
            k = np.uint64(2 * i)
            z1 = _mix64_c(seed + (k + np.uint64(1)) * _GAMMA)
            z2 = _mix64_c(seed + (k + np.uint64(2)) * _GAMMA)
            urn = np.intp(z1 % n)
            coin = np.float64(z2 >> np.uint64(11)) * _INV53
            if coin < prob[urn]:
                out[i] = urn
            else:
                out[i] = alias[urn]

    @njit(cache=True, parallel=True)
    def _bst_topdown_compiled(left, right, node_weight, start_nodes, seed, no_child, out):
        s = start_nodes.shape[0]
        visits = 0
        for i in prange(s):
            node = start_nodes[i]
            base = (np.uint64(i) + np.uint64(1)) << np.uint64(32)
            step = np.uint64(0)
            taken = 0
            while left[node] != no_child:
                step += np.uint64(1)
                z = _mix64_c(seed + (base + step) * _GAMMA)
                coin = np.float64(z >> np.uint64(11)) * _INV53 * node_weight[node]
                lc = left[node]
                if coin < node_weight[lc]:
                    node = lc
                else:
                    node = right[node]
                taken += 1
            visits += taken
            out[i] = node
        return visits

    @njit(cache=True, parallel=True)
    def _rejection_accept_compiled(acceptance, uniforms, out):
        for i in prange(acceptance.shape[0]):
            out[i] = uniforms[i] < acceptance[i]

    _vose_finish_compiled = njit(cache=True)(vose_finish_ref)
    _segmented_cumsum_compiled = njit(cache=True)(segmented_cumsum_ref)

    @njit(cache=True, parallel=True)
    def _offset_merge_compiled(indices, offsets, out):
        for i in prange(indices.shape[0]):
            out[i] = indices[i] + offsets[i]

    def alias_draw(prob: Any, alias: Any, seed: int, out: Any) -> None:
        _alias_draw_compiled(prob, alias, np.uint64(seed), out)

    def bst_topdown(
        left: Any,
        right: Any,
        node_weight: Any,
        start_nodes: Any,
        seed: int,
        no_child: int,
        out: Any,
    ) -> int:
        return int(
            _bst_topdown_compiled(
                left, right, node_weight, start_nodes, np.uint64(seed), no_child, out
            )
        )

    def rejection_accept(acceptance: Any, uniforms: Any, out: Any) -> None:
        _rejection_accept_compiled(acceptance, uniforms, out)

    def vose_finish(
        ids: Any,
        masses: Any,
        out_idx: Any,
        out_prob: Any,
        out_alias: Any,
        alias_base: int = 0,
    ) -> int:
        return int(
            _vose_finish_compiled(ids, masses, out_idx, out_prob, out_alias, alias_base)
        )

    def segmented_cumsum(values: Any, segments: Any, out: Any) -> None:
        _segmented_cumsum_compiled(values, segments, out)

    def offset_merge(indices: Any, offsets: Any, out: Any) -> None:
        _offset_merge_compiled(indices, offsets, out)

    def warmup() -> None:
        """Force-compile every kernel on tiny inputs (e.g. before timing)."""
        prob = np.array([0.5, 1.0])
        alias = np.array([1, 1], dtype=np.intp)
        out = np.empty(4, dtype=np.intp)
        alias_draw(prob, alias, 1, out)
        left = np.array([1, -1, -1], dtype=np.intp)
        right = np.array([2, -1, -1], dtype=np.intp)
        w = np.array([2.0, 1.0, 1.0])
        bst_topdown(left, right, w, np.zeros(4, dtype=np.intp), 1, -1, out)
        rejection_accept(prob, prob.copy(), np.empty(2, dtype=np.bool_))
        vose_finish(
            alias.copy(),
            np.array([0.5, 1.5]),
            np.empty(2, dtype=np.intp),
            np.empty(2),
            np.empty(2, dtype=np.intp),
        )
        segmented_cumsum(prob, alias, np.empty(2))
        offset_merge(alias, alias, np.empty(2, dtype=np.intp))

else:

    def alias_draw(prob: Any, alias: Any, seed: int, out: Any) -> None:
        alias_draw_ref(prob, alias, seed, out)

    def bst_topdown(
        left: Any,
        right: Any,
        node_weight: Any,
        start_nodes: Any,
        seed: int,
        no_child: int,
        out: Any,
    ) -> int:
        return bst_topdown_ref(left, right, node_weight, start_nodes, seed, no_child, out)

    def rejection_accept(acceptance: Any, uniforms: Any, out: Any) -> None:
        rejection_accept_ref(acceptance, uniforms, out)

    def vose_finish(
        ids: Any,
        masses: Any,
        out_idx: Any,
        out_prob: Any,
        out_alias: Any,
        alias_base: int = 0,
    ) -> int:
        return vose_finish_ref(ids, masses, out_idx, out_prob, out_alias, alias_base)

    def segmented_cumsum(values: Any, segments: Any, out: Any) -> None:
        segmented_cumsum_ref(values, segments, out)

    def offset_merge(indices: Any, offsets: Any, out: Any) -> None:
        offset_merge_ref(indices, offsets, out)

    def warmup() -> None:
        """No-op without numba (nothing to compile)."""


def finish_tail(
    ids: Any, masses: Any, alias_base: int = 0
) -> Tuple[Any, Any, Any]:
    """Vose-finish one tail segment, returning compact result arrays.

    Convenience wrapper over :func:`vose_finish` for the builders in
    :mod:`repro.core.kernels`: allocates worst-case outputs (every urn
    emits at most once) and trims to the emitted count.
    """
    n = len(ids)
    out_idx = np.empty(n, dtype=np.intp)
    out_prob = np.empty(n, dtype=np.float64)
    out_alias = np.empty(n, dtype=np.intp)
    emitted = vose_finish(
        np.ascontiguousarray(ids, dtype=np.intp),
        # vose_finish mutates masses in place — always hand it a private
        # copy (ascontiguousarray would alias an already-contiguous view).
        np.array(masses, dtype=np.float64, copy=True),
        out_idx,
        out_prob,
        out_alias,
        alias_base,
    )
    return out_idx[:emitted], out_prob[:emitted], out_alias[:emitted]


__all__ = [
    "HAVE_NUMBA",
    "alias_draw",
    "alias_draw_ref",
    "bst_topdown",
    "bst_topdown_ref",
    "rejection_accept",
    "rejection_accept_ref",
    "vose_finish",
    "vose_finish_ref",
    "offset_merge",
    "offset_merge_ref",
    "segmented_cumsum",
    "segmented_cumsum_ref",
    "finish_tail",
    "warmup",
]
