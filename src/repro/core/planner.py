"""First-class query planning: ``QueryPlan`` values and the ``PlanStore``.

Every range-sampling structure in the paper answers a query in the same
two phases: *plan* — compute a canonical decomposition of the range
(O(log n) cover nodes / urns / chunks, §3–§4) — then *execute* — draw
``s`` samples from the decomposition. Planning is a pure function of the
structure and the span and consumes **no randomness**; execution is
where every bit of randomness is spent. This module makes that split
explicit:

``QueryPlan``
    An immutable value describing one query's decomposition: the
    canonical cover spans, the per-span weights (the budget hints a
    multinomial split consumes), a sampler-kind tag, the cache key, and
    an opaque sampler-specific payload holding resolved draw state
    (alias tables, node entries). ``portable()`` strips the payload down
    to plain data that can cross a process boundary, so a parent can
    plan once and ship the plan to shard executions.

``PlanStore``
    A bounded LRU shared by *many* samplers, keyed by structure
    fingerprint × plan kind × canonical range. The fingerprint keeps
    plans from unrelated structures apart; the LRU bound and the
    ``REPRO_PLAN_CACHE_SIZE`` environment knob are unchanged from the
    per-instance cache this store replaces.

``PlanScope``
    One sampler's view of a store: the sampler-facing ``plan_cache``
    attribute. It carries the fingerprint, owns the one plan-fetch
    routine every planful sampler calls (:meth:`PlanScope.fetch`), and
    reports the per-instance ``hits``/``misses``/``evictions`` tallies.

Because a plan is deterministic, caching and shipping plans cannot
change any query's output — only its latency. Byte-identity of the
sample streams is pinned by ``tests/engine/test_golden_streams.py``.
"""

from __future__ import annotations

import itertools
import threading
from collections import OrderedDict
from typing import Any, Callable, Dict, Hashable, List, Optional, Tuple

from repro import obs
from repro.substrates.env import env_int

# ----------------------------------------------------------------------
# Registry-backed counters (repro.obs), aggregated across every store in
# the process. Per-kind twins (``plan_cache.<kind>.hits`` / ``.misses``)
# are created lazily the first time a kind is seen, so the metric
# namespace only contains kinds the workload actually planned.
# ----------------------------------------------------------------------
_HITS = obs.counter("plan_cache.hits", "Query-plan cache hits (all stores)")
_MISSES = obs.counter("plan_cache.misses", "Query-plan cache misses (all stores)")
_EVICTIONS = obs.counter("plan_cache.evictions", "Query-plan cache LRU evictions")

_KIND_COUNTERS: Dict[Tuple[str, str], Any] = {}
_KIND_LOCK = threading.Lock()

#: Plans kept per store when neither the constructor argument nor the
#: environment variable overrides it. Sized for a hot-range working set:
#: each plan is O(log n) ids and floats, so a full store is kilobytes.
DEFAULT_CAPACITY = 256

#: Environment variable consulted when no capacity argument is given.
ENV_CAPACITY = "REPRO_PLAN_CACHE_SIZE"

_MISSING = object()

_FINGERPRINTS = itertools.count(1)


def next_fingerprint() -> int:
    """A process-unique structure fingerprint.

    Issued once per planful sampler instance; keying store entries by
    fingerprint is what lets one store serve many samplers without a
    structure ever seeing another structure's plans.
    """
    return next(_FINGERPRINTS)


def _kind_counter(kind: str, event: str):
    counter = _KIND_COUNTERS.get((kind, event))
    if counter is None:
        with _KIND_LOCK:
            counter = _KIND_COUNTERS.get((kind, event))
            if counter is None:
                counter = obs.counter(
                    f"plan_cache.{kind}.{event}",
                    f"Query-plan cache {event} ({kind} plans)",
                )
                _KIND_COUNTERS[(kind, event)] = counter
    return counter


def resolve_capacity(capacity: Optional[int] = None) -> int:
    """Resolve a store capacity from the argument or the environment."""
    if capacity is None:
        capacity = env_int(ENV_CAPACITY, DEFAULT_CAPACITY)
    if capacity < 0:
        raise ValueError(f"plan cache capacity must be >= 0, got {capacity}")
    return capacity


class QueryPlan:
    """One query's canonical decomposition, ready to execute.

    Parameters
    ----------
    kind:
        The planning sampler's kind tag (``"treewalk"``, ``"lemma2"``,
        ``"chunked"``, ``"coverage"``, ``"sharded"``, ...).
    key:
        The canonical cache key — a ``(lo, hi)`` index span for the
        range structures, the query object for coverage sampling.
    spans:
        Canonical cover spans as ``(lo, hi)`` pairs (``None`` for plans
        whose decomposition has no positional spans, e.g. the dynamic
        treap's subtree cover).
    weights:
        Per-part weights — the budget hints a multinomial split of the
        sample budget ``s`` consumes at execution time.
    payload:
        Sampler-specific resolved draw state (alias tables, node
        entries, fan-out rows). Opaque to everything but the owning
        sampler's ``execute_plan``; may hold live object references and
        is therefore **not** shipped across processes.
    hint:
        Plain-data summary of the decomposition (cover node ids, part
        ranges) sufficient for the owning sampler *class* to rebuild the
        plan without redoing the cover search. This is what
        :meth:`portable` ships to worker processes.
    """

    __slots__ = ("kind", "key", "spans", "weights", "payload", "hint")

    def __init__(
        self,
        kind: str,
        key: Hashable,
        spans: Optional[Tuple[Tuple[int, int], ...]],
        weights: Tuple[float, ...],
        payload: Any = None,
        hint: Any = None,
    ):
        self.kind = kind
        self.key = key
        self.spans = spans
        self.weights = weights
        self.payload = payload
        self.hint = hint

    @property
    def cover_size(self) -> int:
        """Number of canonical parts (cover nodes / Figure-2 parts)."""
        return len(self.weights)

    @property
    def total_weight(self) -> float:
        return float(sum(self.weights))

    def portable(self) -> Tuple[str, Hashable, Any]:
        """Plain-data form for crossing a process boundary.

        Deliberately excludes ``payload`` (live tables) and ``spans``
        (recomputable): the wire cost stays O(cover) = O(log n) ids, in
        keeping with the engine's O(log n)-bytes-per-request budget.
        """
        return (self.kind, self.key, self.hint)

    def describe(self) -> Dict[str, Any]:
        """Human-oriented summary (the ``--explain`` payload)."""
        info: Dict[str, Any] = {
            "kind": self.kind,
            "key": self.key,
            "cover_spans": self.cover_size,
            "total_weight": self.total_weight,
        }
        if self.spans is not None:
            info["spans"] = list(self.spans)
        info["weights"] = list(self.weights)
        return info

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"QueryPlan(kind={self.kind!r}, key={self.key!r}, "
            f"cover_spans={self.cover_size})"
        )


class PlanStore:
    """Bounded LRU of query plans, shared across samplers.

    Entries are keyed ``(fingerprint, kind, key)``; per-fingerprint
    hit/miss/eviction tallies are kept so each sampler's
    :class:`PlanScope` can report its own numbers even though the
    storage (and the LRU pressure) is shared.

    Capacity resolution: ``None`` defers to ``REPRO_PLAN_CACHE_SIZE``
    then :data:`DEFAULT_CAPACITY`; ``0`` disables the store outright
    (every lookup is a bypass; counters stay at zero).
    """

    __slots__ = ("_capacity", "_entries", "_lock", "_scope_stats")

    def __init__(self, capacity: Optional[int] = None):
        self._capacity = resolve_capacity(capacity)
        self._entries: "OrderedDict[Tuple[int, str, Hashable], Any]" = OrderedDict()
        # The engine's thread backend drives concurrent queries through
        # one sampler; move_to_end/popitem are not atomic, so reads take
        # the lock too (plan computation itself stays outside it).
        self._lock = threading.Lock()
        # fingerprint -> [hits, misses, evictions]
        self._scope_stats: Dict[int, List[int]] = {}

    @property
    def capacity(self) -> int:
        return self._capacity

    @property
    def enabled(self) -> bool:
        return self._capacity > 0

    def __len__(self) -> int:
        return len(self._entries)

    def _stats_for(self, fingerprint: int) -> List[int]:
        stats = self._scope_stats.get(fingerprint)
        if stats is None:
            stats = self._scope_stats.setdefault(fingerprint, [0, 0, 0])
        return stats

    def scope_counts(self, fingerprint: int) -> Tuple[int, int, int]:
        """``(hits, misses, evictions)`` attributed to one fingerprint."""
        stats = self._scope_stats.get(fingerprint)
        return (0, 0, 0) if stats is None else tuple(stats)

    def scope_size(self, fingerprint: int) -> int:
        """Entries currently held for one fingerprint (O(store) scan —
        a diagnostics accessor, not a hot path)."""
        with self._lock:
            return sum(1 for fp, _, _ in self._entries if fp == fingerprint)

    def get(self, fingerprint: int, kind: str, key: Hashable) -> Any:
        """The cached plan, or ``None`` (recorded as a miss)."""
        if self._capacity == 0:
            return None
        full_key = (fingerprint, kind, key)
        with self._lock:
            entry = self._entries.get(full_key, _MISSING)
            if entry is _MISSING:
                self._stats_for(fingerprint)[1] += 1
                hit = False
            else:
                self._entries.move_to_end(full_key)
                self._stats_for(fingerprint)[0] += 1
                hit = True
        if obs.ENABLED:
            if hit:
                _HITS.inc()
                _kind_counter(kind, "hits").inc()
            else:
                _MISSES.inc()
                _kind_counter(kind, "misses").inc()
        return None if entry is _MISSING else entry

    def put(self, fingerprint: int, kind: str, key: Hashable, plan: Any) -> None:
        """Insert (or refresh) a plan, evicting the LRU entry if full."""
        if self._capacity == 0:
            return
        full_key = (fingerprint, kind, key)
        evicted = None
        with self._lock:
            entries = self._entries
            if full_key in entries:
                entries.move_to_end(full_key)
            entries[full_key] = plan
            if len(entries) > self._capacity:
                evicted = entries.popitem(last=False)[0]
                self._stats_for(evicted[0])[2] += 1
        if evicted is not None and obs.ENABLED:
            _EVICTIONS.inc()
            _kind_counter(evicted[1], "evictions").inc()

    def clear_scope(self, fingerprint: int) -> None:
        """Drop one fingerprint's plans; its counters are preserved."""
        with self._lock:
            stale = [k for k in self._entries if k[0] == fingerprint]
            for k in stale:
                del self._entries[k]

    def clear(self) -> None:
        """Drop all plans; counters are preserved."""
        with self._lock:
            self._entries.clear()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"PlanStore(capacity={self._capacity}, size={len(self._entries)}, "
            f"scopes={len(self._scope_stats)})"
        )


class PlanScope:
    """One sampler's view of a :class:`PlanStore`.

    This is what planful samplers expose as ``sampler.plan_cache``. It
    binds the structure fingerprint and plan kind, so every sampler
    fetches its plans with one call::

        plan = self.plan_cache.fetch((lo, hi), build, portable)

    The per-instance ``hits``/``misses``/``evictions`` tallies record
    regardless of the metrics switch; the process-wide aggregates live
    in the obs registry.
    """

    __slots__ = ("_store", "kind", "fingerprint")

    def __init__(
        self, store: PlanStore, kind: str, fingerprint: Optional[int] = None
    ):
        self._store = store
        self.kind = kind
        self.fingerprint = next_fingerprint() if fingerprint is None else fingerprint

    @property
    def store(self) -> PlanStore:
        return self._store

    def get(self, key: Hashable) -> Any:
        return self._store.get(self.fingerprint, self.kind, key)

    def put(self, key: Hashable, plan: Any) -> None:
        self._store.put(self.fingerprint, self.kind, key, plan)

    def fetch(
        self,
        key: Hashable,
        build: Callable[[Any], Any],
        portable: Optional[Tuple[str, Hashable, Any]] = None,
    ) -> Any:
        """The stored plan for ``key``; on a miss ``build(hint)`` runs in
        a ``plan.build`` span and its plan is stored. ``hint`` comes from
        ``portable`` (a :meth:`QueryPlan.portable` form) when its kind and
        key match this scope's, else ``None``."""
        plan = self._store.get(self.fingerprint, self.kind, key)
        if plan is None:
            hint = None
            if portable is not None:
                kind, portable_key, hint = portable
                if kind != self.kind or portable_key != key:
                    hint = None
            if obs.ENABLED:
                with obs.span("plan.build", kind=self.kind):
                    plan = build(hint)
            else:
                plan = build(hint)
            self._store.put(self.fingerprint, self.kind, key, plan)
        return plan

    @property
    def hits(self) -> int:
        return self._store.scope_counts(self.fingerprint)[0]

    @property
    def misses(self) -> int:
        return self._store.scope_counts(self.fingerprint)[1]

    @property
    def evictions(self) -> int:
        return self._store.scope_counts(self.fingerprint)[2]

    @property
    def capacity(self) -> int:
        return self._store.capacity

    @property
    def enabled(self) -> bool:
        return self._store.enabled

    def __len__(self) -> int:
        return self._store.scope_size(self.fingerprint)

    def clear(self) -> None:
        self._store.clear_scope(self.fingerprint)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"PlanScope(kind={self.kind!r}, fingerprint={self.fingerprint}, "
            f"capacity={self.capacity})"
        )


# ----------------------------------------------------------------------
# Engine-scoped shared stores. One store per resolved capacity: all
# samplers built without an explicit ``plan_cache_size`` share it, which
# is what makes the LRU bound a process budget instead of a per-sampler
# one. Re-resolving the environment on every call keeps the
# ``REPRO_PLAN_CACHE_SIZE`` knob live for samplers built later.
# ----------------------------------------------------------------------
_SHARED: Dict[int, PlanStore] = {}
_SHARED_LOCK = threading.Lock()


def shared_store() -> PlanStore:
    """The process-wide store for the currently resolved capacity."""
    capacity = resolve_capacity(None)
    store = _SHARED.get(capacity)
    if store is None:
        with _SHARED_LOCK:
            store = _SHARED.get(capacity)
            if store is None:
                store = PlanStore(capacity)
                _SHARED[capacity] = store
    return store


def plan_scope(kind: str, capacity: Optional[int] = None) -> PlanScope:
    """A fresh scope for one sampler instance.

    ``capacity=None`` joins the shared engine-scoped store (resolving
    the environment knob); an explicit capacity gets a private store of
    exactly that size — which keeps sizing/eviction tests exact and
    preserves the old per-instance ``plan_cache_size`` semantics.
    """
    store = shared_store() if capacity is None else PlanStore(capacity)
    return PlanScope(store, kind)


__all__ = [
    "QueryPlan",
    "PlanStore",
    "PlanScope",
    "plan_scope",
    "shared_store",
    "next_fingerprint",
    "resolve_capacity",
    "DEFAULT_CAPACITY",
    "ENV_CAPACITY",
]
