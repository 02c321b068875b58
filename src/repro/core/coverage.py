"""The coverage technique (paper §5, Theorem 5).

Given any tree-based reporting structure that can produce, for a predicate
``q``, a *cover* ``C_q`` — disjoint subtrees whose leaves exactly make up
``S_q`` — Theorem 5 converts it into an IQS structure with ``O(m)``
additional space and ``O(|C_q| + s)`` query time (plus the cover-finding
time): build an alias structure over the cover's node weights on the fly,
split the ``s`` draws across the cover, and answer each part from the
node's subtree sampler.

Here a cover is a list of disjoint half-open *spans* of the index's
leaf-order array (every supported index — :class:`~repro.substrates.bst.StaticBST`
via :class:`BSTIndex`, :class:`~repro.substrates.kdtree.KDTree`,
:class:`~repro.substrates.quadtree.QuadTree`,
:class:`~repro.substrates.rangetree.RangeTree` — stores each subtree
contiguously). Subtree (= span) sampling backends:

* ``"uniform"`` — all leaf weights equal: a uniform index draw, O(1) per
  sample (the Lemma-4 bound for WR sampling, exactly);
* ``"chunked"`` — general weights: a single Theorem-3 structure over the
  whole leaf array, O(n) extra space, O(log n) per cover span plus O(1)
  per sample (the Lemma-4 substitution discussed in DESIGN.md);
* ``"alias"`` — Lemma-2 style: a pre-built alias structure per subtree
  span, O(1) per sample at the price of O(Σ|S(u)|) space.
* ``"auto"`` (default) — ``"uniform"`` when weights allow, else
  ``"chunked"``.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Protocol, Sequence, Tuple, runtime_checkable

from repro.core.alias import AliasTables, alias_draw, build_alias_tables
from repro.core.planner import QueryPlan, plan_scope
from repro.core.range_sampler import ChunkedRangeSampler
from repro.core.schemes import multinomial_split
from repro.engine.protocol import EngineOp, EngineSampler
from repro.errors import BuildError, EmptyQueryError
from repro.substrates.bst import StaticBST
from repro.substrates.rng import RNGLike, ensure_rng
from repro.validation import validate_range_bounds, validate_sample_size

Span = Tuple[int, int]


@runtime_checkable
class CoverableIndex(Protocol):
    """What Theorem 5 requires of the underlying reporting structure."""

    @property
    def leaf_items(self) -> Sequence[Any]:
        """Stored elements in leaf order (subtrees are contiguous spans)."""

    @property
    def leaf_weights(self) -> Sequence[float]:
        """Positive sampling weight of each leaf-order element."""

    def find_cover(self, query: Any) -> List[Span]:
        """Disjoint spans whose union is exactly ``S_q``."""


class BSTIndex:
    """Adapter presenting :class:`StaticBST` as a coverable index.

    Queries are ``(x, y)`` intervals; the cover is the canonical-node set
    of Figure 1, of size ``O(log n)``.
    """

    def __init__(self, keys: Sequence[float], weights: Optional[Sequence[float]] = None):
        self._tree = StaticBST(keys, weights)

    @property
    def leaf_items(self) -> Sequence[float]:
        return self._tree.keys

    @property
    def leaf_weights(self) -> Sequence[float]:
        return self._tree.weights

    def find_cover(self, query: Tuple[float, float]) -> List[Span]:
        x, y = query
        return [self._tree.leaf_span(u) for u in self._tree.canonical_nodes(x, y)]

    def iter_node_spans(self) -> List[Span]:
        return [self._tree.leaf_span(u) for u in self._tree.iter_nodes()]

    def __len__(self) -> int:
        return len(self._tree)


class CoverageSampler(EngineSampler):
    """Theorem 5: IQS over any coverable index.

    Parameters
    ----------
    index:
        The reporting structure (must satisfy :class:`CoverableIndex`).
    backend:
        ``"auto"``, ``"uniform"``, ``"chunked"`` or ``"alias"`` — see the
        module docstring.
    rng:
        Seed or generator for all sampling randomness.
    plan_cache_size:
        Plan-cache capacity (``None`` joins the shared engine-scoped
        store sized by ``REPRO_PLAN_CACHE_SIZE``; 0 disables). Covers
        are deterministic, so memoizing them per query cannot change
        any output — only skip the cover-finding work on hot queries.
    """

    engine_ops = {
        "sample": EngineOp("sample"),
        "sample_indices": EngineOp("sample_indices"),
    }
    engine_thread_safe = True

    plan_kind = "coverage"

    def __init__(
        self,
        index: CoverableIndex,
        backend: str = "auto",
        rng: RNGLike = None,
        plan_cache_size: Optional[int] = None,
    ):
        self._index = index
        self._rng = ensure_rng(rng)
        weights = list(index.leaf_weights)
        if len(weights) == 0:
            raise BuildError("index holds no elements")
        self._weights = weights
        # Prefix sums give any span's total weight in O(1).
        prefix = [0.0]
        for w in weights:
            prefix.append(prefix[-1] + w)
        self._prefix = prefix

        uniform = len(set(weights)) == 1
        if backend == "auto":
            backend = "uniform" if uniform else "chunked"
        if backend == "uniform" and not uniform:
            raise BuildError('backend="uniform" requires equal weights')
        if backend not in ("uniform", "chunked", "alias"):
            raise BuildError(f"unknown backend {backend!r}")
        self._backend = backend

        self._chunked: ChunkedRangeSampler = None
        self._span_tables: Dict[Span, AliasTables] = {}
        if backend == "chunked":
            self._chunked = ChunkedRangeSampler(
                list(range(len(weights))), weights, rng=self._rng
            )
        elif backend == "alias":
            spans = getattr(index, "iter_node_spans", None)
            if spans is None:
                raise BuildError(
                    'backend="alias" needs the index to expose iter_node_spans()'
                )
            for lo, hi in spans():
                if hi - lo > 1:
                    self._span_tables[(lo, hi)] = build_alias_tables(weights[lo:hi])
        self.plan_cache = plan_scope(self.plan_kind, plan_cache_size)

    @property
    def backend(self) -> str:
        return self._backend

    def span_weight(self, span: Span) -> float:
        lo, hi = span
        return self._prefix[hi] - self._prefix[lo]

    def _draw_from_span(self, span: Span, count: int, rng) -> List[int]:
        lo, hi = span
        if hi - lo == 1:
            return [lo] * count
        if self._backend == "uniform":
            width = hi - lo
            return [min(lo + int(rng.random() * width), hi - 1) for _ in range(count)]
        if self._backend == "chunked":
            return self._chunked.sample_span(lo, hi, count, rng=rng)
        tables = self._span_tables.get(span)
        if tables is None:
            # Cover span not a precomputed subtree span (e.g. a singleton
            # produced by a boundary leaf): build on the fly and memoise.
            tables = build_alias_tables(self._weights[lo:hi])
            self._span_tables[span] = tables
        prob, alias = tables
        return [lo + alias_draw(prob, alias, rng) for _ in range(count)]

    def _build_plan(self, query: Any, hint: Any = None) -> QueryPlan:
        """Theorem-5 plan: the cover ``C_q`` and its span weights."""
        if hint is not None:
            cover = [tuple(span) for span in hint]
        else:
            cover = self._index.find_cover(query)
        weights = [self.span_weight(span) for span in cover]
        return QueryPlan(
            self.plan_kind,
            query,
            spans=tuple(cover),
            weights=tuple(weights),
            payload=(cover, weights),
            hint=tuple(cover),
        )

    def plan_query(self, query: Any, *, portable: Any = None) -> QueryPlan:
        """The (memoized) plan for ``query``.

        Unhashable queries (an index type with, say, list-shaped
        predicates) are planned per call and bypass the store.
        """
        try:
            hash(query)
        except TypeError:  # unhashable query: plan without caching
            return self._build_plan(query)
        return self.plan_cache.fetch(
            query, lambda hint: self._build_plan(query, hint=hint), portable
        )

    def validate_request(self, request) -> None:
        """Common checks, plus NaN-free rectangles and intervals.

        A NaN bound compares false against every coordinate, so each
        index's search would read it differently (samples from one,
        :class:`~repro.errors.EmptyQueryError` from another); every
        rectangle index (one with ``dims``) and the interval index
        :class:`BSTIndex` raise the same :class:`ValueError` instead.
        """
        super().validate_request(request)
        if len(request.args) != 1:
            return
        if getattr(self._index, "dims", None) is not None:
            for lo, hi in request.args[0]:
                validate_range_bounds(lo, hi)
        elif isinstance(self._index, BSTIndex):
            lo, hi = request.args[0]
            validate_range_bounds(lo, hi)

    def plan_request(self, request) -> QueryPlan:
        """Plan an engine request without executing draws (--explain)."""
        self.validate_request(request)
        return self.plan_query(request.args[0])

    def execute_plan(self, plan: QueryPlan, s: int, *, rng: RNGLike = None) -> List[int]:
        """Spend the randomness: split ``s`` across the cover and draw."""
        rng = self._rng if rng is None else rng
        cover, weights = plan.payload
        if not cover:
            raise EmptyQueryError(f"no elements satisfy {plan.key!r}")
        if len(cover) == 1:
            return self._draw_from_span(cover[0], s, rng)
        counts = multinomial_split(weights, s, rng)
        result: List[int] = []
        for span, count in zip(cover, counts):
            if count:
                result.extend(self._draw_from_span(span, count, rng))
        return result

    def sample_indices(self, query: Any, s: int, *, rng: RNGLike = None) -> List[int]:
        """``s`` independent weighted sample positions from ``S_q``.

        Runs the Theorem-5 algorithm as the plan → execute compose:
        find ``C_q`` and its span weights (:meth:`plan_query`, cached),
        then split the draws and sample each part from its subtree
        (:meth:`execute_plan`).
        """
        validate_sample_size(s)
        return self.execute_plan(self.plan_query(query), s, rng=rng)

    def sample(self, query: Any, s: int, *, rng: RNGLike = None) -> List[Any]:
        """``s`` independent weighted samples (as stored items) from ``S_q``."""
        items = self._index.leaf_items
        return [items[i] for i in self.sample_indices(query, s, rng=rng)]

    def cover_size(self, query: Any) -> int:
        """``|C_q|`` — the quantity Theorem 5's query bound is stated in."""
        return len(self._index.find_cover(query))

    def result_size(self, query: Any) -> int:
        """``|S_q|`` (by summing cover span lengths)."""
        return sum(hi - lo for lo, hi in self._index.find_cover(query))
