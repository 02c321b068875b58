"""Dynamic weighted range sampling (§4.3 remark + Direction 1).

Hu et al. [18] showed their range-sampling structure supports insertions
and deletions in ``O(log n)`` time (for WR sampling); the paper contrasts
this with the static Theorem-3 structure, whose alias tables resist
dynamization. This module provides the dynamic counterpart for general
weighted sampling:

* a *treap* (randomised balanced BST) over the keys, augmented with
  subtree weights — ``O(log n)`` expected insert/delete/update;
* range queries decompose into ``O(log n)`` canonical subtrees exactly as
  in §3.2, a node is drawn from the cover by cumulative weight, and a
  top-down weighted walk (§3.2 tree sampling, with internal nodes also
  carrying their own element) delivers each sample in ``O(log n)``
  expected time.

Query time is ``O((1 + s) log n)`` expected — the §3.2 bound, a log
factor off Theorem 3's static optimum, which is precisely the trade the
paper describes (fast updates vs. the un-dynamizable alias structure).
"""

from __future__ import annotations

from typing import Generic, List, Optional, Tuple, TypeVar

from repro.core.planner import QueryPlan
from repro.engine.protocol import EngineOp, RangeQueryMixin
from repro.errors import BuildError, EmptyQueryError, InvalidWeightError
from repro.substrates.rng import RNGLike, ensure_rng
from repro.validation import validate_range_bounds, validate_sample_size

K = TypeVar("K")


class _Node:
    __slots__ = ("key", "weight", "priority", "left", "right", "subtree_weight", "size")

    def __init__(self, key, weight: float, priority: float):
        self.key = key
        self.weight = weight
        self.priority = priority
        self.left: Optional["_Node"] = None
        self.right: Optional["_Node"] = None
        self.subtree_weight = weight
        self.size = 1


def _pull(node: _Node) -> None:
    node.subtree_weight = node.weight
    node.size = 1
    if node.left is not None:
        node.subtree_weight += node.left.subtree_weight
        node.size += node.left.size
    if node.right is not None:
        node.subtree_weight += node.right.subtree_weight
        node.size += node.right.size


def _merge(left: Optional[_Node], right: Optional[_Node]) -> Optional[_Node]:
    if left is None:
        return right
    if right is None:
        return left
    if left.priority > right.priority:
        left.right = _merge(left.right, right)
        _pull(left)
        return left
    right.left = _merge(left, right.left)
    _pull(right)
    return right


def _split(node: Optional[_Node], key, *, include_key_left: bool) -> Tuple[Optional[_Node], Optional[_Node]]:
    """Split by key: left gets keys < key (or <= key when inclusive)."""
    if node is None:
        return None, None
    goes_left = node.key <= key if include_key_left else node.key < key
    if goes_left:
        left, right = _split(node.right, key, include_key_left=include_key_left)
        node.right = left
        _pull(node)
        return node, right
    left, right = _split(node.left, key, include_key_left=include_key_left)
    node.left = right
    _pull(node)
    return left, node


class DynamicRangeSampler(RangeQueryMixin, Generic[K]):
    """Treap-backed weighted range sampling with O(log n) updates."""

    # Updates mutate the treap, so concurrent execution is unsafe; seeded
    # requests go through the protocol's swap path.
    engine_ops = {
        "sample": EngineOp("sample", takes_s=True, pass_rng=False),
    }
    engine_thread_safe = False

    plan_kind = "dynamic"

    def __init__(self, rng: RNGLike = None):
        self._rng = ensure_rng(rng)
        self._root: Optional[_Node] = None

    def __len__(self) -> int:
        return self._root.size if self._root is not None else 0

    @property
    def total_weight(self) -> float:
        return self._root.subtree_weight if self._root is not None else 0.0

    # ------------------------------------------------------------------
    # updates
    # ------------------------------------------------------------------

    def insert(self, key: K, weight: float = 1.0) -> None:
        """Insert a key with a positive weight; O(log n) expected.

        Raises on duplicate keys (the §3.2 BST stores distinct keys; use
        :meth:`update_weight` to change an existing element).
        """
        value = float(weight)
        if not value > 0 or value != value or value == float("inf"):
            raise InvalidWeightError(f"weight must be positive and finite, got {weight!r}")
        if self._find(key) is not None:
            raise BuildError(f"key {key!r} already present; use update_weight()")
        node = _Node(key, value, self._rng.random())
        left, right = _split(self._root, key, include_key_left=False)
        self._root = _merge(_merge(left, node), right)

    def delete(self, key: K) -> None:
        """Remove a key; O(log n) expected. KeyError if absent."""
        left, rest = _split(self._root, key, include_key_left=False)
        match, right = _split(rest, key, include_key_left=True)
        if match is None:
            self._root = _merge(left, right)
            raise KeyError(f"key {key!r} not present")
        self._root = _merge(left, right)

    def update_weight(self, key: K, weight: float) -> None:
        """Change a key's weight in place; O(log n)."""
        value = float(weight)
        if not value > 0 or value != value or value == float("inf"):
            raise InvalidWeightError(f"weight must be positive and finite, got {weight!r}")
        path: List[_Node] = []
        node = self._root
        while node is not None:
            path.append(node)
            if key == node.key:
                node.weight = value
                for ancestor in reversed(path):
                    _pull(ancestor)
                return
            node = node.left if key < node.key else node.right
        raise KeyError(f"key {key!r} not present")

    def _find(self, key: K) -> Optional[_Node]:
        node = self._root
        while node is not None:
            if key == node.key:
                return node
            node = node.left if key < node.key else node.right
        return None

    def __contains__(self, key: K) -> bool:
        return self._find(key) is not None

    def weight_of(self, key: K) -> float:
        node = self._find(key)
        if node is None:
            raise KeyError(f"key {key!r} not present")
        return node.weight

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    def _canonical_subtrees(self, x: K, y: K) -> List[Tuple[_Node, bool]]:
        """Cover of [x, y]: maximal subtrees + on-path single nodes.

        Returns (node, whole_subtree) pairs: ``whole_subtree`` selects the
        node's entire subtree, else only the node's own element. O(log n)
        entries, collected along the two boundary search paths.
        """
        validate_range_bounds(x, y)
        cover: List[Tuple[_Node, bool]] = []

        def visit(node: Optional[_Node], lo_open: bool, hi_open: bool) -> None:
            # lo_open: subtree may contain keys < x; hi_open: keys > y.
            if node is None:
                return
            if not lo_open and not hi_open:
                cover.append((node, True))
                return
            key_in = (x <= node.key) and (node.key <= y)
            if node.key < x:
                visit(node.right, lo_open, hi_open)
                return
            if node.key > y:
                visit(node.left, lo_open, hi_open)
                return
            # node.key inside the range: both sides may contribute.
            if key_in:
                cover.append((node, False))
            visit(node.left, lo_open, False)
            visit(node.right, False, hi_open)

        visit(self._root, True, True)
        return cover

    def count(self, x: K, y: K) -> int:
        """|S ∩ [x, y]| in O(log n)."""
        return sum(
            node.size if whole else 1 for node, whole in self._canonical_subtrees(x, y)
        )

    def range_weight(self, x: K, y: K) -> float:
        return sum(
            node.subtree_weight if whole else node.weight
            for node, whole in self._canonical_subtrees(x, y)
        )

    def _walk(self, node: _Node) -> K:
        """Weighted top-down walk; internal nodes carry their own element."""
        rng = self._rng
        while True:
            target = rng.random() * node.subtree_weight
            if node.left is not None:
                if target < node.left.subtree_weight:
                    node = node.left
                    continue
                target -= node.left.subtree_weight
            if target < node.weight:
                return node.key
            if node.right is None:  # float rounding at the boundary
                return node.key
            node = node.right

    def plan_range(self, x: K, y: K) -> QueryPlan:
        """The query plan for ``[x, y]`` — built per call, never cached.

        The treap mutates under ``insert``/``delete``/``update_weight``
        and the plan's payload holds live node references, so a cached
        plan could dangle after any update; the dynamic path therefore
        plans fresh each query (still randomness-free — all randomness
        is spent in :meth:`execute_plan`).
        """
        cover = self._canonical_subtrees(x, y)
        cumulative: List[float] = []
        weights: List[float] = []
        running = 0.0
        for node, whole in cover:
            weight = node.subtree_weight if whole else node.weight
            weights.append(weight)
            running += weight
            cumulative.append(running)
        return QueryPlan(
            self.plan_kind,
            (x, y),
            spans=None,  # treap subtrees have no positional index spans
            weights=tuple(weights),
            payload=(cover, cumulative, running),
        )

    def plan_request(self, request) -> QueryPlan:
        """Plan an engine request without executing draws (--explain)."""
        self.validate_request(request)
        x, y = request.args
        plan = self.plan_range(x, y)
        if not plan.payload[0]:
            raise EmptyQueryError(f"no keys in [{x!r}, {y!r}]")
        return plan

    def execute_plan(self, plan: QueryPlan, s: int) -> List[K]:
        """Draw ``s`` samples from a plan (all randomness spent here)."""
        cover, cumulative, running = plan.payload
        rng = self._rng
        result: List[K] = []
        from bisect import bisect_right

        for _ in range(s):
            target = rng.random() * running
            index = bisect_right(cumulative, target)
            if index == len(cover):
                index -= 1
            node, whole = cover[index]
            result.append(self._walk(node) if whole else node.key)
        return result

    def sample(self, x: K, y: K, s: int) -> List[K]:
        """``s`` independent weighted samples from ``S ∩ [x, y]``.

        O((1 + s) log n) expected; outputs of all queries are mutually
        independent, and stay so across arbitrary interleaved updates.
        """
        validate_sample_size(s)
        plan = self.plan_range(x, y)
        if not plan.payload[0]:
            raise EmptyQueryError(f"no keys in [{x!r}, {y!r}]")
        return self.execute_plan(plan, s)

    def keys_in_order(self) -> List[K]:
        """In-order key listing (testing helper)."""
        out: List[K] = []

        def walk(node: Optional[_Node]) -> None:
            if node is None:
                return
            walk(node.left)
            out.append(node.key)
            walk(node.right)

        walk(self._root)
        return out
