"""Tree sampling (paper §3.2 and §5, Proposition 1, Lemma 4).

Problem: a rooted tree ``T`` has positively weighted leaves; ``w(u)`` of an
internal node aggregates its subtree's leaf weights. A query ``(q, s)``
returns ``s`` independent weighted samples from the leaves below node
``q``, with all query outputs mutually independent.

Two structures:

* :class:`TreeSampler` — the §3.2 top-down walk: an alias structure at
  every internal node samples a child in O(1); one sample costs
  ``O(height)``.
* :class:`FlatTreeSampler` — the §5 improvement: a depth-first traversal
  lays the leaves out in a sequence Π where every subtree is contiguous
  (Proposition 1), turning subtree sampling into *weighted range sampling*
  over ``Π[a:b]`` answered by the Theorem-3 structure in ``O(log n + s)``.
  When all leaf weights are equal the range draw degenerates to a uniform
  index draw, achieving the ``O(1 + s)`` bound of Lemma 4 exactly; for
  general weights we substitute the Theorem-3 structure for the
  Afshani–Wei rank-space structure (see DESIGN.md §4, substitution 1).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro import obs
from repro.core import kernels
from repro.core.alias import AliasTables, alias_draw, build_alias_tables
from repro.core.range_sampler import ChunkedRangeSampler
from repro.engine.protocol import EngineOp, EngineSampler
from repro.errors import BuildError, InvalidWeightError
from repro.substrates.rng import RNGLike, ensure_rng
from repro.validation import validate_sample_size

NO_NODE = -1

_TOPDOWN_DRAWS = obs.counter(
    "tree.topdown.draws", "Top-down (§3.2) tree-sampler leaf draws"
)
_FLAT_DRAWS = obs.counter(
    "tree.flat.draws", "FlatTreeSampler (§5, Proposition 1) leaf draws"
)


class Tree:
    """General rooted tree with weighted leaves (arbitrary fanout).

    Build incrementally with :meth:`add_root` / :meth:`add_child`, or from
    a nested spec with :meth:`from_nested`; then :meth:`finalize` computes
    the aggregated internal weights ``w(u)`` of §3.2.
    """

    def __init__(self) -> None:
        self._parent: List[int] = []
        self._children: List[List[int]] = []
        self._weight: List[Optional[float]] = []
        self._payload: List[Any] = []
        self._root = NO_NODE
        self._finalized = False

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    def add_root(self, weight: Optional[float] = None, payload: Any = None) -> int:
        if self._root != NO_NODE:
            raise BuildError("tree already has a root")
        self._root = self._add_node(NO_NODE, weight, payload)
        return self._root

    def add_child(self, parent: int, weight: Optional[float] = None, payload: Any = None) -> int:
        if self._finalized:
            raise BuildError("tree is finalized; no further nodes may be added")
        if not 0 <= parent < len(self._parent):
            raise BuildError(f"unknown parent node {parent}")
        node = self._add_node(parent, weight, payload)
        self._children[parent].append(node)
        return node

    def _add_node(self, parent: int, weight: Optional[float], payload: Any) -> int:
        node = len(self._parent)
        self._parent.append(parent)
        self._children.append([])
        self._weight.append(weight)
        self._payload.append(payload)
        return node

    @classmethod
    def from_nested(cls, spec: Any) -> "Tree":
        """Build from nested lists: a leaf is ``(payload, weight)``, an
        internal node is a list of child specs.

        >>> tree = Tree.from_nested([("a", 1.0), [("b", 2.0), ("c", 3.0)]])
        """
        tree = cls()

        def grow(node_spec: Any, parent: int) -> None:
            if isinstance(node_spec, list):
                node = tree.add_root() if parent == NO_NODE else tree.add_child(parent)
                for child_spec in node_spec:
                    grow(child_spec, node)
            else:
                payload, weight = node_spec
                if parent == NO_NODE:
                    tree.add_root(weight=weight, payload=payload)
                else:
                    tree.add_child(parent, weight=weight, payload=payload)

        grow(spec, NO_NODE)
        tree.finalize()
        return tree

    def finalize(self) -> "Tree":
        """Validate leaf weights and aggregate internal weights bottom-up."""
        if self._root == NO_NODE:
            raise BuildError("tree has no root")
        order = self.topological_order()
        for node in reversed(order):
            if self.is_leaf(node):
                weight = self._weight[node]
                if weight is None or not weight > 0 or weight != weight or weight == float("inf"):
                    raise InvalidWeightError(
                        f"leaf {node} needs a positive finite weight, got {weight!r}"
                    )
            else:
                self._weight[node] = sum(self._weight[c] for c in self._children[node])
        self._finalized = True
        return self

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._parent)

    @property
    def root(self) -> int:
        return self._root

    def is_leaf(self, node: int) -> bool:
        return not self._children[node]

    def children(self, node: int) -> Sequence[int]:
        return tuple(self._children[node])

    def parent(self, node: int) -> int:
        return self._parent[node]

    def weight(self, node: int) -> float:
        """``w(u)``: the node's own weight (leaf) or subtree total."""
        if not self._finalized:
            raise BuildError("call finalize() before reading aggregated weights")
        weight = self._weight[node]
        assert weight is not None
        return weight

    def payload(self, node: int) -> Any:
        return self._payload[node]

    def topological_order(self) -> List[int]:
        """Nodes in DFS pre-order from the root (parents before children)."""
        order: List[int] = []
        stack = [self._root]
        while stack:
            node = stack.pop()
            order.append(node)
            # Reversed so children are visited left-to-right.
            stack.extend(reversed(self._children[node]))
        return order

    def leaves_in_dfs_order(self) -> List[int]:
        """The sequence Π of §5: leaves in depth-first order."""
        return [node for node in self.topological_order() if self.is_leaf(node)]

    def subtree_height(self, node: int) -> int:
        best = 0
        stack: List[Tuple[int, int]] = [(node, 0)]
        while stack:
            current, depth = stack.pop()
            if self.is_leaf(current):
                best = max(best, depth)
            else:
                stack.extend((child, depth + 1) for child in self._children[current])
        return best


class TreeSampler(EngineSampler):
    """§3.2 top-down tree sampling: O(n) space, O(height) per sample."""

    engine_ops = {
        "sample": EngineOp("sample_many"),
    }
    engine_thread_safe = True

    def __init__(self, tree: Tree, rng: RNGLike = None):
        self._tree = tree
        self._rng = ensure_rng(rng)
        # Alias structure at each internal node over its children's weights
        # (fanout need not be constant, exactly as §3.2 allows).
        self._child_tables: Dict[int, AliasTables] = {}
        if not (kernels.use_batch_build(len(tree)) and self._build_child_tables_packed()):
            for node in range(len(tree)):
                if not tree.is_leaf(node):
                    child_weights = [tree.weight(c) for c in tree.children(node)]
                    self._child_tables[node] = build_alias_tables(child_weights)
        # numpy copies of (prob, alias, children) per node, built lazily.
        self._np_child_tables: Dict[int, tuple] = {}
        self._np_leaf_mask = None

    def _build_child_tables_packed(self) -> bool:
        """Build every internal node's child table in one packed call.

        Rows are internal nodes, columns their children's weights. Returns
        ``False`` (letting the scalar loop run instead) when the fanout
        spread would make the padded matrix much larger than the actual
        child count — e.g. one giant star node among binary nodes.
        """
        np = kernels.np
        tree = self._tree
        internal = [node for node in range(len(tree)) if not tree.is_leaf(node)]
        if not internal:
            return True
        kid_tuples = [tree.children(node) for node in internal]
        sizes = np.array([len(kids) for kids in kid_tuples], dtype=np.intp)
        width = int(sizes.max())
        total = int(sizes.sum())
        if width * len(internal) > 4 * total + 1024:
            return False
        node_weights = np.asarray(
            [tree.weight(node) for node in range(len(tree))], dtype=np.float64
        )
        flat_children = np.fromiter(
            (child for kids in kid_tuples for child in kids), dtype=np.intp, count=total
        )
        rows = np.repeat(np.arange(len(internal), dtype=np.intp), sizes)
        offsets = np.cumsum(sizes) - sizes
        cols = np.arange(total, dtype=np.intp) - offsets[rows]
        matrix = np.zeros((len(internal), width))
        matrix[rows, cols] = node_weights[flat_children]
        prob_mat, alias_mat = kernels.build_alias_tables_packed(matrix, sizes)
        for j, node in enumerate(internal):
            size = int(sizes[j])
            self._child_tables[node] = (prob_mat[j, :size], alias_mat[j, :size])
        return True

    @property
    def tree(self) -> Tree:
        return self._tree

    def sample(self, q: int, *, rng: RNGLike = None) -> int:
        """One weighted leaf sample from the subtree of ``q``."""
        if obs.ENABLED:
            _TOPDOWN_DRAWS.inc()
        tree = self._tree
        rng = self._rng if rng is None else rng
        node = q
        while not tree.is_leaf(node):
            prob, alias = self._child_tables[node]
            node = tree.children(node)[alias_draw(prob, alias, rng)]
        return node

    def sample_many(self, q: int, s: int, *, rng: RNGLike = None) -> List[int]:
        """``s`` independent weighted leaf samples (O(s · height)).

        The batch path descends all ``s`` tokens together, one vectorized
        alias draw per (level, distinct node) pair: tokens sharing a node
        are grouped so the per-draw cost is a numpy element-op, not a
        Python loop iteration.
        """
        validate_sample_size(s)
        if kernels.use_batch(s):
            return self._sample_many_batch(q, s, rng)
        return [self.sample(q, rng=rng) for _ in range(s)]

    def _sample_many_batch(self, q: int, s: int, rng: RNGLike = None) -> List[int]:
        if obs.ENABLED:
            _TOPDOWN_DRAWS.add(s)
        np = kernels.np
        tree = self._tree
        if self._np_leaf_mask is None:
            self._np_leaf_mask = np.fromiter(
                (tree.is_leaf(v) for v in range(len(tree))), dtype=bool, count=len(tree)
            )
        leaf = self._np_leaf_mask
        gen = kernels.batch_generator(self._rng if rng is None else rng)
        nodes = np.full(s, q, dtype=np.intp)
        while True:
            pending = np.nonzero(~leaf[nodes])[0]
            if len(pending) == 0:
                break
            for node in np.unique(nodes[pending]):
                prob, alias, children = self._np_tables_for(int(node))
                at = pending[nodes[pending] == node]
                choices = kernels.alias_draw_batch(prob, alias, len(at), gen)
                nodes[at] = children[choices]
        return nodes.tolist()

    def _np_tables_for(self, node: int):
        tables = self._np_child_tables.get(node)
        if tables is None:
            prob, alias = self._child_tables[node]
            if isinstance(prob, kernels.np.ndarray):
                np_prob, np_alias = prob, alias  # packed build: numpy views
            else:
                np_prob, np_alias = kernels.as_alias_arrays(prob, alias)
            children = kernels.np.asarray(
                self._tree.children(node), dtype=kernels.np.intp
            )
            tables = (np_prob, np_alias, children)
            self._np_child_tables[node] = tables
        return tables


class FlatTreeSampler(EngineSampler):
    """§5 tree sampling via the DFS leaf order: O(log n + s) per query.

    With uniform leaf weights the query runs in O(1 + s) (Lemma 4's bound);
    with general weights it delegates to the Theorem-3 range structure over
    Π — see the module docstring for the substitution note.
    """

    engine_ops = {
        "sample": EngineOp("sample_many"),
    }
    engine_thread_safe = True

    def __init__(self, tree: Tree, rng: RNGLike = None):
        self._tree = tree
        self._rng = ensure_rng(rng)
        leaves = tree.leaves_in_dfs_order()
        if not leaves:
            raise BuildError("tree has no leaves")
        self._leaves = leaves
        position_of = {leaf: position for position, leaf in enumerate(leaves)}

        # Store, at every node, the [a, b) span of its subtree's leaves in Π
        # (Proposition 1 guarantees contiguity; we assert it below).
        self._span: List[Tuple[int, int]] = [(0, 0)] * len(tree)
        for node in reversed(tree.topological_order()):
            if tree.is_leaf(node):
                pos = position_of[node]
                self._span[node] = (pos, pos + 1)
            else:
                child_spans = [self._span[c] for c in tree.children(node)]
                lo = min(span[0] for span in child_spans)
                hi = max(span[1] for span in child_spans)
                if hi - lo != sum(span[1] - span[0] for span in child_spans):
                    raise BuildError("DFS leaf spans must be contiguous (Proposition 1)")
                self._span[node] = (lo, hi)

        weights = [tree.weight(leaf) for leaf in leaves]
        self._uniform = len(set(weights)) == 1
        if self._uniform:
            self._range_sampler = None
        else:
            self._range_sampler = ChunkedRangeSampler(
                list(range(len(leaves))), weights, rng=self._rng
            )

    @property
    def is_uniform(self) -> bool:
        """True when the O(1 + s) uniform fast path (Lemma 4, WR case) is active."""
        return self._uniform

    def leaf_span(self, q: int) -> Tuple[int, int]:
        """The precomputed (a, b) of §5 for node ``q``."""
        return self._span[q]

    def sample(self, q: int, *, rng: RNGLike = None) -> int:
        return self.sample_many(q, 1, rng=rng)[0]

    def sample_many(self, q: int, s: int, *, rng: RNGLike = None) -> List[int]:
        """``s`` independent weighted leaf samples from the subtree of ``q``."""
        validate_sample_size(s)
        if obs.ENABLED:
            _FLAT_DRAWS.add(s)
        lo, hi = self._span[q]
        rng = self._rng if rng is None else rng
        if self._uniform:
            if kernels.use_batch(s):
                gen = kernels.batch_generator(rng)
                positions = kernels.uniform_index_batch(lo, hi, s, gen).tolist()
            else:
                width = hi - lo
                positions = [lo + int(rng.random() * width) for _ in range(s)]
                positions = [min(position, hi - 1) for position in positions]
        else:
            assert self._range_sampler is not None
            positions = self._range_sampler.sample_span(lo, hi, s, rng=rng)
        leaves = self._leaves
        return [leaves[position] for position in positions]
