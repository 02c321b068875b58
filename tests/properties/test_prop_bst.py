"""Property-based tests for the BST canonical decomposition (Fig. 1)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.substrates.bst import StaticBST


@st.composite
def keys_and_query(draw):
    n = draw(st.integers(min_value=1, max_value=200))
    keys = [float(i) for i in range(n)]
    x = draw(st.floats(min_value=-5.0, max_value=n + 5.0, allow_nan=False))
    y = draw(st.floats(min_value=-5.0, max_value=n + 5.0, allow_nan=False))
    return keys, min(x, y), max(x, y)


@given(data=keys_and_query())
@settings(max_examples=100, deadline=None)
def test_canonical_nodes_partition_the_result(data):
    keys, x, y = data
    tree = StaticBST(keys)
    expected = [key for key in keys if x <= key <= y]
    covered = []
    for node in tree.canonical_nodes(x, y):
        lo, hi = tree.leaf_span(node)
        covered.extend(keys[lo:hi])
    assert sorted(covered) == expected
    assert len(covered) == len(set(covered))


@given(data=keys_and_query())
@settings(max_examples=100, deadline=None)
def test_cover_size_within_2log(data):
    keys, x, y = data
    tree = StaticBST(keys)
    cover = tree.canonical_nodes(x, y)
    height = tree.height()
    assert len(cover) <= max(2, 2 * height)


@given(n=st.integers(min_value=1, max_value=300))
@settings(max_examples=100, deadline=None)
def test_subtree_spans_tile_the_leaves(n):
    tree = StaticBST([float(i) for i in range(n)])
    for node in tree.iter_nodes():
        if tree.is_leaf(node):
            continue
        left, right = tree.children(node)
        left_lo, left_hi = tree.leaf_span(left)
        right_lo, right_hi = tree.leaf_span(right)
        lo, hi = tree.leaf_span(node)
        assert (left_lo, right_hi) == (lo, hi)
        assert left_hi == right_lo


@given(n=st.integers(min_value=2, max_value=256))
@settings(max_examples=100, deadline=None)
def test_height_is_ceil_log2(n):
    import math

    tree = StaticBST([float(i) for i in range(n)])
    assert tree.height() == math.ceil(math.log2(n))


@st.composite
def tree_and_spans(draw):
    """A tree size (powers of two and not) plus index spans over it,
    with the edge spans every batch must get right mixed in."""
    n = draw(st.one_of(st.sampled_from([1, 2, 3, 63, 64, 65, 100, 128]), st.integers(1, 300)))
    bound = st.integers(0, n)
    spans = draw(st.lists(st.tuples(bound, bound), max_size=40))
    spans += [(0, n), (0, 1), (n - 1, n), (n // 2, n // 2 + 1), (n, n)]
    return n, draw(st.permutations(spans))


@given(data=tree_and_spans())
@settings(max_examples=100, deadline=None)
def test_batch_covers_equal_per_span_covers(data):
    n, spans = data
    tree = StaticBST([float(i) for i in range(n)])
    nodes, bounds = tree.canonical_nodes_batch([lo for lo, _ in spans], [hi for _, hi in spans])
    nodes, bounds = nodes.tolist(), bounds.tolist()
    assert len(bounds) == len(spans) + 1
    for j, (lo, hi) in enumerate(spans):
        assert nodes[bounds[j]:bounds[j + 1]] == tree.canonical_nodes_for_span(lo, hi)
