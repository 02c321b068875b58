"""Integer-domain weighted range sampling (§4.3 remark, Afshani–Wei).

When ``S ⊂ [1, U]`` for an integer ``U``, the ``Θ(log n)`` endpoint-search
term of Theorem 3 can be replaced by an ``O(log log U)`` predecessor
query, giving a static structure with ``O(n)`` space and
``O(log log U + s)`` query time. The sampling machinery is unchanged —
the chunked two-level design of §4.2 — only the key search differs, so
this class composes :class:`~repro.substrates.yfast.YFastTrie` with
:class:`~repro.core.range_sampler.ChunkedRangeSampler`'s span sampler.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.core.range_sampler import ChunkedRangeSampler
from repro.engine.protocol import EngineOp, RangeQueryMixin
from repro.errors import BuildError, EmptyQueryError
from repro.substrates.rng import RNGLike, ensure_rng
from repro.substrates.yfast import YFastTrie
from repro.validation import validate_range_bounds, validate_sample_size


class IntegerRangeSampler(RangeQueryMixin):
    """O(n) space, O(log log U + s) weighted range sampling over integers."""

    engine_ops = {
        "sample": EngineOp("sample", takes_s=True, pass_rng=True),
        "sample_indices": EngineOp("sample_indices", takes_s=True, pass_rng=True),
    }
    engine_thread_safe = True

    def __init__(
        self,
        keys: Sequence[int],
        weights: Optional[Sequence[float]] = None,
        rng: RNGLike = None,
        universe_bits: int = 0,
    ):
        if any(not isinstance(key, int) or isinstance(key, bool) for key in keys):
            raise BuildError("IntegerRangeSampler keys must be ints")
        self._rng = ensure_rng(rng)
        self._trie = YFastTrie(keys, universe_bits=universe_bits)
        # Reuse the Theorem-3 sampler for the span machinery; its own
        # key-bisect path is bypassed (we always call sample_span).
        self._chunked = ChunkedRangeSampler(
            [float(key) for key in keys], weights, rng=self._rng
        )
        self._keys: List[int] = list(keys)

    def __len__(self) -> int:
        return len(self._keys)

    @property
    def universe_bits(self) -> int:
        return self._trie.universe_bits

    def span_of(self, x: int, y: int) -> Tuple[int, int]:
        """Index span via two O(log log U) predecessor searches."""
        validate_range_bounds(x, y)
        return self._trie.span_of(x, y)

    def sample(self, x: int, y: int, s: int, *, rng: RNGLike = None) -> List[int]:
        """``s`` independent weighted samples from ``S ∩ [x, y]``."""
        validate_sample_size(s)
        lo, hi = self.span_of(x, y)
        if lo >= hi:
            raise EmptyQueryError(f"no keys in [{x}, {y}]")
        return [self._keys[i] for i in self._chunked.sample_span(lo, hi, s, rng=rng)]

    def sample_indices(self, x: int, y: int, s: int, *, rng: RNGLike = None) -> List[int]:
        validate_sample_size(s)
        lo, hi = self.span_of(x, y)
        if lo >= hi:
            raise EmptyQueryError(f"no keys in [{x}, {y}]")
        return self._chunked.sample_span(lo, hi, s, rng=rng)

    def space_words(self) -> int:
        # The trie's hash levels hold O(n) prefixes total (bucketing by
        # Θ(log U) keeps representatives at n/log U).
        trie_words = sum(len(level) for level in self._trie._levels) * 2
        return trie_words + self._chunked.space_words()
