"""Range sampling in external memory (paper §8, Hu et al. [18]-style).

Problem: ``S`` is a sorted set of ``n`` values on disk; a query
``([x, y], s)`` returns ``s`` independent samples of ``S ∩ [x, y]`` — WR
(uniform) by default, weighted when per-element weights are supplied;
all queries mutually independent.

Structure: a :class:`~repro.em.btree.StaticBTree` whose every subtree
(internal node or leaf) owns a disk-resident *pool* of pre-drawn samples
of that subtree, in the spirit of the §8 sample-pool idea lifted onto the
B-tree. A query finds the ``O(log_B n)`` canonical subtrees
(boundary-path I/Os only), splits the ``s`` draws multinomially across
them by exact subtree counts/weights (CPU is free in EM), and consumes
each subtree's pool sequentially. An exhausted pool refills by drawing
from its *children's* pools (leaves refill from their own data block), so
a refill of ``Θ(pool)`` samples costs O(fanout) block I/Os per level —
amortised ``O((1/B)·log_B n)`` I/Os per sample, matching the flavour of
Hu et al.'s ``O(log_B n + (s/B)·log_{M/B}(n/B))`` amortised bound
(DESIGN.md §4 notes the log-base substitution). The weighted mode covers
the practical side of the paper's Direction 2 (the *optimal* weighted EM
bound remains open, as §9 states).

Pool block layout: ``[cursor, sample, sample, ...]`` across
``pool_blocks`` blocks; reading + rewriting the cursor are ordinary block
I/Os, so the accounting is honest.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro import obs
from repro.core.alias import alias_draw, build_alias_tables
from repro.core.planner import QueryPlan
from repro.core.schemes import multinomial_split
from repro.em.btree import Ref, StaticBTree
from repro.em.model import EMMachine
from repro.engine.protocol import EngineOp, RangeQueryMixin
from repro.errors import BuildError, EmptyQueryError
from repro.substrates.rng import RNGLike, ensure_rng
from repro.validation import validate_range_bounds, validate_sample_size

# Shared across the EM samplers (same registry entry is fetched in
# sample_pool.py), so em.ios_per_query aggregates over whichever §8
# structure an experiment exercises.
_EM_QUERIES = obs.counter("em.queries", "EM sampling queries (§8 structures)")
_EM_REFILLS = obs.counter("em.pool_refills", "Sample-pool refills (amortised cost)")


class EMRangeSampler(RangeQueryMixin):
    """B-tree with per-subtree sample pools for EM range sampling.

    ``pool_blocks`` controls the pool size per subtree (``pool_blocks·B - 1``
    samples): larger pools amortise the refill's children-touching cost over
    more samples, at a linear space premium — the classic §8 space/query
    trade-off. Pass ``weights`` for weighted sampling.
    """

    # Pools mutate on every query (consume + refill), so the output
    # depends on request order: not thread-safe (runs in order).
    engine_ops = {
        "sample": EngineOp("query", spawn=True),
    }
    engine_thread_safe = False

    plan_kind = "em"

    @classmethod
    def build(
        cls,
        machine: Optional[EMMachine] = None,
        values: Sequence[float] = (),
        block_size: int = 64,
        memory_blocks: int = 8,
        **params,
    ) -> "EMRangeSampler":
        """Registry factory: assemble the simulated machine when absent."""
        if machine is None:
            machine = EMMachine(block_size=block_size, memory_blocks=memory_blocks)
        return cls(machine, values, **params)

    def sample(self, x: float, y: float, s: int, *, rng: RNGLike = None) -> List[float]:
        """Alias for :meth:`query` (protocol entry)."""
        return self.query(x, y, s, rng=rng)

    def __init__(
        self,
        machine: EMMachine,
        values: Sequence[float],
        rng: RNGLike = None,
        pool_blocks: int = 4,
        weights: Optional[Sequence[float]] = None,
    ):
        if machine.block_size < 2:
            raise BuildError("EMRangeSampler needs B >= 2 (pool blocks hold a cursor)")
        if pool_blocks < 1:
            raise BuildError("pool_blocks must be >= 1")
        self.machine = machine
        self.tree = StaticBTree(machine, values, weights=weights)
        self._rng = ensure_rng(rng)
        self._pool_blocks = pool_blocks
        self._pool_capacity = pool_blocks * machine.block_size - 1
        # ref -> list of pool block ids; pools are created lazily.
        self._pool_block: Dict[Ref, list] = {}
        self.refill_count = 0

    def __len__(self) -> int:
        return len(self.tree)

    @property
    def is_weighted(self) -> bool:
        return self.tree.is_weighted

    # ------------------------------------------------------------------
    # pool management
    # ------------------------------------------------------------------

    def _draw_from_leaf(self, leaf_index: int, count: int, rng: RNGLike) -> List:
        """``count`` (weighted) draws from one leaf's elements."""
        values = self.tree.read_leaf_values(leaf_index)
        if not self.tree.is_weighted:
            width = len(values)
            return [values[int(rng.random() * width) % width] for _ in range(count)]
        weights = self.tree.read_leaf_weights(leaf_index)
        prob, alias = build_alias_tables(weights)
        return [values[alias_draw(prob, alias, rng)] for _ in range(count)]

    def _refill(self, ref: Ref, rng: RNGLike) -> List:
        """Draw a fresh pool of samples for the subtree behind ``ref``."""
        self.refill_count += 1
        if obs.ENABLED:
            _EM_REFILLS.inc()
        capacity = self._pool_capacity
        kind, identifier = ref
        if kind == "leaf":
            return self._draw_from_leaf(identifier, capacity, rng)
        children = self.tree.children_of(ref)
        child_weights = [child[5] for child in children]
        allocation = multinomial_split(child_weights, capacity, rng)
        samples: List = []
        for child, child_count in zip(children, allocation):
            if child_count:
                samples.extend(self._consume(child[2], child_count, rng))
        rng.shuffle(samples)  # interleave children fairly (CPU free)
        return samples

    def _write_pool(self, blocks: list, samples: List) -> None:
        """Lay out ``[cursor] + samples`` across the pool's blocks."""
        B = self.machine.block_size
        words = [0] + samples
        for index, block_id in enumerate(blocks):
            self.machine.write_block(block_id, words[index * B : (index + 1) * B])

    def _consume(self, ref: Ref, count: int, rng: RNGLike) -> List:
        """Take ``count`` samples from the subtree's pool, refilling as needed.

        The cursor lives in word 0 of the pool's first block; consuming k
        samples costs one cursor-block read + rewrite plus ``O(k/B)``
        sequential pool-block reads — all charged through the machine.
        """
        blocks = self._pool_block.get(ref)
        if blocks is None:
            blocks = self.machine.allocate_blocks(self._pool_blocks)
            self._pool_block[ref] = blocks
            self._write_pool(blocks, self._refill(ref, rng))

        B = self.machine.block_size
        taken: List = []
        while len(taken) < count:
            head = self.machine.read_block(blocks[0])
            cursor = head[0]
            available = self._pool_capacity - cursor
            if available == 0:
                self._write_pool(blocks, self._refill(ref, rng))
                continue
            take = min(count - len(taken), available)
            # Words 1 + cursor .. 1 + cursor + take span one or more blocks.
            position = 1 + cursor
            end = position + take
            while position < end:
                frame = self.machine.read_block(blocks[position // B])
                offset = position % B
                grab = min(end - position, B - offset)
                taken.extend(frame[offset : offset + grab])
                position += grab
            new_head = list(head)
            new_head[0] = cursor + take
            self.machine.write_block(blocks[0], new_head)
        return taken

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    def plan_range(self, x: float, y: float) -> QueryPlan:
        """The §8 plan for ``[x, y]`` — built per query, never cached.

        Planning here *is* the I/O-charged part of the query: the
        canonical-unit decomposition touches root-to-leaf paths and
        charges block I/Os to the simulated machine. Caching plans would
        skip those charges and falsify the EM cost model the structure
        exists to reproduce, so the EM path deliberately opts out of the
        plan store (it still gets the plan → execute split: planning
        consumes no randomness, execution spends all of it).
        """
        validate_range_bounds(x, y)
        units = self.tree.canonical_units_weighted(x, y)
        return QueryPlan(
            self.plan_kind,
            (x, y),
            spans=tuple((lo, hi) for _, lo, hi, _ in units),
            weights=tuple(weight for _, _, _, weight in units),
            payload=units,
        )

    def plan_request(self, request) -> QueryPlan:
        """Plan an engine request without executing draws (--explain).

        Note that EM planning charges block I/Os (see
        :meth:`plan_range`), so explain is not free here — exactly as
        the paper's cost model says a query decomposition cannot be.
        """
        self.validate_request(request)
        x, y = request.args
        plan = self.plan_range(x, y)
        if not plan.payload:
            raise EmptyQueryError(f"no values in [{x}, {y}]")
        return plan

    def query(self, x: float, y: float, s: int, *, rng: RNGLike = None) -> List[float]:
        """``s`` independent (weighted) samples of ``S ∩ [x, y]``."""
        validate_sample_size(s)
        if obs.ENABLED:
            _EM_QUERIES.inc()
        plan = self.plan_range(x, y)
        if not plan.payload:
            raise EmptyQueryError(f"no values in [{x}, {y}]")
        return self.execute_plan(plan, s, rng)

    def execute_plan(self, plan: QueryPlan, s: int, rng: RNGLike = None) -> List[float]:
        """Draw ``s`` samples from a plan (all randomness spent here;
        consumes and refills the sample pools)."""
        units = plan.payload
        rng = self._rng if rng is None else rng
        allocation = multinomial_split([weight for _, _, _, weight in units], s, rng)
        result: List[float] = []
        B = self.machine.block_size
        for (ref, lo, hi, _), unit_count in zip(units, allocation):
            if unit_count == 0:
                continue
            kind, identifier = ref
            if kind == "partial":
                # Boundary piece: its leaf block is already hot from the
                # decomposition; draw from the sub-span.
                values = self.tree.read_leaf_values(identifier)
                offset = identifier * B
                piece = values[lo - offset : hi - offset]
                if self.tree.is_weighted:
                    piece_weights = self.tree.read_leaf_weights(identifier)[
                        lo - offset : hi - offset
                    ]
                    prob, alias = build_alias_tables(piece_weights)
                    result.extend(
                        piece[alias_draw(prob, alias, rng)] for _ in range(unit_count)
                    )
                else:
                    width = len(piece)
                    result.extend(
                        piece[int(rng.random() * width) % width]
                        for _ in range(unit_count)
                    )
            else:
                result.extend(self._consume(ref, unit_count, rng))
        return result

    def naive_query(self, x: float, y: float, s: int) -> List[float]:
        """Baseline: report ``S ∩ [x, y]`` in full, then sample (Θ(|S_q|/B) I/Os)."""
        validate_sample_size(s)
        if obs.ENABLED:
            _EM_QUERIES.inc()
        units = self.tree.canonical_units(x, y)
        if not units:
            raise EmptyQueryError(f"no values in [{x}, {y}]")
        lo, hi = units[0][1], units[-1][2]
        reported = self.tree.data.read_range(lo, hi)
        rng = self._rng
        if self.tree.is_weighted:
            assert self.tree.weights_data is not None
            reported_weights = self.tree.weights_data.read_range(lo, hi)
            prob, alias = build_alias_tables(reported_weights)
            return [reported[alias_draw(prob, alias, rng)] for _ in range(s)]
        width = len(reported)
        return [reported[int(rng.random() * width) % width] for _ in range(s)]
