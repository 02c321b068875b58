"""A SQL-flavoured facade: independent query sampling over a table.

The core samplers index *distinct* keys; real tables have duplicate
attribute values, row payloads, and ad-hoc extra predicates. This module
packages the Theorem-3 machinery the way a database user would consume
it::

    table = SampledTable(rows)                       # rows: list of dicts
    table.create_index("price")                      # O(n log n) build
    sample = table.sample_where("price", 10, 99, s=5)

Duplicates are handled by indexing row *positions* in (value, position)
order — the per-row sampling distribution is unchanged, and ties cost
nothing extra. An optional ``where`` predicate is applied by rejection
(cost multiplies by 1/selectivity-within-range, the standard trade-off);
an optional weight column drives weighted sampling (Benefit 3's
popularity weighting).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.core.range_sampler import ChunkedRangeSampler
from repro.engine.protocol import EngineOp, EngineSampler
from repro.errors import BuildError, EmptyQueryError, SampleBudgetExceededError
from repro.substrates.rng import RNGLike, ensure_rng
from repro.validation import validate_sample_size

Row = Mapping[str, Any]


class _ColumnIndex:
    """One indexed column: rows sorted by (value, position) + a sampler."""

    def __init__(
        self,
        rows: Sequence[Row],
        column: str,
        weight_column: Optional[str],
        rng,
    ):
        order = sorted(range(len(rows)), key=lambda i: (rows[i][column], i))
        self.sorted_values: List[Any] = [rows[i][column] for i in order]
        self.row_positions: List[int] = order
        if weight_column is None:
            weights = None
        else:
            weights = [float(rows[i][weight_column]) for i in order]
        # Keys are the sorted ranks — strictly increasing by construction;
        # all queries go through sample_span so the keys never matter.
        self.sampler = ChunkedRangeSampler(
            [float(position) for position in range(len(order))], weights, rng=rng
        )

    def span_of(self, lo_value: Any, hi_value: Any) -> Tuple[int, int]:
        return (
            bisect_left(self.sorted_values, lo_value),
            bisect_right(self.sorted_values, hi_value),
        )


class SampledTable(EngineSampler):
    """An in-memory table with IQS indexes on chosen columns."""

    # Request shape: args=(column, lo, hi); indexes must exist already
    # (create_index is a build-time step, not a query op).
    engine_ops = {
        "sample": EngineOp("sample_where", spawn=True),
    }
    engine_thread_safe = True

    def __init__(self, rows: Sequence[Row], rng: RNGLike = None):
        if len(rows) == 0:
            raise BuildError("SampledTable requires at least one row")
        self._rows: List[Row] = list(rows)
        self._rng = ensure_rng(rng)
        self._indexes: Dict[Tuple[str, Optional[str]], _ColumnIndex] = {}

    def __len__(self) -> int:
        return len(self._rows)

    @property
    def rows(self) -> Sequence[Row]:
        return self._rows

    # ------------------------------------------------------------------

    def create_index(self, column: str, weight_column: Optional[str] = None) -> None:
        """Build an IQS index on ``column`` (optionally weighted).

        O(n log n) once; afterwards range-sampling queries on this column
        cost O(log n + s) instead of scanning.
        """
        if column not in self._rows[0]:
            raise BuildError(f"no column named {column!r}")
        if weight_column is not None and weight_column not in self._rows[0]:
            raise BuildError(f"no column named {weight_column!r}")
        key = (column, weight_column)
        self._indexes[key] = _ColumnIndex(self._rows, column, weight_column, self._rng)

    def _index_for(self, column: str, weight_column: Optional[str]) -> _ColumnIndex:
        index = self._indexes.get((column, weight_column))
        if index is None:
            raise BuildError(
                f"no index on column {column!r}"
                + (f" weighted by {weight_column!r}" if weight_column else "")
                + " — call create_index() first"
            )
        return index

    def sample(self, column: str, lo: Any, hi: Any, s: int, **kwargs: Any) -> List[Row]:
        """Alias for :meth:`sample_where` (protocol entry)."""
        return self.sample_where(column, lo, hi, s, **kwargs)

    # ------------------------------------------------------------------

    def count_where(self, column: str, lo: Any, hi: Any) -> int:
        """Number of rows with ``lo <= row[column] <= hi`` (O(log n))."""
        index = self._index_for(column, None) if (column, None) in self._indexes else None
        if index is None:
            # Any index on the column shares the same sort order.
            for (indexed_column, _), candidate in self._indexes.items():
                if indexed_column == column:
                    index = candidate
                    break
        if index is None:
            raise BuildError(f"no index on column {column!r}")
        span_lo, span_hi = index.span_of(lo, hi)
        return span_hi - span_lo

    def sample_where(
        self,
        column: str,
        lo: Any,
        hi: Any,
        s: int,
        weight_column: Optional[str] = None,
        where: Optional[Callable[[Row], bool]] = None,
        max_rejects_per_sample: int = 10_000,
        *,
        rng: RNGLike = None,
    ) -> List[Row]:
        """``s`` independent random rows with ``row[column] ∈ [lo, hi]``.

        With ``weight_column`` the rows are drawn with probability
        proportional to that column; with ``where`` the samples are
        additionally conditioned on the predicate by rejection (expected
        cost multiplies by the inverse of the predicate's selectivity
        inside the range).
        """
        validate_sample_size(s)
        index = self._index_for(column, weight_column)
        span_lo, span_hi = index.span_of(lo, hi)
        if span_lo >= span_hi:
            raise EmptyQueryError(f"no rows with {column!r} in [{lo!r}, {hi!r}]")

        rows = self._rows
        positions = index.row_positions
        if where is None:
            drawn = index.sampler.sample_span(span_lo, span_hi, s, rng=rng)
            return [rows[positions[i]] for i in drawn]

        result: List[Row] = []
        rejects = 0
        while len(result) < s:
            batch = index.sampler.sample_span(
                span_lo, span_hi, s - len(result), rng=rng
            )
            for i in batch:
                row = rows[positions[i]]
                if where(row):
                    result.append(row)
                else:
                    rejects += 1
                    if rejects > max_rejects_per_sample * s:
                        raise SampleBudgetExceededError(
                            "predicate rejection budget exhausted — the `where` "
                            "filter matches (almost) nothing inside the range"
                        )
        return result

    def estimate_fraction_where(
        self,
        column: str,
        lo: Any,
        hi: Any,
        predicate: Callable[[Row], bool],
        epsilon: float = 0.05,
        delta: float = 0.01,
        weight_column: Optional[str] = None,
    ) -> float:
        """Benefit 1 as one call: the fraction of in-range rows satisfying
        ``predicate``, to ±ε with failure probability δ."""
        from repro.apps.estimation import required_sample_size

        budget = required_sample_size(epsilon, delta)
        samples = self.sample_where(column, lo, hi, budget, weight_column=weight_column)
        return sum(1 for row in samples if predicate(row)) / budget
