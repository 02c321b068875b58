"""Input validation helpers shared across the package."""

from __future__ import annotations

import math
from typing import Any, List, Sequence

from repro.core import kernels
from repro.errors import InvalidWeightError


def validate_weights(weights: Sequence[float], *, context: str = "sampler") -> List[float]:
    """Check that every weight is positive and finite; return them as floats.

    The paper's problem statements (§1, §3.1) require *positive* weights:
    a zero-weight element can simply be dropped by the caller, and negative
    or non-finite weights make the sampling distribution undefined.

    Large numeric inputs are checked in two vectorized passes; anything
    numpy cannot coerce — or any input containing an offending weight —
    falls through to the scalar loop, which raises with the exact index
    and repr of the first bad entry.
    """
    n = len(weights)
    if kernels.use_batch_build(n):
        np = kernels.np
        try:
            arr = np.asarray(weights, dtype=np.float64)
        except (TypeError, ValueError):
            arr = None
        if (
            arr is not None
            and arr.ndim == 1
            and arr.size == n
            and bool(np.isfinite(arr).all())
            and bool((arr > 0.0).all())
        ):
            return arr.tolist()
    cleaned: List[float] = []
    for index, weight in enumerate(weights):
        value = float(weight)
        if math.isnan(value) or math.isinf(value):
            raise InvalidWeightError(f"{context}: weight at index {index} is {weight!r}")
        if value <= 0.0:
            raise InvalidWeightError(
                f"{context}: weight at index {index} must be positive, got {weight!r}"
            )
        cleaned.append(value)
    return cleaned


def validate_range_bounds(x: Any, y: Any) -> bool:
    """Reject NaN or mutually non-comparable interval bounds.

    Raises :class:`ValueError` naming the bad bound; otherwise returns
    whether the interval is inverted (``x > y``). A NaN compares false
    against every key, so without this check it silently widens or
    empties the interval depending on the search routine.
    """
    for name, bound in (("x", x), ("y", y)):
        if bound != bound:
            raise ValueError(f"range bound {name}={bound!r} is NaN")
    try:
        return bool(x > y)
    except TypeError:
        raise ValueError(f"range bounds are not comparable: x={x!r}, y={y!r}") from None


def validate_sample_size(s: int) -> int:
    """Check that a requested sample size is a positive integer."""
    if not isinstance(s, int) or isinstance(s, bool):
        raise TypeError(f"sample size must be an int, got {type(s)!r}")
    if s < 1:
        raise ValueError(f"sample size must be >= 1, got {s}")
    return s
