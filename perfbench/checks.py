"""Output checks: in-span indices, χ² goodness of fit, seeded digest.

A failed check raises :class:`CheckFailed`; the benchmark then reports
the run as incorrect and exits non-zero. Checks are never metrics.
"""

from __future__ import annotations

import hashlib
from typing import Iterable, List, Sequence, Tuple

import numpy as np

#: A correct sampler fails the χ² probe with about this probability.
CHI2_ALPHA = 1e-6
#: Target number of bins (of roughly equal expected mass) in the χ² probe.
CHI2_BINS = 32
#: Smallest expected count a χ² bin may have.
CHI2_MIN_EXPECTED = 5.0


class CheckFailed(AssertionError):
    """An output of the program is wrong."""


def check_in_span(values: Sequence[int], lo: int, hi: int, s: int) -> None:
    """Every returned index lies in ``[lo, hi)`` and there are ``s`` of them."""
    if len(values) != s:
        raise CheckFailed(f"expected {s} samples, got {len(values)}")
    low, high = min(values), max(values)
    if low < lo or high >= hi:
        raise CheckFailed(
            f"sample outside its span [{lo}, {hi}): min={low} max={high}"
        )


def chi_square_p(
    samples: Iterable[int], weights: Sequence[float], lo: int, hi: int
) -> float:
    """p-value of the samples against the exact normalized span weights.

    Positions are grouped into bins of roughly equal expected mass
    (heavy keys get a bin of their own), and bins with too small an
    expected count are folded into their left neighbour.
    """
    drawn = np.asarray(list(samples), dtype=np.int64) - lo
    total = drawn.size
    mass = np.asarray(weights[lo:hi], dtype=np.float64)
    mass = mass / mass.sum()
    cum = np.cumsum(mass)
    cuts = np.searchsorted(cum, np.arange(1, CHI2_BINS) / CHI2_BINS, side="right") + 1
    edges = np.unique(np.concatenate(([0], np.minimum(cuts, hi - lo), [hi - lo])))
    expected = np.add.reduceat(mass, edges[:-1]) * total
    observed = np.bincount(
        np.searchsorted(edges, drawn, side="right") - 1, minlength=len(edges) - 1
    ).astype(np.float64)
    exp_bins: List[float] = []
    obs_bins: List[float] = []
    for e, o in zip(expected, observed):
        if exp_bins and (e < CHI2_MIN_EXPECTED or exp_bins[-1] < CHI2_MIN_EXPECTED):
            exp_bins[-1] += e
            obs_bins[-1] += o
        else:
            exp_bins.append(e)
            obs_bins.append(o)
    if len(exp_bins) < 2:
        raise CheckFailed("χ² probe span has fewer than two bins")
    from scipy.stats import chisquare

    exp_arr = np.asarray(exp_bins)
    exp_arr *= total / exp_arr.sum()
    return float(chisquare(np.asarray(obs_bins), exp_arr).pvalue)


def check_chi_square(
    samples: Iterable[int], weights: Sequence[float], lo: int, hi: int
) -> float:
    p = chi_square_p(samples, weights, lo, hi)
    if p < CHI2_ALPHA:
        raise CheckFailed(
            f"χ² probe on [{lo}, {hi}) rejects the exact weights (p={p:.3g})"
        )
    return p


class Digest:
    """SHA-256 over the seeded outputs of the fixed-length phases."""

    def __init__(self) -> None:
        self._hash = hashlib.sha256()

    def add(self, batches: Iterable[Tuple[Tuple[int, int, int], Sequence[int]]]) -> None:
        for (lo, hi, seed), values in batches:
            self._hash.update(f"{lo},{hi},{seed}:".encode())
            self._hash.update(np.asarray(values, dtype=np.int64).tobytes())

    def hexdigest(self) -> str:
        return self._hash.hexdigest()
