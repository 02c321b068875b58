"""Seeded workload generator for the benchmark.

Every input the program sees — sorted keys, Zipf-skewed weights, query
spans and per-request seeds — is a pure function of the benchmark's
``--seed``. Batches are addressable by index, so the timed phases can
stop whenever their time is up while the fixed-length phases (warm-up,
count phase, probe) see exactly the same requests on every run with the
same seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

#: Zipf exponent of the key weights (weight of the key ranked r is r^-a).
WEIGHT_ZIPF = 1.0
#: Zipf exponent of span popularity in the hot workload.
SPAN_ZIPF = 1.0


@dataclass(frozen=True)
class Workload:
    """The stated properties of one workload (BENCHMARK.json says why)."""

    name: str
    spec: str
    placement: str
    backend: str
    n: int
    s: int
    selectivity: float
    batch: int
    #: Distinct spans the stream draws from; ``None`` means a fresh
    #: span for every request (repetition rate 0).
    span_pool: Optional[int] = None
    shards: Optional[int] = None
    max_workers: Optional[int] = None
    #: Batches run before the count window opens (fills the plan store
    #: so the window sees steady state), then batches counted.
    count_fill: int = 4
    count_batches: int = 8

    def scaled(self, n: int, s: Optional[int] = None) -> "Workload":
        """The same workload at another size (used by the smoke test)."""
        return replace(self, n=n, s=self.s if s is None else s)

    @property
    def span_len(self) -> int:
        return max(1, int(round(self.selectivity * self.n)))

    def engine_kwargs(self) -> Dict[str, Any]:
        kwargs: Dict[str, Any] = {"backend": self.backend, "placement": self.placement}
        if self.shards is not None:
            kwargs["shards"] = self.shards
        if self.max_workers is not None:
            kwargs["max_workers"] = self.max_workers
        return kwargs


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="range_cold",
            spec="range.lemma2",
            placement="local",
            backend="serial",
            n=100_000,
            s=16,
            selectivity=0.05,
            batch=64,
            count_batches=16,
        ),
        Workload(
            name="range_hot",
            spec="range.lemma2",
            placement="local",
            backend="serial",
            n=100_000,
            s=1024,
            selectivity=0.05,
            batch=64,
            span_pool=128,
        ),
        Workload(
            name="sharded_fanout",
            spec="range.chunked",
            placement="sharded",
            backend="process",
            n=100_000,
            s=4096,
            selectivity=0.5,
            batch=16,
            shards=2,
            max_workers=2,
        ),
    )
}


def make_inputs(seed: int, n: int) -> Tuple[List[float], List[float]]:
    """Strictly increasing keys and Zipf-skewed weights over ``n`` keys.

    Weight ranks are a random permutation, so heavy keys are scattered
    over the key space instead of clustered at one end.
    """
    rng = np.random.default_rng([seed, 0])
    keys = np.cumsum(rng.uniform(0.5, 1.5, n))
    ranks = rng.permutation(n) + 1
    weights = ranks.astype(np.float64) ** -WEIGHT_ZIPF
    return keys.tolist(), weights.tolist()


class RequestStream:
    """The workload's request sequence, addressable by batch index.

    A request is ``(lo, hi, seed)``: the half-open index span it queries
    and its explicit per-request seed. The engine only sees the key
    interval ``[keys[lo], keys[hi - 1]]``; ``lo``/``hi`` stay with the
    benchmark for the output checks.
    """

    def __init__(self, workload: Workload, seed: int):
        self.workload = workload
        self.seed = seed
        n, length = workload.n, workload.span_len
        rng = np.random.default_rng([seed, 1])
        self._seed_base = int(rng.integers(1, 2**62))
        if workload.span_pool is None:
            # Fresh spans: request i gets span number a*i + b (mod M) out
            # of M = starts x lengths candidates, lengths within 5% of the
            # nominal one. gcd(a, M) = 1 makes that map a bijection, so no
            # span repeats among the first M requests (millions).
            self._jitter = length // 20
            self._lengths = 2 * self._jitter + 1
            self._count = (n - length - self._jitter + 1) * self._lengths
            while True:
                self._a = int(rng.integers(1, self._count))
                if math.gcd(self._a, self._count) == 1:
                    break
            self._b = int(rng.integers(0, self._count))
            self._pool = None
        else:
            starts = n - length + 1
            pool = min(workload.span_pool, starts)
            picks = rng.choice(starts, size=pool, replace=False)
            self._pool = [(int(lo), int(lo) + length) for lo in picks]
            popularity = np.arange(1, pool + 1, dtype=np.float64) ** -SPAN_ZIPF
            self._pool_p = popularity / popularity.sum()

    def _fresh(self, i: int) -> Tuple[int, int]:
        code = (self._a * i + self._b) % self._count
        lo, offset = divmod(code, self._lengths)
        return lo, lo + self.workload.span_len - self._jitter + offset

    def batch(self, index: int) -> List[Tuple[int, int, int]]:
        w = self.workload
        first = index * w.batch
        if self._pool is None:
            spans = [self._fresh(first + j) for j in range(w.batch)]
        else:
            rng = np.random.default_rng([self.seed, 2, index])
            choice = rng.choice(len(self._pool), size=w.batch, p=self._pool_p)
            spans = [self._pool[c] for c in choice]
        return [(lo, hi, self._seed_base + first + j) for j, (lo, hi) in enumerate(spans)]


def repetition_rate(spans: List[Tuple[int, int]]) -> float:
    """Share of requests whose span occurred earlier in the stream."""
    seen = set()
    repeats = 0
    for span in spans:
        if span in seen:
            repeats += 1
        else:
            seen.add(span)
    return repeats / len(spans) if spans else 0.0
