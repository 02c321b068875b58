"""``repro.obs`` — unified metrics/tracing with per-query cost accounting.

Every sampler hot path in this package is instrumented against one
process-wide :class:`~repro.obs.registry.MetricsRegistry`: alias draws
(Theorem 1), BST node visits per TreeWalk query (§3.2), Lemma-2 urn
probes, Theorem-3 chunk touches, rejection-loop iterations (WoR, bucket
sampler, set-union, fair-NN), plan-cache hits/misses/evictions, and EM
block I/Os (§8). The point: the paper's claims are *cost-shape* theorems
— expected O(1) rejections per draw, O(log n + s) query cost, O(1 + s/B)
I/Os — and with this layer each claim is checked by **counting the
quantity the theorem bounds**, not by inferring it from wall-clock.

Enablement
----------
Metrics are **off by default**. Set ``REPRO_METRICS=1`` in the
environment (read at import time) or call :func:`enable` at runtime.
Instrumented call sites guard registry touches with ``if obs.ENABLED:``
at call granularity, so the disabled path costs one global load + branch
per public call — within 5% of a build with the instrumentation absent
(asserted in ``tests/obs/test_offpath.py``) — and seeded sample streams
are byte-identical with metrics on or off (metrics never consume
randomness).

Usage
-----
>>> from repro import obs
>>> obs.enable()
>>> # ... run queries ...
>>> snap = obs.snapshot()
>>> snap["counters"]["alias.draws"]  # doctest: +SKIP
12345

Export with :func:`export_json` / :func:`export_prometheus`, or from the
CLI: ``python -m repro obs``. See ``docs/OBSERVABILITY.md`` for the full
metric inventory and semantics.
"""

from __future__ import annotations

from typing import Optional, Sequence, Union

from repro.substrates.env import env_flag

from repro.obs.export import to_json, to_prometheus, write_sidecar
from repro.obs.recorder import DEFAULT_CAPACITY, FlightRecorder
from repro.obs.registry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    DERIVED_RATIOS,
)
from repro.obs.trace import (
    NULL_SPAN,
    NullSpan,
    SpanTimer,
    current_trace,
    reset_current_trace,
    set_current_trace,
    trace_id_for,
)

#: Environment variable controlling the import-time default; parsed by
#: :func:`repro.substrates.env.env_flag` (truthy: ``1``/``true``/``yes``/
#: ``on``, case-insensitive).
ENV_ENABLED = "REPRO_METRICS"

#: The process-wide registry every instrumented module records into.
REGISTRY = MetricsRegistry()

#: The process-wide flight recorder the engine appends request records to.
RECORDER = FlightRecorder(DEFAULT_CAPACITY)

#: Global enablement flag. Instrumented call sites read this directly
#: (``if obs.ENABLED:``) — mutate it only through :func:`enable` /
#: :func:`disable` so future bookkeeping has one choke point.
ENABLED: bool = env_flag(ENV_ENABLED)


def enabled() -> bool:
    """Whether instrumentation is currently recording."""
    return ENABLED


def enable() -> None:
    """Turn instrumentation on for the whole process."""
    global ENABLED
    ENABLED = True


def disable() -> None:
    """Turn instrumentation off (instruments keep their current values)."""
    global ENABLED
    ENABLED = False


class scope:
    """Context manager: force metrics on (or off) within a block.

    >>> with obs.scope(True):
    ...     sampler.sample_many(100)  # doctest: +SKIP
    """

    def __init__(self, on: bool = True):
        self._on = on
        self._saved = ENABLED

    def __enter__(self) -> "scope":
        self._saved = ENABLED
        (enable if self._on else disable)()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        (enable if self._saved else disable)()
        return False


# ----------------------------------------------------------------------
# instrument factories (delegate to the global registry)
# ----------------------------------------------------------------------


def counter(name: str, help: str = "") -> Counter:
    """Get-or-create a process-wide counter."""
    return REGISTRY.counter(name, help)


def gauge(name: str, help: str = "") -> Gauge:
    """Get-or-create a process-wide gauge."""
    return REGISTRY.gauge(name, help)


def histogram(
    name: str, help: str = "", buckets: Optional[Sequence[float]] = None
) -> Histogram:
    """Get-or-create a process-wide histogram."""
    return REGISTRY.histogram(name, help, buckets)


def span(name: str, **attrs) -> Union[SpanTimer, NullSpan]:
    """A trace span context manager; the shared no-op when disabled."""
    if not ENABLED:
        return NULL_SPAN
    return SpanTimer(REGISTRY, name, attrs)


# ----------------------------------------------------------------------
# reads / lifecycle
# ----------------------------------------------------------------------


def value(name: str) -> Union[int, float]:
    """Current value of a counter or gauge (0 if never touched)."""
    return REGISTRY.value(name)


def snapshot(include_spans: bool = True) -> dict:
    """JSON-serialisable view of all instruments plus derived ratios."""
    snap = REGISTRY.snapshot(include_spans=include_spans)
    snap["enabled"] = ENABLED
    return snap


def reset() -> None:
    """Zero every instrument, drop retained spans and flight records
    (names survive).

    Call between experiments sharing one process so per-experiment
    sidecars don't accumulate stale counts (e.g. EM I/Os from an earlier
    run — the failure mode that motivated making this explicit).
    """
    REGISTRY.reset()
    RECORDER.clear()


def merge(delta: dict) -> None:
    """Fold a harvest delta (:func:`repro.obs.harvest.delta_since`) into
    the process-wide registry and flight recorder.

    Counters sum, histograms merge bucket-wise (mismatched bucket bounds
    raise), gauges last-write, unknown metrics auto-register; worker
    spans and flight records are appended to the parent's rings. The
    engine calls this once per successfully returned worker chunk.
    """
    REGISTRY.merge(delta)
    RECORDER.extend(delta.get("records", ()))


def tail(limit: Optional[int] = None) -> list:
    """The flight recorder's most recent ``limit`` records, oldest first."""
    return RECORDER.tail(limit)


def timeline(trace_id: str) -> dict:
    """Everything retained about one trace: its flight records and spans.

    Reassembles a per-request timeline across backends from the two
    bounded rings — recorder entries (parent- and worker-side; the
    ``worker`` PID tells them apart) and trace-tagged spans — each sorted
    by wall-clock timestamp. Only as complete as the rings are deep;
    this is a debugging aid, not an audit log.
    """
    records = RECORDER.for_trace(trace_id)
    spans = [
        s
        for s in REGISTRY.recent_spans()
        if s.get("attrs", {}).get("trace") == trace_id
    ]
    return {
        "trace": trace_id,
        "records": sorted(records, key=lambda r: r["ts"]),
        "spans": sorted(spans, key=lambda s: s.get("ts", 0.0)),
    }


def export_json(indent: int = 2) -> str:
    """The current snapshot as a JSON string."""
    return to_json(snapshot(), indent=indent)


def export_prometheus() -> str:
    """The current snapshot in Prometheus text exposition format."""
    return to_prometheus(snapshot())


__all__ = [
    "Counter",
    "FlightRecorder",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "SpanTimer",
    "NullSpan",
    "DERIVED_RATIOS",
    "ENV_ENABLED",
    "RECORDER",
    "REGISTRY",
    "ENABLED",
    "enabled",
    "enable",
    "disable",
    "scope",
    "counter",
    "current_trace",
    "gauge",
    "histogram",
    "merge",
    "reset_current_trace",
    "set_current_trace",
    "span",
    "tail",
    "timeline",
    "trace_id_for",
    "value",
    "snapshot",
    "reset",
    "export_json",
    "export_prometheus",
    "to_json",
    "to_prometheus",
    "write_sidecar",
]
