"""Traced-run recorder: in-memory spans around the program's layer calls.

The program's own obs spans are not used for the layer split. Instead
:class:`SpanRecorder` temporarily replaces public functions of each layer
with wrappers that record ``(name, start, end, parent, trace_id)`` in
memory (:func:`layer_targets` names them). Module-level functions are patched where
they are looked up: ``repro.engine.shard`` imports ``plan_fan_out`` and
``merge_indices`` by name, so those names are replaced in that module.

Self time is a span's duration minus the time its direct child spans
cover. Spans record on one thread only (the workloads run serial
execution; sharded runners dispatch from the calling thread), so a plain
stack gives each span its parent.

Shard draws that run inside worker processes cannot be wrapped from
here; their ``worker.shard_draw`` spans come home through the program's
obs harvest, which the recorder intercepts at ``repro.obs.merge``.
"""

from __future__ import annotations

import functools
import json
from collections import defaultdict
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

Target = Tuple[Any, str, str]


def layer_targets() -> List[Target]:
    """``(owner, attribute, span name)`` for every wrapped layer call."""
    from repro.core import planner, range_sampler
    from repro.engine import execution, executor, protocol, shard

    targets: List[Target] = [
        (executor.SamplingEngine, "run", "engine.run"),
        (protocol.EngineSampler, "execute", "sampler.execute"),
        (protocol.RangeQueryMixin, "validate_request", "protocol.validate"),
        (range_sampler.RangeSamplerBase, "span_of", "range_sampler.span_of"),
        (range_sampler.RangeSamplerBase, "plan_span", "planner.plan_span"),
        (planner.PlanStore, "get", "planner.store_get"),
        (planner.PlanStore, "put", "planner.store_put"),
        (shard, "plan_fan_out", "placement.plan_fan_out"),
        (shard, "merge_indices", "placement.merge_indices"),
    ]
    for cls in (
        range_sampler.TreeWalkRangeSampler,
        range_sampler.AliasAugmentedRangeSampler,
        range_sampler.ChunkedRangeSampler,
    ):
        targets.append((cls, "execute_plan", "execute.execute_plan"))
    for cls in (
        execution.SerialShardRunner,
        execution.ThreadShardRunner,
        execution.ProcessShardRunner,
    ):
        targets.append((cls, "run_plan", "execution.run_plan"))
    return targets


def export_targets() -> List[Target]:
    """The shared-memory export, wrapped while a fresh engine sets up."""
    from repro.engine import executor

    return [(executor.SamplingEngine, "share", "shm.export")]


class SpanRecorder:
    """Records spans around patched callables; restores them on exit."""

    def __init__(self) -> None:
        # One column per field instead of one list per span: columns of
        # floats and strings are not tracked by the cyclic garbage
        # collector, whose passes over millions of span lists would
        # otherwise land inside the spans being measured.
        self._names: List[str] = []
        self._starts: List[float] = []
        self._ends: List[float] = []
        self._parents: List[int] = []
        self._traces: List[Optional[str]] = []
        #: ``(trace_id, duration_us)`` of worker-side shard draws.
        self.remote: List[Tuple[Optional[str], float]] = []
        self._stack: List[int] = []
        self._trace: Optional[str] = None
        self._undo: List[Callable[[], None]] = []

    # -- patching ------------------------------------------------------

    def install(self, targets: List[Target], harvest: bool = False) -> "SpanRecorder":
        for owner, attr, name in targets:
            if attr not in vars(owner):
                continue  # inherited: the defining class is patched instead
            original = vars(owner)[attr]
            wrapper = (
                self._root(original, name)
                if name == "sampler.execute"
                else self._span(original, name)
            )
            setattr(owner, attr, wrapper)
            self._undo.append(functools.partial(setattr, owner, attr, original))
        if harvest:
            from repro import obs

            original_merge = obs.merge
            obs.merge = self._harvest(original_merge)
            self._undo.append(functools.partial(setattr, obs, "merge", original_merge))
        return self

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    def __enter__(self) -> "SpanRecorder":
        return self

    def __exit__(self, *exc_info: Any) -> bool:
        self.uninstall()
        return False

    def _span(self, fn: Callable, name: str) -> Callable:
        names, starts, ends, parents, traces = (
            self._names, self._starts, self._ends, self._parents, self._traces
        )
        stack = self._stack

        @functools.wraps(fn)
        def wrapped(*args: Any, **kwargs: Any) -> Any:
            index = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            traces.append(self._trace)
            ends.append(0.0)
            stack.append(index)
            starts.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[index] = perf_counter()
                stack.pop()

        return wrapped

    def _root(self, fn: Callable, name: str) -> Callable:
        """The per-request span: it also sets the current trace ID."""
        inner = self._span(fn, name)

        @functools.wraps(fn)
        def wrapped(sampler: Any, request: Any, *args: Any, **kwargs: Any) -> Any:
            previous, self._trace = self._trace, request.trace_id
            try:
                return inner(sampler, request, *args, **kwargs)
            finally:
                self._trace = previous

        return wrapped

    def _harvest(self, merge: Callable) -> Callable:
        remote = self.remote

        @functools.wraps(merge)
        def wrapped(delta: dict) -> None:
            for span in delta.get("spans", ()):
                if span.get("name") == "worker.shard_draw":
                    remote.append((span.get("attrs", {}).get("trace"), span["us"]))
            merge(delta)

        return wrapped

    # -- analysis ------------------------------------------------------

    def spans(self) -> List[Tuple[str, float, float, int, Optional[str]]]:
        """Every span as ``(name, start, end, parent index, trace_id)``."""
        return list(
            zip(self._names, self._starts, self._ends, self._parents, self._traces)
        )

    def self_times(self) -> List[float]:
        """Each span's duration minus its direct children's durations."""
        own = [end - start for start, end in zip(self._starts, self._ends)]
        for start, end, parent in zip(self._starts, self._ends, self._parents):
            if parent >= 0:
                own[parent] -= end - start
        return own

    def totals(self) -> Dict[str, Dict[str, float]]:
        """Per span name: count, total duration and total self time (s)."""
        out: Dict[str, Dict[str, float]] = defaultdict(
            lambda: {"count": 0, "total_s": 0.0, "self_s": 0.0}
        )
        for name, start, end, own in zip(
            self._names, self._starts, self._ends, self.self_times()
        ):
            row = out[name]
            row["count"] += 1
            row["total_s"] += end - start
            row["self_s"] += own
        return dict(out)

    def wait_s(self) -> float:
        """Total time ``run_plan`` spent beyond its slowest shard's draw."""
        slowest_us: Dict[Optional[str], float] = defaultdict(float)
        for trace, us in self.remote:
            slowest_us[trace] = max(slowest_us[trace], us)
        total = 0.0
        for name, start, end, _, trace in self.spans():
            if name == "execution.run_plan":
                total += max(0.0, (end - start) - slowest_us[trace] * 1e-6)
        return total

    def write(self, path: str) -> None:
        """Write every span (and the harvested worker spans) as JSON lines."""
        with open(path, "w", encoding="utf-8") as out:
            for index, (name, start, end, parent, trace) in enumerate(self.spans()):
                out.write(
                    json.dumps(
                        {
                            "id": index,
                            "name": name,
                            "start": start,
                            "end": end,
                            "parent": parent,
                            "trace": trace,
                        }
                    )
                    + "\n"
                )
            for trace, us in self.remote:
                out.write(
                    json.dumps({"name": "worker.shard_draw", "us": us, "trace": trace})
                    + "\n"
                )
