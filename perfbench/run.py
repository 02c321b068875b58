"""The repo benchmark: range-sampling workloads through ``SamplingEngine``.

Usage (from the repository root)::

    python3 perfbench/run.py --workload range_cold --seed 1 --seconds 30 --trace 0

One client in one process drives the public engine API as a closed loop:
it sends a fixed-size batch, waits for ``engine.run`` to return, checks
the results, and only then sends the next batch. ``--trace 0`` prints
the end-to-end metrics, ``--trace 1`` the per-layer ones (see README.md).
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import importlib.util
import json
import math
import multiprocessing
import os
import platform
import statistics
import sys
from pathlib import Path
from time import perf_counter
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from checks import CheckFailed, Digest, check_chi_square, check_in_span
from tracer import SpanRecorder, export_targets, layer_targets
from workloads import WORKLOADS, RequestStream, make_inputs, repetition_rate

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPS = 7
#: p90 needs ten batches beyond it, so the untraced phase runs at least this many.
MIN_BATCHES = 100
#: Samples drawn on the fixed χ² probe span.
PROBE_SAMPLES = 32_768
#: Iterations of the reference loop timed before every timed batch, and
#: how many loops make one reference second (the loop takes about 0.5 ms
#: on the 2-vCPU machine the benchmark was tuned on, at full speed).
REF_LOOP_ITERATIONS = 10_000
REF_LOOPS_PER_S = 2000
#: Metrics-off / metrics-on window pairs per run.
ROUNDS = 12
#: Share of ``--seconds`` given to each timed phase, per trace mode.
PHASES = {0: {"off": 0.5, "on": 0.5}, 1: {"off": 0.4, "on": 0.4, "traced": 0.2}}

#: Program counters read in the count window (metrics on).
COUNTERS = (
    "plan_cache.hits",
    "plan_cache.misses",
    "plan_cache.evictions",
    "engine.plan_builds",
    "range.lemma2.urn_probes",
    "range.lemma2.draws",
    "kernels.dispatch.scalar",
    "kernels.dispatch.numpy",
    "kernels.dispatch.jit",
    "engine.serialized_bytes",
    "engine.placement_shards",
)


class Refused(RuntimeError):
    """The benchmark cannot run in this environment."""


def environment() -> Dict[str, Any]:
    """Machine, interpreter and program settings recorded with every result."""
    from repro.core import kernels

    if kernels.HAVE_JIT:
        tier = "jit"
    elif kernels.HAVE_NUMPY:
        tier = "numpy"
    else:
        tier = "scalar"
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "numpy": np.__version__,
        "kernel_tier": tier,
        "numba_present": importlib.util.find_spec("numba") is not None,
        "repro_env": {k: v for k, v in sorted(os.environ.items()) if k.startswith("REPRO_")},
    }


def peak_rss_mib() -> float:
    """Peak RSS of this process plus that of its live worker children."""
    import resource

    total_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    for child in multiprocessing.active_children():
        try:
            with open(f"/proc/{child.pid}/status", encoding="ascii") as status:
                for line in status:
                    if line.startswith("VmHWM:"):
                        total_kib += int(line.split()[1])
        except OSError:
            pass  # the child exited between listing and reading
    return total_kib / 1024


def reference_loop_s() -> float:
    """Wall time of a fixed pure-Python loop: the machine's current speed."""
    started = perf_counter()
    total = 0
    for i in range(REF_LOOP_ITERATIONS):
        total += i * i
    return perf_counter() - started


def normalized_times(samples: List[Tuple[float, float]]) -> List[float]:
    """Batch times in reference seconds.

    ``samples`` are ``(batch wall time, reference loop time)`` pairs. Each
    batch time is divided by the median reference time of the eleven
    batches around it, scaled so that one reference second is
    :data:`REF_LOOPS_PER_S` loops.
    """
    refs = [ref for _, ref in samples]
    return [
        elapsed / (statistics.median(refs[max(0, i - 5):i + 6]) * REF_LOOPS_PER_S)
        for i, (elapsed, _) in enumerate(samples)
    ]


def fastest_rate(times: List[float], batch: int) -> Tuple[float, int]:
    """Requests per unit of time over the fastest tenth of the batches."""
    fastest = sorted(times)[: max(1, math.ceil(0.1 * len(times)))]
    return len(fastest) * batch / sum(fastest), len(fastest)


class Bench:
    """One workload's run: inputs, request stream, checks and phases."""

    def __init__(self, workload: Any, seed: int):
        self.w = workload
        self.seed = seed
        self.keys, self.weights = make_inputs(seed, workload.n)
        self.stream = RequestStream(workload, seed)
        self.attempted = 0
        self.failed = 0
        self.digest = Digest()
        self.issued: List[Tuple[int, int]] = []  # spans of the warm-up + timed batches
        self.next_batch = 1  # batch 0 is the warm-up batch

    # -- batches -------------------------------------------------------

    def run_batch(self, engine: Any, sampler: Any, index: int) -> Tuple[float, list, list]:
        """Send batch ``index``, wait for it, check it; return its wall time."""
        from repro.engine import QueryRequest

        batch = self.stream.batch(index)
        keys, s = self.keys, self.w.s
        requests = [
            QueryRequest(op="sample_indices", args=(keys[lo], keys[hi - 1]), s=s, seed=seed)
            for lo, hi, seed in batch
        ]
        started = perf_counter()
        results = engine.run(sampler, requests)
        elapsed = perf_counter() - started
        self.attempted += len(requests)
        for (lo, hi, _), result in zip(batch, results):
            if result.error is not None:
                self.failed += 1
            else:
                check_in_span(result.values, lo, hi, s)
        return elapsed, batch, results

    def timed(
        self, engine: Any, sampler: Any, seconds: float, min_batches: int = 0
    ) -> List[Tuple[float, float]]:
        """Closed loop for ``seconds`` (and at least ``min_batches``).

        Returns ``(batch wall time, reference loop time)`` per batch; the
        reference loop runs just before each batch.
        """
        samples: List[Tuple[float, float]] = []
        deadline = perf_counter() + seconds
        while perf_counter() < deadline or len(samples) < min_batches:
            ref = reference_loop_s()
            elapsed, batch, _ = self.run_batch(engine, sampler, self.next_batch)
            self.next_batch += 1
            self.issued.extend((lo, hi) for lo, hi, _ in batch)
            samples.append((elapsed, ref))
        return samples

    # -- phases --------------------------------------------------------

    def new_engine(self) -> Any:
        from repro.engine import SamplingEngine

        return SamplingEngine(**self.w.engine_kwargs())

    def setup(self) -> Tuple[float, Any, Any, list, list]:
        """Build the structure, construct the engine, run the warm-up batch."""
        from repro.core.planner import shared_store
        from repro.engine.registry import build

        shared_store().clear()
        gc.collect()
        started = perf_counter()
        sampler = build(self.w.spec, keys=self.keys, weights=self.weights, rng=self.seed)
        engine = self.new_engine()
        try:
            _, batch, results = self.run_batch(engine, sampler, 0)
        except BaseException:
            engine.close()
            raise
        return perf_counter() - started, sampler, engine, batch, results

    def count_window(self, sampler: Any) -> Dict[str, float]:
        """Program counters over fixed batches on a fresh engine (metrics on).

        The plan store is cleared and the engine is new (so are its
        worker processes), and the batches are the first of the stream:
        every count is a pure function of the seed.
        """
        from repro import obs
        from repro.core.planner import shared_store

        w = self.w
        obs.enable()
        obs.reset()
        shared_store().clear()
        try:
            with SpanRecorder().install(export_targets()) as recorder:
                with self.new_engine() as engine:
                    for index in range(w.count_fill):
                        self.run_batch(engine, sampler, index)
                    base = {name: obs.value(name) for name in COUNTERS}
                    for index in range(w.count_fill, w.count_fill + w.count_batches):
                        self.run_batch(engine, sampler, index)
                    counts = {name: obs.value(name) - base[name] for name in COUNTERS}
                    counts["engine.worker_rebuilds"] = obs.value("engine.worker_rebuilds")
        finally:
            obs.disable()
        counts["requests"] = w.count_batches * w.batch
        counts["shm.export_s"] = recorder.totals().get("shm.export", {}).get("total_s", 0.0)
        return counts

    def probe(self, engine: Any, sampler: Any) -> float:
        """χ² goodness of fit on the fixed probe span (centre of the keys)."""
        from repro.engine import QueryRequest

        w = self.w
        lo = (w.n - w.span_len) // 2
        hi = lo + w.span_len
        count = math.ceil(PROBE_SAMPLES / w.s)
        base = int(np.random.default_rng([self.seed, 4]).integers(1, 2**62))
        samples: List[int] = []
        for first in range(0, count, w.batch):
            seeds = [base + j for j in range(first, min(first + w.batch, count))]
            requests = [
                QueryRequest(
                    op="sample_indices", args=(self.keys[lo], self.keys[hi - 1]), s=w.s, seed=seed
                )
                for seed in seeds
            ]
            results = engine.run(sampler, requests)
            self.attempted += len(requests)
            for seed, result in zip(seeds, results):
                if result.error is not None:
                    self.failed += 1
                    continue
                check_in_span(result.values, lo, hi, w.s)
                samples.extend(result.values)
                self.digest.add([((lo, hi, seed), result.values)])
        return check_chi_square(samples, self.weights, lo, hi)


def run(
    workload: Any, seed: int, seconds: float, trace: int, out_dir: Path = OUT_DIR
) -> Dict[str, Any]:
    """Run one workload; return its metrics, printed-only rows and details.

    ``rows`` are the metrics of the final line: the end-to-end ones with
    ``trace=0``, the per-layer ones with ``trace=1``. ``info`` rows are
    printed but not gated (see README.md). Every row is
    ``(value, unit, sample count)``.
    """
    from repro import obs
    from repro.core.planner import resolve_capacity

    if obs.ENABLED:
        raise Refused("REPRO_METRICS is set: the untraced phase would not be untraced")
    w = workload
    share = PHASES[trace]
    bench = Bench(w, seed)
    details: Dict[str, Any] = {
        "workload": w.name,
        "seed": seed,
        "trace": trace,
        "seconds": seconds,
        "env": environment(),
    }

    # Set up SETUP_REPS times (setup_s is the median) and keep the last
    # engine for the metrics-off windows.
    setup_times: List[float] = []
    for rep in range(SETUP_REPS):
        setup_s, sampler, off_engine, batch, results = bench.setup()
        setup_times.append(setup_s)
        if rep < SETUP_REPS - 1:
            off_engine.close()
    bench.digest.add(zip(batch, (r.values for r in results)))
    bench.issued.extend((lo, hi) for lo, hi, _ in batch)

    # Metrics-off and metrics-on windows alternate over one structure, so
    # both see the same machine state and the same lazily warmed caches.
    # Each has its own engine: a worker process that once harvested
    # metrics keeps them on, so metrics-off work needs workers that never did.
    off: List[Tuple[float, float]] = []
    on: List[Tuple[float, float]] = []
    on_engine = None
    recorder = None
    try:
        for _ in range(ROUNDS):
            off += bench.timed(off_engine, sampler, seconds * share["off"] / ROUNDS)
            obs.enable()
            try:
                if on_engine is None:
                    rss = peak_rss_mib()  # one engine, as a deployment has
                    on_engine = bench.new_engine()
                    bench.run_batch(on_engine, sampler, 0)  # its warm-up batch
                on += bench.timed(on_engine, sampler, seconds * share["on"] / ROUNDS)
            finally:
                obs.disable()
        off += bench.timed(off_engine, sampler, 0.0, MIN_BATCHES - len(off))
        probe_p = bench.probe(off_engine, sampler)
        if trace:
            obs.enable()
            recorder = SpanRecorder().install(layer_targets(), harvest=True)
            try:
                traced = bench.timed(on_engine, sampler, seconds * share["traced"])
            finally:
                recorder.uninstall()
                obs.disable()
    finally:
        off_engine.close()
        if on_engine is not None:
            on_engine.close()
    off_s = [elapsed for elapsed, _ in off]
    qps, qps_n = fastest_rate(normalized_times(off), w.batch)
    qps_on, on_n = fastest_rate(normalized_times(on), w.batch)

    if trace:
        counts = bench.count_window(sampler)
        rows = layer_rows(w, recorder, traced, counts, qps, qps_on)
        details["counts"] = counts
        details["self_us_per_request"] = {
            name: row["self_s"] / (len(traced) * w.batch) * 1e6
            for name, row in recorder.totals().items()
        }
        out_dir.mkdir(exist_ok=True)
        spans_path = out_dir / f"{w.name}-seed{seed}.spans.jsonl"
        recorder.write(str(spans_path))
        details["spans_file"] = str(spans_path)
    else:
        rows = {
            "setup_s": (statistics.median(setup_times), "s", len(setup_times)),
            "qps": (qps, "requests/ref-s", qps_n),
            "qps_metrics_on": (qps_on, "requests/ref-s", on_n),
            "peak_rss_mb": (rss, "MiB", 1),
        }
    info = {
        "qps_wall": (fastest_rate(off_s, w.batch)[0], "requests/s", qps_n),
        "qps_metrics_on_wall": (
            fastest_rate([elapsed for elapsed, _ in on], w.batch)[0], "requests/s", on_n
        ),
        "batch_ms_p50": (float(np.percentile(off_s, 50)) * 1e3, "ms", len(off)),
        "batch_ms_p90": (float(np.percentile(off_s, 90)) * 1e3, "ms", len(off)),
        "error_rate": (bench.failed / bench.attempted, "fraction", bench.attempted),
    }

    details["properties"] = {
        "n": w.n,
        "s": w.s,
        "selectivity": w.selectivity,
        "batch": w.batch,
        "spec": w.spec,
        "placement": w.placement,
        "backend": w.backend,
        "shards": w.shards,
        "span_pool": w.span_pool if w.span_pool is not None else "fresh per request",
        "distinct_spans_seen": len(set(bench.issued)),
        "plan_store_capacity": resolve_capacity(),
        "repetition_rate": repetition_rate(bench.issued),
    }
    details["setup_s_samples"] = setup_times
    details["batch_and_reference_s"] = {"off": off, "on": on}
    details["chi2_p"] = probe_p
    details["digest"] = bench.digest.hexdigest()
    return {
        "rows": rows,
        "info": info,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "details": details,
    }


def layer_rows(
    w: Any,
    recorder: Any,
    traced: List[Tuple[float, float]],
    counts: Dict[str, float],
    qps: float,
    qps_on: float,
) -> Dict[str, Tuple[float, str, int]]:
    """The per-layer metrics from the traced phase and the count window."""
    requests = len(traced) * w.batch
    totals = recorder.totals()
    qps_traced, _ = fastest_rate(normalized_times(traced), w.batch)

    def self_us(name: str) -> float:
        return totals.get(name, {}).get("self_s", 0.0) / requests * 1e6

    def total_us(name: str) -> float:
        return totals.get(name, {}).get("total_s", 0.0) / requests * 1e6

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    c = counts
    counted = c["requests"]
    draw_us = self_us("execute.execute_plan")
    dispatches = c["kernels.dispatch.scalar"] + c["kernels.dispatch.numpy"] + c["kernels.dispatch.jit"]
    remote_us = sum(us for _, us in recorder.remote)
    return {
        "protocol.validate_us": (self_us("protocol.validate"), "us", requests),
        "executor.overhead_us": (
            total_us("engine.run") - total_us("sampler.execute"), "us", requests
        ),
        "range_sampler.span_of_us": (self_us("range_sampler.span_of"), "us", requests),
        "planner.plan_us": (self_us("planner.plan_span"), "us", requests),
        "planner.store_us": (
            total_us("planner.store_get") + total_us("planner.store_put"), "us", requests
        ),
        "planner.hit_rate": (
            ratio(c["plan_cache.hits"], c["plan_cache.hits"] + c["plan_cache.misses"]),
            "fraction",
            counted,
        ),
        "planner.builds_per_request": (ratio(c["plan_cache.misses"], counted), "count", counted),
        "planner.evictions_per_request": (
            ratio(c["plan_cache.evictions"], counted), "count", counted
        ),
        "execute.draw_us": (draw_us, "us", requests),
        "execute.ns_per_sample": (draw_us * 1e3 / w.s, "ns", requests),
        "execute.urn_probes_per_sample": (
            ratio(c["range.lemma2.urn_probes"], c["range.lemma2.draws"]), "count", counted
        ),
        "kernels.numpy_dispatch_frac": (
            ratio(c["kernels.dispatch.numpy"], dispatches), "fraction", counted
        ),
        "placement.fan_out_us": (self_us("placement.plan_fan_out"), "us", requests),
        "placement.merge_us": (self_us("placement.merge_indices"), "us", requests),
        "placement.shards_per_request": (
            ratio(c["engine.placement_shards"], counted), "count", counted
        ),
        "execution.run_plan_us": (self_us("execution.run_plan"), "us", requests),
        "execution.remote_draw_us": (remote_us / requests, "us", requests),
        "execution.wait_us": (recorder.wait_s() / requests * 1e6, "us", requests),
        "execution.serialized_bytes_per_request": (
            ratio(c["engine.serialized_bytes"], counted), "bytes", counted
        ),
        "shm.export_s": (c["shm.export_s"], "s", 1),
        "worker.rebuilds": (c["engine.worker_rebuilds"], "count", 1),
        "obs.overhead_pct": (100.0 * (qps - qps_on) / qps, "%", len(traced)),
        "trace.overhead_pct": (100.0 * (qps_on - qps_traced) / qps_on, "%", len(traced)),
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: program source not found under {SRC}", file=sys.stderr)
        return 2
    if os.environ.get("REPRO_METRICS") is not None:
        print(
            "perfbench: REPRO_METRICS is set; unset it so the untraced phase "
            "runs with the program's metrics off",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, str(SRC))

    try:
        result = run(WORKLOADS[args.workload], args.seed, args.seconds, args.trace)
    except CheckFailed as failure:
        print(f"perfbench: output check failed: {failure}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1
    except Refused as refusal:
        print(f"perfbench: {refusal}", file=sys.stderr)
        return 2
    finally:
        stop_resource_tracker()

    for name, (value, unit, count) in {**result["rows"], **result["info"]}.items():
        print(f"{name:<40} {value:>16.6f} {unit:<14} n={count}")
    OUT_DIR.mkdir(exist_ok=True)
    out = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(result, indent=2, default=str))
    print(f"details: {out.relative_to(ROOT)}")
    correct = result["failed"] == 0
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in result["rows"].items()
                },
            }
        )
    )
    return 0 if correct else 1


def stop_resource_tracker() -> None:
    """Stop the shared-memory resource tracker the program started, if any."""
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


if __name__ == "__main__":
    sys.exit(main())
