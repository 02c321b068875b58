"""Observability-pipeline tail-latency exporter (``BENCH_8.json``).

Runs the same seeded batch workload through every engine backend
(serial/thread/process, plus sharded × thread) with metrics **off** and **on**, and
reports per-request tail latency (exact p50/p90/p99 over the results'
``elapsed_s``) plus batch wall-clock, so the cost of the full
observability pipeline — trace assignment, spans, flight records, and
for the process backend the worker metric harvest — is one diffable
JSON artifact per CI run.

For metrics-on runs the report also carries the bucket-interpolated
quantiles of the ``engine.request_us`` histogram next to the exact
ones, cross-checking :meth:`repro.obs.registry.Histogram.quantile`
against ground truth on live data.

Named with the ``bench_`` prefix to sit beside the pytest-benchmark
suite, but it is a standalone script (no ``bench_*`` functions, so
pytest collects nothing from it). Run::

    python benchmarks/bench_obs_pipeline.py --out BENCH_8.json [--quick]

``--gate`` additionally enforces the enabled-path budget on the process
backend (metrics-on batch wall-clock within ``GATE_RATIO``x of
metrics-off) and exits non-zero on breach.

Schema::

    {
      "workload": "obs_pipeline",
      "spec": "range.chunked",
      "n": ..., "requests": ..., "s": ..., "repeats": ...,
      "backends": [
        {"backend": ..., "metrics": "off"|"on",
         "p50_us": ..., "p90_us": ..., "p99_us": ...,
         "mean_batch_s": ..., "best_batch_s": ...,
         "hist_p50_us": ...?, "hist_p99_us": ...?,   # metrics-on only
         "harvested_chunks": ...?},                  # process+on only
        ...
      ],
      "gate": {"enforced": bool, "ratio": ..., "budget": ..., "ok": bool}
    }
"""

import argparse
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro import obs  # noqa: E402
from repro.engine import SamplingEngine, spec_token  # noqa: E402
from repro.engine.protocol import QueryRequest  # noqa: E402
from repro.engine.registry import build  # noqa: E402

SPEC = "range.chunked"
#: Enabled-path budget for the process backend under ``--gate``:
#: metrics-on mean batch wall-clock must stay within this multiple of
#: metrics-off. Generous — harvest adds a baseline+delta per chunk and a
#: merge per envelope, and CI machines are noisy — but it catches an
#: accidental O(requests) pickle or a per-draw harvest regression.
GATE_RATIO = 1.75
BACKENDS = {
    # report label -> (execution backend, placement)
    "serial": ("serial", None),
    "thread": ("thread", None),
    "process": ("process", None),
    "shard": ("thread", "sharded"),
}


def make_keys(n):
    return [float(i) for i in range(1, n + 1)]


def make_batch(n, requests, s):
    lo, hi = float(n // 8), float((5 * n) // 8)
    return [QueryRequest(op="sample", args=(lo, hi), s=s) for _ in range(requests)]


def exact_quantile(sorted_values, q):
    """Nearest-rank-with-interpolation quantile of a sorted list."""
    if not sorted_values:
        return 0.0
    pos = q * (len(sorted_values) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    frac = pos - lo
    return sorted_values[lo] * (1 - frac) + sorted_values[hi] * frac


def run_backend(label, keys, batch_template, repeats, workers):
    """Run ``repeats`` seeded batches; return (per-request us, batch seconds)."""
    backend, placement = BACKENDS[label]
    n = len(keys)
    per_request_us = []
    batch_seconds = []
    if backend == "process":
        engine = SamplingEngine(backend=backend, seed=42, max_workers=workers)
        token = spec_token(SPEC, {"keys": keys, "rng": 1})
        runner = lambda reqs: engine.run_token(token, reqs)
    else:
        engine = SamplingEngine(
            backend=backend, placement=placement, seed=42, max_workers=workers
        )
        sampler = build(SPEC, keys=keys, rng=1)
        runner = lambda reqs: engine.run(sampler, reqs)
    try:
        # Untimed warm batch: process-pool spin-up + worker-resident build.
        runner([QueryRequest(op=r.op, args=r.args, s=r.s) for r in batch_template])
        for _ in range(repeats):
            reqs = [
                QueryRequest(op=r.op, args=r.args, s=r.s) for r in batch_template
            ]
            start = time.perf_counter()
            results = runner(reqs)
            batch_seconds.append(time.perf_counter() - start)
            for result in results:
                if result.error is not None:
                    raise RuntimeError(
                        f"{label} batch failed: {result.error!r}"
                    )
                per_request_us.append((result.elapsed_s or 0.0) * 1e6)
    finally:
        engine.close()
    return per_request_us, batch_seconds


def measure(backend, keys, batch_template, repeats, workers, metrics_on):
    saved = obs.ENABLED
    (obs.enable if metrics_on else obs.disable)()
    try:
        if metrics_on:
            obs.reset()
        lat_us, batches = run_backend(
            backend, keys, batch_template, repeats, workers
        )
        lat_us.sort()
        row = {
            "backend": backend,
            "metrics": "on" if metrics_on else "off",
            "p50_us": exact_quantile(lat_us, 0.50),
            "p90_us": exact_quantile(lat_us, 0.90),
            "p99_us": exact_quantile(lat_us, 0.99),
            "mean_batch_s": sum(batches) / len(batches),
            "best_batch_s": min(batches),
        }
        if metrics_on:
            hist = obs.REGISTRY.histogram("engine.request_us")
            if hist.count:
                row["hist_p50_us"] = hist.quantile(0.50)
                row["hist_p99_us"] = hist.quantile(0.99)
            if backend == "process":
                row["harvested_chunks"] = obs.value("engine.harvested_chunks")
        return row
    finally:
        (obs.enable if saved else obs.disable)()


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="BENCH_8.json", help="output path")
    parser.add_argument(
        "--quick", action="store_true", help="small workload for smoke runs"
    )
    parser.add_argument(
        "--gate",
        action="store_true",
        help=f"fail if process-backend metrics-on wall-clock exceeds "
        f"{GATE_RATIO}x metrics-off",
    )
    parser.add_argument(
        "--workers", type=int, default=4, help="pool width (default: 4)"
    )
    args = parser.parse_args(argv)

    if args.quick:
        n, requests, s, repeats = 4_096, 32, 128, 3
    else:
        n, requests, s, repeats = 16_384, 128, 256, 5

    keys = make_keys(n)
    batch_template = make_batch(n, requests, s)

    rows = []
    for backend in BACKENDS:
        for metrics_on in (False, True):
            row = measure(
                backend, keys, batch_template, repeats, args.workers, metrics_on
            )
            rows.append(row)
            print(
                f"{backend:<8} metrics={row['metrics']:<3} "
                f"p50={row['p50_us']:8.1f}us p99={row['p99_us']:8.1f}us "
                f"batch={row['mean_batch_s'] * 1e3:8.2f}ms",
                file=sys.stderr,
            )

    def wall(backend, metrics):
        for row in rows:
            if row["backend"] == backend and row["metrics"] == metrics:
                return row["mean_batch_s"]
        raise KeyError((backend, metrics))

    ratio = wall("process", "on") / wall("process", "off")
    gate_ok = ratio <= GATE_RATIO
    print(
        f"process enabled-path ratio: {ratio:.2f}x (budget {GATE_RATIO}x)"
        + ("" if gate_ok else "  ** OVER BUDGET **"),
        file=sys.stderr,
    )

    report = {
        "workload": "obs_pipeline",
        "spec": SPEC,
        "n": n,
        "requests": requests,
        "s": s,
        "repeats": repeats,
        "workers": args.workers,
        "backends": rows,
        "gate": {
            "enforced": args.gate,
            "ratio": ratio,
            "budget": GATE_RATIO,
            "ok": gate_ok,
        },
    }
    Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {args.out} ({len(rows)} rows)")
    if args.gate and not gate_ok:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
