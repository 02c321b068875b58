"""Machine-readable tier timings exporter (``BENCH_7.json``).

Times the batched alias-draw kernel on every available dispatch tier
(scalar, numpy, jit) across an (n, s) grid and writes one JSON document
CI uploads as an artifact, so tier regressions are diffable across runs.

Named ``bench7_report.py`` (no ``bench_`` prefix) deliberately: it is a
standalone script, not a pytest-collected benchmark. Run::

    python benchmarks/bench7_report.py --out BENCH_7.json [--quick]

Schema::

    {
      "workload": "alias_draw_batch",
      "tiers": ["scalar", "numpy", "jit"?],
      "have_numba": bool,
      "grid": [
        {"tier": ..., "n": ..., "s": ..., "best_s": ..., "mean_s": ...},
        ...
      ]
    }
"""

import argparse
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from repro.core import kernels, kernels_jit  # noqa: E402
from repro.core.alias import alias_draw  # noqa: E402

REPEATS = 5


def time_call(fn, repeats=REPEATS):
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return min(times), sum(times) / len(times)


def scalar_case(prob, alias, s):
    import random

    rng = random.Random(1)
    prob_list = prob.tolist()
    alias_list = alias.tolist()
    return lambda: [alias_draw(prob_list, alias_list, rng) for _ in range(s)]


def numpy_case(prob, alias, s):
    gen = np.random.default_rng(1)
    return lambda: kernels.alias_draw_batch(prob, alias, s, gen)


def jit_case(prob, alias, s):
    out = np.empty(s, dtype=np.intp)
    return lambda: kernels_jit.alias_draw(prob, alias, 12345, out)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="BENCH_7.json", help="output path")
    parser.add_argument(
        "--quick", action="store_true", help="small grid for smoke runs"
    )
    args = parser.parse_args(argv)

    if args.quick:
        ns = [1_000, 10_000]
        ss = [1_000, 10_000]
    else:
        ns = [1_000, 10_000, 100_000]
        ss = [1_000, 10_000, 100_000]

    tiers = {"scalar": scalar_case, "numpy": numpy_case}
    if kernels_jit.HAVE_NUMBA:
        kernels_jit.warmup()
        tiers["jit"] = jit_case

    saved_jit = kernels.HAVE_JIT
    kernels.HAVE_JIT = False  # the numpy rows must not silently take jit
    grid = []
    try:
        for n in ns:
            gen = np.random.default_rng(5)
            prob, alias = kernels.build_alias_tables_batch(gen.random(n) + 0.05)
            for s in ss:
                for tier, case in tiers.items():
                    if tier == "scalar" and s > 10_000:
                        continue  # interpreter loop: minutes, not data
                    fn = case(prob, alias, s)
                    fn()  # untimed warm call (jit compile, cache touch)
                    best, mean = time_call(fn)
                    grid.append(
                        {"tier": tier, "n": n, "s": s, "best_s": best, "mean_s": mean}
                    )
                    print(
                        f"n={n:>7} s={s:>7} {tier:<6} best={best * 1e6:10.1f}us",
                        file=sys.stderr,
                    )
    finally:
        kernels.HAVE_JIT = saved_jit

    report = {
        "workload": "alias_draw_batch",
        "tiers": sorted(tiers),
        "have_numba": kernels_jit.HAVE_NUMBA,
        "grid": grid,
    }
    Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {args.out} ({len(grid)} grid points)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
