"""Smoke test of the benchmark at tiny sizes.

Run from the repository root::

    python3 -m pytest perfbench/test_smoke.py

It checks that every metric BENCHMARK.json declares is emitted, with its
unit, on every workload and in both trace modes, and that the output
checks reject a corrupted result.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
from checks import CheckFailed, check_in_span  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

DECLARED = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def tiny(name: str):
    workload = WORKLOADS[name]
    return workload.scaled(2_000, s=min(workload.s, 64))


@pytest.mark.parametrize("name", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_every_declared_metric_is_emitted_with_its_unit(name, trace, tmp_path):
    result = run.run(tiny(name), seed=3, seconds=0.2, trace=trace, out_dir=tmp_path)
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    emitted = {metric: unit for metric, (_, unit, _) in result["rows"].items()}
    assert emitted == {m["name"]: m["unit"] for m in declared}
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    for value, _, count in result["rows"].values():
        assert value == value and count >= 1  # no NaN, every metric has samples


def test_workload_names_match_benchmark_json():
    assert sorted(WORKLOADS) == sorted(w["name"] for w in DECLARED["workloads"])


def test_in_span_check_rejects_a_corrupted_result():
    workload = tiny("range_cold")
    bench = run.Bench(workload, seed=5)
    _, sampler, engine, batch, results = bench.setup()
    try:
        (lo, hi, _), first = batch[0], results[0]
        check_in_span(first.values, lo, hi, workload.s)  # the real result passes
        corrupted = list(first.values)
        corrupted[0] = hi
        with pytest.raises(CheckFailed):
            check_in_span(corrupted, lo, hi, workload.s)

        class CorruptingEngine:
            def run(self, sampler, requests):
                out = engine.run(sampler, requests)
                out[-1].values[-1] = -1
                return out

        with pytest.raises(CheckFailed):
            bench.run_batch(CorruptingEngine(), sampler, 1)
    finally:
        engine.close()


def test_refuses_when_program_metrics_are_already_on():
    from repro import obs

    obs.enable()
    try:
        with pytest.raises(run.Refused):
            run.run(tiny("range_cold"), seed=1, seconds=0.1, trace=0)
    finally:
        obs.disable()
