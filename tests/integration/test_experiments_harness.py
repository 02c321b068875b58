"""The experiment harness itself must not rot: structure checks on the
fast experiments in quick mode."""

import json

import pytest

from repro.experiments.__main__ import main
from repro.experiments.runner import (
    ALL_EXPERIMENTS,
    ExperimentResult,
    run_experiment,
)


class TestRunner:
    def test_registry_is_complete(self):
        assert len(ALL_EXPERIMENTS) == 19

    def test_unknown_id_rejected(self):
        with pytest.raises(KeyError):
            run_experiment("e99")

    @pytest.mark.parametrize("experiment_id", ALL_EXPERIMENTS)
    def test_every_experiment_runs_quick(self, experiment_id):
        result = run_experiment(experiment_id, quick=True)
        assert isinstance(result, ExperimentResult)
        assert result.experiment_id == experiment_id
        assert result.rows, "experiment produced no rows"
        for row in result.rows:
            assert len(row) == len(result.columns)

    def test_render_contains_claim_and_rows(self):
        result = run_experiment("e4", quick=True)
        rendered = result.render()
        assert "claim:" in rendered
        assert result.title in rendered
        assert len(rendered.splitlines()) >= 5 + len(result.rows)


class TestCli:
    def test_metrics_out_writes_a_sidecar_per_experiment(self, metrics_on, tmp_path):
        assert main(["--quick", "e4", "--metrics-out", str(tmp_path)]) == 0
        sidecar = tmp_path / "e4.metrics.json"
        assert sidecar.exists()
        assert json.loads(sidecar.read_text())["meta"]["experiment"] == "e4"


class TestResultFormatting:
    def test_add_row_and_note(self):
        result = ExperimentResult(
            experiment_id="eX",
            title="t",
            claim="c",
            columns=["a", "b"],
        )
        result.add_row(1, 2.5)
        result.add_note("hello")
        rendered = result.render()
        assert "hello" in rendered
        assert "2.5" in rendered

    def test_float_formatting(self):
        result = ExperimentResult("eX", "t", "c", ["v"])
        result.add_row(123456.789)
        result.add_row(0.000012)
        rendered = result.render()
        assert "1.23e+05" in rendered
        assert "1.2e-05" in rendered
