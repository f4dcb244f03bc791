"""Tests of the benchmark itself: run them with `python -m pytest perfbench`.

The smoke runs go through run.py exactly as a measured run does, on the
SMOKE sizes. The corruption tests show that every output check can fail.
"""

import dataclasses
import json
import shutil
import subprocess
import sys

import numpy as np
import pytest

import checks
import run
import tracer
import workloads

sys.path.insert(0, str(run.SRC))

from qevo import cli  # noqa: E402


@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_prints_every_metric(trace):
    proc = subprocess.run(
        [sys.executable, str(run.HERE / "run.py"), "--workload", "all", "--seed", "4",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 2 * len(workloads.NAMES)
    units = run.PER_LAYER if trace else run.END_TO_END
    for name in workloads.NAMES:
        for metric, unit in units.items():
            assert result["metrics"][f"{name}/{metric}"]["unit"] == unit
            assert any(line.startswith(f"{name} {metric} = ") and line.endswith(f" {unit}")
                       for line in lines), (name, metric)
        assert f"{name} fail_frac = 0.0 " in proc.stdout


def test_without_the_package_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "train-desk", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=60, cwd=tmp_path,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_a_call_past_the_timeout_counts_as_failed(tmp_path, monkeypatch):
    (tmp_path / "work").mkdir()
    prepared = workloads.prepare("predict-long", 3, tmp_path / "work", workloads.SMOKE)
    runner = run.Runner(prepared, 3, tmp_path)

    def hang(argv, **kwargs):
        raise subprocess.TimeoutExpired(argv, run.CALL_TIMEOUT_S)

    monkeypatch.setattr(run.subprocess, "run", hang)
    runner.call(traced=False)
    assert runner.calls[0]["failures"] == ["qevo exited None"]


@pytest.fixture(scope="module", params=workloads.NAMES)
def artifacts(request, tmp_path_factory):
    work = tmp_path_factory.mktemp(request.param)
    prepared = workloads.prepare(request.param, 3, work, workloads.SMOKE)
    if prepared.kind == "train":
        # the smoke training run is too short for criterion 8, so check its
        # own test rmse against itself
        prepared = dataclasses.replace(prepared, rmse_bound=1.0)
    out = work / "out"
    (out / "checkpoints").mkdir(parents=True)
    assert cli.main(prepared.argv(out)) == 0
    return prepared, out


def _genome(prepared, out):
    from qevo import network

    return network.load_genome(prepared.genome or out / "genome.bin")


def test_checks_pass_on_real_artifacts(artifacts):
    prepared, out = artifacts
    assert checks.check_outputs(prepared, out, seed=3) == []


def test_row_count_check_fails_on_a_dropped_row(artifacts):
    prepared, out = artifacts
    forecast = checks.read_forecast(out / "forecast.csv")
    short = {k: v[:-1] for k, v in forecast.items()}
    assert checks.check_row_count(short, prepared.forecast_rows)


def test_range_check_fails_outside_unit_interval(artifacts):
    _, out = artifacts
    forecast = checks.read_forecast(out / "forecast.csv")
    forecast["predicted_normalized"][3] = 1.5
    assert checks.check_range(forecast)
    forecast["predicted_normalized"][3] = np.nan
    assert checks.check_range(forecast)


def test_series_check_fails_on_a_shifted_actual(artifacts):
    prepared, out = artifacts
    forecast = checks.read_forecast(out / "forecast.csv")
    forecast["actual_normalized"][5] += 1e-9
    assert checks.check_series(forecast, prepared.series, prepared.window)


def test_replay_check_fails_on_a_one_ulp_change(artifacts):
    prepared, out = artifacts
    forecast = checks.read_forecast(out / "forecast.csv")
    genome = _genome(prepared, out)
    assert checks.check_replay(forecast, genome, prepared.series, prepared.window) == []
    row = prepared.window + 2
    forecast["predicted_normalized"][row] = np.nextafter(forecast["predicted_normalized"][row], 2.0)
    assert checks.check_replay(forecast, genome, prepared.series, prepared.window)


def test_oracle_check_fails_when_predictions_drift(artifacts):
    prepared, out = artifacts
    forecast = checks.read_forecast(out / "forecast.csv")
    genome = _genome(prepared, out)
    forecast["predicted_normalized"] += 1e-9
    assert checks.check_oracle(forecast, genome, prepared.series, prepared.window,
                               np.random.default_rng(0))


def test_full_check_fails_on_a_corrupted_genome(artifacts, tmp_path):
    prepared, out = artifacts
    if prepared.kind != "train":
        pytest.skip("predict reads the benchmark's own genome input")
    copy = tmp_path / "out"
    shutil.copytree(out, copy)
    blob = bytearray((copy / "genome.bin").read_bytes())
    blob[-3] ^= 0x40  # a high mantissa bit of the last phase
    (copy / "genome.bin").write_bytes(bytes(blob))
    assert checks.check_outputs(prepared, copy, seed=3)


def test_report_check_fails_on_each_broken_invariant(artifacts):
    prepared, out = artifacts
    if prepared.kind != "train":
        pytest.skip("predict writes no report")
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    training = report["training"]
    assert checks.check_report(report, 1.0) == []

    broken = json.loads(json.dumps(report))
    broken["training"]["best_fitness"] = training["fitness_trajectory"][-1] + 1e-12
    assert checks.check_report(broken, None)

    broken = json.loads(json.dumps(report))
    broken["training"]["fitness_trajectory"][1] = training["fitness_trajectory"][0] + 0.1
    assert checks.check_report(broken, None)

    assert checks.check_report(report, report["metrics"]["test"]["rmse"] / 2)


def test_identity_check_fails_on_changed_or_missing_artifacts(artifacts, tmp_path):
    _, out = artifacts
    reference = checks.artifact_hashes(out)
    copy = tmp_path / "out"
    shutil.copytree(out, copy)
    assert checks.check_identical(reference, checks.artifact_hashes(copy)) == []
    with (copy / "forecast.csv").open("a", encoding="utf-8") as fh:
        fh.write("\n")
    assert checks.check_identical(reference, checks.artifact_hashes(copy))
    (copy / "forecast.csv").unlink()
    assert checks.check_identical(reference, checks.artifact_hashes(copy))


def test_self_time_subtracts_child_spans(monkeypatch):
    # outer opens at 0, inner spans 0.5..2, outer closes at 2.25
    ticks = iter([0.0, 0.5, 2.0, 2.25])
    monkeypatch.setattr(tracer.time, "perf_counter", lambda: next(ticks))
    t = tracer.Tracer()
    wrapped_inner = t.wrap(lambda: None, "inner")
    t.wrap(lambda: wrapped_inner(), "outer")()
    own = dict(zip(t.names, t.self_times()))
    assert t.parents == [-1, 0]
    assert own == {"outer": 0.75, "inner": 1.5}
