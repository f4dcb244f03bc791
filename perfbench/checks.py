"""Output checks. Each returns a list of failure messages; empty means pass.

Window inputs are rebuilt from the forecast's own `actual_normalized`
column where it has them (every index from `window` on) and from the
benchmark's independently aggregated series for the first `window` values.
Rows whose inputs come wholly from the forecast must replay bit for bit.
qevo is imported inside the checks that use it: run.py puts the checkout's
`src` on the path only after finding the package there.
"""

from __future__ import annotations

import csv
import hashlib
import json
from pathlib import Path

import numpy as np

ORACLE_TOLERANCE = 1e-10
SERIES_TOLERANCE = 1e-12
ORACLE_SAMPLE = 100


def read_forecast(path: Path) -> dict[str, np.ndarray]:
    with path.open(newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(line for line in fh if not line.startswith("#")))
    number = lambda key: np.array([float(r[key]) if r[key] else np.nan for r in rows])
    return {
        "index": np.array([int(r["index"]) for r in rows]),
        "actual_normalized": number("actual_normalized"),
        "predicted_normalized": number("predicted_normalized"),
    }


def artifact_hashes(out_dir: Path) -> dict[str, str]:
    return {
        str(p.relative_to(out_dir)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out_dir.rglob("*"))
        if p.is_file()
    }


def check_identical(reference: dict[str, str], other: dict[str, str]) -> list[str]:
    if reference.keys() != other.keys():
        return [f"artifact sets differ: {sorted(reference.keys() ^ other.keys())}"]
    return [f"{name} differs between runs at the same seed"
            for name in reference if reference[name] != other[name]]


def check_report(report: dict, rmse_bound: float | None) -> list[str]:
    training = report["training"]
    trajectory = training["fitness_trajectory"]
    failures = []
    if training["best_fitness"] != trajectory[-1]:
        failures.append(
            f"best_fitness {training['best_fitness']} != last trajectory value {trajectory[-1]}"
        )
    rises = [g for g in range(1, len(trajectory)) if trajectory[g] > trajectory[g - 1]]
    if rises:
        failures.append(f"fitness trajectory rises at generations {rises[:5]}")
    test_rmse = report["metrics"]["test"]["rmse"]
    if rmse_bound is not None and not test_rmse <= rmse_bound:
        failures.append(f"test rmse {test_rmse} > {rmse_bound}")
    return failures


def check_row_count(forecast: dict, expected: int) -> list[str]:
    got = forecast["index"].size
    return [] if got == expected else [f"{got} forecast rows, expected windows + 1 = {expected}"]


def check_range(forecast: dict) -> list[str]:
    pred = forecast["predicted_normalized"]
    bad = np.flatnonzero(~((pred >= 0.0) & (pred <= 1.0)))
    return [f"{bad.size} predicted_normalized values outside [0, 1]"] if bad.size else []


def check_series(forecast: dict, series: np.ndarray, window: int) -> list[str]:
    actual = forecast["actual_normalized"][:-1]
    expected = series[window:]
    if actual.shape != expected.shape:
        return [f"{actual.size} actual values, expected {expected.size}"]
    worst = float(np.max(np.abs(actual - expected)))
    if not worst <= SERIES_TOLERANCE:
        return [f"actual_normalized deviates from the generated series by {worst:.3g}"]
    return []


def window_inputs(forecast: dict, series: np.ndarray, window: int) -> np.ndarray:
    """One input row per forecast row; the last is the extrapolation window."""
    values = series.copy()
    values[window:] = forecast["actual_normalized"][:-1]
    return np.lib.stride_tricks.sliding_window_view(values, window)


def check_replay(forecast: dict, genome, series: np.ndarray, window: int) -> list[str]:
    """Reloaded genome + forward_batch reproduces predicted_normalized."""
    from qevo import network

    inputs = window_inputs(forecast, series, window)
    replay = np.append(
        network.forward_batch(genome, np.array(inputs[:-1])),
        network.forward(genome, inputs[-1]),
    )
    pred = forecast["predicted_normalized"]
    failures = []
    exact = slice(window, None)
    if not np.array_equal(replay[exact], pred[exact]):
        diff = np.flatnonzero(replay[exact] != pred[exact]) + window
        failures.append(f"replayed predictions differ at {diff.size} rows, first index {diff[0]}")
    head = float(np.max(np.abs(replay[:window] - pred[:window])))
    if not head <= SERIES_TOLERANCE:
        failures.append(f"replayed predictions of the first {window} rows deviate by {head:.3g}")
    return failures


def check_oracle(forecast: dict, genome, series: np.ndarray, window: int,
                 rng: np.random.Generator) -> list[str]:
    """A seeded sample of rows against the brute-force testkit oracle."""
    from qevo import testkit

    inputs = window_inputs(forecast, series, window)
    rows = np.arange(window, len(inputs))
    sample = rng.choice(rows, size=min(ORACLE_SAMPLE, rows.size), replace=False)
    pred = forecast["predicted_normalized"]
    worst = max(abs(testkit.oracle_forward(genome, inputs[i]) - pred[i]) for i in sample)
    if not worst <= ORACLE_TOLERANCE:
        return [f"oracle deviates by {worst:.3g} on a {sample.size}-row sample"]
    return []


def check_outputs(prepared, out_dir: Path, seed: int) -> list[str]:
    """Every content check on one run's artifacts."""
    from qevo import network

    failures = []
    forecast = read_forecast(out_dir / "forecast.csv")
    failures += check_row_count(forecast, prepared.forecast_rows)
    failures += check_range(forecast)
    if failures:
        return failures
    series, window = prepared.series, prepared.window
    failures += check_series(forecast, series, window)
    if prepared.kind == "train":
        report = json.loads((out_dir / "report.json").read_text(encoding="utf-8"))
        failures += check_report(report, prepared.rmse_bound)
    genome = network.load_genome(prepared.genome or out_dir / "genome.bin")
    failures += check_replay(forecast, genome, series, window)
    failures += check_oracle(forecast, genome, series, window, np.random.default_rng(seed))
    return failures
