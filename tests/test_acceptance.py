"""Acceptance suite: one test per criterion, each at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
pass lines. The desk-scale experiments (criteria 8 and 9) share one set of
five full-mode training runs through module-scoped fixtures.
"""

import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from qevo import cli, dataset, evolve, metrics, network, testkit, trace_io
from qevo.evolve import TrainingConfig, TrainingMode, recombine, train, update_probabilities
from qevo.network import Architecture, forward, random_genome

from conftest import positive_trace, sine_series, write_trace_csv

SEEDS = (0, 1, 2, 3, 4)


def _passed(text: str) -> None:
    print(f"[PASS] {text}")


def _split_sine(seed: int):
    values = sine_series(seed, points=2000)
    params = dataset.fit_normalizer(values)
    windows = dataset.build_windows(dataset.normalize(values, params), 10)
    return dataset.split(windows, 0.6)


def _test_rmse(genome, test_ds) -> float:
    return metrics.rmse(test_ds.targets, network.forward_batch(genome, test_ds.inputs))


@pytest.fixture(scope="module")
def sine_splits():
    return {seed: _split_sine(seed) for seed in SEEDS}


@pytest.fixture(scope="module")
def full_runs(sine_splits):
    runs = {}
    started = time.perf_counter()
    for seed in SEEDS:
        train_ds, test_ds = sine_splits[seed]
        best, report = train(TrainingConfig(seed=seed), train_ds)
        runs[seed] = {
            "best": best,
            "report": report,
            "test_rmse": _test_rmse(best, test_ds),
        }
    runs["elapsed"] = time.perf_counter() - started
    return runs


def test_criterion_01_forward_oracle_equivalence():
    rng = np.random.default_rng(101)
    started = time.perf_counter()
    max_dev = 0.0
    for _ in range(100):
        depth = int(rng.integers(1, 3))
        widths = tuple(int(w) for w in rng.integers(1, 4, depth))
        genome = random_genome(Architecture(3, widths), rng)
        row = rng.random(3)
        max_dev = max(max_dev, abs(forward(genome, row) - testkit.oracle_forward(genome, row)))
    elapsed = time.perf_counter() - started
    assert max_dev <= 1e-10
    assert elapsed < 1.0
    _passed(f"criterion 1: forward vs oracle max deviation {max_dev:.2e} <= 1e-10 in {elapsed:.2f}s")


def test_criterion_02_unit_modulus():
    # Input states over the encoded range [0, 1], with margins for test data
    # normalized outside it: cos^2 + sin^2 of each state's two planes.
    rows = np.linspace(-0.5, 1.5, 10_000).reshape(-1, 2)
    states = network.input_states(rows)
    assert np.all(states[:, -1] == -1.0)
    worst_input = float(np.max(np.abs(states[:, :2] ** 2 + states[:, 2:4] ** 2 - 1.0)))

    # Hidden states as forward_states leaves them in its workspace. With one
    # hidden layer of width 4 over n rows, the hidden block (4 cos rows, 4
    # sin rows, a -1 row) fills the first 9n entries of the first buffer; the
    # output transition then writes its squares over the first 2n entries
    # only, so the cos and sin rows of neurons 3 and 4 stay readable.
    rng = np.random.default_rng(102)
    n = 5_000
    genome = random_genome(Architecture(4, (4,)), rng)
    network.forward_states(genome, network.input_states(rng.random((n, 4))))
    hidden = network._workspace.buffers[0][: 9 * n].reshape(9, n)
    assert np.all(hidden[8] == -1.0)
    worst_hidden = float(np.max(np.abs(hidden[2:4] ** 2 + hidden[6:8] ** 2 - 1.0)))

    assert worst_input <= 1e-12 and worst_hidden <= 1e-12
    _passed(
        f"criterion 2: cos^2 + sin^2 = 1 within {worst_input:.2e} over 10^4 input states"
        f" and {worst_hidden:.2e} over 10^4 hidden states"
    )


def test_criterion_03_elitist_monotonicity():
    started = time.perf_counter()
    rng = np.random.default_rng(103)
    checked = 0
    for case in range(20):
        seed = int(rng.integers(0, 10_000))
        points = int(rng.integers(60, 140))
        if case % 2 == 0:
            values = sine_series(seed, points=points, noise=float(rng.uniform(0.01, 0.2)))
        else:
            values = np.cumsum(np.random.default_rng(seed).normal(0, 1.0, points))
        params = dataset.fit_normalizer(values)
        windows = dataset.build_windows(dataset.normalize(values, params), 4)
        config = TrainingConfig(
            population_size=6, generations=5, window_size=4,
            hidden_range=(2, 4), depth_range=(1, 2), seed=seed,
        )
        _, report = train(config, windows)
        diffs = np.diff(report.fitness_trajectory)
        assert (diffs <= 0).all(), f"fitness rose on case {case}: {report.fitness_trajectory}"
        evolve.convergence_monitor(report.fitness_trajectory)  # raises on violation
        checked += 1
    elapsed = time.perf_counter() - started
    assert checked == 20 and elapsed < 120.0
    _passed(f"criterion 3: best fitness non-increasing on 20 (seed, dataset) combos in {elapsed:.1f}s")


def test_criterion_04_probability_simplex(full_runs):
    report = full_runs[0]["report"]
    assert len(report.probability_trajectory) == 50
    for probs in report.probability_trajectory:
        assert abs(sum(probs) - 1.0) <= 1e-12
        assert all(p >= 0.0 for p in probs)
    symmetric = update_probabilities(evolve.StrategyState())
    assert symmetric.probs == pytest.approx((1 / 3, 1 / 3, 1 / 3), abs=1e-12)
    single = update_probabilities(evolve.StrategyState(successes=[1, 0, 0]))
    assert single.probs == pytest.approx((0.4, 0.3, 0.3), abs=1e-12)
    _passed("criterion 4: simplex holds across a 50-generation run; hand cases (1/3,1/3,1/3) and (0.4,0.3,0.3) reproduced")


@pytest.mark.parametrize(
    "probs",
    [(0.2, 0.3, 0.5), (1.0, 0.0, 0.0), (1 / 3, 1 / 3, 1 / 3)],
    ids=["typical", "degenerate", "uniform"],
)
def test_criterion_05_selection_frequencies(probs):
    draws = 100_000
    state = evolve.StrategyState(probs=probs)
    counts = dict.fromkeys(evolve.STRATEGIES, 0)
    for mss in np.random.default_rng(105).random(draws):
        counts[evolve.select_strategy(float(mss), state)] += 1
    deviations = [abs(counts[s] / draws - p) for s, p in zip(evolve.STRATEGIES, probs)]
    assert max(deviations) <= 0.01, counts
    _passed(f"criterion 5: strategy frequencies within ±0.01 of {probs} (max dev {max(deviations):.4f})")


def _expected_genome_length(arch: Architecture) -> int:
    """The genome length re-derived from the layout rule: per transition a
    weight block, a bias block for hidden destinations, a reversal block."""
    widths = [arch.input_width, *arch.hidden_widths, 1]
    total = 0
    for t in range(len(widths) - 1):
        total += widths[t] * widths[t + 1]  # weights
        if t < len(widths) - 2:
            total += widths[t + 1]  # bias
        total += widths[t + 1]  # reversal
    return total


def _random_arch(rng, input_width: int) -> Architecture:
    widths = rng.integers(1, 7, int(rng.integers(1, 4)))
    return Architecture(input_width, tuple(int(w) for w in widths))


def test_criterion_06_recombination_structural_validity():
    rng = np.random.default_rng(106)
    for trial in range(10_000):
        parents = [random_genome(_random_arch(rng, 4), rng) for _ in range(2)]
        for child in recombine(*parents, rng):
            arch = child.architecture
            assert child.phases.size == _expected_genome_length(arch), (trial, arch)
            assert np.isfinite(child.phases).all(), (trial, arch)
            assert min(arch.hidden_widths) >= 1, (trial, arch)
    rng = np.random.default_rng(1060)
    for seed in range(20):
        genome = random_genome(_random_arch(rng, 5), rng)
        child1, child2 = recombine(genome, genome, np.random.default_rng(seed))
        assert child1 == genome and child2 == genome
    _passed("criterion 6: 10^4 cross-architecture recombinations structurally valid; identical parents give bit-equal children")


def test_criterion_07_metrics_oracle():
    rng = np.random.default_rng(107)
    for _ in range(1000):
        m = int(rng.integers(1, 50))
        actual = rng.uniform(0.1, 1.0, m)
        predicted = rng.uniform(0.0, 1.0, m)
        brute_rmse = math.sqrt(sum((a - p) ** 2 for a, p in zip(actual, predicted)) / m)
        brute_mae = sum(abs(a - p) for a, p in zip(actual, predicted)) / m
        brute_mape = sum(abs(a - p) / max(abs(a), 1e-8) for a, p in zip(actual, predicted)) / m
        assert abs(metrics.rmse(actual, predicted) - brute_rmse) <= 1e-12
        assert abs(metrics.mae(actual, predicted) - brute_mae) <= 1e-12
        assert abs(metrics.mape(actual, predicted) - brute_mape) <= 1e-12
        assert metrics.rmse(actual, predicted) >= metrics.mae(actual, predicted)
    _passed("criterion 7: rmse/mae/mape match brute force within 1e-12 on 10^3 pairs; rmse >= mae on all")


def test_criterion_08_desk_scale_forecasting(full_runs):
    rmses = [full_runs[seed]["test_rmse"] for seed in SEEDS]
    median = float(np.median(rmses))
    elapsed = full_runs["elapsed"]
    assert median <= 0.08, rmses
    assert elapsed < 300.0
    _passed(
        f"criterion 8: median normalized test RMSE {median:.4f} <= 0.08 over 5 seeds "
        f"({[round(r, 4) for r in rmses]}, {elapsed:.0f}s total)"
    )


def test_criterion_09_ablation_direction(sine_splits, full_runs):
    results = {"full": [], "fixed-arch": [], "fixed-all": []}
    for seed in SEEDS:
        train_ds, test_ds = sine_splits[seed]
        results["full"].append(full_runs[seed]["test_rmse"])
        for mode in ("fixed-arch", "fixed-all"):
            best, _ = train(TrainingConfig(seed=seed, mode=TrainingMode(mode)), train_ds)
            results[mode].append(_test_rmse(best, test_ds))
    medians = {mode: float(np.median(vals)) for mode, vals in results.items()}
    assert medians["full"] <= medians["fixed-arch"] <= medians["fixed-all"], medians
    wins = sum(f < fa for f, fa in zip(results["full"], results["fixed-all"]))
    assert wins >= 4, (results["full"], results["fixed-all"])
    _passed(
        "criterion 9: median test RMSE ordered full "
        f"({medians['full']:.4f}) <= fixed-arch ({medians['fixed-arch']:.4f}) "
        f"<= fixed-all ({medians['fixed-all']:.4f}); full beats fixed-all in {wins}/5 seeds"
    )


def test_criterion_10_cli_determinism(tmp_path):
    # 4990 windows through a 10-10-10-1 network: one product over every row
    # would be large enough for OpenBLAS to split over two threads. Each call
    # runs in a fresh interpreter, since OpenBLAS reads its thread count once.
    trace, genome = tmp_path / "trace.csv", tmp_path / "genome.bin"
    write_trace_csv(trace, positive_trace(seed=10, points=5000))
    network.save_genome(random_genome(Architecture(10, (10, 10)), np.random.default_rng(10)), genome)
    src = str(Path(network.__file__).parents[1])
    forecasts = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads-{threads}"
        subprocess.run(
            [sys.executable, "-m", "qevo.cli", "predict", "--genome", str(genome),
             "--input", str(trace), "--pi-minutes", "1", "--out-dir", str(out)],
            env={**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": src},
            check=True, capture_output=True, timeout=120,
        )
        forecasts.append((out / "forecast.csv").read_bytes())
    assert forecasts[0] == forecasts[1]
    _passed("criterion 10: predict over 4990 windows writes a byte-identical forecast.csv"
            " under OPENBLAS_NUM_THREADS=1 and 2")


def test_criterion_11_real_trace_quality():
    path = os.environ.get("QEVO_GCD_TRACE")
    if not path:
        pytest.skip("QEVO_GCD_TRACE not set; real-trace check skipped, not failed")
    fmt = trace_io.TraceFormat(
        timestamp_col=os.environ.get("QEVO_GCD_TIMESTAMP_COL", "timestamp"),
        value_col=os.environ.get("QEVO_GCD_VALUE_COL", "value"),
    )
    trace = trace_io.parse_trace(path, fmt)
    series = trace_io.aggregate(trace, 5)
    params = dataset.fit_normalizer(series.values)
    windows = dataset.build_windows(dataset.normalize(series.values, params), 10)
    train_ds, test_ds = dataset.split(windows, 0.6)
    best, _ = train(TrainingConfig(seed=0), train_ds)
    score = _test_rmse(best, test_ds)
    assert score <= 0.10
    _passed(f"criterion 11: real-trace normalized test RMSE {score:.4f} <= 0.10")


def test_criterion_12_complexity_smoke():
    def make(points: int):
        values = sine_series(12, points=points)
        params = dataset.fit_normalizer(values)
        return dataset.build_windows(dataset.normalize(values, params), 10)

    def run(windows) -> float:
        config = TrainingConfig(population_size=10, generations=8, seed=12)
        started = time.perf_counter()
        train(config, windows)
        return time.perf_counter() - started

    small, big = make(3010), make(6020)
    run(small), run(big)  # warm both working-set sizes
    base_times, doubled_times = [], []
    for _ in range(3):  # interleave so machine noise hits both sizes alike
        base_times.append(run(small))
        doubled_times.append(run(big))
    ratio = min(doubled_times) / min(base_times)
    assert 1.6 <= ratio <= 2.6, f"ratio {ratio:.2f} outside the linear-in-m band"
    _passed(f"criterion 12: doubling training samples scaled wall time by {ratio:.2f} (in [1.6, 2.6])")
