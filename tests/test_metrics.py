import math

import numpy as np
import pytest

from qevo import metrics
from qevo.errors import EmptyInputError, LengthMismatchError


def test_rmse_examples():
    assert metrics.rmse([1.0, 2.0], [1.0, 2.0]) == 0.0
    assert metrics.rmse([0.0, 0.0], [1.0, 1.0]) == pytest.approx(1.0)
    assert metrics.rmse([0.2, 0.4], [0.3, 0.5]) == pytest.approx(0.1)


def test_mae_examples():
    assert metrics.mae([1.0, 2.0], [1.0, 2.0]) == 0.0
    assert metrics.mae([0.0, 1.0], [1.0, 0.0]) == pytest.approx(1.0)
    assert metrics.mae([0.2, 0.4], [0.3, 0.6]) == pytest.approx(0.15)


def test_mape_examples():
    assert metrics.mape([1.0, 2.0], [1.0, 2.0]) == 0.0
    assert metrics.mape([1.0, 1.0], [0.9, 1.1]) == pytest.approx(0.1, abs=1e-12)


def test_mape_zero_actual_guard():
    # the floor is visible, not hidden: |0 - 0.5| / 1e-8
    assert metrics.mape([0.0], [0.5]) == pytest.approx(0.5 / 1e-8)


def test_error_cases():
    with pytest.raises(LengthMismatchError):
        metrics.rmse([1.0], [1.0, 2.0])
    with pytest.raises(EmptyInputError):
        metrics.mae([], [])


def test_metrics_match_brute_force():
    rng = np.random.default_rng(0)
    for _ in range(200):
        m = int(rng.integers(1, 40))
        a = rng.uniform(-2, 2, m)
        p = rng.uniform(-2, 2, m)
        brute_rmse = math.sqrt(sum((ai - pi) ** 2 for ai, pi in zip(a, p)) / m)
        brute_mae = sum(abs(ai - pi) for ai, pi in zip(a, p)) / m
        brute_mape = sum(abs(ai - pi) / max(abs(ai), 1e-8) for ai, pi in zip(a, p)) / m
        assert abs(metrics.rmse(a, p) - brute_rmse) <= 1e-12
        assert abs(metrics.mae(a, p) - brute_mae) <= 1e-12
        assert abs(metrics.mape(a, p) - brute_mape) <= 1e-9 * max(1.0, brute_mape)
        assert metrics.rmse(a, p) >= metrics.mae(a, p)


def test_evaluate_bundle():
    result = metrics.evaluate([0.2, 0.4], [0.3, 0.5])
    assert result["rmse"] == pytest.approx(0.1)
    assert result["count"] == 2
    assert result["mae"] <= result["rmse"]
    assert set(result) == {"rmse", "mae", "mape", "count"}
