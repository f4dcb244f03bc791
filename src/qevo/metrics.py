"""Forecast error metrics: RMSE (the training fitness), MAE, MAPE.

All metrics are computed on the normalized scale; MAPE is reported as a
fraction and floors |actual| at MAPE_FLOOR instead of silently dropping
zero actuals.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import EmptyInputError, LengthMismatchError

MAPE_FLOOR = 1e-8  # the smallest |actual| a MAPE term divides by


def _pair(actual, predicted) -> tuple[np.ndarray, np.ndarray]:
    a = np.asarray(actual, dtype=float)
    p = np.asarray(predicted, dtype=float)
    if a.shape != p.shape:
        raise LengthMismatchError(f"actual {a.shape} vs predicted {p.shape}")
    if a.size == 0:
        raise EmptyInputError("metrics need at least one point")
    return a.ravel(), p.ravel()


def rmse(actual, predicted) -> float:
    a, p = _pair(actual, predicted)
    d = a - p
    # The sum and division np.mean performs, without its dispatch overhead.
    return math.sqrt(np.add.reduce(d * d) / d.size)


def mae(actual, predicted) -> float:
    a, p = _pair(actual, predicted)
    return float(np.mean(np.abs(a - p)))


def mape(actual, predicted) -> float:
    """Mean absolute fractional error with |actual| floored at MAPE_FLOOR."""
    a, p = _pair(actual, predicted)
    return float(np.mean(np.abs(a - p) / np.maximum(np.abs(a), MAPE_FLOOR)))


def evaluate(actual, predicted) -> dict:
    a, p = _pair(actual, predicted)
    return {"rmse": rmse(a, p), "mae": mae(a, p), "mape": mape(a, p), "count": int(a.size)}
