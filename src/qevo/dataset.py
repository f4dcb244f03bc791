"""Min-max normalization and sliding-window dataset construction.

The aggregated series is scaled to [0, 1] with one normalizer fitted on the
full series, then reshaped into overlapping lag windows: row i holds the n
values starting at index i and the target is the value right after the
window. Splits are chronological; forecasting never shuffles time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConstantSeriesError, EmptyPartitionError, SeriesTooShortError


@dataclass(frozen=True)
class NormalizationParams:
    d_min: float
    d_max: float

    def __post_init__(self):
        if not (math.isfinite(self.d_min) and math.isfinite(self.d_max)):
            raise ValueError("normalization bounds must be finite")
        if self.d_max <= self.d_min:
            raise ConstantSeriesError(
                f"d_max ({self.d_max}) must exceed d_min ({self.d_min})"
            )
        if not math.isfinite(self.d_max - self.d_min):
            raise ValueError("normalization span d_max - d_min must be finite")


@dataclass(frozen=True)
class WindowedDataset:
    """Lag-window inputs (x rows of n values each) and next-step targets."""

    inputs: np.ndarray
    targets: np.ndarray

    def __post_init__(self):
        inputs = np.asarray(self.inputs, dtype=float)
        targets = np.asarray(self.targets, dtype=float)
        if inputs.ndim != 2 or inputs.shape[1] < 1:
            raise ValueError("inputs must be (x, n) with n >= 1")
        if targets.shape != (inputs.shape[0],):
            raise ValueError("targets length must match input rows")
        if inputs.size and (inputs.min() < 0.0 or inputs.max() > 1.0):
            raise ValueError("inputs must lie in [0, 1]")
        if targets.size and (targets.min() < 0.0 or targets.max() > 1.0):
            raise ValueError("targets must lie in [0, 1]")
        inputs.setflags(write=False)
        targets.setflags(write=False)
        object.__setattr__(self, "inputs", inputs)
        object.__setattr__(self, "targets", targets)

    def __len__(self) -> int:
        return self.inputs.shape[0]

    @property
    def window_size(self) -> int:
        return self.inputs.shape[1]


def fit_normalizer(series: Sequence[float]) -> NormalizationParams:
    """Fit min-max bounds on a series; constant series are rejected."""
    values = np.asarray(series, dtype=float)
    if values.size < 2:
        raise SeriesTooShortError("need at least 2 values to fit a normalizer")
    d_min, d_max = float(values.min()), float(values.max())
    if d_max == d_min:
        raise ConstantSeriesError(f"series is constant at {d_min}")
    return NormalizationParams(d_min=d_min, d_max=d_max)


def normalize(value, params: NormalizationParams):
    """Scale to [0, 1]; out-of-range values (possible at test time) clamp."""
    scaled = (np.asarray(value, dtype=float) - params.d_min) / (
        params.d_max - params.d_min
    )
    clamped = np.clip(scaled, 0.0, 1.0)
    return float(clamped) if np.isscalar(value) else clamped


def denormalize(value, params: NormalizationParams):
    """Exact inverse of `normalize` on in-range values."""
    raw = np.asarray(value, dtype=float) * (params.d_max - params.d_min) + params.d_min
    return float(raw) if np.isscalar(value) else raw


def check_windows(length: int, window_size: int) -> int:
    """The window size n as an int, once a series of `length` values is known
    to give at least one lag window with a target (length >= n + 1)."""
    n = int(window_size)
    if n < 1:
        raise ValueError("window_size must be >= 1")
    if length < n + 1:
        raise SeriesTooShortError(
            f"series of length {length} too short for window {n} (need >= {n + 1})"
        )
    return n


def build_windows(normalized: Sequence[float], window_size: int) -> WindowedDataset:
    """Build the lag matrix: row i = values[i : i+n], target i = values[i+n]."""
    values = np.asarray(normalized, dtype=float)
    n = check_windows(values.size, window_size)
    windows = np.lib.stride_tricks.sliding_window_view(values, n)
    return WindowedDataset(inputs=windows[:-1].copy(), targets=values[n:].copy())


def split(
    dataset: WindowedDataset, train_fraction: float
) -> tuple[WindowedDataset, WindowedDataset]:
    """Chronological split: first floor(x*fraction) rows train, rest test.

    The cut is clamped so both partitions keep at least one row.
    """
    if not 0.0 < train_fraction < 1.0:
        raise ValueError("train_fraction must be in (0, 1)")
    x = len(dataset)
    if x < 2:
        raise EmptyPartitionError(f"cannot split {x} rows into two non-empty parts")
    cut = min(max(int(math.floor(x * train_fraction)), 1), x - 1)
    make = lambda lo, hi: WindowedDataset(
        inputs=dataset.inputs[lo:hi].copy(), targets=dataset.targets[lo:hi].copy()
    )
    return make(0, cut), make(cut, x)
