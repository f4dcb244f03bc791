import numpy as np
import pytest

from qevo import dataset
from qevo.errors import ConstantSeriesError, EmptyPartitionError, SeriesTooShortError


def test_fit_normalizer_min_max():
    params = dataset.fit_normalizer([2.0, 4.0, 6.0])
    assert (params.d_min, params.d_max) == (2.0, 6.0)


def test_fit_normalizer_constant_series():
    with pytest.raises(ConstantSeriesError):
        dataset.fit_normalizer([5.0, 5.0, 5.0])


def test_fit_normalizer_negative_values():
    params = dataset.fit_normalizer([-1.0, 0.0, 3.0])
    assert (params.d_min, params.d_max) == (-1.0, 3.0)


def test_normalize_values():
    params = dataset.NormalizationParams(2.0, 6.0)
    assert dataset.normalize(4.0, params) == 0.5
    assert dataset.normalize(2.0, params) == 0.0
    assert dataset.normalize(7.0, params) == 1.0  # clamped


def test_denormalize_values():
    params = dataset.NormalizationParams(2.0, 6.0)
    assert dataset.denormalize(0.5, params) == 4.0
    assert dataset.denormalize(0.0, params) == 2.0


def test_normalize_round_trip():
    rng = np.random.default_rng(0)
    params = dataset.NormalizationParams(-3.0, 11.0)
    xs = rng.uniform(-3.0, 11.0, 500)
    back = dataset.denormalize(dataset.normalize(xs, params), params)
    assert np.max(np.abs(back - xs)) <= 1e-12


def test_build_windows_layout():
    ds = dataset.build_windows([0.1, 0.2, 0.3, 0.4, 0.5], 2)
    assert ds.inputs.tolist() == [[0.1, 0.2], [0.2, 0.3], [0.3, 0.4]]
    assert ds.targets.tolist() == [0.3, 0.4, 0.5]


def test_build_windows_too_short():
    with pytest.raises(SeriesTooShortError):
        dataset.build_windows([0.1, 0.2, 0.3], 3)


def test_build_windows_smallest():
    ds = dataset.build_windows([0.1, 0.5, 0.9], 1)
    assert ds.inputs.tolist() == [[0.1], [0.5]]
    assert ds.targets.tolist() == [0.5, 0.9]


def test_window_overlap_consistency():
    rng = np.random.default_rng(7)
    values = rng.random(60)
    ds = dataset.build_windows(values, 8)
    for i in range(len(ds) - 1):
        assert np.array_equal(ds.inputs[i][1:], ds.inputs[i + 1][:-1])


@pytest.mark.parametrize("fraction,expected", [(0.6, (6, 4)), (0.8, (8, 2))])
def test_split_fractions(fraction, expected):
    ds = dataset.build_windows(np.linspace(0, 1, 12), 2)
    assert len(ds) == 10
    train, test = dataset.split(ds, fraction)
    assert (len(train), len(test)) == expected


def test_split_clamps_to_keep_test_row():
    ds = dataset.build_windows(np.linspace(0, 1, 4), 2)
    assert len(ds) == 2
    train, test = dataset.split(ds, 0.9)
    assert (len(train), len(test)) == (1, 1)


def test_split_rejects_single_row():
    ds = dataset.build_windows([0.0, 0.5, 1.0], 2)
    with pytest.raises(EmptyPartitionError):
        dataset.split(ds, 0.5)


def test_split_preserves_rows_and_order():
    rng = np.random.default_rng(2)
    ds = dataset.build_windows(rng.random(40), 5)
    train, test = dataset.split(ds, 0.7)
    assert len(train) + len(test) == len(ds)
    assert np.array_equal(np.vstack([train.inputs, test.inputs]), ds.inputs)
    assert np.array_equal(np.concatenate([train.targets, test.targets]), ds.targets)


def test_windowed_dataset_rejects_out_of_range():
    with pytest.raises(ValueError):
        dataset.WindowedDataset(inputs=np.array([[1.5]]), targets=np.array([0.5]))
