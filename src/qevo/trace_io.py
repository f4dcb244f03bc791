"""Raw trace parsing and fixed-interval aggregation.

Traces are CSV-like files with one usage sample per row. A column mapping
names (or indexes) the timestamp and value columns so that different
cluster-trace exports and synthetic files all flow through one parser.
Aggregation buckets samples into prediction intervals and fills gaps by
linear interpolation so the downstream windowing sees a contiguous series.

Both stages hold their data as read-only float64 arrays: a trace is an
(x, 2) array of (timestamp, value) rows, a series a 1-d array of means.

A clean file, every row two finite, non-negative numbers that numpy's text
reader parses, goes through that reader in one C call. Every other file goes
through a csv row loop, which alone decides what a bad row is and which row
index to report. A clean file reads to the same bits on either path.

numpy's reader is given the file's path, not the open handle: from a path it
reads the file in chunks in C, from a handle one Python string per line. Its
path opener decompresses by file suffix, so a file named like a compressed
one goes to the row loop; every trace is read as plain text. Both readers
decode UTF-8 and drop a leading byte-order mark.
"""

from __future__ import annotations

import csv
import warnings
from array import array
from dataclasses import dataclass
from math import isfinite
from os.path import splitext
from pathlib import Path

import numpy as np

from .errors import (
    EmptyTraceError,
    InputError,
    MalformedRowError,
    SampleOverflowError,
    SparseTraceError,
    TimestampRangeError,
)

# `aggregate` allocates at most this many buckets per occupied bucket, so its
# memory stays bounded by the number of samples, not by their timestamps.
MAX_BUCKETS_PER_OCCUPIED = 100

# UTF-8, less a leading byte-order mark (as Excel's "CSV UTF-8" writes).
ENCODING = "utf-8-sig"
# The suffixes numpy's path opener decompresses by (`numpy.lib._datasource`).
COMPRESSED_SUFFIXES = frozenset({".gz", ".bz2", ".xz", ".lzma"})


@dataclass(frozen=True)
class TraceFormat:
    """Column mapping for a trace file.

    `timestamp_col` / `value_col` are header names when `header` is true,
    otherwise zero-based column indexes (integers, or strings of decimal
    digits after at most one "-"; any other string is a header name).
    `delimiter` is one character; any other raises InputError.
    """

    timestamp_col: str | int = "timestamp"
    value_col: str | int = "value"
    delimiter: str = ","
    header: bool = True

    def __post_init__(self):
        if not (isinstance(self.delimiter, str) and len(self.delimiter) == 1):
            raise InputError(f"delimiter must be one character, got {self.delimiter!r}")


@dataclass(frozen=True)
class RawTrace:
    """Timestamped usage samples.

    `samples` is a read-only (x, 2) float64 array of (seconds-since-epoch,
    usage) rows with strictly increasing timestamps and finite, non-negative
    values; at least two rows.
    """

    samples: np.ndarray

    def __post_init__(self):
        samples = np.array(self.samples, dtype=np.float64)  # a copy no caller can change
        samples.setflags(write=False)
        if len(samples) < 2:
            raise EmptyTraceError(f"trace needs at least 2 samples, got {len(samples)}")
        if samples.ndim != 2 or samples.shape[1] != 2:
            raise ValueError(f"samples must be (x, 2) rows, got shape {samples.shape}")
        if not np.isfinite(samples).all():
            raise ValueError("non-finite sample")
        if (samples[:, 1] < 0).any():
            raise ValueError("negative usage value")
        if not (np.diff(samples[:, 0]) > 0).all():
            raise ValueError("timestamps not strictly increasing")
        object.__setattr__(self, "samples", samples)


@dataclass(frozen=True)
class AggregatedSeries:
    """Per-interval usage means as a read-only float64 array."""

    values: np.ndarray

    def __post_init__(self):
        values = np.array(self.values, dtype=np.float64)
        values.setflags(write=False)
        if not np.isfinite(values).all():
            raise ValueError("aggregated values must be finite")
        object.__setattr__(self, "values", values)


def _resolve_column(mapping: str | int, fieldnames: list[str] | None, what: str) -> int:
    """Turn a column name or index into a positional index."""
    if isinstance(mapping, int):
        return mapping
    if isinstance(mapping, str) and mapping.removeprefix("-").isdecimal():
        return int(mapping)
    if fieldnames is None:
        raise InputError(f"{what} column {mapping!r} needs a header row")
    try:
        return fieldnames.index(mapping)
    except ValueError:
        raise InputError(f"{what} column {mapping!r} not found in header {fieldnames}")


def _load_clean_rows(
    path: Path, delimiter: str, t_idx: int, v_idx: int, skiprows: int
) -> tuple[np.ndarray, np.ndarray] | None:
    """The (times, values) columns of the file at `path` past its first
    `skiprows` physical lines, in one call to numpy's C reader, or None when
    the row loop has to read the file.

    The reader gets the path because only then does it read the file in
    chunks; from a handle it takes one Python string per line. A path whose
    suffix numpy would decompress by gives None, as the file is plain text.

    The reader splits cells as csv does (quoted cells, no comment syntax) and
    parses them with the `float()` grammar minus underscores and non-ASCII
    digits, which make it raise. So whenever it reads every row into finite,
    non-negative samples, the row loop reads the same bits. It gives None when
    it raises (on a faulty or blank row, among others), when it reads no
    rows, and for negative column indexes, which only the row loop resolves.
    """
    if t_idx < 0 or v_idx < 0 or splitext(path)[1] in COMPRESSED_SUFFIXES:
        return None
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # "input contained no data"
            rows = np.loadtxt(
                path, delimiter=delimiter, comments=None, quotechar='"',
                usecols=(t_idx, v_idx), dtype=np.float64, ndmin=2,
                skiprows=skiprows, encoding=ENCODING,
            )
    except UnicodeDecodeError:
        raise  # the row loop could not read the file either
    except (TypeError, ValueError):
        return None
    if not len(rows) or not np.isfinite(rows).all() or (rows[:, 1] < 0).any():
        return None
    return rows[:, 0], rows[:, 1]


def _read_rows(reader, t_idx: int, v_idx: int) -> tuple[array, array]:
    """The (times, values) columns of the rows left in a csv reader, checked
    row by row; the first faulty row raises MalformedRowError with its 1-based
    data row index."""
    # Plain float64 buffers: no Python object per row outlives its row.
    times, values = array("d"), array("d")
    # Index i needs i + 1 columns; a negative index -k needs k.
    needed = max(i + 1 if i >= 0 else -i for i in (t_idx, v_idx))
    add_time, add_value = times.append, values.append
    row_index = 0
    try:
        for row_index, row in enumerate(reader, start=1):
            try:
                t = float(row[t_idx])
                v = float(row[v_idx])
            except (IndexError, ValueError) as exc:
                if all(not cell.strip() for cell in row):
                    continue
                if len(row) < needed:
                    raise MalformedRowError(row_index, f"expected >= {needed} columns, got {len(row)}")
                raise MalformedRowError(row_index, str(exc))
            if not (isfinite(t) and isfinite(v)):
                raise MalformedRowError(row_index, f"non-finite sample ({t}, {v})")
            if v < 0:
                raise MalformedRowError(row_index, f"negative usage value {v}")
            add_time(t)
            add_value(v)
    except csv.Error as exc:  # raised while reading the row after the last one read
        raise MalformedRowError(row_index + 1, str(exc)) from None
    return times, values


def parse_trace(path: str | Path, fmt: TraceFormat | None = None) -> RawTrace:
    """Parse a trace file into a RawTrace.

    Rows are sorted by timestamp and duplicate timestamps are averaged, adding
    in file order. Rows that are empty or whose cells are all blank are
    skipped. A leading byte-order mark is dropped, and the file is read as
    plain text whatever its suffix. Raises FileNotFoundError, InputError for
    an unknown column, a file that is not UTF-8 or an unreadable header,
    MalformedRowError (with the 1-based data row index), SampleOverflowError
    when the values of one timestamp sum past the float64 range, or
    EmptyTraceError.
    """
    fmt = fmt or TraceFormat()
    path = Path(path)
    if not path.is_file():
        raise FileNotFoundError(f"trace file not found: {path}")

    try:
        with path.open(newline="", encoding=ENCODING) as fh:
            reader = csv.reader(fh, delimiter=fmt.delimiter)
            fieldnames = None
            if fmt.header:
                try:
                    fieldnames = [c.strip() for c in next(reader)]
                except StopIteration:
                    raise EmptyTraceError(f"no rows in {path}")
            t_idx = _resolve_column(fmt.timestamp_col, fieldnames, "timestamp")
            v_idx = _resolve_column(fmt.value_col, fieldnames, "value")

            # line_num counts the physical lines the header took.
            columns = _load_clean_rows(path, fmt.delimiter, t_idx, v_idx, reader.line_num)
            if columns is None:
                fh.seek(0)  # the decoder skips the byte-order mark again
                reader = csv.reader(fh, delimiter=fmt.delimiter)
                if fmt.header:
                    next(reader)
                columns = _read_rows(reader, t_idx, v_idx)
    except UnicodeDecodeError as exc:
        raise InputError.not_utf8(path, exc) from None
    except csv.Error as exc:  # _read_rows reports its own rows
        raise InputError(f"{path}: header row: {exc}") from None
    times, values = columns

    if not len(times):
        raise EmptyTraceError(f"no data rows in {path}")
    # return_index makes numpy sort stably, so a timestamp keeps its first
    # spelling (-0.0 or 0.0), and bincount adds each group in file order.
    unique, _, inverse = np.unique(times, return_index=True, return_inverse=True)
    means = np.bincount(inverse, weights=values) / np.bincount(inverse)
    if not np.isfinite(means).all():
        t = float(unique[np.argmin(np.isfinite(means))])
        raise SampleOverflowError(f"values at timestamp {t!r} sum past the float64 range")
    return RawTrace(samples=np.column_stack([unique, means]))


def aggregate(trace: RawTrace, interval_minutes: int) -> AggregatedSeries:
    """Bucket a trace into interval means.

    Bucket b covers [b*PI, (b+1)*PI) on the absolute time axis; the output
    runs from the first to the last occupied bucket. Empty interior buckets
    are filled by linear interpolation between their non-empty neighbours;
    empty edge buckets copy the nearest non-empty value. Raises
    SparseTraceError, before allocating, when the series would span more
    than MAX_BUCKETS_PER_OCCUPIED buckets per occupied one, and
    SampleOverflowError when the values of one bucket sum past the float64
    range, and InputError when the interval in seconds is past it.
    """
    if interval_minutes < 1:
        raise ValueError("interval_minutes must be >= 1")
    try:
        width = interval_minutes * 60.0
    except OverflowError:  # an int past the float range
        width = float("inf")
    if not isfinite(width):
        raise InputError("interval_minutes is too large: its length in seconds is past the float64 range")
    times, values = trace.samples[:, 0], trace.samples[:, 1]

    ids = np.floor(times / width)  # sorted, as the timestamps are
    for t, bucket in ((times[0], ids[0]), (times[-1], ids[-1])):
        if not -(2.0**63) <= bucket < 2.0**63:
            raise TimestampRangeError(
                f"timestamp {float(t)!r} s is too far from 0 to number its "
                f"{interval_minutes}-minute bucket as a 64-bit integer"
            )
    buckets = ids.astype(np.int64)
    first, last = int(buckets[0]), int(buckets[-1])
    n_buckets = last - first + 1
    occupied_count = 1 + np.count_nonzero(np.diff(buckets))
    if n_buckets > MAX_BUCKETS_PER_OCCUPIED * occupied_count:
        steps = np.diff(buckets)
        k = int(np.argmax(steps))
        raise SparseTraceError(
            f"timestamps {float(times[k])!r} and {float(times[k + 1])!r} s leave "
            f"{int(steps[k]) - 1} empty {interval_minutes}-minute buckets between them; "
            f"the series would span {n_buckets} buckets for {occupied_count} occupied "
            f"(at most {MAX_BUCKETS_PER_OCCUPIED}x)"
        )
    # bincount adds each bucket in file order; an overflowed sum is inf,
    # reported below.
    sums = np.bincount(buckets - first, weights=values, minlength=n_buckets)
    counts = np.bincount(buckets - first, minlength=n_buckets)

    if not np.isfinite(sums).all():
        start = (first + int(np.argmin(np.isfinite(sums)))) * width
        raise SampleOverflowError(
            f"values of the bucket starting at {start!r} s sum past the float64 range"
        )
    occupied = counts > 0
    means = np.full(n_buckets, np.nan)
    means[occupied] = sums[occupied] / counts[occupied]
    if not occupied.all():
        idx = np.arange(n_buckets)
        means = np.interp(idx, idx[occupied], means[occupied])

    return AggregatedSeries(values=means)
