import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qevo import testkit
from qevo.errors import EmptyTraceError, InputError, MalformedRowError, SampleOverflowError
from qevo.trace_io import AggregatedSeries, RawTrace, TraceFormat, aggregate, parse_trace


def make_trace(samples):
    return RawTrace(samples=samples)


def test_parse_basic(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("t,v\n0,2\n300,4\n")
    trace = parse_trace(path, TraceFormat(timestamp_col="t", value_col="v"))
    assert trace.samples.tolist() == [[0.0, 2.0], [300.0, 4.0]]


def test_parse_sorts_rows(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("t,v\n300,4\n0,2\n")
    trace = parse_trace(path, TraceFormat(timestamp_col="t", value_col="v"))
    assert trace.samples.tolist() == [[0.0, 2.0], [300.0, 4.0]]


def test_parse_malformed_row_names_index(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("t,v\nabc,4\n0,2\n")
    with pytest.raises(MalformedRowError) as excinfo:
        parse_trace(path, TraceFormat(timestamp_col="t", value_col="v"))
    assert excinfo.value.row_index == 1
    assert "row 1" in str(excinfo.value)


def test_parse_missing_file(tmp_path):
    with pytest.raises(FileNotFoundError):
        parse_trace(tmp_path / "nope.csv")


def test_parse_empty_trace(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("t,v\n")
    with pytest.raises(EmptyTraceError):
        parse_trace(path, TraceFormat(timestamp_col="t", value_col="v"))


def test_parse_duplicate_timestamps_averaged(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("t,v\n0,2\n0,4\n60,6\n")
    trace = parse_trace(path, TraceFormat(timestamp_col="t", value_col="v"))
    assert trace.samples.tolist() == [[0.0, 3.0], [60.0, 6.0]]


def test_parse_headerless_by_index(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("0;2\n60;4\n")
    fmt = TraceFormat(timestamp_col=0, value_col=1, delimiter=";", header=False)
    assert parse_trace(path, fmt).samples.tolist() == [[0.0, 2.0], [60.0, 4.0]]


def test_parse_unknown_column(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("t,v\n0,2\n")
    with pytest.raises(InputError):
        parse_trace(path, TraceFormat(timestamp_col="missing", value_col="v"))


def test_parse_negative_value_rejected(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("t,v\n0,-2\n60,4\n")
    with pytest.raises(MalformedRowError):
        parse_trace(path, TraceFormat(timestamp_col="t", value_col="v"))


def test_raw_trace_needs_two_samples():
    with pytest.raises(EmptyTraceError):
        make_trace([(0.0, 1.0)])


def test_aggregate_single_bucket_mean():
    trace = make_trace([(0.0, 2.0), (300.0, 4.0)])  # minutes 0 and 5
    assert aggregate(trace, 10).values.tolist() == [3.0]


def test_aggregate_two_bucket_means():
    trace = make_trace([(0.0, 2.0), (300.0, 4.0), (600.0, 6.0), (900.0, 8.0)])
    assert aggregate(trace, 10).values.tolist() == [3.0, 7.0]


def test_aggregate_interpolates_empty_bucket():
    # occupied buckets 0 and 2 with values 1 and 5; the gap is the
    # linear interpolation oracle np.interp([1], [0, 2], [1, 5]) = 3
    trace = make_trace([(0.0, 1.0), (120.0, 5.0)])
    expected_mid = float(np.interp(1, [0, 2], [1.0, 5.0]))
    assert aggregate(trace, 1).values.tolist() == [1.0, expected_mid, 5.0]


def test_aggregate_identity_at_native_interval():
    values = [2.0, 4.0, 1.0, 7.0, 3.0]
    trace = make_trace([(i * 60.0, v) for i, v in enumerate(values)])
    assert aggregate(trace, 1).values.tolist() == values


def test_aggregate_matches_external_bucket_means():
    rng = np.random.default_rng(11)
    times = np.unique(np.sort(rng.uniform(0, 7200, 200)))
    values = rng.uniform(0, 10, times.size)
    trace = make_trace(list(zip(times, values)))
    pi = 7
    out = np.array(aggregate(trace, pi).values)

    width = pi * 60.0
    buckets = np.floor(times / width).astype(int)
    first, last = buckets.min(), buckets.max()
    assert out.size == last - first + 1
    for b in range(first, last + 1):
        mask = buckets == b
        if mask.any():
            assert out[b - first] == pytest.approx(values[mask].mean(), abs=1e-12)


def test_aggregate_output_length():
    rng = np.random.default_rng(3)
    for _ in range(20):
        times = np.unique(np.sort(rng.uniform(0, 5000, 40)))
        trace = make_trace([(t, 1.0) for t in times])
        pi = int(rng.integers(1, 9))
        width = pi * 60.0
        expected = int(times[-1] // width) - int(times[0] // width) + 1
        assert len(aggregate(trace, pi).values) == expected


def test_aggregated_series_validation():
    with pytest.raises(ValueError):
        AggregatedSeries(interval_minutes=0, values=(1.0,))
    with pytest.raises(ValueError):
        AggregatedSeries(interval_minutes=1, values=(float("nan"),))


def test_trace_columns_are_read_only_float_arrays():
    trace = make_trace([(0.0, 1.0), (120.0, 5.0)])
    series = aggregate(trace, 1)
    for array, shape in ((trace.samples, (2, 2)), (series.values, (3,))):
        assert array.dtype == np.float64 and array.shape == shape
        assert not array.flags.writeable


@pytest.mark.parametrize(
    "samples",
    [
        [(0.0, 1.0), (0.0, 2.0)],  # timestamps not strictly increasing
        [(0.0, 1.0), (60.0, -1.0)],
        [(0.0, 1.0), (60.0, float("inf"))],
        [(0.0, 1.0, 2.0), (60.0, 1.0, 2.0)],  # not (x, 2)
    ],
)
def test_raw_trace_validation(samples):
    with pytest.raises(ValueError):
        make_trace(samples)


def test_parse_duplicate_sum_overflow_is_an_input_error(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("t,v\n0,1e308\n0,1e308\n60,1\n")
    with pytest.raises(SampleOverflowError, match="timestamp 0.0") as excinfo:
        parse_trace(path, TraceFormat(timestamp_col="t", value_col="v"))
    assert isinstance(excinfo.value, InputError)


def test_aggregate_bucket_sum_overflow_is_an_input_error():
    trace = make_trace([(0.0, 1e308), (30.0, 1e308), (120.0, 1.0)])
    with pytest.raises(SampleOverflowError, match="starting at 0.0 s") as excinfo:
        aggregate(trace, 1)
    assert isinstance(excinfo.value, InputError)


def test_parse_reports_the_first_faulty_row(tmp_path):
    # A negative value on row 2 is reported before the unparsable row 3.
    path = tmp_path / "t.csv"
    path.write_text("t,v\n0,2\n60,-1\n120,abc\n")
    with pytest.raises(MalformedRowError) as excinfo:
        parse_trace(path, TraceFormat(timestamp_col="t", value_col="v"))
    assert excinfo.value.row_index == 2


def test_parse_row_index_counts_skipped_blank_rows(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("t,v\n0,2\n\n , \n60,nan\n")
    with pytest.raises(MalformedRowError) as excinfo:
        parse_trace(path, TraceFormat(timestamp_col="t", value_col="v"))
    assert excinfo.value.row_index == 4


_TIMES = ["0", "60", "120", "180", "-0", "0.0", "1e2", " 60 ", '"120"', "-60", "1_2_0"]
_VALUES = st.one_of(
    st.sampled_from(["1", "0.1", "0.2", "0.3", " 3 ", '"4"', "-0", "1e308"]),
    st.floats(0.0, 100.0).map(repr),
)
_BAD_TIMES = ["abc", "", " ", "inf", "nan"]
_BAD_VALUES = ["-1", "", "nan", "-inf", "x", "1e309"]


@st.composite
def trace_rows(draw):
    """One data row as cells. About one row in twelve is faulty: short, or an
    unparsable, non-finite or negative cell. The others are full rows (some
    with an extra cell), empty lines or rows of blank cells."""
    time, value = draw(st.sampled_from(_TIMES)), draw(_VALUES)
    if draw(st.integers(0, 11)) == 0:
        fault = draw(st.sampled_from(["short", "time", "value"]))
        if fault == "short":
            return [time]
        if fault == "time":
            return [draw(st.sampled_from(_BAD_TIMES)), value]
        return [time, draw(st.sampled_from(_BAD_VALUES))]
    kind = draw(st.sampled_from(["full", "full", "full", "extra", "empty", "blank"]))
    if kind == "empty":
        return []
    if kind == "blank":
        return [" "] * draw(st.integers(1, 3))
    return [time, value, "z"] if kind == "extra" else [time, value]


@settings(max_examples=300, deadline=None)
@given(rows=st.lists(trace_rows(), max_size=12), swap=st.booleans())
def test_parse_matches_the_row_by_row_reference(rows, swap):
    """Same samples bit for bit as the reference, or the same error type on
    the same data row."""
    header = ["value", "timestamp"] if swap else ["timestamp", "value"]
    lines = [",".join(header)] + [",".join(row[1::-1] + row[2:] if swap else row) for row in rows]
    fmt = TraceFormat()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "trace.csv"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        try:
            expected = testkit.reference_parse_trace(path, fmt)
        except (MalformedRowError, EmptyTraceError) as exc:
            with pytest.raises(type(exc)) as excinfo:
                parse_trace(path, fmt)
            assert getattr(excinfo.value, "row_index", None) == getattr(exc, "row_index", None)
            return
        expected = np.array(expected, dtype=np.float64).reshape(-1, 2)
        # A duplicate mean that overflowed is a typed input error, raised
        # before RawTrace rejects a single sample.
        if not np.isfinite(expected).all():
            with pytest.raises(SampleOverflowError):
                parse_trace(path, fmt)
            return
        if len(expected) < 2:
            with pytest.raises(EmptyTraceError):
                parse_trace(path, fmt)
            return
        samples = parse_trace(path, fmt).samples
    assert samples.tobytes() == expected.tobytes()


def test_parse_duplicate_timestamp_keeps_its_first_spelling(tmp_path):
    # -0 and 0 are one timestamp; the first row's -0.0 is kept, bit for bit.
    # An unstable sort hands back the 0.0 of a later row on this input.
    times = "-0 120 0 -60 -60 0 0 60 120 -120 120 0 -60 60 0".split()
    path = tmp_path / "t.csv"
    path.write_text("t,v\n" + "".join(f"{t},1\n" for t in times))
    samples = parse_trace(path, TraceFormat(timestamp_col="t", value_col="v")).samples
    assert samples[:, 0].tolist() == [-120.0, -60.0, 0.0, 60.0, 120.0]
    assert np.signbit(samples[2, 0])
