import csv
import re
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qevo import testkit, trace_io
from qevo.errors import (
    EmptyTraceError,
    InputError,
    MalformedRowError,
    SampleOverflowError,
    SparseTraceError,
    TimestampRangeError,
)
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
    path.write_bytes(b"")  # not even the header
    with pytest.raises(EmptyTraceError, match="no rows"):
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


@pytest.mark.parametrize("delimiter", ["", ";;", None])
def test_parse_a_delimiter_that_is_not_one_character_is_an_input_error(tmp_path, delimiter):
    path = tmp_path / "t.csv"
    path.write_text("t;v\n0;2\n60;4\n")
    with pytest.raises(InputError, match="delimiter must be one character"):
        parse_trace(path, TraceFormat(timestamp_col="t", value_col="v", delimiter=delimiter))


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
        aggregate(make_trace([(0.0, 1.0), (60.0, 2.0)]), 0)
    with pytest.raises(ValueError):
        AggregatedSeries(values=(float("nan"),))


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


def test_aggregate_refuses_a_sparse_trace_before_allocating():
    # 6e8 s at one-minute buckets asks for 10 million buckets for 2 samples.
    trace = make_trace([(0.0, 1.0), (6e8, 2.0)])
    tracemalloc.start()
    try:
        with pytest.raises(SparseTraceError, match="timestamps 0.0 and 600000000.0 s") as excinfo:
            aggregate(trace, 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert isinstance(excinfo.value, InputError)
    assert peak < 2 * 2**20


def test_aggregate_allows_up_to_the_sparsity_limit():
    # Two occupied buckets may span 2 * MAX_BUCKETS_PER_OCCUPIED.
    limit = 2 * trace_io.MAX_BUCKETS_PER_OCCUPIED
    trace = make_trace([(0.0, 1.0), ((limit - 1) * 60.0, 2.0)])
    assert len(aggregate(trace, 1).values) == limit
    with pytest.raises(SparseTraceError):
        aggregate(make_trace([(0.0, 1.0), (limit * 60.0, 2.0)]), 1)


@pytest.mark.parametrize(
    "samples, named",
    [
        ([(1e300, 1.0), (2e300, 2.0)], 1e300),
        ([(-2e300, 1.0), (0.0, 2.0)], -2e300),
        ([(0.0, 1.0), (2.0**63 * 60.0, 2.0)], 2.0**63 * 60.0),
    ],
)
def test_aggregate_refuses_bucket_numbers_past_int64(samples, named):
    # Bucket numbers past int64 would wrap in the cast and share a bucket.
    with pytest.raises(TimestampRangeError, match=re.escape(f"timestamp {named!r} s")) as excinfo:
        aggregate(make_trace(samples), 1)
    assert isinstance(excinfo.value, InputError)


def test_parse_a_header_that_is_not_utf8_is_an_input_error(tmp_path):
    path = tmp_path / "t.csv"
    path.write_bytes(b"timestamp,val\xffue\n0,1\n60,2\n")
    with pytest.raises(InputError, match="is not UTF-8 text") as excinfo:
        parse_trace(path)
    assert str(path) in str(excinfo.value)


@pytest.mark.parametrize("reader", ["numpy", "row loop"])
def test_parse_a_row_that_is_not_utf8_is_an_input_error(tmp_path, monkeypatch, reader):
    # The bad byte lies past the first chunk the header read decodes, so the
    # reader of the data rows meets it.
    path = tmp_path / "t.csv"
    rows = b"".join(b"%d,1\n" % (60 * i) for i in range(5000))
    path.write_bytes(b"timestamp,value\n" + rows + b"300000,\xff\n")

    def row_loop(*args):
        raise AssertionError("the row loop ran after numpy's reader met the bad byte")

    if reader == "numpy":
        monkeypatch.setattr(trace_io, "_read_rows", row_loop)
    else:
        monkeypatch.setattr(trace_io, "_load_clean_rows", lambda *args: None)
    with pytest.raises(InputError, match="is not UTF-8 text") as excinfo:
        parse_trace(path)
    assert str(path) in str(excinfo.value)


def test_parse_a_cell_past_the_csv_field_limit_is_a_malformed_row(tmp_path):
    # The whitespace-only line sends the file to the row loop, and counts.
    path = tmp_path / "t.csv"
    long_cell = "x" * (csv.field_size_limit() + 1)
    path.write_text(f"t,v,note\n0,1,a\n \n60,2,{long_cell}\n120,3,b\n")
    with pytest.raises(MalformedRowError, match="field limit") as excinfo:
        parse_trace(path, TraceFormat(timestamp_col="t", value_col="v"))
    assert excinfo.value.row_index == 3


def test_parse_a_header_past_the_csv_field_limit_is_an_input_error(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text(f"t,v,{'x' * (csv.field_size_limit() + 1)}\n0,1,a\n60,2,b\n")
    with pytest.raises(InputError, match="header row") as excinfo:
        parse_trace(path, TraceFormat(timestamp_col="t", value_col="v"))
    assert str(path) in str(excinfo.value)


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


# Unicode digits and underscores are valid `float()` input that numpy's
# reader rejects.
_TIMES = ["0", "60", "120", "180", "-0", "0.0", "1e2", " 60 ", '"120"', "-60", "1_2_0", "١٢٠"]
_VALUES = st.one_of(
    st.sampled_from(["1", "0.1", "0.2", "0.3", " 3 ", '"4"', "-0", "1e308", "1_0", "٣"]),
    st.floats(0.0, 100.0).map(repr),
)
_BAD_TIMES = ["abc", "", " ", "inf", "nan", "#1", ' "60"']
_BAD_VALUES = ["-1", "", "nan", "-inf", "x", "1e309", "# 1"]
# Cells of the columns before the used ones: quoted cells holding the
# delimiter, a newline or doubled quotes, stray quotes and `#` cells. "{d}"
# stands for the file's delimiter, here and in the blank lines below.
_LEAD_CELLS = [
    '"a{d}b"', '"a\nb"', '"a\r\nb"', '"a""b"', '""', 'a"b', '"x"y', "#c", "# 1", "", "note", "5",
]
# Lines whose cells are all blank; the row loop skips them.
_BLANK_LINES = ["", " ", "\t", "\x0b", "{d}", " {d} ", "{d}{d}"]


@st.composite
def trace_rows(draw):
    """One data row as cells, without the lead cells, or a blank line as a
    string. About one row in twelve is faulty: short, or an unparsable,
    non-finite or negative cell. The others are full rows (some with an extra
    cell) or blank lines."""
    time, value = draw(st.sampled_from(_TIMES)), draw(_VALUES)
    if draw(st.integers(0, 11)) == 0:
        fault = draw(st.sampled_from(["short", "time", "value"]))
        if fault == "short":
            return [time]
        if fault == "time":
            return [draw(st.sampled_from(_BAD_TIMES)), value]
        return [time, draw(st.sampled_from(_BAD_VALUES))]
    kind = draw(st.sampled_from(["full", "full", "full", "extra", "blank"]))
    if kind == "blank":
        return draw(st.sampled_from(_BLANK_LINES))
    if kind == "extra":
        return [time, value, draw(st.sampled_from(["z", "7"]))]
    return [time, value]


@st.composite
def trace_files(draw):
    """(text, TraceFormat): a header row or a headerless file read by column
    index, counted from the start or from the end of the row."""
    delimiter = draw(st.sampled_from([",", ";", "\t", " "]))
    newline = draw(st.sampled_from(["\n", "\r", "\r\n"]))
    swap = draw(st.booleans())
    leads = draw(st.integers(0, 2))
    rows = draw(st.lists(trace_rows(), max_size=12))
    lines = []
    for row in rows:
        if isinstance(row, str):
            lines.append(row)
            continue
        lead = [draw(st.sampled_from(_LEAD_CELLS)) for _ in range(leads)]
        lines.append(delimiter.join(lead + (row[1::-1] + row[2:] if swap else row)))
    t_col, v_col = (leads + 1, leads) if swap else (leads, leads + 1)
    header = draw(st.sampled_from(["names", "index", "negative index"]))
    if header == "names":
        names = ["value", "timestamp"] if swap else ["timestamp", "value"]
        lines.insert(0, delimiter.join([f"lead{i}" for i in range(leads)] + names))
        fmt = TraceFormat(delimiter=delimiter)
    else:
        if header == "negative index":
            t_col, v_col = t_col - leads - 2, v_col - leads - 2
        fmt = TraceFormat(timestamp_col=t_col, value_col=v_col, delimiter=delimiter, header=False)
    text = newline.join(lines).replace("{d}", delimiter) + draw(st.sampled_from(["", newline]))
    return text, fmt


def _assert_parses_like_the_reference(path, fmt):
    """Same samples bit for bit as the row-by-row reference, or the same error
    type on the same data row."""
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
    assert parse_trace(path, fmt).samples.tobytes() == expected.tobytes()


@settings(max_examples=400, deadline=None)
@given(case=trace_files())
def test_parse_matches_the_row_by_row_reference(case):
    text, fmt = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "trace.csv"
        path.write_bytes(text.encode("utf-8"))
        _assert_parses_like_the_reference(path, fmt)


_BY_INDEX = {"timestamp_col": 3, "value_col": 4, "header": False}


@pytest.mark.parametrize(
    "text, fmt",
    [
        # A quoted delimiter before the used columns: read without quoting,
        # every row would shift one column right and still parse.
        ('"x,y",c,1,2,3\n"x,y",c,4,5,6\n', TraceFormat(**_BY_INDEX)),
        ('a,b,c,timestamp,value\n"x,y",c,1,2,3\n"x,y",c,4,5,6\n', TraceFormat()),
        ('"a\nb","c\r\nd",e,1,2\n"""",f,g,3,4\n', TraceFormat(**_BY_INDEX)),
        ('"a""b,c",x,y,1,2\n#c,# d,#,3,4\n', TraceFormat(**_BY_INDEX)),
        ("timestamp,value\r0,1\r60,2\r", TraceFormat()),
        ("timestamp,value\r\n0,1\r\n60,2", TraceFormat()),
        ("timestamp,value\n0,1\n \n\x0b\n,\n60,2\n", TraceFormat()),
        ("timestamp,value\n1_0,1\n60,\u0663\n", TraceFormat()),
        ("timestamp;value\n0;1\n60;2\n", TraceFormat(delimiter=";")),
        ("timestamp\tvalue\n0\t 1\n60\t2 \n", TraceFormat(delimiter="\t")),
        ("timestamp value\n0 1\n60 2 \n", TraceFormat(delimiter=" ")),
        ("0,1\n60,2\n", TraceFormat(timestamp_col=0, value_col=1, header=False)),
        ("9,0,1\n60,2\n", TraceFormat(timestamp_col=-2, value_col=-1, header=False)),
        ("9,0,1\n60\n", TraceFormat(timestamp_col=-2, value_col=-1, header=False)),
    ],
)
def test_parse_matches_the_reference_where_the_readers_differ(tmp_path, text, fmt):
    path = tmp_path / "t.csv"
    path.write_bytes(text.encode("utf-8"))
    _assert_parses_like_the_reference(path, fmt)


def test_a_clean_trace_never_enters_the_row_loop(tmp_path, monkeypatch):
    # predict-long's shape: integer timestamps, some repeated, six-decimal
    # values. A row loop run here would mean the fast path stopped applying.
    rng = np.random.default_rng(9)
    times = np.sort(rng.integers(1_300_000_000, 1_300_600_000, 10_000))
    values = np.round(rng.uniform(0.0, 1.0, times.size), 6)
    path = tmp_path / "t.csv"
    rows = "".join(f"{t},{v!r}\n" for t, v in zip(times.tolist(), values.tolist()))
    path.write_text("timestamp,value\n" + rows)
    expected = testkit.reference_parse_trace(path, TraceFormat())

    def row_loop(*args):
        raise AssertionError("the row loop read a clean trace")

    monkeypatch.setattr(trace_io, "_read_rows", row_loop)
    samples = parse_trace(path).samples
    assert samples.tobytes() == np.array(expected, dtype=np.float64).tobytes()


def test_parse_duplicate_timestamp_keeps_its_first_spelling(tmp_path):
    # -0 and 0 are one timestamp; the first row's -0.0 is kept, bit for bit.
    # An unstable sort hands back the 0.0 of a later row on this input.
    times = "-0 120 0 -60 -60 0 0 60 120 -120 120 0 -60 60 0".split()
    path = tmp_path / "t.csv"
    path.write_text("t,v\n" + "".join(f"{t},1\n" for t in times))
    samples = parse_trace(path, TraceFormat(timestamp_col="t", value_col="v")).samples
    assert samples[:, 0].tolist() == [-120.0, -60.0, 0.0, 60.0, 120.0]
    assert np.signbit(samples[2, 0])
