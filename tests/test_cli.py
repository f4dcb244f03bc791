import argparse
import contextlib
import csv
import io
import json
import math
import re
import tempfile
import xml.etree.ElementTree as ET
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qevo import dataset, evolve, metrics, network, trace_io
from qevo.cli import (
    _CONFIG_KEYS, FORECAST_COLUMNS, FORECAST_SCHEMA, RunConfig, _parse_bool, build_parser, load_config_file, main,
    read_forecast_csv, write_forecast_csv,
)
from qevo.errors import InputError

from conftest import positive_trace, sine_series, write_trace_csv


def train_args(trace, out_dir, **overrides):
    options = {
        "--input": str(trace),
        "--pi-minutes": "1",
        "--window": "5",
        "--population": "6",
        "--generations": "3",
        "--train-frac": "0.6",
        "--seed": "7",
        "--hidden-min": "3",
        "--hidden-max": "5",
        "--depth-min": "1",
        "--depth-max": "2",
        "--out-dir": str(out_dir),
    }
    options.update(overrides)
    args = ["train"]
    for key, value in options.items():
        if value is not None:
            args += [key, value]
    return args


def test_train_end_to_end(trace_file, tmp_path, capsys):
    out = tmp_path / "run"
    assert main(train_args(trace_file, out)) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["schema"] == "qevo.report/1"
    trajectory = report["training"]["fitness_trajectory"]
    assert len(trajectory) == 4
    assert all(b <= a for a, b in zip(trajectory, trajectory[1:]))
    assert report["metrics"]["test"]["rmse"] >= 0.0
    genome = network.load_genome(out / "genome.bin")
    assert genome.architecture.input_width == 5
    rows = read_forecast_csv(out / "forecast.csv")
    # one row per window target plus the extrapolated future row
    assert rows[-1]["split"] == "future" and rows[-1]["actual"] is None
    assert len(rows) == len(report["forecast"]["test_actual_normalized"]) + sum(
        1 for r in rows if r["split"] == "train"
    ) + 1


def test_train_missing_input(tmp_path, capsys):
    missing = tmp_path / "nope.csv"
    code = main(train_args(missing, tmp_path / "out"))
    assert code == 2
    assert str(missing) in capsys.readouterr().err


def test_train_constant_series_is_domain_error(tmp_path, capsys):
    trace = tmp_path / "const.csv"
    write_trace_csv(trace, np.full(40, 5.0))
    assert main(train_args(trace, tmp_path / "out")) == 1
    assert "constant" in capsys.readouterr().err


def test_train_series_too_short(tmp_path, capsys):
    trace = tmp_path / "short.csv"
    write_trace_csv(trace, positive_trace(0, points=5))
    assert main(train_args(trace, tmp_path / "out")) == 1


def test_train_deterministic_artifacts(trace_file, tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(train_args(trace_file, out_a)) == 0
    assert main(train_args(trace_file, out_b)) == 0
    for name in ("report.json", "forecast.csv", "genome.bin"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_predict_matches_training_fits(trace_file, tmp_path):
    out = tmp_path / "run"
    assert main(train_args(trace_file, out)) == 0
    out2 = tmp_path / "pred"
    code = main(
        [
            "predict",
            "--genome", str(out / "genome.bin"),
            "--input", str(trace_file),
            "--pi-minutes", "1",
            "--out-dir", str(out2),
        ]
    )
    assert code == 0
    trained = read_forecast_csv(out / "forecast.csv")
    predicted = read_forecast_csv(out2 / "forecast.csv")
    assert len(trained) == len(predicted)
    for a, b in zip(trained, predicted):
        assert a["index"] == b["index"]
        assert b["predicted"] == pytest.approx(a["predicted"], abs=1e-12)
    report = json.loads((out / "report.json").read_text())
    test_norm = report["forecast"]["test_predicted_normalized"]
    # the test-split tail of the predictions equals the report's recorded fits
    tail = [r["predicted"] for r in predicted if r["split"] == "series"][-len(test_norm):]
    d_min = report["normalization"]["d_min"]
    d_max = report["normalization"]["d_max"]
    for recorded, value in zip(test_norm, tail):
        assert value == pytest.approx(recorded * (d_max - d_min) + d_min, abs=1e-12)


def test_predict_reads_any_trace_name_and_a_byte_order_mark_as_plain_text(trace_file, tmp_path, capsys):
    assert main(train_args(trace_file, tmp_path / "run")) == 0
    text = trace_file.read_bytes()
    copies = {f"trace.csv{suffix}": text for suffix in (".gz", ".bz2", ".xz", ".lzma")}
    copies["bom.csv"] = "\ufeff".encode() + text
    forecasts = set()
    for name, data in {"trace.csv": text, **copies}.items():
        (tmp_path / name).write_bytes(data)
        out = tmp_path / f"predict-{name}"
        argv = ["predict", "--genome", str(tmp_path / "run" / "genome.bin"), "--input", str(tmp_path / name),
                "--pi-minutes", "1", "--out-dir", str(out)]
        assert main(argv) == 0, capsys.readouterr().err
        forecasts.add((out / "forecast.csv").read_bytes())
    assert len(forecasts) == 1


def test_report_scores_the_forecast_rows_bit_for_bit(tmp_path):
    # forward_batch's row tiles make a row's last bits depend on its position
    # in the call, so the report must score the forecast's own predictions.
    trace = tmp_path / "trace.csv"
    write_trace_csv(trace, 10 + sine_series(0, 2000))
    options = {
        "--window": "10", "--population": "4", "--generations": "1", "--seed": "0",
        "--hidden-min": "9", "--hidden-max": "9", "--depth-max": "1",
    }
    out = tmp_path / "run"
    assert main(train_args(trace, out, **options)) == 0
    report = json.loads((out / "report.json").read_text())
    with (out / "forecast.csv").open(newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(line for line in fh if not line.startswith("#")))
    test_rows = [float(r["predicted_normalized"]) for r in rows if r["split"] == "test"]
    assert report["forecast"]["test_predicted_normalized"] == test_rows
    assert report["metrics"]["test"]["count"] == len(test_rows) == 796

    ablate = ["ablate", *train_args(trace, tmp_path / "ablation", **options)[1:], "--seeds", "1"]
    assert main(ablate) == 0
    runs = json.loads((tmp_path / "ablation" / "ablation.json").read_text())["runs"]
    full = next(r for r in runs if r["mode"] == "full")
    assert {k: full[k] for k in report["metrics"]["test"]} == report["metrics"]["test"]


def test_ablate_scores_each_run_as_forward_batch_over_the_lag_matrix(tmp_path, monkeypatch):
    # ablate slices its test predictions from the forecast's series path; the
    # reference is the lag matrix through forward_batch, cut at the split.
    # 1990 windows of a 10-9-1 network cross a tile edge at 1387 rows.
    trace = tmp_path / "trace.csv"
    write_trace_csv(trace, 10 + sine_series(0, 2000))
    options = {
        "--window": "10", "--population": "4", "--generations": "1", "--seed": "0",
        "--hidden-min": "9", "--hidden-max": "9", "--depth-max": "1",
    }
    bests, inner = [], evolve.train

    def recording(config, train_data, **kwargs):
        run = inner(config, train_data, **kwargs)
        bests.append(run.best)
        return run

    monkeypatch.setattr(evolve, "train", recording)
    out = tmp_path / "ablation"
    assert main(["ablate", *train_args(trace, out, **options)[1:], "--seeds", "2"]) == 0
    runs = json.loads((out / "ablation.json").read_text())["runs"]

    series = trace_io.aggregate(trace_io.parse_trace(trace, trace_io.TraceFormat()), 1)
    windows = dataset.build_windows(dataset.normalize(series.values, dataset.fit_normalizer(series.values)), 10)
    train_ds, test_ds = dataset.split(windows, 0.6)
    assert len(bests) == len(runs) == 6
    assert network._plan(bests[0].architecture).tile_rows < len(windows)
    for best, run in zip(bests, runs):
        expected = metrics.evaluate(test_ds.targets, network.forward_batch(best, windows.inputs)[len(train_ds) :])
        assert {k: run[k] for k in expected} == expected


def test_predict_window_mismatch(trace_file, tmp_path, capsys):
    out = tmp_path / "run"
    assert main(train_args(trace_file, out)) == 0
    code = main(
        [
            "predict",
            "--genome", str(out / "genome.bin"),
            "--input", str(trace_file),
            "--pi-minutes", "1",
            "--window", "7",
            "--out-dir", str(tmp_path / "pred"),
        ]
    )
    assert code == 1
    assert "window" in capsys.readouterr().err


def test_predict_checks_a_config_file_window(trace_file, tmp_path, capsys):
    out = tmp_path / "run"
    assert main(train_args(trace_file, out)) == 0  # a width-5 genome
    cfg = tmp_path / "predict.cfg"
    cfg.write_text(f"input = {trace_file}\npi_minutes = 1\nwindow = 12\n")
    args = ["predict", "--config", str(cfg), "--genome", str(out / "genome.bin"), "--out-dir", str(tmp_path / "p")]
    assert main(args) == 1
    assert "window 12 does not match genome input width 5" in capsys.readouterr().err
    assert main([*args, "--window", "5"]) == 0  # the flag wins over the file


def test_predict_series_too_short(trace_file, tmp_path, capsys):
    out = tmp_path / "run"
    assert main(train_args(trace_file, out)) == 0  # a width-5 genome
    short = tmp_path / "short.csv"

    def predict(points):
        write_trace_csv(short, positive_trace(1, points=points))
        args = ["predict", "--genome", str(out / "genome.bin"), "--input", str(short), "--pi-minutes", "1"]
        return main([*args, "--out-dir", str(tmp_path / "pred")])

    capsys.readouterr()
    assert predict(4) == 1
    assert capsys.readouterr().err == "error: series of length 4 too short for window 5 (need >= 6)\n"
    assert not (tmp_path / "pred").exists()
    # window + 1 values: one window with its target, then the extrapolated step.
    assert predict(6) == 0
    rows = read_forecast_csv(tmp_path / "pred" / "forecast.csv")
    assert [(r["index"], r["split"]) for r in rows] == [(5, "series"), (6, "future")]
    assert rows[0]["actual"] == pytest.approx(positive_trace(1, points=6)[5], rel=1e-12)


def test_predict_on_a_sparse_trace_is_usage_error(tmp_path, capsys):
    # Two samples 6e8 s apart would span 10 million one-minute buckets.
    genome = tmp_path / "genome.bin"
    arch = network.Architecture(5, (3,))
    network.save_genome(network.random_genome(arch, np.random.default_rng(0)), genome)
    sparse = tmp_path / "sparse.csv"
    sparse.write_text("timestamp,value\n0,1\n600000000,2\n")
    code = main(
        [
            "predict",
            "--genome", str(genome),
            "--input", str(sparse),
            "--pi-minutes", "1",
            "--out-dir", str(tmp_path / "pred"),
        ]
    )
    assert code == 2
    assert "empty 1-minute buckets" in capsys.readouterr().err


@pytest.mark.parametrize(
    "data, message",
    [
        (b"timestamp,value\n0,1\n60,\xff\n", "is not UTF-8 text"),
        (b"timestamp,value\n1e300,1\n2e300,2\n", "64-bit integer"),
        (b"timestamp,value,note\n0,1,a\n \n60,2," + b"x" * 140_000 + b"\n", "row 3: field larger"),
    ],
    ids=["not-utf8", "timestamp-past-int64", "cell-past-field-limit"],
)
@pytest.mark.parametrize("command", ["train", "predict"])
def test_unreadable_trace_is_usage_error(tmp_path, capsys, command, data, message):
    trace = tmp_path / "trace.csv"
    trace.write_bytes(data)
    if command == "train":
        args = train_args(trace, tmp_path / "out")
    else:
        genome = tmp_path / "genome.bin"
        network.save_genome(network.random_genome(network.Architecture(5, (3,)), np.random.default_rng(0)), genome)
        args = ["predict", "--genome", str(genome), "--input", str(trace), "--pi-minutes", "1",
                "--out-dir", str(tmp_path / "out")]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err and message in err


V1_FORECAST = b"# schema: qevo.forecast/1\nindex,split,actual,predicted\n3,test,1.5,1.25\n4,future,,2.0\n"
V2_HEADER = b"# schema: qevo.forecast/2\n# d_min: 2.0\n# d_max: 6.0\nindex,split,actual_normalized,predicted_normalized\n"


def _bounds(d_min: bytes, d_max: bytes) -> bytes:
    """`V2_HEADER` with the normalizer bounds `d_min` and `d_max`."""
    return V2_HEADER.replace(b"d_min: 2.0", b"d_min: " + d_min).replace(b"d_max: 6.0", b"d_max: " + d_max)


@pytest.mark.parametrize(
    "argv, files, message",
    [
        (["train", "--config", "{dir}/run.cfg"], {"run.cfg": b"window = \xff\n"}, "is not UTF-8 text"),
        (["plot-data", "--forecast", "{dir}/f.csv"], {"f.csv": b"index,split,actual,predicted\n3,test,1.5,\xff\n"},
         "is not UTF-8 text"),
        (["plot-data", "--report", "{dir}/r.json"], {"r.json": b'{"forecast": "\xff"}'}, "is not UTF-8 text"),
        (["train", "--config", "{dir}/missing.cfg"], {}, "config file not found"),
        (["train", "--config", "{dir}/run.cfg"], {"run.cfg": b"window 5\n"}, "expected 'key = value'"),
        (["plot-data", "--forecast", "{dir}/f.csv"], {"f.csv": V2_HEADER + b"three,test,0.5,0.25\n"},
         "bad forecast row"),
        (["train"], {}, "--input is required"),
        (["predict", "--input", "{dir}/missing.csv"], {}, "--genome is required"),
        (["train", "--input", "{dir}/t.csv", "--pi-minutes", str(10**400)], {"t.csv": b"timestamp,value\n0,1\n60,2\n"},
         "interval_minutes is too large"),
        (["predict", "--genome", "{dir}/g.bin", "--input", "{dir}/t.csv", "--pi-minutes", str(10**400)],
         {"t.csv": b"timestamp,value\n0,1\n60,2\n", "g.bin": network.genome_to_bytes(
             network.random_genome(network.Architecture(1, (1,)), np.random.default_rng(0)))},
         "interval_minutes is too large"),
        # One 10-100000-100000-1 genome is 74.5 GiB; the input is never opened.
        (["train", "--input", "{dir}/missing.csv", "--pi-minutes", "1", "--population", "4", "--generations", "0",
          "--hidden-min", "100000", "--hidden-max", "100000", "--depth-min", "2", "--depth-max", "2"], {},
         "40006000004 phases"),
        (["plot-data", "--forecast", "{dir}/f.csv"], {"f.csv": V1_FORECAST}, "schema qevo.forecast/1"),
        (["plot-data", "--forecast", "{dir}/f.csv"], {"f.csv": b"index,split,actual,predicted\n3,test,1.5,1.25\n"},
         "no '# schema:' line"),
        (["plot-data", "--forecast", "{dir}/f.csv"], {"f.csv": V2_HEADER.replace(b"# d_min: 2.0\n", b"")},
         "no '# d_min:' line"),
        (["plot-data", "--forecast", "{dir}/f.csv"], {"f.csv": V2_HEADER.replace(b"d_max: 6.0", b"d_max: six")},
         "bad normalizer"),
        (["plot-data", "--forecast", "{dir}/f.csv"], {"f.csv": V2_HEADER.replace(b"d_max: 6.0", b"d_max: nan")},
         "bad normalizer"),
        (["plot-data", "--forecast", "{dir}/f.csv"], {"f.csv": V2_HEADER.replace(b"d_max: 6.0", b"d_max: 2.0")},
         "bad normalizer"),
        (["plot-data", "--forecast", "{dir}/f.csv"], {"f.csv": V2_HEADER + b"3,test,,0.25\n4,future,,0.5\n"},
         "bad forecast row"),
        (["plot-data", "--forecast", "{dir}/f.csv"], {"f.csv": V2_HEADER + b"3,test,0.5,\n4,future,,0.5\n"},
         "bad forecast row"),
        (["plot-data", "--forecast", "{dir}/f.csv"],
         {"f.csv": _bounds(b"-1e+308", b"7e+307") + b"3,test,0.5,1.1\n4,future,,1.0\n"},
         "forecast row {'index': '3', 'split': 'test', 'actual_normalized': '0.5', 'predicted_normalized': '1.1'}"),
        (["plot-data", "--forecast", "{dir}/f.csv"],
         {"f.csv": _bounds(b"-1.7e+308", b"1.7e+308") + b"3,test,0.5,0.0\n4,future,,1.0\n"}, "bad normalizer"),
        # A column mapping that is not "-"? then decimal digits is a header name.
        (["train", "--input", "{dir}/t.csv", "--pi-minutes", "1", "--value-col", "²"],
         {"t.csv": b"timestamp,value\n0,1\n60,2\n"}, "value column '²' not found in header"),
        (["train", "--input", "{dir}/t.csv", "--pi-minutes", "1", "--no-header", "--timestamp-col", "0",
          "--value-col", "²"], {"t.csv": b"0,1\n60,2\n"}, "value column '²' needs a header row"),
        (["train", "--config", "{dir}/run.cfg", "--input", "{dir}/t.csv", "--pi-minutes", "1"],
         {"run.cfg": b"timestamp_col = --1\n", "t.csv": b"timestamp,value\n0,1\n60,2\n"},
         "timestamp column '--1' not found in header"),
        (["train", "--config", "{dir}/run.cfg", "--input", "{dir}/t.csv", "--pi-minutes", "1", "--value-col", "1"],
         {"run.cfg": b"timestamp_col = --1\nheader = no\n", "t.csv": b"0,1\n60,2\n"},
         "timestamp column '--1' needs a header row"),
    ],
    ids=[
        "config-not-utf8", "forecast-not-utf8", "report-not-utf8", "config-missing", "config-line-without-equals",
        "forecast-bad-row", "train-without-input", "predict-without-genome", "train-pi-minutes-past-float",
        "predict-pi-minutes-past-float", "train-population-past-phase-bound", "forecast-v1", "forecast-no-schema",
        "forecast-no-d-min", "forecast-d-max-not-a-float", "forecast-d-max-nan", "forecast-d-max-not-above-d-min",
        "forecast-empty-actual-before-the-last-row", "forecast-empty-prediction", "forecast-raw-past-float-range",
        "forecast-span-past-float-range", "value-col-superscript-two", "value-col-superscript-two-without-header",
        "config-timestamp-col-minus-minus-one", "config-timestamp-col-minus-minus-one-without-header",
    ],
)
def test_bad_file_or_missing_flag_is_usage_error(tmp_path, capsys, argv, files, message):
    for name, data in files.items():
        (tmp_path / name).write_bytes(data)
    argv = [arg.replace("{dir}", str(tmp_path)) for arg in argv]
    assert main([*argv, "--out-dir", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err and message in err


def test_plot_data_from_forecast(trace_file, tmp_path):
    out = tmp_path / "run"
    assert main(train_args(trace_file, out)) == 0
    assert main(["plot-data", "--forecast", str(out / "forecast.csv"), "--out-dir", str(out)]) == 0
    pairs = [
        ln
        for ln in (out / "plot" / "actual_vs_predicted.csv").read_text().strip().splitlines()
        if not ln.startswith("#")
    ]
    rows = read_forecast_csv(out / "forecast.csv")
    assert len(pairs) - 1 == sum(1 for r in rows if r["actual"] is not None)
    svg = ET.parse(out / "plot" / "chart.svg")  # well-formed XML
    assert svg.getroot().tag.endswith("svg")


def test_plot_data_from_report(trace_file, tmp_path):
    out = tmp_path / "run"
    assert main(train_args(trace_file, out)) == 0
    assert main(["plot-data", "--report", str(out / "report.json"), "--out-dir", str(out)]) == 0
    assert (out / "plot" / "chart.svg").exists()


@pytest.mark.parametrize("sources", [[], ["--forecast", "f.csv", "--report", "r.json"]], ids=["neither", "both"])
def test_plot_data_takes_exactly_one_source(tmp_path, capsys, sources):
    with pytest.raises(SystemExit) as exc:
        main(["plot-data", *sources, "--out-dir", str(tmp_path)])
    assert exc.value.code == 2
    assert "--forecast" in capsys.readouterr().err


def test_plot_data_empty_forecast(tmp_path, capsys):
    empty = tmp_path / "forecast.csv"
    empty.write_bytes(V2_HEADER)
    code = main(["plot-data", "--forecast", str(empty), "--out-dir", str(tmp_path)])
    assert code == 2
    assert "plot" in capsys.readouterr().err


def test_ablate_runs_all_modes(trace_file, tmp_path):
    out = tmp_path / "ablation"
    code = main(
        [
            "ablate",
            "--input", str(trace_file),
            "--pi-minutes", "1",
            "--window", "5",
            "--population", "6",
            "--generations", "2",
            "--train-frac", "0.6",
            "--seed", "3",
            "--seeds", "2",
            "--hidden-min", "3",
            "--hidden-max", "4",
            "--depth-min", "1",
            "--depth-max", "2",
            "--out-dir", str(out),
        ]
    )
    assert code == 0
    payload = json.loads((out / "ablation.json").read_text())
    assert payload["schema"] == "qevo.ablation/1"
    assert len(payload["runs"]) == 6  # 3 modes x 2 seeds
    assert set(payload["medians"]) == {"full", "fixed-arch", "fixed-all"}
    csv_lines = (out / "ablation.csv").read_text().strip().splitlines()
    assert len(csv_lines) == 2 + 6  # schema comment + header + rows


def test_train_and_ablate_report_a_rising_best_fitness(trace_file, tmp_path, monkeypatch, capsys):
    real_train = evolve.train

    def rising(*args, **kwargs):
        run = real_train(*args, **kwargs)
        return replace(run, fitness_trajectory=(*run.fitness_trajectory, run.fitness_trajectory[-1] + 1.0))

    monkeypatch.setattr(evolve, "train", rising)
    for command, extra in (("train", []), ("ablate", ["--seeds", "1"])):
        args = [command, *train_args(trace_file, tmp_path / command)[1:], *extra]
        assert main(args) == 1, command
        assert "best fitness rose" in capsys.readouterr().err


def test_run_config_defaults_are_the_training_defaults():
    assert RunConfig().training_config() == evolve.TrainingConfig()


# The CLI surface, written out: per subcommand, each flag's dest ->
# (option strings, default, choices, action, type). Run settings default to
# None so that a flag left out does not override the config file.
_STORE, _STORE_FALSE = "_StoreAction", "_StoreFalseAction"
_TRACE_SURFACE = {
    "input": (("--input",), None, None, _STORE, None),
    "timestamp_col": (("--timestamp-col",), None, None, _STORE, None),
    "value_col": (("--value-col",), None, None, _STORE, None),
    "delimiter": (("--delimiter",), None, None, _STORE, None),
    "header": (("--no-header",), None, None, _STORE_FALSE, None),
    "pi_minutes": (("--pi-minutes",), None, None, _STORE, int),
    "out_dir": (("--out-dir",), None, None, _STORE, None),
    "config": (("--config",), None, None, _STORE, None),
}
_TRAIN_SURFACE = {
    "window": (("--window",), None, None, _STORE, int),
    "population": (("--population",), None, None, _STORE, int),
    "generations": (("--generations",), None, None, _STORE, int),
    "train_frac": (("--train-frac",), None, None, _STORE, float),
    "seed": (("--seed",), None, None, _STORE, int),
    "hidden_min": (("--hidden-min",), None, None, _STORE, int),
    "hidden_max": (("--hidden-max",), None, None, _STORE, int),
    "depth_min": (("--depth-min",), None, None, _STORE, int),
    "depth_max": (("--depth-max",), None, None, _STORE, int),
    "metrics": (("--metrics",), None, None, _STORE, None),
}
_SURFACE = {
    "train": {
        **_TRACE_SURFACE, **_TRAIN_SURFACE,
        "mode": (("--ablate-mode",), None, ["full", "fixed-arch", "fixed-all"], _STORE, None),
        "checkpoint_dir": (("--checkpoint-dir",), None, None, _STORE, None),
    },
    "predict": {
        **_TRACE_SURFACE,
        "genome": (("--genome",), None, None, _STORE, None),
        "window": (("--window",), None, None, _STORE, int),
    },
    "ablate": {**_TRACE_SURFACE, **_TRAIN_SURFACE, "seeds": (("--seeds",), None, None, _STORE, int)},
    "plot-data": {
        "forecast": (("--forecast",), None, None, _STORE, None),
        "report": (("--report",), None, None, _STORE, None),
        "out_dir": (("--out-dir",), "out", None, _STORE, None),
    },
}
_CONFIG_KEY_TYPES = {
    "input": str, "genome": str, "timestamp_col": str, "value_col": str, "delimiter": str,
    "header": _parse_bool, "pi_minutes": int, "window": int, "population": int, "generations": int,
    "train_frac": float, "seed": int, "seeds": int, "out_dir": str, "mode": str, "metrics": str,
    "hidden_min": int, "hidden_max": int, "depth_min": int, "depth_max": int,
}


def test_cli_surface_is_pinned():
    [commands] = [a.choices for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    surface = {
        name: {
            a.dest: (tuple(a.option_strings), a.default, a.choices, type(a).__name__, a.type)
            for a in parser._actions if not isinstance(a, argparse._HelpAction)
        }
        for name, parser in commands.items()
    }
    assert surface == _SURFACE
    assert _CONFIG_KEYS == _CONFIG_KEY_TYPES


def test_config_file_with_flag_override(trace_file, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "\n".join(
            [
                "# training settings",
                f"input = {trace_file}",
                "pi_minutes = 1",
                "window = 5",
                "population = 6",
                "generations = 2",
                "train_frac = 0.6",
                "seed = 1",
                "hidden_min = 3",
                "hidden_max = 4",
                "depth_min = 1",
                "depth_max = 1",
            ]
        )
    )
    out = tmp_path / "out"
    assert main(["train", "--config", str(cfg), "--seed", "2", "--out-dir", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["run"]["seed"] == 2  # flag wins
    assert report["run"]["window"] == 5  # file value honored


def test_no_header_reads_columns_by_index(tmp_path):
    values = positive_trace(0)
    write_trace_csv(tmp_path / "with.csv", values)
    write_trace_csv(tmp_path / "without.csv", values, header=False)
    assert main(train_args(tmp_path / "with.csv", tmp_path / "a")) == 0
    by_index = {"--timestamp-col": "0", "--value-col": "1"}
    assert main([*train_args(tmp_path / "without.csv", tmp_path / "b", **by_index), "--no-header"]) == 0
    assert (tmp_path / "a" / "forecast.csv").read_bytes() == (tmp_path / "b" / "forecast.csv").read_bytes()


@pytest.mark.parametrize(
    "spelling, value",
    [("1", True), ("true", True), ("YES", True), ("0", False), ("False", False), ("no", False)],
)
def test_config_file_booleans(tmp_path, spelling, value):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"header = {spelling}\n")
    assert load_config_file(cfg) == {"header": value}


def test_config_file_misspelt_boolean_is_usage_error(trace_file, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# headerless?\nheader = ture\n")
    with pytest.raises(InputError, match=f"{re.escape(str(cfg))}:2: bad value for header"):
        load_config_file(cfg)
    assert main([*train_args(trace_file, tmp_path / "out"), "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err and "'ture'" in err


@pytest.mark.parametrize(
    "extra, config",
    [(["--delimiter", ""], None), (["--delimiter", ";;"], None), ([], "delimiter = ;;\n")],
    ids=["empty-flag", "two-char-flag", "two-char-config"],
)
def test_delimiter_that_is_not_one_character_is_usage_error(trace_file, tmp_path, capsys, extra, config):
    genome = tmp_path / "genome.bin"
    network.save_genome(network.random_genome(network.Architecture(5, (3,)), np.random.default_rng(0)), genome)
    args = ["predict", "--genome", str(genome), "--input", str(trace_file), "--out-dir", str(tmp_path / "out"), *extra]
    if config:
        (tmp_path / "run.cfg").write_text(config)
        args += ["--config", str(tmp_path / "run.cfg")]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err and "delimiter must be one character" in err


def test_config_file_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("no_such_key = 1\n")
    code = main(["train", "--config", str(cfg), "--out-dir", str(tmp_path)])
    assert code == 2
    assert "no_such_key" in capsys.readouterr().err


def test_train_creates_a_missing_checkpoint_dir(trace_file, tmp_path):
    checkpoints = tmp_path / "no" / "such" / "dir"
    assert main([*train_args(trace_file, tmp_path / "out"), "--checkpoint-dir", str(checkpoints)]) == 0
    assert sorted(p.name for p in checkpoints.iterdir()) == [
        f"checkpoint_gen{g:04d}.json" for g in (1, 2, 3)
    ]


def test_train_checkpoint_dir_on_a_file_fails_before_training(trace_file, tmp_path, monkeypatch, capsys):
    not_a_dir = tmp_path / "file"
    not_a_dir.write_text("")
    monkeypatch.setattr(evolve, "init_population", lambda *a: pytest.fail("training started"))
    assert main([*train_args(trace_file, tmp_path / "out"), "--checkpoint-dir", str(not_a_dir)]) == 2
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, metrics, message",
    [
        ("train", "rmse,bogus", "bogus"),
        ("ablate", "rmse,bogus", "bogus"),
        ("train", ",", "names no metric"),
        ("ablate", ",", "names no metric"),
    ],
    ids=["train", "ablate", "train-empty", "ablate-empty"],
)
def test_unknown_metric_fails_before_the_data_is_read(
    trace_file, tmp_path, monkeypatch, capsys, command, metrics, message
):
    monkeypatch.setattr(trace_io, "parse_trace", lambda *a: pytest.fail("trace read"))
    monkeypatch.setattr(evolve, "train", lambda *a, **k: pytest.fail("training started"))
    args = train_args(trace_file, tmp_path / "out", **{"--metrics": metrics})
    args[0] = command
    assert main(args) == 2
    assert message in capsys.readouterr().err


def test_train_metrics_flag_selects_the_report_metrics(trace_file, tmp_path):
    out = tmp_path / "out"
    assert main(train_args(trace_file, out, **{"--metrics": "mae"})) == 0
    report = json.loads((out / "report.json").read_text())
    for split in ("train", "test"):
        assert set(report["metrics"][split]) == {"mae", "count"}


@pytest.mark.parametrize(
    "rows",
    [
        "0,1e308\n0,1e308\n60,1\n120,2\n",  # one timestamp's values sum to inf
        "0,1e308\n30,1e308\n60,1\n120,2\n",  # one bucket's values sum to inf
    ],
)
def test_train_sum_overflow_is_usage_error(tmp_path, capsys, rows):
    trace = tmp_path / "trace.csv"
    trace.write_text("timestamp,value\n" + rows)
    assert main(train_args(trace, tmp_path / "out")) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err and "float64 range" in err


@pytest.mark.parametrize(
    "command, flag, value",
    [
        ("train", "--population", "2"),
        ("train", "--population", "4294967297"),
        ("train", "--hidden-min", "0"),
        ("train", "--generations", "-1"),
        ("train", "--window", "0"),
        ("ablate", "--seeds", "0"),
        ("predict", "--pi-minutes", "0"),
    ],
)
def test_bad_numeric_flag_is_usage_error(trace_file, tmp_path, capsys, command, flag, value):
    if command == "predict":
        genome = tmp_path / "genome.bin"
        network.save_genome(network.random_genome(network.Architecture(5, (3,)), np.random.default_rng(0)), genome)
        args = ["predict", "--genome", str(genome), "--input", str(trace_file), "--out-dir", str(tmp_path / "out")]
    else:
        args = train_args(trace_file, tmp_path / "out")
        args[0] = command
    assert main([*args, flag, value]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err and err.startswith("error:")


def _csv_writer_reference(rows, path):
    """The forecast file as a csv.writer writes it row by row."""
    params = rows["params"]
    with path.open("w", newline="", encoding="utf-8") as fh:
        fh.write(f"# schema: {FORECAST_SCHEMA}\n# d_min: {params.d_min!r}\n# d_max: {params.d_max!r}\n")
        writer = csv.writer(fh)
        writer.writerow(FORECAST_COLUMNS)
        for i, index in enumerate(rows["index"]):
            has_actual = i < len(rows["actual_normalized"])
            writer.writerow([
                index,
                rows["split"][i],
                repr(float(rows["actual_normalized"][i])) if has_actual else "",
                repr(float(rows["predicted_normalized"][i])),
            ])


def test_write_forecast_csv_matches_csv_writer(tmp_path):
    values = np.array([5e-324, 1e-17, 0.1, 1.0, 1e16, 0.30000000000000004])
    rows = {
        "index": range(3, 10),
        "split": ["train"] * 4 + ["test"] * 2 + ["future"],
        "actual_normalized": values,
        "predicted_normalized": np.append(values[::-1], 1e-5),
        "params": dataset.NormalizationParams(-2.5e-310, 0.30000000000000004),
    }
    write_forecast_csv(rows, tmp_path / "fast.csv")
    _csv_writer_reference(rows, tmp_path / "reference.csv")
    assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()


# Normalized values in [0, 1], with the subnormals and both ends drawn often.
_UNIT = st.one_of(st.floats(0.0, 1.0), st.sampled_from([0.0, 5e-324, 2.5e-310, 1.0]))


@settings(max_examples=200, deadline=None)
@given(
    bounds=st.tuples(st.floats(-1e300, 1e300), st.floats(-1e300, 1e300)).filter(lambda b: b[0] < b[1]),
    actual=st.lists(_UNIT, min_size=1, max_size=20),
    data=st.data(),
)
def test_forecast_round_trip_derives_the_raw_values(bounds, actual, data):
    predicted = data.draw(st.lists(_UNIT, min_size=len(actual) + 1, max_size=len(actual) + 1))
    params = dataset.NormalizationParams(*bounds)
    rows = {
        "index": range(4, 4 + len(predicted)),
        "split": ["series"] * len(actual) + ["future"],
        "actual_normalized": np.array(actual),
        "predicted_normalized": np.array(predicted),
        "params": params,
    }
    with tempfile.TemporaryDirectory() as tmp:
        write_forecast_csv(rows, Path(tmp) / "forecast.csv")
        read = read_forecast_csv(Path(tmp) / "forecast.csv")
    assert [(r["index"], r["split"]) for r in read] == list(zip(rows["index"], rows["split"]))
    assert read[-1]["actual"] is None
    bits = lambda values: np.array(values, dtype=float).view(np.uint64).tolist()
    assert bits([r["actual"] for r in read[:-1]]) == bits(dataset.denormalize(np.array(actual), params))
    assert bits([r["predicted"] for r in read]) == bits(dataset.denormalize(np.array(predicted), params))


# The CLI backstop: over generated argv, config files and inputs, `main`
# returns a documented exit code or exits through argparse's usage error.
_TRACE_FLAGS = {
    "--pi-minutes": ["1", "5", "0", "-1"],
    "--timestamp-col": ["timestamp", "0", "missing"],
}
_TRAIN_FLAGS = {
    "--window": ["1", "3", "5", "0", "-1"],
    "--population": ["4", "5", "6", "0", "-1"],
    "--generations": ["0", "1", "2", "-1"],
    "--train-frac": ["0.6", "0.5", "0", "1"],
    "--hidden-min": ["2", "3", "0"],
    "--hidden-max": ["3", "4", "-1"],
    "--depth-max": ["1", "2", "0"],
    "--metrics": ["rmse", "mae,mape", "", ",", "bogus"],
}
_COMMAND_FLAGS = {
    "train": {**_TRACE_FLAGS, **_TRAIN_FLAGS, "--ablate-mode": ["full", "fixed-all"]},
    "predict": {**_TRACE_FLAGS, "--window": ["3", "0", "-1"]},
    "ablate": {**_TRACE_FLAGS, **_TRAIN_FLAGS, "--seeds": ["1", "2", "0", "-1"]},
}
_CONFIG_LINES = [
    b"header = ture", b"header = no", b"header = YES", b"delimiter = ;;", b"window = 0", b"window = 3",
    b"generations = 1", b"population = 4", b"metrics = ,", b"metrics = mae", b"seeds = -1", b"no_such_key = 1",
    b"window = \xff",
]


@st.composite
def cli_cases(draw):
    """(argv with `{dir}` standing for the example's directory, files to write there)."""
    command = draw(st.sampled_from(["train", "predict", "ablate", "plot-data"]))
    files = {}
    if command == "plot-data":
        files["forecast"] = draw(st.sampled_from([
            V2_HEADER + b"3,test,0.5,0.25\n4,future,,1.0\n", V1_FORECAST, V2_HEADER + b"3,test,nan,0.25\n4,future,,1.0\n",
            b"index,split,actual,predicted\n", b"not,a,forecast\n", b"index,split,actual,predicted\n3,test,\xff,1.25\n",
            # A raw value past float range, and a span past it.
            _bounds(b"-1e+308", b"7e+307") + b"3,test,0.5,1.1\n4,future,,1.0\n",
            _bounds(b"-1.7e+308", b"1.7e+308") + b"3,test,0.5,0.0\n4,future,,1.0\n",
        ]))
        files["report"] = draw(st.sampled_from([
            b'{"forecast": {"test_actual_normalized": [0.5, 1.0], "test_predicted_normalized": [0.25, 1.0]}}',
            b'{"forecast": {"test_actual_normalized": [0.5, 1.0, 0.2], "test_predicted_normalized": [0.25]}}',
            b'{"forecast": {"test_actual_normalized": [0.5, NaN], "test_predicted_normalized": [0.25, 1.0]}}',
            b"{}", b"not json", b'{"forecast": "\xff"}',
        ]))
        argv = [command]
        for flag in draw(st.sampled_from([["--forecast"], ["--report"], [], ["--forecast", "--report"]])):
            name = draw(st.sampled_from([flag[2:], flag[2:], "missing"]))
            argv += [flag, f"{{dir}}/{name}"]
        return argv + ["--out-dir", "{dir}/out"], files

    points = draw(st.sampled_from([0, 1, 5, 40, 120, 199, 199]))
    values = draw(st.sampled_from([positive_trace(draw(st.integers(0, 9)), points).tolist(), [4.0] * points]))
    header = draw(st.booleans())
    step = draw(st.sampled_from([30, 60, 300]))
    rows = [f"{i * step},{v!r}" for i, v in enumerate(values)]
    delimiter = draw(st.sampled_from([",", ";"]))
    files["trace.csv"] = ("\n".join((["timestamp,value"] if header else []) + rows).replace(",", delimiter) + "\n").encode()
    argv = [command, "--input", draw(st.sampled_from(["{dir}/trace.csv"] * 5 + ["{dir}/missing.csv"]))]
    argv += ["--out-dir", "{dir}/out"]
    if command != "predict":
        argv += ["--window", "3", "--population", "4", "--generations", "1"]
        argv += ["--hidden-min", "2", "--hidden-max", "4", "--depth-max", "2"]
    if command == "ablate":
        argv += ["--seeds", "1"]
    argv += ["--delimiter", draw(st.sampled_from([delimiter] * 4 + ["", ";;"]))]
    if not header:
        argv += ["--no-header", "--timestamp-col", "0", "--value-col", "1"]
    if command == "predict":
        width = draw(st.integers(1, 5))
        files["genome.bin"] = network.random_genome(network.Architecture(width, (3,)), np.random.default_rng(0))
        argv += ["--genome", draw(st.sampled_from(["{dir}/genome.bin"] * 5 + ["{dir}/missing.bin"]))]
    flags = _COMMAND_FLAGS[command]
    for flag in draw(st.lists(st.sampled_from(sorted(flags)), max_size=2, unique=True)):
        argv += [flag, draw(st.sampled_from(flags[flag]))]
    lines = draw(st.lists(st.sampled_from(_CONFIG_LINES), max_size=2, unique=True))
    if lines:
        files["run.cfg"] = b"\n".join(lines) + b"\n"
        argv += ["--config", "{dir}/run.cfg"]
    return argv, files


@settings(max_examples=500, deadline=None, derandomize=True)
@given(case=cli_cases())
def test_main_ends_every_argv_in_a_documented_exit_code(case):
    template, files = case
    with tempfile.TemporaryDirectory() as tmp:
        for name, content in files.items():
            if name == "genome.bin":
                network.save_genome(content, Path(tmp) / name)
            else:
                (Path(tmp) / name).write_bytes(content)
        argv = [arg.replace("{dir}", tmp) for arg in template]
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            try:
                code = main(argv)
            except SystemExit as exc:
                assert exc.code == 2, argv  # argparse's own usage error
                code = 2
        if code == 0 and argv[0] == "plot-data":
            svg = (Path(tmp) / "out" / "plot" / "chart.svg").read_text()
            actual, predicted = ([float(c) for c in re.split("[ ,]", p)] for p in re.findall(r'points="([^"]*)"', svg))
            assert len(actual) == len(predicted) and all(map(math.isfinite, actual + predicted)), argv
    assert code in (0, 1, 2), argv
