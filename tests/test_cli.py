import contextlib
import csv
import io
import json
import re
import tempfile
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qevo import evolve, network, trace_io
from qevo.cli import (
    FORECAST_COLUMNS, FORECAST_SCHEMA, load_config_file, main, read_forecast_csv, write_forecast_csv,
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


def test_predict_series_too_short(trace_file, tmp_path):
    out = tmp_path / "run"
    assert main(train_args(trace_file, out)) == 0
    short = tmp_path / "short.csv"
    write_trace_csv(short, positive_trace(1, points=4))
    code = main(
        [
            "predict",
            "--genome", str(out / "genome.bin"),
            "--input", str(short),
            "--pi-minutes", "1",
            "--out-dir", str(tmp_path / "pred"),
        ]
    )
    assert code == 1


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


@pytest.mark.parametrize(
    "argv, files, message",
    [
        (["train", "--config", "{dir}/run.cfg"], {"run.cfg": b"window = \xff\n"}, "is not UTF-8 text"),
        (["plot-data", "--forecast", "{dir}/f.csv"], {"f.csv": b"index,split,actual,predicted\n3,test,1.5,\xff\n"},
         "is not UTF-8 text"),
        (["plot-data", "--report", "{dir}/r.json"], {"r.json": b'{"forecast": "\xff"}'}, "is not UTF-8 text"),
        (["train", "--config", "{dir}/missing.cfg"], {}, "config file not found"),
        (["train", "--config", "{dir}/run.cfg"], {"run.cfg": b"window 5\n"}, "expected 'key = value'"),
        (["plot-data", "--forecast", "{dir}/f.csv"], {"f.csv": b"index,split,actual,predicted\nthree,test,1.5,1.25\n"},
         "bad forecast row"),
        (["train"], {}, "--input is required"),
        (["predict", "--input", "{dir}/missing.csv"], {}, "--genome is required"),
    ],
    ids=[
        "config-not-utf8", "forecast-not-utf8", "report-not-utf8", "config-missing", "config-line-without-equals",
        "forecast-bad-row", "train-without-input", "predict-without-genome",
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
    empty.write_text("# schema: qevo.forecast/1\nindex,split,actual,predicted,actual_normalized,predicted_normalized\n")
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
        best, run = real_train(*args, **kwargs)
        run.fitness_trajectory.append(run.fitness_trajectory[-1] + 1.0)
        return best, run

    monkeypatch.setattr(evolve, "train", rising)
    for command, extra in (("train", []), ("ablate", ["--seeds", "1"])):
        args = [command, *train_args(trace_file, tmp_path / command)[1:], *extra]
        assert main(args) == 1, command
        assert "best fitness rose" in capsys.readouterr().err


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
    with path.open("w", newline="", encoding="utf-8") as fh:
        fh.write(f"# schema: {FORECAST_SCHEMA}\n")
        writer = csv.writer(fh)
        writer.writerow(FORECAST_COLUMNS)
        for i, index in enumerate(rows["index"]):
            has_actual = i < len(rows["actual"])
            writer.writerow([
                index,
                rows["split"][i],
                repr(float(rows["actual"][i])) if has_actual else "",
                repr(float(rows["predicted"][i])),
                repr(float(rows["actual_normalized"][i])) if has_actual else "",
                repr(float(rows["predicted_normalized"][i])),
            ])


def test_write_forecast_csv_matches_csv_writer(tmp_path):
    values = np.array([5e-324, 1e-17, 0.1, 1.0, 1e16, 0.30000000000000004])
    rows = {
        "index": range(3, 10),
        "split": ["train"] * 4 + ["test"] * 2 + ["future"],
        "actual": values[::-1].copy(),
        "predicted": np.append(values, 2.5e-310),
        "actual_normalized": values,
        "predicted_normalized": np.append(values[::-1], 1e-5),
    }
    write_forecast_csv(rows, tmp_path / "fast.csv")
    _csv_writer_reference(rows, tmp_path / "reference.csv")
    assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()


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
            b"# schema: qevo.forecast/1\nindex,split,actual,predicted\n3,test,1.5,1.25\n4,future,,2.0\n",
            b"index,split,actual,predicted\n", b"not,a,forecast\n", b"index,split,actual,predicted\n3,test,\xff,1.25\n",
        ]))
        files["report"] = draw(st.sampled_from([
            b'{"forecast": {"test_actual_normalized": [0.5, 1.0], "test_predicted_normalized": [0.25, 1.0]}}',
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
    assert code in (0, 1, 2), argv
