import csv
import json
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from qevo import evolve, network, trace_io
from qevo.cli import FORECAST_COLUMNS, FORECAST_SCHEMA, main, read_forecast_csv, write_forecast_csv

from conftest import positive_trace, write_trace_csv


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


def test_train_threads_env_does_not_change_artifacts(trace_file, tmp_path, monkeypatch):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    monkeypatch.setenv("QEVO_THREADS", "1")
    assert main(train_args(trace_file, out_a)) == 0
    monkeypatch.setenv("QEVO_THREADS", "3")
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


@pytest.mark.parametrize("command", ["train", "ablate"])
def test_unknown_metric_fails_before_the_data_is_read(trace_file, tmp_path, monkeypatch, capsys, command):
    monkeypatch.setattr(trace_io, "parse_trace", lambda *a: pytest.fail("trace read"))
    monkeypatch.setattr(evolve, "train", lambda *a, **k: pytest.fail("training started"))
    args = train_args(trace_file, tmp_path / "out", **{"--metrics": "rmse,bogus"})
    args[0] = command
    assert main(args) == 2
    assert "bogus" in capsys.readouterr().err


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
