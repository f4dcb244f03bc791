"""Command-line front end: ingest traces, train, predict, ablate, plot.

Every run is deterministic under a fixed --seed; report files contain no
timestamps, paths, or environment details, so identical configs produce
byte-identical artifacts.
Exit codes: 0 success, 1 domain error, 2 usage/IO error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import statistics
import sys
from dataclasses import dataclass, field, fields
from itertools import chain, zip_longest
from math import isfinite
from pathlib import Path

import numpy as np

from . import dataset, evolve, metrics, network, trace_io
from .errors import (
    ConstantSeriesError,
    DimensionMismatchError,
    InputError,
    MalformedReportError,
    QevoError,
    SeriesTooShortError,
)

REPORT_SCHEMA = "qevo.report/1"
FORECAST_SCHEMA = "qevo.forecast/2"
ABLATION_SCHEMA = "qevo.ablation/1"
PLOT_SCHEMA = "qevo.plot/1"

_METRIC_NAMES = ("rmse", "mae", "mape")
_TRAINING = evolve.TrainingConfig()
_TRAIN_COMMANDS = ("train", "ablate")


def _setting(default, text: str, commands=("train", "predict", "ablate"), text_in: dict | None = None, **flag):
    return field(default=default, metadata={"text": text, "text_in": text_in or {}, "commands": commands, "flag": flag})


@dataclass
class RunConfig:
    """Merged view of these defaults (TraceFormat's and TrainingConfig's where they own one), config file, and
    CLI flags (flags win). Each field is a config key, and a flag of the `commands` its `_setting` names, with
    help `text` (`text_in` a subcommand's own) and any argparse options beyond a value flag's (`option`
    respells the flag)."""

    input: str | None = _setting(None, "trace/series CSV file")
    genome: str | None = _setting(None, "trained genome file", ("predict",))
    timestamp_col: str = _setting(trace_io.TraceFormat.timestamp_col, "timestamp column name or index")
    value_col: str = _setting(trace_io.TraceFormat.value_col, "value column name or index")
    delimiter: str = _setting(trace_io.TraceFormat.delimiter, "CSV delimiter")
    header: bool = _setting(trace_io.TraceFormat.header, "file has no header row", option="--no-header",
                            action="store_false")
    pi_minutes: int = _setting(5, "prediction interval in minutes")
    window: int = _setting(_TRAINING.window_size, "input window size", text_in={"predict": "checked against the genome"})
    population: int = _setting(_TRAINING.population_size, "population size", _TRAIN_COMMANDS)
    generations: int = _setting(_TRAINING.generations, "training generations", _TRAIN_COMMANDS)
    train_frac: float = _setting(0.6, "training fraction in (0,1)", _TRAIN_COMMANDS)
    seed: int = _setting(_TRAINING.seed, "base random seed", _TRAIN_COMMANDS)
    seeds: int = _setting(5, "number of consecutive seeds", ("ablate",))
    out_dir: str = _setting("out", "output directory")
    mode: str = _setting(_TRAINING.mode.value, "training mode", ("train",), option="--ablate-mode",
                         choices=[m.value for m in evolve.TrainingMode])
    metrics: str = _setting(",".join(_METRIC_NAMES), "comma list of metrics", _TRAIN_COMMANDS)
    hidden_min: int = _setting(_TRAINING.hidden_range[0], "minimum hidden width", _TRAIN_COMMANDS)
    hidden_max: int = _setting(_TRAINING.hidden_range[1], "maximum hidden width", _TRAIN_COMMANDS)
    depth_min: int = _setting(_TRAINING.depth_range[0], "minimum hidden depth", _TRAIN_COMMANDS)
    depth_max: int = _setting(_TRAINING.depth_range[1], "maximum hidden depth", _TRAIN_COMMANDS)

    def selected_metrics(self) -> list[str]:
        names = [m.strip() for m in self.metrics.split(",") if m.strip()]
        if not names:
            raise InputError(f"--metrics names no metric; choose from {_METRIC_NAMES}")
        for name in names:
            if name not in _METRIC_NAMES:
                raise InputError(f"unknown metric {name!r}; choose from {_METRIC_NAMES}")
        return names

    def trace_format(self) -> trace_io.TraceFormat:
        return trace_io.TraceFormat(**{f.name: getattr(self, f.name) for f in fields(trace_io.TraceFormat)})

    def training_config(self, seed: int | None = None, mode: str | None = None):
        """The evolve settings; a value evolve rejects is a usage error."""
        if not 0.0 < self.train_frac < 1.0:
            raise InputError("train_frac must be in (0, 1)")
        try:
            return evolve.TrainingConfig(
                population_size=self.population,
                generations=self.generations,
                window_size=self.window,
                hidden_range=(self.hidden_min, self.hidden_max),
                depth_range=(self.depth_min, self.depth_max),
                seed=self.seed if seed is None else seed,
                mode=evolve.TrainingMode(mode or self.mode),
            )
        except ValueError as exc:
            raise InputError(f"bad training setting: {exc}") from None


_BOOLS = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}


def _parse_bool(raw: str) -> bool:
    if raw.lower() not in _BOOLS:
        raise ValueError(f"{raw!r} is not one of {', '.join(_BOOLS)}")
    return _BOOLS[raw.lower()]


# Config-file keys are RunConfig's fields; a value parses as its default's type.
_PARSE = {int: int, float: float, bool: _parse_bool}
_CONFIG_KEYS = {f.name: _PARSE.get(type(f.default), str) for f in fields(RunConfig)}


def _read_text(path: str | Path, kind: str) -> str:
    """The text of an existing UTF-8 `kind` file, line endings as written."""
    path = Path(path)
    if not path.is_file():
        raise FileNotFoundError(f"{kind} file not found: {path}")
    try:
        return path.read_bytes().decode("utf-8")
    except UnicodeDecodeError as exc:
        raise InputError.not_utf8(path, exc) from None


def load_config_file(path: str | Path) -> dict:
    """Parse a flat `key = value` config file; '#' starts a comment."""
    values = {}
    for lineno, line in enumerate(_read_text(path, "config").splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise InputError(f"{path}:{lineno}: expected 'key = value'")
        key, _, raw = line.partition("=")
        key = key.strip()
        if key not in _CONFIG_KEYS:
            raise InputError(f"{path}:{lineno}: unknown config key {key!r}")
        try:
            values[key] = _CONFIG_KEYS[key](raw.strip())
        except ValueError as exc:
            raise InputError(f"{path}:{lineno}: bad value for {key}: {exc}")
    return values


def _merge_config(args: argparse.Namespace) -> dict:
    """The settings given in the config file and as flags (flags win)."""
    merged = load_config_file(args.config) if args.config else {}
    for key in RunConfig.__dataclass_fields__:
        flag_value = getattr(args, key, None)
        if flag_value is not None:
            merged[key] = flag_value
    return merged


def _windows(cfg: RunConfig, window: int, training: bool = False):
    """Parse and aggregate cfg's trace, check that it holds a lag window of
    `window` values and its target, and fit the normalizer on the series:
    (params, normalized series). Training needs a window on each side of the
    split."""
    if not cfg.input:
        raise InputError("--input is required")
    if cfg.pi_minutes < 1:
        raise InputError("pi_minutes must be >= 1")
    series = trace_io.aggregate(trace_io.parse_trace(cfg.input, cfg.trace_format()), cfg.pi_minutes)
    if training and len(series.values) < window + 2:
        raise SeriesTooShortError(
            f"aggregated series has {len(series.values)} values; "
            f"training needs at least window + 2 = {window + 2}"
        )
    dataset.check_windows(len(series.values), window)
    params = dataset.fit_normalizer(series.values)
    return params, dataset.normalize(series.values, params)


def _run_section(cfg: RunConfig, **extra) -> dict:
    """A report's `run` section: the shared settings, then `extra`."""
    shared = ("pi_minutes", "window", "population", "generations", "train_frac")
    return {**{key: getattr(cfg, key) for key in shared}, **extra}


def _metric_dict(actual, predicted, names: list[str]) -> dict:
    result = metrics.evaluate(actual, predicted)
    return {k: result[k] for k in (*names, "count")}


FORECAST_COLUMNS = ("index", "split", "actual_normalized", "predicted_normalized")


def _forecast_rows(genome, normalized: np.ndarray, window: int, params, split_at: int, head: str = "train") -> dict:
    """Forecast columns of a normalized series: one entry per value after the
    first `window`, each predicted from the `window` values before it, then
    one extrapolated step past the series end, and the normalizer that scales
    them back. The first `split_at` targets are labelled `head`, the rest
    "test". `actual_normalized` stops one entry short, since the extrapolated
    step has no actual value.

    The series without its last value has exactly the targets' windows, so
    `network.forward_series` over it keeps `forward_batch`'s tiles and bits
    over the lag matrix, which is never made. The extrapolated step stays a
    one-row call of its own, as its bits come from one.
    """
    x = len(normalized) - window
    return {
        "index": range(window, window + x + 1),
        "split": [head] * split_at + ["test"] * (x - split_at) + ["future"],
        "actual_normalized": normalized[window:],
        "predicted_normalized": np.append(
            network.forward_series(genome, normalized[:-1]), network.forward(genome, normalized[-window:])
        ),
        "params": params,
    }


def write_forecast_csv(rows: dict, path: Path) -> None:
    """Write `_forecast_rows`: `#` lines with the schema and the normalizer's
    bounds, then the columns with floats as repr and the missing actual cell
    of the last row empty, each row ended as csv.writer ends it (CRLF)."""
    blank = [""] * (len(rows["split"]) - len(rows["actual_normalized"]))
    lines = map(",".join, zip(
        map(str, rows["index"]),
        rows["split"],
        chain(map(repr, rows["actual_normalized"].tolist()), blank),
        map(repr, rows["predicted_normalized"].tolist()),
    ))
    params = rows["params"]
    with path.open("w", newline="", encoding="utf-8") as fh:
        fh.write(f"# schema: {FORECAST_SCHEMA}\n# d_min: {float(params.d_min)!r}\n# d_max: {float(params.d_max)!r}\n")
        fh.write("\r\n".join([",".join(FORECAST_COLUMNS), *lines]) + "\r\n")


def read_forecast_csv(path: str | Path) -> list[dict]:
    """A forecast file's rows with raw-scale `actual` and `predicted`: its
    normalized cells through `dataset.denormalize` with the normalizer of its
    `#` lines. Only the extrapolated last row may lack an actual value; its
    `actual` is None. Every normalized value, and its raw value, must be
    finite."""
    header, body = {}, []
    for line in io.StringIO(_read_text(path, "forecast"), newline=""):
        if line.startswith("#"):
            key, _, value = line[1:].partition(":")
            header[key.strip()] = value.strip()
        else:
            body.append(line)
    schema = header.get("schema")
    if schema != FORECAST_SCHEMA:
        found = f"schema {schema}" if schema else "no '# schema:' line"
        raise MalformedReportError(
            f"{path} has {found}; only {FORECAST_SCHEMA} forecasts are read (train and predict write them)"
        )
    try:
        params = dataset.NormalizationParams(float(header["d_min"]), float(header["d_max"]))
    except KeyError as exc:
        raise MalformedReportError(f"{path} has no '# {exc.args[0]}:' line") from None
    except (ValueError, ConstantSeriesError) as exc:
        raise MalformedReportError(f"{path}: bad normalizer: {exc}") from None
    reader = csv.DictReader(body)
    if reader.fieldnames != list(FORECAST_COLUMNS):
        raise MalformedReportError(f"{path} is not a forecast file: expected columns {','.join(FORECAST_COLUMNS)}")
    raws = list(reader)
    keys, actual, predicted = [], [], []
    for number, raw in enumerate(raws, 1):
        try:
            keys.append((int(raw["index"]), raw["split"]))
            predicted.append(float(raw["predicted_normalized"]))
            if number < len(raws) or raw["actual_normalized"]:
                actual.append(float(raw["actual_normalized"]))
            if not all(map(isfinite, (predicted[-1], *actual[-1:]))):
                raise ValueError("normalized values must be finite")
        except (TypeError, ValueError) as exc:
            raise MalformedReportError(f"{path}: bad forecast row {raw}: {exc}") from None
    with np.errstate(over="ignore"):  # a raw value past float range is refused below
        actual, predicted = (dataset.denormalize(np.array(v), params).tolist() for v in (actual, predicted))
    for raw, values in zip(raws, zip_longest(actual, predicted, fillvalue=0.0)):
        if not all(map(isfinite, values)):
            raise MalformedReportError(f"{path}: forecast row {raw} denormalizes past float range")
    return [
        {"index": index, "split": split, "actual": a, "predicted": p}
        for (index, split), a, p in zip_longest(keys, actual, predicted)
    ]


def _write_json(payload: dict, path: Path) -> None:
    path.write_text(
        json.dumps(payload, sort_keys=True, indent=2) + "\n",
        encoding="utf-8",
    )


def cmd_train(cfg: RunConfig, checkpoint_dir: str | None = None) -> int:
    training_config = cfg.training_config()
    names = cfg.selected_metrics()
    params, normalized = _windows(cfg, cfg.window, training=True)
    train_ds, test_ds = dataset.split(dataset.build_windows(normalized, cfg.window), cfg.train_frac)
    run = evolve.train(training_config, train_ds, checkpoint_dir=checkpoint_dir)
    evolve.convergence_monitor(run.fitness_trajectory)

    # Score the forecast's own predictions: a row's last bits depend on where
    # it falls in forward_batch's row tiles, so a second pass could differ.
    rows = _forecast_rows(run.best, normalized, cfg.window, params, split_at=len(train_ds))
    predicted = rows["predicted_normalized"]
    train_pred, test_pred = predicted[: len(train_ds)], predicted[len(train_ds) : -1]

    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    network.save_genome(run.best, out_dir / "genome.bin")
    write_forecast_csv(rows, out_dir / "forecast.csv")
    payload = {
        "schema": REPORT_SCHEMA,
        "run": _run_section(
            cfg, seed=cfg.seed, mode=cfg.mode,
            hidden_range=[cfg.hidden_min, cfg.hidden_max], depth_range=[cfg.depth_min, cfg.depth_max],
        ),
        "normalization": {"d_min": params.d_min, "d_max": params.d_max},
        "training": run.to_dict(),
        "metrics": {
            "train": _metric_dict(train_ds.targets, train_pred, names),
            "test": _metric_dict(test_ds.targets, test_pred, names),
        },
        "forecast": {
            "test_actual_normalized": [float(v) for v in test_ds.targets],
            "test_predicted_normalized": [float(v) for v in test_pred],
        },
    }
    _write_json(payload, out_dir / "report.json")
    print(
        f"trained {cfg.mode} mode: best training fitness {run.best_fitness:.6f}, "
        f"test rmse {payload['metrics']['test'].get('rmse', float('nan')):.6f}"
    )
    print(f"artifacts in {out_dir}")
    return 0


def cmd_predict(cfg: RunConfig, explicit_window: int | None = None) -> int:
    """Forecast cfg's trace; `explicit_window`, the window the flags or the
    config file set, must match the genome's input width."""
    if not cfg.genome:
        raise InputError("--genome is required")
    genome = network.load_genome(cfg.genome)
    n = genome.architecture.input_width
    if explicit_window is not None and explicit_window != n:
        raise DimensionMismatchError(
            f"window {explicit_window} does not match genome input width {n}"
        )
    params, normalized = _windows(cfg, n)
    rows = _forecast_rows(genome, normalized, n, params, split_at=len(normalized) - n, head="series")
    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_forecast_csv(rows, out_dir / "forecast.csv")
    print(f"wrote {len(rows['split'])} forecast rows to {out_dir / 'forecast.csv'}")
    return 0


def cmd_ablate(cfg: RunConfig) -> int:
    if cfg.seeds < 1:
        raise InputError("seeds must be >= 1")
    cfg.training_config()  # usage errors before the data is read
    names = cfg.selected_metrics()
    _, normalized = _windows(cfg, cfg.window, training=True)
    train_ds, test_ds = dataset.split(dataset.build_windows(normalized, cfg.window), cfg.train_frac)
    modes = [m.value for m in evolve.TrainingMode]
    seeds = [cfg.seed + k for k in range(cfg.seeds)]
    runs = []
    for mode in modes:
        for seed in seeds:
            run = evolve.train(cfg.training_config(seed=seed, mode=mode), train_ds)
            evolve.convergence_monitor(run.fitness_trajectory)
            # The forecast's test rows: the same function, tiles and bits.
            test_pred = network.forward_series(run.best, normalized[:-1])[len(train_ds) :]
            runs.append(
                {
                    "mode": mode,
                    "seed": seed,
                    "best_training_fitness": run.best_fitness,
                    **_metric_dict(test_ds.targets, test_pred, names),
                }
            )
    medians = {
        mode: {
            name: statistics.median(r[name] for r in runs if r["mode"] == mode)
            for name in names
        }
        for mode in modes
    }

    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    payload = {
        "schema": ABLATION_SCHEMA,
        "run": _run_section(cfg, seeds=seeds),
        "runs": runs,
        "medians": medians,
    }
    _write_json(payload, out_dir / "ablation.json")
    with (out_dir / "ablation.csv").open("w", newline="", encoding="utf-8") as fh:
        fh.write(f"# schema: {ABLATION_SCHEMA}\n")
        writer = csv.writer(fh)
        writer.writerow(["mode", "seed", *names])
        for r in runs:
            writer.writerow([r["mode"], r["seed"], *(repr(r[name]) for name in names)])
    for mode in modes:
        cells = ", ".join(f"{name}={medians[mode][name]:.5f}" for name in names)
        print(f"{mode}: median {cells}")
    return 0


def _svg_polyline(values: list[float], lo: float, hi: float, width: int, height: int, pad: int) -> str:
    span = (hi - lo) or 1.0
    n = len(values)
    points = []
    for i, v in enumerate(values):
        x = pad + (width - 2 * pad) * (i / max(n - 1, 1))
        y = pad + (height - 2 * pad) * (1.0 - (v - lo) / span)
        points.append(f"{x:.2f},{y:.2f}")
    return " ".join(points)


def write_chart_svg(actual: list[float], predicted: list[float], path: Path) -> None:
    width, height, pad = 900, 320, 24
    both = actual + predicted
    lo, hi = min(both), max(both)
    svg = (
        f"<!-- schema: {PLOT_SCHEMA} -->\n"
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">\n'
        f'  <rect width="{width}" height="{height}" fill="white"/>\n'
        f'  <polyline fill="none" stroke="#1f77b4" stroke-width="1.5" '
        f'points="{_svg_polyline(actual, lo, hi, width, height, pad)}"/>\n'
        f'  <polyline fill="none" stroke="#d62728" stroke-width="1.5" '
        f'points="{_svg_polyline(predicted, lo, hi, width, height, pad)}"/>\n'
        f'  <text x="{pad}" y="16" font-size="12" fill="#1f77b4">actual</text>\n'
        f'  <text x="{pad + 60}" y="16" font-size="12" fill="#d62728">predicted</text>\n'
        f"</svg>\n"
    )
    path.write_text(svg, encoding="utf-8")


def cmd_plot_data(forecast_path: str, report_path: str | None, out_dir: str) -> int:
    if report_path:
        try:
            payload = json.loads(_read_text(report_path, "report"))
            actual = [float(v) for v in payload["forecast"]["test_actual_normalized"]]
            predicted = [float(v) for v in payload["forecast"]["test_predicted_normalized"]]
        except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
            raise MalformedReportError(f"{report_path}: not a training report: {exc}")
    else:
        rows = [r for r in read_forecast_csv(forecast_path) if r["actual"] is not None]
        actual = [r["actual"] for r in rows]
        predicted = [r["predicted"] for r in rows]
    both = actual + predicted
    if not actual or len(actual) != len(predicted) or not all(map(isfinite, [*both, max(both) - min(both)])):
        raise MalformedReportError(f"{report_path or forecast_path}: {len(actual)} actual and {len(predicted)} "
                                   "predicted values; a plot needs equal, nonzero counts of finite values in float range")

    plot_dir = Path(out_dir) / "plot"
    plot_dir.mkdir(parents=True, exist_ok=True)
    with (plot_dir / "actual_vs_predicted.csv").open("w", newline="", encoding="utf-8") as fh:
        fh.write(f"# schema: {PLOT_SCHEMA}\n")
        writer = csv.writer(fh)
        writer.writerow(["actual", "predicted"])
        for a, p in zip(actual, predicted):
            writer.writerow([repr(a), repr(p)])
    write_chart_svg(actual, predicted, plot_dir / "chart.svg")
    print(f"plot data for {len(actual)} points in {plot_dir}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="qevo", description="Evolutionary qubit-network forecasting for resource-usage traces")
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {
        "train": sub.add_parser("train", help="train a forecaster on a trace"),
        "predict": sub.add_parser("predict", help="forecast a series with a trained genome"),
        "ablate": sub.add_parser("ablate", help="run full/fixed-arch/fixed-all over several seeds"),
    }
    for command in commands.values():
        command.add_argument("--config", help="flat key=value config file")
    # A flag defaults to None so that, left out, it leaves the config file's value.
    for f in fields(RunConfig):
        flag = dict(f.metadata["flag"])
        option = flag.pop("option", "--" + f.name.replace("_", "-"))
        text = f.metadata["text"]
        if "action" not in flag:
            text += "" if f.default is None else f" (default {f.default})"
            if _CONFIG_KEYS[f.name] is not str:
                flag["type"] = _CONFIG_KEYS[f.name]
        for name in f.metadata["commands"]:
            commands[name].add_argument(option, dest=f.name, default=None, help=f.metadata["text_in"].get(name, text), **flag)
    commands["train"].add_argument("--checkpoint-dir", dest="checkpoint_dir", help="write per-generation checkpoints here")

    p_plot = sub.add_parser("plot-data", help="emit plot-ready CSV and a simple SVG chart")
    source = p_plot.add_mutually_exclusive_group(required=True)
    source.add_argument("--forecast", help="forecast.csv from train/predict")
    source.add_argument("--report", help="report.json from train")
    p_plot.add_argument("--out-dir", dest="out_dir", default=RunConfig.out_dir, help="output directory (default %(default)s)")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "plot-data":
            return cmd_plot_data(args.forecast, args.report, args.out_dir)
        given = _merge_config(args)
        cfg = RunConfig(**given)
        if args.command == "train":
            return cmd_train(cfg, checkpoint_dir=args.checkpoint_dir)
        if args.command == "predict":
            return cmd_predict(cfg, explicit_window=given.get("window"))
        return cmd_ablate(cfg)
    except (FileNotFoundError, InputError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 2
    except QevoError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
