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
from dataclasses import dataclass, fields
from itertools import chain
from pathlib import Path

import numpy as np

from . import dataset, evolve, metrics, network, trace_io
from .errors import (
    DimensionMismatchError,
    InputError,
    MalformedReportError,
    QevoError,
    SeriesTooShortError,
)

REPORT_SCHEMA = "qevo.report/1"
FORECAST_SCHEMA = "qevo.forecast/1"
ABLATION_SCHEMA = "qevo.ablation/1"
PLOT_SCHEMA = "qevo.plot/1"

_METRIC_NAMES = ("rmse", "mae", "mape")


@dataclass
class RunConfig:
    """Merged view of these defaults, config file, and CLI flags (flags win)."""

    input: str | None = None
    genome: str | None = None
    timestamp_col: str = "timestamp"
    value_col: str = "value"
    delimiter: str = ","
    header: bool = True
    pi_minutes: int = 5
    window: int = 10
    population: int = 80
    generations: int = 50
    train_frac: float = 0.6
    seed: int = 0
    seeds: int = 5
    out_dir: str = "out"
    mode: str = "full"
    metrics: str = "rmse,mae,mape"
    hidden_min: int = 5
    hidden_max: int = 10
    depth_min: int = 1
    depth_max: int = 4

    def selected_metrics(self) -> list[str]:
        names = [m.strip() for m in self.metrics.split(",") if m.strip()]
        if not names:
            raise InputError(f"--metrics names no metric; choose from {_METRIC_NAMES}")
        for name in names:
            if name not in _METRIC_NAMES:
                raise InputError(f"unknown metric {name!r}; choose from {_METRIC_NAMES}")
        return names

    def trace_format(self) -> trace_io.TraceFormat:
        names = (f.name for f in fields(trace_io.TraceFormat))
        return trace_io.TraceFormat(**{name: getattr(self, name) for name in names})

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
        bad = exc.object[exc.start : exc.end].hex(" ")
        raise InputError(f"{path} is not UTF-8 text ({exc.reason}: {bad})") from None


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
    """Parse and aggregate cfg's trace, fit the normalizer on the series and
    build its lag windows: (params, windows). Training needs a window on each
    side of the split."""
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
    params = dataset.fit_normalizer(series.values)
    return params, dataset.build_windows(dataset.normalize(series.values, params), window)


def _run_section(cfg: RunConfig, **extra) -> dict:
    """A report's `run` section: the shared settings, then `extra`."""
    shared = ("pi_minutes", "window", "population", "generations", "train_frac")
    return {**{key: getattr(cfg, key) for key in shared}, **extra}


def _metric_dict(actual, predicted, names: list[str]) -> dict:
    result = metrics.evaluate(actual, predicted)
    return {k: result[k] for k in (*names, "count")}


FORECAST_COLUMNS = (
    "index", "split", "actual", "predicted", "actual_normalized", "predicted_normalized",
)


def _forecast_rows(genome, windows, params, split_at: int, head: str = "train") -> dict:
    """Forecast columns: one entry per window target, then one extrapolated
    step past the series end. The first `split_at` targets are labelled
    `head`, the rest "test". `actual` and `actual_normalized` stop one entry
    short, since the extrapolated step has no actual value."""
    preds_norm = network.forward_batch(genome, windows.inputs)
    # Window ending at the last known value predicts one step past the series.
    tail = np.concatenate([windows.inputs[-1][1:], [windows.targets[-1]]])
    predicted_normalized = np.append(preds_norm, network.forward(genome, tail))
    n, x = windows.window_size, len(windows)
    return {
        "index": range(n, n + x + 1),
        "split": [head] * split_at + ["test"] * (x - split_at) + ["future"],
        "actual": dataset.denormalize(windows.targets, params),
        "predicted": dataset.denormalize(predicted_normalized, params),
        "actual_normalized": windows.targets,
        "predicted_normalized": predicted_normalized,
    }


def write_forecast_csv(rows: dict, path: Path) -> None:
    """Write `_forecast_rows` columns: floats as repr, the missing actual
    cells of the last row empty, lines as csv.writer ends them (CRLF)."""
    def cells(key):
        return map(repr, rows[key].tolist())

    blank = [""] * (len(rows["split"]) - len(rows["actual"]))
    lines = map(",".join, zip(
        map(str, rows["index"]),
        rows["split"],
        chain(cells("actual"), blank),
        cells("predicted"),
        chain(cells("actual_normalized"), blank),
        cells("predicted_normalized"),
    ))
    with path.open("w", newline="", encoding="utf-8") as fh:
        fh.write(f"# schema: {FORECAST_SCHEMA}\n")
        fh.write("\r\n".join([",".join(FORECAST_COLUMNS), *lines]) + "\r\n")


def read_forecast_csv(path: str | Path) -> list[dict]:
    rows = []
    lines = [ln for ln in io.StringIO(_read_text(path, "forecast"), newline="") if not ln.startswith("#")]
    reader = csv.DictReader(lines)
    if reader.fieldnames is None or "predicted" not in reader.fieldnames:
        raise MalformedReportError(f"{path} is not a forecast file")
    for raw in reader:
        try:
            rows.append(
                {
                    "index": int(raw["index"]),
                    "split": raw.get("split", ""),
                    "actual": float(raw["actual"]) if raw.get("actual") else None,
                    "predicted": float(raw["predicted"]),
                }
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise MalformedReportError(f"{path}: bad forecast row {raw}: {exc}")
    return rows


def _write_json(payload: dict, path: Path) -> None:
    path.write_text(
        json.dumps(payload, sort_keys=True, indent=2) + "\n",
        encoding="utf-8",
    )


def cmd_train(cfg: RunConfig, checkpoint_dir: str | None = None) -> int:
    training_config = cfg.training_config()
    names = cfg.selected_metrics()
    params, windows = _windows(cfg, cfg.window, training=True)
    train_ds, test_ds = dataset.split(windows, cfg.train_frac)
    best, run = evolve.train(training_config, train_ds, checkpoint_dir=checkpoint_dir)
    evolve.convergence_monitor(run.fitness_trajectory)

    # Score the forecast's own predictions: a row's last bits depend on where
    # it falls in forward_batch's row tiles, so a second pass could differ.
    rows = _forecast_rows(best, windows, params, split_at=len(train_ds))
    predicted = rows["predicted_normalized"]
    train_pred, test_pred = predicted[: len(train_ds)], predicted[len(train_ds) : len(windows)]

    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    network.save_genome(best, out_dir / "genome.bin")
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
    params, windows = _windows(cfg, n)
    rows = _forecast_rows(genome, windows, params, split_at=len(windows), head="series")
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
    params, windows = _windows(cfg, cfg.window, training=True)
    train_ds, test_ds = dataset.split(windows, cfg.train_frac)
    modes = [m.value for m in evolve.TrainingMode]
    seeds = [cfg.seed + k for k in range(cfg.seeds)]
    runs = []
    for mode in modes:
        for seed in seeds:
            best, run = evolve.train(cfg.training_config(seed=seed, mode=mode), train_ds)
            evolve.convergence_monitor(run.fitness_trajectory)
            test_pred = network.forward_batch(best, windows.inputs)[len(train_ds) :]
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
    if not actual:
        raise MalformedReportError("no (actual, predicted) pairs to plot")

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


def _add_trace_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--input", help="trace/series CSV file")
    parser.add_argument("--timestamp-col", dest="timestamp_col", help="timestamp column name or index")
    parser.add_argument("--value-col", dest="value_col", help="value column name or index")
    parser.add_argument("--delimiter", help="CSV delimiter (default ,)")
    parser.add_argument("--no-header", dest="header", action="store_false", default=None,
                        help="file has no header row")
    parser.add_argument("--pi-minutes", dest="pi_minutes", type=int, help="prediction interval in minutes")
    parser.add_argument("--out-dir", dest="out_dir", help="output directory")
    parser.add_argument("--config", help="flat key=value config file")


def _add_train_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--window", type=int, help="input window size")
    parser.add_argument("--population", type=int, help="population size")
    parser.add_argument("--generations", type=int, help="training generations")
    parser.add_argument("--train-frac", dest="train_frac", type=float, help="training fraction in (0,1)")
    parser.add_argument("--seed", type=int, help="base random seed")
    parser.add_argument("--hidden-min", dest="hidden_min", type=int, help="minimum hidden width")
    parser.add_argument("--hidden-max", dest="hidden_max", type=int, help="maximum hidden width")
    parser.add_argument("--depth-min", dest="depth_min", type=int, help="minimum hidden depth")
    parser.add_argument("--depth-max", dest="depth_max", type=int, help="maximum hidden depth")
    parser.add_argument("--metrics", help="comma list from rmse,mae,mape")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qevo",
        description="Evolutionary qubit-network forecasting for resource-usage traces",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="train a forecaster on a trace")
    _add_trace_flags(p_train)
    _add_train_flags(p_train)
    p_train.add_argument("--ablate-mode", dest="mode", choices=[m.value for m in evolve.TrainingMode],
                         help="training mode (default full)")
    p_train.add_argument("--checkpoint-dir", dest="checkpoint_dir", help="write per-generation checkpoints here")

    p_predict = sub.add_parser("predict", help="forecast a series with a trained genome")
    _add_trace_flags(p_predict)
    p_predict.add_argument("--genome", help="trained genome file")
    p_predict.add_argument("--window", type=int, help="expected window size (checked against genome)")

    p_ablate = sub.add_parser("ablate", help="run full/fixed-arch/fixed-all over several seeds")
    _add_trace_flags(p_ablate)
    _add_train_flags(p_ablate)
    p_ablate.add_argument("--seeds", type=int, help="number of consecutive seeds (default 5)")

    p_plot = sub.add_parser("plot-data", help="emit plot-ready CSV and a simple SVG chart")
    source = p_plot.add_mutually_exclusive_group(required=True)
    source.add_argument("--forecast", help="forecast.csv from train/predict")
    source.add_argument("--report", help="report.json from train")
    p_plot.add_argument("--out-dir", dest="out_dir", default="out", help="output directory")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
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
