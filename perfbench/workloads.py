"""Seeded inputs and command lines for the benchmark workloads.

Every input is generated from the run's seed before anything is timed; qevo
only ever sees the files written here. `SMOKE` shrinks every workload so the
benchmark's own tests can run the same code in seconds.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class Size:
    """The knobs a workload's input size depends on."""

    desk_points: int = 2000
    desk_population: int = 80
    desk_generations: int = 50
    long_rows: int = 500_000
    rmse_bound: float | None = 0.08  # criterion 8; tiny smoke runs cannot reach it


FULL = Size()
SMOKE = Size(
    desk_points=300, desk_population=8, desk_generations=3, long_rows=20_000, rmse_bound=None,
)

# Workload names (and the metric names and units run.py prints) come from
# BENCHMARK.json at the root of the checkout.
BENCHMARK = json.loads(
    (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text(encoding="utf-8")
)
NAMES = tuple(w["name"] for w in BENCHMARK["workloads"])

# A training run's work follows the architectures its population samples and
# adopts: across qevo --seed values it varied 1.9x, and across noise draws at
# one qevo seed up to 1.5x. Both stay fixed, so the benchmark seed varies the
# training trace only in its time origin and value scale, which leaves the
# work unchanged; predict-long's trace and genome vary in full.
TRAIN_SEED = 7
NOISE_SEED = 0
# The predict genome's phases come from the seed; its widths, which set the
# forward pass's work, do not.
PREDICT_HIDDEN = (8, 8)


@dataclass(frozen=True)
class Prepared:
    """A workload's generated inputs and what the checks need to know about them."""

    name: str
    kind: str  # "train" or "predict"
    args: tuple[str, ...]  # qevo arguments, without --out-dir
    window: int
    input_rows: int
    evaluations: int  # network passes over a whole dataset per qevo call
    series: np.ndarray  # normalized series, rebuilt here without qevo
    rmse_bound: float | None
    genome: Path | None = None  # predict's input genome; train writes its own

    @property
    def forecast_rows(self) -> int:
        """One row per window plus the extrapolated step."""
        return self.series.size - self.window + 1

    def argv(self, out_dir: Path) -> list[str]:
        """qevo arguments writing every artifact under `out_dir`; train's
        checkpoints go to `out_dir/checkpoints`, which must exist before the call."""
        extra = ["--checkpoint-dir", str(out_dir / "checkpoints")] if self.kind == "train" else []
        return [*self.args, "--out-dir", str(out_dir), *extra]


def noisy_sine(rng: np.random.Generator, points: int) -> np.ndarray:
    """The acceptance suite's noisy sine (period 48, noise 0.05 on 0.5 + 0.4 sin),
    with its noise drawn from NOISE_SEED, lifted by 0.5 and scaled by a
    seed-drawn factor. Min-max normalization undoes the lift and scale."""
    t = np.arange(points)
    noise = np.random.default_rng(NOISE_SEED).normal(0.0, 0.05, points)
    shape = 1.0 + 0.4 * np.sin(2 * np.pi * t / 48.0) + noise
    return rng.uniform(1.0, 100.0) * shape


def write_trace(path: Path, timestamps, values) -> None:
    lines = ["timestamp,value"]
    lines += [f"{int(t)},{float(v)!r}" for t, v in zip(timestamps, values)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def long_trace(rng: np.random.Generator, rows: int, bucket_s: int = 300):
    """Cluster-trace-shaped samples: about five per bucket at jittered integer
    timestamps, with repeated timestamps and whole buckets left empty."""
    step = bucket_s // 5
    base = 1_300_000_000 - 1_300_000_000 % bucket_s
    slots = np.arange(rows + rows // 50)
    t = base + step // 2 + slots * step + rng.integers(-step // 2, step // 2 + 1, slots.size)
    dropped = rng.random(slots.size // 5 + 1) < 0.01  # ~1 % of buckets lose every sample
    dropped[[0, -1]] = False
    t = t[~dropped[(t - base) // bucket_s]][:rows]
    dup = rng.random(t.size) < 0.02
    dup[0] = False
    t[dup] = t[np.flatnonzero(dup) - 1]
    phase = 2 * np.pi * (t - base) / 86_400.0
    v = np.abs(0.4 + 0.25 * np.sin(phase) + rng.normal(0.0, 0.05, t.size))
    return t, np.round(v, 6)


def aggregate_normalized(t: np.ndarray, v: np.ndarray, bucket_s: int) -> np.ndarray:
    """Bucket means of per-timestamp means, gaps interpolated, min-max scaled.

    Written apart from qevo's own ingest, adding in the same order, so it
    checks the forecast's actual_normalized column."""
    uniq, inverse = np.unique(t, return_inverse=True)
    sums = np.zeros(uniq.size)
    np.add.at(sums, inverse, v)
    per_t = sums / np.bincount(inverse)
    buckets = np.floor(uniq / float(bucket_s)).astype(np.int64)
    first = int(buckets[0])
    n = int(buckets[-1]) - first + 1
    bsum = np.zeros(n)
    bcount = np.zeros(n)
    np.add.at(bsum, buckets - first, per_t)
    np.add.at(bcount, buckets - first, 1.0)
    full = bcount > 0
    means = np.full(n, np.nan)
    means[full] = bsum[full] / bcount[full]
    if not full.all():
        idx = np.arange(n)
        means = np.interp(idx, idx[full], means[full])
    lo, hi = means.min(), means.max()
    return np.clip((means - lo) / (hi - lo), 0.0, 1.0)


def prepare(name: str, seed: int, work: Path, size: Size = FULL) -> Prepared:
    """Write the inputs of workload `name` for `seed` into `work`."""
    rng = np.random.default_rng([seed, NAMES.index(name)])
    if name == "train-desk":
        points, bucket_s, window = size.desk_points, 60, 10
        values = noisy_sine(rng, points)
        t = int(rng.integers(1_200_000_000, 1_400_000_000)) + np.arange(points) * bucket_s
        path = work / f"{name}.csv"
        write_trace(path, t, values)
        args = (
            "train", "--input", str(path), "--pi-minutes", str(bucket_s // 60),
            "--window", str(window), "--population", str(size.desk_population),
            "--generations", str(size.desk_generations), "--seed", str(TRAIN_SEED),
        )
        return Prepared(
            name=name, kind="train", args=args, window=window, input_rows=points,
            evaluations=size.desk_population * (1 + 2 * size.desk_generations),
            series=aggregate_normalized(t, values, bucket_s), rmse_bound=size.rmse_bound,
        )
    if name != "predict-long":
        raise ValueError(f"unknown workload {name!r}")

    from qevo import network

    window = 10
    t, v = long_trace(rng, size.long_rows)
    path = work / "predict-long.csv"
    write_trace(path, t, v)
    arch = network.Architecture(window, PREDICT_HIDDEN)
    genome_path = work / "predict-long.genome.bin"
    network.save_genome(network.random_genome(arch, rng), genome_path)
    series = aggregate_normalized(t, v, 300)
    args = ("predict", "--genome", str(genome_path), "--input", str(path), "--pi-minutes", "5")
    return Prepared(
        name=name, kind="predict", args=args, window=window, input_rows=int(t.size),
        evaluations=1, series=series, rmse_bound=None, genome=genome_path,
    )
