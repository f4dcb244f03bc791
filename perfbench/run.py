"""qevo benchmark: seeded workloads through `qevo.cli.main`, checked and timed.

    python3 perfbench/run.py --workload train-desk --seed 1 --seconds 60 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 60 --trace 0

Run from anywhere inside a checkout; the package is imported from its `src`.
Inputs are generated from --seed before any timing. Each qevo call runs in a
fresh interpreter (worker.py) with QEVO_THREADS unset and BLAS at its
defaults, one call at a time, and calls repeat until --seconds would be
exceeded (at least two). Every call's artifacts are checked: the first in
full, the rest for byte identity with it.

--trace 0 prints the end-to-end metrics: timings are the fastest call (every
call does the same work, and on a shared host load only adds time), peak
RSS the median call. --trace 1 alternates plain and traced calls and prints
the per-layer metrics (medians over traced calls) plus the tracing overhead.
The last stdout line is one JSON object: {"correct", "attempted", "failed",
"metrics"}. Working files go under .perfbench_out/ in the checkout; the
environment record, per-call figures and the last traced call's spans stay
there.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy

import checks
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_PER_CALL = 2
MIN_CALLS = 2
CALL_TIMEOUT_S = 100  # a call takes under 10 s; a run must end within 180 s

END_TO_END = {m["name"]: m["unit"] for m in workloads.BENCHMARK["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in workloads.BENCHMARK["per_layer"]}
# Per-layer metrics qevo itself records in report.json; not traced.
REPORTED = ("evolve.adoption_ratio", "evolve.degenerate_args")


def environment() -> dict:
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        blas = None
    thread_vars = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "QEVO_THREADS")
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "thread_vars": {k: os.environ.get(k) for k in thread_vars},
        "qevo_calls_run_with": "QEVO_THREADS unset, BLAS thread variables as above, one call at a time",
    }


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("QEVO_THREADS", None)
    env["PYTHONPATH"] = str(SRC)
    return env


def reported_metrics(prepared, out_dir: Path) -> dict[str, float]:
    """evolve's adoption ratio (adopted children / candidate steps) and
    degenerate-argument count, as qevo records them; 0 for predict."""
    if prepared.kind != "train":
        return dict.fromkeys(REPORTED, 0.0)
    training = json.loads((out_dir / "report.json").read_text(encoding="utf-8"))["training"]
    steps = training["population_size"] * training["generations"]
    return {
        "evolve.adoption_ratio": sum(training["success_totals"].values()) / steps,
        "evolve.degenerate_args": float(training["degenerate_args"]),
    }


class Runner:
    """Runs one workload's qevo calls and keeps what the metrics need."""

    def __init__(self, prepared, seed: int, out: Path):
        self.prepared = prepared
        self.seed = seed
        self.out = out
        self.work = out / "work"
        self.env = child_env()
        self.calls: list[dict] = []
        self.setup: list[float] = []
        self.reference: dict[str, str] | None = None
        self.content_failures: list[str] = []

    def _worker(self, job: dict, tag: str) -> dict | None:
        job_path = self.work / f"{tag}.job.json"
        job["result"] = str(self.work / f"{tag}.result.json")
        job_path.write_text(json.dumps(job), encoding="utf-8")
        with (self.work / f"{tag}.log").open("w", encoding="utf-8") as log:
            try:
                proc = subprocess.run(
                    [sys.executable, str(HERE / "worker.py"), str(job_path)],
                    env=self.env, stdout=log, stderr=subprocess.STDOUT,
                    timeout=CALL_TIMEOUT_S, cwd=ROOT,
                )
            except subprocess.TimeoutExpired:  # the child is killed and reaped
                print(f"{tag}: worker ran past {CALL_TIMEOUT_S} s", file=sys.stderr)
                return None
        if proc.returncode != 0:
            tail = (self.work / f"{tag}.log").read_text(encoding="utf-8")[-2000:]
            print(f"{tag}: worker exited {proc.returncode}\n{tail}", file=sys.stderr)
            return None
        return json.loads(Path(job["result"]).read_text(encoding="utf-8"))

    def setup_sample(self) -> float:
        result = self._worker({"argv": None}, f"import{len(self.setup)}")
        if result is None:
            raise RuntimeError("importing qevo.cli failed")
        return result["import_s"]

    def call(self, traced: bool) -> None:
        tag = f"call{len(self.calls)}"
        out_dir = self.work / tag
        out_dir.mkdir()
        if self.prepared.kind == "train":
            (out_dir / "checkpoints").mkdir()  # qevo train does not create it
        job = {"argv": self.prepared.argv(out_dir), "trace": traced,
               "spans": str(self.out / "spans.json.gz")}
        started = time.perf_counter()
        result = self._worker(job, tag) or {"exit_code": None}
        record = {"traced": traced, "elapsed_s": time.perf_counter() - started, **result}
        failures = []
        if result["exit_code"] != 0:
            failures.append(f"qevo exited {result['exit_code']}")
        elif self.reference is None:
            self.reference = checks.artifact_hashes(out_dir)
            try:
                self.content_failures = checks.check_outputs(self.prepared, out_dir, self.seed)
            except Exception as exc:  # a malformed artifact is a failed call, not a crash
                self.content_failures = [f"checking artifacts raised {exc!r}"]
            failures += self.content_failures
        else:
            # identical artifacts share the reference call's check results
            failures += checks.check_identical(self.reference, checks.artifact_hashes(out_dir))
            failures += self.content_failures
        if traced and result["exit_code"] == 0:
            try:
                reported = reported_metrics(self.prepared, out_dir)
            except Exception as exc:  # already a failed check; keep the run going
                failures.append(f"reading report.json raised {exc!r}")
                reported = dict.fromkeys(REPORTED, 0.0)
            record["layers"].update(reported)
        shutil.rmtree(out_dir, ignore_errors=True)
        record["failures"] = failures
        for failure in failures:
            print(f"{self.prepared.name} {tag}: {failure}", file=sys.stderr)
        self.calls.append(record)

    def run(self, seconds: float, trace: bool) -> None:
        """Calls (and, untraced, import samples before each) until `seconds`
        would be exceeded. Spreading the import samples over the run lets
        setup_s see the same host load as the calls."""
        self.setup_sample()  # compiles .pyc once
        started = time.perf_counter()
        while True:
            if not trace:
                self.setup += [self.setup_sample() for _ in range(SETUP_PER_CALL)]
            self.call(traced=trace and len(self.calls) % 2 == 1)
            elapsed = time.perf_counter() - started
            per_cycle = elapsed / len(self.calls)
            if len(self.calls) >= MIN_CALLS and elapsed + per_cycle > seconds:
                return


def _timed(calls, traced):
    """Calls that ran to completion; a failed check is counted, not hidden."""
    return [c for c in calls if c["traced"] == traced and c["exit_code"] == 0]


def end_to_end(runner: Runner) -> dict[str, float]:
    plain = _timed(runner.calls, False)
    wall = min(c["wall_s"] for c in plain)
    return {
        "wall_s": wall,
        "cpu_s": min(c["cpu_s"] for c in plain),
        "peak_rss_mb": statistics.median(c["peak_rss_mb"] for c in plain),
        "evals_per_s": runner.prepared.evaluations / wall,
        "rows_per_s": runner.prepared.input_rows / wall,
        "setup_s": min(runner.setup),
    }


def per_layer(runner: Runner) -> dict[str, float]:
    traced = _timed(runner.calls, True)
    plain = _timed(runner.calls, False)
    metrics = {
        name: statistics.median(c["layers"][name] for c in traced)
        for name in PER_LAYER if name != "trace_overhead_frac"
    }
    metrics["trace_overhead_frac"] = (
        min(c["wall_s"] for c in traced) / min(c["wall_s"] for c in plain) - 1.0
    )
    return metrics


def run_workload(name: str, seed: int, seconds: float, trace: bool, size) -> tuple[dict, int, int]:
    out = ROOT / ".perfbench_out" / f"{name}-seed{seed}-trace{int(trace)}-{os.getpid()}"
    shutil.rmtree(out, ignore_errors=True)
    (out / "work").mkdir(parents=True)
    env = environment()
    (out / "env.json").write_text(json.dumps(env, indent=2), encoding="utf-8")
    print(f"env: {json.dumps(env, sort_keys=True)}")

    prepared = workloads.prepare(name, seed, out / "work", size)
    runner = Runner(prepared, seed, out)
    try:
        runner.run(seconds, trace)
    finally:
        record = {"setup_s": runner.setup, "calls": runner.calls}
        (out / "calls.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
        shutil.rmtree(out / "work", ignore_errors=True)

    attempted = len(runner.calls)
    failed = sum(1 for c in runner.calls if c["failures"])
    if not _timed(runner.calls, False) or (trace and not _timed(runner.calls, True)):
        raise RuntimeError(f"{name}: no completed call to measure")
    metrics = per_layer(runner) if trace else end_to_end(runner)
    units = PER_LAYER if trace else END_TO_END
    for metric, value in metrics.items():
        print(f"{name} {metric} = {value!r} {units[metric]}")
    print(f"{name} fail_frac = {failed / attempted!r} ({failed} of {attempted} calls)")
    return metrics, attempted, failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.NAMES, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="shrink every workload (for the benchmark's own tests)")
    args = parser.parse_args(argv)

    if not (SRC / "qevo" / "cli.py").is_file():
        print(f"no qevo package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    size = workloads.SMOKE if args.smoke else workloads.FULL
    names = workloads.NAMES if args.workload == "all" else (args.workload,)
    units = PER_LAYER if args.trace else END_TO_END
    metrics, attempted, failed = {}, 0, 0
    try:
        for name in names:
            found, tried, bad = run_workload(name, args.seed, args.seconds, bool(args.trace), size)
            prefix = f"{name}/" if len(names) > 1 else ""
            metrics.update({prefix + m: {"value": v, "unit": units[m]} for m, v in found.items()})
            attempted += tried
            failed += bad
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
