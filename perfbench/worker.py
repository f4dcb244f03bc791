"""One measured qevo call in a fresh interpreter.

    python3 perfbench/worker.py JOB_JSON

JOB_JSON names `argv` (qevo arguments, or null to time the import alone),
`trace` (install the layer wrappers) and `result` (where to write the
measurements). The package must come from `src` next to this directory;
`run.py` sets PYTHONPATH so it does.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def _cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def main(job_path: str) -> int:
    job = json.loads(Path(job_path).read_text(encoding="utf-8"))
    started = time.perf_counter()
    import qevo.cli

    import_s = time.perf_counter() - started
    if not Path(qevo.cli.__file__).resolve().is_relative_to(SRC):
        print(f"qevo imported from {qevo.cli.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    result = {"import_s": import_s}
    if job["argv"] is not None:
        spans = None
        if job["trace"]:
            import tracer

            spans = tracer.install()
        cpu0, wall0 = _cpu_seconds(), time.perf_counter()
        code = qevo.cli.main(job["argv"])
        wall = time.perf_counter() - wall0
        cpu = _cpu_seconds() - cpu0
        result.update(
            exit_code=code,
            wall_s=wall,
            cpu_s=cpu,
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        )
        if spans is not None:
            result["layers"] = tracer.layer_metrics(spans)
            spans.write(job["spans"])
    Path(job["result"]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1]))
