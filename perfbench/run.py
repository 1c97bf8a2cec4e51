"""Run one benchmark workload and print every metric by name with its unit.

    python3 perfbench/run.py --workload study-serial --seed 1 --seconds 45 --trace 0

Run from the repository root.  ``--trace 0`` measures the end-to-end
metrics with tracing off; ``--trace 1`` measures the workload once
untraced and once traced, prints the per-layer metrics and the tracing
overhead, and writes the spans to ``perfbench/.work/traces/``.  The last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  README.md explains the workloads and metrics.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import math
import os
import platform
import shutil
import signal
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / ".work"

#: Every run, traced or not, ends within this many seconds.
RUN_DEADLINE_S = 170.0


def blas_info() -> dict:
    """The loaded BLAS library and its thread count, as the user left it."""
    import numpy as np

    info = {"numpy": np.__version__, "blas_library": "unknown", "blas_threads": None}
    with open("/proc/self/maps") as maps:
        libs = {line.split()[-1] for line in maps if "blas" in line.lower() and "/" in line}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                getter.argtypes = []
                info.update(blas_library=Path(path).name, blas_threads=getter())
                return info
    return info


def envelope(workload: str, seed: int) -> dict:
    sys.path.insert(0, str(ROOT / "benchmarks"))
    from bench_common import bench_envelope
    from workloads import study_spec

    return {
        **bench_envelope("perfbench"),
        "workload": workload,
        "seed": seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        **blas_info(),
        "blas_env": {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
                     if k in os.environ},
        # What the study passes set over blas_env; serve-http sets nothing.
        "study_blas_env": (study_spec(workload, seed).blas_env
                           if workload.startswith("study") else {}),
    }


def study_run(workload: str, seed: int, seconds: float, trace: bool,
              work: Path, deadline: float) -> dict:
    import study
    from spans import Recorder, layer_report
    from workloads import study_spec

    spec = study_spec(workload, seed)
    if trace:  # an untraced and a traced half share the run length
        seconds /= 2
    plain = study.measure(spec, work, seconds, deadline)
    result = {"plain": plain}
    if trace:
        rec = Recorder()
        traced = study.measure(spec, work, seconds, deadline, rec=rec)
        root = next(s["id"] for s in rec.spans if s["name"] == "study.pass")
        result.update(traced=traced, spans=rec.spans,
                      layers=study.layer_metrics({"spans": rec.spans,
                                                  "cells": traced["passes"][0]["cells"]},
                                                 spec.jobs),
                      report=layer_report(rec.spans, root))
    return result


def serve_run(seed: int, seconds: float, trace: bool, work: Path, deadline: float) -> dict:
    import serve
    from spans import Recorder, layer_report
    if trace:  # an untraced and a traced half share the run length
        seconds /= 2
    plain = serve.measure(seed, work, seconds, deadline)
    result = {"plain": plain}
    if trace:
        rec = Recorder()
        traced = serve.measure(seed, work, seconds, deadline, rec=rec)
        result.update(traced=traced, spans=rec.spans,
                      layers=serve.layer_metrics(traced, rec.spans),
                      report=layer_report(rec.spans, traced["root"]))
    return result


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("study-serial", "study-jobs", "serve-http"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: the program's sources are not at {ROOT / 'src'}; "
              "run from a full checkout", file=sys.stderr)
        return 2
    # A terminated run unwinds like a failed one, stopping its children.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    sys.path[:0] = [str(HERE), str(ROOT / "src")]
    from procs import BenchError
    from workloads import END_TO_END, PER_LAYER

    env = envelope(args.workload, args.seed)
    print("envelope: " + json.dumps(env, sort_keys=True), flush=True)
    deadline = time.perf_counter() + RUN_DEADLINE_S
    work = WORK / f"run-{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        if args.workload == "serve-http":
            result = serve_run(args.seed, args.seconds, bool(args.trace), work, deadline)
        else:
            result = study_run(args.workload, args.seed, args.seconds, bool(args.trace),
                               work, deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    runs = [result["plain"]] + ([result["traced"]] if args.trace else [])
    attempted = sum(r["attempted"] for r in runs)
    failures = [f for r in runs for f in r["failures"]]
    plain = result["plain"]["metrics"]
    plain["failed_share"] = len(result["plain"]["failures"]) / result["plain"]["attempted"]
    if args.trace:
        traced = result["traced"]["metrics"]
        metrics = {name: 0.0 for name in PER_LAYER}
        metrics.update({k: v for k, v in plain.items() if k in PER_LAYER})
        metrics.update(result["layers"])
        shares = result["report"]["attribution"]
        metrics["trace.coverage"] = shares["layers"]
        metrics["trace.startup_share"] = shares["startup"]
        metrics["trace.pacing_share"] = shares["pacing"]
        metrics["trace.bench_share"] = shares["bench"]
        for name in END_TO_END:
            metrics[f"overhead.{name}"] = traced[name] - plain[name]
        units = PER_LAYER
        trace_file = WORK / "traces" / f"{args.workload}-seed{args.seed}.json"
        trace_file.parent.mkdir(parents=True, exist_ok=True)
        trace_file.write_text(json.dumps({
            "envelope": env, "report": result["report"], "metrics": metrics,
            "spans": result["spans"],
        }))
        print(f"trace: {trace_file.relative_to(ROOT)}")
    else:
        metrics = {name: plain[name] for name in END_TO_END}
        units = END_TO_END
    bad = [name for name, value in metrics.items() if not math.isfinite(value)]
    if bad:
        print(f"error: not measured: {bad}", file=sys.stderr)
        return 1

    print(f"{args.workload} seed {args.seed}: {attempted} attempted, {len(failures)} failed")
    for failure in failures[:20]:
        print(f"  FAILED {failure}")
    print("untraced:")
    for name, value in sorted(plain.items()):
        print(f"  {name} = {value:.6g} {END_TO_END.get(name) or PER_LAYER[name]}")
    if args.trace:
        print("traced:")
        for name, value in metrics.items():
            print(f"  {name} = {value:.6g} {PER_LAYER[name]}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
