"""The study-serial and study-jobs workloads.

Each pass runs the whole reference grid in a fresh process
(``study_child.py``).  A run makes one pass per ``PASS_SECONDS`` of
``--seconds`` (at least one) and checks every archive against the
committed reference archive of its dataset seed (``reference/``, made by
``make_reference.py``).  A run whose reference is missing, or was made for
another grid, fails instead of making one with the code under test.
"""

from __future__ import annotations

import json
from pathlib import Path

from check import study_failures
from procs import BenchError, Child
from spans import Recorder, median
from workloads import STUDY_EPOCHS, STUDY_GRID, StudySpec

__all__ = ["REFERENCE_DIR", "reference_manifest", "run_pass", "measure", "layer_metrics"]

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

#: One pass per this many seconds of run length.  A fixed count, not a
#: time limit, so that every run of a workload takes its median over as
#: many passes.
PASS_SECONDS = 9


def run_pass(spec: StudySpec, work: Path, name: str, deadline: float, *,
             kernels: str, archive: Path, trace: bool = False,
             rec: "Recorder | None" = None) -> dict:
    """One pass of the grid in a fresh process, archived to ``archive``;
    returns its timings, cells and resource use."""
    root = None
    if rec is not None:
        root = rec.add("study.pass", 0.0, 0.0)  # interval filled in below
    child = Child("study_child.py", {
        "seed": spec.seed, "epochs": STUDY_EPOCHS, "jobs": spec.jobs,
        "kernels": kernels, "trace": trace, "archive": str(archive),
        "out": str(work / f"{name}.out.json"), "root": root,
    }, work, name, env=spec.blas_env)
    try:
        usage = child.wait(deadline)
    finally:
        child.kill()
    out = json.loads((work / f"{name}.out.json").read_text())
    out.update(spawned=child.spawned, exited=child.exited,
               cpu_s=usage.ru_utime + usage.ru_stime,
               rss_mb=usage.ru_maxrss / 1024)
    if rec is not None:
        span = next(s for s in rec.spans if s["id"] == root)
        span["start"], span["end"] = child.spawned, child.exited
        rec.spans.extend(out["spans"])
    return out


def reference_manifest() -> dict:
    """What every reference archive was made for; see make_reference.py."""
    return {"grid": json.loads(json.dumps(STUDY_GRID)), "epochs": STUDY_EPOCHS,
            "kernels": "fast", "jobs": 1}


def reference_archive(spec: StudySpec) -> Path:
    """The committed reference archive of the spec's dataset seed."""
    manifest_path = REFERENCE_DIR / "manifest.json"
    if not manifest_path.exists():
        raise BenchError(f"no reference archives: {manifest_path} is missing")
    made = json.loads(manifest_path.read_text())
    if {k: made.get(k) for k in reference_manifest()} != reference_manifest():
        raise BenchError("the reference archives were made for another grid; "
                         "remake them with make_reference.py at a trusted commit")
    path = REFERENCE_DIR / f"study-seed{spec.seed}.json"
    if not path.exists():
        raise BenchError(f"no reference archive for dataset seed {spec.seed}: {path}")
    return path


def pass_metrics(passes: "list[dict]", cells: int) -> dict:
    """Every study metric of a list of passes, by the names in README.md.

    Each is the median over passes (the peak RSS is the largest), so one
    disturbed pass does not move a run's value.
    """
    rates = [cells / (p["run_end"] - p["dispatch"]) for p in passes]
    cpu = [p["cpu_s"] / cells for p in passes]
    return {
        "setup_s": median([p["dispatch"] - p["spawned"] for p in passes]),
        "peak_rss_mb": max(p["rss_mb"] for p in passes),
        "throughput_per_s": median(rates),
        "cpu_s_per_item": median(cpu),
        # A study's answer is the whole grid: spawn to exit of its process.
        "latency_p50_ms": median([(p["exited"] - p["spawned"]) * 1e3 for p in passes]),
        "cells_per_hour": median(rates) * 3600,
        "cpu_s_per_cell": median(cpu),
    }


def measure(spec: StudySpec, work: Path, seconds: float, deadline: float,
            rec: "Recorder | None" = None) -> dict:
    """The run's passes; returns metrics, attempts and failures."""
    reference = reference_archive(spec)
    tag = "traced" if rec is not None else "plain"
    # A traced run's layer metrics and report describe exactly one pass.
    count = 1 if rec is not None else max(1, int(seconds // PASS_SECONDS))
    passes, failures = [], []
    for i in range(count):
        archive = work / f"{tag}-pass{i}.archive.json"
        p = run_pass(spec, work, f"{tag}-pass{i}", deadline, kernels="compiled",
                     archive=archive, trace=rec is not None, rec=rec)
        passes.append(p)
        # A failed cell is missing from the archive; its outcome says why.
        reasons = {c["name"]: c["failure"] for c in p["cells"] if not c["ok"]}
        failures += study_failures(archive, reference, spec.cells, reasons)
    return {
        "metrics": pass_metrics(passes, spec.cells),
        "attempted": spec.cells * len(passes),
        "failures": failures,
        "passes": passes,
    }


def layer_metrics(traced: dict, jobs: int) -> dict:
    """The study layers' per-layer metrics from one traced pass."""
    spans = traced["spans"]
    by_id = {s["id"]: s for s in spans}

    def dur(s: dict) -> float:
        return s["end"] - s["start"]

    def ancestors(s: dict):
        while (s := by_id.get(s["parent"])) is not None:
            yield s

    def total(name: str) -> float:
        return sum(dur(s) for s in spans if s["name"] == name)

    goldens = [s for s in spans if s["name"] == "mitigation.baseline.fit"
               and any(a["name"] == "runner.golden" for a in ancestors(s))]
    metrics = {
        "data.load_s": total("data.load"),
        "faults.inject_s": total("faults.inject"),
        "runner.golden_fits": len(goldens),
        "runner.golden_fit_s": sum(dur(s) for s in goldens),
        "mitigation.predict_s": total("mitigation.predict"),
    }
    for technique in STUDY_GRID["techniques"]:
        name = f"mitigation.{technique}.fit"
        metrics[f"{name}_s"] = sum(
            dur(s) for s in spans if s["name"] == name and not any(
                a["name"] == "runner.golden" or a["name"].endswith(".fit")
                for a in ancestors(s) if a["name"] != "nn.fit"
            )
        )
    fits = [s["attrs"] for s in spans if s["name"] == "nn.fit"]
    steps = sum(a.get("compiled", 0) + a.get("eager", 0) for a in fits)
    compiled = sum(a.get("compiled", 0) for a in fits)
    epochs = [e for a in fits for e in a["epoch_s"]]
    step_ms = [e * 1e3 / a["steps_per_epoch"] for a in fits for e in a["epoch_s"]]
    metrics.update({
        "nn.steps": steps,
        "nn.compiled_share": compiled / steps if steps else 0.0,
        "nn.step_ms": median(step_ms),
        "nn.epoch_s": median(epochs),
    })
    cells = [s for s in spans if s["name"] == "executors.cell"]
    run = next(s for s in spans if s["name"] == "executors.run")
    busy = sum(dur(c) for c in cells)
    metrics.update({
        "executors.critical_path_s": max(dur(c) for c in cells),
        "executors.busy_share": busy / (jobs * dur(run)),
        "executors.idle_s": jobs * dur(run) - busy,
        "executors.outcome_bytes": sum(c["bytes"] for c in traced["cells"]),
    })
    return metrics
