"""One study pass in a fresh process: ``python3 study_child.py CONFIG.json``.

Runs the reference grid through the program's public study path
(``plan_study`` -> ``run_study_plan`` on a ``SerialExecutor`` or
``ParallelExecutor``), archives the results with ``save_results`` and
writes its timings to ``CONFIG["out"]``.  With ``CONFIG["trace"]`` set it
also wraps the public entry points of each layer in spans (see
``install_hooks``) and returns the spans with its timings.
"""

from __future__ import annotations

import time

T0 = time.perf_counter()

import json  # noqa: E402
import pickle  # noqa: E402
import sys  # noqa: E402
from dataclasses import replace  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from spans import Recorder, wrap  # noqa: E402
from workloads import STUDY_GRID  # noqa: E402

import repro.experiments.executors as executors  # noqa: E402
import repro.experiments.runner as runner_mod  # noqa: E402
from repro.experiments.config import SCALES  # noqa: E402
from repro.experiments.persistence import save_results  # noqa: E402
from repro.experiments.plan import plan_study  # noqa: E402
from repro.experiments.resilience import RetryPolicy  # noqa: E402
from repro.faults.spec import FaultType  # noqa: E402
from repro.nn.functional import set_kernel_mode  # noqa: E402

T_IMPORTED = time.perf_counter()


def install_hooks(rec: Recorder) -> None:
    """Wrap each layer's public entry points in spans (traced runs only)."""
    from repro.mitigation.base import FittedModel
    from repro.mitigation.registry import EXTENSION_TECHNIQUES, TECHNIQUES
    from repro.nn.trainer import Trainer
    from repro.telemetry import RecordingTelemetry, telemetry_scope

    wrap(rec, runner_mod, "load_dataset", "data.load")
    wrap(rec, runner_mod, "inject", "faults.inject")
    wrap(rec, runner_mod.ExperimentRunner, "golden_predictions", "runner.golden")
    wrap(rec, FittedModel, "predict", "mitigation.predict")
    techniques = {**TECHNIQUES, **EXTENSION_TECHNIQUES}
    # Read every fit before wrapping any, so a technique that inherits its
    # fit is wrapped around the original, not around its parent's wrapper.
    fits = {name: cls.fit for name, cls in techniques.items()}
    for name, cls in techniques.items():
        cls.fit = fits[name]
        wrap(rec, cls, "fit", f"mitigation.{name}.fit")

    trainer_fit = Trainer.fit

    def fit(self, inputs, *args, **kwargs):
        # The trainer's own telemetry reports epochs and compiled/eager step
        # counts; record it here, also inside golden fits where the runner
        # switches the program's telemetry off.
        events = RecordingTelemetry()
        with rec.span("nn.fit") as attrs, telemetry_scope(events):
            history = trainer_fit(self, inputs, *args, **kwargs)
        steps_per_epoch = -(-len(inputs) // self.batch_size)
        attrs["epoch_s"] = [
            e["dur_s"] for e in events.events
            if e["ev"] == "span_end" and e["name"] == "epoch"
        ]
        attrs["steps_per_epoch"] = steps_per_epoch
        for e in events.events:
            if e["ev"] == "event" and e["name"] == "compiled_fit":
                attrs["compiled"] = e["compiled_steps"]
                attrs["eager"] = e["eager_steps"] + e["tap_fallback_steps"]
        return history

    Trainer.fit = fit


def plan_for(seed: int, epochs: int) -> list:
    """The reference grid's plan at smoke sizes, ``epochs`` and ``seed``."""
    return plan_study(
        models=STUDY_GRID["models"],
        datasets=STUDY_GRID["datasets"],
        fault_types=tuple(FaultType(f) for f in STUDY_GRID["fault_types"]),
        rates=STUDY_GRID["rates"],
        techniques=list(STUDY_GRID["techniques"]),
        scale=replace(SCALES["smoke"], epochs=epochs, seed=seed),
    )


def install_cell_spans(rec: Recorder, run_span: dict) -> None:
    """One span per cell around ``execute_unit``, wherever the executor runs
    it (in process or in a forked pool worker).  The cell's spans and the
    pickled size of its outcome ride back on the outcome."""
    execute_unit = executors.execute_unit

    def traced_execute_unit(runner, unit, *args, **kwargs):
        mark = len(rec.spans)
        with rec.span("executors.cell", trace=unit.key, parent=run_span.get("id"),
                      technique=unit.technique, model=unit.model):
            outcome = execute_unit(runner, unit, *args, **kwargs)
        outcome.bench = {"bytes": len(pickle.dumps(outcome)), "spans": rec.drain(mark)}
        return outcome

    executors.execute_unit = traced_execute_unit


def main(config: dict) -> int:
    rec = Recorder(root_parent=config.get("root"))
    traced = bool(config.get("trace"))
    rec.add("setup.import", T0, T_IMPORTED)
    # The executors.run span id, known to pool workers because they fork
    # from this process while the run is in progress.
    run_span: dict = {}
    if traced:
        install_hooks(rec)
        install_cell_spans(rec, run_span)

    with rec.span("setup.plan"):
        set_kernel_mode(config["kernels"])
        plan = plan_for(config["seed"], config["epochs"])
        if config["jobs"] > 1:
            executor = executors.ParallelExecutor(jobs=config["jobs"])
        else:
            # The serial path reuses one runner, so its dataset loads here,
            # before the first cell, as part of set-up.
            runner = runner_mod.ExperimentRunner(plan[0].scale)
            with rec.span("setup.data"):
                for dataset in STUDY_GRID["datasets"]:
                    runner.dataset(dataset)
            executor = executors.SerialExecutor(runner=runner)

    marks = {}
    inner_map = executor.map

    def map_marked(units, settings):
        marks["dispatch"] = time.perf_counter()
        yield from inner_map(units, settings)

    executor.map = map_marked
    cells = []

    def on_outcome(index, unit, outcome):
        bench = getattr(outcome, "bench", {})
        rec.spans.extend(bench.get("spans", ()))
        cells.append({"name": unit.describe(), "ok": outcome.ok,
                      "bytes": bench.get("bytes"),
                      "failure": None if outcome.ok else outcome.failure.describe()})

    with rec.span("executors.run"):
        run_span["id"] = rec.current()
        report = executors.run_study_plan(
            plan, executor=executor, retry=RetryPolicy(max_attempts=2),
            on_outcome=on_outcome,
        )
    out = {"cells": cells, "dispatch": marks["dispatch"], "run_end": time.perf_counter()}
    with rec.span("persistence.save"):
        save_results(report.results, config["archive"])
    out["spans"] = rec.spans if traced else []
    Path(config["out"]).write_text(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(json.loads(Path(sys.argv[1]).read_text())))
