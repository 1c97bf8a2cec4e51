"""Tests of the benchmark itself: inputs from seeds, metric names, checks."""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

from check import label_failures, study_failures  # noqa: E402
from spans import Recorder, attribution, blocking_path, self_times  # noqa: E402
from workloads import (  # noqa: E402
    BENCHMARKED,
    END_TO_END,
    PER_LAYER,
    STUDY_EPOCHS,
    WORKLOADS,
    request_schedule,
)

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _plan(seed: int):
    from study_child import plan_for

    return plan_for(seed, STUDY_EPOCHS)


def test_same_seed_gives_same_schedule():
    assert request_schedule(3, 64, 64, 16) == request_schedule(3, 64, 64, 16)
    assert request_schedule(3, 64, 64, 16) != request_schedule(4, 64, 64, 16)


def test_schedule_is_balanced_in_every_pair():
    schedule = request_schedule(5, 64, 64, 16)
    for i in range(0, len(schedule), 2):
        assert {e["cls"] for e in schedule[i:i + 2]} == {"single", "batch"}
    assert all(len(e["idx"]) == (1 if e["cls"] == "single" else 16) for e in schedule)


def test_same_seed_gives_same_plan():
    first, again, other = _plan(11), _plan(11), _plan(12)
    assert first == again
    assert len(first) == 16
    assert [u.key for u in first] == [u.key for u in other]
    assert first != other  # the seed reaches the units' scale


def test_metric_names_and_units_are_well_formed():
    for name, unit in {**END_TO_END, **PER_LAYER}.items():
        assert NAME.fullmatch(name) and len(name) <= 64, name
        assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", unit), unit


def test_benchmark_json_matches_the_metric_catalogue():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(BENCHMARKED)
    assert set(BENCHMARKED) <= set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


def _archive(tmp_path: Path, name: str, deltas: "list[float]") -> Path:
    from repro.experiments.persistence import result_from_dict, save_results

    results = [
        result_from_dict({
            "config": {"dataset": "gtsrb", "model": "convnet", "technique": t,
                       "fault_label": "mislabelling@30%", "repeats": 1, "scale": "smoke"},
            "repetitions": [{"golden_accuracy": 0.5, "faulty_accuracy": 0.5 - d,
                             "accuracy_delta": d, "reverse_accuracy_delta": 0.0,
                             "num_test": 172}],
            "costs": [{"training_s": 1.0, "inference_s": 0.1}],
        })
        for t, d in zip(("baseline", "ensemble"), deltas)
    ]
    path = tmp_path / name
    save_results(results, path)
    return path


def test_study_check_flags_a_tampered_archive(tmp_path):
    reference = _archive(tmp_path, "ref.json", [0.1, 0.2])
    assert study_failures(_archive(tmp_path, "same.json", [0.1, 0.2]), reference, 2) == []
    tampered = _archive(tmp_path, "tampered.json", [0.1, 0.25])
    assert len(study_failures(tampered, reference, 2)) == 1
    missing = _archive(tmp_path, "missing.json", [0.1])
    assert len(study_failures(missing, reference, 2)) == 1


def test_a_failed_cell_counts_once_with_its_reason(tmp_path):
    reference = _archive(tmp_path, "ref.json", [0.1, 0.2])
    missing = _archive(tmp_path, "missing.json", [0.1])
    name = "gtsrb/convnet/ensemble/mislabelling@30% x1 (smoke)"
    failures = study_failures(missing, reference, 2, {name: "MemoryError: boom"})
    assert failures == [f"{name}: missing (MemoryError: boom)"]


def test_study_check_ignores_wall_clock_costs(tmp_path):
    reference = _archive(tmp_path, "ref.json", [0.1, 0.2])
    payload = json.loads(reference.read_text())
    payload["results"][0]["costs"][0]["training_s"] = 99.0
    other = tmp_path / "slow.json"
    other.write_text(json.dumps(payload))
    assert study_failures(other, reference, 2) == []


def test_every_pool_seed_has_a_committed_reference(tmp_path, monkeypatch):
    import study
    from procs import BenchError
    from workloads import REFERENCE_SEEDS, StudySpec

    for seed in range(REFERENCE_SEEDS):
        assert study.reference_archive(StudySpec(seed=seed, jobs=1)).exists()
    # Without a committed reference the run fails; it never makes its own.
    monkeypatch.setattr(study, "REFERENCE_DIR", tmp_path)
    with pytest.raises(BenchError):
        study.reference_archive(StudySpec(seed=0, jobs=1))


def test_label_check_flags_wrong_labels_and_refusals():
    schedule = [{"cls": "single", "idx": [0]}, {"cls": "batch", "idx": [1, 2]}]
    reference = [7, 8, 9]

    def record(slot, labels, status=200):
        return {"rid": f"r{slot}", "slot": slot, "status": status, "labels": labels}

    assert label_failures([record(0, [7]), record(1, [8, 9])], schedule, reference) == []
    assert len(label_failures([record(1, [8, 1])], schedule, reference)) == 1
    assert len(label_failures([record(0, None, status=429)], schedule, reference)) == 1


def _span(sid, parent, start, end, pid=1, lane=None, name="bench.s"):
    return {"id": sid, "parent": parent, "name": name, "trace": None, "pid": pid,
            "start": start, "end": end, "attrs": {"lane": lane}}


def test_self_time_and_blocking_path():
    spans = [
        _span("root", None, 0.0, 10.0),
        _span("a", "root", 0.0, 2.0, name="setup.import"),
        _span("run", "root", 2.0, 9.5, name="load.closed"),
        # two workers under the run: the one ending last blocks it
        _span("w1", "run", 2.0, 6.0, pid=2, name="executors.cell"),
        _span("w2a", "run", 2.0, 5.0, pid=3, name="executors.cell"),
        _span("w2b", "run", 5.5, 9.0, pid=3, name="nn.fit"),
    ]
    assert self_times(spans)["root"] == pytest.approx(0.5)
    path = dict((s["id"], t) for s, t in blocking_path(spans, "root"))
    assert set(path) == {"root", "a", "run", "w2a", "w2b"}
    assert path["run"] == pytest.approx(1.0)  # 7.5 s minus 6.5 s of worker 3
    assert sum(path.values()) == pytest.approx(10.0)
    # Only spans named after program layers count as covered; the set-up
    # span is start-up, the closed loop's gap between requests is pacing,
    # and the root's own time is the benchmark's.
    assert attribution(blocking_path(spans, "root")) == pytest.approx(
        {"layers": 0.65, "startup": 0.2, "pacing": 0.1, "bench": 0.05})


def test_recorder_nests_and_inherits_trace_ids():
    rec = Recorder(root_parent="top")
    with rec.span("outer", trace="cell-1"):
        with rec.span("inner"):
            pass
    inner, outer = rec.spans
    assert inner["parent"] == outer["id"] and outer["parent"] == "top"
    assert inner["trace"] == outer["trace"] == "cell-1"


def test_serial_passes_pin_blas_and_jobs_passes_do_not():
    from workloads import study_spec

    assert study_spec("study-serial", 1).blas_env["OPENBLAS_NUM_THREADS"] == "1"
    if study_spec("study-jobs", 1).jobs > 1:
        assert study_spec("study-jobs", 1).blas_env == {}


def test_group_cpu_counts_the_calling_process():
    import os
    import time

    from loadgen import group_cpu_s

    before = group_cpu_s(os.getpgid(0))
    end = time.process_time() + 0.05
    while time.process_time() < end:
        pass
    assert group_cpu_s(os.getpgid(0)) - before >= 0.03
