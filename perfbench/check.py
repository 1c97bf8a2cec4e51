"""Correctness checks: every run's outputs against a reference.

- A study archive must hold every planned cell, each ``results_equivalent``
  to the same cell of a reference archive made by a serial ``fast``-kernel
  run on the same seed.
- Every ``/predict`` answer must be a 200 whose labels equal
  ``ServableModel.predict_labels`` on the same images, computed in the
  benchmark process before the load starts.

Each check returns the list of failed items, so a run reports how many of
its attempts failed and why.
"""

from __future__ import annotations

__all__ = ["study_failures", "label_failures"]


def study_failures(archive, reference, cells: int,
                   reasons: "dict[str, str] | None" = None) -> "list[str]":
    """Cells of ``archive`` that are missing or differ from ``reference``,
    one entry each; ``reasons`` explains missing cells by name."""
    from repro.experiments.persistence import load_results, results_equivalent

    expected = {r.config.describe(): r for r in load_results(reference)}
    got = {r.config.describe(): r for r in load_results(archive)}
    failures = []
    if len(expected) < cells:
        failures.append(f"reference lacks {cells - len(expected)} cell(s)")
    for name, ref in expected.items():
        if name not in got:
            reason = (reasons or {}).get(name)
            failures.append(f"{name}: missing" + (f" ({reason})" if reason else ""))
        elif not results_equivalent([got[name]], [ref]):
            failures.append(f"{name}: differs from the reference")
    failures.extend(f"{name}: not in the reference" for name in got.keys() - expected.keys())
    return failures


def label_failures(records: "list[dict]", schedule: "list[dict]",
                   reference_labels: "list[int]") -> "list[str]":
    """Requests answered with a non-200 status or with wrong labels."""
    failures = []
    for record in records:
        if record["status"] != 200:
            failures.append(f"{record['rid']}: HTTP {record['status']}")
            continue
        expected = [reference_labels[i] for i in schedule[record["slot"]]["idx"]]
        if record["labels"] != expected:
            failures.append(f"{record['rid']}: labels {record['labels']} != {expected}")
    return failures
