"""In-memory spans for the traced benchmark runs, and their analysis.

A span is a plain dict — ``id``, ``parent``, ``name``, ``trace`` (the id
shared by every span of one study cell or one HTTP request), ``pid``,
``start``/``end`` (``time.perf_counter`` seconds, which is CLOCK_MONOTONIC on
Linux and therefore comparable across the processes of one run) and free
``attrs``.  Spans stay in memory until the run ends and are then written out
in one JSON file.

Nothing here imports the program under test, so the analysis helpers are
usable (and tested) without it.
"""

from __future__ import annotations

import functools
import itertools
import math
import os
import threading
import time
from contextlib import contextmanager

__all__ = [
    "Recorder",
    "wrap",
    "self_times",
    "blocking_path",
    "LAYER_PREFIXES",
    "attribution",
    "layer_report",
    "percentile",
    "median",
]


class Recorder:
    """Collects spans in memory; nesting is tracked per thread.

    A span's ``trace`` id is given explicitly or inherited from the
    enclosing span.
    """

    def __init__(self, root_parent: "str | None" = None) -> None:
        self.spans: list[dict] = []
        self.root_parent = root_parent
        self._local = threading.local()
        self._ids = itertools.count()
        self._pid = os.getpid()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> "str | None":
        stack = self._stack()
        return stack[-1][0] if stack else self.root_parent

    @contextmanager
    def span(self, name: str, trace: "str | None" = None,
             parent: "str | None" = None, **attrs):
        """Time the ``with`` body as one span; yields the span's attrs dict.

        ``parent`` overrides the enclosing span, for spans that start in a
        process other than their parent's.
        """
        pid = os.getpid()
        if pid != self._pid:  # a forked child numbers its own spans
            self._pid, self._ids = pid, itertools.count()
        sid = f"{pid}:{next(self._ids)}"
        parent = parent if parent is not None else self.current()
        stack = self._stack()
        if trace is None and stack:  # inherit the enclosing span's trace id
            trace = stack[-1][1]
        stack.append((sid, trace))
        start = time.perf_counter()
        try:
            yield attrs
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append({
                "id": sid, "parent": parent, "name": name, "trace": trace,
                "pid": pid, "start": start, "end": end, "attrs": attrs,
            })

    def add(self, name: str, start: float, end: float, parent: "str | None" = None,
            trace: "str | None" = None, **attrs) -> str:
        """Record a span whose interval was measured elsewhere."""
        sid = f"{os.getpid()}:{next(self._ids)}"
        self.spans.append({
            "id": sid, "parent": parent if parent is not None else self.current(),
            "name": name, "trace": trace,
            "pid": os.getpid(), "start": start, "end": end, "attrs": attrs,
        })
        return sid

    def drain(self, since: int = 0) -> list[dict]:
        """Remove and return the spans recorded after index ``since``."""
        taken = self.spans[since:]
        del self.spans[since:]
        return taken


def wrap(recorder: Recorder, owner, attr: str, name: str) -> None:
    """Replace ``owner.attr`` by a wrapper that runs it inside a span."""
    inner = getattr(owner, attr)

    @functools.wraps(inner)
    def wrapper(*args, **kwargs):
        with recorder.span(name):
            return inner(*args, **kwargs)

    setattr(owner, attr, wrapper)


def _union(intervals: "list[tuple[float, float]]") -> float:
    total, cur_lo, cur_hi = 0.0, None, None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: "list[dict]") -> "dict[str, float]":
    """Per span id: its duration minus the part its children cover."""
    children: dict = {}
    for span in spans:
        children.setdefault(span["parent"], []).append(span)
    out = {}
    for span in spans:
        lo, hi = span["start"], span["end"]
        covered = _union([
            (max(lo, c["start"]), min(hi, c["end"]))
            for c in children.get(span["id"], ()) if c["end"] > lo and c["start"] < hi
        ])
        out[span["id"]] = (hi - lo) - covered
    return out


def blocking_path(spans: "list[dict]", root_id: str) -> "list[tuple[dict, float]]":
    """The spans the root's end waited on, each with its self time on the path.

    Children of one span are grouped by lane — the process, plus the
    ``lane`` attribute that concurrent threads of one process set.  Lanes
    run concurrently, so only the lane that finished last blocks its
    parent; the spans of one lane run one after another.  Along the path
    the self times add up to the root's wall time.
    """
    by_id = {s["id"]: s for s in spans}
    children: dict = {}
    for span in spans:
        children.setdefault(span["parent"], []).append(span)
    path = []
    todo = [by_id[root_id]]
    while todo:
        span = todo.pop()
        lanes: dict = {}
        for child in children.get(span["id"], ()):
            lanes.setdefault((child["pid"], child["attrs"].get("lane")), []).append(child)
        blocking = max(lanes.values(), key=lambda lane: max(c["end"] for c in lane)) \
            if lanes else []
        lo, hi = span["start"], span["end"]
        covered = _union([
            (max(lo, c["start"]), min(hi, c["end"]))
            for c in blocking if c["end"] > lo and c["start"] < hi
        ])
        path.append((span, (hi - lo) - covered))
        todo.extend(blocking)
    return path


#: Span names of the program's layers.  ``http.`` is the wire round trip of
#: one request as its client sees it, less the server's handler: the
#: server's HTTP framing, where its response stalls, and the loopback.
LAYER_PREFIXES = ("data.", "faults.", "runner.", "mitigation.", "nn.", "executors.",
                  "persistence.", "server.", "fleet.", "http.")
#: Spans of the program's start-up: interpreter start, the ``repro``
#: imports, planning and building the model and fleet — what ``setup_s``
#: times.
STARTUP_PREFIXES = ("setup.",)
#: Spans of the load phases, whose own time is the generator waiting for the
#: next request to fall due.
PACING_PREFIXES = ("load.",)


def attribution(path: "list[tuple[dict, float]]") -> "dict[str, float]":
    """Shares of the root's wall time along a blocking path: ``layers``
    (self time of spans named after program layers), ``startup`` (the
    program starting), ``pacing`` (the load generator idling between due
    times) and ``bench`` (everything else: process exit, the serve reference,
    the benchmark's bookkeeping and the root's own time).  They add up to
    one."""
    root = path[0][0]
    wall = root["end"] - root["start"]
    shares = {"layers": 0.0, "startup": 0.0, "pacing": 0.0, "bench": 0.0}
    for span, self_s in path:
        name = span["name"]
        kind = ("layers" if name.startswith(LAYER_PREFIXES)
                else "startup" if name.startswith(STARTUP_PREFIXES)
                else "pacing" if name.startswith(PACING_PREFIXES) else "bench")
        shares[kind] += self_s / wall if wall > 0 else 0.0
    return shares


def layer_report(spans: "list[dict]", root_id: str) -> dict:
    """Self time by span name, over all spans and along the blocking path,
    and how the path's wall time divides between layers, start-up, pacing
    and the benchmark itself."""
    root = next(s for s in spans if s["id"] == root_id)
    selfs = self_times(spans)
    by_name: dict = {}
    for span in spans:
        by_name[span["name"]] = by_name.get(span["name"], 0.0) + selfs[span["id"]]
    path = blocking_path(spans, root_id)
    on_path: dict = {}
    for span, self_s in path:
        on_path[span["name"]] = on_path.get(span["name"], 0.0) + self_s
    return {
        "wall_s": root["end"] - root["start"],
        "attribution": attribution(path),
        "self_s": by_name,
        "blocking_path_self_s": on_path,
    }


def percentile(values: "list[float]", q: float) -> float:
    """Linear-interpolated ``q``-quantile (0..1) of ``values``; NaN if empty."""
    if not values:
        return math.nan
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def median(values: "list[float]") -> float:
    return percentile(values, 0.5)
