"""The serve-http workload.

A session starts the server (``serve_host.py``) five times — the set-up
time is the median of the five starts, each timed from spawn to the first
answered ``/predict`` — and keeps the third: it runs the load generator
(``loadgen.py``) against it from a separate process, scrapes ``/metrics``
and stops the server.  Two starts come before the load and two after.
The reference labels and the forward-pass ceiling are computed in this
process before the load starts.
"""

from __future__ import annotations

import http.client
import json
import select
import subprocess
import time
from pathlib import Path

import numpy as np

from check import label_failures
from loadgen import MODEL
from procs import BenchError, Child
from spans import Recorder, median, percentile
from workloads import (
    BATCH_SAMPLES,
    IMAGE_SHAPE,
    IMAGES,
    OPEN_RATE,
    SLO_P99_MS,
    nproc,
    request_schedule,
)

__all__ = ["measure", "layer_metrics"]

SETUP_STARTS = 5
#: Distinct request bodies; requests cycle through them.
SCHEDULE_SIZE = 64
LADDER_STEP = 1.25


def phase_plan(seconds: float) -> dict:
    """How one session splits ``seconds`` between its phases."""
    return {
        "open_rate": OPEN_RATE,
        "open_s": 2 * seconds / 3,
        "ladder_rates": [round(OPEN_RATE * LADDER_STEP ** k, 2) for k in range(1, 12)],
        "step_s": max(1.0, 0.04 * seconds),
        "closed_s": max(2.0, 0.1 * seconds),
        "slo_ms": SLO_P99_MS,
    }


def reference(seed: int) -> dict:
    """gtsrb-like test images, their labels from ``predict_labels``, and the
    per-sample forward time at batch 1 and 16, all in this process."""
    from repro.data.registry import load_dataset
    from serve_host import KEY, build_registry

    _, test = load_dataset("gtsrb", train_size=IMAGES, test_size=IMAGES,
                           image_size=IMAGE_SHAPE[1], seed=seed)
    servable = build_registry(seed).get(KEY)
    forward = {}
    for batch in (1, BATCH_SAMPLES):
        x = test.images[:batch]
        times = []
        for _ in range(30):
            t = time.perf_counter()
            servable.predict_logits(x)
            times.append((time.perf_counter() - t) * 1e3 / batch)
        forward[f"b{batch}"] = median(times)
    return {
        "images": test.images,
        "labels": servable.predict_labels(test.images).tolist(),
        "forward_ms": forward,
    }


def _request(port: int, method: str, path: str, body: "bytes | None" = None):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        conn.request(method, path, body, {"Content-Type": "application/json"})
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


class Server:
    """One server process, started and timed up to its first answer."""

    def __init__(self, seed: int, work: Path, name: str, deadline: float,
                 first_body: bytes, trace: bool) -> None:
        self.spans_path = work / f"{name}.spans.json"
        self.child = Child("serve_host.py", {
            "seed": seed, "replicas": nproc(), "trace": trace,
            "spans": str(self.spans_path),
        }, work, name, stdout=subprocess.PIPE)
        try:
            stdout = self.child.proc.stdout
            ready, _, _ = select.select([stdout], [], [], max(0.0, deadline - time.perf_counter()))
            line = stdout.readline() if ready else ""
            if not line.startswith("READY "):
                raise BenchError(f"{name} did not start: {self.child.log_path.read_text()[-2000:]}")
            self.port = int(line.split()[1])
            status, _ = _request(self.port, "POST", "/predict", first_body)
            self.answered = time.perf_counter()
            if status != 200:
                raise BenchError(f"{name}: first /predict answered {status}")
        except BaseException:
            self.child.kill()
            raise

    @property
    def setup_s(self) -> float:
        return self.answered - self.child.spawned

    def stop(self, deadline: float):
        """Shut the server down; returns the rusage of its process tree."""
        try:
            _request(self.port, "POST", "/shutdown")
            return self.child.wait(deadline)
        finally:
            self.child.kill()


def measure(seed: int, work: Path, seconds: float, deadline: float,
            rec: "Recorder | None" = None) -> dict:
    """One session; returns metrics, attempts, failures and raw records."""
    traced = rec is not None
    rec = rec or Recorder()
    tag = "traced" if traced else "plain"
    with rec.span("serve.session"):
        session = _session(seed, work, seconds, deadline, rec, traced, tag)
    session["root"] = rec.spans[-1]["id"]  # the session span closes last
    return session


def _session(seed: int, work: Path, seconds: float, deadline: float,
             rec: Recorder, traced: bool, tag: str) -> dict:
    with rec.span("serve.reference"):
        ref = reference(seed)
    schedule = request_schedule(seed, SCHEDULE_SIZE, IMAGES, BATCH_SAMPLES)
    np.save(work / "images.npy", ref["images"])
    first_body = json.dumps({"model": MODEL, "inputs": ref["images"][0].tolist()}).encode()
    setups, rss = [], []

    def start(i: int, trace: bool = False) -> Server:
        with rec.span("setup.server"):
            server = Server(seed, work, f"{tag}-server{i}", deadline, first_body, trace)
        setups.append(server.setup_s)
        return server

    def stop(server: Server):
        with rec.span("serve.stop"):
            usage = server.stop(deadline)
        rss.append(usage.ru_maxrss / 1024)

    # The starts are spread around the load, so that a stretch of the run
    # slowed by the machine moves only some of them.
    before = SETUP_STARTS // 2
    for i in range(before):
        stop(start(i))
    server = start(before, trace=traced)
    try:
        plan = phase_plan(seconds)
        loadgen = Child("loadgen.py", {
            **plan, "port": server.port, "server_pgid": server.child.proc.pid,
            "connections": nproc(),
            "schedule": schedule,
            "images": str(work / "images.npy"), "out": str(work / f"{tag}-load.json"),
        }, work, f"{tag}-loadgen")
        try:
            loadgen.wait(deadline)
        finally:
            loadgen.kill()
        with rec.span("serve.scrape"):
            _, body = _request(server.port, "GET", "/metrics?format=json")
    finally:
        stop(server)
    for i in range(before + 1, SETUP_STARTS):
        stop(start(i))
    load = json.loads((work / f"{tag}-load.json").read_text())
    records = load["records"]
    if traced:
        _add_load_spans(rec, load, loadgen, server.spans_path)
    return {
        "metrics": session_metrics(load, setups, rss, plan),
        "attempted": len(records),
        "failures": label_failures(records, schedule, ref["labels"]),
        "load": load,
        "router": json.loads(body),
        "forward_ms": ref["forward_ms"],
    }


def _add_load_spans(rec: Recorder, load: dict, loadgen: Child, server_spans: Path) -> None:
    """The generator's phases and requests, and the server's spans under
    the request each belongs to."""
    phases = load["phases"]
    rec.add("loadgen.start", loadgen.spawned, phases["open"][0])
    phase_ids = {name: rec.add(f"load.{name}", *phases[name]) for name in phases}
    rec.add("loadgen.exit", phases["closed"][1], loadgen.exited)
    request_ids = {}
    for r in load["records"]:
        phase = phase_ids["ladder" if r["phase"].startswith("ladder") else r["phase"]]
        rec.add("loadgen.lag", r["due"], r["sent"], parent=phase, trace=r["rid"], lane=r["lane"])
        request_ids[r["rid"]] = rec.add("http.request", r["sent"], r["done"], parent=phase,
                                        trace=r["rid"], lane=r["lane"])
    for span in json.loads(server_spans.read_text()):
        if span["name"] == "server.request":
            span["parent"] = request_ids.get(span["trace"])
        rec.spans.append(span)


def session_metrics(load: dict, setups: list, rss: list, plan: dict) -> dict:
    records = load["records"]
    open_lat = {"all": [], "single": [], "batch": []}
    for r in records:
        if r["phase"] == "open":
            ms = (r["done"] - r["due"]) * 1e3
            open_lat["all"].append(ms)
            open_lat[r["cls"]].append(ms)
    closed = [r for r in records if r["phase"] == "closed"]
    closed_s = load["phases"]["closed"][1] - load["phases"]["closed"][0]
    samples = sum(r["samples"] for r in closed)
    # The open loop's load is fixed by the seed and the closed loop's by its
    # length; the ladder's stops where the SLO is first missed, so its share
    # of idle time and work would move the figure from run to run.
    steady = [r for r in records if r["phase"] in ("open", "closed") and r["status"] == 200]
    cpu_s = load["server_cpu_s"]["open"] + load["server_cpu_s"]["closed"]
    open_ok = percentile(open_lat["all"], 0.99) <= plan["slo_ms"]
    passed = [step["rate"] for step in load["ladder"] if step["ok"]]
    metrics = {
        "setup_s": median(setups),
        "peak_rss_mb": max(rss),
        "throughput_per_s": samples / closed_s,
        "cpu_s_per_item": cpu_s / sum(r["samples"] for r in steady),
        "latency_p50_ms": percentile(open_lat["single"], 0.5),
        "samples_per_s": samples / closed_s,
        "rps_at_slo": max(passed) if passed else (plan["open_rate"] if open_ok else 0.0),
    }
    for cls in ("single", "batch"):
        metrics[f"{cls}.p50_ms"] = percentile(open_lat[cls], 0.5)
        metrics[f"{cls}.p99_ms"] = percentile(open_lat[cls], 0.99)
    metrics["loadgen.lag_p99_ms"] = percentile(
        [(r["sent"] - r["due"]) * 1e3 for r in records if r["phase"] == "open"], 0.99)
    return metrics


def _merged(snapshot: dict, names: list) -> dict:
    """The histograms ``names`` of a ``/metrics`` snapshot, summed."""
    hists = [snapshot[n] for n in names if n in snapshot]
    bounds = hists[0]["buckets"]
    seen = [h for h in hists if h["count"]]
    return {
        "bounds": tuple(bounds),
        "counts": [sum(h["counts"][i] for h in hists) for i in range(len(bounds) + 1)],
        "total": sum(h["count"] for h in hists),
        "sum": sum(h["sum"] for h in hists),
        "vmin": min((h["min"] for h in seen), default=0.0),
        "vmax": max((h["max"] for h in seen), default=0.0),
    }


def _quantile(hist: dict, q: float) -> float:
    from repro.telemetry import histogram_quantile

    return histogram_quantile(hist["bounds"], hist["counts"], hist["total"],
                              hist["vmin"], hist["vmax"], q)


def layer_metrics(session: dict, spans: "list[dict]") -> dict:
    """The serving layers' per-layer metrics from one traced session."""
    by_trace: dict = {}
    for s in spans:
        if s["trace"] is not None and s["name"].startswith(("server.", "fleet.")):
            by_trace.setdefault(s["trace"], {})[s["name"]] = s
    # Per class over the open loop, where the latency figures come from,
    # and the HTTP part over the closed loop, where throughput comes from.
    parts: dict = {}
    for r in session["load"]["records"]:
        spans = by_trace.get(r["rid"], {})
        if r["status"] != 200 or "fleet.predict" not in spans:
            continue
        fleet, handler = spans["fleet.predict"], spans["server.predict"]
        http = r["done"] - r["sent"] - (fleet["end"] - fleet["start"])
        if r["phase"] == "closed":
            parts.setdefault("server.closed.http_ms", []).append(http * 1e3)
        if r["phase"] != "open":
            continue
        decode = (spans["server.json_decode"]["end"] - spans["server.json_decode"]["start"]
                  + fleet["start"] - handler["start"])
        encode = (handler["end"] - fleet["end"]
                  + spans["server.json_encode"]["end"] - spans["server.json_encode"]["start"])
        for key, value in (("http_ms", http), ("decode_ms", decode), ("encode_ms", encode)):
            parts.setdefault(f"server.{r['cls']}.{key}", []).append(value * 1e3)
    metrics = {name: median(values) for name, values in parts.items()}

    snapshot = session["router"]
    replica = _merged(snapshot, [n for n in snapshot if n.startswith("fleet_replica")
                                 and n.endswith("_latency_seconds")])
    fleet = _merged(snapshot, ["fleet_request_latency_seconds"])
    depth = _merged(snapshot, ["fleet_queue_depth"])
    metrics.update({
        "router.queue_wait_ms": (fleet["sum"] / fleet["total"]
                                 - replica["sum"] / replica["total"]) * 1e3,
        "router.queue_depth_p99": _quantile(depth, 0.99),
        "router.shed": snapshot["fleet_shed_total"]["value"],
        "fleet.replica_p50_ms": _quantile(replica, 0.5) * 1e3,
        "fleet.replica_p99_ms": _quantile(replica, 0.99) * 1e3,
        "model.forward_ms.b1": session["forward_ms"]["b1"],
        "model.forward_ms.b16": session["forward_ms"]["b16"],
    })
    return metrics
