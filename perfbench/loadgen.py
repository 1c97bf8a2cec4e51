"""The serve-http load generator: ``python3 loadgen.py CONFIG.json``.

Drives the server over at most ``connections`` keep-alive ``http.client``
connections with default socket options, in three phases:

- ``open``: an open loop at a fixed rate; each request is timed from its
  due time, so a stall also charges the requests queued behind it;
- ``ladder``: open-loop steps at rising rates, stopping at the first step
  whose p99 misses the SLO or whose backlog grows;
- ``closed``: every connection sends its next request as soon as the last
  one is answered.

Request bodies are encoded before the first phase, so the generator does
little but send and receive.  Writes one record per request, the phase
boundaries, the ladder's steps and the CPU time the server's process group
(``CONFIG["server_pgid"]``) spent in each phase to ``CONFIG["out"]``.
"""

from __future__ import annotations

import http.client
import itertools
import json
import os
import queue
import sys
import threading
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from spans import percentile  # noqa: E402

MODEL = "gtsrb/convnet/baseline/none"


class Client:
    """One keep-alive connection and the records of the requests it sent."""

    def __init__(self, port: int, lane: int, bodies: list, schedule: list) -> None:
        self.conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
        self.lane = lane
        self.bodies = bodies
        self.schedule = schedule
        self.records: list[dict] = []

    def send(self, phase: str, n: int, due: "float | None") -> None:
        slot = n % len(self.bodies)
        rid = f"{phase}-{n}"
        sent = time.perf_counter()
        try:
            self.conn.request("POST", "/predict", self.bodies[slot], headers={
                "Content-Type": "application/json", "X-Request-Id": rid,
            })
            response = self.conn.getresponse()
            payload = response.read()
            status = response.status
        except (OSError, http.client.HTTPException):
            # Counted as failed (status 0); the next request reconnects.
            self.conn.close()
            payload, status = b"", 0
        done = time.perf_counter()
        labels = json.loads(payload)["labels"] if status == 200 else None
        self.records.append({
            "phase": phase, "n": n, "rid": rid, "slot": slot, "lane": self.lane,
            "cls": self.schedule[slot]["cls"], "samples": len(self.schedule[slot]["idx"]),
            "due": sent if due is None else due, "sent": sent, "done": done,
            "status": status, "labels": labels,
        })

    def close(self) -> None:
        self.conn.close()


def open_loop(clients: list, phase: str, rate: float, seconds: float, first: int) -> int:
    """Requests due every ``1/rate`` s for ``seconds``, sent on whichever
    connection is free; returns the number sent."""
    todo: queue.Queue = queue.Queue()

    def lane(client: Client) -> None:
        while (item := todo.get()) is not None:
            client.send(phase, *item)

    threads = [threading.Thread(target=lane, args=(c,)) for c in clients]
    for t in threads:
        t.start()
    count = max(1, round(rate * seconds))
    start = time.perf_counter() + 0.01
    for i in range(count):
        due = start + i / rate
        delay = due - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        todo.put((first + i, due))
    for _ in threads:
        todo.put(None)
    for t in threads:
        t.join()
    return count


def closed_loop(clients: list, seconds: float, first: int) -> None:
    """Each connection sends the schedule's next request as soon as its
    last one is answered."""
    stop = time.perf_counter() + seconds
    numbers = itertools.count(first)

    def lane(client: Client) -> None:
        while time.perf_counter() < stop:
            client.send("closed", next(numbers), None)

    threads = [threading.Thread(target=lane, args=(c,)) for c in clients]
    for t in threads:
        t.start()
    for t in threads:
        t.join()


def group_cpu_s(pgid: int) -> float:
    """CPU-s used so far by the live processes of process group ``pgid``,
    all their threads included."""
    ticks = 0
    for entry in os.scandir("/proc"):
        if not entry.name.isdigit():
            continue
        try:
            stat = Path(entry.path, "stat").read_text()
        except OSError:  # the process has gone
            continue
        # The fields after "(comm)": state, ppid, pgrp, ..., utime, stime.
        fields = stat[stat.rindex(")") + 2:].split()
        if int(fields[2]) == pgid:
            ticks += int(fields[11]) + int(fields[12])
    return ticks / os.sysconf("SC_CLK_TCK")


def step_ok(records: list, slo_ms: float) -> bool:
    """p99 within the SLO, and the last quarter of the step not running
    behind its schedule by more than half the SLO (no growing backlog)."""
    latencies = [(r["done"] - r["due"]) * 1e3 for r in records]
    if any(r["status"] != 200 for r in records):
        return False
    tail = sorted(records, key=lambda r: r["due"])[-max(1, len(records) // 4):]
    lag = [(r["sent"] - r["due"]) * 1e3 for r in tail]
    return percentile(latencies, 0.99) <= slo_ms and percentile(lag, 0.5) <= slo_ms / 2


def main(config: dict) -> int:
    images = np.load(config["images"])
    schedule = config["schedule"]
    bodies = [
        json.dumps({
            "model": MODEL,
            "inputs": (images[entry["idx"][0]] if entry["cls"] == "single"
                       else images[entry["idx"]]).tolist(),
        }).encode()
        for entry in schedule
    ]
    clients = [Client(config["port"], lane, bodies, schedule)
               for lane in range(config["connections"])]
    phases, cpu = {}, {}
    n = 0
    cpu_mark = group_cpu_s(config["server_pgid"])

    def end_phase(name: str, start: float) -> None:
        nonlocal cpu_mark
        phases[name] = (start, time.perf_counter())
        now = group_cpu_s(config["server_pgid"])
        cpu[name] = now - cpu_mark
        cpu_mark = now

    t = time.perf_counter()
    n += open_loop(clients, "open", config["open_rate"], config["open_s"], n)
    end_phase("open", t)

    t = time.perf_counter()
    ladder = []
    for rate in config["ladder_rates"]:
        n += open_loop(clients, f"ladder{rate:g}", rate, config["step_s"], n)
        step = [r for c in clients for r in c.records if r["phase"] == f"ladder{rate:g}"]
        ok = step_ok(step, config["slo_ms"])
        ladder.append({"rate": rate, "ok": ok, "requests": len(step)})
        if not ok:
            break
    end_phase("ladder", t)

    t = time.perf_counter()
    closed_loop(clients, config["closed_s"], n)
    end_phase("closed", t)
    for c in clients:
        c.close()
    Path(config["out"]).write_text(json.dumps({
        "records": [r for c in clients for r in c.records],
        "phases": phases,
        "ladder": ladder,
        "server_cpu_s": cpu,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(json.loads(Path(sys.argv[1]).read_text())))
