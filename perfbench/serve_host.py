"""The serve-http server process: ``python3 serve_host.py CONFIG.json``.

Composes the program's public serving pieces the way the ``serve`` CLI does
(live metrics on, the CLI's default batch and admission settings): a seeded
``convnet`` at gtsrb geometry registered with ``register_module``, a
``ServingFleet`` of process replicas, and a ``ServingServer`` on a free
loopback port.  Prints ``READY <port>`` once listening and serves until
``POST /shutdown``.  With ``CONFIG["trace"]`` set, the handler, the JSON
codec calls, ``_predict`` and ``ServingFleet.predict`` run inside spans that
are written to ``CONFIG["spans"]`` when the server stops.
"""

from __future__ import annotations

import json
import sys
import threading
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from spans import Recorder, wrap  # noqa: E402
from workloads import IMAGE_SHAPE, NUM_CLASSES  # noqa: E402

import repro.serve.server as server_mod  # noqa: E402
from repro.models.registry import build_model  # noqa: E402
from repro.serve import (  # noqa: E402
    BatchSettings,
    FleetSettings,
    ModelKey,
    ModelRegistry,
    ServingFleet,
)
from repro.telemetry import MetricsRegistry, set_metrics  # noqa: E402

KEY = ModelKey(model="convnet", dataset="gtsrb")


def build_registry(seed: int) -> ModelRegistry:
    """The served model; the benchmark builds the same one for its reference."""
    registry = ModelRegistry()
    module = build_model("convnet", image_shape=IMAGE_SHAPE,
                         num_classes=NUM_CLASSES, seed=seed)
    registry.register_module(KEY, module)
    return registry


class _TracedJson:
    """Stands in for the ``json`` module inside ``repro.serve.server``."""

    JSONDecodeError = json.JSONDecodeError

    def __init__(self, rec: Recorder) -> None:
        self._rec = rec

    def loads(self, *args, **kwargs):
        with self._rec.span("server.json_decode"):
            return json.loads(*args, **kwargs)

    def dumps(self, *args, **kwargs):
        with self._rec.span("server.json_encode"):
            return json.dumps(*args, **kwargs)


def install_hooks(rec: Recorder) -> None:
    handler = server_mod._Handler
    do_post = handler.do_POST

    def traced_do_post(self):
        rid = self.headers.get("X-Request-Id")
        with rec.span("server.request", trace=rid, lane=threading.get_ident()):
            return do_post(self)

    handler.do_POST = traced_do_post
    wrap(rec, handler, "_predict", "server.predict")
    wrap(rec, ServingFleet, "predict", "fleet.predict")
    server_mod.json = _TracedJson(rec)


def main(config: dict) -> int:
    rec = Recorder()
    if config.get("trace"):
        install_hooks(rec)
    # The serve CLI always serves with live metrics on (/metrics scrapes them).
    set_metrics(MetricsRegistry())
    registry = build_registry(config["seed"])
    fleet = ServingFleet(registry, FleetSettings(
        replicas=config["replicas"],
        backend="process",
        max_queue=256,
        shed_policy="reject",
        replica_deadline_s=30.0,
        batch=BatchSettings(max_batch_size=8, max_latency_ms=2.0, workers=2),
    )).start()
    try:
        server = server_mod.ServingServer(fleet, host="127.0.0.1", port=0,
                                          request_timeout_s=30.0)
        print(f"READY {server.server_address[1]}", flush=True)
        try:
            server.serve_forever(poll_interval=0.1)
        finally:
            server.server_close()
    finally:
        fleet.close()
    if config.get("trace"):
        Path(config["spans"]).write_text(json.dumps(rec.spans))
    return 0


if __name__ == "__main__":
    sys.exit(main(json.loads(Path(sys.argv[1]).read_text())))
