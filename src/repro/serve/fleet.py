"""Replicated serving fleet: shared-memory weights, health-checked replicas.

One :class:`ServingFleet` turns a template :class:`~repro.serve.registry.ModelRegistry`
into ``N`` replicas behind a :class:`~repro.serve.router.Router`:

- **Weights are stored once.**  Every registered model's parameters and
  buffers are packed into a single ``multiprocessing.shared_memory`` block
  (:class:`SharedWeights` — the same block machinery the PR 9 allreduce
  uses), and every replica's module attaches *read-only views* into that
  block.  N replicas of a 10M-parameter model cost one copy of the arrays,
  whether the replicas are threads in this process or forked children.
- **One batching layer.**  The router's chunk is the replica's batch: a
  replica — a worker thread in-process (:class:`ThreadReplica`) or a forked
  child that re-attaches the shared block by name (:class:`ProcessReplica`)
  — runs one ``predict_logits`` over each chunk it receives, with no second
  queue and no wait for a batch to fill.
- **Replicas are disposable.**  A health monitor evicts a replica whose
  process or worker died, or whose oldest dispatched request overran
  ``replica_deadline_s``, requeues everything it held (the router
  guarantees exactly-once answers), and respawns a fresh replica into the
  same slot at a bumped generation.
- **Responses are bitwise-stable.**  Replicas share the same weight bytes
  and inference runs under row-stable kernels, so a sample's logits are
  identical no matter which replica, batch, or respawn served it — the
  fleet equivalence tests pin fleet output against one-engine
  ``predict_logits``.

Chaos hooks (``kill_replica``, ``slow_replica``) exist for the test and CI
harnesses: killing is indistinguishable from a real crash (SIGKILL for
process replicas, an abandoned worker for thread replicas), and a slowed
replica overruns its deadline and gets evicted like a genuinely wedged one.
"""

from __future__ import annotations

import copy
import multiprocessing
import os
import queue
import signal
import threading
import time
from dataclasses import dataclass, field
from multiprocessing import shared_memory

import numpy as np

from ..telemetry import (
    LATENCY_BUCKETS_S,
    NULL,
    MetricsRegistry,
    get_metrics,
    latency_summary_ms,
)
from .engine import BatchSettings
from .registry import ModelKey, ModelRegistry, ServableModel
from .router import Chunk, ReplicaGone, Router, ShedError

__all__ = [
    "SharedWeights",
    "FleetSettings",
    "ThreadReplica",
    "ProcessReplica",
    "ServingFleet",
]

#: Replica backends: ``process`` forks children re-attaching the shared
#: block; ``thread`` keeps replicas in-process; ``auto`` prefers ``process``
#: where ``fork`` exists.
REPLICA_BACKENDS = ("auto", "process", "thread")


# ----------------------------------------------------------------------
# Shared-memory weight blocks
# ----------------------------------------------------------------------

#: Handles of closed blocks, pinned so their mappings survive until process
#: exit (see :meth:`SharedWeights.close`).
_RETIRED_MAPPINGS: "list[shared_memory.SharedMemory]" = []


def _assign_buffer(root, dotted: str, view: np.ndarray) -> None:
    """Replace the buffer at ``dotted`` (e.g. ``features.3.running_mean``)."""
    obj = root
    parts = dotted.split(".")
    for part in parts[:-1]:
        obj = obj[int(part)] if isinstance(obj, (list, tuple)) else getattr(obj, part)
    setattr(obj, parts[-1], view)


def _align(offset: int, alignment: int = 64) -> int:
    return (offset + alignment - 1) & ~(alignment - 1)


class SharedWeights:
    """One model's parameters + buffers, packed once into a shared block.

    The creating process copies every array of ``module`` into a fresh
    ``multiprocessing.shared_memory`` block and records a ``(name, kind,
    offset, shape, dtype)`` layout.  Any process — this one, or a forked
    replica re-opening the block by :attr:`name` — can then call
    :meth:`attach` on a *structurally identical* module to swap its arrays
    for read-only, zero-copy views into the block.  The block is the single
    source of weight bytes for the whole fleet.
    """

    def __init__(self, key: ModelKey, module) -> None:
        self.key = key
        entries = []
        offset = 0
        arrays = []
        for name, param in module.named_parameters():
            offset = _align(offset)
            entries.append((name, "param", offset, param.data.shape, param.data.dtype.str))
            arrays.append(np.ascontiguousarray(param.data))
            offset += arrays[-1].nbytes
        for name, buf in module.named_buffers():
            offset = _align(offset)
            entries.append((name, "buffer", offset, buf.shape, buf.dtype.str))
            arrays.append(np.ascontiguousarray(buf))
            offset += arrays[-1].nbytes
        self.layout = tuple(entries)
        self.nbytes = max(1, offset)
        self._shm = shared_memory.SharedMemory(create=True, size=self.nbytes)
        self.name = self._shm.name
        for (name, kind, off, shape, dtype), array in zip(entries, arrays):
            view = np.ndarray(shape, dtype=np.dtype(dtype), buffer=self._shm.buf, offset=off)
            view[...] = array

    def attach(self, module, shm: "shared_memory.SharedMemory | None" = None) -> list:
        """Point ``module``'s parameters/buffers at the block; returns the views.

        ``shm`` is an already-opened handle (a forked replica's own); when
        ``None`` the creator's mapping is used.  Views are marked read-only:
        serving never writes weights, and an accidental write should fail
        loudly rather than corrupt every replica at once.
        """
        handle = shm if shm is not None else self._shm
        params = dict(module.named_parameters())
        buffer_names = {name for name, _ in module.named_buffers()}
        views = []
        for name, kind, off, shape, dtype in self.layout:
            view = np.ndarray(shape, dtype=np.dtype(dtype), buffer=handle.buf, offset=off)
            view.flags.writeable = False
            if kind == "param":
                params[name].data = view
            else:
                if name not in buffer_names:
                    raise ValueError(f"module has no buffer {name!r} to attach")
                _assign_buffer(module, name, view)
            views.append(view)
        return views

    def open(self) -> "shared_memory.SharedMemory":
        """A fresh handle on the block (used by forked replicas)."""
        return shared_memory.SharedMemory(name=self.name)

    def close(self, unlink: bool = True) -> None:
        """Retire the creator's handle (and by default unlink the block).

        The mapping itself is pinned for the life of the process rather
        than unmapped: numpy views built over ``shm.buf`` keep only an
        object reference, not a buffer export, so ``shm.close()`` would
        happily unmap pages a straggler thread is about to read — e.g. a
        wedged replica worker that outlived its join timeout — turning a
        chaos test into a segfault.  Unlinking frees the name immediately;
        the pages return at process exit.
        """
        if self._shm is None:
            return
        if unlink:
            try:
                self._shm.unlink()
            except FileNotFoundError:  # pragma: no cover - already unlinked
                pass
        _RETIRED_MAPPINGS.append(self._shm)
        self._shm = None


# ----------------------------------------------------------------------
# Replica backends
# ----------------------------------------------------------------------

def _attached_clone(servable: ServableModel, weights: SharedWeights) -> ServableModel:
    """A structural copy of ``servable``'s module wired to the shared block."""
    module = copy.deepcopy(servable.module)
    weights.attach(module)
    return ServableModel(
        servable.key, module, source=f"fleet:{servable.source}",
        metadata=dict(servable.metadata),
    )


def _run_chunk(registry: ModelRegistry, key, samples: list,
               delay_s: float) -> tuple:
    """The forward both replica backends share: one chunk, one batch.

    ``delay_s`` is the ``slow_replica`` stall.  Returns ``("ok", logits)``,
    or ``("err", message)`` for every request of the chunk — also when the
    samples cannot be stacked (clients sent different shapes), so a bad
    chunk never takes its replica down.
    """
    try:
        if delay_s:
            time.sleep(delay_s)
        return "ok", registry.get(key).predict_logits(np.stack(samples))
    except Exception as exc:  # noqa: BLE001 - answered to the chunk's callers
        return "err", f"{type(exc).__name__}: {exc}"


def _deliver(router: Router, slot: int, generation: int, seqs, outcome) -> None:
    """Hand a :func:`_run_chunk` outcome back to the router, row by row."""
    status, value = outcome
    if status == "ok":
        for seq, row in zip(seqs, value):
            router.on_result(slot, generation, seq, row)
    else:
        for seq in seqs:
            router.on_error(slot, generation, seq, RuntimeError(value))


class ThreadReplica:
    """An in-process replica: one worker thread draining a chunk queue."""

    backend = "thread"

    def __init__(
        self,
        slot: int,
        generation: int,
        template: ModelRegistry,
        blocks: "dict[ModelKey, SharedWeights]",
        router: Router,
    ) -> None:
        self.slot = slot
        self.generation = generation
        self.router = router
        self.pid = os.getpid()
        self.registry = ModelRegistry()
        for key in template.keys():
            self.registry.register(_attached_clone(template.get(key), blocks[key]))
        self._chunks: "queue.SimpleQueue[Chunk | None]" = queue.SimpleQueue()
        self._delay_s = 0.0
        self._alive = True
        self._worker = threading.Thread(
            target=self._work, name=f"fleet-replica-{slot}", daemon=True
        )
        self._worker.start()

    def _work(self) -> None:
        while True:
            chunk = self._chunks.get()
            if not self._alive:
                return  # killed or closed: strand the rest like a crash
            outcome = _run_chunk(self.registry, chunk.key, chunk.samples, self._delay_s)
            if self._alive:
                _deliver(self.router, self.slot, self.generation, chunk.seqs, outcome)

    def send(self, chunk: Chunk) -> None:
        if not self._alive:
            raise ReplicaGone(f"thread replica {self.slot} is dead")
        self._chunks.put(chunk)

    def alive(self) -> bool:
        return self._alive and self._worker.is_alive()

    def kill(self) -> None:
        """Chaos hook: die abruptly, stranding whatever was in flight."""
        self._alive = False
        self._chunks.put(None)

    def set_slow(self, delay_s: float) -> None:
        """Chaos hook: every inference on this replica stalls ``delay_s``."""
        self._delay_s = float(delay_s)

    def close(self) -> None:
        self.kill()
        self._worker.join(timeout=5)

    def describe(self) -> dict:
        return {"backend": self.backend, "pid": self.pid}


def _replica_main(child_conn, template: ModelRegistry,
                  blocks: "dict[ModelKey, SharedWeights]") -> None:
    """Forked replica body: attach the shared blocks, serve predict frames.

    The child inherited the template modules via fork (copy-on-write pages)
    and re-points their arrays at a freshly opened handle on each shared
    block, so its weights are the same bytes every other replica reads.
    Each chunk's forward runs in the receive loop; the reply goes back on
    the same pipe.  Frames::

        ("predict", model_id, [seq...], [sample...])
            -> ([seq...], ("ok", logits) | ("err", message))
        ("slow", delay_s)   chaos hook: stall every subsequent inference
        ("stop",)           graceful shutdown
    """
    handles = []  # mapped until process exit, which reclaims them
    registry = ModelRegistry()
    for key in template.keys():
        module = template.get(key).module  # inherited; ours to mutate now
        handles.append(blocks[key].open())
        blocks[key].attach(module, shm=handles[-1])
        registry.register(ServableModel(key, module, source="fleet-fork"))
    delay_s = 0.0
    try:
        while True:
            frame = child_conn.recv()
            if frame[0] == "stop":
                break
            if frame[0] == "slow":
                delay_s = float(frame[1])
                continue
            _, model_id, seqs, samples = frame
            child_conn.send((seqs, _run_chunk(registry, model_id, samples, delay_s)))
    except (EOFError, OSError):  # parent went away
        pass
    finally:
        child_conn.close()


class ProcessReplica:
    """A forked replica: shared-block views and the forward in a child."""

    backend = "process"

    def __init__(
        self,
        slot: int,
        generation: int,
        template: ModelRegistry,
        blocks: "dict[ModelKey, SharedWeights]",
        router: Router,
    ) -> None:
        self.slot = slot
        self.generation = generation
        self.router = router
        ctx = multiprocessing.get_context("fork")
        self._conn, child_conn = ctx.Pipe()
        self._proc = ctx.Process(
            target=_replica_main,
            args=(child_conn, template, blocks),
            daemon=True,
            name=f"fleet-replica-{slot}",
        )
        self._proc.start()
        child_conn.close()
        self.pid = self._proc.pid
        self._send_lock = threading.Lock()
        self._closing = False
        self._reader = threading.Thread(
            target=self._read_loop, name=f"fleet-reader-{slot}", daemon=True
        )
        self._reader.start()

    def _read_loop(self) -> None:
        while True:
            try:
                seqs, outcome = self._conn.recv()
            except (EOFError, OSError):
                break
            _deliver(self.router, self.slot, self.generation, seqs, outcome)
        if not self._closing:
            self.router.replica_failed(self.slot, self.generation)

    def send(self, chunk: Chunk) -> None:
        try:
            with self._send_lock:
                self._conn.send(("predict", chunk.key.id, chunk.seqs, chunk.samples))
        except (BrokenPipeError, OSError):
            raise ReplicaGone(f"process replica {self.slot} pipe broken")

    def alive(self) -> bool:
        return self._proc.is_alive()

    def kill(self) -> None:
        """Chaos hook: SIGKILL, like a real crash; returns once reaped."""
        try:
            os.kill(self._proc.pid, signal.SIGKILL)
        except (ProcessLookupError, OSError):  # pragma: no cover - already gone
            pass
        self._proc.join(timeout=5)

    def _post(self, frame: tuple) -> None:
        try:
            with self._send_lock:
                self._conn.send(frame)
        except (BrokenPipeError, OSError):  # pragma: no cover - dying replica
            pass

    def set_slow(self, delay_s: float) -> None:
        self._post(("slow", float(delay_s)))

    def close(self) -> None:
        self._closing = True
        self._post(("stop",))
        self._proc.join(timeout=10)
        if self._proc.is_alive():  # pragma: no cover - stuck child safety net
            self._proc.terminate()
            self._proc.join(timeout=5)
        try:
            self._conn.close()
        except OSError:  # pragma: no cover
            pass
        self._reader.join(timeout=5)

    def describe(self) -> dict:
        return {"backend": self.backend, "pid": self.pid}


# ----------------------------------------------------------------------
# The fleet
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class FleetSettings:
    """Fleet-level knobs (replica count, admission, health policy).

    ``batch.max_batch_size`` is the router's chunk, the largest batch one
    replica forward runs; the other ``batch`` fields configure a single
    engine only.
    """

    replicas: int = 2
    backend: str = "auto"
    max_queue: int = 256
    shed_policy: str = "reject"
    client_rate: "float | None" = None
    client_burst: "float | None" = None
    replica_cap: int = 32
    replica_deadline_s: float = 30.0
    health_interval_s: float = 0.25
    max_respawns: int = 16
    batch: BatchSettings = field(default_factory=BatchSettings)

    def __post_init__(self) -> None:
        if self.replicas < 1:
            raise ValueError("replicas must be >= 1")
        if self.backend not in REPLICA_BACKENDS:
            raise ValueError(
                f"unknown replica backend {self.backend!r}; choose from {REPLICA_BACKENDS}"
            )
        if self.replica_deadline_s <= 0:
            raise ValueError("replica_deadline_s must be positive")
        if self.health_interval_s <= 0:
            raise ValueError("health_interval_s must be positive")
        if self.max_respawns < 0:
            raise ValueError("max_respawns must be >= 0")

    def resolved_backend(self) -> str:
        if self.backend != "auto":
            return self.backend
        return (
            "process"
            if "fork" in multiprocessing.get_all_start_methods()
            else "thread"
        )


class _Slot:
    """Fleet-side record of one replica position across respawns."""

    __slots__ = ("position", "generation", "handle", "evictions", "spawned_at")

    def __init__(self, position: int, generation: int, handle, now: float) -> None:
        self.position = position
        self.generation = generation
        self.handle = handle
        self.evictions = 0
        self.spawned_at = now


class ServingFleet:
    """N health-checked replicas behind admission control and a router.

    Use as a context manager, or pair :meth:`start` with :meth:`close`::

        fleet = ServingFleet(registry, FleetSettings(replicas=4)).start()
        logits = fleet.predict("gtsrb/convnet/baseline/none", images)

    ``registry`` is the *template*: its modules' weights are packed into
    shared blocks at :meth:`start`, and the template itself is kept pristine
    as the source for respawned replicas.  ``telemetry`` (optional) gets a
    root ``fleet`` span plus ``replica_evicted`` / ``replica_respawned``
    events from the health monitor.
    """

    def __init__(
        self,
        registry: ModelRegistry,
        settings: "FleetSettings | None" = None,
        telemetry=None,
    ) -> None:
        self.registry = registry
        self.settings = settings or FleetSettings()
        self._telemetry = telemetry if telemetry is not None else NULL
        self._tel_lock = threading.Lock()
        self._root_span = None
        active = get_metrics()
        self.metrics = active if active.enabled else MetricsRegistry()
        self._evictions = self.metrics.counter(
            "fleet_evictions_total", help="Replicas evicted (crash, close, deadline)")
        self._respawns = self.metrics.counter(
            "fleet_respawns_total", help="Replicas respawned into an evicted slot")
        self._request_latency = self.metrics.histogram(
            "fleet_request_latency_seconds", LATENCY_BUCKETS_S,
            help="Submit-to-result latency through the fleet")
        self.router: "Router | None" = None
        self._blocks: "dict[ModelKey, SharedWeights]" = {}
        self._slots: "dict[int, _Slot]" = {}
        self._lock = threading.Lock()
        self._health: "threading.Thread | None" = None
        self._stop = threading.Event()
        self._running = False
        self._backend = self.settings.resolved_backend()
        self._respawns_left = self.settings.max_respawns

    # -- lifecycle -----------------------------------------------------
    def start(self) -> "ServingFleet":
        if self._running:
            return self
        if self._root_span is None and self._telemetry is not NULL:
            self._root_span = self._telemetry.span(
                "fleet",
                replicas=self.settings.replicas,
                backend=self._backend,
                max_queue=self.settings.max_queue,
                shed_policy=self.settings.shed_policy,
            )
            self._root_span.__enter__()
        for key in self.registry.keys():
            self._blocks[key] = SharedWeights(key, self.registry.get(key).module)
        self.router = Router(
            max_queue=self.settings.max_queue,
            shed_policy=self.settings.shed_policy,
            client_rate=self.settings.client_rate,
            client_burst=self.settings.client_burst,
            chunk=self.settings.batch.max_batch_size,
            replica_cap=self.settings.replica_cap,
            registry=self.metrics,
        )
        for position in range(self.settings.replicas):
            self._spawn(position, generation=0)
        self._running = True
        self._health = threading.Thread(
            target=self._health_loop, name="fleet-health", daemon=True
        )
        self._health.start()
        return self

    def _spawn(self, position: int, generation: int) -> None:
        cls = ProcessReplica if self._backend == "process" else ThreadReplica
        handle = cls(position, generation, self.registry, self._blocks, self.router)
        with self._lock:
            slot = self._slots.get(position)
            if slot is None:
                self._slots[position] = _Slot(
                    position, generation, handle, time.monotonic()
                )
            else:
                slot.generation = generation
                slot.handle = handle
                slot.spawned_at = time.monotonic()
        self.router.add_replica(position, handle.send, generation)

    def _health_loop(self) -> None:
        deadline = self.settings.replica_deadline_s
        while not self._stop.wait(self.settings.health_interval_s):
            with self._lock:
                slots = list(self._slots.values())
            for slot in slots:
                handle = slot.handle
                overrun = self.router.oldest_dispatch_age(slot.position) > deadline
                if handle.alive() and not overrun:
                    continue
                self._evict_and_respawn(slot, reason="deadline" if overrun else "crash")

    def _evict_and_respawn(self, slot: _Slot, reason: str) -> None:
        handle, generation = slot.handle, slot.generation
        self._evictions.inc()
        with self._lock:
            slot.evictions += 1
        # Requeue first so stranded requests fail over before the close
        # below floods the router with stale-generation callbacks.
        self.router.replica_failed(slot.position, generation)
        try:
            if handle.backend == "process" and handle.alive():
                handle.kill()
            handle.close()
        except Exception:  # pragma: no cover - dying replicas may misbehave
            pass
        self._emit("replica_evicted", position=slot.position,
                   generation=generation, reason=reason)
        if self._stop.is_set():
            return
        if self._respawns_left <= 0:
            return
        self._respawns_left -= 1
        self._spawn(slot.position, generation + 1)
        self._respawns.inc()
        self._emit("replica_respawned", position=slot.position,
                   generation=generation + 1)

    def _emit(self, name: str, **attrs) -> None:
        if self._telemetry is NULL:
            return
        with self._tel_lock:
            self._telemetry.event(name, **attrs)

    def close(self) -> None:
        """Evict everything, shed leftovers, release the shared blocks."""
        if not self._running:
            return
        self._running = False
        self._stop.set()
        if self._health is not None:
            self._health.join(timeout=5)
            self._health = None
        if self.router is not None:
            self.router.close()
        with self._lock:
            slots = list(self._slots.values())
            self._slots.clear()
        for slot in slots:
            try:
                slot.handle.close()
            except Exception:  # pragma: no cover - crashed replicas
                pass
        for block in self._blocks.values():
            block.close(unlink=True)
        self._blocks.clear()
        if self._root_span is not None:
            with self._tel_lock:
                self._telemetry.event(
                    "metrics_snapshot", metrics=self.metrics.snapshot()
                )
            self._root_span.set(
                evictions=self._evictions.value, respawns=self._respawns.value
            )
            self._root_span.__exit__(None, None, None)
            self._root_span = None

    def __enter__(self) -> "ServingFleet":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- request path --------------------------------------------------
    def submit(
        self,
        key: "ModelKey | str",
        sample: np.ndarray,
        client: "str | None" = None,
        priority: int = 0,
    ):
        """Admit one sample through the router; returns a future of its row.

        Raises :class:`~repro.serve.router.ShedError` immediately when
        admission control refuses the request.
        """
        if not self._running:
            raise RuntimeError("fleet is not running (call start())")
        if isinstance(key, str):
            key = ModelKey.parse(key)
        self.registry.get(key)  # unknown model fails the caller immediately
        started = time.monotonic()
        future = self.router.submit(key, sample, client=client, priority=priority)
        future.add_done_callback(
            lambda f: self._request_latency.observe(time.monotonic() - started)
            if f.exception() is None else None
        )
        return future

    def predict(
        self,
        key: "ModelKey | str",
        inputs: np.ndarray,
        timeout: "float | None" = 30.0,
        client: "str | None" = None,
        priority: int = 0,
    ) -> np.ndarray:
        """Predict logits for one sample or a stack — the engine-compatible API.

        Samples are admitted individually (the equivalence unit), so the
        result is bitwise-identical however the router spreads them across
        replicas.  If admission sheds a sample the whole call raises
        :class:`ShedError`; already-admitted samples complete internally.
        """
        inputs = np.asarray(inputs)
        servable = self.registry.get(key)
        sample_ndim = 1 if servable.key.model == "mlp" else 3
        batch = inputs if inputs.ndim > sample_ndim else inputs[None]
        futures = [
            self.submit(servable.key, sample, client=client, priority=priority)
            for sample in batch
        ]
        rows = [future.result(timeout=timeout) for future in futures]
        out = np.stack(rows)
        return out if inputs.ndim > sample_ndim else out[0]

    # -- chaos hooks (tests / CI harness) -------------------------------
    def kill_replica(self, position: int) -> None:
        """Crash one replica abruptly; the health monitor evicts + respawns."""
        with self._lock:
            handle = self._slots[position].handle
        handle.kill()

    def slow_replica(self, position: int, delay_s: float) -> None:
        """Wedge one replica: every inference stalls ``delay_s`` seconds."""
        with self._lock:
            handle = self._slots[position].handle
        handle.set_slow(delay_s)

    def replica_pids(self) -> "list[int]":
        with self._lock:
            return [slot.handle.pid for slot in self._slots.values()]

    # -- introspection ---------------------------------------------------
    def healthy_replicas(self) -> int:
        with self._lock:
            return sum(1 for slot in self._slots.values() if slot.handle.alive())

    def describe(self) -> dict:
        """JSON-shaped fleet status (the ``/fleet`` endpoint payload)."""
        with self._lock:
            replicas = [
                {
                    "position": slot.position,
                    "generation": slot.generation,
                    "alive": slot.handle.alive(),
                    "evictions": slot.evictions,
                    "uptime_s": round(time.monotonic() - slot.spawned_at, 3),
                    **slot.handle.describe(),
                }
                for slot in sorted(self._slots.values(), key=lambda s: s.position)
            ]
        return {
            "backend": self._backend,
            "replicas": replicas,
            "evictions": self._evictions.value,
            "respawns": self._respawns.value,
            "router": self.router.snapshot() if self.router else {},
            "models": [key.id for key in self.registry.keys()],
            "settings": {
                "replicas": self.settings.replicas,
                "max_queue": self.settings.max_queue,
                "shed_policy": self.settings.shed_policy,
                "client_rate": self.settings.client_rate,
                "replica_deadline_s": self.settings.replica_deadline_s,
            },
        }

    def stats_snapshot(self) -> dict:
        """The ``/stats`` payload in fleet mode: router + latency summary."""
        router = self.router.snapshot() if self.router else {}
        return {
            "requests": router.get("requests", 0),
            "accepted": router.get("accepted", 0),
            "shed": router.get("shed", 0),
            "errors": router.get("errors", 0),
            "queued": router.get("queued", 0),
            "evictions": self._evictions.value,
            "respawns": self._respawns.value,
            "latency_ms": latency_summary_ms(self._request_latency),
            "router": router,
        }
