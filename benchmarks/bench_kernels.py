"""Bench: kernel-level performance of the ``repro.nn`` hot path.

Times the vectorized (``fast``) kernels against their baselines and writes
``benchmarks/results/BENCH_kernel_perf.json``:

* ``im2col`` — window-view gather vs the seed ``im2col_reference`` loop
  (gated: must be >= 1.2x on every conv shape);
* ``col2im`` — new-layout fold vs ``col2im_reference`` (report-only: the
  scatter-accumulate is a strided loop in both, only the layout differs),
  and vs the NCHW offset loop the ``reference`` kernel mode keeps (gated
  on the small maps, where ``fast`` accumulates batch-innermost: >= 2x);
* ``conv2d`` — forward+backward vs the ``legacy`` seed kernels (gated on the
  mean speedup across shapes);
* ``fused_loss`` — fused softmax-CE vs the composed log-softmax expression
  (gated);
* ``epoch`` — full VGG11 / ResNet18 training epochs, legacy vs fast, using
  ``TrainHistory.throughput_examples_per_s`` (best epoch of several, which
  is the min-time estimator and robust to scheduler noise).

The CI smoke gate is 1.2x so container timing noise cannot flake the job;
the recorded numbers on an idle machine are ~1.5x end-to-end for VGG11 and
higher for the individual kernels.
"""

from __future__ import annotations

import json
import time

import numpy as np

from bench_common import write_bench_json
from repro.models import resnet18, vgg11
from repro.nn import SGD, CrossEntropy, Tensor, Trainer, use_kernel_mode
from repro.nn.functional import (
    col2im,
    col2im_reference,
    conv2d,
    im2col,
    im2col_reference,
    log_softmax,
    softmax_cross_entropy,
)

GATE_MIN_SPEEDUP = 1.2
#: Floor for the batch-innermost col2im over the NCHW offset loop on the
#: small-map rows (recorded 2.9-4.6x across runs on 2 vCPU).
GATE_SMALL_MAP_COL2IM = 2.0

# (label, (n, c, h, w), (kh, kw), stride, padding) — VGG/ResNet conv geometries.
CONV_SHAPES = [
    ("conv3x3_early", (32, 8, 32, 32), (3, 3), 1, 1),
    ("conv3x3_mid", (32, 32, 16, 16), (3, 3), 1, 1),
    ("conv3x3_late", (32, 64, 8, 8), (3, 3), 1, 1),
    ("conv3x3_4x4", (32, 16, 4, 4), (3, 3), 1, 1),
    ("conv3x3_2x2", (32, 32, 2, 2), (3, 3), 1, 1),
]
#: The rows small enough for the batch-innermost patch kernels.
SMALL_MAP_SHAPES = ("conv3x3_4x4", "conv3x3_2x2")


def _best_ms(fn, reps: int = 10) -> float:
    fn()  # warm-up: page in buffers, trigger any lazy imports
    best = float("inf")
    for _ in range(reps):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best * 1e3


def _bench_im2col() -> dict:
    rng = np.random.default_rng(0)
    section = {}
    for label, x_shape, (kh, kw), stride, padding in CONV_SHAPES:
        x = rng.normal(size=x_shape).astype(np.float32)
        with use_kernel_mode("fast"):
            fast_ms = _best_ms(lambda: im2col(x, kh, kw, stride, padding))
        ref_ms = _best_ms(lambda: im2col_reference(x, kh, kw, stride, padding))
        section[label] = {
            "fast_ms": round(fast_ms, 4),
            "reference_ms": round(ref_ms, 4),
            "speedup": round(ref_ms / fast_ms, 3),
        }
    return section


def _bench_col2im() -> dict:
    rng = np.random.default_rng(1)
    section = {}
    for label, (n, c, h, w), (kh, kw), stride, padding in CONV_SHAPES:
        out_h = (h + 2 * padding - kh) // stride + 1
        out_w = (w + 2 * padding - kw) // stride + 1
        cols_new = rng.normal(size=(n, c * kh * kw, out_h * out_w)).astype(np.float32)
        cols_old = np.ascontiguousarray(
            cols_new.transpose(0, 2, 1).reshape(n * out_h * out_w, c * kh * kw)
        )
        def fold():
            return col2im(cols_new, (n, c, h, w), kh, kw, stride, padding)

        with use_kernel_mode("fast"):
            new_ms = _best_ms(fold)
        with use_kernel_mode("reference"):
            loop_ms = _best_ms(fold)
        ref_ms = _best_ms(
            lambda: col2im_reference(cols_old, (n, c, h, w), kh, kw, stride, padding)
        )
        section[label] = {
            "fast_ms": round(new_ms, 4),
            "loop_ms": round(loop_ms, 4),
            "reference_ms": round(ref_ms, 4),
            "loop_speedup": round(loop_ms / new_ms, 3),
            "speedup": round(ref_ms / new_ms, 3),
        }
    return section


def _bench_conv2d() -> dict:
    rng = np.random.default_rng(2)
    section = {}
    for label, x_shape, (kh, kw), stride, padding in CONV_SHAPES:
        c_out = 2 * x_shape[1]
        x = rng.normal(size=x_shape).astype(np.float32)
        w = rng.normal(size=(c_out, x_shape[1], kh, kw)).astype(np.float32)
        b = rng.normal(size=(c_out,)).astype(np.float32)

        def fwd_bwd():
            xt = Tensor(x, requires_grad=True)
            wt = Tensor(w, requires_grad=True)
            bt = Tensor(b, requires_grad=True)
            out = conv2d(xt, wt, bt, stride=stride, padding=padding)
            out.backward(np.ones_like(out.data))

        with use_kernel_mode("fast"):
            fast_ms = _best_ms(fwd_bwd)
        with use_kernel_mode("legacy"):
            legacy_ms = _best_ms(fwd_bwd)
        section[label] = {
            "fast_ms": round(fast_ms, 4),
            "legacy_ms": round(legacy_ms, 4),
            "speedup": round(legacy_ms / fast_ms, 3),
        }
    return section


def _bench_fused_loss() -> dict:
    rng = np.random.default_rng(3)
    logits_data = rng.normal(size=(256, 43)).astype(np.float32)  # GTSRB-sized batch
    targets = np.eye(43, dtype=np.float32)[rng.integers(0, 43, 256)]

    def fused():
        logits = Tensor(logits_data, requires_grad=True)
        softmax_cross_entropy(logits, targets).backward()

    def composed():
        logits = Tensor(logits_data, requires_grad=True)
        loss = -((log_softmax(logits, axis=1) * Tensor(targets)).sum(axis=1).mean())
        loss.backward()

    with use_kernel_mode("fast"):
        fused_ms = _best_ms(fused, reps=20)
    composed_ms = _best_ms(composed, reps=20)
    return {
        "fused_ms": round(fused_ms, 4),
        "composed_ms": round(composed_ms, 4),
        "speedup": round(composed_ms / fused_ms, 3),
    }


def _epoch_throughput(build, mode: str, n: int = 128, epochs: int = 5) -> float:
    rng = np.random.default_rng(0)
    x = rng.normal(size=(n, 3, 32, 32)).astype(np.float32)
    y = np.eye(10, dtype=np.float32)[rng.integers(0, 10, n)]
    with use_kernel_mode(mode):
        model = build(np.random.default_rng(0))
        trainer = Trainer(
            model,
            CrossEntropy(),
            SGD(model.parameters(), lr=0.01),
            epochs=epochs,
            batch_size=32,
            rng=np.random.default_rng(0),
        )
        history = trainer.fit(x, y)
    return max(epoch.throughput_examples_per_s for epoch in history.epochs)


def _bench_epochs() -> dict:
    configs = {
        "vgg11_w4": lambda rng: vgg11((3, 32, 32), 10, width=4, rng=rng),
        "resnet18_w8": lambda rng: resnet18((3, 32, 32), 10, width=8, rng=rng),
    }
    section = {}
    for label, build in configs.items():
        legacy = _epoch_throughput(build, "legacy")
        fast = _epoch_throughput(build, "fast")
        section[label] = {
            "legacy_examples_per_s": round(legacy, 1),
            "fast_examples_per_s": round(fast, 1),
            "speedup": round(fast / legacy, 3),
        }
    return section


def test_kernel_perf():
    payload = {
        "gate_min_speedup": GATE_MIN_SPEEDUP,
        "gate_small_map_col2im": GATE_SMALL_MAP_COL2IM,
        "im2col": _bench_im2col(),
        "col2im": _bench_col2im(),
        "conv2d": _bench_conv2d(),
        "fused_loss": _bench_fused_loss(),
        "epoch": _bench_epochs(),
    }
    out = write_bench_json("BENCH_kernel_perf.json", "kernel_perf", payload)
    print(f"\n{json.dumps(payload, indent=2)}\n[saved to {out}]")

    # Gates.  im2col: every conv gather must beat the seed loop.
    for label, row in payload["im2col"].items():
        assert row["speedup"] >= GATE_MIN_SPEEDUP, f"im2col {label}: {row}"
    # col2im: on small maps the batch-innermost fold must beat the offset loop.
    for label in SMALL_MAP_SHAPES:
        row = payload["col2im"][label]
        assert row["loop_speedup"] >= GATE_SMALL_MAP_COL2IM, f"col2im {label}: {row}"
    # conv2d: gate the mean so one noisy shape cannot flake the job.
    conv_speedups = [row["speedup"] for row in payload["conv2d"].values()]
    assert float(np.mean(conv_speedups)) >= GATE_MIN_SPEEDUP, payload["conv2d"]
    assert payload["fused_loss"]["speedup"] >= GATE_MIN_SPEEDUP, payload["fused_loss"]
    # End-to-end: the acceptance target is ~1.5x on VGG11 (recorded in the
    # JSON); the CI gate stays at 1.2x to absorb shared-runner noise.
    assert payload["epoch"]["vgg11_w4"]["speedup"] >= GATE_MIN_SPEEDUP, payload["epoch"]
