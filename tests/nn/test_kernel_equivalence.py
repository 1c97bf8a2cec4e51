"""Equivalence tests for the vectorized kernel pass.

The ``fast`` kernels (window-view gathers, fused softmax-CE, workspace
buffers, direct pooling scatters) must be *bitwise* interchangeable with the
``reference`` composition — the study archive comparator
(:func:`repro.experiments.persistence.results_equivalent`) uses exact float
equality, so anything weaker would make kernel choice visible in results.
The ``legacy`` (seed) kernels use a different GEMM layout and only agree to
float tolerance.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.nn import Tensor, kernel_mode, set_kernel_mode, use_kernel_mode
from repro.nn.functional import (
    avg_pool2d,
    _armed_im2col,
    _gather_index,
    _release_folded,
    col2im,
    col2im_reference,
    conv2d,
    conv_output_size,
    depthwise_conv2d,
    im2col,
    im2col_reference,
    log_softmax,
    max_pool2d,
    softmax_cross_entropy,
)
from repro.nn.ops import OP_REGISTRY, OpCtx
from repro.nn.workspace import Workspace

# (input shape, kernel kwargs) grids deliberately include stride 2, padding,
# non-square kernels, non-square images, and batch size 1.
CONV_CASES = [
    ((2, 3, 9, 9), (4, 3, 3, 3), dict(stride=1, padding=1)),
    ((2, 3, 9, 9), (4, 3, 3, 3), dict(stride=2, padding=1)),
    ((1, 2, 8, 7), (3, 2, 3, 2), dict(stride=2, padding=1)),  # non-square kernel
    ((1, 1, 5, 5), (2, 1, 1, 1), dict(stride=1, padding=0)),  # 1x1 kernel
    ((3, 2, 11, 11), (2, 2, 5, 5), dict(stride=3, padding=2)),
]
POOL_CASES = [
    ((2, 3, 8, 8), dict(kernel=2, stride=2)),  # disjoint (fast scatter path)
    ((1, 2, 8, 7), dict(kernel=3, stride=2)),  # overlapping windows
    ((2, 1, 9, 9), dict(kernel=3, stride=3)),
    ((1, 4, 7, 7), dict(kernel=2, stride=3)),  # gaps between windows
]


def _run(mode, op, arrays, grad=None, **kwargs):
    """Forward and backward (seeded with ``grad``, default ones) under ``mode``."""
    with use_kernel_mode(mode), np.errstate(invalid="ignore", over="ignore"):
        tensors = [
            Tensor(a.copy(), requires_grad=True) if a is not None else None for a in arrays
        ]
        out = op(*tensors, **kwargs)
        out.backward(np.ones_like(out.data) if grad is None else grad)
        return out.data, [t.grad for t in tensors if t is not None]


class TestKernelModeControls:
    def test_default_mode_is_fast(self):
        assert kernel_mode() == "fast"

    def test_set_kernel_mode_returns_previous(self):
        prev = set_kernel_mode("reference")
        try:
            assert prev == "fast"
            assert kernel_mode() == "reference"
        finally:
            set_kernel_mode(prev)

    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError, match="kernel mode"):
            set_kernel_mode("turbo")

    def test_context_manager_restores_mode(self):
        with use_kernel_mode("legacy"):
            assert kernel_mode() == "legacy"
        assert kernel_mode() == "fast"


class TestConvEquivalence:
    @pytest.mark.parametrize("x_shape,w_shape,kwargs", CONV_CASES)
    def test_fast_matches_reference_bitwise(self, x_shape, w_shape, kwargs):
        rng = np.random.default_rng(11)
        x = rng.normal(size=x_shape).astype(np.float32)
        w = rng.normal(size=w_shape).astype(np.float32)
        b = rng.normal(size=(w_shape[0],)).astype(np.float32)
        fast = _run("fast", conv2d, [x, w, b], **kwargs)
        ref = _run("reference", conv2d, [x, w, b], **kwargs)
        assert np.array_equal(fast[0], ref[0])
        for g_fast, g_ref in zip(fast[1], ref[1]):
            assert np.array_equal(g_fast, g_ref)

    @pytest.mark.parametrize("x_shape,w_shape,kwargs", CONV_CASES)
    def test_fast_matches_legacy_to_tolerance(self, x_shape, w_shape, kwargs):
        rng = np.random.default_rng(12)
        x = rng.normal(size=x_shape).astype(np.float32)
        w = rng.normal(size=w_shape).astype(np.float32)
        b = rng.normal(size=(w_shape[0],)).astype(np.float32)
        fast = _run("fast", conv2d, [x, w, b], **kwargs)
        legacy = _run("legacy", conv2d, [x, w, b], **kwargs)
        np.testing.assert_allclose(fast[0], legacy[0], rtol=1e-5, atol=1e-5)
        for g_fast, g_legacy in zip(fast[1], legacy[1]):
            np.testing.assert_allclose(g_fast, g_legacy, rtol=1e-4, atol=1e-5)

    def test_no_bias_conv_equivalent(self):
        rng = np.random.default_rng(13)
        x = rng.normal(size=(2, 2, 6, 6)).astype(np.float32)
        w = rng.normal(size=(3, 2, 3, 3)).astype(np.float32)
        fast = _run("fast", conv2d, [x, w, None], stride=1, padding=1)
        ref = _run("reference", conv2d, [x, w, None], stride=1, padding=1)
        assert np.array_equal(fast[0], ref[0])
        for g_fast, g_ref in zip(fast[1], ref[1]):
            assert np.array_equal(g_fast, g_ref)


class TestDepthwiseEquivalence:
    @pytest.mark.parametrize(
        "x_shape,kwargs",
        [
            ((2, 3, 9, 9), dict(stride=1, padding=1)),
            ((1, 4, 8, 7), dict(stride=2, padding=1)),
            ((2, 2, 7, 7), dict(stride=3, padding=0)),
        ],
    )
    def test_fast_matches_reference_bitwise(self, x_shape, kwargs):
        rng = np.random.default_rng(21)
        c = x_shape[1]
        x = rng.normal(size=x_shape).astype(np.float32)
        w = rng.normal(size=(c, 1, 3, 3)).astype(np.float32)
        b = rng.normal(size=(c,)).astype(np.float32)
        fast = _run("fast", depthwise_conv2d, [x, w, b], **kwargs)
        ref = _run("reference", depthwise_conv2d, [x, w, b], **kwargs)
        assert np.array_equal(fast[0], ref[0])
        for g_fast, g_ref in zip(fast[1], ref[1]):
            assert np.array_equal(g_fast, g_ref)


class TestPoolEquivalence:
    @pytest.mark.parametrize("x_shape,kwargs", POOL_CASES)
    @pytest.mark.parametrize("op", [max_pool2d, avg_pool2d])
    def test_fast_matches_reference_bitwise(self, op, x_shape, kwargs):
        rng = np.random.default_rng(31)
        x = rng.normal(size=x_shape).astype(np.float32)
        fast = _run("fast", op, [x], **kwargs)
        ref = _run("reference", op, [x], **kwargs)
        assert np.array_equal(fast[0], ref[0])
        assert np.array_equal(fast[1][0], ref[1][0])

    @pytest.mark.parametrize("x_shape,kwargs", POOL_CASES)
    def test_max_pool_matches_legacy_bitwise(self, x_shape, kwargs):
        # Max selection is layout-independent, so even the seed kernels
        # agree exactly for max pooling.
        rng = np.random.default_rng(32)
        x = rng.normal(size=x_shape).astype(np.float32)
        fast = _run("fast", max_pool2d, [x], **kwargs)
        legacy = _run("legacy", max_pool2d, [x], **kwargs)
        assert np.array_equal(fast[0], legacy[0])
        assert np.array_equal(fast[1][0], legacy[1][0])

    @pytest.mark.parametrize("x_shape,kwargs", POOL_CASES)
    def test_avg_pool_matches_legacy_to_tolerance(self, x_shape, kwargs):
        # The seed layout sums window elements in a different order, so the
        # window means can differ in the last ulp.
        rng = np.random.default_rng(33)
        x = rng.normal(size=x_shape).astype(np.float32)
        fast = _run("fast", avg_pool2d, [x], **kwargs)
        legacy = _run("legacy", avg_pool2d, [x], **kwargs)
        np.testing.assert_allclose(fast[0], legacy[0], rtol=1e-6, atol=1e-7)
        np.testing.assert_allclose(fast[1][0], legacy[1][0], rtol=1e-6, atol=1e-7)


class TestFusedLossEquivalence:
    def _composed(self, logits, targets, temperature):
        # The exact composition the fused op replaces (losses.py pre-fusion).
        return -(
            (log_softmax(logits, axis=1, temperature=temperature) * Tensor(targets))
            .sum(axis=1)
            .mean()
        )

    @pytest.mark.parametrize("temperature", [1.0, 2.0, 4.0])
    def test_fused_matches_composed_bitwise(self, temperature):
        rng = np.random.default_rng(41)
        logits_data = rng.normal(size=(8, 5)).astype(np.float32) * 3.0
        targets = np.eye(5, dtype=np.float32)[rng.integers(0, 5, 8)]

        logits_fused = Tensor(logits_data.copy(), requires_grad=True)
        fused = softmax_cross_entropy(logits_fused, targets, temperature=temperature)
        fused.backward()

        logits_composed = Tensor(logits_data.copy(), requires_grad=True)
        composed = self._composed(logits_composed, targets, temperature)
        composed.backward()

        assert np.array_equal(fused.data, composed.data)
        assert np.array_equal(logits_fused.grad, logits_composed.grad)

    def test_soft_targets(self):
        rng = np.random.default_rng(42)
        logits_data = rng.normal(size=(6, 4)).astype(np.float32)
        soft = rng.random((6, 4)).astype(np.float32)
        soft /= soft.sum(axis=1, keepdims=True)

        logits_fused = Tensor(logits_data.copy(), requires_grad=True)
        fused = softmax_cross_entropy(logits_fused, soft)
        fused.backward()

        logits_composed = Tensor(logits_data.copy(), requires_grad=True)
        composed = self._composed(logits_composed, soft, 1.0)
        composed.backward()

        assert np.array_equal(fused.data, composed.data)
        assert np.array_equal(logits_fused.grad, logits_composed.grad)

    def test_reference_mode_falls_back_to_composition(self):
        rng = np.random.default_rng(43)
        logits_data = rng.normal(size=(4, 3)).astype(np.float32)
        targets = np.eye(3, dtype=np.float32)[[0, 2, 1, 0]]
        with use_kernel_mode("fast"):
            fast_loss = float(softmax_cross_entropy(Tensor(logits_data), targets).data)
        with use_kernel_mode("reference"):
            ref_loss = float(softmax_cross_entropy(Tensor(logits_data), targets).data)
        assert fast_loss == ref_loss

    def test_shape_mismatch_rejected(self):
        logits = Tensor(np.zeros((4, 3), dtype=np.float32))
        with pytest.raises(ValueError):
            softmax_cross_entropy(logits, np.zeros((4, 2), dtype=np.float32))


class TestPatchLayouts:
    def test_im2col_layout_maps_to_reference(self):
        rng = np.random.default_rng(51)
        x = rng.normal(size=(2, 3, 8, 7)).astype(np.float32)
        for stride, padding in [(1, 0), (1, 1), (2, 1), (3, 0)]:
            new = im2col(x, 3, 2, stride, padding)  # (N, C*KH*KW, OH*OW)
            old = im2col_reference(x, 3, 2, stride, padding)  # (N*OH*OW, C*KH*KW)
            np.testing.assert_array_equal(
                new.transpose(0, 2, 1).reshape(old.shape), old
            )

    def test_im2col_strided_gather_matches_window_view(self):
        # Fast mode uses sliding_window_view only for stride 1; the strided
        # loop gather must produce identical patches.
        rng = np.random.default_rng(52)
        x = rng.normal(size=(2, 2, 9, 9)).astype(np.float32)
        with use_kernel_mode("fast"):
            fast = im2col(x, 3, 3, 2, 1)
        with use_kernel_mode("reference"):
            ref = im2col(x, 3, 3, 2, 1)
        np.testing.assert_array_equal(fast, ref)

    def test_col2im_is_adjoint_of_im2col(self):
        # <im2col(x), c> == <x, col2im(c)> characterises the exact adjoint.
        rng = np.random.default_rng(53)
        x = rng.normal(size=(2, 2, 7, 6))
        unfolded = im2col(x, 3, 3, 2, 1)  # (2, 18, 4*3)
        cols = rng.normal(size=unfolded.shape)
        folded = col2im(cols, x.shape, 3, 3, 2, 1)
        assert np.isclose((unfolded * cols).sum(), (x * folded).sum())

    def test_col2im_matches_reference_layout(self):
        rng = np.random.default_rng(54)
        n, c, h, w = 2, 3, 8, 8
        kh = kw = 3
        stride, padding = 1, 1
        oh = ow = 8
        cols_new = rng.normal(size=(n, c * kh * kw, oh * ow)).astype(np.float32)
        cols_old = cols_new.transpose(0, 2, 1).reshape(n * oh * ow, c * kh * kw)
        folded_new = col2im(cols_new, (n, c, h, w), kh, kw, stride, padding)
        folded_old = col2im_reference(cols_old, (n, c, h, w), kh, kw, stride, padding)
        np.testing.assert_allclose(folded_new, folded_old, rtol=1e-6, atol=1e-6)


class TestModelLevelEquivalence:
    def test_one_training_step_is_bitwise_identical(self):
        from repro.models import ConvNet
        from repro.nn import SGD
        from repro.nn.losses import CrossEntropy

        def step(mode):
            rng = np.random.default_rng(7)
            x = rng.normal(size=(8, 3, 16, 16)).astype(np.float32)
            y = np.eye(4, dtype=np.float32)[rng.integers(0, 4, 8)]
            with use_kernel_mode(mode):
                model = ConvNet((3, 16, 16), 4, width=4, rng=np.random.default_rng(7))
                opt = SGD(model.parameters(), lr=0.05)
                loss = CrossEntropy()(model(Tensor(x)), y)
                model.zero_grad()
                loss.backward()
                opt.step()
                return float(loss.data), [p.data.copy() for p in model.parameters()]

        loss_fast, params_fast = step("fast")
        loss_ref, params_ref = step("reference")
        assert loss_fast == loss_ref
        for p_fast, p_ref in zip(params_fast, params_ref):
            assert np.array_equal(p_fast, p_ref)


# ----------------------------------------------------------------------
# Small feature maps: batch-innermost col2im and gathered im2col
# ----------------------------------------------------------------------
#: Maps on both sides of the small-map threshold (``H*W <= 64``), odd and
#: non-square ones included; every kernel size, stride and padding below
#: whose output is non-empty is checked on each.
SMALL_MAPS = [(1, 1), (2, 2), (4, 4), (3, 5), (7, 7), (8, 8), (9, 9)]
PATCH_KERNELS = [1, 2, 3]


def _patch_geometries(h, w, k):
    """``(stride, padding, out_h, out_w)`` for every non-empty output."""
    geometries = []
    for stride in (1, 2):
        for padding in (0, 1, 2):
            oh = conv_output_size(h, k, stride, padding)
            ow = conv_output_size(w, k, stride, padding)
            if oh >= 1 and ow >= 1:
                geometries.append((stride, padding, oh, ow))
    return geometries


def _special(shape, seed):
    """Normal floats with NaN (one with a payload), +-inf and -0.0 mixed in."""
    rng = np.random.default_rng(seed)
    a = rng.normal(size=shape).astype(np.float32)
    flat = a.reshape(-1)
    specials = np.array(
        [np.nan, np.inf, -np.inf, -0.0, np.uint32(0x7FC00123).view(np.float32)], np.float32
    )
    picks = rng.choice(flat.size, size=max(1, flat.size // 6), replace=False)
    flat[picks] = specials[rng.integers(0, specials.size, picks.size)]
    return a


def _bits(a):
    """The float32 bit patterns of ``a``, every NaN mapped to one pattern.

    Where two NaNs of different sign or payload meet in one add, IEEE 754
    leaves open which survives, and numpy's SIMD body and scalar tail pick
    differently: the old offset loop's own result already depended on the
    map width there.  All other bits (-0.0 and infinities included) and the
    NaN positions must match exactly.
    """
    bits = np.ascontiguousarray(a, dtype=np.float32).view(np.uint32).copy()
    bits[np.isnan(a)] = 0x7FC00000
    return bits


def _assert_bitwise(a, b):
    assert a.shape == b.shape
    assert np.array_equal(_bits(a), _bits(b))


def _flat_cols(cols, n, oh, ow):
    """``(N, C*KH*KW, OH*OW)`` columns in the seed's ``(N*OH*OW, C*KH*KW)`` layout."""
    return np.ascontiguousarray(cols.transpose(0, 2, 1).reshape(n * oh * ow, -1))


class TestSmallMapPatchKernels:
    @pytest.mark.parametrize("k", PATCH_KERNELS)
    @pytest.mark.parametrize("hw", SMALL_MAPS)
    def test_im2col_bitwise_matches_reference(self, hw, k):
        h, w = hw
        x = _special((3, 4, h, w), seed=h * 10 + w)
        for stride, padding, oh, ow in _patch_geometries(h, w, k):
            with use_kernel_mode("fast"):
                fast = im2col(x, k, k, stride, padding)
            with use_kernel_mode("reference"):
                loop = im2col(x, k, k, stride, padding)
            _assert_bitwise(fast, loop)
            _assert_bitwise(_flat_cols(fast, 3, oh, ow), im2col_reference(x, k, k, stride, padding))

    @pytest.mark.parametrize("k", PATCH_KERNELS)
    @pytest.mark.parametrize("hw", SMALL_MAPS)
    def test_col2im_bitwise_matches_reference(self, hw, k):
        h, w = hw
        shape = (3, 4, h, w)
        for stride, padding, oh, ow in _patch_geometries(h, w, k):
            cols = _special((3, 4 * k * k, oh * ow), seed=h * 100 + w * 10 + stride + padding)
            flat = _flat_cols(cols, 3, oh, ow)
            with np.errstate(invalid="ignore"):
                oracle = col2im_reference(flat, shape, k, k, stride, padding)
                with use_kernel_mode("reference"):
                    loop = col2im(cols, shape, k, k, stride, padding)
                with use_kernel_mode("fast"):
                    fast = col2im(cols, shape, k, k, stride, padding)
                    pooled = col2im(cols, shape, k, k, stride, padding, workspace=Workspace())
            _assert_bitwise(loop, oracle)
            _assert_bitwise(fast, oracle)
            _assert_bitwise(pooled, oracle)

    @pytest.mark.parametrize("hw", [(2, 2), (4, 4), (8, 8), (16, 16)])
    def test_col2im_workspace_accounting_is_exact(self, hw):
        # Everything col2im draws from the arena comes back exactly once, and
        # nothing it did not draw (a view, a foreign array) is pooled.
        h, w = hw
        ws = Workspace()
        cols = np.random.default_rng(0).normal(size=(2, 3 * 9, h * w)).astype(np.float32)
        with use_kernel_mode("fast"):
            for step in range(3):
                folded = col2im(cols, (2, 3, h, w), 3, 3, 1, 1, workspace=ws)
                _release_folded(ws, folded)
                assert ws.misses == ws.num_free
                assert ws.hits == step * ws.misses
                assert ws.dropped == 0


def _run_armed(op, arrays, grad, kwargs):
    """Two armed (compiled-replay) steps of ``op`` on persistent buffers.

    The first step runs on scaled inputs, so stale buffer contents from it
    would show in the second step's values.
    """
    op = OP_REGISTRY[op.__name__]
    ctx = OpCtx(persistent=True)
    with use_kernel_mode("compiled"), np.errstate(invalid="ignore", over="ignore"):
        for scale in (np.float32(3.0), np.float32(1.0)):
            grads = [None] * len(arrays)

            def acc(i, g):
                grads[i] = g.copy()

            out = op.apply(ctx, tuple(a * scale for a in arrays), kwargs).copy()
            op.vjp(ctx, grad * scale, (True,) * len(arrays), acc)
    return out, grads


#: (op, input shape, other input shapes, kwargs) on small maps; each op's
#: registry entry has its function's name.
SMALL_MAP_OPS = [
    (conv2d, (4, 6, 2, 2), [(5, 6, 3, 3), (5,)], dict(stride=1, padding=1)),
    (conv2d, (4, 6, 4, 4), [(5, 6, 3, 3), (5,)], dict(stride=2, padding=2)),
    (conv2d, (3, 2, 5, 3), [(4, 2, 2, 2), (4,)], dict(stride=1, padding=0)),
    (conv2d, (2, 8, 1, 1), [(3, 8, 1, 1), (3,)], dict(stride=1, padding=0)),
    (depthwise_conv2d, (4, 6, 4, 4), [(6, 1, 3, 3), (6,)], dict(stride=1, padding=1)),
    (depthwise_conv2d, (2, 3, 7, 7), [(3, 1, 3, 3), (3,)], dict(stride=2, padding=1)),
    (max_pool2d, (4, 6, 4, 4), [], dict(kernel=2, stride=2)),
    (max_pool2d, (3, 4, 7, 7), [], dict(kernel=3, stride=2)),
    (avg_pool2d, (4, 6, 8, 8), [], dict(kernel=2, stride=2)),
    (avg_pool2d, (3, 4, 5, 5), [], dict(kernel=3, stride=1)),
]


class TestSmallMapOps:
    @pytest.mark.parametrize("op,x_shape,extra,kwargs", SMALL_MAP_OPS)
    def test_fast_reference_compiled_bitwise(self, op, x_shape, extra, kwargs):
        arrays = [_special(x_shape, seed=1)] + [
            np.random.default_rng(2 + i).normal(size=s).astype(np.float32)
            for i, s in enumerate(extra)
        ]
        out_shape = _run("reference", op, arrays, **kwargs)[0].shape
        grad = _special(out_shape, seed=3)
        ref = _run("reference", op, arrays, grad, **kwargs)
        for mode in ("fast", "compiled"):
            got = _run(mode, op, arrays, grad, **kwargs)
            _assert_bitwise(got[0], ref[0])
            for g, g_ref in zip(got[1], ref[1]):
                _assert_bitwise(g, g_ref)
        armed = _run_armed(op, arrays, grad, kwargs)
        _assert_bitwise(armed[0], ref[0])
        for g, g_ref in zip(armed[1], ref[1]):
            _assert_bitwise(g, g_ref)


def _in_ctx(result, ctx):
    """Whether ``result`` lives in one of the ctx's persistent arrays."""
    return any(
        isinstance(buf, np.ndarray) and np.shares_memory(result, buf) for buf in ctx.bufs.values()
    )


class TestArmedReplayAllocatesNothing:
    """Steady-state armed replay draws every patch buffer from the ctx.

    After the first (arming) step, a replayed step creates no new kernel
    buffer: the ctx holds the same arrays, results land in them, the gather
    index comes from the per-geometry cache without a miss, and the step
    retains no memory (``tracemalloc`` sees numpy's data buffers).  numpy's
    own ufunc iteration scratch, freed within each call, is not a kernel
    buffer and is not counted.
    """

    @staticmethod
    def _steady_state(ctx, step):
        step()
        step()
        arrays = {key: id(buf) for key, buf in ctx.bufs.items()}
        misses = _gather_index.cache_info().misses
        tracemalloc.start()
        try:
            step()
            before = tracemalloc.get_traced_memory()[0]
            results = step()
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert {key: id(buf) for key, buf in ctx.bufs.items()} == arrays
        assert _gather_index.cache_info().misses == misses
        assert retained < 1024, retained
        return results

    @pytest.mark.parametrize(
        "x_shape,k,stride,padding",
        [((32, 32, 2, 2), 3, 1, 1), ((32, 16, 4, 4), 3, 1, 1), ((32, 8, 8, 8), 2, 2, 0),
         ((32, 4, 16, 16), 3, 1, 1)],
    )
    def test_patch_kernels(self, x_shape, k, stride, padding):
        n, c, h, w = x_shape
        oh, ow = conv_output_size(h, k, stride, padding), conv_output_size(w, k, stride, padding)
        rng = np.random.default_rng(0)
        x = rng.normal(size=x_shape).astype(np.float32)
        gcols = rng.normal(size=(n, c * k * k, oh * ow)).astype(np.float32)
        ctx = OpCtx(persistent=True)
        cols = ctx.buffer("cols", gcols.shape, np.float32)

        def step():
            return (
                _armed_im2col(ctx, x, k, k, stride, padding, cols),
                col2im(gcols, x_shape, k, k, stride, padding, ctx=ctx),
            )

        with use_kernel_mode("compiled"):
            unfolded, folded = self._steady_state(ctx, step)
        assert unfolded is cols
        assert _in_ctx(folded, ctx)

    @pytest.mark.parametrize("x_shape", [(32, 16, 2, 2), (32, 8, 4, 4), (32, 2, 16, 16)])
    def test_conv2d_step(self, x_shape):
        op = OP_REGISTRY["conv2d"]
        rng = np.random.default_rng(1)
        x = rng.normal(size=x_shape).astype(np.float32)
        w = rng.normal(size=(4, x_shape[1], 3, 3)).astype(np.float32)
        grad = rng.normal(size=(x_shape[0], 4, x_shape[2], x_shape[3])).astype(np.float32)
        ctx = OpCtx(persistent=True)
        grads = [None, None]

        def step():
            out = op.apply(ctx, (x, w), {"stride": 1, "padding": 1})
            op.vjp(ctx, grad, (True, True), grads.__setitem__)
            return out, grads[0]

        with use_kernel_mode("compiled"):
            out, grad_x = self._steady_state(ctx, step)
        for result in (out, grad_x):
            assert _in_ctx(result, ctx)

    def test_gather_index_does_not_grow_with_batch_size(self):
        x = np.zeros((40, 5, 3, 3), np.float32)
        with use_kernel_mode("fast"):
            im2col(x[:1], 3, 3, 1, 1)
            size = _gather_index.cache_info().currsize
            for n in range(2, 41):
                im2col(x[:n], 3, 3, 1, 1)
        assert _gather_index.cache_info().currsize == size
