"""Neural ops against naive-loop oracles, plus their gradient checks."""

import gc
import inspect
import re
import threading
import weakref

import numpy as np
import pytest

from castnet import nn
from castnet import tensor as T
from castnet.errors import ConfigError, InvalidRate, NumericalFailure, ShapeMismatch
from castnet.seeding import _GAMMA, _MASK, _splitmix64, derive_seed


@pytest.fixture(autouse=True)
def fresh_graph():
    T.reset_graph()
    yield
    T.reset_graph()


def conv2d_oracle(x, kernel, bias, stride, pad):
    """Direct 6-loop convolution over (C,H,W)."""
    out_ch, in_ch, kh, kw = kernel.shape
    xp = np.pad(x, ((0, 0), (pad, pad), (pad, pad)))
    h_out = (xp.shape[1] - kh) // stride + 1
    w_out = (xp.shape[2] - kw) // stride + 1
    out = np.zeros((out_ch, h_out, w_out))
    for o in range(out_ch):
        for i in range(h_out):
            for j in range(w_out):
                acc = bias[o]
                for c in range(in_ch):
                    for u in range(kh):
                        for v in range(kw):
                            acc += xp[c, i * stride + u, j * stride + v] * kernel[o, c, u, v]
                out[o, i, j] = acc
    return out


class TestConv2d:
    def test_all_ones_sums_kernel_window(self):
        x = T.ones((1, 3, 3))
        p = nn.Conv2dParams(kernel=T.ones((1, 1, 3, 3)), bias=T.zeros((1,)))
        np.testing.assert_array_equal(nn.conv2d(x, p).data, [[[9.0]]])

    def test_identity_kernel(self):
        x = T.uniform((1, 5, 5), -1, 1, seed=4)
        p = nn.Conv2dParams(kernel=T.ones((1, 1, 1, 1)), bias=T.zeros((1,)))
        np.testing.assert_array_equal(nn.conv2d(x, p).data, x.data)

    @pytest.mark.parametrize("stride,pad", [(1, 0), (1, 1), (2, 1), (2, 0)])
    def test_against_loop_oracle(self, stride, pad):
        rng = np.random.default_rng(7)
        x = rng.uniform(-2, 2, (2, 8, 8))
        k = rng.uniform(-1, 1, (4, 2, 3, 3))
        b = rng.uniform(-1, 1, 4)
        p = nn.Conv2dParams(kernel=T.Tensor(k), bias=T.Tensor(b), stride=stride, padding=pad)
        got = nn.conv2d(T.Tensor(x), p).data
        np.testing.assert_allclose(got, conv2d_oracle(x, k, b, stride, pad),
                                   atol=1e-12, rtol=0)

    @pytest.mark.parametrize("stride,pad,k,shape", [
        (3, 0, 3, (2, 8, 8)),
        (3, 1, 3, (2, 9, 7)),
        (1, 0, 1, (2, 5, 6)),
        (2, 1, 1, (2, 7, 5)),
        (1, 2, 5, (2, 6, 9)),
        (2, 2, 5, (3, 7, 6)),
        (1, 2, 3, (2, 5, 8)),
        (3, 2, 3, (2, 2, 2)),  # kernel row 1 and column 1 read only padding
        (2, 1, 3, (2, 2, 7, 5)),
    ])
    def test_edge_cases_against_loop_oracle(self, stride, pad, k, shape):
        rng = np.random.default_rng(8)
        x = rng.uniform(-2, 2, shape)
        kern = rng.uniform(-1, 1, (3, shape[-3], k, k))
        b = rng.uniform(-1, 1, 3)
        p = nn.Conv2dParams(kernel=T.Tensor(kern), bias=T.Tensor(b), stride=stride, padding=pad)
        got = nn.conv2d(T.Tensor(x), p).data
        want = np.stack([conv2d_oracle(xi, kern, b, stride, pad) for xi in x.reshape((-1,) + shape[-3:])])
        np.testing.assert_allclose(got, want.reshape(got.shape), atol=1e-12, rtol=0)

    def test_output_shape_formula(self):
        x = T.zeros((3, 11, 9))
        p = nn.Conv2dParams(kernel=T.zeros((5, 3, 3, 3)), bias=T.zeros((5,)),
                            stride=2, padding=1)
        out = nn.conv2d(x, p)
        assert out.shape == (5, (11 + 2 - 3) // 2 + 1, (9 + 2 - 3) // 2 + 1)

    def test_batched_matches_per_sample(self):
        rng = np.random.default_rng(3)
        x = rng.uniform(-1, 1, (4, 2, 6, 6))
        p = nn.Conv2dParams(kernel=T.Tensor(rng.uniform(-1, 1, (3, 2, 3, 3))),
                            bias=T.Tensor(rng.uniform(-1, 1, 3)), stride=2, padding=1)
        full = nn.conv2d(T.Tensor(x), p).data
        for i in range(4):
            one = nn.conv2d(T.Tensor(x[i]), p).data
            np.testing.assert_array_equal(full[i], one)

    def test_kernel_larger_than_input(self):
        p = nn.Conv2dParams(kernel=T.zeros((1, 1, 5, 5)), bias=T.zeros((1,)))
        with pytest.raises(ShapeMismatch):
            nn.conv2d(T.zeros((1, 3, 3)), p)

    def test_gradients(self):
        rng = np.random.default_rng(11)
        x = T.Tensor(rng.uniform(-1, 1, (2, 6, 6)), requires_grad=True)
        k = T.Tensor(rng.uniform(-1, 1, (3, 2, 3, 3)), requires_grad=True)
        b = T.Tensor(rng.uniform(-1, 1, 3), requires_grad=True)
        p = nn.Conv2dParams(kernel=k, bias=b, stride=2, padding=1)
        r = T.Tensor(rng.uniform(0.5, 1.5, (3, 3, 3)))

        def build():
            return T.sum_all(T.mul(nn.conv2d(x, p), r))

        assert T.grad_check(build, [x, k, b], eps=1e-5) < 1e-6

    @pytest.mark.parametrize("stride,pad", [(2, 1), (3, 2)])
    def test_batched_gradients(self, stride, pad):
        rng = np.random.default_rng(13)
        x = T.Tensor(rng.uniform(-1, 1, (2, 2, 7, 6)), requires_grad=True)
        k = T.Tensor(rng.uniform(-1, 1, (3, 2, 3, 3)), requires_grad=True)
        b = T.Tensor(rng.uniform(-1, 1, 3), requires_grad=True)
        p = nn.Conv2dParams(kernel=k, bias=b, stride=stride, padding=pad)
        r = T.Tensor(rng.uniform(0.5, 1.5, nn.conv2d(x, p).shape))

        def build():
            return T.sum_all(T.mul(nn.conv2d(x, p), r))

        assert T.grad_check(build, [x, k, b], eps=1e-5) < 1e-6


    def test_constant_input_skips_input_gradient(self, monkeypatch):
        rng = np.random.default_rng(12)
        xd = rng.uniform(-1, 1, (2, 3, 8, 8))
        p = nn.Conv2dParams(kernel=T.Tensor(rng.uniform(-1, 1, (4, 3, 3, 3)), requires_grad=True),
                            bias=T.Tensor(rng.uniform(-1, 1, 4), requires_grad=True),
                            stride=2, padding=1)
        r = T.Tensor(rng.uniform(0.5, 1.5, (2, 4, 4, 4)))

        def grads(x):
            T.reset_graph()
            g = T.backward(T.sum_all(T.mul(nn.conv2d(x, p), r)))
            return g.of(p.kernel).data, g.of(p.bias).data

        k_const, b_const = grads(T.Tensor(xd))
        k_leaf, b_leaf = grads(T.Tensor(xd, requires_grad=True))
        assert np.array_equal(k_const, k_leaf)
        assert np.array_equal(b_const, b_leaf)

        backward_fns = []

        def capture(op, out_data, inputs, backward_fn):
            backward_fns.append(backward_fn)
            return T.apply_op(op, out_data, inputs, backward_fn)
        monkeypatch.setattr(nn, "apply_op", capture)
        nn.conv2d(T.Tensor(xd), p)
        assert backward_fns[-1](np.ones((2, 4, 4, 4)))[0] is None


def conv_backward_fn(monkeypatch, x, p, relu=False):
    """conv2d's output and the backward_fn it hands to apply_op."""
    captured = []

    def capture(op, out_data, inputs, backward_fn):
        captured.append(backward_fn)
        return T.apply_op(op, out_data, inputs, backward_fn)
    monkeypatch.setattr(nn, "apply_op", capture)
    out = nn.conv2d(x, p, relu=relu)
    monkeypatch.undo()
    return out.data, captured[-1]


def random_conv(rng, x_shape, out_ch, k, stride, pad, dtype=np.float64):
    x = T.Tensor(rng.uniform(-1, 1, x_shape), requires_grad=True, dtype=dtype)
    p = nn.Conv2dParams(
        kernel=T.Tensor(rng.uniform(-1, 1, (out_ch, x_shape[-3], k, k)),
                        requires_grad=True, dtype=dtype),
        bias=T.Tensor(rng.uniform(-0.5, 0.5, out_ch), requires_grad=True, dtype=dtype),
        stride=stride, padding=pad)
    return x, p


class TestConv2dBackward:
    """The fused ReLU, the two kernel-gradient paths and the bincount fold."""

    # 8x8 = 64 output sites per image takes the batched kernel gradient,
    # 4x4 = 16 the tensordot one
    @pytest.mark.parametrize("x_shape", [(2, 3, 3, 16, 16), (3, 4, 8, 8)])
    def test_fused_relu_matches_relu_of_conv(self, x_shape):
        rng = np.random.default_rng(51)
        x, p = random_conv(rng, x_shape, 5, 3, 2, 1)
        r = T.Tensor(rng.uniform(0.5, 1.5, nn.conv2d(x, p).shape))

        def run(fused):
            T.reset_graph()
            out = nn.conv2d(x, p, relu=True) if fused else T.relu(nn.conv2d(x, p))
            g = T.backward(T.sum_all(T.mul(out, r)))
            return out.data, [g.of(t).data for t in (x, p.kernel, p.bias)]

        out_f, (gx_f, gk_f, gb_f) = run(True)
        out_u, (gx_u, gk_u, gb_u) = run(False)
        assert len(T._tape) == 4  # conv, relu, mul, sum_all of the unfused run
        assert 0 < np.count_nonzero(out_f) < out_f.size
        np.testing.assert_array_equal(out_f, out_u)
        np.testing.assert_array_equal(gx_f, gx_u)
        np.testing.assert_allclose(gk_f, gk_u, rtol=0, atol=1e-13)
        np.testing.assert_allclose(gb_f, gb_u, rtol=0, atol=1e-13)

    @pytest.mark.parametrize("x_shape", [(2, 2, 6, 6), (2, 2, 16, 18)])
    def test_fused_relu_gradients(self, x_shape):
        rng = np.random.default_rng(52)
        x, p = random_conv(rng, x_shape, 3, 3, 2, 1)
        r = T.Tensor(rng.uniform(0.5, 1.5, nn.conv2d(x, p).shape))

        def build():
            return T.sum_all(T.mul(nn.conv2d(x, p, relu=True), r))

        assert T.grad_check(build, [x, p.kernel, p.bias], eps=1e-6) < 1e-6

    def test_fused_relu_flags_the_hidden_nan(self):
        x = T.Tensor(np.full((1, 4, 4), np.nan), requires_grad=True)
        p = nn.Conv2dParams(kernel=T.ones((1, 1, 3, 3)), bias=T.zeros((1,)), padding=1)
        assert np.array_equal(nn.conv2d(x, p, relu=True).data, np.zeros((1, 4, 4)))
        T.set_debug_nan_checks(True)
        try:
            with pytest.raises(NumericalFailure, match="conv2d"):
                nn.conv2d(x, p, relu=True)
        finally:
            T.set_debug_nan_checks(False)

    @pytest.mark.parametrize("stride,pad,k,shape", [
        (3, 0, 3, (2, 8, 8)),
        (3, 1, 3, (2, 9, 7)),
        (1, 2, 5, (2, 6, 9)),
        (2, 2, 5, (3, 7, 6)),
        (3, 2, 3, (2, 2, 2)),  # kernel row 1 and column 1 read only padding
        (2, 1, 3, (2, 2, 7, 5)),
        (2, 1, 3, (2, 4, 16, 16)),
    ])
    def test_fold_equals_strided_adds(self, monkeypatch, stride, pad, k, shape):
        rng = np.random.default_rng(53)
        x, p = random_conv(rng, shape, 3, k, stride, pad)
        out, bwd = conv_backward_fn(monkeypatch, x, p)
        g = rng.uniform(-1, 1, out.shape)
        gx = bwd(g)[0]

        # reference: the column gradient added back tap by tap
        c, h, w = shape[-3:]
        h_out, w_out = out.shape[-2:]
        gm = g.reshape(-1, 3, h_out * w_out)
        gcols = np.matmul(p.kernel.data.reshape(3, -1).T, gm).reshape(
            len(gm), c, k, k, h_out, w_out)
        want = np.zeros((len(gm), c, h, w))
        for i in range(k):
            for j in range(k):
                rs = nn._tap_span(i, stride, pad, h, h_out)
                cs = nn._tap_span(j, stride, pad, w, w_out)
                if rs is not None and cs is not None:
                    want[:, :, rs[1], cs[1]] += gcols[:, :, i, j, rs[0], cs[0]]
        np.testing.assert_array_equal(gx, want.reshape(shape))

    @pytest.mark.parametrize("x_shape", [(2, 3, 16, 16), (2, 3, 8, 8)])
    def test_float32_input_keeps_float32_gradients(self, monkeypatch, x_shape):
        rng = np.random.default_rng(54)
        x, p = random_conv(rng, x_shape, 4, 3, 2, 1, dtype=np.float32)
        out, bwd = conv_backward_fn(monkeypatch, x, p, relu=True)
        assert out.dtype == np.float32
        grads = bwd(np.ones_like(out))
        assert [g.dtype for g in grads] == [np.float32] * 3
        x64, p64 = random_conv(np.random.default_rng(54), x_shape, 4, 3, 2, 1)
        _, bwd64 = conv_backward_fn(monkeypatch, x64, p64, relu=True)
        for g32, g64 in zip(grads, bwd64(np.ones(out.shape))):
            np.testing.assert_allclose(g32, g64, rtol=1e-4, atol=1e-4)

    def test_threads_share_no_scratch_buffer(self, monkeypatch):
        rng = np.random.default_rng(55)
        x, p = random_conv(rng, (4, 4, 16, 16), 8, 3, 2, 1)
        out, bwd = conv_backward_fn(monkeypatch, x, p, relu=True)
        gs = [rng.uniform(-1, 1, out.shape) for _ in range(2)]
        want = [bwd(g) for g in gs]
        got = [[], []]
        start = threading.Barrier(2)

        def work(t):
            start.wait()
            for _ in range(50):
                got[t].append(bwd(gs[t]))

        threads = [threading.Thread(target=work, args=(t,)) for t in range(2)]
        for th in threads:
            th.start()
        for th in threads:
            th.join()
        for t in range(2):
            assert len(got[t]) == 50
            for grads in got[t]:
                for a, b in zip(grads, want[t]):
                    np.testing.assert_array_equal(a, b)

    def test_scratch_is_one_buffer_per_dtype(self):
        # the default stage-1 and stage-2 column gradients share one buffer
        a = nn._scratch((16, 144, 64), np.float64)
        b = nn._scratch((16, 288, 16), np.float64)
        assert a.shape == (16, 144, 64) and b.shape == (16, 288, 16)
        assert a.flags.c_contiguous and b.flags.c_contiguous
        assert np.shares_memory(a, b)
        c = nn._scratch((16, 288, 16), np.float32)
        assert c.dtype == np.float32 and not np.shares_memory(b, c)


class TestLinear:
    def _params(self, x_shape, d, seed):
        rng = np.random.default_rng(seed)
        c = x_shape[-1]
        return [T.Tensor(rng.uniform(-1, 1, s), requires_grad=True)
                for s in (x_shape, (d, c), (d,))]

    @pytest.mark.parametrize("x_shape,d", [((4, 3), 2), ((2, 3, 4), 5)])
    def test_gradients(self, x_shape, d):
        x, w, b = self._params(x_shape, d, seed=41)
        r = T.Tensor(np.random.default_rng(42).uniform(0.5, 1.5, x_shape[:-1] + (d,)))

        def build():
            return T.sum_all(T.mul(nn.linear(x, w, b), r))

        assert T.grad_check(build, [x, w, b], eps=1e-5) < 1e-6

    # the model's affine maps: temporal projection, spatial projection, FFN
    # in and out, decoupled mix, classifier over pooled and per-frame tokens
    @pytest.mark.parametrize("x_shape,d", [
        ((16, 64), 64), ((16, 16, 64), 64), ((8, 16, 64), 256), ((8, 16, 256), 64),
        ((8, 16, 128), 64), ((8, 64), 1), ((8, 16, 64), 1)])
    def test_bitwise_equal_to_transpose_matmul_add(self, x_shape, d):
        x, w, b = self._params(x_shape, d, seed=43)
        r = T.Tensor(np.random.default_rng(44).uniform(0.5, 1.5, x_shape[:-1] + (d,)))

        def run(affine):
            T.reset_graph()
            out = affine(x, w, b)
            grads = T.backward(T.sum_all(T.mul(out, r)))
            return [out.data] + [grads.of(t).data for t in (x, w, b)]

        fused = run(nn.linear)
        composed = run(lambda x, w, b: T.add(T.matmul(x, T.transpose(w)), b))
        for got, want in zip(fused, composed):
            assert got.shape == want.shape
            assert np.array_equal(got, want)

    def test_feature_count_checked(self):
        x, w, b = self._params((4, 3), 2, seed=45)
        with pytest.raises(ShapeMismatch):
            nn.linear(T.zeros((4, 5)), w, b)
        with pytest.raises(ShapeMismatch):
            nn.linear(x, w, T.zeros((3,)))


class TestPointwiseProject:
    def test_hand_product(self):
        fm = T.Tensor(np.array([1.0, 2.0]).reshape(2, 1, 1))
        p = nn.PointwiseProj(weight=T.Tensor([[1.0, 1.0], [0.0, 1.0]]),
                             bias=T.zeros((2,)))
        out = nn.pointwise_project(fm, p)
        np.testing.assert_array_equal(out.data.reshape(2), [3.0, 2.0])

    def test_identity_weight(self):
        fm = T.uniform((3, 4, 4), -1, 1, seed=9)
        p = nn.PointwiseProj(weight=T.Tensor(np.eye(3)), bias=T.zeros((3,)))
        np.testing.assert_allclose(nn.pointwise_project(fm, p).data, fm.data, atol=1e-15)

    def test_against_per_site_oracle(self):
        rng = np.random.default_rng(21)
        fm = rng.uniform(-2, 2, (8, 4, 4))
        w = rng.uniform(-1, 1, (4, 8))
        b = rng.uniform(-1, 1, 4)
        p = nn.PointwiseProj(weight=T.Tensor(w), bias=T.Tensor(b))
        got = nn.pointwise_project(T.Tensor(fm), p).data
        for i in range(4):
            for j in range(4):
                np.testing.assert_allclose(got[:, i, j], w @ fm[:, i, j] + b,
                                           atol=1e-12, rtol=0)

    def test_channel_mismatch(self):
        p = nn.PointwiseProj(weight=T.zeros((4, 8)), bias=T.zeros((4,)))
        with pytest.raises(ShapeMismatch):
            nn.pointwise_project(T.zeros((5, 2, 2)), p)

    def test_gradients(self):
        rng = np.random.default_rng(31)
        fm = T.Tensor(rng.uniform(-1, 1, (3, 2, 2)), requires_grad=True)
        w = T.Tensor(rng.uniform(-1, 1, (2, 3)), requires_grad=True)
        b = T.Tensor(rng.uniform(-1, 1, 2), requires_grad=True)
        p = nn.PointwiseProj(weight=w, bias=b)
        r = T.Tensor(rng.uniform(0.5, 1.5, (2, 2, 2)))

        def build():
            return T.sum_all(T.mul(nn.pointwise_project(fm, p), r))

        assert T.grad_check(build, [fm, w, b]) < 1e-6


class TestGlobalAvgPool:
    def test_arithmetic_mean(self):
        fm = T.Tensor(np.array([[[1.0, 2.0], [3.0, 4.0]]]))
        np.testing.assert_array_equal(nn.global_avg_pool(fm).data, [2.5])

    def test_constant_map(self):
        fm = T.full((5, 3, 7), 1.25)
        np.testing.assert_allclose(nn.global_avg_pool(fm).data, np.full(5, 1.25),
                                   atol=1e-15)

    def test_against_double_sum_oracle(self):
        rng = np.random.default_rng(17)
        fm = rng.uniform(-2, 2, (3, 5, 7))
        expected = np.zeros(3)
        for c in range(3):
            for i in range(5):
                for j in range(7):
                    expected[c] += fm[c, i, j]
        expected /= 35.0
        np.testing.assert_allclose(nn.global_avg_pool(T.Tensor(fm)).data, expected,
                                   atol=1e-12, rtol=0)

    def test_gradients(self):
        fm = T.uniform((3, 4, 4), -1, 1, seed=8, requires_grad=True)
        r = T.Tensor(np.random.default_rng(0).uniform(0.5, 1.5, 3))

        def build():
            return T.sum_all(T.mul(nn.global_avg_pool(fm), r))

        assert T.grad_check(build, [fm]) < 1e-6


class TestAvgPool2d:
    def test_against_block_mean_oracle(self):
        rng = np.random.default_rng(23)
        x = rng.uniform(-1, 1, (2, 3, 8, 8))
        got = nn.avg_pool2d(T.Tensor(x), 4).data
        for n in range(2):
            for c in range(3):
                for i in range(2):
                    for j in range(2):
                        block = x[n, c, 4 * i:4 * i + 4, 4 * j:4 * j + 4]
                        np.testing.assert_allclose(got[n, c, i, j], block.mean(),
                                                   atol=1e-12)

    def test_gradients(self):
        x = T.uniform((2, 4, 4), -1, 1, seed=6, requires_grad=True)
        r = T.Tensor(np.random.default_rng(1).uniform(0.5, 1.5, (2, 2, 2)))

        def build():
            return T.sum_all(T.mul(nn.avg_pool2d(x, 2), r))

        assert T.grad_check(build, [x]) < 1e-6


class TestLeadingAxes:
    """The map ops take (..., C, H, W): on (2, 3, C, H, W) the output and the
    input gradient equal the op applied to each (C, H, W) alone, bit for bit,
    and a parameter gradient equals the sum of the per-image gradients."""

    @staticmethod
    def _ops(rng):
        conv = nn.Conv2dParams(kernel=T.Tensor(rng.uniform(-1, 1, (4, 3, 3, 3)), requires_grad=True),
                               bias=T.Tensor(rng.uniform(-1, 1, 4), requires_grad=True),
                               stride=2, padding=1)
        proj = nn.PointwiseProj(weight=T.Tensor(rng.uniform(-1, 1, (5, 3)), requires_grad=True),
                                bias=T.Tensor(rng.uniform(-1, 1, 5), requires_grad=True))
        return {"conv2d": (lambda x: nn.conv2d(x, conv), [conv.kernel, conv.bias]),
                "avg_pool2d": (lambda x: nn.avg_pool2d(x, 2), []),
                "global_avg_pool": (nn.global_avg_pool, []),
                "pointwise_project": (lambda x: nn.pointwise_project(x, proj),
                                      [proj.weight, proj.bias])}

    @staticmethod
    def _grads(op, x, params, r):
        T.reset_graph()
        out = op(x)
        grads = T.backward(T.sum_all(T.mul(out, T.Tensor(r))))
        return out.data, grads.of(x).data, [grads.of(p).data for p in params]

    @pytest.mark.parametrize("name", ["conv2d", "avg_pool2d", "global_avg_pool",
                                      "pointwise_project"])
    def test_matches_per_image(self, name):
        rng = np.random.default_rng(41)
        op, params = self._ops(rng)[name]
        xd = rng.uniform(-1, 1, (2, 3, 3, 6, 8))
        x = T.Tensor(xd, requires_grad=True)
        r = rng.uniform(0.5, 1.5, op(x).shape)
        out, gx, gp = self._grads(op, x, params, r)
        assert out.shape[:2] == (2, 3) and gx.shape == xd.shape
        gp_sum = [np.zeros_like(g) for g in gp]
        for i in range(2):
            for j in range(3):
                xi = T.Tensor(xd[i, j], requires_grad=True)
                out_i, gx_i, gp_i = self._grads(op, xi, params, r[i, j])
                np.testing.assert_array_equal(out[i, j], out_i)
                np.testing.assert_array_equal(gx[i, j], gx_i)
                for acc, g in zip(gp_sum, gp_i):
                    acc += g
        for g, want in zip(gp, gp_sum):
            np.testing.assert_allclose(g, want, rtol=1e-13, atol=1e-13)

    @pytest.mark.parametrize("name", ["conv2d", "avg_pool2d", "global_avg_pool"])
    def test_recorded_op_does_not_keep_its_input(self, name):
        rng = np.random.default_rng(42)
        op, _ = self._ops(rng)[name]
        x = T.Tensor(rng.uniform(-1, 1, (2, 3, 6, 8)), requires_grad=True)
        out = op(x)
        assert len(T._tape) == 1 and out.requires_grad
        alive = weakref.ref(x.data)
        del x
        gc.collect()
        assert alive() is None


class _Watched(T.Tensor):
    """A Tensor that a weakref can watch."""
    __slots__ = ("__weakref__",)


def _leaf(shape, seed):
    return _Watched(np.random.default_rng(seed).uniform(-1, 1, shape), requires_grad=True)


def _attention_heads(w):
    return nn.MhsaParams(heads=[nn.AttnHead(*w[0:3]), nn.AttnHead(*w[3:6])],
                         out_proj=w[6], dropout=0.5)


# name -> (input shapes, the op over inputs of those shapes); pointwise_project
# and mhsa compose tape ops, whose records must not keep the inputs either
RECORDED_OPS = {
    "matmul_shared": ([(2, 3, 4), (4, 5)], T.matmul),
    "matmul_batched": ([(2, 3, 4), (2, 4, 5)], T.matmul),
    "add": ([(3, 4), (4,)], T.add),
    "sub": ([(3, 4), (3, 4)], T.sub),
    "mul": ([(3, 4), (4,)], T.mul),
    "scale": ([(3, 4)], lambda a: T.scale(a, 2.0)),
    "sigmoid": ([(3, 4)], T.sigmoid),
    "exp": ([(3, 4)], T.exp),
    "log": ([(3, 4)], lambda a: T.log(T.exp(a))),
    "relu": ([(3, 4)], T.relu),
    "softplus": ([(3, 4)], T.softplus),
    "sum_all": ([(3, 4)], T.sum_all),
    "reshape": ([(3, 4)], lambda a: T.reshape(a, (4, 3))),
    "transpose": ([(2, 3, 4)], T.transpose),
    "concat": ([(2, 3), (1, 3)], lambda a, b: T.concat([a, b], axis=0)),
    "stack": ([(2, 3), (2, 3), (2, 3)], lambda *ts: T.stack(ts)),
    "mean_axis0": ([(3, 4)], T.mean_axis0),
    "repeat_rows": ([(2, 4)], lambda v: T.repeat_rows(v, 3)),
    "conv2d": ([(2, 3, 8, 8), (4, 3, 3, 3), (4,)],
               lambda x, k, b: nn.conv2d(x, nn.Conv2dParams(k, b, stride=2, padding=1))),
    "conv2d_relu": ([(2, 3, 8, 8), (4, 3, 3, 3), (4,)],
                    lambda x, k, b: nn.conv2d(x, nn.Conv2dParams(k, b, 2, 1), relu=True)),
    "avg_pool2d": ([(2, 3, 4, 4)], lambda x: nn.avg_pool2d(x, 2)),
    "linear": ([(2, 3, 4), (5, 4), (5,)], nn.linear),
    "global_avg_pool": ([(2, 3, 4, 4)], nn.global_avg_pool),
    "layer_norm": ([(2, 3, 4), (4,), (4,)],
                   lambda x, g, b: nn.layer_norm(x, nn.LayerNormParams(g, b))),
    "softmax_rows": ([(3, 4)], nn.softmax_rows),
    "dropout": ([(3, 4)], lambda x: nn.dropout(x, 0.5, "train", seed=3)),
    "pointwise_project": ([(2, 3, 4, 4), (5, 3), (5,)],
                          lambda x, w, b: nn.pointwise_project(x, nn.PointwiseProj(w, b))),
    "mhsa": ([(2, 3, 4)] + [(4, 2)] * 6 + [(4, 4)],
             lambda x, *w: nn.mhsa(x, _attention_heads(w), "train", seed=[1, 2])),
}


class TestRecordsKeepNoInputTensor:
    """A recorded op's backward rule keeps shapes and arrays, never an input
    Tensor, so the record does not keep its inputs alive."""

    @pytest.mark.parametrize("name", sorted(RECORDED_OPS))
    def test_inputs_freed_while_record_on_tape(self, name):
        shapes, op = RECORDED_OPS[name]
        inputs = [_leaf(shape, seed) for seed, shape in enumerate(shapes)]
        out = op(*inputs)
        assert out.requires_grad and T._tape
        refs = [weakref.ref(t) for t in inputs]
        del inputs
        gc.collect()
        assert [r() is None for r in refs] == [True] * len(refs)
        grads = T.backward(T.sum_all(out))  # the tape still replays without them
        assert all(np.all(np.isfinite(g.data)) for g in grads.values())

    def test_every_op_is_covered(self, monkeypatch):
        source = inspect.getsource(T) + inspect.getsource(nn)
        names = set(re.findall(r'apply_op\("(\w+)"', source))
        seen = set()
        real = T.apply_op

        def spy(op, *args):
            seen.add(op)
            return real(op, *args)
        monkeypatch.setattr(T, "apply_op", spy)
        monkeypatch.setattr(nn, "apply_op", spy)
        for shapes, op in RECORDED_OPS.values():
            op(*[_leaf(shape, seed) for seed, shape in enumerate(shapes)])
        assert len(names) == 24 and names <= seen


class TestLayerNorm:
    def test_three_point_row(self):
        # mean 2, biased variance 2/3 -> (x - 2) / sqrt(2/3)
        p = nn.LayerNormParams(gamma=T.ones((3,)), beta=T.zeros((3,)), eps=0.0)
        out = nn.layer_norm(T.Tensor([[1.0, 2.0, 3.0]]), p).data
        expected = (np.array([1.0, 2.0, 3.0]) - 2.0) / np.sqrt(2.0 / 3.0)
        np.testing.assert_allclose(out[0], expected, atol=1e-12)
        np.testing.assert_allclose(out[0], [-1.224744871, 0.0, 1.224744871], atol=1e-9)

    def test_constant_row_maps_to_beta(self):
        p = nn.LayerNormParams(gamma=T.ones((4,)), beta=T.full((4,), 0.7), eps=1e-5)
        out = nn.layer_norm(T.full((2, 4), 3.0), p).data
        np.testing.assert_allclose(out, np.full((2, 4), 0.7), atol=1e-12)

    def test_row_statistics(self):
        p = nn.LayerNormParams(gamma=T.ones((16,)), beta=T.zeros((16,)), eps=1e-5)
        x = T.uniform((10, 16), -3, 3, seed=12)
        out = nn.layer_norm(x, p).data
        assert np.all(np.abs(out.mean(axis=1)) < 1e-9)
        np.testing.assert_allclose(out.var(axis=1), 1.0, atol=1e-4)

    def test_gradients(self):
        rng = np.random.default_rng(14)
        x = T.Tensor(rng.uniform(-2, 2, (4, 6)), requires_grad=True)
        p = nn.LayerNormParams(gamma=T.Tensor(rng.uniform(0.5, 1.5, 6), requires_grad=True),
                               beta=T.Tensor(rng.uniform(-0.5, 0.5, 6), requires_grad=True))
        r = T.Tensor(rng.uniform(0.5, 1.5, (4, 6)))

        def build():
            return T.sum_all(T.mul(nn.layer_norm(x, p), r))

        assert T.grad_check(build, [x, p.gamma, p.beta]) < 1e-6


    def test_leading_axes_are_rows(self):
        rng = np.random.default_rng(15)
        p = nn.LayerNormParams(gamma=T.Tensor(rng.uniform(0.5, 1.5, 6)),
                               beta=T.Tensor(rng.uniform(-0.5, 0.5, 6)))
        x = rng.uniform(-2, 2, (3, 4, 6))
        out = nn.layer_norm(T.Tensor(x), p).data
        for i in range(3):
            assert np.array_equal(out[i], nn.layer_norm(T.Tensor(x[i]), p).data)

    def test_batched_gradients(self):
        rng = np.random.default_rng(16)
        x = T.Tensor(rng.uniform(-2, 2, (2, 3, 5)), requires_grad=True)
        p = nn.LayerNormParams(gamma=T.Tensor(rng.uniform(0.5, 1.5, 5), requires_grad=True),
                               beta=T.Tensor(rng.uniform(-0.5, 0.5, 5), requires_grad=True))
        r = T.Tensor(rng.uniform(0.5, 1.5, (2, 3, 5)))

        def build():
            return T.sum_all(T.mul(nn.layer_norm(x, p), r))

        assert T.grad_check(build, [x, p.gamma, p.beta]) < 1e-6


class TestSoftmaxRows:
    def test_symmetry(self):
        np.testing.assert_array_equal(nn.softmax_rows(T.Tensor([[0.0, 0.0]])).data,
                                      [[0.5, 0.5]])

    def test_exact_ratios(self):
        out = nn.softmax_rows(T.Tensor([[np.log(2.0), 0.0]])).data
        np.testing.assert_allclose(out, [[2.0 / 3.0, 1.0 / 3.0]], atol=1e-15)

    def test_stability(self):
        out = nn.softmax_rows(T.Tensor([[1000.0, 0.0]])).data
        np.testing.assert_array_equal(out, [[1.0, 0.0]])

    def test_rows_sum_to_one(self):
        x = T.uniform((20, 7), -50, 50, seed=19)
        out = nn.softmax_rows(x).data
        np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-9)
        assert np.all(out >= 0) and np.all(out <= 1)

    def test_gradients(self):
        x = T.uniform((3, 5), -2, 2, seed=25, requires_grad=True)
        r = T.Tensor(np.random.default_rng(2).uniform(0.5, 1.5, (3, 5)))

        def build():
            return T.sum_all(T.mul(nn.softmax_rows(x), r))

        assert T.grad_check(build, [x]) < 1e-6


    def test_batched_rows_and_gradients(self):
        x = T.uniform((2, 3, 5), -2, 2, seed=26, requires_grad=True)
        out = nn.softmax_rows(x).data
        for i in range(2):
            assert np.array_equal(out[i], nn.softmax_rows(T.Tensor(x.data[i])).data)
        r = T.Tensor(np.random.default_rng(3).uniform(0.5, 1.5, (2, 3, 5)))

        def build():
            return T.sum_all(T.mul(nn.softmax_rows(x), r))

        assert T.grad_check(build, [x]) < 1e-6


class TestDropout:
    def test_eval_is_identity(self):
        x = T.uniform((10, 10), -1, 1, seed=1)
        out = nn.dropout(x, 0.3, "eval", seed=5)
        assert np.array_equal(out.data, x.data)

    def test_rate_zero_is_identity(self):
        x = T.uniform((10,), -1, 1, seed=1)
        for mode in ("train", "eval"):
            assert np.array_equal(nn.dropout(x, 0.0, mode, seed=5).data, x.data)

    @pytest.mark.parametrize("rate", [0.1, 0.3, 0.5])
    def test_kept_fraction_per_rate(self, rate):
        n = 100_000
        out = nn.dropout(T.ones((n,)), rate, "train", seed=2024).data
        assert abs(np.count_nonzero(out) / n - (1.0 - rate)) < 0.01

    def test_mask_stream_is_pinned(self):
        # entry i of seed s keeps iff (splitmix64(s + i*gamma) >> 11) * 2**-53 >= rate
        seed = 20240917
        mask = nn._keep_mask(seed, (16,), 0.5)
        scalar = [(_splitmix64((seed + i * _GAMMA) & _MASK) >> 11) * 2.0 ** -53 >= 0.5
                  for i in range(16)]
        assert mask.tolist() == scalar
        assert "".join("1" if b else "0" for b in mask) == "1101010111000010"

    @pytest.mark.parametrize("seed,error", [
        (-1, ConfigError),
        (1 << 64, ConfigError),
        ([1, 2, [3, 4]], ShapeMismatch),
        ([[1, 2], [3, 4], 5], ShapeMismatch),
        ([[1, 2], [3]], ShapeMismatch),
        (1.5, ConfigError),
        ("3", ConfigError),
        (True, ConfigError),
        (None, ConfigError),
        ([1.0, 2.0, 3.0, 4.0], ConfigError),
        ([[1, 2], [3, 4.0], [5, 6]], ConfigError),
    ])
    def test_bad_seeds_raise_cast_errors(self, seed, error):
        with pytest.raises(error):
            nn.dropout(T.ones((3, 2, 4)), 0.4, "train", seed=seed)

    def test_seeds_span_all_64_bits(self):
        # derive_seed values fall on both sides of 2**63 within one nested list
        x = T.uniform((2, 2, 6), -1, 1, seed=8)
        seeds = [[(1 << 64) - 1, 5], (1 << 63, np.uint64(7))]
        out = nn.dropout(x, 0.4, "train", seed=seeds).data
        for h in range(2):
            for b in range(2):
                alone = nn.dropout(T.Tensor(x.data[h, b]), 0.4, "train", seed=seeds[h][b]).data
                assert np.array_equal(out[h, b], alone)

    def test_kept_fraction_and_expectation(self):
        n = 100_000
        x = T.ones((n,))
        out = nn.dropout(x, 0.3, "train", seed=123).data
        kept = np.count_nonzero(out) / n
        assert abs(kept - 0.7) < 0.01
        assert abs(out.mean() - 1.0) < 0.02  # inverted scaling keeps E[out] = x

    def test_deterministic_per_seed(self):
        x = T.uniform((50,), -1, 1, seed=3)
        a = nn.dropout(x, 0.5, "train", seed=77).data
        b = nn.dropout(x, 0.5, "train", seed=77).data
        assert np.array_equal(a, b)

    def test_invalid_rate(self):
        with pytest.raises(InvalidRate):
            nn.dropout(T.ones((2,)), 1.0, "train", seed=0)

    def test_gradients_with_fixed_mask(self):
        x = T.uniform((4, 4), -1, 1, seed=9, requires_grad=True)
        r = T.Tensor(np.random.default_rng(3).uniform(0.5, 1.5, (4, 4)))

        def build():
            return T.sum_all(T.mul(nn.dropout(x, 0.4, "train", seed=55), r))

        assert T.grad_check(build, [x]) < 1e-6


    def test_per_entry_seeds_give_each_entry_its_own_mask(self):
        x = T.uniform((3, 4, 5), -1, 1, seed=4)
        out = nn.dropout(x, 0.4, "train", seed=(11, 12, 13)).data
        for i, s in enumerate((11, 12, 13)):
            alone = nn.dropout(T.Tensor(x.data[i]), 0.4, "train", seed=s).data
            assert np.array_equal(out[i], alone)

    def test_seed_count_must_match_batch(self):
        with pytest.raises(ShapeMismatch):
            nn.dropout(T.ones((3, 4)), 0.4, "train", seed=(1, 2))

    def test_nested_seeds_cover_two_leading_axes(self):
        x = T.uniform((2, 3, 4, 5), -1, 1, seed=6)
        seeds = [[21, 22, 23], [31, 32, 33]]
        out = nn.dropout(x, 0.4, "train", seed=seeds).data
        for h in range(2):
            for b in range(3):
                alone = nn.dropout(T.Tensor(x.data[h, b]), 0.4, "train", seed=seeds[h][b]).data
                assert np.array_equal(out[h, b], alone)
        with pytest.raises(ShapeMismatch):
            nn.dropout(x, 0.4, "train", seed=[[1, 2], [3, 4]])

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_matches_float_factor_bit_for_bit(self, dtype, monkeypatch):
        # the reference multiplies by the float factor keep * 1/(1-rate);
        # -0.0, x * 0 of a negative x and NaN from inf * 0 must match too
        specials = np.array([-1.5, -0.0, 0.0, np.inf, -np.inf, np.nan, 2.0, -3e-300])
        xd = np.resize(specials, (4, 40)).astype(dtype)
        gd = np.resize(specials[::-1], (4, 40)).astype(dtype)
        captured = []

        def capture(op, out_data, inputs, backward_fn):
            captured.append(backward_fn)
            return T.apply_op(op, out_data, inputs, backward_fn)
        monkeypatch.setattr(nn, "apply_op", capture)
        factor = nn._keep_mask(8, xd.shape, 0.4) * dtype(1.0 / (1.0 - 0.4))
        bits = np.uint64 if dtype == np.float64 else np.uint32
        with np.errstate(invalid="ignore"):  # inf * 0
            out = nn.dropout(T.Tensor(xd, requires_grad=True, dtype=dtype), 0.4, "train",
                             seed=8)
            (gx,) = captured[-1](gd)
            want_out, want_gx = xd * factor, gd * factor
        assert out.dtype == gx.dtype == dtype
        assert np.isnan(want_out).any() and np.signbit(want_out[want_out == 0]).any()
        np.testing.assert_array_equal(out.data.view(bits), want_out.view(bits))
        np.testing.assert_array_equal(gx.view(bits), want_gx.view(bits))


def single_head_attention_oracle(x, wq, wk, wv, wo):
    """Step-by-step single-head self-attention in plain numpy."""
    q = x @ wq
    k = x @ wk
    v = x @ wv
    scores = q @ k.T / np.sqrt(q.shape[1])
    scores = scores - scores.max(axis=1, keepdims=True)
    e = np.exp(scores)
    attn = e / e.sum(axis=1, keepdims=True)
    return (attn @ v) @ wo


class TestMhsa:
    def test_single_token(self):
        rng = np.random.default_rng(41)
        d = 4
        p = nn.init_mhsa(d, 1, 0.0, seed=8)
        x = rng.uniform(-1, 1, (1, d))
        out = nn.mhsa(T.Tensor(x), p).data
        # softmax over one key is [1.0], so output = (x Wv) Wout
        expected = (x @ p.heads[0].wv.data) @ p.out_proj.data
        np.testing.assert_allclose(out, expected, atol=1e-12)

    def test_zero_input_zero_output(self):
        p = nn.init_mhsa(4, 2, 0.0, seed=8)
        out = nn.mhsa(T.zeros((3, 4)), p).data
        np.testing.assert_array_equal(out, np.zeros((3, 4)))

    def test_against_single_head_oracle(self):
        rng = np.random.default_rng(51)
        x = rng.uniform(-1, 1, (3, 4))
        p = nn.init_mhsa(4, 1, 0.0, seed=17)
        got = nn.mhsa(T.Tensor(x), p).data
        expected = single_head_attention_oracle(
            x, p.heads[0].wq.data, p.heads[0].wk.data, p.heads[0].wv.data,
            p.out_proj.data)
        np.testing.assert_allclose(got, expected, atol=1e-10, rtol=0)

    def test_multi_head_against_oracle(self):
        rng = np.random.default_rng(52)
        x = rng.uniform(-1, 1, (5, 6))
        p = nn.init_mhsa(6, 2, 0.0, seed=18)
        got = nn.mhsa(T.Tensor(x), p).data
        heads = []
        for h in p.heads:
            q, k, v = x @ h.wq.data, x @ h.wk.data, x @ h.wv.data
            s = q @ k.T / np.sqrt(3)
            e = np.exp(s - s.max(axis=1, keepdims=True))
            heads.append((e / e.sum(axis=1, keepdims=True)) @ v)
        expected = np.concatenate(heads, axis=1) @ p.out_proj.data
        np.testing.assert_allclose(got, expected, atol=1e-10, rtol=0)

    def test_head_count_must_divide(self):
        p = nn.init_mhsa(6, 2, 0.0, seed=1)
        p.heads.append(p.heads[0])  # 3 heads no longer divide d=6 into d_h=3 each
        with pytest.raises(ConfigError):
            nn.mhsa(T.zeros((2, 7)), nn.MhsaParams(heads=p.heads[:3], out_proj=p.out_proj))
        with pytest.raises(ConfigError):  # cross-attention: queries and keys differ
            nn.attention(T.zeros((2, 7)), T.zeros((5, 7)), p.heads[:3], p.out_proj,
                         0.0, "eval", 0, "fusion_head")

    def test_gradients(self):
        x = T.uniform((3, 4), -1, 1, seed=31, requires_grad=True)
        p = nn.init_mhsa(4, 2, 0.0, seed=32)
        params = [x]
        for h in p.heads:
            params += [h.wq, h.wk, h.wv]
        params.append(p.out_proj)
        r = T.Tensor(np.random.default_rng(4).uniform(0.5, 1.5, (3, 4)))

        def build():
            return T.sum_all(T.mul(nn.mhsa(x, p), r))

        assert T.grad_check(build, params) < 1e-6


def per_head_attention(xq, xkv, heads, out_proj, drop_rate, mode, seed, tag):
    """Reference: one Q/K/V projection and one scaled_dot_attention per
    head, concatenation in head order, then the output projection."""
    outs, attn_sum = [], None
    for h, head in enumerate(heads):
        out, attn = nn.scaled_dot_attention(
            T.matmul(xq, head.wq), T.matmul(xkv, head.wk), T.matmul(xkv, head.wv),
            drop_rate, mode, derive_seed(seed, tag, h))
        outs.append(out)
        attn_sum = attn if attn_sum is None else T.add(attn_sum, attn)
    cat = T.concat(outs, axis=-1)
    return T.matmul(cat, out_proj), T.scale(attn_sum, 1.0 / len(heads))


class TestAttention:
    """nn.attention (heads as a batch axis) against the per-head reference;
    the tests average nn.attention's per-head weights themselves."""

    @staticmethod
    def _run(fn, xq, xkv, p, drop_rate, mode, seed, r_out, r_attn):
        T.reset_graph()
        out, attn = fn(xq, xkv, p.heads, p.out_proj, drop_rate, mode, seed, "tag")
        if fn is nn.attention:
            assert attn.shape[0] == len(p.heads)
            attn = T.mean_axis0(attn)
        loss = T.add(T.sum_all(T.mul(out, r_out)), T.sum_all(T.mul(attn, r_attn)))
        grads = T.backward(loss)
        tensors = [xq, xkv, p.out_proj] + [w for h in p.heads for w in (h.wq, h.wk, h.wv)]
        return out.data, attn.data, [grads.of(t).data for t in tensors]

    @pytest.mark.parametrize("mode", ["eval", "train"])
    @pytest.mark.parametrize("lead,seed", [((), 7), ((3,), 7), ((3,), (7, 8, 9))],
                             ids=["unbatched", "batch_int_seed", "batch_per_clip_seeds"])
    @pytest.mark.parametrize("n_heads", [1, 2, 4])
    @pytest.mark.parametrize("cross", [False, True])
    def test_matches_per_head_reference(self, cross, n_heads, lead, seed, mode):
        rng = np.random.default_rng(60 + n_heads)
        d, n_q, n_kv = 8, 5, (3 if cross else 5)
        p = nn.init_mhsa(d, n_heads, 0.3, seed=61)
        xq = T.Tensor(rng.uniform(-1, 1, lead + (n_q, d)), requires_grad=True)
        xkv = T.Tensor(rng.uniform(-1, 1, lead + (n_kv, d)), requires_grad=True) \
            if cross else xq
        r_out = T.Tensor(rng.uniform(0.5, 1.5, lead + (n_q, d)))
        r_attn = T.Tensor(rng.uniform(0.5, 1.5, lead + (n_q, n_kv)))
        args = (xq, xkv, p, 0.3, mode, seed, r_out, r_attn)
        out, attn, grads = self._run(nn.attention, *args)
        ref_out, ref_attn, ref_grads = self._run(per_head_attention, *args)
        assert out.shape == lead + (n_q, d) and attn.shape == lead + (n_q, n_kv)
        np.testing.assert_allclose(out, ref_out, rtol=0, atol=1e-12)
        np.testing.assert_allclose(attn, ref_attn, rtol=0, atol=1e-12)
        for g, ref in zip(grads, ref_grads):
            np.testing.assert_allclose(g, ref, rtol=0, atol=1e-12)

    def test_cross_attention_gradients(self):
        rng = np.random.default_rng(64)
        xq = T.Tensor(rng.uniform(-1, 1, (3, 4)), requires_grad=True)
        xkv = T.Tensor(rng.uniform(-1, 1, (5, 4)), requires_grad=True)
        p = nn.init_mhsa(4, 2, 0.3, seed=65)
        params = [xq, xkv, p.out_proj] + [w for h in p.heads for w in (h.wq, h.wk, h.wv)]
        r_out = T.Tensor(rng.uniform(0.5, 1.5, (3, 4)))
        r_attn = T.Tensor(rng.uniform(0.5, 1.5, (3, 5)))

        def build():
            out, attn = nn.attention(xq, xkv, p.heads, p.out_proj, 0.3, "train", 5, "tag")
            attn = T.mean_axis0(attn)
            return T.add(T.sum_all(T.mul(out, r_out)), T.sum_all(T.mul(attn, r_attn)))

        assert T.grad_check(build, params) < 1e-6


class TestInit:
    def test_layer_norm_init(self):
        p = nn.init_layer_norm(8)
        np.testing.assert_array_equal(p.gamma.data, np.ones(8))
        np.testing.assert_array_equal(p.beta.data, np.zeros(8))

    def test_linear_bounds(self):
        w, b = nn.init_linear(4, 4, seed=21)
        bound = np.sqrt(6.0 / 8.0)
        assert np.all(np.abs(w.data) <= bound)
        assert w.data.std() > 0.1  # actually random, not degenerate
        np.testing.assert_array_equal(b.data, np.zeros(4))

    def test_same_seed_identical(self):
        a = nn.init_conv2d(4, 3, 3, 3, 2, 1, seed=77)
        b = nn.init_conv2d(4, 3, 3, 3, 2, 1, seed=77)
        assert np.array_equal(a.kernel.data, b.kernel.data)

    def test_requires_grad_set(self):
        p = nn.init_pointwise(4, 8, seed=5)
        assert p.weight.requires_grad and p.bias.requires_grad
