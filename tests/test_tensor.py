import numpy as np
import pytest

import feddiv.tensor as T
from feddiv.errors import InputError, ShapeError
from feddiv.tensor import Tensor

from helpers import check_grads, numeric_grad, rel_err


def conv2d_loop_oracle(x, w, stride, pad):
    """Independent index-loop convolution, deliberately naive."""
    n, c, h, wd = x.shape
    f, _, kh, kw = w.shape
    ho = (h + 2 * pad - kh) // stride + 1
    wo = (wd + 2 * pad - kw) // stride + 1
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    out = np.zeros((n, f, ho, wo))
    for ni in range(n):
        for fi in range(f):
            for i in range(ho):
                for j in range(wo):
                    acc = 0.0
                    for ci in range(c):
                        for ki in range(kh):
                            for kj in range(kw):
                                acc += xp[ni, ci, i * stride + ki, j * stride + kj] \
                                    * w[fi, ci, ki, kj]
                    out[ni, fi, i, j] = acc
    return out


class TestMatmul:
    def test_identity(self):
        a = Tensor(np.eye(2))
        b = Tensor([[1.0, 2.0], [3.0, 4.0]])
        assert np.array_equal(T.matmul(a, b).data, b.data)

    def test_hand_arithmetic(self):
        out = T.matmul(Tensor([[1.0, 2.0]]), Tensor([[3.0], [4.0]]))
        assert out.data.tolist() == [[11.0]]

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 3\)"):
            T.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(0)
        a = Tensor(rng.uniform(-2, 2, (3, 4)), requires_grad=True)
        b = Tensor(rng.uniform(-2, 2, (4, 2)), requires_grad=True)
        check_grads(lambda: T.tsum(T.matmul(a, b)), [a, b], tol=1e-5)


class TestConv2d:
    def test_sum_of_ones(self):
        x = Tensor(np.ones((1, 1, 3, 3)))
        w = Tensor(np.ones((1, 1, 3, 3)))
        assert T.conv2d(x, w).data.tolist() == [[[[9.0]]]]

    def test_identity_kernel(self):
        rng = np.random.default_rng(1)
        x = Tensor(rng.uniform(-1, 1, (2, 1, 5, 5)))
        w = Tensor(np.ones((1, 1, 1, 1)))
        assert np.array_equal(T.conv2d(x, w).data, x.data)

    def test_kernel_larger_than_padded_input(self):
        with pytest.raises(ShapeError):
            T.conv2d(Tensor(np.zeros((1, 1, 2, 2))), Tensor(np.zeros((1, 1, 5, 5))), 1, 0)

    @pytest.mark.parametrize("stride,pad", [(1, 0), (1, 1), (2, 1)])
    def test_forward_matches_loop_oracle(self, stride, pad):
        rng = np.random.default_rng(2)
        x = rng.uniform(-2, 2, (2, 3, 8, 8))
        w = rng.uniform(-1, 1, (4, 3, 3, 3))
        got = T.conv2d(Tensor(x), Tensor(w), stride, pad).data
        want = conv2d_loop_oracle(x, w, stride, pad)
        assert rel_err(got, want) < 1e-6

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(3)
        x = Tensor(rng.uniform(-2, 2, (2, 3, 6, 6)), requires_grad=True)
        w = Tensor(rng.uniform(-1, 1, (4, 3, 3, 3)), requires_grad=True)
        check_grads(lambda: T.tsum(T.conv2d(x, w, 2, 1)), [x, w], tol=1e-5)

    @pytest.mark.parametrize("stride,pad", [(1, 0), (1, 1), (2, 0), (2, 1)])
    def test_col2im_equals_tap_loop_bitwise(self, stride, pad):
        rng = np.random.default_rng(4)
        n, c, h, wd, f = 2, 3, 7, 6, 4
        x = Tensor(rng.uniform(-2, 2, (n, c, h, wd)), requires_grad=True)
        w = Tensor(rng.uniform(-1, 1, (f, c, 3, 3)))
        out = T.conv2d(x, w, stride, pad)
        g = rng.uniform(-1, 1, out.shape)
        gx, gw = out._vjp(g)
        assert gw is None

        # reference: scatter the columns back with one strided += per kernel tap
        ho, wo = out.shape[2:]
        gcols = (w.data.reshape(f, -1).T @ g.transpose(1, 0, 2, 3).reshape(f, -1))
        gcols = gcols.reshape(c, 3, 3, n, ho, wo).transpose(3, 0, 1, 2, 4, 5)
        gxp = np.zeros((n, c, h + 2 * pad, wd + 2 * pad))
        for i in range(3):
            for j in range(3):
                gxp[:, :, i : i + stride * ho : stride, j : j + stride * wo : stride] += \
                    gcols[:, :, i, j]
        want = gxp[:, :, pad : pad + h, pad : pad + wd]
        assert np.array_equal(gx, want)

    def test_vjp_skips_parents_without_grad(self):
        rng = np.random.default_rng(5)
        data = rng.uniform(-2, 2, (2, 3, 6, 6))
        kernel = rng.uniform(-1, 1, (4, 3, 3, 3))
        frozen_w = T.conv2d(Tensor(data, requires_grad=True), Tensor(kernel), 2, 1)
        g = np.ones(frozen_w.shape)
        gx, gw = frozen_w._vjp(g)
        assert gx.shape == data.shape and gw is None
        const_x = T.conv2d(Tensor(data), Tensor(kernel, requires_grad=True), 2, 1)
        gx, gw = const_x._vjp(g)
        assert gx is None and gw.shape == kernel.shape


class TestBlendNormalize:
    C = 3

    def make_inputs(self, seed, w_shape):
        rng = np.random.default_rng(seed)
        c = self.C
        x = Tensor(rng.uniform(-2, 2, (4, c, 5, 5)), requires_grad=True)
        w = Tensor(rng.uniform(0.1, 0.9, w_shape), requires_grad=True)
        gamma = Tensor(rng.uniform(0.5, 1.5, c), requires_grad=True)
        beta = Tensor(rng.uniform(-0.5, 0.5, c), requires_grad=True)
        mu_g = rng.uniform(-0.5, 0.5, (1, c, 1, 1))
        sigma_g = rng.uniform(0.8, 1.5, (1, c, 1, 1))
        proj = rng.standard_normal(x.shape)
        return x, w, gamma, beta, mu_g, sigma_g, proj

    @pytest.mark.parametrize("w_shape", [(1, C, 1, 1), (4, 1, 1, 1)])
    def test_gradients_match_finite_differences(self, w_shape):
        x, w, gamma, beta, mu_g, sigma_g, proj = self.make_inputs(6, w_shape)

        def loss():
            out = T.blend_normalize(x, w, mu_g, sigma_g, gamma, beta, 1e-5)
            return T.tsum(T.mul(out, Tensor(proj)))

        check_grads(loss, [x, w, gamma, beta], tol=1e-6)

    @pytest.mark.parametrize("w_shape", [(1, C, 1, 1), (4, 1, 1, 1)])
    def test_matches_composite_reference(self, w_shape):
        x, w, gamma, beta, mu_g, sigma_g, proj = self.make_inputs(7, w_shape)
        out = T.blend_normalize(x, w, mu_g, sigma_g, gamma, beta, 1e-5)
        mu_i = x.data.mean(axis=(2, 3), keepdims=True)
        sigma_i = np.sqrt(x.data.var(axis=(2, 3), keepdims=True) + 1e-5)
        mu = w.data * mu_i + (1 - w.data) * mu_g
        sigma = w.data * sigma_i + (1 - w.data) * sigma_g
        want = (x.data - mu) / sigma * gamma.data.reshape(1, -1, 1, 1) \
            + beta.data.reshape(1, -1, 1, 1)
        assert rel_err(out.data, want) < 1e-12

    def test_clamp_warns_and_blocks_sigma_gradient(self):
        # w = 3 on channel 0 extrapolates the std below zero there
        x, w, gamma, beta, mu_g, sigma_g, proj = self.make_inputs(8, (1, self.C, 1, 1))
        x.data[:, 0] *= 0.2
        w.data[0, 0, 0, 0] = 3.0
        with pytest.warns(UserWarning, match="clamping"):
            out = T.blend_normalize(x, w, mu_g, sigma_g, gamma, beta, 1e-5)
        assert np.all(np.isfinite(out.data))

        def loss():
            out = T.blend_normalize(x, w, mu_g, sigma_g, gamma, beta, 1e-5)
            return T.tsum(T.mul(out, Tensor(proj)))

        # A clamped std is the constant eps, so finite differences see no
        # path through it: any gradient leaking through the clamp would show.
        with pytest.warns(UserWarning):
            check_grads(loss, [x, w, gamma, beta], tol=1e-4)

    def test_constant_weight_gets_no_gradient(self):
        x, w, gamma, beta, mu_g, sigma_g, proj = self.make_inputs(9, (1, self.C, 1, 1))
        w.requires_grad = False
        out = T.blend_normalize(x, w, mu_g, sigma_g, gamma, beta, 1e-5)
        gx, gw, ggamma, gbeta = out._vjp(proj)
        assert gw is None and gx.shape == x.shape and ggamma.shape == (self.C,)

    @pytest.mark.parametrize("w_shape", [(1, C, 1, 1), (4, 1, 1, 1)])
    def test_zero_weight_ignores_overflowing_instance_stats(self, w_shape):
        # the instance variance of 1e200-sized values overflows to inf; at
        # w = 0 the blend must still be exactly the global statistics
        x, w, gamma, beta, mu_g, sigma_g, _ = self.make_inputs(10, w_shape)
        x.data[:] *= 1e200
        w.data[:] = 0.0
        with np.errstate(over="ignore", invalid="raise"):
            out = T.blend_normalize(x, w, mu_g, sigma_g, gamma, beta, 1e-5)
        want = (x.data - mu_g) / sigma_g * gamma.data.reshape(1, -1, 1, 1) \
            + beta.data.reshape(1, -1, 1, 1)
        assert np.all(np.isfinite(out.data))
        assert np.array_equal(out.data, want)

    def test_degenerate_spatial_rejected(self):
        x = Tensor(np.zeros((2, 3, 1, 1)))
        with pytest.raises(InputError):
            T.blend_normalize(x, Tensor(np.full((1, 3, 1, 1), 0.5)), np.zeros((1, 3, 1, 1)),
                              np.ones((1, 3, 1, 1)), Tensor(np.ones(3)), Tensor(np.zeros(3)),
                              1e-5)


class TestElementwise:
    def test_relu(self):
        out = T.relu(Tensor([-1.0, 0.0, 2.0]))
        assert out.data.tolist() == [0.0, 0.0, 2.0]

    def test_relu_special_values_match_where(self):
        x = np.array([np.nan, -np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324, -5e-324, 2.0])
        out = T.relu(Tensor(x)).data
        want = np.where(x > 0, x, 0.0)
        assert out.tobytes() == want.tobytes()
        assert not np.signbit(out).any()

    def test_relu_subgradient_zero_at_zero(self):
        x = Tensor([0.0, -1.0, 3.0], requires_grad=True)
        T.tsum(T.relu(x)).backward()
        assert x.grad.tolist() == [0.0, 0.0, 1.0]

    def test_global_avg_pool_constant(self):
        x = Tensor(np.full((2, 3, 4, 4), 0.7))
        out = T.global_avg_pool(x)
        assert out.shape == (2, 3)
        assert np.allclose(out.data, 0.7)

    def test_elementwise_gradients(self):
        rng = np.random.default_rng(4)
        a = Tensor(rng.uniform(-2, 2, (3, 4)), requires_grad=True)
        b = Tensor(rng.uniform(0.5, 2, (3, 4)), requires_grad=True)

        def loss():
            return T.tsum(T.add(T.mul(a, b), T.sub(a, b)))

        check_grads(loss, [a, b], tol=1e-5)

    def test_broadcast_gradients(self):
        rng = np.random.default_rng(5)
        x = Tensor(rng.uniform(-2, 2, (2, 3, 4, 4)), requires_grad=True)
        g = Tensor(rng.uniform(0.5, 2, (1, 3, 1, 1)), requires_grad=True)
        check_grads(lambda: T.tsum(T.mul(x, g)), [x, g], tol=1e-5)

    def test_clamp_zero_grad_outside(self):
        x = Tensor([-0.5, 0.5, 1.5], requires_grad=True)
        T.tsum(T.clamp(x, 0.0, 1.0)).backward()
        assert x.grad.tolist() == [0.0, 1.0, 0.0]

    def test_mean_gradients(self):
        rng = np.random.default_rng(6)
        x = Tensor(rng.uniform(0.5, 2, (2, 3, 4, 4)), requires_grad=True)

        def loss():
            m = T.tmean(x, axis=(2, 3), keepdims=True)
            return T.tsum(T.mul(m, m))

        check_grads(loss, [x], tol=1e-5)


class TestSoftmaxCrossEntropy:
    def test_uniform_softmax(self):
        loss = T.softmax_cross_entropy(Tensor([[0.0, 0.0]]), np.array([0]))
        assert abs(float(loss.data) - np.log(2.0)) < 1e-12

    def test_large_logit_no_overflow(self):
        loss = T.softmax_cross_entropy(Tensor([[1000.0, 0.0]]), np.array([0]))
        assert np.isfinite(loss.data)
        assert float(loss.data) < 1e-10

    def test_out_of_range_label(self):
        with pytest.raises(InputError):
            T.softmax_cross_entropy(Tensor(np.zeros((2, 3))), np.array([0, 3]))

    def test_matches_explicit_softmax_oracle(self):
        rng = np.random.default_rng(7)
        logits = rng.uniform(-2, 2, (4, 3))
        labels = rng.integers(0, 3, size=4)
        probs = np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)
        want = -np.log(probs[np.arange(4), labels]).mean()
        lt = Tensor(logits, requires_grad=True)
        loss = T.softmax_cross_entropy(lt, labels)
        assert abs(float(loss.data) - want) < 1e-8
        loss.backward()
        onehot = np.eye(3)[labels]
        assert rel_err(lt.grad, (probs - onehot) / 4) < 1e-8

    def test_gradient_finite_differences(self):
        rng = np.random.default_rng(8)
        logits = Tensor(rng.uniform(-2, 2, (5, 4)), requires_grad=True)
        labels = rng.integers(0, 4, size=5)
        check_grads(lambda: T.softmax_cross_entropy(logits, labels), [logits], tol=1e-5)


class TestMSE:
    def test_identical_inputs(self):
        a = Tensor(np.ones((3, 4)))
        assert float(T.mse(a, Tensor(np.ones((3, 4)))).data) == 0.0

    def test_unit_offset(self):
        assert float(T.mse(Tensor([[1.0, 0.0]]), Tensor([[0.0, 0.0]])).data) == 1.0

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            T.mse(Tensor(np.zeros((2, 3))), Tensor(np.zeros((3, 2))))

    def test_matches_summation_oracle(self):
        rng = np.random.default_rng(9)
        a, b = rng.uniform(-2, 2, (6, 5)), rng.uniform(-2, 2, (6, 5))
        want = sum(((a[i] - b[i]) ** 2).sum() for i in range(6)) / 6
        assert abs(float(T.mse(Tensor(a), Tensor(b)).data) - want) < 1e-10

    def test_gradient(self):
        rng = np.random.default_rng(10)
        a = Tensor(rng.uniform(-2, 2, (4, 3)), requires_grad=True)
        b = Tensor(rng.uniform(-2, 2, (4, 3)), requires_grad=True)
        check_grads(lambda: T.mse(a, b), [a, b], tol=1e-5)


class TestBackward:
    def test_sum_grad_all_ones(self):
        x = Tensor(np.arange(24.0).reshape(2, 3, 4), requires_grad=True)
        T.tsum(x).backward()
        assert np.array_equal(x.grad, np.ones((2, 3, 4)))

    def test_non_scalar_loss_rejected(self):
        x = Tensor(np.zeros((2, 2)), requires_grad=True)
        with pytest.raises(InputError):
            x.backward()

    def test_backward_twice_doubles_grads(self):
        rng = np.random.default_rng(11)
        x = Tensor(rng.uniform(-2, 2, (3, 3)), requires_grad=True)
        loss = T.tsum(T.mul(x, x))
        loss.backward()
        once = x.grad.copy()
        loss.backward()
        assert np.array_equal(x.grad, 2 * once)

    def test_intermediate_nodes_keep_no_grad(self):
        x = Tensor(np.array([1.0, -2.0, 3.0]), requires_grad=True)
        y = T.mul(x, x)
        z = T.relu(y)
        T.tsum(z).backward()
        assert y.grad is None and z.grad is None
        assert np.array_equal(x.grad, 2 * x.data)

    def test_zeroing_then_backward_matches_fresh_graph(self):
        rng = np.random.default_rng(12)
        data = rng.uniform(-2, 2, (3, 3))
        x = Tensor(data.copy(), requires_grad=True)
        loss = T.tsum(T.relu(T.mul(x, x)))
        loss.backward()
        first = x.grad.copy()
        x.zero_grad()
        T.tsum(T.relu(T.mul(x, x))).backward()
        assert np.array_equal(x.grad, first)

    def test_forward_deterministic(self):
        rng = np.random.default_rng(13)
        x = rng.uniform(-2, 2, (2, 3, 6, 6))
        w = rng.uniform(-1, 1, (4, 3, 3, 3))
        a = T.conv2d(Tensor(x), Tensor(w), 1, 1).data
        b = T.conv2d(Tensor(x), Tensor(w), 1, 1).data
        assert np.array_equal(a, b)

    def test_composite_graph_finite_differences(self):
        # conv -> normalize -> relu -> pool -> linear -> CE, all parameters
        rng = np.random.default_rng(14)
        x = Tensor(rng.uniform(-1, 1, (2, 2, 6, 6)))
        w = Tensor(rng.uniform(-1, 1, (3, 2, 3, 3)) * 0.5, requires_grad=True)
        gamma = Tensor(rng.uniform(0.5, 1.5, 3), requires_grad=True)
        beta = Tensor(rng.uniform(-0.5, 0.5, 3), requires_grad=True)
        wl = Tensor(rng.uniform(-1, 1, (3, 4)) * 0.5, requires_grad=True)
        labels = np.array([1, 3])

        def loss():
            hn = T.batch_norm_train(T.conv2d(x, w, 2, 1), gamma, beta, 1e-5)
            pooled = T.global_avg_pool(T.relu(hn))
            return T.softmax_cross_entropy(T.matmul(pooled, wl), labels)

        check_grads(loss, [w, gamma, beta, wl], tol=1e-4)


class TestInvariantFiniteness:
    def test_random_op_chain_stays_finite(self):
        rng = np.random.default_rng(15)
        for _ in range(20):
            x = Tensor(rng.uniform(-2, 2, (2, 3, 4, 4)), requires_grad=True)
            y = T.relu(T.mul(x, Tensor(rng.uniform(-2, 2, (1, 3, 1, 1)))))
            out = T.tsum(T.add(T.mul(y, y), Tensor(1e-5)))
            out.backward()
            assert np.isfinite(out.data)
            assert np.isfinite(x.grad).all()
