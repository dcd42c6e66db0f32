import numpy as np
import pytest

import feddiv.tensor as T
from feddiv.errors import ConfigError, InputError, UninitializedStatisticsError
from feddiv.layers import BNMode, DualBNLayer, SmallConvNet, instance_stats
from feddiv.tensor import Tensor

from helpers import check_grads, rel_err


def two_pass_stats_oracle(x):
    """Independent two-pass per-channel mean/variance over (N, H, W)."""
    c = x.shape[1]
    mean = np.array([x[:, ch].mean() for ch in range(c)])
    var = np.array([((x[:, ch] - mean[ch]) ** 2).mean() for ch in range(c)])
    return mean, var


class TestBNTrain:
    def test_output_standardized(self):
        rng = np.random.default_rng(0)
        bn = DualBNLayer(3)
        out = bn.forward_train(Tensor(rng.uniform(-3, 3, (4, 3, 5, 5)))).data
        for ch in range(3):
            assert abs(out[:, ch].mean()) < 1e-6
            assert abs(out[:, ch].var() - 1.0) < 1e-5

    def test_affine_contract(self):
        rng = np.random.default_rng(1)
        bn = DualBNLayer(2)
        bn.gamma.data = np.full(2, 2.0)
        bn.beta.data = np.full(2, 3.0)
        x = rng.standard_normal((8, 2, 6, 6))
        out = bn.forward_train(Tensor(x)).data
        for ch in range(2):
            assert abs(out[:, ch].mean() - 3.0) < 1e-6
            assert abs(out[:, ch].std() - 2.0) < 1e-4

    def test_matches_two_pass_oracle(self):
        rng = np.random.default_rng(2)
        bn = DualBNLayer(3)
        bn.gamma.data = rng.uniform(0.5, 1.5, 3)
        bn.beta.data = rng.uniform(-1, 1, 3)
        x = rng.uniform(-2, 2, (4, 3, 5, 5))
        out = bn.forward_train(Tensor(x)).data
        mean, var = two_pass_stats_oracle(x)
        want = bn.gamma.data.reshape(1, 3, 1, 1) \
            * (x - mean.reshape(1, 3, 1, 1)) / np.sqrt(var + bn.eps).reshape(1, 3, 1, 1) \
            + bn.beta.data.reshape(1, 3, 1, 1)
        assert rel_err(out, want) < 1e-6

    def test_running_stats_update(self):
        rng = np.random.default_rng(3)
        bn = DualBNLayer(2)
        x = rng.uniform(-2, 2, (4, 2, 5, 5))
        bn.forward_train(Tensor(x))
        mean, var = two_pass_stats_oracle(x)
        count = 4 * 5 * 5
        assert np.allclose(bn.local_mean, 0.9 * 0 + 0.1 * mean)
        assert np.allclose(bn.local_var, 0.9 * 1 + 0.1 * var * count / (count - 1))

    @pytest.mark.parametrize("batch_innermost", [False, True])
    def test_running_stats_bitwise_equal_to_np_var(self, batch_innermost):
        # the buffers come from the op's own statistics; they must carry the
        # same bits as np.mean / np.var over (N, H, W) in either memory order
        rng = np.random.default_rng(5)
        x = rng.uniform(-2, 2, (6, 3, 4, 5))
        if batch_innermost:
            x = np.ascontiguousarray(x.transpose(1, 2, 3, 0)).transpose(3, 0, 1, 2)
        bn = DualBNLayer(3)
        bn.local_mean = rng.uniform(-1, 1, 3)
        bn.local_var = rng.uniform(0.5, 2, 3)
        m, count = bn.momentum, 6 * 4 * 5
        want_mean = (1 - m) * bn.local_mean + m * x.mean(axis=(0, 2, 3))
        want_var = (1 - m) * bn.local_var + m * (x.var(axis=(0, 2, 3)) * (count / (count - 1)))
        out = bn.forward_train(Tensor(x))
        assert isinstance(out, Tensor)
        assert bn.local_mean.tobytes() == want_mean.tobytes()
        assert bn.local_var.tobytes() == want_var.tobytes()

    def test_running_stats_bitwise_reproducible(self):
        rng = np.random.default_rng(4)
        batches = [rng.uniform(-2, 2, (3, 2, 4, 4)) for _ in range(5)]
        results = []
        for _ in range(2):
            bn = DualBNLayer(2)
            for b in batches:
                bn.forward_train(Tensor(b))
            results.append((bn.local_mean.copy(), bn.local_var.copy()))
        assert np.array_equal(results[0][0], results[1][0])
        assert np.array_equal(results[0][1], results[1][1])

    def test_single_element_rejected(self):
        bn = DualBNLayer(2)
        with pytest.raises(InputError):
            bn.forward_train(Tensor(np.zeros((1, 2, 1, 1))))

    def test_gradients(self):
        rng = np.random.default_rng(5)
        bn = DualBNLayer(2)
        bn.gamma = Tensor(rng.uniform(0.5, 1.5, 2), requires_grad=True)
        bn.beta = Tensor(rng.uniform(-1, 1, 2), requires_grad=True)
        x = Tensor(rng.uniform(-2, 2, (2, 2, 4, 4)), requires_grad=True)
        labels_w = Tensor(rng.uniform(-1, 1, (2, 2, 4, 4)))
        check_grads(lambda: T.tsum(T.mul(bn.forward_train(x), labels_w)),
                    [x, bn.gamma, bn.beta], tol=1e-4)

    def test_gamma_beta_gradient_identities(self):
        # grad(gamma) = sum over channel of normalized*upstream, grad(beta) = sum upstream
        rng = np.random.default_rng(6)
        bn = DualBNLayer(3)
        x = rng.uniform(-2, 2, (4, 3, 5, 5))
        upstream = rng.uniform(-1, 1, (4, 3, 5, 5))
        xt = Tensor(x)
        out = bn.forward_train(xt)
        T.tsum(T.mul(out, Tensor(upstream))).backward()
        mean, var = two_pass_stats_oracle(x)
        xhat = (x - mean.reshape(1, 3, 1, 1)) / np.sqrt(var + bn.eps).reshape(1, 3, 1, 1)
        want_gamma = (xhat * upstream).sum(axis=(0, 2, 3))
        want_beta = upstream.sum(axis=(0, 2, 3))
        assert rel_err(bn.gamma.grad, want_gamma) < 1e-10
        assert rel_err(bn.beta.grad, want_beta) < 1e-10


class TestBNEvalGlobal:
    def test_uninitialized_rejected(self):
        bn = DualBNLayer(2)
        with pytest.raises(UninitializedStatisticsError):
            bn.forward_eval_global(Tensor(np.zeros((2, 2, 3, 3))))

    def test_identity_map(self):
        bn = DualBNLayer(2)
        bn.set_global_stats(np.zeros(2), np.full(2, 1.0 - bn.eps))
        x = np.random.default_rng(7).uniform(-2, 2, (2, 2, 4, 4))
        assert rel_err(bn.forward_eval_global(Tensor(x)).data, x) < 1e-12

    def test_input_at_mean_gives_beta(self):
        bn = DualBNLayer(3)
        mu = np.array([0.5, -1.0, 2.0])
        bn.set_global_stats(mu, np.ones(3))
        bn.beta.data = np.array([1.0, 2.0, 3.0])
        x = np.broadcast_to(mu.reshape(1, 3, 1, 1), (2, 3, 4, 4)).copy()
        out = bn.forward_eval_global(Tensor(x)).data
        assert rel_err(out, np.broadcast_to(bn.beta.data.reshape(1, 3, 1, 1), out.shape)) < 1e-12

    def test_scalar_formula_oracle(self):
        rng = np.random.default_rng(8)
        bn = DualBNLayer(3)
        bn.gamma.data = rng.uniform(0.5, 1.5, 3)
        bn.beta.data = rng.uniform(-1, 1, 3)
        mu, var = rng.uniform(-1, 1, 3), rng.uniform(0.2, 2, 3)
        bn.set_global_stats(mu, var)
        x = rng.uniform(-2, 2, (2, 3, 4, 4))
        out = bn.forward_eval_global(Tensor(x)).data
        want = np.empty_like(x)
        for n in range(2):
            for c in range(3):
                want[n, c] = bn.gamma.data[c] * (x[n, c] - mu[c]) / np.sqrt(var[c] + bn.eps) \
                    + bn.beta.data[c]
        assert rel_err(out, want) < 1e-12

    def test_idempotent_and_stateless(self):
        rng = np.random.default_rng(9)
        bn = DualBNLayer(2)
        bn.set_global_stats(rng.uniform(-1, 1, 2), rng.uniform(0.5, 2, 2))
        state = (bn.local_mean.copy(), bn.local_var.copy(),
                 bn.global_mean.copy(), bn.global_var.copy())
        x = Tensor(rng.uniform(-2, 2, (3, 2, 4, 4)))
        outs = [bn.forward_eval_global(x).data for _ in range(3)]
        assert np.array_equal(outs[0], outs[1]) and np.array_equal(outs[1], outs[2])
        assert np.array_equal(bn.local_mean, state[0])
        assert np.array_equal(bn.local_var, state[1])
        assert np.array_equal(bn.global_mean, state[2])
        assert np.array_equal(bn.global_var, state[3])


def to_batch_innermost(a):
    """The same values as ``a``, laid out as (C, H, W, N) memory."""
    return np.ascontiguousarray(a.transpose(1, 2, 3, 0)).transpose(3, 0, 1, 2)


class TestGlobalOnlyBlend:
    """EVAL_GLOBAL is blend_normalize at a constant zero weight."""

    def make_bn(self, seed, c=3):
        rng = np.random.default_rng(seed)
        bn = DualBNLayer(c)
        bn.gamma.data = rng.uniform(0.5, 1.5, c)
        bn.beta.data = rng.uniform(-1, 1, c)
        bn.set_global_stats(rng.uniform(-1, 1, c), rng.uniform(0.2, 2, c))
        return bn, rng

    @pytest.mark.parametrize("layout", ["c_order", "batch_innermost"])
    def test_bitwise_equal_to_global_formula(self, layout):
        bn, rng = self.make_bn(20)
        x = rng.uniform(-2, 2, (4, 3, 5, 5))
        g = rng.uniform(-1, 1, x.shape)
        if layout == "batch_innermost":
            x, g = to_batch_innermost(x), to_batch_innermost(g)
        xt = Tensor(x, requires_grad=True)
        out = bn.forward_eval_global(xt)
        gx, _, ggamma, gbeta = out._vjp(g)

        mu = bn.global_mean.reshape(1, 3, 1, 1)
        sigma = np.sqrt(bn.global_var + bn.eps).reshape(1, 3, 1, 1)
        gd = bn.gamma.data.reshape(1, 3, 1, 1)
        xn = (x - mu) / sigma
        assert out.data.tobytes() == (xn * gd + bn.beta.data.reshape(1, 3, 1, 1)).tobytes()
        assert gx.tobytes() == (g * (gd / sigma)).tobytes()
        assert ggamma.tobytes() == (g * xn).sum(axis=(0, 2, 3)).tobytes()
        assert gbeta.tobytes() == g.sum(axis=(0, 2, 3)).tobytes()

    def count_moments(self, monkeypatch):
        calls = []
        moments = T._instance_moments

        def counting(*args, **kwargs):
            calls.append(1)
            return moments(*args, **kwargs)

        monkeypatch.setattr(T, "_instance_moments", counting)
        return calls

    def test_weightless_blends_skip_instance_moments(self, monkeypatch):
        net = SmallConvNet(in_channels=3, widths=(4, 8), num_classes=5, seed=0)
        bn, rng = self.make_bn(21)
        for layer in net.bn_layers():
            layer.set_global_stats(rng.uniform(-1, 1, layer.channels),
                                   rng.uniform(0.5, 2, layer.channels))
        x = Tensor(rng.uniform(-2, 2, (4, 3, 5, 5)), requires_grad=True)
        calls = self.count_moments(monkeypatch)
        net.forward(Tensor(rng.uniform(0, 1, (2, 3, 16, 16))), BNMode.EVAL_GLOBAL)
        bn.forward_blend(x, Tensor(np.zeros((1, 3, 1, 1))))
        bn.forward_blend(x, Tensor(np.zeros((4, 1, 1, 1))))
        assert not calls

    def test_weighted_or_trainable_blends_use_instance_moments(self, monkeypatch):
        bn, rng = self.make_bn(22)
        x = Tensor(rng.uniform(-2, 2, (4, 3, 5, 5)))
        calls = self.count_moments(monkeypatch)
        bn.forward_blend(x, Tensor(np.array([0.0, 0.3, 0.0]).reshape(1, 3, 1, 1)))
        assert len(calls) == 1
        bn.forward_blend(x, Tensor(np.zeros((4, 1, 1, 1)), requires_grad=True))
        assert len(calls) == 2

    def test_one_pixel_map(self):
        bn, rng = self.make_bn(23)
        x = rng.uniform(-2, 2, (2, 3, 1, 1))
        out = bn.forward_eval_global(Tensor(x)).data
        want = (x - bn.global_mean.reshape(1, 3, 1, 1)) \
            / np.sqrt(bn.global_var + bn.eps).reshape(1, 3, 1, 1) \
            * bn.gamma.data.reshape(1, 3, 1, 1) + bn.beta.data.reshape(1, 3, 1, 1)
        assert np.array_equal(out, want)
        with pytest.raises(InputError):
            bn.forward_blend(Tensor(x), Tensor(np.full((1, 3, 1, 1), 0.5)))


class TestInstanceStats:
    def test_constant_map(self):
        x = np.full((2, 3, 4, 4), 0.6)
        mu, sigma = instance_stats(x)
        assert np.allclose(mu, 0.6)
        assert np.allclose(sigma, np.sqrt(1e-5))

    def test_identical_samples_identical_rows(self):
        rng = np.random.default_rng(10)
        one = rng.uniform(-1, 1, (1, 3, 4, 4))
        mu, sigma = instance_stats(np.concatenate([one, one]))
        assert np.array_equal(mu[0], mu[1])
        assert np.array_equal(sigma[0], sigma[1])

    def test_matches_double_loop_oracle(self):
        rng = np.random.default_rng(11)
        x = rng.uniform(-2, 2, (3, 2, 5, 5))
        mu, sigma = instance_stats(x)
        for n in range(3):
            for c in range(2):
                vals = x[n, c].reshape(-1)
                m = sum(vals) / len(vals)
                v = sum((val - m) ** 2 for val in vals) / len(vals)
                assert abs(mu[n, c] - m) < 1e-10
                assert abs(sigma[n, c] - np.sqrt(v + 1e-5)) < 1e-10

    def test_degenerate_spatial_rejected(self):
        with pytest.raises(InputError):
            instance_stats(np.zeros((2, 3, 1, 1)))

    @pytest.mark.parametrize("batch_innermost", [False, True])
    @pytest.mark.parametrize("shape", [(3, 2, 5, 5), (256, 16, 8, 8), (256, 32, 4, 4),
                                       (256, 64, 2, 2)])
    def test_bitwise_equal_to_np_mean_var(self, shape, batch_innermost):
        # instance_stats and blend_normalize share one formula; it must carry
        # the bits of np.mean / np.var over (H, W) in either memory order
        x = np.random.default_rng(14).uniform(-2, 2, shape)
        if batch_innermost:
            x = np.ascontiguousarray(x.transpose(1, 2, 3, 0)).transpose(3, 0, 1, 2)
        eps = 1e-5
        mu, sigma = instance_stats(x, eps)
        assert mu.tobytes() == x.mean(axis=(2, 3)).tobytes()
        assert sigma.tobytes() == np.sqrt(x.var(axis=(2, 3)) + eps).tobytes()

        mu4, xm, sigma4 = T._instance_moments(x, eps)
        want_mu = x.mean(axis=(2, 3), keepdims=True)
        want_xm = x - want_mu
        assert mu4.tobytes() == want_mu.tobytes()
        assert xm.tobytes() == want_xm.tobytes()
        assert sigma4.tobytes() == np.sqrt(
            (want_xm * want_xm).mean(axis=(2, 3), keepdims=True) + eps).tobytes()


class TestSmallConvNetForward:
    def make_net(self, seed=0):
        net = SmallConvNet(in_channels=3, widths=(4, 8), num_classes=5, seed=seed)
        rng = np.random.default_rng(seed + 100)
        for bn in net.bn_layers():
            bn.set_global_stats(rng.uniform(-0.5, 0.5, bn.channels),
                                rng.uniform(0.5, 2.0, bn.channels))
        return net

    def test_eval_global_pure(self):
        net = self.make_net()
        x = Tensor(np.random.default_rng(12).uniform(0, 1, (2, 3, 16, 16)))
        _, l1 = net.forward(x, BNMode.EVAL_GLOBAL)
        _, l2 = net.forward(x, BNMode.EVAL_GLOBAL)
        assert np.array_equal(l1.data, l2.data)

    def test_missing_context_rejected(self):
        net = self.make_net()
        x = Tensor(np.zeros((2, 3, 16, 16)))
        with pytest.raises(ConfigError):
            net.forward(x, BNMode.MIXED_DIVERSIFY)
        with pytest.raises(ConfigError):
            net.forward(x, BNMode.INTERPOLATED_ADAPTER)

    def test_mix_vector_shape_checked(self):
        net = self.make_net()
        x = Tensor(np.zeros((2, 3, 16, 16)))
        with pytest.raises(ConfigError, match="mix vector shape"):
            net.forward(x, BNMode.MIXED_DIVERSIFY, [np.zeros(4), np.zeros(4)])

    def test_blend_modes_are_one_weight_per_layer(self):
        # Each blend mode equals forward_blend at its weight, block by block.
        net = self.make_net(seed=4)
        rng = np.random.default_rng(14)
        x = Tensor(rng.uniform(0, 1, (3, 3, 16, 16)))
        u = [rng.uniform(0, 1, bn.channels) for bn in net.bn_layers()]
        alphas = [rng.uniform(0, 1, (3, 1)) for _ in net.bn_layers()]
        cases = [
            (BNMode.EVAL_GLOBAL, None, [np.zeros(())] * 2),
            (BNMode.MIXED_DIVERSIFY, u, [v.reshape(1, -1, 1, 1) for v in u]),
            (BNMode.INTERPOLATED_ADAPTER, lambda i, h: Tensor(alphas[i]),
             [a.reshape(3, 1, 1, 1) for a in alphas]),
        ]
        for mode, ctx, weights in cases:
            _, logits = net.forward(x, mode, ctx)
            h = x
            for (conv, bn), w in zip(net.blocks, weights):
                h = T.relu(bn.forward_blend(conv(h), Tensor(w)))
            assert logits.data.tobytes() == net.classifier(T.global_avg_pool(h)).data.tobytes()

    def test_eval_global_layer_replay_oracle(self):
        net = self.make_net(seed=3)
        x = np.random.default_rng(13).uniform(0, 1, (2, 3, 16, 16))
        _, logits = net.forward(Tensor(x), BNMode.EVAL_GLOBAL)

        h = x
        for conv, bn in net.blocks:
            hw = T.conv2d(Tensor(h), Tensor(conv.weight.data), conv.stride, conv.pad).data
            sig = np.sqrt(bn.global_var + bn.eps)
            hn = bn.gamma.data.reshape(1, -1, 1, 1) \
                * (hw - bn.global_mean.reshape(1, -1, 1, 1)) / sig.reshape(1, -1, 1, 1) \
                + bn.beta.data.reshape(1, -1, 1, 1)
            h = np.maximum(hn, 0.0)
        feats = h.mean(axis=(2, 3))
        want = feats @ net.classifier.weight.data + net.classifier.bias.data
        assert rel_err(logits.data, want) < 1e-8

    def test_bn_enumeration_stable(self):
        net = self.make_net()
        assert [bn.channels for bn in net.bn_layers()] == [4, 8]
        assert list(net.parameters()) == list(net.parameters())
