import numpy as np
import pytest

import feddiv.tensor as T
from feddiv.diversify import LossWeights, SamplingDistribution, local_loss, sample_mix_context
from feddiv.errors import ConfigError, UninitializedStatisticsError
from feddiv.federation import load_bundle
from feddiv.layers import BNMode, SmallConvNet, instance_stats
from feddiv.tensor import Tensor

from helpers import check_grads, rel_err


def make_net(seed=0, widths=(4, 8), init_global=True):
    net = SmallConvNet(in_channels=3, widths=widths, num_classes=5, seed=seed)
    if init_global:
        rng = np.random.default_rng(seed + 50)
        for bn in net.bn_layers():
            bn.set_global_stats(rng.uniform(-0.5, 0.5, bn.channels),
                                rng.uniform(0.5, 2.0, bn.channels))
    return net


class TestSamplingDistribution:
    def test_fixed_half(self):
        net = make_net()
        ctx = sample_mix_context(net, SamplingDistribution("fixed", 0.0, 1.0, 0.5),
                                 np.random.default_rng(0))
        assert all(np.all(u == 0.5) for u in ctx)
        assert [len(u) for u in ctx] == [4, 8]

    def test_uniform_deterministic_per_seed(self):
        net = make_net()
        dist = SamplingDistribution("uniform", 0.0, 1.0, 0.5)
        a = sample_mix_context(net, dist, np.random.default_rng(42))
        b = sample_mix_context(net, dist, np.random.default_rng(42))
        for ua, ub in zip(a, b):
            assert np.array_equal(ua, ub)

    def test_fresh_vectors_each_call(self):
        net = make_net()
        rng = np.random.default_rng(1)
        dist = SamplingDistribution("uniform", 0.0, 1.0, 0.5)
        a = sample_mix_context(net, dist, rng)
        b = sample_mix_context(net, dist, rng)
        assert not np.array_equal(a[0], b[0])

    def test_extrapolating_uniform_leaves_unit_interval(self):
        net = make_net(widths=(64,))
        ctx = sample_mix_context(net, SamplingDistribution("uniform", -0.1, 1.1, 0.5),
                                 np.random.default_rng(2))
        u = ctx[0]
        assert u.min() < 0.0 or u.max() > 1.0

    def test_invalid_kind_rejected(self):
        with pytest.raises(ConfigError):
            SamplingDistribution("gaussian", 0.0, 1.0, 0.5)


class TestMixStatistics:
    """The channel-wise blend u * instance + (1 - u) * global, at the op that runs it."""

    C = 4

    def blend(self, x, u, mu_g, sigma_g, gamma=None, beta=None):
        c = x.shape[1]
        gamma = np.ones(c) if gamma is None else gamma
        beta = np.zeros(c) if beta is None else beta
        return T.blend_normalize(Tensor(x), Tensor(u.reshape(1, c, 1, 1)),
                                 mu_g.reshape(1, c, 1, 1), sigma_g.reshape(1, c, 1, 1),
                                 Tensor(gamma), Tensor(beta), 1e-5).data

    def inputs(self, seed, c=C):
        rng = np.random.default_rng(seed)
        x = rng.uniform(-1, 1, (3, c, 4, 4))
        return x, rng.uniform(-1, 1, c), rng.uniform(0.5, 2, c), rng

    def test_u_one_gives_instance(self):
        x, mg, sg, _ = self.inputs(3)
        mi, si = instance_stats(x)
        want = (x - mi[:, :, None, None]) / si[:, :, None, None]
        assert np.array_equal(self.blend(x, np.ones(self.C), mg, sg), want)

    def test_u_zero_gives_global(self):
        x, mg, sg, _ = self.inputs(4)
        want = (x - mg.reshape(1, -1, 1, 1)) / sg.reshape(1, -1, 1, 1)
        assert np.array_equal(self.blend(x, np.zeros(self.C), mg, sg), want)

    def test_midpoint(self):
        # instance mean 2 and global mean 4 blend to 3, which maps to beta = 0
        x = np.tile(np.array([1.0, 3.0]), 8).reshape(1, 1, 4, 4)
        out = self.blend(x, np.array([0.5]), np.array([4.0]), np.array([1.0]))
        assert np.all(out[x == 3.0] == 0.0) and np.all(out[x == 1.0] < 0.0)

    def test_negative_sigma_clamped_with_warning(self):
        # u = 1.2 extrapolates 1.2 * sigma_i - 0.2 * 10 below zero
        x = np.tile(np.array([-0.1, 0.1]), 8).reshape(1, 1, 4, 4)
        with pytest.warns(UserWarning, match="clamping"):
            out = self.blend(x, np.array([1.2]), np.array([0.0]), np.array([10.0]))
        np.testing.assert_allclose(out, x / 1e-5, rtol=1e-12)

    def test_channel_permutation_consistency(self):
        x, mg, sg, rng = self.inputs(5, c=6)
        u = rng.uniform(0, 1, 6)
        gamma, beta = rng.uniform(0.5, 1.5, 6), rng.uniform(-0.5, 0.5, 6)
        out = self.blend(x, u, mg, sg, gamma, beta)
        p = rng.permutation(6)
        out_p = self.blend(np.ascontiguousarray(x[:, p]), u[p], mg[p], sg[p], gamma[p], beta[p])
        assert np.array_equal(out_p, out[:, p])


class TestDiversifiedForward:
    def test_uninitialized_global_rejected(self):
        net = make_net(init_global=False)
        ctx = sample_mix_context(net, SamplingDistribution("fixed", 0.0, 1.0, 0.5),
                                 np.random.default_rng(0))
        with pytest.raises(UninitializedStatisticsError):
            net.forward(Tensor(np.zeros((2, 3, 16, 16))), BNMode.MIXED_DIVERSIFY, ctx)

    def test_u_zero_equals_eval_global(self):
        net = make_net(seed=1)
        x = Tensor(np.random.default_rng(6).uniform(0, 1, (3, 3, 16, 16)))
        ctx = sample_mix_context(net, SamplingDistribution("fixed", 0.0, 1.0, 0.0),
                                 np.random.default_rng(0))
        f_div, logits_div = net.forward(x, BNMode.MIXED_DIVERSIFY, ctx)
        f_glob, logits_glob = net.forward(x, BNMode.EVAL_GLOBAL)
        assert rel_err(f_div.data, f_glob.data) < 1e-10
        assert rel_err(logits_div.data, logits_glob.data) < 1e-10

    def test_u_one_equals_pure_instance_path(self):
        net = make_net(seed=2)
        x = np.random.default_rng(7).uniform(0, 1, (2, 3, 16, 16))
        ctx = sample_mix_context(net, SamplingDistribution("fixed", 0.0, 1.0, 1.0),
                                 np.random.default_rng(0))
        f_div, _ = net.forward(Tensor(x), BNMode.MIXED_DIVERSIFY, ctx)

        h = x  # scripted pure-instance normalization replay
        for conv, bn in net.blocks:
            hw = T.conv2d(Tensor(h), Tensor(conv.weight.data), conv.stride, conv.pad).data
            mu, sigma = instance_stats(hw, bn.eps)
            hn = bn.gamma.data.reshape(1, -1, 1, 1) \
                * (hw - mu[:, :, None, None]) / sigma[:, :, None, None] \
                + bn.beta.data.reshape(1, -1, 1, 1)
            h = np.maximum(hn, 0.0)
        assert rel_err(f_div.data, h.mean(axis=(2, 3))) < 1e-10

    def test_buffers_untouched(self):
        net = make_net(seed=3)
        before = {k: v.copy() for k, v in net.bn_stats().items()}
        ctx = sample_mix_context(net, SamplingDistribution("uniform", 0, 1, 0.5),
                                 np.random.default_rng(1))
        net.forward(Tensor(np.random.default_rng(8).uniform(0, 1, (2, 3, 16, 16))),
                    BNMode.MIXED_DIVERSIFY, ctx)
        after = net.bn_stats()
        for k in before:
            assert np.array_equal(before[k], after[k])

    def test_fixed_point_three_matches_scripted_oracle(self):
        net = make_net(seed=4)
        x = np.random.default_rng(9).uniform(0, 1, (2, 3, 16, 16))
        ctx = sample_mix_context(net, SamplingDistribution("fixed", 0.0, 1.0, 0.3),
                                 np.random.default_rng(0))
        f_div, logits_div = net.forward(Tensor(x), BNMode.MIXED_DIVERSIFY, ctx)

        h = x
        for (conv, bn), u in zip(net.blocks, ctx):
            hw = T.conv2d(Tensor(h), Tensor(conv.weight.data), conv.stride, conv.pad).data
            mu_i, sigma_i = instance_stats(hw, bn.eps)
            mu_g = bn.global_mean
            sigma_g = np.sqrt(bn.global_var + bn.eps)
            mu_mix = u * mu_i + (1 - u) * mu_g
            sigma_mix = u * sigma_i + (1 - u) * sigma_g
            hn = bn.gamma.data.reshape(1, -1, 1, 1) \
                * (hw - mu_mix[:, :, None, None]) / sigma_mix[:, :, None, None] \
                + bn.beta.data.reshape(1, -1, 1, 1)
            h = np.maximum(hn, 0.0)
        feats = h.mean(axis=(2, 3))
        want_logits = feats @ net.classifier.weight.data + net.classifier.bias.data
        assert rel_err(f_div.data, feats) < 1e-8
        assert rel_err(logits_div.data, want_logits) < 1e-8


class TestLocalLoss:
    def test_lambda_zero_degenerates_to_ce(self):
        net = make_net(seed=5)
        rng = np.random.default_rng(10)
        x = Tensor(rng.uniform(0, 1, (4, 3, 16, 16)))
        labels = rng.integers(0, 5, 4)
        ctx = sample_mix_context(net, SamplingDistribution("uniform", 0, 1, 0.5),
                                 np.random.default_rng(2))
        total, comps = local_loss(net, x, labels, ctx, LossWeights(0.0, 0.0))
        # rerun the plain forward on a fresh net copy: running stats moved once
        net2 = make_net(seed=5)
        _, logits = net2.forward(x, BNMode.TRAIN_BATCH)
        ce = T.softmax_cross_entropy(logits, labels)
        assert float(total.data) == pytest.approx(float(ce.data), abs=1e-12)
        assert comps["ce"] == pytest.approx(float(ce.data), abs=1e-12)

    def test_cafl_nonnegative_and_zero_iff_features_equal(self):
        net = make_net(seed=6)
        rng = np.random.default_rng(11)
        x = Tensor(rng.uniform(0, 1, (3, 3, 16, 16)))
        labels = rng.integers(0, 5, 3)
        ctx = sample_mix_context(net, SamplingDistribution("uniform", 0, 1, 0.5),
                                 np.random.default_rng(3))
        _, comps = local_loss(net, x, labels, ctx, LossWeights(0.1, 4.0))
        assert comps["cafl"] > 0.0

        f1, _ = net.forward(x, BNMode.MIXED_DIVERSIFY, ctx)
        assert float(T.mse(f1, f1).data) == 0.0

    def test_component_recombination_paper_weights(self):
        net = make_net(seed=7)
        rng = np.random.default_rng(12)
        x = Tensor(rng.uniform(0, 1, (4, 3, 16, 16)))
        labels = rng.integers(0, 5, 4)
        ctx = sample_mix_context(net, SamplingDistribution("uniform", 0, 1, 0.5),
                                 np.random.default_rng(4))
        for l1, l2 in [(0.1, 4.0), (0.37, 1.3)]:
            total, comps = local_loss(net, x, labels, ctx, LossWeights(l1, l2))
            want = (1 - l1) * comps["ce"] + l1 * comps["cacl"] + l2 * comps["cafl"]
            assert float(total.data) == pytest.approx(want, abs=1e-12)

    def test_convexity_bound_when_lambda2_zero(self):
        net = make_net(seed=8)
        rng = np.random.default_rng(13)
        x = Tensor(rng.uniform(0, 1, (4, 3, 16, 16)))
        labels = rng.integers(0, 5, 4)
        ctx = sample_mix_context(net, SamplingDistribution("uniform", 0, 1, 0.5),
                                 np.random.default_rng(5))
        total, comps = local_loss(net, x, labels, ctx, LossWeights(0.4, 0.0))
        assert float(total.data) >= min(comps["ce"], comps["cacl"]) - 1e-12

    def test_gradients_flow_through_mixed_path(self):
        net = make_net(seed=9, widths=(3,))
        rng = np.random.default_rng(14)
        x = Tensor(rng.uniform(0, 1, (2, 3, 8, 8)))
        labels = rng.integers(0, 5, 2)
        ctx = sample_mix_context(net, SamplingDistribution("fixed", 0.0, 1.0, 0.6),
                                 np.random.default_rng(6))
        params = list(net.parameters().values())

        # freeze running-stat updates out of the loss rebuild by restoring them
        saved = {k: v.copy() for k, v in net.bn_stats().items()}

        def loss():
            load_bundle(net, None, saved)
            total, _ = local_loss(net, x, labels, ctx, LossWeights(0.1, 4.0))
            return total

        check_grads(loss, params, tol=1e-4)

    def test_invalid_weights_rejected(self):
        with pytest.raises(ConfigError):
            LossWeights(1.5, 0.0)
        with pytest.raises(ConfigError):
            LossWeights(0.1, -1.0)
