import numpy as np
import pytest

import feddiv.tensor as T
from feddiv.adapter import (InstanceAdapter, adapter_parameters, adapter_train_step,
                            learned_alphas, make_adapters, reparam_alpha_train)
from feddiv.domains import Dataset
from feddiv.errors import ConfigError, InputError
from feddiv.federation import SGD, evaluate_net
from feddiv.layers import BNMode, DualBNLayer, SmallConvNet, instance_stats
from feddiv.tensor import Tensor

from helpers import bn_stats, inference_logits, rel_err


def make_net(seed=0, widths=(4, 8)):
    net = SmallConvNet(in_channels=3, widths=widths, num_classes=5, seed=seed)
    rng = np.random.default_rng(seed + 50)
    for bn in net.bn_layers():
        bn.set_global_stats(rng.uniform(-0.5, 0.5, bn.channels),
                            rng.uniform(0.5, 2.0, bn.channels))
    return net


def forced_test_alpha(epsilon: float) -> Tensor:
    """Layer 0's alpha from the provider at ``rng=None``, with every sample's
    epsilon forced to ``epsilon`` (a zero output weight and that bias)."""
    net = make_net(widths=(4,))
    adapters = make_adapters(net, hidden_dim=8)
    fc2 = adapters[0].fc2
    fc2.weight.data = np.zeros_like(fc2.weight.data)
    fc2.bias.data = np.array([0.0, epsilon])
    h = Tensor(np.random.default_rng(0).uniform(0, 1, (2, 4, 4, 4)))
    return learned_alphas(net, adapters)(0, h)


class TestAdapterForward:
    def test_zero_weights_zero_output(self):
        a = InstanceAdapter(4, hidden_dim=8, seed=0)
        for p in a.parameters().values():
            p.data = np.zeros_like(p.data)
        rng = np.random.default_rng(0)
        delta, eps = a.forward(rng.uniform(-1, 1, (3, 4)), rng.uniform(0.5, 2, (3, 4)),
                               np.zeros(4), np.ones(4))
        assert np.array_equal(delta.data, np.zeros((3, 1)))
        assert np.array_equal(eps.data, np.zeros((3, 1)))

    def test_zero_difference_hits_bias_path_only(self):
        a = InstanceAdapter(4, hidden_dim=8, seed=1)
        mu_g, sigma_g = np.zeros(4), np.ones(4)
        mu_i = np.broadcast_to(mu_g, (2, 4)).copy()
        sigma_i = np.broadcast_to(sigma_g, (2, 4)).copy()
        delta, eps = a.forward(mu_i, sigma_i, mu_g, sigma_g)
        h = np.maximum(a.fc1.bias.data, 0.0)
        want = h @ a.fc2.weight.data + a.fc2.bias.data
        assert rel_err(delta.data[:, 0], np.full(2, want[0])) < 1e-12
        assert rel_err(eps.data[:, 0], np.full(2, want[1])) < 1e-12

    def test_matches_two_matmul_oracle(self):
        a = InstanceAdapter(3, hidden_dim=6, seed=2)
        rng = np.random.default_rng(1)
        mu_i, sigma_i = rng.uniform(-1, 1, (4, 3)), rng.uniform(0.5, 2, (4, 3))
        mu_g, sigma_g = rng.uniform(-1, 1, 3), rng.uniform(0.5, 2, 3)
        delta, eps = a.forward(mu_i, sigma_i, mu_g, sigma_g)
        inp = np.concatenate([mu_i - mu_g, sigma_i - sigma_g], axis=1)
        h = np.maximum(inp @ a.fc1.weight.data + a.fc1.bias.data, 0.0)
        out = h @ a.fc2.weight.data + a.fc2.bias.data
        assert rel_err(delta.data, out[:, 0:1]) < 1e-10
        assert rel_err(eps.data, out[:, 1:2]) < 1e-10

    def test_dim_mismatch_rejected(self):
        a = InstanceAdapter(4, hidden_dim=8, seed=3)
        with pytest.raises(ConfigError):
            a.forward(np.zeros((2, 5)), np.ones((2, 5)), np.zeros(5), np.ones(5))


class TestAlphaGeneration:
    def test_zero_delta_passes_epsilon(self):
        s = reparam_alpha_train(Tensor(np.zeros((3, 1))), Tensor(np.full((3, 1), 0.7)),
                                np.random.default_rng(0))
        assert np.allclose(s.alpha.data, 0.7)

    def test_clamp_upper(self):
        s = reparam_alpha_train(Tensor(np.zeros((2, 1))), Tensor(np.full((2, 1), 2.0)),
                                np.random.default_rng(1))
        assert np.array_equal(s.alpha.data, np.ones((2, 1)))

    def test_clamp_lower_with_known_z(self):
        # z is recorded; alpha = clamp(z*delta + epsilon)
        rng = np.random.default_rng(2)
        s = reparam_alpha_train(Tensor(np.ones((4, 1))), Tensor(np.zeros((4, 1))), rng)
        want = np.clip(s.z, 0.0, 1.0)
        assert np.array_equal(s.alpha.data, want)

    def test_alpha_always_in_unit_interval(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            delta = Tensor(rng.uniform(-10, 10, (8, 1)))
            eps = Tensor(rng.uniform(-10, 10, (8, 1)))
            s = reparam_alpha_train(delta, eps, rng)
            assert np.all(s.alpha.data >= 0.0) and np.all(s.alpha.data <= 1.0)
            for e in eps.data[:, 0]:
                t = forced_test_alpha(e)
                assert np.all(t.data >= 0.0) and np.all(t.data <= 1.0)

    def test_alpha_test_deterministic(self):
        assert np.all(forced_test_alpha(0.3).data == 0.3)
        assert np.all(forced_test_alpha(-1.0).data == 0.0)
        a1 = forced_test_alpha(0.4).data
        a2 = forced_test_alpha(0.4).data
        assert np.array_equal(a1, a2)


class TestInterpolatedBN:
    def make_layer(self, seed=0, channels=3):
        rng = np.random.default_rng(seed)
        bn = DualBNLayer(channels)
        bn.gamma.data = rng.uniform(0.5, 1.5, channels)
        bn.beta.data = rng.uniform(-1, 1, channels)
        bn.set_global_stats(rng.uniform(-1, 1, channels), rng.uniform(0.5, 2, channels))
        return bn

    def test_alpha_zero_matches_eval_global(self):
        bn = self.make_layer(1)
        x = Tensor(np.random.default_rng(4).uniform(-2, 2, (3, 3, 4, 4)))
        out = bn.forward_blend(x, Tensor(np.zeros((3, 1, 1, 1))))
        want = bn.forward_eval_global(x)
        assert rel_err(out.data, want.data) < 1e-10

    def test_alpha_one_constant_channel_maps_to_beta(self):
        bn = self.make_layer(2)
        x = np.random.default_rng(5).uniform(-2, 2, (2, 3, 4, 4))
        x[:, 1] = 0.4  # constant channel: instance sigma = sqrt(eps), mean removes it
        out = bn.forward_blend(Tensor(x), Tensor(np.ones((2, 1, 1, 1))))
        assert np.allclose(out.data[:, 1], bn.beta.data[1], atol=1e-8)

    def test_random_alpha_matches_scalar_oracle(self):
        bn = self.make_layer(3)
        rng = np.random.default_rng(6)
        x = rng.uniform(-2, 2, (3, 3, 5, 5))
        alpha = rng.uniform(0, 1, (3, 1))
        out = bn.forward_blend(Tensor(x), Tensor(alpha.reshape(3, 1, 1, 1))).data
        mu_i, sigma_i = instance_stats(x, bn.eps)
        sigma_g = np.sqrt(bn.global_var + bn.eps)
        want = np.empty_like(x)
        for n in range(3):
            for c in range(3):
                m = alpha[n, 0] * mu_i[n, c] + (1 - alpha[n, 0]) * bn.global_mean[c]
                s = alpha[n, 0] * sigma_i[n, c] + (1 - alpha[n, 0]) * sigma_g[c]
                want[n, c] = bn.gamma.data[c] * (x[n, c] - m) / s + bn.beta.data[c]
        assert rel_err(out, want) < 1e-10


class TestAdapterTraining:
    def test_main_network_frozen_bitwise(self):
        net = make_net(seed=1)
        adapters = make_adapters(net, hidden_dim=8, seed=1)
        before = {k: p.data.copy() for k, p in net.parameters().items()}
        stats_before = bn_stats(net)
        rng = np.random.default_rng(7)
        batch = Tensor(rng.uniform(0, 1, (4, 3, 16, 16)))
        labels = rng.integers(0, 5, 4)
        opt = SGD(adapter_parameters(adapters), lr=0.01, momentum=0.5)
        adapter_train_step(net, adapters, batch, labels, opt, rng)
        for k, p in net.parameters().items():
            assert np.array_equal(p.data, before[k]), k
            # backward stopped at the alphas and the freeze was undone
            assert p.grad is None and p.requires_grad, k
        for k, v in bn_stats(net).items():
            assert np.array_equal(v, stats_before[k]), k
        assert all(p.grad is not None for p in adapter_parameters(adapters).values())

    def test_freeze_undone_when_forward_raises(self):
        net = make_net(seed=1)
        adapters = make_adapters(net, hidden_dim=8, seed=1)
        rng = np.random.default_rng(7)
        batch = Tensor(rng.uniform(0, 1, (4, 3, 16, 16)))
        opt = SGD(adapter_parameters(adapters), lr=0.01)
        with pytest.raises(InputError):  # 3 labels for a batch of 4
            adapter_train_step(net, adapters, batch, np.zeros(3, dtype=int), opt, rng)
        assert all(p.requires_grad for p in net.parameters().values())

    def test_adapter_params_change_and_main_step_leaves_adapters(self):
        net = make_net(seed=2)
        adapters = make_adapters(net, hidden_dim=8, seed=2)
        rng = np.random.default_rng(8)
        batch = Tensor(rng.uniform(0, 1, (4, 3, 16, 16)))
        labels = rng.integers(0, 5, 4)

        a_before = {k: p.data.copy() for k, p in adapter_parameters(adapters).items()}
        opt = SGD(adapter_parameters(adapters), lr=0.05, momentum=0.0)
        adapter_train_step(net, adapters, batch, labels, opt, rng)
        changed = any(not np.array_equal(p.data, a_before[k])
                      for k, p in adapter_parameters(adapters).items())
        assert changed

        # a main-network step must leave adapter parameters untouched
        a_before = {k: p.data.copy() for k, p in adapter_parameters(adapters).items()}
        main_opt = SGD(net.parameters(), lr=0.05, momentum=0.0)
        _, logits = net.forward(batch, BNMode.TRAIN_BATCH)
        loss = T.softmax_cross_entropy(logits, labels)
        main_opt.zero_grad()
        loss.backward()
        main_opt.step()
        for k, p in adapter_parameters(adapters).items():
            assert np.array_equal(p.data, a_before[k]), k

    def test_sgd_step_decreases_loss_on_same_batch(self):
        net = make_net(seed=3)
        adapters = make_adapters(net, hidden_dim=8, seed=3)
        rng = np.random.default_rng(9)
        batch = Tensor(rng.uniform(0, 1, (8, 3, 16, 16)))
        labels = rng.integers(0, 5, 8)
        opt = SGD(adapter_parameters(adapters), lr=0.005, momentum=0.0)

        rng_a = np.random.default_rng(123)
        loss_before = adapter_train_step(net, adapters, batch, labels, opt, rng_a)
        # rerun the same forward with the same z draws after the step
        rng_b = np.random.default_rng(123)
        zs = rng_b  # identical stream reproduces identical z per layer
        provider = learned_alphas(net, adapters, zs)
        _, logits = net.forward(batch, BNMode.INTERPOLATED_ADAPTER, provider)
        loss_after = float(T.softmax_cross_entropy(logits, labels).data)
        assert loss_after < loss_before

    def test_gradient_through_interpolation_into_adapter(self):
        # interior alpha: finite differences on adapter weights
        from helpers import check_grads
        net = make_net(seed=4, widths=(3,))
        adapters = make_adapters(net, hidden_dim=4, seed=4)
        # bias epsilon towards 0.5 and shrink weights so clamp stays inactive
        adapters[0].fc2.weight.data = adapters[0].fc2.weight.data * 0.01
        adapters[0].fc2.bias.data = np.array([0.0, 0.5])
        rng = np.random.default_rng(10)
        batch = Tensor(rng.uniform(0, 1, (2, 3, 8, 8)))
        labels = rng.integers(0, 5, 2)
        z_fixed = np.random.default_rng(11).standard_normal((2, 1)) * 0.05

        def loss():
            conv, bn = net.blocks[0]
            h = conv(batch)
            mu_i, sigma_i = instance_stats(h.data, bn.eps)
            delta, eps_t = adapters[0].forward(mu_i, sigma_i, bn.global_mean,
                                               np.sqrt(bn.global_var + bn.eps))
            alpha = T.clamp(T.add(T.mul(Tensor(z_fixed), delta), eps_t), 0.0, 1.0)
            assert np.all(alpha.data > 0.0) and np.all(alpha.data < 1.0)
            out = bn.forward_blend(h, T.reshape(alpha, (2, 1, 1, 1)))
            feats = T.global_avg_pool(T.relu(out))
            return T.softmax_cross_entropy(net.classifier(feats), labels)

        check_grads(loss, list(adapter_parameters(adapters).values()), tol=1e-4)

    def test_clamped_alpha_has_exactly_zero_gradient(self):
        delta = Tensor(np.zeros((2, 1)), requires_grad=True)
        eps = Tensor(np.array([[2.0], [-1.0]]), requires_grad=True)
        s = reparam_alpha_train(delta, eps, np.random.default_rng(0))
        T.tsum(s.alpha).backward()
        assert np.array_equal(eps.grad, np.zeros((2, 1)))


class TestInference:
    def test_adaptive_inference_deterministic(self):
        net = make_net(seed=5)
        adapters = make_adapters(net, hidden_dim=8, seed=5)
        x = np.random.default_rng(12).uniform(0, 1, (3, 3, 16, 16))
        l1 = inference_logits(net, adapters, x, "adaptive")
        l2 = inference_logits(net, adapters, x, "adaptive")
        assert np.array_equal(l1, l2)

    def test_forced_alpha_zero_matches_eval_global(self):
        net = make_net(seed=6)
        adapters = make_adapters(net, hidden_dim=8, seed=6)
        # huge negative epsilon bias: clamp(epsilon) == 0 at every layer
        for a in adapters:
            a.fc2.weight.data = np.zeros_like(a.fc2.weight.data)
            a.fc2.bias.data = np.array([0.0, -100.0])
        x = np.random.default_rng(13).uniform(0, 1, (3, 3, 16, 16))
        logits = inference_logits(net, adapters, x, "adaptive")
        _, want = net.forward(Tensor(x), BNMode.EVAL_GLOBAL)
        assert rel_err(logits, want.data) < 1e-10

    def test_duplicate_samples_identical_rows(self):
        net = make_net(seed=7)
        adapters = make_adapters(net, hidden_dim=8, seed=7)
        one = np.random.default_rng(14).uniform(0, 1, (1, 3, 16, 16))
        x = np.concatenate([one, one])
        logits = inference_logits(net, adapters, x, "adaptive")
        assert np.allclose(logits[0], logits[1], atol=1e-12)

    def test_adaptive_matches_layer_replay_oracle(self):
        net = make_net(seed=8)
        adapters = make_adapters(net, hidden_dim=8, seed=8)
        x = np.random.default_rng(15).uniform(0, 1, (2, 3, 16, 16))
        logits = inference_logits(net, adapters, x, "adaptive")

        h = x
        for (conv, bn), ad in zip(net.blocks, adapters):
            hw = T.conv2d(Tensor(h), Tensor(conv.weight.data), conv.stride, conv.pad).data
            mu_i, sigma_i = instance_stats(hw, bn.eps)
            sigma_g = np.sqrt(bn.global_var + bn.eps)
            inp = np.concatenate([mu_i - bn.global_mean, sigma_i - sigma_g], axis=1)
            hid = np.maximum(inp @ ad.fc1.weight.data + ad.fc1.bias.data, 0.0)
            out2 = hid @ ad.fc2.weight.data + ad.fc2.bias.data
            alpha = np.clip(out2[:, 1:2], 0.0, 1.0)[:, :, None, None]
            m = alpha * mu_i[:, :, None, None] + (1 - alpha) * bn.global_mean.reshape(1, -1, 1, 1)
            s = alpha * sigma_i[:, :, None, None] + (1 - alpha) * sigma_g.reshape(1, -1, 1, 1)
            hn = bn.gamma.data.reshape(1, -1, 1, 1) * (hw - m) / s \
                + bn.beta.data.reshape(1, -1, 1, 1)
            h = np.maximum(hn, 0.0)
        feats = h.mean(axis=(2, 3))
        want = feats @ net.classifier.weight.data + net.classifier.bias.data
        assert rel_err(logits, want) < 1e-8

    def test_baseline_fixed_endpoints(self):
        net = make_net(seed=9)
        x = np.random.default_rng(16).uniform(0, 1, (2, 3, 16, 16))
        logits0 = inference_logits(net, None, x, "fixed_alpha", 0.0)
        _, want = net.forward(Tensor(x), BNMode.EVAL_GLOBAL)
        assert rel_err(logits0, want.data) < 1e-10

        logits_half_a = inference_logits(net, None, x, "fixed_alpha", 0.5)
        logits_half_b = inference_logits(net, None, x, "fixed_alpha", 0.5)
        assert np.array_equal(logits_half_a, logits_half_b)

    def test_baseline_random_uses_rng(self):
        net = make_net(seed=10)
        x = np.random.default_rng(17).uniform(0, 1, (2, 3, 16, 16))
        a = inference_logits(net, None, x, "random_alpha", rng=np.random.default_rng(5))
        b = inference_logits(net, None, x, "random_alpha", rng=np.random.default_rng(5))
        assert np.array_equal(a, b)
        ds = Dataset(x, np.zeros(2, dtype=np.int64))
        with pytest.raises(ConfigError, match="needs an RNG"):
            evaluate_net(net, None, ds, "random_alpha")
        with pytest.raises(InputError, match="unknown inference mode"):
            evaluate_net(net, None, ds, "learned")
