"""Binding acceptance criteria.

One test (or test class) per criterion, with pinned tolerances:

1. gradient integrity vs central finite differences (<1e-4 rel, >=100 instances, <2 min)
2. normalization endpoint equivalences (1e-10)
3. aggregation oracle (1e-12) and per-strategy preservation contracts
4. loss composition identity (1e-12)
5. adapter contracts (alpha range, deterministic inference, freeze)
6. full-run bitwise determinism regardless of scheduling
7. directional benchmark: FedAvg < FedFD < FedFD-A on the held-out domain (<15 min)
8. mixing-distribution ablation ordering (uniform >= each fixed endpoint)
9. Dirichlet partition skew ordering
"""

import time

import numpy as np
import pytest

from feddiv import tensor as T
from feddiv.adapter import (adapter_parameters, adapter_train_step, learned_alphas,
                            make_adapters, reparam_alpha_train)
from feddiv.config import BenchmarkConfig, load_config
from feddiv.diversify import LossWeights, SamplingDistribution, local_loss, sample_mix_context
from feddiv.domains import Dataset, generate_base, partition
from feddiv.federation import (SGD, aggregate, aggregated_keys, extract_bundle,
                               load_bundle)
from feddiv.harness import run_seed
from feddiv.layers import BNMode, DualBNLayer, SmallConvNet, instance_stats
from feddiv.tensor import Tensor

from helpers import inference_logits, numeric_grad, rel_err

GRAD_TOL = 1e-4
EQ_TOL = 1e-10
EXACT_TOL = 1e-12


# -- criterion 1: gradient integrity ----------------------------------------

def _check(build_loss, params, h=1e-5):
    """Autodiff vs central differences; returns the worst relative error."""
    loss = build_loss()
    for p in params:
        p.zero_grad()
    loss.backward()
    worst = 0.0
    for p in params:
        num = numeric_grad(lambda _x: float(build_loss().data), p.data, h=h)
        worst = max(worst, rel_err(p.grad, num))
    return worst


class TestCriterion1GradientIntegrity:
    def test_finite_difference_sweep(self):
        start = time.monotonic()
        rng = np.random.default_rng(20240817)
        instances = 0
        worst = 0.0

        # convolutions: random shapes, strides, padding
        for _ in range(20):
            n, c, f = rng.integers(1, 4), rng.integers(1, 4), rng.integers(1, 4)
            hw = int(rng.integers(4, 7))
            stride, pad = int(rng.integers(1, 3)), int(rng.integers(0, 2))
            x = Tensor(rng.standard_normal((n, c, hw, hw)), requires_grad=True)
            w = Tensor(rng.standard_normal((f, c, 3, 3)) * 0.5, requires_grad=True)
            worst = max(worst, _check(
                lambda: _proj_loss_fixed(T.conv2d(x, w, stride=stride, pad=pad), x, w),
                [x, w]))
            instances += 1

        # linear layers
        for _ in range(10):
            a = Tensor(rng.standard_normal((4, 6)), requires_grad=True)
            b = Tensor(rng.standard_normal((6, 3)), requires_grad=True)
            bias = Tensor(rng.standard_normal(3), requires_grad=True)
            worst = max(worst, _check(
                lambda: _proj_loss_fixed(T.add(T.matmul(a, b), bias), a, b, bias),
                [a, b, bias]))
            instances += 1

        # BN modes on a single layer
        for mode in ("train", "eval", "mixed", "interp"):
            for _ in range(15):
                cch = int(rng.integers(2, 5))
                x = Tensor(rng.standard_normal((3, cch, 4, 4)), requires_grad=True)
                bn = DualBNLayer(cch)
                bn.gamma.data = rng.standard_normal(cch) * 0.5 + 1.0
                bn.beta.data = rng.standard_normal(cch) * 0.2
                bn.set_global_stats(rng.standard_normal(cch) * 0.3,
                                    rng.uniform(0.5, 2.0, cch))
                u = rng.uniform(0.05, 0.95, cch)
                alpha_raw = rng.uniform(0.1, 0.9, (3, 1))
                if mode == "train":
                    fwd = lambda: bn.forward_train(x)
                elif mode == "eval":
                    fwd = lambda: bn.forward_eval_global(x)
                elif mode == "mixed":
                    fwd = lambda: bn.forward_blend(x, Tensor(u.reshape(1, cch, 1, 1)))
                else:
                    alpha = Tensor(alpha_raw, requires_grad=True)
                    fwd = lambda: bn.forward_blend(x, T.reshape(alpha, (3, 1, 1, 1)))
                params = [x, bn.gamma, bn.beta]
                if mode == "interp":
                    params.append(alpha)
                worst = max(worst, _check(
                    lambda: _proj_loss_fixed(fwd(), *params), params))
                instances += 1

        # losses
        for _ in range(10):
            logits = Tensor(rng.standard_normal((5, 4)), requires_grad=True)
            labels = rng.integers(0, 4, size=5)
            worst = max(worst, _check(
                lambda: T.softmax_cross_entropy(logits, labels), [logits]))
            instances += 1
        for _ in range(5):
            a = Tensor(rng.standard_normal((4, 3)), requires_grad=True)
            b = Tensor(rng.standard_normal((4, 3)), requires_grad=True)
            worst = max(worst, _check(lambda: T.mse(a, b), [a, b]))
            instances += 1

        # adapter: MLP + reparameterized alpha through the interpolated path
        for _ in range(10):
            net = SmallConvNet(in_channels=2, widths=(3,), num_classes=3,
                               seed=int(rng.integers(0, 10_000)))
            bn = net.bn_layers()[0]
            bn.set_global_stats(rng.standard_normal(3) * 0.2, rng.uniform(0.5, 1.5, 3))
            adapters = make_adapters(net, hidden_dim=4, seed=int(rng.integers(0, 10_000)))
            adapters[0].fc2.weight.data = adapters[0].fc2.weight.data * 0.01
            adapters[0].fc2.bias.data = np.array([0.05, 0.5])
            x = Tensor(rng.standard_normal((3, 2, 6, 6)))
            labels = rng.integers(0, 3, size=3)
            z = rng.standard_normal((3, 1))
            ad_params = list(adapter_parameters(adapters).values())

            def build():
                def provider(layer_idx, h):
                    mu_i, sig_i = instance_stats(h.data, bn.eps)
                    d, e = adapters[layer_idx].forward(
                        mu_i, sig_i, bn.global_mean, np.sqrt(bn.global_var + bn.eps))
                    return T.clamp(T.add(T.mul(Tensor(z), d), e), 0.0, 1.0)
                _, logits = net.forward(x, BNMode.INTERPOLATED_ADAPTER, provider)
                return T.softmax_cross_entropy(logits, labels)

            worst = max(worst, _check(build, ad_params, h=1e-6))
            instances += 1

        # full composite objective through a small net
        for _ in range(5):
            net = SmallConvNet(in_channels=2, widths=(3, 4), num_classes=3,
                               seed=int(rng.integers(0, 10_000)))
            for bn in net.bn_layers():
                bn.set_global_stats(rng.standard_normal(bn.channels) * 0.2,
                                    rng.uniform(0.5, 1.5, bn.channels))
            x = Tensor(rng.standard_normal((3, 2, 8, 8)) * 0.5)
            labels = rng.integers(0, 3, size=3)
            ctx = [rng.uniform(0, 1, bn.channels) for bn in net.bn_layers()]
            weights = LossWeights(0.1, 4.0)
            params = [net.blocks[0][0].weight, net.blocks[1][1].gamma,
                      net.classifier.weight]
            worst = max(worst, _check(
                lambda: local_loss(net, x, labels, ctx, weights)[0], params))
            instances += 1

        elapsed = time.monotonic() - start
        assert instances >= 100, instances
        assert worst < GRAD_TOL, f"worst relative error {worst:.3e} over {instances} instances"
        assert elapsed < 120, f"gradient sweep took {elapsed:.1f}s"


def _proj_loss_fixed(out: Tensor, *seed_tensors) -> Tensor:
    """Deterministic projection: weights derived from fixed hashing of shapes.

    The projection must be identical across repeated calls of the same
    build_loss closure (finite differences re-evaluate it), so it is keyed
    only on the output shape.
    """
    rng = np.random.default_rng(abs(hash(out.shape)) % (2**32))
    w = Tensor(rng.standard_normal(out.shape))
    return T.tsum(T.mul(out, w))


# -- criterion 2: endpoint equivalences --------------------------------------

class TestCriterion2Endpoints:
    def setup_method(self):
        rng = np.random.default_rng(11)
        self.c = 4
        self.bn = DualBNLayer(self.c)
        self.bn.gamma.data = rng.uniform(0.5, 1.5, self.c)
        self.bn.beta.data = rng.standard_normal(self.c) * 0.3
        self.bn.set_global_stats(rng.standard_normal(self.c) * 0.5,
                                 rng.uniform(0.5, 2.0, self.c))
        self.x = Tensor(rng.standard_normal((5, self.c, 6, 6)))

    def _instance_norm_oracle(self):
        mu, sigma = instance_stats(self.x.data, self.bn.eps)
        xhat = (self.x.data - mu[:, :, None, None]) / sigma[:, :, None, None]
        return xhat * self.bn.gamma.data.reshape(1, -1, 1, 1) \
            + self.bn.beta.data.reshape(1, -1, 1, 1)

    def test_mixed_u0_equals_eval_global(self):
        got = self.bn.forward_blend(self.x, Tensor(np.zeros((1, self.c, 1, 1)))).data
        want = self.bn.forward_eval_global(self.x).data
        assert np.abs(got - want).max() < EQ_TOL

    def test_mixed_u1_equals_instance_norm(self):
        got = self.bn.forward_blend(self.x, Tensor(np.ones((1, self.c, 1, 1)))).data
        assert np.abs(got - self._instance_norm_oracle()).max() < EQ_TOL

    def test_interpolated_alpha0_equals_eval_global(self):
        alpha = Tensor(np.zeros((5, 1, 1, 1)))
        got = self.bn.forward_blend(self.x, alpha).data
        want = self.bn.forward_eval_global(self.x).data
        assert np.abs(got - want).max() < EQ_TOL

    def test_interpolated_alpha1_equals_instance_norm(self):
        alpha = Tensor(np.ones((5, 1, 1, 1)))
        got = self.bn.forward_blend(self.x, alpha).data
        assert np.abs(got - self._instance_norm_oracle()).max() < EQ_TOL


# -- criterion 3: aggregation oracle and preservation contracts ---------------

class TestCriterion3Aggregation:
    def test_weighted_average_oracle(self):
        rng = np.random.default_rng(21)
        keys = ["block0.conv.w", "block0.bn.gamma", "classifier.w", "adapter.0.fc1.w"]
        bundles, ns = [], [3, 5, 2]
        for _ in ns:
            bundles.append({k: rng.standard_normal((4, 3)) for k in keys})
        out = aggregate(bundles, ns, "fedavg")
        total = sum(ns)
        for k in keys:
            want = sum((n / total) * b[k] for n, b in zip(ns, bundles))
            assert np.abs(out[k] - want).max() < EXACT_TOL

    def test_silobn_excludes_local_stats(self):
        keys = ["block0.conv.w", "block0.bn.gamma", "block0.bn.beta",
                "block0.bn.local_mean", "block0.bn.local_var", "adapter.0.fc1.w"]
        agg = set(aggregated_keys(keys, "silobn"))
        assert "block0.bn.local_mean" not in agg
        assert "block0.bn.local_var" not in agg
        assert {"block0.conv.w", "block0.bn.gamma", "block0.bn.beta",
                "adapter.0.fc1.w"} <= agg

    def test_fedbn_excludes_stats_and_affine(self):
        keys = ["block0.conv.w", "block0.bn.gamma", "block0.bn.beta",
                "block0.bn.local_mean", "adapter.0.fc1.w"]
        agg = set(aggregated_keys(keys, "fedbn"))
        assert agg == {"block0.conv.w", "adapter.0.fc1.w"}

    def test_preserved_arrays_survive_load(self):
        net = SmallConvNet(in_channels=2, widths=(3,), num_classes=3, seed=5)
        adapters = make_adapters(net, 4, seed=5)
        rng = np.random.default_rng(31)
        net.blocks[0][1].local_mean = rng.standard_normal(3)
        net.blocks[0][1].gamma.data = rng.standard_normal(3)
        before_stats = net.blocks[0][1].local_mean.copy()
        before_gamma = net.blocks[0][1].gamma.data.copy()

        other = SmallConvNet(in_channels=2, widths=(3,), num_classes=3, seed=99)
        incoming = extract_bundle(other, make_adapters(other, 4, seed=99))
        kept = aggregated_keys(list(incoming), "fedbn")
        load_bundle(net, adapters, {k: incoming[k] for k in kept})
        assert np.array_equal(net.blocks[0][1].local_mean, before_stats)
        assert np.array_equal(net.blocks[0][1].gamma.data, before_gamma)
        assert np.array_equal(net.blocks[0][0].weight.data,
                              other.blocks[0][0].weight.data)


# -- criterion 4: loss composition --------------------------------------------

class TestCriterion4LossComposition:
    def test_total_is_weighted_sum_of_components(self):
        rng = np.random.default_rng(41)
        net = SmallConvNet(in_channels=3, widths=(4, 5), num_classes=4, seed=7)
        for bn in net.bn_layers():
            bn.set_global_stats(rng.standard_normal(bn.channels) * 0.2,
                                rng.uniform(0.5, 1.5, bn.channels))
        x = Tensor(rng.uniform(0, 1, (6, 3, 8, 8)))
        labels = rng.integers(0, 4, size=6)
        ctx = [rng.uniform(0, 1, bn.channels) for bn in net.bn_layers()]
        for lam1, lam2 in ((0.1, 4.0), (0.0, 0.0), (1.0, 2.5), (0.3, 0.7)):
            total, comps = local_loss(net, x, labels, ctx, LossWeights(lam1, lam2))
            want = (1 - lam1) * comps["ce"] + lam1 * comps["cacl"] + lam2 * comps["cafl"]
            assert abs(float(total.data) - want) < EXACT_TOL


# -- criterion 5: adapter contracts --------------------------------------------

class TestCriterion5AdapterContracts:
    def _setup(self, seed=51):
        rng = np.random.default_rng(seed)
        net = SmallConvNet(in_channels=3, widths=(4, 6), num_classes=4, seed=seed)
        for bn in net.bn_layers():
            bn.set_global_stats(rng.standard_normal(bn.channels) * 0.3,
                                rng.uniform(0.5, 1.5, bn.channels))
        adapters = make_adapters(net, 8, seed=seed)
        x = Tensor(rng.uniform(0, 1, (5, 3, 8, 8)))
        labels = rng.integers(0, 4, size=5)
        return rng, net, adapters, x, labels

    def test_alpha_always_in_unit_interval(self):
        _, net, adapters, x, _ = self._setup()
        test_alpha = learned_alphas(net, adapters, None)
        a_tests = []

        def recording(i, h):
            alpha = test_alpha(i, h)
            a_tests.append(alpha.data)
            return alpha

        rng = np.random.default_rng(52)
        clamped = set()
        for _ in range(50):
            delta = Tensor(rng.standard_normal((7, 1)) * 100)
            epsilon = Tensor(rng.standard_normal((7, 1)) * 100)
            a_train = reparam_alpha_train(delta, epsilon, rng).alpha.data
            # scaled output layers spread each layer's epsilon far past [0, 1]
            for a in adapters:
                a.fc2.weight.data = rng.standard_normal(a.fc2.weight.shape) * 100
                a.fc2.bias.data = rng.standard_normal(2) * 100
            a_tests.clear()
            net.forward(x, BNMode.INTERPOLATED_ADAPTER, recording)
            assert len(a_tests) == len(net.bn_layers())
            a_test = np.concatenate(a_tests)
            assert a_train.min() >= 0.0 and a_train.max() <= 1.0
            assert a_test.min() >= 0.0 and a_test.max() <= 1.0
            clamped.update(a_test[(a_test == 0.0) | (a_test == 1.0)].tolist())
        assert clamped == {0.0, 1.0}  # the clamp was reached from both sides

    def test_test_time_inference_deterministic(self):
        _, net, adapters, x, _ = self._setup()
        l1 = inference_logits(net, adapters, x.data, "adaptive")
        l2 = inference_logits(net, adapters, x.data, "adaptive")
        assert np.array_equal(l1, l2)

    def test_adapter_step_freezes_main_network(self):
        rng, net, adapters, x, labels = self._setup()
        main_before = {k: p.data.copy() for k, p in net.parameters().items()}
        ad_params = adapter_parameters(adapters)
        opt = SGD(ad_params, lr=0.05)
        adapter_train_step(net, adapters, x, labels, opt, rng)
        for k, p in net.parameters().items():
            assert np.array_equal(p.data, main_before[k]), k
        # and at least one adapter parameter must actually have moved
        before = {k: p.data.copy() for k, p in ad_params.items()}
        adapter_train_step(net, adapters, x, labels, opt, rng)
        moved = any(not np.array_equal(ad_params[k].data, before[k]) for k in ad_params)
        assert moved

    def test_main_step_freezes_adapters(self):
        rng, net, adapters, x, labels = self._setup()
        ad_before = {k: p.data.copy() for k, p in adapter_parameters(adapters).items()}
        ctx = sample_mix_context(net, SamplingDistribution("uniform", 0.0, 1.0, 0.5), rng)
        opt = SGD(net.parameters(), lr=0.05)
        total, _ = local_loss(net, x, labels, ctx, LossWeights(0.1, 4.0))
        opt.zero_grad()
        total.backward()
        opt.step()
        for k, p in adapter_parameters(adapters).items():
            assert np.array_equal(p.data, ad_before[k]), k


# -- criterion 6: full-run determinism ----------------------------------------

class TestCriterion6Determinism:
    def test_identical_runs_regardless_of_scheduling(self):
        overrides = [
            "benchmark.samples_per_client=80", "benchmark.test_samples=40",
            "benchmark.classes=3", "model.widths=[4,6]",
            "federation.rounds=2", "federation.iterations=6",
            "federation.val_every=3", "federation.batch_size=8",
            "diversify.enabled=true", "adapter.enabled=true",
            "adapter.hidden_dim=8",
        ]
        # three repeats of one config must replay bit for bit
        results = [run_seed(load_config(None, overrides), 3) for _ in range(3)]
        base = results[0]
        for other in results[1:]:
            assert other["ledger"] == base["ledger"]
            assert other["accuracies"] == base["accuracies"]
            for k in base["bundle"]:
                assert np.array_equal(other["bundle"][k], base["bundle"][k]), k


# -- criteria 7 + 8: directional benchmark and ablation ordering ---------------

BENCH_OVERRIDES = [
    "federation.rounds=10", "federation.iterations=100",
    "federation.batch_size=16", "federation.lr=0.05",
    "model.widths=[8,16,32]",
    "benchmark.samples_per_client=600",
]
SEEDS = (0, 1, 2, 3, 4)

VARIANTS = {
    "fedavg": ["diversify.enabled=false", "adapter.enabled=false"],
    "fedfd": ["diversify.enabled=true", "adapter.enabled=false"],
    "fedfd_a": ["diversify.enabled=true", "adapter.enabled=true"],
}

# The mixing-distribution ablation compares u~U(0,1) against the fixed
# endpoints on the same benchmark.  The u=0 endpoint normalizes purely by
# round-stale global statistics and is unstable at the aggressive learning
# rate used above, so the three-way comparison runs at a gentler common rate.
ABLATION_OVERRIDES = [o for o in BENCH_OVERRIDES if not o.startswith("federation.lr")]
ABLATION_OVERRIDES += ["federation.lr=0.005", "diversify.enabled=true",
                       "adapter.enabled=false"]
ABLATION_VARIANTS = {
    "uniform": [],
    "u0": ["diversify.distribution=fixed", "diversify.value=0.0"],
    "u1": ["diversify.distribution=fixed", "diversify.value=1.0"],
}


@pytest.fixture(scope="module")
def benchmark_matrix():
    """The three core strategies over five seeds, timed as a trio."""
    acc = {name: {} for name in VARIANTS}
    timed_elapsed = 0.0
    for name, ov in VARIANTS.items():
        cfg = load_config(None, BENCH_OVERRIDES + ov)
        start = time.monotonic()
        for seed in SEEDS:
            res = run_seed(cfg, seed)
            mode = "adaptive" if name == "fedfd_a" else "eval_global"
            acc[name][seed] = res["accuracies"][mode]
        timed_elapsed += time.monotonic() - start
    return acc, timed_elapsed


@pytest.fixture(scope="module")
def ablation_matrix():
    """Mixing-coefficient ablation: u~U(0,1) versus fixed endpoints."""
    acc = {name: {} for name in ABLATION_VARIANTS}
    for name, ov in ABLATION_VARIANTS.items():
        cfg = load_config(None, ABLATION_OVERRIDES + ov)
        for seed in SEEDS:
            res = run_seed(cfg, seed)
            acc[name][seed] = res["accuracies"]["eval_global"]
    return acc


class TestCriterion7DirectionalBenchmark:
    @pytest.mark.slow
    def test_orderings_and_band(self, benchmark_matrix):
        acc, elapsed = benchmark_matrix
        fedavg = np.mean([acc["fedavg"][s] for s in SEEDS])
        fedfd = np.mean([acc["fedfd"][s] for s in SEEDS])
        assert 0.55 <= fedavg <= 0.80, f"FedAvg mean {fedavg:.3f} outside 55-80% band"
        assert fedfd >= fedavg + 0.02, f"FedFD {fedfd:.3f} < FedAvg {fedavg:.3f} + 2pts"
        wins = sum(acc["fedfd_a"][s] >= acc["fedfd"][s] for s in SEEDS)
        assert wins >= 4, f"FedFD-A >= FedFD in only {wins}/5 seeds"

    @pytest.mark.slow
    def test_runtime_budget(self, benchmark_matrix):
        _, elapsed = benchmark_matrix
        assert elapsed < 900, f"core trio took {elapsed:.0f}s (> 15 min)"


class TestCriterion8AblationOrdering:
    @pytest.mark.slow
    def test_uniform_beats_fixed_endpoints(self, ablation_matrix):
        acc = ablation_matrix
        uni = np.mean([acc["uniform"][s] for s in SEEDS])
        u0 = np.mean([acc["u0"][s] for s in SEEDS])
        u1 = np.mean([acc["u1"][s] for s in SEEDS])
        assert uni >= u0, f"uniform {uni:.3f} < u=0 {u0:.3f}"
        assert uni >= u1, f"uniform {uni:.3f} < u=1 {u1:.3f}"


# -- criterion 9: Dirichlet partition skew -------------------------------------

class TestCriterion9PartitionSkew:
    @staticmethod
    def _mean_tv(datasets, classes):
        uniform = np.full(classes, 1 / classes)
        tvs = []
        for d in datasets:
            if len(d.labels) == 0:
                tvs.append(0.5 * np.abs(uniform).sum() + 0.5)
                continue
            hist = np.bincount(d.labels, minlength=classes) / len(d.labels)
            tvs.append(0.5 * np.abs(hist - uniform).sum())
        return float(np.mean(tvs))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_alpha_ordering(self, seed):
        classes, n_clients = 5, 10
        base = generate_base(1000, classes, seed=seed)
        tv = {}
        for name, spec in (
            ("d01", BenchmarkConfig(partition="dirichlet", dirichlet_alpha=0.1,
                                    clients_per_domain=n_clients)),
            ("d05", BenchmarkConfig(partition="dirichlet", dirichlet_alpha=0.5,
                                    clients_per_domain=n_clients)),
            ("iid", BenchmarkConfig(partition="iid", dirichlet_alpha=0.5,
                                    clients_per_domain=n_clients)),
        ):
            split = partition(base.labels, spec, seed)
            tv[name] = self._mean_tv([base.subset(idx) for idx in split], classes)
        assert tv["d01"] > tv["d05"] > tv["iid"], tv
