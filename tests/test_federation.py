import copy
import multiprocessing
import os
import signal

import numpy as np
import pytest

import feddiv.tensor as T
from feddiv import federation
from feddiv.adapter import make_adapters
from feddiv.config import AdapterConfig, Config, DiversifyConfig, FederationConfig
from feddiv.diversify import LossWeights
from feddiv.domains import Dataset, DomainSpec, apply_domain, generate_base
from feddiv.errors import ConfigError, FeddivError, InputError, ProtocolError
from feddiv.federation import (ClientState, ServerState, aggregate, aggregated_keys,
                               bundle_layer_stats, evaluate_net, extract_bundle, load_bundle,
                               local_update, run_federation, synthesize_global_stats)
from feddiv.layers import BNMode, SmallConvNet
from feddiv.tensor import Tensor

MODEL = {"in_channels": 3, "widths": (4,), "num_classes": 3}


def tiny_dataset(n=24, seed=0, domain=None):
    ds = generate_base(n, classes=3, size=8, seed=seed)
    if domain is not None:
        ds = apply_domain(ds, domain)
    return ds


def tiny_client(cid, seed=0, n=24):
    net = SmallConvNet(seed=seed, **MODEL)
    adapters = make_adapters(net, 8, seed=seed)
    train = tiny_dataset(n, seed=seed * 17 + cid)
    val = tiny_dataset(9, seed=seed * 17 + cid + 100)
    return ClientState(cid, train, val, net, adapters, seed)


def random_bundle(seed):
    net = SmallConvNet(seed=seed, **MODEL)
    adapters = make_adapters(net, 8, seed=seed)
    rng = np.random.default_rng(seed + 1000)
    bundle = extract_bundle(net, adapters)
    return {k: rng.uniform(-1, 1, v.shape) for k, v in bundle.items()}


class TestAggregate:
    def test_single_client_identity(self):
        b = random_bundle(0)
        out = aggregate([b], [10], "fedavg")
        for k in b:
            assert np.array_equal(out[k], b[k])

    def test_two_client_weighted_mean(self):
        b0 = {k: np.zeros_like(v) for k, v in random_bundle(1).items()}
        b1 = {k: np.full_like(v, 4.0) for k, v in b0.items()}
        out = aggregate([b0, b1], [1, 3], "fedavg")
        for k in out:
            assert np.allclose(out[k], 3.0)

    def test_matches_weighted_sum_oracle(self):
        bundles = [random_bundle(s) for s in range(3)]
        n_list = [10, 25, 65]
        out = aggregate(bundles, n_list, "fedavg")
        n = sum(n_list)
        for k in out:
            want = sum((nk / n) * b[k] for nk, b in zip(n_list, bundles))
            assert np.abs(out[k] - want).max() < 1e-12

    def test_permutation_invariance(self):
        bundles = [random_bundle(s) for s in range(3)]
        n_list = [10, 25, 65]
        a = aggregate(bundles, n_list, "fedavg")
        b = aggregate(bundles[::-1], n_list[::-1], "fedavg")
        for k in a:
            assert np.allclose(a[k], b[k], atol=1e-12)

    def test_linearity(self):
        bundles = [random_bundle(s) for s in range(2)]
        scaled = [{k: 2.5 * v for k, v in b.items()} for b in bundles]
        a = aggregate(bundles, [3, 7], "fedavg")
        b = aggregate(scaled, [3, 7], "fedavg")
        for k in a:
            assert np.allclose(b[k], 2.5 * a[k], atol=1e-12)

    def test_empty_participants_rejected(self):
        with pytest.raises(ProtocolError):
            aggregate([], [], "fedavg")

    def test_shape_mismatch_rejected(self):
        b0, b1 = random_bundle(0), random_bundle(1)
        b1["classifier.b"] = np.zeros(7)
        with pytest.raises(ProtocolError):
            aggregate([b0, b1], [1, 1], "fedavg")

    def test_strategy_key_selection(self):
        keys = list(random_bundle(0).keys())
        fedavg = set(aggregated_keys(keys, "fedavg"))
        silobn = set(aggregated_keys(keys, "silobn"))
        fedbn = set(aggregated_keys(keys, "fedbn"))
        assert fedavg == set(keys)
        assert fedavg - silobn == {"block0.bn.local_mean", "block0.bn.local_var"}
        assert fedavg - fedbn == {"block0.bn.local_mean", "block0.bn.local_var",
                                  "block0.bn.gamma", "block0.bn.beta"}
        # adapters always aggregate
        assert all(k in fedbn for k in keys if k.startswith("adapter."))


class TestLoadBundle:
    @pytest.mark.parametrize("key,shape", [("block0.bn.local_mean", (7,)),
                                           ("block1.bn.local_var", (2, 2))])
    def test_bn_statistics_of_the_wrong_shape_rejected(self, key, shape):
        net = SmallConvNet(3, (4, 4), 3, seed=0)
        with pytest.raises(ProtocolError, match=f"shape mismatch for {key}"):
            load_bundle(net, None, {key: np.ones(shape)})

    def test_parameter_of_the_wrong_shape_rejected(self):
        net = SmallConvNet(seed=0, **MODEL)
        with pytest.raises(ProtocolError, match="shape mismatch for classifier.b"):
            load_bundle(net, None, {"classifier.b": np.ones(4)})

    @pytest.mark.parametrize("key", ["block1.bn.local_mean", "adapter.0.fc1.w", "head.w"])
    def test_unknown_key_rejected(self, key):
        net = SmallConvNet(seed=0, **MODEL)
        with pytest.raises(ProtocolError, match="does not exist"):
            load_bundle(net, None, {key: np.ones(4)})


class TestLayerStats:
    @pytest.mark.parametrize("widths", [(4,), (4, 6), (4, 6, 8)])
    def test_layer_count_comes_from_the_bundle(self, widths):
        net = SmallConvNet(3, widths, 3, seed=2)
        rng = np.random.default_rng(2)
        for bn in net.bn_layers():
            bn.local_mean = rng.uniform(-1, 1, bn.channels)
            bn.local_var = rng.uniform(0.5, 2, bn.channels)
        bundle = extract_bundle(net, make_adapters(net, 8, seed=2))
        want = [(bn.local_mean, bn.local_var) for bn in net.bn_layers()]
        # key order does not set the layer order
        for stats in (bundle_layer_stats(bundle),
                      bundle_layer_stats(dict(reversed(bundle.items()))),
                      ServerState(bundle, seed=0).global_stats):
            assert len(stats) == len(widths)
            for (m, v), (m0, v0) in zip(stats, want, strict=True):
                assert m.tobytes() == m0.tobytes() and v.tobytes() == v0.tobytes()


class TestSynthesizeGlobalStats:
    def test_identical_clients(self):
        rng = np.random.default_rng(0)
        stats = [(rng.uniform(-1, 1, 4), rng.uniform(0.5, 2, 4))]
        out = synthesize_global_stats([stats, stats], [5, 5], "total_variance")
        assert np.allclose(out[0][0], stats[0][0], atol=1e-12)
        assert np.allclose(out[0][1], stats[0][1], atol=1e-12)

    def test_total_variance_arithmetic(self):
        s0 = [(np.array([0.0]), np.array([0.0]))]
        s1 = [(np.array([2.0]), np.array([0.0]))]
        out = synthesize_global_stats([s0, s1], [1, 1], "total_variance")
        assert np.allclose(out[0][0], [1.0])
        assert np.allclose(out[0][1], [1.0])

    def test_matches_pooled_raw_moment_oracle(self):
        rng = np.random.default_rng(1)
        pools = [rng.normal(loc=rng.uniform(-1, 1), scale=rng.uniform(0.5, 2),
                            size=(rng.integers(50, 150), 3)) for _ in range(3)]
        stats = [[(p.mean(axis=0), p.var(axis=0))] for p in pools]
        n_list = [len(p) for p in pools]
        out = synthesize_global_stats(stats, n_list, "total_variance")
        union = np.concatenate(pools)
        assert np.abs(out[0][0] - union.mean(axis=0)).max() < 1e-6
        assert np.abs(out[0][1] - union.var(axis=0)).max() < 1e-6

    def test_mean_method(self):
        s0 = [(np.array([0.0]), np.array([2.0]))]
        s1 = [(np.array([4.0]), np.array([4.0]))]
        out = synthesize_global_stats([s0, s1], [1, 3], "mean")
        assert np.allclose(out[0][1], [3.5])

    def test_weights_sum_to_one(self):
        n_list = [7, 13, 29, 51]
        weights = np.array(n_list) / sum(n_list)
        assert abs(weights.sum() - 1.0) < 1e-12


def default_cfg(iterations=4, rounds=1, participants_per_round=None, diversify=True,
                warmup_rounds=0, val_every=2, **federation):
    """The config tree at these shapes; the other keywords set federation keys."""
    fed = dict(strategy="fedavg", lr=0.01, momentum=0.5, batch_size=8, prox_mu=0.1,
               stat_aggregation="total_variance")
    fed.update(federation)
    return Config(
        federation=FederationConfig(rounds=rounds, iterations=iterations, val_every=val_every,
                                    participants_per_round=participants_per_round, **fed),
        loss=LossWeights(0.1, 4.0),
        diversify=DiversifyConfig(enabled=diversify, distribution="uniform", low=0.0,
                                  high=1.0, value=0.5, stop_gradient_features=False),
        adapter=AdapterConfig(warmup_rounds=warmup_rounds, lr=0.005))


def initial_stats():
    return [(np.zeros(4), np.ones(4))]


def count_forks(monkeypatch):
    """The list that gets one entry per adapter worker process forked."""
    forked = []
    fork = federation.AdapterWorker._fork
    monkeypatch.setattr(federation.AdapterWorker, "_fork",
                        lambda worker: forked.append(fork(worker)))
    return forked


class TestLocalUpdate:
    def test_zero_iterations_returns_loaded_bundle(self):
        # No validation runs, so the upload is the snapshot taken after the
        # loop: every server array, bit for bit, as a copy.
        for strategy in ("fedavg", "fedbn"):
            for round_idx in (0, 1):
                client = tiny_client(0, seed=1)
                server_bundle = random_bundle(5)
                cfg = default_cfg(0, strategy=strategy)
                out, _ = local_update(client, server_bundle, initial_stats(), cfg.federation,
                                      cfg, round_idx)
                assert set(out) == set(server_bundle)
                for k in server_bundle:
                    assert out[k].tobytes() == server_bundle[k].tobytes(), (strategy, k)
                    assert out[k] is not server_bundle[k], k

    @pytest.mark.parametrize("iterations,val_every,accuracies,snapshots", [
        (4, 4, [0.5], 1),
        (6, 2, [0.1, 0.2, 0.3], 3),
        (6, 2, [0.5, 0.5, 0.4], 1),
    ])
    def test_one_full_snapshot_per_improving_validation(self, monkeypatch, iterations,
                                                        val_every, accuracies, snapshots):
        full = []
        scores = iter(accuracies)

        def extract(net, adapters, keys=None):
            full.append(keys is None)
            return extract_bundle(net, adapters, keys)

        monkeypatch.setattr(federation, "extract_bundle", extract)
        monkeypatch.setattr(federation, "evaluate_net", lambda *a, **kw: next(scores))
        cfg = default_cfg(iterations, val_every=val_every)
        local_update(tiny_client(0, seed=2), random_bundle(6), initial_stats(), cfg.federation,
                     cfg)
        assert next(scores, None) is None  # every accuracy was read
        assert sum(full) == snapshots

    def test_zero_iteration_round_forks_no_worker(self, monkeypatch):
        forked = count_forks(monkeypatch)
        client = tiny_client(0, seed=1)
        state = copy.deepcopy(client.adapter_rng.bit_generator.state)
        cfg = default_cfg(0)
        local_update(client, random_bundle(5), initial_stats(), cfg.federation, cfg)
        assert forked == []
        assert client.adapter_rng.bit_generator.state == state

    def test_adapter_steps_only_with_adapters_past_warmup(self):
        # The steps run in the adapter worker; the RNG state its last sync
        # hands back counts them: each step draws one (N, 1) normal per BN layer.
        cfg = default_cfg(iterations=3, warmup_rounds=1)
        for adapters, round_idx in [(False, 0), (False, 1), (True, 0), (True, 1)]:
            client = tiny_client(0, seed=9)
            if not adapters:
                client.adapters = None
            want = copy.deepcopy(client.adapter_rng)
            if adapters and round_idx >= cfg.adapter.warmup_rounds:
                for _ in range(cfg.federation.iterations * len(client.net.bn_layers())):
                    want.standard_normal(size=(cfg.federation.batch_size, 1))
            bundle = extract_bundle(client.net, client.adapters)
            local_update(client, bundle, initial_stats(), cfg.federation, cfg, round_idx)
            assert client.adapter_rng.bit_generator.state == want.bit_generator.state, \
                (adapters, round_idx)

    @pytest.mark.parametrize("error,raised", [(InputError("bad batch"), InputError),
                                              (ValueError("bad batch"), FeddivError)])
    def test_adapter_step_error_reaches_the_parent(self, monkeypatch, error, raised):
        # Patched before the worker forks, so the worker inherits the patch.
        steps = []

        def third_step_fails(*args):
            steps.append(1)
            if len(steps) == 3:
                raise error

        monkeypatch.setattr(federation.adapter_mod, "adapter_train_step", third_step_fails)
        cfg = default_cfg(4)
        with pytest.raises(raised, match=r"client 3: adapter step at iteration 2 failed: "
                                         r"(ValueError: )?bad batch") as info:
            local_update(tiny_client(3, seed=2), random_bundle(6), initial_stats(),
                         cfg.federation, cfg)
        assert type(info.value) is raised
        assert not multiprocessing.active_children()

    def test_killed_worker_is_an_error(self, monkeypatch):
        def killed(*args):
            os.kill(os.getpid(), signal.SIGKILL)

        monkeypatch.setattr(federation.adapter_mod, "adapter_train_step", killed)
        cfg = default_cfg(4)
        with pytest.raises(FeddivError, match=r"client 0: adapter worker at iteration \d: "
                                              r"the worker process exited \(exit code -9\)"):
            local_update(tiny_client(0, seed=2), random_bundle(6), initial_stats(),
                         cfg.federation, cfg)
        assert not multiprocessing.active_children()

    def test_parent_error_closes_the_worker(self, monkeypatch):
        # The second validation of the run's first update raises.
        calls = []

        def evaluate(*args, **kwargs):
            calls.append(1)
            if len(calls) == 2:
                raise InputError("validation failed")
            return 0.5

        monkeypatch.setattr(federation, "evaluate_net", evaluate)
        clients, server, cfg, _, _ = build_federation(seed=1)
        with pytest.raises(InputError, match="validation failed"):
            run_federation(clients, server, cfg)
        assert not multiprocessing.active_children()
        assert all(c.adapter_worker is None for c in clients)

    def test_fedprox_mu_zero_matches_fedavg(self):
        outs = []
        for strategy, mu in [("fedavg", 0.1), ("fedprox", 0.0)]:
            client = tiny_client(0, seed=2)
            cfg = default_cfg(4, strategy=strategy, prox_mu=mu)
            out, _ = local_update(client, random_bundle(6), initial_stats(), cfg.federation, cfg)
            outs.append(out)
        for k in outs[0]:
            assert np.array_equal(outs[0][k], outs[1][k]), k

    def test_fedprox_penalty_changes_trajectory(self):
        outs = []
        for strategy in ["fedavg", "fedprox"]:
            client = tiny_client(0, seed=3)
            cfg = default_cfg(4, strategy=strategy, prox_mu=0.5)
            out, _ = local_update(client, random_bundle(7), initial_stats(), cfg.federation, cfg)
            outs.append(out)
        assert any(not np.array_equal(outs[0][k], outs[1][k]) for k in outs[0])

    def test_bitwise_deterministic_replay(self):
        results = []
        for _ in range(2):
            client = tiny_client(0, seed=4)
            cfg = default_cfg(6)
            out, metrics = local_update(client, random_bundle(8), initial_stats(),
                                        cfg.federation, cfg)
            results.append((out, metrics))
        for k in results[0][0]:
            assert np.array_equal(results[0][0][k], results[1][0][k]), k
        assert results[0][1] == results[1][1]

    def test_silobn_preserves_local_statistics(self):
        client = tiny_client(0, seed=5)
        client.net.blocks[0][1].local_mean = np.full(4, 3.14)
        server_bundle = random_bundle(9)
        cfg = default_cfg(strategy="silobn", diversify=False)
        keys = aggregated_keys(server_bundle.keys(), "silobn")
        load_bundle(client.net, client.adapters, {k: server_bundle[k] for k in keys})
        assert np.array_equal(client.net.blocks[0][1].local_mean, np.full(4, 3.14))
        # but affine was overwritten
        assert np.array_equal(client.net.blocks[0][1].gamma.data,
                              server_bundle["block0.bn.gamma"])

    @pytest.mark.parametrize("strategy,local", [
        ("fedavg", set()),
        ("fedprox", set()),
        ("silobn", {"block0.bn.local_mean", "block0.bn.local_var"}),
        ("fedbn", {"block0.bn.local_mean", "block0.bn.local_var",
                   "block0.bn.gamma", "block0.bn.beta"}),
    ])
    def test_keeps_the_arrays_the_strategy_leaves_local(self, strategy, local):
        client = tiny_client(0, seed=7)
        assert client.local == {}
        cfg = default_cfg(4, strategy=strategy)
        local_update(client, random_bundle(11), initial_stats(), cfg.federation, cfg)
        assert set(client.local) == local
        # as the round left them, not as the best snapshot
        arrays = extract_bundle(client.net, client.adapters)
        for k in local:
            assert client.local[k].tobytes() == arrays[k].tobytes(), k

    @pytest.mark.parametrize("strategy", ["silobn", "fedbn"])
    def test_next_round_starts_from_the_local_arrays(self, strategy):
        # Another client trains the shared network in between; this client's
        # next round still starts from its own local arrays.
        a, b = tiny_client(0, seed=8), tiny_client(1, seed=8)
        b.net, b.adapters = a.net, a.adapters
        cfg, no_iterations = default_cfg(4, strategy=strategy), default_cfg(0, strategy=strategy)
        server_bundle = random_bundle(12)
        for c in (a, b):
            local_update(c, server_bundle, initial_stats(), cfg.federation, cfg)
        kept = dict(a.local)
        start, _ = local_update(a, server_bundle, initial_stats(), no_iterations.federation,
                                no_iterations, 1)
        assert kept
        for k in server_bundle:
            assert start[k].tobytes() == kept.get(k, server_bundle[k]).tobytes(), k

    def test_fedbn_preserves_stats_and_affine(self):
        client = tiny_client(0, seed=6)
        client.net.blocks[0][1].gamma.data = np.full(4, 2.71)
        client.net.blocks[0][1].local_var = np.full(4, 1.61)
        server_bundle = random_bundle(10)
        keys = aggregated_keys(server_bundle.keys(), "fedbn")
        load_bundle(client.net, client.adapters, {k: server_bundle[k] for k in keys})
        assert np.array_equal(client.net.blocks[0][1].gamma.data, np.full(4, 2.71))
        assert np.array_equal(client.net.blocks[0][1].local_var, np.full(4, 1.61))
        assert np.array_equal(client.net.classifier.weight.data, server_bundle["classifier.w"])


def reference_warm_start(net, train_data):
    """Round 0's global statistics as a hand-written block loop."""
    warm = Tensor(train_data.images[: min(64, len(train_data.labels))])
    with T.no_grad():
        h = warm
        for conv, bn in net.blocks:
            h = conv(h)
            mu = h.data.mean(axis=(0, 2, 3))
            var = h.data.var(axis=(0, 2, 3))
            bn.set_global_stats(mu, var)
            h = T.relu(bn.forward_eval_global(h))
    return [(bn.global_mean, bn.global_var) for bn in net.bn_layers()]


class TestWarmStart:
    @pytest.mark.parametrize("widths", [(4,), (4, 6), (3, 4, 5)])
    @pytest.mark.parametrize("n", [24, 90])  # fewer and more than the 64 warm images
    def test_matches_block_loop(self, widths, n):
        net = SmallConvNet(in_channels=3, widths=widths, num_classes=3, seed=3)
        rng = np.random.default_rng(n + len(widths))
        bundle = {k: rng.uniform(-1, 1, v.shape) for k, v in extract_bundle(net, None).items()}
        client = ClientState(0, tiny_dataset(n, seed=4), tiny_dataset(9, seed=5), net, None, 0)
        stale = [(np.full(w, 9.0), np.full(w, 9.0)) for w in widths]
        cfg = default_cfg(0, diversify=False)
        local_update(client, bundle, stale, cfg.federation, cfg, round_idx=0)
        got = [(bn.global_mean, bn.global_var) for bn in net.bn_layers()]

        ref_net = SmallConvNet(in_channels=3, widths=widths, num_classes=3, seed=11)
        load_bundle(ref_net, None, bundle)
        want = reference_warm_start(ref_net, client.train_data)
        for (mu, var), (mu_ref, var_ref) in zip(got, want, strict=True):
            assert mu.tobytes() == mu_ref.tobytes()
            assert var.tobytes() == var_ref.tobytes()


class TestEvaluate:
    def test_constant_logits_hit_chance_level(self):
        net = SmallConvNet(seed=0, **MODEL)
        for bn in net.bn_layers():
            bn.set_global_stats(np.zeros(bn.channels), np.ones(bn.channels))
        net.classifier.weight.data = np.zeros_like(net.classifier.weight.data)
        net.classifier.bias.data = np.zeros(3)
        ds = tiny_dataset(n=300, seed=20)
        acc = evaluate_net(net, None, ds, "eval_global")
        assert abs(acc - 1 / 3) < 0.02  # argmax ties resolve to class 0

    def test_matches_manual_count(self, monkeypatch):
        monkeypatch.setattr(federation, "EVAL_CHUNK", 7)
        net = SmallConvNet(seed=1, **MODEL)
        for bn in net.bn_layers():
            bn.set_global_stats(np.zeros(bn.channels), np.ones(bn.channels))
        ds = tiny_dataset(n=30, seed=21)
        acc = evaluate_net(net, None, ds, "eval_global")
        _, logits = net.forward(Tensor(ds.images), BNMode.EVAL_GLOBAL)
        want = (logits.data.argmax(axis=1) == ds.labels).sum() / len(ds)
        assert acc == pytest.approx(want)

    def test_fixed_alpha_needs_a_value(self):
        net = SmallConvNet(seed=0, **MODEL)
        net.set_global_stats(initial_stats())
        with pytest.raises(ConfigError, match="fixed alpha mode needs a value"):
            evaluate_net(net, None, tiny_dataset(n=6), "fixed_alpha")

    @pytest.mark.parametrize("mode,kwargs,error,match", [
        ("learned", {}, InputError, "unknown inference mode"),
        ("adaptive", {}, ConfigError, "adaptive inference needs adapters"),
        ("fixed_alpha", {"rng": np.random.default_rng(0)}, ConfigError, "needs a value"),
        ("random_alpha", {"fixed_value": 0.5}, ConfigError, "needs an RNG"),
    ])
    def test_bad_arguments_fail_before_the_first_chunk(self, mode, kwargs, error, match,
                                                        monkeypatch):
        net = SmallConvNet(seed=0, **MODEL)
        net.set_global_stats(initial_stats())
        calls = []
        monkeypatch.setattr(net, "forward", lambda *args: calls.append(args))
        with pytest.raises(error, match=match):
            evaluate_net(net, None, tiny_dataset(n=6), mode, **kwargs)
        assert calls == []

    def test_empty_dataset_rejected(self):
        net = SmallConvNet(seed=0, **MODEL)
        empty = Dataset(np.zeros((0, 3, 8, 8)), np.zeros(0, dtype=np.int64))
        with pytest.raises(InputError):
            evaluate_net(net, None, empty, "eval_global")

    @pytest.mark.parametrize("mode", ["eval_global", "adaptive", "fixed_alpha",
                                      "random_alpha"])
    def test_chunk_size_changes_nothing(self, mode, monkeypatch):
        # two BN layers, so the random baseline's per-layer draws are covered
        net = SmallConvNet(in_channels=3, widths=(4, 6), num_classes=3, seed=2)
        rng = np.random.default_rng(23)
        for bn in net.bn_layers():
            bn.set_global_stats(rng.uniform(-0.5, 0.5, bn.channels),
                                rng.uniform(0.5, 2.0, bn.channels))
        adapters = make_adapters(net, 8, seed=2)
        ds = tiny_dataset(n=150, seed=24)

        forward = net.forward
        runs = []
        for chunk in (7, 64, len(ds.labels)):
            logits, alphas = [], {}

            def recording(x, bn_mode, ctx=None, logits=logits, alphas=alphas):
                provider = ctx
                if callable(ctx):
                    def provider(i, h):
                        alpha = ctx(i, h)
                        alphas.setdefault(i, []).append(alpha.data.copy())
                        return alpha
                features, out = forward(x, bn_mode, provider)
                logits.append(out.data)
                return features, out

            monkeypatch.setattr(federation, "EVAL_CHUNK", chunk)
            monkeypatch.setattr(net, "forward", recording)
            acc = evaluate_net(net, adapters, ds, mode, fixed_value=0.5,
                               rng=np.random.default_rng(5))
            assert len(logits) == -(-len(ds.labels) // chunk)  # one forward per chunk
            runs.append((acc, np.concatenate(logits),
                         {i: np.concatenate(a) for i, a in alphas.items()}))

        acc0, logits0, alphas0 = runs[0]
        assert len(logits0) == len(ds.labels)
        if mode != "eval_global":
            assert sorted(alphas0) == [0, 1]
        for acc, logits, alphas in runs[1:]:
            assert acc == acc0
            np.testing.assert_allclose(logits, logits0, rtol=0, atol=1e-12)
            assert alphas.keys() == alphas0.keys()
            for i in alphas:
                if mode == "adaptive":  # the adapter's matmuls may block by batch
                    np.testing.assert_allclose(alphas[i], alphas0[i], rtol=0, atol=1e-12)
                else:
                    assert alphas[i].tobytes() == alphas0[i].tobytes()


def build_federation(seed=0, n_clients=3, rounds=2, iterations=4):
    """Clients on one shared network and adapter set, as ``run_federation`` needs."""
    clients = [tiny_client(i, seed=seed) for i in range(n_clients)]
    net, adapters = clients[0].net, clients[0].adapters
    for c in clients:
        c.net, c.adapters = net, adapters
    server = ServerState(extract_bundle(net, adapters), seed=seed)
    return clients, server, default_cfg(iterations, rounds), net, adapters


class TestRunFederation:
    def test_ledger_reproducible_bitwise(self):
        ledgers = []
        for _ in range(2):
            clients, server, cfg, net, ad = build_federation(seed=1)
            _, _, ledger = run_federation(clients, server, cfg)
            ledgers.append(ledger)
        assert ledgers[0] == ledgers[1]

    def test_identical_datasets_symmetry(self):
        clients = [tiny_client(0, seed=3) for _ in range(2)]
        template = SmallConvNet(seed=3, **MODEL)
        ad = make_adapters(template, 8, seed=3)
        for i, c in enumerate(clients):
            c.client_id, c.net, c.adapters = i, template, ad
        server = ServerState(extract_bundle(template, ad), seed=3)
        _, _, ledger = run_federation(clients, server, default_cfg())
        accs = [r["accuracy"] for r in ledger if r["split"] == "server_val"]
        assert accs[0] == accs[1]

    def test_best_round_snapshot_matches_ledger_argmax(self):
        clients, server, cfg, net, ad = build_federation(seed=4, rounds=3)
        _, _, ledger = run_federation(clients, server, cfg)
        scores = [float(np.mean([r["accuracy"] for r in ledger if r["round"] == rnd]))
                  for rnd in range(cfg.federation.rounds)]
        assert server.best_round == int(np.argmax(scores))
        assert server.best_score == max(scores)

    def test_zero_rounds_keep_the_starting_arrays(self):
        clients, server, _, net, ad = build_federation(seed=4)
        start = {k: v.copy() for k, v in server.bundle.items()}
        best, stats, ledger = run_federation(clients, server, default_cfg(rounds=0))
        assert ledger == []
        assert server.best_round == -1
        assert list(best) == list(start)
        for k in start:
            assert best[k].tobytes() == start[k].tobytes(), k
        for (m, v), (m0, v0) in zip(stats, bundle_layer_stats(start), strict=True):
            assert m.tobytes() == m0.tobytes() and v.tobytes() == v0.tobytes()

    def test_client_list_order_changes_nothing(self):
        runs = []
        for reverse in (False, True):
            clients, server, _, net, ad = build_federation(seed=6, rounds=3)
            cfg = default_cfg(iterations=2, rounds=3, participants_per_round=2)
            best, _, ledger = run_federation(clients[::-1] if reverse else clients, server,
                                             cfg)
            runs.append((best, ledger, server.best_round))
        (best0, ledger0, round0), (best1, ledger1, round1) = runs
        assert ledger1 == ledger0
        assert round1 == round0
        assert list(best1) == list(best0)
        for k in best0:
            assert best1[k].tobytes() == best0[k].tobytes(), k

    def test_empty_client_list_rejected(self):
        template = SmallConvNet(seed=0, **MODEL)
        server = ServerState(extract_bundle(template, None), seed=0)
        with pytest.raises(ProtocolError):
            run_federation([], server, default_cfg())

    @pytest.mark.parametrize("own", ["net", "adapters", "no adapters"])
    def test_clients_on_other_networks_rejected(self, own):
        # Server validation runs on the network and adapters the clients share.
        clients, server, cfg, _, _ = build_federation(seed=6)
        other = tiny_client(1, seed=6)
        if own == "net":
            clients[1].net = other.net
        else:
            clients[1].adapters = other.adapters if own == "adapters" else None
        with pytest.raises(ProtocolError, match="client 1 does not share client 0's network"):
            run_federation(clients, server, cfg)

    @pytest.mark.parametrize("adapters,warmup,forks", [(True, 0, 1), (True, 1, 1),
                                                       (True, 2, 0), (False, 0, 0)])
    def test_one_adapter_worker_per_run(self, monkeypatch, adapters, warmup, forks):
        # The run's one worker forks at the first update that steps the
        # adapter, and is gone after the run.
        clients, _, _, net, ad = build_federation(seed=2)
        ad = ad if adapters else None
        for c in clients:
            c.adapters = ad
        server = ServerState(extract_bundle(net, ad), seed=2)
        forked = count_forks(monkeypatch)
        run_federation(clients, server, default_cfg(rounds=2, warmup_rounds=warmup))
        assert len(forked) == forks
        assert not multiprocessing.active_children()

    def test_client_sampling_subset(self):
        clients, server, _, net, ad = build_federation(seed=5, rounds=2)
        cfg = default_cfg(iterations=2, rounds=2, participants_per_round=2)
        _, _, ledger = run_federation(clients, server, cfg)
        per_round = {}
        for r in ledger:
            per_round.setdefault(r["round"], set()).add(r["client_id"])
        assert all(len(v) == 2 for v in per_round.values())


class TestBatching:
    def test_wraps_deterministically(self):
        a = tiny_client(0, seed=7, n=10)
        b = tiny_client(0, seed=7, n=10)
        for _ in range(5):
            xa, ya = a.next_batch(8)
            xb, yb = b.next_batch(8)
            assert np.array_equal(xa, xb)
            assert np.array_equal(ya, yb)

    def test_covers_epoch(self):
        c = tiny_client(0, seed=8, n=12)
        seen = []
        for _ in range(3):
            _, y = c.next_batch(4)
            seen.extend(y.tolist())
        # one full epoch: label multiset matches the dataset
        assert sorted(seen) == sorted(c.train_data.labels.tolist())

    def test_client_without_training_samples_rejected(self):
        # Batching would loop forever on an empty training set.
        net = SmallConvNet(seed=0, **MODEL)
        empty = tiny_dataset(4).subset(np.array([], dtype=np.int64))
        with pytest.raises(InputError, match="client 5"):
            ClientState(5, empty, tiny_dataset(4), net, None, seed=0)
