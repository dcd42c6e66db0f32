"""Federated protocol engine: local training, aggregation, model selection.

Clients train locally and upload their best-validation snapshot; the server
weighted-averages the strategy's share of the arrays, synthesizes global BN
statistics from the uploaded running buffers, and keeps the round whose mean
participant validation accuracy is highest.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from . import adapter as adapter_mod
from . import tensor as T
from .adapter import InstanceAdapter, adapter_parameters
from .diversify import LossWeights, SamplingDistribution, local_loss, sample_mix_context
from .errors import ConfigError, FeddivError, InputError, ProtocolError
from .layers import BNMode, SmallConvNet
from .tensor import Tensor

log = logging.getLogger(__name__)

STRATEGIES = ("fedavg", "fedprox", "fedbn", "silobn")
STAT_AGGREGATIONS = ("total_variance", "mean")


# -- parameter bundles -----------------------------------------------------

def is_bn_stat(key: str) -> bool:
    return ".bn.local_" in key


def is_bn_affine(key: str) -> bool:
    return key.endswith(".bn.gamma") or key.endswith(".bn.beta")


def is_adapter_key(key: str) -> bool:
    return key.startswith("adapter.")


def aggregated_keys(keys, strategy: str) -> list[str]:
    """Which arrays the server averages; the rest stay client-local.

    fedavg/fedprox average everything including BN running statistics;
    silobn keeps BN statistics local; fedbn keeps BN statistics and BN
    affine parameters local. Adapter parameters always aggregate.
    """
    if strategy not in STRATEGIES:
        raise ProtocolError(f"unknown strategy {strategy!r}")
    out = []
    for k in keys:
        if is_adapter_key(k):
            out.append(k)
        elif strategy == "silobn" and is_bn_stat(k):
            continue
        elif strategy == "fedbn" and (is_bn_stat(k) or is_bn_affine(k)):
            continue
        else:
            out.append(k)
    return out


def _slots(net: SmallConvNet, adapters: list[InstanceAdapter] | None) -> dict:
    """Every named array of the model as its (owner, attribute name)."""
    slots = {k: (p, "data") for k, p in net.parameters().items()}
    for i, bn in enumerate(net.bn_layers()):
        slots[f"block{i}.bn.local_mean"] = (bn, "local_mean")
        slots[f"block{i}.bn.local_var"] = (bn, "local_var")
    if adapters:
        slots.update((k, (p, "data")) for k, p in adapter_parameters(adapters).items())
    return slots


def extract_bundle(net: SmallConvNet, adapters: list[InstanceAdapter] | None,
                   keys=None) -> dict:
    """Snapshot arrays (parameters, BN stats, adapter weights) by name.

    ``keys`` restricts which; by default every array is copied.
    """
    slots = _slots(net, adapters)
    return {k: getattr(*slots[k]).copy() for k in (slots if keys is None else keys)}


def load_bundle(net: SmallConvNet, adapters: list[InstanceAdapter] | None, bundle: dict):
    """Write bundle arrays into the live objects; each must match its array's shape."""
    slots = _slots(net, adapters)
    for k, a in bundle.items():
        if k not in slots:
            raise ProtocolError(f"bundle key {k!r} does not exist in the model")
        owner, attr = slots[k]
        shape = getattr(owner, attr).shape
        if shape != a.shape:
            raise ProtocolError(f"shape mismatch for {k}: {shape} vs {a.shape}")
        setattr(owner, attr, np.array(a, dtype=np.float64))


def aggregate(bundles: list[dict], n_list: list[int], strategy: str) -> dict:
    """Dataset-size-weighted average of the strategy's aggregated arrays."""
    if not bundles:
        raise ProtocolError("aggregate: empty participant set")
    if len(bundles) != len(n_list):
        raise ProtocolError("aggregate: bundles and sizes disagree in length")
    keys = aggregated_keys(bundles[0].keys(), strategy)
    for b in bundles[1:]:
        if set(b.keys()) != set(bundles[0].keys()):
            raise ProtocolError("aggregate: clients disagree on array names")
    n_total = float(sum(n_list))
    weights = [n / n_total for n in n_list]
    out = {}
    for k in keys:
        shape = bundles[0][k].shape
        acc = np.zeros(shape)
        for w, b in zip(weights, bundles):
            if b[k].shape != shape:
                raise ProtocolError(f"aggregate: shape mismatch for {k}")
            acc += w * b[k]
        out[k] = acc
    return out


def synthesize_global_stats(bn_stats_list: list[list[tuple[np.ndarray, np.ndarray]]],
                            n_list: list[int], method: str
                            ) -> list[tuple[np.ndarray, np.ndarray]]:
    """Pool per-client BN statistics into global (mean, variance) per layer.

    ``total_variance`` pools second moments (law of total variance);
    ``mean`` simply weight-averages the variances (ablation alternative).
    """
    if not bn_stats_list:
        raise ProtocolError("synthesize_global_stats: empty participant set")
    if method not in STAT_AGGREGATIONS:
        raise ProtocolError(f"unknown stat aggregation method {method!r}")
    n_layers = len(bn_stats_list[0])
    if any(len(s) != n_layers for s in bn_stats_list):
        raise ProtocolError("synthesize_global_stats: layer sets disagree")
    n_total = float(sum(n_list))
    weights = [n / n_total for n in n_list]
    out = []
    for layer in range(n_layers):
        mu_g = sum(w * s[layer][0] for w, s in zip(weights, bn_stats_list))
        if method == "total_variance":
            second = sum(w * (s[layer][1] + s[layer][0] ** 2)
                         for w, s in zip(weights, bn_stats_list))
            var_g = second - mu_g ** 2
        else:
            var_g = sum(w * s[layer][1] for w, s in zip(weights, bn_stats_list))
        if np.any(var_g < 0):
            log.warning("negative synthesized variance clamped to 0 (layer %d)", layer)
            var_g = np.maximum(var_g, 0.0)
        out.append((mu_g, var_g))
    return out


def bundle_layer_stats(bundle: dict) -> list[tuple[np.ndarray, np.ndarray]]:
    """Each BN layer's (local_mean, local_var), in block order."""
    n_layers = sum(k.endswith(".bn.local_mean") for k in bundle)
    return [(bundle[f"block{i}.bn.local_mean"], bundle[f"block{i}.bn.local_var"])
            for i in range(n_layers)]


# -- optimizer -------------------------------------------------------------

class SGD:
    """Plain SGD with classical momentum over a named parameter dict."""

    def __init__(self, params: dict[str, Tensor], lr: float, momentum: float = 0.0):
        self.params = params
        self.lr = lr
        self.momentum = momentum
        self.velocity = {k: np.zeros_like(p.data) for k, p in params.items()}

    def zero_grad(self):
        for p in self.params.values():
            p.zero_grad()

    def step(self):
        for k, p in self.params.items():
            if p.grad is None:
                continue
            v = self.momentum * self.velocity[k] + p.grad
            self.velocity[k] = v
            p.data = p.data - self.lr * v


# -- configuration and state -----------------------------------------------

@dataclass
class RoundPlan:
    rounds: int
    iterations: int
    val_every: int
    participants_per_round: int | None  # None = all clients

    def __post_init__(self):
        if self.rounds < 0 or self.iterations < 0:
            raise ConfigError(f"rounds and iterations must be >= 0, "
                              f"got {self.rounds} and {self.iterations}")
        if self.val_every < 1:
            raise ConfigError(f"val_every must be >= 1, got {self.val_every}")
        if self.participants_per_round is not None and self.participants_per_round < 1:
            raise ConfigError(f"participants_per_round must be >= 1 or null, "
                              f"got {self.participants_per_round}")


@dataclass
class TrainConfig:
    strategy: str
    lr: float
    momentum: float
    batch_size: int
    diversify: bool
    distribution: SamplingDistribution
    loss_weights: LossWeights
    adapter_warmup_rounds: int
    adapter_lr: float
    prox_mu: float
    stop_gradient_features: bool
    stat_aggregation: str

    def __post_init__(self):
        if self.strategy not in STRATEGIES:
            raise ConfigError(f"unknown strategy {self.strategy!r}")
        if self.stat_aggregation not in STAT_AGGREGATIONS:
            raise ConfigError(f"unknown stat_aggregation method {self.stat_aggregation!r}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if not self.lr > 0:
            raise ConfigError(f"lr must be positive, got {self.lr}")
        if not self.adapter_lr > 0:
            raise ConfigError(f"adapter_lr must be positive, got {self.adapter_lr}")
        if not self.prox_mu >= 0:
            raise ConfigError(f"prox_mu must be >= 0, got {self.prox_mu}")
        if not 0 <= self.momentum < 1:
            raise ConfigError(f"momentum must be in [0, 1), got {self.momentum}")
        if self.adapter_warmup_rounds < 0:
            raise ConfigError(
                f"adapter_warmup_rounds must be >= 0, got {self.adapter_warmup_rounds}")


class ClientState:
    """One simulated client: its data, its local arrays, and private RNG streams.

    The clients of a run share one network and adapter set (``net``,
    ``adapters``); ``local_update`` loads the server bundle into it with the
    client's ``local`` arrays on top. ``local`` holds what the strategy keeps
    on the client (see ``aggregated_keys``) as the client's last round left
    it, and starts empty: every client starts from the server's initial
    arrays.
    """

    def __init__(self, client_id: int, train_data, val_data, net: SmallConvNet,
                 adapters: list[InstanceAdapter] | None, seed: int):
        self.client_id = client_id
        self.train_data = train_data
        self.val_data = val_data
        self.net = net
        self.adapters = adapters
        self.local: dict[str, np.ndarray] = {}
        self.rng = np.random.default_rng(np.random.SeedSequence([seed, client_id]))
        # Separate stream for adapter training so that enabling the adapter
        # leaves the main net's batch order and mixing draws untouched.
        self.adapter_rng = np.random.default_rng(
            np.random.SeedSequence([seed, client_id, 7331]))
        self.n_samples = len(train_data.labels)
        if self.n_samples == 0:
            raise InputError(f"client {client_id}: no training samples")
        self._order = np.arange(self.n_samples)
        self._cursor = self.n_samples  # force initial shuffle

    def next_batch(self, batch_size: int) -> tuple[np.ndarray, np.ndarray]:
        """Deterministic shuffled batching, wrapping across epochs."""
        idx = []
        while len(idx) < batch_size:
            if self._cursor >= self.n_samples:
                self._order = self.rng.permutation(self.n_samples)
                self._cursor = 0
            take = min(batch_size - len(idx), self.n_samples - self._cursor)
            idx.extend(self._order[self._cursor : self._cursor + take])
            self._cursor += take
        idx = np.asarray(idx)
        return self.train_data.images[idx], self.train_data.labels[idx]


class ServerState:
    """Global bundle, synthesized statistics, best snapshot (round -1: the start)."""

    def __init__(self, bundle: dict, seed: int):
        self.bundle = bundle
        self.global_stats = [(m.copy(), v.copy()) for m, v in bundle_layer_stats(bundle)]
        self.rng = np.random.default_rng(np.random.SeedSequence([seed, 9137]))
        self.keep_best(-1, -np.inf)

    def keep_best(self, round_idx: int, score: float):
        """Snapshot the current bundle and global statistics as the best round."""
        self.best_round = round_idx
        self.best_score = score
        self.best_bundle = {k: v.copy() for k, v in self.bundle.items()}
        self.best_stats = [(m.copy(), v.copy()) for m, v in self.global_stats]


# -- local training ----------------------------------------------------------

def _prox_penalty(params: dict[str, Tensor], reference: dict[str, np.ndarray],
                  mu: float) -> Tensor:
    total = Tensor(0.0)
    for k, p in params.items():
        diff = T.sub(p, Tensor(reference[k]))
        total = T.add(total, T.tsum(T.mul(diff, diff)))
    return T.mul(Tensor(mu / 2.0), total)


def local_update(client: ClientState, server_bundle: dict, global_stats, plan: RoundPlan,
                 cfg: TrainConfig, round_idx: int = 0) -> tuple[dict, dict]:
    """One round of local training; returns (best snapshot, metrics).

    Trains ``client.net``, which the clients of a run share, and leaves the
    arrays the strategy keeps local in ``client.local``.
    """
    load_bundle(client.net, client.adapters, {**server_bundle, **client.local})
    if round_idx == 0:
        # No server-synthesized statistics exist before the first
        # aggregation; seed the global buffers from one local forward so
        # statistic mixing starts from a sane reference instead of (0, 1):
        # each layer takes its input's batch statistics, then blends at zero.
        bns = client.net.bn_layers()

        def warm_start(i: int, h: Tensor) -> Tensor:
            bns[i].set_global_stats(h.data.mean(axis=(0, 2, 3)), h.data.var(axis=(0, 2, 3)))
            return Tensor(np.zeros((h.shape[0], 1)))

        with T.no_grad():
            client.net.forward(Tensor(client.train_data.images[:64]),
                               BNMode.INTERPOLATED_ADAPTER, warm_start)
    else:
        client.net.set_global_stats(global_stats)

    main_params = client.net.parameters()
    prox_ref = ({k: p.data.copy() for k, p in main_params.items()}
                if cfg.strategy == "fedprox" else None)
    optimizer = SGD(main_params, lr=cfg.lr, momentum=cfg.momentum)
    adapter_opt = None
    if client.adapters is not None and round_idx >= cfg.adapter_warmup_rounds:
        # The adapter head sits behind the normalization statistics, where
        # gradients are far larger than in the main net; a hot momentum-SGD
        # step there diverges, so the adapter gets its own gentle optimizer.
        adapter_opt = SGD(adapter_parameters(client.adapters),
                          lr=cfg.adapter_lr, momentum=0.0)

    # The last iteration always validates and any accuracy beats -inf, so the
    # first validation takes the first snapshot; only a zero-iteration round
    # snapshots the arrays it loaded, after the loop.
    best_val = -np.inf
    best_bundle = None
    loss_sums = {"ce": 0.0, "cacl": 0.0, "cafl": 0.0, "total": 0.0}

    for it in range(plan.iterations):
        images, labels = client.next_batch(cfg.batch_size)
        batch = Tensor(images)

        if cfg.diversify:
            ctx = sample_mix_context(client.net, cfg.distribution, client.rng)
            total, comps = local_loss(client.net, batch, labels, ctx, cfg.loss_weights,
                                      cfg.stop_gradient_features)
        else:
            _, logits = client.net.forward(batch, BNMode.TRAIN_BATCH)
            total = T.softmax_cross_entropy(logits, labels)
            comps = {"ce": float(total.data), "cacl": 0.0, "cafl": 0.0}

        if cfg.strategy == "fedprox" and cfg.prox_mu > 0:
            total = T.add(total, _prox_penalty(main_params, prox_ref, cfg.prox_mu))

        if not np.isfinite(total.data):
            raise FeddivError(
                f"client {client.client_id}: non-finite loss at iteration {it}, aborting round"
            )
        optimizer.zero_grad()
        total.backward()
        optimizer.step()

        loss_sums["ce"] += comps["ce"]
        loss_sums["cacl"] += comps["cacl"]
        loss_sums["cafl"] += comps["cafl"]
        loss_sums["total"] += float(total.data)

        if adapter_opt is not None:
            adapter_mod.adapter_train_step(client.net, client.adapters, batch, labels,
                                           adapter_opt, client.adapter_rng)

        if (it + 1) % plan.val_every == 0 or it == plan.iterations - 1:
            acc = evaluate_net(client.net, client.adapters, client.val_data, "eval_global")
            if acc > best_val:
                best_val = acc
                best_bundle = extract_bundle(client.net, client.adapters)

    if best_bundle is None:
        best_bundle = extract_bundle(client.net, client.adapters)
    aggregated = set(aggregated_keys(server_bundle, cfg.strategy))
    client.local = extract_bundle(client.net, client.adapters,
                                  [k for k in server_bundle if k not in aggregated])
    iters = max(plan.iterations, 1)
    return best_bundle, {k: v / iters for k, v in loss_sums.items()}


# -- evaluation --------------------------------------------------------------

# Images per forward-only pass. Every inference mode treats each image on its
# own, so the chunk size changes only how many images share one pass, and a
# large chunk spreads each op's fixed Python and NumPy cost over more images.
EVAL_CHUNK = 256


def evaluate_net(net: SmallConvNet, adapters, dataset, inference_mode: str,
                 fixed_value: float | None = None,
                 rng: np.random.Generator | None = None) -> float:
    """Fraction of correct argmax predictions under the given inference mode.

    Runs ``EVAL_CHUNK`` images at a time, independent of the training batch
    size.
    """
    n = len(dataset.labels)
    if n == 0:
        raise InputError("evaluate: empty dataset")
    correct = 0
    with T.no_grad():
        for start in range(0, n, EVAL_CHUNK):
            x = Tensor(dataset.images[start : start + EVAL_CHUNK])
            if inference_mode == "eval_global":
                _, logits = net.forward(x, BNMode.EVAL_GLOBAL)
            elif inference_mode == "adaptive":
                logits = adapter_mod.adaptive_inference(net, adapters, x)
            elif inference_mode == "fixed_alpha":
                logits = adapter_mod.baseline_alpha_inference(net, x, "fixed", fixed_value)
            elif inference_mode == "random_alpha":
                logits = adapter_mod.baseline_alpha_inference(net, x, "random", rng=rng)
            else:
                raise InputError(f"unknown inference mode {inference_mode!r}")
            pred = logits.data.argmax(axis=1)
            correct += int((pred == dataset.labels[start : start + EVAL_CHUNK]).sum())
    return correct / n


# -- federation loop ----------------------------------------------------------

def run_federation(clients: list[ClientState], server: ServerState, plan: RoundPlan,
                   cfg: TrainConfig) -> tuple[dict, list, list[dict]]:
    """Run the full protocol; returns (best bundle, best stats, ledger rows).

    Clients train, upload and are scored in id order. Server validation runs
    on the network and adapters the clients share.
    """
    if not clients:
        raise ProtocolError("run_federation: need at least one client")
    clients = sorted(clients, key=lambda c: c.client_id)
    net, adapters = clients[0].net, clients[0].adapters
    ledger: list[dict] = []

    for rnd in range(plan.rounds):
        if plan.participants_per_round is None or plan.participants_per_round >= len(clients):
            participants = clients
        else:
            picks = server.rng.choice(len(clients), size=plan.participants_per_round,
                                      replace=False)
            participants = [clients[i] for i in sorted(picks)]

        results = [local_update(c, server.bundle, server.global_stats, plan, cfg, rnd)
                   for c in participants]
        uploads = [upload for upload, _ in results]
        n_list = [c.n_samples for c in participants]

        agg = aggregate(uploads, n_list, cfg.strategy)
        server.bundle.update(agg)
        server.global_stats = synthesize_global_stats(
            [bundle_layer_stats(b) for b in uploads], n_list,
            cfg.stat_aggregation)

        load_bundle(net, adapters, server.bundle)
        net.set_global_stats(server.global_stats)
        accs = []
        for c, (_, m) in zip(participants, results):
            acc = evaluate_net(net, adapters, c.val_data, "eval_global")
            accs.append(acc)
            ledger.append({"round": rnd, "client_id": c.client_id, "split": "server_val",
                           "accuracy": acc, "ce": m["ce"], "cacl": m["cacl"],
                           "cafl": m["cafl"], "total": m["total"]})
        mean_acc = float(np.mean(accs))
        log.info("round %d: mean participant validation accuracy %.4f", rnd, mean_acc)
        if mean_acc > server.best_score:
            server.keep_best(rnd, mean_acc)
    return server.best_bundle, server.best_stats, ledger
