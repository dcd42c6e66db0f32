"""Federated protocol engine: local training, aggregation, model selection.

Clients train locally and upload their best-validation snapshot; the server
weighted-averages the strategy's share of the arrays, synthesizes global BN
statistics from the uploaded running buffers, and keeps the round whose mean
participant validation accuracy is highest. A client's adapter steps run on
a forked worker process, one iteration behind its main steps (``AdapterWorker``).
``run_federation`` takes the config tree (``config.Config``) and hands each
``local_update`` the tree's ``federation`` section and the tree.
"""

from __future__ import annotations

import logging
import multiprocessing
import signal
import traceback
from multiprocessing.pool import RemoteTraceback
from typing import TYPE_CHECKING

import numpy as np

from . import adapter as adapter_mod
from . import errors
from . import tensor as T
from .adapter import InstanceAdapter, adapter_parameters, learned_alphas
from .diversify import local_loss, sample_mix_context
from .errors import ConfigError, FeddivError, InputError, ProtocolError
from .layers import BNMode, SmallConvNet
from .tensor import Tensor

if TYPE_CHECKING:
    from .config import Config, FederationConfig

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


# -- client and server state ------------------------------------------------

class ClientState:
    """One simulated client: its data, its local arrays, and private RNG streams.

    The clients of a run share one network and adapter set (``net``,
    ``adapters``), as ``run_federation`` checks; ``local_update`` loads the
    server bundle into it with the client's ``local`` arrays on top.
    ``local`` holds what the strategy keeps on the client (see
    ``aggregated_keys``) as the client's last round left it, and starts
    empty: every client starts from the server's initial arrays.
    """

    def __init__(self, client_id: int, train_data, val_data, net: SmallConvNet,
                 adapters: list[InstanceAdapter] | None, seed: int):
        self.client_id = client_id
        self.train_data = train_data
        self.val_data = val_data
        self.net = net
        self.adapters = adapters
        self.local: dict[str, np.ndarray] = {}
        # The adapter worker of the run this client is in; None outside
        # ``run_federation``, and then ``local_update`` opens its own.
        self.adapter_worker: AdapterWorker | None = None
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


# -- adapter worker ------------------------------------------------------------

# Seconds a closing worker gets to finish the steps it was sent and exit.
WORKER_CLOSE_TIMEOUT = 10.0


class AdapterWorker:
    """Runs the adapter steps of one network in a forked process, one iteration behind.

    Adapter step t and main step t+1 read the same weights, the ones SGD step
    t left, and they write disjoint state: the adapter step writes only the
    adapter arrays and ``adapter_rng``, which the main step never reads, and
    the interpolated forward leaves the BN running buffers alone. So the
    parent sends each adapter step and goes on with the next main step, and
    the bits are those of running the two in turn.

    A worker serves one network and adapter set, the pair it is built with.
    The process forks at the first ``begin`` and serves until ``close`` (or
    the end of a ``with`` block). Everything an adapter step reads comes in
    the messages: ``begin`` carries the client's adapter arrays, each BN
    layer's global statistics, the adapter RNG and learning rate; ``step``
    the main parameters after the SGD step and the batch. ``sync`` waits for
    the steps sent so far and loads what they leave into the client: the
    adapter arrays and the advanced RNG state.
    """

    def __init__(self, net: SmallConvNet, adapters: list[InstanceAdapter]):
        self._net, self._adapters = net, adapters
        self._conn = self._proc = None
        self._client: ClientState | None = None
        self._iteration = None  # of the last step sent

    def __enter__(self) -> AdapterWorker:
        return self

    def __exit__(self, *exc_info):
        self.close()

    def begin(self, client: ClientState, lr: float):
        if self._proc is None:
            self._fork()
        self._client, self._iteration = client, None
        self._send(("begin", [p.data for p in adapter_parameters(self._adapters).values()],
                    [(bn.global_mean, bn.global_var) for bn in self._net.bn_layers()],
                    client.adapter_rng, lr))

    def step(self, iteration: int, params: dict[str, Tensor], images: np.ndarray,
             labels: np.ndarray):
        self._iteration = iteration
        self._send(("step", iteration, [p.data for p in params.values()], images, labels))

    def sync(self):
        arrays, rng_state = self._request("sync")
        for p, a in zip(adapter_parameters(self._adapters).values(), arrays):
            p.data = a
        self._client.adapter_rng.bit_generator.state = rng_state

    def close(self):
        """Stop the process, if one runs; the next ``begin`` forks a new one."""
        if self._proc is None:
            return
        conn, proc = self._conn, self._proc
        self._conn = self._proc = None
        conn.close()  # the worker reads EOF once it has run what it was sent
        proc.join(WORKER_CLOSE_TIMEOUT)
        if proc.exitcode is None:
            proc.terminate()
            proc.join()

    def _fork(self):
        ctx = multiprocessing.get_context("fork")
        conn, worker_conn = ctx.Pipe()
        try:
            proc = ctx.Process(target=_serve_adapter_steps,
                               args=(worker_conn, conn, self._net, self._adapters),
                               name="feddiv-adapter-worker", daemon=True)
            proc.start()
        except BaseException:
            conn.close()
            raise
        finally:
            worker_conn.close()
        self._conn, self._proc = conn, proc

    def _send(self, message):
        try:
            self._conn.send(message)
        except OSError as exc:  # the worker is gone
            raise self._lost() from exc

    def _request(self, kind: str):
        self._send((kind,))
        try:
            status, payload = self._conn.recv()
        except (EOFError, OSError) as exc:
            raise self._lost() from exc
        if status == "error":
            iteration, name, message, worker_traceback = payload
            error = getattr(errors, name, None)
            if not (isinstance(error, type) and issubclass(error, FeddivError)):
                error, message = FeddivError, f"{name}: {message}"
            raise error(f"client {self._client.client_id}: adapter step at iteration "
                        f"{iteration} failed: {message}") from RemoteTraceback(worker_traceback)
        return payload

    def _lost(self) -> FeddivError:
        self._proc.join(WORKER_CLOSE_TIMEOUT)
        at = "before its first step" if self._iteration is None else \
            f"at iteration {self._iteration}"
        return FeddivError(f"client {self._client.client_id}: adapter worker {at}: the worker "
                           f"process exited (exit code {self._proc.exitcode})")


def _serve_adapter_steps(conn, parent_conn, net: SmallConvNet, adapters: list[InstanceAdapter]):
    """The worker's loop: run what the parent sends until its end of the pipe closes.

    A step that raises is reported at the next ``sync``, and the steps after
    it are skipped until the next ``begin``. Otherwise ``sync`` answers with
    the adapter arrays and the adapter RNG's state.
    """
    parent_conn.close()  # so that the parent's exit is an EOF here
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # the parent handles Ctrl-C and closes
    params = list(net.parameters().values())
    named_adapter_params = adapter_parameters(adapters)
    adapter_params = list(named_adapter_params.values())
    failure = None
    try:
        while True:
            kind, *args = conn.recv()
            if kind == "begin":
                arrays, stats, rng, lr = args
                for p, a in zip(adapter_params, arrays):
                    p.data = a
                net.set_global_stats(stats)
                # The adapter head sits behind the normalization statistics,
                # where gradients are far larger than in the main net; a hot
                # momentum-SGD step there diverges, so the adapter gets its
                # own gentle optimizer.
                optimizer = SGD(named_adapter_params, lr=lr, momentum=0.0)
                failure = None
            elif kind == "step":
                iteration, arrays, images, labels = args
                if failure is not None:
                    continue
                try:
                    for p, a in zip(params, arrays):
                        p.data = a
                    adapter_mod.adapter_train_step(net, adapters, Tensor(images), labels,
                                                   optimizer, rng)
                except Exception as exc:  # reported to the parent, which raises it
                    failure = (iteration, type(exc).__name__, str(exc), traceback.format_exc())
            elif failure is not None:
                conn.send(("error", failure))
            else:  # sync
                conn.send(("ok", ([p.data for p in adapter_params], rng.bit_generator.state)))
    except (EOFError, OSError):
        return  # the parent closed its end of the pipe, or exited


# -- local training ----------------------------------------------------------

def _prox_penalty(params: dict[str, Tensor], reference: dict[str, np.ndarray],
                  mu: float) -> Tensor:
    total = Tensor(0.0)
    for k, p in params.items():
        diff = T.sub(p, Tensor(reference[k]))
        total = T.add(total, T.tsum(T.mul(diff, diff)))
    return T.mul(Tensor(mu / 2.0), total)


def local_update(client: ClientState, server_bundle: dict, global_stats, fed: FederationConfig,
                 cfg: Config, round_idx: int = 0) -> tuple[dict, dict]:
    """One round of local training; returns (best snapshot, metrics).

    ``fed`` is the federation section, and ``cfg`` the tree it came from,
    which gives the diversify, loss and adapter sections. Trains
    ``client.net``, which the clients of a run share, and leaves the arrays
    the strategy keeps local in ``client.local``. The adapter steps when the
    client has adapters, the round is past warm-up and it has an iteration;
    its steps run on ``client.adapter_worker``, or on a worker opened for
    this call.
    """
    if client.adapters is None or round_idx < cfg.adapter.warmup_rounds or fed.iterations == 0:
        return _train_locally(client, server_bundle, global_stats, fed, cfg, round_idx, None)
    if client.adapter_worker is not None:  # run_federation closes the run's worker
        return _train_locally(client, server_bundle, global_stats, fed, cfg, round_idx,
                              client.adapter_worker)
    with AdapterWorker(client.net, client.adapters) as worker:
        return _train_locally(client, server_bundle, global_stats, fed, cfg, round_idx, worker)


def _train_locally(client: ClientState, server_bundle: dict, global_stats,
                   fed: FederationConfig, cfg: Config, round_idx: int,
                   worker: AdapterWorker | None) -> tuple[dict, dict]:
    """``local_update``'s training; ``worker`` runs the adapter steps, if any."""
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
                if fed.strategy == "fedprox" else None)
    optimizer = SGD(main_params, lr=fed.lr, momentum=fed.momentum)
    if worker is not None:
        worker.begin(client, cfg.adapter.lr)

    # The last iteration always validates and any accuracy beats -inf, so the
    # first validation takes the first snapshot; only a zero-iteration round
    # snapshots the arrays it loaded, after the loop.
    best_val = -np.inf
    best_bundle = None
    loss_sums = {"ce": 0.0, "cacl": 0.0, "cafl": 0.0, "total": 0.0}

    for it in range(fed.iterations):
        images, labels = client.next_batch(fed.batch_size)
        batch = Tensor(images)

        if cfg.diversify.enabled:
            ctx = sample_mix_context(client.net, cfg.diversify.sampling, client.rng)
            total, comps = local_loss(client.net, batch, labels, ctx, cfg.loss,
                                      cfg.diversify.stop_gradient_features)
        else:
            _, logits = client.net.forward(batch, BNMode.TRAIN_BATCH)
            total = T.softmax_cross_entropy(logits, labels)
            comps = {"ce": float(total.data), "cacl": 0.0, "cafl": 0.0}

        if fed.strategy == "fedprox" and fed.prox_mu > 0:
            total = T.add(total, _prox_penalty(main_params, prox_ref, fed.prox_mu))

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

        if worker is not None:
            worker.step(it, main_params, images, labels)

        if (it + 1) % fed.val_every == 0 or it == fed.iterations - 1:
            # The snapshot below holds the adapter arrays of this iteration,
            # and validation gets the machine to itself. The last iteration
            # always gets here, so the client leaves with the adapter RNG
            # state of its last step.
            if worker is not None:
                worker.sync()
            acc = evaluate_net(client.net, client.adapters, client.val_data, "eval_global")
            if acc > best_val:
                best_val = acc
                best_bundle = extract_bundle(client.net, client.adapters)

    if best_bundle is None:
        best_bundle = extract_bundle(client.net, client.adapters)
    aggregated = set(aggregated_keys(server_bundle, fed.strategy))
    client.local = extract_bundle(client.net, client.adapters,
                                  [k for k in server_bundle if k not in aggregated])
    iters = max(fed.iterations, 1)
    return best_bundle, {k: v / iters for k, v in loss_sums.items()}


# -- evaluation --------------------------------------------------------------

# Images per forward-only pass. Every inference mode treats each image on its
# own, so the chunk size changes only how many images share one pass, and a
# large chunk spreads each op's fixed Python and NumPy cost over more images.
EVAL_CHUNK = 256

# Held-out inference modes, each one blend weight per BN layer: zero (global
# statistics only), the adapters' learned alpha, or a constant or uniform
# alpha per sample and layer.
INFERENCE_MODES = ("eval_global", "adaptive", "fixed_alpha", "random_alpha")


def _columns(block: np.ndarray):
    """Alpha provider giving layer i column i of an (N, n_layers) block."""
    return lambda i, h: Tensor(block[:, i : i + 1])


def evaluate_net(net: SmallConvNet, adapters, dataset, inference_mode: str,
                 fixed_value: float | None = None,
                 rng: np.random.Generator | None = None) -> float:
    """Fraction of correct argmax predictions under the given inference mode.

    Runs ``EVAL_CHUNK`` images at a time, independent of the training batch
    size, one ``net.forward`` per chunk. The baselines draw one (N, n_layers)
    block of alphas per chunk, so one generator hands each image the same
    alphas however the images are chunked.
    """
    n = len(dataset.labels)
    if n == 0:
        raise InputError("evaluate: empty dataset")
    bn_mode = BNMode.INTERPOLATED_ADAPTER
    if inference_mode == "eval_global":
        bn_mode, alphas = BNMode.EVAL_GLOBAL, lambda size: None
    elif inference_mode == "adaptive":
        if adapters is None:
            raise ConfigError("adaptive inference needs adapters")
        learned = learned_alphas(net, adapters)
        alphas = lambda size: learned
    elif inference_mode == "fixed_alpha":
        if fixed_value is None:
            raise ConfigError("fixed alpha mode needs a value")
        alphas = lambda size: _columns(np.full(size, float(fixed_value)))
    elif inference_mode == "random_alpha":
        if rng is None:
            raise ConfigError("random alpha mode needs an RNG")
        alphas = lambda size: _columns(rng.uniform(0.0, 1.0, size=size))
    else:
        raise InputError(f"unknown inference mode {inference_mode!r}")
    n_layers = len(net.bn_layers())
    correct = 0
    with T.no_grad():
        for start in range(0, n, EVAL_CHUNK):
            x = Tensor(dataset.images[start : start + EVAL_CHUNK])
            _, logits = net.forward(x, bn_mode, alphas((x.shape[0], n_layers)))
            pred = logits.data.argmax(axis=1)
            correct += int((pred == dataset.labels[start : start + EVAL_CHUNK]).sum())
    return correct / n


# -- federation loop ----------------------------------------------------------

def run_federation(clients: list[ClientState], server: ServerState,
                   cfg: Config) -> tuple[dict, list, list[dict]]:
    """Run the full protocol; returns (best bundle, best stats, ledger rows).

    The clients share one network and adapter set, on which server
    validation runs too; clients train, upload and are scored in id order.
    """
    if not clients:
        raise ProtocolError("run_federation: need at least one client")
    clients = sorted(clients, key=lambda c: c.client_id)
    net, adapters = clients[0].net, clients[0].adapters
    for c in clients:
        if c.net is not net or c.adapters is not adapters:
            raise ProtocolError(f"run_federation: client {c.client_id} does not share client "
                                f"{clients[0].client_id}'s network and adapter set")
    # Forks at the first update that steps the adapter.
    with AdapterWorker(net, adapters) as worker:
        for c in clients:
            c.adapter_worker = worker
        try:
            return _run_rounds(clients, server, cfg)
        finally:
            for c in clients:
                c.adapter_worker = None


def _run_rounds(clients: list[ClientState], server: ServerState,
                cfg: Config) -> tuple[dict, list, list[dict]]:
    net, adapters = clients[0].net, clients[0].adapters
    fed = cfg.federation
    ledger: list[dict] = []

    for rnd in range(fed.rounds):
        if fed.participants_per_round is None or fed.participants_per_round >= len(clients):
            participants = clients
        else:
            picks = server.rng.choice(len(clients), size=fed.participants_per_round,
                                      replace=False)
            participants = [clients[i] for i in sorted(picks)]

        results = [local_update(c, server.bundle, server.global_stats, fed, cfg, rnd)
                   for c in participants]
        uploads = [upload for upload, _ in results]
        n_list = [c.n_samples for c in participants]

        agg = aggregate(uploads, n_list, fed.strategy)
        server.bundle.update(agg)
        server.global_stats = synthesize_global_stats(
            [bundle_layer_stats(b) for b in uploads], n_list,
            fed.stat_aggregation)

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
