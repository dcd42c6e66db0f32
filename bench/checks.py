"""Output checks, each computed apart from the code it checks.

Every check returns a list of problems; an empty list means it passed.

* ``heldout_problems``: the saved checkpoint must hold the best round's
  arrays and global statistics, and an independent NumPy forward of it
  recomputes the held-out ``eval_global`` predictions.
* ``aggregation_problems``: each round's server arrays against the
  dataset-size-weighted average of the uploads, and the synthesized global
  statistics against the law of total variance.
* ``work_problems``: local steps, updates and evaluated images against the
  counts the config implies.
* ``gradient_problems``: a directional central difference of the
  workload's training loss (and adapter loss) against autodiff.
* ``health_problems``: non-finite arrays, an exploding per-round loss, or
  a best held-out accuracy that is not clearly above chance.
* ``replay_problems``: two runs of one (config, seed) pair must agree bit
  for bit.
"""

from __future__ import annotations

import math
import os

import numpy as np

from feddiv import adapter, checkpoint, diversify, federation, layers
from feddiv import tensor as T

BN_EPS = 1e-5  # the model's batch-norm epsilon
LOSS_LIMIT = 10.0  # a per-round mean loss above LOSS_LIMIT * ln(classes) has exploded
ACCURACY_FACTOR = 1.25  # the best held-out accuracy must reach ACCURACY_FACTOR / classes


# -- held-out predictions ------------------------------------------------------

def _conv_s2_p1(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """3x3 convolution, stride 2, padding 1, as the model's blocks use."""
    k = w.shape[2]
    xp = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))
    windows = np.lib.stride_tricks.sliding_window_view(xp, (k, k), axis=(2, 3))[:, :, ::2, ::2]
    return np.einsum("nchwij,fcij->nfhw", windows, w, optimize=True)


def reference_logits(arrays: dict, n_blocks: int, images: np.ndarray,
                     batch: int = 250) -> np.ndarray:
    """Conv, BN by the global statistics, ReLU per block; mean pool; linear."""
    out = []
    for lo in range(0, len(images), batch):
        h = images[lo:lo + batch]
        for i in range(n_blocks):
            h = _conv_s2_p1(h, arrays[f"block{i}.conv.w"])
            scale = arrays[f"block{i}.bn.gamma"] / np.sqrt(arrays[f"block{i}.bn.global_var"]
                                                           + BN_EPS)
            shift = arrays[f"block{i}.bn.beta"] - arrays[f"block{i}.bn.global_mean"] * scale
            h = np.maximum(h * scale[:, None, None] + shift[:, None, None], 0.0)
        out.append(h.mean(axis=(2, 3)) @ arrays["classifier.w"] + arrays["classifier.b"])
    return np.concatenate(out)


def _program_logits(arrays: dict, cfg: dict, images: np.ndarray) -> np.ndarray:
    """The program's own EVAL_GLOBAL forward of the same checkpoint."""
    n_blocks = len(cfg["model"]["widths"])
    net = layers.SmallConvNet(cfg["model"]["in_channels"], tuple(cfg["model"]["widths"]),
                              cfg["benchmark"]["classes"])
    params = {k: v for k, v in arrays.items() if ".bn.global_" not in k
              and not k.startswith("adapter.")}
    federation.load_bundle(net, None, params)
    net.set_global_stats([(arrays[f"block{i}.bn.global_mean"],
                           arrays[f"block{i}.bn.global_var"]) for i in range(n_blocks)])
    batch = cfg["federation"]["batch_size"]
    out = []
    with T.no_grad():
        for lo in range(0, len(images), batch):
            _, logits = net.forward(T.Tensor(images[lo:lo + batch]), layers.BNMode.EVAL_GLOBAL)
            out.append(logits.data)
    return np.concatenate(out)


def heldout_problems(exp, cfg: dict, out_dir: str, seed: int) -> list[str]:
    path = os.path.join(out_dir, "checkpoints", f"best_seed{seed}.json")
    arrays, _ = checkpoint.load_checkpoint(path)  # verifies the checksum
    best = exp.result["best_round"]
    saved = dict(exp.result["bundle"])
    for i, (mu, var) in enumerate(exp.synthesized[best]):
        saved[f"block{i}.bn.global_mean"], saved[f"block{i}.bn.global_var"] = mu, var
    problems = [f"checkpoint array {k} is not round {best}'s" for k in saved
                if k not in arrays or arrays[k].tobytes() != saved[k].tobytes()]
    test = exp.benchmark.test_set
    ref = reference_logits(arrays, len(cfg["model"]["widths"]), test.images)
    prog = _program_logits(arrays, cfg, test.images)
    if not np.allclose(ref, prog, rtol=1e-9, atol=1e-9):
        problems.append(f"held-out logits differ from the reference forward by "
                        f"{np.abs(ref - prog).max():.3e}")
    pred = ref.argmax(axis=1)
    if not np.array_equal(pred, prog.argmax(axis=1)):
        problems.append("held-out predictions differ from the reference forward")
    accuracy = int((pred == test.labels).sum()) / len(test.labels)
    reported = exp.report["per_seed"][str(seed)]["accuracies"]["eval_global"]
    if accuracy != reported:
        problems.append(f"reported eval_global accuracy {reported} != reference {accuracy}")
    return problems


# -- aggregation and global statistics -------------------------------------------

def _stays_local(key: str, strategy: str) -> bool:
    """Arrays a strategy keeps on the clients (adapters always aggregate)."""
    if key.startswith("adapter."):
        return False
    if strategy == "fedbn":
        return ".bn." in key
    if strategy == "silobn":
        return ".bn.local_" in key
    return False


def aggregation_problems(exp, cfg: dict) -> list[str]:
    strategy = cfg["federation"]["strategy"]
    n_blocks = len(cfg["model"]["widths"])
    problems = []
    rounds = sorted(exp.round_start)
    if len(exp.synthesized) != len(rounds):
        return [f"{len(exp.synthesized)} stat syntheses for {len(rounds)} rounds"]
    for rnd in rounds:
        ups = sorted((u for u in exp.updates if u.round == rnd), key=lambda u: u.client.client_id)
        sizes = np.array([len(u.client.train_data.labels) for u in ups], dtype=np.float64)
        w = sizes / sizes.sum()
        before, after = exp.server_before[rnd], exp.server_after(rnd)
        for key in before:
            if _stays_local(key, strategy):
                if not np.array_equal(after[key], before[key]):
                    problems.append(f"round {rnd}: {key} changed under {strategy}")
                continue
            expect = np.tensordot(w, np.stack([u.upload[key] for u in ups]), axes=1)
            if not np.allclose(after[key], expect, rtol=1e-12, atol=1e-14):
                problems.append(f"round {rnd}: server {key} is not the weighted average")

        synth = exp.synthesized[rnd]
        for i in range(n_blocks):
            mu = np.stack([u.upload[f"block{i}.bn.local_mean"] for u in ups])
            var = np.stack([u.upload[f"block{i}.bn.local_var"] for u in ups])
            mu_g = w @ mu
            var_g = w @ var + w @ (mu - mu_g) ** 2  # within plus between clients
            if not (np.allclose(synth[i][0], mu_g, rtol=1e-10, atol=1e-12)
                    and np.allclose(synth[i][1], var_g, rtol=1e-9, atol=1e-12)):
                problems.append(f"round {rnd}: global stats of layer {i} break the law of "
                                f"total variance")
        nxt = exp.global_stats_in.get(rnd + 1)
        if nxt is not None and nxt is not synth:
            problems.append(f"round {rnd + 1} did not start from round {rnd}'s global stats")
    return problems


# -- work counts -------------------------------------------------------------------

def work_problems(exp, cfg: dict) -> list[str]:
    f, b = cfg["federation"], cfg["benchmark"]
    rounds, steps = f["rounds"], f["iterations"]
    clients = exp.benchmark.train_clients
    expect_clients = (b["domains"] - 1) * b["clients_per_domain"]
    vals_per_update = sum(1 for it in range(steps)
                          if (it + 1) % f["val_every"] == 0 or it == steps - 1)
    val_images = sum(len(c["val"].labels) for c in clients)
    modes = len(exp.report["per_seed"][str(cfg["seeds"][0])]["accuracies"])
    expect = {
        "clients": (len(clients), expect_clients),
        "local updates": (len(exp.updates), rounds * expect_clients),
        "local steps": (exp.steps, rounds * expect_clients * steps),
        "training samples": (exp.samples, rounds * expect_clients * steps * f["batch_size"]),
        "evaluated images": (sum(e[2] for e in exp.evals),
                             rounds * (vals_per_update + 1) * val_images
                             + modes * len(exp.benchmark.test_set.labels)),
    }
    return [f"{what}: {got} != {want}" for what, (got, want) in expect.items() if got != want]


# -- gradient probe ------------------------------------------------------------------

def _directional_error(loss_fn, params: dict, rng: np.random.Generator,
                       steps=(1e-5, 1e-6, 1e-7)) -> float:
    """Relative gap between autodiff and central differences along a random unit direction.

    The smallest gap over a few step sizes counts: a step that carries a
    ReLU input across zero skews that one difference, while a wrong
    gradient is off at every step.
    """
    base = {k: p.data.copy() for k, p in params.items()}
    v = {k: rng.standard_normal(a.shape) for k, a in base.items()}
    norm = math.sqrt(sum(float((a * a).sum()) for a in v.values()))
    for p in params.values():
        p.zero_grad()
    loss_fn().backward()
    auto = sum(float((p.grad * v[k]).sum()) / norm for k, p in params.items()
               if p.grad is not None)

    def at(step):
        for k, p in params.items():
            p.data = base[k] + (step / norm) * v[k]
        return float(loss_fn().data)

    errors = []
    for h in steps:
        numeric = (at(h) - at(-h)) / (2 * h)
        errors.append(abs(auto - numeric) / max(abs(auto), abs(numeric), 1e-12))
    for k, p in params.items():
        p.data = base[k]
    return min(errors)


def gradient_problems(cfg: dict, seed: int, tol: float = 1e-6) -> list[str]:
    """Probe the workload's own losses at its initial parameters."""
    m, b, f, d = cfg["model"], cfg["benchmark"], cfg["federation"], cfg["diversify"]
    rng = np.random.default_rng([seed, 4242])
    net = layers.SmallConvNet(m["in_channels"], tuple(m["widths"]), b["classes"], seed=seed)
    x = rng.uniform(0.0, 1.0, (f["batch_size"], m["in_channels"], b["image_size"],
                               b["image_size"]))
    labels = np.arange(f["batch_size"]) % b["classes"]

    with T.no_grad():  # global statistics from one forward, as round 0 seeds them
        h = T.Tensor(x)
        for conv, bn in net.blocks:
            h = conv(h)
            bn.set_global_stats(h.data.mean(axis=(0, 2, 3)), h.data.var(axis=(0, 2, 3)))
            h = T.relu(bn.forward_eval_global(h))

    if d["enabled"]:
        dist = diversify.SamplingDistribution(d["distribution"], d["low"], d["high"],
                                              d["value"])
        ctx = diversify.sample_mix_context(net, dist, rng)
        weights = diversify.LossWeights(cfg["loss"]["lambda1"], cfg["loss"]["lambda2"])

        def main_loss():
            return diversify.local_loss(net, T.Tensor(x), labels, ctx, weights,
                                        d["stop_gradient_features"])[0]
    else:
        def main_loss():
            return T.softmax_cross_entropy(net.forward(T.Tensor(x), layers.BNMode.TRAIN_BATCH)[1],
                                           labels)

    problems = []
    err = _directional_error(main_loss, net.parameters(), rng)
    if not err < tol:
        problems.append(f"training loss gradient: relative error {err:.2e} >= {tol}")

    if cfg["adapter"]["enabled"]:
        adapters = adapter.make_adapters(net, cfg["adapter"]["hidden_dim"], seed=seed)
        bns = net.bn_layers()
        # The adapter reads the instance statistics as constants (no gradient
        # flows into them), so the probe holds them at their values at the
        # initial parameters; z is drawn afresh from one fixed stream.
        descriptors = {}

        def alpha_for(i, h):
            bn = bns[i]
            if i not in descriptors:
                descriptors[i] = layers.instance_stats(h.data, bn.eps)
            mu, sigma = descriptors[i]
            delta, eps = adapters[i].forward(mu, sigma, bn.global_mean,
                                             np.sqrt(bn.global_var + bn.eps))
            return adapter.reparam_alpha_train(delta, eps, np.random.default_rng([seed, i])).alpha

        def adapter_loss():
            _, logits = net.forward(T.Tensor(x), layers.BNMode.INTERPOLATED_ADAPTER, alpha_for)
            return T.softmax_cross_entropy(logits, labels)

        err = _directional_error(adapter_loss, adapter.adapter_parameters(adapters), rng)
        if not err < tol:
            problems.append(f"adapter loss gradient: relative error {err:.2e} >= {tol}")
    return problems


# -- health and replay ------------------------------------------------------------------

def health_problems(result: dict, classes: int) -> list[str]:
    """Why a finished run (``harness.run_seed``'s return) is not a sound run."""
    arrays = list(result["bundle"].items())
    arrays += [(f"global_stats[{i}]", np.stack(s)) for i, s in enumerate(result["global_stats"])]
    bad = [k for k, a in arrays if not np.all(np.isfinite(a))]
    problems = []
    if bad:
        problems.append(f"{len(bad)} of {len(arrays)} arrays non-finite: {', '.join(bad[:4])}")
    limit = LOSS_LIMIT * math.log(classes)
    losses: dict[int, list[float]] = {}
    for row in result["ledger"]:
        losses.setdefault(row["round"], []).append(row["total"])
    for rnd, values in sorted(losses.items()):
        mean = float(np.mean(values))
        if not mean <= limit:
            problems.append(f"round {rnd}: mean client loss {mean:.3g} exceeds {limit:.3g}")
    # A run that learned shows it in at least one inference mode: under FedBN
    # the server keeps its initial BN affine parameters, and eval_global alone
    # can sit near chance on a sound run.
    mode, acc = max(result["accuracies"].items(), key=lambda kv: kv[1])
    floor = ACCURACY_FACTOR / classes
    if not acc >= floor:
        problems.append(f"best held-out accuracy {acc} ({mode}) is below {floor:.3f}")
    return problems


def replay_problems(a: dict, b: dict) -> list[str]:
    """Differences between two ``run_seed`` results that should be identical."""
    problems = [f"{what} differs" for what in ("ledger", "accuracies", "best_round")
                if a[what] != b[what]]
    if a["bundle"].keys() != b["bundle"].keys():
        problems.append("bundle keys differ")
    else:
        problems += [f"array {k} differs" for k in a["bundle"]
                     if a["bundle"][k].tobytes() != b["bundle"][k].tobytes()]
    for i, (sa, sb) in enumerate(zip(a["global_stats"], b["global_stats"])):
        if any(x.tobytes() != y.tobytes() for x, y in zip(sa, sb)):
            problems.append(f"global stats of layer {i} differ")
    return problems
