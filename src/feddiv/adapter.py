"""Instance feature adapters: learned test-time statistic interpolation.

One small two-layer MLP per BN layer maps the per-sample difference between
instance and global statistics to a pair (delta, epsilon). One rule turns
that pair into the layer's interpolation weight: during training alpha =
clamp(z*delta + epsilon) with z drawn from N(0,1) (reparameterization); at
test time alpha = clamp(epsilon), fully deterministic. The ablation
baselines use no adapter: one (N, n_layers) block of alphas, constant or
uniform, gives layer i column i.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .errors import ConfigError
from .layers import BNMode, Linear, SmallConvNet, instance_stats
from .tensor import Tensor

@dataclass
class AlphaSample:
    """One draw of interpolation weights for a batch at one layer."""

    alpha: Tensor  # (N, 1), values in [0, 1]
    z: np.ndarray  # (N, 1) normal draw


class InstanceAdapter:
    """Per-BN-layer adapter: 2C -> hidden -> 2 fully connected network."""

    def __init__(self, channels: int, hidden_dim: int, seed: int = 0):
        rng = np.random.default_rng(seed)
        self.channels = channels
        self.fc1 = Linear(2 * channels, hidden_dim, rng)
        self.fc2 = Linear(hidden_dim, 2, rng)

    def parameters(self) -> dict[str, Tensor]:
        return {
            "fc1.w": self.fc1.weight,
            "fc1.b": self.fc1.bias,
            "fc2.w": self.fc2.weight,
            "fc2.b": self.fc2.bias,
        }

    def forward(self, mu_inst: np.ndarray, sigma_inst: np.ndarray, mu_g: np.ndarray,
                sigma_g: np.ndarray) -> tuple[Tensor, Tensor]:
        """Map statistic differences to per-sample (delta, epsilon).

        Inputs are plain arrays: the difference vector is a constant
        descriptor, so no gradient flows back into the statistics.
        """
        mu_inst = np.asarray(mu_inst)
        sigma_inst = np.asarray(sigma_inst)
        if mu_inst.shape[1] != self.channels:
            raise ConfigError(
                f"adapter built for {self.channels} channels, got stats with "
                f"{mu_inst.shape[1]}"
            )
        diff = np.concatenate([mu_inst - mu_g, sigma_inst - sigma_g], axis=1)
        h = T.relu(self.fc1(Tensor(diff)))
        out = self.fc2(h)
        return out[:, 0:1], out[:, 1:2]


def make_adapters(net: SmallConvNet, hidden_dim: int, seed: int = 0) -> list[InstanceAdapter]:
    """One adapter per BN layer, in the network's stable BN order."""
    return [
        InstanceAdapter(bn.channels, hidden_dim, seed=seed + i)
        for i, bn in enumerate(net.bn_layers())
    ]


def adapter_parameters(adapters: list[InstanceAdapter]) -> dict[str, Tensor]:
    params = {}
    for i, a in enumerate(adapters):
        for name, p in a.parameters().items():
            params[f"adapter.{i}.{name}"] = p
    return params


def reparam_alpha_train(delta: Tensor, epsilon: Tensor, rng: np.random.Generator) -> AlphaSample:
    """alpha = clamp(z*delta + epsilon, 0, 1) with z ~ N(0,1) per sample."""
    z = rng.standard_normal(size=delta.shape)
    alpha = T.clamp(T.add(T.mul(Tensor(z), delta), epsilon), 0.0, 1.0)
    return AlphaSample(alpha=alpha, z=z)


def alpha_test(epsilon: Tensor) -> Tensor:
    """Deterministic test-time weight: alpha = clamp(epsilon, 0, 1)."""
    return T.clamp(epsilon, 0.0, 1.0)


def _learned_alphas(net: SmallConvNet, adapters: list[InstanceAdapter],
                    rng: np.random.Generator | None):
    """The adapters' per-layer ``alpha_for(i, h)`` for the interpolated forward.

    A reparameterized draw from ``rng``, or ``alpha_test`` when ``rng`` is None.
    """
    bns = net.bn_layers()

    def alpha_for(layer_idx: int, h: Tensor) -> Tensor:
        bn = bns[layer_idx]
        mu_i, sigma_i = instance_stats(h.data, bn.eps)
        sigma_g = np.sqrt(bn.global_var + bn.eps)
        delta, epsilon = adapters[layer_idx].forward(mu_i, sigma_i, bn.global_mean, sigma_g)
        if rng is None:
            return alpha_test(epsilon)
        return reparam_alpha_train(delta, epsilon, rng).alpha

    return alpha_for


def adapter_train_step(net: SmallConvNet, adapters: list[InstanceAdapter], batch: Tensor,
                       labels: np.ndarray, optimizer, rng: np.random.Generator) -> float:
    """One SGD step on the adapters with the main network frozen.

    Forward uses interpolated statistics with reparameterized alpha, loss is
    plain cross-entropy, and only adapter parameters are updated. The main
    network's parameters stop requiring grad for the step, so the backward
    pass ends at the alphas and leaves their ``grad`` untouched.
    """
    provider = _learned_alphas(net, adapters, rng)
    main_params = list(net.parameters().values())
    saved = [p.requires_grad for p in main_params]
    for p in main_params:
        p.requires_grad = False
    try:
        _, logits = net.forward(batch, BNMode.INTERPOLATED_ADAPTER, provider)
        loss = T.softmax_cross_entropy(logits, labels)
        optimizer.zero_grad()
        loss.backward()
    finally:
        for p, flag in zip(main_params, saved):
            p.requires_grad = flag
    optimizer.step()
    return float(loss.data)


def adaptive_inference(net: SmallConvNet, adapters: list[InstanceAdapter],
                       x: Tensor) -> Tensor:
    """Single deterministic forward with learned alpha = clamp(epsilon)."""
    provider = _learned_alphas(net, adapters, None)
    _, logits = net.forward(x, BNMode.INTERPOLATED_ADAPTER, provider)
    return logits


def baseline_alpha_inference(net: SmallConvNet, x: Tensor, mode: str,
                             fixed_value: float | None = None,
                             rng: np.random.Generator | None = None) -> Tensor:
    """Ablation inference: constant alpha or per-sample uniform alpha.

    One (N, n_layers) block of alphas gives layer i column i, so one
    generator hands each sample the same alphas however the samples are
    split into forward passes.
    """
    size = (x.shape[0], len(net.bn_layers()))
    if mode == "fixed":
        if fixed_value is None:
            raise ConfigError("fixed alpha mode needs a value")
        block = np.full(size, float(fixed_value))
    elif mode == "random":
        if rng is None:
            raise ConfigError("random alpha mode needs an RNG")
        block = rng.uniform(0.0, 1.0, size=size)
    else:
        raise ConfigError(f"baseline alpha mode must be 'fixed' or 'random', got {mode!r}")
    _, logits = net.forward(x, BNMode.INTERPOLATED_ADAPTER,
                            lambda i, h: Tensor(block[:, i : i + 1]))
    return logits
