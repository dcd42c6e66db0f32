"""Network building blocks: dual-statistics batch norm, conv blocks, classifier.

Every BN layer keeps two statistic sets: the client's own running buffers
and server-injected global buffers. A layer normalizes by one of two routes:
``forward_train`` (mini-batch statistics, updates the running buffers) or
``forward_blend`` (``w * instance + (1 - w) * global`` statistics through the
fused op ``tensor.blend_normalize``, buffers untouched). Of the four
``BNMode`` members, ``TRAIN_BATCH`` is the batch route, and each other mode is
one blend weight per layer:

* ``EVAL_GLOBAL``   - a constant zero: global statistics only.
* ``MIXED_DIVERSIFY`` - an externally supplied weight per channel.
* ``INTERPOLATED_ADAPTER`` - a weight per sample from an alpha provider.
"""

from __future__ import annotations

import enum

import numpy as np

from . import tensor as T
from .errors import ConfigError, InputError, UninitializedStatisticsError
from .tensor import Tensor

EPS = 1e-5
BN_MOMENTUM = 0.1

# Blend weight of the EVAL_GLOBAL mode: global statistics only.
_GLOBAL_ONLY = Tensor(0.0)


class BNMode(enum.Enum):
    TRAIN_BATCH = "train_batch"
    EVAL_GLOBAL = "eval_global"
    MIXED_DIVERSIFY = "mixed_diversify"
    INTERPOLATED_ADAPTER = "interpolated_adapter"


def instance_stats(x: np.ndarray, eps: float = EPS) -> tuple[np.ndarray, np.ndarray]:
    """Per-sample per-channel mean and std over spatial positions.

    Plain-array variant used outside autodiff (adapter inputs, oracles).
    """
    if x.ndim != 4:
        raise InputError(f"instance_stats: need NCHW input, got shape {x.shape}")
    if x.shape[2] * x.shape[3] < 2:
        raise InputError("instance_stats: spatial size must be >= 2, std undefined for 1 pixel")
    mu, _, sigma = T._instance_moments(x, eps)
    return mu.reshape(x.shape[:2]), sigma.reshape(x.shape[:2])


class DualBNLayer:
    """Batch normalization with separate local running and global buffers."""

    momentum = BN_MOMENTUM
    eps = EPS

    def __init__(self, channels: int):
        self.channels = channels
        self.gamma = Tensor(np.ones(channels), requires_grad=True)
        self.beta = Tensor(np.zeros(channels), requires_grad=True)
        self.local_mean = np.zeros(channels)
        self.local_var = np.ones(channels)
        self.global_mean = np.zeros(channels)
        self.global_var = np.ones(channels)
        self.global_initialized = False

    def set_global_stats(self, mean: np.ndarray, var: np.ndarray):
        if np.any(np.asarray(var) < 0):
            raise InputError("global variance must be non-negative")
        self.global_mean = np.array(mean, dtype=np.float64)
        self.global_var = np.array(var, dtype=np.float64)
        self.global_initialized = True

    def forward_train(self, x: Tensor) -> Tensor:
        """Normalize with mini-batch stats and update running buffers."""
        n, c, h, w = x.shape
        count = n * h * w
        if count < 2:
            raise InputError("bn_forward_train: need at least 2 values per channel")
        stats: list[np.ndarray] = []
        out = T.batch_norm_train(x, self.gamma, self.beta, self.eps, stats)

        m = self.momentum
        mu, var = stats
        unbiased = var * (count / (count - 1))
        self.local_mean = (1 - m) * self.local_mean + m * mu
        self.local_var = (1 - m) * self.local_var + m * unbiased
        return out

    def forward_eval_global(self, x: Tensor) -> Tensor:
        """Pure normalization by the injected global statistics."""
        return self.forward_blend(x, _GLOBAL_ONLY)

    def forward_blend(self, x: Tensor, w: Tensor) -> Tensor:
        """Normalize by ``w * instance + (1 - w) * global`` statistics.

        ``w`` broadcasts against (N, C, 1, 1) and may carry gradients.
        """
        if not self.global_initialized:
            raise UninitializedStatisticsError("global BN statistics were never set on this layer")
        c = self.channels
        return T.blend_normalize(x, w, self.global_mean.reshape(1, c, 1, 1),
                                 np.sqrt(self.global_var + self.eps).reshape(1, c, 1, 1),
                                 self.gamma, self.beta, self.eps)


class Conv2dLayer:
    """3x3 convolution at stride 2 with one pixel of zero padding."""

    stride = 2
    pad = 1

    def __init__(self, in_ch: int, out_ch: int, rng: np.random.Generator):
        std = np.sqrt(2.0 / (in_ch * 9))
        self.weight = Tensor(rng.normal(0.0, std, size=(out_ch, in_ch, 3, 3)),
                             requires_grad=True)

    def __call__(self, x: Tensor) -> Tensor:
        return T.conv2d(x, self.weight, stride=self.stride, pad=self.pad)


class Linear:
    def __init__(self, in_dim: int, out_dim: int, rng: np.random.Generator):
        std = np.sqrt(2.0 / in_dim)
        self.weight = Tensor(rng.normal(0.0, std, size=(in_dim, out_dim)), requires_grad=True)
        self.bias = Tensor(np.zeros(out_dim), requires_grad=True)

    def __call__(self, x: Tensor) -> Tensor:
        return T.add(T.matmul(x, self.weight), self.bias)


class SmallConvNet:
    """conv -> DualBN -> relu blocks, global average pool, linear classifier.

    Stride-2 convolutions halve the spatial size per block, so three blocks
    take a 16x16 input down to 2x2 before pooling.
    """

    def __init__(self, in_channels: int, widths: tuple[int, ...], num_classes: int,
                 seed: int = 0):
        rng = np.random.default_rng(seed)
        self.blocks: list[tuple[Conv2dLayer, DualBNLayer]] = []
        prev = in_channels
        for w in widths:
            conv = Conv2dLayer(prev, w, rng)
            self.blocks.append((conv, DualBNLayer(w)))
            prev = w
        self.classifier = Linear(prev, num_classes, rng)

    def bn_layers(self) -> list[DualBNLayer]:
        """BN layers in stable network order (adapters index by this)."""
        return [bn for _, bn in self.blocks]

    def parameters(self) -> dict[str, Tensor]:
        """Conv weights and BN affine parameters, then the classifier."""
        params = {}
        for i, (conv, bn) in enumerate(self.blocks):
            params[f"block{i}.conv.w"] = conv.weight
            params[f"block{i}.bn.gamma"] = bn.gamma
            params[f"block{i}.bn.beta"] = bn.beta
        params["classifier.w"] = self.classifier.weight
        params["classifier.b"] = self.classifier.bias
        return params

    def bn_stats(self) -> dict[str, np.ndarray]:
        stats = {}
        for i, (_, bn) in enumerate(self.blocks):
            stats[f"block{i}.bn.local_mean"] = bn.local_mean
            stats[f"block{i}.bn.local_var"] = bn.local_var
        return stats

    def set_global_stats(self, stats_per_layer: list[tuple[np.ndarray, np.ndarray]]):
        bns = self.bn_layers()
        if len(stats_per_layer) != len(bns):
            raise ConfigError(
                f"expected stats for {len(bns)} BN layers, got {len(stats_per_layer)}"
            )
        for bn, (mean, var) in zip(bns, stats_per_layer):
            bn.set_global_stats(mean, var)

    def forward(self, x: Tensor, mode: BNMode, mode_context=None) -> tuple[Tensor, Tensor]:
        """Run all layers; returns (pooled features, logits).

        ``mode_context`` supplies whatever the BN mode needs: the list of
        per-layer mix vectors for MIXED_DIVERSIFY, or a callable
        ``alpha_for(layer_index, x) -> Tensor`` of shape (N, 1) for
        INTERPOLATED_ADAPTER.
        """
        weight = self._blend_weight(mode, mode_context)
        h = x
        for i, (conv, bn) in enumerate(self.blocks):
            h = conv(h)
            h = bn.forward_train(h) if weight is None else bn.forward_blend(h, weight(i, h))
            h = T.relu(h)
        features = T.global_avg_pool(h)
        logits = self.classifier(features)
        return features, logits

    def _blend_weight(self, mode: BNMode, mode_context):
        """A blend mode's ``weight(layer_index, h) -> Tensor``; None for TRAIN_BATCH."""
        if mode is BNMode.TRAIN_BATCH:
            return None
        if mode is BNMode.EVAL_GLOBAL:
            return lambda i, h: _GLOBAL_ONLY
        if mode_context is None:
            raise ConfigError(f"{mode} needs mix vectors or an alpha provider")
        if mode is BNMode.INTERPOLATED_ADAPTER:
            return lambda i, h: T.reshape(mode_context(i, h), (h.shape[0], 1, 1, 1))
        if mode is not BNMode.MIXED_DIVERSIFY:
            raise ConfigError(f"unknown BN mode {mode}")
        weights = []
        for bn, u in zip(self.bn_layers(), mode_context):
            u = np.asarray(u, dtype=np.float64)
            if u.shape != (bn.channels,):
                raise ConfigError(f"mix vector shape {u.shape} != ({bn.channels},)")
            weights.append(Tensor(u.reshape(1, bn.channels, 1, 1)))
        return lambda i, h: weights[i]
