"""Feature diversification: mixed-statistics forwards and the local loss.

Local training combines three terms: plain cross-entropy on the batch-stat
forward, cross-entropy on a statistics-diversified forward, and a feature
consistency penalty between the two forwards' pooled features. The blend
vectors are redrawn per iteration, one per BN layer, one weight per channel.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .errors import ConfigError
from .layers import BNMode, SmallConvNet
from .tensor import Tensor


@dataclass
class SamplingDistribution:
    """Distribution for channel interpolation weights: uniform(a,b) or fixed(c)."""

    kind: str  # "uniform" | "fixed"
    low: float
    high: float
    value: float

    def __post_init__(self):
        if self.kind not in ("uniform", "fixed"):
            raise ConfigError(f"unknown sampling distribution kind: {self.kind!r}")
        if self.kind == "uniform" and self.high < self.low:
            raise ConfigError(f"uniform bounds reversed: ({self.low}, {self.high})")

    def draw(self, size: int, rng: np.random.Generator) -> np.ndarray:
        if self.kind == "fixed":
            return np.full(size, self.value)
        return rng.uniform(self.low, self.high, size=size)


@dataclass
class MixContext:
    """Per-BN-layer channel interpolation vectors for one iteration."""

    u_vectors: list[np.ndarray] = field(default_factory=list)


@dataclass
class LossWeights:
    lambda1: float
    lambda2: float

    def __post_init__(self):
        if not 0.0 <= self.lambda1 <= 1.0:
            raise ConfigError(f"lambda1 must be in [0,1], got {self.lambda1}")
        if self.lambda2 < 0.0:
            raise ConfigError(f"lambda2 must be >= 0, got {self.lambda2}")


def sample_mix_context(net: SmallConvNet, distribution: SamplingDistribution,
                       rng: np.random.Generator) -> MixContext:
    """Draw a fresh interpolation vector per BN layer."""
    return MixContext([distribution.draw(bn.channels, rng) for bn in net.bn_layers()])


def local_loss(net: SmallConvNet, batch: Tensor, labels: np.ndarray, ctx: MixContext,
               weights: LossWeights, stop_gradient_features: bool = False):
    """Total local objective and its components.

    total = (1 - lambda1)*ce + lambda1*ce_diversified + lambda2*feature_mse.
    Gradients flow through both forward branches; ``stop_gradient_features``
    detaches the diversified features inside the consistency term only.
    """
    features, logits = net.forward(batch, BNMode.TRAIN_BATCH)
    ce = T.softmax_cross_entropy(logits, labels)

    f_div, logits_div = net.forward(batch, BNMode.MIXED_DIVERSIFY, ctx)
    cacl = T.softmax_cross_entropy(logits_div, labels)
    f_div_for_mse = f_div.detach() if stop_gradient_features else f_div
    cafl = T.mse(features, f_div_for_mse)

    total = T.add(
        T.add(T.mul(Tensor(1.0 - weights.lambda1), ce), T.mul(Tensor(weights.lambda1), cacl)),
        T.mul(Tensor(weights.lambda2), cafl),
    )
    components = {"ce": float(ce.data), "cacl": float(cacl.data), "cafl": float(cafl.data)}
    return total, components
