"""Tape-size guard: the number of autodiff nodes one FedFD-A step records.

The counts are those of a three-block net: a later change that grows the
tape of a local step or of an adapter step fails here and has to update
the numbers on purpose.
"""

import numpy as np

import feddiv.tensor as T
from feddiv.adapter import adapter_parameters, adapter_train_step, make_adapters
from feddiv.diversify import LossWeights, SamplingDistribution, local_loss, sample_mix_context
from feddiv.federation import SGD
from feddiv.layers import SmallConvNet
from feddiv.tensor import Tensor

# Local loss: 13 nodes per forward branch (3 x conv/BN/relu, pool, linear
# matmul and add, cross-entropy), the feature MSE, and 5 for the weighted sum.
LOCAL_LOSS_NODES = 32
# Adapter step with the main net frozen: 10 nodes per adapter-to-alpha chain,
# alpha reshape, blend and relu per layer, 2 data-only convs, pool, linear
# matmul and add, cross-entropy.
ADAPTER_STEP_NODES = 45


def tape_nodes(root: Tensor) -> int:
    """Distinct nodes with a VJP reachable from ``root`` through ``_parents``."""
    seen, stack = set(), [root]
    while stack:
        node = stack.pop()
        if node in seen or node._vjp is None:
            continue
        seen.add(node)
        stack.extend(node._parents)
    return len(seen)


def make_setup(seed=0):
    net = SmallConvNet(in_channels=3, widths=(8, 16, 32), num_classes=5, seed=seed)
    rng = np.random.default_rng(seed)
    for bn in net.bn_layers():
        bn.set_global_stats(rng.uniform(-0.5, 0.5, bn.channels),
                            rng.uniform(0.5, 2.0, bn.channels))
    batch = Tensor(rng.uniform(0, 1, (16, 3, 16, 16)))
    labels = rng.integers(0, 5, 16)
    return net, batch, labels, rng


def test_local_loss_tape_size():
    net, batch, labels, rng = make_setup()
    ctx = sample_mix_context(net, SamplingDistribution("uniform", 0.0, 1.0, 0.5), rng)
    total, _ = local_loss(net, batch, labels, ctx, LossWeights(0.1, 4.0))
    assert tape_nodes(total) == LOCAL_LOSS_NODES


def test_adapter_step_tape_size(monkeypatch):
    net, batch, labels, rng = make_setup()
    adapters = make_adapters(net, 32, seed=0)
    losses = []
    cross_entropy = T.softmax_cross_entropy

    def recording_cross_entropy(logits, y):
        losses.append(cross_entropy(logits, y))
        return losses[-1]

    monkeypatch.setattr(T, "softmax_cross_entropy", recording_cross_entropy)
    adapter_train_step(net, adapters, batch, labels,
                       SGD(adapter_parameters(adapters), lr=0.005), rng)
    assert len(losses) == 1
    assert tape_nodes(losses[0]) == ADAPTER_STEP_NODES
