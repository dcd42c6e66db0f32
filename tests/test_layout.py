"""Memory-layout guards: activations stay batch-innermost behind NCHW shapes.

``conv2d`` writes its output as (C, H, W, N) memory, and every op after it
keeps its input's memory order. An op that silently converted the layout
would still pass every value test but fall off the fast path; these tests
catch that.
"""

import numpy as np
import pytest

import feddiv.tensor as T
from feddiv.adapter import learned_alphas, make_adapters
from feddiv.diversify import LossWeights, SamplingDistribution, local_loss, sample_mix_context
from feddiv.layers import BNMode, SmallConvNet
from feddiv.tensor import Tensor

ITEMSIZE = np.dtype(np.float64).itemsize


def batch_innermost(a: np.ndarray) -> bool:
    return a.strides[0] == ITEMSIZE


def make_setup(seed=0):
    net = SmallConvNet(in_channels=3, widths=(4, 8, 16), num_classes=5, seed=seed)
    rng = np.random.default_rng(seed)
    for bn in net.bn_layers():
        bn.set_global_stats(rng.uniform(-0.5, 0.5, bn.channels),
                            rng.uniform(0.5, 2.0, bn.channels))
    batch = Tensor(rng.uniform(0, 1, (6, 3, 16, 16)))
    labels = rng.integers(0, 5, 6)
    return net, batch, labels, rng


def record_outputs(monkeypatch, names):
    """Patch ``T.<name>`` to record the 4D outputs of each op in ``names``."""
    seen = []
    for name in names:
        original = getattr(T, name)

        def recording(*args, _name=name, _original=original, **kwargs):
            out = _original(*args, **kwargs)
            if out.data.ndim == 4:
                seen.append((_name, out.data))
            return out

        monkeypatch.setattr(T, name, recording)
    return seen


def mode_context(mode, net, rng):
    if mode is BNMode.MIXED_DIVERSIFY:
        return sample_mix_context(net, SamplingDistribution("uniform", 0.0, 1.0, 0.5), rng)
    if mode is BNMode.INTERPOLATED_ADAPTER:
        return learned_alphas(net, make_adapters(net, 8, seed=0), rng)
    return None


@pytest.mark.parametrize("mode", list(BNMode))
def test_forward_activations_batch_innermost(monkeypatch, mode):
    net, batch, _, rng = make_setup()
    ctx = mode_context(mode, net, rng)
    seen = record_outputs(monkeypatch, ["conv2d", "batch_norm_train", "blend_normalize",
                                        "relu"])
    net.forward(batch, mode, ctx)
    assert len(seen) == 3 * len(net.blocks)
    bad = [(name, a.strides) for name, a in seen if not batch_innermost(a)]
    assert not bad


def test_conv_vjp_receives_batch_innermost_gradients(monkeypatch):
    net, batch, labels, rng = make_setup()
    ctx = sample_mix_context(net, SamplingDistribution("uniform", 0.0, 1.0, 0.5), rng)
    received = []
    conv2d = T.conv2d

    def recording_conv2d(*args, **kwargs):
        out = conv2d(*args, **kwargs)
        vjp = out._vjp

        def recording_vjp(g):
            received.append(g)
            return vjp(g)

        out._vjp = recording_vjp
        return out

    monkeypatch.setattr(T, "conv2d", recording_conv2d)
    total, _ = local_loss(net, batch, labels, ctx, LossWeights(0.1, 4.0))
    total.backward()
    # two forward branches through every block
    assert len(received) == 2 * len(net.blocks)
    assert all(batch_innermost(g) for g in received), [g.strides for g in received]


def layouts(a: np.ndarray):
    """The same values as ``a`` in three memory orders."""
    batch_last = np.ascontiguousarray(a.transpose(1, 2, 3, 0)).transpose(3, 0, 1, 2)
    scrambled = np.ascontiguousarray(a.transpose(2, 0, 3, 1)).transpose(1, 3, 0, 2)
    return [np.ascontiguousarray(a), batch_last, scrambled]


@pytest.mark.parametrize("stride,pad", [(1, 0), (1, 1), (2, 1)])
def test_conv2d_same_numbers_for_every_input_layout(stride, pad):
    rng = np.random.default_rng(7)
    x = rng.uniform(-2, 2, (3, 2, 7, 6))
    kernel = rng.uniform(-1, 1, (4, 2, 3, 3))
    g = rng.uniform(-1, 1, T.conv2d(Tensor(x), Tensor(kernel), stride, pad).shape)

    def run(x_data, g_data):
        out = T.conv2d(Tensor(x_data, requires_grad=True),
                       Tensor(kernel, requires_grad=True), stride, pad)
        return (out.data, *out._vjp(g_data))

    want = run(x, g)
    cases = [(xa, g) for xa in layouts(x)] + [(x, ga) for ga in layouts(g)]
    for x_data, g_data in cases:
        assert np.array_equal(x_data, x) and np.array_equal(g_data, g)
        for got, expected in zip(run(x_data, g_data), want):
            assert np.array_equal(got, expected)
