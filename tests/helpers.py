"""Shared test oracles: finite differences, relative error, model read-outs."""

import numpy as np

from feddiv.domains import Dataset
from feddiv.federation import evaluate_net, extract_bundle, is_bn_stat
from feddiv.tensor import Tensor


def numeric_grad(f, x: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Central finite differences of a scalar-valued f at x."""
    x = np.asarray(x, dtype=np.float64)
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = f(x)
        flat[i] = orig - h
        fm = f(x)
        flat[i] = orig
        g.reshape(-1)[i] = (fp - fm) / (2 * h)
    return g


def rel_err(a: np.ndarray, b: np.ndarray) -> float:
    denom = max(np.abs(a).max(initial=0.0), np.abs(b).max(initial=0.0), 1e-8)
    return float(np.abs(a - b).max() / denom)


def check_grads(build_loss, params: list[Tensor], tol: float = 1e-4, h: float = 1e-5):
    """Compare autodiff grads of build_loss() against central differences.

    ``build_loss`` must rebuild the graph from the current parameter data
    on every call; ``params`` are the leaves to check.
    """
    loss = build_loss()
    for p in params:
        p.zero_grad()
    loss.backward()
    for p in params:
        num = numeric_grad(lambda _x, p=p: float(build_loss().data), p.data, h=h)
        assert p.grad is not None, "parameter received no gradient"
        err = rel_err(p.grad, num)
        assert err < tol, f"gradient mismatch: rel err {err:.3e} >= {tol}"


def bn_stats(net) -> dict:
    """Copies of every BN layer's running ``local_mean`` and ``local_var``."""
    return {k: v for k, v in extract_bundle(net, None).items() if is_bn_stat(k)}


def inference_logits(net, adapters, images: np.ndarray, mode: str, fixed_value=None,
                     rng=None) -> np.ndarray:
    """The logits ``evaluate_net`` computes for ``images`` in ``mode``, in image order."""
    seen = []
    forward = net.forward

    def recording(*args):
        out = forward(*args)
        seen.append(out[1].data)
        return out

    net.forward = recording
    try:
        evaluate_net(net, adapters, Dataset(images, np.zeros(len(images), dtype=np.int64)),
                     mode, fixed_value, rng)
    finally:
        del net.forward
    return np.concatenate(seen)
