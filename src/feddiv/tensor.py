"""Dense float64 tensors with reverse-mode automatic differentiation.

The operation set is intentionally small: exactly what a conv/BN/linear
classifier with statistic-mixing normalization needs. Normalization is two
fused ops: ``batch_norm_train`` for mini-batch statistics and
``blend_normalize`` for every blend of instance and global statistics,
global-only test-time BN included. The graph is a dynamic tape rebuilt on
every forward pass.
"""

from __future__ import annotations

import contextlib
import functools
import warnings

import numpy as np

from .errors import InputError, ShapeError

_grad_enabled = True


@contextlib.contextmanager
def no_grad():
    """Disable tape recording inside the block (pure inference)."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


class Tensor:
    """A float64 array plus an optional gradient buffer.

    Non-leaf tensors remember their parents and a VJP closure; calling
    ``backward()`` on a scalar accumulates d(scalar)/d(leaf) into the
    ``grad`` buffer of every leaf with ``requires_grad``. Intermediate nodes
    keep ``grad`` at None.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_vjp")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._parents: tuple[Tensor, ...] = ()
        self._vjp = None

    @property
    def shape(self):
        return self.data.shape

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    def zero_grad(self):
        self.grad = None

    def detach(self) -> "Tensor":
        return Tensor(self.data.copy())

    def __getitem__(self, idx):
        return getitem(self, idx)

    # -- autodiff --------------------------------------------------------
    def backward(self):
        """Accumulate gradients of this scalar into all requiring leaves.

        Repeated calls without zeroing add up, matching the usual
        accumulate-into-grad contract.
        """
        if self.data.size != 1:
            raise InputError(f"backward() needs a scalar loss, got shape {self.data.shape}")

        # Post-order DFS: every node lands after the inputs it was built from.
        # Tensors hash by identity, so they key the visited set and grads.
        topo: list[Tensor] = []
        visited: set[Tensor] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if node in visited or not node.requires_grad:
                continue
            visited.add(node)
            stack.append((node, True))
            for p in node._parents:
                if p.requires_grad and p not in visited:
                    stack.append((p, False))

        # Consumers come before their inputs here, so a node's gradient is
        # complete when it is reached.
        grads: dict[Tensor, np.ndarray] = {self: np.ones_like(self.data)}
        for node in reversed(topo):
            g = grads.pop(node, None)
            if g is None:
                continue
            if node._vjp is None:  # a leaf
                node.grad = g.copy() if node.grad is None else node.grad + g
                continue
            for parent, pg in zip(node._parents, node._vjp(g)):
                if pg is None or not parent.requires_grad:
                    continue
                acc = grads.get(parent)
                grads[parent] = pg if acc is None else acc + pg


def _make(data: np.ndarray, parents: tuple[Tensor, ...], vjp) -> Tensor:
    out = Tensor(data, requires_grad=_grad_enabled and any(p.requires_grad for p in parents))
    if out.requires_grad:
        out._parents = parents
        out._vjp = vjp
    return out


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum gradient over axes that numpy broadcasting expanded."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for ax, n in enumerate(shape):
        if n == 1 and g.shape[ax] != 1:
            g = g.sum(axis=ax, keepdims=True)
    return g


# -- elementwise ---------------------------------------------------------

# Each VJP returns None for a parent that does not require grad: frozen
# weights and constant inputs cost nothing in the backward pass.

def add(a: Tensor, b: Tensor) -> Tensor:
    def vjp(g):
        return (_unbroadcast(g, a.shape) if a.requires_grad else None,
                _unbroadcast(g, b.shape) if b.requires_grad else None)

    return _make(a.data + b.data, (a, b), vjp)


def sub(a: Tensor, b: Tensor) -> Tensor:
    def vjp(g):
        return (_unbroadcast(g, a.shape) if a.requires_grad else None,
                _unbroadcast(-g, b.shape) if b.requires_grad else None)

    return _make(a.data - b.data, (a, b), vjp)


def mul(a: Tensor, b: Tensor) -> Tensor:
    def vjp(g):
        return (_unbroadcast(g * b.data, a.shape) if a.requires_grad else None,
                _unbroadcast(g * a.data, b.shape) if b.requires_grad else None)

    return _make(a.data * b.data, (a, b), vjp)


def div(a: Tensor, b: Tensor) -> Tensor:
    data = a.data / b.data
    return _make(
        data,
        (a, b),
        lambda g: (
            _unbroadcast(g / b.data, a.shape),
            _unbroadcast(-g * a.data / (b.data * b.data), b.shape),
        ),
    )


def relu(x: Tensor) -> Tensor:
    mask = x.data > 0  # subgradient at 0 is 0
    # fmax maps NaN to 0 and keeps x's memory order; adding 0.0 turns -0.0
    # into +0.0, so this equals np.where(mask, x, 0.0) bit for bit.
    out = np.fmax(x.data, 0.0)
    out += 0.0
    return _make(out, (x,), lambda g: (g * mask,))


def sqrt(x: Tensor) -> Tensor:
    root = np.sqrt(x.data)
    return _make(root, (x,), lambda g: (g * 0.5 / root,))


def clamp(x: Tensor, lo: float, hi: float) -> Tensor:
    data = np.clip(x.data, lo, hi)
    mask = (x.data > lo) & (x.data < hi)  # zero gradient on the boundary
    return _make(data, (x,), lambda g: (g * mask,))


# -- shape ---------------------------------------------------------------

def reshape(x: Tensor, shape) -> Tensor:
    old = x.shape
    return _make(x.data.reshape(shape), (x,), lambda g: (g.reshape(old),))


def getitem(x: Tensor, idx) -> Tensor:
    def vjp(g):
        gx = np.zeros_like(x.data)
        np.add.at(gx, idx, g)
        return (gx,)

    return _make(x.data[idx], (x,), vjp)


def tsum(x: Tensor, axis=None, keepdims=False) -> Tensor:
    data = x.data.sum(axis=axis, keepdims=keepdims)

    def vjp(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        gx = np.empty_like(x.data)  # in x's memory order
        np.copyto(gx, np.broadcast_to(g, x.shape))
        return (gx,)

    return _make(data, (x,), vjp)


def tmean(x: Tensor, axis=None, keepdims=False) -> Tensor:
    data = x.data.mean(axis=axis, keepdims=keepdims)
    count = x.data.size / data.size

    def vjp(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        # written in x's memory order: a C-ordered gradient would make every
        # VJP upstream of a batch-innermost activation mix two layouts
        return (np.divide(np.broadcast_to(g, x.shape), count, out=np.empty_like(x.data)),)

    return _make(data, (x,), vjp)


# -- linear algebra ------------------------------------------------------

def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim != 2 or b.data.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul: incompatible shapes {a.shape} x {b.shape}")

    def vjp(g):
        return (g @ b.data.T if a.requires_grad else None,
                a.data.T @ g if b.requires_grad else None)

    return _make(a.data @ b.data, (a, b), vjp)


def conv2d(x: Tensor, w: Tensor, stride: int = 1, pad: int = 0) -> Tensor:
    """Direct 2D convolution (cross-correlation), NCHW x FCkk -> NFH'W'.

    The output has the logical NCHW shape but is laid out batch-innermost,
    as (F, H', W', N) memory. Fed such an input, im2col copies contiguous
    runs over the batch, and the VJP reads ``g`` without a copy. Any other
    input layout is accepted and gives the same numbers.
    """
    if x.data.ndim != 4 or w.data.ndim != 4:
        raise ShapeError(f"conv2d: need 4D input and kernel, got {x.shape}, {w.shape}")
    n, c, h, wd = x.shape
    f, cw, kh, kw = w.shape
    if cw != c:
        raise ShapeError(f"conv2d: channel mismatch, input {x.shape} vs kernel {w.shape}")
    if stride < 1:
        raise InputError(f"conv2d: stride must be >= 1, got {stride}")
    if kh > h + 2 * pad or kw > wd + 2 * pad:
        raise ShapeError(
            f"conv2d: kernel {w.shape} larger than padded input {x.shape} (pad={pad})"
        )
    ho = (h + 2 * pad - kh) // stride + 1
    wo = (wd + 2 * pad - kw) // stride + 1

    hp, wp = h + 2 * pad, wd + 2 * pad
    x_chwn = x.data.transpose(1, 2, 3, 0)
    if pad:
        xp = np.zeros((c, hp, wp, n))
        xp[:, pad : pad + h, pad : pad + wd] = x_chwn
    else:
        xp = np.ascontiguousarray(x_chwn)
    # im2col: one strided view in (c, kh, kw, ho, wo, n) order, copied once.
    sc, sh, sw, sn = xp.strides
    windows = np.lib.stride_tricks.as_strided(
        xp, shape=(c, kh, kw, ho, wo, n),
        strides=(sc, sh, sw, stride * sh, stride * sw, sn), writeable=False)
    ckk = c * kh * kw
    cols_flat = windows.reshape(ckk, ho * wo * n)
    w2 = w.data.reshape(f, ckk)
    out = (w2 @ cols_flat).reshape(f, ho, wo, n).transpose(3, 0, 1, 2)

    def vjp(g):
        # a view when g is batch-innermost, as every op downstream keeps it
        g_flat = g.transpose(1, 2, 3, 0).reshape(f, ho * wo * n)
        gw = (g_flat @ cols_flat.T).reshape(w.shape) if w.requires_grad else None
        gx = None
        if x.requires_grad:
            gcols = w2.T @ g_flat  # rows in (c, kh, kw), columns in (ho, wo, n) order
            index = _col2im_index(n, c, hp, wp, kh, kw, ho, wo, stride)
            gxp = np.bincount(index, weights=gcols.reshape(-1),
                              minlength=c * hp * wp * n).reshape(c, hp, wp, n)
            if pad:
                gxp = gxp[:, pad : pad + h, pad : pad + wd]
            gx = gxp.transpose(3, 0, 1, 2)
        return (gx, gw)

    return _make(out, (x, w), vjp)


@functools.lru_cache(maxsize=16)
def _col2im_index(n, c, hp, wp, kh, kw, ho, wo, stride) -> np.ndarray:
    """Flat (c, hp, wp, n) padded-input position of every im2col entry.

    Entries come in (c, kh, kw, ho, wo, n) order. ``np.bincount`` adds
    weights in array order, so in this tap-major order each input cell sums
    its kernel taps in the same order as a loop over (kh, kw) with strided
    ``+=`` would, and col2im stays bit-for-bit equal to that loop. The
    cache is keyed by shape and bounded.

    Timed with one BLAS thread, ``np.bincount`` over this index against the
    9-tap loop: 42 against 89 us at batch 16, 8 channels, 8x8; 25 against
    77 us at batch 16, 16 channels, 4x4; but 452 against 335 us at batch 64,
    16 channels, 8x8. The loop would cost the benchmark's batch-16 workloads
    more than it saves its batch-64 one; a choice by shape could serve both.
    """
    ci = np.arange(c).reshape(c, 1, 1, 1, 1, 1)
    ki = np.arange(kh).reshape(1, kh, 1, 1, 1, 1)
    kj = np.arange(kw).reshape(1, 1, kw, 1, 1, 1)
    oy = np.arange(ho).reshape(1, 1, 1, ho, 1, 1)
    ox = np.arange(wo).reshape(1, 1, 1, 1, wo, 1)
    ni = np.arange(n).reshape(1, 1, 1, 1, 1, n)
    index = (((ci * hp + ki + stride * oy) * wp + kj + stride * ox) * n + ni).reshape(-1)
    index.setflags(write=False)
    return index


def global_avg_pool(x: Tensor) -> Tensor:
    """N x C x H x W -> N x C, averaging spatial positions."""
    if x.data.ndim != 4:
        raise ShapeError(f"global_avg_pool: need 4D input, got {x.shape}")
    return tmean(x, axis=(2, 3))


# -- fused normalization -------------------------------------------------

def batch_norm_train(x: Tensor, gamma: Tensor, beta: Tensor, eps: float,
                     batch_stats: list | None = None) -> Tensor:
    """Mini-batch normalization with affine transform, fused into one node.

    ``gamma``/``beta`` are (C,). Returns gamma * (x - mu)/sigma + beta where
    the statistics are taken over the (N, H, W) axes with biased variance.
    If ``batch_stats`` is given, the batch mean and biased variance, each
    (C,), are appended to it, so a caller updating running buffers need not
    recompute them. The variance is the mean of squared deviations from the
    mean, the same arithmetic as ``np.var``.
    """
    n, c, h, w = x.shape
    m = n * h * w
    mu = x.data.mean(axis=(0, 2, 3), keepdims=True)
    xc = x.data - mu
    var = (xc * xc).mean(axis=(0, 2, 3), keepdims=True)
    if batch_stats is not None:
        batch_stats.extend((mu.reshape(c), var.reshape(c)))
    s = np.sqrt(var + eps)
    xn = xc / s
    gd = gamma.data.reshape(1, c, 1, 1)
    out = xn * gd + beta.data.reshape(1, c, 1, 1)

    def vjp(g):
        ggamma = (g * xn).sum(axis=(0, 2, 3))
        gbeta = g.sum(axis=(0, 2, 3))
        gx = (gd / s) * (
            g
            - gbeta.reshape(1, c, 1, 1) / m
            - xn * ggamma.reshape(1, c, 1, 1) / m
        )
        return (gx, ggamma, gbeta)

    return _make(out, (x, gamma, beta), vjp)


def _instance_moments(x: np.ndarray, eps: float):
    """Each sample's per-channel spatial mean, centred input and std.

    Returns ``(mu, x - mu, sqrt(var + eps))``; ``mu`` and the std are
    (N, C, 1, 1) and ``var`` is the biased variance. This is the arithmetic
    of ``np.mean``/``np.var`` over axes (2, 3), bit for bit, without their
    Python wrappers: sum, divide by the count, centre, square, sum, divide.
    """
    m = x.shape[2] * x.shape[3]
    mu = np.add.reduce(x, axis=(2, 3), keepdims=True)
    mu /= m
    xm = x - mu
    var = np.add.reduce(xm * xm, axis=(2, 3), keepdims=True)
    var /= m
    var += eps
    return mu, xm, np.sqrt(var, out=var)


def blend_normalize(x: Tensor, w: Tensor, mu_g: np.ndarray, sigma_g: np.ndarray,
                    gamma: Tensor, beta: Tensor, eps: float) -> Tensor:
    """Normalize by ``w * instance + (1 - w) * global`` statistics, one tape node.

    Instance statistics are each sample's per-channel spatial mean and std
    (biased variance plus ``eps``). ``w`` broadcasts against (N, C, 1, 1):
    (1, C, 1, 1) blends per channel (feature diversification, MixStyle),
    (N, 1, 1, 1) per sample (adapter interpolation), and a constant zero
    normalizes by the global statistics alone (test-time BN). ``mu_g``/
    ``sigma_g`` are constant global statistics shaped (1, C, 1, 1);
    ``gamma``/``beta`` are (C,). If a blended std is <= 0 (``w`` outside
    [0, 1]), every std is clamped to at least ``eps`` with a warning, and the
    clamped entries pass no gradient. Gradients flow into ``x``, ``w``,
    ``gamma`` and ``beta``.

    Instance statistics are computed only when they carry weight or ``w``
    needs a gradient; otherwise the spatial size may be 1.
    """
    if x.data.ndim != 4:
        raise ShapeError(f"blend_normalize: need NCHW input, got {x.shape}")
    _, c, h, wd = x.shape
    m = h * wd
    wv = w.data
    instance = w.requires_grad or wv.any()
    live = None
    if instance:
        if m < 2:
            raise InputError("blend_normalize: spatial size must be >= 2, std undefined "
                             "for 1 pixel")
        mu_i, xm, sigma_i = _instance_moments(x.data, eps)
        one_minus = 1.0 - wv
        # Where w == 0 the instance statistics get no weight, not 0 times their
        # value: an overflowing instance std would make that 0 * inf = NaN. The
        # sums are taken in place so mu and sigma keep x's memory order.
        blended = wv != 0
        mu = np.multiply(wv, mu_i, out=np.zeros_like(mu_i), where=blended)
        mu += one_minus * mu_g
        sigma = np.multiply(wv, sigma_i, out=np.zeros_like(sigma_i), where=blended)
        sigma += one_minus * sigma_g
        if np.any(sigma <= 0):
            warnings.warn("mixed std reached <= 0 under extrapolation; clamping to eps")
            live = sigma > eps
            sigma = np.clip(sigma, eps, np.inf)
    else:
        mu, sigma = mu_g, sigma_g
    gd = gamma.data.reshape(1, c, 1, 1)
    xn = (x.data - mu) / sigma
    out = xn * gd + beta.data.reshape(1, c, 1, 1)

    def vjp(g):
        gx = gw = ggamma = gbeta = None
        if not instance:
            if x.requires_grad:
                gx = g * (gd / sigma)
        elif x.requires_grad or w.requires_grad:
            gk = g * (gd / sigma)
            gmu = -gk.sum(axis=(2, 3), keepdims=True)
            gsigma = -(gk * xn).sum(axis=(2, 3), keepdims=True)
            if live is not None:
                gsigma = gsigma * live
            if x.requires_grad:
                # direct term, then the paths through the instance mean and std
                gx = gk + (wv / m) * ((gsigma / sigma_i) * xm + gmu)
            if w.requires_grad:
                gw = _unbroadcast(gmu * (mu_i - mu_g) + gsigma * (sigma_i - sigma_g), w.shape)
        if gamma.requires_grad:
            ggamma = (g * xn).sum(axis=(0, 2, 3))
        if beta.requires_grad:
            gbeta = g.sum(axis=(0, 2, 3))
        return (gx, gw, ggamma, gbeta)

    return _make(out, (x, w, gamma, beta), vjp)


# -- losses --------------------------------------------------------------

def softmax_cross_entropy(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Mean over the batch of -log softmax(logits)[label], max-stabilized."""
    if logits.data.ndim != 2:
        raise ShapeError(f"softmax_cross_entropy: logits must be 2D, got {logits.shape}")
    labels = np.asarray(labels)
    n, y = logits.shape
    if labels.shape != (n,):
        raise InputError(f"labels shape {labels.shape} does not match batch size {n}")
    if labels.min() < 0 or labels.max() >= y:
        raise InputError(f"labels must lie in [0, {y}), got range [{labels.min()}, {labels.max()}]")

    shifted = logits.data - logits.data.max(axis=1, keepdims=True)
    logsumexp = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    logprob = shifted - logsumexp
    loss = -logprob[np.arange(n), labels].mean()

    def vjp(g):
        grad = np.exp(logprob)
        grad[np.arange(n), labels] -= 1.0
        return (grad * (g / n),)

    return _make(np.float64(loss), (logits,), vjp)


def mse(a: Tensor, b: Tensor) -> Tensor:
    """Batch-averaged squared L2 distance: (1/N) sum_i ||a_i - b_i||^2."""
    if a.shape != b.shape:
        raise ShapeError(f"mse: shape mismatch {a.shape} vs {b.shape}")
    n = a.shape[0]
    diff = a.data - b.data
    loss = (diff * diff).sum() / n

    def vjp(g):
        ga = (2.0 / n) * diff * g
        return (ga, -ga)

    return _make(np.float64(loss), (a, b), vjp)
