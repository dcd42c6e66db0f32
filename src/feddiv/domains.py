"""Synthetic multi-domain image generation and client partitioning.

Classes are procedural geometric shapes with positional jitter; domains are
per-channel affine transforms plus sinusoidal texture noise, the family of
shifts that normalization statistics capture directly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, InputError


@dataclass
class Dataset:
    """A labeled image set: images (N, C, H, W) in [0,1], integer labels."""

    images: np.ndarray
    labels: np.ndarray

    def __len__(self):
        return len(self.labels)

    def subset(self, idx) -> "Dataset":
        return Dataset(self.images[idx], self.labels[idx])


@dataclass(frozen=True)
class DomainSpec:
    domain_id: int
    gain: tuple[float, float, float] = (1.0, 1.0, 1.0)
    bias: tuple[float, float, float] = (0.0, 0.0, 0.0)
    texture_freq: float = 0.0
    texture_amp: float = 0.0
    seed: int = 0
    gain_jitter: float = 0.0  # per-image multiplicative spread around `gain`
    bias_jitter: float = 0.0  # per-image additive spread around `bias`

    def __post_init__(self):
        if any(g <= 0 for g in self.gain):
            raise InputError(f"domain gains must be positive, got {self.gain}")
        if self.gain_jitter < 0 or self.gain_jitter >= 1 or self.bias_jitter < 0:
            raise InputError("gain_jitter must lie in [0, 1), bias_jitter must be >= 0")


@dataclass
class PartitionSpec:
    """How each domain's samples split across its clients."""

    mode: str  # "iid" | "dirichlet"
    alpha: float  # Dirichlet concentration; unused by "iid"
    n_clients: int

    def __post_init__(self):
        if self.mode not in ("iid", "dirichlet"):
            raise ConfigError(f"unknown partition mode {self.mode!r}")
        if self.mode == "dirichlet" and not self.alpha > 0:
            raise ConfigError(f"dirichlet alpha must be > 0, got {self.alpha}")
        if self.n_clients < 1:
            raise ConfigError(f"need at least one client per domain, got {self.n_clients}")


def _shape_masks(kind: int, cx: np.ndarray, cy: np.ndarray, r: np.ndarray,
                 size: int) -> np.ndarray:
    """Boolean (m, size, size) masks of one class-specific primitive.

    ``kind`` is the label modulo 5; ``cx``, ``cy`` and ``r`` hold one integer
    per image. Bars and squares span ``[centre - a, centre + b)``, cut to the
    canvas.
    """
    ys = np.arange(size)[None, :, None]
    dy = ys - cy[:, None, None]  # (m, size, 1)
    dx = np.arange(size)[None, None, :] - cx[:, None, None]  # (m, 1, size)
    r = r[:, None, None]
    if kind == 0:  # filled square
        return (-r <= dy) & (dy < r) & (-r <= dx) & (dx < r)
    if kind == 1:  # disc
        return dy ** 2 + dx ** 2 <= r * r
    if kind == 2:  # plus
        return (((-r <= dy) & (dy < r) & (-1 <= dx) & (dx < 2))
                | ((-1 <= dy) & (dy < 2) & (-r <= dx) & (dx < r)))
    box = (np.abs(dy) <= r) & (np.abs(dx) <= r)
    if kind == 3:  # horizontal stripes
        return (ys % 4 < 2) & box
    # diagonal cross
    return ((np.abs(dy - dx) <= 1) | (np.abs(dy + dx) <= 1)) & box


def generate_base(n: int, classes: int, size: int = 16, seed: int = 0,
                  channels: int = 3) -> Dataset:
    """Balanced, deterministic pool of shape images on a neutral background.

    Image ``i`` has label ``i % classes`` and draws, in order, three jitter
    integers (centre x, centre y, radius) and a ``size x size`` block of
    pixel noise. Only those draws run per image; each shape kind is then
    painted for all its images at once.
    """
    # Five shape kinds: a sixth class would draw the first class's images.
    if not 2 <= classes <= 5:
        raise InputError(f"classes must be in [2, 5], got {classes}")
    if size < 8:
        raise InputError("image size must be >= 8")
    rng = np.random.default_rng(np.random.SeedSequence([seed, 401]))
    integers, standard_normal = rng.integers, rng.standard_normal
    noise = np.empty((n, size, size))
    jitter = []
    for block in noise:
        jitter += integers(-1, 2), integers(-1, 2), integers(-1, 2)
        standard_normal(out=block)
    # N(0, 0.02) draws: numpy's normal() returns 0.0 + 0.02 * z, which
    # differs from 0.02 * z only in the sign of a zero; adding the 0.15 or
    # 0.85 canvas below erases that difference
    noise *= 0.02
    cx, cy, r = (np.array(jitter, dtype=np.int64).reshape(n, 3)
                 + [size // 2, size // 2, size // 3]).T
    labels = np.arange(n, dtype=np.int64) % classes
    mask = np.empty((n, size, size), dtype=bool)
    kinds = labels % 5
    for kind in range(min(classes, 5)):
        idx = np.flatnonzero(kinds == kind)
        mask[idx] = _shape_masks(kind, cx[idx], cy[idx], r[idx], size)
    canvas = np.where(mask, 0.85, 0.15)
    canvas += noise
    np.clip(canvas, 0.0, 1.0, out=canvas)
    images = np.empty((n, channels, size, size))
    images[:] = canvas[:, None]
    return Dataset(images, labels)


def apply_domain(dataset: Dataset, spec: DomainSpec) -> Dataset:
    """x' = clamp(g*x + b + texture, 0, 1); labels unchanged."""
    rng = np.random.default_rng(np.random.SeedSequence([spec.seed, spec.domain_id, 907]))
    n, c, h, w = dataset.images.shape
    gain = np.broadcast_to(np.asarray(spec.gain).reshape(1, c, 1, 1), (n, c, 1, 1))
    bias = np.broadcast_to(np.asarray(spec.bias).reshape(1, c, 1, 1), (n, c, 1, 1))
    if spec.gain_jitter > 0:
        gain = gain * (1.0 + rng.uniform(-spec.gain_jitter, spec.gain_jitter, size=(n, c, 1, 1)))
    if spec.bias_jitter > 0:
        bias = bias + rng.uniform(-spec.bias_jitter, spec.bias_jitter, size=(n, c, 1, 1))
    out = gain * dataset.images
    out += bias
    if spec.texture_amp > 0:
        # (n, h, 1) times (n, 1, w): each factor is evaluated once per row or
        # column, and each product is the one a full (h, w) grid would give
        ys = np.arange(h).reshape(1, h, 1)
        xs = np.arange(w).reshape(1, 1, w)
        phases = rng.uniform(0, 2 * np.pi, size=(n, 2))
        wave = np.sin(2 * np.pi * spec.texture_freq * ys / h + phases[:, 0, None, None]) \
            * np.sin(2 * np.pi * spec.texture_freq * xs / w + phases[:, 1, None, None])
        out += spec.texture_amp * wave[:, None, :, :]
    np.clip(out, 0.0, 1.0, out=out)
    return Dataset(out, dataset.labels.copy())


def partition(dataset: Dataset, spec: PartitionSpec, seed: int) -> list[Dataset]:
    """Split a dataset across clients, IID or Dirichlet-skewed by label."""
    n = len(dataset)
    if n < spec.n_clients:
        raise InputError(f"cannot split {n} samples across {spec.n_clients} clients")
    rng = np.random.default_rng(np.random.SeedSequence([seed, 733]))
    classes = np.unique(dataset.labels)
    client_indices: list[list[int]] = [[] for _ in range(spec.n_clients)]

    if spec.mode == "iid":
        # stratified round-robin: per-client class histograms match within 1
        for offset, cls in enumerate(classes):
            idx = rng.permutation(np.flatnonzero(dataset.labels == cls))
            for i, sample in enumerate(idx):
                client_indices[(i + offset) % spec.n_clients].append(int(sample))
    else:
        # A client needs one training and one validation sample; a split that
        # leaves one with fewer than 2 is redrawn whole from the same stream.
        for _ in range(100):
            client_indices = [[] for _ in range(spec.n_clients)]
            for cls in classes:
                idx = rng.permutation(np.flatnonzero(dataset.labels == cls))
                props = rng.dirichlet(np.full(spec.n_clients, spec.alpha))
                cuts = (np.cumsum(props)[:-1] * len(idx)).astype(int)
                for j, chunk in enumerate(np.split(idx, cuts)):
                    client_indices[j].extend(chunk.tolist())
            if min(map(len, client_indices)) >= 2:
                break
        else:
            raise InputError(f"no Dirichlet split (alpha={spec.alpha}) in 100 draws gives "
                             f"each of {spec.n_clients} clients 2 of {n} samples")

    out = []
    for idx in client_indices:
        idx = np.sort(np.asarray(idx, dtype=np.int64))
        out.append(dataset.subset(idx))
    return out


DEFAULT_DOMAIN_SPECS = [
    DomainSpec(0, gain=(1.0, 1.0, 1.0), bias=(0.0, 0.0, 0.0), texture_freq=0.0,
               texture_amp=0.0),
    DomainSpec(1, gain=(1.4, 0.7, 1.0), bias=(0.12, -0.08, 0.0), texture_freq=2.0,
               texture_amp=0.08),
    DomainSpec(2, gain=(0.6, 1.3, 0.9), bias=(-0.05, 0.15, 0.05), texture_freq=3.0,
               texture_amp=0.10),
    DomainSpec(3, gain=(1.54, 0.55, 0.775), bias=(0.198, -0.108, 0.108), texture_freq=4.0,
               texture_amp=0.135, gain_jitter=0.15, bias_jitter=0.05),
]


@dataclass
class Benchmark:
    """Leave-one-domain-out split: training clients plus a held-out test set."""

    train_clients: list[dict]  # {"domain_id", "train": Dataset, "val": Dataset}
    test_set: Dataset
    held_out_domain: int


def build_benchmark(domain_specs: list[DomainSpec], held_out: int, samples_per_client: int,
                    classes: int, size: int, seed: int, val_fraction: float,
                    test_samples: int, partition_spec: PartitionSpec) -> Benchmark:
    """Generate the full leave-one-domain-out benchmark deterministically.

    ``partition_spec`` splits each domain across its clients.
    """
    if len(domain_specs) < 2:
        raise InputError("need at least 2 domains for leave-one-domain-out")
    if not any(s.domain_id == held_out for s in domain_specs):
        raise InputError(f"held-out domain {held_out} not among specs")

    clients_per_domain = partition_spec.n_clients
    train_clients = []
    for spec in domain_specs:
        if spec.domain_id == held_out:
            continue
        total = samples_per_client * clients_per_domain
        base = generate_base(total, classes, size, seed=seed * 1000 + spec.domain_id)
        shifted = apply_domain(base, spec)
        if clients_per_domain == 1:
            # The whole domain is the client. partition() would return the
            # same samples in the same order, but as a copy: on the
            # benchmark's fedfd_a-small workload that raised peak RSS from
            # 71 MB to 76 MB (+7%).
            parts = [shifted]
        else:
            parts = partition(shifted, partition_spec, seed=seed * 1000 + spec.domain_id)
        for part in parts:
            n_part_val = max(1, int(round(len(part) * val_fraction)))
            rng = np.random.default_rng(
                np.random.SeedSequence([seed, spec.domain_id, len(train_clients), 271]))
            perm = rng.permutation(len(part))
            val_idx, train_idx = perm[:n_part_val], perm[n_part_val:]
            train_clients.append({
                "domain_id": spec.domain_id,
                "train": part.subset(np.sort(train_idx)),
                "val": part.subset(np.sort(val_idx)),
            })

    test_spec = next(s for s in domain_specs if s.domain_id == held_out)
    test_base = generate_base(test_samples, classes, size, seed=seed * 1000 + 777)
    test_set = apply_domain(test_base, test_spec)
    return Benchmark(train_clients, test_set, held_out)

