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


def generate_base(n: int, classes: int, size: int = 16, seed: int = 0) -> Dataset:
    """Balanced, deterministic pool of shape images on a neutral background.

    Image ``i`` has label ``i % classes`` and draws, in order, three jitter
    integers (centre x, centre y, radius) and a ``size x size`` block of
    pixel noise. Only those draws run per image; each shape kind is then
    painted for all its images at once.

    The three channels are one grey canvas: ``images`` is a read-only
    ``(n, 3, size, size)`` view of one ``(n, size, size)`` array, with
    channel stride 0. ``apply_domain`` reads it into a new array.
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
    return Dataset(np.broadcast_to(canvas[:, None], (n, 3, size, size)), labels)


def apply_domain(dataset: Dataset, spec: DomainSpec) -> Dataset:
    """x' = clamp(g*x + b + texture, 0, 1); labels unchanged."""
    # The jitter draws depend on the domain alone, not on the run's seed.
    rng = np.random.default_rng(np.random.SeedSequence([0, spec.domain_id, 907]))
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
        wave *= spec.texture_amp
        out += wave[:, None]
    np.clip(out, 0.0, 1.0, out=out)
    return Dataset(out, dataset.labels.copy())


def partition(labels: np.ndarray, spec: PartitionSpec, seed: int) -> list[np.ndarray]:
    """Each client's sample indices, sorted: IID or Dirichlet-skewed by label.

    A client needs one training and one validation sample, so each gets at
    least 2; a split that cannot give them raises ``InputError``.
    """
    n = len(labels)
    if n < spec.n_clients:
        raise InputError(f"cannot split {n} samples across {spec.n_clients} clients")
    rng = np.random.default_rng(np.random.SeedSequence([seed, 733]))
    # Not np.unique: it imports numpy.ma, about 1 MB of resident modules
    # that nothing else in a run loads.
    classes = sorted(set(labels.tolist()))
    client_indices: list[list[int]] = [[] for _ in range(spec.n_clients)]

    if spec.mode == "iid":
        # stratified round-robin: per-client class histograms match within 1
        for offset, cls in enumerate(classes):
            idx = rng.permutation(np.flatnonzero(labels == cls))
            for i, sample in enumerate(idx):
                client_indices[(i + offset) % spec.n_clients].append(int(sample))
        if min(map(len, client_indices)) < 2:
            raise InputError(f"an IID split of {n} samples leaves one of {spec.n_clients} "
                             f"clients fewer than 2")
    else:
        # A split that leaves a client fewer than 2 samples is redrawn whole
        # from the same stream.
        for _ in range(100):
            client_indices = [[] for _ in range(spec.n_clients)]
            for cls in classes:
                idx = rng.permutation(np.flatnonzero(labels == cls))
                props = rng.dirichlet(np.full(spec.n_clients, spec.alpha))
                cuts = (np.cumsum(props)[:-1] * len(idx)).astype(int)
                for j, chunk in enumerate(np.split(idx, cuts)):
                    client_indices[j].extend(chunk.tolist())
            if min(map(len, client_indices)) >= 2:
                break
        else:
            raise InputError(f"no Dirichlet split (alpha={spec.alpha}) in 100 draws gives "
                             f"each of {spec.n_clients} clients 2 of {n} samples")
    return [np.sort(np.asarray(idx, dtype=np.int64)) for idx in client_indices]


_HAND_TUNED_SPECS = [
    DomainSpec(0, gain=(1.0, 1.0, 1.0), bias=(0.0, 0.0, 0.0), texture_freq=0.0,
               texture_amp=0.0),
    DomainSpec(1, gain=(1.4, 0.7, 1.0), bias=(0.12, -0.08, 0.0), texture_freq=2.0,
               texture_amp=0.08),
    DomainSpec(2, gain=(0.6, 1.3, 0.9), bias=(-0.05, 0.15, 0.05), texture_freq=3.0,
               texture_amp=0.10),
    DomainSpec(3, gain=(1.54, 0.55, 0.775), bias=(0.198, -0.108, 0.108), texture_freq=4.0,
               texture_amp=0.135, gain_jitter=0.15, bias_jitter=0.05),
]


def domain_specs(n_domains: int) -> list[DomainSpec]:
    """The benchmark's domains: four hand-tuned, then extras drawn procedurally."""
    specs = _HAND_TUNED_SPECS[:n_domains]
    rng = np.random.default_rng(2024)
    for d in range(len(specs), n_domains):
        gain = tuple(rng.uniform(0.5, 1.6, size=3))
        bias = tuple(rng.uniform(-0.15, 0.25, size=3))
        specs.append(DomainSpec(d, gain, bias, texture_freq=float(rng.uniform(1, 5)),
                                texture_amp=float(rng.uniform(0.05, 0.15))))
    return specs


@dataclass
class Benchmark:
    """Leave-one-domain-out split: training clients plus a held-out test set."""

    train_clients: list[dict]  # {"domain_id", "train": Dataset, "val": Dataset}
    test_set: Dataset


def build_benchmark(n_domains: int, held_out: int, samples_per_client: int, classes: int,
                    size: int, seed: int, val_fraction: float, test_samples: int,
                    partition_spec: PartitionSpec) -> Benchmark:
    """Generate the full leave-one-domain-out benchmark deterministically.

    Domain ``held_out`` of ``domain_specs(n_domains)`` is the test set, and
    ``partition_spec`` splits each other domain across its clients. The
    held-out set is built first, while nothing else is resident, and every
    client's train and val arrays are copied once, straight from its shifted
    domain. Each draw has its own seed, so the order changes no bit.
    """
    if n_domains < 2:
        raise InputError("need at least 2 domains for leave-one-domain-out")
    if not 0 <= held_out < n_domains:
        raise InputError(f"held-out domain {held_out} not in [0, {n_domains})")

    specs = domain_specs(n_domains)
    test_set = apply_domain(generate_base(test_samples, classes, size, seed=seed * 1000 + 777),
                            specs[held_out])

    train_clients = []
    for spec in specs:
        if spec.domain_id == held_out:
            continue
        domain_seed = seed * 1000 + spec.domain_id
        total = samples_per_client * partition_spec.n_clients
        shifted = apply_domain(generate_base(total, classes, size, seed=domain_seed), spec)
        for idx in partition(shifted.labels, partition_spec, seed=domain_seed):
            # Every split gives a client 2 samples or more; one stays for training.
            n_val = min(max(1, int(round(len(idx) * val_fraction))), len(idx) - 1)
            rng = np.random.default_rng(
                np.random.SeedSequence([seed, spec.domain_id, len(train_clients), 271]))
            perm = rng.permutation(len(idx))
            train_clients.append({
                "domain_id": spec.domain_id,
                "train": shifted.subset(idx[np.sort(perm[n_val:])]),
                "val": shifted.subset(idx[np.sort(perm[:n_val])]),
            })
    return Benchmark(train_clients, test_set)
