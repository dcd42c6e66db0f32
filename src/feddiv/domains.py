"""Synthetic multi-domain image generation and client partitioning.

Classes are procedural geometric shapes with positional jitter; domains are
per-channel affine transforms plus sinusoidal texture noise, the family of
shifts that normalization statistics capture directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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


@dataclass
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


def _draw_shape(canvas: np.ndarray, label: int, cx: int, cy: int, r: int, value: float):
    """Paint one class-specific primitive onto a 2D canvas in place."""
    h, w = canvas.shape
    ys, xs = np.mgrid[0:h, 0:w]
    if label % 5 == 0:  # filled square
        canvas[max(cy - r, 0):cy + r, max(cx - r, 0):cx + r] = value
    elif label % 5 == 1:  # disc
        canvas[(ys - cy) ** 2 + (xs - cx) ** 2 <= r * r] = value
    elif label % 5 == 2:  # plus
        canvas[max(cy - r, 0):cy + r, max(cx - 1, 0):cx + 2] = value
        canvas[max(cy - 1, 0):cy + 2, max(cx - r, 0):cx + r] = value
    elif label % 5 == 3:  # horizontal stripes
        band = (ys % 4 < 2) & (np.abs(ys - cy) <= r) & (np.abs(xs - cx) <= r)
        canvas[band] = value
    else:  # diagonal cross
        diag = (np.abs((ys - cy) - (xs - cx)) <= 1) | (np.abs((ys - cy) + (xs - cx)) <= 1)
        canvas[diag & (np.abs(ys - cy) <= r) & (np.abs(xs - cx) <= r)] = value


def generate_base(n: int, classes: int, size: int = 16, seed: int = 0,
                  channels: int = 3) -> Dataset:
    """Balanced, deterministic pool of shape images on a neutral background."""
    if classes < 2:
        raise InputError("need at least 2 classes")
    if size < 8:
        raise InputError("image size must be >= 8")
    rng = np.random.default_rng(np.random.SeedSequence([seed, 401]))
    images = np.empty((n, channels, size, size))
    labels = np.empty(n, dtype=np.int64)
    for i in range(n):
        label = i % classes
        canvas = np.full((size, size), 0.15)
        cx = size // 2 + rng.integers(-1, 2)
        cy = size // 2 + rng.integers(-1, 2)
        r = size // 3 + int(rng.integers(-1, 2))
        _draw_shape(canvas, label, cx, cy, r, 0.85)
        canvas += rng.normal(0.0, 0.02, size=canvas.shape)
        np.clip(canvas, 0.0, 1.0, out=canvas)
        images[i] = canvas[None].repeat(channels, axis=0)
        labels[i] = label
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
    out = gain * dataset.images + bias
    if spec.texture_amp > 0:
        ys, xs = np.mgrid[0:h, 0:w]
        phases = rng.uniform(0, 2 * np.pi, size=(n, 2))
        wave = np.sin(2 * np.pi * spec.texture_freq * ys / h + phases[:, 0, None, None]) \
            * np.sin(2 * np.pi * spec.texture_freq * xs / w + phases[:, 1, None, None])
        out = out + spec.texture_amp * wave[:, None, :, :]
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
        for cls in classes:
            idx = np.flatnonzero(dataset.labels == cls)
            idx = rng.permutation(idx)
            props = rng.dirichlet(np.full(spec.n_clients, spec.alpha))
            cuts = (np.cumsum(props)[:-1] * len(idx)).astype(int)
            for j, chunk in enumerate(np.split(idx, cuts)):
                client_indices[j].extend(chunk.tolist())

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
    domain_specs: list[DomainSpec] = field(default_factory=list)


def build_benchmark(domain_specs: list[DomainSpec], held_out: int, samples_per_client: int,
                    classes: int, size: int, seed: int, val_fraction: float,
                    test_samples: int, partition_spec: PartitionSpec | None = None
                    ) -> Benchmark:
    """Generate the full leave-one-domain-out benchmark deterministically.

    ``partition_spec`` splits each domain across its clients; without one,
    each domain is a single client.
    """
    if len(domain_specs) < 2:
        raise InputError("need at least 2 domains for leave-one-domain-out")
    if not any(s.domain_id == held_out for s in domain_specs):
        raise InputError(f"held-out domain {held_out} not among specs")

    clients_per_domain = partition_spec.n_clients if partition_spec else 1
    train_clients = []
    for spec in domain_specs:
        if spec.domain_id == held_out:
            continue
        total = samples_per_client * clients_per_domain
        base = generate_base(total, classes, size, seed=seed * 1000 + spec.domain_id)
        shifted = apply_domain(base, spec)
        if clients_per_domain == 1:
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
    return Benchmark(train_clients, test_set, held_out, list(domain_specs))


# -- dataset dump/load --------------------------------------------------------

DATASET_FORMAT_VERSION = 1


def save_dataset(dataset: Dataset, path: str, seed: int | None = None):
    """Versioned .npz dump; loadable bit-exactly with load_dataset."""
    meta = np.array([DATASET_FORMAT_VERSION, -1 if seed is None else seed], dtype=np.int64)
    np.savez_compressed(path, images=dataset.images, labels=dataset.labels, meta=meta)


def load_dataset(path: str) -> Dataset:
    with np.load(path) as z:
        version = int(z["meta"][0])
        if version != DATASET_FORMAT_VERSION:
            raise InputError(f"unsupported dataset format version {version}")
        return Dataset(z["images"], z["labels"])
