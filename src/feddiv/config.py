"""Experiment configuration: one typed tree, strict validation, dotted overrides.

Each config section is a frozen dataclass (``loss`` is
``diversify.LossWeights``). A field is one key and carries its default; the
key's type is the type of that default, and the section's ``__post_init__``
holds the key's bound. ``Config`` is the tree: the sections plus ``seeds``
and ``output_dir``, and the checks that span sections. ``DEFAULTS`` is the
tree's default as a plain dict; ``load_config`` returns such a dict, which
reports and hashes serialise, and ``parse`` turns one into the tree the
program reads.
"""

from __future__ import annotations

import copy
import hashlib
import json
import math
from dataclasses import asdict, dataclass, field, fields, is_dataclass

from .diversify import LossWeights, SamplingDistribution
from .errors import ConfigError
from .federation import STAT_AGGREGATIONS, STRATEGIES


def _require(ok: bool, key: str, bound: str, value):
    if not ok:
        raise ConfigError(f"{key} must be {bound}, got {value!r}")


@dataclass(frozen=True)
class BenchmarkConfig:
    """The data: domains, classes, images and how each domain splits across clients."""

    domains: int = 4
    classes: int = 5
    image_size: int = 16
    samples_per_client: int = 600
    test_samples: int = 500
    held_out_domain: int = 3
    clients_per_domain: int = 1
    partition: str = "iid"  # "iid" | "dirichlet"
    dirichlet_alpha: float = 0.5  # unused by "iid"
    val_fraction: float = 0.2

    def __post_init__(self):
        _require(self.domains >= 2, "benchmark.domains", ">= 2 (one is held out)", self.domains)
        _require(0 <= self.held_out_domain < self.domains, "benchmark.held_out_domain",
                 f"in [0, {self.domains})", self.held_out_domain)
        # The domain generator draws five shape kinds on an image of at least 8x8.
        _require(2 <= self.classes <= 5, "benchmark.classes", "in [2, 5]", self.classes)
        _require(self.image_size >= 8, "benchmark.image_size", ">= 8", self.image_size)
        # Each client needs one training and one validation sample.
        _require(self.samples_per_client >= 2, "benchmark.samples_per_client", ">= 2",
                 self.samples_per_client)
        _require(self.test_samples >= 1, "benchmark.test_samples", ">= 1", self.test_samples)
        _require(self.clients_per_domain >= 1, "benchmark.clients_per_domain",
                 ">= 1 (one client per domain at least)", self.clients_per_domain)
        _require(self.partition in ("iid", "dirichlet"), "benchmark.partition",
                 "one of the partition modes ('iid', 'dirichlet')", self.partition)
        _require(self.partition == "iid" or self.dirichlet_alpha > 0,
                 "benchmark.dirichlet_alpha", "> 0 for a dirichlet partition",
                 self.dirichlet_alpha)
        _require(0 <= self.val_fraction < 1, "benchmark.val_fraction", "in [0, 1)",
                 self.val_fraction)


@dataclass(frozen=True)
class ModelConfig:
    widths: list[int] = field(default_factory=lambda: [16, 32, 64])
    in_channels: int = 3

    def __post_init__(self):
        _require(bool(self.widths) and all(w > 0 for w in self.widths), "model.widths",
                 "one or more positive integers", self.widths)
        # The domain generator makes RGB images only.
        _require(self.in_channels == 3, "model.in_channels", "3", self.in_channels)


@dataclass(frozen=True)
class FederationConfig:
    """The protocol: strategy, round and iteration counts, and the client optimizer."""

    strategy: str = "fedavg"
    rounds: int = 40
    iterations: int = 200
    val_every: int = 20
    lr: float = 0.01
    momentum: float = 0.5
    batch_size: int = 64
    prox_mu: float = 0.1
    participants_per_round: int | None = None  # None: every client
    # Clients always run one after another; only false is accepted.
    parallel_clients: bool = False
    stat_aggregation: str = "total_variance"

    def __post_init__(self):
        _require(self.strategy in STRATEGIES, "federation.strategy", f"one of {STRATEGIES}",
                 self.strategy)
        _require(self.stat_aggregation in STAT_AGGREGATIONS, "federation.stat_aggregation",
                 f"one of {STAT_AGGREGATIONS}", self.stat_aggregation)
        _require(self.rounds >= 0, "federation.rounds", ">= 0", self.rounds)
        _require(self.iterations >= 0, "federation.iterations", ">= 0", self.iterations)
        _require(self.val_every >= 1, "federation.val_every", ">= 1", self.val_every)
        _require(self.participants_per_round is None or self.participants_per_round >= 1,
                 "federation.participants_per_round", ">= 1 or null",
                 self.participants_per_round)
        _require(self.batch_size >= 1, "federation.batch_size", ">= 1", self.batch_size)
        _require(self.lr > 0, "federation.lr", "> 0", self.lr)
        _require(0 <= self.momentum < 1, "federation.momentum", "in [0, 1)", self.momentum)
        _require(self.prox_mu >= 0, "federation.prox_mu", ">= 0", self.prox_mu)
        _require(not self.parallel_clients, "federation.parallel_clients",
                 "false (clients run one after another)", self.parallel_clients)


@dataclass(frozen=True)
class DiversifyConfig:
    """Local training's statistics mixing; ``sampling`` is its blend-weight distribution."""

    enabled: bool = False
    distribution: str = "uniform"  # "uniform" | "fixed"
    low: float = 0.0
    high: float = 1.0
    value: float = 0.5
    stop_gradient_features: bool = False

    def __post_init__(self):
        # A view, not a key: SamplingDistribution holds the bounds of the
        # four keys it reads.
        object.__setattr__(self, "sampling", SamplingDistribution(
            self.distribution, self.low, self.high, self.value))


@dataclass(frozen=True)
class AdapterConfig:
    enabled: bool = False
    hidden_dim: int = 32
    fixed_value: float = 0.5  # the fixed_alpha inference mode's blend weight
    warmup_rounds: int = 0
    lr: float = 0.005

    def __post_init__(self):
        _require(self.hidden_dim >= 1, "adapter.hidden_dim", ">= 1", self.hidden_dim)
        _require(0 <= self.fixed_value <= 1, "adapter.fixed_value", "in [0, 1]",
                 self.fixed_value)
        _require(self.warmup_rounds >= 0, "adapter.warmup_rounds", ">= 0", self.warmup_rounds)
        _require(self.lr > 0, "adapter.lr", "> 0", self.lr)


@dataclass(frozen=True)
class Config:
    """The config tree; ``parse`` builds one from a config dict."""

    benchmark: BenchmarkConfig = field(default_factory=BenchmarkConfig)
    model: ModelConfig = field(default_factory=ModelConfig)
    federation: FederationConfig = field(default_factory=FederationConfig)
    loss: LossWeights = field(default_factory=LossWeights)
    diversify: DiversifyConfig = field(default_factory=DiversifyConfig)
    adapter: AdapterConfig = field(default_factory=AdapterConfig)
    seeds: list[int] = field(default_factory=lambda: [0, 1, 2, 3])
    output_dir: str = "runs"

    def __post_init__(self):
        # Each stride-2 block maps size s to (s - 1) // 2 + 1, and instance
        # statistics need at least two pixels per channel.
        size = self.benchmark.image_size
        for _ in self.model.widths:
            size = (size - 1) // 2 + 1
        if size < 2:
            raise ConfigError(
                f"benchmark.image_size={self.benchmark.image_size} with "
                f"{len(self.model.widths)} model.widths leaves a {size}x{size} map after the "
                f"last block; need at least 2x2")
        # Seeds key the data, the weights and the file names of a run.
        _require(bool(self.seeds) and min(self.seeds) >= 0
                 and len(set(self.seeds)) == len(self.seeds),
                 "seeds", "one or more distinct integers >= 0", self.seeds)
        _require(self.output_dir != "", "output_dir", "a non-empty path", self.output_dir)


DEFAULTS = asdict(Config())
_SECTIONS = {f.name: f.default_factory for f in fields(Config) if is_dataclass(f.default_factory)}


def _check_value(key: str, default, value):
    """Check ``value`` against the type of the key's default.

    An int is widened for a float key, a float must be finite, a bool is no
    int, a list holds ints only, and the one ``None`` default
    (``federation.participants_per_round``) means "int or null".
    """
    if value is None and default is None:
        return value
    expected = int if default is None else type(default)
    if expected is float and type(value) is int:
        value = float(value)
    if type(value) is not expected:
        name = "int or null" if default is None else expected.__name__
        raise ConfigError(f"{key}: expected {name}, got {type(value).__name__} ({value!r})")
    if expected is float and not math.isfinite(value):
        raise ConfigError(f"{key}: expected a finite number, got {value!r}")
    if expected is list:
        if not all(type(v) is int for v in value):
            raise ConfigError(f"{key}: expected a list of integers, got {value!r}")
        value = list(value)
    return value


def _merge(base: dict, incoming: dict) -> dict:
    """``base`` with ``incoming``'s keys on top, each checked against ``DEFAULTS``."""
    out = copy.deepcopy(base)
    for name, content in incoming.items():
        if name not in DEFAULTS:
            raise ConfigError(f"unknown config section {name!r}")
        if name not in _SECTIONS:
            out[name] = _check_value(name, DEFAULTS[name], content)
            continue
        if not isinstance(content, dict):
            raise ConfigError(f"section {name!r} must be a mapping")
        for key, value in content.items():
            if key not in DEFAULTS[name]:
                raise ConfigError(f"unknown config key {name}.{key}")
            out[name][key] = _check_value(f"{name}.{key}", DEFAULTS[name][key], value)
    return out


def parse(cfg: dict) -> Config:
    """The config tree of ``cfg``; keys it leaves out keep their defaults.

    Raises ``ConfigError`` naming the key, for an unknown key, a value of the
    wrong type, or a value out of its bound.
    """
    cfg = _merge(DEFAULTS, cfg)
    return Config(**{name: _SECTIONS[name](**content) if name in _SECTIONS else content
                     for name, content in cfg.items()})


def apply_overrides(cfg: dict, overrides: list[str]) -> dict:
    """Apply CLI overrides of the form section.key=value (value parsed as JSON)."""
    patch: dict = {}
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override {item!r} is not of the form key=value")
        dotted, raw = item.split("=", 1)
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        parts = dotted.split(".")
        if len(parts) == 1:
            patch[parts[0]] = value
        elif len(parts) == 2:
            patch.setdefault(parts[0], {})[parts[1]] = value
        else:
            raise ConfigError(f"override key {dotted!r} has too many levels")
    return _merge(cfg, patch)


def load_config(path: str | None = None, overrides: list[str] | None = None) -> dict:
    """Resolve defaults + file + overrides into a validated config dict.

    Every bound is checked here, before any data is generated.
    """
    raw = {}
    if path is not None:
        try:
            with open(path) as f:
                raw = json.load(f)
        except FileNotFoundError:
            raise ConfigError(f"config file not found: {path}")
        except OSError as e:
            raise ConfigError(f"cannot read config file {path}: {e}")
        except (json.JSONDecodeError, UnicodeDecodeError) as e:
            raise ConfigError(f"config file {path} is not valid JSON: {e}")
        if not isinstance(raw, dict):
            raise ConfigError("top-level config must be a JSON object")
    cfg = _merge(DEFAULTS, raw)
    if overrides:
        cfg = apply_overrides(cfg, overrides)
    parse(cfg)
    return cfg


def config_hash(cfg: dict) -> str:
    return hashlib.sha256(json.dumps(cfg, sort_keys=True).encode()).hexdigest()[:16]


def benchmark_hash(cfg: dict) -> str:
    """Hash of the sections that define the task (for report comparability)."""
    payload = {"benchmark": cfg["benchmark"], "model": cfg["model"]}
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()[:16]
