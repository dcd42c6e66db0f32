"""Experiment configuration: defaults, strict validation, dotted overrides."""

from __future__ import annotations

import copy
import hashlib
import json

from .diversify import LossWeights, SamplingDistribution
from .domains import PartitionSpec
from .errors import ConfigError
from .federation import RoundPlan, TrainConfig

DEFAULTS = {
    "benchmark": {
        "domains": 4,
        "classes": 5,
        "image_size": 16,
        "samples_per_client": 600,
        "test_samples": 500,
        "held_out_domain": 3,
        "clients_per_domain": 1,
        "partition": "iid",
        "dirichlet_alpha": 0.5,
        "val_fraction": 0.2,
    },
    "model": {
        "widths": [16, 32, 64],
        "in_channels": 3,
    },
    "federation": {
        "strategy": "fedavg",
        "rounds": 40,
        "iterations": 200,
        "val_every": 20,
        "lr": 0.01,
        "momentum": 0.5,
        "batch_size": 64,
        "prox_mu": 0.1,
        "participants_per_round": None,
        # Clients always run one after another; only false is accepted.
        "parallel_clients": False,
        "stat_aggregation": "total_variance",
    },
    "loss": {
        "lambda1": 0.1,
        "lambda2": 4.0,
    },
    "diversify": {
        "enabled": False,
        "distribution": "uniform",
        "low": 0.0,
        "high": 1.0,
        "value": 0.5,
        "stop_gradient_features": False,
    },
    "adapter": {
        "enabled": False,
        "hidden_dim": 32,
        "fixed_value": 0.5,
        "warmup_rounds": 0,
        "lr": 0.005,
    },
    "seeds": [0, 1, 2, 3],
    "output_dir": "runs",
}


def _check_value(section: str, key: str, value):
    """Check ``value`` against the type of the key's default in ``DEFAULTS``.

    An int is widened for a float key, a bool is no int, and the one ``None``
    default (``federation.participants_per_round``) means "int or null".
    """
    default = DEFAULTS[section][key]
    expected = int if default is None else type(default)
    if value is None and default is None:
        return value
    if expected is float and type(value) is int:
        return float(value)
    if type(value) is not expected:
        name = "int or null" if default is None else expected.__name__
        raise ConfigError(f"{section}.{key}: expected {name}, "
                          f"got {type(value).__name__} ({value!r})")
    return value


def _merge(base: dict, incoming: dict) -> dict:
    out = copy.deepcopy(base)
    for section, content in incoming.items():
        if section == "seeds":
            if not isinstance(content, list) or not all(isinstance(s, int) for s in content):
                raise ConfigError("seeds: expected a list of integers")
            out["seeds"] = list(content)
            continue
        if section == "output_dir":
            if not isinstance(content, str):
                raise ConfigError("output_dir: expected a string")
            out["output_dir"] = content
            continue
        if section not in base or not isinstance(base[section], dict):
            raise ConfigError(f"unknown config section {section!r}")
        if not isinstance(content, dict):
            raise ConfigError(f"section {section!r} must be a mapping")
        for key, value in content.items():
            if key not in base[section]:
                raise ConfigError(f"unknown config key {section}.{key}")
            out[section][key] = _check_value(section, key, value)
    return out


def _semantic_checks(cfg: dict):
    """Bounds on keys that no object of ``run_spec`` holds."""
    b = cfg["benchmark"]
    if b["domains"] < 2:
        raise ConfigError("benchmark.domains: need at least 2 domains")
    if not 0 <= b["held_out_domain"] < b["domains"]:
        raise ConfigError(
            f"benchmark.held_out_domain must be in [0, {b['domains']}), "
            f"got {b['held_out_domain']}"
        )
    # Each client needs one training and one validation sample.
    if b["samples_per_client"] < 2:
        raise ConfigError(
            f"benchmark.samples_per_client must be >= 2, got {b['samples_per_client']}")
    if not 0 <= b["val_fraction"] < 1:
        raise ConfigError(f"benchmark.val_fraction must be in [0, 1), got {b['val_fraction']}")
    if cfg["federation"]["parallel_clients"]:
        raise ConfigError("federation.parallel_clients: clients run one after another; "
                          "only false is accepted")
    if cfg["adapter"]["hidden_dim"] < 1:
        raise ConfigError(
            f"adapter.hidden_dim must be >= 1, got {cfg['adapter']['hidden_dim']}")
    if not cfg["seeds"]:
        raise ConfigError("seeds: need at least one seed")
    if not all(isinstance(w, int) and w > 0 for w in cfg["model"]["widths"]):
        raise ConfigError("model.widths: expected positive integers")


def run_spec(cfg: dict) -> tuple[PartitionSpec, RoundPlan, TrainConfig]:
    """The run's typed objects, built from a config; each checks its own bounds."""
    b, f, d, a = cfg["benchmark"], cfg["federation"], cfg["diversify"], cfg["adapter"]
    partition = PartitionSpec(b["partition"], b["dirichlet_alpha"], b["clients_per_domain"])
    plan = RoundPlan(f["rounds"], f["iterations"], f["val_every"],
                     f["participants_per_round"])
    train = TrainConfig(
        strategy=f["strategy"], lr=f["lr"], momentum=f["momentum"],
        batch_size=f["batch_size"], diversify=d["enabled"],
        distribution=SamplingDistribution(d["distribution"], d["low"], d["high"],
                                          d["value"]),
        loss_weights=LossWeights(cfg["loss"]["lambda1"], cfg["loss"]["lambda2"]),
        adapter=a["enabled"], adapter_warmup_rounds=a["warmup_rounds"], adapter_lr=a["lr"],
        prox_mu=f["prox_mu"],
        stop_gradient_features=d["stop_gradient_features"],
        stat_aggregation=f["stat_aggregation"],
    )
    return partition, plan, train


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
    cfg = copy.deepcopy(DEFAULTS)
    if path is not None:
        try:
            with open(path) as f:
                raw = json.load(f)
        except FileNotFoundError:
            raise ConfigError(f"config file not found: {path}")
        except json.JSONDecodeError as e:
            raise ConfigError(f"config file {path} is not valid JSON: {e}")
        if not isinstance(raw, dict):
            raise ConfigError("top-level config must be a JSON object")
        cfg = _merge(cfg, raw)
    if overrides:
        cfg = apply_overrides(cfg, overrides)
    _semantic_checks(cfg)
    run_spec(cfg)
    return cfg


def config_hash(cfg: dict) -> str:
    return hashlib.sha256(json.dumps(cfg, sort_keys=True).encode()).hexdigest()[:16]


def benchmark_hash(cfg: dict) -> str:
    """Hash of the sections that define the task (for report comparability)."""
    payload = {"benchmark": cfg["benchmark"], "model": cfg["model"]}
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()[:16]
