"""Experiment configuration: defaults, strict validation, dotted overrides."""

from __future__ import annotations

import copy
import hashlib
import json

from .diversify import LossWeights, SamplingDistribution
from .errors import ConfigError
from .federation import STAT_AGGREGATIONS, STRATEGIES

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

_TYPES = {
    ("benchmark", "domains"): int,
    ("benchmark", "classes"): int,
    ("benchmark", "image_size"): int,
    ("benchmark", "samples_per_client"): int,
    ("benchmark", "test_samples"): int,
    ("benchmark", "held_out_domain"): int,
    ("benchmark", "clients_per_domain"): int,
    ("benchmark", "partition"): str,
    ("benchmark", "dirichlet_alpha"): float,
    ("benchmark", "val_fraction"): float,
    ("model", "widths"): list,
    ("model", "in_channels"): int,
    ("federation", "strategy"): str,
    ("federation", "rounds"): int,
    ("federation", "iterations"): int,
    ("federation", "val_every"): int,
    ("federation", "lr"): float,
    ("federation", "momentum"): float,
    ("federation", "batch_size"): int,
    ("federation", "prox_mu"): float,
    ("federation", "participants_per_round"): (int, type(None)),
    ("federation", "parallel_clients"): bool,
    ("federation", "stat_aggregation"): str,
    ("loss", "lambda1"): float,
    ("loss", "lambda2"): float,
    ("diversify", "enabled"): bool,
    ("diversify", "distribution"): str,
    ("diversify", "low"): float,
    ("diversify", "high"): float,
    ("diversify", "value"): float,
    ("diversify", "stop_gradient_features"): bool,
    ("adapter", "enabled"): bool,
    ("adapter", "hidden_dim"): int,
    ("adapter", "fixed_value"): float,
    ("adapter", "warmup_rounds"): int,
    ("adapter", "lr"): float,
}


def _check_value(section: str, key: str, value):
    expected = _TYPES[(section, key)]
    if expected is float and isinstance(value, int) and not isinstance(value, bool):
        return float(value)
    if expected is int and isinstance(value, bool):
        raise ConfigError(f"{section}.{key}: expected int, got bool")
    if not isinstance(value, expected):
        raise ConfigError(
            f"{section}.{key}: expected {getattr(expected, '__name__', expected)}, "
            f"got {type(value).__name__} ({value!r})"
        )
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
    b, f, d, a = cfg["benchmark"], cfg["federation"], cfg["diversify"], cfg["adapter"]
    if b["domains"] < 2:
        raise ConfigError("benchmark.domains: need at least 2 domains")
    if not 0 <= b["held_out_domain"] < b["domains"]:
        raise ConfigError(
            f"benchmark.held_out_domain must be in [0, {b['domains']}), "
            f"got {b['held_out_domain']}"
        )
    if b["partition"] not in ("iid", "dirichlet"):
        raise ConfigError(f"benchmark.partition: unknown mode {b['partition']!r}")
    if f["strategy"] not in STRATEGIES:
        raise ConfigError(f"federation.strategy: unknown strategy {f['strategy']!r}")
    if f["stat_aggregation"] not in STAT_AGGREGATIONS:
        raise ConfigError(
            f"federation.stat_aggregation: unknown method {f['stat_aggregation']!r}")
    if f["parallel_clients"]:
        raise ConfigError("federation.parallel_clients: clients run one after another; "
                          "only false is accepted")
    SamplingDistribution(d["distribution"], d["low"], d["high"], d["value"])
    LossWeights(cfg["loss"]["lambda1"], cfg["loss"]["lambda2"])
    if a["lr"] <= 0:
        raise ConfigError(f"adapter.lr must be positive, got {a['lr']}")
    if not cfg["seeds"]:
        raise ConfigError("seeds: need at least one seed")
    if not all(isinstance(w, int) and w > 0 for w in cfg["model"]["widths"]):
        raise ConfigError("model.widths: expected positive integers")


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
    """Resolve defaults + file + overrides into a validated config dict."""
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
    return cfg


def config_hash(cfg: dict) -> str:
    return hashlib.sha256(json.dumps(cfg, sort_keys=True).encode()).hexdigest()[:16]


def benchmark_hash(cfg: dict) -> str:
    """Hash of the sections that define the task (for report comparability)."""
    payload = {"benchmark": cfg["benchmark"], "model": cfg["model"]}
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()[:16]
