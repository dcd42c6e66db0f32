import json
import pathlib

import pytest

from feddiv.config import (apply_overrides, benchmark_hash, config_hash, load_config)
from feddiv.errors import ConfigError

BENCH_DIR = pathlib.Path(__file__).resolve().parent.parent / "bench"


class TestLoadConfig:
    def test_defaults_valid(self):
        cfg = load_config()
        assert cfg["federation"]["strategy"] == "fedavg"
        assert cfg["loss"]["lambda1"] == 0.1
        assert cfg["loss"]["lambda2"] == 4.0
        assert cfg["federation"]["lr"] == 0.01
        assert cfg["federation"]["momentum"] == 0.5
        assert cfg["federation"]["batch_size"] == 64
        assert cfg["federation"]["rounds"] == 40
        assert cfg["federation"]["iterations"] == 200
        assert len(cfg["seeds"]) == 4

    def test_file_merge(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"federation": {"rounds": 3}, "seeds": [7]}))
        cfg = load_config(str(path))
        assert cfg["federation"]["rounds"] == 3
        assert cfg["seeds"] == [7]
        assert cfg["federation"]["iterations"] == 200  # untouched default

    def test_unknown_section_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"nonsense": {}}))
        with pytest.raises(ConfigError, match="nonsense"):
            load_config(str(path))

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"federation": {"learning_rate": 0.1}}))
        with pytest.raises(ConfigError, match="federation.learning_rate"):
            load_config(str(path))

    def test_type_mismatch_names_field(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"federation": {"rounds": "ten"}}))
        with pytest.raises(ConfigError, match="federation.rounds"):
            load_config(str(path))

    def test_semantic_validation(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"benchmark": {"held_out_domain": 9}}))
        with pytest.raises(ConfigError, match="held_out_domain"):
            load_config(str(path))

    def test_missing_file(self):
        with pytest.raises(ConfigError, match="not found"):
            load_config("/nonexistent/cfg.json")

    def test_bad_json(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("{broken")
        with pytest.raises(ConfigError, match="JSON"):
            load_config(str(path))

    def test_parallel_clients_only_false(self):
        assert load_config(overrides=["federation.parallel_clients=false"])
        with pytest.raises(ConfigError, match="federation.parallel_clients"):
            load_config(overrides=["federation.parallel_clients=true"])

    @pytest.mark.parametrize("overrides,match", [
        (['federation.strategy="fedsgd"'], "strategy"),
        (['federation.stat_aggregation="median"'], "stat_aggregation"),
        (['diversify.distribution="gaussian"'], "distribution"),
        (["diversify.low=0.9", "diversify.high=0.1"], "bounds"),
        (["loss.lambda1=1.5"], "lambda1"),
        (["loss.lambda2=-1"], "lambda2"),
    ])
    def test_choices_and_bounds_rejected(self, overrides, match):
        with pytest.raises(ConfigError, match=match):
            load_config(overrides=overrides)


class TestBenchWorkloads:
    def test_every_workload_loads(self, monkeypatch):
        # a config key the benchmark sets must stay valid
        monkeypatch.syspath_prepend(str(BENCH_DIR))
        import workloads

        assert workloads.WORKLOADS
        for name in workloads.WORKLOADS:
            cfg = workloads.workload_config(name, 0)
            assert cfg["seeds"] == [0]


class TestOverrides:
    def test_dotted_override(self):
        cfg = load_config(overrides=["federation.rounds=5", "diversify.enabled=true"])
        assert cfg["federation"]["rounds"] == 5
        assert cfg["diversify"]["enabled"] is True

    def test_seeds_override(self):
        cfg = load_config(overrides=["seeds=[1,2]"])
        assert cfg["seeds"] == [1, 2]

    def test_malformed_override(self):
        with pytest.raises(ConfigError, match="key=value"):
            apply_overrides(load_config(), ["federation.rounds"])

    def test_unknown_override_key(self):
        with pytest.raises(ConfigError):
            load_config(overrides=["federation.bogus=1"])


class TestHashes:
    def test_config_hash_stable_and_sensitive(self):
        a = load_config()
        b = load_config()
        assert config_hash(a) == config_hash(b)
        c = load_config(overrides=["federation.rounds=5"])
        assert config_hash(a) != config_hash(c)

    def test_benchmark_hash_ignores_training_params(self):
        a = load_config()
        b = load_config(overrides=["federation.rounds=5", "diversify.enabled=true"])
        assert benchmark_hash(a) == benchmark_hash(b)
        c = load_config(overrides=["benchmark.classes=7"])
        assert benchmark_hash(a) != benchmark_hash(c)
