import json
import pathlib

import pytest

from feddiv.cli import main as cli_main
from feddiv.config import DEFAULTS, apply_overrides, benchmark_hash, config_hash, load_config
from feddiv.errors import ConfigError

BENCH_DIR = pathlib.Path(__file__).resolve().parent.parent / "bench"
SECTION_KEYS = [(section, key) for section, content in DEFAULTS.items()
                if isinstance(content, dict) for key in content]


def keys_where(pred):
    return [(section, key) for section, key in SECTION_KEYS if pred(DEFAULTS[section][key])]


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

    # Past load_config, each of these would fail late, crash with a traceback,
    # hang, or train with the wrong sign.
    @pytest.mark.parametrize("overrides,match", [
        (["federation.val_every=0"], "val_every"),
        (["federation.iterations=-1"], "iterations"),
        (["federation.participants_per_round=0"], "participants_per_round"),
        (["federation.batch_size=0"], "batch_size"),
        (["adapter.hidden_dim=0"], "hidden_dim"),
        (["federation.lr=-1"], "lr"),
        (["adapter.lr=0"], "adapter_lr"),
        (["benchmark.samples_per_client=0"], "samples_per_client"),
        (["benchmark.val_fraction=1.5"], "val_fraction"),
        (["benchmark.clients_per_domain=0"], "client"),
        (['benchmark.partition="dirichlet"', "benchmark.dirichlet_alpha=0"], "alpha"),
        (['benchmark.partition="skewed"'], "partition mode"),
        (["model.in_channels=1"], "in_channels"),
        (["model.in_channels=0"], "in_channels"),
        (["benchmark.test_samples=0"], "test_samples"),
        (["model.widths=[]"], "widths"),
        (["benchmark.classes=1"], "classes"),
        (["benchmark.classes=6"], "classes"),
        (["benchmark.image_size=7"], "image_size"),
        (['federation.strategy="fedprox"', "federation.prox_mu=-0.5"], "prox_mu"),
        (["adapter.fixed_value=1.5"], "fixed_value"),
        (["adapter.fixed_value=-0.1"], "fixed_value"),
        (["adapter.warmup_rounds=-3"], "adapter_warmup_rounds"),
        (["federation.momentum=-2"], "momentum"),
        (["federation.momentum=1.5"], "momentum"),
        (["federation.momentum=1.0"], "momentum"),
        # The last block's map would be 1x1, where instance statistics fail.
        (["benchmark.image_size=8"], "1x1 map"),
        (["model.widths=[4,4,4,4]"], "1x1 map"),
    ])
    def test_out_of_range_rejected_at_load(self, overrides, match):
        with pytest.raises(ConfigError, match=match):
            load_config(overrides=overrides)

    # Two blocks take an 8x8 image to the smallest usable map, 2x2; so do
    # three blocks at 9x9 and four at 17x17.
    @pytest.mark.parametrize("overrides", [
        ["benchmark.classes=2"], ["benchmark.classes=5"],
        ["benchmark.image_size=8", "model.widths=[4,8]"],
        ["benchmark.image_size=9"], ["model.widths=[4,4,4,4]", "benchmark.image_size=17"],
    ], ids=",".join)
    def test_bounds_are_inclusive(self, overrides):
        load_config(overrides=overrides)

    @pytest.mark.parametrize("override", ["benchmark.classes=6", "benchmark.image_size=7",
                                          "benchmark.image_size=8"])
    def test_data_bounds_exit_two_from_cli(self, tmp_path, capsys, override):
        assert cli_main(["run", "--out", str(tmp_path), "--set", override]) == 2
        assert "config error:" in capsys.readouterr().err

    # Each would otherwise crash in data generation, name files after a bool,
    # build a width-1 network, run one seed twice over its own files, or let
    # the SGD velocity grow instead of decay.
    @pytest.mark.parametrize("override", ["seeds=[-1]", "seeds=[true]", "seeds=[0,0]",
                                          "model.widths=[true]", "federation.momentum=1.5"])
    def test_unusable_seeds_and_widths_exit_two_from_cli(self, tmp_path, capsys, override):
        args = ["run", "--out", str(tmp_path), "--set", "federation.rounds=0", "--set",
                override]
        assert cli_main(args) == 2
        assert "config error:" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    def test_out_of_range_exits_two_from_cli(self, tmp_path, capsys):
        args = ["run", "--out", str(tmp_path), "--set", "benchmark.samples_per_client=0"]
        assert cli_main(args) == 2
        assert "config error:" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())


class TestTypeRule:
    """A key's type is the type of its default in DEFAULTS."""

    @pytest.mark.parametrize("section,key", SECTION_KEYS)
    def test_default_accepted_unchanged(self, section, key):
        cfg = load_config(overrides=[f"{section}.{key}={json.dumps(DEFAULTS[section][key])}"])
        assert cfg[section][key] == DEFAULTS[section][key]
        assert type(cfg[section][key]) is type(DEFAULTS[section][key])

    @pytest.mark.parametrize("section,key", keys_where(lambda d: not isinstance(d, str)))
    def test_string_rejected_for_non_string_key(self, section, key):
        with pytest.raises(ConfigError, match=f"{section}.{key}"):
            load_config(overrides=[f'{section}.{key}="text"'])

    @pytest.mark.parametrize("section,key", keys_where(lambda d: d is None or type(d) is int))
    def test_bool_rejected_for_int_key(self, section, key):
        with pytest.raises(ConfigError, match=f"{section}.{key}: expected int"):
            load_config(overrides=[f"{section}.{key}=true"])

    @pytest.mark.parametrize("section,key", keys_where(lambda d: type(d) is float))
    def test_int_widened_for_float_key(self, section, key):
        # apply_overrides checks types only, so 1 is fine for every float key
        cfg = apply_overrides(load_config(), [f"{section}.{key}=1"])
        assert type(cfg[section][key]) is float and cfg[section][key] == 1.0

    @pytest.mark.parametrize("section,key", SECTION_KEYS)
    def test_null_only_for_participants_per_round(self, section, key):
        override = [f"{section}.{key}=null"]
        if (section, key) == ("federation", "participants_per_round"):
            assert load_config(overrides=override)[section][key] is None
        else:
            with pytest.raises(ConfigError, match=f"{section}.{key}"):
                load_config(overrides=override)


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
        c = load_config(overrides=["benchmark.classes=4"])
        assert benchmark_hash(a) != benchmark_hash(c)
