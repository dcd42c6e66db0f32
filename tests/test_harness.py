"""End-to-end harness and CLI behavior: determinism, reports, exit codes."""

import copy
import json
import os

import numpy as np
import pytest

from feddiv import checkpoint, harness
from feddiv.cli import main as cli_main
from feddiv.config import load_config
from feddiv.errors import ConfigError, InputError
from feddiv.harness import (INFERENCE_MODES, _write_ledger, compare_reports, run_experiment,
                            run_seed)

TINY = [
    "benchmark.samples_per_client=60",
    "benchmark.test_samples=50",
    "benchmark.classes=3",
    "model.widths=[4,8]",
    "federation.rounds=2",
    "federation.iterations=4",
    "federation.val_every=2",
    "federation.batch_size=8",
    "diversify.enabled=true",
    "adapter.enabled=true",
    "adapter.hidden_dim=8",
    "seeds=[7]",
]


def tiny_cfg(extra=()):
    return load_config(None, TINY + list(extra))


@pytest.fixture(scope="module")
def tiny_report(tmp_path_factory):
    out = tmp_path_factory.mktemp("exp")
    cfg = tiny_cfg()
    report = run_experiment(cfg, str(out))
    return cfg, str(out), report


class TestRunSeed:
    def test_same_seed_identical_results(self):
        cfg = tiny_cfg()
        a = run_seed(cfg, 7)
        b = run_seed(cfg, 7)
        assert a["accuracies"] == b["accuracies"]
        assert a["ledger"] == b["ledger"]
        for k in a["bundle"]:
            assert np.array_equal(a["bundle"][k], b["bundle"][k]), k

    def test_zero_rounds_chance_level(self):
        cfg = tiny_cfg(["federation.rounds=0", "benchmark.test_samples=100"])
        res = run_seed(cfg, 7)
        # untrained model: accuracy in the neighborhood of 1/classes
        assert abs(res["accuracies"]["eval_global"] - 1 / 3) < 0.25
        assert res["best_round"] == -1 or res["best_round"] == 0

    def test_one_network_per_run(self, monkeypatch):
        built = []

        class CountingNet(harness.SmallConvNet):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                built.append(self)

        monkeypatch.setattr(harness, "SmallConvNet", CountingNet)
        run_seed(tiny_cfg(["benchmark.clients_per_domain=2"]), 7)
        assert len(built) == 1

    def test_all_inference_modes_reported(self):
        cfg = tiny_cfg()
        res = run_seed(cfg, 7)
        assert set(res["accuracies"]) == set(INFERENCE_MODES)
        for v in res["accuracies"].values():
            assert 0.0 <= v <= 1.0


class TestAdapterOff:
    """A run without the adapter builds none and reports no adaptive score."""

    @pytest.fixture(scope="class")
    def off_report(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("off")
        return str(out), run_experiment(tiny_cfg(["adapter.enabled=false"]), str(out))

    def test_no_adapters_built(self, monkeypatch):
        built = []
        make = harness.make_adapters
        monkeypatch.setattr(harness, "make_adapters",
                            lambda *a, **kw: built.append(1) or make(*a, **kw))
        res = run_seed(tiny_cfg(["adapter.enabled=false"]), 7)
        assert built == []
        assert not any(k.startswith("adapter.") for k in res["bundle"])
        assert set(res["accuracies"]) == set(INFERENCE_MODES) - {"adaptive"}

    def test_report_and_checkpoint_hold_no_adapter(self, off_report):
        out, report = off_report
        assert "adaptive" not in report["summary"]
        assert "adaptive" not in report["per_seed"]["7"]["accuracies"]
        arrays, _ = checkpoint.load_checkpoint(os.path.join(out, "checkpoints",
                                                            "best_seed7.json"))
        assert arrays and not any(k.startswith("adapter.") for k in arrays)

    def test_same_main_net_as_with_adapter_untrained(self):
        # The adapter trains on its own streams; with warm-up past the last
        # round it never steps, so the main net is the one it would be off.
        on = run_seed(tiny_cfg(["adapter.warmup_rounds=5"]), 7)
        off = run_seed(tiny_cfg(["adapter.enabled=false"]), 7)
        assert on["ledger"] == off["ledger"]
        for k, v in off["bundle"].items():
            assert v.tobytes() == on["bundle"][k].tobytes(), k
        assert {m: on["accuracies"][m] for m in off["accuracies"]} == off["accuracies"]

    def test_compare_shows_missing_mode_as_na(self, tiny_report, off_report):
        _, on_out, _ = tiny_report
        off_out, _ = off_report
        table = compare_reports([os.path.join(on_out, "report.json"),
                                 os.path.join(off_out, "report.json")])
        header, on_row, off_row = table.splitlines()
        assert header.split()[:5] == ["report"] + list(INFERENCE_MODES)
        # cells read "mean (std)"; the adaptive column is the second
        assert off_row.split()[3] == "n/a" and off_row.count("n/a") == 1
        assert "n/a" not in on_row


class TestRunExperiment:
    def test_report_structure(self, tiny_report):
        _, out, report = tiny_report
        assert report["schema_version"] == 1
        assert set(report["summary"]) == set(INFERENCE_MODES)
        assert "7" in report["per_seed"]
        on_disk = json.load(open(os.path.join(out, "report.json")))
        assert on_disk["config_hash"] == report["config_hash"]
        assert on_disk["summary"] == report["summary"]

    def test_rerun_identical_metrics(self, tiny_report, tmp_path):
        cfg, _, report = tiny_report
        report2 = run_experiment(copy.deepcopy(cfg), str(tmp_path))
        assert report2["per_seed"] == report["per_seed"]
        assert report2["summary"] == report["summary"]
        assert report2["config_hash"] == report["config_hash"]

    def test_ledger_csv_written(self, tiny_report):
        _, out, _ = tiny_report
        path = os.path.join(out, "ledger_seed7.csv")
        with open(path) as f:
            header = f.readline().strip().split(",")
        assert header == ["round", "client_id", "split", "accuracy", "L_CE", "L_CACL",
                          "L_CAFL", "L_total"]

    def test_failed_ledger_write_keeps_previous_file(self, tmp_path):
        row = {"round": 0, "client_id": 0, "split": "server_val", "accuracy": 0.5,
               "ce": 1.0, "cacl": 1.0, "cafl": 0.1, "total": 1.5}
        path = str(tmp_path / "ledger_seed0.csv")
        _write_ledger([row, row], path)
        with open(path) as f:
            before = f.read()
        broken = dict(row)
        del broken["cafl"]
        with pytest.raises(KeyError):  # raises after the header and first row
            _write_ledger([row, broken], path)
        with open(path) as f:
            assert f.read() == before
        assert os.listdir(tmp_path) == ["ledger_seed0.csv"]

    def test_checkpoint_written(self, tiny_report):
        _, out, _ = tiny_report
        assert os.path.exists(os.path.join(out, "checkpoints", "best_seed7.json"))


class TestCompareReports:
    def test_self_comparison_zero_delta(self, tiny_report):
        _, out, _ = tiny_report
        path = os.path.join(out, "report.json")
        table = compare_reports([path, path])
        assert "+0.00" in table

    def test_refuses_different_benchmark(self, tiny_report, tmp_path):
        _, out, _ = tiny_report
        other_cfg = tiny_cfg(["benchmark.classes=4"])
        run_experiment(other_cfg, str(tmp_path))
        with pytest.raises(ConfigError):
            compare_reports([os.path.join(out, "report.json"),
                             str(tmp_path / "report.json")])

    def test_report_that_is_not_json_refused(self, tiny_report, tmp_path, capsys):
        _, out, _ = tiny_report
        bad = tmp_path / "report.json"
        bad.write_text("{not json")
        good = os.path.join(out, "report.json")
        with pytest.raises(InputError, match="not valid JSON"):
            compare_reports([good, str(bad)])
        assert cli_main(["compare", good, str(bad)]) == 1
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("edit", [
        lambda rep: rep.pop("benchmark_hash"),
        lambda rep: rep["summary"].pop("eval_global"),
        lambda rep: rep["summary"]["fixed_alpha"].pop("std"),
        lambda rep: rep.update(summary=[]),
    ], ids=["no_benchmark_hash", "no_eval_global", "no_std", "summary_not_object"])
    def test_report_missing_a_field_refused(self, tiny_report, tmp_path, capsys, edit):
        _, out, report = tiny_report
        rep = copy.deepcopy(report)
        edit(rep)
        bad = tmp_path / "report.json"
        bad.write_text(json.dumps(rep))
        good = os.path.join(out, "report.json")
        with pytest.raises(InputError, match="needs a benchmark_hash"):
            compare_reports([str(bad), good])
        assert cli_main(["compare", str(bad), good]) == 1
        assert capsys.readouterr().err.startswith("error: ")


class TestCLI:
    def test_run_success_exit_zero(self, tmp_path, capsys):
        args = ["run", "--out", str(tmp_path)]
        for ov in TINY:
            args += ["--set", ov]
        assert cli_main(args) == 0
        out = capsys.readouterr().out
        assert "eval_global" in out

    def test_unknown_config_key_exit_two(self, tmp_path):
        assert cli_main(["run", "--out", str(tmp_path), "--set", "federation.nope=1"]) == 2

    def test_bad_config_file_exit_two(self, tmp_path):
        bad = tmp_path / "cfg.json"
        bad.write_text("{not json")
        assert cli_main(["run", "--config", str(bad)]) == 2

    def test_non_utf8_config_file_exit_two(self, tmp_path, capsys):
        bad = tmp_path / "cfg.json"
        bad.write_bytes(b"\xff\xfe{}")
        assert cli_main(["run", "--config", str(bad), "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith("config error: ")
        assert os.listdir(tmp_path) == ["cfg.json"]

    def test_missing_checkpoint_exit_one(self):
        assert cli_main(["inspect", "--checkpoint", "/nonexistent/ckpt.json"]) == 1

    def test_inspect_checkpoint(self, tiny_report, capsys):
        _, out, _ = tiny_report
        path = os.path.join(out, "checkpoints", "best_seed7.json")
        assert cli_main(["inspect", "--checkpoint", path]) == 0
        printed = capsys.readouterr().out
        assert "classifier.w" in printed

    def test_compare_cli(self, tiny_report, capsys):
        _, out, _ = tiny_report
        path = os.path.join(out, "report.json")
        assert cli_main(["compare", path, path]) == 0
        assert "delta_eval_global" in capsys.readouterr().out
