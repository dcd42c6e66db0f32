import json
import os

import numpy as np
import pytest

from feddiv.adapter import make_adapters
from feddiv.checkpoint import _payload_digest, load_checkpoint, save_checkpoint
from feddiv.cli import main as cli_main
from feddiv.errors import CheckpointError
from feddiv.federation import extract_bundle
from feddiv.layers import SmallConvNet


def fresh_bundle(seed=0):
    net = SmallConvNet(in_channels=3, widths=(4, 8), num_classes=5, seed=seed)
    return extract_bundle(net, make_adapters(net, 8, seed=seed))


class TestRoundtrip:
    def test_fresh_bundle_bitwise(self, tmp_path):
        bundle = fresh_bundle()
        path = str(tmp_path / "ck.json")
        save_checkpoint(bundle, path, extra={"note": "fresh"})
        back, extra = load_checkpoint(path)
        assert extra == {"note": "fresh"}
        assert set(back) == set(bundle)
        for k in bundle:
            assert np.array_equal(back[k], bundle[k]), k

    def test_trained_values_bitwise(self, tmp_path):
        bundle = fresh_bundle(3)
        rng = np.random.default_rng(0)
        for k in bundle:  # scramble with awkward values
            bundle[k] = bundle[k] + rng.uniform(-1e-9, 1e-9, bundle[k].shape) * np.pi
        path = str(tmp_path / "ck.json")
        save_checkpoint(bundle, path)
        back, _ = load_checkpoint(path)
        for k in bundle:
            assert np.array_equal(back[k], bundle[k]), k

    def test_expected_key_names(self, tmp_path):
        bundle = fresh_bundle()
        assert "block0.conv.w" in bundle
        assert "block0.bn.gamma" in bundle
        assert "block0.bn.local_mean" in bundle
        assert "adapter.0.fc1.w" in bundle


class TestCorruption:
    def test_bit_flip_detected(self, tmp_path):
        path = str(tmp_path / "ck.json")
        save_checkpoint(fresh_bundle(), path)
        doc = json.load(open(path))
        key = sorted(doc["arrays"])[0]
        blob = doc["arrays"][key]["data"]
        # flip one base64 character to another valid one
        pos = len(blob) // 2
        repl = "A" if blob[pos] != "A" else "B"
        doc["arrays"][key]["data"] = blob[:pos] + repl + blob[pos + 1:]
        json.dump(doc, open(path, "w"))
        with pytest.raises(CheckpointError, match="checksum"):
            load_checkpoint(path)

    def test_version_mismatch_refused(self, tmp_path):
        path = str(tmp_path / "ck.json")
        save_checkpoint(fresh_bundle(), path)
        doc = json.load(open(path))
        doc["version"] = 99
        json.dump(doc, open(path, "w"))
        with pytest.raises(CheckpointError, match="99"):
            load_checkpoint(path)

    def test_garbage_file(self, tmp_path):
        path = str(tmp_path / "ck.json")
        with open(path, "w") as f:
            f.write("not json at all {{{")
        with pytest.raises(CheckpointError):
            load_checkpoint(path)


    def test_v1_file_reports_unsupported_version(self, tmp_path):
        # v1 checksums left shapes out, so such a file cannot be trusted
        path = str(tmp_path / "ck.json")
        save_checkpoint(fresh_bundle(), path)
        doc = json.load(open(path))
        doc["version"] = 1
        json.dump(doc, open(path, "w"))
        with pytest.raises(CheckpointError, match="version 1 unsupported"):
            load_checkpoint(path)

    def test_shape_edit_detected(self, tmp_path):
        path = str(tmp_path / "ck.json")
        save_checkpoint({"w": np.arange(8.0).reshape(2, 4)}, path)
        doc = json.load(open(path))
        doc["arrays"]["w"]["shape"] = [4, 2]
        json.dump(doc, open(path, "w"))
        with pytest.raises(CheckpointError, match="checksum"):
            load_checkpoint(path)

    @pytest.mark.parametrize("text", ["[1]", "1", '"checkpoint"', "null"])
    def test_non_object_document_refused(self, tmp_path, text, capsys):
        path = str(tmp_path / "ck.json")
        with open(path, "w") as f:
            f.write(text)
        with pytest.raises(CheckpointError, match="not a checkpoint"):
            load_checkpoint(path)
        assert cli_main(["inspect", "--checkpoint", path]) == 1
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("field", ["checksum", "arrays", "extra"])
    def test_missing_field_refused(self, tmp_path, field):
        path = str(tmp_path / "ck.json")
        save_checkpoint(fresh_bundle(), path)
        doc = json.load(open(path))
        del doc[field]
        json.dump(doc, open(path, "w"))
        with pytest.raises(CheckpointError, match=field):
            load_checkpoint(path)

    @staticmethod
    def resealed(path, edit):
        """Edit one array entry and recompute the checksum over the result."""
        doc = json.load(open(path))
        edit(doc["arrays"]["w"])
        doc["checksum"] = _payload_digest(doc["arrays"])
        json.dump(doc, open(path, "w"))

    def test_bad_base64_refused(self, tmp_path):
        path = str(tmp_path / "ck.json")
        save_checkpoint({"w": np.arange(8.0).reshape(2, 4)}, path)
        self.resealed(path, lambda e: e.update(data="!!" + e["data"][2:]))
        with pytest.raises(CheckpointError, match="base64"):
            load_checkpoint(path)

    def test_non_ascii_data_refused(self, tmp_path):
        path = str(tmp_path / "ck.json")
        save_checkpoint({"w": np.arange(8.0).reshape(2, 4)}, path)
        doc = json.load(open(path))
        doc["arrays"]["w"]["data"] = "\u00e9" + doc["arrays"]["w"]["data"][1:]
        json.dump(doc, open(path, "w"))
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    @pytest.mark.parametrize("shape", [[3, 4], [2, 3], [], [2, -4], [2, 4.0], "24"])
    def test_shape_must_fit_the_data(self, tmp_path, shape):
        path = str(tmp_path / "ck.json")
        save_checkpoint({"w": np.arange(8.0).reshape(2, 4)}, path)
        self.resealed(path, lambda e: e.update(shape=shape))
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_empty_array_roundtrips(self, tmp_path):
        path = str(tmp_path / "ck.json")
        save_checkpoint({"e": np.zeros((0, 3))}, path)
        back, _ = load_checkpoint(path)
        assert back["e"].shape == (0, 3)


class TestAtomicWrite:
    def test_failed_save_keeps_previous_checkpoint(self, tmp_path):
        path = str(tmp_path / "ck.json")
        save_checkpoint(fresh_bundle(), path, extra={"note": "first"})
        with open(path, "rb") as f:
            before = f.read()
        # the arrays are written before the unserializable metadata raises
        with pytest.raises(TypeError):
            save_checkpoint(fresh_bundle(1), path, extra={"bad": object()})
        with open(path, "rb") as f:
            assert f.read() == before
        assert os.listdir(tmp_path) == ["ck.json"]
        assert load_checkpoint(path)[1] == {"note": "first"}
