import json
import os

import numpy as np
import pytest

from feddiv.adapter import make_adapters
from feddiv.checkpoint import load_checkpoint, save_checkpoint
from feddiv.errors import CheckpointError
from feddiv.federation import extract_bundle
from feddiv.layers import SmallConvNet


def fresh_bundle(seed=0):
    net = SmallConvNet(widths=(4, 8), seed=seed)
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
